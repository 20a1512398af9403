//! C-state wake-up latency measurement (paper Section VI-B, Figures 5/6;
//! tooling of Schöne et al. \[27\]).
//!
//! The real tool arms a wakee core in a chosen idle state and lets a waker
//! core write to a shared cache line; the time from store to the wakee's
//! first instruction is the wake-up latency. Our simulated node resolves
//! idle states at tick granularity, so the sub-µs event itself is computed
//! from the calibrated latency model (`hsw-cstates`) — but the *scenario*
//! is realized on the node (waker placement, the third "keep-awake" core,
//! package-state verification), and the tool adds the measurement jitter a
//! cache-line-handshake method exhibits.

use hsw_cstates::{wake_latency_us, CoreCState, WakeScenario};
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::CpuGeneration;
use hsw_node::{CpuId, Node};
use rand::Rng;

/// One point of a Figure 5/6 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CStateLatencyPoint {
    pub freq_ghz: f64,
    pub state: CoreCState,
    pub scenario: WakeScenario,
    pub latency_us: f64,
}

/// Configure the node for a scenario and measure the wake-up latency of
/// `state` at the wakee's current frequency, averaged over `iterations`
/// handshakes.
///
/// Placement follows the paper: waker on socket 0 core 0; wakee on socket 0
/// core 1 (local) or socket 1 core 0 (remote); for remote-active a third
/// core on the wakee's socket spins to keep the package out of PC3/PC6.
pub fn measure_wake_latency_us<R: Rng>(
    node: &mut Node,
    generation: CpuGeneration,
    state: CoreCState,
    scenario: WakeScenario,
    freq: FreqSetting,
    iterations: usize,
    rng: &mut R,
) -> CStateLatencyPoint {
    node.idle_all();
    let busy = WorkloadProfile::busy_wait();
    // Waker always runs on socket 0.
    node.assign(CpuId::new(0, 0, 0), Some(busy.clone()));
    let wakee_socket = match scenario {
        WakeScenario::Local => 0,
        WakeScenario::RemoteActive | WakeScenario::RemoteIdle => 1,
    };
    if scenario == WakeScenario::RemoteActive {
        // A third core prevents the remote package c-state.
        node.assign(CpuId::new(1, 2, 0), Some(busy.clone()));
    }
    node.set_setting_all(freq);
    node.advance_s(0.01);

    // Scenario sanity: the package state of the wakee's socket must match
    // what the experiment assumes.
    let pkg = node.sockets()[wakee_socket].package_cstate();
    match scenario {
        WakeScenario::Local => debug_assert_eq!(pkg.name(), "PC0"),
        WakeScenario::RemoteActive => debug_assert_eq!(pkg.name(), "PC0"),
        WakeScenario::RemoteIdle => debug_assert_eq!(pkg.name(), "PC2"),
    }

    let f_ghz = match freq {
        FreqSetting::Turbo => node.config().spec.sku.freq.turbo_mhz(1) as f64 / 1000.0,
        FreqSetting::Fixed(p) => p.ghz(),
    };
    let ideal = wake_latency_us(generation, state, scenario, f_ghz);
    // Cache-line handshake measurement noise: sub-100 ns per sample,
    // averaged over the campaign.
    let mut sum = 0.0;
    for _ in 0..iterations.max(1) {
        sum += ideal + rng.gen_range(-0.08..=0.08);
        node.advance_us(50);
    }
    CStateLatencyPoint {
        freq_ghz: f_ghz,
        state,
        scenario,
        latency_us: sum / iterations.max(1) as f64,
    }
}

/// Sweep a full Figure 5/6 series: one scenario and state across the
/// selectable frequency range.
pub fn sweep_series<R: Rng>(
    node: &mut Node,
    generation: CpuGeneration,
    state: CoreCState,
    scenario: WakeScenario,
    iterations: usize,
    rng: &mut R,
) -> Vec<CStateLatencyPoint> {
    let settings: Vec<FreqSetting> = node
        .config()
        .spec
        .sku
        .freq
        .selectable_pstates()
        .into_iter()
        .rev() // low to high frequency, as plotted
        .map(FreqSetting::Fixed)
        .collect();
    settings
        .into_iter()
        .map(|f| measure_wake_latency_us(node, generation, state, scenario, f, iterations, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_node::NodeConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const HSW: CpuGeneration = CpuGeneration::HaswellEp;

    fn node() -> Node {
        NodeConfig::paper_default().session().build().into_node()
    }

    #[test]
    fn measured_latencies_track_the_model_within_noise() {
        let mut n = node();
        let mut rng = SmallRng::seed_from_u64(5);
        for state in [CoreCState::C3, CoreCState::C6] {
            for scen in WakeScenario::ALL {
                let p = measure_wake_latency_us(
                    &mut n,
                    HSW,
                    state,
                    scen,
                    FreqSetting::from_mhz(2000),
                    25,
                    &mut rng,
                );
                let ideal = wake_latency_us(HSW, state, scen, 2.0);
                assert!(
                    (p.latency_us - ideal).abs() < 0.1,
                    "{state:?}/{scen:?}: {} vs {ideal}",
                    p.latency_us
                );
            }
        }
    }

    #[test]
    fn series_covers_the_selectable_range() {
        let mut n = node();
        let mut rng = SmallRng::seed_from_u64(6);
        let series = sweep_series(
            &mut n,
            HSW,
            CoreCState::C6,
            WakeScenario::Local,
            5,
            &mut rng,
        );
        assert_eq!(series.len(), 14); // 1.2 … 2.5 GHz
        assert!((series.first().unwrap().freq_ghz - 1.2).abs() < 1e-9);
        assert!((series.last().unwrap().freq_ghz - 2.5).abs() < 1e-9);
        // C6 latency falls with frequency (Figure 6 shape).
        assert!(series.first().unwrap().latency_us > series.last().unwrap().latency_us + 3.0);
    }

    #[test]
    fn remote_idle_scenario_reaches_a_package_idle_state() {
        // The debug assertion inside the measurement verifies the package
        // state; this test exercises that path.
        let mut n = node();
        let mut rng = SmallRng::seed_from_u64(7);
        let p = measure_wake_latency_us(
            &mut n,
            HSW,
            CoreCState::C6,
            WakeScenario::RemoteIdle,
            FreqSetting::from_mhz(1200),
            5,
            &mut rng,
        );
        assert!(p.latency_us > 15.0);
    }
}
