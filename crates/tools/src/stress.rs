//! The Table V stress-test harness (paper Section VIII).
//!
//! Runs a stress test under a given frequency setting / EPB / turbo /
//! Hyper-Threading configuration, records the LMG450 AC trace, and extracts
//! the 1-minute interval with the highest average power — the paper's
//! methodology, which "favors LINPACK and mprime, as their power
//! consumption is not as constant over time". The measured core frequency
//! over the same interval comes from APERF/MPERF sampling.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_node::{CpuId, Node};

use crate::perfctr::{median_of, PerfCtr};

/// Result of one stress run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressResult {
    /// Highest 1-minute average AC power (W).
    pub max_window_power_w: f64,
    /// Median effective core frequency during the run (GHz).
    pub core_ghz: f64,
    /// Standard deviation of the AC samples (constancy metric — the paper
    /// stresses that FIRESTARTER is "extremely constant").
    pub power_stddev_w: f64,
}

/// Sliding-window maximum average.
fn max_window_avg(samples: &[f64], window: usize) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let window = window.clamp(1, samples.len());
    let mut sum: f64 = samples[..window].iter().sum();
    let mut best = sum;
    for i in window..samples.len() {
        sum += samples[i] - samples[i - window];
        best = best.max(sum);
    }
    best / window as f64
}

/// Assign `profile` to every core of both sockets — the configuration-
/// independent half of a stress run, shareable across Table V cells of the
/// same benchmark via warm-start snapshots. `ht` enables two threads per
/// core (Table V: Hyper-Threading not active).
pub fn assign_stress_load(node: &mut Node, profile: &WorkloadProfile, ht: bool) {
    let threads = if ht { 2 } else { 1 };
    let cores = node.config().spec.sku.cores;
    for s in 0..node.config().spec.sockets {
        node.run_on_socket(s, profile, cores, threads);
    }
}

/// The per-configuration half of a stress run: apply the frequency setting
/// / EPB / turbo knobs to a node whose workload is already assigned (see
/// [`assign_stress_load`]), settle, and measure. `run_s` is the recorded
/// duration; `window_s` the extraction window (60 s in the paper; shorter
/// in tests).
pub fn measure_stress(
    node: &mut Node,
    setting: FreqSetting,
    epb: EpbClass,
    turbo: bool,
    run_s: f64,
    window_s: f64,
) -> StressResult {
    node.set_epb_all(epb);
    node.set_turbo(turbo);
    node.set_setting_all(setting);
    node.advance_s(0.3); // settle transients

    // Interleave meter recording with 1 s frequency sampling.
    let pc = PerfCtr::new(node, CpuId::new(0, 0, 0));
    let mut ac = Vec::new();
    let mut freq_samples = Vec::new();
    let mut elapsed = 0.0;
    let mut prev = pc.sample(node);
    while elapsed < run_s {
        let chunk = 1.0_f64.min(run_s - elapsed);
        ac.extend(node.record_ac_trace(chunk));
        let cur = pc.sample(node);
        freq_samples.push(pc.derive(&prev, &cur));
        prev = cur;
        elapsed += chunk;
    }

    let samples_per_s = 20.0; // LMG450 rate
    let window = (window_s * samples_per_s).round() as usize;
    let mean = ac.iter().sum::<f64>() / ac.len() as f64;
    let var = ac.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / ac.len() as f64;
    StressResult {
        max_window_power_w: max_window_avg(&ac, window),
        core_ghz: median_of(&freq_samples, |d| d.core_ghz),
        power_stddev_w: var.sqrt(),
    }
}

/// Run `profile` on every core of both sockets and measure — the one-shot
/// composition of [`assign_stress_load`] and [`measure_stress`].
#[expect(
    clippy::too_many_arguments,
    reason = "the one-shot form takes every argument of `assign_stress_load` and `measure_stress`"
)]
pub fn run_stress(
    node: &mut Node,
    profile: &WorkloadProfile,
    setting: FreqSetting,
    epb: EpbClass,
    turbo: bool,
    ht: bool,
    run_s: f64,
    window_s: f64,
) -> StressResult {
    assign_stress_load(node, profile, ht);
    measure_stress(node, setting, epb, turbo, run_s, window_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_node::{NodeConfig, Resolution};

    fn node() -> Node {
        NodeConfig::paper_default()
            .session()
            .resolution(Resolution::Coarse)
            .build()
            .into_node()
    }

    #[test]
    fn max_window_avg_finds_the_hot_interval() {
        let mut v = vec![100.0; 100];
        for x in v.iter_mut().skip(40).take(20) {
            *x = 200.0;
        }
        assert!((max_window_avg(&v, 20) - 200.0).abs() < 1e-9);
        assert!(max_window_avg(&v, 50) < 200.0);
    }

    #[test]
    fn firestarter_beats_linpack_in_max_window_power() {
        // Table V: FIRESTARTER 560.4 W vs LINPACK 547.9 W (balanced EPB,
        // 2.5 GHz setting, HT off).
        let mut n = node();
        let fs = run_stress(
            &mut n,
            &WorkloadProfile::firestarter(),
            FreqSetting::from_mhz(2500),
            EpbClass::Balanced,
            true,
            false,
            8.0,
            4.0,
        );
        let mut n = node();
        let lp = run_stress(
            &mut n,
            &WorkloadProfile::linpack(),
            FreqSetting::from_mhz(2500),
            EpbClass::Balanced,
            true,
            false,
            8.0,
            4.0,
        );
        assert!(
            fs.max_window_power_w > lp.max_window_power_w,
            "FS {:.1} W vs LINPACK {:.1} W",
            fs.max_window_power_w,
            lp.max_window_power_w
        );
        // LINPACK runs at the lowest frequency of the stress tests.
        assert!(lp.core_ghz < fs.core_ghz);
    }

    #[test]
    fn firestarter_power_is_the_most_constant() {
        let mut n = node();
        let fs = run_stress(
            &mut n,
            &WorkloadProfile::firestarter(),
            FreqSetting::from_mhz(2500),
            EpbClass::Balanced,
            true,
            false,
            6.0,
            3.0,
        );
        let mut n = node();
        let mp = run_stress(
            &mut n,
            &WorkloadProfile::mprime(),
            FreqSetting::from_mhz(2500),
            EpbClass::Balanced,
            true,
            false,
            6.0,
            3.0,
        );
        assert!(
            fs.power_stddev_w < mp.power_stddev_w,
            "FS σ={:.2} vs mprime σ={:.2}",
            fs.power_stddev_w,
            mp.power_stddev_w
        );
    }

    #[test]
    fn mprime_exceeds_nominal_frequency_under_turbo() {
        // Table V: mprime's measured frequency is 2.60–2.62 GHz at the
        // Turbo setting — above the 2.5 GHz nominal.
        let mut n = node();
        let mp = run_stress(
            &mut n,
            &WorkloadProfile::mprime(),
            FreqSetting::Turbo,
            EpbClass::Balanced,
            true,
            false,
            6.0,
            3.0,
        );
        assert!(mp.core_ghz > 2.5, "mprime at {:.3} GHz", mp.core_ghz);
    }
}
