//! Wake-up latency model (paper Figures 5/6, Section VI-B).
//!
//! The latency of returning a core to C0 depends on the idle state, the
//! core frequency, the relationship between waker and wakee, and the
//! package state of the wakee's socket. The per-generation exit-latency
//! table comes from the generation's [`CStateExitPolicy`]; this module
//! combines it per scenario.

use hsw_hwspec::{CStateExitPolicy, CpuGeneration};

use crate::state::CoreCState;

/// Relationship between the waking and the woken core in the measurement
/// (paper Figure 5 caption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeScenario {
    /// Waker and wakee on the same processor (no package c-state involved —
    /// the waker keeps its package in PC0).
    Local,
    /// Waker on the other processor, a third core keeping the wakee's
    /// processor out of package c-states.
    RemoteActive,
    /// Waker on the other processor, wakee's processor fully idle — the
    /// wakee is in a *package* C3/C6.
    RemoteIdle,
}

impl WakeScenario {
    pub const ALL: [WakeScenario; 3] = [
        WakeScenario::Local,
        WakeScenario::RemoteActive,
        WakeScenario::RemoteIdle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WakeScenario::Local => "local",
            WakeScenario::RemoteActive => "remote active",
            WakeScenario::RemoteIdle => "remote idle",
        }
    }
}

/// Position of `freq_ghz` inside the policy's state-restore frequency
/// window: 1.0 at the low end (slowest restore), 0.0 at the high end.
fn restore_slowness(p: &CStateExitPolicy, freq_ghz: f64) -> f64 {
    let f = freq_ghz.clamp(p.restore_freq_lo_ghz, p.restore_freq_hi_ghz);
    (p.restore_freq_hi_ghz - f) / (p.restore_freq_hi_ghz - p.restore_freq_lo_ghz)
}

/// Frequency-dependent part of the C6 exit (state restore + cache refill
/// runs at core speed): +2 µs at the top frequency, +8 µs at 1.2 GHz.
fn c6_extra_us(p: &CStateExitPolicy, freq_ghz: f64) -> f64 {
    let t = restore_slowness(p, freq_ghz);
    p.c6_extra_min_us + t * (p.c6_extra_max_us - p.c6_extra_min_us)
}

/// Package-C3 adder: "another two to four microseconds", shrinking as the
/// (uncore restart helping) frequency grows.
fn pkg_c3_extra_us(p: &CStateExitPolicy, freq_ghz: f64) -> f64 {
    let t = restore_slowness(p, freq_ghz);
    p.pkg_c3_extra_min_us + t * (p.pkg_c3_extra_max_us - p.pkg_c3_extra_min_us)
}

/// The scenario-resolved exit latency before the policy's deep-state
/// generation deltas.
fn base_latency_us(
    p: &CStateExitPolicy,
    state: CoreCState,
    scenario: WakeScenario,
    freq_ghz: f64,
) -> f64 {
    match state {
        CoreCState::C0 => 0.0,
        CoreCState::C1 => {
            let base = p.c1_base_us + p.c1_cycles_k / freq_ghz.max(0.1);
            match scenario {
                WakeScenario::Local => base,
                // C1 does not involve package states; remote adds the QPI hop.
                WakeScenario::RemoteActive | WakeScenario::RemoteIdle => {
                    base + p.c1_remote_extra_us
                }
            }
        }
        CoreCState::C3 => {
            let mut lat = p.c3_base_us;
            if freq_ghz > p.c3_highfreq_threshold_ghz {
                lat += p.c3_highfreq_step_us;
            }
            match scenario {
                WakeScenario::Local => lat,
                WakeScenario::RemoteActive => lat + p.c3_remote_extra_us,
                WakeScenario::RemoteIdle => {
                    lat + p.c3_remote_extra_us + pkg_c3_extra_us(p, freq_ghz)
                }
            }
        }
        CoreCState::C6 => {
            let c3 = base_latency_us(p, CoreCState::C3, scenario, freq_ghz);
            let extra = c6_extra_us(p, freq_ghz);
            match scenario {
                WakeScenario::Local | WakeScenario::RemoteActive => c3 + extra,
                // Package C6 adds 8 µs over package C3 (paper Section VI-B).
                WakeScenario::RemoteIdle => c3 + extra + p.pkg_c6_extra_us,
            }
        }
    }
}

/// Wake-up latency in µs for returning `state` to C0.
///
/// `freq_ghz` is the core frequency of the wakee at wake time. For
/// [`WakeScenario::RemoteIdle`] the wakee's package is assumed to be in the
/// package state corresponding to `state` (PC3 for C3, PC6 for C6), which is
/// what the paper's "remote idle" experiment produces.
pub fn wake_latency_us(
    generation: CpuGeneration,
    state: CoreCState,
    scenario: WakeScenario,
    freq_ghz: f64,
) -> f64 {
    let p = &generation.policy().cstate_exit;
    let base = base_latency_us(p, state, scenario, freq_ghz);
    // Grey reference curves in Figures 5/6: pre-Haswell exits from deep
    // states were slightly slower; the policy carries the deltas (zero on
    // Haswell and Skylake-SP).
    match state {
        CoreCState::C3 => base + p.deep_c3_extra_us,
        CoreCState::C6 => base + p.deep_c6_extra_us,
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::calib::cstate as cal;
    use proptest::prelude::*;

    const HSW: CpuGeneration = CpuGeneration::HaswellEp;
    const SNB: CpuGeneration = CpuGeneration::SandyBridgeEp;

    #[test]
    fn c1_matches_section_vi_b() {
        // "Transitions from C1 are below 1.6 µs for local measurement and up
        // to 2.1 µs for remote measurement (at 1.2 GHz core frequency)."
        let local = wake_latency_us(HSW, CoreCState::C1, WakeScenario::Local, 1.2);
        let remote = wake_latency_us(HSW, CoreCState::C1, WakeScenario::RemoteActive, 1.2);
        assert!(local < 1.6, "local = {local}");
        assert!(remote <= 2.1, "remote = {remote}");
        assert!(remote > local);
    }

    #[test]
    fn haswell_policy_reproduces_the_calibration_table() {
        // Satellite regression: the policy-driven model must pin the exact
        // values the calib constants produced before the refactor.
        let c1 = wake_latency_us(HSW, CoreCState::C1, WakeScenario::Local, 1.2);
        assert_eq!(c1, cal::C1_BASE_US + cal::C1_CYCLES_K / 1.2);
        let c3_lo = wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, 1.2);
        assert_eq!(c3_lo, cal::C3_BASE_US);
        let c3_hi = wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, 2.5);
        assert_eq!(c3_hi, cal::C3_BASE_US + cal::C3_HIGHFREQ_STEP_US);
        let c6_slow = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, 1.2);
        assert_eq!(c6_slow, cal::C3_BASE_US + cal::C6_EXTRA_MAX_US);
        let c6_pkg = wake_latency_us(HSW, CoreCState::C6, WakeScenario::RemoteIdle, 1.2);
        assert_eq!(
            c6_pkg,
            cal::C3_BASE_US
                + cal::C3_REMOTE_EXTRA_US
                + cal::PKG_C3_EXTRA_MAX_US
                + cal::C6_EXTRA_MAX_US
                + cal::PKG_C6_EXTRA_US
        );
    }

    #[test]
    fn c3_is_mostly_frequency_independent_with_a_step() {
        // "transition times for C3 states are mostly independent of the core
        // frequencies. However, the latency is 1.5 µs higher when frequencies
        // are greater than 1.5 GHz."
        let lo = wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, 1.3);
        let at = wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, 1.5);
        let hi = wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, 2.5);
        assert_eq!(lo, at);
        assert!((hi - lo - 1.5).abs() < 1e-9);
        // And independent within each side of the step.
        assert_eq!(
            wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, 1.6),
            hi
        );
    }

    #[test]
    fn package_c3_adds_two_to_four_microseconds() {
        for f in [1.2, 1.8, 2.5] {
            let active = wake_latency_us(HSW, CoreCState::C3, WakeScenario::RemoteActive, f);
            let idle = wake_latency_us(HSW, CoreCState::C3, WakeScenario::RemoteIdle, f);
            let d = idle - active;
            assert!((2.0..=4.0).contains(&d), "delta = {d} at {f} GHz");
        }
    }

    #[test]
    fn c6_depends_strongly_on_frequency() {
        // "Transition times from C6 states depend strongly on the processor
        // frequency ... Compared to C3, the latency is increased by 2 to
        // 8 µs in the local C6 case."
        for f in [1.2, 1.8, 2.5] {
            let c3 = wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, f);
            let c6 = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, f);
            let d = c6 - c3;
            assert!((2.0..=8.0).contains(&d), "delta = {d} at {f} GHz");
        }
        let slow = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, 1.2);
        let fast = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, 2.5);
        // 6 µs of C6-restore spread minus the 1.5 µs C3 step = 4.5 µs net.
        assert!(slow - fast >= 4.0, "C6 spread {} too small", slow - fast);
    }

    #[test]
    fn package_c6_adds_eight_microseconds_over_package_c3() {
        for f in [1.2, 2.0, 2.5] {
            let c3_pkg = wake_latency_us(HSW, CoreCState::C3, WakeScenario::RemoteIdle, f);
            let c6_pkg = wake_latency_us(HSW, CoreCState::C6, WakeScenario::RemoteIdle, f);
            let c6_extra_local = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, f)
                - wake_latency_us(HSW, CoreCState::C3, WakeScenario::Local, f);
            let d = c6_pkg - c3_pkg - c6_extra_local;
            assert!((d - 8.0).abs() < 1e-9, "pkg C6 adder = {d}");
        }
    }

    #[test]
    fn all_measured_latencies_are_below_acpi_tables() {
        // Paper Section VI-B: "the measured transition times for C3 and C6
        // are lower than the definitions in the respective ACPI tables
        // (33 and 133 µs)".
        for f in [1.2, 1.5, 2.0, 2.5, 3.3] {
            for scen in WakeScenario::ALL {
                assert!(wake_latency_us(HSW, CoreCState::C3, scen, f) < 33.0);
                assert!(wake_latency_us(HSW, CoreCState::C6, scen, f) < 133.0);
            }
        }
    }

    #[test]
    fn sandy_bridge_deep_exits_are_slower() {
        // Conclusions: "transition latencies from deep c-states have slightly
        // improved" on Haswell.
        for f in [1.2, 2.0, 2.5] {
            for scen in WakeScenario::ALL {
                assert!(
                    wake_latency_us(SNB, CoreCState::C6, scen, f)
                        > wake_latency_us(HSW, CoreCState::C6, scen, f)
                );
                assert!(
                    wake_latency_us(SNB, CoreCState::C3, scen, f)
                        > wake_latency_us(HSW, CoreCState::C3, scen, f)
                );
            }
        }
    }

    #[test]
    fn skylake_deep_exits_match_haswell_over_its_restore_window() {
        // 1905.12468 Table VI: Skylake-SP deep-state exits are in the same
        // range as Haswell's; only the restore window's upper clamp differs
        // (2.1 GHz base). At the low clamp they coincide exactly.
        let skx = CpuGeneration::SkylakeSp;
        assert_eq!(
            wake_latency_us(skx, CoreCState::C6, WakeScenario::Local, 1.2),
            wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, 1.2),
        );
        // Above its (lower) restore ceiling the SKX C6 exit stops shrinking.
        assert_eq!(
            wake_latency_us(skx, CoreCState::C6, WakeScenario::Local, 2.1),
            wake_latency_us(skx, CoreCState::C6, WakeScenario::Local, 2.5),
        );
        // Inside both windows the narrower SKX window restores faster at the
        // same absolute frequency (its base clock is lower).
        assert!(
            wake_latency_us(skx, CoreCState::C6, WakeScenario::Local, 1.8)
                < wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, 1.8)
        );
    }

    #[test]
    fn cstate_wakes_are_faster_than_pstate_transitions() {
        // Paper Section VI-B: "the c-state transitions happen faster than
        // p-state (core frequency) transitions" — worst c-state wake vs.
        // the ~500 µs p-state quantum.
        let worst = wake_latency_us(HSW, CoreCState::C6, WakeScenario::RemoteIdle, 1.2);
        assert!(worst < hsw_hwspec::calib::PSTATE_OPPORTUNITY_PERIOD_US as f64);
    }

    proptest! {
        #[test]
        fn prop_latency_ordering_c1_c3_c6(
            f in 1.2f64..3.3,
            scen_idx in 0usize..3,
        ) {
            let scen = WakeScenario::ALL[scen_idx];
            let c1 = wake_latency_us(HSW, CoreCState::C1, scen, f);
            let c3 = wake_latency_us(HSW, CoreCState::C3, scen, f);
            let c6 = wake_latency_us(HSW, CoreCState::C6, scen, f);
            prop_assert!(c1 < c3 && c3 < c6);
        }

        #[test]
        fn prop_remote_never_faster_than_local(f in 1.2f64..3.3) {
            for st in CoreCState::IDLE_STATES {
                let local = wake_latency_us(HSW, st, WakeScenario::Local, f);
                let ra = wake_latency_us(HSW, st, WakeScenario::RemoteActive, f);
                let ri = wake_latency_us(HSW, st, WakeScenario::RemoteIdle, f);
                prop_assert!(local <= ra);
                prop_assert!(ra <= ri);
            }
        }

        #[test]
        // Above the C3 high-frequency step the C6 exit time shrinks with
        // frequency (state restore runs at core speed). Below 1.5 GHz the
        // +1.5 µs C3 step makes the total non-monotone, as in the paper.
        fn prop_c6_latency_monotone_nonincreasing_in_frequency(f in 1.5f64..2.4) {
            let slow = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, f);
            let fast = wake_latency_us(HSW, CoreCState::C6, WakeScenario::Local, f + 0.1);
            prop_assert!(fast <= slow + 1e-9);
        }

        #[test]
        // Every generation's latency table keeps the depth ordering — the
        // policy cannot produce a deep state that wakes faster than a
        // shallow one.
        fn prop_depth_ordering_for_all_generations(
            f in 1.2f64..3.3,
            scen_idx in 0usize..3,
        ) {
            let scen = WakeScenario::ALL[scen_idx];
            for gen in [
                CpuGeneration::WestmereEp,
                CpuGeneration::SandyBridgeEp,
                CpuGeneration::IvyBridgeEp,
                CpuGeneration::HaswellEp,
                CpuGeneration::HaswellHe,
                CpuGeneration::SkylakeSp,
            ] {
                let c1 = wake_latency_us(gen, CoreCState::C1, scen, f);
                let c3 = wake_latency_us(gen, CoreCState::C3, scen, f);
                let c6 = wake_latency_us(gen, CoreCState::C6, scen, f);
                prop_assert!(c1 < c3 && c3 < c6, "{}", gen.name());
            }
        }
    }
}
