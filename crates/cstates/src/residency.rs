//! Governor-quality statistics over idle episodes.
//!
//! How often the menu governor's choice matched what the (hindsight)
//! optimal state would have been given the ACPI tables it used — the
//! measurable consequence of the paper's "the discrepancy between the
//! measured and defined latencies underlines the need for an interface to
//! change these tables at runtime".

use crate::state::CoreCState;

/// One observed idle episode: what the governor picked and how long the
/// idle actually lasted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleEpisode {
    pub selected: CoreCState,
    pub actual_idle_us: u32,
}

/// The deepest state whose *true* break-even (measured exit latency, not
/// the ACPI claim) fits the idle interval.
pub fn hindsight_optimal(
    actual_idle_us: u32,
    measured_c3_exit_us: f64,
    measured_c6_exit_us: f64,
) -> CoreCState {
    // Break-even at ~3× exit latency, like the governor's residency rule.
    if actual_idle_us as f64 >= 3.0 * measured_c6_exit_us {
        CoreCState::C6
    } else if actual_idle_us as f64 >= 3.0 * measured_c3_exit_us {
        CoreCState::C3
    } else if actual_idle_us >= 5 {
        CoreCState::C1
    } else {
        CoreCState::C0
    }
}

/// Governor-quality statistics over a set of episodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernorStats {
    pub episodes: usize,
    /// Governor picked shallower than hindsight-optimal (energy left on the
    /// table — the inflated-ACPI-table effect).
    pub too_shallow: usize,
    /// Governor picked deeper than optimal (latency paid for nothing).
    pub too_deep: usize,
}

impl GovernorStats {
    pub fn evaluate(
        episodes: &[IdleEpisode],
        measured_c3_exit_us: f64,
        measured_c6_exit_us: f64,
    ) -> GovernorStats {
        let mut stats = GovernorStats::default();
        for e in episodes {
            stats.episodes += 1;
            let optimal =
                hindsight_optimal(e.actual_idle_us, measured_c3_exit_us, measured_c6_exit_us);
            if e.selected < optimal {
                stats.too_shallow += 1;
            } else if e.selected > optimal {
                stats.too_deep += 1;
            }
        }
        stats
    }

    pub fn accuracy(&self) -> f64 {
        if self.episodes == 0 {
            return 1.0;
        }
        1.0 - (self.too_shallow + self.too_deep) as f64 / self.episodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::select_core_state;
    use crate::latency::{wake_latency_us, WakeScenario};
    use hsw_hwspec::AcpiLatencyTable;
    use hsw_hwspec::CpuGeneration;
    use proptest::prelude::*;

    #[test]
    fn inflated_acpi_tables_cause_too_shallow_choices() {
        // The paper's point, quantified: with measured C6 exits of ~15 µs
        // but an ACPI claim of 133 µs, mid-length idles (100–390 µs) get C3
        // (or shallower) although C6 would pay off.
        let table = AcpiLatencyTable::haswell_ep();
        let measured_c3 = wake_latency_us(
            CpuGeneration::HaswellEp,
            CoreCState::C3,
            WakeScenario::Local,
            2.5,
        );
        let measured_c6 = wake_latency_us(
            CpuGeneration::HaswellEp,
            CoreCState::C6,
            WakeScenario::Local,
            2.5,
        );
        let episodes: Vec<IdleEpisode> = (0..50)
            .map(|i| {
                let idle = 60 + i * 6; // 60–354 µs
                IdleEpisode {
                    selected: select_core_state(&table, idle),
                    actual_idle_us: idle,
                }
            })
            .collect();
        let stats = GovernorStats::evaluate(&episodes, measured_c3, measured_c6);
        assert!(
            stats.too_shallow > stats.episodes / 2,
            "too_shallow {}/{}",
            stats.too_shallow,
            stats.episodes
        );
        assert_eq!(stats.too_deep, 0);
        assert!(stats.accuracy() < 0.5);
    }

    #[test]
    fn accurate_tables_would_fix_the_governor() {
        // With tables reflecting the *measured* latencies, the same
        // episodes are classified correctly — the runtime-interface ask.
        let measured_c3 = 9.5;
        let measured_c6 = 15.0;
        let honest = AcpiLatencyTable {
            pstate_transition_us: 500,
            c1_exit_us: 2,
            c3_exit_us: measured_c3 as u32,
            c6_exit_us: measured_c6 as u32,
        };
        let episodes: Vec<IdleEpisode> = (0..50)
            .map(|i| {
                let idle = 60 + i * 6;
                IdleEpisode {
                    selected: select_core_state(&honest, idle),
                    actual_idle_us: idle,
                }
            })
            .collect();
        let stats = GovernorStats::evaluate(&episodes, measured_c3, measured_c6);
        assert!(stats.accuracy() > 0.9, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn hindsight_depth_is_monotone_in_idle_length() {
        let mut prev = CoreCState::C0;
        for idle in (0..500).step_by(10) {
            let s = hindsight_optimal(idle, 9.5, 15.0);
            assert!(s >= prev, "depth regressed at {idle} µs");
            prev = s;
        }
    }

    proptest! {
        #[test]
        fn prop_governor_stats_partition_episodes(
            idles in proptest::collection::vec(0u32..2000, 1..100)
        ) {
            let table = AcpiLatencyTable::haswell_ep();
            let episodes: Vec<IdleEpisode> = idles
                .iter()
                .map(|idle| IdleEpisode {
                    selected: select_core_state(&table, *idle),
                    actual_idle_us: *idle,
                })
                .collect();
            let stats = GovernorStats::evaluate(&episodes, 9.5, 15.0);
            prop_assert!(stats.too_shallow + stats.too_deep <= stats.episodes);
            prop_assert!((0.0..=1.0).contains(&stats.accuracy()));
        }
    }
}
