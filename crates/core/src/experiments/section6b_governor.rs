//! Section VI-B's conclusion, quantified: "the measured transition times
//! for C3 and C6 are lower than the definitions in the respective ACPI
//! tables ... The discrepancy between the measured and defined latencies
//! underlines the need for an interface to change these tables at runtime."
//!
//! We make that concrete: generate a realistic idle-interval distribution,
//! run the menu governor once with the firmware's (inflated) ACPI tables
//! and once with tables set to the latencies *measured* in the Figures 5/6
//! experiment, and score both against hindsight-optimal state choices.

use hsw_cstates::residency::{GovernorStats, IdleEpisode};
use hsw_cstates::{select_core_state, wake_latency_us, CoreCState, WakeScenario};
use hsw_hwspec::{AcpiLatencyTable, CpuGeneration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::survey::RunCtx;
use crate::Table;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GovernorComparison {
    pub episodes: usize,
    pub firmware_accuracy: f64,
    pub firmware_too_shallow: usize,
    pub measured_accuracy: f64,
    pub measured_too_shallow: usize,
    /// The measured exit latencies fed into the honest tables (µs).
    pub measured_c3_us: f64,
    pub measured_c6_us: f64,
    pub table: Table,
}

impl std::fmt::Display for GovernorComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// A server-like idle-interval distribution: mostly short interrupts with a
/// long tail (log-uniform between 5 µs and 50 ms).
fn idle_intervals(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let log = rng.gen_range(ln(5.0)..ln(50_000.0));
            log.exp() as u32
        })
        .collect()
}

fn ln(x: f64) -> f64 {
    x.ln()
}

/// The idle-interval distribution is drawn from `ctx.seed`.
pub fn run(ctx: &RunCtx) -> GovernorComparison {
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let intervals = idle_intervals(2_000, &mut rng);

    // The latencies the Figures 5/6 experiment measured (local, 2.5 GHz).
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

    let firmware = AcpiLatencyTable::haswell_ep();
    let honest = AcpiLatencyTable {
        pstate_transition_us: firmware.pstate_transition_us,
        c1_exit_us: firmware.c1_exit_us,
        c3_exit_us: measured_c3.round() as u32,
        c6_exit_us: measured_c6.round() as u32,
    };

    let score = |table: &AcpiLatencyTable| {
        let episodes: Vec<IdleEpisode> = intervals
            .iter()
            .map(|idle| IdleEpisode {
                selected: select_core_state(table, *idle),
                actual_idle_us: *idle,
            })
            .collect();
        GovernorStats::evaluate(&episodes, measured_c3, measured_c6)
    };
    let fw = score(&firmware);
    let hn = score(&honest);

    let mut t = Table::new(
        "Section VI-B: menu governor vs ACPI tables (2000 idle episodes, hindsight-scored)",
        vec![
            "tables",
            "C3/C6 latency claim",
            "accuracy",
            "too shallow",
            "too deep",
        ],
    );
    t.row(vec![
        "firmware".to_string(),
        format!("{}/{} µs", firmware.c3_exit_us, firmware.c6_exit_us),
        format!("{:.1} %", fw.accuracy() * 100.0),
        fw.too_shallow.to_string(),
        fw.too_deep.to_string(),
    ]);
    t.row(vec![
        "measured (runtime-updated)".to_string(),
        format!("{}/{} µs", honest.c3_exit_us, honest.c6_exit_us),
        format!("{:.1} %", hn.accuracy() * 100.0),
        hn.too_shallow.to_string(),
        hn.too_deep.to_string(),
    ]);

    GovernorComparison {
        episodes: intervals.len(),
        firmware_accuracy: fw.accuracy(),
        firmware_too_shallow: fw.too_shallow,
        measured_accuracy: hn.accuracy(),
        measured_too_shallow: hn.too_shallow,
        measured_c3_us: measured_c3,
        measured_c6_us: measured_c6,
        table: t,
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "section6b_governor"
    }
    fn anchor(&self) -> &'static str {
        "Section VI-B"
    }
    fn title(&self) -> &'static str {
        "Menu governor with firmware vs. measured ACPI tables"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        out.metric("firmware_accuracy", r.firmware_accuracy);
        out.metric("measured_accuracy", r.measured_accuracy);
        out.check(
            "runtime-updated tables beat the firmware tables",
            r.measured_accuracy > r.firmware_accuracy,
            format!(
                "measured {:.1}% vs firmware {:.1}%",
                r.measured_accuracy * 100.0,
                r.firmware_accuracy * 100.0
            ),
        );
        out.check(
            "measured latencies sit below the ACPI claims",
            r.measured_c3_us < 33.0 && r.measured_c6_us < 133.0,
            format!(
                "C3 {:.1} us (claim 33), C6 {:.1} us (claim 133)",
                r.measured_c3_us, r.measured_c6_us
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_cstates::residency::hindsight_optimal;
    use hsw_node::EngineMode;

    fn cached() -> &'static GovernorComparison {
        static CACHE: std::sync::OnceLock<GovernorComparison> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0x6B, EngineMode::default())))
    }

    #[test]
    fn honest_tables_substantially_improve_the_governor() {
        let c = cached();
        assert!(
            c.measured_accuracy > c.firmware_accuracy + 0.10,
            "measured {:.2} vs firmware {:.2}",
            c.measured_accuracy,
            c.firmware_accuracy
        );
        assert!(c.measured_accuracy > 0.9, "{:.2}", c.measured_accuracy);
    }

    #[test]
    fn firmware_errors_are_exclusively_too_shallow() {
        // Inflated latency claims only ever make the governor too timid.
        let c = cached();
        assert!(c.firmware_too_shallow > 0);
        assert_eq!(
            c.firmware_too_shallow,
            (c.episodes as f64 * (1.0 - c.firmware_accuracy)).round() as usize
        );
    }

    #[test]
    fn measured_latencies_are_below_the_acpi_claims() {
        let c = cached();
        assert!(c.measured_c3_us < 33.0);
        assert!(c.measured_c6_us < 133.0);
    }

    #[test]
    fn hindsight_scoring_is_self_consistent() {
        // An oracle using the measured latencies directly scores perfectly.
        let c = cached();
        let oracle: Vec<IdleEpisode> = (10..500)
            .step_by(7)
            .map(|idle| IdleEpisode {
                selected: hindsight_optimal(idle, c.measured_c3_us, c.measured_c6_us),
                actual_idle_us: idle,
            })
            .collect();
        let stats = GovernorStats::evaluate(&oracle, c.measured_c3_us, c.measured_c6_us);
        assert_eq!(stats.accuracy(), 1.0);
    }
}
