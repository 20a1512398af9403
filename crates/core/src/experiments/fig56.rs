//! Figures 5 and 6 — idle (c-state) transition latencies for C3 and C6 in
//! the local, remote-active, and remote-idle (package c-state) scenarios,
//! compared against Sandy Bridge-EP (paper Section VI-B).

use hsw_cstates::{CoreCState, WakeScenario};
use hsw_hwspec::CpuGeneration;
use hsw_tools::cstate_lat::{sweep_series, CStateLatencyPoint};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::survey::{mix_seed, RunCtx};

/// One plotted series: a generation × state × scenario sweep over frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig56Series {
    pub generation: String,
    pub state: String,
    pub scenario: String,
    pub points: Vec<(f64, f64)>, // (GHz, µs)
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig56 {
    pub series: Vec<Fig56Series>,
}

impl Fig56 {
    pub fn series_for(
        &self,
        generation: &str,
        state: &str,
        scenario: &str,
    ) -> Option<&Fig56Series> {
        self.series
            .iter()
            .find(|s| s.generation == generation && s.state == state && s.scenario == scenario)
    }
}

impl std::fmt::Display for Fig56 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figures 5/6: wake-up latencies [µs] by core frequency [GHz]"
        )?;
        for s in &self.series {
            write!(
                f,
                "  {:<14} {:<3} {:<13}:",
                s.generation, s.state, s.scenario
            )?;
            for (ghz, us) in &s.points {
                write!(f, " {ghz:.1}:{us:.1}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Node and wake-timing seeds derive from `ctx.seed` via the sweep executor.
pub fn run(ctx: &RunCtx) -> Fig56 {
    let iterations = ctx.fidelity.durations().fig56_iterations;
    let jobs: Vec<(CpuGeneration, CoreCState, WakeScenario)> =
        [CpuGeneration::HaswellEp, CpuGeneration::SandyBridgeEp]
            .into_iter()
            .flat_map(|g| {
                [CoreCState::C3, CoreCState::C6]
                    .into_iter()
                    .flat_map(move |st| WakeScenario::ALL.into_iter().map(move |sc| (g, st, sc)))
            })
            .collect();

    let series: Vec<Fig56Series> = ctx.sweep(&jobs, |(generation, state, scenario), seed| {
        // All scenarios are staged on the paper's Haswell-EP node; the
        // SNB generation parameter selects the grey reference latency
        // model (its frequency range is mapped onto the same axis). The
        // point seed splits into independent node and wake-timing streams.
        let mut node = ctx.session().seed(mix_seed(seed, 0)).build();
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 1));
        let pts: Vec<CStateLatencyPoint> = sweep_series(
            &mut node,
            *generation,
            *state,
            *scenario,
            iterations,
            &mut rng,
        );
        Fig56Series {
            generation: generation.name().to_string(),
            state: state.name().to_string(),
            scenario: scenario.name().to_string(),
            points: pts.iter().map(|p| (p.freq_ghz, p.latency_us)).collect(),
        }
    });
    Fig56 { series }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fig56"
    }
    fn anchor(&self) -> &'static str {
        "Figures 5 and 6"
    }
    fn title(&self) -> &'static str {
        "C-state wake-up latencies vs. Sandy Bridge-EP"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let nearest = |s: &Fig56Series, ghz: f64| -> f64 {
            s.points
                .iter()
                .min_by(|a, b| (a.0 - ghz).abs().total_cmp(&(b.0 - ghz).abs()))
                .map(|p| p.1)
                .unwrap_or(f64::NAN)
        };
        let hsw_c3 = r.series_for("Haswell-EP", "C3", "local");
        let hsw_c6 = r.series_for("Haswell-EP", "C6", "local");
        let snb_c6 = r.series_for("Sandy Bridge-EP", "C6", "local");
        if let (Some(c3), Some(c6)) = (hsw_c3, hsw_c6) {
            let c3_us = nearest(c3, 2.0);
            let c6_us = nearest(c6, 2.0);
            out.metric("hsw_c3_local_us_at_2ghz", c3_us);
            out.metric("hsw_c6_local_us_at_2ghz", c6_us);
            out.check(
                "C6 wakes are slower than C3 wakes (local, 2.0 GHz)",
                c6_us > c3_us,
                format!("C6 {c6_us:.1} us vs C3 {c3_us:.1} us"),
            );
        }
        if let (Some(hsw), Some(snb)) = (hsw_c6, snb_c6) {
            let h = nearest(hsw, 2.0);
            let s = nearest(snb, 2.0);
            out.check(
                "Haswell improves on Sandy Bridge for deep c-states",
                h < s,
                format!("HSW {h:.1} us vs SNB {s:.1} us"),
            );
        }
        out.check(
            "all twelve generation x state x scenario series were swept",
            r.series.len() == 12,
            format!("{} series", r.series.len()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_hwspec::calib::cstate as cal;
    use hsw_node::EngineMode;

    fn fig() -> &'static Fig56 {
        static CACHE: std::sync::OnceLock<Fig56> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    fn latency_at(s: &Fig56Series, ghz: f64) -> f64 {
        s.points
            .iter()
            .min_by(|a, b| (a.0 - ghz).abs().total_cmp(&(b.0 - ghz).abs()))
            .unwrap()
            .1
    }

    #[test]
    fn c3_local_has_the_1_5us_step() {
        let f = fig();
        let s = f.series_for("Haswell-EP", "C3", "local").unwrap();
        let low = latency_at(s, 1.3);
        let high = latency_at(s, 2.3);
        assert!(
            (high - low - cal::C3_HIGHFREQ_STEP_US).abs() < 0.3,
            "{low} vs {high}"
        );
    }

    #[test]
    fn c6_remote_idle_is_the_slowest_scenario() {
        let f = fig();
        for ghz in [1.2, 2.0, 2.5] {
            let local = latency_at(f.series_for("Haswell-EP", "C6", "local").unwrap(), ghz);
            let ra = latency_at(
                f.series_for("Haswell-EP", "C6", "remote active").unwrap(),
                ghz,
            );
            let ri = latency_at(
                f.series_for("Haswell-EP", "C6", "remote idle").unwrap(),
                ghz,
            );
            assert!(local < ra && ra < ri, "{local} {ra} {ri} at {ghz}");
        }
    }

    #[test]
    fn package_c6_costs_8us_over_package_c3() {
        let f = fig();
        let c3 = latency_at(
            f.series_for("Haswell-EP", "C3", "remote idle").unwrap(),
            2.0,
        );
        let c6 = latency_at(
            f.series_for("Haswell-EP", "C6", "remote idle").unwrap(),
            2.0,
        );
        // The delta also contains the frequency-dependent C6 restore.
        assert!(c6 - c3 > cal::PKG_C6_EXTRA_US, "{}", c6 - c3);
    }

    #[test]
    fn haswell_improves_on_sandy_bridge_for_deep_states() {
        // Conclusions: "transition latencies from deep c-states have
        // slightly improved" (grey curves sit above).
        let f = fig();
        for st in ["C3", "C6"] {
            for sc in ["local", "remote active", "remote idle"] {
                let hsw = latency_at(f.series_for("Haswell-EP", st, sc).unwrap(), 2.0);
                let snb = latency_at(f.series_for("Sandy Bridge-EP", st, sc).unwrap(), 2.0);
                assert!(snb > hsw, "{st}/{sc}: SNB {snb} vs HSW {hsw}");
            }
        }
    }

    #[test]
    fn everything_stays_below_the_acpi_tables() {
        let f = fig();
        for s in &f.series {
            for (ghz, us) in &s.points {
                let bound = if s.state == "C3" {
                    cal::ACPI_C3_US
                } else {
                    cal::ACPI_C6_US
                };
                assert!(
                    us < &bound,
                    "{}/{}/{} at {ghz}: {us}",
                    s.generation,
                    s.state,
                    s.scenario
                );
            }
        }
    }

    #[test]
    fn c6_latency_falls_with_frequency() {
        let f = fig();
        let s = f.series_for("Haswell-EP", "C6", "local").unwrap();
        assert!(latency_at(s, 1.2) > latency_at(s, 2.5) + 3.0);
    }
}
