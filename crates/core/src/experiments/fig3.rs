//! Figure 3 — histogram of p-state transition latencies (paper
//! Section VI-A).
//!
//! Four campaigns of transitions between 1.2 and 1.3 GHz, differing in when
//! the request is issued relative to the previous change: random, instant,
//! after 400 µs, and around 500 µs (bimodal).

use hsw_exec::WorkloadProfile;
use hsw_hwspec::PState;
use hsw_node::{CpuId, Resolution};
use hsw_tools::{DelayRegime, FtaLat};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::stats::Histogram;
use crate::survey::{mix_seed, RunCtx};

/// One campaign's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Campaign {
    pub label: String,
    pub latencies_us: Vec<f64>,
    pub histogram: Histogram,
}

impl Fig3Campaign {
    pub fn min_us(&self) -> f64 {
        self.latencies_us.iter().cloned().fold(f64::MAX, f64::min)
    }
    pub fn max_us(&self) -> f64 {
        self.latencies_us.iter().cloned().fold(0.0, f64::max)
    }
    pub fn mean_us(&self) -> f64 {
        self.latencies_us.iter().sum::<f64>() / self.latencies_us.len().max(1) as f64
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    pub campaigns: Vec<Fig3Campaign>,
}

impl std::fmt::Display for Fig3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 3: frequency transition latencies 1.2 <-> 1.3 GHz (25 µs bins)"
        )?;
        for c in &self.campaigns {
            writeln!(
                f,
                "  {:<14} n={:<5} min {:>6.1} µs  mean {:>6.1} µs  max {:>6.1} µs",
                c.label,
                c.latencies_us.len(),
                c.min_us(),
                c.mean_us(),
                c.max_us()
            )?;
            // Sparkline-style histogram row.
            let max_count = c.histogram.counts.iter().copied().max().unwrap_or(1).max(1);
            let bars: String = c
                .histogram
                .counts
                .iter()
                .map(|&n| {
                    const RAMP: [char; 6] = [' ', '.', ':', '+', '#', '@'];
                    RAMP[(n * (RAMP.len() - 1))
                        .div_ceil(max_count)
                        .min(RAMP.len() - 1)]
                })
                .collect();
            writeln!(f, "    0µs |{bars}| 550µs")?;
        }
        Ok(())
    }
}

/// The four delay regimes of the paper's Figure 3.
pub fn regimes() -> Vec<DelayRegime> {
    vec![
        DelayRegime::Random {
            min_us: 3,
            max_us: 991,
        },
        DelayRegime::Immediate,
        DelayRegime::AfterUs(400),
        DelayRegime::AfterUs(460),
    ]
}

/// Each campaign is one point of the sweep executor: its node runs under
/// `mix_seed(seed, 0)` and its request timing draws from `mix_seed(seed, 1)`.
pub fn run(ctx: &RunCtx) -> Fig3 {
    let n = ctx.fidelity.durations().fig3_samples;
    let campaigns: Vec<Fig3Campaign> = ctx.sweep(&regimes(), |regime, seed| {
        let mut node = ctx
            .session()
            .seed(mix_seed(seed, 0))
            .resolution(Resolution::Latency)
            .build();
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        node.advance_s(0.01);
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 1));
        let tool = FtaLat::new(CpuId::new(0, 0, 0));
        let samples = tool.campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            *regime,
            n,
            &mut rng,
        );
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        Fig3Campaign {
            label: regime.label(),
            histogram: Histogram::build(&lat, 25.0, 550.0),
            latencies_us: lat,
        }
    });
    Fig3 { campaigns }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fig3"
    }
    fn anchor(&self) -> &'static str {
        "Figure 3"
    }
    fn title(&self) -> &'static str {
        "P-state transition latency histograms"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let random = &r.campaigns[0];
        let immediate = &r.campaigns[1];
        out.metric("random_min_us", random.min_us());
        out.metric("random_max_us", random.max_us());
        out.metric("immediate_mean_us", immediate.mean_us());
        out.check(
            "random requests span roughly 21-524 us",
            random.min_us() < 60.0 && (440.0..560.0).contains(&random.max_us()),
            format!(
                "min {:.1} us, max {:.1} us",
                random.min_us(),
                random.max_us()
            ),
        );
        out.check(
            "immediate re-requests wait out the full ~500 us opportunity period",
            immediate.mean_us() > random.mean_us(),
            format!(
                "immediate mean {:.1} us vs random mean {:.1} us",
                immediate.mean_us(),
                random.mean_us()
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn fig3() -> &'static Fig3 {
        static CACHE: std::sync::OnceLock<Fig3> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn random_campaign_spans_21_to_524_us() {
        // Paper: "evenly distributed between a minimum of 21 µs and a
        // maximum of 524 µs".
        let f = fig3();
        let c = &f.campaigns[0];
        assert!(c.min_us() < 60.0, "min {:.1}", c.min_us());
        assert!(c.max_us() > 440.0, "max {:.1}", c.max_us());
        assert!(c.max_us() < 560.0, "max {:.1}", c.max_us());
        // Evenly distributed: no bin dominates.
        let max_bin = *c.histogram.counts.iter().max().unwrap();
        assert!(
            max_bin < c.latencies_us.len() / 3,
            "random distribution should be flat-ish"
        );
    }

    #[test]
    fn immediate_campaign_clusters_at_500_us() {
        // Paper: "requesting a frequency transition instantly after a
        // frequency change ... leads to around 500 µs in the majority".
        let f = fig3();
        let c = &f.campaigns[1];
        let near_500 = c
            .latencies_us
            .iter()
            .filter(|l| (440.0..=540.0).contains(*l))
            .count();
        assert!(
            near_500 * 2 > c.latencies_us.len(),
            "{near_500}/{} near 500 µs",
            c.latencies_us.len()
        );
    }

    #[test]
    fn delay_400_campaign_clusters_at_100_us() {
        let f = fig3();
        let c = &f.campaigns[2];
        let near_100 = c
            .latencies_us
            .iter()
            .filter(|l| (40.0..=170.0).contains(*l))
            .count();
        assert!(
            near_100 * 2 > c.latencies_us.len(),
            "{near_100}/{} near 100 µs",
            c.latencies_us.len()
        );
    }

    #[test]
    fn delay_near_500_campaign_is_bimodal() {
        let f = fig3();
        let c = &f.campaigns[3];
        let fast = c.latencies_us.iter().filter(|l| **l < 150.0).count();
        let slow = c.latencies_us.iter().filter(|l| **l > 350.0).count();
        assert!(fast > 5 && slow > 5, "fast {fast} / slow {slow}");
    }

    #[test]
    fn all_latencies_exceed_the_acpi_claim() {
        let f = fig3();
        for c in &f.campaigns {
            assert!(c.min_us() > 10.0, "{}: min {:.1}", c.label, c.min_us());
        }
    }
}
