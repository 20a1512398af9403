//! Fleet straggler collective — beyond the paper, after Schuchart et al.
//!
//! A bulk-synchronous (barrier) collective finishes when its *slowest*
//! member finishes: fleet completion time is `work / min(throughput)`, not
//! `work / mean(throughput)`. Uncapped, the members differ by at most a
//! turbo bin and the straggler penalty is small; under a tight package
//! power cap the electrical spread becomes frequency spread
//! (`fleet_cap_spread`), the slowest chip lags further behind, and every
//! other chip waits at the barrier — the fleet-level cost of power capping
//! that per-node metrics hide.

use hsw_fleet::{Spread, VariationModel};
use serde::{Deserialize, Serialize};

use crate::experiments::fleet_cap_spread::{fleet_warmup, measure_member, MemberSample};
use crate::report::Table;
use crate::survey::RunCtx;

/// Work per member of the collective, in giga-instructions. The absolute
/// number only scales the time axis; penalties are ratios.
const WORK_GI: f64 = 100.0;

/// Barrier statistics of the fleet under one cap level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StragglerPoint {
    /// PL1 cap per socket in W; `None` is the uncapped baseline.
    pub cap_w: Option<f64>,
    /// Effective core frequency across the fleet (GHz).
    pub freq: Spread,
    /// Per-member completion time of [`WORK_GI`] giga-instructions (s).
    pub time: Spread,
    /// Barrier completion time: the slowest member's time (s).
    pub completion_s: f64,
    /// Straggler penalty: completion time over the mean member time
    /// (1.0 = perfectly balanced fleet).
    pub penalty: f64,
    /// Member that finished last.
    pub slowest_by_time: usize,
    /// Member with the lowest effective core frequency.
    pub slowest_by_freq: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetStraggler {
    pub fleet_size: usize,
    pub points: Vec<StragglerPoint>,
    pub table: Table,
}

impl std::fmt::Display for FleetStraggler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

impl FleetStraggler {
    pub fn uncapped(&self) -> &StragglerPoint {
        &self.points[0]
    }

    pub fn tightest(&self) -> &StragglerPoint {
        self.points.last().expect("cap list is never empty")
    }
}

fn argmin_by<F: Fn(&MemberSample) -> f64>(members: &[MemberSample], f: F) -> usize {
    let mut best = 0;
    for (i, m) in members.iter().enumerate() {
        if f(m) < f(&members[best]) {
            best = i;
        }
    }
    best
}

pub fn run(ctx: &RunCtx) -> FleetStraggler {
    let n = ctx.fleet_size();
    let model = VariationModel::paper_fleet();
    // The barrier story only needs its two endpoints: uncapped and the
    // tightest cap.
    let caps_all = ctx.fidelity.durations().fleet_caps_w;
    let caps = [
        caps_all[0],
        *caps_all.last().expect("cap list is never empty"),
    ];
    let points: Vec<StragglerPoint> = caps
        .iter()
        .map(|&cap_w| {
            // Same sweep base at both cap levels (and as `fleet_cap_spread`
            // under the same experiment seed schedule): paired chips.
            let members = ctx.sweep_fleet(
                n,
                &model,
                |builder| fleet_warmup(builder, ctx.fidelity, cap_w),
                |node, _var, _id, _seed| measure_member(ctx.fidelity, node),
            );
            let times: Vec<f64> = members.iter().map(|m| WORK_GI / m.gips).collect();
            let time = Spread::of(&times);
            let freq = Spread::of(&members.iter().map(|m| m.core_ghz).collect::<Vec<_>>());
            StragglerPoint {
                cap_w,
                freq,
                completion_s: time.max,
                penalty: if time.mean > 0.0 {
                    time.max / time.mean
                } else {
                    1.0
                },
                slowest_by_time: argmin_by(&members, |m| m.gips),
                slowest_by_freq: argmin_by(&members, |m| m.core_ghz),
                time,
            }
        })
        .collect();

    let mut t = Table::new(
        format!(
            "Fleet straggler collective: {n} nodes at a barrier, \
             {WORK_GI:.0} GI per member"
        ),
        vec![
            "PL1 cap [W]",
            "mean time [s]",
            "completion [s]",
            "penalty",
            "slowest freq [GHz]",
            "mean freq [GHz]",
        ],
    );
    for p in &points {
        t.row(vec![
            p.cap_w
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "uncapped".to_string()),
            format!("{:.2}", p.time.mean),
            format!("{:.2}", p.completion_s),
            format!("{:.3}", p.penalty),
            format!("{:.2}", p.freq.min),
            format!("{:.2}", p.freq.mean),
        ]);
    }
    FleetStraggler {
        fleet_size: n,
        points,
        table: t,
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fleet_straggler"
    }
    fn anchor(&self) -> &'static str {
        "Beyond the paper"
    }
    fn title(&self) -> &'static str {
        "Barrier collectives pay for the slowest chip under a cap"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let (un, tight) = (r.uncapped(), r.tightest());
        out.metric("uncapped_penalty", un.penalty);
        out.metric("capped_penalty", tight.penalty);
        out.metric("capped_completion_s", tight.completion_s);
        let single = r.fleet_size <= 1;
        out.check(
            "straggler penalty is never below 1",
            r.points.iter().all(|p| p.penalty >= 1.0),
            format!(
                "penalties {:?}",
                r.points.iter().map(|p| p.penalty).collect::<Vec<_>>()
            ),
        );
        out.check(
            "a tight cap worsens the straggler penalty",
            single || tight.penalty > un.penalty,
            format!(
                "penalty {:.3} capped vs {:.3} uncapped (n = {})",
                tight.penalty, un.penalty, r.fleet_size
            ),
        );
        out.check(
            "completion time tracks the slowest chip's frequency",
            tight.slowest_by_time == tight.slowest_by_freq,
            format!(
                "slowest by time: node {}, by frequency: node {}",
                tight.slowest_by_time, tight.slowest_by_freq
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

    fn fleet() -> &'static FleetStraggler {
        static CACHE: std::sync::OnceLock<FleetStraggler> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            run(&RunCtx::new(
                Fidelity::Quick,
                0x464C_4545_5402,
                EngineMode::default(),
            ))
        })
    }

    #[test]
    fn completion_is_the_slowest_member() {
        for p in &fleet().points {
            assert_eq!(p.completion_s, p.time.max);
            assert!(p.completion_s >= p.time.mean);
        }
    }

    #[test]
    fn tight_cap_worsens_the_penalty() {
        let f = fleet();
        assert!(
            f.tightest().penalty > f.uncapped().penalty,
            "capped {:.3} vs uncapped {:.3}",
            f.tightest().penalty,
            f.uncapped().penalty
        );
        assert!(f.uncapped().penalty >= 1.0);
    }

    #[test]
    fn slowest_chip_is_the_lowest_frequency_chip() {
        let p = fleet().tightest();
        assert_eq!(p.slowest_by_time, p.slowest_by_freq);
    }

    #[test]
    fn capped_completion_takes_longer() {
        let f = fleet();
        assert!(f.tightest().completion_s > f.uncapped().completion_s);
    }

    #[test]
    fn single_node_fleet_has_unit_penalty() {
        let ctx = RunCtx::new(Fidelity::Quick, 7, EngineMode::default()).with_fleet_size(Some(1));
        let r = run(&ctx);
        for p in &r.points {
            assert_eq!(p.penalty, 1.0);
            assert!(p.completion_s.is_finite() && p.completion_s > 0.0);
            assert_eq!(p.slowest_by_time, 0);
        }
    }
}
