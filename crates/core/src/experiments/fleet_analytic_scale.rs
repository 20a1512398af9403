//! Million-node cap-spread sweep on the surrogate tier.
//!
//! The cap-spread phenomenon ([`fleet_cap_spread`](super::fleet_cap_spread))
//! is a *fleet* statistic: the spread estimate tightens with the number of
//! manufactured chips, and datacenter fleets are measured in hundreds of
//! thousands of nodes, not the few thousand the full simulator can settle
//! per CI run. This experiment re-runs the paired cap sweep with every
//! member answered by the `hsw-analytic` closed form — microseconds per
//! chip instead of seconds — which makes a ≥1M-node fleet routine. A
//! deterministic spot-check sample still runs the full simulator at fleet
//! scale (same node seeds, same warm image as a full-fidelity fleet), so
//! the surrogate's divergence is measured in the same run that uses it.
//!
//! Unlike the base experiment this one is *always* surrogate-backed: the
//! fidelity tier sets the scale (and the spot-checked members' settle and
//! measurement windows), not the answer path. It is also platform-generic
//! — the envelope derives from the selected platform's spec, so the
//! Skylake-SP backend sweeps its own SKU.

use hsw_fleet::{Spread, VariationModel};
use serde::{Deserialize, Serialize};

use super::fleet_cap_spread::{
    fleet_warmup_spec, measure_member, member_rel_err, surrogate_member, SpotRecord,
    FLEET_SPOT_REL_ERR_GATE,
};
use crate::report::Table;
use crate::survey::RunCtx;
use crate::Fidelity;

/// Fleet size per fidelity tier when `--fleet-size` gives no override.
/// The analytic tier is the headline: a full million manufactured chips.
fn scale_for(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Quick => 4_096,
        Fidelity::Paper => 65_536,
        Fidelity::Analytic => 1_048_576,
    }
}

/// The fleet under one cap level (spreads only — the per-member samples
/// of a million-node fleet stay out of the artifact).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// PL1 cap per socket in W; `None` is the uncapped baseline.
    pub cap_w: Option<f64>,
    pub power: Spread,
    pub perf: Spread,
    pub freq: Spread,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetAnalyticScale {
    pub fleet_size: usize,
    pub points: Vec<ScalePoint>,
    /// The spot-checked members: full-simulator answers and divergence.
    pub spot_checks: Vec<SpotRecord>,
    pub table: Table,
}

impl FleetAnalyticScale {
    pub fn uncapped(&self) -> &ScalePoint {
        &self.points[0]
    }

    pub fn tightest(&self) -> &ScalePoint {
        self.points.last().expect("cap list is never empty")
    }

    /// Worst surrogate-vs-simulator divergence across all spot checks.
    pub fn spot_worst(&self) -> f64 {
        self.spot_checks
            .iter()
            .map(|s| s.worst_rel_err)
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for FleetAnalyticScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

pub fn run(ctx: &RunCtx) -> FleetAnalyticScale {
    let n = ctx.fleet_size_override().unwrap_or(scale_for(ctx.fidelity));
    let platform = ctx.platform();
    let model = VariationModel::paper_fleet();
    let mut spot_checks = Vec::new();
    let run_cap = |cap_w: Option<f64>, spot_checks: &mut Vec<SpotRecord>| {
        let mut nominal = platform.spec.clone();
        if let Some(cap) = cap_w {
            nominal.sku.tdp_w = cap;
        }
        let eet = platform.eet_enabled;
        // Unsalted: every cap level manufactures the same chips and
        // spot-checks the same ids (a paired fleet, like the base
        // experiment).
        let members = ctx.sweep_fleet_surrogate(
            n,
            &model,
            |builder| fleet_warmup_spec(builder, ctx.fidelity, nominal.clone()),
            |node, _var, _id, _seed| measure_member(ctx.fidelity, node),
            |var, _id, _seed| surrogate_member(&nominal, eet, var),
        );
        for (id, m) in members.iter().enumerate() {
            if let Some(full) = m.checked {
                spot_checks.push(SpotRecord {
                    cap_w,
                    id,
                    surrogate: m.value,
                    full,
                    worst_rel_err: member_rel_err(&m.value, &full),
                });
            }
        }
        ScalePoint {
            cap_w,
            power: Spread::of(&members.iter().map(|m| m.value.pkg_w).collect::<Vec<_>>()),
            perf: Spread::of(&members.iter().map(|m| m.value.gips).collect::<Vec<_>>()),
            freq: Spread::of(&members.iter().map(|m| m.value.core_ghz).collect::<Vec<_>>()),
        }
    };
    // Platform-generic cap ladder: the tight cap is set 20% below the
    // uncapped fleet's own mean metered power, so it binds on any SKU
    // (a fixed TDP fraction can sit above what a partial load draws).
    let uncapped = run_cap(None, &mut spot_checks);
    let tight = run_cap(Some(0.8 * uncapped.power.mean), &mut spot_checks);
    let points = vec![uncapped, tight];

    let mut t = Table::new(
        format!(
            "Fleet cap spread at scale: {n} nodes on the analytic surrogate, \
             {} members spot-checked against the full simulator",
            spot_checks.len()
        ),
        vec![
            "PL1 cap [W]",
            "power mean [W]",
            "power spread",
            "perf mean [GIPS]",
            "perf spread",
            "freq mean [GHz]",
            "freq spread",
            "spot worst err",
        ],
    );
    for p in &points {
        let worst = spot_checks
            .iter()
            .filter(|s| s.cap_w == p.cap_w)
            .map(|s| s.worst_rel_err)
            .fold(0.0, f64::max);
        t.row(vec![
            p.cap_w
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "uncapped".to_string()),
            format!("{:.1}", p.power.mean),
            format!("{:.1}%", p.power.rel_spread * 100.0),
            format!("{:.2}", p.perf.mean),
            format!("{:.1}%", p.perf.rel_spread * 100.0),
            format!("{:.2}", p.freq.mean),
            format!("{:.1}%", p.freq.rel_spread * 100.0),
            format!("{:.2}%", worst * 100.0),
        ]);
    }
    FleetAnalyticScale {
        fleet_size: n,
        points,
        spot_checks,
        table: t,
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fleet_analytic_scale"
    }
    fn anchor(&self) -> &'static str {
        "Beyond the paper"
    }
    fn title(&self) -> &'static str {
        "Million-node cap-spread sweep on the analytic surrogate"
    }
    fn supports_surrogate(&self) -> bool {
        true
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let (un, tight) = (r.uncapped(), r.tightest());
        out.metric("fleet_size", r.fleet_size as f64);
        out.metric("uncapped_perf_spread", un.perf.rel_spread);
        out.metric("capped_perf_spread", tight.perf.rel_spread);
        out.metric("spot_worst_rel_err", r.spot_worst());
        let single = r.fleet_size <= 1;
        out.check(
            "tight cap expands performance spread beyond uncapped",
            single || tight.perf.rel_spread > un.perf.rel_spread,
            format!(
                "perf spread {:.1}% capped vs {:.1}% uncapped (n = {})",
                tight.perf.rel_spread * 100.0,
                un.perf.rel_spread * 100.0,
                r.fleet_size
            ),
        );
        out.check(
            "tight cap collapses power spread below uncapped",
            single || tight.power.rel_spread < un.power.rel_spread,
            format!(
                "power spread {:.1}% capped vs {:.1}% uncapped",
                tight.power.rel_spread * 100.0,
                un.power.rel_spread * 100.0
            ),
        );
        if let Some(cap) = tight.cap_w {
            out.check(
                "capped fleet converges onto the metered cap",
                (tight.power.mean - cap).abs() < 0.10 * cap,
                format!("mean {:.1} W vs cap {cap:.0} W", tight.power.mean),
            );
        }
        out.check(
            "fleet-scale spot checks agree with the full simulator",
            r.spot_worst() < FLEET_SPOT_REL_ERR_GATE,
            format!(
                "worst divergence {:.2}% over {} checks (gate {:.0}%)",
                r.spot_worst() * 100.0,
                r.spot_checks.len(),
                FLEET_SPOT_REL_ERR_GATE * 100.0
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_node::{EngineMode, PlatformKind};

    fn scale() -> &'static FleetAnalyticScale {
        static CACHE: std::sync::OnceLock<FleetAnalyticScale> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            let ctx = RunCtx::new(Fidelity::Quick, 0x5343_414C_4501, EngineMode::default())
                .with_fleet_size(Some(256));
            run(&ctx)
        })
    }

    #[test]
    fn surrogate_fleet_reproduces_the_spread_inversion() {
        let f = scale();
        let (un, tight) = (f.uncapped(), f.tightest());
        assert!(tight.perf.rel_spread > un.perf.rel_spread);
        assert!(tight.power.rel_spread < un.power.rel_spread);
    }

    #[test]
    fn capped_surrogate_fleet_sits_on_the_cap() {
        let tight = scale().tightest();
        let cap = tight.cap_w.unwrap();
        assert!(
            (tight.power.mean - cap).abs() < 0.10 * cap,
            "mean {:.1} W vs cap {cap:.0} W",
            tight.power.mean
        );
    }

    #[test]
    fn spot_checks_run_and_stay_inside_the_gate() {
        let f = scale();
        assert!(!f.spot_checks.is_empty());
        assert!(
            f.spot_worst() < FLEET_SPOT_REL_ERR_GATE,
            "worst {:.3}",
            f.spot_worst()
        );
    }

    #[test]
    fn fidelity_sets_the_scale_and_analytic_hits_a_million() {
        assert!(scale_for(Fidelity::Analytic) >= 1_000_000);
        assert!(scale_for(Fidelity::Quick) < scale_for(Fidelity::Paper));
        let ctx = RunCtx::new(Fidelity::Quick, 1, EngineMode::default()).with_fleet_size(Some(8));
        assert_eq!(run(&ctx).fleet_size, 8);
    }

    #[test]
    fn skylake_fleet_cap_binds_on_its_own_envelope() {
        let ctx = RunCtx::new(Fidelity::Quick, 2, EngineMode::default())
            .with_platform(PlatformKind::SkylakeSp)
            .with_fleet_size(Some(24));
        let r = run(&ctx);
        let cap = r.tightest().cap_w.unwrap();
        assert_eq!(cap, 0.8 * r.uncapped().power.mean);
        assert!(
            (r.tightest().power.mean - cap).abs() < 0.10 * cap,
            "mean {:.1} W vs cap {cap:.1} W",
            r.tightest().power.mean
        );
        assert!(r.tightest().perf.rel_spread > r.uncapped().perf.rel_spread);
    }
}
