//! Fleet cap-and-measure spread — beyond the paper, after Schuchart et al.
//! ("The Shift from Processor Power Consumption to Performance Variations").
//!
//! One chip under a package power cap (paper Section V) becomes a fleet
//! phenomenon at scale: with turbo uncapped, nominally identical processors
//! spread in *power* (leakage, voltage corner, metering trim differ per
//! unit) while their frequencies sit on the fused turbo bins; under a tight
//! PL1 cap the picture inverts — every chip converges onto the same metered
//! power and the electrical spread reappears as *performance* spread. This
//! experiment manufactures a fleet from the documented variation model,
//! measures each member uncapped and under each cap, and reports both
//! spreads per cap level.
//!
//! The same fleet (same node seeds, hence the same manufactured chips) is
//! measured at every cap level, so the spread inversion is paired per chip
//! rather than a statistical accident of resampling.

use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_exec::WorkloadProfile;
use hsw_fleet::{ChipVariation, Spread, VariationModel};
use hsw_hwspec::freq::FreqSetting;
use hsw_node::{CpuId, Node, Resolution};
use hsw_tools::perfctr::PerfCtr;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::survey::{rel_err, RunCtx};
use crate::Fidelity;

/// Cores driven per socket. Deliberately a partial load (5 of 12 cores,
/// no HT): the uncapped fleet must run *below* TDP — including its
/// worst-leakage, slowest-corner members — so the cap levels are what
/// introduce power limiting, not the workload itself.
pub(crate) const CORES_PER_SOCKET: usize = 5;

/// One fleet member's steady-state measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemberSample {
    /// Mean measured package power across the two sockets (W). Raw counter
    /// deltas converted with the *nominal* energy unit, as real measurement
    /// software does — a chip's metering trim is part of the reading.
    pub pkg_w: f64,
    /// Node throughput: giga-instructions per second summed over sockets.
    pub gips: f64,
    /// Mean effective core frequency across the two sockets (GHz).
    pub core_ghz: f64,
}

/// Settle a forked fleet member under its own electrical identity, then
/// measure one steady-state window. Shared with the straggler experiment.
pub(crate) fn measure_member(fid: Fidelity, node: &mut Node) -> MemberSample {
    // The golden snapshot converged with the *nominal* chip; give this
    // unit's PCU time to re-equilibrate to its own leakage/corner/trim.
    node.advance_s(fid.durations().fleet_settle_s);
    let pcs = [
        PerfCtr::new(node, CpuId::new(0, 0, 0)),
        PerfCtr::new(node, CpuId::new(1, 0, 0)),
    ];
    let before = [pcs[0].sample(node), pcs[1].sample(node)];
    node.advance_s(fid.durations().fleet_measure_s);
    let d = [
        pcs[0].derive(&before[0], &pcs[0].sample(node)),
        pcs[1].derive(&before[1], &pcs[1].sample(node)),
    ];
    MemberSample {
        pkg_w: (d[0].pkg_w + d[1].pkg_w) / 2.0,
        gips: d[0].gips + d[1].gips,
        core_ghz: (d[0].core_ghz + d[1].core_ghz) / 2.0,
    }
}

/// The warmup every fleet shares, on an explicit node spec (any cap is
/// already baked into `spec.sku.tdp_w`): the partial `compute` load on
/// both sockets, turbo on. Spec-generic so the analytic-scale experiment
/// can run it on either platform.
pub(crate) fn fleet_warmup_spec(
    builder: hsw_node::SessionBuilder,
    fid: Fidelity,
    spec: hsw_hwspec::NodeSpec,
) -> hsw_node::Session {
    let mut session = builder.spec(spec).resolution(Resolution::Coarse).build();
    let wl = WorkloadProfile::compute();
    for s in 0..2 {
        session.run_on_socket(s, &wl, CORES_PER_SOCKET, 1);
    }
    session.set_turbo(true);
    session.advance_s(fid.durations().fleet_settle_s);
    session
}

/// [`fleet_warmup_spec`] on the paper's test node under `cap_w` (PL1 per
/// socket; `None` = stock TDP).
pub(crate) fn fleet_warmup(
    builder: hsw_node::SessionBuilder,
    fid: Fidelity,
    cap_w: Option<f64>,
) -> hsw_node::Session {
    let mut spec = hsw_hwspec::NodeSpec::paper_test_node();
    if let Some(cap) = cap_w {
        spec.sku.tdp_w = cap;
    }
    fleet_warmup_spec(builder, fid, spec)
}

/// Closed-form answer for one fleet member of this experiment's workload:
/// the chip manufactured by `var` from the (already capped) `nominal`
/// spec, running partial `compute` under turbo. Mirrors
/// [`measure_member`]'s aggregation: per-socket RAPL mean, summed
/// per-socket thread throughput, mean effective core clock.
pub(crate) fn surrogate_member(
    nominal: &hsw_hwspec::NodeSpec,
    eet_enabled: bool,
    var: &ChipVariation,
) -> MemberSample {
    let model = AnalyticModel::for_chip(nominal, var, eet_enabled);
    let wl = WorkloadProfile::compute();
    let pred = model.predict(&OperatingPoint::new(
        &wl,
        FreqSetting::Turbo,
        CORES_PER_SOCKET,
    ));
    let (s0, s1) = (&pred.sockets[0], &pred.sockets[1]);
    MemberSample {
        pkg_w: (s0.pkg_w + s1.pkg_w) / 2.0,
        gips: s0.gips + s1.gips,
        core_ghz: (s0.core_ghz + s1.core_ghz) / 2.0,
    }
}

/// The fleet under one cap level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapPoint {
    /// PL1 cap per socket in W; `None` is the uncapped (stock TDP) baseline.
    pub cap_w: Option<f64>,
    /// Measured package power across the fleet.
    pub power: Spread,
    /// Node throughput across the fleet.
    pub perf: Spread,
    /// Effective core frequency across the fleet.
    pub freq: Spread,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCapSpread {
    pub fleet_size: usize,
    pub points: Vec<CapPoint>,
    pub table: Table,
}

impl std::fmt::Display for FleetCapSpread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

impl FleetCapSpread {
    /// The uncapped baseline (the cap list always starts with `None`).
    pub fn uncapped(&self) -> &CapPoint {
        &self.points[0]
    }

    /// The tightest cap (the cap list tightens monotonically).
    pub fn tightest(&self) -> &CapPoint {
        self.points.last().expect("cap list is never empty")
    }
}

/// One spot-checked fleet member: both answers and the divergence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpotRecord {
    pub cap_w: Option<f64>,
    /// Fleet node id (selects the manufactured chip).
    pub id: usize,
    pub surrogate: MemberSample,
    pub full: MemberSample,
    /// Worst relative error across the three member metrics.
    pub worst_rel_err: f64,
}

pub(crate) fn member_rel_err(sur: &MemberSample, full: &MemberSample) -> f64 {
    [
        rel_err(sur.pkg_w, full.pkg_w),
        rel_err(sur.gips, full.gips),
        rel_err(sur.core_ghz, full.core_ghz),
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// The fleet experiment under `--fidelity analytic`: the same paired cap
/// sweep with every member answered by the closed form, plus the
/// spot-checked members' full-simulator answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCapSpreadAnalytic {
    pub fleet: FleetCapSpread,
    pub spot_checks: Vec<SpotRecord>,
}

impl FleetCapSpreadAnalytic {
    /// Worst surrogate-vs-simulator divergence across all spot checks.
    pub fn spot_worst(&self) -> f64 {
        self.spot_checks
            .iter()
            .map(|s| s.worst_rel_err)
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for FleetCapSpreadAnalytic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.fleet.table)
    }
}

/// Surrogate-vs-simulator divergence gate on spot-checked fleet members
/// (settled partial-load points; shared with the analytic-scale sweep).
pub(crate) const FLEET_SPOT_REL_ERR_GATE: f64 = 0.10;

pub(crate) fn run_ctx_analytic(ctx: &RunCtx) -> FleetCapSpreadAnalytic {
    let n = ctx.fleet_size();
    let model = VariationModel::paper_fleet();
    let caps = ctx.fidelity.durations().fleet_caps_w;
    let mut spot_checks = Vec::new();
    let points: Vec<CapPoint> = caps
        .iter()
        .map(|&cap_w| {
            let mut nominal = hsw_hwspec::NodeSpec::paper_test_node();
            if let Some(cap) = cap_w {
                nominal.sku.tdp_w = cap;
            }
            let eet = ctx.platform().eet_enabled;
            // Unsalted like the simulator path: node id `i` is the same
            // chip at every cap, and the spot-check sample picks the same
            // ids, so divergence is paired across cap levels too.
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
            CapPoint {
                cap_w,
                power: Spread::of(&members.iter().map(|m| m.value.pkg_w).collect::<Vec<_>>()),
                perf: Spread::of(&members.iter().map(|m| m.value.gips).collect::<Vec<_>>()),
                freq: Spread::of(&members.iter().map(|m| m.value.core_ghz).collect::<Vec<_>>()),
            }
        })
        .collect();
    let table = spread_table(n, &points);
    FleetCapSpreadAnalytic {
        fleet: FleetCapSpread {
            fleet_size: n,
            points,
            table,
        },
        spot_checks,
    }
}

pub fn run(ctx: &RunCtx) -> FleetCapSpread {
    let n = ctx.fleet_size();
    let model = VariationModel::paper_fleet();
    let caps = ctx.fidelity.durations().fleet_caps_w;
    let points: Vec<CapPoint> = caps
        .iter()
        .map(|&cap_w| {
            // Unsalted on purpose: every cap level reuses the same sweep
            // base, so node id `i` manufactures the *same* chip at every
            // cap — the spread inversion is measured on a paired fleet.
            let members = ctx.sweep_fleet(
                n,
                &model,
                |builder| fleet_warmup(builder, ctx.fidelity, cap_w),
                |node, _var, _id, _seed| measure_member(ctx.fidelity, node),
            );
            CapPoint {
                cap_w,
                power: Spread::of(&members.iter().map(|m| m.pkg_w).collect::<Vec<_>>()),
                perf: Spread::of(&members.iter().map(|m| m.gips).collect::<Vec<_>>()),
                freq: Spread::of(&members.iter().map(|m| m.core_ghz).collect::<Vec<_>>()),
            }
        })
        .collect();

    let table = spread_table(n, &points);
    FleetCapSpread {
        fleet_size: n,
        points,
        table,
    }
}

fn spread_table(n: usize, points: &[CapPoint]) -> Table {
    let mut t = Table::new(
        format!(
            "Fleet cap-and-measure spread: {n} nodes, per-chip variation \
             (leakage, voltage corner, turbo bin, RAPL trim)"
        ),
        vec![
            "PL1 cap [W]",
            "power mean [W]",
            "power spread",
            "perf mean [GIPS]",
            "perf spread",
            "freq mean [GHz]",
            "freq spread",
        ],
    );
    for p in points {
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
        ]);
    }
    t
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fleet_cap_spread"
    }
    fn anchor(&self) -> &'static str {
        "Beyond the paper"
    }
    fn title(&self) -> &'static str {
        "Fleet power caps turn power spread into performance spread"
    }
    fn supports_surrogate(&self) -> bool {
        true
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        if ctx.fidelity.is_analytic() {
            let r = run_ctx_analytic(ctx);
            let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
            push_spread_checks(&mut out, &r.fleet);
            let worst = r.spot_worst();
            out.metric("spot_worst_rel_err", worst);
            out.check(
                "spot-checked members agree with the full simulator",
                worst < FLEET_SPOT_REL_ERR_GATE,
                format!(
                    "worst divergence {:.2}% over {} checks (gate {:.0}%)",
                    worst * 100.0,
                    r.spot_checks.len(),
                    FLEET_SPOT_REL_ERR_GATE * 100.0
                ),
            );
            return out;
        }
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        push_spread_checks(&mut out, &r);
        out
    }
}

/// The spread-inversion checks, shared by the simulator and surrogate
/// answer paths (both produce a [`FleetCapSpread`]).
fn push_spread_checks(out: &mut crate::survey::ExperimentResult, r: &FleetCapSpread) {
    let (un, tight) = (r.uncapped(), r.tightest());
    out.metric("uncapped_power_spread", un.power.rel_spread);
    out.metric("uncapped_perf_spread", un.perf.rel_spread);
    out.metric("capped_power_spread", tight.power.rel_spread);
    out.metric("capped_perf_spread", tight.perf.rel_spread);
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
        "uncapped workload runs below TDP (caps bind, workload does not)",
        un.power.mean < 115.0,
        format!("uncapped mean {:.1} W vs 120 W TDP", un.power.mean),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_node::EngineMode;

    fn fleet() -> &'static FleetCapSpread {
        static CACHE: std::sync::OnceLock<FleetCapSpread> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            run(&RunCtx::new(
                Fidelity::Quick,
                0x464C_4545_5401,
                EngineMode::default(),
            ))
        })
    }

    #[test]
    fn uncapped_fleet_runs_below_tdp() {
        let un = fleet().uncapped();
        assert!(un.power.mean < 115.0, "mean {:.1} W", un.power.mean);
        assert!(un.power.mean > 40.0, "mean {:.1} W", un.power.mean);
    }

    #[test]
    fn tight_cap_inverts_the_spreads() {
        let f = fleet();
        let (un, tight) = (f.uncapped(), f.tightest());
        assert!(
            tight.perf.rel_spread > un.perf.rel_spread,
            "perf {:.3} capped vs {:.3} uncapped",
            tight.perf.rel_spread,
            un.perf.rel_spread
        );
        assert!(
            tight.power.rel_spread < un.power.rel_spread,
            "power {:.3} capped vs {:.3} uncapped",
            tight.power.rel_spread,
            un.power.rel_spread
        );
    }

    #[test]
    fn capped_fleet_sits_on_the_cap() {
        let tight = fleet().tightest();
        let cap = tight.cap_w.unwrap();
        assert!(
            (tight.power.mean - cap).abs() < 0.10 * cap,
            "mean {:.1} W vs cap {cap:.0} W",
            tight.power.mean
        );
    }

    #[test]
    fn capping_costs_performance() {
        let f = fleet();
        assert!(f.tightest().perf.mean < f.uncapped().perf.mean);
        assert!(f.tightest().freq.mean < f.uncapped().freq.mean);
    }

    #[test]
    fn analytic_spot_checks_are_bit_identical_to_the_full_fleet() {
        // The surrogate tier's determinism contract: a spot-checked member
        // re-runs under its original node seed and the shared warm image,
        // so its answer is byte-identical to the same member of a
        // full-fidelity fleet at the same root seed.
        let (seed, n) = (0x464C_4545_5402u64, 12usize);
        let actx =
            RunCtx::new(Fidelity::Analytic, seed, EngineMode::default()).with_fleet_size(Some(n));
        let r = run_ctx_analytic(&actx);
        assert!(!r.spot_checks.is_empty());
        for &cap_w in actx.fidelity.durations().fleet_caps_w {
            let qctx =
                RunCtx::new(Fidelity::Quick, seed, EngineMode::default()).with_fleet_size(Some(n));
            let members = qctx.sweep_fleet(
                n,
                &VariationModel::paper_fleet(),
                |builder| fleet_warmup(builder, qctx.fidelity, cap_w),
                |node, _var, _id, _seed| measure_member(qctx.fidelity, node),
            );
            for s in r.spot_checks.iter().filter(|s| s.cap_w == cap_w) {
                let full = members[s.id];
                assert_eq!(s.full.pkg_w.to_bits(), full.pkg_w.to_bits());
                assert_eq!(s.full.gips.to_bits(), full.gips.to_bits());
                assert_eq!(s.full.core_ghz.to_bits(), full.core_ghz.to_bits());
            }
        }
    }

    #[test]
    fn surrogate_members_track_their_spot_checks() {
        let ctx = RunCtx::new(Fidelity::Analytic, 0x464C_4545_5403, EngineMode::default())
            .with_fleet_size(Some(12));
        let r = run_ctx_analytic(&ctx);
        assert!(
            r.spot_worst() < FLEET_SPOT_REL_ERR_GATE,
            "worst divergence {:.3}",
            r.spot_worst()
        );
    }

    #[test]
    fn single_node_fleet_degenerates_to_zero_spread() {
        let ctx = RunCtx::new(Fidelity::Quick, 7, EngineMode::default()).with_fleet_size(Some(1));
        let r = run(&ctx);
        assert_eq!(r.fleet_size, 1);
        for p in &r.points {
            assert_eq!(p.power.rel_spread, 0.0);
            assert_eq!(p.perf.rel_spread, 0.0);
            assert_eq!(p.freq.rel_spread, 0.0);
            assert!(p.power.mean.is_finite() && p.power.mean > 0.0);
        }
    }
}
