//! Spans around single calls into the node, PCU, analytic, fleet and tools
//! layers. Each probe calls the layer's public API exactly as an experiment
//! would and records what the call did next to how long it took.

use std::hint::black_box;

use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_exec::WorkloadProfile;
use hsw_fleet::{ChipVariation, Spread, VariationModel};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::NodeSpec;
use hsw_node::{CpuId, Node};
use hsw_pcu::{EetController, PcuController, PcuInputs};
use hsw_tools::PerfCtr;

use crate::spans::{span, Ctx};

/// Ticks per timed advance. Short enough that most chunks run a single
/// step body (all full or all light), long enough that the clock reads
/// are noise against the steps they bracket.
const CHUNK_TICKS: u64 = 20;

/// Repetitions of one `PcuController::solve` per operating point.
const SOLVE_REPS: usize = 4;

/// Whether any socket's PCU grant is power-limited right now.
pub fn limited(node: &Node) -> bool {
    node.sockets().iter().any(|s| s.grant().power_limited)
}

/// Advance `node` by `seconds` of simulated time in timed chunks of
/// [`CHUNK_TICKS`] ticks. Each chunk's span carries its full and light step
/// counts (`Node::engine_stats` deltas) and its regime
/// (`Socket::grant().power_limited` at the end of the chunk).
pub fn advance(parent: Ctx, node: &mut Node, seconds: f64) {
    let tick_us = node.config().tick_us.max(1);
    let mut left_us = (seconds * 1e6).round() as u64;
    while left_us > 0 {
        let us = (CHUNK_TICKS * tick_us).min(left_us);
        let before = node.engine_stats();
        let mut g = span(parent, "node.advance");
        node.advance_us(us);
        let after = node.engine_stats();
        g.attr("full", (after.full_steps - before.full_steps) as f64);
        g.attr("light", (after.light_steps - before.light_steps) as f64);
        g.attr("limited", f64::from(u8::from(limited(node))));
        g.end();
        left_us -= us;
    }
}

/// One LIKWID-style measurement window on socket 0, core 0: sample, advance,
/// sample and derive. The opening sample and the closing sample plus
/// derivation are spanned separately.
pub fn perfctr_window(parent: Ctx, node: &mut Node, seconds: f64) -> hsw_tools::Derived {
    let pc = PerfCtr::new(node, CpuId::new(0, 0, 0));
    let g = span(parent, "tools.perfctr").label("sample");
    let a = pc.sample(node);
    g.end();
    advance(parent, node, seconds);
    let g = span(parent, "tools.perfctr").label("sample+derive");
    let b = pc.sample(node);
    let d = pc.derive(&a, &b);
    g.end();
    d
}

/// `PcuController::solve` on each socket's current operating point: the
/// node's spec, EPB, turbo state, requested setting and RAPL running
/// average, with the workload's activity, stall and AVX demand on `active`
/// cores (the rest gated in C6, as at steady state).
pub fn pcu_solve(parent: Ctx, node: &Node, profile: &WorkloadProfile, active: usize, smt: bool) {
    let eet_enabled = node.config().eet_enabled;
    for (s, socket) in node.sockets().iter().enumerate() {
        let spec = socket.spec();
        let active = active.min(spec.cores);
        let duty = profile.duty.mean_factor();
        let (activity, stall, avx_level) = if active > 0 {
            (
                profile.activity(smt) * duty,
                profile.stall_fraction,
                u8::from(profile.avx_heavy),
            )
        } else {
            (0.0, 0.0, 0)
        };
        let eet_limit_mhz = if eet_enabled {
            let mut eet = EetController::new(true);
            eet.tick(0, stall * duty.min(1.0));
            eet.limit_mhz(spec, socket.epb(), spec.freq.turbo_mhz(active.max(1)))
        } else {
            u32::MAX
        };
        let inputs = PcuInputs {
            spec,
            socket_power_mult: node.config().spec.socket_power_mult[s],
            setting: socket.requested_setting(0),
            epb: socket.epb(),
            turbo_enabled: socket.turbo_enabled(),
            active_cores: active,
            gated_idle_cores: spec.cores - active,
            activity,
            avx_level,
            stall_fraction: stall,
            eet_limit_mhz,
            avg_pkg_w: socket.rapl().running_avg_pkg_w(),
        };
        let mut g = span(parent, "pcu.solve");
        let mut grant = PcuController::solve(&inputs);
        for _ in 1..SOLVE_REPS {
            grant = PcuController::solve(black_box(&inputs));
        }
        g.attr("calls", SOLVE_REPS as f64);
        g.attr("limited", f64::from(u8::from(grant.power_limited)));
    }
}

/// The fork path on `node`'s current state: `Node::snapshot`, then `reps`
/// rounds of `Node::new` + `Node::restore` into a fresh node and of a
/// one-chunk advance followed by `Node::fork_from` on a scratch node (the
/// warm sweep's re-arm). Each fork span records the dirty planes it copied.
pub fn fork_path(parent: Ctx, node: &Node, reps: usize) {
    let g = span(parent, "node.snapshot");
    let snap = node.snapshot();
    g.end();
    let cfg = node.config().clone();
    let mut scratch = None;
    for _ in 0..reps {
        let g = span(parent, "node.build");
        let mut fresh = Node::new(cfg.clone());
        g.end();
        let g = span(parent, "node.restore");
        fresh.restore(&snap);
        g.end();
        scratch = Some(fresh);
    }
    let Some(mut scratch) = scratch else { return };
    let chunk_us = CHUNK_TICKS * cfg.tick_us.max(1);
    for k in 0..reps {
        scratch.advance_us(chunk_us);
        let planes: u32 = scratch
            .sockets()
            .iter()
            .map(|s| s.dirty_planes().bits().count_ones())
            .sum();
        let mut g = span(parent, "node.fork");
        scratch.fork_from(&snap, cfg.seed ^ (k as u64 + 1));
        g.attr("planes", f64::from(planes));
    }
}

/// One closed-form fleet member, as the surrogate experiments answer it:
/// `AnalyticModel::for_chip`, then `predict` for `cores` active cores per
/// socket under turbo. Returns (mean package W, node GIPS, mean core GHz).
pub fn surrogate_member(
    parent: Ctx,
    nominal: &NodeSpec,
    eet_enabled: bool,
    var: &ChipVariation,
    profile: &WorkloadProfile,
    cores: usize,
) -> (f64, f64, f64) {
    let g = span(parent, "analytic.for_chip");
    let model = AnalyticModel::for_chip(nominal, var, eet_enabled);
    g.end();
    let point = OperatingPoint::new(profile, FreqSetting::Turbo, cores);
    let mut g = span(parent, "analytic.predict");
    let pred = model.predict(&point);
    let capped = pred.sockets.iter().any(|s| s.power_limited);
    g.attr("limited", f64::from(u8::from(capped)));
    g.end();
    let (s0, s1) = (&pred.sockets[0], &pred.sockets[1]);
    (
        (s0.pkg_w + s1.pkg_w) / 2.0,
        s0.gips + s1.gips,
        (s0.core_ghz + s1.core_ghz) / 2.0,
    )
}

/// `ChipVariation::sample` and `apply` over a whole fleet's node seeds, then
/// `Spread::of` over one variation field. Each stage is one span whose
/// `calls`/`values` attribute is the fleet size.
pub fn fleet_variation(parent: Ctx, model: &VariationModel, seeds: &[u64], nominal: &NodeSpec) {
    let n = seeds.len() as f64;
    let mut g = span(parent, "fleet.sample");
    let vars: Vec<ChipVariation> = seeds
        .iter()
        .map(|&s| ChipVariation::sample(model, s))
        .collect();
    g.attr("calls", n);
    g.end();
    let mut g = span(parent, "fleet.apply");
    let specs: Vec<NodeSpec> = vars.iter().map(|v| v.apply(nominal)).collect();
    g.attr("calls", n);
    g.end();
    black_box(&specs);
    drop(specs);
    let leak: Vec<f64> = vars.iter().map(|v| v.leak_scale).collect();
    let mut g = span(parent, "fleet.spread");
    black_box(Spread::of(&leak));
    g.attr("values", n);
}
