//! Per-workload layer exercises: each calls the sweep executors and the
//! layers under them in the shapes its workload's experiments use, with
//! shortened durations, and spans every call it makes.
//!
//! Span names the reduction in `perfbench/metrics.py` reads:
//! `sweep` (label = `RunCtx` entry point, `points` attribute) with the
//! closures passed to it as children — `warmup`, `point` (simulated points
//! and fleet members), `surrogate` (closed-form answers) and `spotcheck`
//! (full-simulator spot checks of a surrogate sweep) — plus the probe spans
//! of [`crate::probe`].

use haswell_survey::experiments::fig3;
use haswell_survey::experiments::table4::table4_settings;
use haswell_survey::survey::{experiment_seed, mix_seed, node_seed};
use haswell_survey::{Fidelity, RunCtx};
use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_cstates::{CoreCState, WakeScenario};
use hsw_exec::WorkloadProfile;
use hsw_fleet::{Spread, VariationModel};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{CpuGeneration, EpbClass, NodeSpec, PState, SkuSpec};
use hsw_node::{CpuId, EngineMode, PlatformKind, Resolution};
use hsw_tools::{assign_stress_load, FtaLat};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::probe;
use crate::spans::{new_run, span, Ctx, Guard};

/// Forks timed per fork-path probe.
const FORK_REPS: usize = 16;

/// Fleet size of the variation-layer probe.
const VARIATION_FLEET: u64 = 65_536;

/// A `RunCtx` for one exercise, seeded from the workload seed the way the
/// survey runner seeds an experiment.
fn exercise_ctx(fidelity: Fidelity, seed: u64, name: &str, platform: PlatformKind) -> RunCtx {
    RunCtx::new(fidelity, experiment_seed(seed, name), EngineMode::default())
        .with_platform(platform)
}

fn sweep_span(parent: Ctx, entry: &str, points: usize) -> Guard {
    let mut g = span(parent, "sweep").label(entry);
    g.attr("points", points as f64);
    g
}

/// FIRESTARTER with Hyper-Threading on every core of both sockets, turbo
/// on (the Table IV bring-up).
fn firestarter_warmup(parent: Ctx, builder: hsw_node::SessionBuilder) -> hsw_node::Session {
    let g = span(parent, "warmup");
    let mut session = builder.resolution(Resolution::Coarse).build();
    let fs = WorkloadProfile::firestarter();
    for s in 0..2 {
        session.run_on_socket(s, &fs, 12, 2);
    }
    session.set_turbo(true);
    probe::advance(g.ctx(), &mut session, 0.3);
    session
}

/// The fleet bring-up: partial `compute` load (5 cores per socket, no HT),
/// turbo on, on `spec` (any power cap is already its TDP).
fn fleet_warmup(
    parent: Ctx,
    builder: hsw_node::SessionBuilder,
    spec: NodeSpec,
) -> hsw_node::Session {
    let g = span(parent, "warmup");
    let mut session = builder.spec(spec).resolution(Resolution::Coarse).build();
    let wl = WorkloadProfile::compute();
    for s in 0..2 {
        session.run_on_socket(s, &wl, FLEET_CORES, 1);
    }
    session.set_turbo(true);
    probe::advance(g.ctx(), &mut session, 0.3);
    session
}

/// Cores loaded per socket in the fleet experiments.
const FLEET_CORES: usize = 5;

/// Settle and measure one forked fleet member on the simulator. Returns
/// socket 0's (package W, GIPS, core GHz), the shape of a surrogate answer.
fn fleet_member(parent: Ctx, name: &'static str, node: &mut hsw_node::Node) -> (f64, f64, f64) {
    let g = span(parent, name);
    probe::advance(g.ctx(), node, 0.3);
    let d = probe::perfctr_window(g.ctx(), node, 0.15);
    probe::pcu_solve(
        g.ctx(),
        node,
        &WorkloadProfile::compute(),
        FLEET_CORES,
        false,
    );
    (d.pkg_w, d.gips, d.core_ghz)
}

/// Power-limited simulation: Table IV's warm sweep, Table V's salted warm
/// sweep (a phase-structured stress code, HT off) and capped plus uncapped
/// fleet members, then the fork path and the variation layer.
pub fn sim_tdp(seed: u64) {
    let ctx = exercise_ctx(
        Fidelity::Quick,
        seed,
        "perfbench.sim_tdp",
        PlatformKind::Haswell,
    );
    let fs = WorkloadProfile::firestarter();

    let run = new_run();
    let settings = table4_settings();
    let sweep = sweep_span(run, "sweep_warm", settings.len());
    let sc = sweep.ctx();
    ctx.sweep_warm(
        &settings,
        |builder| firestarter_warmup(sc, builder),
        |node, setting, _seed| {
            let g = span(sc, "point");
            node.set_setting_all(*setting);
            probe::advance(g.ctx(), node, 0.2);
            for _ in 0..2 {
                probe::perfctr_window(g.ctx(), node, 0.1);
            }
            probe::pcu_solve(g.ctx(), node, &fs, 12, true);
        },
    );
    sweep.end();

    let run = new_run();
    let linpack = WorkloadProfile::linpack();
    let configs = [
        (FreqSetting::Turbo, EpbClass::Balanced),
        (FreqSetting::from_mhz(2500), EpbClass::Balanced),
        (FreqSetting::Turbo, EpbClass::Performance),
    ];
    let sweep = sweep_span(run, "sweep_warm_salted", configs.len());
    let sc = sweep.ctx();
    ctx.sweep_warm_salted(
        1,
        &configs,
        |builder| {
            let g = span(sc, "warmup");
            let mut session = builder.resolution(Resolution::Custom(100)).build();
            assign_stress_load(&mut session, &linpack, false);
            probe::advance(g.ctx(), &mut session, 0.2);
            session
        },
        |node, (setting, epb), _seed| {
            let g = span(sc, "point");
            node.set_epb_all(*epb);
            node.set_turbo(true);
            node.set_setting_all(*setting);
            probe::advance(g.ctx(), node, 0.3);
            probe::perfctr_window(g.ctx(), node, 0.2);
            probe::pcu_solve(g.ctx(), node, &linpack, 12, false);
        },
    );
    sweep.end();

    let model = VariationModel::paper_fleet();
    for cap_w in [None, Some(70.0)] {
        let run = new_run();
        let mut spec = NodeSpec::paper_test_node();
        if let Some(cap) = cap_w {
            spec.sku.tdp_w = cap;
        }
        let members = 4;
        let sweep = sweep_span(run, "sweep_fleet", members);
        let sc = sweep.ctx();
        ctx.sweep_fleet(
            members,
            &model,
            |builder| fleet_warmup(sc, builder, spec.clone()),
            |node, _var, _id, _seed| fleet_member(sc, "point", node),
        );
        sweep.end();
    }

    let run = new_run();
    let mut node = ctx.session().resolution(Resolution::Coarse).build();
    for s in 0..2 {
        node.run_on_socket(s, &fs, 12, 2);
    }
    probe::advance(run, &mut node, 0.1);
    probe::fork_path(run, &node, FORK_REPS);
    variation(run, &ctx, &NodeSpec::paper_test_node());
}

/// Below-limit simulation: FTaLaT p-state campaigns and timed p-state
/// switching at 2 µs resolution, c-state wake campaigns, the analytic
/// bandwidth sweeps' shared-prep executor, and Skylake-SP operating points.
pub fn sim_below_limit(seed: u64) {
    let ctx = exercise_ctx(
        Fidelity::Paper,
        seed,
        "perfbench.sim_below_limit",
        PlatformKind::Haswell,
    );
    let busy = WorkloadProfile::busy_wait();

    let run = new_run();
    let regimes = fig3::regimes();
    let sweep = sweep_span(run, "sweep", regimes.len());
    let sc = sweep.ctx();
    ctx.sweep(&regimes, |regime, seed| {
        let g = span(sc, "point");
        let mut node = ctx
            .session()
            .seed(mix_seed(seed, 0))
            .resolution(Resolution::Latency)
            .build();
        node.run_on_socket(0, &busy, 1, 1);
        probe::advance(g.ctx(), &mut node, 0.01);
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 1));
        let tool = FtaLat::new(CpuId::new(0, 0, 0));
        let mut t = span(g.ctx(), "tools.ftalat");
        let samples = tool.campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            *regime,
            300,
            &mut rng,
        );
        t.attr("samples", samples.len() as f64);
        t.end();
        // Timed p-state switching: a request, then 2 ms at 2 µs ticks.
        for k in 0..40u32 {
            node.set_setting(0, 0, FreqSetting::from_mhz(1200 + 100 * (k % 2)));
            probe::advance(g.ctx(), &mut node, 0.002);
        }
        probe::perfctr_window(g.ctx(), &mut node, 0.005);
        probe::pcu_solve(g.ctx(), &node, &busy, 1, false);
    });
    sweep.end();

    let run = new_run();
    let jobs = [
        (CoreCState::C3, WakeScenario::Local),
        (CoreCState::C6, WakeScenario::RemoteActive),
        (CoreCState::C6, WakeScenario::RemoteIdle),
    ];
    let sweep = sweep_span(run, "sweep", jobs.len());
    let sc = sweep.ctx();
    ctx.sweep(&jobs, |(state, scenario), seed| {
        let g = span(sc, "point");
        let mut node = ctx.session().seed(mix_seed(seed, 0)).build();
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 1));
        let iterations = 20;
        let mut t = span(g.ctx(), "tools.cstate");
        let points = hsw_tools::cstate_lat::sweep_series(
            &mut node,
            CpuGeneration::HaswellEp,
            *state,
            *scenario,
            iterations,
            &mut rng,
        );
        t.attr("wakes", (points.len() * iterations) as f64);
        t.end();
        probe::advance(g.ctx(), &mut node, 0.05);
    });
    sweep.end();

    let run = new_run();
    let generations = [
        CpuGeneration::WestmereEp,
        CpuGeneration::SandyBridgeEp,
        CpuGeneration::HaswellEp,
    ];
    let jobs: Vec<(usize, bool)> = (0..generations.len())
        .flat_map(|g| [(g, true), (g, false)])
        .collect();
    let sweep = sweep_span(run, "sweep_warm_shared", jobs.len());
    let sc = sweep.ctx();
    ctx.sweep_warm_shared(
        &jobs,
        || -> Vec<SkuSpec> {
            let _g = span(sc, "warmup");
            [
                NodeSpec::westmere_node(),
                NodeSpec::sandy_bridge_node(),
                NodeSpec::paper_test_node(),
            ]
            .map(|n| n.sku)
            .to_vec()
        },
        |skus, &(g, l3), _seed| {
            let _g = span(sc, "point");
            let pstates = skus[g].freq.selectable_pstates();
            let scale = if l3 { 1.0 } else { 0.5 };
            std::hint::black_box(pstates.iter().map(|p| p.ghz() * scale).sum::<f64>())
        },
    );
    sweep.end();

    let run = new_run();
    let mut node = ctx.session().resolution(Resolution::Latency).build();
    node.run_on_socket(0, &busy, 1, 1);
    probe::advance(run, &mut node, 0.01);
    probe::fork_path(run, &node, FORK_REPS);

    let skx = exercise_ctx(
        Fidelity::Paper,
        seed,
        "perfbench.skx",
        PlatformKind::SkylakeSp,
    );
    let run = new_run();
    let loads = [(busy.clone(), 1usize), (WorkloadProfile::memory_bound(), 2)];
    let sweep = sweep_span(run, "sweep", loads.len());
    let sc = sweep.ctx();
    skx.sweep(&loads, |(profile, cores), seed| {
        let g = span(sc, "point");
        let mut node = skx.session().seed(seed).build();
        node.run_on_socket(0, profile, *cores, 1);
        probe::advance(g.ctx(), &mut node, 0.05);
        probe::perfctr_window(g.ctx(), &mut node, 0.05);
        probe::pcu_solve(g.ctx(), &node, profile, *cores, false);
    });
    sweep.end();
}

/// The surrogate tier: Table IV's columns through `sweep_surrogate`, then a
/// fleet through `sweep_fleet_surrogate` uncapped and at 0.8 x the uncapped
/// mean power (the analytic-scale ladder), spot checks included.
pub fn surrogate_fleet(seed: u64) {
    let ctx = exercise_ctx(
        Fidelity::Analytic,
        seed,
        "perfbench.surrogate_fleet",
        PlatformKind::Haswell,
    );
    let platform = ctx.platform();
    let eet = platform.eet_enabled;
    let fs = WorkloadProfile::firestarter();

    let run = new_run();
    let settings = table4_settings();
    let model = AnalyticModel::from_node_spec(&platform.spec, eet);
    let sweep = sweep_span(run, "sweep_surrogate", settings.len());
    let sc = sweep.ctx();
    ctx.sweep_surrogate(
        &settings,
        |builder| firestarter_warmup(sc, builder),
        |node, setting, _seed| {
            let g = span(sc, "spotcheck");
            node.set_setting_all(*setting);
            probe::advance(g.ctx(), node, 0.2);
            probe::perfctr_window(g.ctx(), node, 0.1);
            probe::pcu_solve(g.ctx(), node, &fs, 12, true);
        },
        |setting, _seed| {
            let g = span(sc, "surrogate");
            let point = OperatingPoint {
                smt: true,
                ..OperatingPoint::new(&fs, *setting, 12)
            };
            let mut p = span(g.ctx(), "analytic.predict");
            let pred = model.predict(&point);
            let capped = pred.sockets.iter().any(|s| s.power_limited);
            p.attr("limited", f64::from(u8::from(capped)));
        },
    );
    sweep.end();

    let members = 8_192;
    let fleet = VariationModel::paper_fleet();
    let wl = WorkloadProfile::compute();
    let mut cap_w: Option<f64> = None;
    for _rung in 0..2 {
        let run = new_run();
        let mut nominal = platform.spec.clone();
        if let Some(cap) = cap_w {
            nominal.sku.tdp_w = cap;
        }
        let sweep = sweep_span(run, "sweep_fleet_surrogate", members);
        let sc = sweep.ctx();
        let answers = ctx.sweep_fleet_surrogate(
            members,
            &fleet,
            |builder| fleet_warmup(sc, builder, nominal.clone()),
            |node, _var, _id, _seed| fleet_member(sc, "spotcheck", node),
            |var, _id, _seed| {
                let g = span(sc, "surrogate");
                probe::surrogate_member(g.ctx(), &nominal, eet, var, &wl, FLEET_CORES)
            },
        );
        sweep.end();
        let pkg: Vec<f64> = answers.iter().map(|a| a.value.0).collect();
        let mut g = span(run, "fleet.spread");
        let spread = Spread::of(&pkg);
        g.attr("values", pkg.len() as f64);
        g.end();
        cap_w = Some(0.8 * spread.mean);
    }

    let run = new_run();
    let mut node = ctx.session().resolution(Resolution::Coarse).build();
    for s in 0..2 {
        node.run_on_socket(s, &wl, FLEET_CORES, 1);
    }
    probe::advance(run, &mut node, 0.1);
    probe::fork_path(run, &node, FORK_REPS);
    variation(run, &ctx, &platform.spec);
}

/// The variation layer over a fleet of [`VARIATION_FLEET`] node seeds of
/// this exercise's sweep base.
fn variation(parent: Ctx, ctx: &RunCtx, nominal: &NodeSpec) {
    let seeds: Vec<u64> = (0..VARIATION_FLEET)
        .map(|id| node_seed(ctx.seed, id))
        .collect();
    probe::fleet_variation(parent, &VariationModel::paper_fleet(), &seeds, nominal);
}
