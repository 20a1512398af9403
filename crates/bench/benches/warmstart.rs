//! Warm-start executor benches: cold (warmup re-run per point) vs. warm
//! (one warmup, every point forked from its snapshot) wall time on the two
//! sweep shapes where the shared settle phase dominates, plus a fork-cost
//! microbench isolating what one fork itself costs under each strategy.
//!
//! - A Figure 2-class sweep: many short workload points behind one long
//!   idle settle — the shape warm-start snapshot forking was built for.
//! - A Table IV-class sweep: the full frequency ladder (Turbo plus every
//!   100 MHz setting from 2.5 GHz down to 1.2 GHz, 15 points) behind one
//!   FIRESTARTER bring-up at turbo — the paper's Table IV methodology,
//!   where each point is a short re-settle after a setting change.
//! - Fork cost: cold (node build + restore, what the sweep executor does
//!   per point) vs. `Node::fork_from` (re-seed + restore of a reused node)
//!   on both firmware platforms, with an advancing identity pass proving
//!   both strategies produce the same bits.
//!
//! Both sweep shapes run the real node simulator through the real warm
//! executor (`RunCtx::sweep_warm`) under both modes and assert the digests
//! are bit-identical — the executor's byte-identity contract — before
//! timing. The full run also asserts the headline claims: warm start cuts
//! the fig2-class sweep's wall time by at least 2x and the table4-class
//! ladder's by at least 6x. Set `HSW_BENCH_SMOKE=1` to run one pass per
//! shape (digest and identity assertions included, criterion timing loops
//! and the ratio assertions skipped) — the CI smoke mode.
//!
//! Results land in `BENCH_warmstart.json` at the repo root (bench id,
//! variants, wall ms, digest).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use haswell_survey::survey::RunCtx;
use haswell_survey::Fidelity;
use hsw_bench::BenchVariant;
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::NodeSpec;
use hsw_node::{CpuId, EngineMode, Node, NodeConfig, Resolution};

fn ctx(warm: bool) -> RunCtx {
    RunCtx::new(Fidelity::Quick, 7, EngineMode::default()).with_warm_start(warm)
}

/// Figure 2-class sweep: a 0.8 s loaded settle (the thermal/RAPL bring-up
/// every panel point shares) followed by a short per-point workload tail.
/// Cold mode re-runs the loaded settle per point. An idle settle would be
/// nearly free — the event engine skips quiet ticks — so the shared phase
/// is a loaded one, as in the real Figure 2 methodology.
fn run_fig2_class(warm: bool) -> f64 {
    let points: Vec<(WorkloadProfile, usize)> = WorkloadProfile::fig2_benchmarks()
        .iter()
        .flat_map(|b| [1usize, 4, 12].into_iter().map(move |c| (b.clone(), c)))
        .collect();
    let values = ctx(warm).sweep_warm(
        &points,
        |builder| {
            let mut session = builder.resolution(Resolution::Custom(100)).build();
            session.run_on_socket(0, &WorkloadProfile::compute(), 12, 1);
            session.advance_s(0.8); // shared loaded settle
            session
        },
        |node, (profile, cores), _seed| {
            node.idle_all();
            node.run_on_socket(0, profile, *cores, 1);
            node.advance_s(0.15);
            node.true_pkg_power_w(0)
        },
    );
    digest(&values)
}

/// Table IV-class sweep: one FIRESTARTER bring-up at turbo shared by the
/// paper's whole frequency ladder — Turbo plus 2.5 GHz down to 1.2 GHz in
/// 100 MHz steps (15 settings), each point a short re-settle at its
/// setting. The 1 s shared settle against 0.1 s points is what makes this
/// the fork fast path's showcase: cold pays 15 × 1.1 s of simulation,
/// warm pays 1 s once plus 15 × 0.1 s.
fn run_table4_class(warm: bool) -> f64 {
    let settings: Vec<FreqSetting> = {
        let mut v = vec![FreqSetting::Turbo];
        for mhz in (1200..=2500).rev().step_by(100) {
            v.push(FreqSetting::from_mhz(mhz));
        }
        v
    };
    let values = ctx(warm).sweep_warm(
        &settings,
        |builder| {
            let mut session = builder.resolution(Resolution::Coarse).build();
            let fs = WorkloadProfile::firestarter();
            for s in 0..2 {
                session.run_on_socket(s, &fs, 12, 2);
            }
            session.set_turbo(true);
            session.advance_s(1.0); // shared bring-up at turbo
            session
        },
        |node, setting, _seed| {
            node.set_setting_all(*setting);
            node.advance_s(0.1);
            node.true_pkg_power_w(0) + node.true_pkg_power_w(1)
        },
    );
    digest(&values)
}

/// Order-sensitive digest: any schedule leak (point order, seed
/// derivation, fork state) changes the bits.
fn digest(values: &[f64]) -> f64 {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum()
}

fn wall_s(f: impl FnOnce() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

fn smoke_mode() -> bool {
    std::env::var("HSW_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Per-fork wall cost of the two fork strategies on one platform, after
/// proving they are interchangeable bit-for-bit.
struct ForkCost {
    cold_us: f64,
    full_us: f64,
}

/// Measure what one warm-start fork costs under each strategy:
///
/// - `cold`: construct a fresh node and restore the snapshot into it
///   (what the sweep executor does for every point),
/// - `full`: `Node::fork_from` — re-seed a reused node and restore the
///   snapshot into it.
///
/// The timed point is a thread assignment and a power read, with no time
/// advance, so the timing is the fork's own cost. A separate identity pass
/// runs advancing points through both strategies and asserts the digests
/// match bit-for-bit.
fn fork_cost(cfg: &NodeConfig, iters: usize) -> ForkCost {
    let cores = cfg.spec.sku.cores;
    let tpc = cfg.spec.sku.threads_per_core;
    let mut golden = Node::new(cfg.clone());
    let fs = WorkloadProfile::firestarter();
    for s in 0..cfg.spec.sockets {
        golden.run_on_socket(s, &fs, cores, tpc);
    }
    golden.set_turbo(true);
    golden.advance_s(0.3);
    let img = golden.snapshot();

    // Identity: advancing points.
    let advancing_point = |node: &mut Node, k: usize| {
        node.set_setting_all(FreqSetting::from_mhz(1200 + 100 * (k as u32 % 9)));
        node.advance_s(0.02);
        node.true_pkg_power_w(0) + node.true_pkg_power_w(cfg.spec.sockets - 1)
    };
    let mut cold_vals = Vec::new();
    for k in 0..8 {
        let mut node = Node::new(cfg.clone().with_seed(9000 + k as u64));
        node.restore(&img);
        cold_vals.push(advancing_point(&mut node, k));
    }
    let mut scratch = Node::new(cfg.clone());
    let mut full_vals = Vec::new();
    for k in 0..8 {
        scratch.fork_from(&img, 9000 + k as u64);
        full_vals.push(advancing_point(&mut scratch, k));
    }
    assert_eq!(
        digest(&cold_vals).to_bits(),
        digest(&full_vals).to_bits(),
        "fork_from diverged from cold fork"
    );

    // Timing: a thread assignment and a power read per point.
    let work_point = |node: &mut Node, i: usize| {
        let w = if i.is_multiple_of(2) {
            Some(WorkloadProfile::busy_wait())
        } else {
            None
        };
        node.assign(CpuId::new(0, 0, 0), w);
        black_box(node.true_pkg_power_w(0));
    };

    let t0 = Instant::now();
    for i in 0..iters {
        let mut node = Node::new(cfg.clone().with_seed(20_000 + i as u64));
        node.restore(&img);
        work_point(&mut node, i);
    }
    let cold_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let mut scratch = Node::new(cfg.clone());
    scratch.restore(&img);
    let t0 = Instant::now();
    for i in 0..iters {
        scratch.fork_from(&img, 20_000 + i as u64);
        work_point(&mut scratch, i);
    }
    let full_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    ForkCost { cold_us, full_us }
}

fn warmstart_ratios(c: &mut Criterion) {
    let smoke = smoke_mode();
    hsw_bench::print_once(
        "Warm start: cold (warmup per point) vs warm (snapshot fork) wall time",
        || {
            let (cold_f2, a) = wall_s(|| run_fig2_class(false));
            let (warm_f2, b) = wall_s(|| run_fig2_class(true));
            assert_eq!(a.to_bits(), b.to_bits(), "fig2-class warm/cold diverged");
            let (cold_t4, x) = wall_s(|| run_table4_class(false));
            let (warm_t4, y) = wall_s(|| run_table4_class(true));
            assert_eq!(x.to_bits(), y.to_bits(), "table4-class warm/cold diverged");
            let ratio_f2 = cold_f2 / warm_f2.max(1e-9);
            let ratio_t4 = cold_t4 / warm_t4.max(1e-9);

            let iters = if smoke { 20 } else { 1500 };
            let hsw = fork_cost(&NodeConfig::paper_default().with_seed(7), iters);
            let skx_cfg = NodeConfig::paper_default()
                .with_spec(NodeSpec::skylake_sp_node())
                .with_seed(7);
            let skx = fork_cost(&skx_cfg, iters);

            if !smoke {
                // The headline acceptance claims: the settle-dominated
                // sweeps must actually realize the shared-settle savings.
                assert!(
                    ratio_f2 >= 2.0,
                    "fig2-class warm-start speedup {ratio_f2:.2}x < 2x \
                     (cold {cold_f2:.2} s, warm {warm_f2:.2} s)"
                );
                assert!(
                    ratio_t4 >= 6.0,
                    "table4-class warm-start speedup {ratio_t4:.2}x < 6x \
                     (cold {cold_t4:.2} s, warm {warm_t4:.2} s)"
                );
            }
            hsw_bench::write_report(
                "warmstart",
                &[
                    BenchVariant::new("fig2_class_cold", cold_f2, a),
                    BenchVariant::new("fig2_class_warm", warm_f2, b),
                    BenchVariant::new("table4_class_cold", cold_t4, x),
                    BenchVariant::new("table4_class_warm", warm_t4, y),
                    BenchVariant::new("fork_cold_haswell", hsw.cold_us * 1e-6, 0.0),
                    BenchVariant::new("fork_full_haswell", hsw.full_us * 1e-6, 0.0),
                    BenchVariant::new("fork_cold_skylake_sp", skx.cold_us * 1e-6, 0.0),
                    BenchVariant::new("fork_full_skylake_sp", skx.full_us * 1e-6, 0.0),
                ],
            );
            format!(
                "Fig 2-class:    cold {cold_f2:.2} s, warm {warm_f2:.2} s -> {ratio_f2:.1}x\n\
                 Table IV-class: cold {cold_t4:.2} s, warm {warm_t4:.2} s -> {ratio_t4:.1}x\n\
                 Fork cost (haswell):    cold {:.1} us, fork_from {:.1} us\n\
                 Fork cost (skylake-sp): cold {:.1} us, fork_from {:.1} us\n\
                 (digests bit-identical across modes and fork strategies; \
                 report: BENCH_warmstart.json)",
                hsw.cold_us, hsw.full_us, skx.cold_us, skx.full_us
            )
        },
    );
    if smoke {
        return;
    }
    c.bench_function("warmstart_fig2_class_cold", |b| {
        b.iter(|| black_box(run_fig2_class(false)))
    });
    c.bench_function("warmstart_fig2_class_warm", |b| {
        b.iter(|| black_box(run_fig2_class(true)))
    });
    c.bench_function("warmstart_table4_class_cold", |b| {
        b.iter(|| black_box(run_table4_class(false)))
    });
    c.bench_function("warmstart_table4_class_warm", |b| {
        b.iter(|| black_box(run_table4_class(true)))
    });
}

criterion_group! {
    name = warmstart_benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(15))
        .warm_up_time(Duration::from_secs(1));
    targets = warmstart_ratios
}
criterion_main!(warmstart_benches);
