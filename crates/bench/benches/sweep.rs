//! Sweep-executor benches: serial (1-thread pool) vs. pooled (4-thread
//! pool) wall time on the two sweep shapes that bracket the survey.
//!
//! - A Figure 2-class sweep: many short node runs (workload × threading
//!   grid points, sub-second simulated spans) — small points, where
//!   per-point stealing has to amortize scheduling overhead.
//! - A Table V-class sweep: few multi-second stress-style runs — heavy
//!   points, the best case for work stealing.
//!
//! Both shapes run the real node simulator through the real executor
//! (`RunCtx::sweep`) with per-point derived seeds; only
//! the simulated spans are trimmed so one iteration stays in seconds, not
//! minutes. The headline ratio (serial wall time / pooled wall time,
//! bit-identical results) is printed once before the criterion timings.
//! On a single-CPU host the ratio degenerates to ~1.0x — the assertion
//! here is the determinism, the speedup needs real cores.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use haswell_survey::{Fidelity, RunCtx};
use hsw_exec::WorkloadProfile;
use hsw_node::{EngineMode, NodeConfig, Resolution};
use rayon::ThreadPool;

/// Figure 2-class point: one short measurement run of `profile` on
/// `cores` cores, returning the settled package power.
fn fig2_class_point(point: &(WorkloadProfile, usize), seed: u64) -> f64 {
    let (profile, cores) = point;
    let mut node = NodeConfig::paper_default()
        .session()
        .seed(seed)
        .resolution(Resolution::Custom(100))
        .build();
    node.run_on_socket(0, profile, *cores, 1);
    node.advance_s(0.4);
    node.true_pkg_power_w(0)
}

/// Table V-class point: one heavy stress-style run — both sockets loaded,
/// a multi-second window averaged at coarse resolution.
fn table5_class_point(profile: &WorkloadProfile, seed: u64) -> f64 {
    let mut node = NodeConfig::paper_default()
        .session()
        .seed(seed)
        .resolution(Resolution::Coarse)
        .build();
    for s in 0..2 {
        node.run_on_socket(s, profile, 12, 1);
    }
    node.advance_s(0.5);
    node.measure_ac_average(2.0)
}

fn fig2_class_points() -> Vec<(WorkloadProfile, usize)> {
    WorkloadProfile::fig2_benchmarks()
        .iter()
        .flat_map(|b| [1usize, 4, 12].into_iter().map(move |c| (b.clone(), c)))
        .collect()
}

fn table5_class_points() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::firestarter(),
        WorkloadProfile::busy_wait(),
        WorkloadProfile::memory_bound(),
        WorkloadProfile::compute(),
    ]
}

/// Order-sensitive digest: any schedule leak (point order, seed
/// derivation) changes the bits.
fn digest(values: &[f64]) -> f64 {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum()
}

/// A sweep context whose points derive their seeds from `seed`.
fn ctx(seed: u64) -> RunCtx {
    RunCtx::new(Fidelity::Quick, seed, EngineMode::default())
}

fn run_fig2_class(pool: &ThreadPool, points: &[(WorkloadProfile, usize)]) -> f64 {
    pool.install(|| digest(&ctx(7).sweep(points, fig2_class_point)))
}

fn run_table5_class(pool: &ThreadPool, points: &[WorkloadProfile]) -> f64 {
    pool.install(|| digest(&ctx(11).sweep(points, table5_class_point)))
}

fn wall_s(f: impl FnOnce() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

fn sweep_ratios(c: &mut Criterion) {
    let serial = ThreadPool::new(1);
    let pooled = ThreadPool::new(4);
    let small = fig2_class_points();
    let heavy = table5_class_points();
    hsw_bench::print_once(
        "Sweep: serial vs 4-thread pool wall time (bit-identical results)",
        || {
            let (s_small, a) = wall_s(|| run_fig2_class(&serial, &small));
            let (p_small, b) = wall_s(|| run_fig2_class(&pooled, &small));
            assert_eq!(a.to_bits(), b.to_bits(), "fig2-class sweep diverged");
            let (s_heavy, x) = wall_s(|| run_table5_class(&serial, &heavy));
            let (p_heavy, y) = wall_s(|| run_table5_class(&pooled, &heavy));
            assert_eq!(x.to_bits(), y.to_bits(), "table5-class sweep diverged");
            format!(
                "Fig 2-class ({} small points):  serial {s_small:.2} s, pooled {p_small:.2} s \
                 -> {:.1}x\n\
                 Table V-class ({} heavy points): serial {s_heavy:.2} s, pooled {p_heavy:.2} s \
                 -> {:.1}x",
                small.len(),
                s_small / p_small.max(1e-9),
                heavy.len(),
                s_heavy / p_heavy.max(1e-9),
            )
        },
    );
    c.bench_function("sweep_fig2_class_serial", |b| {
        b.iter(|| black_box(run_fig2_class(&serial, &small)))
    });
    c.bench_function("sweep_fig2_class_pooled_4", |b| {
        b.iter(|| black_box(run_fig2_class(&pooled, &small)))
    });
    c.bench_function("sweep_table5_class_serial", |b| {
        b.iter(|| black_box(run_table5_class(&serial, &heavy)))
    });
    c.bench_function("sweep_table5_class_pooled_4", |b| {
        b.iter(|| black_box(run_table5_class(&pooled, &heavy)))
    });
}

criterion_group! {
    name = sweep_benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(15))
        .warm_up_time(Duration::from_secs(1));
    targets = sweep_ratios
}
criterion_main!(sweep_benches);
