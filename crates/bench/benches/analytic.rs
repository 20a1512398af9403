//! Analytic surrogate tier benches: closed-form per-point cost vs. the
//! full simulator's warm path, plus the surrogate fleet ladder.
//!
//! The headline claim (asserted here, in smoke mode too): the surrogate
//! answers a Table IV-class operating point at least 100x faster than the
//! full simulator's warm path answers the same point. The fleet ladder
//! times the surrogate executor (spot checks included — they are part of
//! the tier's cost) at 1k / 100k / 1M members; smoke mode stops at 1k.
//!
//! Results land in `BENCH_analytic.json` at the repo root (bench id,
//! variants, wall ms, digest). Set `HSW_BENCH_SMOKE=1` for the CI smoke
//! pass (one timing pass, criterion loops skipped, 100x assert kept).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use haswell_survey::experiments::table4;
use haswell_survey::survey::RunCtx;
use haswell_survey::Fidelity;
use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_bench::BenchVariant;
use hsw_exec::WorkloadProfile;
use hsw_fleet::VariationModel;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::NodeSpec;
use hsw_node::{EngineMode, Resolution};

fn smoke_mode() -> bool {
    std::env::var("HSW_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Order-sensitive digest: any schedule leak changes the bits.
fn digest(values: &[f64]) -> f64 {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum()
}

/// The full simulator's warm path over Table IV (one shared bring-up, six
/// forked columns). Returns (wall seconds per column, digest).
fn full_table4(seed: u64) -> (f64, f64) {
    let t0 = Instant::now();
    let t4 = table4::run(&RunCtx::new(Fidelity::Quick, seed, EngineMode::default()));
    let wall = t0.elapsed().as_secs_f64();
    let d = digest(
        &t4.points
            .iter()
            .flat_map(|p| [p.socket0.pkg_w, p.socket1.gips])
            .collect::<Vec<_>>(),
    );
    (wall / t4.points.len() as f64, d)
}

/// The closed form over the same six columns, `reps` times. Returns (wall
/// seconds per column, digest of one pass).
fn surrogate_table4(reps: usize) -> (f64, f64) {
    let node = NodeSpec::paper_test_node();
    let model = AnalyticModel::from_node_spec(&node, true);
    let fs = WorkloadProfile::firestarter();
    let settings: Vec<FreqSetting> = table4::table4_settings();
    let mut d = 0.0;
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut vals = Vec::with_capacity(settings.len() * 2);
        for &setting in &settings {
            let pred = model.predict(&OperatingPoint {
                profile: &fs,
                setting,
                epb: hsw_hwspec::EpbClass::Balanced,
                turbo_enabled: true,
                active_cores: 12,
                smt: true,
            });
            vals.push(pred.sockets[0].pkg_w);
            vals.push(pred.sockets[1].gips);
        }
        d = black_box(digest(&vals));
    }
    let wall = t0.elapsed().as_secs_f64();
    (wall / (reps * settings.len()) as f64, d)
}

/// One surrogate fleet pass through the real executor (spot checks and
/// all). Returns (wall seconds, digest of the surrogate answers).
fn surrogate_fleet(n: usize) -> (f64, f64) {
    let ctx = RunCtx::new(Fidelity::Quick, 7, EngineMode::default());
    let model = VariationModel::paper_fleet();
    let nominal = NodeSpec::paper_test_node();
    let wl = WorkloadProfile::compute();
    let t0 = Instant::now();
    let members = ctx.sweep_fleet_surrogate(
        n,
        &model,
        |builder| {
            let mut session = builder.resolution(Resolution::Coarse).build();
            for s in 0..2 {
                session.run_on_socket(s, &WorkloadProfile::compute(), 5, 1);
            }
            session.set_turbo(true);
            session.advance_s(0.5);
            session
        },
        |node, _var, _id, _seed| {
            node.advance_s(0.15);
            node.true_pkg_power_w(0) + node.true_pkg_power_w(1)
        },
        |var, _id, _seed| {
            let chip = AnalyticModel::for_chip(&nominal, var, true);
            let pred = chip.predict(&OperatingPoint::new(&wl, FreqSetting::Turbo, 5));
            pred.sockets[0].pkg_w + pred.sockets[1].pkg_w
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    let vals: Vec<f64> = members.iter().map(|m| m.value).collect();
    (wall, digest(&vals))
}

fn analytic_benches(c: &mut Criterion) {
    let smoke = smoke_mode();
    hsw_bench::print_once(
        "Analytic surrogate: closed-form point cost vs full-sim warm path, fleet ladder",
        || {
            let (full_s, full_d) = full_table4(7);
            let reps = if smoke { 50 } else { 500 };
            let (sur_s, sur_d) = surrogate_table4(reps);
            let speedup = full_s / sur_s.max(1e-12);
            // The tentpole claim, smoke-safe: answered points must be at
            // least two orders of magnitude cheaper than simulated ones.
            assert!(
                speedup >= 100.0,
                "surrogate speedup {speedup:.0}x < 100x \
                 (full {full_s:.4} s/point, surrogate {sur_s:.9} s/point)"
            );
            let ladder: Vec<usize> = if smoke {
                vec![1_000]
            } else {
                vec![1_000, 100_000, 1_000_000]
            };
            let mut variants = vec![
                BenchVariant::new("table4_full_per_point", full_s, full_d),
                BenchVariant::new("table4_surrogate_per_point", sur_s, sur_d),
            ];
            let mut ladder_lines = String::new();
            for &n in &ladder {
                let (w, d) = surrogate_fleet(n);
                ladder_lines.push_str(&format!("  fleet {n:>9} members: {:.1} ms\n", w * 1e3));
                variants.push(BenchVariant::new(format!("fleet_surrogate_{n}"), w, d));
            }
            hsw_bench::write_report("analytic", &variants);
            format!(
                "Table IV point: full {:.1} ms, surrogate {:.4} ms -> {speedup:.0}x\n\
                 {ladder_lines}(report: BENCH_analytic.json)",
                full_s * 1e3,
                sur_s * 1e3,
            )
        },
    );
    if smoke {
        return;
    }
    c.bench_function("surrogate_table4_column", |b| {
        b.iter(|| black_box(surrogate_table4(10)))
    });
    c.bench_function("surrogate_fleet_1k", |b| {
        b.iter(|| black_box(surrogate_fleet(1_000)))
    });
}

criterion_group! {
    name = analytic;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_secs(1));
    targets = analytic_benches
}
criterion_main!(analytic);
