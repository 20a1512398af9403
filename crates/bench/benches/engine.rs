//! Engine-mode benches: fixed-tick vs. event (coalescing) wall time on the
//! workload classes that bracket the survey.
//!
//! - A Table V-class steady-state run: one spinning core at a fixed
//!   sub-TDP setting, multi-second measurement window (the shape of the
//!   Table III/V and stress campaigns that dominate survey wall time).
//! - A Figures 5/6-class latency run: a near-idle node with periodic
//!   wake activity at fine resolution, where coalescing also applies
//!   between events.
//! - A Table IV-class TDP-limited run: FIRESTARTER on both sockets at
//!   turbo. The grant reads the limiter average, so only the steps
//!   between periodic PCU re-solves run light.
//! - A Figure 3-class FTaLaT run: `PERF_CTL` request windows at latency
//!   resolution, light-stepped up to each opportunity and switch
//!   completion.
//!
//! The headline ratios (fixed wall time / event wall time, same simulated
//! span, bit-identical results) are printed once before the criterion
//! timings and written to `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hsw_bench::{print_once, BenchVariant};
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::PState;
use hsw_node::{CpuId, EngineMode, Node, NodeConfig, Resolution};
use hsw_tools::{DelayRegime, FtaLat};

/// Table V-class steady state: one spinning core, fixed 2.0 GHz, the rest
/// of the node idle. Multi-second window.
fn steady_node(engine: EngineMode) -> Node {
    let mut node = NodeConfig::paper_default()
        .with_engine(engine)
        .session()
        .seed(11)
        .build()
        .into_node();
    node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
    node.set_setting_all(FreqSetting::from_mhz(2000));
    node.advance_s(0.05); // settle transients before the timed span
    node
}

fn run_steady(engine: EngineMode, sim_s: f64) -> f64 {
    let mut node = steady_node(engine);
    node.advance_s(sim_s);
    node.true_pkg_power_w(0)
}

/// Figures 5/6-class: an idle node at latency resolution (the c-state
/// sweeps spend most of their simulated time waiting between wake events).
fn run_idle_fine(engine: EngineMode, sim_s: f64) -> f64 {
    let mut node = NodeConfig::paper_default()
        .with_engine(engine)
        .session()
        .seed(12)
        .resolution(Resolution::Fine)
        .build()
        .into_node();
    node.idle_all();
    node.advance_s(sim_s);
    node.measure_ac_average(0.1)
}

/// Table IV-class: FIRESTARTER on every thread of both sockets at turbo,
/// held at TDP by the limiter, at coarse resolution.
fn run_tdp(engine: EngineMode, sim_s: f64) -> f64 {
    let mut node = NodeConfig::paper_default()
        .with_engine(engine)
        .session()
        .seed(13)
        .resolution(Resolution::Coarse)
        .build()
        .into_node();
    let fs = WorkloadProfile::firestarter();
    for s in 0..2 {
        node.run_on_socket(s, &fs, 12, 2);
    }
    node.set_setting_all(FreqSetting::Turbo);
    node.advance_s(sim_s);
    node.true_rapl_power_w() + node.sockets()[0].rapl().running_avg_pkg_w()
}

/// Figure 3-class: an FTaLaT campaign of `samples` 1.2 ↔ 1.3 GHz
/// transitions at random delays on one busy core, latency resolution.
/// Returns the summed latencies.
fn run_ftalat(engine: EngineMode, samples: usize) -> f64 {
    let mut node = NodeConfig::paper_default()
        .with_engine(engine)
        .session()
        .seed(14)
        .resolution(Resolution::Latency)
        .build()
        .into_node();
    node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
    node.advance_s(0.01);
    let mut rng = SmallRng::seed_from_u64(15);
    FtaLat::new(CpuId::new(0, 0, 0))
        .campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            DelayRegime::Random {
                min_us: 0,
                max_us: 1000,
            },
            samples,
            &mut rng,
        )
        .iter()
        .map(|s| s.latency_us)
        .sum()
}

fn wall_s(f: impl FnOnce() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// A bench case: report name, printed label, and the run under an engine.
type Case = (&'static str, &'static str, fn(EngineMode) -> f64);

/// Time one case under both engines, assert bit-identical results, and
/// return its two report rows and the fixed/event ratio.
fn compare(name: &str, run: impl Fn(EngineMode) -> f64) -> ([BenchVariant; 2], f64) {
    let (fixed_s, a) = wall_s(|| run(EngineMode::Fixed));
    let (event_s, b) = wall_s(|| run(EngineMode::Event));
    assert_eq!(a.to_bits(), b.to_bits(), "engines diverged ({name})");
    (
        [
            BenchVariant::new(format!("{name}_fixed"), fixed_s, a),
            BenchVariant::new(format!("{name}_event"), event_s, b),
        ],
        fixed_s / event_s.max(1e-9),
    )
}

fn engine_ratios(c: &mut Criterion) {
    print_once(
        "Engine: fixed vs event wall time (bit-identical results)",
        || {
            let cases: [Case; 4] = [
                ("steady_4s", "Table V-class steady 4 s", |e| {
                    run_steady(e, 4.0)
                }),
                ("idle_fine_1s", "Fig 5/6-class idle 1 s", |e| {
                    run_idle_fine(e, 1.0)
                }),
                ("tdp_coarse_2s", "Table IV-class TDP 2 s", |e| {
                    run_tdp(e, 2.0)
                }),
                ("ftalat_latency_200", "Fig 3-class FTaLaT 200", |e| {
                    run_ftalat(e, 200)
                }),
            ];
            let mut rows = Vec::new();
            let mut lines = Vec::new();
            for (name, label, run) in cases {
                let (pair, ratio) = compare(name, run);
                lines.push(format!(
                    "{label:<26} fixed {:.2} s, event {:.2} s -> {ratio:.1}x",
                    pair[0].wall_ms / 1e3,
                    pair[1].wall_ms / 1e3,
                ));
                rows.extend(pair);
            }
            hsw_bench::write_report("engine", &rows);
            lines.push("(report: BENCH_engine.json)".to_string());
            lines.join("\n")
        },
    );
    c.bench_function("engine_steady_4s_fixed", |b| {
        b.iter(|| black_box(run_steady(EngineMode::Fixed, 4.0)))
    });
    c.bench_function("engine_steady_4s_event", |b| {
        b.iter(|| black_box(run_steady(EngineMode::Event, 4.0)))
    });
    c.bench_function("engine_idle_fine_1s_fixed", |b| {
        b.iter(|| black_box(run_idle_fine(EngineMode::Fixed, 1.0)))
    });
    c.bench_function("engine_idle_fine_1s_event", |b| {
        b.iter(|| black_box(run_idle_fine(EngineMode::Event, 1.0)))
    });
    c.bench_function("engine_tdp_coarse_2s_fixed", |b| {
        b.iter(|| black_box(run_tdp(EngineMode::Fixed, 2.0)))
    });
    c.bench_function("engine_tdp_coarse_2s_event", |b| {
        b.iter(|| black_box(run_tdp(EngineMode::Event, 2.0)))
    });
    c.bench_function("engine_ftalat_latency_200_fixed", |b| {
        b.iter(|| black_box(run_ftalat(EngineMode::Fixed, 200)))
    });
    c.bench_function("engine_ftalat_latency_200_event", |b| {
        b.iter(|| black_box(run_ftalat(EngineMode::Event, 200)))
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_secs(1));
    targets = engine_ratios
}
criterion_main!(engine);
