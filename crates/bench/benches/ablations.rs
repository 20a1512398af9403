//! Ablation benches for the design choices DESIGN.md calls out, plus a
//! simulator-throughput measurement.
//!
//! Each ablation prints the comparison once (the quantity of interest) and
//! then times the underlying experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hsw_bench::print_once;
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_node::NodeConfig;
use hsw_power::DramRaplMode;

/// A phase-flipping workload: alternates between memory-bound and
/// compute-bound character faster than EET's 1 ms poll can track.
fn run_eet_case(eet: bool) -> f64 {
    let mut node = NodeConfig::paper_default()
        .with_eet(eet)
        .session()
        .seed(1)
        .build();
    node.run_on_socket(0, &WorkloadProfile::memory_bound(), 12, 1);
    node.set_setting_all(FreqSetting::Turbo);
    node.advance_s(0.5);
    node.true_pkg_power_w(0)
}

fn ablation_eet(c: &mut Criterion) {
    print_once("Ablation: energy-efficient turbo", || {
        let on = run_eet_case(true);
        let off = run_eet_case(false);
        format!(
            "memory-bound at Turbo: pkg power {on:.1} W with EET vs {off:.1} W without\n\
             (EET caps useless turbo for stall-dominated load — paper Section II-E)"
        )
    });
    c.bench_function("ablation_eet", |b| {
        b.iter(|| black_box((run_eet_case(true), run_eet_case(false))))
    });
}

/// UFS schedule vs. pinned-max uncore (EPB=performance) for a compute-bound
/// single thread: the schedule saves uncore power with no compute benefit.
fn run_ufs_case(epb: EpbClass) -> f64 {
    let mut node = NodeConfig::paper_default().session().seed(2).build();
    node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
    node.set_epb_all(epb);
    node.set_setting_all(FreqSetting::from_mhz(2500));
    node.advance_s(0.5);
    node.true_pkg_power_w(0)
}

fn ablation_ufs(c: &mut Criterion) {
    print_once("Ablation: UFS schedule vs pinned-max uncore", || {
        let sched = run_ufs_case(EpbClass::Balanced);
        let pinned = run_ufs_case(EpbClass::Performance);
        format!(
            "single spinning core: pkg {sched:.1} W with the UFS schedule vs \
             {pinned:.1} W with the uncore pinned at 3.0 GHz\n\
             (the Table III schedule exists to save exactly this power)"
        )
    });
    c.bench_function("ablation_ufs", |b| {
        b.iter(|| {
            black_box((
                run_ufs_case(EpbClass::Balanced),
                run_ufs_case(EpbClass::Performance),
            ))
        })
    });
}

/// PCPS vs. chip-wide p-states for an imbalanced 4-core workload.
fn run_pcps_case(per_core: bool) -> f64 {
    let mut node = NodeConfig::paper_default().session().seed(3).build();
    node.run_on_socket(0, &WorkloadProfile::compute(), 4, 1);
    if per_core {
        node.set_setting(0, 0, FreqSetting::from_mhz(2500));
        for c in 1..4 {
            node.set_setting(0, c, FreqSetting::from_mhz(1200));
        }
    } else {
        // A chip-wide domain must keep every core at the fast setting to
        // serve the one latency-critical core.
        node.set_setting_all(FreqSetting::from_mhz(2500));
    }
    node.advance_s(0.5);
    node.true_pkg_power_w(0)
}

fn ablation_pcps(c: &mut Criterion) {
    print_once("Ablation: per-core p-states vs chip-wide", || {
        let pcps = run_pcps_case(true);
        let chip = run_pcps_case(false);
        format!(
            "1 fast + 3 slow cores: pkg {pcps:.1} W with PCPS vs {chip:.1} W chip-wide\n\
             (the FIVR/PCPS payoff of paper Section II-D)"
        )
    });
    c.bench_function("ablation_pcps", |b| {
        b.iter(|| black_box((run_pcps_case(true), run_pcps_case(false))))
    });
}

/// RAPL DRAM mode 0 vs mode 1 readings (paper Section IV).
fn run_dram_mode(mode: DramRaplMode) -> f64 {
    let mut node = NodeConfig::paper_default()
        .with_dram_mode(mode)
        .session()
        .seed(4)
        .build();
    node.run_on_socket(0, &WorkloadProfile::memory_bound(), 12, 1);
    node.advance_s(0.4);
    let addr = hsw_msr::addresses::MSR_DRAM_ENERGY_STATUS;
    let before = node.rdmsr(hsw_node::CpuId::new(0, 0, 0), addr).unwrap() as u32;
    node.advance_s(1.0);
    let after = node.rdmsr(hsw_node::CpuId::new(0, 0, 0), addr).unwrap() as u32;
    after.wrapping_sub(before) as f64 * hsw_hwspec::calib::DRAM_ENERGY_UNIT_UJ * 1e-6
}

fn ablation_dram_mode(c: &mut Criterion) {
    print_once("Ablation: RAPL DRAM mode 0 vs mode 1", || {
        let m1 = run_dram_mode(DramRaplMode::Mode1);
        let m0 = run_dram_mode(DramRaplMode::Mode0);
        format!(
            "1 s of streaming: {m1:.1} J in mode 1 vs {m0:.1} J in mode 0\n\
             (mode 0 readings are 'unreasonable high' — paper Section IV)"
        )
    });
    c.bench_function("ablation_dram_mode", |b| {
        b.iter(|| {
            black_box((
                run_dram_mode(DramRaplMode::Mode1),
                run_dram_mode(DramRaplMode::Mode0),
            ))
        })
    });
}

/// Raw simulator throughput: simulated seconds per wall second for the
/// fully loaded node.
fn sim_throughput(c: &mut Criterion) {
    c.bench_function("sim_throughput_1s_fullload", |b| {
        b.iter_with_setup(
            || {
                let mut node = NodeConfig::paper_default().session().seed(5).build();
                let fs = WorkloadProfile::firestarter();
                for s in 0..2 {
                    node.run_on_socket(s, &fs, 12, 2);
                }
                node.set_setting_all(FreqSetting::Turbo);
                node.advance_s(0.1);
                node
            },
            |mut node| {
                node.advance_s(1.0);
                black_box(node.true_rapl_power_w())
            },
        )
    });
}

criterion_group! {
    name = ablations;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_secs(1));
    targets = ablation_eet, ablation_ufs, ablation_pcps, ablation_dram_mode,
              sim_throughput
}
criterion_main!(ablations);
