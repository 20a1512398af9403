//! The survey applied: use the simulated node as the evaluation function of
//! a DVFS/DCT optimizer — the "energy efficiency optimization strategies"
//! the paper's abstract motivates — and sweep the whole E5-2600 v3 product
//! line through the Figure 1 die selection.
//!
//! Run with: `cargo run --release --example dvfs_optimizer`

use haswell_survey_repro::exec::WorkloadProfile;
use haswell_survey_repro::hwspec::e5_2600_v3_line;
use haswell_survey_repro::hwspec::freq::FreqSetting;
use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::energy::{dct_sweep, dvfs_sweep};
use haswell_survey_repro::survey::{Fidelity, RunCtx};

fn main() {
    let ctx = RunCtx::new(Fidelity::Quick, 42, EngineMode::default());
    println!("== DVFS sweep: energy-optimal frequency per workload class ==\n");
    for profile in [
        WorkloadProfile::memory_bound(),
        WorkloadProfile::compute(),
        WorkloadProfile::dgemm(),
    ] {
        let sweep = dvfs_sweep(&ctx, &profile, 12);
        let e = sweep.energy_optimal();
        let d = sweep.edp_optimal();
        let label = |m: Option<u32>| {
            m.map(|m| format!("{:.1} GHz", m as f64 / 1000.0))
                .unwrap_or_else(|| "Turbo".into())
        };
        println!(
            "{:<10} energy-optimal {:<8} ({:.2} J/unit)   EDP-optimal {}",
            profile.name,
            label(e.setting_mhz),
            e.energy_per_work(),
            label(d.setting_mhz),
        );
    }
    println!(
        "\n(paper Conclusions: Haswell-EP's frequency-independent DRAM bandwidth\n\
         makes downclocking memory-bound codes \"viable again\"; compute-bound\n\
         codes want higher clocks.)\n"
    );

    println!("== DCT sweep: memory-bound streamer at 2.5 GHz ==\n");
    let sweep = dct_sweep(
        &ctx,
        &WorkloadProfile::memory_bound(),
        FreqSetting::from_mhz(2500),
    );
    for p in &sweep.points {
        println!(
            "  {:>2} cores: {:>5.1} GB/s at {:>5.1} W -> {:>5.2} J/GB",
            p.cores,
            p.throughput,
            p.power_w,
            p.energy_per_work()
        );
    }
    let opt = sweep.energy_optimal();
    println!(
        "\nenergy-optimal concurrency: {} cores (bandwidth saturates at 8 — Fig. 8)\n",
        opt.cores
    );

    println!("== The E5-2600 v3 line and its dies (Fig. 1 selection) ==\n");
    for sku in e5_2600_v3_line() {
        println!(
            "  {:<26} {:>2} cores on the {:<18} base {:.1} GHz, TDP {:>3.0} W",
            sku.model,
            sku.cores,
            sku.die.name,
            sku.freq.base_mhz as f64 / 1000.0,
            sku.tdp_w
        );
    }
}
