//! Quickstart: build the paper's test node, run FIRESTARTER, watch the
//! TDP balancer settle at the Table IV operating point, and print one
//! full experiment.
//!
//! Run with: `cargo run --release --example quickstart`

use haswell_survey_repro::exec::WorkloadProfile;
use haswell_survey_repro::hwspec::freq::FreqSetting;
use haswell_survey_repro::node::{CpuId, EngineMode, Node, NodeConfig};
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};
use haswell_survey_repro::tools::perfctr::{median_of, PerfCtr};

fn main() {
    // 1. The paper's test system: 2× Xeon E5-2680 v3 (Table II).
    let mut node = Node::new(NodeConfig::paper_default());
    println!("node: {}", node.config().spec.name);

    // 2. Idle first — Table II's 261.5 W.
    node.idle_all();
    node.advance_s(0.3);
    let idle = node.measure_ac_average(2.0);
    println!("idle AC power: {idle:.1} W (paper: 261.5 W)\n");

    // 3. FIRESTARTER on every hardware thread at the Turbo setting.
    let fs = WorkloadProfile::firestarter();
    for socket in 0..2 {
        node.run_on_socket(socket, &fs, 12, 2);
    }
    node.set_setting_all(FreqSetting::Turbo);
    node.advance_s(1.0);

    // 4. Observe the hardware through the same counters LIKWID reads.
    for socket in 0..2 {
        let pc = PerfCtr::new(&node, CpuId::new(socket, 0, 0));
        let samples = pc.monitor(&mut node, 10, 0.2);
        println!(
            "socket {socket}: core {:.2} GHz, uncore {:.2} GHz, {:.2} GIPS, pkg {:.1} W",
            median_of(&samples, |d| d.core_ghz),
            median_of(&samples, |d| d.uncore_ghz),
            median_of(&samples, |d| d.gips),
            median_of(&samples, |d| d.pkg_w),
        );
    }
    println!(
        "\n(paper Table IV, Turbo column: core 2.30/2.32 GHz, uncore 2.33/2.35 GHz,\n\
         3.55/3.58 GIPS, both sockets TDP-limited at 120 W)\n"
    );

    // 5. One full experiment: Table III.
    let t3 = experiments::table3::run(&RunCtx::new(Fidelity::Quick, 42, EngineMode::default()));
    println!("{t3}");
}
