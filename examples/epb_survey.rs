//! Section II-C end to end: survey all 16 raw EPB register values and
//! recover the paper's measured mapping (0 = performance, 1–7 = balanced,
//! 8–15 = energy saving), plus the Figure 1 die-topology report.
//!
//! Run with: `cargo run --release --example epb_survey`

use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};

fn main() {
    let epb =
        experiments::section2c_epb::run(&RunCtx::new(Fidelity::Quick, 42, EngineMode::default()));
    println!("{epb}");
    println!(
        "(paper Section II-C: only 0, 6 and 15 are architecturally defined;\n\
         the measured mapping groups 1-7 with balanced and 8-14 with energy\n\
         saving. EPB=performance also pins the uncore at 3.0 GHz — the (*)\n\
         entries of Table III.)\n"
    );

    let fig1 = experiments::fig1::run();
    println!("{fig1}");
    println!(
        "(paper Figure 1: the 12-core die is an 8-core + 4-core ring pair,\n\
         the 18-core die an 8-core + 10-core pair, each partition with its\n\
         own 2-channel IMC, joined by buffered queues)"
    );
}
