//! Table V end to end: FIRESTARTER vs. LINPACK vs. mprime maximum power
//! and measured frequencies across settings and EPB values.
//!
//! Run with: `cargo run --release --example max_power`

use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};

fn main() {
    let t5 = experiments::table5::run(&RunCtx::new(Fidelity::Quick, 42, EngineMode::default()));
    println!("{t5}");
    println!(
        "(paper Table V at 2500/bal: FIRESTARTER 560.4 W @ 2.45 GHz,\n\
         LINPACK 547.9 W @ 2.28 GHz, mprime 558.6 W @ 2.49 GHz; EPB and turbo\n\
         settings have very little impact on power. LINPACK runs at the lowest\n\
         frequency — TDP-restricted; mprime exceeds nominal under turbo.)"
    );
}
