//! Figures 7 and 8 end to end: L3 and DRAM read bandwidth across
//! frequency, concurrency and processor generations.
//!
//! Run with: `cargo run --release --example bandwidth_sweep`

use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};

fn main() {
    let ctx = RunCtx::new(Fidelity::Quick, 42, EngineMode::default());
    let fig7 = experiments::fig7::run(&ctx);
    println!("{fig7}");
    println!(
        "(paper Fig. 7: Haswell-EP and Westmere-EP DRAM bandwidth is flat in\n\
         core frequency; Sandy Bridge-EP's is coupled. Haswell-EP's L3 follows\n\
         the core clock and flattens at high frequency.)\n"
    );

    let fig8 = experiments::fig8::run(&ctx);
    println!("{fig8}");
    println!(
        "(paper Fig. 8: DRAM saturates at 8 cores and is frequency-independent\n\
         from 10 cores; L3 scales with cores and frequency; extra threads per\n\
         core only help at low concurrency.)"
    );
}
