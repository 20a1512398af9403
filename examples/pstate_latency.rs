//! Figures 3 and 4 end to end: the modified FTaLaT measuring p-state
//! transition latencies under the four delay regimes, plus the measured
//! opportunity timeline.
//!
//! Run with: `cargo run --release --example pstate_latency`

use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};

fn main() {
    let ctx = RunCtx::new(Fidelity::Quick, 42, EngineMode::default());
    let fig3 = experiments::fig3::run(&ctx);
    println!("{fig3}");
    println!(
        "(paper: random requests spread evenly 21–524 µs; instant re-requests\n\
         cluster at ~500 µs; 400 µs delay yields ~100 µs; ~500 µs delay is bimodal.\n\
         The ACPI tables claim 10 µs — inapplicable.)\n"
    );

    let fig4 = experiments::fig4::run(&ctx);
    println!("{fig4}");
    println!(
        "(all cores of one socket latch at the same opportunity; the two\n\
         sockets run independent ~500 µs clocks)"
    );
}
