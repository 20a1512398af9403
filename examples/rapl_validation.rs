//! Figure 2 end to end: validate RAPL against the AC reference meter on
//! both the Sandy Bridge-EP (modeled RAPL) and Haswell-EP (measured RAPL)
//! nodes, print the scatter, the fits, and the per-workload bias.
//!
//! Run with: `cargo run --release --example rapl_validation`

use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};

fn main() {
    let fig2 = experiments::fig2::run(&RunCtx::new(Fidelity::Quick, 42, EngineMode::default()));
    println!("{fig2}");

    let q = fig2.haswell.quadratic.expect("haswell fit");
    println!(
        "Haswell-EP re-discovered fit:   AC = {:.4}*P^2 + {:.3}*P + {:.1}",
        q.coeffs[2], q.coeffs[1], q.coeffs[0]
    );
    println!("paper footnote 2:               AC = 0.0003*P^2 + 1.097*P + 225.7");
    println!("R^2 = {:.5} (paper: > 0.9998)", q.r_squared);
    println!("max residual = {:.2} W (paper: below 3 W)", q.max_residual);
    println!(
        "\nworkload bias spread: SNB {:.1} W vs HSW {:.1} W — the Fig. 2a/2b contrast",
        fig2.sandy_bridge.bias_spread_w(),
        fig2.haswell.bias_spread_w()
    );
}
