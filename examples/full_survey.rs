//! Run the whole survey registry on both platforms and print each
//! experiment's paper-style section exactly as `survey --platform <p>
//! --seed 42` prints it, minus the wall-clock scoreboard, so the output is
//! byte-stable (`survey_output.txt` is this program's output). With
//! `--paper` the experiments use the paper's methodology durations
//! (slower). With `--write-md FILE` the same sections are also written as
//! markdown (the basis of EXPERIMENTS.md).
//!
//! Run with: `cargo run --release --example full_survey [-- --paper]`

use haswell_survey_repro::node::PlatformKind;
use haswell_survey_repro::survey::{run_survey, Fidelity, SurveyConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fidelity = if args.iter().any(|a| a == "--paper") {
        Fidelity::Paper
    } else {
        Fidelity::Quick
    };
    let write_md = args
        .iter()
        .position(|a| a == "--write-md")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut md = String::new();
    for platform in PlatformKind::ALL {
        let cfg = SurveyConfig {
            fidelity,
            platform,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..SurveyConfig::default()
        };
        let run = run_survey(&cfg).expect("the whole registry runs");
        println!(
            "survey: platform={} fidelity={} seed={}\n",
            platform.name(),
            fidelity.label(),
            cfg.seed
        );
        for r in &run.results {
            let section = r.render();
            print!("{section}");
            md.push_str(&format!(
                "## {} — {} [{}, {}]\n\n```text\n{section}```\n\n",
                r.anchor,
                r.title,
                r.id,
                platform.name()
            ));
        }
        println!("{}", run.summary());
    }

    if let Some(path) = write_md {
        std::fs::write(&path, md).expect("write markdown");
        println!("wrote {path}");
    }
}
