//! `perfbench-tracer` — the traced half of the survey benchmark.
//!
//! ```text
//! perfbench-tracer experiments --spans <file> --out <file> <survey flags>
//! perfbench-tracer layers --workload <name> --seed <u64> --spans <file>
//! ```
//!
//! `experiments` runs the experiments a `survey` invocation with the same
//! flags would run, one at a time through `SurveyExperiment::run` with a
//! `RunCtx` built the way `run_survey` builds it, spans each run, and writes
//! the same `survey.json` document to `--out` so the caller can compare it
//! byte for byte with the untraced run. `layers` runs the workload's layer
//! exercises (see `exercise.rs`). Both write their spans as JSON lines at exit.

mod exercise;
mod probe;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use haswell_survey::survey::{experiment_seed, registry_for, SurveyConfig};
use haswell_survey::{Fidelity, RunCtx, SurveyRun};
use hsw_node::PlatformKind;

use spans::{new_run, span};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("experiments") => experiments(&args[1..]),
        Some("layers") => layers(&args[1..]),
        _ => Err("usage: perfbench-tracer experiments|layers ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("{flag}: `{v}` is not a u64"))
}

fn experiments(args: &[String]) -> Result<(), String> {
    let mut spans_path = None;
    let mut out_path = None;
    let mut cfg = SurveyConfig::default();
    let mut only: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--spans" => spans_path = Some(value()?),
            "--out" => out_path = Some(value()?),
            "--only" => only.extend(value()?.split(',').map(str::to_string)),
            "--seed" => cfg.seed = parse_u64(flag, &value()?)?,
            // Experiments run one at a time here, as under `--jobs 1`.
            "--jobs" => {
                value()?;
            }
            "--fidelity" => cfg.fidelity = value()?.parse::<Fidelity>()?,
            "--fleet-size" => cfg.fleet_size = Some(parse_u64(flag, &value()?)? as usize),
            "--platform" => {
                let v = value()?;
                cfg.platform =
                    PlatformKind::parse(&v).ok_or_else(|| format!("unknown platform `{v}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let spans_path = spans_path.ok_or("--spans is required")?;
    let out_path = out_path.ok_or("--out is required")?;
    let selected: Vec<_> = registry_for(cfg.platform)
        .into_iter()
        .filter(|e| only.iter().any(|id| id == e.id()))
        .collect();
    if selected.len() != only.len() {
        return Err(format!(
            "unknown or repeated id in --only {}",
            only.join(",")
        ));
    }

    let mut run = SurveyRun {
        fidelity: cfg.fidelity,
        seed: cfg.seed,
        engine: cfg.engine,
        platform: cfg.platform,
        results: Vec::new(),
        timings_s: Vec::new(),
        sim_times_s: Vec::new(),
        sweep_points: Vec::new(),
        snapshot_reuses: Vec::new(),
        surrogate_hits: Vec::new(),
        spot_checks: Vec::new(),
    };
    for exp in &selected {
        let ctx = RunCtx::new(
            cfg.fidelity,
            experiment_seed(cfg.seed, exp.id()),
            cfg.engine,
        )
        .with_warm_start(cfg.warm_start)
        .with_fleet_size(cfg.fleet_size)
        .with_platform(cfg.platform);
        let mut g = span(new_run(), "experiment").label(exp.id());
        let t0 = Instant::now();
        let result = exp.run(&ctx);
        let wall_s = t0.elapsed().as_secs_f64();
        g.attr("sim_s", ctx.sim_time_s());
        g.attr("points", ctx.sweep_points() as f64);
        g.attr("reuses", ctx.snapshot_reuses() as f64);
        g.attr("surrogate_hits", ctx.surrogate_hits() as f64);
        g.attr("spot_checks", ctx.spot_checks() as f64);
        g.attr("checks", result.checks.len() as f64);
        g.attr(
            "checks_passed",
            result.checks.iter().filter(|c| c.passed).count() as f64,
        );
        g.end();
        run.timings_s.push(wall_s);
        run.sim_times_s.push(ctx.sim_time_s());
        run.sweep_points.push(ctx.sweep_points());
        run.snapshot_reuses.push(ctx.snapshot_reuses());
        run.surrogate_hits.push(ctx.surrogate_hits());
        run.spot_checks.push(ctx.spot_checks());
        run.results.push(result);
    }
    std::fs::write(&out_path, run.to_json())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    spans::write_jsonl(&spans_path).map_err(|e| format!("cannot write {spans_path}: {e}"))
}

fn layers(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut spans_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse_u64(flag, &value()?)?),
            "--spans" => spans_path = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let spans_path = spans_path.ok_or("--spans is required")?;
    match workload.as_deref() {
        Some("sim_tdp") => exercise::sim_tdp(seed),
        Some("sim_below_limit") => exercise::sim_below_limit(seed),
        Some("surrogate_fleet") => exercise::surrogate_fleet(seed),
        other => return Err(format!("unknown workload {other:?}")),
    }
    spans::write_jsonl(&spans_path).map_err(|e| format!("cannot write {spans_path}: {e}"))
}
