//! Time every registered experiment on both platforms at quick fidelity:
//! each registry entry's `SurveyExperiment::run` under the context
//! `run_survey` gives it at the survey's default seed (42).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use haswell_survey::survey::{experiment_seed, registry_for, RunCtx, SurveyConfig};
use hsw_node::PlatformKind;

fn bench_experiments(c: &mut Criterion) {
    let cfg = SurveyConfig::default();
    for platform in PlatformKind::ALL {
        for exp in registry_for(platform) {
            let ctx = || {
                RunCtx::new(
                    cfg.fidelity,
                    experiment_seed(cfg.seed, exp.id()),
                    cfg.engine,
                )
                .with_platform(platform)
            };
            c.bench_function(&format!("{}/{}", platform.name(), exp.id()), |b| {
                b.iter_with_setup(ctx, |ctx| exp.run(&ctx))
            });
        }
    }
}

criterion_group! {
    name = experiments;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_experiments
}
criterion_main!(experiments);
