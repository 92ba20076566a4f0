//! Micro-benches for the full λ-trim pipeline and its stages.

use std::hint::black_box;
use trim_bench::micro::Runner;
use trim_core::{trim_app, DebloatOptions};
use trim_profiler::{profile_app, rank_modules, ScoringMethod};

fn main() {
    let runner = Runner::new();

    {
        let bench = trim_apps::app("wine").expect("wine app");
        let program = pylite::parse(&bench.app_source).unwrap();
        runner.bench("pipeline/static-analysis-wine", || {
            black_box(
                trim_analysis::analyze(&program, &bench.registry)
                    .accessed
                    .len(),
            )
        });
    }

    {
        let bench = trim_apps::app("resnet").expect("resnet app");
        runner.bench("pipeline/profiler/profile-resnet", || {
            black_box(
                profile_app(&bench.app_source, &bench.registry)
                    .unwrap()
                    .modules
                    .len(),
            )
        });
        let profile = profile_app(&bench.app_source, &bench.registry).unwrap();
        runner.bench("pipeline/profiler/rank-combined", || {
            black_box(rank_modules(&profile, ScoringMethod::Combined).len())
        });
    }

    for name in ["markdown", "igraph", "lightgbm"] {
        let bench = trim_apps::app(name).expect("corpus app");
        runner.bench(&format!("pipeline/trim-app/{name}"), || {
            let report = trim_app(
                &bench.registry,
                &bench.app_source,
                &bench.spec,
                &DebloatOptions::default(),
            )
            .unwrap();
            black_box(report.attrs_removed())
        });
    }
}
