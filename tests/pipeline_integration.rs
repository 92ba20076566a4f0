//! Cross-crate integration tests: the full λ-trim pipeline over the
//! benchmark corpus, invariants that must hold for every application, and
//! head-to-head checks against the baseline debloaters.

use lambda_trim::{trim_app, DebloatOptions};
use trim_core::run_app;

/// Every mini-corpus app: trimming preserves behavior and never makes
/// initialization or memory worse.
#[test]
fn trim_preserves_behavior_and_improves_init() {
    for bench in trim_apps::mini_corpus() {
        let report = trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &DebloatOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            report.after.behavior_eq(&report.before),
            "{}: behavior must be preserved",
            bench.name
        );
        assert!(
            report.after.init_secs <= report.before.init_secs,
            "{}: init must not regress",
            bench.name
        );
        assert!(
            report.after.mem_mb <= report.before.mem_mb,
            "{}: memory must not regress",
            bench.name
        );
        assert!(
            report.attrs_removed() > 0,
            "{}: something trimmed",
            bench.name
        );
    }
}

/// The trimmed registry is independently deployable: a fresh run (new
/// interpreter, no state from the pipeline) still matches the original.
#[test]
fn trimmed_registry_is_deployable() {
    let bench = trim_apps::app("igraph").unwrap();
    let report = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let fresh = run_app(&report.trimmed, &bench.app_source, &bench.spec).unwrap();
    assert!(fresh.behavior_eq(&report.before));
}

/// Attribute-granularity DD removes at least as many attributes as the
/// statement-granularity and dead-code baselines (§6.1's claim).
#[test]
fn dd_beats_baselines_on_attributes_removed() {
    for bench in trim_apps::mini_corpus() {
        let dd = trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &DebloatOptions::default(),
        )
        .unwrap();
        let fl = trim_baselines::faaslight_trim(&bench.registry, &bench.app_source, &bench.spec)
            .unwrap();
        let vu =
            trim_baselines::vulture_trim(&bench.registry, &bench.app_source, &bench.spec).unwrap();
        assert!(
            dd.attrs_removed() >= fl.attrs_removed(),
            "{}: DD {} vs FaaSLight {}",
            bench.name,
            dd.attrs_removed(),
            fl.attrs_removed()
        );
        assert!(
            dd.attrs_removed() >= vu.attrs_removed(),
            "{}: DD {} vs Vulture {}",
            bench.name,
            dd.attrs_removed(),
            vu.attrs_removed()
        );
        // And DD's trimmed app must be at least as fast to initialize.
        assert!(dd.after.init_secs <= fl.after.init_secs + 1e-9);
        assert!(dd.after.init_secs <= vu.after.init_secs + 1e-9);
    }
}

/// A larger K never yields a worse result than a smaller K (§8.4: growth
/// then plateau).
#[test]
fn k_is_monotone_in_improvement() {
    let bench = trim_apps::app("dna-visualization").unwrap();
    let mut last_init = f64::INFINITY;
    for k in [1usize, 3, 8, 20] {
        let report = trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &DebloatOptions {
                k,
                ..DebloatOptions::default()
            },
        )
        .unwrap();
        assert!(
            report.after.init_secs <= last_init + 1e-9,
            "K={k} made init worse"
        );
        last_init = report.after.init_secs;
    }
}

/// Scoring methods all produce behavior-preserving results; combined is
/// at least as good as random under a restricted K.
#[test]
fn scoring_methods_are_sound() {
    use trim_profiler::ScoringMethod;
    let bench = trim_apps::app("lightgbm").unwrap();
    let mut by_method = Vec::new();
    for method in [
        ScoringMethod::Time,
        ScoringMethod::Memory,
        ScoringMethod::Combined,
        ScoringMethod::Random { seed: 3 },
    ] {
        let report = trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &DebloatOptions {
                k: 2,
                scoring: method,
                ..DebloatOptions::default()
            },
        )
        .unwrap();
        assert!(report.after.behavior_eq(&report.before));
        by_method.push((method.name(), report.after.init_secs));
    }
    let combined = by_method.iter().find(|(n, _)| *n == "combined").unwrap().1;
    let random = by_method.iter().find(|(n, _)| *n == "random").unwrap().1;
    assert!(
        combined <= random + 1e-9,
        "combined ({combined}) must not lose to random ({random})"
    );
}

/// Repeated pipeline runs are fully deterministic.
#[test]
fn pipeline_is_deterministic() {
    let bench = trim_apps::app("markdown").unwrap();
    let a = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let b = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    assert_eq!(a.trimmed, b.trimmed);
    assert_eq!(a.oracle_invocations, b.oracle_invocations);
}

/// The full 21-app corpus loads and passes its own oracles (cheap smoke
/// check; the heavyweight trim sweep lives in the experiments binary).
#[test]
fn full_corpus_smoke() {
    for bench in trim_apps::corpus() {
        let exec = run_app(&bench.registry, &bench.app_source, &bench.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(exec.init_secs > 0.0);
        assert!(exec.mem_mb > 0.0);
    }
}

/// §5.1 soundness over the whole corpus: every attribute the
/// interprocedural analysis marks as accessed at load time is actually
/// read when the application initializes (static ⊆ dynamic). An
/// over-approximation here would silently force-keep trimmable attributes.
#[test]
fn static_load_time_accesses_are_observed_dynamically() {
    for bench in trim_apps::corpus() {
        let program = lambda_trim::pylite::parse(&bench.app_source)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let full = lambda_trim::trim_analysis::analyze_full(
            &program,
            &bench.registry,
            &lambda_trim::trim_analysis::AnalysisOptions::default(),
        );
        let mut it = lambda_trim::Interpreter::new(bench.registry.clone());
        it.exec_main(&bench.app_source)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for (module, attrs) in &full.load_time_accessed {
            let observed = it
                .observed_accesses()
                .get(module)
                .cloned()
                .unwrap_or_default();
            for attr in attrs {
                assert!(
                    observed.contains(attr),
                    "{}: analysis claims {module}.{attr} is read at load time, \
                     but the interpreter never observed it",
                    bench.name
                );
            }
        }
    }
}

/// The interprocedural exclusion sets subsume the app-only (seed-scope)
/// ones for every corpus app — switching the default can only shrink the
/// DD search space, never grow it.
#[test]
fn interprocedural_exclusions_subsume_app_only() {
    let mut grew_somewhere = false;
    for bench in trim_apps::corpus() {
        let program = lambda_trim::pylite::parse(&bench.app_source).unwrap();
        let inter = lambda_trim::trim_analysis::analyze(&program, &bench.registry);
        let app_only = lambda_trim::trim_analysis::analyze_app_only(&program, &bench.registry);
        for (module, attrs) in &app_only.accessed {
            let inter_attrs = inter.accessed_attrs(module);
            for attr in attrs {
                assert!(
                    inter_attrs.contains(attr),
                    "{}: {module}.{attr} lost by interprocedural analysis",
                    bench.name
                );
            }
        }
        let count = |a: &lambda_trim::trim_analysis::Analysis| -> usize {
            a.accessed.values().map(|s| s.len()).sum()
        };
        if count(&inter) > count(&app_only) {
            grew_somewhere = true;
        }
    }
    assert!(
        grew_somewhere,
        "interprocedural analysis should find extra exclusions somewhere in the corpus"
    );
}

/// Probe-count acceptance: with the interprocedural exclusion sets, DD
/// never needs more oracle probes than with the seed-scope sets, and at
/// least one app needs measurably fewer — while converging to the same
/// trimmed deployment.
#[test]
fn interprocedural_probes_never_increase() {
    use lambda_trim::trim_analysis::AnalysisMode;
    let mut reduced_somewhere = false;
    for bench in trim_apps::mini_corpus() {
        let run = |mode| {
            trim_app(
                &bench.registry,
                &bench.app_source,
                &bench.spec,
                &DebloatOptions {
                    analysis: mode,
                    ..DebloatOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
        };
        let app_only = run(AnalysisMode::AppOnly);
        let inter = run(AnalysisMode::Interprocedural);
        assert!(
            inter.after.behavior_eq(&app_only.after),
            "{}: modes must agree on behavior",
            bench.name
        );
        assert!(
            inter.oracle_invocations <= app_only.oracle_invocations,
            "{}: interprocedural probes regressed ({} vs {})",
            bench.name,
            inter.oracle_invocations,
            app_only.oracle_invocations
        );
        if inter.oracle_invocations < app_only.oracle_invocations {
            reduced_somewhere = true;
        }
    }
    assert!(
        reduced_somewhere,
        "at least one mini-corpus app must need fewer probes interprocedurally"
    );
}

/// A synthetic app with an opaque (non-literal) getattr on its main
/// library: the lint pass must flag it and the pipeline must deploy that
/// library untrimmed via the conservative fallback route.
#[test]
fn opaque_dynamic_access_routes_module_to_fallback() {
    use lambda_trim::trim_analysis::lints::Severity;
    let bench = trim_apps::app("markdown").unwrap();
    let hazardous_app = format!(
        "{}def probe(event, context):\n    return getattr(markdown, event[\"name\"])\n",
        bench.app_source
    );
    let report = trim_app(
        &bench.registry,
        &hazardous_app,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    assert!(
        report.fallback_modules.contains(&"markdown".to_string()),
        "markdown must be routed to fallback, got {:?}",
        report.fallback_modules
    );
    assert_eq!(
        report.trimmed.source("markdown"),
        bench.registry.source("markdown"),
        "fallback module deploys untrimmed"
    );
    assert!(report.lints.iter().any(|l| l.severity == Severity::Hazard));
    assert!(report.after.behavior_eq(&report.before));
}
