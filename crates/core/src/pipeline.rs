//! The end-to-end λ-trim pipeline (§4, Figure 3): static analyzer →
//! cost profiler → DD debloater, producing a deployable trimmed registry.

use crate::debloater::{debloat_step, DebloatOptions, HazardMode, ModuleReport};
use crate::oracle::{run_app, run_baseline, Execution, OracleSpec, RunRecord};
use crate::slicer::{slice_step, SliceReport};
use crate::TrimError;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};
use trim_analysis::lints::Lint;
use trim_analysis::{AnalysisMode, AnalysisOptions};
use trim_profiler::top_k;

/// The complete result of trimming one application.
#[derive(Debug, Clone, PartialEq)]
pub struct TrimReport {
    /// Per-module debloating reports, in debloat order (profiler rank).
    pub modules: Vec<ModuleReport>,
    /// Baseline behavior/measurements of the original application.
    pub before: Execution,
    /// Behavior/measurements of the trimmed application.
    pub after: Execution,
    /// The trimmed registry, directly deployable (§5.4).
    pub trimmed: Registry,
    /// Total simulated debloating time (Table 3).
    pub debloat_secs: f64,
    /// Total oracle invocations across all modules.
    pub oracle_invocations: u64,
    /// Static-analysis lint findings (unused imports, nonexistent
    /// attributes, debloat-soundness hazards).
    pub lints: Vec<Lint>,
    /// Top-K modules that were *not* DD-debloated because a hazard lint
    /// implicated them with an unbounded (⊤) attribute set — or with any
    /// hazard under [`HazardMode::Blanket`]: they deploy untrimmed (the
    /// conservative §5.4 fallback) rather than risking an unsound trim.
    pub fallback_modules: Vec<String>,
    /// Hazard attributes pinned into DD's must-keep seed, per module that
    /// was still trimmed despite a *bounded* hazard implicating it
    /// (empty under [`HazardMode::Blanket`]).
    pub pinned_hazard_attrs: BTreeMap<String, BTreeSet<String>>,
    /// Per-module selective-init slice results (statements kept/total),
    /// in debloat order. Empty when [`DebloatOptions::slice_init`] is off.
    pub slices: Vec<SliceReport>,
}

impl TrimReport {
    /// Total attributes removed across all debloated modules.
    pub fn attrs_removed(&self) -> usize {
        self.modules.iter().map(|m| m.removed.len()).sum()
    }

    /// Initialization-time improvement, as a fraction of the original.
    pub fn init_improvement(&self) -> f64 {
        if self.before.init_secs <= 0.0 {
            0.0
        } else {
            (self.before.init_secs - self.after.init_secs) / self.before.init_secs
        }
    }

    /// Total init statements removed by selective-init slicing.
    pub fn init_stmts_removed(&self) -> usize {
        self.slices.iter().map(SliceReport::stmts_removed).sum()
    }

    /// Memory improvement, as a fraction of the original.
    pub fn mem_improvement(&self) -> f64 {
        if self.before.mem_mb <= 0.0 {
            0.0
        } else {
            (self.before.mem_mb - self.after.mem_mb) / self.before.mem_mb
        }
    }
}

/// Run the full λ-trim pipeline on an application.
///
/// 1. Execute the original once to capture the expected behavior (the
///    strong-oracle baseline) and baseline measurements.
/// 2. Statically analyze the program for imported modules and
///    definitely-accessed attributes (§5.1).
/// 3. Profile every imported module's marginal cost and rank the top-K by
///    the configured scoring method (§5.2).
/// 4. Debloat each top-K module with attribute-granularity DD, committing
///    each module's trimmed source before moving to the next (§5.3/§6.3).
///
/// # Errors
///
/// [`TrimError::Parse`] if the application source does not parse,
/// [`TrimError::Baseline`] if the original application fails its own oracle
/// run — DD requires `O(P) = T` on the unmodified program.
pub fn trim_app(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    options: &DebloatOptions,
) -> Result<TrimReport, TrimError> {
    if options.jobs == 0 {
        return Err(TrimError::Config(
            "analysis jobs must be at least 1".to_owned(),
        ));
    }
    // 1. Baseline run. It seeds the run record (DESIGN.md §18): the last
    //    passing run over the working registry, which answers every probe
    //    and verify of a module it never read. Its initialization is also
    //    the profile step 3 ranks by.
    let (baseline, profile) = run_baseline(registry, app_source, spec);
    let before = baseline.result.map_err(TrimError::Baseline)?;
    let profile = profile.expect("a passing baseline initialized");
    let mut record = Some(RunRecord::new(
        registry.clone(),
        baseline.secs,
        baseline.reads,
    ));

    // 2. Static analysis: accesses, call graph, lints and hazard routing.
    // All analysis runs in this pipeline share one summary cache (the
    // caller's, or a run-local one): the first per-module must-keep
    // recomputation below sees the identical registry and is answered from
    // cache instead of re-running the fixpoint, and later recomputations
    // against the partially-trimmed registry are incremental.
    let program = pylite::parse(app_source).map_err(TrimError::Parse)?;
    let summaries = options
        .summary_cache
        .clone()
        .unwrap_or_else(trim_analysis::summary::SummaryCache::shared);
    let analysis_options = AnalysisOptions {
        mode: options.analysis,
        entry: None,
        jobs: options.jobs,
        summary_cache: Some(summaries),
    };
    let analyzer = trim_analysis::Analyzer::new(&program, &analysis_options);
    let full = analyzer.full(registry);

    // 3. Top-K ranking by the baseline's profile: the same fresh-run
    //    measurement `profile_app` makes.
    let targets: Vec<String> = top_k(&profile, options.scoring, options.k)
        .into_iter()
        .filter(|m| registry.contains(m))
        .collect();

    // 4. Debloat each target in rank order, committing as we go. Modules a
    //    hazard lint implicates with a *bounded* attribute set still enter
    //    DD with those attributes pinned into the must-keep seed; only an
    //    unbounded (⊤) hazard — or any hazard under the blanket baseline —
    //    makes the accessed set unknowable and routes the module to the
    //    conservative fallback deployment (§5.4).
    let mut work = registry.clone();
    let mut modules = Vec::with_capacity(targets.len());
    let mut fallback_modules = Vec::new();
    let mut pinned_hazard_attrs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for module in &targets {
        let pinned: Option<BTreeSet<String>> = match full.hazard_attrs.get(module) {
            None => None,
            Some(bound) => match (options.hazards, bound.attrs()) {
                (HazardMode::PerAttribute, Some(attrs)) => Some(attrs.clone()),
                _ => {
                    fallback_modules.push(module.clone());
                    continue;
                }
            },
        };
        // Interprocedural exclusion sets depend on library code, so they are
        // recomputed against the *working* registry: once a parent module's
        // trim drops a re-export line, the stale must-keeps it induced on
        // its submodules are released for this module's DD run.
        // The first recomputation sees an untouched working registry and is
        // a summary-cache hit (no second fixpoint); later ones rebuild the
        // trimmed modules and only those readers whose read keys lost
        // something, and skip the whole-program merge.
        let mut must_keep = match options.analysis {
            AnalysisMode::AppOnly => full.analysis.accessed_attrs(module),
            AnalysisMode::Interprocedural => analyzer.accessed_attrs(&work, module),
        };
        if let Some(attrs) = pinned {
            must_keep.extend(attrs.iter().cloned());
            pinned_hazard_attrs.insert(module.clone(), attrs);
        }
        let (report, after) = debloat_step(
            &mut work, app_source, spec, &before, module, &must_keep, options, record,
        )?;
        record = after;
        modules.push(report);
    }

    // 5. Statement-level selective-init slicing over the modules DD kept:
    //    drop the init statements feeding nothing the surviving attribute
    //    surface needs. The oracle is the soundness authority (probe
    //    failure → ddmax refinement → unsliced fallback), and hazard-
    //    implicated modules slice in conservative mode.
    let slices = if options.slice_init {
        let candidates: Vec<String> = modules.iter().map(|m| m.module.clone()).collect();
        let hazard_set: BTreeSet<String> = full.hazard_attrs.keys().cloned().collect();
        slice_step(
            &mut work,
            app_source,
            spec,
            &before,
            &candidates,
            &hazard_set,
            options,
            record,
        )?
    } else {
        Vec::new()
    };

    let after = run_app(&work, app_source, spec).map_err(TrimError::Baseline)?;
    debug_assert!(
        after.behavior_eq(&before),
        "trimmed application must be oracle-equivalent"
    );
    let debloat_secs = modules.iter().map(|m| m.debloat_secs).sum::<f64>()
        + slices.iter().map(|s| s.slice_secs).sum::<f64>();
    let oracle_invocations = modules
        .iter()
        .map(|m| m.dd_stats.oracle_invocations)
        .sum::<u64>()
        + slices.iter().map(|s| s.oracle_invocations).sum::<u64>();
    Ok(TrimReport {
        modules,
        before,
        after,
        trimmed: work,
        debloat_secs,
        oracle_invocations,
        lints: full.lints,
        fallback_modules,
        pinned_hazard_attrs,
        slices,
    })
}

/// One independently trimmable application of a corpus.
#[derive(Debug, Clone)]
pub struct CorpusJob {
    /// Display name (used only by callers; trimming ignores it).
    pub name: String,
    /// The app's virtual site-packages.
    pub registry: Registry,
    /// Application (handler) source.
    pub app_source: String,
    /// Oracle specification.
    pub spec: OracleSpec,
}

/// Trim every application of `corpus` on a pool of `jobs` worker threads,
/// one app per worker at a time (apps are independent; `Registry` is
/// `Send + Sync`, so no snapshotting is needed). `jobs <= 1` trims the apps
/// in order on the calling thread.
///
/// Results come back in corpus order and are **deterministic**: each app's
/// trim is the same whatever thread ran it, so the output is byte-identical
/// to calling [`trim_app`] sequentially over the same apps.
pub fn trim_corpus_parallel(
    corpus: &[CorpusJob],
    options: &DebloatOptions,
    jobs: usize,
) -> Vec<Result<TrimReport, TrimError>> {
    let jobs = jobs.max(1).min(corpus.len().max(1));
    if jobs <= 1 {
        return corpus
            .iter()
            .map(|j| trim_app(&j.registry, &j.app_source, &j.spec, options))
            .collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<Result<TrimReport, TrimError>>> = Vec::new();
    results.resize_with(corpus.len(), || None);
    let results = std::sync::Mutex::new(results);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = corpus.get(i) else { break };
                let report = trim_app(&job.registry, &job.app_source, &job.spec, options);
                results.lock().expect("corpus results poisoned")[i] = Some(report);
            });
        }
    });
    results
        .into_inner()
        .expect("corpus results poisoned")
        .into_iter()
        .map(|r| r.expect("every corpus job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TestCase;

    fn corpus() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "mlkit",
            "from mlkit.models import Net, OldNet\nfrom mlkit.losses import MSE\n_cache = __lt_alloc__(30)\n__lt_work__(80)\ndef predict(x):\n    return Net().run(x)\ndef train(x):\n    return MSE()\n",
        );
        r.set_module(
            "mlkit.models",
            "__lt_work__(40)\n_weights = __lt_alloc__(20)\nclass Net:\n    def run(self, x):\n        return x * 2\nclass OldNet:\n    pass\n",
        );
        r.set_module(
            "mlkit.losses",
            "__lt_work__(60)\n_buf = __lt_alloc__(25)\nclass MSE:\n    pass\n",
        );
        r.set_module("util", "__lt_work__(10)\ndef fmt(x):\n    return str(x)\n");
        r
    }

    const APP: &str = "import mlkit\nimport util\ndef handler(event, context):\n    return util.fmt(mlkit.predict(event[\"n\"]))\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{\"n\": 21}")])
    }

    #[test]
    fn pipeline_trims_and_preserves_behavior() {
        let report = trim_app(&corpus(), APP, &spec(), &DebloatOptions::default()).unwrap();
        assert!(report.after.behavior_eq(&report.before));
        assert_eq!(report.after.results, vec!["\"42\""]);
        assert!(report.attrs_removed() > 0, "something must be trimmed");
        // `train`/`MSE` are unused — mlkit.losses should no longer load.
        let src = report.trimmed.source("mlkit").unwrap();
        assert!(
            !src.contains("losses"),
            "unused loss import dropped:\n{src}"
        );
        assert!(
            report.after.init_secs < report.before.init_secs,
            "init time improves ({} -> {})",
            report.before.init_secs,
            report.after.init_secs
        );
        assert!(report.after.mem_mb < report.before.mem_mb);
    }

    #[test]
    fn pipeline_reports_debloat_accounting() {
        let report = trim_app(&corpus(), APP, &spec(), &DebloatOptions::default()).unwrap();
        assert!(report.debloat_secs > 0.0);
        assert!(report.oracle_invocations > 0);
        assert!(report.init_improvement() > 0.0);
        assert!(report.mem_improvement() > 0.0);
    }

    #[test]
    fn k_limits_module_count() {
        let report = trim_app(
            &corpus(),
            APP,
            &spec(),
            &DebloatOptions {
                k: 1,
                ..DebloatOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.modules.len(), 1);
    }

    #[test]
    fn hazardous_module_takes_fallback() {
        // Opaque getattr on mlkit: its accessed set is statically
        // unknowable, so mlkit must deploy untrimmed.
        let app = "import mlkit\nimport util\ndef handler(event, context):\n    return util.fmt(mlkit.predict(event[\"n\"]))\ndef diag(event, context):\n    return getattr(mlkit, event)\n";
        let r = corpus();
        let report = trim_app(&r, app, &spec(), &DebloatOptions::default()).unwrap();
        assert_eq!(report.fallback_modules, vec!["mlkit".to_string()]);
        assert_eq!(
            report.trimmed.source("mlkit"),
            r.source("mlkit"),
            "hazardous module must be left untouched"
        );
        assert!(report
            .lints
            .iter()
            .any(|l| l.severity == trim_analysis::lints::Severity::Hazard));
        assert!(
            !report.modules.iter().any(|m| m.module == "mlkit"),
            "no DD run for the fallback module"
        );
        assert!(report.after.behavior_eq(&report.before));
    }

    #[test]
    fn bounded_hazard_pins_attrs_and_still_trims() {
        // The getattr name is bounded by string-value analysis to
        // {predict, train}: mlkit stays trimmable with those attributes
        // pinned into must-keep instead of falling back wholesale.
        let app = "import mlkit\nimport util\ndef handler(event, context):\n    key = \"predict\" if event[\"n\"] > 0 else \"train\"\n    fn = getattr(mlkit, key)\n    return util.fmt(fn(event[\"n\"]))\n";
        let report = trim_app(&corpus(), app, &spec(), &DebloatOptions::default()).unwrap();
        assert!(
            report.fallback_modules.is_empty(),
            "a bounded hazard must not route to fallback: {:?}",
            report.fallback_modules
        );
        let pinned = report.pinned_hazard_attrs.get("mlkit").unwrap();
        assert_eq!(
            pinned,
            &BTreeSet::from(["predict".to_owned(), "train".to_owned()])
        );
        assert!(
            report.modules.iter().any(|m| m.module == "mlkit"),
            "mlkit must get a DD run"
        );
        assert!(
            report.attrs_removed() > 0,
            "something must still be trimmed"
        );
        // `train` is pinned even though no oracle case reaches it, so the
        // loss machinery it needs must survive the trim.
        let src = report.trimmed.source("mlkit").unwrap();
        assert!(src.contains("train"), "pinned attribute kept:\n{src}");
        assert!(report.after.behavior_eq(&report.before));
    }

    #[test]
    fn blanket_mode_reproduces_whole_module_fallback() {
        let app = "import mlkit\nimport util\ndef handler(event, context):\n    key = \"predict\" if event[\"n\"] > 0 else \"train\"\n    fn = getattr(mlkit, key)\n    return util.fmt(fn(event[\"n\"]))\n";
        let r = corpus();
        let report = trim_app(
            &r,
            app,
            &spec(),
            &DebloatOptions {
                hazards: HazardMode::Blanket,
                ..DebloatOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.fallback_modules, vec!["mlkit".to_string()]);
        assert!(report.pinned_hazard_attrs.is_empty());
        assert_eq!(
            report.trimmed.source("mlkit"),
            r.source("mlkit"),
            "blanket mode must leave the hazardous module untouched"
        );
    }

    #[test]
    fn interprocedural_needs_fewer_probes_than_app_only() {
        let run = |mode| {
            trim_app(
                &corpus(),
                APP,
                &spec(),
                &DebloatOptions {
                    analysis: mode,
                    ..DebloatOptions::default()
                },
            )
            .unwrap()
        };
        let app_only = run(AnalysisMode::AppOnly);
        let inter = run(AnalysisMode::Interprocedural);
        // Same final deployment, cheaper search: the eager library-import
        // exclusions skip the probes the seed wasted discovering that
        // import-needed attributes cannot be removed.
        assert!(inter.after.behavior_eq(&app_only.after));
        assert_eq!(
            inter.trimmed.total_source_bytes(),
            app_only.trimmed.total_source_bytes(),
            "both modes must converge to the same trim"
        );
        assert!(
            inter.oracle_invocations < app_only.oracle_invocations,
            "interprocedural exclusions must save probes ({} vs {})",
            inter.oracle_invocations,
            app_only.oracle_invocations
        );
    }

    #[test]
    fn probe_cache_shares_verdicts_across_analysis_modes() {
        let cache = crate::probe_cache::ProbeCache::shared();
        let run = |mode| {
            trim_app(
                &corpus(),
                APP,
                &spec(),
                &DebloatOptions {
                    analysis: mode,
                    probe_cache: Some(cache.clone()),
                    ..DebloatOptions::default()
                },
            )
            .unwrap()
        };
        let app_only = run(AnalysisMode::AppOnly);
        let hits_after_first = cache.hits();
        let inter = run(AnalysisMode::Interprocedural);
        assert!(
            cache.hits() > hits_after_first,
            "the second mode must reuse verdicts the first mode cached"
        );
        assert!(inter.after.behavior_eq(&app_only.after));
        assert_eq!(
            inter.trimmed.total_source_bytes(),
            app_only.trimmed.total_source_bytes()
        );
    }

    #[test]
    fn corpus_parallel_matches_sequential_byte_for_byte() {
        let jobs: Vec<CorpusJob> = vec![
            CorpusJob {
                name: "mlkit-app".into(),
                registry: corpus(),
                app_source: APP.into(),
                spec: spec(),
            },
            CorpusJob {
                name: "util-only".into(),
                registry: corpus(),
                app_source:
                    "import util\ndef handler(event, context):\n    return util.fmt(event[\"n\"])\n"
                        .into(),
                spec: spec(),
            },
            CorpusJob {
                name: "train-app".into(),
                registry: corpus(),
                app_source:
                    "import mlkit\ndef handler(event, context):\n    mlkit.train(event[\"n\"])\n    return mlkit.predict(event[\"n\"])\n"
                        .into(),
                spec: spec(),
            },
        ];
        let options = DebloatOptions::default();
        let seq = trim_corpus_parallel(&jobs, &options, 1);
        let par = trim_corpus_parallel(&jobs, &options, 4);
        assert_eq!(seq.len(), par.len());
        for (job, (s, p)) in jobs.iter().zip(seq.iter().zip(par.iter())) {
            let s = s.as_ref().unwrap_or_else(|e| panic!("{}: {e}", job.name));
            let p = p.as_ref().unwrap_or_else(|e| panic!("{}: {e}", job.name));
            for module in s.trimmed.module_names() {
                assert_eq!(
                    s.trimmed.source(&module),
                    p.trimmed.source(&module),
                    "{}/{module}: parallel corpus trim must be byte-identical",
                    job.name
                );
            }
            assert!(p.after.behavior_eq(&s.after));
        }
    }

    #[test]
    fn failing_baseline_is_an_error() {
        let r = corpus();
        let bad_app = "import mlkit\ndef handler(event, context):\n    return missing_name\n";
        let err = trim_app(&r, bad_app, &spec(), &DebloatOptions::default()).unwrap_err();
        assert!(matches!(err, TrimError::Baseline(_)));
    }

    #[test]
    fn unparsable_app_is_an_error() {
        let err = trim_app(
            &corpus(),
            "def broken(:\n",
            &spec(),
            &DebloatOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TrimError::Baseline(_) | TrimError::Parse(_)));
    }

    #[test]
    fn trimmed_registry_is_smaller_or_equal_in_source() {
        let r = corpus();
        let report = trim_app(&r, APP, &spec(), &DebloatOptions::default()).unwrap();
        assert!(report.trimmed.total_source_bytes() <= r.total_source_bytes());
    }
}

/// The run record (DESIGN.md §18): which probes and verifies a trim
/// answers without starting an interpreter, counted with the debug-build
/// [`crate::oracle::oracle_runs`].
#[cfg(all(test, debug_assertions))]
mod record_tests {
    use super::*;
    use crate::debloater::debloat_module;
    use crate::oracle::{oracle_runs, run_oracle, TestCase};
    use crate::probe_cache::ProbeCache;
    use crate::slicer::slice_modules;

    /// `a` is the only importer of `b`, through `g`, which the app never
    /// calls: once `a` is committed, the app stops importing `b`.
    fn registry(h_body: &str) -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "a",
            "import b\ndef f(x):\n    return x + 1\ndef g(x):\n    return b.h(x)\n",
        );
        r.set_module(
            "b",
            format!("__lt_work__(30)\ndef h(x):\n    {h_body}\ndef k(x):\n    return x\n"),
        );
        r
    }

    const APP: &str = "import a\ndef handler(event, context):\n    return a.f(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{\"n\": 1}")])
    }

    /// The baseline behaviour of `app` over `r`, and its run record.
    fn baseline(r: &Registry, app: &str) -> (Execution, RunRecord) {
        let run = run_oracle(r, app, &spec());
        let before = run.result.expect("baseline passes");
        (before, RunRecord::new(r.clone(), run.secs, run.reads))
    }

    /// `step`'s result and the oracle runs it started.
    fn counted<T>(step: impl FnOnce() -> T) -> (T, u64) {
        let start = oracle_runs();
        let out = step();
        (out, oracle_runs() - start)
    }

    /// What trimming `b` after `a` gives: `b`'s DD report and slice
    /// reports, the oracle runs each made, and the registries they
    /// started from.
    struct DeadTarget {
        dd: ModuleReport,
        dd_runs: u64,
        at_dd: Registry,
        slices: Vec<SliceReport>,
        slice_runs: u64,
        at_slice: Registry,
        after: Registry,
    }

    fn trim_a_then_b(h_body: &str, options: &DebloatOptions) -> DeadTarget {
        let none = BTreeSet::new();
        let mut work = registry(h_body);
        let (before, record) = baseline(&work, APP);
        let (a, record) = debloat_step(
            &mut work,
            APP,
            &spec(),
            &before,
            "a",
            &none,
            options,
            Some(record),
        )
        .unwrap();
        assert!(a.removed.contains(&"b".to_owned()), "a stops importing b");
        let at_dd = work.clone();
        let ((dd, record), dd_runs) = counted(|| {
            let b = "b";
            debloat_step(&mut work, APP, &spec(), &before, b, &none, options, record).unwrap()
        });
        let at_slice = work.clone();
        let b = ["b".to_owned()];
        let (slices, slice_runs) = counted(|| {
            slice_step(&mut work, APP, &spec(), &before, &b, &none, options, record).unwrap()
        });
        DeadTarget {
            dd,
            dd_runs,
            at_dd,
            slices,
            slice_runs,
            at_slice,
            after: work,
        }
    }

    #[test]
    fn a_dead_target_makes_no_runs_and_matches_the_public_calls() {
        let options = DebloatOptions::default();
        let dead = trim_a_then_b("return x * 2", &options);
        assert_eq!(dead.dd_runs, 0, "b's DD and verify are answered");
        assert_eq!(dead.slice_runs, 0, "b's slice probes are answered");
        assert!(dead.dd.dd_stats.oracle_invocations > 1);
        assert!(dead.dd.debloat_secs > 0.0);
        assert!(dead.slices[0].oracle_invocations > 0);
        assert_eq!(dead.slices[0].stmts_removed(), 1, "the dead init goes");

        // Without a record, the first probe runs and never reads `b`: it
        // answers the rest, and the verify.
        let (before, _) = baseline(&registry("return x * 2"), APP);
        let none = BTreeSet::new();
        let mut public = dead.at_dd.clone();
        let (report, runs) = counted(|| {
            debloat_module(&mut public, APP, &spec(), &before, "b", &none, &options).unwrap()
        });
        assert_eq!(runs, 1);
        assert_eq!(report, dead.dd);
        assert_eq!(public, dead.at_slice);
        let b = ["b".to_owned()];
        let (slices, runs) = counted(|| {
            slice_modules(&mut public, APP, &spec(), &before, &b, &none, &options).unwrap()
        });
        assert_eq!(runs, 1);
        assert_eq!(slices, dead.slices);
        assert_eq!(public, dead.after);
    }

    #[test]
    fn editing_a_dead_target_changes_no_verdict_and_no_seconds() {
        let options = DebloatOptions::default();
        let doubled = trim_a_then_b("return x * 2", &options);
        let edited = trim_a_then_b("return [x, x + 1, str(x)]", &options);
        assert_ne!(doubled.at_dd, edited.at_dd);
        assert_eq!(doubled.dd, edited.dd);
        assert_eq!(doubled.slices, edited.slices);
    }

    #[test]
    fn targets_read_transitively_or_through_eviction_are_never_answered() {
        let options = DebloatOptions::default();
        let none = BTreeSet::new();
        // `c` loads only through `lib`'s import: the app never names it.
        let mut transitive = Registry::new();
        transitive.set_module("lib", "import c\ndef go(x):\n    return c.one() + x\n");
        transitive.set_module("c", "def one():\n    return 1\ndef two():\n    return 2\n");
        let app = "import lib\ndef handler(event, context):\n    return lib.go(event[\"n\"])\n";
        // A trimmed `c` that `try` imports and evicts: its body raises.
        let mut evicted = Registry::new();
        evicted.set_module(
            "c",
            "x = 1\ndef one():\n    return 1\nraise ValueError(\"no\")\n",
        );
        let evicting = "try:\n    import c\nexcept ValueError:\n    pass\ndef handler(event, context):\n    return event[\"n\"]\n";
        for (registry, app) in [(transitive, app), (evicted, evicting)] {
            let (before, record) = baseline(&registry, app);
            assert!(!record.answers_probes(&registry, "c"));
            let mut work = registry.clone();
            let ((report, _), runs) = counted(|| {
                let c = "c";
                let record = Some(record);
                debloat_step(&mut work, app, &spec(), &before, c, &none, &options, record).unwrap()
            });
            assert!(
                runs >= report.dd_stats.oracle_invocations,
                "every probe ran"
            );
            assert!(!report.removed.is_empty());
        }
    }

    #[test]
    fn a_verify_runs_when_the_last_passing_probe_is_not_the_committed_registry() {
        let none = BTreeSet::new();
        let plain_options = DebloatOptions::default();
        let mut plain = registry("return x * 2");
        let (before, record) = baseline(&plain, APP);
        let step = |work: &mut Registry, record, options: &DebloatOptions| {
            debloat_step(work, APP, &spec(), &before, "a", &none, options, record).unwrap()
        };
        let (plain_report, _) = step(&mut plain, Some(record), &plain_options);
        // A cache that knows only that the committed keep set passes: DD
        // takes it from the cache, so the last passing live probe ran
        // another candidate, and the verify must run.
        let cache = ProbeCache::shared();
        let mut work = registry("return x * 2");
        let kept = plain_report.kept.iter().cloned();
        let app_fp = crate::probe_cache::app_fingerprint(APP, &spec());
        let key = crate::probe_cache::ProbeKey::new(work.fingerprint(), app_fp, "a", kept);
        cache.insert(key, true);
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        let (_, record) = baseline(&work, APP);
        let ((report, after), runs) = counted(|| step(&mut work, Some(record), &options));
        assert_eq!(
            cache.hits(),
            1,
            "the committed keep set came from the cache"
        );
        let live_probes = report.dd_stats.oracle_invocations - cache.hits();
        assert_eq!(
            runs,
            live_probes + 1,
            "every other probe and the verify ran"
        );
        assert_eq!(report.kept, plain_report.kept);
        assert_eq!(work, plain);
        let after = after.expect("a passing verify becomes the record");
        assert!(after.answers(&work, "a"));
    }
}
