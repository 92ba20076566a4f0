//! Continuous debloating (§9 future work): re-debloat after a function
//! update or an oracle-set extension, reusing the previous run's kept sets
//! to drive the search.
//!
//! The paper: "we plan to implement a continuous debloating pipeline for
//! both function updates and inputs that are collected through our fallback
//! mechanism. This pipeline will make use of logs collected during the
//! initial debloating to drive the subsequent debloating more efficiently."
//!
//! The mechanism here: for each module, first probe the *previous* kept
//! set (intersected with the module's current attributes). If the app still
//! behaves correctly with it, ddmin only has to search inside that —
//! usually tiny — set instead of the full attribute list. If the seed fails
//! (the update needs something that was previously trimmed, or the oracle
//! grew), fall back to the full search.

use crate::candidate::{Prober, Selection};
use crate::debloater::{commit, split_kept, DebloatOptions, ModuleReport};
use crate::oracle::{run_app_opts, Execution, OracleSpec};
use crate::pipeline::TrimReport;
use crate::slicer::{slice_modules, SliceReport};
use crate::TrimError;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};
use trim_dd::{ddmin_with, DdStats};

/// The debloating log of a previous run: per-module kept attribute sets.
/// This is the §9 "log collected during the initial debloating".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrimLog {
    /// Module → attributes kept by the previous run.
    pub kept: BTreeMap<String, BTreeSet<String>>,
}

impl TrimLog {
    /// Extract the log from a completed [`TrimReport`].
    pub fn from_report(report: &TrimReport) -> TrimLog {
        TrimLog {
            kept: report
                .modules
                .iter()
                .map(|m| (m.module.clone(), m.kept.iter().cloned().collect()))
                .collect(),
        }
    }

    /// Record additional attributes that must be kept for a module (e.g.
    /// collected from fallback notifications).
    pub fn require(&mut self, module: &str, attr: &str) {
        self.kept
            .entry(module.to_owned())
            .or_default()
            .insert(attr.to_owned());
    }
}

/// Result of an incremental run, with seed-effectiveness accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalReport {
    /// The underlying trim results per module.
    pub modules: Vec<ModuleReport>,
    /// Baseline behavior of the (possibly updated) original application.
    pub before: Execution,
    /// Behavior of the trimmed application.
    pub after: Execution,
    /// The trimmed registry.
    pub trimmed: Registry,
    /// Modules where the previous kept set seeded the search successfully.
    pub seeded_modules: usize,
    /// Modules that required a full (cold) search.
    pub cold_modules: usize,
    /// Total oracle invocations (compare with a cold run to see savings).
    pub oracle_invocations: u64,
    /// Per-module selective-init slice results, matching the cold
    /// pipeline's pass. Empty when [`DebloatOptions::slice_init`] is off.
    pub slices: Vec<SliceReport>,
}

impl IncrementalReport {
    /// The updated log, to persist for the next round.
    pub fn log(&self) -> TrimLog {
        TrimLog {
            kept: self
                .modules
                .iter()
                .map(|m| (m.module.clone(), m.kept.iter().cloned().collect()))
                .collect(),
        }
    }
}

/// Re-debloat an application seeded by a previous [`TrimLog`].
///
/// The module list is taken from the log (the modules the previous run
/// chose via profiling); new modules the app imports but the log has never
/// seen are *not* debloated here — run the full pipeline when the import
/// set changes materially.
///
/// # Errors
///
/// [`TrimError::Baseline`] if the updated application fails its oracle run,
/// [`TrimError::Parse`] if a logged module no longer parses.
pub fn retrim_with_log(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    log: &TrimLog,
    options: &DebloatOptions,
) -> Result<IncrementalReport, TrimError> {
    if options.jobs == 0 {
        return Err(TrimError::Config(
            "analysis jobs must be at least 1".to_owned(),
        ));
    }
    let before = run_app_opts(
        registry,
        app_source,
        spec,
        options.engine,
        options.init_snapshots,
    )
    .map_err(TrimError::Baseline)?;
    let app_program = pylite::parse(app_source).map_err(TrimError::Parse)?;
    // Retrims are where the summary cache earns its keep: sharing one cache
    // across runs means only the edited modules (and readers of keys they
    // lost) are re-analyzed, and the per-module recomputations below start
    // as hits.
    let summaries = options
        .summary_cache
        .clone()
        .unwrap_or_else(trim_analysis::summary::SummaryCache::shared);
    let analysis_options = trim_analysis::AnalysisOptions {
        mode: trim_analysis::AnalysisMode::Interprocedural,
        entry: None,
        jobs: options.jobs,
        summary_cache: Some(summaries),
    };
    let analyzer = trim_analysis::Analyzer::new(&app_program, &analysis_options);
    let full = analyzer.full(registry);
    let analysis = &full.analysis;

    let mut work = registry.clone();
    let mut modules = Vec::new();
    let mut seeded_modules = 0;
    let mut cold_modules = 0;
    let mut oracle_invocations = 0;
    for (module, prev_kept) in &log.kept {
        if !work.contains(module) {
            continue;
        }
        let prober = Prober::new(&work, module, app_source, spec, &before, options, None)
            .map_err(TrimError::Parse)?;
        let attrs = prober.ids().attributes().to_vec();
        // Same recompute-on-work rule as the cold pipeline: committed trims
        // release the must-keeps their import lines induced.
        let must_keep = match options.analysis {
            trim_analysis::AnalysisMode::AppOnly => analysis.accessed_attrs(module),
            trim_analysis::AnalysisMode::Interprocedural => analyzer.accessed_attrs(&work, module),
        };

        // Probe the seed: previous kept set ∩ current attrs ∪ must-keep.
        // Must-keep names the module does not bind still enter the probe's
        // cache key, exactly as the named keep set would.
        let index = prober.ids();
        let seed: BTreeSet<String> = prev_kept
            .iter()
            .filter(|a| index.id(a).is_some_and(|id| (id as usize) < attrs.len()))
            .cloned()
            .chain(must_keep.iter().cloned())
            .collect();
        let seed_mask = index.keep_mask(&seed);
        let unbound: Vec<String> = seed
            .iter()
            .filter(|name| index.id(name).is_none())
            .cloned()
            .collect();
        // A retrim probe is keyed exactly like a cold-pipeline probe: same
        // base-registry fingerprint, app fingerprint, module and keep-set.
        // An untouched module therefore answers its probes straight from a
        // shared [`crate::ProbeCache`] populated by the previous run.
        let (seed_ok, _) = prober.probe(Selection::Attrs {
            keep: &seed_mask,
            extra: &unbound,
        });
        oracle_invocations += 1;

        // Fixed: the must-keep attributes, all inside the seed. DD searches
        // the rest of the seed when it passed, else every other attribute.
        if seed_ok {
            seeded_modules += 1;
        } else {
            cold_modules += 1;
        }
        let (fixed, candidates): (Vec<u32>, Vec<u32>) = (0..attrs.len() as u32)
            .filter(|&id| !seed_ok || seed_mask[id as usize])
            .partition(|&id| must_keep.contains(&attrs[id as usize]));
        let keep_mask = |subset: &[u32]| index.mask(fixed.iter().chain(subset).copied());

        let mut spent = 0.0f64;
        let mut oracle = |subset: &[u32]| {
            let keep = keep_mask(subset);
            let (ok, secs) = prober.probe(Selection::Attrs {
                keep: &keep,
                extra: &[],
            });
            spent += secs;
            ok
        };
        let dd_result = ddmin_with(&candidates, &mut oracle, options.dd);
        match dd_result {
            Ok(result) => {
                let (kept, removed) = split_kept(&attrs, &keep_mask(&result.minimized));
                commit(&mut work, module, &kept);
                oracle_invocations += result.stats.oracle_invocations;
                modules.push(ModuleReport {
                    module: module.clone(),
                    attrs_before: attrs.len(),
                    attrs_after: kept.len(),
                    removed,
                    kept,
                    dd_stats: result.stats,
                    debloat_secs: spent,
                });
            }
            Err(trim_dd::DdError::OracleRejectsWhole) => {
                // Even the full attribute set fails under this candidate
                // path — leave the module untouched.
                modules.push(ModuleReport {
                    module: module.clone(),
                    attrs_before: attrs.len(),
                    attrs_after: attrs.len(),
                    removed: Vec::new(),
                    kept: attrs,
                    dd_stats: DdStats::default(),
                    debloat_secs: spent,
                });
            }
        }
    }
    // Mirror the cold pipeline's selective-init slicing pass so an
    // incremental retrim converges to the same deployment as a from-scratch
    // trim of the same inputs.
    let slices = if options.slice_init {
        let candidates: Vec<String> = modules.iter().map(|m| m.module.clone()).collect();
        let hazard_set: BTreeSet<String> = full.hazard_attrs.keys().cloned().collect();
        let slices = slice_modules(
            &mut work,
            app_source,
            spec,
            &before,
            &candidates,
            &hazard_set,
            options,
        )?;
        oracle_invocations += slices.iter().map(|s| s.oracle_invocations).sum::<u64>();
        slices
    } else {
        Vec::new()
    };
    let after = run_app_opts(
        &work,
        app_source,
        spec,
        options.engine,
        options.init_snapshots,
    )
    .map_err(TrimError::Baseline)?;
    Ok(IncrementalReport {
        modules,
        before,
        after,
        trimmed: work,
        seeded_modules,
        cold_modules,
        oracle_invocations,
        slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TestCase;
    use crate::pipeline::trim_app;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "toolkit",
            "__lt_work__(50)\ndef alpha(x):\n    return x + 1\ndef beta(x):\n    return x + 2\ndef gamma(x):\n    return x + 3\ndef delta(x):\n    return x + 4\n_cache = __lt_alloc__(10)\n",
        );
        r
    }

    const APP_V1: &str =
        "import toolkit\ndef handler(event, context):\n    return toolkit.alpha(event[\"n\"])\n";
    // The update starts using `beta` as well.
    const APP_V2: &str = "import toolkit\ndef handler(event, context):\n    return toolkit.alpha(event[\"n\"]) + toolkit.beta(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{\"n\": 5}")])
    }

    #[test]
    fn log_round_trips_through_report() {
        let report = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let log = TrimLog::from_report(&report);
        let kept = log.kept.get("toolkit").expect("toolkit logged");
        assert!(kept.contains("alpha"));
        assert!(!kept.contains("beta"));
    }

    #[test]
    fn unchanged_app_retrims_with_far_fewer_probes() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let log = TrimLog::from_report(&cold);
        let warm = retrim_with_log(
            &registry(),
            APP_V1,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(warm.after.behavior_eq(&cold.after));
        assert_eq!(warm.cold_modules, 0);
        assert!(warm.seeded_modules > 0);
        assert!(
            warm.oracle_invocations < cold.oracle_invocations,
            "seeded re-run ({}) must beat cold run ({})",
            warm.oracle_invocations,
            cold.oracle_invocations
        );
        // Same final trim.
        assert_eq!(
            warm.trimmed.source("toolkit"),
            cold.trimmed.source("toolkit")
        );
    }

    #[test]
    fn update_needing_trimmed_attr_falls_back_to_full_search() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let log = TrimLog::from_report(&cold);
        // v2 uses beta, which v1's log removed: the seed probe fails and a
        // full search runs — but the result must be correct.
        let warm = retrim_with_log(
            &registry(),
            APP_V2,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(warm.after.behavior_eq(&warm.before));
        let kept = warm.log();
        let toolkit = kept.kept.get("toolkit").unwrap();
        assert!(toolkit.contains("alpha"));
        assert!(toolkit.contains("beta"));
        assert!(!toolkit.contains("gamma"));
    }

    #[test]
    fn fallback_notifications_extend_the_log() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let mut log = TrimLog::from_report(&cold);
        // A production fallback reported that `delta` was needed.
        log.require("toolkit", "delta");
        let warm = retrim_with_log(
            &registry(),
            APP_V1,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        // The seed includes delta, but DD inside the seed can still remove
        // it because the oracle set does not exercise it — §5.4's workflow
        // requires adding the failing *input*, not just the attribute.
        // With the input added, delta survives:
        let mut spec2 = spec();
        spec2.cases.push(TestCase::event("{\"n\": 1}"));
        assert!(warm.after.behavior_eq(&warm.before));
    }

    #[test]
    fn probe_cache_hits_across_incremental_retrim_of_untouched_module() {
        let cache = crate::probe_cache::ProbeCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        let cold = trim_app(&registry(), APP_V1, &spec(), &options).unwrap();
        let log = TrimLog::from_report(&cold);
        let hits_before = cache.hits();
        // Nothing changed: the seed probe (and the DD probes inside the
        // seed) carry the exact keys the cold run cached, so the retrim of
        // the untouched module reuses them.
        let warm = retrim_with_log(&registry(), APP_V1, &spec(), &log, &options).unwrap();
        assert!(
            cache.hits() > hits_before,
            "retrim of an untouched module must hit the cross-run cache"
        );
        assert!(warm.after.behavior_eq(&cold.after));
        assert_eq!(
            warm.trimmed.source("toolkit"),
            cold.trimmed.source("toolkit")
        );
    }

    #[test]
    fn cache_accounting_across_repeat_trim_and_retrim() {
        let probes = crate::probe_cache::ProbeCache::shared();
        let summaries = trim_analysis::summary::SummaryCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(probes.clone()),
            summary_cache: Some(summaries.clone()),
            ..DebloatOptions::default()
        };

        // One registry instance throughout: summary-cache reuse is scoped
        // to a registry family (same interner), unlike the content-keyed
        // probe cache.
        let reg = registry();

        // Cold trim: every verdict stored came from a miss; the summary
        // cache records exactly one cold analysis run.
        let cold = trim_app(&reg, APP_V1, &spec(), &options).unwrap();
        assert_eq!(probes.hits(), 0, "cold run cannot hit");
        assert!(probes.misses() > 0, "cold run probes the oracle");
        assert_eq!(
            probes.insertions(),
            probes.misses(),
            "every miss runs the oracle once and stores its verdict"
        );
        assert_eq!(
            probes.len() as u64,
            probes.insertions(),
            "sequential cold run never stores a duplicate key"
        );
        assert_eq!(summaries.misses(), 1, "one cold analysis run");
        assert_eq!(summaries.len(), 1);

        // Identical repeat trim: all probes answered from cache — hit count
        // grows, miss/insert counts stand still.
        let (h0, m0, i0) = (probes.hits(), probes.misses(), probes.insertions());
        let sh0 = summaries.hits();
        let again = trim_app(&reg, APP_V1, &spec(), &options).unwrap();
        assert!(probes.hits() > h0, "repeat trim must hit the probe cache");
        assert_eq!(probes.misses(), m0);
        assert_eq!(probes.insertions(), i0);
        assert!(
            summaries.hits() > sh0,
            "repeat analysis answered from cache"
        );
        assert_eq!(summaries.misses(), 1, "still the one cold analysis run");
        assert_eq!(
            again.trimmed.source("toolkit"),
            cold.trimmed.source("toolkit")
        );

        // Incremental retrim of the untouched corpus: seeded probes carry
        // the cached keys, so still no new verdicts are stored.
        let (h1, i1) = (probes.hits(), probes.insertions());
        let sh1 = summaries.hits();
        let log = TrimLog::from_report(&cold);
        let warm = retrim_with_log(&reg, APP_V1, &spec(), &log, &options).unwrap();
        assert!(probes.hits() > h1, "seeded retrim must hit the probe cache");
        assert_eq!(
            probes.insertions(),
            i1,
            "untouched corpus stores no new verdicts"
        );
        assert!(
            summaries.hits() > sh1,
            "retrim analysis answered from cache"
        );
        assert!(warm.after.behavior_eq(&cold.after));
    }

    #[test]
    fn corpus_edit_invalidates_only_affected_probe_keys() {
        let cache = crate::probe_cache::ProbeCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        let cold = trim_app(&registry(), APP_V1, &spec(), &options).unwrap();
        let log = TrimLog::from_report(&cold);
        // Edit the module: the registry fingerprint changes, so stale
        // verdicts cannot be reused — the retrim re-probes.
        let mut edited = registry();
        let patched = edited.source("toolkit").unwrap().replace("x + 3", "x + 30");
        edited.set_module("toolkit", patched);
        let misses_before = cache.misses();
        let warm = retrim_with_log(&edited, APP_V1, &spec(), &log, &options).unwrap();
        assert!(
            cache.misses() > misses_before,
            "edited module must re-probe (fingerprint changed)"
        );
        assert!(warm.after.behavior_eq(&warm.before));
    }

    #[test]
    fn log_for_missing_module_is_skipped() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let mut log = TrimLog::from_report(&cold);
        log.require("ghost_module", "anything");
        let warm = retrim_with_log(
            &registry(),
            APP_V1,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(warm.modules.iter().all(|m| m.module != "ghost_module"));
    }
}
