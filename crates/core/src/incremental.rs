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
//!
//! A retrim is the cold trim with a head start: [`retrim_with_log`] and
//! [`crate::trim_app`] are two plans over one loop (`pipeline::trim_with`).
//! Both run the baseline into a run record (DESIGN.md §18), the analysis,
//! the per-module DD step with its post-commit verify, and the slicer.
//! The logged plan differs only in its targets: the log's modules in the
//! log's order, each seeded by its kept set, with no profile, no hazard
//! routing and no pins (ROADMAP direction 2).

use crate::debloater::{DebloatOptions, ModuleReport};
use crate::oracle::{Execution, OracleSpec};
use crate::pipeline::{trim_with, Plan, TrimReport};
use crate::slicer::SliceReport;
use crate::TrimError;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};

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
        TrimLog::of(&report.modules)
    }

    /// The log of a run's per-module reports.
    fn of(modules: &[ModuleReport]) -> TrimLog {
        TrimLog {
            kept: modules
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
        TrimLog::of(&self.modules)
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
    let (report, seeded_modules) =
        trim_with(registry, app_source, spec, options, Plan::Logged(log))?;
    // Every logged module's step made one seed probe before its DD run.
    let seed_probes = report.modules.len();
    Ok(IncrementalReport {
        seeded_modules,
        cold_modules: seed_probes - seeded_modules,
        oracle_invocations: report.oracle_invocations + seed_probes as u64,
        modules: report.modules,
        before: report.before,
        after: report.after,
        trimmed: report.trimmed,
        slices: report.slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debloater::Algorithm;
    use crate::oracle::TestCase;
    use crate::pipeline::trim_app;
    use trim_analysis::AnalysisMode;

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
        // The handler reaches `delta` only through `getattr` on a rare
        // input, as corpus apps reach their rare attribute.
        let app = "import toolkit\ndef handler(event, context):\n    if event[\"op\"] == \"diag\":\n        return getattr(toolkit, \"delta\")(event[\"n\"])\n    return toolkit.alpha(event[\"n\"])\n";
        let common = OracleSpec::new(vec![TestCase::event("{\"op\": \"run\", \"n\": 5}")]);
        let options = DebloatOptions::default();
        let cold = trim_app(&registry(), app, &common, &options).unwrap();
        let keeps_delta = |log: &TrimLog| log.kept["toolkit"].contains("delta");
        assert!(!keeps_delta(&TrimLog::from_report(&cold)));
        // A production fallback reported that `delta` was needed.
        let mut log = TrimLog::from_report(&cold);
        log.require("toolkit", "delta");
        // The seed holds delta and passes, but DD inside the seed removes
        // it again: no oracle case reaches it.
        let attr_only = retrim_with_log(&registry(), app, &common, &log, &options).unwrap();
        assert_eq!(attr_only.seeded_modules, 1);
        assert!(!keeps_delta(&attr_only.log()));
        // §5.4's workflow adds the failing input to the oracle: then delta
        // survives.
        let mut rare = common.clone();
        rare.cases
            .push(TestCase::event("{\"op\": \"diag\", \"n\": 1}"));
        let with_input = retrim_with_log(&registry(), app, &rare, &log, &options).unwrap();
        assert_eq!(with_input.seeded_modules, 1);
        assert!(keeps_delta(&with_input.log()));
        assert!(with_input.after.behavior_eq(&with_input.before));
        assert_eq!(with_input.after.results, ["6", "5"]);
    }

    #[test]
    fn a_retrim_runs_the_configured_algorithm_and_analysis() {
        let greedy = DebloatOptions {
            algorithm: Algorithm::Greedy,
            ..DebloatOptions::default()
        };
        // `toolkit` imports two names from `toolkit.core`: the
        // interprocedural analysis keeps them in `toolkit.core` without a
        // probe, the app-only analysis leaves them to DD.
        let mut layered = Registry::new();
        layered.set_module(
            "toolkit",
            "from toolkit.core import helper, spare\ndef alpha(x):\n    return helper(x) + 1\n",
        );
        layered.set_module(
            "toolkit.core",
            "__lt_work__(50)\ndef helper(x):\n    return x\ndef spare(x):\n    return x\ndef other(x):\n    return x\n",
        );
        let app_only = DebloatOptions {
            analysis: AnalysisMode::AppOnly,
            ..DebloatOptions::default()
        };
        for (r, options) in [(registry(), greedy), (layered, app_only)] {
            let cold = trim_app(&r, APP_V1, &spec(), &options).unwrap();
            // A log that keeps every attribute, in the cold trim's module
            // order: each seed passes, and DD searches every candidate, as
            // the cold trim did.
            let mut log = TrimLog::default();
            for m in &cold.modules {
                for attr in m.kept.iter().chain(&m.removed) {
                    log.require(&m.module, attr);
                }
            }
            assert!(log.kept.keys().eq(cold.modules.iter().map(|m| &m.module)));
            let searched = |modules: &[ModuleReport]| -> Vec<_> {
                modules
                    .iter()
                    .map(|m| (m.dd_stats, m.kept.clone()))
                    .collect()
            };
            let retrim = |options: &DebloatOptions| {
                let warm = retrim_with_log(&r, APP_V1, &spec(), &log, options).unwrap();
                assert_eq!(warm.seeded_modules, cold.modules.len());
                searched(&warm.modules)
            };
            assert_eq!(retrim(&options), searched(&cold.modules), "{options:?}");
            assert_ne!(
                retrim(&DebloatOptions::default()),
                searched(&cold.modules),
                "{options:?}"
            );
        }
    }

    /// The baseline's run record answers every run over a logged module
    /// the updated app no longer imports: its seed probe, DD probes,
    /// verify and slice probes.
    #[cfg(debug_assertions)]
    #[test]
    fn a_logged_module_the_update_stopped_importing_starts_no_run() {
        let mut r = registry();
        r.set_module(
            "legacy",
            "__lt_work__(20)\ndef old(x):\n    return x - 1\ndef older(x):\n    return x - 2\n",
        );
        let app_v0 = "import toolkit\nimport legacy\ndef handler(event, context):\n    return toolkit.alpha(legacy.old(event[\"n\"]))\n";
        let cold = trim_app(&r, app_v0, &spec(), &DebloatOptions::default()).unwrap();
        let with_legacy = TrimLog::from_report(&cold);
        let mut without = with_legacy.clone();
        assert!(without.kept.remove("legacy").is_some());
        let retrim = |log: &TrimLog| {
            let start = crate::oracle::oracle_runs();
            let report = retrim_with_log(&r, APP_V1, &spec(), log, &DebloatOptions::default());
            (report.unwrap(), crate::oracle::oracle_runs() - start)
        };
        let (with_report, with_runs) = retrim(&with_legacy);
        let (without_report, without_runs) = retrim(&without);
        assert!(with_report.modules.iter().any(|m| m.module == "legacy"));
        assert_eq!(with_runs, without_runs);
        assert_eq!(
            with_report.trimmed.source("toolkit"),
            without_report.trimmed.source("toolkit")
        );
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
