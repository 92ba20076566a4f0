//! The DD-based debloater (§5.3, §6.3): minimize one module's attribute set
//! subject to the oracle, then commit the rewritten module to the working
//! registry.

use crate::candidate::{Prober, Selection};
use crate::oracle::{run_oracle, Execution, OracleSpec, RunRecord};
use crate::probe_cache::ProbeCache;
use crate::rewrite::rewrite_module;
use crate::TrimError;
use pylite::{Engine, Registry};
use std::collections::BTreeSet;
use std::sync::Arc;
use trim_dd::{ddmin_with, greedy_min, DdOptions, DdStats};

/// Which minimization algorithm the debloater runs per module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Algorithm 1 of the paper: ddmin (1-minimal, super-linear probes).
    #[default]
    Ddmin,
    /// Greedy one-pass removal (§8.3 speed-up direction): linear probes,
    /// may keep more attributes under non-monotone dependencies.
    Greedy,
}

/// How the pipeline treats modules implicated by a hazard lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HazardMode {
    /// Per-attribute precision (the default): a hazard with a bounded
    /// attribute set pins those attributes into DD's must-keep seed and the
    /// module is still trimmed; only an unbounded (⊤) hazard routes the
    /// module to the conservative fallback deployment.
    #[default]
    PerAttribute,
    /// Any hazard routes the whole module to the fallback deployment
    /// (the pre-per-attribute behavior; kept as the comparison baseline).
    Blanket,
}

/// Configuration of a debloating run.
#[derive(Debug, Clone)]
pub struct DebloatOptions {
    /// Number of top-ranked modules to debloat (`K`, default 20 per §8.4).
    pub k: usize,
    /// Profiler scoring method (default: the paper's marginal monetary cost).
    pub scoring: trim_profiler::ScoringMethod,
    /// Underlying DD options.
    pub dd: DdOptions,
    /// Minimization algorithm.
    pub algorithm: Algorithm,
    /// Static-analysis coverage used to seed the must-keep exclusion sets
    /// (§5.1). Interprocedural (the default) yields larger exclusion sets
    /// and therefore fewer DD probes; app-only reproduces the seed scope.
    pub analysis: trim_analysis::AnalysisMode,
    /// Cross-run oracle-verdict cache keyed by (registry fingerprint, app
    /// fingerprint, module, keep-set). Share one [`ProbeCache`] across
    /// analysis-mode comparisons and incremental retrims to skip probes
    /// whose inputs have not changed. `None` disables cross-run caching.
    pub probe_cache: Option<Arc<ProbeCache>>,
    /// Worker threads for the sharded static-analysis fixpoint (1 = serial;
    /// any value produces bit-identical analyses). DD probes always run
    /// sequentially, as in Algorithm 1.
    pub jobs: usize,
    /// Cross-run static-analysis summary cache. Share one
    /// [`trim_analysis::summary::SummaryCache`] across retrims so registry
    /// edits only re-analyze the changed modules and readers of keys they
    /// lost. `None` still caches within a single pipeline run (a run-local
    /// cache is created), just not across runs.
    pub summary_cache: Option<Arc<trim_analysis::summary::SummaryCache>>,
    /// Hazard routing: per-attribute pinning (default) or the blanket
    /// whole-module fallback baseline.
    pub hazards: HazardMode,
    /// Execution engine for oracle runs. The bytecode VM is the only one;
    /// nothing reads this field.
    pub engine: Engine,
    /// Init-snapshot memoization (default: on): oracle runs record module
    /// initializations into the registry family's shared
    /// [`pylite::SnapshotStore`] and replay them on later probes whose
    /// import cone is unchanged. Replay is byte-identical to live
    /// execution, so this only affects wall-clock speed, never results;
    /// `false` forces every probe to run module bodies live.
    pub init_snapshots: bool,
    /// Statement-level selective-init slicing (default: on): after DD has
    /// minimized each module's attribute surface, drop the init statements
    /// whose work feeds nothing the surviving surface needs (bare meter
    /// calls, dead priming loops). Every slice is probe-verified against
    /// the baseline behavior before commit and falls back to the unsliced
    /// body on any mismatch; `false` (`--no-slice`) skips the pass.
    pub slice_init: bool,
}

impl PartialEq for DebloatOptions {
    /// Options compare by configuration; two option sets sharing (or both
    /// lacking) the same probe-cache instance are equal.
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.scoring == other.scoring
            && self.dd == other.dd
            && self.algorithm == other.algorithm
            && self.analysis == other.analysis
            && self.jobs == other.jobs
            && self.hazards == other.hazards
            && self.init_snapshots == other.init_snapshots
            && self.slice_init == other.slice_init
            && match (&self.probe_cache, &other.probe_cache) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
            && match (&self.summary_cache, &other.summary_cache) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Default for DebloatOptions {
    fn default() -> Self {
        DebloatOptions {
            k: 20,
            scoring: trim_profiler::ScoringMethod::Combined,
            dd: DdOptions::default(),
            algorithm: Algorithm::Ddmin,
            analysis: trim_analysis::AnalysisMode::default(),
            probe_cache: None,
            jobs: 1,
            summary_cache: None,
            hazards: HazardMode::default(),
            engine: Engine::default(),
            init_snapshots: true,
            slice_init: true,
        }
    }
}

/// The result of debloating one module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleReport {
    /// Dotted module name.
    pub module: String,
    /// Attribute count before debloating (Table 3 "Pre").
    pub attrs_before: usize,
    /// Attribute count after debloating (Table 3 "Post").
    pub attrs_after: usize,
    /// Attributes removed by DD, in original order.
    pub removed: Vec<String>,
    /// Attributes kept (must-keep ∪ DD survivors), in original order.
    pub kept: Vec<String>,
    /// DD run statistics.
    pub dd_stats: DdStats,
    /// Simulated debloating time: the virtual seconds all oracle probes for
    /// this module consumed (Table 3 "Debloat Time").
    pub debloat_secs: f64,
}

/// Debloat `module` in `work` (in place): run attribute-granularity DD with
/// the oracle "the app still behaves like `expected`", then rewrite the
/// module source in the registry with only the surviving attributes.
///
/// `must_keep` is the static analyzer's definitely-accessed set — excluded
/// from the DD search and always retained (§5.1/§6.3 step 3).
///
/// # Errors
///
/// [`TrimError::Parse`] if the module does not parse. A module whose full
/// attribute set fails the oracle (flaky oracle, hidden coupling) is left
/// untouched and reported with zero removals rather than erroring.
pub fn debloat_module(
    work: &mut Registry,
    app_source: &str,
    spec: &OracleSpec,
    expected: &Execution,
    module: &str,
    must_keep: &BTreeSet<String>,
    options: &DebloatOptions,
) -> Result<ModuleReport, TrimError> {
    let (report, _) = debloat_step(
        work, app_source, spec, expected, module, must_keep, options, None,
    )?;
    Ok(report)
}

/// [`debloat_module`] with a run record (DESIGN.md §18): `record`, the
/// last passing run over `work`, answers the module's probes when it never
/// read the module. Returns the report and the record of the last passing
/// run over `work` as it stands afterwards, when one is known.
#[allow(clippy::too_many_arguments)]
pub(crate) fn debloat_step(
    work: &mut Registry,
    app_source: &str,
    spec: &OracleSpec,
    expected: &Execution,
    module: &str,
    must_keep: &BTreeSet<String>,
    options: &DebloatOptions,
    record: Option<RunRecord>,
) -> Result<(ModuleReport, Option<RunRecord>), TrimError> {
    let prober = Prober::new(
        work,
        module,
        app_source,
        spec,
        expected,
        options,
        record.as_ref(),
    )
    .map_err(TrimError::Parse)?;
    let ids = prober.ids();
    let attrs = ids.attributes().to_vec();
    let attrs_before = attrs.len();
    // Step 3 of §6.3: candidates = all attributes except the definitely
    // accessed ones (magic attributes are already excluded by extraction).
    // DD searches attribute ids; names come back only for the report.
    let (fixed, candidates): (Vec<u32>, Vec<u32>) =
        (0..attrs_before as u32).partition(|&id| must_keep.contains(&attrs[id as usize]));
    let keep_mask = |subset: &[u32]| ids.mask(fixed.iter().chain(subset).copied());

    // One probe = one copy-on-write overlay over the working registry: the
    // base's sources and parse results are shared (O(modules) pointer
    // bumps), only the candidate module gets a fresh, pre-resolved entry.
    // Verdicts are memoized in the cross-run probe cache when one is
    // attached. Probe time sums as truncated nanoseconds, which reports
    // (and perfbench's traced recomposition of this loop) depend on.
    let mut spent_nanos = 0u64;
    let mut oracle = |subset: &[u32]| -> bool {
        let keep = keep_mask(subset);
        let (verdict, secs) = prober.probe(Selection::Attrs {
            keep: &keep,
            extra: &[],
        });
        spent_nanos += (secs * 1e9) as u64;
        verdict
    };
    let dd_result = match options.algorithm {
        Algorithm::Ddmin => ddmin_with(&candidates, &mut oracle, options.dd),
        Algorithm::Greedy => greedy_min(&candidates, &mut oracle),
    };
    let debloat_secs = spent_nanos as f64 / 1e9;
    let result = match dd_result {
        Ok(result) => result,
        Err(trim_dd::DdError::OracleRejectsWhole) => {
            // The untouched module somehow fails — leave it alone (§5.4's
            // philosophy: never make the app worse).
            let report = ModuleReport {
                module: module.to_owned(),
                attrs_before,
                attrs_after: attrs_before,
                removed: Vec::new(),
                kept: attrs,
                dd_stats: DdStats::default(),
                debloat_secs,
            };
            return Ok((report, record));
        }
    };
    let (kept, removed) = split_kept(&attrs, &keep_mask(&result.minimized));
    let last = prober.into_record();
    let original_source = work.source(module).expect("module has source").to_owned();
    commit(work, module, &kept);
    // Defense in depth: re-verify the committed module against the oracle
    // (the candidate that passed probing also passes here, but this guards
    // against any rewrite/commit divergence — the §5.4 philosophy of never
    // making the app worse). The last passing probe answers the verify
    // when it ran the committed registry or never read the module.
    let (committed_ok, verify_secs, after) = match last.filter(|last| last.answers(work, module)) {
        Some(last) => {
            #[cfg(debug_assertions)]
            crate::oracle::check_answer(
                || work.clone(),
                app_source,
                spec,
                expected,
                options.init_snapshots,
                last.secs(),
            );
            (true, last.secs(), Some(last.moved_to(work)))
        }
        None => {
            let run = run_oracle(work, app_source, spec, options.init_snapshots);
            let ok = matches!(&run.result, Ok(actual) if actual.behavior_eq(expected));
            let after = ok.then(|| RunRecord::new(work.clone(), run.secs, run.reads));
            (ok, run.secs, after)
        }
    };
    if !committed_ok {
        work.set_module(module, original_source);
        let report = ModuleReport {
            module: module.to_owned(),
            attrs_before,
            attrs_after: attrs_before,
            removed: Vec::new(),
            kept: attrs,
            dd_stats: result.stats,
            debloat_secs: debloat_secs + verify_secs,
        };
        return Ok((report, record));
    }
    let report = ModuleReport {
        module: module.to_owned(),
        attrs_before,
        attrs_after: kept.len(),
        removed,
        kept,
        dd_stats: result.stats,
        debloat_secs: debloat_secs + verify_secs,
    };
    Ok((report, after))
}

/// Split `attrs` into the kept and the removed names under `keep`, both in
/// original order.
pub(crate) fn split_kept(attrs: &[String], keep: &[bool]) -> (Vec<String>, Vec<String>) {
    let names = |kept: bool| {
        let chosen = attrs.iter().zip(keep).filter(|(_, k)| **k == kept);
        chosen.map(|(name, _)| name.clone()).collect()
    };
    (names(true), names(false))
}

/// Commit the module keeping exactly the attributes `kept`: the rewriter's
/// output, so trimmed sources and registry fingerprints are the same
/// whichever path produced the keep set.
pub(crate) fn commit(work: &mut Registry, module: &str, kept: &[String]) {
    let program = work.parse_module(module).expect("probed module parses");
    let keep: BTreeSet<String> = kept.iter().cloned().collect();
    work.set_module(module, pylite::unparse(&rewrite_module(&program, &keep)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{run_app, TestCase};

    fn torch_registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "torch",
            "from torch.nn import Linear, MSELoss\nfrom torch.optim import SGD\nclass tensor:\n    def __init__(self, data):\n        self.data = data\ndef add(t1, t2):\n    return tensor(t1.data + t2.data)\ndef view(t, dim1, dim2):\n    return t\n",
        );
        r.set_module(
            "torch.nn",
            "class Linear:\n    def __init__(self, a, b):\n        self.a = a\n        self.b = b\n    def forward(self, x):\n        return x\nclass MSELoss:\n    pass\n",
        );
        r.set_module("torch.optim", "__lt_work__(50)\nclass SGD:\n    pass\n");
        r
    }

    // Figure 5's running example.
    const APP: &str = "import torch\nx = torch.tensor([1.0, 2.0])\ny = torch.tensor([3.0, 4.0])\nz = torch.view(torch.add(x, y), 2, 1)\nmodel = torch.nn.Linear(2, 1)\ndef handler(event, context):\n    return model.forward(z.data)\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{}")])
    }

    #[test]
    fn running_example_removes_mseloss_and_sgd() {
        let mut work = torch_registry();
        let expected = run_app(&work, APP, &spec()).unwrap();
        let report = debloat_module(
            &mut work,
            APP,
            &spec(),
            &expected,
            "torch",
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(report.removed.contains(&"SGD".to_owned()));
        for needed in ["tensor", "add", "view"] {
            assert!(
                report.kept.contains(&needed.to_owned()),
                "{needed} must survive"
            );
        }
        // The app reaches Linear through `torch.nn.Linear`, so the from-import
        // only has to keep *one* name as an anchor that loads torch.nn — a
        // 1-minimal result keeps exactly one of {Linear, MSELoss} (CPython's
        // submodule binding gives the paper's artifact the same freedom).
        let nn_anchors = ["Linear", "MSELoss"]
            .iter()
            .filter(|a| report.kept.contains(&(**a).to_owned()))
            .count();
        assert_eq!(nn_anchors, 1, "exactly one torch.nn anchor survives");
        let src = work.source("torch").unwrap();
        assert!(!src.contains("torch.optim"), "optim import dropped:\n{src}");
        // Result still behaves identically.
        let after = run_app(&work, APP, &spec()).unwrap();
        assert!(after.behavior_eq(&expected));
        // And is faster to initialize (torch.optim's __lt_work__ skipped).
        assert!(after.init_secs < expected.init_secs);
    }

    #[test]
    fn must_keep_attributes_survive_without_probing() {
        let mut work = torch_registry();
        let expected = run_app(&work, APP, &spec()).unwrap();
        let must_keep: BTreeSet<String> = ["SGD"].iter().map(|s| (*s).to_owned()).collect();
        let report = debloat_module(
            &mut work,
            APP,
            &spec(),
            &expected,
            "torch",
            &must_keep,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(report.kept.contains(&"SGD".to_owned()));
        assert!(!report.removed.contains(&"SGD".to_owned()));
    }

    #[test]
    fn probe_cache_answers_repeat_runs_without_new_probes() {
        let cache = crate::probe_cache::ProbeCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        let spec = spec();
        let mut work1 = torch_registry();
        let expected = run_app(&work1, APP, &spec).unwrap();
        let first = debloat_module(
            &mut work1,
            APP,
            &spec,
            &expected,
            "torch",
            &BTreeSet::new(),
            &options,
        )
        .unwrap();
        let misses_after_first = cache.misses();
        assert!(misses_after_first > 0, "cold run populates the cache");
        // Identical inputs: every probe answers from the cache, so the run
        // spends zero simulated oracle time.
        let mut work2 = torch_registry();
        let second = debloat_module(
            &mut work2,
            APP,
            &spec,
            &expected,
            "torch",
            &BTreeSet::new(),
            &options,
        )
        .unwrap();
        assert_eq!(first.kept, second.kept);
        assert_eq!(work1.source("torch"), work2.source("torch"));
        assert_eq!(
            cache.misses(),
            misses_after_first,
            "warm run must not miss the probe cache"
        );
        assert!(cache.hits() > 0);
    }

    #[test]
    fn debloat_accumulates_probe_time() {
        let mut work = torch_registry();
        let expected = run_app(&work, APP, &spec()).unwrap();
        let report = debloat_module(
            &mut work,
            APP,
            &spec(),
            &expected,
            "torch",
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(report.debloat_secs > 0.0);
        assert!(report.dd_stats.oracle_invocations > 0);
    }

    #[test]
    fn greedy_algorithm_matches_ddmin_here() {
        let spec = spec();
        let mut dd_work = torch_registry();
        let expected = run_app(&dd_work, APP, &spec).unwrap();
        let dd = debloat_module(
            &mut dd_work,
            APP,
            &spec,
            &expected,
            "torch",
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        let mut greedy_work = torch_registry();
        let greedy = debloat_module(
            &mut greedy_work,
            APP,
            &spec,
            &expected,
            "torch",
            &BTreeSet::new(),
            &DebloatOptions {
                algorithm: Algorithm::Greedy,
                ..DebloatOptions::default()
            },
        )
        .unwrap();
        // Both are sound; on this (mostly monotone) module they agree on
        // what can go.
        assert_eq!(dd.attrs_after, greedy.attrs_after);
        let after = run_app(&greedy_work, APP, &spec).unwrap();
        assert!(after.behavior_eq(&expected));
    }

    #[test]
    fn submodule_can_be_debloated_independently() {
        let mut work = torch_registry();
        let expected = run_app(&work, APP, &spec()).unwrap();
        let report = debloat_module(
            &mut work,
            APP,
            &spec(),
            &expected,
            "torch.nn",
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        // torch/__init__ does `from torch.nn import Linear, MSELoss`, so both
        // survive in torch.nn (the oracle catches the dependency) — but the
        // DD process must terminate and keep behavior intact.
        assert!(report.kept.contains(&"Linear".to_owned()));
        let after = run_app(&work, APP, &spec()).unwrap();
        assert!(after.behavior_eq(&expected));
    }
}
