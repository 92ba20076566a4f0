//! Cross-run cache of analysis runs, keyed by application fingerprint and
//! validated by registry content fingerprints.
//!
//! A [`SummaryCache`] remembers, per `(app, mode, entry)` key, the complete
//! converged state of the last analysis run against some registry state:
//! every shard (scopes, function tables, key-level read sets, probe logs,
//! cached per-shard outputs). On the next run:
//!
//! * identical registry fingerprint → the cached run answers as-is (this
//!   also collapses the pipeline's report-then-trim double fixpoint into
//!   one);
//! * changed fingerprint → only modules whose content fingerprint changed
//!   and shards whose recorded registry probes flip are re-analyzed from
//!   scratch; every other shard is reused via `Arc` and deep-cloned only
//!   if message growth actually reaches it. A reused shard is rebuilt too
//!   when a key it read from a rebuilt shard lost something, when a
//!   message it received is no longer sent, or when it lies on a read
//!   cycle through a rebuilt shard (see DESIGN.md §9 for why this is
//!   exact).
//!
//! The whole-program merge (lints, hazard sets, call-graph reachability)
//! runs lazily, at most once per cached run, when a caller asks for the
//! full result; the must-keep query ([`crate::Analyzer::accessed_attrs`])
//! reads the shards' cached outputs and never pays for it.
//!
//! The cache is `Send + Sync` and is shared through `DebloatOptions`
//! alongside the probe cache, so retrims and `analysis_probes` comparisons
//! reuse summaries across pipeline stages.

use crate::engine::worklist::Shard;
use crate::engine::{merge, EngineOutput};
use crate::AnalysisMode;
use pylite::{unparse, Interner, Program, Registry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Cache key: everything that determines a run's result besides the
/// registry contents (which are diffed, not keyed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SummaryKey {
    /// Fingerprint of the application source (via `unparse`).
    pub app_fp: u64,
    /// Analysis coverage mode.
    pub mode: AnalysisMode,
    /// Entry-point option (affects call-graph roots).
    pub entry: Option<String>,
}

/// The complete retained state of one analysis run.
pub(crate) struct CachedRun {
    /// Fingerprint of the registry the run converged against.
    pub registry_fp: u64,
    /// The symbol family the shards' state is expressed in. A registry
    /// from a different interner family forces a cold run: symbol ids
    /// would not line up.
    pub interner: Arc<Interner>,
    /// Per-module content fingerprints at the time of the run.
    pub module_fps: BTreeMap<String, u64>,
    /// Converged shard states (app first, then modules sorted by name),
    /// every active one with its collect output.
    pub shards: Vec<Arc<Shard>>,
    /// The merged engine output, built on first request (behind `Arc`:
    /// cache hits must not deep-copy the whole result).
    merged: OnceLock<Arc<EngineOutput>>,
}

impl CachedRun {
    pub(crate) fn new(
        registry_fp: u64,
        interner: Arc<Interner>,
        module_fps: BTreeMap<String, u64>,
        shards: Vec<Arc<Shard>>,
    ) -> CachedRun {
        CachedRun {
            registry_fp,
            interner,
            module_fps,
            shards,
            merged: OnceLock::new(),
        }
    }

    /// Collect outputs of the active shards, in merge order.
    fn outputs(&self) -> impl Iterator<Item = &merge::ShardOutput> {
        self.shards
            .iter()
            .filter(|s| s.active)
            .filter_map(|s| s.output.as_deref())
    }

    /// The merged whole-program result. `registry` must be the registry
    /// the run converged against (same fingerprint): the merge consults
    /// it for nonexistent-attribute lints and hazard routing.
    pub(crate) fn output(&self, registry: &Registry, entry: Option<&str>) -> Arc<EngineOutput> {
        debug_assert_eq!(registry.fingerprint(), self.registry_fp);
        let merged = self.merged.get_or_init(|| {
            let t = crate::spans::start();
            let output = merge::finish(self.outputs(), registry, entry);
            crate::spans::record(crate::spans::Phase::Finish, 0, None, t);
            Arc::new(output)
        });
        Arc::clone(merged)
    }

    /// Attributes of `module` some shard definitely accesses: the merged
    /// result's `accessed_attrs(module)`, without the merge.
    pub(crate) fn accessed_attrs(&self, module: &str) -> BTreeSet<String> {
        let mut attrs = BTreeSet::new();
        for out in self.outputs() {
            if let Some(a) = out.accessed.get(module) {
                attrs.extend(a.iter().cloned());
            }
        }
        attrs
    }
}

/// Shared, thread-safe cache of analysis summaries (see module docs).
pub struct SummaryCache {
    runs: RwLock<HashMap<SummaryKey, Arc<CachedRun>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    incremental: AtomicU64,
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> Self {
        SummaryCache {
            runs: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
        }
    }

    /// An empty cache behind an `Arc`, ready to share across stages.
    pub fn shared() -> Arc<SummaryCache> {
        Arc::new(SummaryCache::new())
    }

    /// Runs answered entirely from cache (identical registry fingerprint).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cold runs (no usable cached state).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Incremental runs (cached state partially reused).
    pub fn incremental_runs(&self) -> u64 {
        self.incremental.load(Ordering::Relaxed)
    }

    /// Number of cached `(app, mode, entry)` entries.
    pub fn len(&self) -> usize {
        self.runs.read().expect("summary cache poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn lookup(&self, key: &SummaryKey) -> Option<Arc<CachedRun>> {
        self.runs
            .read()
            .expect("summary cache poisoned")
            .get(key)
            .cloned()
    }

    pub(crate) fn store(&self, key: SummaryKey, run: Arc<CachedRun>) {
        self.runs
            .write()
            .expect("summary cache poisoned")
            .insert(key, run);
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_incremental(&self) {
        self.incremental.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for SummaryCache {
    fn default() -> Self {
        SummaryCache::new()
    }
}

impl fmt::Debug for SummaryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SummaryCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("incremental", &self.incremental_runs())
            .finish()
    }
}

/// Stable FNV-1a fingerprint of the application source, via `unparse` so
/// that formatting-identical programs share summaries.
pub(crate) fn app_fingerprint(program: &Program) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in unparse(program).as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}
