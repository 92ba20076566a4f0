//! The sharded interprocedural fixpoint engine.
//!
//! Units of work are *code bodies that execute*: the application top-level,
//! the top-level of every (transitively) imported registry module — module
//! bodies run on first import — and the body of every function that some
//! executed unit possibly calls. Function bodies that nothing calls are
//! registered (their names bind to `Origin::Func` atoms) but never
//! analyzed, so the dense never-executed reference blocks that generated
//! libraries use to defeat naive static tools contribute nothing to the
//! definitely-accessed sets.
//!
//! The engine is organized as a bulk-synchronous sharded worklist
//! (DESIGN.md §9): one [`worklist::Shard`] per registry module plus one for
//! the application. Each round, every dirty shard runs to a *local*
//! fixpoint against immutable snapshots of all other shards — concurrently
//! when `jobs > 1`, the shared atom table being the registry's lock-free
//! read interner — then a serial barrier applies cross-shard messages
//! (pure joins) and wakes readers of re-published shards. Because walkers
//! only see frozen snapshots and barrier effects are commutative and
//! idempotent, the converged state — and therefore the output, collected in
//! a read-only pass and merged in sorted shard order — is independent of
//! the thread schedule: `jobs = 8` is bit-identical to `jobs = 1`.
//!
//! Parallel walks run on a persistent [`WalkPool`]: `jobs` workers are
//! spawned once per analysis run and fed one batch per round through a
//! mutex/condvar handshake, so round count does not multiply thread spawn
//! cost.
//!
//! Incremental re-analysis reuses the converged shards of a previous run
//! (via [`crate::summary::SummaryCache`]): only modules whose content
//! fingerprint changed and shards whose recorded registry probes flip are
//! rebuilt from scratch; everything else is shared by `Arc` and
//! deep-cloned only if growth actually reaches it. Each shard records, per
//! dependency, the keys of that dependency's published snapshot it read
//! ([`worklist::ReadSet`]). After convergence a clean shard is poisoned
//! only if a key it read from a rebuilt shard lost something, if a message
//! it received is no longer sent, or if it lies on a read cycle through a
//! rebuilt shard; poisoned shards join the changed set and the run
//! retries, still rebuilding only that set (see `incremental_run`).

pub(crate) mod merge;
pub(crate) mod transfer;
pub(crate) mod worklist;

use crate::callgraph::CallGraph;
use crate::lints::{HazardSet, Lint};
use crate::origin::OriginSet;
use crate::summary::{CachedRun, SummaryCache, SummaryKey};
use crate::{Analysis, AnalysisMode};
use pylite::ast::Program;
use pylite::{Interner, Registry, Symbol, SymbolHashBuilder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use worklist::{Message, Published, RoundView, Scope, Shard, UnitRef, WalkResult};

/// Everything the engine produces beyond the seed-compatible [`Analysis`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineOutput {
    pub analysis: Analysis,
    pub load_time_accessed: BTreeMap<String, BTreeSet<String>>,
    pub module_bindings: BTreeMap<String, BTreeSet<String>>,
    pub lints: Vec<Lint>,
    pub hazard_modules: BTreeSet<String>,
    pub hazard_attrs: HazardSet,
    pub call_graph: CallGraph,
    pub reached_functions: BTreeSet<String>,
}

const DYNAMIC_BUILTINS: [&str; 3] = ["getattr", "setattr", "hasattr"];

/// Serial, uncached entry point (back-compat for [`crate::analyze`]).
pub(crate) fn run(
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    entry: Option<&str>,
) -> EngineOutput {
    run_with(program, registry, mode, entry, 1, None)
}

/// Full entry point: parallel walks (`jobs` threads) and optional summary
/// caching / incremental reuse (`cache` with the run's cache key).
pub(crate) fn run_with(
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    entry: Option<&str>,
    jobs: usize,
    cache: Option<(&SummaryCache, &SummaryKey)>,
) -> EngineOutput {
    match cache {
        None => cold_engine(program, registry, mode, jobs).finish(entry),
        Some((cache, key)) => {
            let run = converged(program, registry, jobs, cache, key);
            (*run.output(registry, entry)).clone()
        }
    }
}

/// The must-keep query: attributes of `module` the application
/// definitely accesses, as [`run_with`]'s `accessed_attrs(module)` but
/// without the whole-program merge.
pub(crate) fn accessed_attrs(
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    jobs: usize,
    cache: Option<(&SummaryCache, &SummaryKey)>,
    module: &str,
) -> BTreeSet<String> {
    match cache {
        None => cold_engine(program, registry, mode, jobs)
            .pack(BTreeMap::new())
            .accessed_attrs(module),
        Some((cache, key)) => converged(program, registry, jobs, cache, key).accessed_attrs(module),
    }
}

/// The converged run for `key` against `registry`: the cached run when the
/// registry is unchanged, else an incremental run from it, else a cold
/// run. The new run replaces the cached one.
fn converged(
    program: &Program,
    registry: &Registry,
    jobs: usize,
    cache: &SummaryCache,
    key: &SummaryKey,
) -> Arc<CachedRun> {
    let jobs = jobs.max(1);
    let prev = cache
        .lookup(key)
        .filter(|prev| Arc::ptr_eq(&prev.interner, registry.interner()));
    let run = match prev {
        Some(prev) if prev.registry_fp == registry.fingerprint() => {
            cache.note_hit();
            return prev;
        }
        Some(prev) => {
            cache.note_incremental();
            incremental_run(&prev, program, registry, key.mode, jobs)
        }
        None => {
            cache.note_miss();
            let module_fps = registry_fps(registry, &registry.module_names());
            cold_engine(program, registry, key.mode, jobs).pack(module_fps)
        }
    };
    let run = Arc::new(run);
    cache.store(key.clone(), Arc::clone(&run));
    run
}

struct Engine<'a> {
    registry: &'a Registry,
    interner: Arc<Interner>,
    interprocedural: bool,
    jobs: usize,
    /// Index 0 is the application shard; the rest follow
    /// `registry.module_names()` order (sorted).
    shards: Vec<Arc<Shard>>,
    /// Shard name by index (`None` = application).
    names: Vec<Option<String>>,
    /// Shard index by module-name symbol.
    index: HashMap<Symbol, usize, SymbolHashBuilder>,
    dirty: Vec<bool>,
    /// Shards walked at least once this run (their cached collect output,
    /// if any, is stale).
    walked: Vec<bool>,
    /// Shards carried over from a cached run (incremental only). A clean
    /// shard's cached state is reused as-is unless a dependency publishes
    /// *past* what the shard converged against (see `rounds_loop`).
    clean: Vec<bool>,
    /// For rebuilt shards that had a cached counterpart: the snapshot
    /// their clean readers last saw. Gates early cutoff — readers stay
    /// asleep while the rebuilt shard's content stays within the old
    /// snapshot — and surface validation in `incremental_run`.
    old_published: Vec<Option<Arc<Published>>>,
    dynamic_builtins: [Symbol; 3],
}

fn build_app_shard(program: &Program, interner: &Interner) -> Shard {
    let rprog = Arc::new(pylite::resolve_program(program, interner));
    let mut shard = Shard::slot(None, None);
    let mut names: BTreeSet<Symbol> = BTreeSet::new();
    transfer::assigned_names(&rprog.body, &mut names);
    shard.scopes.push(Scope {
        parent: None,
        env: names.into_iter().map(|n| (n, OriginSet::new())).collect(),
    });
    shard.program = Some(rprog);
    shard.active = true;
    shard.units.push(UnitRef::Top);
    shard
}

/// Per-module content fingerprints of the current registry state (cheap:
/// the registry memoizes fingerprints per content in shared slots).
fn registry_fps(registry: &Registry, module_names: &[String]) -> BTreeMap<String, u64> {
    module_names
        .iter()
        .map(|n| {
            (
                n.clone(),
                registry.module_fingerprint(n).expect("listed module"),
            )
        })
        .collect()
}

/// A cold run to convergence, with every active shard collected.
fn cold_engine<'a>(
    program: &Program,
    registry: &'a Registry,
    mode: AnalysisMode,
    jobs: usize,
) -> Engine<'a> {
    let interner = Arc::clone(registry.interner());
    let module_names = registry.module_names();
    let mut eng = Engine::new(registry, interner, mode, jobs.max(1), module_names.len());
    eng.push_shard(build_app_shard(program, &eng.interner), true);
    for name in &module_names {
        let sym = eng.interner.intern(name);
        eng.push_shard(Shard::slot(Some(sym), Some(name.clone())), false);
    }
    eng.rounds();
    eng.collect();
    eng
}

fn incremental_run(
    prev: &CachedRun,
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    jobs: usize,
) -> CachedRun {
    let interprocedural = mode == AnalysisMode::Interprocedural;
    let module_names = registry.module_names();
    let new_fps = registry_fps(registry, &module_names);

    // Seed of the changed set: modules whose content changed (or
    // appeared), plus shards any of whose recorded registry probes now
    // answer differently. Removed modules have no shard to rebuild — their
    // direct readers are rebuilt instead (cached reader state reflects
    // content that no longer exists).
    let mut changed: BTreeSet<Option<String>> = BTreeSet::new();
    for (name, fp) in &new_fps {
        if prev.module_fps.get(name) != Some(fp) {
            changed.insert(Some(name.clone()));
        }
    }
    for name in prev.module_fps.keys() {
        if !new_fps.contains_key(name) {
            let removed = Some(prev.interner.intern(name));
            for s in &prev.shards {
                if s.reads.contains_key(&removed) {
                    changed.insert(s.name_str.clone());
                }
            }
        }
    }
    let probes_flipped = |s: &Shard| {
        s.probes.iter().any(|(n, &v)| registry.contains(n) != v)
            || s.analyzed_probes.iter().any(|(n, &v)| {
                let now =
                    interprocedural && registry.contains(n) && registry.resolve_module(n).is_ok();
                now != v
            })
    };
    for s in &prev.shards {
        if probes_flipped(s) {
            changed.insert(s.name_str.clone());
        }
    }
    let prev_by_name: HashMap<Option<&str>, &Arc<Shard>> = prev
        .shards
        .iter()
        .map(|s| (s.name_str.as_deref(), s))
        .collect();

    // Every attempt is optimistic: rebuild only the changed shards and
    // keep every other shard clean, betting that the rebuilt shards still
    // publish everything their clean readers read (early cutoff). The
    // validations below poison a clean shard whose bet failed: a key it
    // read from a rebuilt shard lost something, a message it received is
    // no longer sent, or it lies on a read cycle through a rebuilt shard.
    // Poisoned shards join the changed set and the attempt reruns.
    // Poisoned shards are clean, so `changed` grows strictly on every
    // retry and the loop terminates (worst case: all shards, i.e. a cold
    // run).
    loop {
        let interner = Arc::clone(registry.interner());
        let mut eng = Engine::new(registry, interner, mode, jobs, module_names.len());
        let mut clean_names: BTreeSet<Option<String>> = BTreeSet::new();
        match prev_by_name.get(&None) {
            Some(app) if !changed.contains(&None) => {
                eng.push_shard_arc(Arc::clone(app), false, true);
                clean_names.insert(None);
            }
            _ => {
                eng.push_shard(build_app_shard(program, &eng.interner), true);
                if let Some(app) = prev_by_name.get(&None) {
                    *eng.old_published.last_mut().expect("just pushed") =
                        Some(Arc::clone(&app.published));
                }
            }
        }
        for name in &module_names {
            let sym = eng.interner.intern(name);
            let cached = (!changed.contains(&Some(name.clone())))
                .then(|| prev_by_name.get(&Some(name.as_str())))
                .flatten();
            match cached {
                Some(shard) => {
                    eng.push_shard_arc(Arc::clone(shard), false, true);
                    clean_names.insert(Some(name.clone()));
                }
                None => {
                    eng.push_shard(Shard::slot(Some(sym), Some(name.clone())), false);
                    if let Some(old) = prev_by_name.get(&Some(name.as_str())) {
                        *eng.old_published.last_mut().expect("just pushed") =
                            Some(Arc::clone(&old.published));
                    }
                }
            }
        }
        // Replay every message ever sent by a clean shard: rebuilt shards
        // re-receive activations and parameter binds whose senders are not
        // being re-walked. Replays that target clean shards are no-ops
        // (and are pre-checked so they do not force a copy-on-write
        // clone).
        let replays: Vec<Message> = eng
            .shards
            .iter()
            .filter(|s| clean_names.contains(&s.name_str))
            .flat_map(|s| s.sent.iter().cloned())
            .collect();
        for msg in replays {
            eng.deliver(msg);
        }
        eng.rounds();

        let mut poisoned: BTreeSet<Option<String>> = BTreeSet::new();
        // Surface validation, key by key: a rebuilt shard whose final
        // snapshot lost something its old snapshot had (`old ⋢ new`)
        // invalidates a clean reader only if one of the keys that reader
        // read from it lost something. (Pure growth is fine: readers were
        // woken at the point the new content grew past the old snapshot
        // and re-converged monotonely.)
        for idx in 0..eng.shards.len() {
            let Some(old) = &eng.old_published[idx] else {
                continue;
            };
            let new = &eng.shards[idx].published;
            if old.le(new) {
                continue;
            }
            let dep = eng.shards[idx].name;
            for s in &prev.shards {
                if clean_names.contains(&s.name_str)
                    && s.reads.get(&dep).is_some_and(|r| r.lost(old, new))
                {
                    poisoned.insert(s.name_str.clone());
                }
            }
        }
        // Sent-set validation: a rebuilt (or removed) shard may have
        // stopped sending a message that a clean receiver's cached state
        // still reflects — e.g. an edit deleted the only call that bound a
        // parameter of a clean module's function, or a trimmed package no
        // longer imports a submodule. Clean shards themselves never lose
        // messages (their `sent` only grows, and it was replayed above),
        // so only non-clean old shards need checking. Any no-longer-sent
        // message targeting a clean shard poisons that receiver.
        let new_sent: HashMap<Option<&str>, &BTreeSet<Message>> = eng
            .shards
            .iter()
            .map(|s| (s.name_str.as_deref(), &s.sent))
            .collect();
        for old in &prev.shards {
            if clean_names.contains(&old.name_str) {
                continue;
            }
            let fresh = new_sent.get(&old.name_str.as_deref());
            for msg in &old.sent {
                if fresh.is_some_and(|s| s.contains(msg)) {
                    continue;
                }
                let target = match msg.target() {
                    Some(m) => match eng.index.get(&m) {
                        Some(&i) => &eng.names[i],
                        None => continue,
                    },
                    None => &eng.names[0],
                };
                if clean_names.contains(target) {
                    poisoned.insert(target.clone());
                }
            }
        }
        // Cycle validation: a clean shard on a read cycle through a rebuilt
        // shard may have fed facts the rebuilt shard lost back into it, so
        // the rebuilt shard re-publishes them and the key checks above pass
        // on stale content. Rebuilding the whole cycle rules that out. With
        // no poisons, every clean shard's inputs are a superset of what its
        // cached fixpoint was computed from, each rebuilt shard's inputs
        // are exact (by induction over the acyclic read order between clean
        // and rebuilt shards), and monotone transfer makes the reused state
        // exact.
        poisoned.append(&mut eng.clean_on_rebuilt_cycles());
        if poisoned.is_empty() {
            eng.collect();
            return eng.pack(new_fps);
        }
        changed.append(&mut poisoned);
    }
}

/// Persistent worker pool for one analysis run: workers are spawned once
/// and handed one batch of shard walks per round. Workers capture only the
/// registry reference, the shared interner and an `Arc` of the shard index
/// — never the engine — so the orchestrator thread is free to mutate
/// engine state at the barrier while workers park on the condvar.
struct WalkPool {
    state: Mutex<PoolState>,
    /// Signaled when a batch is queued (or shutdown is requested).
    work_ready: Condvar,
    /// Signaled when the queued batch has fully drained.
    work_done: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// This round's frozen snapshots, shared with every worker.
    snapshots: Option<Arc<[Arc<Published>]>>,
    queue: Vec<(usize, Arc<Shard>)>,
    done: Vec<(usize, Arc<Shard>, WalkResult)>,
    in_flight: usize,
    shutdown: bool,
}

impl WalkPool {
    fn new() -> WalkPool {
        WalkPool {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        }
    }

    /// Worker loop: pop a shard, walk it to its local fixpoint against the
    /// batch's frozen snapshots, push the result. Parks between batches.
    fn worker(
        &self,
        registry: &Registry,
        interner: &Interner,
        index: &HashMap<Symbol, usize, SymbolHashBuilder>,
        interprocedural: bool,
        dynamic_builtins: [Symbol; 3],
    ) {
        let mut state = self.state.lock().expect("walk pool poisoned");
        loop {
            if state.shutdown {
                return;
            }
            let Some((i, mut arc)) = state.queue.pop() else {
                state = self.work_ready.wait(state).expect("walk pool poisoned");
                continue;
            };
            state.in_flight += 1;
            let snapshots = Arc::clone(state.snapshots.as_ref().expect("batch snapshots"));
            drop(state);
            let view = RoundView {
                registry,
                interner,
                interprocedural,
                index,
                snapshots: &snapshots,
                dynamic_builtins,
            };
            let res = transfer::walk_round(Arc::make_mut(&mut arc), &view);
            state = self.state.lock().expect("walk pool poisoned");
            state.done.push((i, arc, res));
            state.in_flight -= 1;
            if state.queue.is_empty() && state.in_flight == 0 {
                self.work_done.notify_all();
            }
        }
    }

    /// Run one batch to completion on the workers (called from the
    /// orchestrator thread, which blocks until the batch drains).
    fn run_batch(
        &self,
        snapshots: Arc<[Arc<Published>]>,
        items: Vec<(usize, Arc<Shard>)>,
    ) -> Vec<(usize, Arc<Shard>, WalkResult)> {
        let mut state = self.state.lock().expect("walk pool poisoned");
        state.snapshots = Some(snapshots);
        state.queue = items;
        self.work_ready.notify_all();
        while !(state.queue.is_empty() && state.in_flight == 0) {
            state = self.work_done.wait(state).expect("walk pool poisoned");
        }
        state.snapshots = None;
        std::mem::take(&mut state.done)
    }

    fn shutdown(&self) {
        self.state.lock().expect("walk pool poisoned").shutdown = true;
        self.work_ready.notify_all();
    }
}

impl<'a> Engine<'a> {
    fn new(
        registry: &'a Registry,
        interner: Arc<Interner>,
        mode: AnalysisMode,
        jobs: usize,
        capacity: usize,
    ) -> Engine<'a> {
        let dynamic_builtins = DYNAMIC_BUILTINS.map(|n| interner.intern(n));
        Engine {
            registry,
            interner,
            interprocedural: mode == AnalysisMode::Interprocedural,
            jobs,
            shards: Vec::with_capacity(capacity + 1),
            names: Vec::with_capacity(capacity + 1),
            index: HashMap::default(),
            dirty: Vec::with_capacity(capacity + 1),
            walked: Vec::with_capacity(capacity + 1),
            clean: Vec::with_capacity(capacity + 1),
            old_published: Vec::with_capacity(capacity + 1),
            dynamic_builtins,
        }
    }

    fn push_shard(&mut self, shard: Shard, dirty: bool) {
        self.push_shard_arc(Arc::new(shard), dirty, false);
    }

    fn push_shard_arc(&mut self, shard: Arc<Shard>, dirty: bool, clean: bool) {
        let idx = self.shards.len();
        if let Some(sym) = shard.name {
            self.index.insert(sym, idx);
        }
        self.names.push(shard.name_str.clone());
        self.shards.push(shard);
        self.dirty.push(dirty);
        self.walked.push(false);
        self.clean.push(clean);
        self.old_published.push(None);
    }

    /// Names of the clean shards that lie on a read cycle through a
    /// rebuilt shard: each reads it (transitively) and is read by it.
    fn clean_on_rebuilt_cycles(&self) -> BTreeSet<Option<String>> {
        let deps: Vec<Vec<usize>> = self
            .shards
            .iter()
            .map(|s| {
                s.reads
                    .keys()
                    .filter_map(|d| match d {
                        Some(m) => self.index.get(m).copied(),
                        None => Some(0),
                    })
                    .collect()
            })
            .collect();
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); deps.len()];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                readers[d].push(i);
            }
        }
        let reach = |from: usize, edges: &[Vec<usize>]| {
            let mut seen = vec![false; edges.len()];
            let mut stack = vec![from];
            while let Some(i) = stack.pop() {
                for &j in &edges[i] {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            seen
        };
        let mut on_cycle = BTreeSet::new();
        for rebuilt in (0..self.shards.len()).filter(|&i| !self.clean[i]) {
            if deps[rebuilt].is_empty() || readers[rebuilt].is_empty() {
                continue;
            }
            let (read, read_by) = (reach(rebuilt, &deps), reach(rebuilt, &readers));
            for i in 0..self.shards.len() {
                if self.clean[i] && read[i] && read_by[i] {
                    on_cycle.insert(self.names[i].clone());
                }
            }
        }
        on_cycle
    }

    /// Package the converged engine as a cacheable run.
    fn pack(self, module_fps: BTreeMap<String, u64>) -> CachedRun {
        CachedRun::new(
            self.registry.fingerprint(),
            self.interner,
            module_fps,
            self.shards,
        )
    }

    fn view<'v>(&'v self, snapshots: &'v [Arc<Published>]) -> RoundView<'v> {
        RoundView {
            registry: self.registry,
            interner: &self.interner,
            interprocedural: self.interprocedural,
            index: &self.index,
            snapshots,
            dynamic_builtins: self.dynamic_builtins,
        }
    }

    fn take_shard(&mut self, idx: usize) -> Arc<Shard> {
        std::mem::replace(&mut self.shards[idx], Arc::new(Shard::slot(None, None)))
    }

    /// Bulk-synchronous rounds until no shard is dirty. With `jobs > 1`
    /// this spins up a [`WalkPool`] for the whole run (one spawn per
    /// worker, not per round).
    fn rounds(&mut self) {
        if self.jobs <= 1 {
            self.rounds_loop(None);
            return;
        }
        let pool = WalkPool::new();
        // Copied/cloned out of `self` so workers borrow nothing from the
        // engine: the orchestrator needs `&mut self` at every barrier.
        let registry = self.registry;
        let interner = Arc::clone(&self.interner);
        let index = Arc::new(self.index.clone());
        let interprocedural = self.interprocedural;
        let dynamic_builtins = self.dynamic_builtins;
        std::thread::scope(|s| {
            for _ in 0..self.jobs {
                let interner = Arc::clone(&interner);
                let index = Arc::clone(&index);
                let pool = &pool;
                s.spawn(move || {
                    pool.worker(
                        registry,
                        &interner,
                        &index,
                        interprocedural,
                        dynamic_builtins,
                    )
                });
            }
            self.rounds_loop(Some(&pool));
            pool.shutdown();
        });
    }

    fn rounds_loop(&mut self, pool: Option<&WalkPool>) {
        let mut round = 0usize;
        loop {
            // Hub-last scheduling: the application shard reads from every
            // imported module, so walking it while library shards are
            // still converging just repeats its (large) walk each round.
            // Deferring it until the libraries quiesce cuts total walk
            // work and shortens the serial critical path. The schedule is
            // a function of the dirty set alone (never of `jobs`), and
            // any fair schedule reaches the same least fixpoint.
            let mut work: Vec<usize> = (1..self.shards.len()).filter(|&i| self.dirty[i]).collect();
            if work.is_empty() && self.dirty[0] {
                work.push(0);
            }
            if work.is_empty() {
                break;
            }
            round += 1;
            assert!(round < 100_000, "analysis fixpoint failed to converge");
            // Freeze this round's world view before any shard moves.
            let snapshots: Arc<[Arc<Published>]> = self
                .shards
                .iter()
                .map(|s| Arc::clone(&s.published))
                .collect();
            for &i in &work {
                self.dirty[i] = false;
                self.walked[i] = true;
            }
            // Take dirty shards out of the vec for the round: walkers own
            // them exclusively (so copy-on-write clones of cached shards
            // happen at most once, not once per round).
            let items: Vec<(usize, Arc<Shard>)> =
                work.iter().map(|&i| (i, self.take_shard(i))).collect();
            let mut results = match pool {
                // Single-shard rounds skip the condvar handshake.
                Some(pool) if items.len() > 1 => pool.run_batch(Arc::clone(&snapshots), items),
                _ => {
                    let view = self.view(&snapshots);
                    items
                        .into_iter()
                        .map(|(i, mut arc)| {
                            let t = crate::spans::start();
                            let res = transfer::walk_round(Arc::make_mut(&mut arc), &view);
                            crate::spans::record(
                                crate::spans::Phase::Walk,
                                round,
                                self.names[i].clone(),
                                t,
                            );
                            (i, arc, res)
                        })
                        .collect()
                }
            };

            let barrier_t = crate::spans::start();
            // Serial barrier, in sorted shard order (determinism: every
            // effect below is a join, but keep the order fixed anyway).
            results.sort_by_key(|(i, _, _)| *i);
            let mut republished: Vec<usize> = Vec::new();
            let mut msgs: Vec<Message> = Vec::new();
            for (i, arc, res) in results {
                if res.pub_changed {
                    republished.push(i);
                }
                msgs.extend(res.msgs);
                self.shards[i] = arc;
            }
            for msg in msgs {
                self.deliver(msg);
            }
            // Wake every reader of a shard that published a new snapshot —
            // except clean readers of a rebuilt shard whose content is
            // still within the old snapshot they converged against (early
            // cutoff: their cached state already accounts for everything
            // published so far).
            for &i in &republished {
                let dep = self.shards[i].name;
                let grew_past_old = match &self.old_published[i] {
                    Some(old) => !self.shards[i].published.le(old),
                    None => true,
                };
                for j in 0..self.shards.len() {
                    if j != i
                        && !self.dirty[j]
                        && (grew_past_old || !self.clean[j])
                        && self.shards[j].reads.contains_key(&dep)
                    {
                        self.dirty[j] = true;
                    }
                }
            }
            crate::spans::record(crate::spans::Phase::Barrier, round, None, barrier_t);
        }
    }

    /// Apply one cross-shard message at the barrier. Read-only no-op
    /// pre-checks keep idempotent (re)deliveries from forcing a
    /// copy-on-write clone of a cached shard.
    fn deliver(&mut self, msg: Message) {
        let idx = match msg.target() {
            Some(m) => match self.index.get(&m) {
                Some(&i) => i,
                None => return,
            },
            None => 0,
        };
        let shard = &self.shards[idx];
        match msg {
            Message::ActivateModule(_) => {
                if !shard.active && !shard.failed && shard.program.is_none() {
                    self.materialize(idx);
                }
            }
            Message::ActivateFunc(k) => {
                if !shard.activate_func_is_noop(k)
                    && Arc::make_mut(&mut self.shards[idx]).activate_func(k)
                {
                    self.dirty[idx] = true;
                }
            }
            Message::BindParam(k, p, set) => {
                if !shard.bind_param_is_noop(k, p, &set)
                    && Arc::make_mut(&mut self.shards[idx]).bind_param(k, p, &set)
                {
                    self.dirty[idx] = true;
                }
            }
        }
    }

    /// Parse/resolve an activated module and set up its top scope with all
    /// locally-assigned names pre-bound (the shadowing decision must be
    /// static for the transfer to be monotone — DESIGN.md §9). The name
    /// pre-scan is cached per module *content* in the registry's summary
    /// slot, so repeated runs skip it.
    fn materialize(&mut self, idx: usize) {
        let name = self.names[idx].clone().expect("module shard");
        match self.registry.resolve_module(&name) {
            Err(_) => {
                // Unresolvable module: left opaque, DD handles it.
                Arc::make_mut(&mut self.shards[idx]).failed = true;
            }
            Ok(rprog) => {
                let scan = || {
                    let mut names: BTreeSet<Symbol> = BTreeSet::new();
                    transfer::assigned_names(&rprog.body, &mut names);
                    names
                };
                let names: Arc<BTreeSet<Symbol>> = self
                    .registry
                    .module_summary(&name, scan)
                    .unwrap_or_else(|| Arc::new(scan()));
                let shard = Arc::make_mut(&mut self.shards[idx]);
                shard.scopes.push(Scope {
                    parent: None,
                    env: names.iter().map(|&n| (n, OriginSet::new())).collect(),
                });
                shard.program = Some(rprog);
                shard.active = true;
                shard.units.push(UnitRef::Top);
                self.dirty[idx] = true;
            }
        }
    }

    /// Read-only output pass over every active shard whose cached output is
    /// missing or stale (i.e. the shard was walked this run).
    fn collect(&mut self) {
        let snapshots: Vec<Arc<Published>> = self
            .shards
            .iter()
            .map(|s| Arc::clone(&s.published))
            .collect();
        let work: Vec<usize> = (0..self.shards.len())
            .filter(|&i| {
                let s = &self.shards[i];
                s.active && (self.walked[i] || s.output.is_none())
            })
            .collect();
        let items: Vec<(usize, Arc<Shard>)> =
            work.iter().map(|&i| (i, self.take_shard(i))).collect();
        let view = self.view(&snapshots);
        let collect_one = |(i, mut arc): (usize, Arc<Shard>)| {
            let shard = Arc::make_mut(&mut arc);
            let out = transfer::collect_shard(shard, &view);
            shard.output = Some(Arc::new(out));
            (i, arc)
        };
        let results: Vec<(usize, Arc<Shard>)> = if self.jobs <= 1 || items.len() <= 1 {
            items
                .into_iter()
                .map(|item| {
                    let name = self.names[item.0].clone();
                    let t = crate::spans::start();
                    let result = collect_one(item);
                    crate::spans::record(crate::spans::Phase::Collect, 0, name, t);
                    result
                })
                .collect()
        } else {
            let pending = Mutex::new(items);
            let done = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..self.jobs {
                    s.spawn(|| loop {
                        let next = pending.lock().expect("collect queue poisoned").pop();
                        let Some(item) = next else { break };
                        let result = collect_one(item);
                        done.lock().expect("collect results poisoned").push(result);
                    });
                }
            });
            done.into_inner().expect("collect results poisoned")
        };
        for (i, arc) in results {
            self.shards[i] = arc;
        }
    }

    /// Merge shard outputs (app first, then modules in sorted-name order —
    /// the construction order of `shards`) and finalize.
    fn finish(&self, entry: Option<&str>) -> EngineOutput {
        let t = crate::spans::start();
        let outputs = self
            .shards
            .iter()
            .filter(|s| s.active)
            .filter_map(|s| s.output.as_deref());
        let output = merge::finish(outputs, self.registry, entry);
        crate::spans::record(crate::spans::Phase::Finish, 0, None, t);
        output
    }
}
