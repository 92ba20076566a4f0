//! Shard state and cross-shard plumbing for the sharded fixpoint.
//!
//! One [`Shard`] per registry module (plus one for the application). A
//! shard owns everything its module defines: lexical scopes, registered
//! functions, container-literal sites. Other shards never touch that state
//! directly — they read it through an immutable [`Published`] snapshot
//! frozen at the start of each round, and affect it through [`Message`]s
//! applied serially at the round barrier. That is what makes the engine's
//! rounds bulk-synchronous and its results independent of thread schedule:
//! within a round every walker sees the same frozen world, and barrier
//! effects are pure joins (commutative and idempotent), so the per-round
//! state evolution is a deterministic function of the previous round.

use crate::origin::{FuncKey, OriginSet, ShardName, SiteKey};
use pylite::resolved::{RProgram, RStmt};
use pylite::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One lexical scope. Scope chains never cross shards: module and app top
/// scopes have no parent, function/class scopes chain to their defining
/// scope in the same shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    pub parent: Option<usize>,
    pub env: BTreeMap<Symbol, OriginSet>,
}

/// A function or method registered by its defining shard.
#[derive(Debug, Clone)]
pub(crate) struct FuncInfo {
    /// Interned qualified name (also the key's `qual`).
    pub qual: Symbol,
    /// Positional parameter names.
    pub params: Arc<[Symbol]>,
    /// Body statements (shared with the resolved IR).
    pub body: Arc<[RStmt]>,
    /// The function's local scope (params + local names pre-bound).
    pub scope: usize,
    /// Join of all `return` expressions analyzed so far.
    pub ret: OriginSet,
    /// Whether some executed code possibly calls this function — only then
    /// is its body walked (never-called library bodies stay opaque).
    pub active: bool,
}

/// Published view of a function, for cross-shard callers.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FuncPub {
    pub params: Arc<[Symbol]>,
    pub ret: OriginSet,
}

/// The externally visible state of a shard, frozen once per round.
///
/// Invariant: if any published origin set contains `Func(k)` for a function
/// of this shard, then `funcs[k]` is present in the same snapshot — state
/// and function table are published atomically.
#[derive(Debug, Clone, Default)]
pub(crate) struct Published {
    /// Bumped every time the owning shard re-publishes; readers are woken
    /// when a shard they read from publishes a new version.
    pub version: u64,
    /// The module top-level environment.
    pub top_env: BTreeMap<Symbol, OriginSet>,
    /// Registered functions (active or not: binding a name to a function
    /// atom does not require the body to have been walked).
    pub funcs: BTreeMap<FuncKey, FuncPub>,
    /// Tuple/list literal sites owned by this shard.
    pub seq_sites: BTreeMap<SiteKey, Vec<OriginSet>>,
    /// Dict literal sites owned by this shard.
    pub map_sites: BTreeMap<SiteKey, MapSite>,
}

/// A dict literal site: entries under literal string keys, plus the join
/// of every value stored under a non-literal key.
pub(crate) type MapSite = (BTreeMap<Arc<str>, OriginSet>, OriginSet);

impl Published {
    /// Content partial order: does `other` cover everything in `self`?
    /// Key *presence* counts — a name pre-bound to an empty origin set is
    /// still visible to star-import readers. Used for incremental early
    /// cutoff: a rebuilt shard whose content stays within its old snapshot
    /// (`new.le(old)`) wakes none of its clean readers, and one whose final
    /// snapshot satisfies `old.le(new)` lost nothing any reader could have
    /// read.
    pub fn le(&self, other: &Published) -> bool {
        env_le(&self.top_env, &other.top_env)
            && self
                .funcs
                .iter()
                .all(|(k, f)| func_le(f, other.funcs.get(k)))
            && self
                .seq_sites
                .iter()
                .all(|(k, v)| seq_le(v, other.seq_sites.get(k)))
            && self
                .map_sites
                .iter()
                .all(|(k, v)| map_le(v, other.map_sites.get(k)))
    }
}

fn env_le(old: &BTreeMap<Symbol, OriginSet>, new: &BTreeMap<Symbol, OriginSet>) -> bool {
    old.iter()
        .all(|(k, v)| new.get(k).is_some_and(|n| v.is_subset(n)))
}

fn func_le(old: &FuncPub, new: Option<&FuncPub>) -> bool {
    new.is_some_and(|n| old.params == n.params && old.ret.is_subset(&n.ret))
}

fn seq_le(old: &[OriginSet], new: Option<&Vec<OriginSet>>) -> bool {
    new.is_some_and(|n| old.len() == n.len() && old.iter().zip(n).all(|(a, b)| a.is_subset(b)))
}

fn map_le(old: &MapSite, new: Option<&MapSite>) -> bool {
    let (m, rest) = old;
    new.is_some_and(|(nm, nrest)| {
        rest.is_subset(nrest)
            && m.iter()
                .all(|(k, v)| nm.get(k).is_some_and(|n| v.is_subset(n)))
    })
}

/// The keys of one dependency's [`Published`] snapshot that a shard read.
/// A shard's cached state depends on its dependencies only through these
/// keys, so after a dependency is rebuilt the shard stays valid unless one
/// of them lost something (see `engine::incremental_run`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadSet {
    /// The whole top-level environment, names included (a star import).
    pub all_names: bool,
    /// Top-level names read one at a time.
    pub names: BTreeSet<Symbol>,
    /// Functions looked up (parameters, return set, or mere presence).
    pub funcs: BTreeSet<FuncKey>,
    /// Tuple/list literal sites read.
    pub seq_sites: BTreeSet<SiteKey>,
    /// Dict literal sites read.
    pub map_sites: BTreeSet<SiteKey>,
}

impl ReadSet {
    /// Did any key read here lose something between `old` and `new`? A
    /// name read one at a time treats a missing binding like an empty one:
    /// its readers derive nothing from either.
    pub fn lost(&self, old: &Published, new: &Published) -> bool {
        let empty = OriginSet::new();
        (self.all_names && !env_le(&old.top_env, &new.top_env))
            || self.names.iter().any(|k| {
                old.top_env
                    .get(k)
                    .is_some_and(|o| !o.is_subset(new.top_env.get(k).unwrap_or(&empty)))
            })
            || self.funcs.iter().any(|k| {
                old.funcs
                    .get(k)
                    .is_some_and(|o| !func_le(o, new.funcs.get(k)))
            })
            || self.seq_sites.iter().any(|k| {
                old.seq_sites
                    .get(k)
                    .is_some_and(|o| !seq_le(o, new.seq_sites.get(k)))
            })
            || self.map_sites.iter().any(|k| {
                old.map_sites
                    .get(k)
                    .is_some_and(|o| !map_le(o, new.map_sites.get(k)))
            })
    }
}

/// A cross-shard effect, buffered during a round and applied at the
/// barrier. All three are joins on the receiving shard's state, so the
/// application order cannot matter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Message {
    /// `import m` somewhere: run `m`'s top level.
    ActivateModule(Symbol),
    /// A call site possibly reaches this function: walk its body.
    ActivateFunc(FuncKey),
    /// A call site passes `set` to `func`'s parameter `param`.
    BindParam(FuncKey, Symbol, OriginSet),
}

impl Message {
    /// The shard this message must be delivered to.
    pub fn target(&self) -> ShardName {
        match self {
            Message::ActivateModule(m) => Some(*m),
            Message::ActivateFunc(k) | Message::BindParam(k, _, _) => k.shard,
        }
    }
}

/// An analysis unit of one shard: its top level or one active function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitRef {
    Top,
    Func(FuncKey),
}

/// Per-module (or application) analysis state.
///
/// `Clone` is the incremental-reuse mechanism: cached shards from a
/// previous run are shared via `Arc` and deep-cloned (`Arc::make_mut`) only
/// if the new run actually needs to re-walk them.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// `None` = the application shard.
    pub name: ShardName,
    /// Dotted module name (`None` for the application).
    pub name_str: Option<String>,
    /// Whether the shard's top level is imported/executed.
    pub active: bool,
    /// Resolution failed: the module stays opaque (DD handles it).
    pub failed: bool,
    /// Resolved top-level body (present once materialized).
    pub program: Option<Arc<RProgram>>,
    /// Lexical scopes; index 0 is the top scope once materialized.
    pub scopes: Vec<Scope>,
    /// Class scopes keyed by `(defining scope, class name)`.
    pub class_scopes: BTreeMap<(usize, Symbol), usize>,
    /// Registered functions, keyed by content ([`FuncKey`]).
    pub funcs: BTreeMap<FuncKey, FuncInfo>,
    /// Active units in activation order (top first).
    pub units: Vec<UnitRef>,
    /// Tuple/list literal sites defined in this shard.
    pub seq_sites: BTreeMap<SiteKey, Vec<OriginSet>>,
    /// Dict literal sites defined in this shard.
    pub map_sites: BTreeMap<SiteKey, MapSite>,
    /// `(scope, name)` pairs bound by import statements (rebinding lint).
    pub import_bound: BTreeSet<(usize, Symbol)>,
    /// Param binds / activations that arrived before the function was
    /// registered (only possible when replaying cached messages).
    pub pending_binds: BTreeMap<FuncKey, Vec<(Symbol, OriginSet)>>,
    pub pending_activations: BTreeSet<FuncKey>,
    /// What this shard has read of each other shard's published state,
    /// by dependency (`None` = the application shard). The key set is the
    /// shard's read dependencies: a re-publishing dependency wakes it, and
    /// an incremental run checks the recorded keys of a rebuilt dependency
    /// (see `incremental_run`). Message-receive edges are covered by
    /// sent-set validation instead.
    pub reads: BTreeMap<ShardName, ReadSet>,
    /// Registry existence probes made by this shard (`contains` answers).
    /// A flipped answer invalidates the shard's cached summary.
    pub probes: BTreeMap<String, bool>,
    /// "Is this module analyzable" probes (`contains` && resolves).
    pub analyzed_probes: BTreeMap<String, bool>,
    /// Every message this shard has ever sent (deduplicated). Replayed on
    /// incremental runs so rebuilt shards receive activations and binds
    /// from shards that were *not* re-walked.
    pub sent: BTreeSet<Message>,
    /// Frozen external view, re-published when publishable state changes.
    pub published: Arc<Published>,
    /// Cached collect-pass output (valid while the shard is not re-walked).
    pub output: Option<Arc<crate::engine::merge::ShardOutput>>,
}

impl Shard {
    /// An empty, unmaterialized shard slot.
    pub fn slot(name: ShardName, name_str: Option<String>) -> Shard {
        Shard {
            name,
            name_str,
            active: false,
            failed: false,
            program: None,
            scopes: Vec::new(),
            class_scopes: BTreeMap::new(),
            funcs: BTreeMap::new(),
            units: Vec::new(),
            seq_sites: BTreeMap::new(),
            map_sites: BTreeMap::new(),
            import_bound: BTreeSet::new(),
            pending_binds: BTreeMap::new(),
            pending_activations: BTreeSet::new(),
            reads: BTreeMap::new(),
            probes: BTreeMap::new(),
            analyzed_probes: BTreeMap::new(),
            sent: BTreeSet::new(),
            published: Arc::new(Published::default()),
            output: None,
        }
    }

    pub fn is_app(&self) -> bool {
        self.name.is_none()
    }

    /// Rebuild the published snapshot from current state. Called after a
    /// walk that changed publishable state, never concurrently with readers
    /// of the *new* snapshot (readers hold the previous `Arc`).
    pub fn publish(&mut self) {
        let version = self.published.version + 1;
        self.published = Arc::new(Published {
            version,
            top_env: self
                .scopes
                .first()
                .map(|s| s.env.clone())
                .unwrap_or_default(),
            funcs: self
                .funcs
                .iter()
                .map(|(k, f)| {
                    (
                        *k,
                        FuncPub {
                            params: Arc::clone(&f.params),
                            ret: f.ret.clone(),
                        },
                    )
                })
                .collect(),
            seq_sites: self.seq_sites.clone(),
            map_sites: self.map_sites.clone(),
        });
    }

    /// Register a function if new; returns whether registration happened.
    /// Pre-registered pending binds/activations are drained into it.
    pub fn register_func(&mut self, key: FuncKey, info: FuncInfo) -> bool {
        if self.funcs.contains_key(&key) {
            return false;
        }
        let scope = info.scope;
        self.funcs.insert(key, info);
        if let Some(binds) = self.pending_binds.remove(&key) {
            for (param, set) in binds {
                let slot = self.scopes[scope].env.entry(param).or_default();
                crate::origin::join_into(slot, &set);
            }
        }
        if self.pending_activations.remove(&key) {
            self.activate_func(key);
        }
        true
    }

    /// Mark a function's body as possibly executed; returns true if it was
    /// newly activated (its unit is appended to the walk list).
    pub fn activate_func(&mut self, key: FuncKey) -> bool {
        match self.funcs.get_mut(&key) {
            Some(f) if !f.active => {
                f.active = true;
                self.units.push(UnitRef::Func(key));
                true
            }
            Some(_) => false,
            None => {
                // Replayed activation for a not-yet-registered function.
                self.pending_activations.insert(key)
            }
        }
    }

    /// Apply a parameter bind; returns true if the target set grew (or the
    /// bind had to be buffered for a not-yet-registered function).
    pub fn bind_param(&mut self, key: FuncKey, param: Symbol, set: &OriginSet) -> bool {
        match self.funcs.get(&key) {
            Some(f) => {
                let scope = f.scope;
                let slot = self.scopes[scope].env.entry(param).or_default();
                crate::origin::join_into(slot, set)
            }
            None => {
                self.pending_binds
                    .entry(key)
                    .or_default()
                    .push((param, set.clone()));
                true
            }
        }
    }

    /// Would `bind_param` be a no-op? (Read-only pre-check so idempotent
    /// replays never force a copy-on-write clone of a cached shard.)
    pub fn bind_param_is_noop(&self, key: FuncKey, param: Symbol, set: &OriginSet) -> bool {
        match self.funcs.get(&key) {
            Some(f) => match self.scopes[f.scope].env.get(&param) {
                Some(existing) => set.is_subset(existing),
                None => set.is_empty(),
            },
            None => false,
        }
    }

    /// Would `activate_func` be a no-op?
    pub fn activate_func_is_noop(&self, key: FuncKey) -> bool {
        match self.funcs.get(&key) {
            Some(f) => f.active,
            None => self.pending_activations.contains(&key),
        }
    }

    /// Look a name up through the scope chain (old-engine semantics).
    pub fn lookup(&self, scope: usize, name: Symbol) -> Option<&OriginSet> {
        let mut cur = Some(scope);
        while let Some(id) = cur {
            if let Some(set) = self.scopes[id].env.get(&name) {
                return Some(set);
            }
            cur = self.scopes[id].parent;
        }
        None
    }

    /// The display name used for call-graph nodes of this shard's funcs.
    pub fn func_node(&self, qual: &str) -> crate::callgraph::CgNode {
        match &self.name_str {
            None => crate::callgraph::CgNode::AppFunc(qual.to_owned()),
            Some(m) => crate::callgraph::CgNode::LibFunc(m.clone(), qual.to_owned()),
        }
    }
}

/// Immutable per-round context shared by all walkers: the frozen snapshots
/// plus registry/interner handles and the shard index.
pub(crate) struct RoundView<'a> {
    pub registry: &'a pylite::Registry,
    pub interner: &'a pylite::Interner,
    pub interprocedural: bool,
    /// Shard index by module-name symbol (the app shard is index 0 and is
    /// never the target of a cross-shard read).
    pub index: &'a std::collections::HashMap<Symbol, usize, pylite::SymbolHashBuilder>,
    /// `Published` snapshots frozen at round start, by shard index.
    pub snapshots: &'a [Arc<Published>],
    /// Interned `getattr` / `setattr` / `hasattr`.
    pub dynamic_builtins: [Symbol; 3],
}

impl RoundView<'_> {
    /// The frozen snapshot of a module shard, if the module has one.
    pub fn snapshot_of(&self, module: Symbol) -> Option<&Published> {
        self.index.get(&module).map(|&i| &*self.snapshots[i])
    }
}

/// What one shard walk produced, merged serially at the barrier.
#[derive(Debug, Default)]
pub(crate) struct WalkResult {
    /// New (not previously sent) cross-shard messages.
    pub msgs: Vec<Message>,
    /// The shard re-published (readers must be woken).
    pub pub_changed: bool,
}
