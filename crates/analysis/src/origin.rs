//! The origin lattice: what a name can statically refer to.
//!
//! The seed analyzer tracked a single [`Origin`] per name. The
//! interprocedural engine upgrades this to a powerset lattice: every name
//! maps to an [`OriginSet`] (join = set union, bottom = the empty set,
//! which plays the role of the old `Unknown`). The atoms are finite for a
//! given program + registry — module names are bounded by the registry,
//! attribute pairs and function/site keys by the syntax — so the worklist
//! fixpoint in the crate's `engine` terminates.
//!
//! Atoms are *interned*: module and attribute names are [`Symbol`]s from
//! the registry's shared `pylite::intern` family, so every analysis shard
//! (and every thread) agrees on atom identity without string comparisons,
//! and an `OriginSet` is a set of small `Copy` values. Function and
//! container-site atoms are identified **by content** ([`FuncKey`],
//! [`SiteKey`]) rather than by discovery order, so a summary cached from an
//! earlier run can be reused next to shards that were re-analyzed from
//! scratch: the same definition always produces the same atom.

use pylite::Symbol;
use std::collections::BTreeSet;

/// The shard a definition lives in: `Some(module)` for a registry module,
/// `None` for the application itself.
pub type ShardName = Option<Symbol>;

/// Content-based identity of an analyzed function or method: the defining
/// shard plus the interned qualified name (`"outer.inner"`, `"Cls.method"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncKey {
    /// Defining module (`None` = the application).
    pub shard: ShardName,
    /// Interned qualified name within the shard.
    pub qual: Symbol,
}

/// Content-based identity of a container-literal site: the shard and unit
/// (function qualname, `None` for the top level) that contains the literal,
/// plus the walk-order encounter index. The counter restarts on every walk
/// of the unit, so a site keeps its identity across fixpoint iterations,
/// across threads, and across incremental re-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteKey {
    /// Shard containing the literal.
    pub shard: ShardName,
    /// Enclosing analysis unit (function qualname; `None` = top level).
    pub unit: Option<Symbol>,
    /// Deterministic per-walk encounter index.
    pub n: u32,
}

/// One atom of the origin lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// A module object with the given (interned) dotted name.
    Module(Symbol),
    /// An attribute of a module that the engine could not resolve further
    /// (a data constant, or any attribute in app-only mode).
    Attr(Symbol, Symbol),
    /// A specific analyzed function or method.
    Func(FuncKey),
    /// A class object (the key's `qual` is the class's qualified name).
    /// Calling it produces an [`Origin::Instance`] of the same key.
    Class(FuncKey),
    /// An instance of an analyzed class. Attribute reads against it resolve
    /// methods (`"Cls.method"` entries of the defining shard's function
    /// table) to [`Origin::Method`] atoms, so `obj.method()` participates in
    /// reachability.
    Instance(FuncKey),
    /// A bound method: the key names the underlying `"Cls.method"` function.
    /// Calls bind arguments from parameter 1 on (`self` is bound at
    /// resolution time to the instance).
    Method(FuncKey),
    /// A tuple/list literal; elements live in the owning shard's site table.
    Seq(SiteKey),
    /// A dict literal; entries live in the owning shard's site table.
    Map(SiteKey),
}

/// A set of possible origins. Empty = statically unknown.
pub type OriginSet = BTreeSet<Origin>;

/// Join `from` into `into`; returns true if `into` grew.
pub fn join_into(into: &mut OriginSet, from: &OriginSet) -> bool {
    let before = into.len();
    into.extend(from.iter().copied());
    into.len() != before
}
