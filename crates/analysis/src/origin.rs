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
use std::fmt;

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
///
/// A sorted, deduplicated vector that holds exactly its origins: after a
/// fixpoint most sets are empty or hold one origin, and a `BTreeSet` spent
/// an 11-slot leaf on each. Unions insert one origin at a time, which
/// allocates only for an origin that is new. Iteration, `==`, `Ord` and
/// `Hash` follow the sorted elements, so sets compare (lexicographically)
/// and iterate as `BTreeSet<Origin>` does, and so do the messages that
/// carry one.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OriginSet(Vec<Origin>);

impl OriginSet {
    /// The empty set.
    pub fn new() -> Self {
        OriginSet(Vec::new())
    }

    /// Number of origins.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set holds no origin.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The origins in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Origin> {
        self.0.iter()
    }

    /// The least origin.
    pub fn first(&self) -> Option<&Origin> {
        self.0.first()
    }

    /// True if the set holds `origin`.
    pub fn contains(&self, origin: &Origin) -> bool {
        self.0.binary_search(origin).is_ok()
    }

    /// Add `origin`; returns true if it was not there yet.
    pub fn insert(&mut self, origin: Origin) -> bool {
        match self.0.binary_search(&origin) {
            Ok(_) => false,
            Err(at) => {
                self.0.reserve_exact(1);
                self.0.insert(at, origin);
                true
            }
        }
    }

    /// True if every origin of `self` is in `other`.
    pub fn is_subset(&self, other: &OriginSet) -> bool {
        self.iter().all(|o| other.contains(o))
    }

    /// Insert each of `origins`; returns true if the set grew.
    fn insert_all(&mut self, origins: impl IntoIterator<Item = Origin>) -> bool {
        let mut grew = false;
        for origin in origins {
            grew |= self.insert(origin);
        }
        grew
    }
}

impl fmt::Debug for OriginSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Origin> for OriginSet {
    fn from_iter<I: IntoIterator<Item = Origin>>(iter: I) -> Self {
        let mut set = OriginSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Origin> for OriginSet {
    fn extend<I: IntoIterator<Item = Origin>>(&mut self, iter: I) {
        self.insert_all(iter);
    }
}

impl<'a> Extend<&'a Origin> for OriginSet {
    fn extend<I: IntoIterator<Item = &'a Origin>>(&mut self, iter: I) {
        self.extend(iter.into_iter().copied());
    }
}

impl IntoIterator for OriginSet {
    type Item = Origin;
    type IntoIter = std::vec::IntoIter<Origin>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a OriginSet {
    type Item = &'a Origin;
    type IntoIter = std::slice::Iter<'a, Origin>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Join `from` into `into`; returns true if `into` grew.
pub fn join_into(into: &mut OriginSet, from: &OriginSet) -> bool {
    into.insert_all(from.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::worklist::Message;
    use pylite::Interner;
    use std::collections::BTreeSet;
    use trim_rng::Rng;

    /// A few atoms of every kind, so that random sets overlap often.
    fn atoms(interner: &Interner) -> Vec<Origin> {
        let (a, b) = (interner.intern("a"), interner.intern("b"));
        let key = |shard, qual| FuncKey { shard, qual };
        let site = |n| SiteKey {
            shard: Some(a),
            unit: None,
            n,
        };
        vec![
            Origin::Module(a),
            Origin::Module(b),
            Origin::Attr(a, b),
            Origin::Attr(b, a),
            Origin::Func(key(None, a)),
            Origin::Func(key(Some(b), a)),
            Origin::Class(key(None, b)),
            Origin::Instance(key(None, b)),
            Origin::Method(key(Some(a), b)),
            Origin::Seq(site(0)),
            Origin::Seq(site(1)),
            Origin::Map(site(0)),
        ]
    }

    type Pair = (OriginSet, BTreeSet<Origin>);

    /// Everything a caller can observe of two sets agrees with the
    /// `BTreeSet`s they model, and each set holds exactly its origins.
    fn check(x: &Pair, y: &Pair, probe: Origin, message_key: (FuncKey, Symbol)) {
        for (set, model) in [x, y] {
            assert_eq!(set.len(), model.len());
            assert_eq!(set.is_empty(), model.is_empty());
            assert!(set.iter().eq(model.iter()));
            assert!(set.clone().into_iter().eq(model.iter().copied()));
            assert_eq!(set.first(), model.first());
            assert_eq!(set.contains(&probe), model.contains(&probe));
            assert_eq!(format!("{set:?}"), format!("{model:?}"));
            assert_eq!(set.0.capacity(), set.0.len(), "{set:?}");
        }
        assert_eq!(x.0 == y.0, x.1 == y.1);
        assert_eq!(x.0.cmp(&y.0), x.1.cmp(&y.1));
        assert_eq!(x.0.partial_cmp(&y.0), x.1.partial_cmp(&y.1));
        assert_eq!(x.0.is_subset(&y.0), x.1.is_subset(&y.1));
        assert_eq!(y.0.is_subset(&x.0), y.1.is_subset(&x.1));
        let (func, param) = message_key;
        let bind = |set: &OriginSet| Message::BindParam(func, param, set.clone());
        assert_eq!(bind(&x.0).cmp(&bind(&y.0)), x.1.cmp(&y.1));
    }

    #[test]
    fn origin_sets_behave_as_btree_sets() {
        let interner = Interner::new();
        let pool = atoms(&interner);
        let message_key = (
            FuncKey {
                shard: None,
                qual: interner.intern("f"),
            },
            interner.intern("p"),
        );
        let mut rng = Rng::seed_from_u64(0x0519_5e75);
        for _ in 0..300 {
            let mut sets: [Pair; 2] = Default::default();
            for _ in 0..30 {
                let pick = |rng: &mut Rng| pool[rng.usize_inclusive(0, pool.len() - 1)];
                let (o, probe) = (pick(&mut rng), pick(&mut rng));
                let len = rng.usize_inclusive(0, 5);
                let batch: Vec<Origin> = (0..len).map(|_| pick(&mut rng)).collect();
                let i = rng.usize_inclusive(0, 1);
                let [x, y] = &mut sets;
                let (to, from) = if i == 0 { (x, &*y) } else { (y, &*x) };
                match rng.usize_inclusive(0, 4) {
                    0 => assert_eq!(to.0.insert(o), to.1.insert(o)),
                    1 => {
                        to.0.extend(batch.iter().copied());
                        to.1.extend(batch.iter().copied());
                    }
                    2 => {
                        to.0.extend(&from.0);
                        to.1.extend(&from.1);
                    }
                    3 => {
                        let before = to.1.len();
                        to.1.extend(from.1.iter().copied());
                        assert_eq!(join_into(&mut to.0, &from.0), to.1.len() != before);
                    }
                    _ => *to = (batch.iter().copied().collect(), batch.into_iter().collect()),
                }
                check(&sets[0], &sets[1], probe, message_key);
            }
        }
    }
}
