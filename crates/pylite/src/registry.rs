//! The module registry: a virtual "site-packages" mapping dotted module
//! names to source text.
//!
//! λ-trim's debloater rewrites library `__init__` sources and redeploys them
//! (§6.3); in this reproduction that is a [`Registry::set_module`] call.
//!
//! The registry is a **copy-on-write** structure: sources are shared
//! `Arc<str>`s and parse results live in shared per-entry slots, so
//! `clone()` is O(modules) pointer bumps and every clone observes (and
//! contributes to) the same parse cache. That makes the thousands of DD
//! probe registries the debloater builds nearly free, and — because all
//! shared state is `Arc`/`OnceLock` — `Registry` is `Send + Sync` and can
//! cross thread boundaries for parallel probing.
//!
//! Each registry also maintains a **content fingerprint**: a stable,
//! order-independent hash of its `(name, source)` pairs, updated
//! incrementally on [`set_module`](Registry::set_module) /
//! [`remove_module`](Registry::remove_module). Probe caches key oracle
//! verdicts on it to share results across runs.

use crate::ast::Program;
use crate::bytecode::{CodeObj, LinkedBody};
use crate::intern::Interner;
use crate::parser::{parse, ParseError};
use crate::resolved::{resolve_program, RProgram};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// A shared, lazily filled per-entry slot for derived per-module data that
/// consumers (e.g. the analysis engine) want to compute once per module
/// *content* rather than once per run. Like the parse slots, it is shared
/// by every clone of the registry and dropped when `set_module` replaces
/// the entry, so staleness is impossible by construction.
#[derive(Clone, Default)]
struct SummarySlot(Arc<OnceLock<Arc<dyn Any + Send + Sync>>>);

impl fmt::Debug for SummarySlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "SummarySlot(filled)"
        } else {
            "SummarySlot(empty)"
        })
    }
}

/// One registry entry: shared source text plus shared, lazily filled parse
/// and resolve slots. Cloning an entry is a few reference-count bumps.
#[derive(Debug, Clone)]
struct ModuleEntry {
    source: Arc<str>,
    /// `entry_hash(name, source)`, computed once at insertion so
    /// per-module fingerprint lookups are O(1) instead of re-hashing the
    /// source.
    hash: u64,
    parsed: Arc<OnceLock<Result<Arc<Program>, ParseError>>>,
    resolved: Arc<OnceLock<Result<Arc<RProgram>, ParseError>>>,
    bytecode: Arc<OnceLock<Result<Arc<CodeObj>, ParseError>>>,
    /// The body an import runs instead of compiling `source`, when the
    /// entry was installed by [`Registry::with_module_linked`].
    linked: Option<Arc<LinkedBody>>,
    summary: SummarySlot,
}

impl ModuleEntry {
    fn new(name: &str, source: impl Into<Arc<str>>) -> Self {
        let source: Arc<str> = source.into();
        ModuleEntry {
            hash: entry_hash(name, &source),
            source,
            parsed: Arc::new(OnceLock::new()),
            resolved: Arc::new(OnceLock::new()),
            bytecode: Arc::new(OnceLock::new()),
            linked: None,
            summary: SummarySlot::default(),
        }
    }
}

/// What importing a module runs: a linked body, or the module's compiled
/// code.
pub(crate) enum ModuleCode {
    Linked(Arc<LinkedBody>),
    Compiled(Arc<CodeObj>),
}

/// Stable FNV-1a hash of one `(name, source)` pair with a final avalanche,
/// so the order-independent combination below still mixes well.
fn entry_hash(name: &str, source: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    // Separator so ("ab", "c") and ("a", "bc") hash differently.
    h ^= 0xff;
    h = h.wrapping_mul(PRIME);
    for &b in source.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    // splitmix64 finalizer.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A virtual filesystem of pylite modules, keyed by dotted name.
///
/// `Registry` is copy-on-write: `clone()` shares sources and parse results
/// (O(modules) pointer bumps); mutation through [`set_module`] /
/// [`remove_module`](Registry::remove_module) replaces only the touched
/// entry, leaving every other clone untouched.
///
/// [`set_module`]: Registry::set_module
#[derive(Debug, Clone, Default)]
pub struct Registry {
    modules: HashMap<String, ModuleEntry>,
    fingerprint: u64,
    /// Name interner shared by every clone/overlay of this registry, so
    /// symbols are stable across the whole probe family. Deliberately NOT
    /// part of the fingerprint or `PartialEq`: symbols are an in-memory
    /// acceleration, and probe caches must hit across interner families.
    interner: Arc<Interner>,
    /// Compiled `__main__` bytecode, keyed by app-source content and shared
    /// by every clone/overlay: one app source drives thousands of DD probe
    /// interpreters, each of which would otherwise re-parse, re-resolve and
    /// re-compile it. Like the per-entry slots, this is derived data and
    /// deliberately absent from the fingerprint and `PartialEq`.
    main_code: Arc<Mutex<MainCodeCache>>,
}

/// Content-keyed `__main__` bytecode cache: hash of the app source → the
/// full source (collision check) and its compiled code object.
type MainCodeCache = HashMap<u64, (Arc<str>, Arc<CodeObj>)>;

/// Counters of the retired init-snapshot memo (DESIGN.md §14), always
/// zero. Nothing reads this; it stays until the benchmark change that
/// deletes `Engine` (ROADMAP direction 7) removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub captures: u64,
    /// Always 0.
    pub poisons: u64,
    /// Always 0.
    pub ineligible: u64,
}

/// The retired init-snapshot memo's store, which holds nothing: every
/// module body runs live. Nothing reads this; it stays until the
/// benchmark change that deletes `Engine` (ROADMAP direction 7) removes
/// it.
#[derive(Debug, Default)]
pub struct SnapshotStore;

impl SnapshotStore {
    /// All zeros.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats::default()
    }

    /// Does nothing.
    pub fn deny(&self, _name: &str) {}
}

impl PartialEq for Registry {
    /// Registries are equal when they hold the same module sources; the
    /// parse cache is an implementation detail.
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.modules.len() == other.modules.len()
            && self
                .modules
                .iter()
                .all(|(k, e)| other.modules.get(k).is_some_and(|o| o.source == e.source))
    }
}

impl Eq for Registry {}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A stable, order-independent content fingerprint over all
    /// `(name, source)` pairs. Maintained incrementally: `set_module` and
    /// `remove_module` are O(changed source), not O(corpus). Two registries
    /// with identical sources have identical fingerprints regardless of
    /// insertion order; any source change changes it (modulo 64-bit hash
    /// collisions).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Install (or replace) a module's source. Replacing resets the parse
    /// slot for that module (other clones keep their shared result) and
    /// updates the content fingerprint incrementally.
    pub fn set_module(&mut self, name: impl Into<String>, source: impl Into<String>) {
        let name = name.into();
        let source: String = source.into();
        let entry = ModuleEntry::new(&name, source);
        self.insert_entry(name, entry);
    }

    fn insert_entry(&mut self, name: String, entry: ModuleEntry) {
        if let Some(old) = self.modules.get(&name) {
            self.fingerprint = self.fingerprint.wrapping_sub(old.hash);
        }
        self.fingerprint = self.fingerprint.wrapping_add(entry.hash);
        self.modules.insert(name, entry);
    }

    /// Remove a module.
    pub fn remove_module(&mut self, name: &str) -> Option<String> {
        let entry = self.modules.remove(name)?;
        self.fingerprint = self.fingerprint.wrapping_sub(entry.hash);
        Some(entry.source.to_string())
    }

    /// A copy-on-write overlay: this registry with exactly one module
    /// replaced. The base and the overlay share every other entry's source
    /// and parse result — the debloater builds one of these per DD probe.
    #[must_use]
    pub fn with_module(&self, name: impl Into<String>, source: impl Into<String>) -> Registry {
        let mut overlay = self.clone();
        overlay.set_module(name, source);
        overlay
    }

    /// [`with_module`](Registry::with_module) for a module whose code the
    /// caller has linked from compiled statements: importing the module
    /// runs `body`, which must behave exactly as compiling `source` would.
    /// The source is hashed exactly as `set_module` hashes it, so
    /// fingerprints (and every cache keyed by them) cannot tell the two
    /// overlays apart. The parse, resolve and bytecode slots stay lazy:
    /// they fill from `source` only when asked.
    #[must_use]
    pub fn with_module_linked(
        &self,
        name: impl Into<String>,
        source: impl Into<Arc<str>>,
        body: LinkedBody,
    ) -> Registry {
        let name = name.into();
        let mut entry = ModuleEntry::new(&name, source);
        entry.linked = Some(Arc::new(body));
        let mut overlay = self.clone();
        overlay.insert_entry(name, entry);
        overlay
    }

    /// The source of a module, if present.
    pub fn source(&self, name: &str) -> Option<&str> {
        self.modules.get(name).map(|e| &*e.source)
    }

    /// Whether a module exists.
    pub fn contains(&self, name: &str) -> bool {
        self.modules.contains_key(name)
    }

    /// All module names, sorted (deterministic iteration).
    pub fn module_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.modules.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the registry holds no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Total bytes of source text across all modules (used as a proxy for
    /// deployment-image code size).
    pub fn total_source_bytes(&self) -> u64 {
        self.modules.values().map(|e| e.source.len() as u64).sum()
    }

    /// Parse a module, caching the result in a slot shared by every clone
    /// of this registry: the first caller (on any thread) parses, everyone
    /// else gets the shared `Arc<Program>` — reads are lock-free.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ParseError`] if the module does not parse.
    pub fn parse_module(&self, name: &str) -> Result<Arc<Program>, ParseError> {
        let entry = self.modules.get(name).ok_or_else(|| ParseError {
            message: format!("no module named `{name}` in registry"),
            line: 0,
        })?;
        entry
            .parsed
            .get_or_init(|| parse(&entry.source).map(Arc::new))
            .clone()
    }

    /// Parse *and* symbol-resolve a module (see [`crate::resolved`]),
    /// caching the resolved tree in a slot shared by every clone of this
    /// registry — the resolve pass runs once per module family, not once
    /// per probe interpreter.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ParseError`] if the module does not parse.
    pub fn resolve_module(&self, name: &str) -> Result<Arc<RProgram>, ParseError> {
        let entry = self.modules.get(name).ok_or_else(|| ParseError {
            message: format!("no module named `{name}` in registry"),
            line: 0,
        })?;
        entry
            .resolved
            .get_or_init(|| {
                let program = entry
                    .parsed
                    .get_or_init(|| parse(&entry.source).map(Arc::new))
                    .clone()?;
                Ok(Arc::new(resolve_program(&program, &self.interner)))
            })
            .clone()
    }

    /// Parse, resolve *and* bytecode-compile a module (see
    /// [`crate::bytecode`]), caching the [`CodeObj`] in a slot shared by
    /// every clone of this registry — like [`resolve_module`], the compile
    /// pass runs once per module family, not once per probe interpreter.
    /// The slot is derived data keyed by content and deliberately absent
    /// from the fingerprint and `PartialEq`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ParseError`] if the module does not parse.
    ///
    /// [`resolve_module`]: Registry::resolve_module
    pub fn compile_module(&self, name: &str) -> Result<Arc<CodeObj>, ParseError> {
        let entry = self.modules.get(name).ok_or_else(|| ParseError {
            message: format!("no module named `{name}` in registry"),
            line: 0,
        })?;
        entry
            .bytecode
            .get_or_init(|| {
                let resolved = self.resolve_module(name)?;
                Ok(Arc::new(crate::bytecode::compile_program(&resolved)))
            })
            .clone()
    }

    /// What importing `name` runs: its linked body, if it has one, else
    /// its compiled code ([`compile_module`](Registry::compile_module)).
    pub(crate) fn module_code(&self, name: &str) -> Result<ModuleCode, ParseError> {
        match self.modules.get(name).and_then(|e| e.linked.as_ref()) {
            Some(body) => Ok(ModuleCode::Linked(Arc::clone(body))),
            None => self.compile_module(name).map(ModuleCode::Compiled),
        }
    }

    /// Parse, resolve and bytecode-compile an application (`__main__`)
    /// source, caching the [`CodeObj`] by *content* in a slot shared by
    /// every clone/overlay of this registry. `__main__` is not a registry
    /// module, but every DD probe executes the identical app source, so the
    /// compile pass runs once per app rather than once per probe. A hash
    /// collision falls back to a fresh (uncached) compile via the full
    /// source comparison.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ParseError`] if the source does not parse.
    pub fn compile_main(&self, source: &str) -> Result<Arc<CodeObj>, ParseError> {
        let key = entry_hash("__main__", source);
        if let Some((cached_src, code)) = self.main_code.lock().expect("main slot").get(&key) {
            if **cached_src == *source {
                return Ok(code.clone());
            }
        }
        let program = parse(source)?;
        let resolved = resolve_program(&program, &self.interner);
        let code = Arc::new(crate::bytecode::compile_program(&resolved));
        self.main_code
            .lock()
            .expect("main slot")
            .insert(key, (Arc::from(source), code.clone()));
        Ok(code)
    }

    /// The content fingerprint of a single module: the same `(name, source)`
    /// hash that [`fingerprint`](Registry::fingerprint) sums. Incremental
    /// consumers (the analysis summary cache) use it to decide which modules
    /// changed between two registry states without diffing sources.
    pub fn module_fingerprint(&self, name: &str) -> Option<u64> {
        self.modules.get(name).map(|e| e.hash)
    }

    /// Compute-once derived data for a module, keyed by content: the first
    /// caller's `build` result is cached in a slot shared by every clone of
    /// this registry and dropped when the module's source is replaced.
    /// Returns `None` if the module does not exist. If the slot already
    /// holds a value of a different type, `build` runs uncached.
    pub fn module_summary<T: Any + Send + Sync>(
        &self,
        name: &str,
        build: impl Fn() -> T,
    ) -> Option<Arc<T>> {
        let entry = self.modules.get(name)?;
        let any = entry
            .summary
            .0
            .get_or_init(|| Arc::new(build()) as Arc<dyn Any + Send + Sync>);
        match Arc::clone(any).downcast::<T>() {
            Ok(t) => Some(t),
            Err(_) => Some(Arc::new(build())),
        }
    }

    /// The name interner shared by this registry and all of its clones.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// The [`SnapshotStore`], which holds nothing. Nothing reads this; it
    /// stays until the benchmark change that deletes `Engine` (ROADMAP
    /// direction 7) removes it.
    pub fn snapshot_store(&self) -> &'static SnapshotStore {
        &SnapshotStore
    }

    /// Direct submodules of a dotted name that exist in the registry, e.g.
    /// `torch` → `torch.nn`, `torch.optim`.
    pub fn submodules(&self, name: &str) -> Vec<String> {
        let prefix = format!("{name}.");
        let mut subs: Vec<String> = self
            .modules
            .keys()
            .filter(|k| k.starts_with(&prefix) && !k[prefix.len()..].contains('.'))
            .cloned()
            .collect();
        subs.sort();
        subs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_modules() {
        let mut r = Registry::new();
        r.set_module("numpy", "x = 1\n");
        assert!(r.contains("numpy"));
        assert_eq!(r.source("numpy"), Some("x = 1\n"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
    }

    #[test]
    fn parse_is_cached_until_source_changes() {
        let mut r = Registry::new();
        r.set_module("m", "a = 1\n");
        let p1 = r.parse_module("m").unwrap();
        let p2 = r.parse_module("m").unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second parse should hit the cache");
        r.set_module("m", "a = 2\n");
        let p3 = r.parse_module("m").unwrap();
        assert!(
            !Arc::ptr_eq(&p1, &p3),
            "source change must invalidate cache"
        );
    }

    #[test]
    fn clones_share_parse_results() {
        let mut r = Registry::new();
        r.set_module("m", "a = 1\n");
        let clone = r.clone();
        // Parse through the clone first: the base must still see the result
        // (shared slot), not re-parse.
        let p1 = clone.parse_module("m").unwrap();
        let p2 = r.parse_module("m").unwrap();
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "clone and base share one parse result"
        );
    }

    #[test]
    fn parse_missing_module_errors() {
        let r = Registry::new();
        assert!(r.parse_module("ghost").is_err());
    }

    #[test]
    fn parse_errors_are_cached_too() {
        let mut r = Registry::new();
        r.set_module("bad", "def broken(:\n");
        assert!(r.parse_module("bad").is_err());
        assert!(r.parse_module("bad").is_err());
        r.set_module("bad", "a = 1\n");
        assert!(r.parse_module("bad").is_ok(), "replacing clears the error");
    }

    #[test]
    fn submodules_are_direct_children_only() {
        let mut r = Registry::new();
        r.set_module("torch", "");
        r.set_module("torch.nn", "");
        r.set_module("torch.nn.functional", "");
        r.set_module("torch.optim", "");
        r.set_module("torchvision", "");
        assert_eq!(
            r.submodules("torch"),
            vec!["torch.nn".to_string(), "torch.optim".to_string()]
        );
    }

    #[test]
    fn total_source_bytes_sums_sources() {
        let mut r = Registry::new();
        r.set_module("a", "12345");
        r.set_module("b", "123");
        assert_eq!(r.total_source_bytes(), 8);
    }

    #[test]
    fn clone_is_independent() {
        let mut r = Registry::new();
        r.set_module("m", "a = 1\n");
        let mut r2 = r.clone();
        r2.set_module("m", "a = 2\n");
        assert_eq!(r.source("m"), Some("a = 1\n"));
        assert_eq!(r2.source("m"), Some("a = 2\n"));
    }

    #[test]
    fn overlay_replaces_exactly_one_module() {
        let mut r = Registry::new();
        r.set_module("a", "x = 1\n");
        r.set_module("b", "y = 2\n");
        let overlay = r.with_module("a", "x = 9\n");
        assert_eq!(overlay.source("a"), Some("x = 9\n"));
        assert_eq!(overlay.source("b"), Some("y = 2\n"));
        assert_eq!(r.source("a"), Some("x = 1\n"), "base untouched");
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let mut a = Registry::new();
        a.set_module("m1", "x = 1\n");
        a.set_module("m2", "y = 2\n");
        let mut b = Registry::new();
        b.set_module("m2", "y = 2\n");
        b.set_module("m1", "x = 1\n");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_changes_iff_sources_change() {
        let mut r = Registry::new();
        r.set_module("m", "x = 1\n");
        let fp = r.fingerprint();
        // Rewriting with the identical source is a no-op for the print.
        r.set_module("m", "x = 1\n");
        assert_eq!(r.fingerprint(), fp);
        r.set_module("m", "x = 2\n");
        assert_ne!(r.fingerprint(), fp);
        // Reverting restores the original fingerprint (incremental
        // maintenance matches recomputation from scratch).
        r.set_module("m", "x = 1\n");
        assert_eq!(r.fingerprint(), fp);
    }

    #[test]
    fn fingerprint_tracks_removal() {
        let mut r = Registry::new();
        let empty = r.fingerprint();
        r.set_module("m", "x = 1\n");
        assert_ne!(r.fingerprint(), empty);
        r.remove_module("m");
        assert_eq!(r.fingerprint(), empty);
    }

    #[test]
    fn clones_and_overlays_share_interner_and_resolution() {
        let mut r = Registry::new();
        r.set_module("m", "alpha = 1\n");
        r.set_module("n", "beta = 2\n");
        let clone = r.clone();
        let overlay = r.with_module("n", "beta = 3\n");
        let p1 = clone.resolve_module("m").unwrap();
        let p2 = r.resolve_module("m").unwrap();
        let p3 = overlay.resolve_module("m").unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "clone shares resolved tree");
        assert!(Arc::ptr_eq(&p1, &p3), "overlay shares untouched entries");
        assert!(Arc::ptr_eq(r.interner(), clone.interner()));
        assert!(Arc::ptr_eq(r.interner(), overlay.interner()));
        // The overlaid entry re-resolves, against the same interner.
        let sym = r.interner().lookup("alpha").unwrap();
        overlay.resolve_module("n").unwrap();
        assert_eq!(r.interner().lookup("alpha"), Some(sym));
    }

    #[test]
    fn linked_overlay_matches_plain_overlay() {
        let mut r = Registry::new();
        r.set_module("a", "x = 1\n");
        r.set_module("b", "y = 2\n");
        let source = "x = 9\n";
        let code = Arc::new(crate::compile_program(&resolve_program(
            &parse(source).unwrap(),
            r.interner(),
        )));
        let mut body = LinkedBody::default();
        body.push_stmt(&code, 0);
        let plain = r.with_module("a", source);
        let linked = r.with_module_linked("a", source, body);
        assert_eq!(linked.fingerprint(), plain.fingerprint());
        assert_eq!(
            linked.module_fingerprint("a"),
            plain.module_fingerprint("a")
        );
        assert_eq!(linked, plain);
        assert!(matches!(linked.module_code("a"), Ok(ModuleCode::Linked(_))));
        assert!(matches!(
            linked.module_code("b"),
            Ok(ModuleCode::Compiled(_))
        ));
        assert_eq!(*linked.parse_module("a").unwrap(), parse(source).unwrap());
        assert_eq!(linked.compile_module("a").unwrap().stmt_count(), 1);
        assert_eq!(r.source("a"), Some("x = 1\n"), "base untouched");
        let mut copy = linked.clone();
        copy.set_module("a", source);
        assert!(
            matches!(copy.module_code("a"), Ok(ModuleCode::Compiled(_))),
            "set_module drops the linked body"
        );
    }

    #[test]
    fn set_module_resets_resolution() {
        let mut r = Registry::new();
        r.set_module("m", "a = 1\n");
        let p1 = r.resolve_module("m").unwrap();
        r.set_module("m", "a = 2\n");
        let p2 = r.resolve_module("m").unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2), "source change must re-resolve");
    }

    #[test]
    fn module_fingerprint_tracks_single_entries() {
        let mut r = Registry::new();
        r.set_module("m", "x = 1\n");
        r.set_module("n", "y = 2\n");
        let fm = r.module_fingerprint("m").unwrap();
        let fn_ = r.module_fingerprint("n").unwrap();
        assert_ne!(fm, fn_);
        assert_eq!(r.fingerprint(), fm.wrapping_add(fn_));
        assert!(r.module_fingerprint("ghost").is_none());
        r.set_module("m", "x = 9\n");
        assert_ne!(r.module_fingerprint("m").unwrap(), fm, "content change");
        assert_eq!(r.module_fingerprint("n").unwrap(), fn_, "untouched entry");
    }

    #[test]
    fn module_summary_caches_until_source_changes() {
        let mut r = Registry::new();
        r.set_module("m", "x = 1\n");
        let s1 = r.module_summary("m", || String::from("one")).unwrap();
        // Cached: the second build closure must not run.
        let s2 = r
            .module_summary("m", || -> String { unreachable!("cached") })
            .unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        // Clones share the slot.
        let clone = r.clone();
        let s3 = clone
            .module_summary("m", || -> String { unreachable!("shared") })
            .unwrap();
        assert!(Arc::ptr_eq(&s1, &s3));
        // Replacing the source drops the slot.
        r.set_module("m", "x = 2\n");
        let s4 = r.module_summary("m", || String::from("two")).unwrap();
        assert_eq!(*s4, "two");
        assert!(r.module_summary("ghost", || 0u32).is_none());
    }

    #[test]
    fn module_summary_type_mismatch_builds_uncached() {
        let mut r = Registry::new();
        r.set_module("m", "x = 1\n");
        let _: Arc<String> = r.module_summary("m", || String::from("s")).unwrap();
        let n: Arc<u64> = r.module_summary("m", || 7u64).unwrap();
        assert_eq!(*n, 7);
    }

    #[test]
    fn fingerprint_separates_name_and_source() {
        let mut a = Registry::new();
        a.set_module("ab", "c");
        let mut b = Registry::new();
        b.set_module("a", "bc");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
