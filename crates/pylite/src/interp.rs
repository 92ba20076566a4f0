//! The pylite interpreter with instrumentable import machinery.
//!
//! An [`Interpreter`] owns a module [`Registry`] (the virtual site-packages),
//! a [`Meter`] (virtual clock + simulated memory), a `sys.modules` cache and
//! captured stdout / external-call logs. λ-trim's profiler reads the
//! [`ImportEvent`]s the interpreter records around every module-body
//! execution — the Rust analogue of the paper's patched import loader (§5.2).
//!
//! Module, function and class bodies run on the bytecode VM of
//! [`crate::bytecode`]; this module holds what the VM calls into: imports,
//! namespaces and bindings, definitions, operators, attribute lookup and
//! calls. Names are pre-interned [`Symbol`]s, namespaces hash a single
//! `u32` per lookup, and module-attribute sites (`mod.attr`) carry
//! monomorphic inline caches keyed on module identity plus the namespace
//! generation counter (see DESIGN.md §8).

use crate::ast::{BinOp, CmpOp, UnaryOp};
use crate::cost::{mb_to_bytes, ms_to_ns, CostModel, Meter};
use crate::intern::{Interner, Symbol, SymbolHashBuilder};
use crate::registry::{ModuleCode, Registry};
use crate::resolved::{RClassDef, RFuncDef};
use crate::value::{
    py_eq, py_repr, py_str, Builtin, ExcKind, ModuleObj, Namespace, NativeMethod, PyClass, PyErr,
    PyFunc, PyInstance, Value,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// One recorded module-body execution, with its *marginal* cost: the delta
/// in virtual clock and simulated memory between the start and the end of
/// the body run (inclusive of any nested imports it triggered, exactly as
/// the paper defines `t` and `m` — "modules and all their submodules").
#[derive(Debug, Clone, PartialEq)]
pub struct ImportEvent {
    /// Dotted module name.
    pub module: String,
    /// Nesting depth: 0 for imports executed directly by `__main__`.
    pub depth: usize,
    /// Marginal virtual time in nanoseconds.
    pub time_ns: u64,
    /// Marginal simulated memory in bytes.
    pub mem_bytes: u64,
}

/// Control flow outcome of a block.
pub(crate) enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// Execution environment: the module globals plus, inside functions, a
/// locals namespace and the set of `global`-declared names.
pub(crate) struct Env {
    pub(crate) globals: Namespace,
    pub(crate) locals: Option<Namespace>,
    pub(crate) global_decls: HashSet<Symbol, SymbolHashBuilder>,
    pub(crate) module: Rc<str>,
}

/// Pre-interned symbols for names the interpreter itself consults on hot
/// or semantic paths (`__name__`, `__init__`, exception fields, ...).
struct CommonSyms {
    name: Symbol,
    file: Symbol,
    message: Symbol,
    args: Symbol,
    init: Symbol,
}

impl CommonSyms {
    fn new(interner: &Interner) -> Self {
        CommonSyms {
            name: interner.intern("__name__"),
            file: interner.intern("__file__"),
            message: interner.intern("message"),
            args: interner.intern("args"),
            init: interner.intern("__init__"),
        }
    }
}

/// Pre-interned native-method names, so `xs.append` resolves with symbol
/// compares instead of resolving the attribute symbol back to a string.
struct NativeSyms {
    append: Symbol,
    extend: Symbol,
    pop: Symbol,
    index: Symbol,
    count: Symbol,
    get: Symbol,
    keys: Symbol,
    values: Symbol,
    items: Symbol,
    update: Symbol,
    upper: Symbol,
    lower: Symbol,
    strip: Symbol,
    split: Symbol,
    join: Symbol,
    replace: Symbol,
    startswith: Symbol,
    endswith: Symbol,
    format: Symbol,
}

impl NativeSyms {
    fn new(interner: &Interner) -> Self {
        NativeSyms {
            append: interner.intern("append"),
            extend: interner.intern("extend"),
            pop: interner.intern("pop"),
            index: interner.intern("index"),
            count: interner.intern("count"),
            get: interner.intern("get"),
            keys: interner.intern("keys"),
            values: interner.intern("values"),
            items: interner.intern("items"),
            update: interner.intern("update"),
            upper: interner.intern("upper"),
            lower: interner.intern("lower"),
            strip: interner.intern("strip"),
            split: interner.intern("split"),
            join: interner.intern("join"),
            replace: interner.intern("replace"),
            startswith: interner.intern("startswith"),
            endswith: interner.intern("endswith"),
            format: interner.intern("format"),
        }
    }

    /// The symbol-keyed twin of [`NativeMethod::resolve`].
    fn resolve(&self, recv: &Value, attr: Symbol) -> Option<NativeMethod> {
        use NativeMethod::*;
        match recv {
            Value::List(_) => match attr {
                a if a == self.append => Some(Append),
                a if a == self.extend => Some(Extend),
                a if a == self.pop => Some(Pop),
                a if a == self.index => Some(Index),
                a if a == self.count => Some(Count),
                _ => None,
            },
            Value::Dict(_) => match attr {
                a if a == self.get => Some(Get),
                a if a == self.keys => Some(Keys),
                a if a == self.values => Some(Values),
                a if a == self.items => Some(Items),
                a if a == self.update => Some(Update),
                a if a == self.pop => Some(Pop),
                _ => None,
            },
            Value::Str(_) => match attr {
                a if a == self.upper => Some(Upper),
                a if a == self.lower => Some(Lower),
                a if a == self.strip => Some(Strip),
                a if a == self.split => Some(Split),
                a if a == self.join => Some(Join),
                a if a == self.replace => Some(Replace),
                a if a == self.startswith => Some(Startswith),
                a if a == self.endswith => Some(Endswith),
                a if a == self.format => Some(Format),
                a if a == self.count => Some(Count),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One monomorphic inline-cache entry for a `mod.attr` site: valid while
/// the access still hits the *same* namespace object at the *same*
/// generation (any `set`/`del` bumps the generation and kills the entry).
struct IcEntry {
    ns: Namespace,
    generation: u64,
    value: Value,
}

/// The execution engine: the bytecode VM of [`crate::bytecode`] is the
/// only one. Nothing reads this type; it survives only as a field and a
/// parameter of `trim_core`'s public API until those are removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Compiled-bytecode dispatch loop.
    #[default]
    Vm,
}

/// Hit/miss counters for one `mod.attr` inline-cache site (see
/// [`Interpreter::enable_ic_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcSiteStats {
    /// Lookups served from a valid cache entry.
    pub hits: u64,
    /// Lookups that fell back to the namespace (cold site, generation
    /// bump, or a different module behind the same site).
    pub misses: u64,
}

/// Inline-cache counters split by execution phase, so handler lookups
/// report apart from the module-init lookups that run before them.
#[derive(Debug, Default)]
struct IcStatsRecorder {
    /// Per-site counters for live (handler) execution: `import_depth == 0`.
    live: HashMap<u32, IcSiteStats, SymbolHashBuilder>,
    /// Aggregate counters for module-init execution: `import_depth > 0`.
    init: IcSiteStats,
}

/// `sys.modules`, plus every module evicted from it: those a failed import
/// removed, and a `__main__` that a second `exec_main` replaced.
///
/// Dropping the table is the interpreter's finalization. A function holds
/// its module's globals, which hold the function, so every loaded module
/// is an `Rc` cycle; as CPython clears module dicts at shutdown, the drop
/// clears the namespace of every module the interpreter loaded. Evicted
/// modules are kept until then because their functions may have escaped
/// into live state. The teardown sits on this field rather than on
/// [`Interpreter`], so callers can still move public fields out of an
/// interpreter.
#[derive(Debug, Default)]
struct ModuleTable {
    loaded: HashMap<String, Rc<ModuleObj>>,
    evicted: Vec<Rc<ModuleObj>>,
}

impl ModuleTable {
    fn get(&self, name: &str) -> Option<&Rc<ModuleObj>> {
        self.loaded.get(name)
    }

    fn names(&self) -> impl Iterator<Item = &String> {
        self.loaded.keys()
    }

    fn insert(&mut self, name: String, module: Rc<ModuleObj>) {
        if let Some(old) = self.loaded.insert(name, module) {
            self.evicted.push(old);
        }
    }

    fn evict(&mut self, name: &str) {
        if let Some(old) = self.loaded.remove(name) {
            self.evicted.push(old);
        }
    }
}

impl Drop for ModuleTable {
    fn drop(&mut self) {
        for module in self.loaded.values().chain(&self.evicted) {
            module.ns.clear();
        }
    }
}

/// Default per-run step budget (statements). Debloated candidate programs
/// can in pathological cases loop forever; the budget turns that into a
/// deterministic [`ExcKind::ResourceExhausted`] failure the oracle rejects.
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// A pylite interpreter instance.
///
/// Each interpreter is fully isolated: its own `sys.modules`, meter and
/// output buffers. λ-trim spawns a fresh interpreter per profiling run and
/// per DD probe — the equivalent of the paper's per-phase process spawning
/// (§7, "Module isolation"). Like a process exit, dropping the interpreter
/// frees its module graph: every module namespace it loaded is cleared, so
/// a module object kept past that point sees an empty namespace.
#[derive(Debug)]
pub struct Interpreter {
    /// The virtual filesystem of modules.
    pub registry: Registry,
    /// Cost model constants.
    pub cost: CostModel,
    /// Virtual clock and simulated memory.
    pub meter: Meter,
    /// Captured `print` output, one entry per line.
    pub stdout: Vec<String>,
    /// Captured external-service calls (`__lt_extcall__`).
    pub extcalls: Vec<String>,
    /// Recorded module-body executions with marginal costs.
    pub import_events: Vec<ImportEvent>,
    /// Maximum number of statements executed before aborting.
    pub step_limit: u64,
    /// Run on the tree-walking reference evaluator ([`crate::reference`])
    /// instead of the VM. Test builds only.
    #[cfg(any(test, feature = "reference"))]
    pub(crate) tree_walk: bool,
    observed: HashSet<(Symbol, Symbol), SymbolHashBuilder>,
    modules: ModuleTable,
    builtins: Namespace,
    import_depth: usize,
    interner: Arc<Interner>,
    syms: CommonSyms,
    native_syms: NativeSyms,
    ics: HashMap<u32, IcEntry, SymbolHashBuilder>,
    ic_stats: Option<IcStatsRecorder>,
    /// Recycled VM frames: nested bytecode calls pop a frame here instead
    /// of allocating fresh operand-stack/iterator vectors per invocation.
    pub(crate) vm_frames: Vec<crate::bytecode::VmFrame>,
    /// The registry modules this run read (see [`Interpreter::read_set`]).
    reads: ReadSet,
}

/// The registry modules one run read, as symbols of the registry
/// family's interner.
pub type ReadSet = HashSet<Symbol, SymbolHashBuilder>;

impl std::fmt::Debug for CommonSyms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CommonSyms")
    }
}

impl std::fmt::Debug for NativeSyms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NativeSyms")
    }
}

impl std::fmt::Debug for IcEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IcEntry")
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl Interpreter {
    /// Create an interpreter over a registry.
    pub fn new(registry: Registry) -> Self {
        let interner = Arc::clone(registry.interner());
        let builtins = Namespace::new();
        for b in Builtin::all() {
            builtins.set(interner.intern(b.name()), Value::Builtin(*b));
        }
        for name in ExcKind::builtin_names() {
            builtins.set(
                interner.intern(name),
                Value::ExcClass(ExcKind::from_class_name(name)),
            );
        }
        let syms = CommonSyms::new(&interner);
        let native_syms = NativeSyms::new(&interner);
        Interpreter {
            registry,
            cost: CostModel::default(),
            meter: Meter::new(),
            stdout: Vec::new(),
            extcalls: Vec::new(),
            import_events: Vec::new(),
            step_limit: DEFAULT_STEP_LIMIT,
            #[cfg(any(test, feature = "reference"))]
            tree_walk: false,
            observed: HashSet::default(),
            modules: ModuleTable::default(),
            builtins,
            import_depth: 0,
            interner,
            syms,
            native_syms,
            ics: HashMap::default(),
            ic_stats: None,
            vm_frames: Vec::new(),
            reads: ReadSet::default(),
        }
    }

    /// Turn on per-site inline-cache hit/miss counting. Off by default:
    /// the counters cost a branch plus a hash update per `mod.attr` read,
    /// so only benchmarking harnesses should enable them.
    pub fn enable_ic_stats(&mut self) {
        self.ic_stats = Some(IcStatsRecorder::default());
    }

    /// Per-site inline-cache counters for live (handler) execution, if
    /// enabled. Keys are the resolved-IR attribute-site ids. Lookups made
    /// while a module init is on the import stack are excluded — see
    /// [`Interpreter::ic_init_totals`].
    pub fn ic_site_stats(&self) -> Option<&HashMap<u32, IcSiteStats, SymbolHashBuilder>> {
        self.ic_stats.as_ref().map(|s| &s.live)
    }

    /// Total live-execution inline-cache `(hits, misses)` across all
    /// sites (zeros when counting is disabled): lookups made while no
    /// module init is on the import stack (`import_depth == 0`).
    pub fn ic_totals(&self) -> (u64, u64) {
        match &self.ic_stats {
            None => (0, 0),
            Some(stats) => stats
                .live
                .values()
                .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses)),
        }
    }

    /// Aggregate inline-cache `(hits, misses)` incurred during module
    /// initialization (`import_depth > 0`); zeros when counting is
    /// disabled.
    pub fn ic_init_totals(&self) -> (u64, u64) {
        match &self.ic_stats {
            None => (0, 0),
            Some(stats) => (stats.init.hits, stats.init.misses),
        }
    }

    /// Every `(module, attribute)` read observed at runtime: direct
    /// attribute lookups, `getattr`-family calls and `from`-imports. The
    /// dynamic ground truth that static analysis must under-approximate.
    pub fn observed_accesses(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (module, attr) in &self.observed {
            out.entry(self.interner.resolve(*module).to_string())
                .or_default()
                .insert(self.interner.resolve(*attr).to_string());
        }
        out
    }

    /// The registry modules this run has read so far, as interned names:
    /// every module whose import reached the registry's content (loaded,
    /// or evicted after its body or its parse failed). A run's outcome
    /// depends on the registry only through these modules' contents and
    /// through which names the registry holds: a module outside the set
    /// could be replaced by any other text without changing the run.
    pub fn read_set(&self) -> &ReadSet {
        &self.reads
    }

    /// Note that this run read `name`'s content from the registry, and
    /// return `name`'s symbol.
    fn note_read(&mut self, name: &str) -> Symbol {
        let sym = self.interner.intern(name);
        self.reads.insert(sym);
        sym
    }

    /// Execute a program as the `__main__` module and return its module
    /// object (whose namespace holds the handler).
    ///
    /// # Errors
    ///
    /// Any uncaught pylite exception, including parse errors surfaced as
    /// [`ExcKind::ImportError`].
    pub fn exec_main(&mut self, source: &str) -> Result<Rc<ModuleObj>, PyErr> {
        let parse_error =
            |e: crate::ParseError| PyErr::new(ExcKind::ImportError, format!("__main__: {e}"));
        #[cfg(any(test, feature = "reference"))]
        if self.tree_walk {
            let program = crate::parser::parse(source).map_err(parse_error)?;
            let program = crate::resolved::resolve_program(&program, &self.interner);
            let (module, mut env) = self.new_main();
            self.exec_block(&program.body, &mut env)?;
            return Ok(module);
        }
        // `__main__` is not a registry module, but its bytecode still gets
        // a shared content-keyed slot: every DD probe runs the identical
        // app source, so all but the first skip the parse, resolve and
        // compile passes entirely.
        let code = self.registry.compile_main(source).map_err(parse_error)?;
        let (module, mut env) = self.new_main();
        self.vm_exec_block(&code, &mut env)?;
        Ok(module)
    }

    /// Create `__main__`, enter it in `sys.modules`, and return it with the
    /// environment its top level runs in.
    fn new_main(&mut self) -> (Rc<ModuleObj>, Env) {
        let module = Rc::new(ModuleObj {
            name: "__main__".into(),
            name_sym: self.interner.intern("__main__"),
            tracked: self.registry.contains("__main__"),
            ns: Namespace::new(),
        });
        module.ns.set(self.syms.name, Value::str("__main__"));
        self.modules.insert("__main__".into(), module.clone());
        let env = Env {
            globals: module.ns.clone(),
            locals: None,
            global_decls: HashSet::default(),
            module: Rc::from("__main__"),
        };
        (module, env)
    }

    /// Call a function bound at top level of `__main__` (the Lambda handler).
    ///
    /// # Errors
    ///
    /// [`ExcKind::NameError`] if the handler is not bound, or any exception
    /// the handler raises.
    pub fn call_handler(
        &mut self,
        handler: &str,
        event: Value,
        context: Value,
    ) -> Result<Value, PyErr> {
        let main = self
            .modules
            .get("__main__")
            .cloned()
            .ok_or_else(|| PyErr::new(ExcKind::RuntimeError, "no __main__ module executed"))?;
        // A name that was never interned cannot key any namespace, so a
        // failed lookup is exactly "not defined".
        let func = self
            .interner
            .lookup(handler)
            .and_then(|sym| main.ns.get(sym))
            .ok_or_else(|| {
                PyErr::new(
                    ExcKind::NameError,
                    format!("handler `{handler}` is not defined"),
                )
            })?;
        self.call_value(func, vec![event, context], vec![])
    }

    /// The loaded module object for `name`, if imported.
    pub fn module(&self, name: &str) -> Option<Rc<ModuleObj>> {
        self.modules.get(name).cloned()
    }

    /// Names of all loaded modules (sorted).
    pub fn loaded_modules(&self) -> Vec<String> {
        let mut v: Vec<String> = self.modules.names().cloned().collect();
        v.sort();
        v
    }

    /// Import a module by dotted name (public entry for tests/tools).
    ///
    /// # Errors
    ///
    /// [`ExcKind::ImportError`] if the module is missing or fails to parse,
    /// or any exception its body raises.
    pub fn import_module(&mut self, dotted: &str) -> Result<Rc<ModuleObj>, PyErr> {
        if let Some(m) = self.modules.get(dotted) {
            return Ok(m.clone());
        }
        if !self.registry.contains(dotted) {
            return Err(PyErr::new(
                ExcKind::ImportError,
                format!("No module named '{dotted}'"),
            ));
        }
        // Import the parent package first (CPython semantics).
        let parent = dotted.rsplit_once('.').map(|(p, _)| p.to_owned());
        if let Some(p) = &parent {
            self.import_module(p)?;
        }
        // From here on the import depends on the module's text.
        let name_sym = self.note_read(dotted);
        let code = self
            .registry
            .module_code(dotted)
            .map_err(|e| PyErr::new(ExcKind::ImportError, format!("{dotted}: {e}")))?;
        self.meter.tick(self.cost.import_ns);
        self.meter.alloc(self.cost.module_base_bytes);
        let module = Rc::new(ModuleObj {
            name: dotted.to_owned(),
            name_sym,
            tracked: true,
            ns: Namespace::new(),
        });
        module.ns.set(self.syms.name, Value::str(dotted));
        module.ns.set(
            self.syms.file,
            Value::str(format!("{}.py", dotted.replace('.', "/"))),
        );
        // Insert before executing the body so cyclic imports observe the
        // partially-initialized module instead of recursing forever.
        self.modules.insert(dotted.to_owned(), module.clone());
        let depth = self.import_depth;
        let start = self.meter.snapshot();
        self.import_depth += 1;
        let mut env = Env {
            globals: module.ns.clone(),
            locals: None,
            global_decls: HashSet::default(),
            module: Rc::from(dotted),
        };
        #[cfg(any(test, feature = "reference"))]
        let result = if self.tree_walk {
            let program = self
                .registry
                .resolve_module(dotted)
                .expect("a module that compiles or links parses");
            self.exec_block(&program.body, &mut env)
        } else {
            self.exec_module_code(&code, &mut env)
        };
        #[cfg(not(any(test, feature = "reference")))]
        let result = self.exec_module_code(&code, &mut env);
        self.import_depth -= 1;
        match result {
            Ok(()) => {
                let end = self.meter.snapshot();
                self.import_events.push(ImportEvent {
                    module: dotted.to_owned(),
                    depth,
                    time_ns: end.0 - start.0,
                    mem_bytes: end.1 - start.1,
                });
                self.bind_into_parent(&parent, dotted, &module);
                Ok(module)
            }
            Err(e) => {
                self.modules.evict(dotted);
                Err(e)
            }
        }
    }

    /// Run a module body, linked or compiled, in `env`.
    fn exec_module_code(&mut self, code: &ModuleCode, env: &mut Env) -> Result<(), PyErr> {
        match code {
            ModuleCode::Linked(body) => self.vm_exec_linked(body, env),
            ModuleCode::Compiled(code) => self.vm_exec_block(code, env),
        }
    }

    /// Bind a freshly imported submodule as an attribute of its parent
    /// package (`import a.b` makes `b` visible on `a`).
    fn bind_into_parent(&mut self, parent: &Option<String>, dotted: &str, module: &Rc<ModuleObj>) {
        if let (Some(p), Some((_, leaf))) = (parent, dotted.rsplit_once('.')) {
            if let Some(pm) = self.modules.get(p).cloned() {
                let leaf_sym = self.interner.intern(leaf);
                let is_new = pm.ns.set(leaf_sym, Value::Module(module.clone())).is_none();
                if is_new {
                    self.meter.alloc(self.cost.binding_bytes);
                }
            }
        }
    }
}

// -- imports and deletion ------------------------------------------------

impl Interpreter {
    /// Execute an `import a.b [as c][, ...]` clause list.
    pub(crate) fn exec_import(
        &mut self,
        items: &[crate::resolved::RImportItem],
        env: &mut Env,
    ) -> Result<(), PyErr> {
        for item in items {
            let module = self.import_module(&item.module)?;
            match &item.top {
                None => self.bind_name(item.bind, Value::Module(module), env),
                Some(top) => {
                    let top_module = self
                        .modules
                        .get(top)
                        .cloned()
                        .expect("top package loaded by import_module");
                    self.bind_name(item.bind, Value::Module(top_module), env);
                }
            }
        }
        Ok(())
    }

    /// Execute a `from module import ...` statement.
    pub(crate) fn exec_from_import(
        &mut self,
        module: &str,
        names: &[crate::resolved::RFromName],
        env: &mut Env,
    ) -> Result<(), PyErr> {
        let m = self.import_module(module)?;
        for name in names {
            let (name, bind) = match name {
                crate::resolved::RFromName::Star => {
                    // Bind every public (non-underscore) name of the
                    // module into the importing scope.
                    for key in m.ns.key_syms() {
                        if self.interner.resolve(key).starts_with('_') {
                            continue;
                        }
                        self.record_access(&m, key);
                        let v = m.ns.get(key).expect("key from snapshot");
                        self.bind_name(key, v, env);
                    }
                    continue;
                }
                crate::resolved::RFromName::Named { name, bind } => (*name, *bind),
            };
            self.record_access(&m, name);
            let v = match m.ns.get(name) {
                Some(v) => v,
                None => {
                    // `from pkg import sub` where sub is a submodule.
                    let name_text = self.interner.resolve(name);
                    let sub = format!("{module}.{name_text}");
                    if self.registry.contains(&sub) {
                        Value::Module(self.import_module(&sub)?)
                    } else {
                        return Err(PyErr::new(
                            ExcKind::ImportError,
                            format!("cannot import name '{name_text}' from '{module}'"),
                        ));
                    }
                }
            };
            self.bind_name(bind, v, env);
        }
        Ok(())
    }

    /// `del name`: unbind a local, or a module-level or `global` name.
    pub(crate) fn del_name(&mut self, n: Symbol, env: &Env) -> Result<(), PyErr> {
        let removed = match &env.locals {
            Some(locals) if !env.global_decls.contains(&n) => locals.remove(n),
            _ => env.globals.remove(n),
        };
        if removed.is_none() {
            return Err(PyErr::new(
                ExcKind::NameError,
                format!("name '{}' is not defined", self.interner.resolve(n)),
            ));
        }
        Ok(())
    }

    /// `del obj.attr` on an already evaluated object.
    pub(crate) fn del_attr(&mut self, obj: &Value, attr: Symbol) -> Result<(), PyErr> {
        // `NsMap::remove` bumps the namespace generation, invalidating any
        // inline cache for this attribute.
        let removed = match obj {
            Value::Module(m) => m.ns.remove(attr),
            Value::Instance(i) => i.borrow().ns.remove(attr),
            Value::Class(c) => c.ns.remove(attr),
            _ => None,
        };
        if removed.is_none() {
            return Err(PyErr::attribute_error(format!(
                "cannot delete attribute '{}'",
                self.interner.resolve(attr)
            )));
        }
        Ok(())
    }
}

// -- definitions, bindings, names -----------------------------------------

impl Interpreter {
    pub(crate) fn value_to_exception(&mut self, v: Value) -> Result<PyErr, PyErr> {
        match v {
            Value::ExcValue(e) => Ok((*e).clone()),
            Value::ExcClass(kind) => Ok(PyErr::new(kind, "")),
            Value::Instance(inst) => {
                let inst = inst.borrow();
                if !inst.class.is_exception {
                    return Err(PyErr::type_error("exceptions must derive from Exception"));
                }
                let message = inst
                    .ns
                    .get(self.syms.message)
                    .map(|m| py_str(&m))
                    .unwrap_or_default();
                let mut chain = Vec::new();
                collect_class_chain(&inst.class, &mut chain);
                let mut err = PyErr::new(ExcKind::Custom(inst.class.name.clone()), message);
                err.class_chain = chain;
                Ok(err)
            }
            Value::Class(c) if c.is_exception => {
                let mut chain = Vec::new();
                collect_class_chain(&c, &mut chain);
                let mut err = PyErr::new(ExcKind::Custom(c.name.clone()), "");
                err.class_chain = chain;
                Ok(err)
            }
            other => Err(PyErr::type_error(format!(
                "exceptions must derive from Exception, not {}",
                other.type_name()
            ))),
        }
    }

    /// Bind a function defined from `f` with its evaluated `defaults`
    /// (parallel to the parameters) and charge its allocation.
    pub(crate) fn define_function(
        &mut self,
        f: &Arc<RFuncDef>,
        defaults: Vec<Option<Value>>,
        env: &mut Env,
    ) {
        let func = Value::Func(Rc::new(PyFunc {
            code: Arc::clone(f),
            defaults,
            globals: env.globals.clone(),
            module: env.module.clone(),
        }));
        self.meter
            .alloc(self.cost.func_base_bytes + self.cost.func_stmt_bytes * f.stmt_count);
        self.bind_name(f.sym, func, env);
    }

    /// Define and bind the class `c`: resolve its bases, run its body with
    /// `run_body` in a fresh class namespace, and charge the allocations.
    pub(crate) fn define_class(
        &mut self,
        c: &RClassDef,
        env: &mut Env,
        run_body: impl FnOnce(&mut Self, &mut Env) -> Result<(), PyErr>,
    ) -> Result<(), PyErr> {
        let mut bases = Vec::new();
        let mut is_exception = false;
        for path in &c.bases {
            // Bases may be dotted references (`class Net(nn.Module)`).
            let mut base_val = self.lookup_name(path[0], env)?;
            for part in &path[1..] {
                base_val = self.attr_lookup(&base_val, *part, None)?;
            }
            match base_val {
                Value::Class(b) => {
                    if b.is_exception {
                        is_exception = true;
                    }
                    bases.push(b);
                }
                Value::ExcClass(_) => {
                    is_exception = true;
                }
                other => {
                    return Err(PyErr::type_error(format!(
                        "base class must be a class, not {}",
                        other.type_name()
                    )))
                }
            }
        }
        let class_ns = Namespace::new();
        let mut class_env = Env {
            globals: env.globals.clone(),
            locals: Some(class_ns.clone()),
            global_decls: HashSet::default(),
            module: env.module.clone(),
        };
        run_body(self, &mut class_env)?;
        self.meter
            .alloc(self.cost.binding_bytes * class_ns.len() as u64);
        let class = Value::Class(Rc::new(PyClass {
            name: c.name.to_string(),
            bases,
            ns: class_ns,
            is_exception,
        }));
        self.meter.alloc(self.cost.class_base_bytes);
        self.bind_name(c.sym, class, env);
        Ok(())
    }

    /// Record a runtime module-attribute read (registry modules only;
    /// `__name__` is import-machinery bookkeeping, not library surface).
    fn record_access(&mut self, module: &ModuleObj, attr: Symbol) {
        if attr == self.syms.name || !module.tracked {
            return;
        }
        self.observed.insert((module.name_sym, attr));
    }

    pub(crate) fn bind_name(&mut self, name: Symbol, value: Value, env: &mut Env) {
        let target_ns = match &env.locals {
            Some(locals) if !env.global_decls.contains(&name) => locals,
            _ => &env.globals,
        };
        let is_new = target_ns.set(name, value).is_none();
        if is_new {
            self.meter.alloc(self.cost.binding_bytes);
        }
    }

    /// Store `value` as an attribute of `obj` (the `obj.attr = value`
    /// path).
    pub(crate) fn set_attr(
        &mut self,
        obj: &Value,
        attr: Symbol,
        value: Value,
    ) -> Result<(), PyErr> {
        // `NsMap::set` bumps the namespace generation, so inline
        // caches for this attribute are invalidated automatically.
        match obj {
            Value::Module(m) => {
                if m.ns.set(attr, value).is_none() {
                    self.meter.alloc(self.cost.binding_bytes);
                }
            }
            Value::Instance(i) => {
                if i.borrow().ns.set(attr, value).is_none() {
                    self.meter.alloc(self.cost.binding_bytes);
                }
            }
            Value::Class(c) => {
                if c.ns.set(attr, value).is_none() {
                    self.meter.alloc(self.cost.binding_bytes);
                }
            }
            other => {
                return Err(PyErr::attribute_error(format!(
                    "'{}' object attribute '{}' is read-only",
                    other.type_name(),
                    self.interner.resolve(attr)
                )))
            }
        }
        Ok(())
    }

    /// Store `value` at `obj[idx]`.
    pub(crate) fn set_item(&mut self, obj: &Value, idx: Value, value: Value) -> Result<(), PyErr> {
        match obj {
            Value::List(items) => {
                let i = as_index(&idx, items.borrow().len())?;
                items.borrow_mut()[i] = value;
                Ok(())
            }
            Value::Dict(pairs) => {
                let mut pairs = pairs.borrow_mut();
                for (k, v) in pairs.iter_mut() {
                    if py_eq(k, &idx) {
                        *v = value;
                        return Ok(());
                    }
                }
                pairs.push((idx, value));
                self.meter.alloc(self.cost.element_bytes);
                Ok(())
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object does not support item assignment",
                other.type_name()
            ))),
        }
    }

    /// Delete `obj[idx]`: a dict key or a list index (negative indices
    /// count from the end).
    pub(crate) fn del_item(&mut self, obj: &Value, idx: &Value) -> Result<(), PyErr> {
        match obj {
            Value::List(items) => {
                let i = as_index(idx, items.borrow().len())?;
                items.borrow_mut().remove(i);
                Ok(())
            }
            Value::Dict(pairs) => {
                let mut pairs = pairs.borrow_mut();
                match pairs.iter().position(|(k, _)| py_eq(k, idx)) {
                    Some(i) => {
                        pairs.remove(i);
                        Ok(())
                    }
                    None => Err(PyErr::new(ExcKind::KeyError, py_repr(idx))),
                }
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object doesn't support item deletion",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn lookup_name(&mut self, name: Symbol, env: &Env) -> Result<Value, PyErr> {
        if let Some(locals) = &env.locals {
            if !env.global_decls.contains(&name) {
                if let Some(v) = locals.get(name) {
                    return Ok(v);
                }
            }
        }
        if let Some(v) = env.globals.get(name) {
            return Ok(v);
        }
        if let Some(v) = self.builtins.get(name) {
            return Ok(v);
        }
        Err(PyErr::new(
            ExcKind::NameError,
            format!("name '{}' is not defined", self.interner.resolve(name)),
        ))
    }
}

// -- operators, attributes, calls -----------------------------------------

impl Interpreter {
    pub(crate) fn binary_op(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, PyErr> {
        use Value::*;
        let type_err = |l: &Value, r: &Value| {
            PyErr::type_error(format!(
                "unsupported operand type(s) for {}: '{}' and '{}'",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ))
        };
        // Promote bools to ints for arithmetic.
        let lift = |v: Value| match v {
            Bool(b) => Int(b as i64),
            other => other,
        };
        let (l, r) = (lift(l), lift(r));
        match (op, &l, &r) {
            (BinOp::Add, Str(a), Str(b)) => {
                self.meter
                    .alloc(self.cost.str_char_bytes * (a.len() + b.len()) as u64);
                Ok(Value::str(format!("{a}{b}")))
            }
            (BinOp::Add, List(a), List(b)) => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            (BinOp::Mul, Str(s), Int(n)) | (BinOp::Mul, Int(n), Str(s)) => {
                let n = repeat_count(s.len(), *n)?;
                self.meter
                    .alloc(self.cost.str_char_bytes * (s.len() * n) as u64);
                Ok(Value::str(s.repeat(n)))
            }
            (BinOp::Mul, List(items), Int(n)) | (BinOp::Mul, Int(n), List(items)) => {
                let src = items.borrow();
                let n = repeat_count(src.len(), *n)?;
                let mut out = Vec::with_capacity(src.len() * n);
                for _ in 0..n {
                    out.extend(src.iter().cloned());
                }
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            (_, Int(a), Int(b)) => {
                let (a, b) = (*a, *b);
                match op {
                    BinOp::Add => Ok(Int(a.wrapping_add(b))),
                    BinOp::Sub => Ok(Int(a.wrapping_sub(b))),
                    BinOp::Mul => Ok(Int(a.wrapping_mul(b))),
                    BinOp::Div => {
                        if b == 0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "division by zero"))
                        } else {
                            Ok(Float(a as f64 / b as f64))
                        }
                    }
                    BinOp::FloorDiv => {
                        if b == 0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "division by zero"))
                        } else {
                            Ok(Int(int_floor_div(a, b)))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "modulo by zero"))
                        } else {
                            Ok(Int(int_mod(a, b)))
                        }
                    }
                    BinOp::Pow => {
                        if b >= 0 {
                            Ok(Int(int_pow(a, b as u64)))
                        } else {
                            float_pow(a as f64, b as f64).map(Float)
                        }
                    }
                }
            }
            (_, l @ (Int(_) | Float(_)), r @ (Int(_) | Float(_))) => {
                let a = as_f64(l);
                let b = as_f64(r);
                match op {
                    BinOp::Add => Ok(Float(a + b)),
                    BinOp::Sub => Ok(Float(a - b)),
                    BinOp::Mul => Ok(Float(a * b)),
                    BinOp::Div => {
                        if b == 0.0 {
                            Err(PyErr::new(
                                ExcKind::ZeroDivisionError,
                                "float division by zero",
                            ))
                        } else {
                            Ok(Float(a / b))
                        }
                    }
                    BinOp::FloorDiv => {
                        if b == 0.0 {
                            Err(PyErr::new(
                                ExcKind::ZeroDivisionError,
                                "float floor division by zero",
                            ))
                        } else {
                            Ok(Float(float_div_mod(a, b).0))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0.0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "float modulo"))
                        } else {
                            Ok(Float(float_div_mod(a, b).1))
                        }
                    }
                    BinOp::Pow => float_pow(a, b).map(Float),
                }
            }
            _ => Err(type_err(&l, &r)),
        }
    }

    pub(crate) fn compare(&mut self, op: CmpOp, l: &Value, r: &Value) -> Result<bool, PyErr> {
        match op {
            CmpOp::Eq => Ok(py_eq(l, r)),
            CmpOp::Ne => Ok(!py_eq(l, r)),
            CmpOp::Is => Ok(py_is(l, r)),
            CmpOp::IsNot => Ok(!py_is(l, r)),
            CmpOp::In => self.contains(r, l),
            CmpOp::NotIn => Ok(!self.contains(r, l)?),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let ord = match (l, r) {
                    (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
                    (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                    (
                        a @ (Value::Int(_) | Value::Float(_) | Value::Bool(_)),
                        b @ (Value::Int(_) | Value::Float(_) | Value::Bool(_)),
                    ) => as_f64(a).partial_cmp(&as_f64(b)),
                    _ => None,
                };
                let ord = ord.ok_or_else(|| {
                    PyErr::type_error(format!(
                        "'{}' not supported between instances of '{}' and '{}'",
                        op.symbol(),
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                Ok(match op {
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                })
            }
        }
    }

    fn contains(&mut self, container: &Value, needle: &Value) -> Result<bool, PyErr> {
        match container {
            Value::List(items) => Ok(items.borrow().iter().any(|v| py_eq(v, needle))),
            Value::Tuple(items) => Ok(items.iter().any(|v| py_eq(v, needle))),
            Value::Dict(pairs) => Ok(pairs.borrow().iter().any(|(k, _)| py_eq(k, needle))),
            Value::Str(s) => match needle {
                Value::Str(sub) => Ok(s.contains(&**sub)),
                _ => Err(PyErr::type_error("'in <string>' requires string operand")),
            },
            other => Err(PyErr::type_error(format!(
                "argument of type '{}' is not iterable",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn iter_values(&mut self, v: &Value) -> Result<Vec<Value>, PyErr> {
        match v {
            Value::List(items) => Ok(items.borrow().clone()),
            Value::Tuple(items) => Ok((**items).clone()),
            Value::Dict(pairs) => Ok(pairs.borrow().iter().map(|(k, _)| k.clone()).collect()),
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            other => Err(PyErr::type_error(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }
    }

    /// Symbol-keyed attribute lookup following pylite's object model.
    /// Raises `AttributeError` — the signal λ-trim's fallback wrapper
    /// watches for. `site` is the resolved-IR inline-cache site id for
    /// `mod.attr` expressions; runtime lookups (`getattr`) pass `None`.
    pub(crate) fn attr_lookup(
        &mut self,
        obj: &Value,
        attr: Symbol,
        site: Option<u32>,
    ) -> Result<Value, PyErr> {
        match obj {
            Value::Module(m) => {
                // Observed-access recording must fire on cache hits too:
                // the profiler's ground truth is every read, not every miss.
                self.record_access(m, attr);
                let generation = m.ns.generation();
                if let Some(site) = site {
                    if let Some(entry) = self.ics.get(&site) {
                        if entry.generation == generation && entry.ns.same(&m.ns) {
                            let value = entry.value.clone();
                            if let Some(stats) = &mut self.ic_stats {
                                if self.import_depth == 0 {
                                    stats.live.entry(site).or_default().hits += 1;
                                } else {
                                    stats.init.hits += 1;
                                }
                            }
                            return Ok(value);
                        }
                    }
                    if let Some(stats) = &mut self.ic_stats {
                        if self.import_depth == 0 {
                            stats.live.entry(site).or_default().misses += 1;
                        } else {
                            stats.init.misses += 1;
                        }
                    }
                }
                match m.ns.get(attr) {
                    Some(v) => {
                        if let Some(site) = site {
                            self.ics.insert(
                                site,
                                IcEntry {
                                    ns: m.ns.clone(),
                                    generation,
                                    value: v.clone(),
                                },
                            );
                        }
                        Ok(v)
                    }
                    None => Err(PyErr::attribute_error(format!(
                        "module '{}' has no attribute '{}'",
                        m.name,
                        self.interner.resolve(attr)
                    ))),
                }
            }
            Value::List(_) | Value::Dict(_) | Value::Str(_) => {
                match self.native_syms.resolve(obj, attr) {
                    Some(method) => Ok(Value::NativeMethod {
                        recv: Box::new(obj.clone()),
                        method,
                    }),
                    None => Err(PyErr::attribute_error(format!(
                        "'{}' object has no attribute '{}'",
                        obj.type_name(),
                        self.interner.resolve(attr)
                    ))),
                }
            }
            Value::Instance(i) => {
                let inst = i.borrow();
                if let Some(v) = inst.ns.get(attr) {
                    return Ok(v);
                }
                if let Some(v) = inst.class.lookup(attr) {
                    if let Value::Func(f) = &v {
                        return Ok(Value::BoundMethod {
                            recv: Box::new(obj.clone()),
                            func: f.clone(),
                        });
                    }
                    return Ok(v);
                }
                Err(PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{}'",
                    inst.class.name,
                    self.interner.resolve(attr)
                )))
            }
            Value::Class(c) => c.lookup(attr).ok_or_else(|| {
                PyErr::attribute_error(format!(
                    "type object '{}' has no attribute '{}'",
                    c.name,
                    self.interner.resolve(attr)
                ))
            }),
            Value::ExcValue(e) => {
                if attr == self.syms.message || attr == self.syms.args {
                    Ok(Value::str(&e.message))
                } else {
                    Err(PyErr::attribute_error(format!(
                        "'{}' object has no attribute '{}'",
                        e.kind.class_name(),
                        self.interner.resolve(attr)
                    )))
                }
            }
            other => Err(PyErr::attribute_error(format!(
                "'{}' object has no attribute '{}'",
                other.type_name(),
                self.interner.resolve(attr)
            ))),
        }
    }

    /// Attribute lookup with a runtime-supplied name (`getattr`, tooling).
    ///
    /// Module receivers intern the name so missing-attribute probes are
    /// still recorded as observed accesses; for other receivers a name
    /// that was never interned cannot be bound anywhere (all namespaces
    /// are symbol-keyed and every native/builtin name is pre-interned),
    /// so the lookup fails without growing the interner.
    ///
    /// # Errors
    ///
    /// `AttributeError` — the signal λ-trim's fallback wrapper watches for.
    pub fn get_attribute(&mut self, obj: &Value, attr: &str) -> Result<Value, PyErr> {
        if let Value::Module(_) = obj {
            let sym = self.interner.intern(attr);
            return self.attr_lookup(obj, sym, None);
        }
        match self.interner.lookup(attr) {
            Some(sym) => self.attr_lookup(obj, sym, None),
            None => Err(match obj {
                Value::Instance(i) => PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{attr}'",
                    i.borrow().class.name
                )),
                Value::Class(c) => PyErr::attribute_error(format!(
                    "type object '{}' has no attribute '{attr}'",
                    c.name
                )),
                Value::ExcValue(e) => PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{attr}'",
                    e.kind.class_name()
                )),
                other => PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{attr}'",
                    other.type_name()
                )),
            }),
        }
    }

    /// Resolve a slice bound to a clamped index within `len`.
    fn slice_bound(bound: Option<&Value>, len: usize, default: i64) -> Result<i64, PyErr> {
        let raw = match bound {
            None => default,
            Some(Value::Int(i)) => *i,
            Some(Value::Bool(b)) => *b as i64,
            Some(other) => {
                return Err(PyErr::type_error(format!(
                    "slice indices must be integers, not {}",
                    other.type_name()
                )))
            }
        };
        let adjusted = if raw < 0 { raw + len as i64 } else { raw };
        Ok(adjusted.clamp(0, len as i64))
    }

    pub(crate) fn slice_value(
        &mut self,
        v: &Value,
        start: Option<&Value>,
        stop: Option<&Value>,
    ) -> Result<Value, PyErr> {
        match v {
            Value::List(items) => {
                let items = items.borrow();
                let len = items.len();
                let s = Self::slice_bound(start, len, 0)? as usize;
                let e = Self::slice_bound(stop, len, len as i64)? as usize;
                let out: Vec<Value> = if s < e {
                    items[s..e].to_vec()
                } else {
                    Vec::new()
                };
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            Value::Tuple(items) => {
                let len = items.len();
                let s = Self::slice_bound(start, len, 0)? as usize;
                let e = Self::slice_bound(stop, len, len as i64)? as usize;
                let out: Vec<Value> = if s < e {
                    items[s..e].to_vec()
                } else {
                    Vec::new()
                };
                Ok(Value::tuple(out))
            }
            Value::Str(text) => {
                let chars: Vec<char> = text.chars().collect();
                let len = chars.len();
                let s = Self::slice_bound(start, len, 0)? as usize;
                let e = Self::slice_bound(stop, len, len as i64)? as usize;
                let out: String = if s < e {
                    chars[s..e].iter().collect()
                } else {
                    String::new()
                };
                Ok(Value::str(out))
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object is not sliceable",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn get_item(&mut self, obj: &Value, idx: &Value) -> Result<Value, PyErr> {
        match obj {
            Value::List(items) => {
                let items = items.borrow();
                let i = as_index(idx, items.len())?;
                Ok(items[i].clone())
            }
            Value::Tuple(items) => {
                let i = as_index(idx, items.len())?;
                Ok(items[i].clone())
            }
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let i = as_index(idx, chars.len())?;
                Ok(Value::str(chars[i].to_string()))
            }
            Value::Dict(pairs) => pairs
                .borrow()
                .iter()
                .find(|(k, _)| py_eq(k, idx))
                .map(|(_, v)| v.clone())
                .ok_or_else(|| PyErr::new(ExcKind::KeyError, py_repr(idx))),
            other => Err(PyErr::type_error(format!(
                "'{}' object is not subscriptable",
                other.type_name()
            ))),
        }
    }

    /// Call any callable value.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-callables or arity mismatches, plus whatever the
    /// callee raises.
    pub fn call_value(
        &mut self,
        f: Value,
        args: Vec<Value>,
        kwargs: Vec<(Symbol, Value)>,
    ) -> Result<Value, PyErr> {
        match f {
            Value::Func(func) => self.call_pyfunc(&func, args, kwargs),
            Value::BoundMethod { recv, func } => {
                let mut all = Vec::with_capacity(args.len() + 1);
                all.push(*recv);
                all.extend(args);
                self.call_pyfunc(&func, all, kwargs)
            }
            Value::Builtin(b) => {
                no_kwargs(b.name(), &kwargs)?;
                self.call_builtin(b, args)
            }
            Value::NativeMethod { recv, method } => {
                let callee = format_args!("{}.{}", recv.type_name(), method.name());
                no_kwargs(callee, &kwargs)?;
                self.call_native(&recv, method, args)
            }
            Value::Class(class) => {
                let init = match class.lookup(self.syms.init) {
                    Some(Value::Func(init)) => Some(init),
                    _ => None,
                };
                // Without `__init__`, a class takes no keyword arguments.
                // Positional ones are ignored, or for an exception class
                // the first is the message. (CPython rejects positional
                // arguments to a plain class too, but the corpus's rare
                // paths call generated classes with one.)
                if init.is_none() {
                    if class.is_exception {
                        no_kwargs(&class.name, &kwargs)?;
                    } else if !kwargs.is_empty() {
                        return Err(PyErr::type_error(format!(
                            "{}() takes no arguments",
                            class.name
                        )));
                    }
                }
                let instance = Rc::new(RefCell::new(PyInstance {
                    class: class.clone(),
                    ns: Namespace::new(),
                }));
                self.meter.alloc(self.cost.class_base_bytes / 4);
                let value = Value::Instance(instance);
                if let Some(init) = init {
                    let mut all = Vec::with_capacity(args.len() + 1);
                    all.push(value.clone());
                    all.extend(args);
                    self.call_pyfunc(&init, all, kwargs)?;
                } else if !args.is_empty() && class.is_exception {
                    // Exception-style constructor: first arg is the message.
                    if let Value::Instance(i) = &value {
                        i.borrow()
                            .ns
                            .set(self.syms.message, Value::str(py_str(&args[0])));
                    }
                }
                Ok(value)
            }
            Value::ExcClass(kind) => {
                no_kwargs(kind.class_name(), &kwargs)?;
                let message = args.first().map(py_str).unwrap_or_default();
                Ok(Value::ExcValue(Rc::new(PyErr::new(kind, message))))
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object is not callable",
                other.type_name()
            ))),
        }
    }

    fn call_pyfunc(
        &mut self,
        func: &Rc<PyFunc>,
        args: Vec<Value>,
        kwargs: Vec<(Symbol, Value)>,
    ) -> Result<Value, PyErr> {
        self.meter.tick(self.cost.call_ns);
        let params = &func.code.params;
        let locals = Namespace::new();
        let mut assigned = vec![false; params.len()];
        let positional = args.len();
        if positional > params.len() {
            return Err(PyErr::type_error(format!(
                "{}() takes {} positional arguments but {} were given",
                func.name(),
                params.len(),
                positional
            )));
        }
        for (i, v) in args.into_iter().enumerate() {
            locals.set(params[i].sym, v);
            assigned[i] = true;
        }
        for (k, v) in kwargs {
            match params.iter().position(|p| p.sym == k) {
                Some(i) => {
                    if assigned[i] {
                        return Err(PyErr::type_error(format!(
                            "{}() got multiple values for argument '{}'",
                            func.name(),
                            self.interner.resolve(k)
                        )));
                    }
                    locals.set(k, v);
                    assigned[i] = true;
                }
                None => {
                    return Err(PyErr::type_error(format!(
                        "{}() got an unexpected keyword argument '{}'",
                        func.name(),
                        self.interner.resolve(k)
                    )))
                }
            }
        }
        for (i, p) in params.iter().enumerate() {
            if !assigned[i] {
                match &func.defaults[i] {
                    Some(d) => {
                        locals.set(p.sym, d.clone());
                    }
                    None => {
                        return Err(PyErr::type_error(format!(
                            "{}() missing required argument: '{}'",
                            func.name(),
                            p.name
                        )))
                    }
                }
            }
        }
        let mut env = Env {
            globals: func.globals.clone(),
            locals: Some(locals),
            global_decls: HashSet::default(),
            module: func.module.clone(),
        };
        #[cfg(any(test, feature = "reference"))]
        let flow = if self.tree_walk {
            self.exec_suite(&func.code.body, &mut env)?
        } else {
            self.vm_run_suite(&crate::bytecode::func_code(&func.code), &mut env)?
        };
        #[cfg(not(any(test, feature = "reference")))]
        let flow = self.vm_run_suite(&crate::bytecode::func_code(&func.code), &mut env)?;
        match flow {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }
}

// -- builtins and native methods ------------------------------------------

impl Interpreter {
    fn call_builtin(&mut self, b: Builtin, args: Vec<Value>) -> Result<Value, PyErr> {
        let arity_err =
            |want: &str| PyErr::type_error(format!("{}() expects {want} argument(s)", b.name()));
        match b {
            Builtin::Print => {
                let line = args.iter().map(py_str).collect::<Vec<_>>().join(" ");
                self.meter.tick(2_000);
                self.stdout.push(line);
                Ok(Value::None)
            }
            Builtin::Len => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                let n = match v {
                    Value::Str(s) => s.chars().count(),
                    Value::List(l) => l.borrow().len(),
                    Value::Tuple(t) => t.len(),
                    Value::Dict(d) => d.borrow().len(),
                    other => {
                        return Err(PyErr::type_error(format!(
                            "object of type '{}' has no len()",
                            other.type_name()
                        )))
                    }
                };
                Ok(Value::Int(n as i64))
            }
            Builtin::Range => {
                let ints: Vec<i64> = args
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Ok(*i),
                        Value::Bool(b) => Ok(*b as i64),
                        other => Err(PyErr::type_error(format!(
                            "range() argument must be int, not {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                let (start, stop, step) = match ints.as_slice() {
                    [stop] => (0, *stop, 1),
                    [start, stop] => (*start, *stop, 1),
                    [start, stop, step] => (*start, *stop, *step),
                    _ => return Err(arity_err("1 to 3")),
                };
                if step == 0 {
                    return Err(PyErr::new(
                        ExcKind::ValueError,
                        "range() arg 3 must not be zero",
                    ));
                }
                let len = range_len(start, stop, step)?;
                let mut out = Vec::with_capacity(len);
                // Only the value after the last can pass `i64::MAX` or
                // `i64::MIN`, so `checked_add` never cuts the range short.
                out.extend(
                    std::iter::successors(Some(start), |i| i.checked_add(step))
                        .take(len)
                        .map(Value::Int),
                );
                Ok(Value::list(out))
            }
            Builtin::Str => Ok(Value::str(args.first().map(py_str).unwrap_or_default())),
            Builtin::Repr => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                Ok(Value::str(py_repr(v)))
            }
            Builtin::Int => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                match v {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    Value::Bool(b) => Ok(Value::Int(*b as i64)),
                    Value::Float(f) => float_to_int(*f).map(Value::Int),
                    Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                        PyErr::new(
                            ExcKind::ValueError,
                            format!("invalid literal for int(): {s:?}"),
                        )
                    }),
                    other => Err(PyErr::type_error(format!(
                        "int() argument must not be '{}'",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Float => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                match v {
                    Value::Int(i) => Ok(Value::Float(*i as f64)),
                    Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
                    Value::Float(f) => Ok(Value::Float(*f)),
                    Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                        PyErr::new(
                            ExcKind::ValueError,
                            format!("could not convert string to float: {s:?}"),
                        )
                    }),
                    other => Err(PyErr::type_error(format!(
                        "float() argument must not be '{}'",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Bool => Ok(Value::Bool(
                args.first().map(Value::truthy).unwrap_or(false),
            )),
            Builtin::Abs => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                match v {
                    Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    other => Err(PyErr::type_error(format!(
                        "bad operand type for abs(): '{}'",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Min | Builtin::Max => {
                let items = if args.len() == 1 {
                    self.iter_values(&args[0])?
                } else {
                    args
                };
                if items.is_empty() {
                    return Err(PyErr::new(ExcKind::ValueError, "empty sequence"));
                }
                let mut best = items[0].clone();
                for v in &items[1..] {
                    let replace = if b == Builtin::Min {
                        self.compare(CmpOp::Lt, v, &best)?
                    } else {
                        self.compare(CmpOp::Gt, v, &best)?
                    };
                    if replace {
                        best = v.clone();
                    }
                }
                Ok(best)
            }
            Builtin::Sum => {
                let items = self.iter_values(args.first().ok_or_else(|| arity_err("1"))?)?;
                let mut acc = Value::Int(0);
                for v in items {
                    acc = self.binary_op(BinOp::Add, acc, v)?;
                }
                Ok(acc)
            }
            Builtin::Round => {
                let v = args.first().ok_or_else(|| arity_err("1 or 2"))?;
                let x = match v {
                    Value::Int(i) => return Ok(Value::Int(*i)),
                    Value::Float(f) => *f,
                    other => {
                        return Err(PyErr::type_error(format!(
                            "type {} doesn't define __round__",
                            other.type_name()
                        )))
                    }
                };
                match args.get(1) {
                    None => Ok(Value::Int(x.round() as i64)),
                    Some(Value::Int(nd)) => {
                        let scale = 10f64.powi(*nd as i32);
                        Ok(Value::Float((x * scale).round() / scale))
                    }
                    Some(other) => Err(PyErr::type_error(format!(
                        "ndigits must be int, not {}",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Sorted => {
                let items = self.iter_values(args.first().ok_or_else(|| arity_err("1"))?)?;
                Ok(Value::list(self.merge_sort(items)?))
            }
            Builtin::Enumerate => {
                let items = self.iter_values(args.first().ok_or_else(|| arity_err("1"))?)?;
                Ok(Value::list(
                    items
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| Value::tuple(vec![Value::Int(i as i64), v]))
                        .collect(),
                ))
            }
            Builtin::Zip => {
                if args.len() != 2 {
                    return Err(arity_err("2"));
                }
                let a = self.iter_values(&args[0])?;
                let bv = self.iter_values(&args[1])?;
                Ok(Value::list(
                    a.into_iter()
                        .zip(bv)
                        .map(|(x, y)| Value::tuple(vec![x, y]))
                        .collect(),
                ))
            }
            Builtin::Isinstance => {
                if args.len() != 2 {
                    return Err(arity_err("2"));
                }
                Ok(Value::Bool(value_isinstance(&args[0], &args[1])))
            }
            Builtin::Type => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                Ok(Value::str(v.class_name()))
            }
            Builtin::Getattr => {
                let obj = args.first().ok_or_else(|| arity_err("2 or 3"))?;
                let name = match args.get(1) {
                    Some(Value::Str(s)) => Arc::clone(s),
                    _ => {
                        return Err(PyErr::type_error(
                            "getattr(): attribute name must be string",
                        ))
                    }
                };
                match self.get_attribute(obj, &name) {
                    Ok(v) => Ok(v),
                    Err(e) if matches!(e.kind, ExcKind::AttributeError) => match args.get(2) {
                        Some(default) => Ok(default.clone()),
                        None => Err(e),
                    },
                    Err(e) => Err(e),
                }
            }
            Builtin::Setattr => {
                if args.len() != 3 {
                    return Err(arity_err("3"));
                }
                let name = match &args[1] {
                    Value::Str(s) => Arc::clone(s),
                    _ => {
                        return Err(PyErr::type_error(
                            "setattr(): attribute name must be string",
                        ))
                    }
                };
                // Interning a brand-new name is fine: the namespace `set`
                // bumps the generation, invalidating any inline cache.
                let sym = self.interner.intern(&name);
                match &args[0] {
                    Value::Module(m) => {
                        m.ns.set(sym, args[2].clone());
                    }
                    Value::Instance(i) => {
                        i.borrow().ns.set(sym, args[2].clone());
                    }
                    Value::Class(c) => {
                        c.ns.set(sym, args[2].clone());
                    }
                    other => {
                        return Err(PyErr::type_error(format!(
                            "cannot set attributes of '{}'",
                            other.type_name()
                        )))
                    }
                }
                Ok(Value::None)
            }
            Builtin::Hasattr => {
                let obj = args.first().ok_or_else(|| arity_err("2"))?;
                let name = match args.get(1) {
                    Some(Value::Str(s)) => Arc::clone(s),
                    _ => {
                        return Err(PyErr::type_error(
                            "hasattr(): attribute name must be string",
                        ))
                    }
                };
                match self.get_attribute(obj, &name) {
                    Ok(_) => Ok(Value::Bool(true)),
                    Err(e) if matches!(e.kind, ExcKind::AttributeError) => Ok(Value::Bool(false)),
                    Err(e) => Err(e),
                }
            }
            Builtin::List => match args.first() {
                None => Ok(Value::list(vec![])),
                Some(v) => Ok(Value::list(self.iter_values(v)?)),
            },
            Builtin::Tuple => match args.first() {
                None => Ok(Value::tuple(vec![])),
                Some(v) => Ok(Value::tuple(self.iter_values(v)?)),
            },
            Builtin::Dict => match args.first() {
                None => Ok(Value::dict(vec![])),
                Some(Value::Dict(d)) => Ok(Value::dict(d.borrow().clone())),
                Some(v) => {
                    let items = self.iter_values(v)?;
                    let mut pairs = Vec::with_capacity(items.len());
                    for item in items {
                        let kv = self.iter_values(&item)?;
                        if kv.len() != 2 {
                            return Err(PyErr::new(
                                ExcKind::ValueError,
                                "dictionary update sequence element is not length 2",
                            ));
                        }
                        pairs.push((kv[0].clone(), kv[1].clone()));
                    }
                    Ok(Value::dict(pairs))
                }
            },
            Builtin::SimWork => {
                let ms = args.first().map(as_f64).unwrap_or(0.0);
                self.meter.tick(ms_to_ns(ms));
                Ok(Value::None)
            }
            Builtin::SimAlloc => {
                let mb = args.first().map(as_f64).unwrap_or(0.0);
                let bytes = mb_to_bytes(mb);
                self.meter.alloc(bytes);
                Ok(Value::Blob(bytes))
            }
            Builtin::SimExtCall => {
                let parts: Vec<String> = args.iter().map(py_str).collect();
                self.meter.tick(500_000);
                self.extcalls.push(parts.join(":"));
                Ok(Value::None)
            }
        }
    }

    /// Sort `items` stably by `<`, as `sorted()` does: a bottom-up merge
    /// sort that takes the right run's head only when it is strictly less
    /// than the left's. Comparisons may raise (`1 < "a"`), so this cannot
    /// use `slice::sort_by`, which needs a total order; the first error
    /// propagates.
    fn merge_sort(&mut self, items: Vec<Value>) -> Result<Vec<Value>, PyErr> {
        let n = items.len();
        let mut src = items;
        let mut dst = Vec::with_capacity(n);
        let mut width = 1;
        while width < n {
            dst.clear();
            for start in (0..n).step_by(2 * width) {
                let mid = (start + width).min(n);
                let end = (start + 2 * width).min(n);
                let (mut i, mut j) = (start, mid);
                while i < mid && j < end {
                    if self.compare(CmpOp::Lt, &src[j], &src[i])? {
                        dst.push(src[j].clone());
                        j += 1;
                    } else {
                        dst.push(src[i].clone());
                        i += 1;
                    }
                }
                dst.extend_from_slice(&src[i..mid]);
                dst.extend_from_slice(&src[j..end]);
            }
            std::mem::swap(&mut src, &mut dst);
            width *= 2;
        }
        Ok(src)
    }

    fn call_native(
        &mut self,
        recv: &Value,
        method: NativeMethod,
        args: Vec<Value>,
    ) -> Result<Value, PyErr> {
        use NativeMethod::*;
        self.meter.tick(1_000);
        match (recv, method) {
            (Value::List(items), Append) => {
                let v = args
                    .into_iter()
                    .next()
                    .ok_or_else(|| PyErr::type_error("append() takes exactly one argument"))?;
                items.borrow_mut().push(v);
                self.meter.alloc(self.cost.element_bytes);
                Ok(Value::None)
            }
            (Value::List(items), Extend) => {
                let arg = args
                    .into_iter()
                    .next()
                    .ok_or_else(|| PyErr::type_error("extend() takes exactly one argument"))?;
                let vals = self.iter_values(&arg)?;
                self.meter
                    .alloc(self.cost.element_bytes * vals.len() as u64);
                items.borrow_mut().extend(vals);
                Ok(Value::None)
            }
            (Value::List(items), Pop) => {
                let mut items = items.borrow_mut();
                let idx = match args.first() {
                    None => items.len().checked_sub(1),
                    Some(Value::Int(i)) => {
                        let i = *i;
                        if i < 0 {
                            items.len().checked_sub(i.unsigned_abs() as usize)
                        } else {
                            Some(i as usize)
                        }
                    }
                    Some(other) => {
                        return Err(PyErr::type_error(format!(
                            "pop index must be int, not {}",
                            other.type_name()
                        )))
                    }
                };
                match idx {
                    Some(i) if i < items.len() => Ok(items.remove(i)),
                    _ => Err(PyErr::new(ExcKind::IndexError, "pop from empty list")),
                }
            }
            (Value::List(items), Index) => {
                let needle = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("index() takes exactly one argument"))?;
                items
                    .borrow()
                    .iter()
                    .position(|v| py_eq(v, needle))
                    .map(|i| Value::Int(i as i64))
                    .ok_or_else(|| PyErr::new(ExcKind::ValueError, "value not in list"))
            }
            (Value::List(items), Count) => {
                let needle = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("count() takes exactly one argument"))?;
                let n = items.borrow().iter().filter(|v| py_eq(v, needle)).count();
                Ok(Value::Int(n as i64))
            }
            (Value::Dict(pairs), Get) => {
                let key = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("get() takes at least one argument"))?;
                Ok(pairs
                    .borrow()
                    .iter()
                    .find(|(k, _)| py_eq(k, key))
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| args.get(1).cloned().unwrap_or(Value::None)))
            }
            (Value::Dict(pairs), Keys) => Ok(Value::list(
                pairs.borrow().iter().map(|(k, _)| k.clone()).collect(),
            )),
            (Value::Dict(pairs), Values) => Ok(Value::list(
                pairs.borrow().iter().map(|(_, v)| v.clone()).collect(),
            )),
            (Value::Dict(pairs), Items) => Ok(Value::list(
                pairs
                    .borrow()
                    .iter()
                    .map(|(k, v)| Value::tuple(vec![k.clone(), v.clone()]))
                    .collect(),
            )),
            (Value::Dict(pairs), Update) => {
                let other = match args.first() {
                    Some(Value::Dict(d)) => d.borrow().clone(),
                    _ => return Err(PyErr::type_error("update() requires a dict")),
                };
                let mut pairs = pairs.borrow_mut();
                for (k, v) in other {
                    if let Some(slot) = pairs.iter_mut().find(|(pk, _)| py_eq(pk, &k)) {
                        slot.1 = v;
                    } else {
                        pairs.push((k, v));
                        self.meter.alloc(self.cost.element_bytes);
                    }
                }
                Ok(Value::None)
            }
            (Value::Dict(pairs), Pop) => {
                let key = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("pop() takes at least one argument"))?;
                let mut pairs = pairs.borrow_mut();
                match pairs.iter().position(|(k, _)| py_eq(k, key)) {
                    Some(i) => Ok(pairs.remove(i).1),
                    None => match args.get(1) {
                        Some(default) => Ok(default.clone()),
                        None => Err(PyErr::new(ExcKind::KeyError, py_repr(key))),
                    },
                }
            }
            (Value::Str(s), m) => self.call_str_method(s, m, args),
            _ => Err(PyErr::type_error("bad native method receiver")),
        }
    }

    fn call_str_method(
        &mut self,
        s: &str,
        method: NativeMethod,
        args: Vec<Value>,
    ) -> Result<Value, PyErr> {
        use NativeMethod::*;
        let str_arg = |i: usize| -> Result<String, PyErr> {
            match args.get(i) {
                Some(Value::Str(s)) => Ok(s.to_string()),
                Some(other) => Err(PyErr::type_error(format!(
                    "expected str argument, got {}",
                    other.type_name()
                ))),
                None => Err(PyErr::type_error("missing str argument")),
            }
        };
        match method {
            Upper => Ok(Value::str(s.to_uppercase())),
            Lower => Ok(Value::str(s.to_lowercase())),
            Strip => Ok(Value::str(s.trim())),
            Split => {
                let parts: Vec<Value> = match args.first() {
                    None => s.split_whitespace().map(Value::str).collect(),
                    Some(Value::Str(sep)) => s.split(&**sep).map(Value::str).collect(),
                    Some(other) => {
                        return Err(PyErr::type_error(format!(
                            "sep must be str, not {}",
                            other.type_name()
                        )))
                    }
                };
                Ok(Value::list(parts))
            }
            Join => {
                let items = self.iter_values(
                    args.first()
                        .ok_or_else(|| PyErr::type_error("join() takes exactly one argument"))?,
                )?;
                let mut parts = Vec::with_capacity(items.len());
                for v in items {
                    match v {
                        Value::Str(p) => parts.push(p.to_string()),
                        other => {
                            return Err(PyErr::type_error(format!(
                                "sequence item: expected str, {} found",
                                other.type_name()
                            )))
                        }
                    }
                }
                Ok(Value::str(parts.join(s)))
            }
            Replace => {
                let from = str_arg(0)?;
                let to = str_arg(1)?;
                Ok(Value::str(s.replace(&from, &to)))
            }
            Startswith => Ok(Value::Bool(s.starts_with(&str_arg(0)?))),
            Endswith => Ok(Value::Bool(s.ends_with(&str_arg(0)?))),
            Count => {
                let sub = str_arg(0)?;
                if sub.is_empty() {
                    return Ok(Value::Int(s.chars().count() as i64 + 1));
                }
                Ok(Value::Int(s.matches(&sub).count() as i64))
            }
            Format => {
                let mut out = String::new();
                let mut arg_i = 0usize;
                let mut chars = s.chars().peekable();
                while let Some(c) = chars.next() {
                    if c == '{' && chars.peek() == Some(&'}') {
                        chars.next();
                        let v = args.get(arg_i).ok_or_else(|| {
                            PyErr::new(
                                ExcKind::IndexError,
                                "Replacement index out of range for positional args",
                            )
                        })?;
                        out.push_str(&py_str(v));
                        arg_i += 1;
                    } else {
                        out.push(c);
                    }
                }
                Ok(Value::str(out))
            }
            _ => Err(PyErr::attribute_error("unsupported str method")),
        }
    }
}

/// Python `is` — identity for reference types, value identity for scalars.
fn py_is(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::None, Value::None) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => Arc::ptr_eq(x, y) || x == y,
        (Value::List(x), Value::List(y)) => Rc::ptr_eq(x, y),
        (Value::Dict(x), Value::Dict(y)) => Rc::ptr_eq(x, y),
        (Value::Tuple(x), Value::Tuple(y)) => Rc::ptr_eq(x, y),
        (Value::Func(x), Value::Func(y)) => Rc::ptr_eq(x, y),
        (Value::Class(x), Value::Class(y)) => Rc::ptr_eq(x, y),
        (Value::Instance(x), Value::Instance(y)) => Rc::ptr_eq(x, y),
        (Value::Module(x), Value::Module(y)) => Rc::ptr_eq(x, y),
        (Value::Builtin(x), Value::Builtin(y)) => x == y,
        (Value::ExcClass(x), Value::ExcClass(y)) => x == y,
        _ => false,
    }
}

fn collect_class_chain(class: &Rc<PyClass>, chain: &mut Vec<String>) {
    if !chain.iter().any(|c| c == &class.name) {
        chain.push(class.name.clone());
    }
    for b in &class.bases {
        collect_class_chain(b, chain);
    }
}

fn value_isinstance(v: &Value, class: &Value) -> bool {
    match class {
        Value::Class(c) => match v {
            Value::Instance(i) => i.borrow().class.isa(&c.name),
            _ => false,
        },
        Value::ExcClass(kind) => match v {
            Value::ExcValue(e) => {
                e.matches_handler(kind.class_name()) || kind.class_name() == "Exception"
            }
            Value::Instance(i) => i.borrow().class.is_exception && kind.class_name() == "Exception",
            _ => false,
        },
        Value::Builtin(b) => {
            matches!(
                (b, v),
                (Builtin::Str, Value::Str(_))
                    | (Builtin::Int, Value::Int(_))
                    | (Builtin::Int, Value::Bool(_))
                    | (Builtin::Float, Value::Float(_))
                    | (Builtin::Bool, Value::Bool(_))
                    | (Builtin::List, Value::List(_))
                    | (Builtin::Dict, Value::Dict(_))
                    | (Builtin::Tuple, Value::Tuple(_))
            )
        }
        Value::Tuple(classes) => classes.iter().any(|c| value_isinstance(v, c)),
        _ => false,
    }
}

/// Longest sequence `range()` or a repetition may build; longer ones raise
/// `ResourceExhausted`, as a platform would kill a function that tried.
const MAX_SEQUENCE_LEN: usize = 10_000_000;

/// How many copies `seq * n` makes of a sequence of `len` elements (bytes,
/// for a string): none for an empty sequence or `n <= 0`, and
/// `ResourceExhausted`, before anything is allocated, when the result
/// would be longer than [`MAX_SEQUENCE_LEN`].
fn repeat_count(len: usize, n: i64) -> Result<usize, PyErr> {
    if len == 0 || n <= 0 {
        return Ok(0);
    }
    match usize::try_from(n).ok().and_then(|n| len.checked_mul(n)) {
        Some(total) if total <= MAX_SEQUENCE_LEN => Ok(total / len),
        _ => Err(PyErr::new(
            ExcKind::ResourceExhausted,
            "repetition too large",
        )),
    }
}

/// How many values `range(start, stop, step)` holds (`step != 0`),
/// computed in `i128` so no bound overflows, and `ResourceExhausted`,
/// before anything is allocated, when there are more than
/// [`MAX_SEQUENCE_LEN`].
fn range_len(start: i64, stop: i64, step: i64) -> Result<usize, PyErr> {
    let (start, stop, step) = (i128::from(start), i128::from(stop), i128::from(step));
    let len = if step > 0 && start < stop {
        (stop - start + step - 1) / step
    } else if step < 0 && start > stop {
        (start - stop - step - 1) / -step
    } else {
        0
    };
    match usize::try_from(len) {
        Ok(len) if len <= MAX_SEQUENCE_LEN => Ok(len),
        _ => Err(PyErr::new(ExcKind::ResourceExhausted, "range too large")),
    }
}

/// Apply a unary operator. Integer negation wraps, like `+`, `-` and `*`.
pub(crate) fn unary_op(op: UnaryOp, v: Value) -> Result<Value, PyErr> {
    match op {
        UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Bool(b) => Ok(Value::Int(-(b as i64))),
            other => Err(PyErr::type_error(format!(
                "bad operand type for unary -: '{}'",
                other.type_name()
            ))),
        },
        UnaryOp::Pos => match v {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => Ok(v),
            other => Err(PyErr::type_error(format!(
                "bad operand type for unary +: '{}'",
                other.type_name()
            ))),
        },
    }
}

/// Python's `a // b` on `i64`, wrapping like the rest of pylite's
/// integer arithmetic: the quotient rounds toward −∞, and
/// `i64::MIN // -1` wraps to `i64::MIN`. `b` is nonzero.
fn int_floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if a.wrapping_rem(b) != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Python's `a % b` on `i64`: the remainder takes the divisor's sign, and
/// `i64::MIN % -1` is 0. `b` is nonzero.
fn int_mod(a: i64, b: i64) -> i64 {
    let r = a.wrapping_rem(b);
    if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    }
}

/// `base ** exp` wrapped modulo 2^64, by square-and-multiply over the
/// whole exponent.
fn int_pow(mut base: i64, mut exp: u64) -> i64 {
    let mut acc: i64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc
}

/// Python's `divmod(a, b)` on floats, after CPython's `float_divmod`: the
/// remainder takes the divisor's sign (a zero remainder too), and the
/// quotient is snapped to the nearest integer, a zero quotient carrying
/// the sign of `a / b`. `b` is nonzero.
fn float_div_mod(a: f64, b: f64) -> (f64, f64) {
    let mut rem = a % b;
    let mut div = (a - rem) / b;
    if rem != 0.0 {
        if (b < 0.0) != (rem < 0.0) {
            rem += b;
            div -= 1.0;
        }
    } else {
        rem = 0.0f64.copysign(b);
    }
    let floor_div = if div != 0.0 {
        let floor = div.floor();
        if div - floor > 0.5 {
            floor + 1.0
        } else {
            floor
        }
    } else {
        0.0f64.copysign(a / b)
    };
    (floor_div, rem)
}

/// Python's `a ** b` on floats (and on ints with a negative exponent), as
/// in CPython's `float_pow`: a zero base raised to a negative finite power
/// raises `ZeroDivisionError`, finite operands whose result overflows raise
/// `OverflowError`, and a negative finite base with a finite non-integral
/// exponent raises `ValueError` (CPython returns a complex number).
fn float_pow(a: f64, b: f64) -> Result<f64, PyErr> {
    if a == 0.0 && b < 0.0 && b.is_finite() {
        return Err(PyErr::new(
            ExcKind::ZeroDivisionError,
            "0.0 cannot be raised to a negative power",
        ));
    }
    if a < 0.0 && a.is_finite() && b.is_finite() && b.fract() != 0.0 {
        return Err(PyErr::new(
            ExcKind::ValueError,
            "negative number cannot be raised to a fractional power",
        ));
    }
    let out = a.powf(b);
    if out.is_infinite() && a.is_finite() && b.is_finite() {
        return Err(PyErr::new(
            ExcKind::OverflowError,
            "(34, 'Numerical result out of range')",
        ));
    }
    Ok(out)
}

/// Reject keyword arguments to a callee that takes none, with CPython's
/// message: pylite's builtins, native methods and `__init__`-less
/// exception classes take positional arguments only.
fn no_kwargs(callee: impl std::fmt::Display, kwargs: &[(Symbol, Value)]) -> Result<(), PyErr> {
    if kwargs.is_empty() {
        Ok(())
    } else {
        Err(PyErr::type_error(format!(
            "{callee}() takes no keyword arguments"
        )))
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Bool(b) => *b as i64 as f64,
        _ => f64::NAN,
    }
}

/// `int()` of a float: truncate toward zero and wrap modulo 2^64, like
/// pylite's integer arithmetic. A float of magnitude at least 2^127 is a
/// multiple of 2^64, so it gives 0. NaN and the infinities raise
/// `ValueError` with CPython's messages (pylite has no `OverflowError`).
fn float_to_int(f: f64) -> Result<i64, PyErr> {
    if f.is_nan() {
        return Err(PyErr::new(
            ExcKind::ValueError,
            "cannot convert float NaN to integer",
        ));
    }
    if f.is_infinite() {
        return Err(PyErr::new(
            ExcKind::ValueError,
            "cannot convert float infinity to integer",
        ));
    }
    let whole = f.trunc();
    Ok(if whole.abs() < 2f64.powi(127) {
        // Exact in i128; the cast to i64 keeps the low 64 bits.
        whole as i128 as i64
    } else {
        0
    })
}

fn as_index(idx: &Value, len: usize) -> Result<usize, PyErr> {
    let i = match idx {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        other => {
            return Err(PyErr::type_error(format!(
                "indices must be integers, not {}",
                other.type_name()
            )))
        }
    };
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 || adjusted as usize >= len {
        return Err(PyErr::new(ExcKind::IndexError, "index out of range"));
    }
    Ok(adjusted as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interpreter {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main(src).expect("program runs");
        it
    }

    fn run_err(src: &str) -> PyErr {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main(src).expect_err("program should fail")
    }

    fn run_with(mods: &[(&str, &str)], src: &str) -> Interpreter {
        let mut r = Registry::new();
        for (m, s) in mods {
            r.set_module(*m, *s);
        }
        let mut it = Interpreter::new(r);
        it.exec_main(src).expect("program runs");
        it
    }

    #[test]
    fn star_import_binds_public_names() {
        let it = run_with(
            &[("m", "alpha = 1\n_hidden = 2\ndef go():\n    return 3\n")],
            "from m import *\nprint(alpha, go())\n",
        );
        assert_eq!(it.stdout, vec!["1 3"]);
    }

    #[test]
    fn star_import_skips_private_names() {
        let e = {
            let mut r = Registry::new();
            r.set_module("m", "_hidden = 2\n");
            let mut it = Interpreter::new(r);
            it.exec_main("from m import *\nprint(_hidden)\n")
                .expect_err("private name must not be bound")
        };
        assert!(matches!(e.kind, ExcKind::NameError));
    }

    #[test]
    fn dotted_class_bases_resolve_through_modules() {
        let it = run_with(
            &[(
                "nn",
                "class Module:\n    def tag(self):\n        return \"base\"\n",
            )],
            "import nn\nclass Net(nn.Module):\n    pass\nprint(Net().tag())\n",
        );
        assert_eq!(it.stdout, vec!["base"]);
    }

    #[test]
    fn module_attribute_reads_are_observed() {
        let it = run_with(
            &[("m", "alpha = 1\nbeta = 2\ngamma = 3\n")],
            "import m\nfrom m import beta\nx = m.alpha\ny = getattr(m, \"gamma\")\n",
        );
        let seen = it.observed_accesses().get("m").cloned().unwrap_or_default();
        assert!(seen.contains("alpha"), "direct attribute read");
        assert!(seen.contains("beta"), "from-import read");
        assert!(seen.contains("gamma"), "getattr read");
    }

    #[test]
    fn observed_accesses_skip_non_registry_modules() {
        let it = run("x = 1\n");
        assert!(it.observed_accesses().is_empty());
    }

    #[test]
    fn arithmetic_and_print() {
        let it = run("print(1 + 2 * 3)\nprint(7 // 2, 7 % 2, 2 ** 10)\nprint(1 / 2)\n");
        assert_eq!(it.stdout, vec!["7", "3 1 1024", "0.5"]);
    }

    #[test]
    fn string_operations() {
        let it = run(r#"
s = "hello" + " " + "world"
print(s.upper())
print(s.split(" "))
print("-".join(["a", "b", "c"]))
print("x={} y={}".format(1, 2))
print(s.startswith("hello"), s.endswith("!"))
"#);
        assert_eq!(
            it.stdout,
            vec![
                "HELLO WORLD",
                "[\"hello\", \"world\"]",
                "a-b-c",
                "x=1 y=2",
                "True False"
            ]
        );
    }

    #[test]
    fn functions_defaults_and_kwargs() {
        let it = run(
            "def f(a, b=10, c=20):\n    return a + b + c\nprint(f(1))\nprint(f(1, 2))\nprint(f(1, c=3))\n",
        );
        assert_eq!(it.stdout, vec!["31", "23", "14"]);
    }

    #[test]
    fn classes_methods_and_attributes() {
        let it = run(r#"
class Counter:
    def __init__(self, start):
        self.n = start
    def incr(self, by=1):
        self.n += by
        return self.n

c = Counter(10)
c.incr()
c.incr(5)
print(c.n)
"#);
        assert_eq!(it.stdout, vec!["16"]);
    }

    #[test]
    fn inheritance_lookup() {
        let it = run(r#"
class Base:
    def hello(self):
        return "base"
class Child(Base):
    pass
print(Child().hello())
"#);
        assert_eq!(it.stdout, vec!["base"]);
    }

    #[test]
    fn loops_and_control_flow() {
        let it = run(r#"
total = 0
for i in range(10):
    if i == 5:
        continue
    if i == 8:
        break
    total += i
print(total)
n = 0
while n < 3:
    n += 1
print(n)
"#);
        assert_eq!(it.stdout, vec!["23", "3"]);
    }

    #[test]
    fn list_and_dict_methods() {
        let it = run(r#"
xs = [3, 1, 2]
xs.append(0)
print(sorted(xs))
print(xs.index(1), xs.count(2))
d = {"a": 1}
d["b"] = 2
print(d.get("a"), d.get("zz", -1))
print(len(d.keys()), d.items())
"#);
        assert_eq!(
            it.stdout,
            vec!["[0, 1, 2, 3]", "1 1", "1 -1", "2 [(\"a\", 1), (\"b\", 2)]"]
        );
    }

    #[test]
    fn try_except_catches_attribute_error() {
        let it = run(r#"
class A:
    pass
a = A()
try:
    a.missing
except AttributeError as e:
    print("caught")
"#);
        assert_eq!(it.stdout, vec!["caught"]);
    }

    #[test]
    fn uncaught_attribute_error_propagates() {
        let e = run_err("x = 1\nx.missing\n");
        assert!(matches!(e.kind, ExcKind::AttributeError));
    }

    #[test]
    fn raise_and_catch_custom_exception() {
        let it = run(r#"
class MyError(Exception):
    pass
try:
    raise MyError("boom")
except MyError as e:
    print("got", str(e))
"#);
        assert_eq!(it.stdout.len(), 1);
        assert!(it.stdout[0].starts_with("got"));
    }

    #[test]
    fn finally_always_runs() {
        let it = run(r#"
def f():
    try:
        raise ValueError("x")
    except ValueError:
        return 1
    finally:
        print("cleanup")
print(f())
"#);
        assert_eq!(it.stdout, vec!["cleanup", "1"]);
    }

    #[test]
    fn imports_bind_top_level_package() {
        let mut r = Registry::new();
        r.set_module("pkg", "x = 1\n");
        r.set_module("pkg.sub", "y = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import pkg.sub\nprint(pkg.sub.y)\nprint(pkg.x)\n")
            .unwrap();
        assert_eq!(it.stdout, vec!["2", "1"]);
    }

    #[test]
    fn import_alias_binds_leaf() {
        let mut r = Registry::new();
        r.set_module("pkg", "");
        r.set_module("pkg.sub", "y = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import pkg.sub as s\nprint(s.y)\n").unwrap();
        assert_eq!(it.stdout, vec!["2"]);
    }

    #[test]
    fn from_import_names_and_submodules() {
        let mut r = Registry::new();
        r.set_module("lib", "a = 1\n");
        r.set_module("lib.tools", "b = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("from lib import a, tools\nprint(a, tools.b)\n")
            .unwrap();
        assert_eq!(it.stdout, vec!["1 2"]);
    }

    #[test]
    fn from_import_missing_name_is_import_error() {
        let mut r = Registry::new();
        r.set_module("lib", "a = 1\n");
        let mut it = Interpreter::new(r);
        let e = it.exec_main("from lib import nope\n").unwrap_err();
        assert!(matches!(e.kind, ExcKind::ImportError));
    }

    #[test]
    fn modules_are_cached() {
        let mut r = Registry::new();
        r.set_module("m", "print(\"side effect\")\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import m\nimport m\n").unwrap();
        assert_eq!(it.stdout, vec!["side effect"], "module body runs once");
    }

    #[test]
    fn cyclic_imports_do_not_hang() {
        let mut r = Registry::new();
        r.set_module("a", "import b\nx = 1\n");
        r.set_module("b", "import a\ny = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import a\nprint(a.x, a.b.y)\n").unwrap();
        assert_eq!(it.stdout, vec!["1 2"]);
    }

    #[test]
    fn import_events_record_marginal_costs() {
        let mut r = Registry::new();
        r.set_module("heavy", "__lt_work__(100)\n__lt_alloc__(50)\nz = 1\n");
        r.set_module("light", "import heavy\nw = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import light\n").unwrap();
        let heavy = it
            .import_events
            .iter()
            .find(|e| e.module == "heavy")
            .unwrap();
        let light = it
            .import_events
            .iter()
            .find(|e| e.module == "light")
            .unwrap();
        assert_eq!(heavy.depth, 1);
        assert_eq!(light.depth, 0);
        assert!(heavy.time_ns >= 100_000_000);
        assert!(heavy.mem_bytes >= 50 * 1024 * 1024);
        assert!(
            light.time_ns >= heavy.time_ns,
            "parent marginal cost includes nested imports"
        );
    }

    #[test]
    fn failed_import_is_removed_from_sys_modules() {
        let mut r = Registry::new();
        r.set_module("bad", "raise ValueError(\"no\")\n");
        let mut it = Interpreter::new(r);
        assert!(it.exec_main("import bad\n").is_err());
        assert!(it.module("bad").is_none());
    }

    #[test]
    fn handler_invocation() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("def handler(event, context):\n    return event[\"n\"] * 2\n")
            .unwrap();
        let event = Value::dict(vec![(Value::str("n"), Value::Int(21))]);
        let out = it.call_handler("handler", event, Value::None).unwrap();
        assert!(py_eq(&out, &Value::Int(42)));
    }

    #[test]
    fn missing_handler_is_name_error() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("x = 1\n").unwrap();
        let e = it
            .call_handler("handler", Value::None, Value::None)
            .unwrap_err();
        assert!(matches!(e.kind, ExcKind::NameError));
    }

    #[test]
    fn step_limit_turns_infinite_loop_into_error() {
        let mut it = Interpreter::new(Registry::new());
        it.step_limit = 10_000;
        let e = it.exec_main("while True:\n    pass\n").unwrap_err();
        assert!(matches!(e.kind, ExcKind::ResourceExhausted));
    }

    #[test]
    fn step_limit_is_not_catchable() {
        let mut it = Interpreter::new(Registry::new());
        it.step_limit = 10_000;
        let e = it
            .exec_main("try:\n    while True:\n        pass\nexcept:\n    print(\"no\")\n")
            .unwrap_err();
        assert!(matches!(e.kind, ExcKind::ResourceExhausted));
        assert!(it.stdout.is_empty());
    }

    #[test]
    fn global_statement_writes_module_scope() {
        let it = run(r#"
counter = 0
def bump():
    global counter
    counter += 1
bump()
bump()
print(counter)
"#);
        assert_eq!(it.stdout, vec!["2"]);
    }

    #[test]
    fn getattr_setattr_hasattr() {
        let it = run(r#"
class Box:
    pass
b = Box()
setattr(b, "x", 5)
print(hasattr(b, "x"), getattr(b, "x"), getattr(b, "y", -1))
"#);
        assert_eq!(it.stdout, vec!["True 5 -1"]);
    }

    #[test]
    fn del_removes_module_attribute() {
        let mut r = Registry::new();
        r.set_module("m", "a = 1\nb = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import m\ndel m.a\nprint(hasattr(m, \"a\"), m.b)\n")
            .unwrap();
        assert_eq!(it.stdout, vec!["False 2"]);
    }

    #[test]
    fn isinstance_checks() {
        let it = run(r#"
print(isinstance(1, int), isinstance("s", str), isinstance([1], list))
print(isinstance(1.5, int))
class A:
    pass
class B(A):
    pass
print(isinstance(B(), A))
"#);
        assert_eq!(it.stdout, vec!["True True True", "False", "True"]);
    }

    #[test]
    fn sim_intrinsics_advance_meter() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("__lt_work__(250)\nblob = __lt_alloc__(10)\n")
            .unwrap();
        assert!(it.meter.clock_ns() >= 250_000_000);
        assert!(it.meter.mem_bytes() >= 10 * 1024 * 1024);
    }

    #[test]
    fn extcall_is_logged() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("__lt_extcall__(\"s3\", \"put_object\", \"bucket\")\n")
            .unwrap();
        assert_eq!(it.extcalls, vec!["s3:put_object:bucket"]);
    }

    #[test]
    fn tuple_unpacking_assignment() {
        let it =
            run("a, b = (1, 2)\nprint(a, b)\nfor k, v in [(1, 2), (3, 4)]:\n    print(k + v)\n");
        assert_eq!(it.stdout, vec!["1 2", "3", "7"]);
    }

    #[test]
    fn negative_indexing() {
        let it = run("xs = [1, 2, 3]\nprint(xs[-1], \"abc\"[-2])\n");
        assert_eq!(it.stdout, vec!["3 b"]);
    }

    #[test]
    fn zero_division_raises() {
        let e = run_err("x = 1 / 0\n");
        assert!(matches!(e.kind, ExcKind::ZeroDivisionError));
    }

    #[test]
    fn comparison_chains() {
        let it = run("print(1 < 2 < 3, 1 < 2 > 5)\nprint(2 in [1, 2], 5 not in [1, 2])\n");
        assert_eq!(it.stdout, vec!["True False", "True True"]);
    }

    #[test]
    fn conditional_expression_short_circuits() {
        let it = run("x = 1 if True else unbound_name\nprint(x)\nprint(True or unbound)\n");
        assert_eq!(it.stdout, vec!["1", "True"]);
    }

    #[test]
    fn memory_charged_for_bindings() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("a = 1\n").unwrap();
        let one = it.meter.mem_bytes();
        let mut it2 = Interpreter::new(Registry::new());
        it2.exec_main("a = 1\nb = 2\nc = 3\n").unwrap();
        assert!(it2.meter.mem_bytes() > one);
    }

    #[test]
    fn assert_raises_assertion_error() {
        let e = run_err("assert 1 == 2, \"mismatch\"\n");
        assert!(matches!(e.kind, ExcKind::AssertionError));
        assert_eq!(e.message, "mismatch");
    }

    #[test]
    fn list_comprehensions() {
        let it = run("xs = [i * 2 for i in range(5)]\nprint(xs)\nys = [i for i in range(10) if i % 3 == 0]\nprint(ys)\npairs = [a + b for a, b in [(1, 2), (3, 4)]]\nprint(pairs)\n");
        assert_eq!(it.stdout, vec!["[0, 2, 4, 6, 8]", "[0, 3, 6, 9]", "[3, 7]"]);
    }

    #[test]
    fn comprehension_respects_step_limit() {
        let mut it = Interpreter::new(Registry::new());
        it.step_limit = 1_000;
        let e = it
            .exec_main("xs = [i for i in range(100000)]\n")
            .unwrap_err();
        assert!(matches!(e.kind, ExcKind::ResourceExhausted));
    }

    #[test]
    fn slices_on_lists_strings_tuples() {
        let it = run("xs = [0, 1, 2, 3, 4]\nprint(xs[1:3])\nprint(xs[:2])\nprint(xs[3:])\nprint(xs[:])\nprint(\"hello\"[1:4])\nprint((1, 2, 3)[:2])\nprint(xs[-2:])\n");
        assert_eq!(
            it.stdout,
            vec![
                "[1, 2]",
                "[0, 1]",
                "[3, 4]",
                "[0, 1, 2, 3, 4]",
                "ell",
                "(1, 2)",
                "[3, 4]"
            ]
        );
    }

    #[test]
    fn slice_bounds_are_clamped() {
        let it = run("xs = [1, 2]\nprint(xs[0:99])\nprint(xs[5:9])\nprint(\"ab\"[-99:99])\n");
        assert_eq!(it.stdout, vec!["[1, 2]", "[]", "ab"]);
    }

    #[test]
    fn slicing_non_sequence_is_type_error() {
        let e = run_err("x = 5\ny = x[1:2]\n");
        assert!(matches!(e.kind, ExcKind::TypeError));
    }

    #[test]
    fn enumerate_and_zip() {
        let it = run("for i, v in enumerate([\"a\", \"b\"]):\n    print(i, v)\nfor x, y in zip([1, 2], [3, 4]):\n    print(x + y)\n");
        assert_eq!(it.stdout, vec!["0 a", "1 b", "4", "6"]);
    }

    #[test]
    fn inline_cache_invalidated_by_rebind() {
        let it = run_with(
            &[("m", "x = 1\n")],
            "import m\nfor i in range(3):\n    print(m.x)\n    m.x = m.x + 1\n",
        );
        assert_eq!(it.stdout, vec!["1", "2", "3"]);
    }

    #[test]
    fn inline_cache_del_invalidates_site() {
        let it = run_with(
            &[("m", "x = 1\n")],
            "import m\nout = []\nfor i in range(2):\n    try:\n        out.append(m.x)\n    except AttributeError:\n        out.append(0 - 1)\n    if i == 0:\n        del m.x\nprint(out)\n",
        );
        assert_eq!(it.stdout, vec!["[1, -1]"]);
    }

    /// The names in a run's read set, sorted.
    fn reads(it: &Interpreter) -> Vec<String> {
        let mut names: Vec<String> = it
            .read_set()
            .iter()
            .map(|&sym| it.interner.resolve(sym).to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn read_set_holds_loaded_evicted_and_unparsable_modules_only() {
        // Live imports are read, transitive ones too; `unused` is never
        // imported, so never read.
        let mut r = Registry::new();
        r.set_module("util", "CONST = [1, 2, 3]\n");
        r.set_module("lib", "import util\nshared = util.CONST\n");
        r.set_module("unused", "x = 1\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import lib\n").unwrap();
        assert_eq!(reads(&it), ["lib", "util"], "`unused` is never read");

        // A body that fails inside `try` leaves its module out of
        // `sys.modules`, but the run read it.
        let mut r = Registry::new();
        r.set_module("bad", "raise ValueError(\"no\")\n");
        let mut it = Interpreter::new(r);
        it.exec_main("try:\n    import bad\nexcept ValueError:\n    pass\n")
            .unwrap();
        assert!(it.module("bad").is_none());
        assert_eq!(reads(&it), ["bad"]);

        // So does a module that fails to parse: it never loads, but the
        // run depends on its text.
        let mut r = Registry::new();
        r.set_module("opt", "def broken(:\n");
        r.set_module(
            "lib",
            "try:\n    import opt\nexcept ImportError:\n    pass\n",
        );
        let mut it = Interpreter::new(r);
        it.exec_main("import lib\n").unwrap();
        assert_eq!(it.loaded_modules(), ["__main__", "lib"]);
        assert_eq!(reads(&it), ["lib", "opt"]);
    }

    #[test]
    fn ic_totals_split_handler_lookups_from_init_lookups() {
        let mut r = Registry::new();
        r.set_module("util", "X = 1\n");
        r.set_module("lib", "import util\na = util.X\nb = util.X\nc = util.X\n");
        let src = "import lib\n\ndef handler(event, context):\n    return lib.a + lib.b\n";
        let mut it = Interpreter::new(r);
        it.enable_ic_stats();
        it.exec_main(src).expect("program runs");
        let init = it.ic_init_totals();
        assert!(init.0 + init.1 > 0, "lib's init exercises IC sites");
        assert_eq!(it.ic_totals(), (0, 0), "no handler has run yet");
        for _ in 0..2 {
            it.call_handler("handler", Value::None, Value::None)
                .expect("handler runs");
        }
        let live = it.ic_totals();
        assert!(live.0 + live.1 > 0, "handlers exercise IC sites");
        assert_eq!(
            it.ic_init_totals(),
            init,
            "handlers leave init totals alone"
        );
    }

    // -- teardown: a dropped interpreter leaves no namespace alive ---------

    /// Runs `src` on a fresh interpreter, on the VM and on the reference,
    /// and checks that dropping it returns this thread's live-namespace
    /// count to its start.
    #[cfg(debug_assertions)]
    fn assert_teardown_frees_everything(r: &Registry, src: &str) {
        use crate::value::live_namespaces;
        for tree_walk in [false, true] {
            let engine = if tree_walk { "reference" } else { "vm" };
            let before = live_namespaces();
            {
                let mut it = Interpreter::new(r.clone());
                it.tree_walk = tree_walk;
                it.exec_main(src).expect("program runs");
                assert!(
                    live_namespaces() > before + 1,
                    "{engine}: modules beyond the builtins are alive"
                );
            }
            assert_eq!(live_namespaces(), before, "{engine}: {src:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn teardown_breaks_function_globals_cycles() {
        let mut r = Registry::new();
        r.set_module("m", "def f():\n    return 1\ng = f\n");
        assert_teardown_frees_everything(&r, "import m\nprint(m.g())\n");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn teardown_breaks_class_method_cycles() {
        let mut r = Registry::new();
        r.set_module(
            "m",
            "class C:\n    def get(self):\n        return self.v\nc = C()\nc.v = 3\n",
        );
        assert_teardown_frees_everything(&r, "import m\nprint(m.c.get())\n");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn teardown_frees_modules_whose_import_raised() {
        let mut r = Registry::new();
        r.set_module("bad", "def f():\n    pass\nraise ValueError()\n");
        let src = "try:\n    import bad\nexcept ValueError:\n    print(\"caught\")\n";
        let mut it = Interpreter::new(r.clone());
        it.exec_main(src).expect("program runs");
        assert_eq!(it.stdout, vec!["caught"]);
        assert!(it.module("bad").is_none(), "failed import left sys.modules");
        drop(it);
        assert_teardown_frees_everything(&r, src);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn teardown_breaks_main_cycles() {
        let src =
            "def f():\n    return 1\nclass C:\n    def m(self):\n        return f()\nc = C()\n";
        assert_teardown_frees_everything(&Registry::new(), src);
        // A second `exec_main` replaces `__main__` in `sys.modules`; the
        // replaced module is still torn down.
        let before = crate::value::live_namespaces();
        let mut it = Interpreter::new(Registry::new());
        it.exec_main(src).expect("program runs");
        it.exec_main(src).expect("program runs again");
        drop(it);
        assert_eq!(crate::value::live_namespaces(), before);
    }

    #[test]
    fn module_kept_past_its_interpreter_sees_an_empty_namespace() {
        let mut r = Registry::new();
        r.set_module("m", "x = 1\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import m\n").expect("program runs");
        let m = it.module("m").expect("m is loaded");
        assert!(!m.ns.is_empty());
        drop(it);
        assert!(m.ns.is_empty(), "teardown cleared the namespace");
    }

    #[test]
    fn range_len_counts_what_stepping_yields() {
        // Step from `start` until `stop` is reached or `i64` overflows.
        fn stepped(start: i64, stop: i64, step: i64) -> usize {
            std::iter::successors(Some(start), |i| i.checked_add(step))
                .take_while(|&i| if step > 0 { i < stop } else { i > stop })
                .count()
        }
        let (min, max) = (i64::MIN, i64::MAX);
        for start in -7..7 {
            for stop in -7..7 {
                for step in [-3, -2, -1, 1, 2, 3, max, min] {
                    let len = range_len(start, stop, step).expect("short range");
                    assert_eq!(len, stepped(start, stop, step), "{start} {stop} {step}");
                }
            }
        }
        for (start, stop, step) in [
            (max - 7, max, 2),
            (min + 7, min, -3),
            (min, max, max),
            (max, min, min),
            (0, max, 1 << 40),
        ] {
            let len = range_len(start, stop, step).expect("short range");
            assert_eq!(len, stepped(start, stop, step), "{start} {stop} {step}");
        }
        for (start, stop, step) in [(0, 100_000_000_000, 1), (min, max, 1), (max, min, -1)] {
            let err = range_len(start, stop, step).expect_err("too long");
            assert_eq!(err.kind, ExcKind::ResourceExhausted);
        }
        let limit = MAX_SEQUENCE_LEN as i64;
        assert_eq!(
            range_len(0, limit, 1).expect("at the limit"),
            MAX_SEQUENCE_LEN
        );
        assert!(range_len(0, limit + 1, 1).is_err());
    }
}
