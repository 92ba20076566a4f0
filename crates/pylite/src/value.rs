//! Runtime values and namespaces for the pylite interpreter.

use crate::intern::{Symbol, SymbolHashBuilder};
use crate::resolved::RFuncDef;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Deferred namespace contents: a replayed module's bindings are produced
/// on access instead of eagerly (see [`crate::snapshot`]). Lookups
/// materialize single bindings; iteration-style access materializes
/// everything. Methods must not touch the namespace being filled, and
/// repeated calls must agree (same keys, aliasing-consistent values).
pub(crate) trait LazyBindings: std::fmt::Debug {
    /// The full binding list, in insertion order. Keys must be unique.
    fn fill(&self) -> Vec<(Symbol, Value)>;
    /// The pending value bound to `key`, if any.
    fn get(&self, key: Symbol) -> Option<Value>;
    /// Whether `key` is among the pending bindings.
    fn contains(&self, key: Symbol) -> bool;
}

#[cfg(debug_assertions)]
thread_local! {
    static LIVE_NAMESPACES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The number of namespaces alive on the calling thread (debug builds
/// only). Namespaces hold `Rc`s and never cross threads, so the count is
/// exact and tests running on other threads cannot disturb it; tests use
/// it to check that a dropped interpreter left no namespace behind.
#[cfg(debug_assertions)]
pub fn live_namespaces() -> usize {
    LIVE_NAMESPACES.with(|c| c.get())
}

/// Counts its owning [`NsMap`] in [`live_namespaces`]; a zero-sized no-op
/// in release builds. The private field keeps every construction going
/// through `Default`, which counts.
#[derive(Debug)]
struct LiveToken(());

impl Default for LiveToken {
    fn default() -> Self {
        #[cfg(debug_assertions)]
        LIVE_NAMESPACES.with(|c| c.set(c.get() + 1));
        LiveToken(())
    }
}

impl Clone for LiveToken {
    fn clone(&self) -> Self {
        LiveToken::default()
    }
}

#[cfg(debug_assertions)]
impl Drop for LiveToken {
    fn drop(&mut self) {
        LIVE_NAMESPACES.with(|c| c.set(c.get() - 1));
    }
}

/// An insertion-ordered symbol-keyed map used for every namespace (module
/// globals, class dicts, instance dicts, call frames).
///
/// Iteration order is insertion order, which makes attribute enumeration —
/// and therefore Delta Debugging partitioning — fully deterministic.
///
/// Every mutation bumps a monotonically increasing *generation* counter;
/// the interpreter's inline caches key on it to detect rebinds (trims and
/// fallback rewrites mutate module namespaces and must invalidate).
#[derive(Debug, Clone, Default)]
pub struct NsMap {
    order: Vec<Symbol>,
    map: HashMap<Symbol, Value, SymbolHashBuilder>,
    generation: u64,
    /// Pending deferred contents. Every access through [`Namespace`]
    /// materializes this first, so the map below is never observed stale.
    lazy: Option<Rc<dyn LazyBindings>>,
    _live: LiveToken,
}

impl NsMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for `n` bindings (bulk builders: snapshot
    /// replay knows the final size up front).
    pub fn with_capacity(n: usize) -> Self {
        NsMap {
            order: Vec::with_capacity(n),
            map: HashMap::with_capacity_and_hasher(n, SymbolHashBuilder::default()),
            generation: 0,
            lazy: None,
            _live: LiveToken::default(),
        }
    }

    /// Materialize all pending deferred contents, if any. No-op otherwise.
    ///
    /// Bindings already materialized (or overwritten) individually keep
    /// their value; their key still lands in its pending insertion slot,
    /// ahead of any keys bound after replay — matching the order a live
    /// init would have produced.
    fn force(&mut self) {
        if let Some(fill) = self.lazy.take() {
            let pairs = fill.fill();
            self.generation += 1;
            self.map.reserve(pairs.len());
            let mut order = Vec::with_capacity(pairs.len() + self.order.len());
            for (key, value) in pairs {
                order.push(key);
                self.map.entry(key).or_insert(value);
            }
            order.append(&mut self.order);
            self.order = order;
        }
    }

    /// Materialize the single pending binding for `key`, if any, returning
    /// its value. The key joins `map` but not `order`: full ordering is
    /// reconstructed by [`NsMap::force`] when iteration-style access needs
    /// it. The generation is untouched — the binding was conceptually
    /// present all along, so caches holding the current generation stay
    /// valid.
    fn materialize(&mut self, key: Symbol) -> Option<Value> {
        let value = self.lazy.as_ref()?.get(key)?;
        self.map.insert(key, value.clone());
        Some(value)
    }

    /// Insert a binding known to be absent: one hash probe instead of
    /// `set`'s occupied-slot check. Callers must guarantee `key` is new —
    /// violating that leaves a stale duplicate in the insertion order.
    pub(crate) fn insert_new(&mut self, key: Symbol, value: Value) {
        debug_assert!(!self.map.contains_key(&key), "insert_new on bound key");
        self.generation += 1;
        self.order.push(key);
        self.map.insert(key, value);
    }

    /// Look up a binding.
    pub fn get(&self, key: Symbol) -> Option<&Value> {
        self.map.get(&key)
    }

    /// Insert or update a binding, returning the previous value if any.
    pub fn set(&mut self, key: Symbol, value: Value) -> Option<Value> {
        self.generation += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            return Some(std::mem::replace(slot, value));
        }
        self.order.push(key);
        self.map.insert(key, value);
        None
    }

    /// Remove a binding, returning it if present.
    pub fn remove(&mut self, key: Symbol) -> Option<Value> {
        let v = self.map.remove(&key)?;
        self.generation += 1;
        self.order.retain(|k| *k != key);
        Some(v)
    }

    /// Whether `key` is bound.
    pub fn contains(&self, key: Symbol) -> bool {
        self.map.contains_key(&key)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.order.iter().copied()
    }

    /// `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.order
            .iter()
            .map(move |k| (*k, self.map.get(k).expect("order and map are consistent")))
    }

    /// The mutation counter (bumped on every `set`/`remove`).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A shared, mutable namespace.
///
/// The backing map is private: all mutation goes through [`Namespace::set`]
/// and [`Namespace::remove`], so the generation counter the interpreter's
/// inline caches rely on cannot be bypassed. A namespace may carry
/// *deferred* contents (snapshot replay); every accessor materializes them
/// first, so deferral is unobservable apart from when the work happens.
#[derive(Debug, Clone, Default)]
pub struct Namespace(Rc<RefCell<NsMap>>);

impl Namespace {
    /// A fresh empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh namespace with room for `n` bindings.
    pub fn with_capacity(n: usize) -> Self {
        Namespace(Rc::new(RefCell::new(NsMap::with_capacity(n))))
    }

    /// Defer this namespace's contents to `fill`, which will run on first
    /// access. The namespace must still be empty and not already deferred.
    pub(crate) fn defer_to(&self, fill: Rc<dyn LazyBindings>) {
        let mut m = self.0.borrow_mut();
        debug_assert!(
            m.map.is_empty() && m.lazy.is_none(),
            "defer_to on a used namespace"
        );
        m.lazy = Some(fill);
    }

    /// Immutable access with any deferred contents materialized.
    fn map(&self) -> std::cell::Ref<'_, NsMap> {
        {
            let m = self.0.borrow();
            if m.lazy.is_none() {
                return m;
            }
        }
        self.0.borrow_mut().force();
        self.0.borrow()
    }

    /// Mutable access with any deferred contents materialized.
    fn map_mut(&self) -> std::cell::RefMut<'_, NsMap> {
        let mut m = self.0.borrow_mut();
        m.force();
        m
    }

    /// Insert a binding known to be absent (see [`NsMap::insert_new`]).
    pub(crate) fn insert_new(&self, key: Symbol, value: Value) {
        self.map_mut().insert_new(key, value);
    }

    /// Look up a binding (cloning the value handle). Deferred namespaces
    /// materialize only the requested binding, not the whole map.
    pub fn get(&self, key: Symbol) -> Option<Value> {
        {
            let m = self.0.borrow();
            if let Some(v) = m.get(key) {
                return Some(v.clone());
            }
            m.lazy.as_ref()?;
        }
        self.0.borrow_mut().materialize(key)
    }

    /// Insert or update a binding.
    pub fn set(&self, key: Symbol, value: Value) -> Option<Value> {
        let mut m = self.0.borrow_mut();
        if let Some(lazy) = m.lazy.clone() {
            // A materialized key takes a plain overwrite below, keeping
            // its pending insertion slot.
            if let std::collections::hash_map::Entry::Vacant(slot) = m.map.entry(key) {
                if let Some(prev) = lazy.get(key) {
                    // Overwriting a still-pending binding: materialize it
                    // so the original value is returned and the key keeps
                    // its pending insertion slot.
                    slot.insert(prev);
                } else {
                    // A genuinely new key sorts after every pending
                    // binding, so the pending order must exist first.
                    m.force();
                }
            }
        }
        m.set(key, value)
    }

    /// Remove a binding.
    pub fn remove(&self, key: Symbol) -> Option<Value> {
        self.map_mut().remove(key)
    }

    /// Drop every binding, and any deferred contents, leaving the namespace
    /// empty. The generation still bumps, so no inline cache survives.
    pub(crate) fn clear(&self) {
        // Interpreter teardown calls this from `Drop`, which must not
        // panic: a namespace still borrowed there (possible only while a
        // panic unwinds) is left as it is.
        let Ok(mut m) = self.0.try_borrow_mut() else {
            return;
        };
        m.generation += 1;
        m.order = Vec::new();
        m.map = HashMap::default();
        m.lazy = None;
    }

    /// Whether `key` is bound. Deferred namespaces answer without
    /// materializing anything.
    pub fn contains(&self, key: Symbol) -> bool {
        let m = self.0.borrow();
        m.contains(key) || m.lazy.as_ref().is_some_and(|l| l.contains(key))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the namespace has no bindings.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// Keys in insertion order (snapshot).
    pub fn key_syms(&self) -> Vec<Symbol> {
        self.map().keys().collect()
    }

    /// The namespace's mutation generation (see [`NsMap::generation`]).
    /// Reading it does not materialize deferred contents: single-binding
    /// materialization leaves the generation untouched (the binding was
    /// conceptually present all along), and a full force bumps it once —
    /// so a `(generation, value)` pair observed through [`Namespace::get`]
    /// stays coherent.
    pub fn generation(&self) -> u64 {
        self.0.borrow().generation()
    }

    /// Whether `self` and `other` are the *same* namespace object.
    pub fn same(&self, other: &Namespace) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

/// A user-defined function.
#[derive(Debug)]
pub struct PyFunc {
    /// The shared resolved definition (name, parameters, body).
    pub code: Arc<RFuncDef>,
    /// Default values, evaluated at definition time (parallel to params).
    pub defaults: Vec<Option<Value>>,
    /// The module globals the function closes over.
    pub globals: Namespace,
    /// Dotted name of the defining module (for diagnostics).
    pub module: Rc<str>,
}

impl PyFunc {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.code.name
    }
}

/// A user-defined class.
#[derive(Debug)]
pub struct PyClass {
    /// Class name.
    pub name: String,
    /// Base classes in MRO order (single inheritance chains in practice).
    pub bases: Vec<Rc<PyClass>>,
    /// Class attribute namespace.
    pub ns: Namespace,
    /// Whether the class derives (transitively) from `Exception`.
    pub is_exception: bool,
}

impl PyClass {
    /// Look up an attribute on the class or its base chain.
    pub fn lookup(&self, name: Symbol) -> Option<Value> {
        if let Some(v) = self.ns.get(name) {
            return Some(v);
        }
        for base in &self.bases {
            if let Some(v) = base.lookup(name) {
                return Some(v);
            }
        }
        None
    }

    /// Whether this class is, or derives from, a class named `name`.
    pub fn isa(&self, name: &str) -> bool {
        if self.name == name {
            return true;
        }
        self.bases.iter().any(|b| b.isa(name))
    }
}

/// An instance of a user-defined class.
#[derive(Debug)]
pub struct PyInstance {
    /// The instance's class.
    pub class: Rc<PyClass>,
    /// Instance attribute namespace.
    pub ns: Namespace,
}

/// A module object: a namespace populated by executing the module body.
#[derive(Debug)]
pub struct ModuleObj {
    /// Dotted module name.
    pub name: String,
    /// The module name as a symbol (keys observed-access recording).
    pub name_sym: Symbol,
    /// Whether the module came from the registry — only registry modules
    /// participate in observed-access tracking.
    pub tracked: bool,
    /// The module namespace.
    pub ns: Namespace,
}

/// Builtin free functions, dispatched by the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `print(*args)` — appends a line to the interpreter's stdout buffer.
    Print,
    /// `len(x)`.
    Len,
    /// `range(stop)` / `range(start, stop[, step])`.
    Range,
    /// `str(x)`.
    Str,
    /// `int(x)`.
    Int,
    /// `float(x)`.
    Float,
    /// `bool(x)`.
    Bool,
    /// `abs(x)`.
    Abs,
    /// `min(iterable)` / `min(a, b, ...)`.
    Min,
    /// `max(iterable)` / `max(a, b, ...)`.
    Max,
    /// `sum(iterable)`.
    Sum,
    /// `round(x[, ndigits])`.
    Round,
    /// `sorted(iterable)`.
    Sorted,
    /// `enumerate(iterable)` — returns a list of `(i, item)` tuples.
    Enumerate,
    /// `zip(a, b)` — returns a list of pairs.
    Zip,
    /// `isinstance(x, cls)`.
    Isinstance,
    /// `type(x)` — returns the type name as a string.
    Type,
    /// `getattr(obj, name[, default])`.
    Getattr,
    /// `setattr(obj, name, value)`.
    Setattr,
    /// `hasattr(obj, name)`.
    Hasattr,
    /// `repr(x)`.
    Repr,
    /// `list(iterable)`.
    List,
    /// `dict()` / `dict(pairs)`.
    Dict,
    /// `tuple(iterable)`.
    Tuple,
    /// `__lt_work__(ms)` — advance the virtual clock (models native work).
    SimWork,
    /// `__lt_alloc__(mb)` — charge simulated memory, returns an opaque blob.
    SimAlloc,
    /// `__lt_extcall__(service, op, payload...)` — log an external call.
    SimExtCall,
}

impl Builtin {
    /// The name the builtin is bound to.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Print => "print",
            Builtin::Len => "len",
            Builtin::Range => "range",
            Builtin::Str => "str",
            Builtin::Int => "int",
            Builtin::Float => "float",
            Builtin::Bool => "bool",
            Builtin::Abs => "abs",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Sum => "sum",
            Builtin::Round => "round",
            Builtin::Sorted => "sorted",
            Builtin::Enumerate => "enumerate",
            Builtin::Zip => "zip",
            Builtin::Isinstance => "isinstance",
            Builtin::Type => "type",
            Builtin::Getattr => "getattr",
            Builtin::Setattr => "setattr",
            Builtin::Hasattr => "hasattr",
            Builtin::Repr => "repr",
            Builtin::List => "list",
            Builtin::Dict => "dict",
            Builtin::Tuple => "tuple",
            Builtin::SimWork => "__lt_work__",
            Builtin::SimAlloc => "__lt_alloc__",
            Builtin::SimExtCall => "__lt_extcall__",
        }
    }

    /// All builtins, for installing into the builtin namespace.
    pub fn all() -> &'static [Builtin] {
        &[
            Builtin::Print,
            Builtin::Len,
            Builtin::Range,
            Builtin::Str,
            Builtin::Int,
            Builtin::Float,
            Builtin::Bool,
            Builtin::Abs,
            Builtin::Min,
            Builtin::Max,
            Builtin::Sum,
            Builtin::Round,
            Builtin::Sorted,
            Builtin::Enumerate,
            Builtin::Zip,
            Builtin::Isinstance,
            Builtin::Type,
            Builtin::Getattr,
            Builtin::Setattr,
            Builtin::Hasattr,
            Builtin::Repr,
            Builtin::List,
            Builtin::Dict,
            Builtin::Tuple,
            Builtin::SimWork,
            Builtin::SimAlloc,
            Builtin::SimExtCall,
        ]
    }
}

/// Methods on builtin container/string types, dispatched by the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeMethod {
    // list
    /// `list.append(x)`.
    Append,
    /// `list.extend(iterable)`.
    Extend,
    /// `list.pop([i])`.
    Pop,
    /// `list.index(x)`.
    Index,
    /// `list/str.count(x)`.
    Count,
    // dict
    /// `dict.get(key[, default])`.
    Get,
    /// `dict.keys()`.
    Keys,
    /// `dict.values()`.
    Values,
    /// `dict.items()`.
    Items,
    /// `dict.update(other)`.
    Update,
    // str
    /// `str.upper()`.
    Upper,
    /// `str.lower()`.
    Lower,
    /// `str.strip()`.
    Strip,
    /// `str.split([sep])`.
    Split,
    /// `str.join(iterable)`.
    Join,
    /// `str.replace(a, b)`.
    Replace,
    /// `str.startswith(prefix)`.
    Startswith,
    /// `str.endswith(suffix)`.
    Endswith,
    /// `str.format(args...)` — positional `{}` only.
    Format,
}

impl NativeMethod {
    /// Resolve a method name for a given receiver kind.
    pub fn resolve(recv: &Value, name: &str) -> Option<NativeMethod> {
        use NativeMethod::*;
        match recv {
            Value::List(_) => match name {
                "append" => Some(Append),
                "extend" => Some(Extend),
                "pop" => Some(Pop),
                "index" => Some(Index),
                "count" => Some(Count),
                _ => None,
            },
            Value::Dict(_) => match name {
                "get" => Some(Get),
                "keys" => Some(Keys),
                "values" => Some(Values),
                "items" => Some(Items),
                "update" => Some(Update),
                "pop" => Some(Pop),
                _ => None,
            },
            Value::Str(_) => match name {
                "upper" => Some(Upper),
                "lower" => Some(Lower),
                "strip" => Some(Strip),
                "split" => Some(Split),
                "join" => Some(Join),
                "replace" => Some(Replace),
                "startswith" => Some(Startswith),
                "endswith" => Some(Endswith),
                "format" => Some(Format),
                "count" => Some(Count),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Builtin exception kinds (mirrors the CPython hierarchy pylite needs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExcKind {
    /// Attribute lookup failure — the trigger for λ-trim's fallback (§5.4).
    AttributeError,
    /// Import machinery failure.
    ImportError,
    /// Unbound name.
    NameError,
    /// Operation on an inappropriate type.
    TypeError,
    /// Right type, wrong value.
    ValueError,
    /// Sequence index out of range.
    IndexError,
    /// Missing dict key.
    KeyError,
    /// Division or modulo by zero.
    ZeroDivisionError,
    /// Generic runtime error (also used for `raise Exception(..)`).
    RuntimeError,
    /// `assert` failure.
    AssertionError,
    /// Interpreter resource limit (step budget) exceeded.
    ResourceExhausted,
    /// A user-defined exception class.
    Custom(String),
}

impl ExcKind {
    /// The class name of the exception.
    pub fn class_name(&self) -> &str {
        match self {
            ExcKind::AttributeError => "AttributeError",
            ExcKind::ImportError => "ImportError",
            ExcKind::NameError => "NameError",
            ExcKind::TypeError => "TypeError",
            ExcKind::ValueError => "ValueError",
            ExcKind::IndexError => "IndexError",
            ExcKind::KeyError => "KeyError",
            ExcKind::ZeroDivisionError => "ZeroDivisionError",
            ExcKind::RuntimeError => "RuntimeError",
            ExcKind::AssertionError => "AssertionError",
            ExcKind::ResourceExhausted => "ResourceExhausted",
            ExcKind::Custom(name) => name,
        }
    }

    /// Builtin exception class names installed in the builtin namespace.
    pub fn builtin_names() -> &'static [&'static str] {
        &[
            "Exception",
            "AttributeError",
            "ImportError",
            "NameError",
            "TypeError",
            "ValueError",
            "IndexError",
            "KeyError",
            "ZeroDivisionError",
            "RuntimeError",
            "AssertionError",
        ]
    }

    /// Construct the kind for a builtin exception class name.
    pub fn from_class_name(name: &str) -> ExcKind {
        match name {
            "AttributeError" => ExcKind::AttributeError,
            "ImportError" => ExcKind::ImportError,
            "NameError" => ExcKind::NameError,
            "TypeError" => ExcKind::TypeError,
            "ValueError" => ExcKind::ValueError,
            "IndexError" => ExcKind::IndexError,
            "KeyError" => ExcKind::KeyError,
            "ZeroDivisionError" => ExcKind::ZeroDivisionError,
            "RuntimeError" | "Exception" => ExcKind::RuntimeError,
            "AssertionError" => ExcKind::AssertionError,
            other => ExcKind::Custom(other.to_owned()),
        }
    }

    /// Whether a handler `except <handler_class>` catches this kind.
    ///
    /// `Exception` catches everything; otherwise the class names must match.
    /// Custom kinds also record their base chain via [`PyErr::class_chain`].
    pub fn matches_handler(&self, handler_class: &str) -> bool {
        handler_class == "Exception" || self.class_name() == handler_class
    }
}

/// A raised pylite exception.
#[derive(Debug, Clone, PartialEq)]
pub struct PyErr {
    /// The exception kind.
    pub kind: ExcKind,
    /// The message (first constructor argument, stringified).
    pub message: String,
    /// For user-defined exception classes: the full class chain (self +
    /// bases) so `except Base:` matches subclasses.
    pub class_chain: Vec<String>,
}

impl PyErr {
    /// Construct an exception of `kind` with a message.
    pub fn new(kind: ExcKind, message: impl Into<String>) -> Self {
        PyErr {
            kind,
            message: message.into(),
            class_chain: Vec::new(),
        }
    }

    /// Shorthand for an [`ExcKind::AttributeError`].
    pub fn attribute_error(message: impl Into<String>) -> Self {
        Self::new(ExcKind::AttributeError, message)
    }

    /// Shorthand for an [`ExcKind::TypeError`].
    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new(ExcKind::TypeError, message)
    }

    /// Whether `except <handler_class>` catches this exception.
    pub fn matches_handler(&self, handler_class: &str) -> bool {
        if self.kind.matches_handler(handler_class) {
            return true;
        }
        self.class_chain.iter().any(|c| c == handler_class)
    }
}

impl fmt::Display for PyErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.message.is_empty() {
            write!(f, "{}", self.kind.class_name())
        } else {
            write!(f, "{}: {}", self.kind.class_name(), self.message)
        }
    }
}

impl std::error::Error for PyErr {}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable string (`Arc` so resolved-IR literals evaluate to a
    /// pointer clone of the shared allocation).
    Str(Arc<str>),
    /// Mutable list.
    List(Rc<RefCell<Vec<Value>>>),
    /// Immutable tuple.
    Tuple(Rc<Vec<Value>>),
    /// Mutable dict (association list; keys compared with [`py_eq`]).
    Dict(Rc<RefCell<Vec<(Value, Value)>>>),
    /// User-defined function.
    Func(Rc<PyFunc>),
    /// Bound method (`instance.method`).
    BoundMethod {
        /// The receiver.
        recv: Box<Value>,
        /// The underlying function.
        func: Rc<PyFunc>,
    },
    /// Builtin function.
    Builtin(Builtin),
    /// Builtin method bound to a receiver (`[].append`).
    NativeMethod {
        /// The receiver value.
        recv: Box<Value>,
        /// Which method.
        method: NativeMethod,
    },
    /// User-defined class.
    Class(Rc<PyClass>),
    /// Builtin exception class (e.g. `AttributeError` itself).
    ExcClass(ExcKind),
    /// An exception instance (result of `ValueError("msg")`).
    ExcValue(Rc<PyErr>),
    /// Instance of a user-defined class.
    Instance(Rc<RefCell<PyInstance>>),
    /// A module object.
    Module(Rc<ModuleObj>),
    /// An opaque simulated allocation of the given size in bytes, produced
    /// by `__lt_alloc__` (models model weights, native buffers, …).
    Blob(u64),
}

impl Value {
    /// Make a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Make a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    /// Make a tuple value.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(Rc::new(items))
    }

    /// Make a dict value from pairs.
    pub fn dict(pairs: Vec<(Value, Value)>) -> Value {
        Value::Dict(Rc::new(RefCell::new(pairs)))
    }

    /// Python truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.borrow().is_empty(),
            Value::Tuple(t) => !t.is_empty(),
            Value::Dict(d) => !d.borrow().is_empty(),
            _ => true,
        }
    }

    /// The `type(x)` name.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "NoneType",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::Dict(_) => "dict",
            Value::Func(_) | Value::BoundMethod { .. } => "function",
            Value::Builtin(_) | Value::NativeMethod { .. } => "builtin_function_or_method",
            Value::Class(_) => "type",
            Value::ExcClass(_) => "type",
            Value::ExcValue(_) => "Exception",
            Value::Instance(_) => "object",
            Value::Module(_) => "module",
            Value::Blob(_) => "blob",
        }
    }

    /// The class name used by `isinstance` / `type()` display.
    pub fn class_name(&self) -> String {
        match self {
            Value::Instance(i) => i.borrow().class.name.clone(),
            Value::ExcValue(e) => e.kind.class_name().to_owned(),
            other => other.type_name().to_owned(),
        }
    }
}

/// Structural equality following Python `==` semantics for the data types.
/// Identity-like values (functions, classes, modules) compare by pointer.
pub fn py_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::None, Value::None) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        (Value::Bool(x), Value::Int(y)) | (Value::Int(y), Value::Bool(x)) => (*x as i64) == *y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| py_eq(a, b))
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| py_eq(a, b))
        }
        (Value::Dict(x), Value::Dict(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len()
                && x.iter()
                    .all(|(k, v)| y.iter().any(|(k2, v2)| py_eq(k, k2) && py_eq(v, v2)))
        }
        (Value::Func(x), Value::Func(y)) => Rc::ptr_eq(x, y),
        (Value::Class(x), Value::Class(y)) => Rc::ptr_eq(x, y),
        (Value::Module(x), Value::Module(y)) => Rc::ptr_eq(x, y),
        (Value::Instance(x), Value::Instance(y)) => Rc::ptr_eq(x, y),
        (Value::Builtin(x), Value::Builtin(y)) => x == y,
        (Value::ExcClass(x), Value::ExcClass(y)) => x == y,
        (Value::Blob(x), Value::Blob(y)) => x == y,
        _ => false,
    }
}

/// `str(x)` rendering.
pub fn py_str(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => py_repr(other),
    }
}

/// `repr(x)` rendering.
pub fn py_repr(v: &Value) -> String {
    match v {
        Value::None => "None".into(),
        Value::Bool(true) => "True".into(),
        Value::Bool(false) => "False".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            let s = f.to_string();
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => format!("{:?}", &**s),
        Value::List(items) => {
            let inner: Vec<String> = items.borrow().iter().map(py_repr).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Tuple(items) => {
            let inner: Vec<String> = items.iter().map(py_repr).collect();
            if items.len() == 1 {
                format!("({},)", inner[0])
            } else {
                format!("({})", inner.join(", "))
            }
        }
        Value::Dict(pairs) => {
            let inner: Vec<String> = pairs
                .borrow()
                .iter()
                .map(|(k, v)| format!("{}: {}", py_repr(k), py_repr(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Value::Func(f) => format!("<function {}>", f.name()),
        Value::BoundMethod { func, .. } => format!("<bound method {}>", func.name()),
        Value::Builtin(b) => format!("<built-in function {}>", b.name()),
        Value::NativeMethod { method, .. } => format!("<built-in method {method:?}>"),
        Value::Class(c) => format!("<class '{}'>", c.name),
        Value::ExcClass(k) => format!("<class '{}'>", k.class_name()),
        Value::ExcValue(e) => {
            format!("{}({:?})", e.kind.class_name(), e.message)
        }
        Value::Instance(i) => format!("<{} object>", i.borrow().class.name),
        Value::Module(m) => format!("<module '{}'>", m.name),
        Value::Blob(bytes) => format!("<blob {bytes} bytes>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    fn syms(names: &[&str]) -> (Interner, Vec<Symbol>) {
        let i = Interner::new();
        let syms = names.iter().map(|n| i.intern(n)).collect();
        (i, syms)
    }

    #[test]
    fn nsmap_preserves_insertion_order() {
        let (_i, s) = syms(&["b", "a", "c"]);
        let mut m = NsMap::new();
        m.set(s[0], Value::Int(1));
        m.set(s[1], Value::Int(2));
        m.set(s[2], Value::Int(3));
        let keys: Vec<Symbol> = m.keys().collect();
        assert_eq!(keys, s);
    }

    #[test]
    fn nsmap_set_updates_in_place() {
        let (_i, s) = syms(&["a"]);
        let mut m = NsMap::new();
        m.set(s[0], Value::Int(1));
        let prev = m.set(s[0], Value::Int(2));
        assert!(matches!(prev, Some(Value::Int(1))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn nsmap_remove_drops_from_order() {
        let (_i, s) = syms(&["a", "b"]);
        let mut m = NsMap::new();
        m.set(s[0], Value::Int(1));
        m.set(s[1], Value::Int(2));
        m.remove(s[0]);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![s[1]]);
        assert!(!m.contains(s[0]));
    }

    #[test]
    fn namespace_generation_bumps_on_mutation() {
        let (_i, s) = syms(&["a", "b"]);
        let ns = Namespace::new();
        let g0 = ns.generation();
        ns.set(s[0], Value::Int(1));
        let g1 = ns.generation();
        assert!(g1 > g0);
        ns.set(s[0], Value::Int(2)); // in-place update must also bump
        let g2 = ns.generation();
        assert!(g2 > g1);
        ns.remove(s[0]);
        assert!(ns.generation() > g2);
        assert!(ns.get(s[1]).is_none());
    }

    #[test]
    fn namespace_same_is_identity() {
        let a = Namespace::new();
        let b = a.clone();
        let c = Namespace::new();
        assert!(a.same(&b));
        assert!(!a.same(&c));
    }

    #[test]
    fn truthiness_matches_python() {
        assert!(!Value::None.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list(vec![]).truthy());
        assert!(Value::list(vec![Value::None]).truthy());
    }

    #[test]
    fn py_eq_mixes_int_and_float() {
        assert!(py_eq(&Value::Int(2), &Value::Float(2.0)));
        assert!(!py_eq(&Value::Int(2), &Value::Float(2.5)));
        assert!(py_eq(&Value::Bool(true), &Value::Int(1)));
    }

    #[test]
    fn py_eq_structural_containers() {
        let a = Value::list(vec![Value::Int(1), Value::str("x")]);
        let b = Value::list(vec![Value::Int(1), Value::str("x")]);
        assert!(py_eq(&a, &b));
        let d1 = Value::dict(vec![(Value::str("k"), Value::Int(1))]);
        let d2 = Value::dict(vec![(Value::str("k"), Value::Int(1))]);
        assert!(py_eq(&d1, &d2));
    }

    #[test]
    fn repr_formats() {
        assert_eq!(py_repr(&Value::Float(2.0)), "2.0");
        assert_eq!(py_repr(&Value::str("hi")), "\"hi\"");
        assert_eq!(py_repr(&Value::tuple(vec![Value::Int(1)])), "(1,)");
        assert_eq!(py_str(&Value::str("hi")), "hi");
    }

    #[test]
    fn exc_matching() {
        let e = PyErr::new(ExcKind::AttributeError, "gone");
        assert!(e.matches_handler("AttributeError"));
        assert!(e.matches_handler("Exception"));
        assert!(!e.matches_handler("ValueError"));
    }

    #[test]
    fn custom_exception_chain_matching() {
        let mut e = PyErr::new(ExcKind::Custom("MyError".into()), "x");
        e.class_chain = vec!["MyError".into(), "BaseError".into()];
        assert!(e.matches_handler("BaseError"));
        assert!(e.matches_handler("Exception"));
    }

    #[test]
    fn class_isa_walks_bases() {
        let base = Rc::new(PyClass {
            name: "Base".into(),
            bases: vec![],
            ns: Namespace::new(),
            is_exception: false,
        });
        let derived = PyClass {
            name: "Derived".into(),
            bases: vec![base],
            ns: Namespace::new(),
            is_exception: false,
        };
        assert!(derived.isa("Base"));
        assert!(derived.isa("Derived"));
        assert!(!derived.isa("Other"));
    }
}
