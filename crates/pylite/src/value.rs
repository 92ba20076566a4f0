//! Runtime values and namespaces for the pylite interpreter.

use crate::intern::{Symbol, SymbolHashBuilder};
use crate::resolved::RFuncDef;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

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
/// through `Default`, which counts in debug builds.
#[derive(Debug)]
#[cfg_attr(not(debug_assertions), derive(Default))]
struct LiveToken(());

#[cfg(debug_assertions)]
impl Default for LiveToken {
    fn default() -> Self {
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
    _live: LiveToken,
}

impl NsMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
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
/// inline caches rely on cannot be bypassed.
#[derive(Debug, Clone, Default)]
pub struct Namespace(Rc<RefCell<NsMap>>);

impl Namespace {
    /// A fresh empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a binding (cloning the value handle).
    pub fn get(&self, key: Symbol) -> Option<Value> {
        self.0.borrow().get(key).cloned()
    }

    /// Insert or update a binding.
    pub fn set(&self, key: Symbol, value: Value) -> Option<Value> {
        self.0.borrow_mut().set(key, value)
    }

    /// Remove a binding.
    pub fn remove(&self, key: Symbol) -> Option<Value> {
        self.0.borrow_mut().remove(key)
    }

    /// Drop every binding, leaving the namespace empty. The generation
    /// still bumps, so no inline cache survives.
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
    }

    /// Whether `key` is bound.
    pub fn contains(&self, key: Symbol) -> bool {
        self.0.borrow().contains(key)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether the namespace has no bindings.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Keys in insertion order, copied out so the caller may mutate the
    /// namespace while walking them.
    pub fn key_syms(&self) -> Vec<Symbol> {
        self.0.borrow().keys().collect()
    }

    /// The namespace's mutation generation (see [`NsMap::generation`]).
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
    /// The method's name.
    pub fn name(self) -> &'static str {
        use NativeMethod::*;
        match self {
            Append => "append",
            Extend => "extend",
            Pop => "pop",
            Index => "index",
            Count => "count",
            Get => "get",
            Keys => "keys",
            Values => "values",
            Items => "items",
            Update => "update",
            Upper => "upper",
            Lower => "lower",
            Strip => "strip",
            Split => "split",
            Join => "join",
            Replace => "replace",
            Startswith => "startswith",
            Endswith => "endswith",
            Format => "format",
        }
    }

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
    /// A float result too large to represent.
    OverflowError,
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
            ExcKind::OverflowError => "OverflowError",
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
            "OverflowError",
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
            "OverflowError" => ExcKind::OverflowError,
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

/// CPython's `repr` of a float: the shortest digits that round-trip, in
/// scientific notation when the decimal exponent is below -4 or at least
/// 16 (`1e+16`, `1.5e-05`), else positional with at least one fractional
/// digit (`1000.0`, `0.0001`); `nan`, `inf` and `-inf` by name.
fn float_repr(f: f64) -> String {
    if f.is_nan() {
        return "nan".into();
    }
    if f.is_infinite() {
        return if f > 0.0 { "inf" } else { "-inf" }.into();
    }
    // Rust's `{:e}` prints the shortest round-trip digits as `d.ddde<exp>`.
    let sci = format!("{f:e}");
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` has an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` exponent is an integer");
    let (sign, mantissa) = match mantissa.strip_prefix('-') {
        Some(m) => ("-", m),
        None => ("", mantissa),
    };
    let digits = mantissa.replace('.', "");
    if !(-4..16).contains(&exp) {
        let (first, rest) = digits.split_at(1);
        let point = if rest.is_empty() { "" } else { "." };
        let exp_sign = if exp < 0 { '-' } else { '+' };
        format!("{sign}{first}{point}{rest}e{exp_sign}{:02}", exp.abs())
    } else if exp < 0 {
        let zeros = "0".repeat((-exp - 1) as usize);
        format!("{sign}0.{zeros}{digits}")
    } else {
        let point = exp as usize + 1;
        if digits.len() <= point {
            let zeros = "0".repeat(point - digits.len());
            format!("{sign}{digits}{zeros}.0")
        } else {
            format!("{sign}{}.{}", &digits[..point], &digits[point..])
        }
    }
}

/// `repr(x)` rendering.
pub fn py_repr(v: &Value) -> String {
    match v {
        Value::None => "None".into(),
        Value::Bool(true) => "True".into(),
        Value::Bool(false) => "False".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => float_repr(*f),
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
        for (f, repr) in [
            (2f64.powf(1000.0), "1.0715086071862673e+301"),
            (1e16, "1e+16"),
            (1e15, "1000000000000000.0"),
            (123456789012345.6, "123456789012345.6"),
            (1e-7, "1e-07"),
            (1.5e-5, "1.5e-05"),
            (1e-4, "0.0001"),
            (0.000123, "0.000123"),
            (-2.5e-300, "-2.5e-300"),
            (0.1, "0.1"),
            (-0.0, "-0.0"),
            (f64::NAN, "nan"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::MAX, "1.7976931348623157e+308"),
            (5e-324, "5e-324"),
        ] {
            assert_eq!(py_repr(&Value::Float(f)), repr, "{f:e}");
        }
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
