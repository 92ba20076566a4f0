//! # pylite — a Python-subset runtime with instrumentable import machinery
//!
//! pylite is the language substrate of the λ-trim reproduction. It implements
//! the slice of Python that matters to cost-driven debloating of serverless
//! functions:
//!
//! * an indentation-aware [`lexer`] and recursive-descent [`parser`]
//!   producing a CPython-like [`ast`];
//! * an [`interp::Interpreter`] that compiles modules, functions and
//!   classes to the stack bytecode of [`bytecode`] and runs them, with
//!   real module objects, namespaces built by executing top-level
//!   statements, `import` / `from-import`, a `sys.modules` cache,
//!   exceptions (including the `AttributeError` that λ-trim's fallback
//!   relies on), classes, and a useful set of builtins;
//! * a [`registry::Registry`] virtual site-packages that the debloater
//!   rewrites in place;
//! * a deterministic [`cost`] model — a virtual clock and simulated memory
//!   accountant — plus the `__lt_work__` / `__lt_alloc__` / `__lt_extcall__`
//!   intrinsics that the synthetic library corpus uses to model native work.
//!
//! # Example
//!
//! ```
//! use pylite::{Interpreter, Registry};
//!
//! # fn main() -> Result<(), pylite::PyErr> {
//! let mut registry = Registry::new();
//! registry.set_module("mathlib", "def double(x):\n    return x * 2\n");
//!
//! let mut interp = Interpreter::new(registry);
//! interp.exec_main("import mathlib\nprint(mathlib.double(21))")?;
//! assert_eq!(interp.stdout, vec!["42"]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod cost;
pub mod intern;
pub mod interp;
pub mod lexer;
pub mod parser;
#[cfg(any(test, feature = "reference"))]
mod reference;
pub mod registry;
pub mod resolved;
pub mod value;

pub use ast::{unparse, unparse_stmt, Program, Stmt};
pub use bytecode::{compile_program, CodeObj, LinkedBody};
pub use cost::{CostModel, Meter};
pub use intern::{Interner, Symbol, SymbolHashBuilder};
pub use interp::{Engine, IcSiteStats, ImportEvent, Interpreter, ReadSet};
pub use parser::{parse, parse_expr, ParseError};
pub use registry::{Registry, SnapshotStats, SnapshotStore};
pub use resolved::{resolve_program, RProgram};
pub use value::{py_eq, py_repr, py_str, ExcKind, Namespace, PyErr, Value};
