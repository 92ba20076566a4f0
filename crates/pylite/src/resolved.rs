//! Symbol-resolved IR: the AST with every identifier pre-interned.
//!
//! Parsing produces the string-based [`crate::ast`] tree, which the static
//! analyzer, the rewriter, and `unparse` keep using. The interpreter,
//! however, used to hash and clone `String` names on every variable lookup,
//! attribute access, and call — once *per probe*, thousands of times per
//! Delta-Debugging run. This module is a one-time resolve pass that mirrors
//! the AST into a parallel tree whose names are [`Symbol`]s (dense `u32`s
//! from the registry's shared [`Interner`]) and whose attribute-access
//! sites carry unique inline-cache ids.
//!
//! The resolved tree is cached next to the parse result in the registry
//! (one `OnceLock` slot per module, shared by all COW clones), so the pass
//! runs once per module *family*, not once per probe. It is intentionally
//! `Send + Sync` — function bodies are `Arc`-shared slices, which also
//! means defining a function no longer deep-clones its body.
//!
//! Resolution additionally precomputes the statement counts and base-class
//! paths the evaluator previously recomputed at definition time. The
//! mapping is 1:1 node-for-node with the source AST: the interpreter's
//! per-node cost ticks are unchanged by construction.

use crate::ast::{BinOp, BoolOp, CmpOp, Expr, Program, Stmt, UnaryOp};
use crate::intern::{Interner, Symbol};
use std::sync::{Arc, OnceLock};

/// A resolved module: a sequence of resolved statements.
#[derive(Debug, Clone, Default)]
pub struct RProgram {
    /// Top-level statements in program order.
    pub body: Vec<RStmt>,
}

/// One resolved `import` clause.
#[derive(Debug, Clone)]
pub struct RImportItem {
    /// Dotted module path, e.g. `torch.nn`.
    pub module: Box<str>,
    /// The name bound in the importing namespace (alias, else the first
    /// path component — CPython semantics for `import a.b`).
    pub bind: Symbol,
    /// When no alias was given, the top package name whose module object
    /// gets bound; `None` means the alias binds the leaf module.
    pub top: Option<Box<str>>,
}

/// One name in a resolved `from module import ...` statement.
#[derive(Debug, Clone)]
pub enum RFromName {
    /// `from m import *`.
    Star,
    /// `from m import name [as alias]`.
    Named {
        /// The attribute looked up in the source module.
        name: Symbol,
        /// The name bound locally (the alias, else `name` itself).
        bind: Symbol,
    },
}

/// A resolved `except` clause.
#[derive(Debug, Clone)]
pub struct RExceptHandler {
    /// Exception class name to match (kept as a string: [`crate::PyErr`]
    /// matching walks string class chains), or `None` for bare `except:`.
    pub exc_type: Option<Box<str>>,
    /// Binding introduced by `as name`.
    pub name: Option<Symbol>,
    /// Handler body.
    pub body: Vec<RStmt>,
}

/// A resolved function parameter.
#[derive(Debug, Clone)]
pub struct RParam {
    /// Parameter name as a symbol (keys the call frame's locals).
    pub sym: Symbol,
    /// Parameter name as text, for error messages.
    pub name: Arc<str>,
    /// Default value, evaluated at definition time.
    pub default: Option<RExpr>,
}

/// A resolved function definition, shared (`Arc`) between the defining
/// statement and every [`crate::value::PyFunc`] created from it.
#[derive(Debug)]
pub struct RFuncDef {
    /// Function name as a symbol (the attribute it binds).
    pub sym: Symbol,
    /// Function name as text, for `repr` and error messages.
    pub name: Arc<str>,
    /// Positional parameters.
    pub params: Vec<RParam>,
    /// Body statements, shared with the functions defined from this node.
    pub body: Arc<[RStmt]>,
    /// `ast::stmt_count` of the source body, precomputed for the cost
    /// model's definition-time allocation charge.
    pub stmt_count: u64,
    /// Lazily compiled bytecode for the body, shared by every `PyFunc`
    /// created from this definition (and, through the registry's resolved
    /// slot, by every COW clone of the module family).
    pub(crate) compiled: OnceLock<Arc<crate::bytecode::CodeObj>>,
}

/// A resolved class definition, shared (`Arc`) between the defining
/// statement and the code object that compiles it.
#[derive(Debug, Clone)]
pub struct RClassDef {
    /// Class name as a symbol (the attribute it binds).
    pub sym: Symbol,
    /// Class name as text (stored on the runtime class for messages).
    pub name: Arc<str>,
    /// Base-class paths, pre-split on `.` (`a.B` → `[a, B]`).
    pub bases: Vec<Vec<Symbol>>,
    /// Class body.
    pub body: Vec<RStmt>,
}

/// A resolved statement. Mirrors [`crate::ast::Stmt`] 1:1.
#[derive(Debug, Clone)]
pub enum RStmt {
    /// An expression evaluated for effect.
    Expr(RExpr),
    /// `target = value` (possibly chained).
    Assign {
        /// Assignment targets.
        targets: Vec<RExpr>,
        /// Right-hand side.
        value: RExpr,
    },
    /// `target op= value`.
    AugAssign {
        /// Target (Name / Attribute / Subscript).
        target: RExpr,
        /// The binary operator combined with assignment.
        op: BinOp,
        /// Right-hand side.
        value: RExpr,
    },
    /// `if`/`elif` chain with optional `else`.
    If {
        /// `(condition, body)` pairs.
        branches: Vec<(RExpr, Vec<RStmt>)>,
        /// `else` body (possibly empty).
        orelse: Vec<RStmt>,
    },
    /// `while test: body`.
    While {
        /// Loop condition.
        test: RExpr,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// `for targets in iter: body`.
    For {
        /// Loop variable names (tuple-unpacked when more than one).
        targets: Vec<Symbol>,
        /// Iterable expression.
        iter: RExpr,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// `def name(params): body`.
    FuncDef(Arc<RFuncDef>),
    /// `class name(bases): body`.
    ClassDef(Arc<RClassDef>),
    /// `return [expr]`.
    Return(Option<RExpr>),
    /// `pass`.
    Pass,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `import a.b [as c][, ...]`.
    Import {
        /// The imported modules.
        items: Vec<RImportItem>,
    },
    /// `from module import name [as alias][, ...]`.
    FromImport {
        /// Dotted source module.
        module: Box<str>,
        /// Imported names (or a single `*`).
        names: Vec<RFromName>,
    },
    /// `raise [expr]`.
    Raise(Option<RExpr>),
    /// `try` / `except` / `else` / `finally`.
    Try {
        /// Protected body.
        body: Vec<RStmt>,
        /// Exception handlers, tried in order.
        handlers: Vec<RExceptHandler>,
        /// `else` body, run if no exception was raised.
        orelse: Vec<RStmt>,
        /// `finally` body, always run.
        finalbody: Vec<RStmt>,
    },
    /// `global name, ...`.
    Global(Vec<Symbol>),
    /// `assert test[, msg]`.
    Assert {
        /// Condition that must hold.
        test: RExpr,
        /// Optional failure message.
        msg: Option<RExpr>,
    },
    /// `del target` (Name or Attribute).
    Del(RExpr),
}

/// A resolved expression. Mirrors [`crate::ast::Expr`] 1:1, so the
/// interpreter's per-node cost ticks are identical to the string AST walk.
#[derive(Debug, Clone)]
pub enum RExpr {
    /// `None` literal.
    None,
    /// `True` literal.
    True,
    /// `False` literal.
    False,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, pre-allocated so evaluation is a pointer clone.
    Str(Arc<str>),
    /// Identifier reference.
    Name(Symbol),
    /// List display `[a, b]`.
    List(Vec<RExpr>),
    /// Tuple display `(a, b)`.
    Tuple(Vec<RExpr>),
    /// Dict display `{k: v}`.
    Dict(Vec<(RExpr, RExpr)>),
    /// Attribute access `value.attr`.
    Attribute {
        /// Object expression.
        value: Box<RExpr>,
        /// Attribute name.
        attr: Symbol,
        /// Inline-cache site id, unique within the registry family.
        site: u32,
    },
    /// Subscript `value[index]`.
    Subscript {
        /// Container expression.
        value: Box<RExpr>,
        /// Index expression.
        index: Box<RExpr>,
    },
    /// Call `func(args, kw=..)`.
    Call {
        /// Callee expression.
        func: Box<RExpr>,
        /// Positional arguments.
        args: Vec<RExpr>,
        /// Keyword arguments.
        kwargs: Vec<(Symbol, RExpr)>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<RExpr>,
    },
    /// Binary arithmetic.
    Binary {
        /// Left operand.
        left: Box<RExpr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<RExpr>,
    },
    /// `a and b and c` / `a or b`.
    Bool {
        /// Connective.
        op: BoolOp,
        /// Operands (≥ 2).
        values: Vec<RExpr>,
    },
    /// Chained comparison `a < b <= c`.
    Compare {
        /// Leftmost operand.
        left: Box<RExpr>,
        /// `(op, operand)` pairs.
        ops: Vec<(CmpOp, RExpr)>,
    },
    /// Conditional expression `body if test else orelse`.
    Conditional {
        /// Condition.
        test: Box<RExpr>,
        /// Value when true.
        body: Box<RExpr>,
        /// Value when false.
        orelse: Box<RExpr>,
    },
    /// List comprehension `[element for targets in iter if cond]`.
    ListComp {
        /// Element expression.
        element: Box<RExpr>,
        /// Loop variable names.
        targets: Vec<Symbol>,
        /// Iterable expression.
        iter: Box<RExpr>,
        /// Optional filter condition.
        cond: Option<Box<RExpr>>,
    },
    /// Slice `value[start:stop]`.
    Slice {
        /// The sequence being sliced.
        value: Box<RExpr>,
        /// Inclusive start index.
        start: Option<Box<RExpr>>,
        /// Exclusive stop index.
        stop: Option<Box<RExpr>>,
    },
}

/// Resolve a parsed program against `interner`, interning every identifier
/// and allocating a fresh inline-cache site id per attribute access.
pub fn resolve_program(program: &Program, interner: &Interner) -> RProgram {
    let r = Resolver { interner };
    RProgram {
        body: r.stmts(&program.body),
    }
}

struct Resolver<'a> {
    interner: &'a Interner,
}

impl Resolver<'_> {
    fn sym(&self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Intern `s` and return the interner's shared `Arc` for its text, so
    /// resolved nodes alias the interner's allocation instead of copying.
    fn sym_text(&self, s: &str) -> (Symbol, Arc<str>) {
        let sym = self.sym(s);
        (sym, self.interner.resolve(sym))
    }

    fn stmts(&self, body: &[Stmt]) -> Vec<RStmt> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&self, stmt: &Stmt) -> RStmt {
        match stmt {
            Stmt::Expr(e) => RStmt::Expr(self.expr(e)),
            Stmt::Assign { targets, value } => RStmt::Assign {
                targets: self.exprs(targets),
                value: self.expr(value),
            },
            Stmt::AugAssign { target, op, value } => RStmt::AugAssign {
                target: self.expr(target),
                op: *op,
                value: self.expr(value),
            },
            Stmt::If { branches, orelse } => RStmt::If {
                branches: branches
                    .iter()
                    .map(|(test, body)| (self.expr(test), self.stmts(body)))
                    .collect(),
                orelse: self.stmts(orelse),
            },
            Stmt::While { test, body } => RStmt::While {
                test: self.expr(test),
                body: self.stmts(body),
            },
            Stmt::For {
                targets,
                iter,
                body,
            } => RStmt::For {
                targets: targets.iter().map(|t| self.sym(t)).collect(),
                iter: self.expr(iter),
                body: self.stmts(body),
            },
            Stmt::FuncDef(f) => {
                let (sym, name) = self.sym_text(&f.name);
                RStmt::FuncDef(Arc::new(RFuncDef {
                    sym,
                    name,
                    params: f
                        .params
                        .iter()
                        .map(|p| {
                            let (sym, name) = self.sym_text(&p.name);
                            RParam {
                                sym,
                                name,
                                default: p.default.as_ref().map(|d| self.expr(d)),
                            }
                        })
                        .collect(),
                    body: self.stmts(&f.body).into(),
                    stmt_count: crate::ast::stmt_count(&f.body) as u64,
                    compiled: OnceLock::new(),
                }))
            }
            Stmt::ClassDef(c) => {
                let (sym, name) = self.sym_text(&c.name);
                RStmt::ClassDef(Arc::new(RClassDef {
                    sym,
                    name,
                    bases: c
                        .bases
                        .iter()
                        .map(|b| b.split('.').map(|part| self.sym(part)).collect())
                        .collect(),
                    body: self.stmts(&c.body),
                }))
            }
            Stmt::Return(e) => RStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Stmt::Pass => RStmt::Pass,
            Stmt::Break => RStmt::Break,
            Stmt::Continue => RStmt::Continue,
            Stmt::Import { items } => RStmt::Import {
                items: items
                    .iter()
                    .map(|item| {
                        let (bind, top) = match &item.alias {
                            Some(alias) => (self.sym(alias), None),
                            None => {
                                let top =
                                    item.module.split('.').next().expect("nonempty module path");
                                (self.sym(top), Some(Box::from(top)))
                            }
                        };
                        RImportItem {
                            module: item.module.as_str().into(),
                            bind,
                            top,
                        }
                    })
                    .collect(),
            },
            Stmt::FromImport { module, names } => RStmt::FromImport {
                module: module.as_str().into(),
                names: names
                    .iter()
                    .map(|(name, alias)| {
                        if name == "*" {
                            RFromName::Star
                        } else {
                            let name = self.sym(name);
                            RFromName::Named {
                                name,
                                bind: alias.as_ref().map_or(name, |a| self.sym(a)),
                            }
                        }
                    })
                    .collect(),
            },
            Stmt::Raise(e) => RStmt::Raise(e.as_ref().map(|e| self.expr(e))),
            Stmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => RStmt::Try {
                body: self.stmts(body),
                handlers: handlers
                    .iter()
                    .map(|h| RExceptHandler {
                        exc_type: h.exc_type.as_deref().map(Box::from),
                        name: h.name.as_deref().map(|n| self.sym(n)),
                        body: self.stmts(&h.body),
                    })
                    .collect(),
                orelse: self.stmts(orelse),
                finalbody: self.stmts(finalbody),
            },
            Stmt::Global(names) => RStmt::Global(names.iter().map(|n| self.sym(n)).collect()),
            Stmt::Assert { test, msg } => RStmt::Assert {
                test: self.expr(test),
                msg: msg.as_ref().map(|m| self.expr(m)),
            },
            Stmt::Del(e) => RStmt::Del(self.expr(e)),
        }
    }

    fn exprs(&self, exprs: &[Expr]) -> Vec<RExpr> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&self, e: &Expr) -> RExpr {
        match e {
            Expr::None => RExpr::None,
            Expr::True => RExpr::True,
            Expr::False => RExpr::False,
            Expr::Int(v) => RExpr::Int(*v),
            Expr::Float(v) => RExpr::Float(*v),
            Expr::Str(s) => RExpr::Str(s.as_str().into()),
            Expr::Name(n) => RExpr::Name(self.sym(n)),
            Expr::List(items) => RExpr::List(self.exprs(items)),
            Expr::Tuple(items) => RExpr::Tuple(self.exprs(items)),
            Expr::Dict(pairs) => RExpr::Dict(
                pairs
                    .iter()
                    .map(|(k, v)| (self.expr(k), self.expr(v)))
                    .collect(),
            ),
            Expr::Attribute { value, attr } => RExpr::Attribute {
                value: Box::new(self.expr(value)),
                attr: self.sym(attr),
                site: self.interner.alloc_site(),
            },
            Expr::Subscript { value, index } => RExpr::Subscript {
                value: Box::new(self.expr(value)),
                index: Box::new(self.expr(index)),
            },
            Expr::Call { func, args, kwargs } => RExpr::Call {
                func: Box::new(self.expr(func)),
                args: self.exprs(args),
                kwargs: kwargs
                    .iter()
                    .map(|(k, v)| (self.sym(k), self.expr(v)))
                    .collect(),
            },
            Expr::Unary { op, operand } => RExpr::Unary {
                op: *op,
                operand: Box::new(self.expr(operand)),
            },
            Expr::Binary { left, op, right } => RExpr::Binary {
                left: Box::new(self.expr(left)),
                op: *op,
                right: Box::new(self.expr(right)),
            },
            Expr::Bool { op, values } => RExpr::Bool {
                op: *op,
                values: self.exprs(values),
            },
            Expr::Compare { left, ops } => RExpr::Compare {
                left: Box::new(self.expr(left)),
                ops: ops.iter().map(|(op, e)| (*op, self.expr(e))).collect(),
            },
            Expr::Conditional { test, body, orelse } => RExpr::Conditional {
                test: Box::new(self.expr(test)),
                body: Box::new(self.expr(body)),
                orelse: Box::new(self.expr(orelse)),
            },
            Expr::ListComp {
                element,
                targets,
                iter,
                cond,
            } => RExpr::ListComp {
                element: Box::new(self.expr(element)),
                targets: targets.iter().map(|t| self.sym(t)).collect(),
                iter: Box::new(self.expr(iter)),
                cond: cond.as_ref().map(|c| Box::new(self.expr(c))),
            },
            Expr::Slice { value, start, stop } => RExpr::Slice {
                value: Box::new(self.expr(value)),
                start: start.as_ref().map(|e| Box::new(self.expr(e))),
                stop: stop.as_ref().map(|e| Box::new(self.expr(e))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn resolved_tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RProgram>();
    }

    #[test]
    fn names_resolve_to_stable_symbols() {
        let interner = Interner::new();
        let p = parse("x = 1\ny = x\n").unwrap();
        let r = resolve_program(&p, &interner);
        let x = interner.lookup("x").unwrap();
        match (&r.body[0], &r.body[1]) {
            (RStmt::Assign { targets, .. }, RStmt::Assign { value, .. }) => {
                assert!(matches!(targets[0], RExpr::Name(s) if s == x));
                assert!(matches!(value, RExpr::Name(s) if *s == x));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn attribute_sites_are_unique() {
        let interner = Interner::new();
        let p = parse("a = m.f\nb = m.f\n").unwrap();
        let r = resolve_program(&p, &interner);
        let site_of = |s: &RStmt| match s {
            RStmt::Assign { value, .. } => match value {
                RExpr::Attribute { site, .. } => *site,
                other => panic!("not an attribute: {other:?}"),
            },
            other => panic!("not an assign: {other:?}"),
        };
        assert_ne!(site_of(&r.body[0]), site_of(&r.body[1]));
        assert_eq!(interner.site_count(), 2);
    }

    #[test]
    fn funcdef_precomputes_stmt_count() {
        let interner = Interner::new();
        let src = "def f(x):\n    if x:\n        return 1\n    return 2\n";
        let p = parse(src).unwrap();
        let r = resolve_program(&p, &interner);
        match &r.body[0] {
            RStmt::FuncDef(f) => {
                let ast_count = match &p.body[0] {
                    crate::ast::Stmt::FuncDef(f) => crate::ast::stmt_count(&f.body) as u64,
                    _ => unreachable!(),
                };
                assert_eq!(f.stmt_count, ast_count);
                assert_eq!(&*f.name, "f");
            }
            other => panic!("not a funcdef: {other:?}"),
        }
    }

    #[test]
    fn dotted_bases_are_pre_split() {
        let interner = Interner::new();
        let p = parse("class C(m.Base):\n    pass\n").unwrap();
        let r = resolve_program(&p, &interner);
        match &r.body[0] {
            RStmt::ClassDef(c) => {
                assert_eq!(c.bases.len(), 1);
                assert_eq!(c.bases[0].len(), 2);
                assert_eq!(c.bases[0][0], interner.lookup("m").unwrap());
                assert_eq!(c.bases[0][1], interner.lookup("Base").unwrap());
            }
            other => panic!("not a classdef: {other:?}"),
        }
    }
}
