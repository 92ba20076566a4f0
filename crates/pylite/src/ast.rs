//! Abstract syntax tree for pylite programs, plus an `unparse` pretty-printer.
//!
//! The AST is deliberately close to CPython's `ast` module for the constructs
//! λ-trim manipulates: top-level statements define module *attributes*
//! (functions, classes, assignments, imports, from-imports), which is the
//! debloating granularity of §6.1 of the paper.

use std::fmt::Write as _;

/// A parsed module: a sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements in program order.
    pub body: Vec<Stmt>,
}

/// One `import` clause: `import module` or `import module as alias`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportItem {
    /// Dotted module path, e.g. `torch.nn`.
    pub module: String,
    /// Optional `as` alias.
    pub alias: Option<String>,
}

impl ImportItem {
    /// The name this import binds in the importing namespace: the alias if
    /// present, otherwise the *first* component of the dotted path (CPython
    /// semantics for `import a.b`).
    pub fn bound_name(&self) -> &str {
        match &self.alias {
            Some(a) => a,
            None => self.module.split('.').next().expect("nonempty module path"),
        }
    }
}

/// An `except` clause of a `try` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptHandler {
    /// Exception class name to match, or `None` for a bare `except:`.
    pub exc_type: Option<String>,
    /// Binding introduced by `as name`.
    pub name: Option<String>,
    /// Handler body.
    pub body: Vec<Stmt>,
}

/// A function parameter with an optional default expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Default value, evaluated at definition time.
    pub default: Option<Expr>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name (the module/class attribute it binds).
    pub name: String,
    /// Positional parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A class definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Base class names (resolved at definition time).
    pub bases: Vec<String>,
    /// Class body (its bindings become class attributes).
    pub body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An expression evaluated for effect.
    Expr(Expr),
    /// `target = value` (possibly chained: `a = b = value`).
    Assign {
        /// Assignment targets (Name / Attribute / Subscript expressions).
        targets: Vec<Expr>,
        /// Right-hand side.
        value: Expr,
    },
    /// `target op= value`.
    AugAssign {
        /// Target (Name / Attribute / Subscript).
        target: Expr,
        /// The binary operator combined with assignment.
        op: BinOp,
        /// Right-hand side.
        value: Expr,
    },
    /// `if`/`elif` chain with optional `else`.
    If {
        /// `(condition, body)` pairs, first is `if`, rest are `elif`.
        branches: Vec<(Expr, Vec<Stmt>)>,
        /// `else` body (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `while test: body`.
    While {
        /// Loop condition.
        test: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for targets in iter: body`.
    For {
        /// Loop variable names (tuple-unpacked when more than one).
        targets: Vec<String>,
        /// Iterable expression.
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `def name(params): body`.
    FuncDef(FuncDef),
    /// `class name(bases): body`.
    ClassDef(ClassDef),
    /// `return [expr]`.
    Return(Option<Expr>),
    /// `pass`.
    Pass,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `import a.b [as c][, ...]`.
    Import {
        /// The imported modules.
        items: Vec<ImportItem>,
    },
    /// `from module import name [as alias][, ...]`.
    FromImport {
        /// Dotted source module.
        module: String,
        /// `(name, alias)` pairs.
        names: Vec<(String, Option<String>)>,
    },
    /// `raise [expr]`.
    Raise(Option<Expr>),
    /// `try` / `except` / `else` / `finally`.
    Try {
        /// Protected body.
        body: Vec<Stmt>,
        /// Exception handlers, tried in order.
        handlers: Vec<ExceptHandler>,
        /// `else` body, run if no exception was raised.
        orelse: Vec<Stmt>,
        /// `finally` body, always run.
        finalbody: Vec<Stmt>,
    },
    /// `global name, ...` — marks names as module-global inside a function.
    Global(Vec<String>),
    /// `assert test[, msg]`.
    Assert {
        /// Condition that must hold.
        test: Expr,
        /// Optional failure message.
        msg: Option<Expr>,
    },
    /// `del target` (Name or Attribute).
    Del(Expr),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical negation `not x`.
    Not,
    /// Unary plus `+x`.
    Pos,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
}

impl BinOp {
    /// How tightly the operator binds: `+ -`, then `* / // %`, then `**`.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 0,
            BinOp::Mul | BinOp::Div | BinOp::FloorDiv | BinOp::Mod => 1,
            BinOp::Pow => 2,
        }
    }

    /// Source text for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `in`
    In,
    /// `not in`
    NotIn,
    /// `is`
    Is,
    /// `is not`
    IsNot,
}

impl CmpOp {
    /// Source text for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::In => "in",
            CmpOp::NotIn => "not in",
            CmpOp::Is => "is",
            CmpOp::IsNot => "is not",
        }
    }
}

/// Boolean connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolOp {
    /// `and` (short-circuiting).
    And,
    /// `or` (short-circuiting).
    Or,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
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
    /// String literal.
    Str(String),
    /// Identifier reference.
    Name(String),
    /// List display `[a, b]`.
    List(Vec<Expr>),
    /// Tuple display `(a, b)`.
    Tuple(Vec<Expr>),
    /// Dict display `{k: v}`.
    Dict(Vec<(Expr, Expr)>),
    /// Attribute access `value.attr`.
    Attribute {
        /// Object expression.
        value: Box<Expr>,
        /// Attribute name.
        attr: String,
    },
    /// Subscript `value[index]`.
    Subscript {
        /// Container expression.
        value: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Call `func(args, kw=..)`.
    Call {
        /// Callee expression.
        func: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary arithmetic.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `a and b and c` / `a or b`.
    Bool {
        /// Connective.
        op: BoolOp,
        /// Operands (≥ 2).
        values: Vec<Expr>,
    },
    /// Chained comparison `a < b <= c`.
    Compare {
        /// Leftmost operand.
        left: Box<Expr>,
        /// `(op, operand)` pairs.
        ops: Vec<(CmpOp, Expr)>,
    },
    /// Conditional expression `body if test else orelse`.
    Conditional {
        /// Condition.
        test: Box<Expr>,
        /// Value when true.
        body: Box<Expr>,
        /// Value when false.
        orelse: Box<Expr>,
    },
    /// List comprehension `[element for targets in iter if cond]`.
    ListComp {
        /// Element expression.
        element: Box<Expr>,
        /// Loop variable names (tuple-unpacked when more than one).
        targets: Vec<String>,
        /// Iterable expression.
        iter: Box<Expr>,
        /// Optional filter condition.
        cond: Option<Box<Expr>>,
    },
    /// Slice `value[start:stop]` (either bound may be omitted).
    Slice {
        /// The sequence being sliced.
        value: Box<Expr>,
        /// Inclusive start index.
        start: Option<Box<Expr>>,
        /// Exclusive stop index.
        stop: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Count of AST nodes in this expression (used by the cost model).
    pub fn node_count(&self) -> usize {
        let mut n = 1;
        match self {
            Expr::List(items) | Expr::Tuple(items) => {
                n += items.iter().map(Expr::node_count).sum::<usize>();
            }
            Expr::Dict(pairs) => {
                n += pairs
                    .iter()
                    .map(|(k, v)| k.node_count() + v.node_count())
                    .sum::<usize>();
            }
            Expr::Attribute { value, .. } => n += value.node_count(),
            Expr::Subscript { value, index } => n += value.node_count() + index.node_count(),
            Expr::Call { func, args, kwargs } => {
                n += func.node_count();
                n += args.iter().map(Expr::node_count).sum::<usize>();
                n += kwargs.iter().map(|(_, v)| v.node_count()).sum::<usize>();
            }
            Expr::Unary { operand, .. } => n += operand.node_count(),
            Expr::Binary { left, right, .. } => n += left.node_count() + right.node_count(),
            Expr::Bool { values, .. } => {
                n += values.iter().map(Expr::node_count).sum::<usize>();
            }
            Expr::Compare { left, ops } => {
                n += left.node_count();
                n += ops.iter().map(|(_, e)| e.node_count()).sum::<usize>();
            }
            Expr::Conditional { test, body, orelse } => {
                n += test.node_count() + body.node_count() + orelse.node_count();
            }
            Expr::ListComp {
                element,
                iter,
                cond,
                ..
            } => {
                n += element.node_count() + iter.node_count();
                if let Some(c) = cond {
                    n += c.node_count();
                }
            }
            Expr::Slice { value, start, stop } => {
                n += value.node_count();
                if let Some(e) = start {
                    n += e.node_count();
                }
                if let Some(e) = stop {
                    n += e.node_count();
                }
            }
            _ => {}
        }
        n
    }
}

/// Count of statement nodes in a statement list, recursively.
pub fn stmt_count(body: &[Stmt]) -> usize {
    body.iter().map(single_stmt_count).sum()
}

fn single_stmt_count(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::If { branches, orelse } => {
            branches.iter().map(|(_, b)| stmt_count(b)).sum::<usize>() + stmt_count(orelse)
        }
        Stmt::While { body, .. } | Stmt::For { body, .. } => stmt_count(body),
        Stmt::FuncDef(f) => stmt_count(&f.body),
        Stmt::ClassDef(c) => stmt_count(&c.body),
        Stmt::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            stmt_count(body)
                + handlers.iter().map(|h| stmt_count(&h.body)).sum::<usize>()
                + stmt_count(orelse)
                + stmt_count(finalbody)
        }
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Unparser
// ---------------------------------------------------------------------------

/// Render a program back to pylite source text.
///
/// The output re-parses to an equal AST (`parse(unparse(p)) == p`), which the
/// rewriter's property tests rely on.
pub fn unparse(program: &Program) -> String {
    let mut out = String::new();
    for stmt in &program.body {
        write_stmt(&mut out, stmt, 0);
    }
    out
}

/// Render one top-level statement. `unparse` of a program is the
/// concatenation of this over its body.
pub fn unparse_stmt(stmt: &Stmt) -> String {
    let mut out = String::new();
    write_stmt(&mut out, stmt, 0);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_body(out: &mut String, body: &[Stmt], level: usize) {
    if body.is_empty() {
        indent(out, level);
        out.push_str("pass\n");
    } else {
        for stmt in body {
            write_stmt(out, stmt, level);
        }
    }
}

fn write_stmt(out: &mut String, stmt: &Stmt, level: usize) {
    indent(out, level);
    match stmt {
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{}", expr_src(e));
        }
        Stmt::Assign { targets, value } => {
            for t in targets {
                let _ = write!(out, "{} = ", expr_src(t));
            }
            let _ = writeln!(out, "{}", expr_src(value));
        }
        Stmt::AugAssign { target, op, value } => {
            let _ = writeln!(
                out,
                "{} {}= {}",
                expr_src(target),
                op.symbol(),
                expr_src(value)
            );
        }
        Stmt::If { branches, orelse } => {
            for (i, (test, body)) in branches.iter().enumerate() {
                if i > 0 {
                    indent(out, level);
                }
                let kw = if i == 0 { "if" } else { "elif" };
                let _ = writeln!(out, "{kw} {}:", expr_src(test));
                write_body(out, body, level + 1);
            }
            if !orelse.is_empty() {
                indent(out, level);
                out.push_str("else:\n");
                write_body(out, orelse, level + 1);
            }
        }
        Stmt::While { test, body } => {
            let _ = writeln!(out, "while {}:", expr_src(test));
            write_body(out, body, level + 1);
        }
        Stmt::For {
            targets,
            iter,
            body,
        } => {
            let _ = writeln!(out, "for {} in {}:", targets.join(", "), expr_src(iter));
            write_body(out, body, level + 1);
        }
        Stmt::FuncDef(f) => {
            let params: Vec<String> = f
                .params
                .iter()
                .map(|p| match &p.default {
                    Some(d) => format!("{}={}", p.name, expr_src(d)),
                    None => p.name.clone(),
                })
                .collect();
            let _ = writeln!(out, "def {}({}):", f.name, params.join(", "));
            write_body(out, &f.body, level + 1);
        }
        Stmt::ClassDef(c) => {
            if c.bases.is_empty() {
                let _ = writeln!(out, "class {}:", c.name);
            } else {
                let _ = writeln!(out, "class {}({}):", c.name, c.bases.join(", "));
            }
            write_body(out, &c.body, level + 1);
        }
        Stmt::Return(None) => out.push_str("return\n"),
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "return {}", expr_src(e));
        }
        Stmt::Pass => out.push_str("pass\n"),
        Stmt::Break => out.push_str("break\n"),
        Stmt::Continue => out.push_str("continue\n"),
        Stmt::Import { items } => {
            let rendered: Vec<String> = items
                .iter()
                .map(|i| match &i.alias {
                    Some(a) => format!("{} as {a}", i.module),
                    None => i.module.clone(),
                })
                .collect();
            let _ = writeln!(out, "import {}", rendered.join(", "));
        }
        Stmt::FromImport { module, names } => {
            let rendered: Vec<String> = names
                .iter()
                .map(|(n, a)| match a {
                    Some(a) => format!("{n} as {a}"),
                    None => n.clone(),
                })
                .collect();
            let _ = writeln!(out, "from {module} import {}", rendered.join(", "));
        }
        Stmt::Raise(None) => out.push_str("raise\n"),
        Stmt::Raise(Some(e)) => {
            let _ = writeln!(out, "raise {}", expr_src(e));
        }
        Stmt::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            out.push_str("try:\n");
            write_body(out, body, level + 1);
            for h in handlers {
                indent(out, level);
                match (&h.exc_type, &h.name) {
                    (Some(t), Some(n)) => {
                        let _ = writeln!(out, "except {t} as {n}:");
                    }
                    (Some(t), None) => {
                        let _ = writeln!(out, "except {t}:");
                    }
                    _ => out.push_str("except:\n"),
                }
                write_body(out, &h.body, level + 1);
            }
            if !orelse.is_empty() {
                indent(out, level);
                out.push_str("else:\n");
                write_body(out, orelse, level + 1);
            }
            if !finalbody.is_empty() {
                indent(out, level);
                out.push_str("finally:\n");
                write_body(out, finalbody, level + 1);
            }
        }
        Stmt::Global(names) => {
            let _ = writeln!(out, "global {}", names.join(", "));
        }
        Stmt::Assert { test, msg } => match msg {
            Some(m) => {
                let _ = writeln!(out, "assert {}, {}", expr_src(test), expr_src(m));
            }
            None => {
                let _ = writeln!(out, "assert {}", expr_src(test));
            }
        },
        Stmt::Del(e) => {
            let _ = writeln!(out, "del {}", expr_src(e));
        }
    }
}

/// Render an expression to source text (fully parenthesized where needed).
pub fn expr_src(e: &Expr) -> String {
    match e {
        Expr::None => "None".into(),
        Expr::True => "True".into(),
        Expr::False => "False".into(),
        Expr::Int(v) => v.to_string(),
        // An infinite literal (`1e400`) prints as a literal that reads
        // back as the infinity; `inf` would read back as a name.
        Expr::Float(v) if v.is_infinite() => {
            let sign = if *v < 0.0 { "-" } else { "" };
            format!("{sign}1e999")
        }
        Expr::Float(v) => {
            let s = v.to_string();
            if s.contains('.') || s.contains('e') || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Str(s) => format!("{s:?}"),
        Expr::Name(n) => n.clone(),
        Expr::List(items) => format!(
            "[{}]",
            items.iter().map(expr_src).collect::<Vec<_>>().join(", ")
        ),
        Expr::Tuple(items) => {
            if items.len() == 1 {
                format!("({},)", expr_src(&items[0]))
            } else {
                format!(
                    "({})",
                    items.iter().map(expr_src).collect::<Vec<_>>().join(", ")
                )
            }
        }
        Expr::Dict(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", expr_src(k), expr_src(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Expr::Attribute { value, attr } => format!("{}.{attr}", atom_src(value)),
        Expr::Subscript { value, index } => {
            format!("{}[{}]", atom_src(value), expr_src(index))
        }
        Expr::Call { func, args, kwargs } => {
            let mut parts: Vec<String> = args.iter().map(expr_src).collect();
            parts.extend(kwargs.iter().map(|(k, v)| format!("{k}={}", expr_src(v))));
            format!("{}({})", atom_src(func), parts.join(", "))
        }
        Expr::Unary { op, operand } => {
            let operand = if prefix_chain(*op, operand) {
                expr_src(operand)
            } else {
                atom_src(operand)
            };
            match op {
                UnaryOp::Neg => format!("-{operand}"),
                UnaryOp::Pos => format!("+{operand}"),
                UnaryOp::Not => format!("not {operand}"),
            }
        }
        Expr::Binary { .. }
        | Expr::Bool { .. }
        | Expr::Compare { .. }
        | Expr::Conditional { .. } => {
            format!("({})", bare_src(e))
        }
        Expr::ListComp {
            element,
            targets,
            iter,
            cond,
        } => {
            let mut s = format!(
                "[{} for {} in {}",
                expr_src(element),
                targets.join(", "),
                expr_src(iter)
            );
            if let Some(c) = cond {
                let _ = write!(s, " if {}", expr_src(c));
            }
            s.push(']');
            s
        }
        Expr::Slice { value, start, stop } => format!(
            "{}[{}:{}]",
            atom_src(value),
            start.as_deref().map(expr_src).unwrap_or_default(),
            stop.as_deref().map(expr_src).unwrap_or_default()
        ),
    }
}

/// An operator expression without the parentheses [`expr_src`] puts
/// around it. A chain of one operator prints flat, as the parser reads it:
/// `(a - b + c)`, `(a ** b ** c)`, `(a if b else c if d else e)`.
fn bare_src(e: &Expr) -> String {
    match e {
        Expr::Binary { left, op, right } => {
            let (left, right) = if *op == BinOp::Pow {
                (operand_src(left, true), chain_src(right, *op))
            } else {
                (chain_src(left, *op), operand_src(right, false))
            };
            format!("{left} {} {right}", op.symbol())
        }
        Expr::Bool { op, values } => {
            let sep = match op {
                BoolOp::And => " and ",
                BoolOp::Or => " or ",
            };
            values.iter().map(expr_src).collect::<Vec<_>>().join(sep)
        }
        Expr::Compare { left, ops } => {
            let mut s = operand_src(left, false);
            for (op, operand) in ops {
                let _ = write!(s, " {} {}", op.symbol(), operand_src(operand, false));
            }
            s
        }
        Expr::Conditional { test, body, orelse } => {
            let orelse = match **orelse {
                Expr::Conditional { .. } => bare_src(orelse),
                _ => expr_src(orelse),
            };
            format!("{} if {} else {orelse}", expr_src(body), expr_src(test))
        }
        _ => expr_src(e),
    }
}

/// The operand of `op` on the side `op` groups towards (the left of `+`,
/// the right of `**`): an operation of the same precedence needs no
/// parentheses there.
fn chain_src(operand: &Expr, op: BinOp) -> String {
    if same_precedence(operand, op) {
        bare_src(operand)
    } else {
        operand_src(operand, false)
    }
}

/// An operand of an arithmetic operator or a comparison, or with `base`
/// the base of a `**`. `not` binds more loosely than any of these, and
/// `-`/`+` more loosely than a base, so such a prefix is parenthesized:
/// `(not a) + b` must not print as `(not a + b)`, nor `(-2) ** 2` as
/// `(-2 ** 2)`.
fn operand_src(operand: &Expr, base: bool) -> String {
    if loose_prefix(operand, base) {
        atom_src(operand)
    } else {
        expr_src(operand)
    }
}

/// True if `operand` is a prefix [`operand_src`] parenthesizes.
fn loose_prefix(operand: &Expr, base: bool) -> bool {
    matches!(operand, Expr::Unary { op, .. } if base || *op == UnaryOp::Not)
}

/// True if `operand` is a binary operation of `op`'s precedence.
fn same_precedence(operand: &Expr, op: BinOp) -> bool {
    matches!(operand, Expr::Binary { op: inner, .. } if inner.precedence() == op.precedence())
}

/// True if `operand` of prefix `op` is itself a prefix the parser reads in
/// the same chain (`- -x`, `-+x`, `not not x`), which needs no parentheses.
fn prefix_chain(op: UnaryOp, operand: &Expr) -> bool {
    match operand {
        Expr::Unary { op: inner, .. } => (op == UnaryOp::Not) == (*inner == UnaryOp::Not),
        _ => false,
    }
}

/// True if [`atom_src`] prints `e` as [`expr_src`] does.
fn is_atom(e: &Expr) -> bool {
    matches!(
        e,
        Expr::None
            | Expr::True
            | Expr::False
            | Expr::Int(_)
            | Expr::Str(_)
            | Expr::Name(_)
            | Expr::List(_)
            | Expr::Tuple(_)
            | Expr::Dict(_)
            | Expr::Attribute { .. }
            | Expr::Subscript { .. }
            | Expr::Call { .. }
    )
}

/// Like [`expr_src`] but parenthesizes non-atomic expressions so the result
/// can be used as the base of an attribute access / call / subscript.
fn atom_src(e: &Expr) -> String {
    if is_atom(e) {
        expr_src(e)
    } else {
        format!("({})", expr_src(e))
    }
}

/// How deeply the parser nests reading [`unparse_stmt`]`(stmt)` back: the
/// most expressions, prefix operators and suites open at once, the levels
/// its nesting bound counts. It follows [`write_stmt`] and [`expr_src`]
/// print step by print step.
pub(crate) fn printed_depth(stmt: &Stmt) -> u32 {
    // Each expression of a statement is read as one `expression`, a level.
    let expr = |e: &Expr| 1 + expr_depth(e);
    // A suite is a level; an empty one prints as `pass`.
    let suite = |body: &[Stmt]| 1 + body.iter().map(printed_depth).max().unwrap_or(0);
    // `else:` and `finally:` print only when they hold statements.
    let optional = |body: &[Stmt]| if body.is_empty() { 0 } else { suite(body) };
    match stmt {
        Stmt::Expr(e) | Stmt::Del(e) | Stmt::Return(Some(e)) | Stmt::Raise(Some(e)) => expr(e),
        Stmt::Assign { targets, value } => targets.iter().map(expr).fold(expr(value), u32::max),
        Stmt::AugAssign { target, value, .. } => expr(target).max(expr(value)),
        Stmt::Assert { test, msg } => expr(test).max(msg.as_ref().map_or(0, expr)),
        Stmt::If { branches, orelse } => branches
            .iter()
            .map(|(test, body)| expr(test).max(suite(body)))
            .fold(optional(orelse), u32::max),
        Stmt::While { test, body } => expr(test).max(suite(body)),
        Stmt::For { iter, body, .. } => expr(iter).max(suite(body)),
        Stmt::FuncDef(f) => f
            .params
            .iter()
            .filter_map(|p| p.default.as_ref())
            .map(expr)
            .fold(suite(&f.body), u32::max),
        Stmt::ClassDef(c) => suite(&c.body),
        Stmt::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => handlers.iter().map(|h| suite(&h.body)).fold(
            suite(body).max(optional(orelse)).max(optional(finalbody)),
            u32::max,
        ),
        Stmt::Return(None)
        | Stmt::Raise(None)
        | Stmt::Pass
        | Stmt::Break
        | Stmt::Continue
        | Stmt::Import { .. }
        | Stmt::FromImport { .. }
        | Stmt::Global(_) => 0,
    }
}

/// How many levels deeper than `e` itself the parser nests reading
/// [`expr_src`]`(e)` back.
fn expr_depth(e: &Expr) -> u32 {
    // Items, arguments, indices and dict entries are each read as one
    // `expression`, a level.
    let each = |d: Option<u32>| d.map_or(0, |d| 1 + d);
    let items = |v: &[Expr]| each(v.iter().map(expr_depth).max());
    match e {
        Expr::None
        | Expr::True
        | Expr::False
        | Expr::Int(_)
        | Expr::Float(_)
        | Expr::Str(_)
        | Expr::Name(_) => 0,
        Expr::List(v) | Expr::Tuple(v) => items(v),
        Expr::Dict(pairs) => each(
            pairs
                .iter()
                .map(|(k, v)| expr_depth(k).max(expr_depth(v)))
                .max(),
        ),
        Expr::Attribute { value, .. } => atom_depth(value),
        Expr::Subscript { value, index } => atom_depth(value).max(1 + expr_depth(index)),
        Expr::Slice { value, start, stop } => atom_depth(value)
            .max(each(start.as_deref().map(expr_depth)))
            .max(each(stop.as_deref().map(expr_depth))),
        Expr::Call { func, args, kwargs } => atom_depth(func)
            .max(items(args))
            .max(each(kwargs.iter().map(|(_, v)| expr_depth(v)).max())),
        // The element is read as an `expression`, the source and the
        // filter each as a level of their own.
        Expr::ListComp {
            element,
            iter,
            cond,
            ..
        } => {
            1 + expr_depth(element)
                .max(expr_depth(iter))
                .max(cond.as_deref().map_or(0, expr_depth))
        }
        // Each prefix is a level.
        Expr::Unary { op, operand } => {
            1 + if prefix_chain(*op, operand) {
                expr_depth(operand)
            } else {
                atom_depth(operand)
            }
        }
        // The parentheses are read as an `expression`.
        Expr::Binary { .. }
        | Expr::Bool { .. }
        | Expr::Compare { .. }
        | Expr::Conditional { .. } => 1 + bare_depth(e),
    }
}

/// [`expr_depth`] of [`bare_src`]`(e)`.
fn bare_depth(e: &Expr) -> u32 {
    match e {
        // An exponent is a level.
        Expr::Binary {
            left,
            op: BinOp::Pow,
            right,
        } => operand_depth(left, true).max(1 + chain_depth(right, BinOp::Pow)),
        Expr::Binary { left, op, right } => chain_depth(left, *op).max(operand_depth(right, false)),
        Expr::Bool { values, .. } => values.iter().map(expr_depth).max().unwrap_or(0),
        Expr::Compare { left, ops } => ops
            .iter()
            .map(|(_, operand)| operand_depth(operand, false))
            .fold(operand_depth(left, false), u32::max),
        // The `else` branch is read as an `expression`.
        Expr::Conditional { test, body, orelse } => {
            let orelse = match **orelse {
                Expr::Conditional { .. } => bare_depth(orelse),
                _ => expr_depth(orelse),
            };
            expr_depth(body).max(expr_depth(test)).max(1 + orelse)
        }
        _ => expr_depth(e),
    }
}

/// [`expr_depth`] of [`chain_src`]`(operand, op)`.
fn chain_depth(operand: &Expr, op: BinOp) -> u32 {
    if same_precedence(operand, op) {
        bare_depth(operand)
    } else {
        operand_depth(operand, false)
    }
}

/// [`expr_depth`] of [`operand_src`]`(operand, base)`.
fn operand_depth(operand: &Expr, base: bool) -> u32 {
    if loose_prefix(operand, base) {
        atom_depth(operand)
    } else {
        expr_depth(operand)
    }
}

/// [`expr_depth`] of [`atom_src`]`(e)`.
fn atom_depth(e: &Expr) -> u32 {
    u32::from(!is_atom(e)) + expr_depth(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_name_of_dotted_import_is_first_component() {
        let item = ImportItem {
            module: "torch.nn".into(),
            alias: None,
        };
        assert_eq!(item.bound_name(), "torch");
    }

    #[test]
    fn bound_name_prefers_alias() {
        let item = ImportItem {
            module: "torch.nn".into(),
            alias: Some("nn".into()),
        };
        assert_eq!(item.bound_name(), "nn");
    }

    #[test]
    fn unparse_simple_function() {
        let p = Program {
            body: vec![Stmt::FuncDef(FuncDef {
                name: "f".into(),
                params: vec![Param {
                    name: "x".into(),
                    default: None,
                }],
                body: vec![Stmt::Return(Some(Expr::Name("x".into())))],
            })],
        };
        assert_eq!(unparse(&p), "def f(x):\n    return x\n");
    }

    #[test]
    fn unparse_empty_bodies_become_pass() {
        let p = Program {
            body: vec![Stmt::ClassDef(ClassDef {
                name: "C".into(),
                bases: vec![],
                body: vec![],
            })],
        };
        assert_eq!(unparse(&p), "class C:\n    pass\n");
    }

    #[test]
    fn node_count_is_recursive() {
        let e = Expr::Binary {
            left: Box::new(Expr::Int(1)),
            op: BinOp::Add,
            right: Box::new(Expr::Int(2)),
        };
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn stmt_count_descends_into_nested_blocks() {
        let p = Program {
            body: vec![Stmt::If {
                branches: vec![(Expr::True, vec![Stmt::Pass, Stmt::Pass])],
                orelse: vec![Stmt::Pass],
            }],
        };
        assert_eq!(stmt_count(&p.body), 4);
    }

    #[test]
    fn float_unparse_keeps_float_syntax() {
        assert_eq!(expr_src(&Expr::Float(2.0)), "2.0");
        assert_eq!(expr_src(&Expr::Float(1.5)), "1.5");
    }
}
