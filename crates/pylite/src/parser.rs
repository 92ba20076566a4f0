//! Recursive-descent parser producing the [`crate::ast`] representation.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use std::fmt;

/// How deeply expressions, prefix operators and suites may nest. Parsing,
/// resolving, compiling and analyzing all recurse once per level, so a
/// module nested this deep must still go through every stage on a 2 MB
/// debug thread (the stack of a test thread); deeper input is a
/// [`ParseError`], not a stack overflow. CPython's tokenizer stops at 200
/// open brackets; the corpus nests at most 2 brackets and 2 blocks.
///
/// The bound holds for the text read and for the text its statements
/// print to ([`printed_depth`]), which can nest deeper: `f(a + f(a))`
/// prints as `f((a + f(a)))`, each sum in parentheses of its own. So no
/// module the parser accepts prints to text nested too deep to read back.
const MAX_DEPTH: u32 = 64;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parse a full pylite module.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic problem found.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(lex(source)?);
    let body = p.parse_block_until_eof()?;
    Ok(Program { body })
}

/// Parse a single expression (used for oracle event literals).
///
/// # Errors
///
/// Returns a [`ParseError`] if the source is not exactly one expression.
pub fn parse_expr(source: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(lex(source)?);
    let e = p.expression()?;
    p.skip_newlines();
    if !matches!(p.peek(), Tok::Eof) {
        return Err(p.error("trailing input after expression"));
    }
    Ok(e)
}

/// Lists are built at their final length: statement suites and expression
/// lists (call arguments, tuple and list displays) push their items onto a
/// shared scratch stack from a mark and drain them once complete, so each
/// allocates exactly its length; a nested list drains its own items before
/// its parent pushes it, so marks never interleave. Rarer lists are cut to
/// their length once, when their node is built ([`exact`]).
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    depth: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            stmts: Vec::new(),
            exprs: Vec::new(),
            depth: 0,
        }
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    /// Advance past the current token and return it, moved out of the
    /// token list (the parser never looks back). The final `Eof` stays.
    fn bump(&mut self) -> Tok {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, Tok::Newline)
        } else {
            Tok::Eof
        }
    }

    /// Advance past the current `Name` or `Str` token, returning its text.
    fn bump_text(&mut self) -> String {
        match self.bump() {
            Tok::Name(s) | Tok::Str(s) => s,
            other => unreachable!("bump_text on `{other}`"),
        }
    }

    /// Run `parse` one nesting level deeper, refusing input nested past
    /// [`MAX_DEPTH`] before it can exhaust the stack.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.peek_line(),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected `{tok}`, found `{}`", self.peek())))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    /// True if the next token is the keyword `kw`.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Name(n) if n == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{}`", self.peek())))
        }
    }

    fn expect_name(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Name(n) if !is_keyword(n) => Ok(self.bump_text()),
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mark = self.stmts.len();
        loop {
            self.skip_newlines();
            if matches!(self.peek(), Tok::Eof) {
                return Ok(self.stmts.drain(mark..).collect());
            }
            let line = self.peek_line();
            let stmt = self.statement()?;
            if printed_depth(&stmt) > MAX_DEPTH {
                return Err(ParseError {
                    message: format!("nesting deeper than {MAX_DEPTH} levels once printed"),
                    line,
                });
            }
            self.stmts.push(stmt);
        }
    }

    /// Parse an indented suite following a `:`.
    fn suite(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::Colon)?;
        self.nested(Self::suite_body)
    }

    fn suite_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mark = self.stmts.len();
        if !matches!(self.peek(), Tok::Newline) {
            // Single-line suite: `if x: return 1`
            loop {
                let stmt = self.simple_statement()?;
                self.stmts.push(stmt);
                if !self.eat(Tok::Semi) || matches!(self.peek(), Tok::Newline | Tok::Eof) {
                    break;
                }
            }
            if !matches!(self.peek(), Tok::Eof) {
                self.expect(Tok::Newline)?;
            }
            return Ok(self.stmts.drain(mark..).collect());
        }
        self.expect(Tok::Newline)?;
        self.skip_newlines();
        self.expect(Tok::Indent)?;
        loop {
            self.skip_newlines();
            if matches!(self.peek(), Tok::Dedent) {
                self.bump();
                break;
            }
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
            let stmt = self.statement()?;
            self.stmts.push(stmt);
        }
        Ok(self.stmts.drain(mark..).collect())
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        if let Tok::Name(n) = self.peek() {
            match n.as_str() {
                "if" => return self.if_statement(),
                "while" => return self.while_statement(),
                "for" => return self.for_statement(),
                "def" => return self.func_def(),
                "class" => return self.class_def(),
                "try" => return self.try_statement(),
                _ => {}
            }
        }
        let stmt = self.simple_statement()?;
        // Semicolon-separated simple statements on one line are not preserved
        // as a compound construct; we flatten by returning the first and
        // requiring callers to loop — to keep things simple pylite only
        // supports `;` inside single-line suites.
        if !matches!(self.peek(), Tok::Eof) {
            self.expect(Tok::Newline)?;
        }
        Ok(stmt)
    }

    fn simple_statement(&mut self) -> Result<Stmt, ParseError> {
        if let Tok::Name(n) = self.peek() {
            match n.as_str() {
                "return" => {
                    self.bump();
                    if matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Semi) {
                        return Ok(Stmt::Return(None));
                    }
                    return Ok(Stmt::Return(Some(self.expression()?)));
                }
                "pass" => {
                    self.bump();
                    return Ok(Stmt::Pass);
                }
                "break" => {
                    self.bump();
                    return Ok(Stmt::Break);
                }
                "continue" => {
                    self.bump();
                    return Ok(Stmt::Continue);
                }
                "import" => return self.import_statement(),
                "from" => return self.from_import_statement(),
                "raise" => {
                    self.bump();
                    if matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Semi) {
                        return Ok(Stmt::Raise(None));
                    }
                    return Ok(Stmt::Raise(Some(self.expression()?)));
                }
                "global" => {
                    self.bump();
                    return Ok(Stmt::Global(self.name_list()?));
                }
                "assert" => {
                    self.bump();
                    let test = self.expression()?;
                    let msg = if self.eat(Tok::Comma) {
                        Some(self.expression()?)
                    } else {
                        None
                    };
                    return Ok(Stmt::Assert { test, msg });
                }
                "del" => {
                    self.bump();
                    let target = self.expression()?;
                    return Ok(Stmt::Del(target));
                }
                _ => {}
            }
        }
        // Expression / assignment statement. A bare comma at statement level
        // forms an unparenthesized tuple (`a, b = f()`).
        let mut first = self.expression()?;
        if matches!(self.peek(), Tok::Comma) {
            let mark = self.exprs.len();
            self.exprs.push(first);
            while self.eat(Tok::Comma) {
                if matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Eq | Tok::Semi) {
                    break;
                }
                let item = self.expression()?;
                self.exprs.push(item);
            }
            first = Expr::Tuple(self.exprs.drain(mark..).collect());
        }
        match self.peek() {
            Tok::Eq => {
                let mark = self.exprs.len();
                self.exprs.push(first);
                while self.eat(Tok::Eq) {
                    let next = self.expression()?;
                    self.exprs.push(next);
                }
                let value = self.exprs.pop().expect("at least rhs");
                let targets: Vec<Expr> = self.exprs.drain(mark..).collect();
                for t in &targets {
                    validate_target(t).map_err(|m| self.error(m))?;
                }
                Ok(Stmt::Assign { targets, value })
            }
            Tok::PlusEq | Tok::MinusEq | Tok::StarEq | Tok::SlashEq => {
                let op = match self.bump() {
                    Tok::PlusEq => BinOp::Add,
                    Tok::MinusEq => BinOp::Sub,
                    Tok::StarEq => BinOp::Mul,
                    Tok::SlashEq => BinOp::Div,
                    _ => unreachable!(),
                };
                validate_target(&first).map_err(|m| self.error(m))?;
                let value = self.expression()?;
                Ok(Stmt::AugAssign {
                    target: first,
                    op,
                    value,
                })
            }
            _ => Ok(Stmt::Expr(first)),
        }
    }

    fn if_statement(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("if")?;
        let test = self.expression()?;
        let body = self.suite()?;
        let mut branches = vec![(test, body)];
        let mut orelse = Vec::new();
        loop {
            self.skip_newlines();
            if self.at_kw("elif") {
                self.bump();
                let t = self.expression()?;
                let b = self.suite()?;
                branches.push((t, b));
            } else if self.at_kw("else") {
                self.bump();
                orelse = self.suite()?;
                break;
            } else {
                break;
            }
        }
        Ok(Stmt::If {
            branches: exact(branches),
            orelse,
        })
    }

    fn while_statement(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("while")?;
        let test = self.expression()?;
        let body = self.suite()?;
        Ok(Stmt::While { test, body })
    }

    fn for_statement(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("for")?;
        let targets = self.name_list()?;
        self.expect_kw("in")?;
        let iter = self.expression()?;
        let body = self.suite()?;
        Ok(Stmt::For {
            targets,
            iter,
            body,
        })
    }

    fn func_def(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("def")?;
        let name = self.expect_name()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::RParen) {
            let pname = self.expect_name()?;
            // Optional type annotation: `x: int` — parsed and discarded.
            if self.eat(Tok::Colon) {
                let _ = self.expression()?;
            }
            let default = if self.eat(Tok::Eq) {
                Some(self.expression()?)
            } else {
                None
            };
            params.push(Param {
                name: pname,
                default,
            });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        // Optional return annotation.
        if self.eat(Tok::Arrow) {
            let _ = self.expression()?;
        }
        let body = self.suite()?;
        Ok(Stmt::FuncDef(FuncDef {
            name,
            params: exact(params),
            body,
        }))
    }

    fn class_def(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("class")?;
        let name = self.expect_name()?;
        let mut bases = Vec::new();
        if self.eat(Tok::LParen) {
            while !matches!(self.peek(), Tok::RParen) {
                bases.push(self.dotted_name()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let body = self.suite()?;
        Ok(Stmt::ClassDef(ClassDef {
            name,
            bases: exact(bases),
            body,
        }))
    }

    fn try_statement(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("try")?;
        let body = self.suite()?;
        let mut handlers = Vec::new();
        let mut orelse = Vec::new();
        let mut finalbody = Vec::new();
        loop {
            self.skip_newlines();
            if self.at_kw("except") {
                self.bump();
                let mut exc_type = None;
                let mut name = None;
                if !matches!(self.peek(), Tok::Colon) {
                    exc_type = Some(self.expect_name()?);
                    if self.eat_kw("as") {
                        name = Some(self.expect_name()?);
                    }
                }
                let hbody = self.suite()?;
                handlers.push(ExceptHandler {
                    exc_type,
                    name,
                    body: hbody,
                });
            } else if self.at_kw("else") {
                self.bump();
                orelse = self.suite()?;
            } else if self.at_kw("finally") {
                self.bump();
                finalbody = self.suite()?;
                break;
            } else {
                break;
            }
        }
        if handlers.is_empty() && finalbody.is_empty() {
            return Err(self.error("try statement must have except or finally"));
        }
        Ok(Stmt::Try {
            body,
            handlers: exact(handlers),
            orelse,
            finalbody,
        })
    }

    /// `name (, name)*`, as in `global` and `for` targets.
    fn name_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = vec![self.expect_name()?];
        while self.eat(Tok::Comma) {
            names.push(self.expect_name()?);
        }
        Ok(exact(names))
    }

    fn dotted_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.expect_name()?;
        while self.eat(Tok::Dot) {
            name.push('.');
            name.push_str(&self.expect_name()?);
        }
        Ok(name)
    }

    fn import_statement(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("import")?;
        let mut items = Vec::new();
        loop {
            let module = self.dotted_name()?;
            let alias = if self.eat_kw("as") {
                Some(self.expect_name()?)
            } else {
                None
            };
            items.push(ImportItem { module, alias });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        Ok(Stmt::Import {
            items: exact(items),
        })
    }

    #[allow(clippy::wrong_self_convention)] // parses `from ... import`, not a conversion
    fn from_import_statement(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("from")?;
        let module = self.dotted_name()?;
        self.expect_kw("import")?;
        if self.eat(Tok::Star) {
            // `from m import *` — a single pseudo-name the interpreter and
            // analyzer expand to every public binding of `m`.
            return Ok(Stmt::FromImport {
                module,
                names: vec![("*".to_owned(), None)],
            });
        }
        let parenthesized = self.eat(Tok::LParen);
        let mut names = Vec::new();
        loop {
            if parenthesized {
                self.skip_newlines();
            }
            let n = self.expect_name()?;
            let a = if self.eat_kw("as") {
                Some(self.expect_name()?)
            } else {
                None
            };
            names.push((n, a));
            if !self.eat(Tok::Comma) {
                break;
            }
            if parenthesized {
                self.skip_newlines();
                if matches!(self.peek(), Tok::RParen) {
                    break;
                }
            }
        }
        if parenthesized {
            self.skip_newlines();
            self.expect(Tok::RParen)?;
        }
        Ok(Stmt::FromImport {
            module,
            names: exact(names),
        })
    }

    // -- Expressions, by precedence --------------------------------------

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::conditional)
    }

    fn conditional(&mut self) -> Result<Expr, ParseError> {
        let value = self.or_expr()?;
        if self.at_kw("if") {
            self.bump();
            let test = self.or_expr()?;
            self.expect_kw("else")?;
            let orelse = self.expression()?;
            return Ok(Expr::Conditional {
                test: Box::new(test),
                body: Box::new(value),
                orelse: Box::new(orelse),
            });
        }
        Ok(value)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.and_expr()?;
        if !self.at_kw("or") {
            return Ok(first);
        }
        let mut values = vec![first];
        while self.eat_kw("or") {
            values.push(self.and_expr()?);
        }
        Ok(Expr::Bool {
            op: BoolOp::Or,
            values: exact(values),
        })
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.not_expr()?;
        if !self.at_kw("and") {
            return Ok(first);
        }
        let mut values = vec![first];
        while self.eat_kw("and") {
            values.push(self.not_expr()?);
        }
        Ok(Expr::Bool {
            op: BoolOp::And,
            values: exact(values),
        })
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            let operand = self.nested(Self::not_expr)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.arith()?;
        let mut ops = Vec::new();
        loop {
            let op = match self.peek() {
                Tok::EqEq => CmpOp::Eq,
                Tok::NotEq => CmpOp::Ne,
                Tok::Lt => CmpOp::Lt,
                Tok::LtEq => CmpOp::Le,
                Tok::Gt => CmpOp::Gt,
                Tok::GtEq => CmpOp::Ge,
                Tok::Name(n) if n == "in" => CmpOp::In,
                Tok::Name(n) if n == "is" => CmpOp::Is,
                Tok::Name(n) if n == "not" => {
                    // `not in`
                    self.bump();
                    self.expect_kw("in")?;
                    let right = self.arith()?;
                    ops.push((CmpOp::NotIn, right));
                    continue;
                }
                _ => break,
            };
            self.bump();
            let op = if op == CmpOp::Is && self.eat_kw("not") {
                CmpOp::IsNot
            } else {
                op
            };
            let right = self.arith()?;
            ops.push((op, right));
        }
        if ops.is_empty() {
            Ok(left)
        } else {
            Ok(Expr::Compare {
                left: Box::new(left),
                ops: exact(ops),
            })
        }
    }

    fn arith(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::DoubleSlash => BinOp::FloorDiv,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Tok::Minus => UnaryOp::Neg,
            Tok::Plus => UnaryOp::Pos,
            _ => return self.power(),
        };
        self.bump();
        let operand = self.nested(Self::unary)?;
        Ok(Expr::Unary {
            op,
            operand: Box::new(operand),
        })
    }

    fn power(&mut self) -> Result<Expr, ParseError> {
        let base = self.postfix()?;
        if self.eat(Tok::DoubleStar) {
            let exp = self.nested(Self::unary)?;
            return Ok(Expr::Binary {
                left: Box::new(base),
                op: BinOp::Pow,
                right: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let attr = self.expect_name()?;
                    e = Expr::Attribute {
                        value: Box::new(e),
                        attr,
                    };
                }
                Tok::LParen => {
                    self.bump();
                    let mark = self.exprs.len();
                    let mut kwargs = Vec::new();
                    while !matches!(self.peek(), Tok::RParen) {
                        self.skip_newlines();
                        // Keyword argument: `name=value` (lookahead).
                        if matches!(self.peek(), Tok::Name(n) if !is_keyword(n))
                            && self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&Tok::Eq)
                        {
                            let n = self.bump_text();
                            self.bump();
                            let v = self.expression()?;
                            kwargs.push((n, v));
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                            continue;
                        }
                        let arg = self.expression()?;
                        self.exprs.push(arg);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.skip_newlines();
                    self.expect(Tok::RParen)?;
                    e = Expr::Call {
                        func: Box::new(e),
                        args: self.exprs.drain(mark..).collect(),
                        kwargs: exact(kwargs),
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    // Slice with omitted start: `a[:stop]`.
                    if self.eat(Tok::Colon) {
                        let stop = if matches!(self.peek(), Tok::RBracket) {
                            None
                        } else {
                            Some(Box::new(self.expression()?))
                        };
                        self.expect(Tok::RBracket)?;
                        e = Expr::Slice {
                            value: Box::new(e),
                            start: None,
                            stop,
                        };
                        continue;
                    }
                    let index = self.expression()?;
                    if self.eat(Tok::Colon) {
                        let stop = if matches!(self.peek(), Tok::RBracket) {
                            None
                        } else {
                            Some(Box::new(self.expression()?))
                        };
                        self.expect(Tok::RBracket)?;
                        e = Expr::Slice {
                            value: Box::new(e),
                            start: Some(Box::new(index)),
                            stop,
                        };
                        continue;
                    }
                    self.expect(Tok::RBracket)?;
                    e = Expr::Subscript {
                        value: Box::new(e),
                        index: Box::new(index),
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            &Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            &Tok::Float(v) => {
                self.bump();
                Ok(Expr::Float(v))
            }
            Tok::Str(_) => {
                let mut out = self.bump_text();
                // Adjacent string literal concatenation.
                while let Tok::Str(next) = self.peek() {
                    out.push_str(next);
                    self.bump();
                }
                Ok(Expr::Str(out))
            }
            Tok::Name(n) => match n.as_str() {
                "None" => {
                    self.bump();
                    Ok(Expr::None)
                }
                "True" => {
                    self.bump();
                    Ok(Expr::True)
                }
                "False" => {
                    self.bump();
                    Ok(Expr::False)
                }
                _ if is_keyword(n) => Err(self.error(format!("unexpected keyword `{n}`"))),
                _ => Ok(Expr::Name(self.bump_text())),
            },
            Tok::LParen => {
                self.bump();
                self.skip_newlines();
                if self.eat(Tok::RParen) {
                    return Ok(Expr::Tuple(vec![]));
                }
                let first = self.expression()?;
                if self.eat(Tok::Comma) {
                    let mark = self.exprs.len();
                    self.exprs.push(first);
                    loop {
                        self.skip_newlines();
                        if matches!(self.peek(), Tok::RParen) {
                            break;
                        }
                        let item = self.expression()?;
                        self.exprs.push(item);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.skip_newlines();
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Tuple(self.exprs.drain(mark..).collect()))
                } else {
                    self.skip_newlines();
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::LBracket => {
                self.bump();
                self.skip_newlines();
                if self.eat(Tok::RBracket) {
                    return Ok(Expr::List(vec![]));
                }
                let first = self.expression()?;
                // `[expr for x in iter]` — a list comprehension.
                if self.at_kw("for") {
                    self.bump();
                    let targets = self.name_list()?;
                    self.expect_kw("in")?;
                    // `or_expr` (not `expression`) so the comprehension's
                    // `if` filter is not mistaken for a conditional expr;
                    // each is a level, as a comprehension can nest in it.
                    let iter = self.nested(Self::or_expr)?;
                    let cond = if self.eat_kw("if") {
                        Some(Box::new(self.nested(Self::or_expr)?))
                    } else {
                        None
                    };
                    self.skip_newlines();
                    self.expect(Tok::RBracket)?;
                    return Ok(Expr::ListComp {
                        element: Box::new(first),
                        targets,
                        iter: Box::new(iter),
                        cond,
                    });
                }
                let mark = self.exprs.len();
                self.exprs.push(first);
                while self.eat(Tok::Comma) {
                    self.skip_newlines();
                    if matches!(self.peek(), Tok::RBracket) {
                        break;
                    }
                    let item = self.expression()?;
                    self.exprs.push(item);
                }
                self.skip_newlines();
                self.expect(Tok::RBracket)?;
                Ok(Expr::List(self.exprs.drain(mark..).collect()))
            }
            Tok::LBrace => {
                self.bump();
                let mut pairs = Vec::new();
                loop {
                    self.skip_newlines();
                    if matches!(self.peek(), Tok::RBrace) {
                        break;
                    }
                    let k = self.expression()?;
                    self.expect(Tok::Colon)?;
                    let v = self.expression()?;
                    pairs.push((k, v));
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.skip_newlines();
                self.expect(Tok::RBrace)?;
                Ok(Expr::Dict(exact(pairs)))
            }
            other => Err(self.error(format!("unexpected token `{other}`"))),
        }
    }
}

/// `v` cut to its length (a no-op when it already is): the rarer lists
/// are built with `push` and cut once, when their node is built.
fn exact<T>(mut v: Vec<T>) -> Vec<T> {
    v.shrink_to_fit();
    v
}

fn validate_target(e: &Expr) -> Result<(), String> {
    match e {
        Expr::Name(_) | Expr::Attribute { .. } | Expr::Subscript { .. } => Ok(()),
        Expr::Tuple(items) | Expr::List(items) => {
            for i in items {
                validate_target(i)?;
            }
            Ok(())
        }
        _ => Err("invalid assignment target".into()),
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "elif"
            | "else"
            | "while"
            | "for"
            | "in"
            | "def"
            | "class"
            | "return"
            | "pass"
            | "break"
            | "continue"
            | "import"
            | "from"
            | "as"
            | "raise"
            | "try"
            | "except"
            | "finally"
            | "global"
            | "assert"
            | "del"
            | "and"
            | "or"
            | "not"
            | "is"
            | "lambda"
            | "None"
            | "True"
            | "False"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::unparse;

    #[test]
    fn parses_assignment() {
        let p = parse("x = 1 + 2 * 3\n").unwrap();
        assert_eq!(p.body.len(), 1);
        match &p.body[0] {
            Stmt::Assign { targets, value } => {
                assert_eq!(targets, &[Expr::Name("x".into())]);
                // 1 + (2 * 3) — precedence check.
                match value {
                    Expr::Binary {
                        op: BinOp::Add,
                        right,
                        ..
                    } => {
                        assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_function_with_defaults_and_annotations() {
        let p = parse("def f(a, b=2, c: int = 3) -> int:\n    return a + b + c\n").unwrap();
        match &p.body[0] {
            Stmt::FuncDef(f) => {
                assert_eq!(f.params.len(), 3);
                assert!(f.params[0].default.is_none());
                assert_eq!(f.params[1].default, Some(Expr::Int(2)));
                assert_eq!(f.params[2].default, Some(Expr::Int(3)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_class_with_base() {
        let p = parse("class A(B):\n    x = 1\n").unwrap();
        match &p.body[0] {
            Stmt::ClassDef(c) => {
                assert_eq!(c.name, "A");
                assert_eq!(c.bases, vec!["B".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_imports() {
        let p = parse("import torch.nn as nn, numpy\nfrom torch.optim import SGD as S, Adam\n")
            .unwrap();
        match &p.body[0] {
            Stmt::Import { items } => {
                assert_eq!(items[0].module, "torch.nn");
                assert_eq!(items[0].alias.as_deref(), Some("nn"));
                assert_eq!(items[1].module, "numpy");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.body[1] {
            Stmt::FromImport { module, names } => {
                assert_eq!(module, "torch.optim");
                assert_eq!(names[0], ("SGD".into(), Some("S".into())));
                assert_eq!(names[1], ("Adam".into(), None));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_from_import() {
        let p = parse("from m import (\n    a,\n    b,\n)\n").unwrap();
        match &p.body[0] {
            Stmt::FromImport { names, .. } => assert_eq!(names.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_elif_else() {
        let p = parse("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n").unwrap();
        match &p.body[0] {
            Stmt::If { branches, orelse } => {
                assert_eq!(branches.len(), 2);
                assert_eq!(orelse.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_try_except_finally() {
        let src = "try:\n    f()\nexcept AttributeError as e:\n    g(e)\nexcept:\n    h()\nfinally:\n    k()\n";
        let p = parse(src).unwrap();
        match &p.body[0] {
            Stmt::Try {
                handlers,
                finalbody,
                ..
            } => {
                assert_eq!(handlers.len(), 2);
                assert_eq!(handlers[0].exc_type.as_deref(), Some("AttributeError"));
                assert_eq!(handlers[0].name.as_deref(), Some("e"));
                assert!(handlers[1].exc_type.is_none());
                assert_eq!(finalbody.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_calls_with_kwargs() {
        let p = parse("f(1, x=2, y=g(3))\n").unwrap();
        match &p.body[0] {
            Stmt::Expr(Expr::Call { args, kwargs, .. }) => {
                assert_eq!(args.len(), 1);
                assert_eq!(kwargs.len(), 2);
                assert_eq!(kwargs[0].0, "x");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_chained_attribute_calls() {
        let p = parse("torch.nn.Linear(2, 1)\n").unwrap();
        match &p.body[0] {
            Stmt::Expr(Expr::Call { func, .. }) => {
                assert!(matches!(**func, Expr::Attribute { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comparison_chain_and_membership() {
        let p = parse("r = 1 < x <= 10 and y in z and w not in v\n").unwrap();
        assert!(matches!(&p.body[0], Stmt::Assign { .. }));
    }

    #[test]
    fn parses_conditional_expression() {
        let p = parse("x = a if cond else b\n").unwrap();
        match &p.body[0] {
            Stmt::Assign { value, .. } => assert!(matches!(value, Expr::Conditional { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_single_line_suite() {
        let p = parse("if x: return 1\n").unwrap();
        match &p.body[0] {
            Stmt::If { branches, .. } => assert_eq!(branches[0].1.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(parse("1 + 2 = x\n").is_err());
    }

    #[test]
    fn rejects_unclosed_paren() {
        assert!(parse("f(1, 2\n").is_err());
    }

    #[test]
    fn unparse_roundtrip_program() {
        let src = "import torch\nfrom torch.nn import Linear, MSELoss\nx = torch.tensor([1.0, 2.0])\ndef handler(event, context):\n    if event[\"n\"] > 1:\n        return x\n    return None\nclass Model(Base):\n    def __init__(self, dim):\n        self.dim = dim\n";
        let p1 = parse(src).unwrap();
        let out = unparse(&p1);
        let p2 = parse(&out).unwrap();
        assert_eq!(p1, p2, "unparse output must reparse to an equal AST");
        let by_stmt: String = p1.body.iter().map(crate::ast::unparse_stmt).collect();
        assert_eq!(by_stmt, out, "a program prints as its statements in order");
    }

    #[test]
    fn infinite_floats_and_non_ascii_strings_print_back() {
        // (statement, how it prints): each prints as text that parses
        // back to the same statement.
        for (src, printed) in [
            ("BIG = 1e400\n", "BIG = 1e999\n"),
            ("SMALL = -1e400\n", "SMALL = -(1e999)\n"),
            ("x = [1e999, 2.5]\n", "x = [1e999, 2.5]\n"),
            ("NAME = \"café\"\n", "NAME = \"café\"\n"),
            ("s = '日本 🦀'\n", "s = \"日本 🦀\"\n"),
        ] {
            let program = parse(src).unwrap();
            let out = unparse(&program);
            assert_eq!(out, printed, "{src}");
            assert_eq!(parse(&out).unwrap(), program, "{src}");
        }
    }

    #[test]
    fn operands_print_with_the_parentheses_they_need() {
        // (statement, how it prints): an operand of the same precedence on
        // the side its operator groups towards, and a prefix of a prefix,
        // need no parentheses; a `not` inside an operator and a prefix as
        // a `**` base do; every other operand keeps them as it had them.
        for (src, printed) in [
            ("x = 1 - 2 + 3\n", "x = (1 - 2 + 3)\n"),
            ("x = 1 - (2 + 3)\n", "x = (1 - (2 + 3))\n"),
            ("x = a * b % c + d\n", "x = ((a * b % c) + d)\n"),
            ("x = 2 ** 3 ** 4\n", "x = (2 ** 3 ** 4)\n"),
            ("x = (2 ** 3) ** 4\n", "x = ((2 ** 3) ** 4)\n"),
            (
                "x = a if b else c if d else e\n",
                "x = (a if b else c if d else e)\n",
            ),
            (
                "x = (a if b else c) if d else e\n",
                "x = ((a if b else c) if d else e)\n",
            ),
            ("x = - - 1\n", "x = --1\n"),
            ("x = -(+a)\n", "x = -+a\n"),
            ("x = not not a\n", "x = not not a\n"),
            ("x = -(not a)\n", "x = -(not a)\n"),
            ("x = not -a\n", "x = not (-a)\n"),
            ("x = (not a) + b\n", "x = ((not a) + b)\n"),
            ("x = a < (not b)\n", "x = (a < (not b))\n"),
            ("x = (-2) ** 2\n", "x = ((-2) ** 2)\n"),
            ("x = -2 ** 2\n", "x = -((2 ** 2))\n"),
            ("x = 2 ** -2\n", "x = (2 ** -2)\n"),
        ] {
            let program = parse(src).unwrap();
            let out = unparse(&program);
            assert_eq!(out, printed, "{src}");
            assert_eq!(parse(&out).unwrap(), program, "{src}");
        }
    }

    #[test]
    fn parse_expr_accepts_single_expression() {
        let e = parse_expr("{\"x\": [1, 2, 3]}").unwrap();
        assert!(matches!(e, Expr::Dict(_)));
        assert!(parse_expr("1 2").is_err());
    }

    #[test]
    fn parses_aug_assign_variants() {
        let p = parse("x += 1\ny -= 2\nz *= 3\nw /= 4\n").unwrap();
        assert_eq!(p.body.len(), 4);
        assert!(p.body.iter().all(|s| matches!(s, Stmt::AugAssign { .. })));
    }

    #[test]
    fn parses_del_and_global_and_assert() {
        let p = parse("global a, b\nassert x > 0, \"boom\"\ndel obj.attr\n").unwrap();
        assert!(matches!(&p.body[0], Stmt::Global(v) if v.len() == 2));
        assert!(matches!(&p.body[1], Stmt::Assert { msg: Some(_), .. }));
        assert!(matches!(&p.body[2], Stmt::Del(Expr::Attribute { .. })));
    }

    #[test]
    fn parses_nested_collections() {
        let p = parse("cfg = {\"layers\": [64, 32], \"opts\": {\"lr\": 0.1}}\n").unwrap();
        assert!(matches!(&p.body[0], Stmt::Assign { .. }));
    }

    #[test]
    fn adjacent_string_literals_concatenate() {
        let e = parse_expr("\"a\" \"b\"").unwrap();
        assert_eq!(e, Expr::Str("ab".into()));
    }

    /// One module per nesting form, nested `depth` levels deep as read and
    /// no deeper as printed, with the line the parser stops at when that is
    /// one level too many. A statement's expression is itself a level, so
    /// the expression forms nest `depth - 1` times inside it; the
    /// conditional and power forms are written in the parentheses they
    /// print with.
    fn nested_modules(depth: usize) -> Vec<(&'static str, String, u32)> {
        let n = depth - 1;
        let around =
            |open: &str, close: &str| format!("x = {}1{}\n", open.repeat(n), close.repeat(n));
        let blocks = |head: &str| {
            let mut src = String::new();
            for level in 0..depth {
                src += &format!("{}{head}\n", " ".repeat(level));
            }
            src + &" ".repeat(depth) + "pass\n"
        };
        // The last `if` fails at its test, the last `def` at its body.
        let last = depth as u32;
        vec![
            ("parentheses", around("(", ")"), 1),
            ("lists", around("[", "]"), 1),
            ("dicts", around("{1: ", "}"), 1),
            (
                "calls",
                "def f(a):\n    return a\n".to_owned() + &around("f(", ")"),
                3,
            ),
            (
                "conditionals",
                format!("x = ({}1)\n", "1 if True else ".repeat(n - 1)),
                1,
            ),
            ("minus signs", around("- ", ""), 1),
            ("plus signs", around("+ ", ""), 1),
            ("nots", around("not ", ""), 1),
            ("powers", format!("x = ({}1)\n", "1 ** ".repeat(n - 1)), 1),
            (
                "comprehensions",
                format!(
                    "x = {}[1]{}\n",
                    "[a for a in ".repeat(n - 1),
                    "]".repeat(n - 1)
                ),
                1,
            ),
            ("if suites", blocks("if True:"), last),
            ("def suites", blocks("def f():"), last + 1),
        ]
    }

    #[test]
    fn nesting_runs_to_the_limit_and_is_refused_past_it() {
        // On a 2 MB stack, a debug test thread's: a module nested to the
        // limit parses, prints back, resolves, compiles, runs and drops;
        // one level more is a parse error naming its line, not a stack
        // overflow.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let limit = MAX_DEPTH as usize;
                for (form, src, _) in nested_modules(limit) {
                    let program = parse(&src).unwrap_or_else(|e| panic!("{form}: {e}"));
                    assert_eq!(parse(&unparse(&program)).as_ref(), Ok(&program), "{form}");
                    let registry = crate::Registry::new();
                    let resolved = crate::resolve_program(&program, registry.interner());
                    let code = crate::compile_program(&resolved);
                    let mut interp = crate::Interpreter::new(registry);
                    if let Err(e) = interp.exec_main(&src) {
                        panic!("{form}: {e}");
                    }
                    drop((interp, code, resolved, program));
                }
                for (form, src, line) in nested_modules(limit + 1) {
                    let e = parse(&src).expect_err(form);
                    assert_eq!(e.message, "nesting deeper than 64 levels", "{form}");
                    assert_eq!(e.line, line, "{form}");
                }
                let event = format!("{}1{}", "[".repeat(limit), "]".repeat(limit));
                assert!(
                    parse_expr(&event).is_err(),
                    "event literals share the limit"
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn chains_of_one_operator_print_flat_and_deep_printed_text_is_refused() {
        // A chain the parser reads in one loop or one prefix run prints
        // the same way, however long: 65 terms, 40 signs.
        let sum = format!("x = 1{}\n", " + 1".repeat(64));
        let program = parse(&sum).unwrap();
        assert_eq!(unparse(&program), format!("x = (1{})\n", " + 1".repeat(64)));
        let signs = format!("x = {}1\n", "- ".repeat(40));
        let program = parse(&signs).unwrap();
        assert_eq!(unparse(&program), format!("x = {}1\n", "-".repeat(40)));
        // Text within the limit whose statement prints deeper than it is
        // refused at that statement: `f(a + f(a + …))` prints each sum in
        // parentheses of its own, two levels per call.
        let ok = format!("x = 1\ny = {}a{}\n", "f(a + ".repeat(31), ")".repeat(31));
        assert!(parse(&ok).is_ok());
        let deep = format!("x = 1\ny = {}a{}\n", "f(a + ".repeat(32), ")".repeat(32));
        let e = parse(&deep).unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.line),
            ("nesting deeper than 64 levels once printed", 2)
        );
    }

    /// A random expression of at most `depth` levels of syntax.
    fn random_expr(rng: &mut trim_rng::Rng, depth: u32) -> String {
        const LEAVES: [&str; 6] = ["a", "1", "2.5", "\"s\"", "True", "None"];
        if depth == 0 || rng.usize_inclusive(0, 4) == 0 {
            return LEAVES[rng.usize_inclusive(0, LEAVES.len() - 1)].to_owned();
        }
        let mut sub = || random_expr(rng, depth - 1);
        let (x, y, z) = (sub(), sub(), sub());
        match rng.usize_inclusive(0, 21) {
            0 => format!("-{x}"),
            1 => format!("+{x}"),
            2 => format!("not {x}"),
            3 => format!("{x} + {y} - {z}"),
            4 => format!("{x} * {y} // {z}"),
            5 => format!("{x} ** {y} ** {z}"),
            6 => format!("({x})"),
            7 => format!("{x} < {y} == {z}"),
            8 => format!("{x} and {y} or {z}"),
            9 => format!("{x} if {y} else {z}"),
            10 => format!("f({x}, k={y})"),
            11 => format!("({x}).b"),
            12 => format!("({x})[{y}]"),
            13 => format!("({x})[{y}:{z}]"),
            14 => format!("({x})[:{y}]"),
            15 => format!("[{x}, {y}]"),
            16 => format!("({x},)"),
            17 => format!("({x}, {y})"),
            18 => format!("{{{x}: {y}}}"),
            19 => format!("[{x} for a in {y} if {z}]"),
            20 => format!("{x} in {y}"),
            _ => format!("not not {x}"),
        }
    }

    #[test]
    fn printed_depth_is_the_nesting_of_the_printed_text() {
        // `x = <v>` printed with `k` more parentheses around `v` nests
        // `k + printed_depth` levels: it parses up to the limit and not one
        // level past it. Every sample that parses prints back to itself;
        // samples that are not Python are skipped.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let mut rng = trim_rng::Rng::seed_from_u64(0x0de9_7ab1);
                let mut checked = 0;
                for _ in 0..3000 {
                    let src = format!("x = {}\n", random_expr(&mut rng, 6));
                    let Ok(program) = parse(&src) else { continue };
                    let printed = unparse(&program);
                    assert_eq!(parse(&printed).as_ref(), Ok(&program), "{src}");
                    let depth = printed_depth(&program.body[0]);
                    let value = printed.strip_prefix("x = ").unwrap().trim_end();
                    let wrapped = |k: u32| {
                        let k = k as usize;
                        format!("x = {}{value}{}\n", "(".repeat(k), ")".repeat(k))
                    };
                    let room = MAX_DEPTH - depth;
                    assert_eq!(parse(&wrapped(room)).as_ref(), Ok(&program), "{printed}");
                    let e = parse(&wrapped(room + 1)).expect_err(&printed);
                    assert_eq!(e.message, "nesting deeper than 64 levels", "{printed}");
                    checked += 1;
                }
                assert!(checked > 1500, "{checked} samples checked");
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
