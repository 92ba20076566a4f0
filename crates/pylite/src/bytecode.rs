//! The bytecode virtual machine: pylite's one execution engine.
//!
//! Every Delta-Debugging probe is a full oracle run, so interpreter speed
//! multiplies the throughput of the whole λ-trim pipeline. The resolved IR
//! ([`crate::resolved`]) removed name hashing from the hot path; this
//! module removes the tree walk itself. A one-time compile pass flattens
//! each module body (and, lazily, each function body) into [`CodeObj`]s:
//! straight-line instruction arrays with constant / string / keyword-name
//! pools and pre-computed intra-block jump targets, executed by a tight
//! dispatch loop over an operand stack.
//!
//! Design rules (see DESIGN.md §12):
//!
//! - **Byte-identical semantics.** Tests keep a tree-walking evaluator
//!   (`crate::reference`, compiled only under `cfg(test)` or the test-only
//!   `reference` feature) as the behavioral reference: stdout, exceptions, meter ticks, simulated
//!   allocations, observed accesses and namespace contents must match it
//!   exactly. Per-node `expr_node_ns` ticks are preserved by *merging*
//!   adjacent entry ticks into `Insn::Tick` (or into the leading
//!   `Insn::StmtTick`) — exact because the meter is a saturating counter
//!   and ticks are flushed before every instruction that can raise,
//!   allocate, or snapshot the meter.
//! - **Everything is compiled.** Parameter defaults and class bodies
//!   compile to blocks of the defining code object: defaults run in the
//!   defining scope without its `global` declarations, a class body in its
//!   class namespace. `del` compiles its attribute object like any
//!   expression. Imports and the definition, binding and deletion helpers
//!   are interpreter methods the reference shares.
//! - **Shared caching.** Module bodies are compiled once per registry
//!   *family* into a `OnceLock` slot next to the resolved IR (COW clones
//!   share it; fingerprints stay content-based). Function bodies compile
//!   lazily into a slot on [`RFuncDef`] shared by every `PyFunc` closed
//!   over the definition.
//! - **Inline caches.** `mod.attr` sites keep their resolved-IR site ids,
//!   which key the generation-checked inline caches (DESIGN.md §8) and the
//!   per-site hit/miss counters.
//! - **Linked bodies.** A module code object records where each top-level
//!   statement starts in block 0. Owed ticks flush before every statement
//!   prologue, so a statement's instructions are exactly what compiling it
//!   alone would emit, and its jumps stay inside its range. A
//!   [`LinkedBody`] runs ranges of statements of shared code objects in
//!   order, which is how a DD probe runs a candidate module without
//!   compiling it (DESIGN.md §16).

use crate::ast::{BinOp, BoolOp, CmpOp, UnaryOp};
use crate::intern::Symbol;
use crate::resolved::{RClassDef, RExpr, RFromName, RFuncDef, RImportItem, RProgram, RStmt};
use std::ops::Range;
use std::sync::Arc;

/// Sentinel block id for "no block" (empty `else` / `finally`, no cond).
const NO_BLOCK: u32 = u32::MAX;
/// Sentinel keyword-pool id for calls without keyword arguments.
const NO_KW: u32 = u32::MAX;

/// A literal from the constant pool. Only scalar payloads, so [`CodeObj`]
/// stays `Send + Sync` and can live in the shared registry slots.
#[derive(Debug, Clone, Copy)]
enum Const {
    None,
    True,
    False,
    Int(i64),
    Float(f64),
}

/// One bytecode instruction. Jump operands are instruction indexes within
/// the *same* block; pool operands index the owning [`CodeObj`]'s pools.
#[derive(Debug, Clone)]
enum Insn {
    /// Statement prologue: bump the step counter, enforce the step limit,
    /// tick `stmt_ns` plus `extra` merged `expr_node_ns` entry ticks.
    StmtTick { extra: u32 },
    /// Tick `n` merged `expr_node_ns` expression-entry costs.
    Tick(u32),
    /// Per-iteration while-loop step: bump and enforce the step limit.
    LoopStep,
    /// Push a scalar from the constant pool.
    Const(u32),
    /// Push a string literal (charges `str_char_bytes` per char).
    Str(u32),
    /// Push the value of a name (locals → globals → builtins).
    LoadName(Symbol),
    /// Pop a value and bind it to a name.
    StoreName(Symbol),
    /// Pop and discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Pop `n` elements, push a list (charges `element_bytes * n`).
    MakeList(u32),
    /// Pop `n` elements, push a tuple (charges `element_bytes * n`).
    MakeTuple(u32),
    /// Pop `2n` elements (k/v interleaved), push a dict.
    MakeDict(u32),
    /// Pop an object, push `obj.attr` through the inline-cache site.
    LoadAttr { attr: Symbol, site: u32 },
    /// Pop an object, pop a value, store `obj.attr = value`.
    StoreAttr(Symbol),
    /// Pop index and object, push `obj[index]`.
    LoadItem,
    /// Pop index, object and value, store `obj[index] = value`.
    StoreItem,
    /// Pop optional bounds and the value, push `value[start:stop]`.
    Slice { has_start: bool, has_stop: bool },
    /// Pop a value, push the unary-operator result.
    Unary(UnaryOp),
    /// Pop right then left, push the binary-operator result.
    Binary(BinOp),
    /// Pop right then left, push the boolean comparison result.
    Compare(CmpOp),
    /// One link of a chained comparison: pop right then left; on success
    /// push right (the next link's left), else push `False` and jump.
    CmpChain { op: CmpOp, fail: u32 },
    /// Pop keyword values, `argc` positional args and the callee; push
    /// the call result. `kw` indexes the keyword-name pool or [`NO_KW`].
    Call { argc: u32, kw: u32 },
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    PopJumpIfFalse(u32),
    /// Pop; jump when truthy.
    PopJumpIfTrue(u32),
    /// `and`: jump (keeping the value) when falsy, else pop.
    JumpIfFalseOrPop(u32),
    /// `or`: jump (keeping the value) when truthy, else pop.
    JumpIfTrueOrPop(u32),
    /// Pop an iterable, snapshot its values onto the iterator stack.
    ForSetup,
    /// Bind the next item to the loop targets, or pop the iterator and
    /// jump to `end` when exhausted.
    ForNext { targets: u32, end: u32 },
    /// `break` inside a `for`: pop the iterator, jump past the loop.
    PopIterJump(u32),
    /// Run a list comprehension over the popped iterable.
    ListComp(u32),
    /// Define a function, first running its compiled defaults block.
    DefFunc(u32),
    /// Define a class, running its body block in a fresh class namespace.
    DefClass(u32),
    /// Run an `import` clause list via the shared interpreter helper.
    Import(u32),
    /// Run a `from module import ...` via the shared interpreter helper.
    FromImport(u32),
    /// `del name`: unbind a name.
    DelName(Symbol),
    /// `del obj.attr`: pop the object and delete the attribute.
    DelAttr(Symbol),
    /// `del obj[key]`: pop key then object and delete the item.
    DelItem,
    /// `del` of any other target.
    InvalidDel,
    /// Declare a name `global` in the current environment.
    Global(Symbol),
    /// Pop the return value and unwind with it.
    Return,
    /// Unwind returning `None`.
    ReturnNone,
    /// Propagate `break` out of this block (loop lives in an outer block).
    BreakFlow,
    /// Propagate `continue` out of this block.
    ContinueFlow,
    /// Pop a value and raise it as an exception.
    Raise,
    /// `raise` with no operand outside an `except` block.
    Reraise,
    /// Assertion failed: pop the optional message and raise.
    AssertRaise { has_msg: bool },
    /// Run a `try` statement (body/handlers/orelse/finally blocks).
    Try(u32),
    /// Pop a value, unpack exactly `n` items (first item on top).
    Unpack(u32),
    /// Non-assignable target in an assignment statement.
    InvalidAssign,
}

/// Where a `break` / `continue` crossing a [`CTry`] resumes in the block
/// that owns the enclosing loop.
#[derive(Debug, Clone, Copy)]
struct LoopExit {
    /// Instruction index to resume at.
    target: u32,
    /// Whether to pop the innermost iterator (for-loops only).
    pop_iter: bool,
}

/// One `except` clause of a compiled `try`.
#[derive(Debug)]
struct CHandler {
    /// Exception class name to match, `None` for bare `except:`.
    exc_type: Option<Box<str>>,
    /// `as name` binding.
    name: Option<Symbol>,
    /// Handler body block.
    body: u32,
}

/// A compiled `try` statement.
#[derive(Debug)]
struct CTry {
    body: u32,
    handlers: Box<[CHandler]>,
    orelse: u32,
    finalbody: u32,
    /// Routing for `break` flowing out of the nested blocks, when the
    /// innermost loop lives in the block that owns this `try`.
    on_break: Option<LoopExit>,
    /// Routing for `continue`, same condition.
    on_continue: Option<u32>,
}

/// A function definition with its compiled defaults.
#[derive(Debug)]
struct CFunc {
    def: Arc<RFuncDef>,
    /// Block pushing each parameter default in order, or [`NO_BLOCK`].
    defaults: u32,
    /// Number of values the defaults block pushes.
    n_defaults: u32,
}

/// A class definition with its compiled body.
#[derive(Debug)]
struct CClass {
    def: Arc<RClassDef>,
    /// Block running the class body.
    body: u32,
}

/// A compiled list comprehension.
#[derive(Debug)]
struct CComp {
    targets: Box<[Symbol]>,
    /// Filter-condition expression block, or [`NO_BLOCK`].
    cond: u32,
    /// Element expression block.
    element: u32,
}

/// A compiled unit: one module or function body.
///
/// Instruction blocks share the pools; block 0 is the entry. `CodeObj` is
/// `Send + Sync` (pools hold scalars, `Arc` strings and resolved-IR
/// nodes), so it can be cached in the registry's shared family slots and
/// on [`RFuncDef`] like the resolved tree itself.
#[derive(Debug, Default)]
pub struct CodeObj {
    blocks: Vec<Box<[Insn]>>,
    /// Where each top-level statement starts in block 0 (module code
    /// objects only; empty for function bodies).
    stmt_starts: Box<[u32]>,
    consts: Vec<Const>,
    strs: Vec<Arc<str>>,
    kwnames: Vec<Box<[Symbol]>>,
    funcs: Vec<CFunc>,
    classes: Vec<CClass>,
    imports: Vec<Box<[RImportItem]>>,
    from_imports: Vec<(Box<str>, Box<[RFromName]>)>,
    trys: Vec<CTry>,
    comps: Vec<CComp>,
    for_targets: Vec<Box<[Symbol]>>,
}

/// Compile a resolved module body into a [`CodeObj`] (entry = block 0),
/// recording where each top-level statement starts.
pub fn compile_program(program: &RProgram) -> CodeObj {
    #[cfg(debug_assertions)]
    MODULE_COMPILES.with(|n| n.set(n.get() + 1));
    let mut c = Compiler::new();
    let starts = c.entry(&program.body);
    c.code.stmt_starts = starts.into_boxed_slice();
    c.code
}

#[cfg(debug_assertions)]
thread_local! {
    static MODULE_COMPILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The number of [`compile_program`] calls made on the calling thread
/// (debug builds only): every module, `__main__` and linked `import` list
/// compile. Function bodies compile separately and are not counted.
#[cfg(debug_assertions)]
pub fn module_compiles() -> u64 {
    MODULE_COMPILES.with(std::cell::Cell::get)
}

/// Compiled bytecode for a function body, compiled on first call and
/// cached on the shared definition node.
pub(crate) fn func_code(def: &Arc<RFuncDef>) -> Arc<CodeObj> {
    Arc::clone(def.compiled.get_or_init(|| {
        let mut c = Compiler::new();
        c.entry(&def.body);
        Arc::new(c.code)
    }))
}

impl CodeObj {
    /// The number of top-level statements of a module code object.
    pub fn stmt_count(&self) -> usize {
        self.stmt_starts.len()
    }

    /// The instructions of top-level statement `stmt` in block 0.
    fn stmt_pcs(&self, stmt: usize) -> Range<u32> {
        let end = match self.stmt_starts.get(stmt + 1) {
            Some(&next) => next,
            None => self.blocks[0].len() as u32,
        };
        self.stmt_starts[stmt]..end
    }
}

/// A module body linked from compiled code: ranges of top-level
/// statements of module code objects, run in order in the module's one
/// environment. Running a link runs exactly the instructions compiling
/// its statements alone would emit, so a linked body behaves like the
/// compiled concatenation of its statements: same meter, same errors.
#[derive(Debug, Default)]
pub struct LinkedBody {
    links: Vec<(Arc<CodeObj>, Range<u32>)>,
}

impl LinkedBody {
    /// Append top-level statement `stmt` of `code`, a module code object.
    /// A statement that directly follows the last link in the same code
    /// object extends that link.
    ///
    /// # Panics
    ///
    /// `stmt` is not a top-level statement of `code`.
    pub fn push_stmt(&mut self, code: &Arc<CodeObj>, stmt: usize) {
        let pcs = code.stmt_pcs(stmt);
        if let Some((last, range)) = self.links.last_mut() {
            if Arc::ptr_eq(last, code) && range.end == pcs.start {
                range.end = pcs.end;
                return;
            }
        }
        self.links.push((Arc::clone(code), pcs));
    }

    /// Append the whole body of `code`.
    pub fn push_code(&mut self, code: Arc<CodeObj>) {
        let pcs = 0..code.blocks[0].len() as u32;
        self.links.push((code, pcs));
    }

    /// Whether the body runs no statement.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

// -- compiler -------------------------------------------------------------

/// Loop context while compiling a loop's body in the same block.
struct LoopCtx {
    /// `true` for `for` (break pops the iterator; continue jumps to the
    /// known head), `false` for `while` (continue patched to `LoopStep`).
    is_for: bool,
    /// Loop-head instruction index (`ForNext` / condition re-test).
    head: u32,
    /// `Jump`/`PopIterJump` placeholders to patch to the loop end.
    break_sites: Vec<usize>,
    /// `Jump` placeholders to patch to the continue target (while only).
    continue_sites: Vec<usize>,
    /// `trys` pool indexes needing `on_break`/`on_continue` routing.
    try_idxs: Vec<usize>,
}

/// Builds one instruction block, merging expression entry ticks.
///
/// `pending` counts `expr_node_ns` ticks owed since the last emitted
/// instruction; they flush as a [`Insn::Tick`] before any instruction
/// that can raise, touch the meter, or transfer control — or merge into
/// an immediately preceding [`Insn::StmtTick`]. `barrier()` additionally
/// runs at every label / jump target so per-iteration ticks can never
/// merge into a once-executed instruction.
struct BlockBuilder {
    insns: Vec<Insn>,
    pending: u32,
    absorb: Option<usize>,
    loops: Vec<LoopCtx>,
}

impl BlockBuilder {
    fn new() -> Self {
        BlockBuilder {
            insns: Vec::new(),
            pending: 0,
            absorb: None,
            loops: Vec::new(),
        }
    }

    /// Record one owed `expr_node_ns` entry tick.
    fn tick(&mut self) {
        self.pending += 1;
    }

    /// Emit owed ticks (merging into a trailing `StmtTick` if possible).
    fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        let pending = self.pending;
        self.pending = 0;
        if let Some(at) = self.absorb {
            if at + 1 == self.insns.len() {
                if let Insn::StmtTick { extra } = &mut self.insns[at] {
                    *extra += pending;
                    return;
                }
            }
        }
        self.insns.push(Insn::Tick(pending));
    }

    /// Flush and forbid further merging into earlier instructions. Called
    /// at every label and patch target.
    fn barrier(&mut self) {
        self.flush();
        self.absorb = None;
    }

    /// Current instruction index as a (barriered) label.
    fn here(&mut self) -> u32 {
        self.barrier();
        self.insns.len() as u32
    }

    fn emit(&mut self, i: Insn) {
        self.flush();
        self.absorb = None;
        self.insns.push(i);
    }

    /// Emit a statement prologue eligible to absorb following ticks.
    fn emit_stmt_tick(&mut self) {
        self.flush();
        self.insns.push(Insn::StmtTick { extra: 0 });
        self.absorb = Some(self.insns.len() - 1);
    }

    /// Emit a jump-family instruction and return its site for patching.
    fn emit_jump(&mut self, i: Insn) -> usize {
        self.emit(i);
        self.insns.len() - 1
    }

    /// Patch the jump operand at `site` to `target`.
    fn patch(&mut self, site: usize, target: u32) {
        match &mut self.insns[site] {
            Insn::Jump(t)
            | Insn::PopJumpIfFalse(t)
            | Insn::PopJumpIfTrue(t)
            | Insn::JumpIfFalseOrPop(t)
            | Insn::JumpIfTrueOrPop(t)
            | Insn::PopIterJump(t)
            | Insn::CmpChain { fail: t, .. }
            | Insn::ForNext { end: t, .. } => *t = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }
}

struct Compiler {
    code: CodeObj,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            code: CodeObj::default(),
        }
    }

    /// Compile `stmts` as block 0 of the code object and return where each
    /// statement starts in it. A statement starts at its prologue, after
    /// the ticks the previous statement owes are flushed, as
    /// `emit_stmt_tick` flushes them.
    fn entry(&mut self, stmts: &[RStmt]) -> Vec<u32> {
        self.code.blocks.push(Box::from([]));
        let mut b = BlockBuilder::new();
        let mut starts = Vec::with_capacity(stmts.len());
        for s in stmts {
            b.flush();
            starts.push(b.insns.len() as u32);
            self.stmt(&mut b, s);
        }
        b.barrier();
        self.code.blocks[0] = b.insns.into_boxed_slice();
        starts
    }

    fn build_stmts(&mut self, stmts: &[RStmt]) -> u32 {
        let mut b = BlockBuilder::new();
        for s in stmts {
            self.stmt(&mut b, s);
        }
        b.barrier();
        let id = self.code.blocks.len() as u32;
        self.code.blocks.push(b.insns.into_boxed_slice());
        id
    }

    /// Compile a block that pushes each of `exprs` in order.
    fn build_exprs<'e>(&mut self, exprs: impl IntoIterator<Item = &'e RExpr>) -> u32 {
        let mut b = BlockBuilder::new();
        for e in exprs {
            self.expr(&mut b, e);
        }
        b.barrier();
        let id = self.code.blocks.len() as u32;
        self.code.blocks.push(b.insns.into_boxed_slice());
        id
    }

    fn const_id(&mut self, c: Const) -> u32 {
        self.code.consts.push(c);
        (self.code.consts.len() - 1) as u32
    }

    fn stmt(&mut self, b: &mut BlockBuilder, s: &RStmt) {
        b.emit_stmt_tick();
        match s {
            RStmt::Expr(e) => {
                self.expr(b, e);
                b.emit(Insn::Pop);
            }
            RStmt::Assign { targets, value } => {
                self.expr(b, value);
                let last = targets.len() - 1;
                for (i, t) in targets.iter().enumerate() {
                    if i < last {
                        b.emit(Insn::Dup);
                    }
                    self.store(b, t);
                }
            }
            RStmt::AugAssign { target, op, value } => {
                self.expr(b, target);
                self.expr(b, value);
                b.emit(Insn::Binary(*op));
                self.store(b, target);
            }
            RStmt::If { branches, orelse } => {
                let mut end_sites = Vec::with_capacity(branches.len());
                for (test, body) in branches {
                    self.expr(b, test);
                    let skip = b.emit_jump(Insn::PopJumpIfFalse(0));
                    for s in body {
                        self.stmt(b, s);
                    }
                    end_sites.push(b.emit_jump(Insn::Jump(0)));
                    let next = b.here();
                    b.patch(skip, next);
                }
                for s in orelse {
                    self.stmt(b, s);
                }
                let end = b.here();
                for site in end_sites {
                    b.patch(site, end);
                }
            }
            RStmt::While { test, body } => {
                let head = b.here();
                self.expr(b, test);
                let exit = b.emit_jump(Insn::PopJumpIfFalse(0));
                b.loops.push(LoopCtx {
                    is_for: false,
                    head,
                    break_sites: Vec::new(),
                    continue_sites: Vec::new(),
                    try_idxs: Vec::new(),
                });
                for s in body {
                    self.stmt(b, s);
                }
                let step = b.here();
                b.emit(Insn::LoopStep);
                b.emit(Insn::Jump(head));
                let end = b.here();
                b.patch(exit, end);
                let ctx = b.loops.pop().expect("while ctx");
                for site in ctx.break_sites {
                    b.patch(site, end);
                }
                for site in ctx.continue_sites {
                    b.patch(site, step);
                }
                for t in ctx.try_idxs {
                    self.code.trys[t].on_break = Some(LoopExit {
                        target: end,
                        pop_iter: false,
                    });
                    self.code.trys[t].on_continue = Some(step);
                }
            }
            RStmt::For {
                targets,
                iter,
                body,
            } => {
                self.expr(b, iter);
                b.emit(Insn::ForSetup);
                let head = b.here();
                self.code
                    .for_targets
                    .push(targets.clone().into_boxed_slice());
                let tid = (self.code.for_targets.len() - 1) as u32;
                let next = b.emit_jump(Insn::ForNext {
                    targets: tid,
                    end: 0,
                });
                b.loops.push(LoopCtx {
                    is_for: true,
                    head,
                    break_sites: Vec::new(),
                    continue_sites: Vec::new(),
                    try_idxs: Vec::new(),
                });
                for s in body {
                    self.stmt(b, s);
                }
                b.emit(Insn::Jump(head));
                let end = b.here();
                b.patch(next, end);
                let ctx = b.loops.pop().expect("for ctx");
                for site in ctx.break_sites {
                    b.patch(site, end);
                }
                debug_assert!(ctx.continue_sites.is_empty());
                for t in ctx.try_idxs {
                    self.code.trys[t].on_break = Some(LoopExit {
                        target: end,
                        pop_iter: true,
                    });
                    self.code.trys[t].on_continue = Some(head);
                }
            }
            RStmt::FuncDef(f) => {
                let n_defaults = f.params.iter().filter(|p| p.default.is_some()).count() as u32;
                let defaults = if n_defaults == 0 {
                    NO_BLOCK
                } else {
                    self.build_exprs(f.params.iter().filter_map(|p| p.default.as_ref()))
                };
                self.code.funcs.push(CFunc {
                    def: Arc::clone(f),
                    defaults,
                    n_defaults,
                });
                b.emit(Insn::DefFunc((self.code.funcs.len() - 1) as u32));
            }
            RStmt::ClassDef(c) => {
                let body = self.build_stmts(&c.body);
                self.code.classes.push(CClass {
                    def: Arc::clone(c),
                    body,
                });
                b.emit(Insn::DefClass((self.code.classes.len() - 1) as u32));
            }
            RStmt::Return(e) => match e {
                Some(e) => {
                    self.expr(b, e);
                    b.emit(Insn::Return);
                }
                None => b.emit(Insn::ReturnNone),
            },
            RStmt::Pass => {}
            RStmt::Break => match b.loops.last().map(|c| c.is_for) {
                Some(true) => {
                    let site = b.emit_jump(Insn::PopIterJump(0));
                    b.loops.last_mut().expect("loop ctx").break_sites.push(site);
                }
                Some(false) => {
                    let site = b.emit_jump(Insn::Jump(0));
                    b.loops.last_mut().expect("loop ctx").break_sites.push(site);
                }
                None => b.emit(Insn::BreakFlow),
            },
            RStmt::Continue => match b.loops.last().map(|c| (c.is_for, c.head)) {
                Some((true, head)) => {
                    b.emit(Insn::Jump(head));
                }
                Some((false, _)) => {
                    let site = b.emit_jump(Insn::Jump(0));
                    b.loops
                        .last_mut()
                        .expect("loop ctx")
                        .continue_sites
                        .push(site);
                }
                None => b.emit(Insn::ContinueFlow),
            },
            RStmt::Import { items } => {
                self.code.imports.push(items.clone().into_boxed_slice());
                b.emit(Insn::Import((self.code.imports.len() - 1) as u32));
            }
            RStmt::FromImport { module, names } => {
                self.code
                    .from_imports
                    .push((module.clone(), names.clone().into_boxed_slice()));
                b.emit(Insn::FromImport((self.code.from_imports.len() - 1) as u32));
            }
            RStmt::Raise(e) => match e {
                None => b.emit(Insn::Reraise),
                Some(e) => {
                    self.expr(b, e);
                    b.emit(Insn::Raise);
                }
            },
            RStmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                let body_block = self.build_stmts(body);
                let handlers = handlers
                    .iter()
                    .map(|h| CHandler {
                        exc_type: h.exc_type.clone(),
                        name: h.name,
                        body: self.build_stmts(&h.body),
                    })
                    .collect();
                let orelse = if orelse.is_empty() {
                    NO_BLOCK
                } else {
                    self.build_stmts(orelse)
                };
                let finalbody = if finalbody.is_empty() {
                    NO_BLOCK
                } else {
                    self.build_stmts(finalbody)
                };
                self.code.trys.push(CTry {
                    body: body_block,
                    handlers,
                    orelse,
                    finalbody,
                    on_break: None,
                    on_continue: None,
                });
                let idx = self.code.trys.len() - 1;
                if let Some(ctx) = b.loops.last_mut() {
                    ctx.try_idxs.push(idx);
                }
                b.emit(Insn::Try(idx as u32));
            }
            RStmt::Global(names) => {
                for n in names {
                    b.emit(Insn::Global(*n));
                }
            }
            RStmt::Assert { test, msg } => {
                self.expr(b, test);
                let ok = b.emit_jump(Insn::PopJumpIfTrue(0));
                match msg {
                    Some(m) => {
                        self.expr(b, m);
                        b.emit(Insn::AssertRaise { has_msg: true });
                    }
                    None => b.emit(Insn::AssertRaise { has_msg: false }),
                }
                let end = b.here();
                b.patch(ok, end);
            }
            RStmt::Del(target) => match target {
                RExpr::Name(n) => b.emit(Insn::DelName(*n)),
                RExpr::Attribute { value, attr, .. } => {
                    self.expr(b, value);
                    b.emit(Insn::DelAttr(*attr));
                }
                RExpr::Subscript { value, index } => {
                    self.expr(b, value);
                    self.expr(b, index);
                    b.emit(Insn::DelItem);
                }
                _ => b.emit(Insn::InvalidDel),
            },
        }
    }

    /// Compile a store of the stack top into `target` (assignment tail).
    fn store(&mut self, b: &mut BlockBuilder, target: &RExpr) {
        match target {
            RExpr::Name(n) => b.emit(Insn::StoreName(*n)),
            RExpr::Attribute { value, attr, .. } => {
                self.expr(b, value);
                b.emit(Insn::StoreAttr(*attr));
            }
            RExpr::Subscript { value, index } => {
                self.expr(b, value);
                self.expr(b, index);
                b.emit(Insn::StoreItem);
            }
            RExpr::Tuple(targets) | RExpr::List(targets) => {
                b.emit(Insn::Unpack(targets.len() as u32));
                for t in targets {
                    self.store(b, t);
                }
            }
            _ => b.emit(Insn::InvalidAssign),
        }
    }

    fn expr(&mut self, b: &mut BlockBuilder, e: &RExpr) {
        b.tick();
        match e {
            RExpr::None => {
                let id = self.const_id(Const::None);
                b.insns.push(Insn::Const(id));
            }
            RExpr::True => {
                let id = self.const_id(Const::True);
                b.insns.push(Insn::Const(id));
            }
            RExpr::False => {
                let id = self.const_id(Const::False);
                b.insns.push(Insn::Const(id));
            }
            RExpr::Int(v) => {
                let id = self.const_id(Const::Int(*v));
                b.insns.push(Insn::Const(id));
            }
            RExpr::Float(v) => {
                let id = self.const_id(Const::Float(*v));
                b.insns.push(Insn::Const(id));
            }
            RExpr::Str(s) => {
                self.code.strs.push(Arc::clone(s));
                b.emit(Insn::Str((self.code.strs.len() - 1) as u32));
            }
            RExpr::Name(n) => b.emit(Insn::LoadName(*n)),
            RExpr::List(items) => {
                for i in items {
                    self.expr(b, i);
                }
                b.emit(Insn::MakeList(items.len() as u32));
            }
            RExpr::Tuple(items) => {
                for i in items {
                    self.expr(b, i);
                }
                b.emit(Insn::MakeTuple(items.len() as u32));
            }
            RExpr::Dict(pairs) => {
                for (k, v) in pairs {
                    self.expr(b, k);
                    self.expr(b, v);
                }
                b.emit(Insn::MakeDict(pairs.len() as u32));
            }
            RExpr::Attribute { value, attr, site } => {
                self.expr(b, value);
                b.emit(Insn::LoadAttr {
                    attr: *attr,
                    site: *site,
                });
            }
            RExpr::Subscript { value, index } => {
                self.expr(b, value);
                self.expr(b, index);
                b.emit(Insn::LoadItem);
            }
            RExpr::Call { func, args, kwargs } => {
                self.expr(b, func);
                for a in args {
                    self.expr(b, a);
                }
                let kw = if kwargs.is_empty() {
                    NO_KW
                } else {
                    let names: Box<[Symbol]> = kwargs.iter().map(|(k, _)| *k).collect();
                    for (_, v) in kwargs {
                        self.expr(b, v);
                    }
                    self.code.kwnames.push(names);
                    (self.code.kwnames.len() - 1) as u32
                };
                b.emit(Insn::Call {
                    argc: args.len() as u32,
                    kw,
                });
            }
            RExpr::Unary { op, operand } => {
                self.expr(b, operand);
                b.emit(Insn::Unary(*op));
            }
            RExpr::Binary { left, op, right } => {
                self.expr(b, left);
                self.expr(b, right);
                b.emit(Insn::Binary(*op));
            }
            RExpr::Bool { op, values } => {
                let mut sites = Vec::with_capacity(values.len());
                let last = values.len() - 1;
                for (i, v) in values.iter().enumerate() {
                    self.expr(b, v);
                    if i < last {
                        sites.push(b.emit_jump(match op {
                            BoolOp::And => Insn::JumpIfFalseOrPop(0),
                            BoolOp::Or => Insn::JumpIfTrueOrPop(0),
                        }));
                    }
                }
                let end = b.here();
                for site in sites {
                    b.patch(site, end);
                }
            }
            RExpr::Compare { left, ops } => {
                self.expr(b, left);
                if let [(op, rhs)] = ops.as_slice() {
                    self.expr(b, rhs);
                    b.emit(Insn::Compare(*op));
                } else {
                    let mut sites = Vec::with_capacity(ops.len());
                    for (op, rhs) in ops {
                        self.expr(b, rhs);
                        sites.push(b.emit_jump(Insn::CmpChain { op: *op, fail: 0 }));
                    }
                    b.emit(Insn::Pop);
                    let id = self.const_id(Const::True);
                    b.insns.push(Insn::Const(id));
                    let end = b.here();
                    for site in sites {
                        b.patch(site, end);
                    }
                }
            }
            RExpr::Conditional { test, body, orelse } => {
                self.expr(b, test);
                let alt = b.emit_jump(Insn::PopJumpIfFalse(0));
                self.expr(b, body);
                let end_site = b.emit_jump(Insn::Jump(0));
                let alt_at = b.here();
                b.patch(alt, alt_at);
                self.expr(b, orelse);
                let end = b.here();
                b.patch(end_site, end);
            }
            RExpr::ListComp {
                element,
                targets,
                iter,
                cond,
            } => {
                self.expr(b, iter);
                let cond = match cond {
                    Some(c) => self.build_exprs([&**c]),
                    None => NO_BLOCK,
                };
                let element = self.build_exprs([&**element]);
                self.code.comps.push(CComp {
                    targets: targets.clone().into_boxed_slice(),
                    cond,
                    element,
                });
                b.emit(Insn::ListComp((self.code.comps.len() - 1) as u32));
            }
            RExpr::Slice { value, start, stop } => {
                self.expr(b, value);
                if let Some(s) = start {
                    self.expr(b, s);
                }
                if let Some(s) = stop {
                    self.expr(b, s);
                }
                b.emit(Insn::Slice {
                    has_start: start.is_some(),
                    has_stop: stop.is_some(),
                });
            }
        }
    }
}

// -- virtual machine ------------------------------------------------------

use crate::interp::{unary_op, Env, Flow, Interpreter};
use crate::value::{py_str, ExcKind, PyErr, Value};
use std::rc::Rc;

/// The outcome of a module or class body: a `return`, `break` or
/// `continue` reaching its top level is an error.
fn top_level(flow: Flow) -> Result<(), PyErr> {
    match flow {
        Flow::Normal => Ok(()),
        _ => Err(PyErr::new(
            ExcKind::RuntimeError,
            "return/break/continue outside of function or loop",
        )),
    }
}

/// Per-invocation operand state. One frame serves a whole code object:
/// nested blocks (try bodies, handlers, comprehension expressions,
/// parameter defaults, class bodies) run in the same frame, and
/// [`Insn::Try`] truncates back to its saved bases when it captures an
/// error mid-expression.
#[derive(Debug, Default)]
pub(crate) struct VmFrame {
    stack: Vec<Value>,
    iters: Vec<(Vec<Value>, usize)>,
}

impl Interpreter {
    /// Run a compiled module body (block 0) in `env`.
    pub(crate) fn vm_exec_block(&mut self, code: &CodeObj, env: &mut Env) -> Result<(), PyErr> {
        top_level(self.with_pooled_frame(code, env)?)
    }

    /// Run a linked module body in `env`, link by link in one pooled
    /// frame: the operand stacks are empty between top-level statements.
    pub(crate) fn vm_exec_linked(&mut self, body: &LinkedBody, env: &mut Env) -> Result<(), PyErr> {
        let mut frame = self.vm_frames.pop().unwrap_or_default();
        let result = body.links.iter().try_for_each(|(code, pcs)| {
            let pcs = pcs.start as usize..pcs.end as usize;
            top_level(self.run_pcs(code, 0, pcs, env, &mut frame)?)
        });
        frame.stack.clear();
        frame.iters.clear();
        self.vm_frames.push(frame);
        result
    }

    /// Run a compiled function body and return its control-flow outcome.
    pub(crate) fn vm_run_suite(&mut self, code: &CodeObj, env: &mut Env) -> Result<Flow, PyErr> {
        self.with_pooled_frame(code, env)
    }

    /// Run block 0 of `code` in a frame drawn from (and returned to) the
    /// interpreter's frame pool, so nested calls reuse already-grown operand
    /// stacks instead of re-allocating one `Vec` pair per invocation.
    fn with_pooled_frame(&mut self, code: &CodeObj, env: &mut Env) -> Result<Flow, PyErr> {
        let mut frame = self.vm_frames.pop().unwrap_or_default();
        let result = self.run_block(code, 0, env, &mut frame);
        frame.stack.clear();
        frame.iters.clear();
        self.vm_frames.push(frame);
        result
    }

    fn run_block(
        &mut self,
        code: &CodeObj,
        block: u32,
        env: &mut Env,
        frame: &mut VmFrame,
    ) -> Result<Flow, PyErr> {
        let len = code.blocks[block as usize].len();
        self.run_pcs(code, block, 0..len, env, frame)
    }

    /// Run the instructions `pcs` of `block`. Every jump of a top-level
    /// statement stays inside the statement, so a range of whole
    /// statements runs as the statements would alone.
    fn run_pcs(
        &mut self,
        code: &CodeObj,
        block: u32,
        pcs: Range<usize>,
        env: &mut Env,
        frame: &mut VmFrame,
    ) -> Result<Flow, PyErr> {
        let insns: &[Insn] = &code.blocks[block as usize][..pcs.end];
        let mut pc = pcs.start;
        while let Some(insn) = insns.get(pc) {
            match insn {
                Insn::StmtTick { extra } => {
                    self.meter.steps += 1;
                    if self.meter.steps > self.step_limit {
                        return Err(PyErr::new(
                            ExcKind::ResourceExhausted,
                            format!("step limit of {} exceeded", self.step_limit),
                        ));
                    }
                    self.meter
                        .tick(self.cost.stmt_ns + self.cost.expr_node_ns * *extra as u64);
                }
                Insn::Tick(n) => {
                    self.meter.tick(self.cost.expr_node_ns * *n as u64);
                }
                Insn::LoopStep => {
                    self.meter.steps += 1;
                    if self.meter.steps > self.step_limit {
                        return Err(PyErr::new(
                            ExcKind::ResourceExhausted,
                            "step limit exceeded in while loop",
                        ));
                    }
                }
                Insn::Const(i) => frame.stack.push(match code.consts[*i as usize] {
                    Const::None => Value::None,
                    Const::True => Value::Bool(true),
                    Const::False => Value::Bool(false),
                    Const::Int(v) => Value::Int(v),
                    Const::Float(v) => Value::Float(v),
                }),
                Insn::Str(i) => {
                    let s = &code.strs[*i as usize];
                    self.meter.alloc(self.cost.str_char_bytes * s.len() as u64);
                    frame.stack.push(Value::Str(Arc::clone(s)));
                }
                Insn::LoadName(sym) => {
                    let v = self.lookup_name(*sym, env)?;
                    frame.stack.push(v);
                }
                Insn::StoreName(sym) => {
                    let v = frame.stack.pop().expect("StoreName operand");
                    self.bind_name(*sym, v, env);
                }
                Insn::Pop => {
                    frame.stack.pop();
                }
                Insn::Dup => {
                    let v = frame.stack.last().expect("Dup operand").clone();
                    frame.stack.push(v);
                }
                Insn::MakeList(n) => {
                    let at = frame.stack.len() - *n as usize;
                    let items: Vec<Value> = frame.stack.split_off(at);
                    self.meter.alloc(self.cost.element_bytes * *n as u64);
                    frame.stack.push(Value::list(items));
                }
                Insn::MakeTuple(n) => {
                    let at = frame.stack.len() - *n as usize;
                    let items: Vec<Value> = frame.stack.split_off(at);
                    self.meter.alloc(self.cost.element_bytes * *n as u64);
                    frame.stack.push(Value::tuple(items));
                }
                Insn::MakeDict(n) => {
                    let at = frame.stack.len() - 2 * *n as usize;
                    let mut flat = frame.stack.split_off(at).into_iter();
                    let mut pairs = Vec::with_capacity(*n as usize);
                    while let (Some(k), Some(v)) = (flat.next(), flat.next()) {
                        pairs.push((k, v));
                    }
                    self.meter.alloc(self.cost.element_bytes * 2 * *n as u64);
                    frame.stack.push(Value::dict(pairs));
                }
                Insn::LoadAttr { attr, site } => {
                    let obj = frame.stack.pop().expect("LoadAttr operand");
                    let v = self.attr_lookup(&obj, *attr, Some(*site))?;
                    frame.stack.push(v);
                }
                Insn::StoreAttr(attr) => {
                    let obj = frame.stack.pop().expect("StoreAttr object");
                    let v = frame.stack.pop().expect("StoreAttr value");
                    self.set_attr(&obj, *attr, v)?;
                }
                Insn::LoadItem => {
                    let idx = frame.stack.pop().expect("LoadItem index");
                    let obj = frame.stack.pop().expect("LoadItem object");
                    let v = self.get_item(&obj, &idx)?;
                    frame.stack.push(v);
                }
                Insn::StoreItem => {
                    let idx = frame.stack.pop().expect("StoreItem index");
                    let obj = frame.stack.pop().expect("StoreItem object");
                    let v = frame.stack.pop().expect("StoreItem value");
                    self.set_item(&obj, idx, v)?;
                }
                Insn::Slice {
                    has_start,
                    has_stop,
                } => {
                    let stop = if *has_stop { frame.stack.pop() } else { None };
                    let start = if *has_start { frame.stack.pop() } else { None };
                    let v = frame.stack.pop().expect("Slice operand");
                    let out = self.slice_value(&v, start.as_ref(), stop.as_ref())?;
                    frame.stack.push(out);
                }
                Insn::Unary(op) => {
                    let v = frame.stack.pop().expect("Unary operand");
                    frame.stack.push(unary_op(*op, v)?);
                }
                Insn::Binary(op) => {
                    let r = frame.stack.pop().expect("Binary rhs");
                    let l = frame.stack.pop().expect("Binary lhs");
                    let out = self.binary_op(*op, l, r)?;
                    frame.stack.push(out);
                }
                Insn::Compare(op) => {
                    let r = frame.stack.pop().expect("Compare rhs");
                    let l = frame.stack.pop().expect("Compare lhs");
                    let out = self.compare(*op, &l, &r)?;
                    frame.stack.push(Value::Bool(out));
                }
                Insn::CmpChain { op, fail } => {
                    let r = frame.stack.pop().expect("CmpChain rhs");
                    let l = frame.stack.pop().expect("CmpChain lhs");
                    if self.compare(*op, &l, &r)? {
                        frame.stack.push(r);
                    } else {
                        frame.stack.push(Value::Bool(false));
                        pc = *fail as usize;
                        continue;
                    }
                }
                Insn::Call { argc, kw } => {
                    let kwargs = if *kw == NO_KW {
                        Vec::new()
                    } else {
                        let names = &code.kwnames[*kw as usize];
                        let at = frame.stack.len() - names.len();
                        names
                            .iter()
                            .copied()
                            .zip(frame.stack.split_off(at))
                            .collect()
                    };
                    let at = frame.stack.len() - *argc as usize;
                    let args = frame.stack.split_off(at);
                    let f = frame.stack.pop().expect("Call callee");
                    let out = self.call_value(f, args, kwargs)?;
                    frame.stack.push(out);
                }
                Insn::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Insn::PopJumpIfFalse(t) => {
                    if !frame.stack.pop().expect("jump operand").truthy() {
                        pc = *t as usize;
                        continue;
                    }
                }
                Insn::PopJumpIfTrue(t) => {
                    if frame.stack.pop().expect("jump operand").truthy() {
                        pc = *t as usize;
                        continue;
                    }
                }
                Insn::JumpIfFalseOrPop(t) => {
                    if !frame.stack.last().expect("jump operand").truthy() {
                        pc = *t as usize;
                        continue;
                    }
                    frame.stack.pop();
                }
                Insn::JumpIfTrueOrPop(t) => {
                    if frame.stack.last().expect("jump operand").truthy() {
                        pc = *t as usize;
                        continue;
                    }
                    frame.stack.pop();
                }
                Insn::ForSetup => {
                    let iterable = frame.stack.pop().expect("ForSetup operand");
                    let items = self.iter_values(&iterable)?;
                    frame.iters.push((items, 0));
                }
                Insn::ForNext { targets, end } => {
                    let next = {
                        let (items, idx) = frame.iters.last_mut().expect("ForNext iterator");
                        if *idx < items.len() {
                            let v = items[*idx].clone();
                            *idx += 1;
                            Some(v)
                        } else {
                            None
                        }
                    };
                    match next {
                        None => {
                            frame.iters.pop();
                            pc = *end as usize;
                            continue;
                        }
                        Some(item) => {
                            let syms = &code.for_targets[*targets as usize];
                            if let [target] = &**syms {
                                self.bind_name(*target, item, env);
                            } else {
                                let parts = self.iter_values(&item)?;
                                if parts.len() != syms.len() {
                                    return Err(PyErr::new(
                                        ExcKind::ValueError,
                                        format!(
                                            "cannot unpack {} values into {} loop targets",
                                            parts.len(),
                                            syms.len()
                                        ),
                                    ));
                                }
                                for (t, v) in syms.iter().zip(parts) {
                                    self.bind_name(*t, v, env);
                                }
                            }
                        }
                    }
                }
                Insn::PopIterJump(t) => {
                    frame.iters.pop();
                    pc = *t as usize;
                    continue;
                }
                Insn::ListComp(i) => {
                    let comp = &code.comps[*i as usize];
                    let iterable = frame.stack.pop().expect("ListComp iterable");
                    let items = self.iter_values(&iterable)?;
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        self.meter.steps += 1;
                        if self.meter.steps > self.step_limit {
                            return Err(PyErr::new(
                                ExcKind::ResourceExhausted,
                                "step limit exceeded in comprehension",
                            ));
                        }
                        if let [target] = &*comp.targets {
                            self.bind_name(*target, item, env);
                        } else {
                            let parts = self.iter_values(&item)?;
                            if parts.len() != comp.targets.len() {
                                return Err(PyErr::new(
                                    ExcKind::ValueError,
                                    "comprehension target unpack mismatch",
                                ));
                            }
                            for (t, v) in comp.targets.iter().zip(parts) {
                                self.bind_name(*t, v, env);
                            }
                        }
                        if comp.cond != NO_BLOCK {
                            self.run_block(code, comp.cond, env, frame)?;
                            let keep = frame.stack.pop().expect("comp cond value");
                            if !keep.truthy() {
                                continue;
                            }
                        }
                        self.run_block(code, comp.element, env, frame)?;
                        out.push(frame.stack.pop().expect("comp element value"));
                    }
                    self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                    frame.stack.push(Value::list(out));
                }
                Insn::DefFunc(i) => {
                    let f = &code.funcs[*i as usize];
                    let params = &f.def.params;
                    let defaults = if f.defaults == NO_BLOCK {
                        vec![None; params.len()]
                    } else {
                        // Defaults see the defining scope without its
                        // `global` declarations.
                        let decls = std::mem::take(&mut env.global_decls);
                        let ran = self.run_block(code, f.defaults, env, frame);
                        env.global_decls = decls;
                        ran?;
                        let at = frame.stack.len() - f.n_defaults as usize;
                        let mut values = frame.stack.drain(at..);
                        params
                            .iter()
                            .map(|p| {
                                p.default
                                    .as_ref()
                                    .map(|_| values.next().expect("default value"))
                            })
                            .collect()
                    };
                    self.define_function(&f.def, defaults, env);
                }
                Insn::DefClass(i) => {
                    let class = &code.classes[*i as usize];
                    self.define_class(&class.def, env, |it, class_env| {
                        top_level(it.run_block(code, class.body, class_env, frame)?)
                    })?;
                }
                Insn::Import(i) => {
                    self.exec_import(&code.imports[*i as usize], env)?;
                }
                Insn::FromImport(i) => {
                    let (module, names) = &code.from_imports[*i as usize];
                    self.exec_from_import(module, names, env)?;
                }
                Insn::DelName(sym) => self.del_name(*sym, env)?,
                Insn::DelAttr(attr) => {
                    let obj = frame.stack.pop().expect("DelAttr object");
                    self.del_attr(&obj, *attr)?;
                }
                Insn::DelItem => {
                    let idx = frame.stack.pop().expect("DelItem index");
                    let obj = frame.stack.pop().expect("DelItem object");
                    self.del_item(&obj, &idx)?;
                }
                Insn::InvalidDel => return Err(PyErr::type_error("unsupported del target")),
                Insn::Global(sym) => {
                    env.global_decls.insert(*sym);
                }
                Insn::Return => {
                    let v = frame.stack.pop().expect("Return value");
                    return Ok(Flow::Return(v));
                }
                Insn::ReturnNone => return Ok(Flow::Return(Value::None)),
                Insn::BreakFlow => return Ok(Flow::Break),
                Insn::ContinueFlow => return Ok(Flow::Continue),
                Insn::Raise => {
                    let v = frame.stack.pop().expect("Raise operand");
                    return Err(self.value_to_exception(v)?);
                }
                Insn::Reraise => {
                    return Err(PyErr::new(ExcKind::RuntimeError, "re-raise outside except"))
                }
                Insn::AssertRaise { has_msg } => {
                    let message = if *has_msg {
                        py_str(&frame.stack.pop().expect("assert message"))
                    } else {
                        String::new()
                    };
                    return Err(PyErr::new(ExcKind::AssertionError, message));
                }
                Insn::Try(i) => {
                    let t = &code.trys[*i as usize];
                    match self.run_try(code, t, env, frame)? {
                        Flow::Normal => {}
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Break => match t.on_break {
                            Some(exit) => {
                                if exit.pop_iter {
                                    frame.iters.pop();
                                }
                                pc = exit.target as usize;
                                continue;
                            }
                            None => return Ok(Flow::Break),
                        },
                        Flow::Continue => match t.on_continue {
                            Some(target) => {
                                pc = target as usize;
                                continue;
                            }
                            None => return Ok(Flow::Continue),
                        },
                    }
                }
                Insn::Unpack(n) => {
                    let v = frame.stack.pop().expect("Unpack operand");
                    let items = self.iter_values(&v)?;
                    if items.len() != *n as usize {
                        return Err(PyErr::new(
                            ExcKind::ValueError,
                            format!("cannot unpack {} values into {} targets", items.len(), *n),
                        ));
                    }
                    for item in items.into_iter().rev() {
                        frame.stack.push(item);
                    }
                }
                Insn::InvalidAssign => return Err(PyErr::type_error("invalid assignment target")),
            }
            pc += 1;
        }
        Ok(Flow::Normal)
    }

    /// Execute a compiled `try` statement: `ResourceExhausted` is not
    /// catchable, handlers match in order, `orelse` runs only on normal
    /// completion, and `finally` always runs, its own error or flow
    /// winning.
    fn run_try(
        &mut self,
        code: &CodeObj,
        t: &CTry,
        env: &mut Env,
        frame: &mut VmFrame,
    ) -> Result<Flow, PyErr> {
        let stack_base = frame.stack.len();
        let iters_base = frame.iters.len();
        let outcome = self.run_block(code, t.body, env, frame);
        let result = match outcome {
            Ok(flow) => {
                if matches!(flow, Flow::Normal) && t.orelse != NO_BLOCK {
                    self.run_block(code, t.orelse, env, frame)
                } else {
                    Ok(flow)
                }
            }
            Err(err) => {
                // The protected body may have unwound mid-expression or
                // mid-loop: reset this frame's portion of the stacks.
                frame.stack.truncate(stack_base);
                frame.iters.truncate(iters_base);
                // ResourceExhausted is not catchable: it models the
                // platform killing the function.
                if matches!(err.kind, ExcKind::ResourceExhausted) {
                    Err(err)
                } else {
                    let mut handled = None;
                    for h in t.handlers.iter() {
                        let matches = match &h.exc_type {
                            None => true,
                            Some(class) => err.matches_handler(class),
                        };
                        if matches {
                            if let Some(name) = h.name {
                                self.bind_name(name, Value::ExcValue(Rc::new(err.clone())), env);
                            }
                            handled = Some(self.run_block(code, h.body, env, frame));
                            break;
                        }
                    }
                    handled.unwrap_or(Err(err))
                }
            }
        };
        if t.finalbody != NO_BLOCK {
            if result.is_err() {
                frame.stack.truncate(stack_base);
                frame.iters.truncate(iters_base);
            }
            // `finally` runs regardless; its own error or flow wins.
            match self.run_block(code, t.finalbody, env, frame)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;
    use crate::value::py_repr;
    use crate::Interpreter;
    use std::collections::BTreeMap;
    use trim_rng::Rng;

    /// Everything a run can observe: the result, stdout, extcalls, import
    /// events, the meter, observed accesses, per-site inline-cache counters
    /// and the `__main__` namespace.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        result: Result<Vec<String>, String>,
        stdout: Vec<String>,
        extcalls: Vec<String>,
        imports: Vec<(String, usize, u64, u64)>,
        meter: (u64, u64, u64),
        observed: BTreeMap<String, std::collections::BTreeSet<String>>,
        ic_sites: BTreeMap<u32, (u64, u64)>,
        ic_init: (u64, u64),
    }

    fn observe(mut interp: Interpreter, source: &str) -> Outcome {
        interp.enable_ic_stats();
        let result = match interp.exec_main(source) {
            Ok(main) => Ok(main
                .ns
                .key_syms()
                .into_iter()
                .map(|k| {
                    let v = main.ns.get(k).expect("key from snapshot");
                    format!(
                        "{} = {}",
                        interp.registry.interner().resolve(k),
                        py_repr(&v)
                    )
                })
                .collect()),
            Err(e) => Err(e.to_string()),
        };
        Outcome {
            result,
            stdout: interp.stdout.clone(),
            extcalls: interp.extcalls.clone(),
            imports: interp
                .import_events
                .iter()
                .map(|e| (e.module.clone(), e.depth, e.time_ns, e.mem_bytes))
                .collect(),
            meter: (
                interp.meter.clock_ns(),
                interp.meter.mem_bytes(),
                interp.meter.steps,
            ),
            observed: interp.observed_accesses(),
            ic_sites: interp
                .ic_site_stats()
                .expect("enabled")
                .iter()
                .map(|(site, s)| (*site, (s.hits, s.misses)))
                .collect(),
            ic_init: interp.ic_init_totals(),
        }
    }

    /// Run `source` on the VM and on the tree-walking reference against
    /// the same module set (and step limit), assert byte-identical
    /// outcomes, and return the VM's. Each run gets its own registry, so
    /// both allocate the same inline-cache site ids.
    fn assert_engines_agree_limited(
        modules: &[(&str, &str)],
        source: &str,
        step_limit: u64,
    ) -> Outcome {
        let registry = || {
            let mut registry = Registry::new();
            for (name, src) in modules {
                registry.set_module(*name, *src);
            }
            registry
        };
        let mut vm = Interpreter::new(registry());
        let mut tree = Interpreter::reference(registry());
        vm.step_limit = step_limit;
        tree.step_limit = step_limit;
        let vm = observe(vm, source);
        assert_eq!(
            observe(tree, source),
            vm,
            "reference vs vm diverged on:\n{source}"
        );
        vm
    }

    fn assert_engines_agree(modules: &[(&str, &str)], source: &str) -> Outcome {
        assert_engines_agree_limited(modules, source, crate::interp::DEFAULT_STEP_LIMIT)
    }

    fn agree(source: &str) -> Outcome {
        assert_engines_agree(&[], source)
    }

    #[test]
    fn arithmetic_and_prints_match() {
        agree("x = 1 + 2 * 3\ny = x % 4\nprint(x, y, x ** 2, -x, not y)\n");
    }

    #[test]
    fn while_loop_with_break_and_continue_matches() {
        agree(
            "total = 0\ni = 0\nwhile True:\n    i = i + 1\n    if i % 2 == 0:\n        continue\n    if i > 9:\n        break\n    total = total + i\nprint(total, i)\n",
        );
    }

    #[test]
    fn for_loop_with_unpacking_matches() {
        agree(
            "pairs = [(1, 'a'), (2, 'b'), (3, 'c')]\nout = []\nfor n, s in pairs:\n    if n == 2:\n        continue\n    out.append(s * n)\nprint(out)\n",
        );
    }

    #[test]
    fn comprehension_with_condition_matches() {
        agree("xs = [i * i for i in range(10) if i % 3 != 0]\nprint(xs, len(xs))\n");
    }

    #[test]
    fn chained_comparison_short_circuits_identically() {
        agree("def f(x):\n    print('f', x)\n    return x\nprint(f(1) < f(2) < f(0) < f(3))\n");
    }

    #[test]
    fn bool_operators_preserve_values_and_ticks() {
        agree("a = 0 or '' or [1]\nb = 1 and 'x' and {}\nprint(a, b, a or b, a and b)\n");
    }

    #[test]
    fn try_except_else_finally_matches() {
        agree(
            "log = []\ntry:\n    log.append('body')\n    raise ValueError('boom')\nexcept KeyError:\n    log.append('wrong')\nexcept ValueError as e:\n    log.append(str(e))\nelse:\n    log.append('else')\nfinally:\n    log.append('finally')\nprint(log)\n",
        );
    }

    #[test]
    fn break_across_try_finally_matches() {
        agree(
            "log = []\nfor i in range(5):\n    try:\n        if i == 2:\n            break\n        log.append(i)\n    finally:\n        log.append('fin')\nprint(log)\n",
        );
    }

    #[test]
    fn continue_across_try_in_while_matches() {
        agree(
            "i = 0\nlog = []\nwhile i < 4:\n    i = i + 1\n    try:\n        if i % 2:\n            continue\n        log.append(i)\n    finally:\n        log.append('f')\nprint(log, i)\n",
        );
    }

    #[test]
    fn uncaught_errors_match_exactly() {
        agree("def f():\n    return unknown_name\nf()\n");
        agree("xs = [1, 2]\nprint(xs[5])\n");
        agree("a, b, c = [1, 2]\n");
        agree("assert 1 == 2, 'expected ' + str(1)\n");
        agree("1 + 'x'\n");
        agree("raise\n");
    }

    #[test]
    fn classes_and_methods_match() {
        agree(
            "class Greeter:\n    prefix = 'hi '\n    def __init__(self, name):\n        self.name = name\n    def greet(self):\n        return self.prefix + self.name\ng = Greeter('vm')\ng.prefix = 'hello '\nprint(g.greet())\n",
        );
    }

    #[test]
    fn imports_and_attr_caches_match() {
        assert_engines_agree(
            &[
                ("lib", "value = 10\ndef bump(x):\n    return x + value\n"),
                ("pkg", "import lib\nwrapped = lib.bump\n"),
            ],
            "import pkg\nimport lib\nprint(pkg.wrapped(5))\nfor i in range(3):\n    print(lib.bump(i))\n",
        );
    }

    #[test]
    fn augmented_and_multi_target_assignment_match() {
        agree(
            "class Box:\n    pass\nb = Box()\nb.v = 1\nb.v += 2\nd = {'k': 1}\nd['k'] += 5\nx = y = z = [0]\ny.append(1)\nprint(b.v, d['k'], x, z)\n",
        );
    }

    #[test]
    fn slices_and_subscripts_match() {
        agree("s = 'hello world'\nxs = [1, 2, 3, 4, 5]\nprint(s[2:7], s[:5], s[6:], xs[1:4], xs[:-1])\n");
    }

    #[test]
    fn conditional_expression_evaluates_one_arm() {
        agree("def side(tag, v):\n    print(tag)\n    return v\nx = side('a', 1) if side('t', True) else side('b', 2)\nprint(x)\n");
    }

    #[test]
    fn step_limit_errors_match_between_engines() {
        let out = assert_engines_agree_limited(&[], "i = 0\nwhile True:\n    i = i + 1\n", 10_000);
        assert!(out.result.unwrap_err().contains("ResourceExhausted"));
    }

    #[test]
    fn class_bodies_match() {
        assert_engines_agree(
            &[("base", "class Root:\n    tag = 'root'\n")],
            "import base\nscale = 3\nclass Shape(base.Root):\n    sides = 0\n    label = 'shape' * 2\n    names = [n * scale for n in range(3)]\n    if scale > 2:\n        big = True\n    else:\n        big = False\n    for k in ['a', 'b']:\n        last = k\n    try:\n        missing\n    except NameError:\n        caught = 'yes'\n    class Inner:\n        depth = 2\n    def area(self, k=sides):\n        return k + self.sides\nclass Square(Shape):\n    sides = 4\nprint(Square().area(), Square.label, Square.names, Square.big, Square.last)\nprint(Shape.caught, Shape.Inner.depth, Square.tag, k if False else 'no k')\n",
        );
    }

    #[test]
    fn class_body_globals_and_deletes_match() {
        agree(
            "counter = 0\nclass Reg:\n    global counter\n    counter = counter + 1\n    tmp = 5\n    keep = tmp * 2\n    del tmp\nprint(counter, Reg.keep, hasattr(Reg, 'tmp'))\n",
        );
    }

    #[test]
    fn class_body_that_raises_matches() {
        let out = agree("class Broken:\n    x = 1\n    y = undefined_name\n    z = 3\n");
        assert!(out.result.unwrap_err().contains("undefined_name"));
        agree(
            "try:\n    class Bad:\n        a = [1, 2]\n        b = a[5]\nexcept IndexError as e:\n    print('caught', e)\nprint(Bad)\n",
        );
        agree("class C(not_a_base):\n    pass\n");
        agree("x = 1\nclass C(x):\n    pass\n");
        agree("class C:\n    return 1\n");
        agree("for i in range(2):\n    class C:\n        break\n");
        // A class body shares its definer's frame: an error raised inside
        // its own loop must leave the enclosing loop's iterator intact.
        agree(
            "out = []\nfor i in range(3):\n    try:\n        class C:\n            for j in range(2):\n                out.append((i, j))\n                if j:\n                    missing_name\n    except NameError:\n        out.append('caught')\nprint(out)\n",
        );
    }

    #[test]
    fn step_limit_inside_class_body_matches() {
        let source = "class Spin:\n    i = 0\n    while True:\n        i = i + 1\n";
        for limit in [50, 51, 1_000] {
            let out = assert_engines_agree_limited(&[], source, limit);
            assert!(out.result.unwrap_err().contains("ResourceExhausted"));
        }
    }

    #[test]
    fn parameter_defaults_match() {
        assert_engines_agree(
            &[("cfg", "LIMIT = 7\n")],
            "import cfg\nbase = 'b'\ndef f(a, b=base * 3, c=[1, 2], d={'k': cfg.LIMIT}, e=len('xyz'), g=[i * i for i in range(4) if i]):\n    return (a, b, c, d, e, g)\nprint(f(0), f(1, c='cc'), f(2, e=None))\nclass T:\n    def m(self, x=cfg.LIMIT + 1):\n        return x\nprint(T().m(), T().m(3))\ndef later(n=base):\n    return n\nbase = 'changed'\nprint(later())\n",
        );
    }

    #[test]
    fn default_that_raises_matches() {
        let out = agree("def f(x=undefined_default):\n    return x\n");
        assert!(out.result.unwrap_err().contains("undefined_default"));
        agree("def f(a=1, b=1 // 0, c='never'):\n    return a\n");
        agree(
            "try:\n    def g(a=[1][3]):\n        pass\nexcept IndexError:\n    print('caught')\nprint(g)\n",
        );
    }

    #[test]
    fn defaults_ignore_the_enclosing_global_declarations() {
        // Defaults evaluate in the defining scope without its `global`
        // declarations: `x` reads outer's local, and the comprehension
        // binds `i` locally, not in the module.
        let out = agree(
            "x = 'module'\ndef outer():\n    x = 'local'\n    global x\n    global i\n    def inner(a=x, b=[i for i in range(3)]):\n        return a\n    return inner()\nprint(outer())\nprint(i)\n",
        );
        assert_eq!(out.stdout, ["local"]);
        assert!(out.result.unwrap_err().contains("'i' is not defined"));
    }

    #[test]
    fn del_matches() {
        assert_engines_agree(
            &[("lib", "value = 10\nother = 2\n")],
            "import lib\nx = 1\ndel x\nprint(lib.value)\ndel lib.value\ntry:\n    print(lib.value)\nexcept AttributeError as e:\n    print('gone', e)\nclass C:\n    a = 1\n    b = 2\nc = C()\nc.z = 3\ndel c.z\ndel C.a\nprint(hasattr(c, 'z'), hasattr(C, 'a'), C.b)\ndef f():\n    y = 2\n    del y\n    global lib\n    del lib\n    return 'ok'\nprint(f())\nprint(lib)\n",
        );
    }

    #[test]
    fn del_errors_match() {
        let out = agree("class A:\n    pass\ndel A.missing\n");
        assert!(out
            .result
            .unwrap_err()
            .contains("cannot delete attribute 'missing'"));
        agree("del never_bound\n");
        agree("del undefined_object.attr\n");
        agree("n = 5\ndel n.real\n");
        agree("def f():\n    del local_missing\nf()\n");
        for (source, error) in [
            ("d = {\"a\": 1}\ndel d[\"b\"]\n", "KeyError"),
            ("xs = [1, 2]\ndel xs[2]\n", "IndexError"),
            ("xs = [1, 2]\ndel xs[-3]\n", "IndexError"),
            ("xs = [1, 2]\ndel xs[\"a\"]\n", "indices must be integers"),
            (
                "t = (1, 2)\ndel t[0]\n",
                "'tuple' object doesn't support item deletion",
            ),
            (
                "s = \"ab\"\ndel s[0]\n",
                "'str' object doesn't support item deletion",
            ),
            ("xs = [1, 2]\ndel xs[0:1]\n", "unsupported del target"),
        ] {
            let err = agree(source).result.unwrap_err();
            assert!(err.contains(error), "{source:?}: {err}");
        }
    }

    #[test]
    fn del_of_a_subscript_removes_the_item() {
        let out = agree(
            "d = {\"a\": 1, \"b\": 2, 3: 4}\ndel d[\"a\"]\ndel d[3]\nxs = [1, 2, 3, 4]\ndel xs[0]\ndel xs[-1]\nprint(d, xs, len(d), len(xs))\n",
        );
        assert_eq!(out.stdout, ["{\"b\": 2} [2, 3] 1 2"]);
    }

    #[test]
    fn integer_edge_cases_wrap_on_both_engines() {
        let out = agree(
            "m = -9223372036854775807 - 1\nprint(m // -1, m % -1, 3 ** 50, -m, abs(m))\nprint(range(9223372036854775800, 9223372036854775807, 2))\nprint(range(-9223372036854775800, m, -3))\nprint(len('ab' * 5000000), [] * 9223372036854775807, '' * 9223372036854775807, [1] * -3)\nprint(int(1e300), int(9.3e18), int(-1e19), int(-2.5), int(1.7e38), int(-1.7e38))\n",
        );
        assert_eq!(
            out.stdout,
            [
                "-9223372036854775808 0 6048575297968530377 -9223372036854775808 -9223372036854775808",
                "[9223372036854775800, 9223372036854775802, 9223372036854775804, 9223372036854775806]",
                "[-9223372036854775800, -9223372036854775803, -9223372036854775806]",
                "10000000 []  []",
                "0 -9146744073709551616 8446744073709551616 -2 0 0",
            ]
        );
        for (source, error) in [
            ("int(float(\"nan\"))", "cannot convert float NaN to integer"),
            (
                "int(float(\"inf\"))",
                "cannot convert float infinity to integer",
            ),
            (
                "int(float(\"-inf\"))",
                "cannot convert float infinity to integer",
            ),
        ] {
            let err = agree(&format!("x = {source}\n")).result.unwrap_err();
            assert!(
                err.contains("ValueError") && err.contains(error),
                "{source}: {err}"
            );
        }
    }

    #[test]
    fn floor_division_modulo_and_power_follow_python() {
        let out = agree(
            "print(7 // -2, 7 % -2, -7 // -3, -7 % -3)\n\
             print(7.5 % -2, 1 // 0.1, -0.0 % 5, 6.0 % -3)\n\
             print(2 ** -3000000000, 2 ** 64, 3 ** 64)\n",
        );
        assert_eq!(
            out.stdout,
            [
                "-4 -1 2 -1",
                "-0.5 9.0 0.0 -0.0",
                "0.0 0 8733086111712066817"
            ]
        );
        for source in ["x = 0 ** -1\n", "x = 0.0 ** -1\n"] {
            let err = agree(source).result.unwrap_err();
            assert!(
                err.contains("ZeroDivisionError: 0.0 cannot be raised to a negative power"),
                "{source}: {err}"
            );
        }
    }

    #[test]
    fn float_power_overflow_and_fractional_negative_bases_raise() {
        let out = agree(
            "print(2.0 ** 1023, (-8.0) ** 3.0, (-2) ** -1, 4.0 ** 0.5)\n\
             print(float(\"inf\") ** 2, 10.0 ** -400, (-8.0) ** float(\"inf\"))\n",
        );
        assert_eq!(
            out.stdout,
            ["8.98846567431158e+307 -512.0 -0.5 2.0", "inf 0.0 inf"]
        );
        for (source, error) in [
            (
                "x = 10.0 ** 400\n",
                "OverflowError: (34, 'Numerical result out of range')",
            ),
            (
                "x = 0.5 ** -2000\n",
                "OverflowError: (34, 'Numerical result out of range')",
            ),
            (
                "x = (-8.0) ** 0.5\n",
                "ValueError: negative number cannot be raised to a fractional power",
            ),
            (
                "x = (-8) ** -0.5\n",
                "ValueError: negative number cannot be raised to a fractional power",
            ),
        ] {
            let err = agree(source).result.unwrap_err();
            assert!(err.contains(error), "{source}: {err}");
        }
        let caught =
            agree("try:\n    x = 10.0 ** 400\nexcept OverflowError as e:\n    x = str(e)\n");
        assert!(caught.result.is_ok(), "{:?}", caught.result);
    }

    #[test]
    fn float_repr_follows_python() {
        let out = agree(
            "print(2 ** 1000.0, 1e16, 1e15, 1e-07, 1.5e-5, 0.0001)\n\
             print(float(\"nan\"), float(\"inf\"), -float(\"inf\"), -0.0, [1e22, 0.1])\n\
             print(str(1e-5), repr(2.5e-300))\n",
        );
        assert_eq!(
            out.stdout,
            [
                "1.0715086071862673e+301 1e+16 1000000000000000.0 1e-07 1.5e-05 0.0001",
                "nan inf -inf -0.0 [1e+22, 0.1]",
                "1e-05 2.5e-300",
            ]
        );
    }

    #[test]
    fn keyword_arguments_no_callee_binds_raise_type_errors() {
        for (call, error) in [
            ("len([1], x=2)", "len() takes no keyword arguments"),
            (
                "sorted([3, 1, 2], reverse=True)",
                "sorted() takes no keyword arguments",
            ),
            ("print(1, 2, sep='-')", "print() takes no keyword arguments"),
            (
                "'a b'.split(sep=',')",
                "str.split() takes no keyword arguments",
            ),
            ("A(1, x=2)", "A() takes no arguments"),
            ("E('m', code=3)", "E() takes no keyword arguments"),
            (
                "ValueError('m', code=3)",
                "ValueError() takes no keyword arguments",
            ),
        ] {
            let source = format!("class A:\n    pass\nclass E(Exception):\n    pass\nx = {call}\n");
            let err = agree(&source).result.unwrap_err();
            assert!(
                err.contains(&format!("TypeError: {error}")),
                "{call}: {err}"
            );
        }
    }

    #[test]
    fn sorted_is_a_stable_merge_sort_that_propagates_errors() {
        let out = agree(
            "def reversed_sort():\n    xs = sorted(list(range(100000, 0, -1)))\n    return [len(xs), xs[0], xs[-1]]\n\
             print(reversed_sort())\n\
             print(sorted([1.0, 1, True]), sorted([2, 1.0, 1, True, 0, 2.0]), sorted([]))\n",
        );
        assert_eq!(
            out.stdout,
            [
                "[100000, 1, 100000]",
                "[1.0, 1, True] [0, 1.0, 1, True, 2, 2.0] []"
            ]
        );
        let err = agree("x = sorted([1, 'a'])\n").result.unwrap_err();
        assert!(
            err.contains("TypeError: '<' not supported between instances of 'str' and 'int'"),
            "{err}"
        );
    }

    #[test]
    fn oversized_repetitions_raise_resource_exhausted() {
        for expr in [
            "[0] * 9223372036854775807",
            "'ab' * 4611686018427387904",
            "[0] * 100000000000",
            "'ab' * 1000000000000",
            "[1, 2] * 5000001",
            "5000001 * 'ab'",
        ] {
            let out = agree(&format!("x = {expr}\n"));
            let err = out.result.unwrap_err();
            assert!(err.contains("ResourceExhausted"), "{expr}: {err}");
        }
    }

    #[test]
    fn module_bytecode_slot_is_shared_across_clones() {
        let mut registry = Registry::new();
        registry.set_module("m", "x = 1\n");
        let clone = registry.clone();
        let a = registry.compile_module("m").unwrap();
        let b = clone.compile_module("m").unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "clones must share the compiled slot"
        );
        registry.set_module("m", "x = 2\n");
        let c = registry.compile_module("m").unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&a, &c),
            "rewritten module must recompile"
        );
    }

    #[test]
    fn function_bytecode_compiles_once_per_definition() {
        let mut interp = Interpreter::new(Registry::new());
        interp
            .exec_main("def f(x):\n    return x + 1\nfor i in range(10):\n    f(i)\n")
            .unwrap();
    }

    // -- random programs ----------------------------------------------------

    /// A random expression over already-bound names: literals, arithmetic,
    /// comparisons (including chains), boolean operators, containers,
    /// subscripts and conditionals. May raise at runtime — both engines
    /// must then raise identically.
    fn random_expr(rng: &mut Rng, vars: &[String], depth: usize) -> String {
        let leaf = depth == 0 || rng.usize_inclusive(0, 2) == 0;
        if leaf {
            return match rng.usize_inclusive(0, 4) {
                0 => format!("{}", rng.usize_inclusive(0, 99)),
                1 if !vars.is_empty() => vars[rng.usize_inclusive(0, vars.len() - 1)].clone(),
                2 => format!("\"s{}\"", rng.usize_inclusive(0, 9)),
                3 => "True".to_owned(),
                _ => format!("{}", rng.usize_inclusive(0, 9)),
            };
        }
        let a = random_expr(rng, vars, depth - 1);
        let b = random_expr(rng, vars, depth - 1);
        match rng.usize_inclusive(0, 9) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} * {b})"),
            2 => format!("({a} - {b})"),
            3 => format!("({a} < {b})"),
            4 => {
                let c = random_expr(rng, vars, depth - 1);
                format!("({a} < {b} < {c})")
            }
            5 => format!("({a} and {b})"),
            6 => format!("({a} or {b})"),
            7 => format!("[{a}, {b}]"),
            8 => format!("({a} if {b} else {})", random_expr(rng, vars, depth - 1)),
            _ => format!("(not {a})"),
        }
    }

    /// Append one random statement (possibly a compound with a nested
    /// block).
    fn random_stmt(rng: &mut Rng, vars: &mut Vec<String>, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        let deep = indent >= 2;
        match rng.usize_inclusive(0, if deep { 4 } else { 9 }) {
            0 | 1 => {
                let name = format!("v{}", vars.len());
                let e = random_expr(rng, vars, 2);
                out.push_str(&format!("{pad}{name} = {e}\n"));
                vars.push(name);
            }
            2 => {
                let e = random_expr(rng, vars, 2);
                out.push_str(&format!("{pad}print({e})\n"));
            }
            3 if !vars.is_empty() => {
                let v = &vars[rng.usize_inclusive(0, vars.len() - 1)];
                let e = random_expr(rng, vars, 1);
                out.push_str(&format!("{pad}{v} = {v} + {e}\n"));
            }
            4 => {
                let name = format!("v{}", vars.len());
                let cond = random_expr(rng, vars, 1);
                let body = random_expr(rng, vars, 1);
                out.push_str(&format!(
                    "{pad}{name} = [i * 2 for i in range({}) if {cond} or i > {body}]\n",
                    rng.usize_inclusive(0, 6)
                ));
                vars.push(name);
            }
            5 => {
                let cond = random_expr(rng, vars, 1);
                out.push_str(&format!("{pad}if {cond}:\n"));
                random_stmt(rng, vars, out, indent + 1);
                if rng.bool() {
                    out.push_str(&format!("{pad}else:\n"));
                    random_stmt(rng, vars, out, indent + 1);
                }
            }
            6 => {
                let name = format!("v{}", vars.len());
                let n = rng.usize_inclusive(0, 5);
                out.push_str(&format!("{pad}{name} = 0\n"));
                vars.push(name.clone());
                out.push_str(&format!("{pad}while {name} < {n}:\n"));
                out.push_str(&format!("{pad}    {name} = {name} + 1\n"));
                if rng.bool() {
                    out.push_str(&format!(
                        "{pad}    if {name} == {}:\n{pad}        {}\n",
                        rng.usize_inclusive(1, 5),
                        if rng.bool() { "break" } else { "continue" }
                    ));
                }
                random_stmt(rng, vars, out, indent + 1);
            }
            7 => {
                let name = format!("it{}", vars.len());
                let e = random_expr(rng, vars, 1);
                out.push_str(&format!(
                    "{pad}for {name} in [{e}, {}]:\n",
                    random_expr(rng, vars, 1)
                ));
                vars.push(name);
                random_stmt(rng, vars, out, indent + 1);
            }
            8 => {
                out.push_str(&format!("{pad}try:\n"));
                random_stmt(rng, vars, out, indent + 1);
                out.push_str(&format!("{pad}except Exception as exc:\n"));
                out.push_str(&format!("{pad}    print(\"caught\", exc)\n"));
                if rng.bool() {
                    out.push_str(&format!("{pad}finally:\n"));
                    out.push_str(&format!("{pad}    print(\"fin\")\n"));
                }
            }
            _ => {
                let fname = format!("f{}", vars.len());
                let ret = random_expr(rng, vars, 2);
                out.push_str(&format!("{pad}def {fname}(x):\n{pad}    return {ret}\n"));
                let arg = random_expr(rng, vars, 1);
                let name = format!("v{}", vars.len());
                out.push_str(&format!("{pad}{name} = {fname}({arg})\n"));
                vars.push(name);
            }
        }
    }

    /// Random small programs through both engines: results (or errors),
    /// stdout, meter, observed accesses and inline-cache sites must be
    /// byte-identical.
    #[test]
    fn vm_and_tree_walker_agree_on_random_programs() {
        let mut rng = Rng::seed_from_u64(0xb17ec0de);
        for _ in 0..96 {
            let mut source = String::new();
            let mut vars = Vec::new();
            for _ in 0..rng.usize_inclusive(2, 7) {
                random_stmt(&mut rng, &mut vars, &mut source, 0);
            }
            agree(&source);
        }
    }
}
