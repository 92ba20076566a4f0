//! Candidate materialization (DESIGN.md §16): index a probed module once,
//! then build every probe's candidate by *linking* statements.
//!
//! A DD probe needs the candidate module twice: as source text, which keys
//! the registry fingerprint and the caches built on it, and as code, which
//! the interpreter runs. The registry already holds the module's AST,
//! resolved tree and bytecode, filled by the baseline run. [`ModuleIndex`]
//! takes them from the registry's slots and keeps only each top-level
//! statement's printed text and keep rule. A keep mask then selects a
//! candidate: the kept statements' texts, and a [`LinkedBody`] over their
//! ranges of the module's one code object. Only `import` lists kept in
//! part are printed and compiled per probe, as one-statement programs.
//!
//! `Prober` is the one probe function the debloater (for cold trims and
//! retrims alike) and the slicer share: probe-cache lookup, the run record
//! (DESIGN.md §18), selection, the copy-on-write overlay and the oracle
//! run. A module whose probes a run record answers is never indexed: its
//! prober holds only the attribute ids.

use crate::attributes::{is_magic, module_attributes};
use crate::debloater::DebloatOptions;
use crate::oracle::{run_oracle, Execution, OracleSpec, RunRecord};
use crate::probe_cache::{app_fingerprint, ProbeKey};
use pylite::ast::{Expr, ImportItem, Program, Stmt};
use pylite::resolved::{RProgram, RStmt};
use pylite::{CodeObj, LinkedBody, ParseError, Registry};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A module's attribute ids: [`module_attributes`] in order, followed by
/// the dunder names that `import` lists bind. The rewriter drops those
/// unless the keep set names them, so a raw keep set can reach them.
pub(crate) struct AttrIds {
    names: Vec<String>,
    ids: HashMap<String, u32>,
    attrs: usize,
}

impl AttrIds {
    /// Number the attributes of `program`.
    pub(crate) fn new(program: &Program) -> AttrIds {
        let mut names = module_attributes(program);
        let attrs = names.len();
        let mut dunders = BTreeSet::new();
        for stmt in &program.body {
            for name in list_names(stmt).into_iter().flatten() {
                if is_magic(name) && dunders.insert(name) {
                    names.push(name.to_owned());
                }
            }
        }
        let ids = names
            .iter()
            .enumerate()
            .map(|(id, name)| (name.clone(), id as u32))
            .collect();
        AttrIds { names, ids, attrs }
    }

    /// The module's attributes in first-binding order; attribute `i` has
    /// id `i`.
    pub(crate) fn attributes(&self) -> &[String] {
        &self.names[..self.attrs]
    }

    /// Every id's name: the attributes, then the dunder names of `import`
    /// lists.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// The id of `name`, if the module binds it.
    pub(crate) fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The keep mask that keeps exactly `ids`.
    pub(crate) fn mask(&self, ids: impl IntoIterator<Item = u32>) -> Vec<bool> {
        let mut mask = vec![false; self.names.len()];
        for id in ids {
            mask[id as usize] = true;
        }
        mask
    }

    /// The keep mask of a named keep set. Names the module does not bind
    /// have no id and no effect on the candidate.
    pub(crate) fn keep_mask<'n>(&self, keep: impl IntoIterator<Item = &'n String>) -> Vec<bool> {
        self.mask(keep.into_iter().filter_map(|name| self.id(name)))
    }
}

/// A module indexed for probing: the registry's parse, resolve and
/// bytecode of it, and each top-level statement's printed text and keep
/// rule, for keep masks to select from.
///
/// Attribute ids number [`module_attributes`] in order, followed by the
/// dunder names that `import` lists bind: the rewriter drops those unless
/// the keep set names them, so a raw keep set can reach them.
pub struct ModuleIndex {
    module: String,
    program: Arc<Program>,
    resolved: Arc<RProgram>,
    code: Arc<CodeObj>,
    ids: AttrIds,
    /// Every statement's `unparse_stmt`, concatenated.
    printed: String,
    chunks: Vec<Chunk>,
    /// `pass`, compiled on first use: the body of a candidate that keeps
    /// no statement.
    pass: OnceLock<Arc<CodeObj>>,
}

/// One top-level statement of an indexed module.
struct Chunk {
    /// The statement's text in [`ModuleIndex::printed`].
    text: Range<usize>,
    rule: Rule,
}

/// When a chunk survives a keep mask ([`crate::rewrite::rewrite_module`]'s
/// rules, over attribute ids).
enum Rule {
    Always,
    AnyOf(Vec<u32>),
    /// An `import` or `from … import` list: item `i` survives when
    /// attribute `ids[i]` is kept.
    List(Vec<u32>),
}

/// What one probe keeps of its module.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Selection<'s> {
    /// A keep mask over the index's ids. `extra` holds kept names the
    /// module does not bind: they change no statement, but they are part
    /// of the probe-cache key.
    Attrs {
        keep: &'s [bool],
        extra: &'s [String],
    },
    /// Top-level statement indices (slice probes, never cached).
    Stmts(&'s [usize]),
}

impl ModuleIndex {
    /// Index `module` from `registry`'s parse, resolve and bytecode slots
    /// (filling them if empty), printing each statement once.
    ///
    /// A candidate's text is a concatenation of printed statements, and it
    /// must run as its linked body does. So every printed statement must
    /// parse back to the registry's statement. The check parses one
    /// statement at a time, and is skipped when the module's source already
    /// is its printed statements: the registry parsed exactly that text.
    ///
    /// # Errors
    ///
    /// The module is missing or does not parse, or a printed statement does
    /// not parse back to itself (a printer bug): no candidate could be
    /// built from it.
    pub fn new(registry: &Registry, module: &str) -> Result<ModuleIndex, ParseError> {
        let program = registry.parse_module(module)?;
        let resolved = registry.resolve_module(module)?;
        let code = registry.compile_module(module)?;
        let ids = AttrIds::new(&program);
        let mut printed = String::new();
        let chunks: Vec<Chunk> = program
            .body
            .iter()
            .map(|stmt| {
                let start = printed.len();
                printed.push_str(&pylite::unparse_stmt(stmt));
                Chunk {
                    text: start..printed.len(),
                    rule: rule(stmt, &ids.ids),
                }
            })
            .collect();
        if registry.source(module) != Some(printed.as_str()) {
            for (i, (chunk, stmt)) in chunks.iter().zip(&program.body).enumerate() {
                let again = pylite::parse(&printed[chunk.text.clone()])?;
                if again.body != std::slice::from_ref(stmt) {
                    return Err(ParseError {
                        message: format!("printed statement {i} does not parse back to itself"),
                        line: 0,
                    });
                }
            }
        }
        debug_assert_eq!(code.stmt_count(), chunks.len());
        Ok(ModuleIndex {
            module: module.to_owned(),
            program,
            resolved,
            code,
            ids,
            printed,
            chunks,
            pass: OnceLock::new(),
        })
    }

    /// The module's attributes in first-binding order; attribute `i` has
    /// id `i`.
    pub fn attributes(&self) -> &[String] {
        self.ids.attributes()
    }

    /// Every id's name: the attributes, then the dunder names of `import`
    /// lists.
    pub fn names(&self) -> &[String] {
        self.ids.names()
    }

    /// The id of `name`, if the module binds it.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.ids.id(name)
    }

    /// The keep mask that keeps exactly `ids`.
    pub fn mask(&self, ids: impl IntoIterator<Item = u32>) -> Vec<bool> {
        self.ids.mask(ids)
    }

    /// The keep mask of a named keep set. Names the module does not bind
    /// have no id and no effect on the candidate.
    pub fn keep_mask<'n>(&self, keep: impl IntoIterator<Item = &'n String>) -> Vec<bool> {
        self.ids.keep_mask(keep)
    }

    /// `base` with the module keeping the attributes whose ids are set in
    /// `keep` (indexed like [`names`](ModuleIndex::names)). Its source is
    /// byte-identical to `unparse(&rewrite_module(program, names))`, and
    /// importing it runs the kept statements' linked code.
    pub fn overlay(&self, base: &Registry, keep: &[bool]) -> Registry {
        self.overlay_selection(base, Selection::Attrs { keep, extra: &[] })
    }

    /// `base` with the module keeping the top-level statements at `kept`,
    /// in that order; out-of-range indices are ignored. Its source is
    /// byte-identical to `unparse(&sliced_program(program, kept))`.
    pub fn overlay_stmts(&self, base: &Registry, kept: &[usize]) -> Registry {
        self.overlay_selection(base, Selection::Stmts(kept))
    }

    fn overlay_selection(&self, base: &Registry, selection: Selection<'_>) -> Registry {
        let mut source = String::new();
        let mut body = LinkedBody::default();
        match selection {
            Selection::Attrs { keep, .. } => {
                for (i, chunk) in self.chunks.iter().enumerate() {
                    match &chunk.rule {
                        Rule::Always => self.push_whole(i, &mut source, &mut body),
                        Rule::AnyOf(ids) => {
                            if ids.iter().any(|&id| keep[id as usize]) {
                                self.push_whole(i, &mut source, &mut body);
                            }
                        }
                        Rule::List(ids) => {
                            let kept: Vec<bool> = ids.iter().map(|&id| keep[id as usize]).collect();
                            if kept.iter().all(|&k| k) {
                                self.push_whole(i, &mut source, &mut body);
                            } else if kept.contains(&true) {
                                let (stmt, resolved) = partial_list(
                                    &self.program.body[i],
                                    &self.resolved.body[i],
                                    &kept,
                                );
                                source.push_str(&pylite::unparse_stmt(&stmt));
                                let program = RProgram {
                                    body: vec![resolved],
                                };
                                body.push_code(Arc::new(pylite::compile_program(&program)));
                            }
                        }
                    }
                }
                if body.is_empty() {
                    source.push_str("pass\n");
                    body.push_code(Arc::clone(self.pass.get_or_init(|| {
                        let program = RProgram {
                            body: vec![RStmt::Pass],
                        };
                        Arc::new(pylite::compile_program(&program))
                    })));
                }
            }
            Selection::Stmts(kept) => {
                for &i in kept.iter().filter(|&&i| i < self.chunks.len()) {
                    self.push_whole(i, &mut source, &mut body);
                }
            }
        }
        base.with_module_linked(self.module.as_str(), source, body)
    }

    /// Append statement `i` whole: its printed text and its code range.
    fn push_whole(&self, i: usize, source: &mut String, body: &mut LinkedBody) {
        source.push_str(&self.printed[self.chunks[i].text.clone()]);
        body.push_stmt(&self.code, i);
    }
}

/// An `import` list cut down to its kept items, as a statement to print
/// and the matching resolved statement.
fn partial_list(stmt: &Stmt, resolved: &RStmt, kept: &[bool]) -> (Stmt, RStmt) {
    let keep_item = |i: usize| kept[i];
    match (stmt, resolved) {
        (Stmt::Import { items }, RStmt::Import { items: ritems }) => (
            Stmt::Import {
                items: filter_kept(items, keep_item),
            },
            RStmt::Import {
                items: filter_kept(ritems, keep_item),
            },
        ),
        (
            Stmt::FromImport { module, names },
            RStmt::FromImport {
                module: rmodule,
                names: rnames,
            },
        ) => (
            Stmt::FromImport {
                module: module.clone(),
                names: filter_kept(names, keep_item),
            },
            RStmt::FromImport {
                module: rmodule.clone(),
                names: filter_kept(rnames, keep_item),
            },
        ),
        _ => unreachable!("list rules index import statements"),
    }
}

fn filter_kept<T: Clone>(items: &[T], keep: impl Fn(usize) -> bool) -> Vec<T> {
    items
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .map(|(_, item)| item.clone())
        .collect()
}

/// The names an `import` or `from … import` list binds, item by item.
fn list_names(stmt: &Stmt) -> Option<Vec<&str>> {
    match stmt {
        Stmt::Import { items } => Some(items.iter().map(ImportItem::bound_name).collect()),
        Stmt::FromImport { names, .. } => Some(
            names
                .iter()
                .map(|(name, alias)| alias.as_deref().unwrap_or(name))
                .collect(),
        ),
        _ => None,
    }
}

/// The keep rule of one statement, mirroring `rewrite_module`.
fn rule(stmt: &Stmt, ids: &HashMap<String, u32>) -> Rule {
    let id = |name: &str| ids[name];
    match stmt {
        Stmt::FuncDef(f) if !is_magic(&f.name) => Rule::AnyOf(vec![id(&f.name)]),
        Stmt::ClassDef(c) if !is_magic(&c.name) => Rule::AnyOf(vec![id(&c.name)]),
        Stmt::Assign { targets, .. } => {
            let mut names = Vec::new();
            for target in targets {
                assigned_names(target, &mut names);
            }
            if names.is_empty() || names.iter().any(|n| is_magic(n)) {
                Rule::Always
            } else {
                Rule::AnyOf(names.into_iter().map(id).collect())
            }
        }
        Stmt::Import { .. } | Stmt::FromImport { .. } => Rule::List(
            list_names(stmt)
                .expect("import statement")
                .into_iter()
                .map(id)
                .collect(),
        ),
        _ => Rule::Always,
    }
}

fn assigned_names<'a>(target: &'a Expr, out: &mut Vec<&'a str>) {
    match target {
        Expr::Name(n) => out.push(n),
        Expr::Tuple(items) | Expr::List(items) => {
            for item in items {
                assigned_names(item, out);
            }
        }
        _ => {}
    }
}

/// The probe function of every DD, retrim and slice run over one module.
///
/// Every probe overlays the module on the same base registry. A probe
/// consults the probe cache first, then the prober's run record: the
/// record handed to [`Prober::new`] when it answers the module's probes,
/// else the last passing live probe. A record whose run never read the
/// module answers every later probe with a pass in its seconds
/// ([`RunRecord::answers_probes`]); otherwise the probe runs live.
pub(crate) struct Prober<'a> {
    base: &'a Registry,
    module: &'a str,
    index: Indexed,
    app_source: &'a str,
    spec: &'a OracleSpec,
    expected: &'a Execution,
    options: &'a DebloatOptions,
    app_fp: u64,
    record: RefCell<Option<RunRecord>>,
}

/// What a prober knows of its module: attribute ids only, when a run
/// record answers every probe, or the full statement index.
enum Indexed {
    Ids(AttrIds),
    Full(ModuleIndex),
}

impl<'a> Prober<'a> {
    /// A prober for `module` over `base`, whose behaviour must match
    /// `expected`. When `record` answers the module's probes, the module
    /// is not indexed.
    ///
    /// # Errors
    ///
    /// The module does not parse, or cannot be indexed
    /// ([`ModuleIndex::new`]).
    pub(crate) fn new(
        base: &'a Registry,
        module: &'a str,
        app_source: &'a str,
        spec: &'a OracleSpec,
        expected: &'a Execution,
        options: &'a DebloatOptions,
        record: Option<&RunRecord>,
    ) -> Result<Prober<'a>, ParseError> {
        let record = record.filter(|record| record.answers_probes(base, module));
        let index = match record {
            Some(_) => Indexed::Ids(AttrIds::new(&*base.parse_module(module)?)),
            None => Indexed::Full(ModuleIndex::new(base, module)?),
        };
        Ok(Prober {
            base,
            module,
            index,
            app_source,
            spec,
            expected,
            options,
            app_fp: app_fingerprint(app_source, spec),
            record: RefCell::new(record.cloned()),
        })
    }

    /// The module's attribute ids.
    pub(crate) fn ids(&self) -> &AttrIds {
        match &self.index {
            Indexed::Ids(ids) => ids,
            Indexed::Full(index) => &index.ids,
        }
    }

    /// The prober's last passing run: the record handed in when it
    /// answered the probes, else the last passing live probe, if any.
    pub(crate) fn into_record(self) -> Option<RunRecord> {
        self.record.into_inner()
    }

    /// Probe one selection of the module and return its verdict and the
    /// virtual seconds its oracle run took (0 for a probe-cache hit; an
    /// answered probe takes the record's seconds, which a fresh run would
    /// take too). Attribute probes consult and fill the probe cache when
    /// one is attached.
    pub(crate) fn probe(&self, selection: Selection<'_>) -> (bool, f64) {
        let key = match (&self.options.probe_cache, selection) {
            (Some(_), Selection::Attrs { keep, extra }) => {
                let kept = self.ids().names.iter().zip(keep).filter(|(_, k)| **k);
                let names = kept
                    .map(|(name, _)| name.clone())
                    .chain(extra.iter().cloned());
                Some(ProbeKey::new(
                    self.base.fingerprint(),
                    self.app_fp,
                    self.module,
                    names,
                ))
            }
            _ => None,
        };
        if let (Some(cache), Some(key)) = (&self.options.probe_cache, &key) {
            if let Some(verdict) = cache.get(key) {
                return (verdict, 0.0);
            }
        }
        let answered = self
            .record
            .borrow()
            .as_ref()
            .filter(|record| record.answers_probes(self.base, self.module))
            .map(RunRecord::secs);
        let (verdict, secs) = match answered {
            Some(secs) => {
                #[cfg(debug_assertions)]
                self.check_answer(selection, secs);
                (true, secs)
            }
            None => self.run(selection),
        };
        if let (Some(cache), Some(key)) = (&self.options.probe_cache, key) {
            cache.insert(key, verdict);
        }
        (verdict, secs)
    }

    /// Run one probe live over its linked candidate; a passing run becomes
    /// the prober's record.
    fn run(&self, selection: Selection<'_>) -> (bool, f64) {
        let Indexed::Full(index) = &self.index else {
            unreachable!("a record that answers a module's probes answers all of them")
        };
        let overlay = index.overlay_selection(self.base, selection);
        let run = run_oracle(&overlay, self.app_source, self.spec);
        let verdict = matches!(&run.result, Ok(actual) if actual.behavior_eq(self.expected));
        #[cfg(debug_assertions)]
        crate::oracle::check_live(
            || {
                let printed = self.printed(selection);
                assert_eq!(
                    printed.fingerprint(),
                    overlay.fingerprint(),
                    "a linked candidate's text is the printed candidate"
                );
                printed
            },
            self.app_source,
            self.spec,
            self.expected,
            verdict,
            run.secs,
        );
        if verdict {
            *self.record.borrow_mut() = Some(RunRecord::new(overlay, run.secs, run.reads));
        }
        (verdict, run.secs)
    }

    /// Re-run a sample of answered probes fresh from their printed
    /// candidates ([`crate::oracle::check_answer`]).
    #[cfg(debug_assertions)]
    fn check_answer(&self, selection: Selection<'_>, secs: f64) {
        let printed = || self.printed(selection);
        crate::oracle::check_answer(printed, self.app_source, self.spec, self.expected, secs);
    }

    /// The probe's candidate the way the rewriter and the slicer print it,
    /// installed as plain text.
    #[cfg(debug_assertions)]
    fn printed(&self, selection: Selection<'_>) -> Registry {
        let program = self
            .base
            .parse_module(self.module)
            .expect("probed module parses");
        let candidate = match selection {
            Selection::Attrs { keep, .. } => {
                let kept = self.ids().names.iter().zip(keep).filter(|(_, k)| **k);
                let names: BTreeSet<String> = kept.map(|(name, _)| name.clone()).collect();
                crate::rewrite::rewrite_module(&program, &names)
            }
            Selection::Stmts(kept) => trim_analysis::slice::sliced_program(&program, kept),
        };
        self.base
            .with_module(self.module, pylite::unparse(&candidate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(debug_assertions)]
    use crate::oracle::TestCase;
    use crate::rewrite::rewrite_module;
    use trim_analysis::slice::sliced_program;

    fn index(source: &str) -> (ModuleIndex, Registry) {
        let mut r = Registry::new();
        r.set_module("m", source);
        let index = ModuleIndex::new(&r, "m").unwrap();
        (index, r)
    }

    fn keep(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Everything importing `m` shows: its namespace, or the error, and
    /// stdout and the meter's bits.
    fn import_m(registry: &Registry) -> String {
        let mut interp = pylite::Interpreter::new(registry.clone());
        let namespace = interp.import_module("m").map(|m| {
            let interner = registry.interner();
            let mut names: Vec<String> =
                m.ns.key_syms()
                    .into_iter()
                    .map(|k| {
                        let value = m.ns.get(k).expect("key from snapshot");
                        format!("{} = {}", interner.resolve(k), pylite::py_repr(&value))
                    })
                    .collect();
            names.sort();
            names
        });
        format!(
            "{namespace:?} {:?} {:x} {:x}",
            interp.stdout,
            interp.meter.clock_secs().to_bits(),
            interp.meter.mem_mb().to_bits()
        )
    }

    /// The linked overlay agrees with the rewriter on the source, and
    /// imports like the printed source.
    fn assert_overlay_matches(source: &str, kept: &BTreeSet<String>) -> String {
        let (index, r) = index(source);
        let program = r.parse_module("m").unwrap();
        let expected = pylite::unparse(&rewrite_module(&program, kept));
        let linked = index.overlay(&r, &index.keep_mask(kept));
        assert_eq!(linked.source("m"), Some(expected.as_str()), "keep {kept:?}");
        assert_eq!(
            import_m(&linked),
            import_m(&r.with_module("m", expected.clone())),
            "keep {kept:?}"
        );
        expected
    }

    #[test]
    fn empty_keep_set_links_pass() {
        let src = assert_overlay_matches("x = 1\ndef f():\n    pass\n", &keep(&[]));
        assert_eq!(src, "pass\n");
    }

    #[test]
    fn partially_kept_import_lists_are_cut() {
        let module = "import a.b as c, d\nfrom m import x as y, z\n";
        for kept in [
            keep(&["c"]),
            keep(&["d"]),
            keep(&["c", "d"]),
            keep(&["y"]),
            keep(&["z"]),
            keep(&["y", "z", "d"]),
        ] {
            assert_overlay_matches(module, &kept);
        }
        assert_eq!(
            assert_overlay_matches(module, &keep(&["d", "z"])),
            "import d\nfrom m import z\n"
        );
    }

    #[test]
    fn star_import_is_one_attribute() {
        let module = "from m import *\nx = 1\n";
        let (index, _) = index(module);
        assert_eq!(index.attributes(), ["*", "x"]);
        assert_eq!(
            assert_overlay_matches(module, &keep(&["*"])),
            "from m import *\n"
        );
        assert_eq!(assert_overlay_matches(module, &keep(&["x"])), "x = 1\n");
    }

    #[test]
    fn tuple_unpack_assigns_survive_on_any_name() {
        let module = "a, (b, c) = (1, (2, 3))\n[d, e] = [4, 5]\nobj.attr = 6\n";
        for kept in [keep(&["a"]), keep(&["c"]), keep(&["e"]), keep(&[])] {
            assert_overlay_matches(module, &kept);
        }
        assert_eq!(assert_overlay_matches(module, &keep(&[])), "obj.attr = 6\n");
    }

    #[test]
    fn dunder_assigns_always_survive_but_dunder_imports_need_naming() {
        let module = "__all__ = [\"x\"]\n__v__, w = (1, 2)\nfrom m import __version__, q\nx = 1\n";
        let (index, _) = index(module);
        assert_eq!(index.attributes(), ["w", "q", "x"]);
        assert_eq!(index.names(), ["w", "q", "x", "__version__"]);
        for kept in [
            keep(&[]),
            keep(&["q"]),
            keep(&["__version__"]),
            keep(&["x"]),
        ] {
            assert_overlay_matches(module, &kept);
        }
        assert_eq!(
            assert_overlay_matches(module, &keep(&["__version__", "ghost"])),
            "__all__ = [\"x\"]\n(__v__, w) = (1, 2)\nfrom m import __version__\n"
        );
    }

    #[test]
    fn overlay_stmts_matches_sliced_program() {
        let module = "__lt_work__(3)\nimport a, b\nx = 1\ndef f():\n    return x\n";
        let (index, r) = index(module);
        let program = r.parse_module("m").unwrap();
        for kept in [vec![], vec![0], vec![1, 3], vec![3, 1], vec![0, 1, 2, 3, 9]] {
            let expected = pylite::unparse(&sliced_program(&program, &kept));
            let linked = index.overlay_stmts(&r, &kept);
            assert_eq!(linked.source("m"), Some(expected.as_str()));
            assert_eq!(import_m(&linked), import_m(&r.with_module("m", expected)));
        }
    }

    #[test]
    fn compound_statements_run_from_their_ranges() {
        // Loops, branches, `try`, classes and defaults jump or nest inside
        // their own statement; dropping neighbours must not move a jump.
        let module = "n = 0\nfor i in range(4):\n    if i == 2:\n        continue\n    n = n + i\nwhile n < 9:\n    n = n + 1\n    if n == 7:\n        break\ntry:\n    k = [1][2]\nexcept IndexError:\n    k = -1\nfinally:\n    n = n * 2\nclass C:\n    z = n + 1\ndef g(a=n):\n    return a\nprint(n, k, (n > 3 and k) or 5, [j for j in range(n) if j % 5 == 0])\n";
        let (index, r) = index(module);
        let count = r.parse_module("m").unwrap().body.len();
        let program = r.parse_module("m").unwrap();
        for drop in 0..count {
            let kept: Vec<usize> = (0..count).filter(|&i| i != drop).collect();
            let expected = pylite::unparse(&sliced_program(&program, &kept));
            let linked = index.overlay_stmts(&r, &kept);
            assert_eq!(import_m(&linked), import_m(&r.with_module("m", expected)));
        }
        let all: Vec<usize> = (0..count).collect();
        assert_eq!(
            import_m(&index.overlay_stmts(&r, &all)),
            import_m(&r),
            "linking every statement runs the module"
        );
    }

    #[test]
    fn a_statement_that_does_not_print_back_is_refused() {
        // A raw control character in a string prints as the escape
        // `\u{1}`, which the lexer does not read back.
        let mut r = Registry::new();
        r.set_module("m", "x = 1\ny = \"a\u{1}b\"\n");
        let refused = ModuleIndex::new(&r, "m").err().expect("refused");
        assert!(refused.message.contains("statement 1"), "{refused}");
        r.set_module("m", "x = 1\ny = \"a b\"\n");
        assert!(ModuleIndex::new(&r, "m").is_ok());
        // `1e300` prints as a 301-digit literal that parses back to the
        // same float.
        r.set_module("m", "x = 1\ny = 1e300\n");
        assert!(ModuleIndex::new(&r, "m").is_ok());
    }

    #[test]
    fn the_index_shares_the_registry_trees_and_code() {
        let (index, r) = index("def f():\n    return 1\ng = 2\n");
        assert!(Arc::ptr_eq(&index.program, &r.parse_module("m").unwrap()));
        assert!(Arc::ptr_eq(
            &index.resolved,
            &r.resolve_module("m").unwrap()
        ));
        assert!(Arc::ptr_eq(&index.code, &r.compile_module("m").unwrap()));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn live_probes_only_compile_cut_import_lists() {
        let mut r = Registry::new();
        r.set_module("a", "A = 1\n");
        r.set_module("b", "B = 2\n");
        r.set_module("m", "import a, b\ndef f():\n    return a.A\nx = 3\n");
        let app = "import m\ndef handler(event, context):\n    return m.f()\n";
        let spec = OracleSpec::new(vec![TestCase::event("{}")]);
        let expected = crate::oracle::run_app(&r, app, &spec).unwrap();
        let options = DebloatOptions::default();
        let prober = Prober::new(&r, "m", app, &spec, &expected, &options, None).unwrap();
        let ids = prober.ids();
        // A sampled re-run from text (`oracle::check_live`) compiles the
        // printed module once; those compiles are not the probe's.
        let probe = |names: &[&str]| {
            let keep = ids.keep_mask(&keep(names));
            let compiles = pylite::bytecode::module_compiles();
            let rechecks = crate::oracle::rechecks();
            let (verdict, _) = prober.probe(Selection::Attrs {
                keep: &keep,
                extra: &[],
            });
            let rechecked = crate::oracle::rechecks() - rechecks;
            let compiled = pylite::bytecode::module_compiles() - compiles - rechecked;
            (verdict, compiled)
        };
        assert_eq!(probe(&["a", "b", "f", "x"]), (true, 0));
        assert_eq!(probe(&["a", "f"]), (true, 1), "`import a` is compiled");
        assert_eq!(probe(&["f"]), (false, 0));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn every_eighth_live_probe_reruns_from_its_text() {
        let mut r = Registry::new();
        r.set_module("m", "x = 1\ny = 2\nz = 3\n");
        let app = "import m\ndef handler(event, context):\n    return m.x\n";
        let spec = OracleSpec::new(vec![TestCase::event("{}")]);
        let expected = crate::oracle::run_app(&r, app, &spec).unwrap();
        let options = DebloatOptions::default();
        let prober = Prober::new(&r, "m", app, &spec, &expected, &options, None).unwrap();
        let before = crate::oracle::rechecks();
        for i in 0..16 {
            let keep = [i % 2 == 0, true, true];
            prober.probe(Selection::Attrs {
                keep: &keep,
                extra: &[],
            });
        }
        assert_eq!(crate::oracle::rechecks() - before, 2);
    }
}
