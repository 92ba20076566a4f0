//! Candidate materialization (DESIGN.md §16): index a probed module once,
//! then build every probe's candidate by *selecting* statements.
//!
//! A DD probe needs the candidate module twice: as source text, which keys
//! the registry fingerprint and the caches built on it, and as a resolved
//! tree, which the interpreter runs. Rewriting the AST, printing it and
//! re-parsing and re-resolving the printed text per probe repeats work that
//! depends only on the module. [`ModuleIndex`] does it once: each top-level
//! statement keeps its printed text, its resolved [`RStmt`] and the
//! attribute ids it binds, and a keep mask selects statements into a
//! [`Candidate`]. Only `import` lists kept in part are printed per probe.
//!
//! [`Prober`] is the one probe function the debloater, the incremental
//! retrim and the slicer share: probe-cache lookup, the run record
//! (DESIGN.md §18), selection, the copy-on-write overlay and the oracle
//! run. A module whose probes a run record answers is never indexed: its
//! prober holds only the attribute ids.

use crate::attributes::{is_magic, module_attributes};
use crate::debloater::DebloatOptions;
use crate::oracle::{run_oracle, Execution, OracleSpec, RunRecord};
use crate::probe_cache::{app_fingerprint, ProbeKey};
use pylite::ast::{Expr, ImportItem, Program, Stmt};
use pylite::resolved::{RProgram, RStmt};
use pylite::{Interner, ParseError, Registry};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A candidate module: the source a probe installs and its resolved tree.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Exactly `unparse` of the rewritten (or sliced) program.
    pub source: String,
    /// The resolved tree of `source`.
    pub program: Arc<RProgram>,
}

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

/// A module indexed for probing: its top-level statements, printed and
/// resolved once per DD, retrim or slice run, for keep masks to select
/// from.
///
/// Attribute ids number [`module_attributes`] in order, followed by the
/// dunder names that `import` lists bind: the rewriter drops those unless
/// the keep set names them, so a raw keep set can reach them.
pub struct ModuleIndex {
    program: Arc<Program>,
    ids: AttrIds,
    chunks: Vec<Chunk>,
}

/// One top-level statement of an indexed module.
struct Chunk {
    /// `unparse_stmt` of the statement.
    text: String,
    /// The statement as the interpreter would resolve it from `text`.
    resolved: RStmt,
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

impl ModuleIndex {
    /// Index `program` for probes resolved against `interner`, the
    /// registry family's: print every statement, parse the printed module
    /// once and resolve it, so each chunk is exactly what a probe's
    /// re-parse of a candidate containing it would produce.
    ///
    /// # Errors
    ///
    /// The printed module does not parse back statement for statement (a
    /// printer bug): no candidate could be built from it.
    pub fn new(program: Arc<Program>, interner: Arc<Interner>) -> Result<ModuleIndex, ParseError> {
        let ids = AttrIds::new(&program);
        let texts: Vec<String> = program.body.iter().map(pylite::unparse_stmt).collect();
        let reparsed = pylite::parse(&texts.concat())?;
        let aligned = reparsed.body.len() == program.body.len()
            && reparsed
                .body
                .iter()
                .zip(&program.body)
                .all(|(again, stmt)| list_names(again) == list_names(stmt));
        if !aligned {
            return Err(ParseError {
                message: "printed module does not parse back statement for statement".into(),
                line: 0,
            });
        }
        let resolved = pylite::resolve_program(&reparsed, &interner);
        let chunks = texts
            .into_iter()
            .zip(resolved.body)
            .zip(&program.body)
            .map(|((text, resolved), stmt)| Chunk {
                text,
                resolved,
                rule: rule(stmt, &ids.ids),
            })
            .collect();
        Ok(ModuleIndex {
            program,
            ids,
            chunks,
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

    /// The candidate keeping the attributes whose ids are set in `keep`
    /// (indexed like [`names`](ModuleIndex::names)). Its source is
    /// byte-identical to `unparse(&rewrite_module(program, names))`.
    pub fn select(&self, keep: &[bool]) -> Candidate {
        let mut source = String::new();
        let mut body = Vec::new();
        for (chunk, stmt) in self.chunks.iter().zip(&self.program.body) {
            match &chunk.rule {
                Rule::Always => push_whole(chunk, &mut source, &mut body),
                Rule::AnyOf(ids) => {
                    if ids.iter().any(|&id| keep[id as usize]) {
                        push_whole(chunk, &mut source, &mut body);
                    }
                }
                Rule::List(ids) => {
                    let kept: Vec<bool> = ids.iter().map(|&id| keep[id as usize]).collect();
                    if kept.iter().all(|&k| k) {
                        push_whole(chunk, &mut source, &mut body);
                    } else if kept.contains(&true) {
                        let (stmt, resolved) = partial_list(stmt, &chunk.resolved, &kept);
                        source.push_str(&pylite::unparse_stmt(&stmt));
                        body.push(resolved);
                    }
                }
            }
        }
        if body.is_empty() {
            source.push_str("pass\n");
            body.push(RStmt::Pass);
        }
        Candidate {
            source,
            program: Arc::new(RProgram { body }),
        }
    }

    /// The candidate keeping the top-level statements at `kept`, in that
    /// order; out-of-range indices are ignored. Its source is
    /// byte-identical to `unparse(&sliced_program(program, kept))`.
    pub fn select_stmts(&self, kept: &[usize]) -> Candidate {
        let mut source = String::new();
        let mut body = Vec::with_capacity(kept.len());
        for chunk in kept.iter().filter_map(|&i| self.chunks.get(i)) {
            push_whole(chunk, &mut source, &mut body);
        }
        Candidate {
            source,
            program: Arc::new(RProgram { body }),
        }
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

fn push_whole(chunk: &Chunk, source: &mut String, body: &mut Vec<RStmt>) {
    source.push_str(&chunk.text);
    body.push(chunk.resolved.clone());
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
        let program = base.parse_module(module)?;
        let record = record.filter(|record| record.answers_probes(base, module));
        let index = match record {
            Some(_) => Indexed::Ids(AttrIds::new(&program)),
            None => Indexed::Full(ModuleIndex::new(program, Arc::clone(base.interner()))?),
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

    /// Run one probe live; a passing run becomes the prober's record.
    fn run(&self, selection: Selection<'_>) -> (bool, f64) {
        let Indexed::Full(index) = &self.index else {
            unreachable!("a record that answers a module's probes answers all of them")
        };
        let candidate = match selection {
            Selection::Attrs { keep, .. } => index.select(keep),
            Selection::Stmts(kept) => index.select_stmts(kept),
        };
        let overlay =
            self.base
                .with_module_resolved(self.module, candidate.source, candidate.program);
        let run = run_oracle(
            &overlay,
            self.app_source,
            self.spec,
            self.options.init_snapshots,
        );
        let verdict = matches!(&run.result, Ok(actual) if actual.behavior_eq(self.expected));
        if verdict {
            *self.record.borrow_mut() = Some(RunRecord::new(overlay, run.secs, run.reads));
        }
        (verdict, run.secs)
    }

    /// Re-run a sample of answered probes fresh, building the candidate
    /// the way the rewriter and the slicer print it
    /// ([`crate::oracle::check_answer`]).
    #[cfg(debug_assertions)]
    fn check_answer(&self, selection: Selection<'_>, secs: f64) {
        let candidate = || {
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
        };
        crate::oracle::check_answer(
            candidate,
            self.app_source,
            self.spec,
            self.expected,
            self.options.init_snapshots,
            secs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::rewrite_module;
    use trim_analysis::slice::sliced_program;

    fn index(source: &str) -> (ModuleIndex, Registry) {
        let mut r = Registry::new();
        r.set_module("m", source);
        let program = r.parse_module("m").unwrap();
        let index = ModuleIndex::new(program, Arc::clone(r.interner())).unwrap();
        (index, r)
    }

    fn keep(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    /// `select` agrees with the rewriter on the source, and its resolved
    /// tree runs like the re-parsed source.
    fn assert_select_matches(source: &str, kept: &BTreeSet<String>) -> String {
        let (index, r) = index(source);
        let program = r.parse_module("m").unwrap();
        let expected = pylite::unparse(&rewrite_module(&program, kept));
        let candidate = index.select(&index.keep_mask(kept));
        assert_eq!(candidate.source, expected, "keep {kept:?}");
        let reparsed = pylite::resolve_program(&pylite::parse(&expected).unwrap(), r.interner());
        assert_eq!(
            format!("{:?}", strip_sites(&candidate.program)),
            format!("{:?}", strip_sites(&reparsed)),
        );
        candidate.source
    }

    /// Debug text of a resolved program with inline-cache site ids blanked
    /// (they differ between two resolutions of the same text).
    fn strip_sites(program: &RProgram) -> String {
        let text = format!("{program:?}");
        let mut out = String::with_capacity(text.len());
        let mut rest = text.as_str();
        while let Some(at) = rest.find("site: ") {
            out.push_str(&rest[..at + 6]);
            rest = rest[at + 6..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn empty_keep_set_selects_pass() {
        let src = assert_select_matches("x = 1\ndef f():\n    pass\n", &keep(&[]));
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
            assert_select_matches(module, &kept);
        }
        assert_eq!(
            assert_select_matches(module, &keep(&["d", "z"])),
            "import d\nfrom m import z\n"
        );
    }

    #[test]
    fn star_import_is_one_attribute() {
        let module = "from m import *\nx = 1\n";
        let (index, _) = index(module);
        assert_eq!(index.attributes(), ["*", "x"]);
        assert_eq!(
            assert_select_matches(module, &keep(&["*"])),
            "from m import *\n"
        );
        assert_eq!(assert_select_matches(module, &keep(&["x"])), "x = 1\n");
    }

    #[test]
    fn tuple_unpack_assigns_survive_on_any_name() {
        let module = "a, (b, c) = (1, (2, 3))\n[d, e] = [4, 5]\nobj.attr = 6\n";
        for kept in [keep(&["a"]), keep(&["c"]), keep(&["e"]), keep(&[])] {
            assert_select_matches(module, &kept);
        }
        assert_eq!(assert_select_matches(module, &keep(&[])), "obj.attr = 6\n");
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
            assert_select_matches(module, &kept);
        }
        assert_eq!(
            assert_select_matches(module, &keep(&["__version__", "ghost"])),
            "__all__ = [\"x\"]\n(__v__, w) = (1, 2)\nfrom m import __version__\n"
        );
    }

    #[test]
    fn select_stmts_matches_sliced_program() {
        let module = "__lt_work__(3)\nimport a, b\nx = 1\ndef f():\n    return x\n";
        let (index, r) = index(module);
        let program = r.parse_module("m").unwrap();
        for kept in [vec![], vec![0], vec![1, 3], vec![3, 1], vec![0, 1, 2, 3, 9]] {
            let expected = pylite::unparse(&sliced_program(&program, &kept));
            assert_eq!(index.select_stmts(&kept).source, expected);
        }
    }

    #[test]
    fn a_module_that_does_not_print_back_fails_to_index() {
        let program = Program {
            body: vec![Stmt::Import { items: vec![] }],
        };
        let indexed = ModuleIndex::new(Arc::new(program), Arc::new(Interner::new()));
        assert!(indexed.is_err());
    }

    #[test]
    fn function_definitions_are_shared_across_selections() {
        let (index, _) = index("def f():\n    return 1\ng = 2\n");
        let all = index.select(&[true, true]);
        let some = index.select(&[true, false]);
        match (&all.program.body[0], &some.program.body[0]) {
            (RStmt::FuncDef(a), RStmt::FuncDef(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected two definitions, got {other:?}"),
        }
    }
}
