//! Differential test pinning candidate materialization (DESIGN.md §16) to
//! the rewrite → unparse → re-parse path it replaced.
//!
//! DD, retrim and slice probes select pre-rendered, pre-resolved
//! statements from a per-run `ModuleIndex` instead of rewriting, printing,
//! re-parsing and re-resolving the module. The contract, for every DD
//! target of the 21-app corpus and seeded random keep sets:
//!
//! * `select` returns the source `unparse(rewrite_module(..))` returns;
//! * the pre-resolved overlay has the plain overlay's fingerprint;
//! * running the app over the two overlays gives equal `Execution`s,
//!   timings and memory included, with init snapshots on and off.
//!
//! `select_stmts` is held to the same contract against `sliced_program`.

use lambda_trim::pylite::{unparse, unparse_stmt, Engine, Registry, Stmt};
use lambda_trim::trim_analysis::slice::sliced_program;
use lambda_trim::trim_apps::BenchApp;
use lambda_trim::trim_core::{
    rewrite_module, run_app_measured_opts, Candidate, ModuleIndex, OracleSpec, TestCase,
};
use lambda_trim::trim_profiler::{profile_app, top_k};
use lambda_trim::DebloatOptions;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use trim_rng::Rng;

/// Random keep sets drawn per DD target.
const KEEP_SETS: usize = 4;

/// Both init-snapshot settings a probe can run under.
const SNAPSHOTS: [bool; 2] = [true, false];

/// The modules `trim_app` runs DD on under the default options: the
/// profiler's top K that the registry holds.
fn dd_targets(app: &BenchApp) -> Vec<String> {
    let options = DebloatOptions::default();
    let profile = profile_app(&app.app_source, &app.registry).expect("corpus app profiles");
    top_k(&profile, options.scoring, options.k)
        .into_iter()
        .filter(|m| app.registry.contains(m))
        .collect()
}

/// A keep set of random density over every name the index knows, at
/// times with names the module does not bind: retrim seed probes pass raw
/// must-keep names.
fn random_keep(rng: &mut Rng, index: &ModuleIndex) -> BTreeSet<String> {
    let density = rng.f64();
    let mut keep: BTreeSet<String> = index
        .names()
        .iter()
        .filter(|_| rng.f64() < density)
        .cloned()
        .collect();
    if rng.bool() {
        keep.insert("__not_bound_here__".to_owned());
        keep.insert("not_bound_here".to_owned());
    }
    keep
}

/// An application and the registry its candidates overlay.
struct Subject<'a> {
    name: &'a str,
    registry: &'a Registry,
    app_source: &'a str,
    spec: &'a OracleSpec,
}

impl<'a> Subject<'a> {
    fn of(app: &'a BenchApp) -> Self {
        Subject {
            name: &app.name,
            registry: &app.registry,
            app_source: &app.app_source,
            spec: &app.spec,
        }
    }

    fn index(&self, module: &str) -> ModuleIndex {
        let program = self.registry.parse_module(module).expect("module parses");
        ModuleIndex::new(program, Arc::clone(self.registry.interner())).expect("module indexes")
    }

    /// Assert that the selected candidate and the plain source install as
    /// the same module and run the app identically with init snapshots on
    /// and off. Returns whether the app passed its oracle cases.
    fn assert_same(
        &self,
        module: &str,
        selected: Candidate,
        plain_source: String,
        what: &str,
    ) -> bool {
        let at = format!("{}/{module} {what}", self.name);
        assert_eq!(selected.source, plain_source, "{at}");
        let pre = self
            .registry
            .with_module_resolved(module, selected.source, selected.program);
        let plain = self.registry.with_module(module, plain_source);
        assert_eq!(pre.fingerprint(), plain.fingerprint(), "{at}");
        let mut passed = true;
        for snapshots in SNAPSHOTS {
            let run = |r: &Registry| {
                run_app_measured_opts(r, self.app_source, self.spec, Engine::Vm, snapshots)
            };
            let ours = run(&pre);
            assert_eq!(ours, run(&plain), "{at}: snapshots {snapshots}");
            passed &= ours.0.is_ok();
        }
        passed
    }
}

#[test]
fn selected_candidates_match_rewritten_sources_on_corpus_targets() {
    let mut rng = Rng::seed_from_u64(0xca9d_1da7);
    let (mut targets, mut cut_lists, mut passed) = (0usize, 0usize, 0usize);
    for app in lambda_trim::trim_apps::corpus() {
        let subject = Subject::of(&app);
        for module in dd_targets(&app) {
            targets += 1;
            let index = subject.index(&module);
            let program = app.registry.parse_module(&module).unwrap();
            let lists: HashSet<String> = program
                .body
                .iter()
                .filter(|s| matches!(s, Stmt::Import { .. } | Stmt::FromImport { .. }))
                .map(unparse_stmt)
                .collect();
            for _ in 0..KEEP_SETS {
                let keep = random_keep(&mut rng, &index);
                let plain = unparse(&rewrite_module(&program, &keep));
                cut_lists += plain
                    .split_inclusive('\n')
                    .filter(|l| l.starts_with("from ") || l.starts_with("import "))
                    .filter(|l| !lists.contains(*l))
                    .count();
                let selected = index.select(&index.keep_mask(&keep));
                passed += usize::from(subject.assert_same(&module, selected, plain, "select"));
            }
        }
    }
    assert!(targets >= 21, "every app has a DD target ({targets})");
    assert!(cut_lists > 0, "some keep sets cut an import list");
    assert!(passed > 0, "some candidates run the app to completion");
}

#[test]
fn selected_statements_match_sliced_programs_on_corpus_targets() {
    let mut rng = Rng::seed_from_u64(0x511c_ed00);
    for app in lambda_trim::trim_apps::corpus() {
        let subject = Subject::of(&app);
        for module in dd_targets(&app) {
            let index = subject.index(&module);
            let program = app.registry.parse_module(&module).unwrap();
            let density = rng.f64();
            let kept: Vec<usize> = (0..program.body.len())
                .filter(|_| rng.f64() < density)
                .collect();
            let plain = unparse(&sliced_program(&program, &kept));
            let selected = index.select_stmts(&kept);
            subject.assert_same(&module, selected, plain, "select_stmts");
        }
    }
}

/// The statement shapes whose keep rules differ: partially kept import
/// lists, star imports, tuple-unpack assigns and dunder bindings.
#[test]
fn edge_keep_sets_match_in_every_mode() {
    let mut registry = Registry::new();
    registry.set_module("a", "X = 1\n");
    registry.set_module("a.b", "Y = 2\n");
    registry.set_module("d", "Z = 3\n");
    registry.set_module("m", "x = 4\nz = 5\n__version__ = \"1\"\n");
    registry.set_module(
        "lib",
        "import a.b as c, d\nfrom m import x as y, z\nfrom m import *\nfrom m import __version__, x\np, (q, r) = (1, (2, 3))\n__all__ = [\"p\"]\ndef f():\n    return y + z\n",
    );
    registry.set_module("bare", "x = 1\ndef f():\n    pass\n");
    let app_source = "import lib\nimport bare\ndef handler(event, context):\n    names = [\"c\", \"d\", \"y\", \"z\", \"x\", \"p\", \"q\", \"r\", \"__version__\", \"f\"]\n    return [getattr(lib, n, None) for n in names] + [getattr(bare, \"x\", None)]\n";
    let spec = OracleSpec::new(vec![TestCase::event("{}")]);
    let subject = Subject {
        name: "edge",
        registry: &registry,
        app_source,
        spec: &spec,
    };
    let named =
        |names: &[&str]| -> BTreeSet<String> { names.iter().map(|s| (*s).to_owned()).collect() };

    let index = subject.index("lib");
    let program = registry.parse_module("lib").unwrap();
    for keep in [
        named(&[]),
        named(&["c"]),
        named(&["d", "z"]),
        named(&["y"]),
        named(&["*"]),
        named(&["__version__"]),
        named(&["x", "q"]),
        named(&["r", "f", "ghost"]),
    ] {
        let plain = unparse(&rewrite_module(&program, &keep));
        let selected = index.select(&index.keep_mask(&keep));
        subject.assert_same("lib", selected, plain, &format!("{keep:?}"));
    }
    let all: BTreeSet<String> = index.names().iter().cloned().collect();
    let plain = unparse(&rewrite_module(&program, &all));
    let selected = index.select(&index.keep_mask(&all));
    assert!(
        subject.assert_same("lib", selected, plain, "full keep set"),
        "the untrimmed app runs"
    );
    let cut = index.select(&index.keep_mask(&named(&["d", "z"])));
    assert_eq!(
        cut.source, "import d\nfrom m import z\n__all__ = [\"p\"]\n",
        "lists are cut item by item; dunder assigns always survive"
    );

    let bare = subject.index("bare");
    let empty = bare.select(&bare.keep_mask(&named(&[])));
    assert_eq!(empty.source, "pass\n");
    let plain = unparse(&rewrite_module(
        &registry.parse_module("bare").unwrap(),
        &named(&[]),
    ));
    subject.assert_same("bare", empty, plain, "empty keep set");
}
