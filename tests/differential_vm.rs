//! Differential test pinning the bytecode VM to pylite's tree-walking
//! reference evaluator, byte for byte, over the full 21-app corpus.
//!
//! The VM is pylite's only production engine, so any drift in stdout,
//! exceptions, module namespaces, observed accesses or virtual costs would
//! silently change every experiment. `differential_interning` compares the
//! VM against a recorded golden; this test runs the *live* reference
//! (`Interpreter::reference`, built for tests through pylite's `reference`
//! feature) next to the VM and asserts the renderings are identical —
//! including the meter, since virtual cost decides what λ-trim removes.

use lambda_trim::pylite::{py_repr, Interpreter};
use lambda_trim::trim_core::oracle::parse_literal;
use std::fmt::Write as _;

/// Render one app's full observable surface on `it`: handler results,
/// stdout, external calls, error (if any), the `__main__` module
/// namespace, observed module-attribute accesses, and the meter.
fn capture_behavior(app: &lambda_trim::trim_apps::BenchApp, mut it: Interpreter) -> String {
    let mut out = String::new();
    let mut error: Option<String> = None;
    match it.exec_main(&app.app_source) {
        Ok(main) => {
            for case in &app.spec.cases {
                let event = parse_literal(&case.event).expect("literal event");
                let context = parse_literal(&case.context).expect("literal context");
                match it.call_handler(&app.spec.handler, event, context) {
                    Ok(v) => writeln!(out, "res| {}", py_repr(&v)).unwrap(),
                    Err(e) => {
                        error = Some(format!("{}: {}", e.kind.class_name(), e.message));
                        break;
                    }
                }
            }
            // The namespace built by top-level execution, in insertion
            // order — the exact thing trimming rewrites.
            let interner = app.registry.interner().clone();
            for key in main.ns.key_syms() {
                let value = main.ns.get(key).expect("key from snapshot");
                writeln!(out, "ns | {} = {}", interner.resolve(key), py_repr(&value)).unwrap();
            }
        }
        Err(e) => error = Some(format!("{}: {}", e.kind.class_name(), e.message)),
    }
    for line in &it.stdout {
        writeln!(out, "out| {line}").unwrap();
    }
    for call in &it.extcalls {
        writeln!(out, "ext| {call}").unwrap();
    }
    if let Some(e) = error {
        writeln!(out, "err| {e}").unwrap();
    }
    for (module, attrs) in it.observed_accesses() {
        let attrs: Vec<&str> = attrs.iter().map(|a| a.as_str()).collect();
        writeln!(out, "obs| {module}: {}", attrs.join(" ")).unwrap();
    }
    writeln!(
        out,
        "met| clock={} mem={} steps={}",
        it.meter.clock_ns(),
        it.meter.mem_bytes(),
        it.meter.steps
    )
    .unwrap();
    out
}

#[test]
fn vm_matches_tree_walker_on_full_corpus_behavior() {
    for app in lambda_trim::trim_apps::corpus() {
        let tree = capture_behavior(&app, Interpreter::reference(app.registry.clone()));
        let vm = capture_behavior(&app, Interpreter::new(app.registry.clone()));
        if tree != vm {
            for (i, (t, v)) in tree.lines().zip(vm.lines()).enumerate() {
                assert_eq!(
                    v,
                    t,
                    "{}: vm diverged from tree-walker at line {}",
                    app.name,
                    i + 1
                );
            }
            panic!(
                "{}: capture length changed: vm {} vs tree {} lines",
                app.name,
                vm.lines().count(),
                tree.lines().count()
            );
        }
    }
}
