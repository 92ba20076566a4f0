//! Differential test guarding the interned-symbol interpreter rewrite.
//!
//! The interpreter's switch to interned symbols, a resolved IR, and inline
//! attribute caches must be behavior-preserving down to the byte: virtual
//! costs decide what λ-trim removes, so any drift in stdout, exceptions,
//! observed accesses, or trim outcomes would silently change every
//! experiment. This test renders the full corpus behavior (plus mini-corpus
//! trim results) to a canonical text form and compares it against a golden
//! fixture captured from the pre-interning interpreter.
//!
//! Regenerate the fixture with:
//!
//! ```text
//! LT_UPDATE_GOLDEN=1 cargo test --test differential_interning
//! ```

use lambda_trim::pylite::py_repr;
use lambda_trim::trim_core::oracle::parse_literal;
use lambda_trim::{DebloatOptions, Interpreter};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/interning_behavior.txt"
);

/// Render one app's observable behavior: handler results, the `__main__`
/// namespace, stdout, external calls, any exception, the observed
/// module-attribute accesses, and the meter (virtual clock, simulated
/// memory and steps), since virtual cost decides what λ-trim removes.
fn capture_behavior(out: &mut String, app: &lambda_trim::trim_apps::BenchApp) {
    writeln!(out, "== {}", app.name).unwrap();
    let mut it = Interpreter::new(app.registry.clone());
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
            // order: the exact thing trimming rewrites.
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
}

/// Render the trim outcome of one app: per-module kept/removed attribute
/// lists (in original order) plus any conservative fallback modules.
fn capture_trim(out: &mut String, app: &lambda_trim::trim_apps::BenchApp) {
    writeln!(out, "== trim:{}", app.name).unwrap();
    let report = lambda_trim::trim_app(
        &app.registry,
        &app.app_source,
        &app.spec,
        &DebloatOptions::default(),
    )
    .expect("trim succeeds");
    for m in &report.modules {
        writeln!(
            out,
            "mod| {} kept=[{}] removed=[{}]",
            m.module,
            m.kept.join(","),
            m.removed.join(",")
        )
        .unwrap();
    }
    for f in &report.fallback_modules {
        writeln!(out, "fb | {f}").unwrap();
    }
}

fn capture() -> String {
    let mut out = String::new();
    for app in lambda_trim::trim_apps::corpus() {
        capture_behavior(&mut out, &app);
    }
    // Full-corpus trims at default options are pinned by
    // `tests/golden/corpus_trims.txt`; the mini corpus adds trims of
    // hand-written apps.
    for app in lambda_trim::trim_apps::mini_corpus() {
        capture_trim(&mut out, &app);
    }
    out
}

#[test]
fn interning_preserves_observable_behavior_and_trim_results() {
    let actual = capture();
    if std::env::var("LT_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture exists; regenerate with LT_UPDATE_GOLDEN=1");
    if actual != golden {
        // Point at the first divergent line rather than dumping both blobs.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "behavior diverged from the pre-interning interpreter at line {}",
                i + 1
            );
        }
        panic!(
            "behavior capture length changed: {} vs golden {} lines",
            actual.lines().count(),
            golden.lines().count()
        );
    }
}
