//! Differential test pinning init-snapshot replay to live execution,
//! byte for byte.
//!
//! Init-snapshot memoization (`DebloatOptions::init_snapshots`, default on)
//! replays recorded module initializations on later probes instead of
//! re-running module bodies. The whole design rests on replay being
//! unobservable except in wall-clock time: stdout, external calls, module
//! namespaces, observed accesses, the virtual meter, and therefore every
//! trim decision must be identical with the cache on or off. This test
//! runs the full 21-app corpus live next to captured-then-replayed runs,
//! and asserts mini-corpus trim reports agree between replay-on and
//! replay-off across `--jobs`. Full-corpus trims at default options
//! (snapshots on) are pinned by `tests/golden/corpus_trims.txt`.

use lambda_trim::pylite::{py_repr, Interpreter};
use lambda_trim::trim_core::oracle::parse_literal;
use lambda_trim::DebloatOptions;
use std::fmt::Write as _;

/// Render one app's full observable surface, with init-snapshot
/// recording/replay enabled iff `snapshots`: handler
/// results, stdout, external calls, error (if any), the `__main__` module
/// namespace, every loaded library module's namespace (the exact objects
/// replay rebuilds), observed module-attribute accesses, and the meter.
fn capture_behavior(app: &lambda_trim::trim_apps::BenchApp, snapshots: bool) -> String {
    let mut out = String::new();
    let mut it = Interpreter::new(app.registry.clone());
    if snapshots {
        it.enable_init_snapshots();
    }
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
            let interner = app.registry.interner().clone();
            for key in main.ns.key_syms() {
                let value = main.ns.get(key).expect("key from snapshot");
                writeln!(out, "ns | {} = {}", interner.resolve(key), py_repr(&value)).unwrap();
            }
            // Library module namespaces in load order: replay rebuilds
            // these from the snapshot arena, so enumerate them fully
            // (which also forces any still-deferred bindings).
            for name in it.loaded_modules() {
                let module = it.module(&name).expect("loaded module");
                for key in module.ns.key_syms() {
                    let value = module.ns.get(key).expect("key from snapshot");
                    writeln!(
                        out,
                        "lib| {name}.{} = {}",
                        interner.resolve(key),
                        py_repr(&value)
                    )
                    .unwrap();
                }
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

/// Render one app's trim outcome with `jobs` analysis workers and the
/// snapshot cache on or off.
fn capture_trim(
    app: &lambda_trim::trim_apps::BenchApp,
    jobs: usize,
    init_snapshots: bool,
) -> String {
    let mut out = String::new();
    let options = DebloatOptions {
        jobs,
        init_snapshots,
        ..DebloatOptions::default()
    };
    let report = lambda_trim::trim_app(&app.registry, &app.app_source, &app.spec, &options)
        .expect("trim succeeds");
    for m in &report.modules {
        writeln!(
            out,
            "mod| {} kept=[{}] removed=[{}] probes={}",
            m.module,
            m.kept.join(","),
            m.removed.join(","),
            m.dd_stats.oracle_invocations
        )
        .unwrap();
    }
    for f in &report.fallback_modules {
        writeln!(out, "fb | {f}").unwrap();
    }
    writeln!(
        out,
        "sum| init {:.9}->{:.9}s mem {:.6}->{:.6}MB",
        report.before.init_secs, report.after.init_secs, report.before.mem_mb, report.after.mem_mb
    )
    .unwrap();
    out
}

#[test]
fn replay_matches_live_on_full_corpus_behavior() {
    for app in lambda_trim::trim_apps::corpus() {
        let live = capture_behavior(&app, false);
        // First snapshot run records, second replays from the store.
        let captured = capture_behavior(&app, true);
        let hits_before = app.registry.snapshot_store().stats().hits;
        let replayed = capture_behavior(&app, true);
        let hits_after = app.registry.snapshot_store().stats().hits;
        assert_eq!(
            captured, live,
            "{}: capture run diverged from live",
            app.name
        );
        assert_eq!(
            replayed, live,
            "{}: replay run diverged from live",
            app.name
        );
        // Guard against a vacuous pass: apps with registry imports must
        // actually have replayed something on the second run.
        if !app.registry.module_names().is_empty() && hits_after == hits_before {
            let stats = app.registry.snapshot_store().stats();
            assert!(
                stats.ineligible > 0 || stats.captures == 0,
                "{}: no replay hits yet nothing was ineligible ({stats:?})",
                app.name
            );
        }
    }
}

#[test]
fn replay_matches_disabled_on_trim_reports_across_engines_and_jobs() {
    for app in lambda_trim::trim_apps::mini_corpus() {
        let off = capture_trim(&app, 1, false);
        for jobs in [1, 2, 8] {
            let on = capture_trim(&app, jobs, true);
            assert_eq!(
                on, off,
                "{} (jobs={jobs}): snapshot replay changed the trim report",
                app.name
            );
        }
    }
}
