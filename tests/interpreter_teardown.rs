//! Pipeline-level checks that no oracle run outlives its interpreter.
//!
//! A pylite function holds its module's globals, which hold the function,
//! so every module namespace sits on an `Rc` cycle; dropping an interpreter
//! clears the namespace of every module it loaded. These tests count the
//! namespaces alive on the test thread (a debug-build counter) around whole
//! pipeline calls: every oracle run of a trim happens on the calling
//! thread, so a count back at its start means nothing leaked.

#![cfg(debug_assertions)]

use lambda_trim::pylite::value::live_namespaces;
use lambda_trim::trim_core::incremental::{retrim_with_log, TrimLog};
use lambda_trim::{trim_app, DebloatOptions};
use trim_core::run_app;

#[test]
fn run_app_leaves_no_namespace_alive_on_any_corpus_app() {
    for bench in trim_apps::corpus() {
        let before = live_namespaces();
        run_app(&bench.registry, &bench.app_source, &bench.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(live_namespaces(), before, "{}", bench.name);
    }
}

#[test]
fn repeated_trims_and_retrims_leave_no_namespace_alive() {
    let corpus = trim_apps::mini_corpus();
    let options = DebloatOptions::default();
    let before = live_namespaces();
    let mut first_round = Vec::new();
    for round in 0..4 {
        let mut reports = Vec::new();
        for bench in &corpus {
            let cold = trim_app(&bench.registry, &bench.app_source, &bench.spec, &options)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            let retrim = retrim_with_log(
                &bench.registry,
                &bench.app_source,
                &bench.spec,
                &TrimLog::from_report(&cold),
                &options,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            reports.push((cold, retrim));
        }
        assert_eq!(live_namespaces(), before, "round {round}");
        if round == 0 {
            first_round = reports;
        } else {
            assert!(reports == first_round, "round {round} repeats round 0");
        }
    }
}
