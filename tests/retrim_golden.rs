//! Golden corpus retrims: the correctness anchor of every change to
//! `retrim_with_log`, as `corpus_golden.rs` is for `trim_app`.
//!
//! Each of the 21 corpus apps is cold-trimmed at default options with a
//! fresh probe cache and summary cache attached, then updated the way
//! perfbench's `retrim-update` workload updates it (one of two shapes,
//! picked by the app's name at a fixed seed), then retrimmed from the cold
//! trim's log with the same warm caches. Each `IncrementalReport` is
//! rendered with `corpus_golden.rs`'s module, slice and execution lines,
//! plus its seeded and cold module counts, its oracle invocations and the
//! trimmed registry's fingerprint.
//!
//! Debug builds also count the oracle runs the retrims start (the cold
//! trims are not counted): a deterministic number that only falls when
//! more runs are answered without an interpreter (DESIGN.md §18).
//!
//! Regenerate the fixture only when a change is meant to move retrim
//! results, and say which entries moved and why:
//!
//! ```text
//! LT_UPDATE_GOLDEN=1 cargo test --test retrim_golden
//! ```

mod golden_text;

use golden_text::{assert_lines_match, render_execution, render_module, render_slice};
use lambda_trim::lambda_sim::trace::reconstruct::fnv1a64;
use lambda_trim::trim_analysis::summary::SummaryCache;
use lambda_trim::trim_apps::BenchApp;
use lambda_trim::trim_core::{retrim_with_log, IncrementalReport, ProbeCache, TrimLog};
use lambda_trim::{DebloatOptions, OracleSpec, TrimReport};
use std::fmt::Write as _;
use trim_rng::Rng;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/retrim_trims.txt");

/// The update seed: perfbench's default workload seed.
const SEED: u64 = 1;

/// Update shapes, as in perfbench: 0 adds the rare case to the oracle,
/// 1.. make the handler read one attribute the cold trim removed.
const UPDATE_KINDS: usize = 4;

/// The line every corpus handler starts with.
const HANDLER: &str = "def handler(event, context):\n";

/// Oracle runs the 21 retrims start: the baseline's run record answers
/// every probe, verify and slice probe of a logged module the updated app
/// never reads, and DD's last passing probe answers each verify (587 runs
/// when retrims had a loop of their own, without records or verifies).
#[cfg(debug_assertions)]
const RETRIM_RUNS: u64 = 501;

/// The update perfbench's `retrim-update` applies to `app` at `seed`.
fn update_kind(seed: u64, app: &str) -> usize {
    let draw = Rng::seed_from_u64(seed ^ fnv1a64(app.as_bytes())).next_u64();
    (draw % UPDATE_KINDS as u64) as usize
}

/// `bench` after update `kind` (perfbench's `apply_update`): its handler,
/// its oracle, and the log its retrim starts from.
fn apply_update(bench: &BenchApp, cold: &TrimReport, kind: usize) -> (String, OracleSpec, TrimLog) {
    let mut log = TrimLog::from_report(cold);
    let (lib, rare) = &bench.rare;
    let removed = cold
        .modules
        .iter()
        .find(|m| &m.module == lib)
        .map_or(&[][..], |m| &m.removed[..]);
    if kind == 0 || removed.is_empty() {
        let mut spec = bench.spec.clone();
        spec.cases.push(bench.rare_case());
        log.require(lib, rare);
        return (bench.app_source.clone(), spec, log);
    }
    let attr = &removed[(kind - 1) * removed.len() / (UPDATE_KINDS - 1)];
    assert!(
        bench.app_source.contains(HANDLER),
        "{}: no handler",
        bench.name
    );
    let app_source = bench.app_source.replacen(
        HANDLER,
        &format!("{HANDLER}    _update = {lib}.{attr}\n"),
        1,
    );
    (app_source, bench.spec.clone(), log)
}

fn render(out: &mut String, name: &str, kind: usize, r: &IncrementalReport) {
    writeln!(out, "== {name} {kind}").unwrap();
    for m in &r.modules {
        render_module(out, m);
    }
    for s in &r.slices {
        render_slice(out, s);
    }
    render_execution(out, "bef", &r.before);
    render_execution(out, "aft", &r.after);
    writeln!(
        out,
        "sum| seeded={} cold={} probes={} fingerprint={:016x}",
        r.seeded_modules,
        r.cold_modules,
        r.oracle_invocations,
        r.trimmed.fingerprint()
    )
    .unwrap();
}

#[test]
fn corpus_retrims_match_golden() {
    let mut actual = String::new();
    #[cfg(debug_assertions)]
    let mut runs = 0;
    for app in lambda_trim::trim_apps::corpus() {
        let options = DebloatOptions {
            probe_cache: Some(ProbeCache::shared()),
            summary_cache: Some(SummaryCache::shared()),
            ..DebloatOptions::default()
        };
        let cold = lambda_trim::trim_app(&app.registry, &app.app_source, &app.spec, &options)
            .expect("cold trim succeeds");
        let kind = update_kind(SEED, &app.name);
        let (app_source, spec, log) = apply_update(&app, &cold, kind);
        #[cfg(debug_assertions)]
        let start = lambda_trim::trim_core::oracle::oracle_runs();
        let report = retrim_with_log(&app.registry, &app_source, &spec, &log, &options)
            .expect("retrim succeeds");
        #[cfg(debug_assertions)]
        {
            runs += lambda_trim::trim_core::oracle::oracle_runs() - start;
        }
        assert!(report.after.behavior_eq(&report.before), "{}", app.name);
        render(&mut actual, &app.name, kind, &report);
    }
    if std::env::var("LT_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        #[cfg(debug_assertions)]
        eprintln!("retrim oracle runs: {runs}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture exists; regenerate with LT_UPDATE_GOLDEN=1");
    assert_lines_match(&actual, &golden, "corpus retrim");
    #[cfg(debug_assertions)]
    assert_eq!(runs, RETRIM_RUNS, "oracle runs per retrim pass");
}
