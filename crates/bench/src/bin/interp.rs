//! Interpreter hot-path benchmark: wall-clock nanoseconds per oracle run,
//! per corpus application.
//!
//! One "oracle run" is exactly what every DD probe pays: a fresh
//! interpreter, full application initialization (imports included), then
//! every oracle case through the handler. This is the quantity the
//! interned-symbol/resolved-IR/inline-cache rewrite optimizes, so it is
//! measured end to end rather than as isolated micro-ops.
//!
//! Usage:
//!
//! ```text
//! interp                      # measure, print one "<app> <ns>" line each
//! interp --baseline FILE      # measure, read FILE ("<app> <ns>" lines from
//!                             # the pre-rewrite build), write BENCH_interp.json
//! ```
//!
//! `LT_BENCH_BUDGET_MS` bounds the per-app sampling budget (default 300).

use std::time::{Duration, Instant};
use trim_core::run_app;

/// Median wall-clock duration of one oracle run, sampled under a budget.
fn measure_app(bench: &trim_apps::BenchApp, budget: Duration) -> u64 {
    let one_run = || {
        std::hint::black_box(run_app(&bench.registry, &bench.app_source, &bench.spec))
            .expect("corpus app runs");
    };
    one_run(); // warm-up: populates shared parse/resolve slots
    let mut samples: Vec<u64> = Vec::new();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || samples.len() < 5 {
        let t = Instant::now();
        one_run();
        samples.push(t.elapsed().as_nanos() as u64);
        if samples.len() >= 500 {
            break;
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Parse `<app> <ns>` lines produced by a `--baseline`-less invocation.
fn read_baseline(path: &str) -> Vec<(String, u64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            let app = parts.next().expect("app name").to_owned();
            let ns = parts
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("bad baseline line: {l:?}"));
            (app, ns)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| read_baseline(args.get(i + 1).expect("--baseline FILE")));

    let budget_ms = std::env::var("LT_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    let budget = Duration::from_millis(budget_ms);

    let mut rows = Vec::new();
    for bench in trim_apps::corpus() {
        let ns = measure_app(&bench, budget);
        println!("{} {ns}", bench.name);
        rows.push((bench.name.clone(), ns));
    }

    let Some(before) = baseline else {
        return;
    };

    let mut json_rows = Vec::new();
    let mut log_sum = 0.0f64;
    let mut min_speedup = f64::INFINITY;
    for (app, after_ns) in &rows {
        let before_ns = before
            .iter()
            .find(|(a, _)| a == app)
            .map(|(_, n)| *n)
            .unwrap_or_else(|| panic!("baseline is missing app {app}"));
        let speedup = before_ns as f64 / *after_ns as f64;
        log_sum += speedup.ln();
        min_speedup = min_speedup.min(speedup);
        json_rows.push(format!(
            "    {{\"app\": \"{app}\", \"before_ns\": {before_ns}, \"after_ns\": {after_ns}, \"speedup\": {speedup:.2}}}"
        ));
    }
    let geomean = (log_sum / rows.len() as f64).exp();
    let json = format!(
        "{{\n  \"bench\": \"interp_hot\",\n  \"unit\": \"ns_per_oracle_run\",\n  \"apps\": [\n{}\n  ],\n  \"geomean_speedup\": {:.2},\n  \"min_speedup\": {:.2}\n}}\n",
        json_rows.join(",\n"),
        geomean,
        min_speedup
    );
    let path = "BENCH_interp.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("geomean speedup {geomean:.2}x, min {min_speedup:.2}x");
    println!("wrote {path}");
}
