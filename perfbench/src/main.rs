//! perfbench — the end-to-end benchmark of the lambda-trim pipeline.
//!
//! ```text
//! perfbench --workload <trim-cold|retrim-update|fleet-replay> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --capture      # rewrite expected.txt from the current program
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`end_to_end`]), with `--trace 1` the
//! per-layer ones ([`per_layer`]). Lines before it start with `#`. See
//! README.md for why each workload exists and what each metric should move.

mod expected;
mod mem;
mod traced;
mod workloads;

use expected::Expected;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Measured, Run, FULL, REPLAY, STREAM, UPDATE_KINDS};

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold trim of every corpus app.
    TrimCold,
    /// Seeded retrim of every corpus app after an update.
    RetrimUpdate,
    /// Streamed fleet sweep plus a materialized trace replay.
    FleetReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "trim-cold" => Some(Workload::TrimCold),
            "retrim-update" => Some(Workload::RetrimUpdate),
            "fleet-replay" => Some(Workload::FleetReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrimCold => "trim-cold",
            Workload::RetrimUpdate => "retrim-update",
            Workload::FleetReplay => "fleet-replay",
        }
    }
}

/// One reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Resident memory still held per pass once its results are dropped: the
/// slope from the first pass to the last, so allocator caching, which
/// the first pass fills, does not count.
fn retained_mb_per_pass(m: &Measured) -> f64 {
    let rss = &m.rss_after_pass_mb;
    match (rss.first(), rss.last()) {
        (Some(first), Some(last)) if rss.len() > 1 => (last - first) / (rss.len() - 1) as f64,
        _ => 0.0,
    }
}

/// One pass over the workload's operations: the sum of each operation's
/// median time, seconds.
fn pass_s(m: &Measured) -> f64 {
    m.op_s.values().map(|v| median(v)).sum()
}

/// Geometric mean of each operation's median time, ms. Fixed per-operation
/// costs show here even where one large operation dominates [`pass_s`].
fn op_geomean_ms(m: &Measured) -> f64 {
    let logs: Vec<f64> = m.op_s.values().map(|v| median(v).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp() * 1e3
}

/// The end-to-end metrics, emitted with `--trace 0`.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        ("setup_s", "s", median(&m.setup_s)),
        ("pass_s", "s", pass_s(m)),
        ("peak_rss_mb", "MB", m.peak_rise_mb),
    ]
}

/// The per-layer metrics, emitted with `--trace 1`. A layer the workload's
/// traced run does not enter reads 0.
fn per_layer(workload: Workload, m: &Measured) -> Vec<Metric> {
    let ms = |layer: &str| m.layer_s.get(layer).map_or(0.0, |v| median(v) * 1e3);
    let c = &m.counters;
    let s = &c.snapshots;
    let count = |n: u64| n as f64;
    let retrim_probes = if workload == Workload::RetrimUpdate {
        c.probes
    } else {
        0
    };
    vec![
        ("pylite.compile_ms", "ms", ms("probe.compile")),
        ("pylite.unparse_ms", "ms", ms("probe.unparse")),
        ("pylite.overlay_ms", "ms", ms("probe.overlay")),
        ("pylite.run_ms", "ms", ms("probe.run")),
        (
            "pylite.run_us_per_probe",
            "us",
            ratio(ms("probe.run") * 1e3, count(c.dd_probes)),
        ),
        ("pylite.snapshot_hits", "count", count(s.hits)),
        ("pylite.snapshot_misses", "count", count(s.misses)),
        ("pylite.snapshot_captures", "count", count(s.captures)),
        (
            "pylite.snapshot_hit_ratio",
            "ratio",
            ratio(count(s.hits), count(s.hits + s.misses)),
        ),
        ("pylite.retained_mb_per_pass", "MB", retained_mb_per_pass(m)),
        ("trim-analysis.initial_ms", "ms", ms("analysis.initial")),
        ("trim-analysis.must_keep_ms", "ms", ms("analysis.must_keep")),
        (
            "trim-analysis.calls",
            "count",
            count(c.summary.iter().sum()),
        ),
        ("trim-analysis.summary_hits", "count", count(c.summary[0])),
        (
            "trim-analysis.summary_incremental",
            "count",
            count(c.summary[2]),
        ),
        ("trim-dd.self_ms", "ms", ms("dd")),
        ("trim-dd.probes", "count", count(c.dd_probes)),
        (
            "trim-dd.pass_ratio",
            "ratio",
            ratio(count(c.dd_passes), count(c.dd_probes)),
        ),
        ("trim-dd.cache_hits", "count", count(c.dd_cache_hits)),
        ("trim-profiler.profile_ms", "ms", ms("profile")),
        ("trim-core.trim_ms", "ms", ms("trim")),
        ("trim-core.rewrite_ms", "ms", ms("probe.rewrite")),
        ("trim-core.baseline_ms", "ms", ms("baseline")),
        ("trim-core.verify_ms", "ms", ms("commit")),
        ("trim-core.slicer_ms", "ms", ms("slicer")),
        ("trim-core.slicer_probes", "count", count(c.slicer_probes)),
        ("trim-core.final_ms", "ms", ms("final")),
        ("trim-core.retrim_ms", "ms", ms("retrim")),
        (
            "trim-core.probe_cache_hits",
            "count",
            count(c.probe_cache[0]),
        ),
        (
            "trim-core.probe_cache_misses",
            "count",
            count(c.probe_cache[1]),
        ),
        ("trim-core.seeded_modules", "count", count(c.seeded_modules)),
        ("trim-core.cold_modules", "count", count(c.cold_modules)),
        ("trim-core.retrim_probes", "count", count(retrim_probes)),
        ("lambda-sim.synth_ms", "ms", ms("synth")),
        ("lambda-sim.generate_trace_ms", "ms", ms("generate_trace")),
        ("lambda-sim.replay_trace_ms", "ms", ms("replay_trace")),
        ("lambda-sim.replay_fleet_ms", "ms", ms("replay_fleet")),
        (
            "lambda-sim.pool_invocations",
            "count",
            count(m.op_invocations.values().sum()),
        ),
        (
            "trace.span_coverage",
            "ratio",
            m.span_coverage.unwrap_or(0.0),
        ),
        ("trace.overhead_pct", "%", m.overhead_pct.unwrap_or(0.0)),
    ]
}

/// A workload's end-to-end numbers under its own names (`trim_corpus_s`,
/// `stream_minv_per_s`, ...), printed as comments before the result line.
fn named(workload: Workload, m: &Measured) -> Vec<Metric> {
    let minv_per_s = |op: &str| {
        let secs = m.op_s.get(op).map_or(0.0, |v| median(v));
        ratio(m.op_invocations.get(op).copied().unwrap_or(0) as f64, secs) / 1e6
    };
    let mut out = vec![("setup_s", "s", median(&m.setup_s))];
    match workload {
        Workload::TrimCold => out.extend([
            ("trim_corpus_s", "s", pass_s(m)),
            ("trim_app_geomean_ms", "ms", op_geomean_ms(m)),
        ]),
        Workload::RetrimUpdate => out.extend([
            ("retrim_corpus_s", "s", pass_s(m)),
            ("retrim_app_geomean_ms", "ms", op_geomean_ms(m)),
        ]),
        Workload::FleetReplay => out.extend([
            ("stream_minv_per_s", "Minv/s", minv_per_s(STREAM)),
            ("replay_minv_per_s", "Minv/s", minv_per_s(REPLAY)),
        ]),
    }
    out.push(("peak_rss_mb", "MB", m.peak_rise_mb));
    if workload != Workload::FleetReplay {
        out.push(("retained_mb_per_pass", "MB", retained_mb_per_pass(m)));
    }
    out
}

/// Run `workload` and return the measurements.
pub fn measure(workload: Workload, run: &Run, trace: bool) -> Measured {
    match (workload, trace) {
        (Workload::TrimCold, false) => workloads::trim_cold(run),
        (Workload::TrimCold, true) => traced::trim_cold_traced(run),
        (Workload::RetrimUpdate, _) => workloads::retrim_update(run),
        (Workload::FleetReplay, _) => workloads::fleet_replay(run),
    }
}

/// The metrics a run reports.
pub fn metrics(workload: Workload, m: &Measured, trace: bool) -> Vec<Metric> {
    if trace {
        per_layer(workload, m)
    } else {
        end_to_end(m)
    }
}

/// The result line.
pub fn result_json(m: &Measured, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out + "}}"
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <trim-cold|retrim-update|fleet-replay> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --capture";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 25.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Recompute every output `expected.txt` records.
fn capture() -> Result<Expected, String> {
    let mut e = Expected::default();
    for bench in (FULL.apps)() {
        let report = trim_core::trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &trim_core::DebloatOptions::default(),
        )
        .map_err(|err| format!("trim {}: {err}", bench.name))?;
        if !workloads::behaves_fresh(
            &bench.registry,
            &report.trimmed,
            &bench.app_source,
            &bench.spec,
            &bench.name,
        ) {
            return Err(format!("trim {}: trimmed app misbehaves", bench.name));
        }
        e.set(
            format!("trim {}", bench.name),
            workloads::trim_outcome(&bench, &report),
        );
    }
    for kind in 0..UPDATE_KINDS {
        for bench in (FULL.apps)() {
            let name = bench.name.clone();
            let s = workloads::seed_app(bench, kind, &e)
                .ok_or(format!("seeding {name} disagrees with its cold trim"))?;
            let u = &s.update;
            let report = trim_core::retrim_with_log(
                &s.bench.registry,
                &u.app_source,
                &u.spec,
                &u.log,
                &s.options,
            )
            .map_err(|err| format!("retrim {name} {kind}: {err}"))?;
            if !workloads::behaves_fresh(
                &s.bench.registry,
                &report.trimmed,
                &u.app_source,
                &u.spec,
                &name,
            ) {
                return Err(format!("retrim {name} {kind}: trimmed app misbehaves"));
            }
            e.set(
                format!("retrim {name} {kind}"),
                workloads::retrim_outcome(&s.bench, &report),
            );
        }
    }
    let platform = lambda_sim::Platform::default();
    let options = lambda_sim::ReplayOptions::default();
    for scale in [FULL, workloads::FAST] {
        for hour in 0..workloads::PEAK_HOURS {
            let fleet = workloads::trace_config(scale.fleet_functions, hour);
            let report =
                lambda_sim::replay_fleet(&platform, &fleet, &options).map_err(|e| e.to_string())?;
            for (key, value) in workloads::stream_outcomes(&fleet, &report) {
                e.set(key, value);
            }
            let small = workloads::trace_config(scale.trace_functions, hour);
            let trace = lambda_sim::generate_trace(&small);
            let report = lambda_sim::replay_trace(&platform, &trace, &options);
            for (key, value) in workloads::replay_outcomes(&small, &report) {
                e.set(key, value);
            }
        }
    }
    Ok(e)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--capture"] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
        return match capture().and_then(|e| {
            std::fs::write(path, e.render()).map_err(|err| format!("writing {path}: {err}"))
        }) {
            Ok(()) => {
                eprintln!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("capture failed: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let expected = Expected::builtin();
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        scale: FULL,
        expected: &expected,
    };
    let m = measure(args.workload, &run, args.trace);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={} | nproc={nproc} rustc=\"{}\" profile={} | passes={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        m.rss_after_pass_mb.len()
    );
    if !args.trace {
        for (name, unit, value) in named(args.workload, &m) {
            println!("# {name} = {value:.6} {unit}");
        }
    }
    let metrics = metrics(args.workload, &m, args.trace);
    println!("{}", result_json(&m, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::FAST;

    fn fast_run(expected: &Expected) -> Run<'_> {
        Run {
            seed: 7,
            seconds: 0.0,
            scale: FAST,
            expected,
        }
    }

    /// Every metric BENCHMARK.json declares, as `(name, unit)`.
    fn declared() -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let mut out = Vec::new();
        for chunk in text.split("{\"name\": \"").skip(1) {
            let name = chunk.split('"').next().expect("name");
            if let Some(unit) = chunk.split("\"unit\": \"").nth(1) {
                out.push((
                    name.to_owned(),
                    unit.split('"').next().expect("unit").to_owned(),
                ));
            }
        }
        out
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let m = Measured::default();
        let mut ours: Vec<(String, String)> = end_to_end(&m)
            .into_iter()
            .chain(per_layer(Workload::TrimCold, &m))
            .map(|(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect();
        let mut theirs = declared();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn fast_mode_emits_every_metric_and_passes_the_gate() {
        let expected = Expected::builtin();
        let run = fast_run(&expected);
        for workload in [
            Workload::TrimCold,
            Workload::RetrimUpdate,
            Workload::FleetReplay,
        ] {
            for trace in [false, true] {
                let m = measure(workload, &run, trace);
                assert!(
                    m.attempted > 0 && m.failed == 0,
                    "{workload:?} trace={trace}: {m:?}"
                );
                let json = result_json(&m, &metrics(workload, &m, trace));
                let table = metrics(workload, &Measured::default(), trace);
                for (name, unit, _) in table {
                    let field = format!("\"{name}\": {{\"value\": ");
                    assert!(
                        json.contains(&field),
                        "{workload:?}: {name} missing in {json}"
                    );
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
                }
                if !trace {
                    let times = [median(&m.setup_s), pass_s(&m), op_geomean_ms(&m)];
                    assert!(times.iter().all(|t| *t > 0.0), "{workload:?}: {json}");
                }
            }
        }
    }

    #[test]
    fn a_wrong_expected_value_trips_the_gate() {
        let mut expected = Expected::builtin();
        expected.set("trim markdown", "0000000000000000 0 0 0.0 0.0 0.0");
        let m = measure(Workload::TrimCold, &fast_run(&expected), false);
        assert_eq!(m.attempted, 3 * MIN_PASSES_U64);
        assert_eq!(
            m.failed, MIN_PASSES_U64,
            "every markdown trim fails the gate"
        );
        assert!(result_json(&m, &metrics(Workload::TrimCold, &m, false))
            .starts_with("{\"correct\": false"));

        let mut expected = Expected::builtin();
        let key = format!("replay {} 7 standard 60", FAST.trace_functions);
        expected.set(key, "1 1 1.0");
        let m = measure(Workload::FleetReplay, &fast_run(&expected), false);
        assert_eq!(m.failed, MIN_PASSES_U64);
    }

    const MIN_PASSES_U64: u64 = workloads::MIN_PASSES as u64;

    #[test]
    fn updates_change_the_handler_or_the_oracle() {
        let bench = trim_apps::app("markdown").expect("corpus app");
        let cold = trim_core::trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &trim_core::DebloatOptions::default(),
        )
        .expect("cold trim");
        let rare = workloads::apply_update(&bench, &cold, 0);
        assert_eq!(rare.spec.cases.len(), bench.spec.cases.len() + 1);
        assert!(rare.log.kept[&bench.rare.0].contains(&bench.rare.1));
        for kind in 1..UPDATE_KINDS {
            let u = workloads::apply_update(&bench, &cold, kind);
            assert!(
                u.app_source.contains("    _update = markdown."),
                "{}",
                u.app_source
            );
            assert_eq!(u.spec, bench.spec);
        }
    }

    #[test]
    fn args_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload fleet-replay --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FleetReplay, 3, 10.0, true)
        );
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload trim-cold --trace 2",
            "--workload trim-cold --seconds 0",
            "--workload trim-cold --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
