//! Static-analysis fixpoint benchmark: wall-clock nanoseconds per full
//! interprocedural analysis, per corpus application, in three
//! configurations:
//!
//! * **serial** — cold run, one walker thread (`jobs = 1`);
//! * **parallel** — cold run, `jobs = 8` sharded walkers;
//! * **incremental** — a body-only edit of one module (its published
//!   surface unchanged) against a warm summary cache;
//! * **commit** — the shape of a DD commit: the app's main library is
//!   rewritten to its statically accessed attributes with
//!   `rewrite_module`, and the must-keep query (`Analyzer::accessed_attrs`,
//!   what the trim loops call) runs incrementally against the warm cache.
//!
//! Every parallel and incremental result is checked identical to a cold
//! serial run of the same registry (call graph, lints, accessed sets,
//! bindings, reached functions; for the commit, the must-keep query on
//! every module too) — the determinism and exactness contract of the
//! sharded engine, not just a smoke test. The binary exits with status 1,
//! before writing the JSON, if any check fails.
//!
//! # Parallel speedup: measured and projected
//!
//! Wall-clock speedup from threads requires physical cores. On a
//! single-core host (common for pinned CI containers — check the
//! `host_cores` field in the output) every multi-threaded wall
//! measurement degenerates to serial time plus scheduling overhead, so
//! besides the measured `jobs8_wall_ns` this benchmark reports
//! `jobs8_projected_ns`: the engine's span tracer records the real
//! per-shard walk/collect durations of a serial run, and those spans are
//! replayed through an idealized 8-worker BSP schedule (LPT list
//! scheduling within each round; barriers, the final merge, and all
//! untraced time stay serial). The projection uses measured single-thread
//! work only — no speedup is assumed, it is computed from the schedule
//! the sharded engine actually executes.
//!
//! The corpus-level headline (`jobs8_speedup`) models a `--jobs 8` run
//! over the whole corpus the way the pipeline executes one: apps are
//! list-scheduled across the 8 workers (corpus-level parallelism), and
//! the longest-running app — the critical path — additionally uses the
//! sharded engine's intra-app schedule. Incremental and commit speedups
//! are plain measured wall time: both sides are single-threaded.
//!
//! Usage:
//!
//! ```text
//! analysis        # measure, print per-app rows, write BENCH_analysis.json
//! ```
//!
//! `LT_BENCH_BUDGET_MS` bounds the per-configuration sampling budget
//! (default 300).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trim_analysis::spans::{self, Phase, Span};
use trim_analysis::summary::SummaryCache;
use trim_analysis::{analyze_full, AnalysisOptions, Analyzer, FullAnalysis};

/// Worker count for the parallel configuration.
const JOBS: usize = 8;

fn render(full: &FullAnalysis) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        full.analysis,
        full.load_time_accessed,
        full.module_bindings,
        full.lints,
        full.hazard_modules,
        full.call_graph,
        full.reached_functions
    )
}

/// Median duration of `f`, sampled under a budget.
fn measure(budget: Duration, mut f: impl FnMut()) -> u64 {
    f(); // warm-up: populates shared parse/resolve slots
    let mut samples: Vec<u64> = Vec::new();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || samples.len() < 5 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
        if samples.len() >= 500 {
            break;
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median duration of `f` on `state`, which `reset` prepares, untimed,
/// before every sample.
fn measure_after<S>(
    budget: Duration,
    state: &mut S,
    mut reset: impl FnMut(&mut S),
    mut f: impl FnMut(&S),
) -> u64 {
    let mut samples: Vec<u64> = Vec::new();
    let deadline = Instant::now() + budget;
    while (Instant::now() < deadline || samples.len() < 5) && samples.len() < 500 {
        reset(state);
        let t = Instant::now();
        f(state);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Longest-processing-time list-scheduling makespan of `tasks` on
/// `workers` identical workers: sort descending, always give the next
/// task to the least-loaded worker.
fn lpt_makespan(mut tasks: Vec<u64>, workers: usize) -> u64 {
    tasks.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; workers.max(1)];
    for t in tasks {
        *loads.iter_mut().min().expect("at least one worker") += t;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Replay a traced serial run through an idealized `workers`-wide BSP
/// schedule: walks within a round and the collect pass parallelize;
/// round barriers, the finish merge, and all untraced time (setup,
/// shard construction) stay serial.
fn project(spans: &[Span], serial_wall_ns: u64, workers: usize) -> u64 {
    let traced: u64 = spans.iter().map(|s| s.ns).sum();
    let mut walks: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut collects: Vec<u64> = Vec::new();
    let mut serial_phases: u64 = 0;
    for s in spans {
        match s.phase {
            Phase::Walk => walks.entry(s.round).or_default().push(s.ns),
            Phase::Collect => collects.push(s.ns),
            Phase::Barrier | Phase::Finish => serial_phases += s.ns,
        }
    }
    let walk_rounds: u64 = walks.into_values().map(|w| lpt_makespan(w, workers)).sum();
    let collect_pass = lpt_makespan(collects, workers);
    serial_wall_ns.saturating_sub(traced) + walk_rounds + collect_pass + serial_phases
}

struct Row {
    app: String,
    serial_ns: u64,
    jobs8_wall_ns: u64,
    jobs8_projected_ns: u64,
    incremental_ns: u64,
    commit_module: String,
    commit_ns: u64,
    identical: bool,
}

fn main() {
    let budget_ms = std::env::var("LT_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    let budget = Duration::from_millis(budget_ms);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows: Vec<Row> = Vec::new();
    for bench in trim_apps::corpus() {
        let program = pylite::parse(&bench.app_source).expect("corpus app parses");
        let opts = |jobs: usize, cache: Option<std::sync::Arc<SummaryCache>>| AnalysisOptions {
            jobs,
            summary_cache: cache,
            ..AnalysisOptions::default()
        };

        let serial_out = analyze_full(&program, &bench.registry, &opts(1, None));
        let parallel_out = analyze_full(&program, &bench.registry, &opts(JOBS, None));
        let mut identical = render(&serial_out) == render(&parallel_out);

        let serial_ns = measure(budget, || {
            std::hint::black_box(analyze_full(&program, &bench.registry, &opts(1, None)));
        });
        let jobs8_wall_ns = measure(budget, || {
            std::hint::black_box(analyze_full(&program, &bench.registry, &opts(JOBS, None)));
        });

        // Trace a few serial runs and project the median one through the
        // idealized 8-worker schedule (see module docs).
        let mut traced: Vec<(u64, Vec<Span>)> = (0..5)
            .map(|_| {
                spans::enable();
                let t = Instant::now();
                std::hint::black_box(analyze_full(&program, &bench.registry, &opts(1, None)));
                let wall = t.elapsed().as_nanos() as u64;
                (wall, spans::take())
            })
            .collect();
        traced.sort_by_key(|(wall, _)| *wall);
        let (traced_wall, trace) = &traced[traced.len() / 2];
        let jobs8_projected_ns = project(trace, *traced_wall, JOBS).max(1);

        // Incremental: flip one module between two contents; each sample
        // is a genuine incremental run (the fingerprint differs from the
        // cached one). The edit appends a bare expression statement — a
        // body-only change that leaves the module's public surface
        // unchanged, the shape of most retrim-triggering edits — so early
        // cutoff re-walks only the edited module.
        let module = bench
            .registry
            .module_names()
            .pop()
            .expect("corpus registries are non-empty");
        let original = bench
            .registry
            .source(&module)
            .expect("module listed")
            .to_owned();
        let edited = format!("{original}\n0\n");
        let cache = SummaryCache::shared();
        let mut work = bench.registry.clone();
        analyze_full(&program, &work, &opts(1, Some(cache.clone()))); // prime
        let mut flip = false;
        let incremental_ns = measure(budget, || {
            flip = !flip;
            work.set_module(
                &module,
                if flip {
                    edited.clone()
                } else {
                    original.clone()
                },
            );
            std::hint::black_box(analyze_full(&program, &work, &opts(1, Some(cache.clone()))));
        });
        let cold =
            |registry: &pylite::Registry| render(&analyze_full(&program, registry, &opts(1, None)));
        identical &= render(&analyze_full(
            &program,
            &work,
            &opts(1, Some(cache.clone())),
        )) == cold(&work);

        // Commit: the app's main library (its widest direct import) keeps
        // only what the analysis says the app definitely accesses — the
        // shape of every DD commit, whose published surface always
        // shrinks. Each sample restores the original (untimed) and times
        // the must-keep query on the committed registry.
        let commit_module = serial_out
            .analysis
            .direct_imports
            .iter()
            .filter_map(|m| Some((serial_out.module_bindings.get(m)?.len(), m)))
            .max()
            .map(|(_, m)| m.clone())
            .expect("corpus apps import an analyzed library");
        let original = bench
            .registry
            .source(&commit_module)
            .expect("module listed")
            .to_owned();
        let parsed = pylite::parse(&original).expect("corpus module parses");
        let keep = serial_out.analysis.accessed_attrs(&commit_module);
        let committed = pylite::unparse(&trim_core::rewrite_module(&parsed, &keep));
        let commit_opts = opts(1, Some(SummaryCache::shared()));
        let analyzer = Analyzer::new(&program, &commit_opts);
        let mut work = bench.registry.clone();
        analyzer.accessed_attrs(&work, &commit_module); // prime
        let commit_ns = measure_after(
            budget,
            &mut work,
            |work| {
                work.set_module(&commit_module, original.clone());
                analyzer.accessed_attrs(work, &commit_module);
                work.set_module(&commit_module, committed.clone());
            },
            |work| {
                std::hint::black_box(analyzer.accessed_attrs(work, &commit_module));
            },
        );
        let scratch = analyze_full(&program, &work, &opts(1, None));
        identical &= work
            .module_names()
            .iter()
            .all(|m| analyzer.accessed_attrs(&work, m) == scratch.analysis.accessed_attrs(m));
        identical &= render(&analyzer.full(&work)) == render(&scratch);

        println!(
            "{:<24} serial {serial_ns:>9} ns | jobs=8 proj {jobs8_projected_ns:>9} ns ({:.2}x, wall {jobs8_wall_ns} ns) | incremental {incremental_ns:>9} ns ({:.2}x) | commit {commit_module} {commit_ns:>9} ns ({:.2}x) | identical: {identical}",
            bench.name,
            serial_ns as f64 / jobs8_projected_ns as f64,
            serial_ns as f64 / incremental_ns as f64,
            serial_ns as f64 / commit_ns as f64,
        );
        rows.push(Row {
            app: bench.name.clone(),
            serial_ns,
            jobs8_wall_ns,
            jobs8_projected_ns,
            incremental_ns,
            commit_module,
            commit_ns,
            identical,
        });
    }

    let total_serial: u64 = rows.iter().map(|r| r.serial_ns).sum();
    let total_jobs8_wall: u64 = rows.iter().map(|r| r.jobs8_wall_ns).sum();
    let total_incremental: u64 = rows.iter().map(|r| r.incremental_ns).sum();
    let total_commit: u64 = rows.iter().map(|r| r.commit_ns).sum();

    // Corpus-level jobs=8 schedule: apps run concurrently across the 8
    // workers; the longest app is the critical path and uses the sharded
    // engine's intra-app schedule on those same workers once the rest of
    // the corpus has drained.
    let longest = rows
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.serial_ns)
        .map(|(i, _)| i)
        .expect("non-empty corpus");
    let other_apps: Vec<u64> = rows
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != longest)
        .map(|(_, r)| r.serial_ns)
        .collect();
    let corpus_jobs8_projected = lpt_makespan(other_apps, JOBS) + rows[longest].jobs8_projected_ns;

    let jobs8_speedup = total_serial as f64 / corpus_jobs8_projected as f64;
    let jobs8_wall_speedup = total_serial as f64 / total_jobs8_wall as f64;
    let incremental_speedup = total_serial as f64 / total_incremental as f64;
    let commit_speedup = total_serial as f64 / total_commit as f64;
    let differing: Vec<&str> = rows
        .iter()
        .filter(|r| !r.identical)
        .map(|r| r.app.as_str())
        .collect();
    if !differing.is_empty() {
        eprintln!("parallel or incremental results differ from the cold serial run: {differing:?}");
        std::process::exit(1);
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"serial_ns\": {}, \"jobs8_wall_ns\": {}, \"jobs8_projected_ns\": {}, \"incremental_ns\": {}, \"commit_module\": \"{}\", \"commit_ns\": {}, \"jobs8_projected_speedup\": {:.2}, \"incremental_speedup\": {:.2}, \"commit_speedup\": {:.2}}}",
                r.app,
                r.serial_ns,
                r.jobs8_wall_ns,
                r.jobs8_projected_ns,
                r.incremental_ns,
                r.commit_module,
                r.commit_ns,
                r.serial_ns as f64 / r.jobs8_projected_ns as f64,
                r.serial_ns as f64 / r.incremental_ns as f64,
                r.serial_ns as f64 / r.commit_ns as f64
            )
        })
        .collect();
    let model = "jobs8_projected_ns replays per-shard walk/collect spans traced from a \
                 serial run through an idealized 8-worker BSP schedule (LPT within each \
                 round; barriers, merge, and untraced time serial). jobs8_speedup is the \
                 corpus-level 8-worker schedule: LPT over the other apps plus the longest \
                 app's intra-app projection. Wall fields are measured on this host \
                 (host_cores physical workers); incremental_speedup (a body-only edit) and \
                 commit_speedup (commit_module rewritten to its accessed attributes, timed \
                 through the must-keep query) are measured wall time, single-threaded on \
                 both sides. Every parallel and incremental result equals the cold serial \
                 run (the binary fails otherwise).";
    let json = format!(
        "{{\n  \"bench\": \"analysis_fixpoint\",\n  \"unit\": \"ns_per_analysis\",\n  \"host_cores\": {},\n  \"apps\": [\n{}\n  ],\n  \"total_serial_ns\": {},\n  \"total_jobs8_wall_ns\": {},\n  \"total_incremental_ns\": {},\n  \"total_commit_ns\": {},\n  \"corpus_jobs8_projected_ns\": {},\n  \"jobs8_speedup\": {:.2},\n  \"jobs8_wall_speedup\": {:.2},\n  \"incremental_speedup\": {:.2},\n  \"commit_speedup\": {:.2},\n  \"model\": \"{}\"\n}}\n",
        host_cores,
        json_rows.join(",\n"),
        total_serial,
        total_jobs8_wall,
        total_incremental,
        total_commit,
        corpus_jobs8_projected,
        jobs8_speedup,
        jobs8_wall_speedup,
        incremental_speedup,
        commit_speedup,
        model
    );
    let path = "BENCH_analysis.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "full corpus: jobs=8 speedup {jobs8_speedup:.2}x projected ({jobs8_wall_speedup:.2}x wall on {host_cores}-core host), one-module incremental speedup {incremental_speedup:.2}x, commit-shaped must-keep speedup {commit_speedup:.2}x, every result identical to the cold serial run"
    );
    println!("wrote {path}");
}
