//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! cargo run --release -p trim-bench --bin experiments -- <id>...
//! ```
//!
//! where `<id>` is one of `fig1 table1 fig2 table2 fig8 fig9 table3 fig10
//! fig11 fig12 fig13 fig14 table4`, the extension experiment `ext`
//! (incremental re-trim, greedy-vs-ddmin, provisioned concurrency), the
//! trace-replay benchmark `replay` (writes `BENCH_replay.json`), the
//! hazard-granularity comparison `hazard` (per-attribute pinning vs the
//! blanket module fallback, writes `BENCH_hazard.json`), the
//! selective-init slicing benchmark `slice` (init statements
//! and simulated init cost with statement slicing on vs off over the
//! corpus, writes `BENCH_slice.json`), the CI slicing smoke `slice-smoke`
//! (one corpus app trimmed with slicing on vs off must agree on DD results
//! and behavior while actually removing init statements), or `all`.
//!
//! `--jobs N` fans the shared corpus-trimming pass (and the trace replay)
//! out over `N` worker threads (results are byte-identical to a sequential
//! run). An unknown id or a missing, non-numeric or zero `--jobs` prints a
//! usage line and exits with status 2 before any experiment runs.

use lambda_sim::metrics::{cdf, mean, median, percentile};
use lambda_sim::{
    generate_trace, load_trace_csv, nearest_function, render_metrics_json, replay_fleet,
    replay_trace, simulate_pool, AppProfile, CheckpointModel, PoolOptions, ReplayOptions,
    SnapStartPricing, StartMode, TraceConfig,
};
use trim_bench::harness::*;
use trim_core::{invoke_with_fallback, FallbackInstanceState};
use trim_profiler::ScoringMethod;

/// The experiments `all` runs, in order.
const ALL: [&str; 17] = [
    "fig1", "table1", "fig2", "table2", "fig8", "fig9", "table3", "fig10", "fig11", "fig12",
    "fig13", "fig14", "table4", "ext", "replay", "hazard", "slice",
];

/// CI smokes, run only when named.
const SMOKES: [&str; 1] = ["slice-smoke"];

const USAGE: &str = "usage: experiments [--jobs N] [all | <id>...]";

/// Parse the command line into a worker count and the experiment ids to
/// run, rejecting unknown ids and a missing, non-numeric or zero `--jobs`.
fn parse_args(args: &[String]) -> Result<(usize, Vec<&str>), String> {
    let parse_jobs = |value: Option<&str>| -> Result<usize, String> {
        let value = value.ok_or("--jobs requires a value")?;
        match value.parse::<usize>() {
            Ok(jobs) if jobs > 0 => Ok(jobs),
            _ => Err(format!(
                "bad --jobs value `{value}` (expected a positive integer)"
            )),
        }
    };
    let mut jobs = 1usize;
    let mut ids: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--jobs" {
            jobs = parse_jobs(iter.next().map(String::as_str))?;
        } else if let Some(n) = arg.strip_prefix("--jobs=") {
            jobs = parse_jobs(Some(n))?;
        } else if arg == "all" || ALL.contains(&arg.as_str()) || SMOKES.contains(&arg.as_str()) {
            ids.push(arg.as_str());
        } else {
            return Err(format!("unknown experiment id `{arg}`"));
        }
    }
    if ids.is_empty() || ids.contains(&"all") {
        ids = ALL.to_vec();
    }
    Ok((jobs, ids))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, ids) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            eprintln!("ids: {} {}", ALL.join(" "), SMOKES.join(" "));
            std::process::exit(2);
        }
    };

    // Experiments that need trimmed results share one computation pass.
    let needs_results = ids.iter().any(|id| {
        matches!(
            *id,
            "fig8" | "table2" | "table3" | "fig11" | "fig12" | "fig14" | "table4"
        )
    });
    let results: Vec<AppResult> = if needs_results {
        eprintln!(
            "[experiments] trimming all 21 applications (K=20, combined scoring, {jobs} job{})...",
            if jobs == 1 { "" } else { "s" }
        );
        compute_corpus(
            trim_apps::corpus(),
            &trim_core::DebloatOptions::default(),
            jobs,
        )
    } else {
        Vec::new()
    };

    for id in ids {
        match id {
            "fig1" => fig1(),
            "table1" => table1(),
            "fig2" => fig2(),
            "table2" => table2(&results),
            "fig8" => fig8(&results),
            "fig9" => fig9(),
            "table3" => table3(&results),
            "fig10" => fig10(),
            "fig11" => fig11(&results),
            "fig12" => fig12(&results),
            "fig13" => fig13(),
            "fig14" => fig14(&results),
            "table4" => table4(&results),
            "ext" => ext(),
            "replay" => replay_bench(jobs),
            "hazard" => hazard(jobs),
            "slice" => slice_bench(),
            "slice-smoke" => slice_smoke(),
            other => unreachable!("`{other}` passed argument validation"),
        }
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn measure(bench: &trim_apps::BenchApp) -> trim_core::Execution {
    trim_core::run_app(&bench.registry, &bench.app_source, &bench.spec)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name))
}

// ---------------------------------------------------------------------------
// Figure 1: cold/warm start phase breakdown for resnet.
// ---------------------------------------------------------------------------
fn fig1() {
    banner("Figure 1 — cold-start phase breakdown (resnet)");
    let platform = default_platform();
    let bench = trim_apps::app("resnet").expect("resnet in corpus");
    let exec = measure(&bench);
    let profile = profile_from_execution(&bench.name, bench.image_mb, &exec);
    let inv = platform.cold_invocation(&profile, StartMode::Standard);
    let p = inv.phases;
    println!("phase                 seconds   billed");
    println!("instance init         {:7.2}   no", p.instance_init_secs);
    println!("image transmission    {:7.2}   no", p.image_tx_secs);
    println!("function init         {:7.2}   yes", p.function_init_secs);
    println!("function execution    {:7.2}   yes", p.exec_secs);
    let e2e = inv.e2e_secs();
    let init_latency_share = p.function_init_secs / e2e * 100.0;
    let billed = p.function_init_secs + p.exec_secs;
    let init_bill_share = p.function_init_secs / billed * 100.0;
    println!("E2E = {e2e:.2} s, billed = {billed:.2} s");
    println!(
        "function init: {init_latency_share:.0}% of total latency, {init_bill_share:.0}% of the bill \
         (paper: up to 29% / 45%)"
    );
}

// ---------------------------------------------------------------------------
// Table 1: application characteristics.
// ---------------------------------------------------------------------------
fn table1() {
    banner("Table 1 — benchmarked applications (measured | paper)");
    println!(
        "{:<18} {:>9} {:>17} {:>17} {:>17}",
        "application", "size MB", "import s", "exec s", "E2E s"
    );
    let platform = default_platform();
    for bench in trim_apps::corpus() {
        let exec = measure(&bench);
        let profile = profile_from_execution(&bench.name, bench.image_mb, &exec);
        let e2e = platform
            .cold_invocation(&profile, StartMode::Standard)
            .e2e_secs();
        let p = bench.paper;
        println!(
            "{:<18} {:>9.2} {:>8.2}|{:<8.2} {:>8.2}|{:<8.2} {:>8.2}|{:<8.2}",
            bench.name,
            bench.image_mb,
            exec.init_secs,
            p.import_s,
            exec.exec_secs,
            p.exec_s,
            e2e,
            p.e2e_s
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 2: billed duration and monetary cost of cold starts.
// ---------------------------------------------------------------------------
fn fig2() {
    banner("Figure 2 — billed duration & cost of cold starts (100K invocations)");
    println!(
        "{:<18} {:>10} {:>10} {:>11} {:>12}",
        "application", "import s", "exec s", "import %", "cost $/100K"
    );
    let pricing = default_pricing();
    let mut shares = Vec::new();
    for bench in trim_apps::corpus() {
        let exec = measure(&bench);
        let billable_ms = (exec.init_secs + exec.exec_secs) * 1000.0;
        let cost = pricing.cost_for_invocations(exec.mem_mb, billable_ms, PRICED_INVOCATIONS);
        let share = exec.init_secs / (exec.init_secs + exec.exec_secs) * 100.0;
        shares.push(share);
        println!(
            "{:<18} {:>10.2} {:>10.2} {:>10.1}% {:>12.2}",
            bench.name, exec.init_secs, exec.exec_secs, share, cost
        );
    }
    println!(
        "median import share: {:.1}% (paper: 53.75%)",
        median(&shares)
    );
}

// ---------------------------------------------------------------------------
// Table 2: comparison with FaaSLight and Vulture.
// ---------------------------------------------------------------------------
fn table2(results: &[AppResult]) {
    banner("Table 2 — λ-trim vs FaaSLight vs Vulture (improvement %, our substrate)");
    // The paper's reported numbers for its FaaSLight apps (memory, import,
    // E2E) for side-by-side context.
    let paper: &[(&str, f64, f64, f64)] = &[
        ("huggingface", 2.11, 10.21, 6.65),
        ("image-resize", 2.96, 1.82, 1.47),
        ("lightgbm", 38.44, 54.81, 30.50),
        ("lxml", 0.21, 41.58, 19.37),
        ("scikit", 9.8, 19.60, 2.11),
        ("skimage", 42.05, 42.41, 34.59),
        ("tensorflow", 9.01, 15.58, 15.50),
        ("wine", 11.43, 13.73, 8.34),
    ];
    let platform = default_platform();
    println!(
        "{:<14} | {:>24} | {:>24} | {:>33}",
        "", "FaaSLight-style", "Vulture-style", "λ-trim (paper mem/import/e2e)"
    );
    println!(
        "{:<14} | {:>7} {:>8} {:>7} | {:>7} {:>8} {:>7} | {:>7} {:>8} {:>7}",
        "application",
        "mem%",
        "import%",
        "e2e%",
        "mem%",
        "import%",
        "e2e%",
        "mem%",
        "import%",
        "e2e%"
    );
    for (name, p_mem, p_imp, p_e2e) in paper {
        let bench = trim_apps::app(name).expect("table2 app");
        let fl = trim_baselines::faaslight_trim(&bench.registry, &bench.app_source, &bench.spec)
            .expect("faaslight runs");
        let vu = trim_baselines::vulture_trim(&bench.registry, &bench.app_source, &bench.spec)
            .expect("vulture runs");
        let lt = results
            .iter()
            .find(|r| r.bench.name == *name)
            .expect("trimmed result");
        let imp = improvements(&platform, lt);
        let axes = |before: &trim_core::Execution, after: &trim_core::Execution| {
            (
                pct(before.mem_mb, after.mem_mb),
                pct(before.init_secs, after.init_secs),
                pct(
                    before.init_secs + before.exec_secs,
                    after.init_secs + after.exec_secs,
                ),
            )
        };
        let (fl_m, fl_i, fl_e) = axes(&fl.before, &fl.after);
        let (vu_m, vu_i, vu_e) = axes(&vu.before, &vu.after);
        println!(
            "{:<14} | {:>7.1} {:>8.1} {:>7.1} | {:>7.1} {:>8.1} {:>7.1} | {:>7.1} {:>8.1} {:>7.1}  (paper {p_mem:.1}/{p_imp:.1}/{p_e2e:.1})",
            name, fl_m, fl_i, fl_e, vu_m, vu_i, vu_e, imp.mem_pct, imp.import_pct, imp.e2e_pct
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 8: λ-trim improvements across the corpus.
// ---------------------------------------------------------------------------
fn fig8(results: &[AppResult]) {
    banner("Figure 8 — λ-trim latency / memory / cost improvements");
    let platform = default_platform();
    println!(
        "{:<18} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6} | {:>10} {:>10} {:>6}",
        "application",
        "e2e-b",
        "e2e-a",
        "spd-up",
        "imp-b",
        "imp-a",
        "imp%",
        "mem-b",
        "mem-a",
        "mem%",
        "cost-b",
        "cost-a",
        "cost%"
    );
    let (mut speedups, mut mems, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    for r in results {
        let before = r.profile_before();
        let after = r.profile_after();
        let e2e_b = platform
            .cold_invocation(&before, StartMode::Standard)
            .e2e_secs();
        let e2e_a = platform
            .cold_invocation(&after, StartMode::Standard)
            .e2e_secs();
        let cost_b = cold_cost(&platform, &before) * PRICED_INVOCATIONS as f64;
        let cost_a = cold_cost(&platform, &after) * PRICED_INVOCATIONS as f64;
        let imp = improvements(&platform, r);
        speedups.push(e2e_b / e2e_a);
        mems.push(imp.mem_pct);
        costs.push(imp.cost_pct);
        println!(
            "{:<18} {:>7.2} {:>7.2} {:>6.2}x | {:>7.2} {:>7.2} {:>5.1}% | {:>7.1} {:>7.1} {:>5.1}% | {:>10.2} {:>10.2} {:>5.1}%",
            r.bench.name,
            e2e_b,
            e2e_a,
            e2e_b / e2e_a,
            before.init_secs,
            after.init_secs,
            imp.import_pct,
            before.mem_mb,
            after.mem_mb,
            imp.mem_pct,
            cost_b,
            cost_a,
            imp.cost_pct
        );
    }
    println!(
        "mean speedup {:.2}x (paper 1.2x, max 2x) | mean mem {:.1}% (paper 10.3%, max 42%) | mean cost {:.1}% (paper 19.7%, max 59%)",
        mean(&speedups),
        mean(&mems),
        mean(&costs)
    );
}

// ---------------------------------------------------------------------------
// Figure 9: scoring-method ablation.
// ---------------------------------------------------------------------------
fn fig9() {
    banner("Figure 9 — scoring-method ablation (cost / memory / E2E improvement %)");
    let platform = default_platform();
    let methods = [
        ScoringMethod::Memory,
        ScoringMethod::Time,
        ScoringMethod::Combined,
        ScoringMethod::Random { seed: 7 },
    ];
    for app in ["dna-visualization", "lightgbm", "spacy"] {
        println!("\napplication: {app}");
        println!(
            "{:<10} {:>8} {:>8} {:>8}",
            "method", "cost%", "mem%", "e2e%"
        );
        let mut combined_cost = 0.0;
        let mut best_other: f64 = 0.0;
        for method in methods {
            // A restricted K stresses the ranking: with K large enough to
            // cover every module, every method converges (the Fig. 10
            // plateau) — the paper's ablation uses the default K = 20, but
            // our dependency closures are smaller, so K = 3 exposes ranking
            // quality the same way.
            let bench = trim_apps::app(app).expect("fig9 app");
            let r = AppResult::compute(
                bench,
                &trim_core::DebloatOptions {
                    k: 3,
                    scoring: method,
                    ..trim_core::DebloatOptions::default()
                },
            );
            let imp = improvements(&platform, &r);
            println!(
                "{:<10} {:>7.1} {:>8.1} {:>8.1}",
                method.name(),
                imp.cost_pct,
                imp.mem_pct,
                imp.e2e_pct
            );
            if matches!(method, ScoringMethod::Combined) {
                combined_cost = imp.cost_pct;
            } else {
                best_other = best_other.max(imp.cost_pct);
            }
        }
        println!(
            "combined ≥ best other: {} (paper: combined constantly outperforms)",
            combined_cost >= best_other - 1e-9
        );
    }
}

// ---------------------------------------------------------------------------
// Table 3: debloating time, attribute counts, checkpoint sizes.
// ---------------------------------------------------------------------------
fn table3(results: &[AppResult]) {
    banner("Table 3 — debloat time, example-module attributes, checkpoint size");
    let ckpt = CheckpointModel::default();
    println!(
        "{:<18} {:>12} {:<16} {:>15} {:>17}",
        "application", "debloat s", "example module", "attrs rm/pre", "ckpt MB post/pre"
    );
    for r in results {
        let module = &r.bench.example_module;
        let m = r
            .report
            .modules
            .iter()
            .find(|m| &m.module == module)
            .cloned();
        let (removed, pre) = match &m {
            Some(m) => (m.removed.len(), m.attrs_before),
            None => (0, 0),
        };
        let pre_ckpt = ckpt.snapshot_mb(r.report.before.mem_mb);
        let post_ckpt = ckpt.snapshot_mb(r.report.after.mem_mb);
        println!(
            "{:<18} {:>12.0} {:<16} {:>8}/{:<6} {:>8.0}/{:<8.0}",
            r.bench.name, r.report.debloat_secs, module, removed, pre, post_ckpt, pre_ckpt
        );
    }
    let reductions: Vec<f64> = results
        .iter()
        .map(|r| {
            let pre = ckpt.snapshot_mb(r.report.before.mem_mb);
            let post = ckpt.snapshot_mb(r.report.after.mem_mb);
            pct(pre, post)
        })
        .collect();
    println!(
        "mean checkpoint reduction: {:.1}% (paper: 11% average)",
        mean(&reductions)
    );
}

// ---------------------------------------------------------------------------
// Figure 10: varying K.
// ---------------------------------------------------------------------------
fn fig10() {
    banner("Figure 10 — varying K (number of modules to debloat)");
    let platform = default_platform();
    for app in ["dna-visualization", "lightgbm", "spacy"] {
        println!("\napplication: {app}");
        println!("{:<5} {:>8} {:>8} {:>8}", "K", "mem%", "e2e%", "cost%");
        for k in [1usize, 5, 10, 15, 20, 30, 40, 50] {
            let bench = trim_apps::app(app).expect("fig10 app");
            let r = result_with_k(bench, k);
            let imp = improvements(&platform, &r);
            println!(
                "{:<5} {:>8.1} {:>8.1} {:>8.1}",
                k, imp.mem_pct, imp.e2e_pct, imp.cost_pct
            );
        }
    }
    println!("(expected: growth up to the module-closure size, then a plateau — §8.4)");
}

// ---------------------------------------------------------------------------
// Figure 11: warm-start impact.
// ---------------------------------------------------------------------------
fn fig11(results: &[AppResult]) {
    banner("Figure 11 — warm-start E2E latency impact");
    let platform = default_platform();
    println!(
        "{:<18} {:>10} {:>10} {:>9}",
        "application", "orig s", "trim s", "impact %"
    );
    let mut impacts = Vec::new();
    for r in results {
        let warm_b = platform.warm_invocation(&r.profile_before()).e2e_secs();
        let warm_a = platform.warm_invocation(&r.profile_after()).e2e_secs();
        let impact = (warm_a - warm_b) / warm_b * 100.0;
        impacts.push(impact.abs());
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>8.2}%",
            r.bench.name, warm_b, warm_a, impact
        );
    }
    println!(
        "max |impact| {:.2}% (paper: <10%, attributable to platform noise)",
        impacts.iter().cloned().fold(0.0, f64::max)
    );
}

// ---------------------------------------------------------------------------
// Figure 12: initialization time vs checkpoint/restore.
// ---------------------------------------------------------------------------
fn fig12(results: &[AppResult]) {
    banner("Figure 12 — init time: Original / C/R / λ-trim / C/R + λ-trim");
    let ckpt = CheckpointModel::default();
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12}",
        "application", "orig s", "C/R s", "λ-trim s", "C/R+trim s"
    );
    let mut cr_wins_large = 0;
    let mut trim_wins_small = 0;
    for r in results {
        let orig = r.report.before.init_secs;
        let trim = r.report.after.init_secs;
        let cr = ckpt.cr_init_secs(r.report.before.mem_mb);
        let cr_trim = ckpt.cr_init_secs(r.report.after.mem_mb);
        if orig > 1.0 && cr < trim {
            cr_wins_large += 1;
        }
        if orig < 0.2 && trim < cr {
            trim_wins_small += 1;
        }
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
            r.bench.name, orig, cr, trim, cr_trim
        );
    }
    println!(
        "C/R beats pure trim on {cr_wins_large} large apps; trim beats C/R on {trim_wins_small} small apps \
         (paper: C/R wins for large, loses for <0.2 s apps)"
    );
}

// ---------------------------------------------------------------------------
// Figure 13: CDF of SnapStart cost share over an Azure-style trace.
// ---------------------------------------------------------------------------
fn fig13() {
    banner("Figure 13 — CDF of SnapStart cost over total cost (simulated Azure trace)");
    let platform = default_platform();
    let pricing = SnapStartPricing::default();
    let ckpt = CheckpointModel::default();
    let config = TraceConfig::default();
    let trace = generate_trace(&config);
    for (label, keep_alive) in [("1 min", 60.0), ("15 min", 900.0), ("100 min", 6000.0)] {
        let mut shares = Vec::new();
        for f in &trace.functions {
            if f.arrivals.is_empty() {
                continue;
            }
            let profile = lambda_sim::AppProfile::new(
                format!("fn{}", f.id),
                64.0,
                0.5,
                f.duration_ms / 1000.0,
                f.mem_mb,
            );
            let account = snapstart_account(
                &platform,
                &pricing,
                &ckpt,
                &profile,
                &f.arrivals,
                keep_alive,
                config.window_secs,
            );
            shares.push(account.snapstart_share() * 100.0);
        }
        let points = cdf(&shares);
        println!("\nkeep-alive {label}: SnapStart share percentiles");
        for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
            println!("  p{:<3} {:>6.1}%", p as u32, percentile(&shares, p));
        }
        let above_half = points.iter().filter(|(v, _)| *v > 50.0).count() as f64
            / points.len().max(1) as f64
            * 100.0;
        println!("  functions with SnapStart >50% of bill: {above_half:.0}%");
    }
    println!(
        "(paper: even at long keep-alives the median app spends >60% of budget on C/R support)"
    );
}

// ---------------------------------------------------------------------------
// Figure 14: amortized invocation + SnapStart costs per app.
// ---------------------------------------------------------------------------
fn fig14(results: &[AppResult]) {
    banner("Figure 14 — amortized invocation vs cache+restore cost (24 h, 15 min keep-alive)");
    let platform = default_platform();
    let pricing = SnapStartPricing::default();
    let ckpt = CheckpointModel::default();
    let config = TraceConfig::default();
    let trace = generate_trace(&config);
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "application", "orig inv $", "orig C/R $", "trim inv $", "trim C/R $", "saved%"
    );
    let mut savings = Vec::new();
    for r in results {
        let before = r.profile_before();
        let after = r.profile_after();
        let matched = nearest_function(&trace.functions, before.mem_mb, before.exec_secs * 1000.0)
            .expect("trace nonempty");
        let acct_b = snapstart_account(
            &platform,
            &pricing,
            &ckpt,
            &before,
            &matched.arrivals,
            900.0,
            config.window_secs,
        );
        let acct_a = snapstart_account(
            &platform,
            &pricing,
            &ckpt,
            &after,
            &matched.arrivals,
            900.0,
            config.window_secs,
        );
        let total_b = acct_b.invocation_cost + acct_b.snapstart_cost;
        let total_a = acct_a.invocation_cost + acct_a.snapstart_cost;
        let saved = pct(total_b, total_a);
        savings.push(saved);
        println!(
            "{:<18} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>7.1}%",
            r.bench.name,
            acct_b.invocation_cost,
            acct_b.snapstart_cost,
            acct_a.invocation_cost,
            acct_a.snapstart_cost,
            saved
        );
    }
    println!(
        "mean total-cost reduction {:.1}% (paper: 11% average, up to 42%)",
        mean(&savings)
    );
}

// ---------------------------------------------------------------------------
// Table 4: fallback overhead.
// ---------------------------------------------------------------------------
fn table4(results: &[AppResult]) {
    banner("Table 4 — E2E latencies (s) when triggering the fallback");
    println!(
        "{:<18} {:<6} {:>10} {:>10} {:>14} {:>14}",
        "application", "state", "original", "λ-trim", "fallback warm", "fallback cold"
    );
    for name in ["dna-visualization", "lightgbm", "spacy", "huggingface"] {
        let r = results
            .iter()
            .find(|r| r.bench.name == name)
            .expect("table4 app");
        let case = r.bench.rare_case();
        let run_fb = |state: FallbackInstanceState| {
            let (outcome, cost) = invoke_with_fallback(
                &r.report.trimmed,
                &r.bench.registry,
                &r.bench.app_source,
                &r.bench.spec.handler,
                &case,
                state,
            )
            .expect("fallback invocation");
            assert!(
                outcome.fell_back(),
                "{name}: the rare path must trigger the fallback"
            );
            cost
        };
        let warm_fb = run_fb(FallbackInstanceState::Warm);
        let cold_fb = run_fb(FallbackInstanceState::Cold);
        let orig_cold = r.report.before.init_secs + r.report.before.exec_secs;
        let orig_warm = r.report.before.exec_secs;
        let trim_cold = r.report.after.init_secs + r.report.after.exec_secs;
        let trim_warm = r.report.after.exec_secs;
        println!(
            "{:<18} {:<6} {:>10.2} {:>10.2} {:>14.2} {:>14.2}",
            name,
            "cold",
            orig_cold,
            trim_cold,
            warm_fb.e2e_cold_secs(),
            cold_fb.e2e_cold_secs()
        );
        println!(
            "{:<18} {:<6} {:>10.2} {:>10.2} {:>14.2} {:>14.2}",
            "",
            "warm",
            orig_warm,
            trim_warm,
            warm_fb.e2e_warm_secs(),
            cold_fb.e2e_warm_secs()
        );
    }
    println!("(paper: cold fallback roughly doubles cold E2E and dominates warm E2E)");
}

// ---------------------------------------------------------------------------
// Extensions beyond the paper: §9 future work implemented and measured.
// ---------------------------------------------------------------------------
fn ext() {
    banner("Extensions — continuous debloating, greedy DD, provisioned concurrency");

    // (a) Incremental re-trim seeded by the previous run's log (§9).
    println!("\n(a) continuous debloating: oracle probes, cold vs seeded re-trim");
    println!(
        "{:<20} {:>12} {:>12} {:>9}",
        "application", "cold probes", "seeded", "saved"
    );
    for name in ["markdown", "igraph", "lightgbm"] {
        let bench = trim_apps::app(name).expect("ext app");
        let cold = trim_core::trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &trim_core::DebloatOptions::default(),
        )
        .expect("cold trim");
        let log = trim_core::TrimLog::from_report(&cold);
        let warm = trim_core::retrim_with_log(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &log,
            &trim_core::DebloatOptions::default(),
        )
        .expect("seeded retrim");
        assert!(warm.after.behavior_eq(&cold.after));
        println!(
            "{:<20} {:>12} {:>12} {:>8.0}%",
            name,
            cold.oracle_invocations,
            warm.oracle_invocations,
            (1.0 - warm.oracle_invocations as f64 / cold.oracle_invocations as f64) * 100.0
        );
    }

    // (b) Greedy one-pass vs ddmin (the §8.3 speed-up direction).
    println!("\n(b) minimization algorithm: probes and attributes removed");
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>14}",
        "application", "ddmin probes", "ddmin removed", "greedy probes", "greedy removed"
    );
    for name in ["markdown", "igraph", "dna-visualization"] {
        let bench = trim_apps::app(name).expect("ext app");
        let run = |algorithm| {
            trim_core::trim_app(
                &bench.registry,
                &bench.app_source,
                &bench.spec,
                &trim_core::DebloatOptions {
                    algorithm,
                    ..trim_core::DebloatOptions::default()
                },
            )
            .expect("trim")
        };
        let dd = run(trim_core::Algorithm::Ddmin);
        let gr = run(trim_core::Algorithm::Greedy);
        println!(
            "{:<20} {:>14} {:>14} {:>14} {:>14}",
            name,
            dd.oracle_invocations,
            dd.attrs_removed(),
            gr.oracle_invocations,
            gr.attrs_removed()
        );
    }

    // (c) λ-trim vs provisioned concurrency on a bursty day.
    println!("\n(c) trim vs provisioned concurrency (24 h trace, 15 min keep-alive)");
    let platform = default_platform();
    let trace = generate_trace(&TraceConfig::default());
    let bench = trim_apps::app("lightgbm").expect("ext app");
    let r = AppResult::compute_default(bench);
    let before = r.profile_before();
    let after = r.profile_after();
    let matched = nearest_function(&trace.functions, before.mem_mb, before.exec_secs * 1000.0)
        .expect("trace nonempty");
    let run = |profile: &lambda_sim::AppProfile, provisioned: usize| {
        let pool = PoolOptions {
            provisioned,
            ..PoolOptions::default()
        };
        simulate_pool(
            &platform,
            profile,
            matched.arrivals.iter().copied(),
            &pool,
            |_| {},
        )
        .expect("trace arrivals are sorted")
    };
    println!(
        "{:<26} {:>8} {:>12} {:>12}",
        "variant", "colds", "mean e2e s", "total $"
    );
    for (label, profile, prov) in [
        ("original", &before, 0usize),
        ("original + provisioned 1", &before, 1),
        ("trimmed", &after, 0),
        ("trimmed + provisioned 1", &after, 1),
    ] {
        let stats = run(profile, prov);
        println!(
            "{:<26} {:>8} {:>12.3} {:>12.6}",
            label,
            stats.cold_starts,
            stats.mean_e2e_secs(),
            stats.total_cost()
        );
    }
    println!("(provisioning buys latency with standing cost; trimming cuts both — they compose)");
}

// ---------------------------------------------------------------------------
// Hazard granularity: per-attribute pinning vs blanket module fallback.
// ---------------------------------------------------------------------------
fn hazard(jobs: usize) {
    banner("Hazard granularity — per-attribute pinning vs blanket-fallback baseline");
    eprintln!(
        "[experiments] trimming the corpus twice (per-attribute + blanket, {jobs} job{})...",
        if jobs == 1 { "" } else { "s" }
    );
    let per_attr = compute_corpus(
        trim_apps::corpus(),
        &trim_core::DebloatOptions::default(),
        jobs,
    );
    let blanket = compute_corpus(
        trim_apps::corpus(),
        &trim_core::DebloatOptions {
            hazards: trim_core::HazardMode::Blanket,
            ..trim_core::DebloatOptions::default()
        },
        jobs,
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "application", "blanket rm", "pinned rm", "recovered", "blk fb", "pin fb", "pinned"
    );
    let mut rows = Vec::new();
    let (mut total_pa, mut total_bl) = (0usize, 0usize);
    let mut apps_recovered = 0usize;
    for (pa, bl) in per_attr.iter().zip(&blanket) {
        assert_eq!(
            pa.bench.name, bl.bench.name,
            "corpus order is deterministic"
        );
        let pa_rm = pa.report.attrs_removed();
        let bl_rm = bl.report.attrs_removed();
        let recovered = pa_rm.saturating_sub(bl_rm);
        let pinned: usize = pa
            .report
            .pinned_hazard_attrs
            .values()
            .map(|a| a.len())
            .sum();
        total_pa += pa_rm;
        total_bl += bl_rm;
        if recovered > 0 {
            apps_recovered += 1;
        }
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
            pa.bench.name,
            bl_rm,
            pa_rm,
            recovered,
            bl.report.fallback_modules.len(),
            pa.report.fallback_modules.len(),
            pinned
        );
        rows.push(format!(
            "    {{\"app\": \"{}\", \"blanket_removed\": {bl_rm}, \"per_attr_removed\": {pa_rm}, \
             \"recovered\": {recovered}, \"blanket_fallback_modules\": {}, \
             \"per_attr_fallback_modules\": {}, \"pinned_attrs\": {pinned}}}",
            pa.bench.name,
            bl.report.fallback_modules.len(),
            pa.report.fallback_modules.len()
        ));
    }
    let recovered_total = total_pa.saturating_sub(total_bl);
    let recovered_ratio = recovered_total as f64 / total_pa.max(1) as f64;
    assert!(
        apps_recovered > 0,
        "per-attribute routing must recover trim on at least one blanket-fallback app"
    );
    println!(
        "total removed: blanket {total_bl}, per-attribute {total_pa} — {recovered_total} attributes \
         ({:.1}% of the per-attribute trim) recovered from blanket fallback across {apps_recovered} apps",
        recovered_ratio * 100.0
    );
    let json = format!(
        "{{\n  \"bench\": \"hazard_granularity\",\n  \"unit\": \"attributes_removed\",\n  \"apps\": [\n{}\n  ],\n  \
         \"blanket_removed_total\": {total_bl},\n  \"per_attr_removed_total\": {total_pa},\n  \
         \"recovered_total\": {recovered_total},\n  \"recovered_ratio\": {recovered_ratio:.4},\n  \
         \"apps_recovered\": {apps_recovered}\n}}\n",
        rows.join(",\n")
    );
    let path = "BENCH_hazard.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

// ---------------------------------------------------------------------------
// Trace replay benchmark: golden-fixture metrics + synthetic throughput.
// ---------------------------------------------------------------------------
fn replay_bench(jobs: usize) {
    banner("Trace replay — Azure-schema fixture metrics + synthetic-trace throughput");
    let platform = default_platform();

    // (a) Deterministic metrics from the checked-in golden fixture: the
    // same trace the tier-1 test replays, so this block is byte-identical
    // across runs and across --jobs.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/azure_trace_sample.csv"
    );
    let trace = load_trace_csv(fixture, 0xA57AC3).expect("golden fixture parses");
    let options = ReplayOptions {
        jobs,
        ..ReplayOptions::default()
    };
    let report = replay_trace(&platform, &trace, &options);
    let metrics = render_metrics_json(&report);
    println!(
        "fixture: {} functions, {} invocations over {:.0} s",
        trace.functions.len(),
        trace.invocations(),
        trace.window_secs
    );
    for v in &report.variants {
        println!(
            "  mode {:<8} keep-alive {:>5.0} s: cold ratio {:.3}, p99 E2E {:.2} s, total ${:.6}",
            format!("{:?}", v.mode),
            v.keep_alive_secs,
            v.cold_ratio(),
            v.e2e_p99_secs,
            v.total_cost()
        );
    }

    // (b) Throughput on a full-size synthetic trace (variable; lives
    // outside the deterministic metrics block).
    let synthetic = generate_trace(&TraceConfig::default());
    let replayed: usize = synthetic.invocations() * 4; // 2 modes × 2 keep-alives
    let start = std::time::Instant::now();
    let _ = replay_trace(&platform, &synthetic, &options);
    let elapsed = start.elapsed().as_secs_f64();
    let per_sec = replayed as f64 / elapsed.max(1e-9);
    println!(
        "throughput: {replayed} pool-invocations in {:.2} s with {jobs} job{} = {:.0}/s",
        elapsed,
        if jobs == 1 { "" } else { "s" },
        per_sec
    );

    // (c) The pool engine on burst-heavy workloads — the regime where a
    // per-arrival scan over every live instance goes quadratic (bursts keep
    // the pool large). The event engine stays near-linear here.
    let burst_rows: Vec<String> = burst_configs()
        .iter()
        .map(|cfg| {
            let (arrivals, app, pool) = cfg.build();
            let t = std::time::Instant::now();
            simulate_pool(&platform, &app, arrivals.iter().copied(), &pool, |_| {})
                .expect("burst arrivals are sorted");
            let event_s = t.elapsed().as_secs_f64();
            println!(
                "burst `{}`: {} arrivals, event engine {:.4} s",
                cfg.name,
                arrivals.len(),
                event_s,
            );
            format!(
                "    {{\"config\": \"{}\", \"arrivals\": {}, \"event_s\": {event_s:.4}}}",
                cfg.name,
                arrivals.len()
            )
        })
        .collect();

    // (d) Fleet-scaling sweep: stream synthetic fleets straight through
    // the pool with bounded memory (no trace materialization), recording
    // where the throughput curve bends as the fleet grows 100×.
    let fleet_rows: Vec<String> = [400usize, 4_000, 40_000]
        .iter()
        .map(|&functions| {
            let config = TraceConfig {
                functions,
                ..TraceConfig::default()
            };
            let start = std::time::Instant::now();
            let report =
                replay_fleet(&platform, &config, &options).expect("default fleet config is valid");
            let elapsed = start.elapsed().as_secs_f64();
            let replayed = report.invocations * report.variants.len() as u64;
            let per_sec = replayed as f64 / elapsed.max(1e-9);
            println!(
                "fleet {functions:>6} functions: {replayed} pool-invocations streamed in \
                 {elapsed:.2} s = {per_sec:.0}/s"
            );
            format!(
                "    {{\"functions\": {functions}, \"invocations\": {}, \
                 \"pool_invocations\": {replayed}, \"elapsed_s\": {elapsed:.3}, \
                 \"pool_invocations_per_sec\": {per_sec:.0}}}",
                report.invocations
            )
        })
        .collect();

    let indented: String = metrics
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n");
    let json = format!(
        "{{\n  \"bench\": \"trace_replay\",\n  \"unit\": \"pool_invocations_per_sec\",\n  \
         \"fixture\": \"tests/golden/azure_trace_sample.csv\",\n  \"jobs\": {jobs},\n  \
         \"host_cores\": {},\n  \"synthetic_functions\": {},\n  \"synthetic_invocations\": {},\n  \
         \"elapsed_s\": {elapsed:.3},\n  \"pool_invocations_per_sec\": {per_sec:.0},\n  \
         \"burst_pool\": [\n{}\n  ],\n  \"fleet_scaling\": [\n{}\n  ],\n  \
         \"metrics\":\n{indented}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        synthetic.functions.len(),
        synthetic.invocations(),
        burst_rows.join(",\n"),
        fleet_rows.join(",\n"),
    );
    let path = "BENCH_replay.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// A deterministic burst-heavy workload: `bursts` bursts of `burst_size`
/// simultaneous arrivals, `gap_secs` apart, against a long-running app
/// with a long keep-alive — so the live pool holds
/// `burst_size × exec_secs / gap_secs` instances and a per-arrival scan
/// over them would go quadratic.
struct BurstConfig {
    name: &'static str,
    bursts: usize,
    burst_size: usize,
    gap_secs: f64,
    exec_secs: f64,
    max_concurrency: Option<usize>,
}

impl BurstConfig {
    fn build(&self) -> (Vec<f64>, AppProfile, PoolOptions) {
        let mut arrivals = Vec::with_capacity(self.bursts * self.burst_size);
        for b in 0..self.bursts {
            let t = b as f64 * self.gap_secs;
            for _ in 0..self.burst_size {
                arrivals.push(t);
            }
        }
        let app = AppProfile::new("burst", 64.0, 0.5, self.exec_secs, 512.0);
        let window = self.bursts as f64 * self.gap_secs + self.exec_secs + 7_200.0;
        let pool = PoolOptions {
            keep_alive_secs: 7_200.0,
            max_concurrency: self.max_concurrency,
            window_secs: window,
            ..PoolOptions::default()
        };
        (arrivals, app, pool)
    }
}

fn burst_configs() -> Vec<BurstConfig> {
    vec![
        BurstConfig {
            name: "burst_pool_1k",
            bursts: 400,
            burst_size: 250,
            gap_secs: 30.0,
            exec_secs: 120.0,
            max_concurrency: None,
        },
        BurstConfig {
            name: "burst_pool_5k",
            bursts: 400,
            burst_size: 250,
            gap_secs: 30.0,
            exec_secs: 600.0,
            max_concurrency: None,
        },
        // Reference row: a concurrency cap bounds the pool at `cap`
        // instances, so pool size is not what this row's time measures.
        BurstConfig {
            name: "capped_parity_reference",
            bursts: 200,
            burst_size: 100,
            gap_secs: 30.0,
            exec_secs: 5.0,
            max_concurrency: Some(32),
        },
    ]
}

/// Selective-init slicing benchmark: trim every corpus app with statement
/// slicing on vs off, then report per-app init-statement counts on the
/// kept (DD-trimmed) modules and the simulated init cost of the deployed
/// artifact. Both trims are deterministic, so the output is stable.
fn slice_bench() {
    banner("Selective-init slicing — init statements and meter cost, on vs off");
    println!(
        "{:<18} {:>6} {:>6} {:>8} {:>12} {:>12} {:>8}",
        "application", "stmts", "kept", "dropped", "init off s", "init on s", "meter"
    );
    let mut rows = Vec::new();
    let mut stmt_ratios = Vec::new();
    let mut meter_ratios = Vec::new();
    for bench in trim_apps::corpus() {
        let run = |slice_init| {
            trim_core::trim_app(
                &bench.registry,
                &bench.app_source,
                &bench.spec,
                &trim_core::DebloatOptions {
                    slice_init,
                    ..trim_core::DebloatOptions::default()
                },
            )
            .expect("trim succeeds")
        };
        let off = run(false);
        let on = run(true);
        assert!(
            on.after.behavior_eq(&off.after),
            "{}: slicing changed behavior",
            bench.name
        );
        let stmts_total: usize = on.slices.iter().map(|s| s.stmts_before).sum();
        let stmts_kept: usize = on.slices.iter().map(|s| s.stmts_after).sum();
        let dropped = stmts_total - stmts_kept;
        let (init_off, init_on) = (off.after.init_secs, on.after.init_secs);
        let meter_ratio = if init_on > 0.0 {
            init_off / init_on
        } else {
            1.0
        };
        let stmt_ratio = if stmts_kept > 0 {
            stmts_total as f64 / stmts_kept as f64
        } else {
            1.0
        };
        println!(
            "{:<18} {:>6} {:>6} {:>8} {:>12.6} {:>12.6} {:>7.2}x",
            bench.name, stmts_total, stmts_kept, dropped, init_off, init_on, meter_ratio
        );
        rows.push(format!(
            "    {{\"app\": \"{}\", \"init_stmts_total\": {stmts_total}, \
             \"init_stmts_kept\": {stmts_kept}, \"init_stmts_dropped\": {dropped}, \
             \"init_secs_unsliced\": {init_off:.9}, \"init_secs_sliced\": {init_on:.9}, \
             \"fallbacks\": {}}}",
            bench.name,
            on.slices.iter().filter(|s| s.fell_back).count()
        ));
        stmt_ratios.push(stmt_ratio);
        meter_ratios.push(meter_ratio);
    }
    let geomean = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    let (stmt_geo, meter_geo) = (geomean(&stmt_ratios), geomean(&meter_ratios));
    println!(
        "geomean reduction: {stmt_geo:.2}x init statements, {meter_geo:.2}x simulated init cost"
    );
    assert!(
        stmt_geo > 1.0,
        "slicing must drop init statements somewhere in the corpus"
    );
    let json = format!(
        "{{\n  \"bench\": \"selective_init_slice\",\n  \"unit\": \"init_statements_and_virtual_seconds\",\n  \
         \"baseline\": \"attribute-granular trim without statement slicing (--no-slice)\",\n  \
         \"apps\": [\n{}\n  ],\n  \"geomean_stmt_reduction\": {stmt_geo:.3},\n  \
         \"geomean_meter_reduction\": {meter_geo:.3}\n}}\n",
        rows.join(",\n")
    );
    let path = "BENCH_slice.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// CI slicing smoke: one corpus app trimmed with statement slicing on vs
/// off must agree on DD results and behavior, and slicing must actually
/// drop init statements and simulated init cost.
fn slice_smoke() {
    banner("Slice smoke — igraph trimmed with and without init slicing");
    let bench = trim_apps::app("igraph").expect("igraph in corpus");
    let run = |slice_init| {
        trim_core::trim_app(
            &bench.registry,
            &bench.app_source,
            &bench.spec,
            &trim_core::DebloatOptions {
                slice_init,
                ..trim_core::DebloatOptions::default()
            },
        )
        .expect("trim succeeds")
    };
    let off = run(false);
    let on = run(true);
    assert!(off.slices.is_empty(), "--no-slice must skip the pass");
    assert!(!on.slices.is_empty(), "default trim must slice");
    for (a, b) in off.modules.iter().zip(&on.modules) {
        assert_eq!(a, b, "slicing must not change DD module results");
    }
    assert!(
        on.after.behavior_eq(&off.after),
        "sliced deployment diverged from unsliced"
    );
    assert!(
        on.init_stmts_removed() > 0,
        "slicing must drop init statements on this app"
    );
    assert!(
        on.after.init_secs < off.after.init_secs,
        "slicing must cut simulated init cost ({} vs {})",
        on.after.init_secs,
        off.after.init_secs
    );
    println!(
        "trims agree: {} modules, {} of {} init statements removed, init {:.6}s -> {:.6}s",
        on.slices.len(),
        on.init_stmts_removed(),
        on.slices.iter().map(|s| s.stmts_before).sum::<usize>(),
        off.after.init_secs,
        on.after.init_secs
    );
}
