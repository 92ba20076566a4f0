//! The `lambda-trim` command-line tool: debloat, profile, analyze and run
//! pylite serverless applications stored on disk.
//!
//! ```text
//! lambda-trim trim     --app app.py --packages pkgs/ --oracle oracle.txt --out trimmed/
//! lambda-trim profile  --app app.py --packages pkgs/ [--k 20] [--scoring combined]
//! lambda-trim analyze  --app app.py --packages pkgs/
//! lambda-trim run      --app app.py --packages pkgs/ --event '{"n": 3}'
//! lambda-trim simulate --trace trace.csv [--jobs 8] [--out metrics.json]
//! ```

use lambda_trim::cli::{
    check_handler, load_registry, parse_oracle_file, parse_scoring, write_registry, Args,
};
use std::path::Path;
use std::process::ExitCode;
use trim_core::{trim_app, DebloatOptions};

const USAGE: &str = "\
lambda-trim — cost-driven debloating for serverless function initialization

USAGE:
    lambda-trim <COMMAND> [OPTIONS]

COMMANDS:
    trim      Debloat an application and write the trimmed packages
    profile   Rank imported modules by marginal monetary cost
    analyze   Show imported modules and statically-accessed attributes
    run       Execute the application's handler once
    simulate  Replay an invocation trace through the pool simulator

COMMON OPTIONS:
    --app <FILE>        application source (init code + handler)
    --packages <DIR>    directory of .py modules (virtual site-packages)
    --handler <NAME>    handler name; trim, analyze and run require it
                        to be bound at the app's top level [default: handler]

Every command fails before doing any work on an option it does not take
or on a value option given without a value.

trim:
    --oracle <FILE>     oracle spec: one event literal per line,
                        optionally `EVENT || CONTEXT`
    --out <DIR>         output directory for trimmed packages
    --k <N>             modules to debloat                [default: 20]
    --scoring <M>       combined|time|memory|random      [default: combined]
    --jobs <N>          parallel static-analysis workers  [default: 1]
    --algorithm <A>     ddmin|greedy                      [default: ddmin]
    --no-slice          skip statement-level selective-init slicing of kept
                        modules (on by default; every slice is oracle-verified)
    --wrap              append the fallback wrapper to the app output
    --ic-stats          run the trimmed app once on the VM with inline-cache
                        counters and append per-site hit/miss rates to REPORT.txt

profile:
    --k <N>             how many rows to print            [default: 20]
    --scoring <M>       ranking method                    [default: combined]

analyze:
    --jobs <N>          parallel static-analysis workers  [default: 1]
    --hazards           print only the hazard report: per-module hazard
                        attributes and the lint(s) that produced them
    --json              with --hazards, emit the report as JSON

run:
    --event <LITERAL>   event payload                     [default: {}]
    --context <LITERAL> context payload                   [default: None]

simulate:
    --trace <FILE>      Azure-schema trace CSV (omit to synthesize)
    --functions <N>     synthetic trace size              [default: 400]
    --window-secs <S>   synthetic window length           [default: 86400]
    --seed <N>          trace/reconstruction seed         [default: 10824387]
    --flat              disable diurnal modulation (synthetic only)
    --keep-alive <LIST> comma-separated seconds >= 0      [default: 60,900]
    --modes <LIST>      comma-separated standard|restore  [default: both]
    --max-concurrency <N> per-function concurrency cap    [default: none]
    --provisioned <N>   provisioned instances per function[default: 0]
    --jobs <N>          parallel replay workers           [default: 1]
    --stream            stream synthetic arrivals through the pool with
                        bounded memory (fleet scale; synthetic only)
    --out <FILE>        also write the metrics JSON here
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let command = args.positional.first().map(String::as_str);
    let result = match command {
        Some("trim") => cmd_trim(&args),
        Some("profile") => cmd_profile(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("run") => cmd_run(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The value options every command that loads an app reads.
const INPUT_OPTIONS: &[&str] = &["app", "packages", "handler"];

fn load_inputs(args: &Args) -> Result<(pylite::Registry, String, String), String> {
    let app_path = args.require("app")?;
    let packages = args.require("packages")?;
    let app_source =
        std::fs::read_to_string(app_path).map_err(|e| format!("reading {app_path}: {e}"))?;
    let registry =
        load_registry(Path::new(packages)).map_err(|e| format!("loading {packages}: {e}"))?;
    let handler = args.get("handler").unwrap_or("handler").to_owned();
    Ok((registry, app_source, handler))
}

/// [`load_inputs`] for the commands that call the handler or analyze from
/// it: `--handler` must name a top-level binding of the app.
fn load_inputs_with_handler(args: &Args) -> Result<(pylite::Registry, String, String), String> {
    let (registry, app_source, handler) = load_inputs(args)?;
    check_handler(args.require("app")?, &app_source, &handler)?;
    Ok((registry, app_source, handler))
}

/// The value options [`debloat_options`] reads; it also reads `--no-slice`.
const DEBLOAT_OPTIONS: &[&str] = &["k", "scoring", "jobs", "algorithm"];

fn debloat_options(args: &Args) -> Result<DebloatOptions, String> {
    let mut options = DebloatOptions::default();
    if let Some(k) = args.get("k") {
        options.k = k.parse().map_err(|_| format!("bad --k value `{k}`"))?;
    }
    if let Some(s) = args.get("scoring") {
        options.scoring = parse_scoring(s)?;
    }
    options.jobs = parse_jobs(args)?;
    if let Some(a) = args.get("algorithm") {
        options.algorithm = match a {
            "ddmin" => trim_core::Algorithm::Ddmin,
            "greedy" => trim_core::Algorithm::Greedy,
            other => {
                return Err(format!(
                    "unknown algorithm `{other}` (expected ddmin|greedy)"
                ))
            }
        };
    }
    if let Some(v) = args.get("no-slice") {
        return Err(format!("--no-slice takes no value (got `{v}`)"));
    }
    if args.has_flag("no-slice") {
        options.slice_init = false;
    }
    Ok(options)
}

/// The one worker count, `--jobs`: analysis fixpoint workers for `trim`
/// and `analyze`, replay workers for `simulate`.
fn parse_jobs(args: &Args) -> Result<usize, String> {
    let Some(j) = args.get("jobs") else {
        return Ok(1);
    };
    let jobs: usize = j.parse().map_err(|_| format!("bad --jobs value `{j}`"))?;
    if jobs == 0 {
        return Err(format!("bad --jobs value `{j}` (must be at least 1)"));
    }
    Ok(jobs)
}

fn cmd_trim(args: &Args) -> Result<(), String> {
    args.check_options(
        &[INPUT_OPTIONS, DEBLOAT_OPTIONS, &["oracle", "out"]].concat(),
        &["no-slice", "wrap", "ic-stats"],
    )?;
    let (registry, app_source, handler) = load_inputs_with_handler(args)?;
    let oracle_path = args.require("oracle")?;
    let out_dir = args.require("out")?;
    let oracle_content =
        std::fs::read_to_string(oracle_path).map_err(|e| format!("reading {oracle_path}: {e}"))?;
    let spec =
        parse_oracle_file(&oracle_content, &handler).map_err(|e| format!("{oracle_path}: {e}"))?;
    let options = debloat_options(args)?;

    eprintln!(
        "trimming with K={}, scoring={}, {} oracle case(s)...",
        options.k,
        options.scoring.name(),
        spec.cases.len()
    );
    let report = trim_app(&registry, &app_source, &spec, &options).map_err(|e| e.to_string())?;

    let out = Path::new(out_dir);
    write_registry(&report.trimmed, out).map_err(|e| format!("writing {out_dir}: {e}"))?;
    let app_out = if args.has_flag("wrap") {
        let pkg = trim_core::package(&registry, &app_source, &handler, &report);
        pkg.wrapped_app_source
    } else {
        app_source.clone()
    };
    std::fs::write(out.join("app.py"), app_out).map_err(|e| e.to_string())?;
    let mut report_text = trim_core::render_report(&report);
    report_text.push('\n');
    report_text.push_str(&trim_core::render_removals(&report));
    if args.has_flag("ic-stats") {
        report_text.push('\n');
        report_text.push_str(&ic_stats_section(&report.trimmed, &app_source, &spec)?);
    }
    std::fs::write(out.join("REPORT.txt"), &report_text).map_err(|e| e.to_string())?;

    print!("{report_text}");
    println!("trimmed packages written to {out_dir}/ (app: {out_dir}/app.py, report: {out_dir}/REPORT.txt)");
    Ok(())
}

/// One instrumented VM pass over the trimmed application — init plus every
/// oracle case — rendered as the per-site inline-cache section that
/// `trim --ic-stats` appends to REPORT.txt. Sites are the resolved-IR
/// attribute-access ids; rows sort by lookup volume
/// so the hottest `mod.attr` sites lead. Live-handler and module-init
/// lookups report separately, so the handler's own hit rate is not
/// diluted by the one-off lookups of module bodies.
fn ic_stats_section(
    trimmed: &pylite::Registry,
    app_source: &str,
    spec: &trim_core::OracleSpec,
) -> Result<String, String> {
    let mut interp = pylite::Interpreter::new(trimmed.clone());
    interp.enable_ic_stats();
    interp
        .exec_main(app_source)
        .map_err(|e| format!("--ic-stats init run failed: {e}"))?;
    for case in &spec.cases {
        let event = trim_core::oracle::parse_literal(&case.event).map_err(|e| e.to_string())?;
        let context = trim_core::oracle::parse_literal(&case.context).map_err(|e| e.to_string())?;
        interp
            .call_handler(&spec.handler, event, context)
            .map_err(|e| format!("--ic-stats handler run failed: {e}"))?;
    }
    let stats = interp.ic_site_stats().expect("ic stats were enabled");
    let mut rows: Vec<(u32, u64, u64)> = stats
        .iter()
        .map(|(site, s)| (*site, s.hits, s.misses))
        .collect();
    rows.sort_by_key(|&(site, h, m)| (std::cmp::Reverse(h + m), site));
    let pct = |h: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * h as f64 / total as f64
        }
    };
    let (hits, misses) = interp.ic_totals();
    let (init_hits, init_misses) = interp.ic_init_totals();
    let mut out = String::new();
    out.push_str("inline-cache sites (vm engine, trimmed registry):\n");
    out.push_str(&format!(
        "  live:  {hits} hit / {misses} miss ({:.1}% hit rate over {} site{})\n",
        pct(hits, hits + misses),
        rows.len(),
        if rows.len() == 1 { "" } else { "s" }
    ));
    out.push_str(&format!(
        "  init:  {init_hits} hit / {init_misses} miss ({:.1}% hit rate)\n",
        pct(init_hits, init_hits + init_misses),
    ));
    for (site, h, m) in rows {
        out.push_str(&format!(
            "  site {site:>4}: {h:>8} hit {m:>8} miss  {:>5.1}% hit rate\n",
            pct(h, h + m)
        ));
    }
    Ok(out)
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    args.check_options(&[INPUT_OPTIONS, &["k", "scoring"]].concat(), &[])?;
    let (registry, app_source, _) = load_inputs(args)?;
    // The check above rejected every other debloat option, so this reads
    // `--k` and `--scoring` and leaves the rest at their defaults.
    let options = debloat_options(args)?;
    let profile = trim_profiler::profile_app(&app_source, &registry).map_err(|e| e.to_string())?;
    let ranked = trim_profiler::rank_modules(&profile, options.scoring);
    println!(
        "total init {:.3} s, total memory {:.1} MB — ranking by {}",
        profile.total_time_secs,
        profile.total_mem_mb,
        options.scoring.name()
    );
    println!(
        "{:<30} {:>10} {:>10} {:>14}",
        "module", "time s", "mem MB", "score"
    );
    for r in ranked.iter().take(options.k) {
        let cost = profile.module(&r.module).expect("ranked module profiled");
        println!(
            "{:<30} {:>10.4} {:>10.2} {:>14.4}",
            r.module, cost.time_secs, cost.mem_mb, r.score
        );
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    args.check_options(&[INPUT_OPTIONS, &["jobs"]].concat(), &["hazards", "json"])?;
    if args.has_flag("json") && !args.has_flag("hazards") {
        return Err("--json applies only with --hazards".to_owned());
    }
    let (registry, app_source, handler) = load_inputs_with_handler(args)?;
    let jobs = parse_jobs(args)?;
    let program = pylite::parse(&app_source).map_err(|e| e.to_string())?;
    let full = trim_analysis::analyze_full(
        &program,
        &registry,
        &trim_analysis::AnalysisOptions {
            entry: Some(handler),
            jobs,
            ..trim_analysis::AnalysisOptions::default()
        },
    );
    if args.has_flag("hazards") {
        print_hazard_report(&full, args.has_flag("json"));
        return Ok(());
    }
    let analysis = &full.analysis;
    println!("imported modules:");
    for m in &analysis.imported_modules {
        let marker = if registry.contains(m) {
            ""
        } else {
            "  (MISSING)"
        };
        println!("  {m}{marker}");
    }
    println!("\ndefinitely-accessed attributes (excluded from DD):");
    for (module, attrs) in &analysis.accessed {
        println!(
            "  {module}: {}",
            attrs.iter().cloned().collect::<Vec<_>>().join(", ")
        );
    }
    println!(
        "\ncall graph ({} edges, {} nodes reachable from the entry, {} function bodies analyzed):",
        full.call_graph.edges.len(),
        full.call_graph.reachable.len(),
        full.reached_functions.len(),
    );
    for (from, to) in &full.call_graph.edges {
        let marker = if full.call_graph.reachable.contains(to) {
            ""
        } else {
            "  (unreachable)"
        };
        println!("  {from} -> {to}{marker}");
    }
    if !full.lints.is_empty() {
        println!("\nlints:");
        for lint in &full.lints {
            println!("  {lint}");
        }
    }
    if !full.hazard_attrs.is_empty() {
        println!("\nhazardous modules (see `analyze --hazards` for details):");
        for (module, bound) in &full.hazard_attrs {
            let route = if bound.is_top() {
                "deployed untrimmed, conservative fallback"
            } else {
                "attributes pinned, module still trimmed"
            };
            println!("  {module}: {bound}  ({route})");
        }
    }
    Ok(())
}

/// Print the per-module hazard report for `analyze --hazards`: each
/// hazardous module with its attribute bound (pinned set or ⊤) and the
/// hazard lint(s) that produced it. With `json`, the same data as a
/// machine-readable object.
fn print_hazard_report(full: &trim_analysis::FullAnalysis, json: bool) {
    use trim_analysis::lints::Severity;
    let producing_lints = |module: &str| -> Vec<String> {
        full.lints
            .iter()
            .filter(|l| l.severity == Severity::Hazard && l.implicated_module() == Some(module))
            .map(ToString::to_string)
            .collect()
    };
    if json {
        let mut entries = Vec::new();
        for (module, bound) in &full.hazard_attrs {
            let pinned = match bound.attrs() {
                Some(attrs) => {
                    let list: Vec<String> = attrs.iter().map(|a| json_string(a)).collect();
                    format!("[{}]", list.join(", "))
                }
                None => "null".to_owned(),
            };
            let route = if bound.is_top() { "fallback" } else { "pinned" };
            let lints: Vec<String> = producing_lints(module)
                .iter()
                .map(|l| json_string(l))
                .collect();
            entries.push(format!(
                "\n    {{\n      \"module\": {},\n      \"route\": \"{route}\",\n      \"pinned_attrs\": {pinned},\n      \"lints\": [{}]\n    }}",
                json_string(module),
                lints.join(", ")
            ));
        }
        if entries.is_empty() {
            println!("{{\"hazards\": []}}");
        } else {
            println!("{{\n  \"hazards\": [{}\n  ]\n}}", entries.join(","));
        }
        return;
    }
    if full.hazard_attrs.is_empty() {
        println!("no hazards: every module can be trimmed at full attribute granularity");
        return;
    }
    println!("hazardous modules ({}):", full.hazard_attrs.len());
    for (module, bound) in &full.hazard_attrs {
        if bound.is_top() {
            println!("  {module}: {bound} — deployed untrimmed, conservative fallback");
        } else {
            println!("  {module}: pinned attributes {bound} — module still enters delta debugging");
        }
        for lint in producing_lints(module) {
            println!("      {lint}");
        }
    }
}

/// Render `s` as a JSON string literal (quotes, backslashes, control
/// characters escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmd_run(args: &Args) -> Result<(), String> {
    args.check_options(&[INPUT_OPTIONS, &["event", "context"]].concat(), &[])?;
    let (registry, app_source, handler) = load_inputs_with_handler(args)?;
    let event = args.get("event").unwrap_or("{}").to_owned();
    let context = args.get("context").unwrap_or("None").to_owned();
    let spec = trim_core::OracleSpec {
        handler,
        cases: vec![trim_core::TestCase { event, context }],
    };
    let exec = trim_core::run_app(&registry, &app_source, &spec).map_err(|e| e.to_string())?;
    for line in &exec.stdout {
        println!("{line}");
    }
    println!("=> {}", exec.results[0]);
    eprintln!(
        "init {:.3} s | exec {:.3} s | memory {:.1} MB | extcalls {:?}",
        exec.init_secs, exec.exec_secs, exec.mem_mb, exec.extcalls
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    use lambda_sim::{
        render_metrics_json, DiurnalProfile, Platform, ReplayOptions, StartMode, TraceConfig,
        TraceSource,
    };
    args.check_options(
        &[
            "trace",
            "functions",
            "window-secs",
            "seed",
            "keep-alive",
            "modes",
            "max-concurrency",
            "provisioned",
            "jobs",
            "out",
        ],
        &["flat", "stream"],
    )?;

    let stream = args.has_flag("stream");
    let trace_path = args.get("trace");
    if trace_path.is_some() {
        if stream {
            return Err("--stream replays a synthetic fleet with bounded memory; \
                 it cannot be combined with --trace"
                .to_owned());
        }
        // A loaded trace has its own functions, window and rates.
        for option in ["functions", "window-secs", "flat"] {
            if args.get(option).is_some() || args.has_flag(option) {
                return Err(format!(
                    "--{option} shapes a synthetic trace; it cannot be combined with --trace"
                ));
            }
        }
    }
    let seed: u64 = match args.get("seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed value `{v}`"))?,
        None => 0xA57AC3,
    };
    let synth_config = || -> Result<TraceConfig, String> {
        let config = TraceConfig {
            functions: match args.get("functions") {
                Some(v) => v.parse().map_err(|_| {
                    format!("bad --functions value `{v}` (expected a non-negative integer)")
                })?,
                None => 400,
            },
            window_secs: match args.get("window-secs") {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("bad --window-secs value `{v}`"))?,
                None => 24.0 * 3600.0,
            },
            seed,
            diurnal: if args.has_flag("flat") {
                None
            } else {
                Some(DiurnalProfile::default())
            },
        };
        config.validate().map_err(|e| e.to_string())?;
        Ok(config)
    };

    let mut options = ReplayOptions {
        jobs: parse_jobs(args)?,
        ..ReplayOptions::default()
    };
    if let Some(list) = args.get("keep-alive") {
        options.keep_alive_secs = list
            .split(',')
            .map(|v| match v.trim().parse::<f64>() {
                Ok(secs) if secs.is_finite() && secs >= 0.0 => Ok(secs),
                _ => Err(format!(
                    "bad --keep-alive entry `{v}` (expected a finite number of seconds >= 0)"
                )),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = args.get("modes") {
        options.modes = list
            .split(',')
            .map(|m| match m.trim() {
                "standard" => Ok(StartMode::Standard),
                "restore" => Ok(StartMode::Restore),
                other => Err(format!(
                    "unknown mode `{other}` (expected standard|restore)"
                )),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(cap) = args.get("max-concurrency") {
        options.max_concurrency = match cap.parse::<usize>() {
            Ok(cap) if cap > 0 => Some(cap),
            _ => {
                return Err(format!(
                    "bad --max-concurrency value `{cap}` (expected an integer >= 1)"
                ))
            }
        };
    }
    if let Some(p) = args.get("provisioned") {
        options.provisioned = p
            .parse()
            .map_err(|_| format!("bad --provisioned value `{p}`"))?;
    }

    let jobs = format!(
        "{} job{}",
        options.jobs,
        if options.jobs == 1 { "" } else { "s" }
    );
    let trace = match trace_path {
        Some(path) => Some(lambda_sim::load_trace_csv(path, seed).map_err(|e| e.to_string())?),
        None if stream => None,
        None => Some(lambda_sim::generate_trace(&synth_config()?)),
    };
    let report = match trace {
        Some(trace) => {
            let source = match trace.source {
                TraceSource::Loaded { .. } => "loaded",
                TraceSource::Synthetic { .. } => "synthetic",
            };
            eprintln!(
                "replaying {source} trace: {} functions, {} invocations over {:.0} s ({jobs})",
                trace.functions.len(),
                trace.invocations(),
                trace.window_secs
            );
            lambda_sim::replay_trace(&Platform::default(), &trace, &options)
        }
        None => {
            // Fleet streaming path: each worker holds one function's
            // arrivals at a time, so the sweep scales to fleet sizes whose
            // traces would not fit in memory.
            let config = synth_config()?;
            eprintln!(
                "streaming synthetic fleet: {} functions over {:.0} s ({jobs})",
                config.functions, config.window_secs
            );
            let report = lambda_sim::replay_fleet(&Platform::default(), &config, &options)
                .map_err(|e| e.to_string())?;
            eprintln!("replayed {} invocations per variant", report.invocations);
            report
        }
    };

    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>8} {:>10} {:>10} {:>12}",
        "mode", "keep-alive s", "cold ratio", "queued", "p50 s", "p95 s", "p99 s", "total $"
    );
    for v in &report.variants {
        println!(
            "{:<10} {:>12.0} {:>12.4} {:>10} {:>8.3} {:>10.3} {:>10.3} {:>12.6}",
            match v.mode {
                StartMode::Standard => "standard",
                StartMode::Restore => "restore",
            },
            v.keep_alive_secs,
            v.cold_ratio(),
            v.queued_requests,
            v.e2e_p50_secs,
            v.e2e_p95_secs,
            v.e2e_p99_secs,
            v.total_cost()
        );
        for (provider, cost) in &v.provider_costs {
            println!("{:<10} {:>26}: ${cost:.6}", "", provider);
        }
    }
    if let Some(out) = args.get("out") {
        std::fs::write(out, render_metrics_json(&report) + "\n")
            .map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("metrics written to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(raw.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn greedy_sequential_and_parallel_ddmin_are_accepted() {
        assert!(debloat_options(&args(&["--algorithm", "greedy"])).is_ok());
        assert!(debloat_options(&args(&["--algorithm", "ddmin"])).is_ok());
    }

    #[test]
    fn hazard_flags_parse_as_bare_switches() {
        let a = args(&["analyze", "--hazards", "--json", "--jobs", "2"]);
        assert!(a.has_flag("hazards"));
        assert!(a.has_flag("json"));
        assert_eq!(parse_jobs(&a).unwrap(), 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(
            json_string("line\nbreak\t\u{1}"),
            "\"line\\nbreak\\t\\u0001\""
        );
    }

    #[test]
    fn ic_stats_section_reports_per_site_rates() {
        let mut registry = pylite::Registry::new();
        registry.set_module("util", "CONST = 5\n");
        let app = "import util\nx = util.CONST\n\
                   def handler(event, context):\n    return util.CONST + event[\"n\"]\n";
        let spec = trim_core::OracleSpec {
            handler: "handler".to_owned(),
            cases: vec![
                trim_core::TestCase::event("{\"n\": 1}"),
                trim_core::TestCase::event("{\"n\": 2}"),
            ],
        };
        let section = ic_stats_section(&registry, app, &spec).expect("instrumented run passes");
        assert!(section.starts_with("inline-cache sites"), "{section}");
        assert!(section.contains("% hit rate"), "{section}");
        // Three reads of the same `util.CONST` sites: the repeats hit.
        assert!(section.contains("hit"), "{section}");
        // Live and init lookups report as separate lines.
        assert!(section.contains("live:"), "{section}");
        assert!(section.contains("init:"), "{section}");
        let err = ic_stats_section(&registry, "import missing\n", &spec)
            .expect_err("broken app surfaces the init failure");
        assert!(err.contains("--ic-stats init run failed"), "{err}");
    }

    #[test]
    fn stream_flag_conflicts_with_trace() {
        let err = cmd_simulate(&args(&["simulate", "--stream", "--trace", "t.csv"]))
            .expect_err("--stream with --trace must be rejected");
        assert!(err.contains("--stream"), "{err}");
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn stream_simulate_runs_a_small_fleet() {
        let out = std::env::temp_dir().join("lambda_trim_stream_metrics_test.json");
        let out_str = out.to_str().expect("utf8 temp path").to_owned();
        cmd_simulate(&args(&[
            "simulate",
            "--stream",
            "--functions",
            "8",
            "--window-secs",
            "3600",
            "--out",
            &out_str,
        ]))
        .expect("small streamed fleet replays");
        let json = std::fs::read_to_string(&out).expect("metrics written");
        std::fs::remove_file(&out).ok();
        assert!(json.contains("\"variants\""));
        assert!(json.contains("\"functions\": 8"));
    }

    #[test]
    fn jobs_flag_is_parsed_and_validated() {
        assert_eq!(parse_jobs(&args(&[])).unwrap(), 1);
        assert_eq!(parse_jobs(&args(&["--jobs", "8"])).unwrap(), 8);
        let opts = debloat_options(&args(&["--jobs", "4"])).unwrap();
        assert_eq!(opts.jobs, 4);
        let err = parse_jobs(&args(&["--jobs", "0"])).expect_err("zero jobs rejected");
        assert!(err.contains("--jobs"), "{err}");
        let err = parse_jobs(&args(&["--jobs", "lots"])).expect_err("non-numeric rejected");
        assert!(err.contains("--jobs"), "{err}");
        let err = debloat_options(&args(&["--jobs", "0"])).expect_err("zero jobs rejected");
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn no_slice_flag_disables_slicing_and_takes_no_value() {
        assert!(
            debloat_options(&args(&[])).unwrap().slice_init,
            "slicing defaults on"
        );
        let opts = debloat_options(&args(&["--no-slice"])).unwrap();
        assert!(!opts.slice_init);
        // `--no-slice` followed by a bare token would silently swallow it as
        // a value; reject that instead of mis-parsing the command line.
        let err = debloat_options(&args(&["--no-slice", "yes"])).expect_err("value rejected");
        assert!(err.contains("--no-slice takes no value"), "{err}");
        // Followed by another flag it parses as the boolean it is.
        let opts = debloat_options(&args(&["--no-slice", "--jobs", "2"])).unwrap();
        assert!(!opts.slice_init);
        assert_eq!(opts.jobs, 2);
    }
}
