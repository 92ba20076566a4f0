//! Every `lambda-trim` command checks its command line before doing any
//! work: an option it does not take, a value option given without a value
//! and a switch given a value all fail naming the option, instead of
//! running with defaults and exiting 0. Valid extreme values run: a
//! billion provisioned instances per function cost `simulate` no set-up
//! time.

use lambda_sim::pool::AWS_PROVISIONED_PRICE_PER_GB_S;
use lambda_sim::{synthesize_function, DiurnalProfile, Platform, TraceConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A temporary fixture: one package, an app with a `handler`, an oracle.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lambda-trim-opts-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("packages")).unwrap();
    fs::write(
        dir.join("packages/util.py"),
        "def double(x):\n    return x * 2\ndef unused():\n    return 0\n",
    )
    .unwrap();
    fs::write(
        dir.join("app.py"),
        "import util\ndef handler(event, context):\n    return util.double(event[\"n\"])\n",
    )
    .unwrap();
    fs::write(dir.join("oracle.txt"), "{\"n\": 3}\n").unwrap();
    dir
}

fn lambda_trim<S: AsRef<std::ffi::OsStr>>(dir: &Path, args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lambda-trim"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("lambda-trim runs")
}

/// A valid invocation of `command`; trim and simulate write `out` and
/// `metrics.json` when they run.
fn base(command: &str) -> Vec<&'static str> {
    let inputs = ["--app", "app.py", "--packages", "packages"];
    match command {
        "trim" => [
            &["trim"][..],
            &inputs,
            &["--oracle", "oracle.txt", "--out", "out"],
        ]
        .concat(),
        "profile" => [&["profile"][..], &inputs].concat(),
        "analyze" => [&["analyze"][..], &inputs].concat(),
        "run" => [&["run"][..], &inputs, &["--event", "{\"n\": 3}"]].concat(),
        "simulate" => vec![
            "simulate",
            "--functions",
            "8",
            "--window-secs",
            "3600",
            "--out",
            "metrics.json",
        ],
        other => panic!("no command {other}"),
    }
}

#[test]
fn bad_options_fail_every_command_before_any_work() {
    let dir = fixture("bad");
    // (command, option, its value or "" for none, what the error says)
    let cases = [
        ("trim", "threads", "2", "unknown option"),
        ("trim", "thread", "2", "unknown option"),
        ("trim", "no-slcie", "", "unknown option"),
        ("trim", "k", "", "needs a value"),
        ("trim", "wrap", "yes", "takes no value"),
        ("trim", "engine", "vm", "unknown option"),
        ("trim", "engine", "tree", "unknown option"),
        ("profile", "k", "", "needs a value"),
        ("profile", "scorign", "time", "unknown option"),
        ("profile", "jobs", "2", "unknown option"),
        ("profile", "engine", "tree", "unknown option"),
        ("profile", "algorithm", "greedy", "unknown option"),
        ("profile", "no-slice", "", "unknown option"),
        ("analyze", "hazard", "", "unknown option"),
        ("analyze", "jobs", "", "needs a value"),
        ("analyze", "json", "", "only with --hazards"),
        ("run", "engnie", "tree", "unknown option"),
        ("run", "event", "", "needs a value"),
        ("simulate", "function", "8", "unknown option"),
        ("simulate", "stream", "yes", "takes no value"),
        ("simulate", "keep-alive", "nan", "finite number"),
        ("simulate", "keep-alive", "60,inf", "finite number"),
        ("simulate", "keep-alive", "-60", "finite number"),
        ("simulate", "functions", "-3", "non-negative integer"),
        ("simulate", "functions", "2.9", "non-negative integer"),
        ("simulate", "max-concurrency", "0", "integer >= 1"),
    ];
    let rejected = |args: &[&str], flag: &str, fault: &str| {
        let out = lambda_trim(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
        assert!(
            stderr.contains(flag) && stderr.contains(fault),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did work first");
        assert!(!dir.join("out").exists(), "{args:?} wrote --out");
        assert!(!dir.join("metrics.json").exists(), "{args:?} wrote --out");
    };
    for (command, option, value, fault) in cases {
        let flag = format!("--{option}");
        let mut args: Vec<&str> = base(command);
        args.push(&flag);
        if !value.is_empty() {
            args.push(value);
        }
        rejected(&args, &flag, fault);
    }
    // Options that only shape a synthetic trace cannot go with --trace.
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/azure_trace_sample.csv");
    let trace = trace.to_str().expect("utf8 path");
    for (option, value) in [("functions", "5"), ("window-secs", "600"), ("flat", "")] {
        let flag = format!("--{option}");
        let mut args = vec!["simulate", "--trace", trace, "--out", "metrics.json", &flag];
        if !value.is_empty() {
            args.push(value);
        }
        rejected(&args, &flag, "cannot be combined with --trace");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_option_a_command_takes_is_accepted() {
    let dir = fixture("good");
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/azure_trace_sample.csv");
    let trace = trace.to_str().expect("utf8 path");
    let with = |command: &str, extra: &'static str| {
        [base(command), extra.split_whitespace().collect()].concat()
    };
    let runs = [
        with(
            "trim",
            "--handler handler --k 5 --scoring time --jobs 2 --algorithm greedy \
             --no-slice --wrap --ic-stats",
        ),
        with("profile", "--k 3 --scoring memory"),
        with("analyze", "--jobs 2 --hazards --json"),
        with("run", "--handler handler --context None"),
        with(
            "simulate",
            "--seed 7 --flat --keep-alive 60 --modes standard --max-concurrency 4 \
             --provisioned 1 --jobs 2",
        ),
        with("simulate", "--stream --jobs 2"),
        vec!["simulate", "--trace", trace, "--out", "metrics.json"],
    ];
    for args in runs {
        let out = lambda_trim(&dir, &args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(dir.join("out/REPORT.txt").exists());
    assert!(dir.join("metrics.json").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn simulate_with_a_billion_provisioned_instances_is_all_warm() {
    let dir = fixture("provisioned");
    let provisioned = 1_000_000_000usize;
    let args = [
        "simulate",
        "--functions",
        "4",
        "--provisioned",
        &provisioned.to_string(),
        "--out",
        "metrics.json",
    ];
    let out = lambda_trim(&dir, &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = fs::read_to_string(dir.join("metrics.json")).expect("metrics written");
    // `simulate`'s default synthetic fleet, billed in function order.
    let config = TraceConfig {
        functions: 4,
        window_secs: 24.0 * 3600.0,
        seed: 0xA57AC3,
        diurnal: Some(DiurnalProfile::default()),
    };
    let pricing = Platform::default().config.pricing;
    let provisioned_cost = (0..config.functions)
        .map(|id| {
            let mem_mb = synthesize_function(&config, id).mem_mb;
            let mem_gb = pricing.configured_memory_mb(mem_mb) as f64 / 1024.0;
            provisioned as f64 * mem_gb * config.window_secs * AWS_PROVISIONED_PRICE_PER_GB_S
        })
        .fold(0.0, |total, cost| total + cost);
    let variants: Vec<&str> = json.lines().filter(|l| l.contains("\"mode\"")).collect();
    assert_eq!(variants.len(), 4, "{json}");
    for v in variants {
        let field = |key: &str| {
            let (_, rest) = v.split_once(&format!("\"{key}\": ")).expect(key);
            rest.split([',', '}']).next().expect(key)
        };
        assert_ne!(field("invocations"), "0", "{v}");
        assert_eq!(field("cold_starts"), "0", "{v}");
        assert_eq!(field("warm_starts"), field("invocations"), "{v}");
        assert_eq!(field("provisioned_cost_usd"), provisioned_cost.to_string());
    }
    let _ = fs::remove_dir_all(&dir);
}
