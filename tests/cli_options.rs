//! Every `lambda-trim` command checks its command line before doing any
//! work: an option it does not take, a value option given without a value
//! and a switch given a value all fail naming the option, instead of
//! running with defaults and exiting 0.

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
        ("profile", "k", "", "needs a value"),
        ("profile", "scorign", "time", "unknown option"),
        ("analyze", "hazard", "", "unknown option"),
        ("analyze", "jobs", "", "needs a value"),
        ("run", "engnie", "tree", "unknown option"),
        ("run", "event", "", "needs a value"),
        ("simulate", "function", "8", "unknown option"),
        ("simulate", "stream", "yes", "takes no value"),
    ];
    for (command, option, value, fault) in cases {
        let flag = format!("--{option}");
        let mut args: Vec<&str> = base(command);
        args.push(&flag);
        if !value.is_empty() {
            args.push(value);
        }
        let out = lambda_trim(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
        assert!(
            stderr.contains(&flag) && stderr.contains(fault),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did work first");
        assert!(!dir.join("out").exists(), "{args:?} wrote --out");
        assert!(!dir.join("metrics.json").exists(), "{args:?} wrote --out");
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
             --engine tree --no-slice --wrap --ic-stats",
        ),
        with("profile", "--k 3 --scoring memory --jobs 2 --engine vm"),
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
