//! The `lambda-trim` commands that start from the handler — `analyze`,
//! `trim` and `run` — refuse a `--handler` the app does not bind at its
//! top level, instead of analyzing an empty call graph or failing deep in
//! the baseline run.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A temporary fixture: one package, an app with a `handler`, an oracle.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lambda-trim-cli-{tag}-{}", std::process::id()));
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

fn lambda_trim(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lambda-trim"))
        .current_dir(dir)
        .args(args)
        .args(["--app", "app.py", "--packages", "packages"])
        .output()
        .expect("lambda-trim runs")
}

#[test]
fn missing_handler_fails_analyze_trim_and_run() {
    let dir = fixture("missing");
    for command in [
        &["analyze"][..],
        &["trim", "--oracle", "oracle.txt", "--out", "out"],
        &["run", "--event", "{\"n\": 3}"],
    ] {
        let out = lambda_trim(&dir, &[command, &["--handler", "main"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{command:?} accepted a missing handler"
        );
        assert!(
            stderr.contains("handler `main` is not defined at the top level of app.py"),
            "{command:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command:?} did work first");
    }
    assert!(!dir.join("out").exists(), "trim wrote nothing");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bound_handler_is_accepted() {
    let dir = fixture("bound");
    for command in [
        &["analyze"][..],
        &["trim", "--oracle", "oracle.txt", "--out", "out"],
        &["run", "--event", "{\"n\": 3}"],
    ] {
        let out = lambda_trim(&dir, command);
        assert!(
            out.status.success(),
            "{command:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
