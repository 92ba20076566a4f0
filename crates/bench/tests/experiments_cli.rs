//! Command-line validation of the `experiments` binary: bad arguments are
//! rejected with exit status 2 before any experiment runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran an experiment before failing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_experiment_id_is_rejected_up_front() {
    assert_rejected(&["fig1", "fig99"], "unknown experiment id `fig99`");
    assert_rejected(&["--jobs", "2", "nope"], "unknown experiment id `nope`");
}

#[test]
fn bad_jobs_values_are_rejected_up_front() {
    assert_rejected(&["fig1", "--jobs"], "--jobs requires a value");
    assert_rejected(&["--jobs", "x", "fig1"], "bad --jobs value `x`");
    assert_rejected(&["--jobs", "0", "fig1"], "bad --jobs value `0`");
    assert_rejected(&["--jobs=0", "fig1"], "bad --jobs value `0`");
    assert_rejected(&["--jobs=-3", "fig1"], "bad --jobs value `-3`");
}

#[test]
fn valid_arguments_run_the_named_experiment() {
    let out = experiments(&["--jobs=2", "fig1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
