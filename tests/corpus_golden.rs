//! Golden full-corpus TrimReports: the correctness anchor of every change
//! that must leave trim results alone.
//!
//! Each of the 21 corpus apps is trimmed at default options and its whole
//! [`TrimReport`](lambda_trim::TrimReport) is rendered to canonical text:
//! per module the kept and removed counts with a digest of each list, the
//! DD statistics and debloat seconds; then fallbacks, pinned hazard
//! attributes, slices and lints; the before and after executions; and the
//! trimmed registry's fingerprint. Floats print in Rust's shortest
//! round-trip form, so equal text means equal bits.
//!
//! The mini corpus is also trimmed with two analysis jobs: the worker
//! count may not move a report, so its sections must equal the golden's.
//! And it is trimmed once per option path a default pass does not take
//! (greedy minimization, app-only analysis, blanket hazards, no slicing):
//! those reports are the golden's `== [option] app` sections, after the
//! default ones.
//!
//! Debug builds also count the oracle runs the corpus pass starts: a
//! deterministic number that only falls when more runs are answered
//! without an interpreter (DESIGN.md §18).
//!
//! Regenerate the fixture only when a change is meant to move trim results,
//! and say which entries moved and why:
//!
//! ```text
//! LT_UPDATE_GOLDEN=1 cargo test --test corpus_golden
//! ```

mod golden_text;

use golden_text::{assert_lines_match, render_execution, render_module, render_slice};
use lambda_trim::trim_core::{Algorithm, AnalysisMode, HazardMode};
use lambda_trim::{DebloatOptions, TrimReport};
use std::fmt::Write as _;
use std::sync::Mutex;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus_trims.txt");

fn render(out: &mut String, name: &str, r: &TrimReport) {
    writeln!(out, "== {name}").unwrap();
    for m in &r.modules {
        render_module(out, m);
    }
    for f in &r.fallback_modules {
        writeln!(out, "fb | {f}").unwrap();
    }
    for (module, attrs) in &r.pinned_hazard_attrs {
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        writeln!(out, "pin| {module}: {}", attrs.join(" ")).unwrap();
    }
    for s in &r.slices {
        render_slice(out, s);
    }
    for l in &r.lints {
        writeln!(out, "lnt| {l}").unwrap();
    }
    render_execution(out, "bef", &r.before);
    render_execution(out, "aft", &r.after);
    writeln!(
        out,
        "sum| debloat_secs={:?} probes={} fingerprint={:016x}",
        r.debloat_secs,
        r.oracle_invocations,
        r.trimmed.fingerprint()
    )
    .unwrap();
}

/// Oracle runs one default-option pass over the corpus starts: 21
/// baselines, 21 final runs, and the 1,239 probes no run record answers.
/// The 827 probes of modules the working app no longer imports and all
/// 181 post-commit verifies are answered (2,289 runs before records).
#[cfg(debug_assertions)]
const CORPUS_RUNS: u64 = 1_281;

fn golden() -> String {
    std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture exists; regenerate with LT_UPDATE_GOLDEN=1")
}

/// Where the option sections start: the first `== [` header, or the end.
fn options_start(golden: &str) -> usize {
    golden.find("\n== [").map_or(golden.len(), |at| at + 1)
}

/// Serializes regeneration: both golden tests rewrite their part of the
/// one fixture.
static UPDATE: Mutex<()> = Mutex::new(());

/// Regenerate one part of the fixture, keeping the other: the default
/// sections, or (`options`) the option sections.
fn update_golden(options: bool, text: &str) {
    let _guard = UPDATE.lock().unwrap_or_else(|e| e.into_inner());
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    let (default, rest) = golden.split_at(options_start(&golden));
    let updated = if options {
        format!("{default}{text}")
    } else {
        format!("{text}{rest}")
    };
    std::fs::write(GOLDEN_PATH, updated).unwrap();
}

#[test]
fn corpus_trims_match_golden() {
    let mut actual = String::new();
    #[cfg(debug_assertions)]
    let runs = lambda_trim::trim_core::oracle::oracle_runs();
    for app in lambda_trim::trim_apps::corpus() {
        let report = lambda_trim::trim_app(
            &app.registry,
            &app.app_source,
            &app.spec,
            &DebloatOptions::default(),
        )
        .expect("trim succeeds");
        render(&mut actual, &app.name, &report);
    }
    if std::env::var("LT_UPDATE_GOLDEN").is_ok() {
        update_golden(false, &actual);
        return;
    }
    let golden = golden();
    assert_lines_match(&actual, &golden[..options_start(&golden)], "corpus trim");
    #[cfg(debug_assertions)]
    assert_eq!(
        lambda_trim::trim_core::oracle::oracle_runs() - runs,
        CORPUS_RUNS,
        "oracle runs per corpus pass"
    );
}

#[test]
fn mini_corpus_matches_golden_with_two_jobs() {
    let golden = golden();
    let section = |name: &str| -> String {
        let start = golden
            .find(&format!("== {name}\n"))
            .unwrap_or_else(|| panic!("{name} is in the golden"));
        let end = golden[start + 1..]
            .find("\n== ")
            .map_or(golden.len(), |at| start + at + 2);
        golden[start..end].to_owned()
    };
    let options = DebloatOptions {
        jobs: 2,
        ..DebloatOptions::default()
    };
    for app in lambda_trim::trim_apps::mini_corpus() {
        let report = lambda_trim::trim_app(&app.registry, &app.app_source, &app.spec, &options)
            .expect("trim succeeds");
        let mut actual = String::new();
        render(&mut actual, &app.name, &report);
        let what = format!("{} (two jobs)", app.name);
        assert_lines_match(&actual, &section(&app.name), &what);
    }
}

/// The option paths a default pass does not take, each with the tag of
/// its golden sections.
fn option_paths() -> [(&'static str, DebloatOptions); 4] {
    let default = DebloatOptions::default;
    [
        (
            "greedy",
            DebloatOptions {
                algorithm: Algorithm::Greedy,
                ..default()
            },
        ),
        (
            "app-only",
            DebloatOptions {
                analysis: AnalysisMode::AppOnly,
                ..default()
            },
        ),
        (
            "blanket",
            DebloatOptions {
                hazards: HazardMode::Blanket,
                ..default()
            },
        ),
        (
            "no-slice",
            DebloatOptions {
                slice_init: false,
                ..default()
            },
        ),
    ]
}

#[test]
fn mini_corpus_option_paths_match_golden() {
    let mut actual = String::new();
    for (tag, options) in option_paths() {
        for app in lambda_trim::trim_apps::mini_corpus() {
            let report = lambda_trim::trim_app(&app.registry, &app.app_source, &app.spec, &options)
                .expect("trim succeeds");
            render(&mut actual, &format!("[{tag}] {}", app.name), &report);
        }
    }
    if std::env::var("LT_UPDATE_GOLDEN").is_ok() {
        update_golden(true, &actual);
        return;
    }
    let golden = golden();
    assert_lines_match(&actual, &golden[options_start(&golden)..], "option paths");
}
