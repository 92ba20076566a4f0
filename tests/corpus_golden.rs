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

use lambda_trim::trim_core::oracle::Execution;
use lambda_trim::{DebloatOptions, TrimReport};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus_trims.txt");

/// FNV-1a over the items, each terminated by a newline.
fn digest<S: AsRef<str>>(items: &[S]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in item.as_ref().bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{}#{h:016x}", items.len())
}

fn render_execution(out: &mut String, tag: &str, e: &Execution) {
    writeln!(
        out,
        "{tag}| stdout={} extcalls={} results={} init={:?} exec={:?} mem={:?}",
        digest(&e.stdout),
        digest(&e.extcalls),
        digest(&e.results),
        e.init_secs,
        e.exec_secs,
        e.mem_mb
    )
    .unwrap();
}

fn render(out: &mut String, name: &str, r: &TrimReport) {
    writeln!(out, "== {name}").unwrap();
    for m in &r.modules {
        writeln!(
            out,
            "mod| {} attrs={}->{} kept={} removed={} dd={}/{}/{} secs={:?}",
            m.module,
            m.attrs_before,
            m.attrs_after,
            digest(&m.kept),
            digest(&m.removed),
            m.dd_stats.oracle_invocations,
            m.dd_stats.cache_hits,
            m.dd_stats.iterations,
            m.debloat_secs
        )
        .unwrap();
    }
    for f in &r.fallback_modules {
        writeln!(out, "fb | {f}").unwrap();
    }
    for (module, attrs) in &r.pinned_hazard_attrs {
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        writeln!(out, "pin| {module}: {}", attrs.join(" ")).unwrap();
    }
    for s in &r.slices {
        writeln!(
            out,
            "slc| {} stmts={}->{} pinned={} refined={} fell_back={} probes={} secs={:?}",
            s.module,
            s.stmts_before,
            s.stmts_after,
            s.pinned,
            s.refined,
            s.fell_back,
            s.oracle_invocations,
            s.slice_secs
        )
        .unwrap();
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

fn assert_lines_match(actual: &str, golden: &str, what: &str) {
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{what} diverged from the golden at line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{what}: capture length changed"
    );
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
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    assert_lines_match(&actual, &golden(), "corpus trim");
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
