//! Canonical text for trim goldens: one line per debloated module, per
//! slice and per execution, with a digest of each name list. Floats print
//! in Rust's shortest round-trip form, so equal text means equal bits.
//!
//! Include it with `mod golden_text;` from a test crate.

use lambda_trim::trim_core::oracle::Execution;
use lambda_trim::trim_core::{ModuleReport, SliceReport};
use std::fmt::Write as _;

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

/// The `mod|` line of one module's DD result.
pub fn render_module(out: &mut String, m: &ModuleReport) {
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

/// The `slc|` line of one module's slice result.
pub fn render_slice(out: &mut String, s: &SliceReport) {
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

/// The `tag|` line of one execution: its behaviour digests and
/// measurements.
pub fn render_execution(out: &mut String, tag: &str, e: &Execution) {
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

/// Assert `actual` equals `golden` line by line, naming the first line
/// that differs.
pub fn assert_lines_match(actual: &str, golden: &str, what: &str) {
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{what} diverged from the golden at line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{what}: capture length changed"
    );
}
