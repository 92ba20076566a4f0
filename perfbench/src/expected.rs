//! The correctness gate: every operation's output against `expected.txt`.
//!
//! Each line of the file is `<key> = <value>`. Keys name an operation's
//! output (`trim <app>`, `retrim <app> <update>`, `stream <functions>
//! <peak-hour> <mode> <keep-alive>`, `replay ...`); values are the output
//! rendered by [`trim_value`] or [`replay_value`]. Floats are written in
//! Rust's shortest round-trip form, so string equality is bit equality.
//! The file was captured with `perfbench --capture` and changes only when
//! a change to the program is meant to change its outputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The expected outputs, compiled into the benchmark.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// A parsed expected-output table.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    entries: BTreeMap<String, String>,
}

impl Expected {
    /// Parse `text`; comment lines start with `#`.
    pub fn parse(text: &str) -> Expected {
        let entries = text
            .lines()
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
            .map(|line| {
                let (key, value) = line
                    .split_once(" = ")
                    .unwrap_or_else(|| panic!("malformed expected line `{line}`"));
                (key.to_owned(), value.to_owned())
            })
            .collect();
        Expected { entries }
    }

    /// The table compiled into the benchmark.
    pub fn builtin() -> Expected {
        Expected::parse(EXPECTED)
    }

    /// Compare an observed output with the expected one. A missing key or a
    /// different value is a failure, reported on stderr.
    pub fn check(&self, key: &str, observed: &str) -> bool {
        match self.entries.get(key) {
            Some(expected) if expected == observed => true,
            Some(expected) => {
                eprintln!("MISMATCH {key}\n  expected {expected}\n  observed {observed}");
                false
            }
            None => {
                eprintln!("MISSING expected entry for `{key}` (observed {observed})");
                false
            }
        }
    }

    /// Replace one entry (captures, and tests that corrupt an entry).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.entries.insert(key.into(), value.into());
    }

    /// Render the table in file form.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench expected outputs: `<operation> = <output>`.\n\
             # trim/retrim: trimmed Registry::fingerprint, attributes removed, init\n\
             # statements removed, post-trim init_secs, mem_mb, cold invocation cost ($).\n\
             # stream/replay: invocations, cold starts, total cost ($) per variant.\n\
             # Regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --capture`.\n",
        );
        for (key, value) in &self.entries {
            let _ = writeln!(out, "{key} = {value}");
        }
        out
    }
}

/// The recorded output of a trim or retrim.
pub fn trim_value(
    fingerprint: u64,
    attrs_removed: usize,
    stmts_removed: usize,
    init_secs: f64,
    mem_mb: f64,
    cold_cost: f64,
) -> String {
    format!(
        "{fingerprint:016x} {attrs_removed} {stmts_removed} {init_secs:?} {mem_mb:?} {cold_cost:?}"
    )
}

/// The recorded output of one replay variant.
pub fn replay_value(invocations: u64, cold_starts: u64, total_cost: f64) -> String {
    format!("{invocations} {cold_starts} {total_cost:?}")
}
