//! # trim-core — the λ-trim pipeline
//!
//! The paper's primary contribution: a cost-driven debloater for serverless
//! Python(-subset) applications. The pipeline (§4, Figure 3) is
//!
//! ```text
//! app + oracle spec ──> static analyzer ──> cost profiler ──> DD debloater
//!                          (§5.1)              (§5.2)            (§5.3)
//!                                                                  │
//!                                   deployable trimmed registry <──┘
//!                                       (+ fallback wrapper, §5.4)
//! ```
//!
//! * [`attributes`] — attribute-granularity decomposition of modules (§6.1);
//! * [`rewrite`] — single-traversal AST rewriting to a kept attribute set;
//! * [`candidate`] — per-run statement index that probes select from;
//! * [`oracle`] — test-case execution and behavioral equivalence (§5.3);
//! * [`debloater`] — per-module Delta Debugging with probe isolation (§6.3);
//! * [`slicer`] — statement-level selective-init slicing of kept modules;
//! * [`pipeline`] — the full analyzer → profiler → debloater flow;
//! * [`fallback`] — the AttributeError-catching deployment wrapper (§5.4).
//!
//! # Example
//!
//! ```
//! use pylite::Registry;
//! use trim_core::{trim_app, DebloatOptions, OracleSpec, TestCase};
//!
//! # fn main() -> Result<(), trim_core::TrimError> {
//! let mut registry = Registry::new();
//! registry.set_module(
//!     "mathlib",
//!     "def double(x):\n    return x * 2\ndef unused():\n    return 0\n",
//! );
//! let app = "import mathlib\ndef handler(event, context):\n    return mathlib.double(event[\"n\"])\n";
//! let spec = OracleSpec::new(vec![TestCase::event("{\"n\": 3}")]);
//!
//! let report = trim_app(&registry, app, &spec, &DebloatOptions::default())?;
//! assert!(report.after.behavior_eq(&report.before));
//! assert_eq!(report.attrs_removed(), 1); // `unused` is gone
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod attributes;
pub mod candidate;
pub mod debloater;
pub mod deployment;
pub mod fallback;
pub mod incremental;
pub mod oracle;
pub mod pipeline;
pub mod probe_cache;
pub mod report;
pub mod rewrite;
pub mod slicer;

use std::fmt;

pub use attributes::{is_magic, module_attributes};
pub use candidate::{Candidate, ModuleIndex};
pub use debloater::{
    debloat_module, parse_engine, Algorithm, DebloatOptions, HazardMode, ModuleReport, ENGINE_TIERS,
};
pub use deployment::{package, wrapper_source, DeploymentPackage};
pub use fallback::{
    invoke_with_fallback, FallbackCost, FallbackInstanceState, FallbackOutcome, FALLBACK_SETUP_SECS,
};
pub use incremental::{retrim_with_log, IncrementalReport, TrimLog};
pub use oracle::{
    oracle_passes, run_app, run_app_measured, run_app_measured_opts, run_app_measured_with,
    run_app_opts, run_app_with, Execution, OracleSpec, TestCase,
};
pub use pipeline::{trim_app, trim_corpus_parallel, CorpusJob, TrimReport};
pub use probe_cache::{app_fingerprint, ProbeCache, ProbeKey};
pub use pylite::Engine;
pub use report::{render as render_report, render_removals};
pub use rewrite::{rewrite_module, rewrite_source};
pub use slicer::{slice_modules, SliceReport};
pub use trim_analysis::AnalysisMode;

/// Errors from the λ-trim pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TrimError {
    /// A module or the application failed to parse.
    Parse(pylite::ParseError),
    /// The unmodified application failed its own oracle run — DD requires
    /// the original program to satisfy the oracle.
    Baseline(pylite::PyErr),
    /// The requested options are unsupported (e.g. zero analysis jobs or
    /// an unknown engine name).
    Config(String),
}

impl fmt::Display for TrimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrimError::Parse(e) => write!(f, "parse error: {e}"),
            TrimError::Baseline(e) => write!(f, "baseline application run failed: {e}"),
            TrimError::Config(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for TrimError {}
