//! # lambda-trim — cost-driven debloating for serverless function initialization
//!
//! A Rust reproduction of *λ-trim: Optimizing Function Initialization in
//! Serverless Applications With Cost-driven Debloating* (ASPLOS '25),
//! including every substrate the paper depends on. This facade crate
//! re-exports the workspace members:
//!
//! | crate | what it is |
//! |---|---|
//! | [`pylite`] | Python-subset interpreter with instrumentable imports |
//! | [`lambda_sim`] | serverless platform simulator: pricing, cold/warm starts, C/R, traces |
//! | [`trim_dd`] | generic Delta Debugging (ddmin, greedy, ddmax) |
//! | [`trim_analysis`] | PyCG-style static analyzer |
//! | [`trim_profiler`] | marginal-cost profiler + module ranking |
//! | [`trim_core`] | the λ-trim pipeline: analyze → profile → debloat → deploy |
//! | [`trim_baselines`] | FaaSLight-style and Vulture-style comparators |
//! | [`trim_apps`] | the 21-application benchmark corpus |
//!
//! # Quickstart
//!
//! ```
//! use lambda_trim::{trim_app, DebloatOptions, OracleSpec, Registry, TestCase};
//!
//! # fn main() -> Result<(), trim_core::TrimError> {
//! let mut registry = Registry::new();
//! registry.set_module(
//!     "veclib",
//!     "def scale(v, k):\n    return v * k\ndef unused_io():\n    return 0\n",
//! );
//! let app = "import veclib\ndef handler(event, context):\n    return veclib.scale(event[\"v\"], 3)\n";
//! let spec = OracleSpec::new(vec![TestCase::event("{\"v\": 7}")]);
//! let report = trim_app(&registry, app, &spec, &DebloatOptions::default())?;
//! assert!(report.after.behavior_eq(&report.before));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use lambda_sim;
pub use pylite;
pub use trim_analysis;
pub use trim_apps;
pub use trim_baselines;
pub use trim_core;
pub use trim_dd;
pub use trim_profiler;

pub use lambda_sim::{AppProfile, Platform, PricingModel, StartMode};
pub use pylite::{Interpreter, Registry};
pub use trim_core::{trim_app, DebloatOptions, OracleSpec, TestCase, TrimError, TrimReport};
