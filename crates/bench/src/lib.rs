//! # trim-bench — experiment harness and benchmarks
//!
//! Hosts the shared [`harness`] used by the `experiments` binary (which
//! regenerates every table and figure of the paper, see `DESIGN.md` §3)
//! and the [`micro`] harness used by the benches under `benches/`.

#![warn(missing_docs)]

pub mod harness;
pub mod micro;
