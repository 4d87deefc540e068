//! Benchmark harness support: artifact writing for the `repro` binary that
//! regenerates every table and figure of the paper, and the probes behind
//! the `perf_baseline` drift gate.

#![warn(missing_docs)]

pub mod artifacts;
pub mod baseline;
pub mod serve_probe;
