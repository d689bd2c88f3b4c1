//! # perfbench — the localavg benchmark of record
//!
//! One command runs a named workload from a seed, checks every output,
//! and prints the end-to-end metrics (or, in a traced run, the
//! per-layer metrics) as the last line of standard output. See the
//! README next to this crate for the workloads and metric tables.
//!
//! The benchmark measures the library from outside: every per-layer
//! number comes from spans the benchmark records around its own calls
//! into each layer's public functions ([`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
