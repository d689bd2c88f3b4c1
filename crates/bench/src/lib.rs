//! # localavg-bench — experiment harness and sweep engine
//!
//! Two measurement front ends share the workspace's unified algorithm
//! registry:
//!
//! * [`experiments`] — one experiment per theorem/figure of the paper
//!   (see DESIGN.md §5 for the index). Every experiment is a pure
//!   function returning a [`Table`]; the `exp` binary prints them as
//!   markdown (the rows EXPERIMENTS.md records), and `cargo bench` times
//!   quick-scale versions with the std-only harness.
//! * [`sweep`] + [`emit`] — the sharded parallel sweep engine
//!   (DESIGN.md §6): a [`sweep::SweepSpec`] grid of algorithms × named
//!   graph families × sizes × seeds, run across `std::thread::scope`
//!   workers with byte-identical output at any thread count, serialized
//!   to JSON/CSV by the zero-dependency emitters (`exp sweep`).
//!
//! Both resolve graph families through [`generators`] — the composed
//! registry joining `localavg_graph::gen::registry()` with the
//! lower-bound hard instances of `localavg_lowerbound::families` — and
//! the [`fuzz`] module (`exp fuzz`, DESIGN.md §8) differentially
//! verifies the whole stack against the `localavg_core::check` oracle.
//!
//! Every front end names a unit of work by the same canonical
//! [`cell::CellKey`] tuple and runs it through the same
//! [`cell::execute`], and the [`serve`] subsystem (`exp serve` /
//! `exp submit`, DESIGN.md §9) exposes the sweep's cells as a
//! long-running TCP service with a content-addressed result cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![doc(test(attr(deny(warnings))))]

pub mod cell;
pub mod cli;
pub mod emit;
pub mod experiments;
pub mod fuzz;
pub mod generators;
pub mod serve;
pub mod sweep;
pub mod table;

pub use table::Table;
