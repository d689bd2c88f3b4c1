//! # localavg — node and edge averaged complexities of local graph problems
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of Balliu, Ghaffari, Kuhn, Olivetti, *Node and Edge Averaged
//! Complexities of Local Graph Problems* (PODC 2022, arXiv:2208.08213).
//!
//! The workspace layers, bottom to top:
//!
//! * [`graph`] ([`localavg_graph`]) — graph substrate: structures,
//!   generators, lifts, line graphs, analysis and validators.
//! * [`sim`] ([`localavg_sim`]) — the synchronous LOCAL/CONGEST round
//!   engine with per-node/per-edge commit-time tracking (Definition 1).
//! * [`core`] ([`localavg_core`]) — every algorithm in the paper: Luby and
//!   degree-guided MIS, the randomized (2,2)-ruling set of Theorem 2, the
//!   deterministic ruling sets of Theorem 3, randomized (Theorem 4) and
//!   deterministic (Theorem 5) maximal matching, deterministic
//!   (Theorem 6) and randomized sinkless orientation, coloring
//!   subroutines, plus the averaged-complexity metrics of Definition 1 and
//!   Appendix A — all reachable through the string-keyed
//!   [`core::algo::registry`] of [`core::algo::Algorithm`] values.
//! * [`lowerbound`] ([`localavg_lowerbound`]) — the KMW-style lower-bound
//!   machinery of §4: cluster-tree skeletons, base graphs, random lifts,
//!   the view-isomorphism Algorithm 1, and the doubled matching
//!   construction.
//!
//! # Quickstart
//!
//! ```
//! use localavg::graph::{gen, rng::Rng};
//! use localavg::core::algo::{registry, RunSpec};
//!
//! let mut rng = Rng::seed_from(7);
//! let g = gen::random_regular(64, 4, &mut rng).expect("regular graph");
//! let run = registry()
//!     .get("mis/luby")
//!     .expect("registered")
//!     .execute(&g, &RunSpec::new(123));
//! run.verify(&g).expect("valid MIS");
//! assert!(run.worst_case() < 64);
//! // Constant-degree graphs: Luby decides most nodes in O(1) rounds.
//! assert!(run.report(&g).node_averaged < 16.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![doc(test(attr(deny(warnings))))]

pub use localavg_core as core;
pub use localavg_graph as graph;
pub use localavg_lowerbound as lowerbound;
pub use localavg_sim as sim;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
