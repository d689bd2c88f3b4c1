//! # localavg-core — the paper's algorithms and complexity measures
//!
//! Reference implementations of every algorithm in Balliu, Ghaffari, Kuhn,
//! Olivetti, *Node and Edge Averaged Complexities of Local Graph Problems*
//! (PODC 2022), together with the averaged complexity measures of its
//! Definition 1 and Appendix A.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`algo`] | The one [`algo::Algorithm`] type, the [`algo::AlgoRun`] result type, and the string-keyed [`algo::registry`] of every algorithm |
//! | [`metrics`] | Definition 1 (`AVG_V`, `AVG_E`, footnote-2 convention), Appendix A (weighted, expected, worst case) |
//! | [`check`] | Independent oracle: naive reference validators, brute-force optima for tiny instances, and a second Definition 1 accounting (what `exp fuzz` cross-checks against) |
//! | [`mis`] | §3.1: Luby's MIS, degree-guided MIS, deterministic greedy |
//! | [`ruling`] | Theorem 2 ((2,2)-ruling set, node-avg O(1)) and Theorem 3 (deterministic (2,β)-ruling sets, node-avg O(log\* n)) |
//! | [`matching`] | Theorem 4 (randomized maximal matching, edge-avg O(1)) and Theorem 5 (deterministic maximal matching) |
//! | [`orientation`] | Theorem 6 (deterministic sinkless orientation, node-avg O(log\* n)) and the randomized \[GS17a\]-style algorithm |
//! | [`coloring`] | §1.2: (Δ+1)-coloring with node-avg O(1); Linial's O(log\* n) coloring |
//! | [`subroutines`] | Cole–Vishkin reduction, Linial color-step fields, log\* helpers |
//!
//! Every algorithm runs on the [`localavg_sim`] engine and returns a
//! transcript whose per-node/per-edge commit rounds feed the metrics.
//!
//! # Example: Theorem 2's separation from MIS, via the unified API
//!
//! ```
//! use localavg_graph::{gen, rng::Rng};
//! use localavg_core::algo::{registry, RunSpec};
//!
//! let mut rng = Rng::seed_from(1);
//! let g = gen::random_regular(128, 8, &mut rng).expect("graph");
//!
//! let spec = RunSpec::new(7);
//! let mis_avg = registry().get("mis/luby").expect("registered")
//!     .execute(&g, &spec).report(&g).node_averaged;
//! let rs_avg = registry().get("ruling/two-two").expect("registered")
//!     .execute(&g, &spec).report(&g).node_averaged;
//! // Both are small here; the separation appears on the lower-bound
//! // graphs (see the localavg-lowerbound crate).
//! assert!(mis_avg < 32.0 && rs_avg < 32.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![doc(test(attr(deny(warnings))))]

pub mod algo;
pub mod check;
pub mod coloring;
pub mod matching;
pub mod metrics;
pub mod mis;
pub mod orientation;
pub mod ruling;
pub mod subroutines;
pub mod treerc;

/// Re-exported validators (they live with the graph substrate).
pub mod verify {
    pub use localavg_graph::analysis::{
        is_independent_set, is_matching, is_maximal_independent_set, is_maximal_matching,
        is_proper_coloring, is_ruling_set, is_sinkless_orientation, Orientation,
    };
}
