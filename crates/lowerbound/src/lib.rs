//! # localavg-lowerbound — the KMW-style lower bound machinery (paper §4)
//!
//! The paper's main result (Theorem 16) adapts the Kuhn–Moscibroda–
//! Wattenhofer lower bound to node-averaged complexity. The construction
//! pipeline, all implemented here:
//!
//! 1. [`cluster_tree`] — the *cluster tree skeletons* `CT_k` of §4.3
//!    (with self-loops, directed labels `2β^j` / `β^{j+1}`, and the
//!    internal/leaf structure of Observation 7). Regenerates Figure 1.
//! 2. [`base_graph`] — the explicit low-girth base graphs `G_k ∈ 𝒢_k` of
//!    §4.6 (Lemma 13): clusters sized `2β^{k+1}(β/2)^{k+1-d}`, intra-cluster
//!    cliques plus matchings, and complete-bipartite group gadgets between
//!    adjacent clusters.
//! 3. [`base_graph::LiftedGk`] — random lifts of order `q` (§4.5 /
//!    Lemma 12/14), producing the almost-high-girth graphs `G̃_k` of
//!    Corollary 15, together with measured girth and independence
//!    statistics.
//! 4. [`isomorphism`] — Algorithm 1 (`FindIsomorphism`, §C.1): builds the
//!    radius-k view isomorphism between nodes of `S(c0)` and `S(c1)` with
//!    tree-like views (Theorem 11), which is what forces any fast MIS
//!    algorithm to treat the two clusters identically.
//! 5. [`constructions`] — the doubled graph of §C.4 (maximal matching
//!    lower bound, Theorem 17) and radius-k tree-view extraction (the
//!    tree lower bound of Theorem 16).
//! 6. [`families`] — the constructions packaged as named generator
//!    entries (`lb/cluster-tree/*`, `lb/lift/*`, `lb/doubled/1`) so the
//!    sweep engine and the fuzz harness can treat hard instances as
//!    ordinary workloads.
//!
//! Experiment E9 runs MIS algorithms over these graphs and measures the
//! fraction of `S(c0)` still undecided after `k` rounds — the quantity
//! the proof of Theorem 16 bounds from below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![doc(test(attr(deny(warnings))))]

pub mod base_graph;
pub mod cluster_tree;
pub mod constructions;
pub mod families;
pub mod isomorphism;
