//! Graph substrate for the `localavg` workspace.
//!
//! This crate provides everything the LOCAL-model simulator and the paper's
//! algorithms need from a graph library:
//!
//! * [`Graph`] — a compact undirected simple graph with stable *edge
//!   identifiers* and per-node *port numbering* (the LOCAL model addresses
//!   neighbors through ports).
//! * [`gen`] — deterministic and randomized graph generators (paths, cycles,
//!   trees, d-regular graphs, G(n,p), bipartite/biregular graphs, grids,
//!   hypercubes, ...), all driven by the reproducible [`rng::Rng`].
//! * [`transform`] — structural transforms: the *line graph* (maximal
//!   matching = MIS on the line graph, §1.1) and induced subgraphs.
//! * [`lift`] — random lifts of order `q` in the sense of Amit–Linial–Matoušek
//!   \[ALM02\], the key tool of the paper's §4.5 (Lemma 12).
//! * [`decomp`] — deterministic rake-and-compress decompositions of trees
//!   and forests (the substrate of the `*/tree-rc` node-averaged
//!   algorithms), with typed rejection of non-tree inputs.
//! * [`analysis`] — BFS, connectivity, girth, tree-like view tests
//!   (`G_k(v)` in the paper's notation), independence numbers, and validators
//!   for every output object the paper's algorithms produce (independent
//!   sets, ruling sets, matchings, sinkless orientations, colorings).
//! * [`rng`] — a self-contained, cross-platform-stable pseudorandom number
//!   generator (SplitMix64-seeded xoshiro256++) so that every simulation in
//!   the workspace is bit-reproducible from a single master seed.
//!
//! # Example
//!
//! ```
//! use localavg_graph::{Graph, gen, rng::Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let g = gen::random_regular(100, 4, &mut rng).expect("4-regular graph");
//! assert_eq!(g.n(), 100);
//! assert!(g.degrees().all(|d| d == 4));
//! let path = gen::path(5);
//! assert_eq!(path.m(), 4);
//! # let _ = Graph::empty(0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![doc(test(attr(deny(warnings))))]

pub mod analysis;
pub mod decomp;
pub mod gen;
pub mod graph;
pub mod io;
pub mod lift;
pub mod rng;
pub mod suggest;
pub mod transform;

pub use graph::{EdgeId, Graph, GraphBuilder, GraphError, NodeId, MAX_NODES};
