//! Synchronous LOCAL/CONGEST message-passing simulator.
//!
//! This crate implements the distributed model of the paper's §2:
//!
//! * Time is divided into synchronous **rounds**; in every round each node
//!   may send an arbitrary message to each neighbor and receives the
//!   messages sent to it in the previous round ([`engine`]).
//! * Every node holds a unique id, knows `n` and `Δ`, and knows its
//!   neighbors' ids from round 0 ([`process::Ctx::neighbor_id`]).
//! * Nodes **commit** to outputs: a node commits its own label
//!   ([`process::Ctx::commit_node`]) and/or labels of incident edges
//!   ([`process::Ctx::commit_edge`]). The engine keeps a *ledger* of commit
//!   rounds — exactly the `T_v^G(A)` / `T_e^G(A)` quantities that
//!   Definition 1 averages.
//! * Messages carry a [`message::MessageSize`] estimate so CONGEST
//!   algorithms can be audited for O(log n)-bit messages.
//!
//! Randomness follows footnote 1 of the paper: each node's random bits are
//! a pure function of `(master seed, node id)` (via
//! [`localavg_graph::rng::Rng::fork`]), so transcripts are identical under
//! the sequential and the parallel executor.
//!
//! # Example: a 1-round "am I a local maximum?" algorithm
//!
//! ```
//! use localavg_graph::gen;
//! use localavg_sim::prelude::*;
//!
//! struct LocalMax { best: u64 }
//!
//! impl Process for LocalMax {
//!     type Message = u64;
//!     type NodeOutput = bool;
//!     type EdgeOutput = ();
//!     type Params = ();
//!
//!     const OUTPUT_KIND: OutputKind = OutputKind::NodeLabels;
//!
//!     fn init(_p: &(), ctx: &mut Ctx<'_, Self>) -> Self {
//!         ctx.broadcast(ctx.id() as u64);
//!         LocalMax { best: ctx.id() as u64 }
//!     }
//!
//!     fn round(&mut self, ctx: &mut Ctx<'_, Self>, inbox: &[Envelope<u64>]) {
//!         for env in inbox {
//!             self.best = self.best.max(env.msg);
//!         }
//!         ctx.commit_node(self.best == ctx.id() as u64);
//!         ctx.halt();
//!     }
//! }
//!
//! let g = gen::path(5);
//! let t = RunSpec::new(1).run_in::<LocalMax>(&g, &(), &mut Workspace::new());
//! assert_eq!(t.node_output[4], Some(true));  // node 4 is a local max
//! assert_eq!(t.node_output[0], Some(false));
//! ```

// Unsafe is denied crate-wide and allowed back in only where the
// parallel executor needs it: the worker pool's lifetime-erased job
// pointer (`pool`) and the engine's per-chunk round passes, each with
// a written aliasing contract (checked mechanically in debug builds by
// `shadow`).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![doc(test(attr(deny(warnings))))]

pub mod bitset;
pub mod engine;
pub mod message;
pub mod pool;
pub mod process;
mod shadow;
pub mod transcript;
pub mod workspace;

/// Convenient glob import for algorithm implementations.
pub mod prelude {
    pub use crate::engine::{Exec, RunSpec};
    pub use crate::message::{Envelope, MessageSize};
    pub use crate::process::{Ctx, Process};
    pub use crate::transcript::{OutputKind, Round, Transcript, TranscriptPolicy, UNCOMMITTED};
    pub use crate::workspace::Workspace;
    pub use localavg_graph::rng::Rng;
    pub use localavg_graph::{EdgeId, Graph, NodeId};
}
