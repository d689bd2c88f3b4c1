//! Debug-build shadow-ownership checker for the round engine's per-chunk
//! aliasing contract.
//!
//! The engine's round pass writes the run arenas through raw pointers
//! from many chunks at once. That is sound only because every index a
//! round writes is owned by exactly one chunk (the contract documented on
//! the engine's `RoundShared`). In debug builds each round records, per
//! written index, which chunk wrote it, and panics on the first index
//! written by two chunks — a mechanical check standing in for Miri. The
//! scheduler-adversarial tests (many chunk geometries × thread counts)
//! drive it. Release builds compile the checker out: only [`Table`]
//! remains, as the argument of an empty inlined call.
//!
//! The sleep tables (the sleeping bitset, the timers and the per-chunk
//! wake lists) are written by no two chunks: senders record a sleeping
//! receiver in their own chunk's wake list, and only the driving thread
//! writes the bitset, between rounds. What can go wrong there is a lost
//! wake-up, so [`check_sleepers`] checks the tables' contract after
//! every round instead: no sleeper holds a message it has not pulled.

/// Which engine arena an index belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Table {
    /// The double-buffered per-arc outbox slots, indexed
    /// `buffer · Σdeg + arc`: an inbox pull claims the previous buffer's
    /// slot it takes, a sender claims its own range of the current one.
    OutSlot,
    /// Every per-node column (process state, rng, spill vectors, volume
    /// columns).
    Node,
}

#[cfg(debug_assertions)]
pub(crate) use checker::{check_sleepers, Shadow};

#[cfg(debug_assertions)]
mod checker {
    use super::Table;
    use crate::bitset::Bitset;
    use localavg_graph::Graph;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Checks the sleep tables between two rounds: `sleepers` counts the
    /// set bits of `sleeping`, no halted node sleeps, and no message
    /// addressed to a sleeper waits in the outbox — `mail(arc)` tells
    /// whether sender-side arc `arc` holds a message in either buffer.
    /// Such a message would be pulled late or never: a sender that found
    /// its receiver asleep pushed no wake-up, or a sleep request was
    /// granted despite a message sent in the same round.
    ///
    /// # Panics
    ///
    /// Panics with `sleep violation` on the first breach.
    pub(crate) fn check_sleepers(
        g: &Graph,
        sleeping: &Bitset,
        sleepers: usize,
        halted: &Bitset,
        mail: impl Fn(usize) -> bool,
    ) {
        assert_eq!(
            sleeping.count_ones(),
            sleepers,
            "sleep violation: the sleeper count disagrees with the bitset"
        );
        for w in 0..sleeping.word_count() {
            let mut bits = sleeping.word(w);
            assert!(
                bits & halted.word(w) == 0,
                "sleep violation: a halted node sleeps (word {w})"
            );
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let varc = g.csr_offset(v);
                for a in varc..varc + g.degree(v) {
                    let (u, _) = g.arc(a);
                    assert!(
                        !mail(g.rev_arc(a)),
                        "sleep violation: node {v} sleeps on a message from node {u}"
                    );
                }
            }
        }
    }

    /// Per-index owner tags of one run's arenas. A tag is
    /// `pass << 32 | (chunk + 1)`; a tag from an older pass means
    /// "unowned", so starting a pass is O(1) instead of a table clear.
    #[derive(Default)]
    pub(crate) struct Shadow {
        out_slots: Vec<AtomicU64>,
        nodes: Vec<AtomicU64>,
        pass: u64,
    }

    impl Shadow {
        /// Sizes the tables for `slots` outbox slots (both buffers) and
        /// `n` nodes, all unowned.
        pub(crate) fn reset(&mut self, slots: usize, n: usize) {
            for (table, len) in [(&mut self.out_slots, slots), (&mut self.nodes, n)] {
                table.clear();
                table.resize_with(len, || AtomicU64::new(0));
            }
            self.pass = 0;
        }

        /// Starts a new pass: every index becomes unowned.
        pub(crate) fn begin_pass(&mut self) {
            self.pass += 1;
        }

        /// Records that `chunk` writes `index` of `table` in the current
        /// pass.
        ///
        /// # Panics
        ///
        /// Panics if another chunk already wrote that index in this pass.
        pub(crate) fn claim(&self, table: Table, index: usize, chunk: usize) {
            let slots = match table {
                Table::OutSlot => &self.out_slots,
                Table::Node => &self.nodes,
            };
            let tag = self.pass << 32 | (chunk as u64 + 1);
            // Swaps on one atomic are totally ordered, so whichever of two
            // writers swaps second sees the other's tag. The tag publishes
            // no other data, hence `Relaxed`.
            let prev = slots[index].swap(tag, Ordering::Relaxed);
            if prev >> 32 == self.pass && prev != tag {
                panic!(
                    "aliasing violation: {table:?} index {index} written by chunks {} and \
                     {chunk} in one pass",
                    (prev & u64::from(u32::MAX)) - 1
                );
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn one_chunk_may_rewrite_its_own_index() {
            let mut s = Shadow::default();
            s.reset(4, 2);
            s.begin_pass();
            s.claim(Table::OutSlot, 3, 1);
            s.claim(Table::OutSlot, 3, 1);
            // The tables are independent: the same index elsewhere is free.
            s.claim(Table::Node, 1, 0);
            s.claim(Table::Node, 1, 0);
        }

        #[test]
        fn a_pull_and_the_senders_range_live_in_different_buffers() {
            // Two arcs per buffer: a sender in chunk 0 claims its range
            // `0..2` of buffer 0 while a receiver in chunk 1 takes arc 1
            // of buffer 1 (index `1 · 2 + 1`).
            let mut s = Shadow::default();
            s.reset(4, 2);
            s.begin_pass();
            s.claim(Table::OutSlot, 0, 0);
            s.claim(Table::OutSlot, 1, 0);
            s.claim(Table::OutSlot, 3, 1);
        }

        #[test]
        #[should_panic(expected = "aliasing violation: OutSlot index 1 written by chunks 0 and 5")]
        fn two_chunks_on_one_index_panic() {
            // A pull from the sender's own (current) buffer collides with
            // the sender's claim on its range.
            let mut s = Shadow::default();
            s.reset(4, 2);
            s.begin_pass();
            s.claim(Table::OutSlot, 1, 0);
            s.claim(Table::OutSlot, 1, 5);
        }

        /// A path 0 - 1 - 2 whose middle node sleeps.
        fn sleeping_middle() -> (Graph, Bitset, Bitset) {
            let g = localavg_graph::gen::path(3);
            let mut sleeping = Bitset::new(3);
            sleeping.set(1);
            (g, sleeping, Bitset::new(3))
        }

        #[test]
        fn a_sleeper_without_mail_passes() {
            let (g, sleeping, halted) = sleeping_middle();
            // Node 1's own sends (its arcs) may hold mail; only arcs
            // toward node 1 matter.
            let toward_1: Vec<usize> = (0..g.degree_sum()).filter(|&a| g.arc(a).0 == 1).collect();
            assert_eq!(toward_1.len(), 2);
            check_sleepers(&g, &sleeping, 1, &halted, |a| !toward_1.contains(&a));
        }

        #[test]
        #[should_panic(expected = "sleep violation: node 1 sleeps on a message from node")]
        fn a_sleeper_with_mail_panics() {
            let (g, sleeping, halted) = sleeping_middle();
            check_sleepers(&g, &sleeping, 1, &halted, |_| true);
        }

        #[test]
        #[should_panic(expected = "sleep violation: a halted node sleeps")]
        fn a_halted_sleeper_panics() {
            let (g, sleeping, mut halted) = sleeping_middle();
            halted.set(1);
            check_sleepers(&g, &sleeping, 1, &halted, |_| false);
        }

        #[test]
        #[should_panic(expected = "sleeper count disagrees")]
        fn a_wrong_sleeper_count_panics() {
            let (g, sleeping, halted) = sleeping_middle();
            check_sleepers(&g, &sleeping, 2, &halted, |_| false);
        }

        #[test]
        fn a_new_pass_releases_every_index() {
            let mut s = Shadow::default();
            s.reset(4, 2);
            s.begin_pass();
            s.claim(Table::Node, 0, 0);
            s.begin_pass();
            s.claim(Table::Node, 0, 1);
            // A reset (new run) releases them too.
            s.reset(4, 2);
            s.begin_pass();
            s.claim(Table::Node, 0, 2);
        }
    }
}
