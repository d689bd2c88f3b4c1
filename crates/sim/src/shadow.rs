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
//! every round instead: no sleeper is sent a message it would not pull.

/// Which engine arena an index belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Table {
    /// The double-buffered per-arc outbox slots, indexed
    /// `buffer · Σdeg + arc`: an inbox pull claims the previous buffer's
    /// slot it takes, a sender claims its own range of the current one.
    OutSlot,
    /// Every per-node column (process state, rng, broadcast records,
    /// spill vectors, volume columns).
    Node,
}

#[cfg(debug_assertions)]
pub(crate) use checker::{check_sleepers, Shadow};

#[cfg(debug_assertions)]
mod checker {
    use super::Table;
    use crate::bitset::Bitset;
    use crate::process::Record;
    use crate::transcript::Round;
    use localavg_graph::Graph;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Checks the sleep tables after round `round` is settled: `sleepers`
    /// counts the set bits of `sleeping`, no halted node sleeps, and no
    /// sleeper was sent a message in round `round`. `records` and `slots`
    /// are the outbox buffer that round sent into; a neighbor `u` sent to
    /// sleeper `v` when its record of `round` holds a broadcast, or says
    /// it sent port by port and its slot on the arc `u → v` is occupied.
    /// Such a message would be pulled late or never: a sender that found
    /// its receiver asleep pushed no wake-up, or a sleep request was
    /// granted despite a message sent in the same round. (A message of an
    /// earlier round was the check of that round.)
    ///
    /// # Panics
    ///
    /// Panics with `sleep violation` on the first breach.
    pub(crate) fn check_sleepers<M>(
        g: &Graph,
        sleeping: &Bitset,
        sleepers: usize,
        halted: &Bitset,
        round: Round,
        records: &[Record<M>],
        slots: &[Option<M>],
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
                for a in g.arc_range(v) {
                    let (u, _) = g.arc(a);
                    assert!(
                        !records[u].mail(round, &slots[g.rev_arc(a)]),
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

        /// The round the tests check, after it was settled.
        const NOW: Round = 5;

        fn record(round: Round, unicast: bool, broadcast: bool) -> Record<()> {
            Record {
                round,
                unicast,
                broadcast: broadcast.then_some(()),
            }
        }

        /// Sender-side arc `u → v` of the path.
        fn arc(g: &Graph, u: usize, v: usize) -> usize {
            g.arc_range(u)
                .find(|&a| g.arc(a).0 == v)
                .expect("an edge of the path")
        }

        #[test]
        fn a_sleeper_without_mail_passes() {
            let (g, sleeping, halted) = sleeping_middle();
            let mut slots = vec![None; g.degree_sum()];
            // Node 1's own sends do not matter: it broadcast and sent
            // port by port this round.
            let own = [arc(&g, 1, 0), arc(&g, 1, 2)];
            for a in own {
                slots[a] = Some(());
            }
            // Node 0's record is stale: its broadcast, and the slot it
            // filled toward node 1, are from an earlier round.
            slots[arc(&g, 0, 1)] = Some(());
            // Node 2 sent port by port this round, but not to node 1.
            let records = [
                record(NOW - 2, true, true),
                record(NOW, true, true),
                record(NOW, true, false),
            ];
            check_sleepers(&g, &sleeping, 1, &halted, NOW, &records, &slots);
        }

        #[test]
        #[should_panic(expected = "sleep violation: node 1 sleeps on a message from node 0")]
        fn a_neighbours_broadcast_of_this_round_panics() {
            let (g, sleeping, halted) = sleeping_middle();
            let slots = vec![None; g.degree_sum()];
            let records = [
                record(NOW, false, true),
                record(NOW - 1, false, false),
                record(NOW - 2, false, true),
            ];
            check_sleepers(&g, &sleeping, 1, &halted, NOW, &records, &slots);
        }

        #[test]
        #[should_panic(expected = "sleep violation: node 1 sleeps on a message from node 2")]
        fn a_sleeper_with_mail_panics() {
            let (g, sleeping, halted) = sleeping_middle();
            let mut slots = vec![None; g.degree_sum()];
            slots[arc(&g, 2, 1)] = Some(());
            let records = [
                record(NOW - 1, false, false),
                record(NOW - 1, false, false),
                record(NOW, true, false),
            ];
            check_sleepers(&g, &sleeping, 1, &halted, NOW, &records, &slots);
        }

        /// Records and slots of a round in which nobody sent.
        fn quiet(g: &Graph) -> (Vec<Record<()>>, Vec<Option<()>>) {
            (
                (0..g.n()).map(|_| Record::stale()).collect(),
                vec![None; g.degree_sum()],
            )
        }

        #[test]
        #[should_panic(expected = "sleep violation: a halted node sleeps")]
        fn a_halted_sleeper_panics() {
            let (g, sleeping, mut halted) = sleeping_middle();
            halted.set(1);
            let (records, slots) = quiet(&g);
            check_sleepers(&g, &sleeping, 1, &halted, NOW, &records, &slots);
        }

        #[test]
        #[should_panic(expected = "sleeper count disagrees")]
        fn a_wrong_sleeper_count_panics() {
            let (g, sleeping, halted) = sleeping_middle();
            let (records, slots) = quiet(&g);
            check_sleepers(&g, &sleeping, 2, &halted, NOW, &records, &slots);
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
