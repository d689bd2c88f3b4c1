//! Pins the bytes of `matching/det`, `ruling/det` and `orientation/rand`
//! on the five families of the `sweep-mixed` benchmark at n = 4096. The
//! sweep golden has no `matching/det` or `ruling/det` cell and runs
//! `orientation/rand` only at n ≤ 48, so this file is what fixes their
//! transcripts at a size where the schedules run many iterations: an
//! FNV-1a fingerprint of the solution, the Definition 1 node and edge
//! commit rounds, the halt rounds, the per-node sent and received
//! volume, `messages_sent` and the round count.

use localavg::core::algo::{registry, RunSpec, Solution};
use localavg::graph::analysis::Orientation;
use localavg_bench::cell;

/// The `sweep-mixed` families.
const FAMILIES: [&str; 5] = [
    "regular/4",
    "gnp/deg8",
    "powerlaw/2.1",
    "tree/random",
    "lb/lift/1",
];

const N: usize = 4096;

/// FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        let mut len = 0u64;
        for x in xs {
            self.word(x);
            len += 1;
        }
        self.word(len);
    }
}

/// The fingerprint of one run of `algo` on `family` at size [`N`], with
/// the graph and run seeds of sweep cell `(master, family, N, algo, 0)`;
/// `None` when the family is outside the algorithm's domain.
fn fingerprint(algo: &str, family: &str, master: u64) -> Option<u64> {
    let a = cell::lookup_algorithm(algo).expect("registered algorithm");
    let g = cell::build_instance(family, N, master).expect("family builds");
    cell::check_domain(a, family, N, g.min_degree(), || {
        localavg::graph::analysis::is_forest(&g)
    })
    .ok()?;
    let spec = RunSpec::new(cell::algo_seed(master, family, N, algo, 0));
    let run = registry().get(algo).expect("registered").execute(&g, &spec);
    run.verify(&g)
        .unwrap_or_else(|e| panic!("{algo} on {family} master={master}: {e}"));
    let mut h = Fnv::new();
    match &run.solution {
        Solution::Matching { in_matching } => h.words(in_matching.iter().map(|&b| u64::from(b))),
        Solution::RulingSet { in_set, beta } => {
            h.words(in_set.iter().map(|&b| u64::from(b)));
            h.word(*beta as u64);
        }
        Solution::Orientation { orientation } => h.words(
            orientation
                .iter()
                .map(|&o| u64::from(o == Orientation::Backward)),
        ),
        other => panic!("{algo} returned {:?}", other.problem()),
    }
    let t = &run.transcript;
    h.words(t.node_commit_round.iter().map(|&r| r as u64));
    h.words(t.edge_commit_round.iter().map(|&r| r as u64));
    h.words(t.node_halt_round.iter().map(|&r| r as u64));
    h.words(t.node_messages_sent.iter().copied());
    h.words(t.node_bits_sent.iter().copied());
    h.words(t.node_messages_recv.iter().copied());
    h.word(t.messages_sent as u64);
    h.word(t.rounds as u64);
    Some(h.0)
}

/// Asserts the pinned fingerprint of `algo` on every family, in
/// [`FAMILIES`] order (`None` = outside the domain), for master seed 1.
fn check(algo: &str, pinned: [Option<u64>; 5]) {
    let mut wrong = Vec::new();
    for (family, want) in FAMILIES.into_iter().zip(pinned) {
        let got = fingerprint(algo, family, 1);
        if got != want {
            let hex = |x: Option<u64>| x.map_or("None".to_string(), |x| format!("{x:#018x}"));
            wrong.push(format!(
                "{algo} on {family} n={N}: got {}, pinned {}",
                hex(got),
                hex(want)
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{algo} bytes moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn matching_det_is_pinned() {
    check(
        "matching/det",
        [
            Some(0x4c7f_6878_e4cb_bc44),
            Some(0x5905_9608_6704_f815),
            Some(0xf308_884b_c0ca_d483),
            Some(0x10a0_5cb2_a5d4_7988),
            Some(0x5abf_f96f_aad2_89bc),
        ],
    );
}

#[test]
fn ruling_det_is_pinned() {
    check(
        "ruling/det",
        [
            Some(0xf8df_374c_97cf_aaab),
            Some(0x478b_ea0f_8bff_fbfb),
            Some(0xd130_9752_e8ee_e8fa),
            Some(0x67fc_f718_7d15_bb50),
            Some(0xf501_feae_11f8_bee5),
        ],
    );
}

#[test]
fn orientation_rand_is_pinned() {
    // Sinkless orientation needs minimum degree 3: only the 4-regular
    // graph and the lift qualify.
    check(
        "orientation/rand",
        [
            Some(0x4aa9_34c9_9ba5_9131),
            None,
            None,
            None,
            Some(0xe581_d86d_7544_6f4b),
        ],
    );
}
