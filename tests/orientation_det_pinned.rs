//! Pins the bytes of `orientation/det` (Theorem 6's deterministic
//! sinkless orientation). The sweep golden has no `orientation/det` cell,
//! so this file is what fixes its output: an FNV-1a fingerprint of the
//! orientation, the Definition 1 node and edge completion times, and the
//! worst case, on the families whose short cycles the algorithm orients
//! first (`regular/3`, `regular/4`, `hypercube`, `lb/lift/1`).
//!
//! The same fingerprint pins `orientation/rand` on two instances whose
//! unsatisfied residue is the whole graph, so its structural finisher
//! orients every edge: a circular ladder and `regular/3` at n = 4096.

use localavg::core::algo::{registry, RunSpec, Solution};
use localavg::graph::analysis::Orientation;
use localavg::graph::{io, Graph};
use localavg_bench::cell;

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

/// The fingerprint of one run of `algo` on `g` from run seed `seed`.
fn fingerprint(algo: &str, g: &Graph, seed: u64) -> u64 {
    let run = registry()
        .get(algo)
        .unwrap_or_else(|| panic!("{algo} not registered"))
        .execute(g, &RunSpec::new(seed));
    run.verify(g).unwrap_or_else(|e| panic!("{algo}: {e}"));
    let Solution::Orientation { orientation } = &run.solution else {
        panic!("{algo} returned a non-orientation solution");
    };
    let times = run.completion_times(g);
    let mut h = Fnv::new();
    h.words(
        orientation
            .iter()
            .map(|&o| u64::from(o == Orientation::Backward)),
    );
    h.words(times.node.iter().map(|&t| t as u64));
    h.words(times.edge.iter().map(|&t| t as u64));
    h.word(run.worst_case() as u64);
    h.0
}

/// Asserts the pinned fingerprint of each `(master seed, fingerprint)`
/// pair on `family` at size `n`.
fn check(family: &str, n: usize, pinned: &[(u64, u64)]) {
    let mut wrong = Vec::new();
    for &(master, want) in pinned {
        let g = cell::build_instance(family, n, master)
            .unwrap_or_else(|e| panic!("{family} n={n} master={master}: {e}"));
        let got = fingerprint("orientation/det", &g, 0);
        if got != want {
            wrong.push(format!(
                "{family} n={n} master={master}: got {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "orientation/det bytes moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn regular3_is_pinned() {
    check(
        "regular/3",
        128,
        &[(1, 0xa969_b547_cc99_4509), (2, 0x7df3_6c3a_2e44_f669)],
    );
}

#[test]
fn regular4_is_pinned() {
    check(
        "regular/4",
        4096,
        &[(1, 0x95b3_c8d5_f0d9_5055), (2, 0xb0b2_c4d6_9d1f_6bb6)],
    );
}

#[test]
fn hypercube_is_pinned() {
    // The hypercube ignores its seed; both seeds must still agree.
    check(
        "hypercube",
        4096,
        &[(1, 0x66df_08d5_b9dd_8bd6), (2, 0x66df_08d5_b9dd_8bd6)],
    );
}

#[test]
fn lb_lift1_is_pinned() {
    check(
        "lb/lift/1",
        1152,
        &[(1, 0xe1e4_44fa_9a50_12b6), (2, 0xd26e_35af_39e1_3e97)],
    );
}

/// The circular ladder C_{n/2} × K₂: rungs `(i, i + n/2)` and two rails.
fn circular_ladder(n: usize) -> Graph {
    let half = n / 2;
    let mut edges = Vec::new();
    for i in 0..half {
        let j = (i + 1) % half;
        edges.extend([(i, half + i), (i, j), (half + i, half + j)]);
    }
    Graph::from_edges(n, &edges).expect("a simple 3-regular graph")
}

/// Asserts the pinned `orientation/rand` fingerprint on `g`, run from the
/// seed of sweep cell `(master 0, family, n, orientation/rand, 0)`.
fn check_rand(family: &str, g: &Graph, want: u64) {
    let seed = cell::algo_seed(0, family, g.n(), "orientation/rand", 0);
    let got = fingerprint("orientation/rand", g, seed);
    assert_eq!(
        got,
        want,
        "orientation/rand bytes moved on {family} n={}: got {got:#018x}, pinned {want:#018x}",
        g.n()
    );
}

#[test]
fn rand_circular_ladder_is_pinned() {
    // Imported from an edge list, the ladder is a `file/<hash>` family.
    let g = circular_ladder(1024);
    let family = cell::file_family(io::content_hash(&g));
    check_rand(&family, &g, 0xdbb5_046e_6956_1860);
}

#[test]
fn rand_regular3_is_pinned() {
    let g = cell::build_instance("regular/3", 4096, 0).expect("regular/3 builds");
    check_rand("regular/3", &g, 0xcd90_3e5c_3209_8f3b);
}
