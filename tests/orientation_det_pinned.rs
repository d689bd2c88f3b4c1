//! Pins the bytes of `orientation/det` (Theorem 6's deterministic
//! sinkless orientation). The sweep golden has no `orientation/det` cell,
//! so this file is what fixes its output: an FNV-1a fingerprint of the
//! orientation, the Definition 1 node and edge completion times, and the
//! worst case, on the families whose short cycles the algorithm orients
//! first (`regular/3`, `regular/4`, `hypercube`, `lb/lift/1`).

use localavg::core::algo::{registry, RunSpec, Solution};
use localavg::graph::analysis::Orientation;
use localavg_bench::{cell, generators};

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

/// The fingerprint of one `orientation/det` run on `family` at size `n`
/// with graph seed `cell::graph_seed(master, family, n)`.
fn fingerprint(family: &str, n: usize, master: u64) -> u64 {
    let g = generators::registry()
        .get(family)
        .unwrap_or_else(|| panic!("{family} not registered"))
        .build(n, cell::graph_seed(master, family, n))
        .unwrap_or_else(|e| panic!("{family} n={n}: {e:?}"));
    let run = registry()
        .get("orientation/det")
        .expect("orientation/det registered")
        .execute(&g, &RunSpec::new(0));
    run.verify(&g)
        .unwrap_or_else(|e| panic!("{family} n={n} master={master}: {e}"));
    let Solution::Orientation { orientation } = &run.solution else {
        panic!("orientation/det returned a non-orientation solution");
    };
    let times = run.completion_times(&g);
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
        let got = fingerprint(family, n, master);
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
