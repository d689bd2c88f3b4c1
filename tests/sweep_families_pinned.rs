//! Pins the bytes of eleven broadcasting algorithms on the five families
//! of the `sweep-mixed` benchmark at n = 4096: `matching/det`,
//! `ruling/det` and `orientation/rand` (which sleep), and `mis/luby`,
//! `mis/degree-guided`, `mis/greedy`, `matching/luby`, `matching/greedy`,
//! `ruling/two-two`, `coloring/trial` and `coloring/linial`. The sweep
//! golden runs only four of them, at n ≤ 48, so this file is what fixes
//! their transcripts at a size where the schedules run many iterations:
//! an FNV-1a fingerprint of the solution, the Definition 1 node and edge
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
        Solution::Mis { in_set } => h.words(in_set.iter().map(|&b| u64::from(b))),
        Solution::Coloring { colors } => h.words(colors.iter().map(|&c| c as u64)),
        Solution::Orientation { orientation } => h.words(
            orientation
                .iter()
                .map(|&o| u64::from(o == Orientation::Backward)),
        ),
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

#[test]
fn mis_luby_is_pinned() {
    check(
        "mis/luby",
        [
            Some(0x58af_49f5_4bf7_089c),
            Some(0x498d_2110_7f67_d74a),
            Some(0x5677_2484_7b72_1510),
            Some(0xfe92_20fa_f81b_55d8),
            Some(0xddfd_732b_ae66_f2a6),
        ],
    );
}

#[test]
fn mis_degree_guided_is_pinned() {
    check(
        "mis/degree-guided",
        [
            Some(0x26ca_2fc7_5e4f_5d77),
            Some(0xeeaf_c224_44ef_9890),
            Some(0x3f76_f687_b386_57a2),
            Some(0xb3bd_a409_aa8c_3598),
            Some(0xdb02_9331_879b_b96e),
        ],
    );
}

#[test]
fn mis_greedy_is_pinned() {
    check(
        "mis/greedy",
        [
            Some(0x6ee7_3d1c_b87c_d024),
            Some(0xf7c2_db61_a6bb_2e22),
            Some(0xdc44_87dc_fadf_1249),
            Some(0xae80_2ed2_4caf_9aca),
            Some(0x78ff_414b_a0c8_f68c),
        ],
    );
}

#[test]
fn matching_luby_is_pinned() {
    check(
        "matching/luby",
        [
            Some(0x8c4f_205a_c911_2a9e),
            Some(0x5bf8_c736_1e1a_0d77),
            Some(0xecfa_2ceb_c3a6_9758),
            Some(0x1e0e_22e5_97dc_0ad2),
            Some(0x44fe_8b3a_9fc3_306b),
        ],
    );
}

#[test]
fn matching_greedy_is_pinned() {
    check(
        "matching/greedy",
        [
            Some(0x070d_f312_c909_0ef9),
            Some(0xaa38_7ce9_defe_1e4a),
            Some(0x1b7d_943f_7546_d077),
            Some(0xe16e_4b25_dfb0_8631),
            Some(0xb0db_45ec_557e_511d),
        ],
    );
}

#[test]
fn ruling_two_two_is_pinned() {
    check(
        "ruling/two-two",
        [
            Some(0xef73_556a_8cad_e6be),
            Some(0xd8db_edc0_341d_bd40),
            Some(0x5c68_deca_594a_1ef8),
            Some(0x2699_0ce3_60e3_6531),
            Some(0xf544_794b_854b_de12),
        ],
    );
}

#[test]
fn coloring_trial_is_pinned() {
    check(
        "coloring/trial",
        [
            Some(0x82da_72d3_a13f_e9bc),
            Some(0x3036_9637_8dba_43b3),
            Some(0x2f02_4186_4eb7_4de8),
            Some(0x618b_edb8_d12f_6895),
            Some(0x8b31_e31a_a908_fb25),
        ],
    );
}

#[test]
fn coloring_linial_is_pinned() {
    check(
        "coloring/linial",
        [
            Some(0xcc86_5a77_5d2b_b0be),
            Some(0xdbc6_6100_aaaa_a192),
            Some(0xd18a_c554_8320_479b),
            Some(0xc0e4_f045_9a3f_c061),
            Some(0xbf1d_bb47_5fd4_70c4),
        ],
    );
}
