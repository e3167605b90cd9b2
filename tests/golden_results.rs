//! Golden results: what "bit-exact" means for a DD-engine change.
//!
//! A fixed corpus runs two ways — directly on a [`Simulator`], and as a
//! job on a snapshot-sharing 2-worker `BackendPool` — and every result bit is
//! compared with constants recorded on the commit *before* the change
//! under test: the final fidelity and each round fidelity by
//! `to_bits()`, the peak DD size, the removed-node total, a hash of the
//! per-gate size series, and the pool's `PoolOutcome::fingerprint`
//! (which also covers the sampled histogram).
//!
//! An optimisation that claims to leave results alone keeps this file
//! untouched. A change that moves numerics on purpose re-records the
//! table in the same commit — the failure message prints the new table
//! as source — and says so in its description.

use approxdd::circuit::{generators, Circuit};
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::shor::{factor, shor_circuit, FactorOptions};
use approxdd::sim::{SimStats, Simulator, Strategy};

/// Result bits of one run.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    fidelity: u64,
    rounds: &'static [u64],
    max_dd_size: usize,
    nodes_removed: usize,
    /// FNV-1a over the size series (the offset basis for an empty one).
    series: u64,
}

/// One corpus entry with its two recorded results.
struct Golden {
    name: &'static str,
    circuit: fn() -> Circuit,
    strategy: Strategy,
    nodes: Pinned,
    fingerprint: u64,
}

fn fnv1a(series: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &v in series {
        for byte in (v as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The run's result bits, rendered as the source of a [`Pinned`].
fn render(stats: &SimStats) -> String {
    let rounds: Vec<String> = stats
        .round_fidelities
        .iter()
        .map(|f| format!("{:#018x}", f.to_bits()))
        .collect();
    format!(
        "Pinned {{ fidelity: {:#018x}, rounds: &[{}], max_dd_size: {}, nodes_removed: {}, series: {:#018x} }}",
        stats.fidelity.to_bits(),
        rounds.join(", "),
        stats.max_dd_size,
        stats.nodes_removed,
        fnv1a(&stats.size_series),
    )
}

fn matches(stats: &SimStats, want: &Pinned) -> bool {
    let rounds: Vec<u64> = stats.round_fidelities.iter().map(|f| f.to_bits()).collect();
    stats.fidelity.to_bits() == want.fidelity
        && rounds == want.rounds
        && stats.max_dd_size == want.max_dd_size
        && stats.nodes_removed == want.nodes_removed
        && fnv1a(&stats.size_series) == want.series
}

fn direct(circuit: &Circuit, strategy: Strategy) -> SimStats {
    let mut sim = Simulator::builder()
        .strategy(strategy)
        .record_size_series(true)
        .seed(7)
        .build();
    sim.run(circuit).expect("corpus circuits are valid").stats
}

fn pooled(circuit: &Circuit, strategy: Strategy) -> u64 {
    let pool = Simulator::builder()
        .seed(9)
        .workers(2)
        .record_size_series(true)
        .share_snapshot(true)
        .build_pool();
    // Two copies, so both workers run the job over one shared snapshot
    // and must agree with each other as well as with the record.
    let jobs = (0..2)
        .map(|_| PoolJob::new(circuit.clone()).shots(128).strategy(strategy))
        .collect();
    let prints: Vec<u64> = pool
        .run_jobs(jobs)
        .into_iter()
        .map(|r| r.expect("pool job").fingerprint())
        .collect();
    prints[0] ^ prints[1].rotate_left(1)
}

const TABLE1: Strategy = Strategy::MemoryDriven {
    node_threshold: 4096,
    round_fidelity: 0.975,
    threshold_growth: 1.0,
};
const SHOR: Strategy = Strategy::FidelityDriven {
    final_fidelity: 0.5,
    round_fidelity: 0.9,
};

const GROVER: Strategy = Strategy::FidelityDriven {
    final_fidelity: 0.7,
    round_fidelity: 0.95,
};
const RANDOM: Strategy = Strategy::MemoryDriven {
    node_threshold: 128,
    round_fidelity: 0.95,
    threshold_growth: 2.0,
};

const GOLDEN: &[Golden] = &[
    Golden {
        name: "supremacy_4x4x9_k0",
        circuit: || generators::supremacy(4, 4, 9, 0),
        strategy: TABLE1,
        nodes: Pinned {
            fidelity: 0x3fe2e98ec1886ebb,
            rounds: &[
                0x3fef6af989021f37,
                0x3fef564a80ed17f9,
                0x3fef4620022712eb,
                0x3fef568eb53e0567,
                0x3fef46e333cb7be7,
                0x3fef475bef8ec876,
                0x3fef3b880350a64d,
                0x3fef4387342ab101,
                0x3fef3848d4afb2ad,
                0x3fef3a8b0ac0d557,
                0x3fef49a77153b218,
                0x3fef456b287f5ed3,
                0x3fef456288435381,
                0x3fef5be209563161,
                0x3fef42277e9b389b,
                0x3fef403eb838731e,
                0x3fef3a14966eb9f3,
                0x3fef39907b6b145d,
                0x3fef3be248d44291,
                0x3fef39ec074f983c,
                0x3fef43a05f663d15,
                0x3fef4e82612720b6,
                0x3fef5059e864c522,
            ],
            max_dd_size: 58652,
            nodes_removed: 20714,
            series: 0x16488ea310d943ca,
        },
        fingerprint: 0xeb612a61f5552d95,
    },
    Golden {
        name: "supremacy_4x4x9_k1",
        circuit: || generators::supremacy(4, 4, 9, 1),
        strategy: TABLE1,
        nodes: Pinned {
            fidelity: 0x3fe2e7846596e0c5,
            rounds: &[
                0x3fef6af989021f3d,
                0x3fef564a80ed17fb,
                0x3fef4620022712ef,
                0x3fef568eb53e0569,
                0x3fef48ca0b2ec9d5,
                0x3fef45b4b14d97e8,
                0x3fef3aed35a7f7f9,
                0x3fef41c9899ef35e,
                0x3fef38beaf82770b,
                0x3fef3b3f9a3ad4f3,
                0x3fef4998bf02f43a,
                0x3fef42daf6642b48,
                0x3fef438cbbcc57fb,
                0x3fef5937166920e4,
                0x3fef457cb955adfa,
                0x3fef40fba949989d,
                0x3fef3a77d7f4d931,
                0x3fef3a47afbbec59,
                0x3fef3b20fb25b23c,
                0x3fef3a82eef23312,
                0x3fef45309fade043,
                0x3fef4b6ec4350f65,
                0x3fef518696c503ed,
            ],
            max_dd_size: 58650,
            nodes_removed: 20727,
            series: 0x781c06b81c302407,
        },
        fingerprint: 0xfa897b39c944719d,
    },
    Golden {
        name: "shor_323_8",
        circuit: || shor_circuit(323, 8).expect("323 is an odd composite coprime to 8"),
        strategy: SHOR,
        nodes: Pinned {
            fidelity: 0x3fe7d3a768737328,
            rounds: &[
                0x3fef000000000002,
                0x3fed4e739ce739d8,
                0x3fecf918a7f158e4,
                0x3feed1e4bb5dc64f,
                0x3fef4da088b6ef39,
                0x3fef7ba4e3f83c5c,
            ],
            max_dd_size: 104931,
            nodes_removed: 87577,
            series: 0x16aa47a9e0bb1c27,
        },
        fingerprint: 0x6b9a0774b01495bd,
    },
    Golden {
        name: "qft_14",
        circuit: || generators::qft(14),
        strategy: Strategy::Exact,
        nodes: Pinned {
            fidelity: 0x3ff0000000000000,
            rounds: &[],
            max_dd_size: 14,
            nodes_removed: 0,
            series: 0x1e3d1010650d0d25,
        },
        fingerprint: 0xe3d2b5f66f8db6b8,
    },
    Golden {
        name: "grover_9",
        circuit: || generators::grover(9, 0b1_0110_1101, None),
        strategy: GROVER,
        nodes: Pinned {
            fidelity: 0x3fef0c3b51978c1a,
            rounds: &[
                0x3ff0000000000000,
                0x3ff0000000000000,
                0x3ff0000000000000,
                0x3ff0000000000000,
                0x3ff0000000000000,
                0x3fef0c3b51978c1a,
            ],
            max_dd_size: 30,
            nodes_removed: 2,
            series: 0xf6df49e99761e247,
        },
        fingerprint: 0x270b54d31244ba13,
    },
    Golden {
        name: "random_10x30",
        circuit: || generators::random_circuit(10, 30, 42),
        strategy: RANDOM,
        nodes: Pinned {
            fidelity: 0x3fec15a2246a7f9b,
            rounds: &[0x3fee786e3b356e5e, 0x3fef062bcf0cf65f, 0x3fee6c0d2e9dd898],
            max_dd_size: 1023,
            nodes_removed: 101,
            series: 0xddc175ccd968a60b,
        },
        fingerprint: 0x35056d46458ab4ef,
    },
    // Wide registers, where `mul_mv` spends most of its calls below the
    // gate's target: the 30-qubit Shor instance of the benchmark and two
    // 32-qubit exact runs. Recorded on the commit before the identity
    // rule of `crates/dd/src/ops.rs`.
    Golden {
        name: "shor_629_8",
        circuit: || shor_circuit(629, 8).expect("629 is an odd composite coprime to 8"),
        strategy: SHOR,
        nodes: Pinned {
            fidelity: 0x3fe8e97d35ebdb5e,
            rounds: &[
                0x3fef000000000002,
                0x3fed9ce739ce73a4,
                0x3fedb3085db3085d,
                0x3feeeec41ab15f1a,
                0x3fef674d34da63f7,
                0x3fef900d3ed6c353,
            ],
            max_dd_size: 130977,
            nodes_removed: 172780,
            series: 0x6137c526328a062f,
        },
        fingerprint: 0xabb56208506826fe,
    },
    Golden {
        name: "ghz_32",
        circuit: || generators::ghz(32),
        strategy: Strategy::Exact,
        nodes: Pinned {
            fidelity: 0x3ff0000000000000,
            rounds: &[],
            max_dd_size: 63,
            nodes_removed: 0,
            series: 0xe46bb1081f06a925,
        },
        fingerprint: 0x5355e43346c22704,
    },
    Golden {
        name: "bernstein_vazirani_32",
        circuit: || generators::bernstein_vazirani(32, 0xA5A5_A5A5),
        strategy: Strategy::Exact,
        nodes: Pinned {
            fidelity: 0x3ff0000000000000,
            rounds: &[],
            max_dd_size: 32,
            nodes_removed: 0,
            series: 0x679f7c24b2876b25,
        },
        fingerprint: 0x11859fd57ce0c243,
    },
];

#[test]
fn corpus_reproduces_the_recorded_bits() {
    let mut report = String::new();
    let mut failed = false;
    for g in GOLDEN {
        let circuit = (g.circuit)();
        let nodes = direct(&circuit, g.strategy);
        let fingerprint = pooled(&circuit, g.strategy);
        failed |= !matches(&nodes, &g.nodes) || fingerprint != g.fingerprint;
        report.push_str(&format!(
            "{}:\n  nodes: {},\n  fingerprint: {fingerprint:#018x},\n",
            g.name,
            render(&nodes),
        ));
    }
    assert!(!failed, "results moved; this commit produces:\n{report}");
}

/// `factor` owns its simulator, so it is pinned through the statistics
/// it hands back (no size series: `find_order` does not record one).
#[test]
fn shor_factor_323_reproduces_the_recorded_bits() {
    let options = FactorOptions {
        base: Some(8),
        ..FactorOptions::default()
    };
    let outcome = factor(323, &options).expect("323 = 17 · 19");
    assert_eq!(outcome.factors.0 * outcome.factors.1, 323);
    assert_eq!(outcome.base, 8);
    let stats = outcome.sim_stats.expect("a quantum run happened");
    assert!(
        matches(&stats, &FACTOR_323),
        "results moved; this commit produces:\n{}",
        render(&stats)
    );
}

const FACTOR_323: Pinned = Pinned {
    fidelity: 0x3fe7d3a768737328,
    rounds: &[
        0x3fef000000000002,
        0x3fed4e739ce739d8,
        0x3fecf918a7f158e4,
        0x3feed1e4bb5dc64f,
        0x3fef4da088b6ef39,
        0x3fef7ba4e3f83c5c,
    ],
    max_dd_size: 104931,
    nodes_removed: 87577,
    series: 0xcbf29ce484222325,
};
