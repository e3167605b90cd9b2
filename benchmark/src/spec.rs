//! The benchmark's contract as data: workloads, end-to-end metrics and
//! per-layer metrics, each with its name, unit and direction. The
//! harness reports exactly these, `/BENCHMARK.json` lists the same
//! entries (a test compares the two), and the README documents what
//! each one means and what it should move.

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// Seconds of `--seconds` that buy one round (= one slice) of a
/// `--workload` run: a slice's fixed item count takes about this long
/// on the reference machine, set-up included. The driver's
/// [`RUN_SECONDS`] therefore buys five rounds.
pub const SLICE_SECONDS: u32 = 6;

/// Rounds of the interleaved run over all four workloads.
pub const INTERLEAVED_ROUNDS: usize = 8;

/// The four workloads. Later issues cite them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I, top half: memory-driven supremacy runs.
    SupremacyMemory,
    /// Table I, bottom half: fidelity-driven Shor factoring.
    ShorFidelity,
    /// Many small jobs and one sharded sampling call through the pool.
    PoolSweep,
    /// One closed-loop HTTP client against the in-process job server.
    ServeClosedLoop,
}

impl Workload {
    /// All workloads, in the order every report lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SupremacyMemory,
        Workload::ShorFidelity,
        Workload::PoolSweep,
        Workload::ServeClosedLoop,
    ];

    /// The workload's fixed name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SupremacyMemory => "supremacy_memory",
            Workload::ShorFidelity => "shor_fidelity",
            Workload::PoolSweep => "pool_sweep",
            Workload::ServeClosedLoop => "serve_closed_loop",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line, ≤ 200 chars).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::SupremacyMemory => {
                "Table I top half: fresh memory-driven runs of 4x4 depth-9 supremacy circuits, 23 truncation rounds each; dd and core do all the work, exec and server none"
            }
            Workload::ShorFidelity => {
                "Table I bottom half: fidelity-driven Shor on 27- and 30-qubit registers with permutation gates and few scheduled rounds; the same dd layer used differently"
            }
            Workload::PoolSweep => {
                "16 small jobs plus one 100k-shot sampling call per item on a 2-worker pool; DDs stay small, so backend construction, snapshots, queueing and sampling dominate"
            }
            Workload::ServeClosedLoop => {
                "one closed-loop TCP client, QASM in and fingerprint out, 7 warm requests over 6 families to 1 cold circuit; parser, server and one-job batches dominate, DD work is negligible"
            }
        }
    }

    /// Percentile `item_s_tail` reports for this workload. Fixed, so
    /// the metric means the same thing in every run: the highest of
    /// 75/95/99 with at least ten samples beyond it at the item count
    /// of the interleaved run ([`INTERLEAVED_ROUNDS`] slices).
    #[must_use]
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::SupremacyMemory | Workload::ShorFidelity => 75.0,
            Workload::PoolSweep => 95.0,
            Workload::ServeClosedLoop => 99.0,
        }
    }

    /// Timed items of one slice. Fixed, never time-boxed, so item
    /// counts, the sample behind every percentile and the three exact
    /// metrics repeat exactly; sized to about 5 s on the reference
    /// machine.
    #[must_use]
    pub fn slice_items(self) -> usize {
        match self {
            Workload::SupremacyMemory => 8,
            Workload::ShorFidelity => 5,
            Workload::PoolSweep => 96,
            Workload::ServeClosedLoop => 1600,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `/BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported for every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Only what repeats on the shared 2-vCPU
/// reference VM gates a later change: the three exact metrics (bound 0;
/// they are the same for every `--seed`) and `peak_rss_mib`. Item
/// times spread by up to 0.20 over ten runs of identical code there,
/// past the 0.10 they were meant to carry, so they are reported with
/// the per-layer metrics, without a bound (README, "Noise"). `setup_s`
/// is the one wall-clock metric the benchmark contract obliges; two
/// sets of ten runs of identical code moved its median by up to 0.15,
/// hence the widest bound the contract allows.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_nodes",
        unit: "nodes",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "dd_ops_per_item",
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "fidelity_min",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0,
    },
];

/// How a per-layer metric's slice-level records combine into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Median over every recorded sample of every traced slice.
    Median,
    /// Σ numerators ÷ Σ denominators over the traced slices.
    Ratio,
    /// Largest recorded value.
    Max,
    /// Sum of the recorded values.
    Sum,
    /// Not recorded by slices: the parent computes it from the item
    /// times of the plain (and, for the overhead, traced) slices.
    FromItems,
}

/// A per-layer metric: reported from the traced slices of a
/// `--trace 1` run. A metric whose layer is not on the workload's path
/// reads 0 there (the README table says which workloads feed it).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Aggregation over slices.
    pub combine: Combine,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    combine: Combine,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        combine,
    }
}

use Better::{Higher, Lower};
use Combine::{FromItems, Max, Median, Ratio, Sum};

/// Name of the tracing-overhead metric, which the parent computes from
/// the plain and traced slices instead of reading it from a slice.
pub const TRACE_OVERHEAD: &str = "trace.overhead_ratio";

/// Names of the item-time metrics, which the parent computes from the
/// plain slices' items: the median, the pooled rate (items ÷ Σ wall
/// time of the slices' timed loops) and the workload's fixed tail
/// percentile. They sit with the per-layer metrics because they carry
/// no bound (see [`END_TO_END`]).
pub const ITEM_P50: &str = "item_s_p50";
/// See [`ITEM_P50`].
pub const ITEMS_PER_S: &str = "items_per_s";
/// See [`ITEM_P50`].
pub const ITEM_TAIL: &str = "item_s_tail";

/// The per-layer metrics, grouped by layer (= crate name).
pub const PER_LAYER: [PerLayer; 56] = [
    layer("circuit.qasm_parse_s_p50", "s", Lower, Median),
    layer("circuit.qasm_parse_bytes_per_s", "B/s", Higher, Ratio),
    layer("circuit.generate_s", "s", Lower, Median),
    layer("dd.vsize_ns_per_node", "ns/node", Lower, Ratio),
    layer("dd.apply_1q_ns_per_node", "ns/node", Lower, Ratio),
    layer("dd.truncate_s_per_round", "s", Lower, Ratio),
    layer("dd.gc_ns_per_node", "ns/node", Lower, Ratio),
    layer("dd.ct_hit_rate", "ratio", Higher, Ratio),
    layer("dd.unique_hit_rate", "ratio", Higher, Ratio),
    layer("dd.unique_occupancy", "ratio", Higher, Ratio),
    layer("dd.gc_runs_per_item", "count", Lower, Ratio),
    layer("dd.peak_vnodes", "nodes", Lower, Max),
    layer("dd.peak_mnodes", "nodes", Lower, Max),
    layer("dd.sample_ns_per_shot", "ns/shot", Lower, Ratio),
    layer("core.build_s_p50", "s", Lower, Median),
    layer("core.run_s_p50", "s", Lower, Median),
    layer("core.gate_step_share", "ratio", Lower, Ratio),
    layer("core.truncate_share", "ratio", Lower, Ratio),
    layer("core.phase_apply_share", "ratio", Lower, Ratio),
    layer("core.phase_gate_build_share", "ratio", Lower, Ratio),
    layer("core.phase_truncate_share", "ratio", Lower, Ratio),
    layer("core.phase_gc_share", "ratio", Lower, Ratio),
    layer("core.unattributed_share", "ratio", Lower, Ratio),
    layer("core.gates_per_s", "1/s", Higher, Ratio),
    layer("core.rounds_per_item", "count", Lower, Ratio),
    layer("shor.circuit_build_s", "s", Lower, Median),
    layer("shor.post_s", "s", Lower, Median),
    layer("shor.factored_ratio", "ratio", Higher, Ratio),
    layer("backend.build_s_p50", "s", Lower, Median),
    layer("exec.pool_build_s", "s", Lower, Median),
    layer("exec.run_jobs_s_p50", "s", Lower, Median),
    layer("exec.sample_counts_s_p50", "s", Lower, Median),
    layer("exec.jobs_per_s", "1/s", Higher, Ratio),
    layer("exec.shots_per_s", "1/s", Higher, Ratio),
    layer("exec.busy_share", "ratio", Higher, Ratio),
    layer("exec.queue_wait_s_mean", "s", Lower, Ratio),
    layer("exec.snapshot_build_s", "s", Lower, Ratio),
    layer("exec.snapshot_gate_hit_rate", "ratio", Higher, Ratio),
    layer("exec.max_queue_depth", "count", Lower, Max),
    layer("exec.retries", "count", Lower, Sum),
    layer("exec.failed_jobs", "count", Lower, Sum),
    layer("server.post_s_p50", "s", Lower, Median),
    layer("server.stream_s_p50", "s", Lower, Median),
    layer("server.warm_item_s_p50", "s", Lower, Median),
    layer("server.cold_item_s_p50", "s", Lower, Median),
    layer("server.session_hit_rate", "ratio", Higher, Ratio),
    layer("server.admit_wait_s_mean", "s", Lower, Ratio),
    layer("server.run_s_mean", "s", Lower, Ratio),
    layer("server.settle_s_mean", "s", Lower, Ratio),
    layer("server.rejected", "count", Lower, Sum),
    layer("server.rss_kib_per_job", "KiB/job", Lower, Ratio),
    layer("server.metrics_scrape_s", "s", Lower, Median),
    layer(TRACE_OVERHEAD, "ratio", Lower, FromItems),
    layer(ITEM_P50, "s", Lower, FromItems),
    layer(ITEMS_PER_S, "1/s", Higher, FromItems),
    layer(ITEM_TAIL, "s", Lower, FromItems),
];

/// Looks a per-layer metric up by name.
#[must_use]
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
