//! `/BENCHMARK.json` against the limits of the benchmark contract and
//! against the tables the harness reports from.

use std::collections::HashSet;

use approxdd_benchmark::spec::{
    self, Better, Workload, END_TO_END, INTERLEAVED_ROUNDS, PER_LAYER, RUN_SECONDS, SLICE_SECONDS,
    TRACE_OVERHEAD,
};
use approxdd_benchmark::stats;

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_file_lists_exactly_the_spec() {
    // Compared with all white space dropped, so the file's layout is
    // free; a workload's reason loses its spaces on both sides alike.
    let squeeze = |s: &str| s.split_whitespace().collect::<String>();
    let committed = include_str!("../../BENCHMARK.json");
    assert!(committed.len() <= 64 * 1024);
    let committed = squeeze(committed);
    let mut entries = Vec::new();
    for w in Workload::ALL {
        entries.push(format!(r#"{{"name":"{}","why":"{}"}}"#, w.name(), w.why()));
    }
    for m in &END_TO_END {
        entries.push(format!(
            r#"{{"name":"{}","unit":"{}","better":"{}","bound":{}}}"#,
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in &PER_LAYER {
        entries.push(format!(
            r#"{{"name":"{}","unit":"{}","better":"{}"}}"#,
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    for entry in &entries {
        assert!(
            committed.contains(&squeeze(entry)),
            "missing or stale: {entry}"
        );
    }
    assert_eq!(
        committed.matches(r#""name":"#).count(),
        entries.len(),
        "BENCHMARK.json lists an entry the spec does not have"
    );
    assert!(committed.contains(&format!(r#""run_seconds":{RUN_SECONDS},"#)));
    assert!(committed.contains(r#""paths":["benchmark"],"#));
    assert!(committed.contains(r#""--manifest-path","benchmark/Cargo.toml","--"],"#));
}

#[test]
fn names_and_units_fit_the_contract() {
    assert!(is_name("p99.latency_ms-2") && !is_name("_x") && !is_name("a b") && !is_name(""));
    assert!(is_unit("ns/node") && is_unit("%") && !is_unit("") && !is_unit("per second"));
    let mut seen = HashSet::new();
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(is_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(is_unit(unit), "{unit}");
    }
}

#[test]
fn counts_bounds_and_set_up_metric_fit_the_contract() {
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in &END_TO_END {
        // The issue's ceiling for everything but the obligatory
        // set-up time, which takes the contract's.
        let ceiling = if m.name == "setup_s" { 0.25 } else { 0.10 };
        assert!(m.bound >= 0.0 && m.bound <= ceiling, "{}", m.name);
    }
    for exact in ["peak_nodes", "dd_ops_per_item", "fidelity_min"] {
        let m = END_TO_END.iter().find(|m| m.name == exact).expect(exact);
        assert_eq!(m.bound, 0.0, "{exact} repeats exactly");
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "set-up time carries the largest bound");
    assert!(spec::per_layer(TRACE_OVERHEAD).is_some());
}

#[test]
fn all_driver_runs_fit_the_time_cap() {
    // 4 + 22 runs per workload. A run is RUN_SECONDS / SLICE_SECONDS
    // fixed-count slices; on the reference machine that is 19 s
    // (serve_closed_loop) to 30 s (shor_fidelity), 25 s on average.
    // Budget every run at RUN_SECONDS + 5, which leaves 40 % for a slow
    // spell, and each of the two builds at 60 s (16 s measured).
    let runs = 4 + 22 * Workload::ALL.len() as u32;
    assert_eq!(RUN_SECONDS % SLICE_SECONDS, 0);
    assert!(runs * (RUN_SECONDS + 5) + 2 * 60 <= 3420);
}

#[test]
fn fixed_tail_percentiles_follow_the_ten_beyond_rule() {
    for w in Workload::ALL {
        let items = INTERLEAVED_ROUNDS * w.slice_items();
        let highest = stats::highest_tail_percentile(items).expect("enough samples");
        let fixed = w.tail_percentile();
        assert!(fixed <= f64::from(highest), "{}", w.name());
        assert!(stats::beyond(items, fixed) >= stats::MIN_BEYOND);
    }
    // A driver run has 5 slices, not 8: 40 supremacy items keep ten
    // beyond p75, 25 Shor pairs only six. The output's `tail_beyond`
    // says so with every run.
    assert_eq!(
        stats::beyond(5 * Workload::SupremacyMemory.slice_items(), 75.0),
        10
    );
    assert_eq!(
        stats::beyond(5 * Workload::ShorFidelity.slice_items(), 75.0),
        6
    );
}
