//! The repo benchmark: four workloads over the `approxdd` stack, five
//! end-to-end metrics per workload, the item times and a per-layer
//! trace. See `README.md` for what is measured and why, and
//! `/BENCHMARK.json` for the contract (the entries of [`spec`]).

pub mod env;
pub mod run;
pub mod slice;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
