//! Allocator history is not part of an engine's footprint.
//!
//! A pool worker, the server's runner and the benchmark all build a
//! fresh engine per job on a long-lived thread, so what an engine costs
//! must not depend on which engines the thread built and dropped before
//! it. When the arenas kept their payloads in one growing `Vec`, it
//! did: the first engine's `Vec` was `mmap`ed and grew in place, freeing
//! it raised glibc's dynamic mmap threshold, and every later engine
//! grew inside the heap instead — copying 14 MiB of payload at the last
//! doubling, which falls on the GC threshold, the high-water mark of
//! the run. The process peak read 43.9 MiB after the first engine and
//! 63 MiB after every later one.
//!
//! Own test binary: `VmHWM` is a per-process high-water mark.

#![cfg(target_os = "linux")]

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

/// The process's peak resident set so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmHWM line in kB");
    kib / 1024.0
}

#[test]
fn a_later_engine_peaks_where_the_first_one_did() {
    let mut peaks = Vec::new();
    for instance in 0..4 {
        let circuit = generators::supremacy(4, 4, 9, instance % 2);
        let mut sim = Simulator::builder()
            .strategy(Strategy::memory_driven_table1(4096, 0.975))
            .seed(7)
            .build();
        let stats = sim.run(&circuit).expect("a valid circuit").stats;
        assert!(stats.package.gc_runs > 0, "the run must reach GC start");
        drop(sim);
        peaks.push(peak_rss_mib());
    }
    println!("VmHWM after each engine: {peaks:.1?} MiB");
    assert!(
        peaks[3] <= 1.10 * peaks[0],
        "the fourth engine raised the process peak: {peaks:.1?} MiB"
    );
}
