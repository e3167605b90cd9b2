//! Deterministic per-job seed derivation.
//!
//! The pool's determinism contract — identical results for the same
//! root seed regardless of worker count — requires that the seed a job
//! samples with depends only on *which job it is*, never on which
//! worker picks it up or in which order workers drain the queue.
//! [`SeedStream`] provides that: a SplitMix64-style mixing of
//! `(root seed, domain, job index)` into one 64-bit seed per job.

/// One SplitMix64 step: advances `state` by the golden-gamma increment
/// and returns the mixed output. The finalizer is bijective, so
/// distinct inputs can never silently collapse onto one seed.
#[must_use]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A keyed stream of per-job seeds: `seed(domain, index)` is a pure
/// function of the root seed, the domain and the index.
///
/// Domains keep unrelated seed consumers apart — a run job and a
/// sampling chunk with the same index must not share an RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    root: u64,
}

/// Seed domain of batch-run jobs (per-job measurement sampling).
pub(crate) const DOMAIN_RUN: u64 = 0x1;
/// Seed domain of sharded `sample_counts` shot chunks.
pub(crate) const DOMAIN_SAMPLE: u64 = 0x2;
/// Seed domain of the fault-injection harness: a seeded
/// [`crate::FaultPlan`] derives job `j`'s fault decision from
/// `seed(DOMAIN_FAULT, j)`, so injected panics/delays/aborts land on
/// the same job indices at every worker count — which is what makes
/// the recovery paths (the panic boundary, retry, deadlines)
/// reproducibly testable. Test/bench only; no production path consumes
/// this domain.
pub(crate) const DOMAIN_FAULT: u64 = 0x4;

impl SeedStream {
    /// A stream rooted at `root` (a pool's builder seed).
    #[must_use]
    pub fn new(root: u64) -> Self {
        Self { root }
    }

    /// The root seed.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The seed of job `index` in `domain`: three chained SplitMix64
    /// steps over root, domain and index, so near-identical inputs
    /// (adjacent indices, adjacent roots) still produce statistically
    /// independent seeds.
    #[must_use]
    pub fn seed(&self, domain: u64, index: u64) -> u64 {
        let mut state = self.root;
        let a = splitmix64(&mut state);
        let mut state = a ^ domain;
        let b = splitmix64(&mut state);
        let mut state = b ^ index;
        splitmix64(&mut state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_its_inputs() {
        let s = SeedStream::new(42);
        assert_eq!(s.seed(DOMAIN_RUN, 3), s.seed(DOMAIN_RUN, 3));
        assert_eq!(
            SeedStream::new(42).seed(DOMAIN_SAMPLE, 0),
            s.seed(DOMAIN_SAMPLE, 0)
        );
    }

    #[test]
    fn domains_indices_and_roots_separate_streams() {
        let s = SeedStream::new(7);
        assert_ne!(s.seed(DOMAIN_RUN, 0), s.seed(DOMAIN_RUN, 1));
        assert_ne!(s.seed(DOMAIN_RUN, 0), s.seed(DOMAIN_SAMPLE, 0));
        assert_ne!(
            s.seed(DOMAIN_RUN, 0),
            SeedStream::new(8).seed(DOMAIN_RUN, 0)
        );
    }

    #[test]
    fn seeds_have_no_trivial_collisions() {
        let s = SeedStream::new(0);
        let mut seen = std::collections::HashSet::new();
        for domain in [DOMAIN_RUN, DOMAIN_SAMPLE, DOMAIN_FAULT] {
            for index in 0..4096 {
                assert!(
                    seen.insert(s.seed(domain, index)),
                    "collision at {domain}/{index}"
                );
            }
        }
    }

    /// Golden values pin the existing streams: a refactor of the mixing
    /// must not move a single seed of `DOMAIN_RUN`/`DOMAIN_SAMPLE`, or
    /// every archived `run_batch`/`sample_counts` fingerprint would
    /// silently change, nor one of `DOMAIN_FAULT`, or injected faults
    /// would land on other jobs.
    #[test]
    fn existing_streams_are_frozen() {
        let s = SeedStream::new(42);
        for (domain, index, want) in [
            (DOMAIN_RUN, 0, 0x93BE_8420_BB55_B94C),
            (DOMAIN_RUN, 1, 0x56F8_06FA_1C91_F122),
            (DOMAIN_RUN, 7, 0x1B18_6314_9F17_26FA),
            (DOMAIN_SAMPLE, 0, 0x0684_A9E5_6565_7C2E),
            (DOMAIN_SAMPLE, 1, 0xCB3F_6068_39EE_90D6),
            (DOMAIN_SAMPLE, 7, 0xEF5E_260B_C49C_3C6F),
            (DOMAIN_FAULT, 0, 0xE8DA_A970_75F9_D9E8),
            (DOMAIN_FAULT, 1, 0xBEE2_E244_4F09_461F),
            (DOMAIN_FAULT, 7, 0x5B5F_AB66_E103_2DC8),
        ] {
            assert_eq!(
                s.seed(domain, index),
                want,
                "domain {domain:#x} index {index}"
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Domain separation: over a sampled window, streams for
            // distinct (domain, job index) pairs share no 64-bit
            // outputs.
            #[test]
            fn distinct_domain_index_pairs_share_no_outputs(root in any::<u64>()) {
                let s = SeedStream::new(root);
                let mut seen = std::collections::HashMap::new();
                for domain in [DOMAIN_RUN, DOMAIN_SAMPLE, DOMAIN_FAULT] {
                    for index in 0..512u64 {
                        let seed = s.seed(domain, index);
                        if let Some(prev) = seen.insert(seed, (domain, index)) {
                            prop_assert!(
                                false,
                                "seed {seed:#x} shared by {prev:?} and {:?}",
                                (domain, index)
                            );
                        }
                    }
                }
            }

            // Neighbouring roots never collide within a window either
            // (pools with adjacent builder seeds stay independent).
            #[test]
            fn adjacent_roots_stay_separated(root in any::<u64>()) {
                let a = SeedStream::new(root);
                let b = SeedStream::new(root.wrapping_add(1));
                for index in 0..256u64 {
                    let (x, y) = (a.seed(DOMAIN_RUN, index), b.seed(DOMAIN_RUN, index));
                    prop_assert!(x != y, "roots {root} and +1 collide at index {index}");
                }
            }
        }
    }
}
