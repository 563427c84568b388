//! Minimal deterministic property-test harness.
//!
//! The workspace must build and test with no registry access, so the
//! property suites run on this self-contained replacement for `proptest`:
//! every property executes `cases` bodies, each with an independent
//! [`SimRng`] forked from a fixed seed. Failures print the case index and
//! per-case seed so a single case can be replayed in isolation.
//!
//! There is no shrinking; keep generated inputs small enough to read.

use crate::rng::SimRng;

/// Runs `body` for `cases` independently seeded cases.
///
/// The per-case RNG stream depends only on `(seed, case_index)`, so inserting
/// or removing cases never perturbs the others.
///
/// # Panics
///
/// Re-raises the first case failure, after printing which case (and seed)
/// failed.
pub fn forall(seed: u64, cases: usize, mut body: impl FnMut(&mut SimRng)) {
    for case in 0..cases {
        let case_seed = SimRng::new(seed).fork(case as u64).u64();
        let mut rng = SimRng::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "property failed at case {case}/{cases} (seed {seed}, case seed {case_seed:#x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// The seed of a randomized sweep: `SWEEP_SEED` from the environment when
/// it parses as a `u64`, else `default`. Every sweep reads the same
/// variable, so one drawn seed reruns them all and a failure that prints
/// `SWEEP_SEED=<seed>` replays with that assignment.
pub fn sweep_seed(default: u64) -> u64 {
    std::env::var("SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Generates a vector whose length is uniform in `[min_len, max_len)` with
/// elements drawn by `gen`.
pub fn vec_of<T>(
    rng: &mut SimRng,
    min_len: usize,
    max_len: usize,
    mut gen: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let n = if min_len + 1 >= max_len {
        min_len
    } else {
        min_len + rng.index(max_len - min_len)
    };
    (0..n).map(|_| gen(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forall_runs_every_case_deterministically() {
        let mut first = Vec::new();
        forall(42, 16, |rng| first.push(rng.u64()));
        let mut second = Vec::new();
        forall(42, 16, |rng| second.push(rng.u64()));
        assert_eq!(first.len(), 16);
        assert_eq!(first, second);
        // Cases are independent streams, not one shared stream.
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        forall(7, 32, |rng| {
            let v = vec_of(rng, 2, 10, |r| r.index(5));
            assert!((2..10).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        });
    }
}
