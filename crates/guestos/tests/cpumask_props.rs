//! Property tests on the 256-bit CPU mask.
//!
//! Every placement decision — wake selection, domain membership, cgroup
//! restriction — goes through this type; its set algebra and cyclic
//! iteration must be exact. Driven by simcore's in-tree `propcheck`
//! harness (deterministic, offline).

use simcore::propcheck::forall;
use simcore::SimRng;
use std::collections::BTreeSet;
use vsched_guestos::CpuMask;

const MAX: usize = 256;

fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

fn to_set(m: &CpuMask) -> BTreeSet<usize> {
    m.iter().collect()
}

fn cpu_set(rng: &mut SimRng) -> BTreeSet<usize> {
    let n = rng.index(64);
    (0..n).map(|_| rng.index(MAX)).collect()
}

/// `from_iter` / `iter` round-trip exactly.
#[test]
fn iter_roundtrip() {
    forall(0x71, cases(64), |rng| {
        let s = cpu_set(rng);
        let m = CpuMask::from_iter(s.iter().copied());
        assert_eq!(to_set(&m), s);
        assert_eq!(m.count(), s.len());
        assert_eq!(m.is_empty(), s.is_empty());
        assert_eq!(m.first(), s.iter().next().copied());
    });
}

/// and/or/minus agree with BTreeSet set algebra.
#[test]
fn set_algebra_matches() {
    forall(0x72, cases(64), |rng| {
        let a = cpu_set(rng);
        let b = cpu_set(rng);
        let ma = CpuMask::from_iter(a.iter().copied());
        let mb = CpuMask::from_iter(b.iter().copied());
        let inter: BTreeSet<_> = a.intersection(&b).copied().collect();
        let union: BTreeSet<_> = a.union(&b).copied().collect();
        let diff: BTreeSet<_> = a.difference(&b).copied().collect();
        assert_eq!(to_set(&ma.and(&mb)), inter);
        assert_eq!(to_set(&ma.or(&mb)), union);
        assert_eq!(to_set(&ma.minus(&mb)), diff);
        assert_eq!(ma.intersects(&mb), !inter.is_empty());
        assert_eq!(ma.subset_of(&mb), a.is_subset(&b));
    });
}

/// set/clear/contains behave like single-bit mutations.
#[test]
fn set_clear_contains() {
    forall(0x73, cases(64), |rng| {
        let s = cpu_set(rng);
        let cpu = rng.index(MAX);
        let mut m = CpuMask::from_iter(s.iter().copied());
        m.set(cpu);
        assert!(m.contains(cpu));
        assert_eq!(m.count(), s.len() + usize::from(!s.contains(&cpu)));
        m.clear(cpu);
        assert!(!m.contains(cpu));
        let mut expect = s.clone();
        expect.remove(&cpu);
        assert_eq!(to_set(&m), expect);
    });
}

/// `iter_from(start)` visits every set bit exactly once, beginning with
/// the first set bit at or after `start`, wrapping cyclically.
#[test]
fn iter_from_is_a_cyclic_permutation() {
    forall(0x74, cases(64), |rng| {
        let s = cpu_set(rng);
        let start = rng.index(MAX);
        let m = CpuMask::from_iter(s.iter().copied());
        let visited: Vec<usize> = m.iter_from(start).collect();
        // Exactly the set, once each.
        let as_set: BTreeSet<usize> = visited.iter().copied().collect();
        assert_eq!(visited.len(), s.len(), "duplicates or misses");
        assert_eq!(as_set, s);
        // Ordering: all >= start first (ascending), then the wrap (ascending).
        if let Some(split) = visited.iter().position(|&c| c < start) {
            let (hi, lo) = visited.split_at(split);
            assert!(hi.windows(2).all(|w| w[0] < w[1]));
            assert!(lo.windows(2).all(|w| w[0] < w[1]));
            assert!(hi.iter().all(|&c| c >= start));
            assert!(lo.iter().all(|&c| c < start));
        } else {
            assert!(visited.windows(2).all(|w| w[0] < w[1]));
        }
    });
}

/// `first_n` is the interval `[0, n)`.
#[test]
fn first_n_is_prefix() {
    forall(0x75, cases(64), |rng| {
        let n = rng.index(MAX + 1);
        let m = CpuMask::first_n(n);
        assert_eq!(m.count(), n);
        for c in 0..MAX {
            assert_eq!(m.contains(c), c < n);
        }
    });
}

/// De Morgan-ish sanity: `a.minus(b)` and `a.and(b)` partition `a`.
#[test]
fn minus_and_partition() {
    forall(0x76, cases(64), |rng| {
        let a = cpu_set(rng);
        let b = cpu_set(rng);
        let ma = CpuMask::from_iter(a.iter().copied());
        let mb = CpuMask::from_iter(b.iter().copied());
        let kept = ma.and(&mb);
        let dropped = ma.minus(&mb);
        assert!(!kept.intersects(&dropped));
        assert_eq!(to_set(&kept.or(&dropped)), a);
    });
}

/// The bit-by-bit ascending scan `iter` is specified by: a test per
/// position in `0..MAX`.
fn oracle_iter(m: &CpuMask) -> Vec<usize> {
    (0..MAX).filter(|&c| m.contains(c)).collect()
}

/// The bit-by-bit cyclic scan `iter_from` is specified by: every
/// position from `start` round to `start - 1`, modulo `MAX`.
fn oracle_iter_from(m: &CpuMask, start: usize) -> Vec<usize> {
    (0..MAX)
        .map(|i| (start + i) % MAX)
        .filter(|&c| m.contains(c))
        .collect()
}

/// `n` single-bit sets, as `first_n` was specified.
fn oracle_first_n(n: usize) -> CpuMask {
    let mut m = CpuMask::empty();
    for c in 0..n {
        m.set(c);
    }
    m
}

/// Cursors on and around every word boundary, plus ones past `MAX`.
const STARTS: [usize; 12] = [0, 1, 63, 64, 65, 127, 128, 191, 192, 255, 256, 300];

/// Masks with a bit on each side of every word boundary.
fn boundary_masks() -> Vec<CpuMask> {
    let edges = [0, 63, 64, 127, 128, 255];
    let mut masks = vec![CpuMask::empty(), CpuMask::first_n(MAX)];
    masks.extend(edges.iter().map(|&c| CpuMask::single(c)));
    masks.push(CpuMask::from_iter(edges));
    masks.push(CpuMask::from_iter([63, 64]));
    masks.push(CpuMask::from_iter([127, 128, 255]));
    masks
}

/// `iter` and every `iter_from(start)` equal the bit-by-bit scans,
/// order included.
fn check_iteration(m: &CpuMask, starts: impl IntoIterator<Item = usize>) {
    assert_eq!(m.iter().collect::<Vec<_>>(), oracle_iter(m), "{m:?}");
    for start in starts {
        assert_eq!(
            m.iter_from(start).collect::<Vec<_>>(),
            oracle_iter_from(m, start),
            "{m:?} from {start}"
        );
    }
}

/// Word-at-a-time iteration matches the scan on random sparse and dense
/// masks, from every boundary cursor and a random one.
#[test]
fn iteration_matches_the_bit_by_bit_scan() {
    forall(0x77, cases(64), |rng| {
        let sparse = CpuMask::from_iter(cpu_set(rng));
        let dense = CpuMask::from_iter((0..MAX).filter(|_| rng.index(2) == 0));
        for m in [sparse, dense] {
            check_iteration(&m, STARTS.into_iter().chain([rng.index(2 * MAX)]));
        }
    });
}

/// The same on masks whose bits sit at the word edges.
#[test]
fn iteration_matches_the_scan_at_word_boundaries() {
    for m in boundary_masks() {
        check_iteration(&m, STARTS);
    }
}

/// Whole-word `first_n` equals `n` single-bit sets at every word edge.
#[test]
fn first_n_matches_the_bit_by_bit_loop() {
    for n in [0, 1, 63, 64, 65, 127, 128, 255, 256] {
        assert_eq!(CpuMask::first_n(n), oracle_first_n(n), "n = {n}");
    }
}

#[test]
#[should_panic(expected = "mask size 257 exceeds 256")]
fn first_n_past_max_panics() {
    CpuMask::first_n(MAX + 1);
}
