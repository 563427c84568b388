//! Property tests on the log-bucket histogram.
//!
//! Every latency number in EXPERIMENTS.md flows through this structure, so
//! its quantile math gets adversarial treatment: conservation, monotonicity,
//! bounded relative error, and merge associativity. Driven by simcore's
//! in-tree `propcheck` harness (deterministic, offline).

use simcore::propcheck::{forall, vec_of};
use vsched_metrics::Histogram;

fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

/// Count is conserved and min/max bracket every recorded value's bucket.
#[test]
fn count_and_bounds_conserved() {
    forall(0x61, cases(64), |rng| {
        let values = vec_of(rng, 1, 500, |r| r.range(0, u64::MAX / 2));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        // Bucket midpoints stay within ~6.25% of the true value (32
        // sub-buckets per doubling), with slack for the smallest buckets.
        let tol_lo = lo / 8 + 2;
        let tol_hi = hi / 8 + 2;
        assert!(h.min() <= lo + tol_lo, "min {} vs {}", h.min(), lo);
        assert!(h.max() + tol_hi >= hi, "max {} vs {}", h.max(), hi);
    });
}

/// Percentiles are monotone in `p` and stay within the recorded range
/// (modulo bucket rounding).
#[test]
fn percentiles_monotone() {
    forall(0x62, cases(64), |rng| {
        let values = vec_of(rng, 1, 300, |r| r.range(0, 1_000_000_000));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let ps = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
        let mut last = 0u64;
        for &p in &ps {
            let q = h.percentile(p);
            assert!(q >= last, "p{p} = {q} < previous {last}");
            last = q;
        }
        assert!(h.percentile(100.0) <= h.max());
        assert!(h.percentile(0.0) >= h.min());
    });
}

/// The median of a recorded set lands within one bucket of the true
/// median (relative error ≤ ~7%).
#[test]
fn median_relative_error_bounded() {
    forall(0x63, cases(64), |rng| {
        let values = vec_of(rng, 3, 300, |r| r.range(100, 1_000_000_000));
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        let truth = sorted[(sorted.len() - 1) / 2] as f64;
        let got = h.p50() as f64;
        assert!(
            (got - truth).abs() <= 0.07 * truth + 2.0,
            "p50 {got} vs true median {truth}"
        );
    });
}

/// Merging histograms equals recording the union, and merge order
/// does not matter.
#[test]
fn merge_is_union_and_commutative() {
    forall(0x64, cases(64), |rng| {
        let a = vec_of(rng, 0, 200, |r| r.range(0, 1_000_000));
        let b = vec_of(rng, 0, 200, |r| r.range(0, 1_000_000));
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab.count(), hu.count());
        assert_eq!(ab.count(), ba.count());
        for &p in &[50.0, 95.0, 99.0] {
            assert_eq!(ab.percentile(p), hu.percentile(p));
            assert_eq!(ab.percentile(p), ba.percentile(p));
        }
        assert_eq!(ab.min(), ba.min());
        assert_eq!(ab.max(), ba.max());
    });
}

/// Merge is associative and count-preserving: `(a ⊎ b) ⊎ c` and
/// `a ⊎ (b ⊎ c)` agree on every observable, and the merged count is the
/// exact sum of the inputs. Fleet SLO accounting folds per-host and
/// per-tenant histograms in whatever order cells complete, so this is the
/// law that makes that reduction order-insensitive.
#[test]
fn merge_is_associative_and_count_preserving() {
    forall(0x68, cases(64), |rng| {
        let sets: Vec<Vec<u64>> = (0..3)
            .map(|_| vec_of(rng, 0, 150, |r| r.range(0, 1_000_000_000)))
            .collect();
        let hs: Vec<Histogram> = sets
            .iter()
            .map(|vals| {
                let mut h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            })
            .collect();
        // (a ⊎ b) ⊎ c
        let mut left = hs[0].clone();
        left.merge(&hs[1]);
        left.merge(&hs[2]);
        // a ⊎ (b ⊎ c)
        let mut bc = hs[1].clone();
        bc.merge(&hs[2]);
        let mut right = hs[0].clone();
        right.merge(&bc);
        let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
        assert_eq!(left.count(), total, "merge must preserve counts exactly");
        assert_eq!(right.count(), total);
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        assert_eq!(left.mean().to_bits(), right.mean().to_bits());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                left.percentile(p),
                right.percentile(p),
                "p{p} differs between association orders"
            );
        }
    });
}

/// `record_n` equals `n` separate `record`s.
#[test]
fn record_n_equals_repeated_record() {
    forall(0x65, cases(128), |rng| {
        let v = rng.range(0, 10_000_000);
        let n = rng.range(1, 1000);
        let mut bulk = Histogram::new();
        bulk.record_n(v, n);
        let mut single = Histogram::new();
        for _ in 0..n {
            single.record(v);
        }
        assert_eq!(bulk.count(), single.count());
        assert_eq!(bulk.p50(), single.p50());
        assert_eq!(bulk.mean(), single.mean());
    });
}

/// The mean tracks the true mean within bucket resolution.
#[test]
fn mean_tracks_truth() {
    forall(0x66, cases(64), |rng| {
        let values = vec_of(rng, 1, 300, |r| r.range(1000, 100_000_000));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let truth = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        assert!(
            (h.mean() - truth).abs() <= 0.05 * truth,
            "mean {} vs {}",
            h.mean(),
            truth
        );
    });
}

/// `clear` returns the histogram to its pristine state.
#[test]
fn clear_resets() {
    forall(0x67, cases(64), |rng| {
        let values = vec_of(rng, 1, 100, |r| r.range(0, 1_000_000));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        h.clear();
        assert_eq!(h.count(), 0);
        let fresh = Histogram::new();
        assert_eq!(h.p99(), fresh.p99());
    });
}

/// The dense reading of `Histogram`'s bucket scheme: all 60 × 32 buckets
/// in one zeroed array, scanned in index order. The sparse layout must
/// match it on every observable, bit for bit.
struct Dense {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Dense {
    const SUB_BUCKETS: usize = 32;
    const SUB_BITS: u32 = 5;
    const GROUPS: usize = 60;

    fn new() -> Self {
        Self {
            buckets: vec![0; Self::GROUPS * Self::SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < Self::SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros();
        let group = (magnitude - Self::SUB_BITS + 1) as usize;
        let sub = ((value >> (magnitude - Self::SUB_BITS)) as usize) & (Self::SUB_BUCKETS - 1);
        (group * Self::SUB_BUCKETS + sub).min(Self::GROUPS * Self::SUB_BUCKETS - 1)
    }

    fn value_of(index: usize) -> u64 {
        if index < Self::SUB_BUCKETS {
            return index as u64;
        }
        let group = (index / Self::SUB_BUCKETS) as u32;
        let sub = (index % Self::SUB_BUCKETS) as u64;
        let base: u64 = 1u64 << (group + Self::SUB_BITS - 1);
        let width = (base >> Self::SUB_BITS).max(1);
        base.saturating_add(sub.saturating_mul(width))
            .saturating_add(width / 2)
    }

    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index_of(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::value_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn clear(&mut self) {
        *self = Self::new();
    }
}

/// A sparse histogram and its dense oracle, fed the same samples.
struct Pair {
    sparse: Histogram,
    dense: Dense,
}

impl Pair {
    fn new() -> Self {
        Self {
            sparse: Histogram::new(),
            dense: Dense::new(),
        }
    }

    /// Records each value, some of them as `record_n` with `n` in 0..4.
    fn feed(&mut self, rng: &mut simcore::SimRng, values: &[u64]) {
        for &v in values {
            if rng.chance(0.25) {
                let n = rng.range(0, 4);
                self.sparse.record_n(v, n);
                self.dense.record_n(v, n);
            } else {
                self.sparse.record(v);
                self.dense.record_n(v, 1);
            }
        }
    }

    fn merge(&mut self, other: &Pair) {
        self.sparse.merge(&other.sparse);
        self.dense.merge(&other.dense);
    }

    fn clear(&mut self) {
        self.sparse.clear();
        self.dense.clear();
    }

    /// Every observable agrees, bit for bit.
    fn assert_agree(&self, stage: &str) {
        let (s, d) = (&self.sparse, &self.dense);
        assert_eq!(s.count(), d.count, "{stage}: count");
        assert_eq!(s.min(), d.min(), "{stage}: min");
        assert_eq!(s.max(), d.max, "{stage}: max");
        assert_eq!(s.mean().to_bits(), d.mean().to_bits(), "{stage}: mean");
        for p in [0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), d.percentile(p), "{stage}: p{p}");
        }
    }
}

/// Bucket-edge values: group 0's last exact bucket, group 1's first, the
/// top of the range, and the edges of the topmost group.
const EDGES: [u64; 8] = [
    0,
    31,
    32,
    33,
    1 << 63,
    (1 << 63) - 1,
    u64::MAX - 1,
    u64::MAX,
];

/// A sample from every magnitude: bucket edges, the full `u64` range,
/// log-uniform values, and group 0.
fn sample(rng: &mut simcore::SimRng) -> u64 {
    match rng.index(4) {
        0 => EDGES[rng.index(EDGES.len())],
        1 => rng.u64(),
        2 => rng.u64() >> rng.index(64),
        _ => rng.range(0, 64),
    }
}

/// Values below `2^split` when `low`, else at or above it: the two bands
/// populate disjoint magnitude groups for any `split` in `5..64`.
fn banded(rng: &mut simcore::SimRng, split: u32, low: bool) -> u64 {
    let v = rng.u64() >> rng.index(64);
    if low {
        v & ((1u64 << split) - 1)
    } else {
        v | (1u64 << split)
    }
}

/// The sparse layout matches the dense oracle on every observable: after
/// recording (sometimes high groups first, then low ones), after merges in
/// both directions of overlapping or group-disjoint histograms, and after
/// `clear` and reuse.
#[test]
fn sparse_matches_dense_oracle() {
    forall(0x69, cases(64), |rng| {
        let mut a = Pair::new();
        let mut values = vec_of(rng, 0, 300, sample);
        if rng.chance(0.5) {
            values.sort_unstable_by(|x, y| y.cmp(x));
        }
        a.feed(rng, &values);
        a.assert_agree("record");

        let split = rng.range(5, 64) as u32;
        let disjoint = rng.chance(0.5);
        let a_low = rng.chance(0.5);
        let mut b = Pair::new();
        let other: Vec<u64> = if disjoint {
            a.clear();
            let mine = vec_of(rng, 1, 200, |r| banded(r, split, a_low));
            a.feed(rng, &mine);
            vec_of(rng, 1, 200, |r| banded(r, split, !a_low))
        } else {
            vec_of(rng, 0, 200, sample)
        };
        b.feed(rng, &other);
        b.assert_agree("record other");

        let mut ab = Pair::new();
        ab.merge(&a);
        ab.merge(&b);
        ab.assert_agree("empty ⊎ a ⊎ b");
        b.merge(&a);
        b.assert_agree("b ⊎ a");
        a.merge(&b);
        a.assert_agree("a ⊎ (b ⊎ a)");

        a.clear();
        a.assert_agree("clear");
        let reuse = vec_of(rng, 0, 100, sample);
        a.feed(rng, &reuse);
        a.assert_agree("reuse after clear");
    });
}

/// The edge values, recorded from the highest group down, agree with the
/// oracle after each sample.
#[test]
fn edges_high_then_low_match_dense_oracle() {
    let mut pair = Pair::new();
    for &v in EDGES.iter().rev() {
        pair.sparse.record(v);
        pair.dense.record_n(v, 1);
        pair.assert_agree(&format!("after {v}"));
    }
}
