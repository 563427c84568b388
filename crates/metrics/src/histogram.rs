//! Log-bucketed histogram with percentile queries.
//!
//! The layout follows the HDR-histogram idea: values are split into
//! power-of-two magnitude groups, and each group is subdivided into a fixed
//! number of linear sub-buckets. With 32 sub-buckets per group the relative
//! quantization error is bounded by 1/32 ≈ 3.1%, which is far below the
//! run-to-run variance of any scheduling experiment.

/// Number of linear sub-buckets per power-of-two magnitude group.
const SUB_BUCKETS: usize = 32;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;
/// Number of magnitude groups; group `g >= 1` spans `[2^(g+4), 2^(g+5))`,
/// so 60 groups cover the full `u64` range.
const GROUPS: usize = 60;

/// The sub-bucket counts of one magnitude group.
type Chunk = [u64; SUB_BUCKETS];

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are stored sparsely: a magnitude group's 32 counters
/// are allocated when the group receives its first sample, so memory grows
/// with the number of populated groups (256 bytes each), not with the range
/// the histogram could cover. An empty histogram allocates nothing.
///
/// Recording is O(1); percentile queries are O(populated buckets).
///
/// # Examples
///
/// ```
/// use vsched_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((450..=550).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `index[g]` is one plus the position of group `g`'s chunk in
    /// `chunks`, or 0 while group `g` is empty.
    index: [u8; GROUPS],
    /// One chunk per populated group, in the order groups were populated.
    chunks: Vec<Chunk>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            index: [0; GROUPS],
            chunks: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Returns the `(group, sub-bucket)` a value falls into.
    fn bucket_of(value: u64) -> (usize, usize) {
        // Values below SUB_BUCKETS go into group 0 exactly (one value per
        // bucket); larger values keep their top SUB_BITS bits of precision.
        if value < SUB_BUCKETS as u64 {
            return (0, value as usize);
        }
        let magnitude = 63 - value.leading_zeros(); // >= SUB_BITS
        let group = (magnitude - SUB_BITS + 1) as usize;
        let sub = ((value >> (magnitude - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
        (group, sub)
    }

    /// Returns a representative (midpoint) value for a bucket.
    fn value_of(group: usize, sub: usize) -> u64 {
        if group == 0 {
            return sub as u64;
        }
        // Group `g` spans [2^(g + SUB_BITS - 1), 2^(g + SUB_BITS)), i.e.
        // `base` values split across SUB_BUCKETS buckets of width
        // `base / SUB_BUCKETS`.
        let base: u64 = 1u64 << (group as u32 + SUB_BITS - 1);
        let width = (base >> SUB_BITS).max(1);
        // Saturate: the topmost bucket's midpoint would overflow u64.
        base.saturating_add((sub as u64).saturating_mul(width))
            .saturating_add(width / 2)
    }

    /// The chunk of `group`, allocated (zeroed) on first use.
    fn chunk_mut(&mut self, group: usize) -> &mut Chunk {
        let slot = match self.index[group] {
            0 => {
                // Grow one chunk at a time: a histogram populates a handful
                // of groups, and doubling would leave most of it unused.
                self.chunks.reserve_exact(1);
                self.chunks.push([0; SUB_BUCKETS]);
                self.index[group] = self.chunks.len() as u8;
                self.chunks.len() - 1
            }
            i => i as usize - 1,
        };
        &mut self.chunks[slot]
    }

    /// The populated groups in ascending order, with their chunks.
    fn groups(&self) -> impl Iterator<Item = (usize, &Chunk)> {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != 0)
            .map(|(group, &slot)| (group, &self.chunks[slot as usize - 1]))
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (group, sub) = Self::bucket_of(value);
        self.chunk_mut(group)[sub] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the value at the given percentile (0.0–100.0).
    ///
    /// The result is exact for the recorded min/max and otherwise accurate to
    /// the bucket's relative quantization error. Returns 0 for an empty
    /// histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (group, chunk) in self.groups() {
            for (sub, &n) in chunk.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return Self::value_of(group, sub).clamp(self.min, self.max);
                }
            }
        }
        self.max
    }

    /// Convenience accessor for the 95th percentile (the paper's headline
    /// tail-latency metric).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// Convenience accessor for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Convenience accessor for the median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (group, src) in other.groups() {
            for (a, b) in self.chunk_mut(group).iter_mut().zip(src) {
                *a += *b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.index = [0; GROUPS];
        self.chunks.clear();
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(95.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        for p in [0.0, 50.0, 95.0, 100.0] {
            let v = h.percentile(p);
            let err = (v as f64 - 1_000_000.0).abs() / 1_000_000.0;
            assert!(err < 0.04, "p{p} = {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.percentile(100.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            // Cheap xorshift so the test needs no RNG dependency.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 10_000_000);
        }
        let mut prev = 0;
        for p in (0..=100).step_by(5) {
            let v = h.percentile(p as f64);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        for exp in 0..40u32 {
            let v = 1u64 << exp;
            h.clear();
            h.record(v);
            let got = h.percentile(50.0);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.05, "value {v}: got {got}, err {err}");
        }
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1000u64 {
            let val = v * 17 + 3;
            if v % 2 == 0 {
                a.record(val);
            } else {
                b.record(val);
            }
            all.record(val);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.percentile(95.0), all.percentile(95.0));
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(777, 100);
        for _ in 0..100 {
            b.record(777);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn huge_values_are_clamped_not_lost() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
    }
}
