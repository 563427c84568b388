//! CPU bitmasks.
//!
//! A fixed 256-bit mask covering every vCPU a guest (or hardware thread a
//! host) can have in this reproduction. The hpvm profile uses 32 vCPUs and
//! the evaluation host has 160 hardware threads, so 256 bits leaves ample
//! headroom.

/// Number of `u64` words backing the mask.
const WORDS: usize = 4;
/// Maximum number of CPUs representable.
pub const MAX_CPUS: usize = WORDS * 64;

/// A set of CPU indices in `0..MAX_CPUS`.
///
/// # Examples
///
/// ```
/// use vsched_guestos::CpuMask;
///
/// let mut m = CpuMask::empty();
/// m.set(3);
/// m.set(7);
/// assert!(m.contains(3));
/// assert_eq!(m.count(), 2);
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuMask {
    words: [u64; WORDS],
}

impl Default for CpuMask {
    fn default() -> Self {
        Self::empty()
    }
}

impl CpuMask {
    /// The empty set.
    pub const fn empty() -> Self {
        Self { words: [0; WORDS] }
    }

    /// The set `{0, 1, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_CPUS`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_CPUS, "mask size {n} exceeds {MAX_CPUS}");
        let mut m = Self::empty();
        let (full, rest) = (n / 64, n % 64);
        m.words[..full].fill(u64::MAX);
        if rest != 0 {
            m.words[full] = (1u64 << rest) - 1;
        }
        m
    }

    /// A singleton set.
    pub fn single(cpu: usize) -> Self {
        let mut m = Self::empty();
        m.set(cpu);
        m
    }

    /// Builds a mask from an iterator of indices.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut m = Self::empty();
        for cpu in iter {
            m.set(cpu);
        }
        m
    }

    /// Adds `cpu` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= MAX_CPUS`.
    pub fn set(&mut self, cpu: usize) {
        assert!(cpu < MAX_CPUS, "cpu {cpu} out of range");
        self.words[cpu / 64] |= 1u64 << (cpu % 64);
    }

    /// Removes `cpu` from the set.
    pub fn clear(&mut self, cpu: usize) {
        if cpu < MAX_CPUS {
            self.words[cpu / 64] &= !(1u64 << (cpu % 64));
        }
    }

    /// Adds `cpu` to the set when `on`, removes it otherwise.
    pub fn assign(&mut self, cpu: usize, on: bool) {
        if on {
            self.set(cpu);
        } else {
            self.clear(cpu);
        }
    }

    /// Whether `cpu` is in the set.
    pub fn contains(&self, cpu: usize) -> bool {
        cpu < MAX_CPUS && self.words[cpu / 64] & (1u64 << (cpu % 64)) != 0
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set intersection.
    pub fn and(&self, other: &CpuMask) -> CpuMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
        out
    }

    /// Set union.
    pub fn or(&self, other: &CpuMask) -> CpuMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn minus(&self, other: &CpuMask) -> CpuMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !*b;
        }
        out
    }

    /// Whether the two sets intersect.
    pub fn intersects(&self, other: &CpuMask) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether `self` is a subset of `other`.
    pub fn subset_of(&self, other: &CpuMask) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// The lowest CPU in the set, if any.
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates the set in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Bits::new(self.words)
    }

    /// Iterates the set cyclically starting at `start` (wrapping around),
    /// as Linux's idle-CPU scans do with their rotating cursors.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        // Bits at or above the cursor, then the wrap: the ones below it.
        let below = CpuMask::first_n(start % MAX_CPUS);
        Bits::new(self.minus(&below).words).chain(Bits::new(self.and(&below).words))
    }
}

/// Ascending iterator over the set bits of a mask's words: one
/// `trailing_zeros` per yielded CPU and one step per empty word, instead
/// of a test per bit position.
struct Bits {
    words: [u64; WORDS],
    word: usize,
}

impl Bits {
    fn new(words: [u64; WORDS]) -> Self {
        Self { words, word: 0 }
    }
}

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word < WORDS {
            let w = &mut self.words[self.word];
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains() {
        let mut m = CpuMask::empty();
        assert!(!m.contains(5));
        m.set(5);
        assert!(m.contains(5));
        m.clear(5);
        assert!(!m.contains(5));
    }

    #[test]
    fn first_n_counts() {
        let m = CpuMask::first_n(100);
        assert_eq!(m.count(), 100);
        assert!(m.contains(0));
        assert!(m.contains(99));
        assert!(!m.contains(100));
    }

    #[test]
    fn boolean_algebra() {
        let a = CpuMask::from_iter([1, 2, 3]);
        let b = CpuMask::from_iter([3, 4]);
        assert_eq!(a.and(&b), CpuMask::single(3));
        assert_eq!(a.or(&b), CpuMask::from_iter([1, 2, 3, 4]));
        assert_eq!(a.minus(&b), CpuMask::from_iter([1, 2]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&CpuMask::single(9)));
    }

    #[test]
    fn subset_relation() {
        let a = CpuMask::from_iter([1, 2]);
        let b = CpuMask::from_iter([1, 2, 3]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(CpuMask::empty().subset_of(&a));
    }

    #[test]
    fn first_and_iter_order() {
        let m = CpuMask::from_iter([70, 3, 130]);
        assert_eq!(m.first(), Some(3));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 70, 130]);
    }

    #[test]
    fn cross_word_boundaries() {
        let mut m = CpuMask::empty();
        m.set(63);
        m.set(64);
        m.set(255);
        assert_eq!(m.count(), 3);
        assert!(m.contains(63) && m.contains(64) && m.contains(255));
    }

    #[test]
    #[should_panic]
    fn out_of_range_set_panics() {
        let mut m = CpuMask::empty();
        m.set(MAX_CPUS);
    }

    #[test]
    fn clear_out_of_range_is_noop() {
        let mut m = CpuMask::first_n(4);
        m.clear(9999);
        assert_eq!(m.count(), 4);
    }
}
