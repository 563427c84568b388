//! Physical host topology.
//!
//! Sockets contain cores; cores contain SMT hardware threads. Thread ids are
//! laid out socket-major: `thread = socket * cores_per_socket * smt + core_in_socket * smt + sibling`.
//!
//! The topology also owns the physical latency model `vtop` measures
//! against: cache-line transfer latencies per sharing level, calibrated to
//! the paper's Figure 10b matrix (SMT ≈ 6 ns, same socket ≈ 48 ns, cross
//! socket ≈ 113 ns).

use guestos::CommDistance;

// Cache-line transfer latencies (ns) by sharing level.

/// Cache-line transfer latency between SMT siblings (shared L1/L2), ns.
pub(crate) const CACHELINE_SMT_NS: f64 = 6.0;
/// Cache-line transfer latency between cores of one socket (shared LLC),
/// ns.
pub(crate) const CACHELINE_LLC_NS: f64 = 48.0;
/// Cache-line transfer latency across sockets (inter-socket bus), ns.
pub(crate) const CACHELINE_CROSS_NS: f64 = 113.0;
/// Multiplicative noise amplitude of a cache-line transfer (0.08 = ±8%).
pub(crate) const CACHELINE_NOISE: f64 = 0.08;

/// Capacity factor applied to a thread while its SMT sibling is busy.
pub(crate) const SMT_CONTENTION: f64 = 0.62;
/// Last-level cache capacity per socket, in bytes (Xeon Gold 6138:
/// 27.5 MB of L3). Bounds the occupancy model in [`crate::llc`].
pub(crate) const LLC_BYTES: f64 = 27.5 * 1024.0 * 1024.0;

/// Static description of the physical machine.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Number of sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per core (1 = SMT off, 2 = hyper-threading).
    pub smt: usize,
    /// Host scheduler base quantum (ns) for a weight-1024 entity.
    pub quantum_ns: u64,
}

impl HostSpec {
    /// A host with the given shape and the default quantum.
    pub fn new(sockets: usize, cores_per_socket: usize, smt: usize) -> Self {
        assert!(sockets > 0 && cores_per_socket > 0, "degenerate host");
        assert!((1..=2).contains(&smt), "smt must be 1 or 2");
        Self {
            sockets,
            cores_per_socket,
            smt,
            quantum_ns: 4_000_000,
        }
    }

    /// The paper's evaluation host: 4 sockets × 20 cores, hyper-threading on
    /// (HPE ProLiant DL580 Gen10, 4× Xeon Gold 6138).
    pub fn paper_testbed() -> Self {
        Self::new(4, 20, 2)
    }

    /// A small host convenient for tests: 1 socket × `cores` cores, no SMT.
    pub fn flat(cores: usize) -> Self {
        Self::new(1, cores, 1)
    }

    /// Total hardware threads.
    pub fn nr_threads(&self) -> usize {
        self.sockets * self.cores_per_socket * self.smt
    }

    /// Total physical cores.
    pub fn nr_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// The core a hardware thread belongs to.
    pub fn core_of(&self, thread: usize) -> usize {
        thread / self.smt
    }

    /// The socket a hardware thread belongs to.
    pub fn socket_of(&self, thread: usize) -> usize {
        self.core_of(thread) / self.cores_per_socket
    }

    /// The SMT sibling of a thread (itself when SMT is off).
    pub fn sibling_of(&self, thread: usize) -> usize {
        if self.smt == 1 {
            thread
        } else if thread.is_multiple_of(2) {
            thread + 1
        } else {
            thread - 1
        }
    }

    /// Thread ids of a core.
    pub fn threads_of_core(&self, core: usize) -> Vec<usize> {
        (0..self.smt).map(|s| core * self.smt + s).collect()
    }

    /// Physical distance between two hardware threads.
    pub fn distance(&self, a: usize, b: usize) -> CommDistance {
        if a == b {
            CommDistance::Stacked
        } else if self.core_of(a) == self.core_of(b) {
            CommDistance::SmtSibling
        } else if self.socket_of(a) == self.socket_of(b) {
            CommDistance::SameLlc
        } else {
            CommDistance::CrossSocket
        }
    }

    /// Mean cache-line transfer latency between two distinct threads.
    /// (Same-thread "transfers" never happen: stacked vCPUs do not overlap.)
    pub fn cacheline_ns(&self, a: usize, b: usize) -> f64 {
        match self.distance(a, b) {
            CommDistance::Stacked | CommDistance::SmtSibling => CACHELINE_SMT_NS,
            CommDistance::SameLlc => CACHELINE_LLC_NS,
            CommDistance::CrossSocket => CACHELINE_CROSS_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_layout_is_socket_major() {
        let h = HostSpec::new(2, 2, 2); // 8 threads
        assert_eq!(h.nr_threads(), 8);
        assert_eq!(h.core_of(0), 0);
        assert_eq!(h.core_of(1), 0);
        assert_eq!(h.core_of(2), 1);
        assert_eq!(h.socket_of(3), 0);
        assert_eq!(h.socket_of(4), 1);
        assert_eq!(h.socket_of(7), 1);
    }

    #[test]
    fn siblings_pair_up() {
        let h = HostSpec::new(1, 2, 2);
        assert_eq!(h.sibling_of(0), 1);
        assert_eq!(h.sibling_of(1), 0);
        assert_eq!(h.sibling_of(2), 3);
        let h1 = HostSpec::flat(4);
        assert_eq!(h1.sibling_of(2), 2);
    }

    #[test]
    fn distances_follow_hierarchy() {
        let h = HostSpec::new(2, 2, 2);
        assert_eq!(h.distance(0, 0), CommDistance::Stacked);
        assert_eq!(h.distance(0, 1), CommDistance::SmtSibling);
        assert_eq!(h.distance(0, 2), CommDistance::SameLlc);
        assert_eq!(h.distance(0, 4), CommDistance::CrossSocket);
    }

    #[test]
    fn cacheline_latency_ordering() {
        let h = HostSpec::new(2, 2, 2);
        let smt = h.cacheline_ns(0, 1);
        let llc = h.cacheline_ns(0, 2);
        let cross = h.cacheline_ns(0, 4);
        assert!(smt < llc && llc < cross);
    }

    #[test]
    fn paper_testbed_shape() {
        let h = HostSpec::paper_testbed();
        assert_eq!(h.nr_cores(), 80);
        assert_eq!(h.nr_threads(), 160);
    }

    #[test]
    fn threads_of_core() {
        let h = HostSpec::new(1, 2, 2);
        assert_eq!(h.threads_of_core(1), vec![2, 3]);
    }

    #[test]
    #[should_panic]
    fn smt_over_2_rejected() {
        HostSpec::new(1, 1, 4);
    }
}
