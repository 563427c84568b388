//! VM descriptions.
//!
//! An experiment is a host plus VMs with pinning, host weights and
//! bandwidth control (§5.1 of the paper). A [`VmSpec`] describes one VM;
//! [`Machine::add_vm`](crate::Machine::add_vm) builds it.
//!
//! Pinning conventions match the paper's setups: `one_to_one` puts
//! vCPU *i* on thread *base + i* (virsh-style pinning), `stacked_pairs`
//! doubles vCPUs up on threads, and `floating` lets the host place vCPUs
//! freely (the multi-tenant experiments of §5.8).

/// How a VM's vCPUs map to hardware threads.
#[derive(Debug, Clone)]
pub enum Pinning {
    /// vCPU `i` pinned to exactly `threads[i]`.
    OneToOne(Vec<usize>),
    /// Each vCPU may run on any of the given threads.
    Floating(Vec<usize>),
    /// Explicit per-vCPU thread lists.
    PerVcpu(Vec<Vec<usize>>),
}

impl Pinning {
    /// vCPU `i` on thread `base + i` for `n` vCPUs.
    pub fn one_to_one(base: usize, n: usize) -> Self {
        Pinning::OneToOne((base..base + n).collect())
    }

    /// Pairs of vCPUs stacked on consecutive threads: vCPUs `2k` and
    /// `2k + 1` both pinned to thread `base + k`.
    pub fn stacked_pairs(base: usize, n_vcpus: usize) -> Self {
        Pinning::OneToOne((0..n_vcpus).map(|i| base + i / 2).collect())
    }

    pub(crate) fn into_affinities(self, n: usize) -> Vec<Vec<usize>> {
        match self {
            Pinning::OneToOne(threads) => {
                assert_eq!(threads.len(), n, "one thread per vCPU");
                threads.into_iter().map(|t| vec![t]).collect()
            }
            Pinning::Floating(threads) => {
                assert!(!threads.is_empty());
                vec![threads; n]
            }
            Pinning::PerVcpu(lists) => {
                assert_eq!(lists.len(), n);
                lists
            }
        }
    }
}

/// Description of one VM.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Number of vCPUs.
    pub nr_vcpus: usize,
    /// vCPU→thread mapping.
    pub pinning: Pinning,
    /// Host scheduling weight of each vCPU.
    pub weight: u64,
    /// Uniform CFS-bandwidth `(quota_ns, period_ns)`, if any.
    pub bandwidth: Option<(u64, u64)>,
}

impl VmSpec {
    /// A VM with `n` vCPUs pinned one-to-one starting at thread `base`.
    pub fn pinned(n: usize, base: usize) -> Self {
        Self {
            nr_vcpus: n,
            pinning: Pinning::one_to_one(base, n),
            weight: 1024,
            bandwidth: None,
        }
    }

    /// A VM with `n` vCPUs floating over the given threads.
    pub fn floating(n: usize, threads: Vec<usize>) -> Self {
        Self {
            nr_vcpus: n,
            pinning: Pinning::Floating(threads),
            weight: 1024,
            bandwidth: None,
        }
    }

    /// Sets explicit pinning.
    pub fn pinning(mut self, p: Pinning) -> Self {
        self.pinning = p;
        self
    }

    /// Sets uniform bandwidth control.
    pub fn bandwidth(mut self, quota_ns: u64, period_ns: u64) -> Self {
        self.bandwidth = Some((quota_ns, period_ns));
        self
    }

    /// Sets the host weight of every vCPU.
    pub fn weight(mut self, w: u64) -> Self {
        self.weight = w;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::topology::HostSpec;

    #[test]
    fn one_to_one_pinning_expands() {
        let p = Pinning::one_to_one(4, 3);
        assert_eq!(p.into_affinities(3), vec![vec![4], vec![5], vec![6]]);
    }

    #[test]
    fn stacked_pairs_double_up() {
        let p = Pinning::stacked_pairs(0, 4);
        assert_eq!(
            p.into_affinities(4),
            vec![vec![0], vec![0], vec![1], vec![1]]
        );
    }

    #[test]
    fn floating_repeats_mask() {
        let p = Pinning::Floating(vec![0, 1]);
        assert_eq!(p.into_affinities(2), vec![vec![0, 1], vec![0, 1]]);
    }

    #[test]
    #[should_panic]
    fn one_to_one_size_mismatch_panics() {
        Pinning::one_to_one(0, 2).into_affinities(3);
    }

    #[test]
    fn builder_assembles_machine() {
        let mut m = Machine::new(HostSpec::flat(4), 1);
        let vm0 = m.add_vm(VmSpec::pinned(4, 0));
        let vm1 = m.add_vm(
            VmSpec::pinned(4, 0)
                .bandwidth(5_000_000, 10_000_000)
                .weight(2048),
        );
        m.add_host_load(3, 1024);
        assert_eq!(vm0, 0);
        assert_eq!(vm1, 1);
        assert_eq!(m.vms.len(), 2);
        assert_eq!(m.vcpus.len(), 8);
        assert_eq!(m.vcpus[m.gv(1, 0)].weight, 2048);
    }
}
