//! The paper's two representative cloud VM profiles (§5.1).
//!
//! * **rcvm** — resource-constrained VM: 12 vCPUs. vCPUs 0–9 sit on 5 SMT
//!   pairs, vCPUs 10–11 are stacked on one thread. Two vCPUs (8, 9) are
//!   stragglers; the remaining eight split into the four capacity/latency
//!   types — hchl, hcll, lchl, lcll (two each). The hcll type has double
//!   the capacity and one third the latency of lchl.
//! * **hpvm** — high-performance VM: 32 vCPUs in 4 groups of 8, each group
//!   4 SMT pairs in its own socket. Three groups mirror rcvm's four types;
//!   the last group's vCPUs dedicatedly own their threads. No stragglers,
//!   no stacking.
//!
//! Capacity and activity are shaped with steady host-level contention (a
//! competing load per thread sets the share) plus per-thread scheduling
//! quanta (which set the inactive-period length — the role the paper's
//! granularity sysctls play). Steady contention keeps vCPU latency present
//! at any load, as co-located tenants do on the paper's testbed.

use hostsim::{HostSpec, Machine, Pinning, VmSpec};
use simcore::time::MS;

/// vCPU capacity/latency types used by both profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcpuType {
    /// High capacity (0.8), high latency (6 ms inactive periods).
    Hchl,
    /// High capacity (0.8), low latency (2 ms).
    Hcll,
    /// Low capacity (0.4), high latency (6 ms).
    Lchl,
    /// Low capacity (0.4), low latency (3 ms).
    Lcll,
    /// Straggler: ~5% capacity.
    Straggler,
    /// Dedicated: owns its thread outright.
    Dedicated,
    /// Stacked with a sibling vCPU on one thread.
    Stacked,
}

impl VcpuType {
    /// `(competing host-load weight, thread quantum)` shaping this type;
    /// `None` = no competing load.
    pub fn contention(&self) -> Option<(u64, u64)> {
        match self {
            // share 0.8, inactive periods ~6 ms.
            VcpuType::Hchl => Some((256, 6 * MS)),
            // share 0.8, inactive periods ~2 ms.
            VcpuType::Hcll => Some((256, 2 * MS)),
            // share 0.4, inactive periods ~6 ms.
            VcpuType::Lchl => Some((1536, 6 * MS)),
            // share 0.4, inactive periods ~3 ms.
            VcpuType::Lcll => Some((1536, 3 * MS)),
            // share ~0.03 ("extremely low capacity").
            VcpuType::Straggler => Some((31 * 1024, 4 * MS)),
            VcpuType::Dedicated | VcpuType::Stacked => None,
        }
    }
}

/// A built profile: machine plus the VM index of the profiled guest.
pub struct Profile {
    /// The machine.
    pub machine: Machine,
    /// The profiled VM.
    pub vm: usize,
    /// vCPU type per vCPU.
    pub types: Vec<VcpuType>,
}

/// vCPU types of the rcvm profile, in vCPU order.
pub fn rcvm_types() -> Vec<VcpuType> {
    use VcpuType::*;
    vec![
        Hchl, Hchl, Hcll, Hcll, Lchl, Lchl, Lcll, Lcll, Straggler, Straggler, Stacked, Stacked,
    ]
}

/// Builds the rcvm: 12 vCPUs on one socket's SMT pairs plus a stacked pair.
pub fn rcvm(seed: u64) -> Profile {
    rcvm_with(|host| Machine::new(host, seed))
}

/// [`rcvm`] on the machine `machine` builds for the profile's host.
pub fn rcvm_with(machine: impl FnOnce(HostSpec) -> Machine) -> Profile {
    // Host: 1 socket × 8 cores × SMT2 = 16 threads; vCPUs 0..9 on threads
    // 0..9 (5 SMT pairs), vCPUs 10, 11 stacked on thread 10.
    let types = rcvm_types();
    let mut pins: Vec<usize> = (0..10).collect();
    pins.push(10);
    pins.push(10);
    let mut machine = machine(HostSpec::new(1, 8, 2));
    let vm = machine.add_vm(VmSpec {
        nr_vcpus: 12,
        pinning: Pinning::OneToOne(pins),
        weight: 1024,
        bandwidth: None,
    });
    for (i, ty) in types.iter().enumerate() {
        if let Some((w, q)) = ty.contention() {
            machine.add_host_load(i, w);
            machine.set_thread_quantum(i, q);
        }
    }
    Profile { machine, vm, types }
}

/// vCPU types of the hpvm profile, in vCPU order.
pub fn hpvm_types() -> Vec<VcpuType> {
    use VcpuType::*;
    let group = [Hchl, Hchl, Hcll, Hcll, Lchl, Lchl, Lcll, Lcll];
    let mut out = Vec::new();
    for _ in 0..3 {
        out.extend_from_slice(&group);
    }
    out.extend(std::iter::repeat_n(Dedicated, 8));
    out
}

/// Builds the hpvm: 32 vCPUs across 4 sockets (4 SMT pairs each).
pub fn hpvm(seed: u64) -> Profile {
    hpvm_with(|host| Machine::new(host, seed))
}

/// [`hpvm`] on the machine `machine` builds for the profile's host.
pub fn hpvm_with(machine: impl FnOnce(HostSpec) -> Machine) -> Profile {
    // Host: 4 sockets × 4 cores × SMT2 = 32 threads; group g occupies
    // threads g*8 .. g*8+8.
    let types = hpvm_types();
    let pins: Vec<usize> = (0..32).collect();
    let mut machine = machine(HostSpec::new(4, 4, 2));
    let vm = machine.add_vm(VmSpec {
        nr_vcpus: 32,
        pinning: Pinning::OneToOne(pins),
        weight: 1024,
        bandwidth: None,
    });
    for (i, ty) in types.iter().enumerate() {
        if let Some((w, q)) = ty.contention() {
            machine.add_host_load(i, w);
            machine.set_thread_quantum(i, q);
        }
    }
    Profile { machine, vm, types }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcvm_shape_matches_paper() {
        let t = rcvm_types();
        assert_eq!(t.len(), 12);
        assert_eq!(t.iter().filter(|x| **x == VcpuType::Straggler).count(), 2);
        assert_eq!(t.iter().filter(|x| **x == VcpuType::Stacked).count(), 2);
        let p = rcvm(1);
        assert_eq!(p.machine.vms[p.vm].nr_vcpus, 12);
        // Stacked vCPUs share thread 10.
        assert_eq!(p.machine.vcpus[p.machine.gv(p.vm, 10)].affinity, vec![10]);
        assert_eq!(p.machine.vcpus[p.machine.gv(p.vm, 11)].affinity, vec![10]);
    }

    #[test]
    fn hpvm_shape_matches_paper() {
        let t = hpvm_types();
        assert_eq!(t.len(), 32);
        assert!(!t.contains(&VcpuType::Straggler));
        assert!(!t.contains(&VcpuType::Stacked));
        assert_eq!(t.iter().filter(|x| **x == VcpuType::Dedicated).count(), 8);
        let p = hpvm(1);
        // Four sockets on the host.
        assert_eq!(p.machine.spec.sockets, 4);
        // vCPU 8 sits in socket 1.
        assert_eq!(p.machine.spec.socket_of(8), 1);
    }

    #[test]
    fn hcll_vs_lchl_relation() {
        // hcll: double capacity, one third the latency of lchl (§5.1).
        let (hw, hq) = VcpuType::Hcll.contention().unwrap();
        let (lw, lq) = VcpuType::Lchl.contention().unwrap();
        let h_share = 1024.0 / (1024.0 + hw as f64);
        let l_share = 1024.0 / (1024.0 + lw as f64);
        assert!((h_share / l_share - 2.0).abs() < 1e-9);
        assert_eq!(lq / hq, 3);
    }
}
