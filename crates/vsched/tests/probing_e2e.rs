//! End-to-end prober validation: vSched installed in a VM on the simulated
//! host must measure capacity, activity, and topology correctly.

use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, VcpuId, Workload};
use hostsim::{HostSpec, Machine, Pinning, VmSpec};
use simcore::time::MS;
use simcore::SimTime;
use vsched::{Vsched, VschedConfig};

/// CPU-bound spinner tasks.
struct Spinners(usize);

impl Workload for Spinners {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.0 {
            let t = guest.spawn(plat, SpawnSpec::normal(nr));
            guest.wake_task(plat, t, None);
        }
    }
    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: u64) {}
    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        TaskAction::Compute { work: 1.0e18 }
    }
    fn label(&self) -> &str {
        "spinners"
    }
}

fn install(m: &mut hostsim::Machine, vm: usize, cfg: VschedConfig) {
    m.with_vm(vm, |g, p| vsched::install(g, p, cfg));
}

fn vs(m: &mut hostsim::Machine, vm: usize) -> &mut Vsched {
    vsched::instance(&mut m.vms[vm].guest).expect("vsched installed")
}

#[test]
fn vcap_measures_half_share() {
    // Two VMs share one core; each vCPU gets ~50% → probed capacity ~512.
    let mut m = Machine::new(HostSpec::flat(1), 1);
    let vm0 = m.add_vm(VmSpec::pinned(1, 0));
    let vm1 = m.add_vm(VmSpec::pinned(1, 0));
    m.set_workload(vm0, Box::new(Spinners(1)));
    m.set_workload(vm1, Box::new(Spinners(1)));
    install(&mut m, vm0, VschedConfig::probers_only());
    m.start();
    m.run_until(SimTime::from_secs(8));
    let cap = vs(&mut m, vm0).vcap.capacity(VcpuId(0));
    assert!(
        (cap - 512.0).abs() < 90.0,
        "expected ~512 capacity, probed {cap}"
    );
}

#[test]
fn vcap_measures_asymmetric_shares() {
    // vCPU 0 uncontended, vCPU 1 shares with a competing VM.
    let mut m = Machine::new(HostSpec::flat(2), 2);
    let vm0 = m.add_vm(VmSpec::pinned(2, 0));
    let vm1 = m.add_vm(VmSpec {
        nr_vcpus: 1,
        pinning: Pinning::OneToOne(vec![1]),
        weight: 1024,
        bandwidth: None,
    });
    m.set_workload(vm0, Box::new(Spinners(2)));
    m.set_workload(vm1, Box::new(Spinners(1)));
    install(&mut m, vm0, VschedConfig::probers_only());
    m.start();
    m.run_until(SimTime::from_secs(8));
    let v = vs(&mut m, vm0);
    let cap0 = v.vcap.capacity(VcpuId(0));
    let cap1 = v.vcap.capacity(VcpuId(1));
    assert!(cap0 > 900.0, "dedicated vCPU capacity {cap0}");
    assert!(
        (cap1 - 512.0).abs() < 100.0,
        "contended vCPU capacity {cap1}"
    );
}

#[test]
fn vact_measures_vcpu_latency_under_bandwidth_control() {
    // quota 5 ms / period 10 ms → inactive periods of ~5 ms.
    let mut m = Machine::new(HostSpec::flat(1), 3);
    let vm = m.add_vm(VmSpec::pinned(1, 0).bandwidth(5 * MS, 10 * MS));
    m.set_workload(vm, Box::new(Spinners(1)));
    install(&mut m, vm, VschedConfig::probers_only());
    m.start();
    m.run_until(SimTime::from_secs(8));
    let lat = vs(&mut m, vm).vact.latency_ns(VcpuId(0));
    assert!(
        (4 * MS..=7 * MS).contains(&lat),
        "expected ~5 ms vCPU latency, probed {} us",
        lat / 1000
    );
}

#[test]
fn vact_reports_zero_latency_for_dedicated_vcpu() {
    let mut m = Machine::new(HostSpec::flat(1), 4);
    let vm = m.add_vm(VmSpec::pinned(1, 0));
    m.set_workload(vm, Box::new(Spinners(1)));
    install(&mut m, vm, VschedConfig::probers_only());
    m.start();
    m.run_until(SimTime::from_secs(5));
    assert_eq!(vs(&mut m, vm).vact.latency_ns(VcpuId(0)), 0);
}

#[test]
fn vtop_discovers_smt_socket_and_stacking() {
    // The paper's Figure 10b setup: 8 vCPUs — vCPU0..3 on two SMT pairs of
    // socket 0; vCPU4,5 an SMT pair on socket 1; vCPU6,7 stacked on one
    // thread of socket 1.
    let host = HostSpec::new(2, 2, 2); // threads 0..3 socket0, 4..7 socket1
    let mut m = Machine::new(host, 5);
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 8,
        pinning: Pinning::OneToOne(vec![0, 1, 2, 3, 4, 5, 6, 6]),
        weight: 1024,
        bandwidth: None,
    });
    m.set_workload(vm, Box::new(Spinners(0)));
    install(&mut m, vm, VschedConfig::probers_only());
    m.start();
    m.run_until(SimTime::from_secs(5));
    let v = vs(&mut m, vm);
    let topo = v.vtop.topo.clone().expect("topology probed");
    // SMT pairs.
    assert!(topo.smt[0].contains(1), "vCPU0/1 SMT: {:?}", topo.smt[0]);
    assert!(topo.smt[2].contains(3), "vCPU2/3 SMT");
    assert!(topo.smt[4].contains(5), "vCPU4/5 SMT");
    // Stacking.
    assert!(topo.stacked[6].contains(7), "vCPU6/7 stacked");
    // Sockets.
    assert!(topo.socket[0].contains(2) && topo.socket[0].contains(3));
    assert!(!topo.socket[0].contains(4));
    assert!(topo.socket[4].contains(6) && topo.socket[4].contains(7));
    assert!(v.vtop.last_full_ns.is_some());
    // The latency matrix mirrors Figure 10b's classes.
    let mat = &v.vtop.latency_matrix;
    assert!(mat[0][1] > 0.0 && mat[0][1] < 20.0, "smt {:.1}", mat[0][1]);
    assert!(mat[6][7].is_infinite(), "stacked pair must be infinite");
}

#[test]
fn vtop_validation_is_faster_than_full_probe() {
    let host = HostSpec::new(2, 2, 2);
    let mut m = Machine::new(host, 6);
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 8,
        pinning: Pinning::OneToOne(vec![0, 1, 2, 3, 4, 5, 6, 6]),
        weight: 1024,
        bandwidth: None,
    });
    m.set_workload(vm, Box::new(Spinners(0)));
    install(&mut m, vm, VschedConfig::probers_only());
    m.start();
    m.run_until(SimTime::from_secs(10));
    let v = vs(&mut m, vm);
    assert!(v.vtop.validations >= 1, "validations ran");
    let full = v.vtop.last_full_ns.expect("full probe ran");
    let val = v.vtop.last_validate_ns.expect("validation ran");
    assert!(
        val < full,
        "validation ({val} ns) should be faster than full ({full} ns)"
    );
    assert_eq!(v.vtop.validation_failures, 0, "stable topology");
}

#[test]
fn rwc_bans_extra_stacked_vcpus() {
    let host = HostSpec::flat(3);
    let mut m = Machine::new(host, 7);
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 4,
        // vCPUs 2 and 3 stacked on thread 2.
        pinning: Pinning::OneToOne(vec![0, 1, 2, 2]),
        weight: 1024,
        bandwidth: None,
    });
    m.set_workload(vm, Box::new(Spinners(0)));
    install(&mut m, vm, VschedConfig::enhanced_cfs());
    m.start();
    m.run_until(SimTime::from_secs(5));
    let banned = {
        let v = vs(&mut m, vm);
        v.rwc.banned.clone()
    };
    assert_eq!(banned, vec![false, false, false, true], "{banned:?}");
    // The guest cgroup reflects the ban.
    let allow = m.vms[vm].guest.kern.cgroup;
    assert!(!allow.any.contains(3));
    assert!(allow.normal.contains(2));
}

#[test]
fn rwc_restricts_straggler_vcpu() {
    // One vCPU crushed by a 15x host load → straggler (< 10% of mean).
    let mut m = Machine::new(HostSpec::flat(4), 8);
    let vm = m.add_vm(VmSpec::pinned(4, 0));
    m.add_host_load(3, 15 * 1024);
    m.set_workload(vm, Box::new(Spinners(2)));
    install(&mut m, vm, VschedConfig::enhanced_cfs());
    m.start();
    m.run_until(SimTime::from_secs(10));
    let stragglers = vs(&mut m, vm).rwc.stragglers.clone();
    assert_eq!(
        stragglers,
        vec![false, false, false, true],
        "{stragglers:?}"
    );
    let allow = m.vms[vm].guest.kern.cgroup;
    assert!(
        !allow.normal.contains(3),
        "straggler excluded for normal tasks"
    );
    assert!(allow.any.contains(3), "still allowed for best-effort tasks");
}

#[test]
fn probers_overhead_is_small_on_dedicated_vm() {
    // Same workload with and without probers on a dedicated VM: throughput
    // loss stays within a few percent (paper §5.9, ~0.7%).
    let run = |with_vsched: bool| -> f64 {
        let mut m = Machine::new(HostSpec::flat(2), 9);
        let vm = m.add_vm(VmSpec::pinned(2, 0));
        m.set_workload(vm, Box::new(Spinners(2)));
        if with_vsched {
            install(&mut m, vm, VschedConfig::full());
        }
        m.start();
        m.run_until(SimTime::from_secs(5));
        (0..2).map(|i| m.vcpus[m.gv(vm, i)].delivered_work).sum()
    };
    let base = run(false);
    let with = run(true);
    let loss = 1.0 - with / base;
    assert!(
        loss < 0.06,
        "prober overhead too high: {:.2}%",
        loss * 100.0
    );
}
