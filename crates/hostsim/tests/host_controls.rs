//! Host-control edge cases: runtime bandwidth changes, re-pinning,
//! host-load lifecycle, samplers, and the quantum knobs.

use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, Workload};
use simcore::time::{MS, SEC};
use simcore::SimTime;
use vsched_hostsim::{HostSpec, Machine, ScriptAction, VmSpec};

struct Spin(usize);

impl Workload for Spin {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        for _ in 0..self.0 {
            let t = guest.spawn(plat, SpawnSpec::normal(guest.kern.nr_vcpus()));
            guest.wake_task(plat, t, None);
        }
    }
    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: u64) {}
    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        TaskAction::Compute { work: 1.0e18 }
    }
}

fn work(m: &Machine, vm: usize) -> f64 {
    (0..m.vms[vm].nr_vcpus)
        .map(|i| m.vcpus[m.gv(vm, i)].delivered_work)
        .sum()
}

#[test]
fn bandwidth_can_be_changed_and_removed_at_runtime() {
    let mut m = Machine::new(HostSpec::flat(1), 1);
    let vm = m.add_vm(VmSpec::pinned(1, 0));
    m.set_workload(vm, Box::new(Spin(1)));
    // Throttle to 25% after 1 s, release after 2 s.
    m.at(
        SimTime::from_secs(1),
        ScriptAction::SetBandwidth {
            vm,
            vcpu: 0,
            qp: Some((MS, 4 * MS)),
        },
    );
    m.at(
        SimTime::from_secs(2),
        ScriptAction::SetBandwidth {
            vm,
            vcpu: 0,
            qp: None,
        },
    );
    m.start();
    m.run_until(SimTime::from_secs(3));
    // 1 s full + 1 s quarter + 1 s full = 2.25 core-seconds.
    let w = work(&m, vm);
    let expect = 2.25 * 1024.0 * SEC as f64;
    assert!(
        (w - expect).abs() / expect < 0.05,
        "work {w:.3e} vs {expect:.3e}"
    );
}

#[test]
fn repinning_moves_execution() {
    let mut m = Machine::new(HostSpec::flat(2), 2);
    let vm = m.add_vm(VmSpec::pinned(1, 0));
    m.set_workload(vm, Box::new(Spin(1)));
    m.at(
        SimTime::from_secs(1),
        ScriptAction::SetAffinity {
            vm,
            vcpu: 0,
            threads: vec![1],
        },
    );
    m.start();
    m.run_until(SimTime::from_secs(2));
    // The vCPU kept its full rate across the move.
    let w = work(&m, vm);
    let expect = 2.0 * 1024.0 * SEC as f64;
    assert!((w - expect).abs() / expect < 0.02, "work {w:.3e}");
}

#[test]
fn host_load_add_remove_restores_capacity() {
    let mut m = Machine::new(HostSpec::flat(1), 3);
    let vm = m.add_vm(VmSpec::pinned(1, 0));
    m.set_workload(vm, Box::new(Spin(1)));
    m.at(
        SimTime::from_secs(1),
        ScriptAction::AddLoad {
            thread: 0,
            weight: 1024,
        },
    );
    m.at(SimTime::from_secs(2), ScriptAction::RemoveLoad { id: 0 });
    m.start();
    m.run_until(SimTime::from_secs(3));
    // 1 s full + 1 s half + 1 s full.
    let w = work(&m, vm);
    let expect = 2.5 * 1024.0 * SEC as f64;
    assert!(
        (w - expect).abs() / expect < 0.05,
        "work {w:.3e} vs {expect:.3e}"
    );
}

#[test]
fn per_thread_quanta_set_inactive_periods() {
    // Two VMs share a core; quantum 8 ms → preemption gaps ≈ 8 ms.
    let mut m = Machine::new(HostSpec::flat(1), 4);
    let vm0 = m.add_vm(VmSpec::pinned(1, 0));
    let vm1 = m.add_vm(VmSpec::pinned(1, 0));
    m.set_thread_quantum(0, 8 * MS);
    m.set_workload(vm0, Box::new(Spin(1)));
    m.set_workload(vm1, Box::new(Spin(1)));
    m.start();
    m.run_until(SimTime::from_secs(2));
    let gv = m.gv(vm0, 0);
    // ~125 preemptions per VM over 2 s with 8 ms alternation.
    let p = m.vcpus[gv].preemptions;
    assert!((100..150).contains(&p), "preemptions {p}");
}

#[test]
fn samplers_fire_on_schedule() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut m = Machine::new(HostSpec::flat(1), 5);
    let vm = m.add_vm(VmSpec::pinned(1, 0));
    m.set_workload(vm, Box::new(Spin(1)));
    let count = Rc::new(RefCell::new(0u32));
    let c2 = Rc::clone(&count);
    m.add_sampler(
        100 * MS,
        Box::new(move |_m: &Machine| {
            *c2.borrow_mut() += 1;
        }),
    );
    m.start();
    m.run_until(SimTime::from_secs(1));
    let n = *count.borrow();
    assert!((9..=10).contains(&n), "sampler fired {n} times");
}

#[test]
fn dvfs_script_is_deterministic_and_bounded() {
    let run = || {
        let mut m = Machine::new(HostSpec::flat(1), 6);
        let vm = m.add_vm(VmSpec::pinned(1, 0));
        m.set_workload(vm, Box::new(Spin(1)));
        for (i, f) in [(0u64, 0.25), (1, 1.0), (2, 0.5)] {
            m.at(
                SimTime::from_secs(i),
                ScriptAction::SetFreq { core: 0, factor: f },
            );
        }
        m.start();
        m.run_until(SimTime::from_secs(3));
        work(&m, vm)
    };
    let a = run();
    let expect = (0.25 + 1.0 + 0.5) * 1024.0 * SEC as f64;
    assert!((a - expect).abs() / expect < 0.02, "work {a:.3e}");
    assert_eq!(a, run(), "deterministic");
}

#[test]
fn stacked_vcpus_share_one_thread() {
    let mut m = Machine::new(HostSpec::flat(2), 7);
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 2,
        pinning: vsched_hostsim::Pinning::stacked_pairs(0, 2),
        weight: 1024,
        bandwidth: None,
    });
    m.set_workload(vm, Box::new(Spin(2)));
    m.start();
    m.run_until(SimTime::from_secs(2));
    // Both spinners share thread 0: combined work = one core's worth.
    let w = work(&m, vm);
    let one_core = 2.0 * 1024.0 * SEC as f64; // 2 s × 1 core
    assert!(
        (w - one_core).abs() / one_core < 0.05,
        "work {w:.3e} vs one core {one_core:.3e}"
    );
    // Each vCPU got roughly half.
    let w0 = m.vcpus[m.gv(vm, 0)].delivered_work;
    let w1 = m.vcpus[m.gv(vm, 1)].delivered_work;
    assert!((w0 / w1 - 1.0).abs() < 0.2, "split {w0:.3e}/{w1:.3e}");
}
