//! Combinator behaviour: task routing, timer namespacing, and delayed
//! starts on the real machine.

use hostsim::{HostSpec, Machine, VmSpec};
use simcore::time::SEC;
use simcore::{SimRng, SimTime};
use vsched_workloads::{build, work_ms, DelayedWorkload, MultiWorkload, Stressor};

#[test]
fn multi_workload_runs_children_independently() {
    let mut m = Machine::new(HostSpec::flat(4), 1);
    let vm = m.add_vm(VmSpec::pinned(4, 0));
    let (a, sa) = Stressor::new(2, work_ms(5.0));
    let (c, sc) = Stressor::new(2, work_ms(5.0));
    m.set_workload(
        vm,
        Box::new(MultiWorkload::new(vec![Box::new(a), Box::new(c)])),
    );
    m.start();
    m.run_until(SimTime::from_secs(2));
    // Both children progressed, roughly equally (2 threads each on 4 cores).
    let ca = sa.borrow().completed;
    let cc = sc.borrow().completed;
    assert!(ca > 0 && cc > 0);
    let ratio = ca as f64 / cc as f64;
    assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
}

#[test]
fn multi_workload_routes_timers_by_namespace() {
    // Two latency servers (timer-driven arrivals) in one VM: both must
    // keep receiving their own arrival timers.
    let mut m = Machine::new(HostSpec::flat(4), 2);
    let vm = m.add_vm(VmSpec::pinned(4, 0));
    let (w1, h1) = build("masstree", 2, SimRng::new(3));
    let (w2, h2) = build("silo", 2, SimRng::new(4));
    m.set_workload(vm, Box::new(MultiWorkload::new(vec![w1, w2])));
    m.start();
    m.run_until(SimTime::from_secs(3));
    assert!(h1.completed() > 100, "masstree {}", h1.completed());
    assert!(h2.completed() > 100, "silo {}", h2.completed());
}

#[test]
fn delayed_workload_starts_on_schedule() {
    let mut m = Machine::new(HostSpec::flat(2), 3);
    let vm = m.add_vm(VmSpec::pinned(2, 0));
    let (w, s) = Stressor::new(2, work_ms(5.0));
    m.set_workload(vm, Box::new(DelayedWorkload::new(Box::new(w), 2 * SEC)));
    m.start();
    m.run_until(SimTime::from_secs(1));
    assert_eq!(s.borrow().completed, 0, "nothing before the delay");
    m.run_until(SimTime::from_secs(4));
    let done = s.borrow().completed;
    assert!(done > 0, "workload started after the delay");
    // Roughly 2 s × 2 cores / 5 ms = ~800 events.
    assert!((600..900).contains(&(done as usize)), "completed {done}");
}

#[test]
fn delayed_inside_multi_combines() {
    let mut m = Machine::new(HostSpec::flat(2), 4);
    let vm = m.add_vm(VmSpec::pinned(2, 0));
    let (early, se) = Stressor::new(1, work_ms(5.0));
    let (late, sl) = Stressor::new(1, work_ms(5.0));
    m.set_workload(
        vm,
        Box::new(MultiWorkload::new(vec![
            Box::new(early),
            Box::new(DelayedWorkload::new(Box::new(late), SEC)),
        ])),
    );
    m.start();
    m.run_until(SimTime::from_secs(2));
    let e = se.borrow().completed;
    let l = sl.borrow().completed;
    assert!(e > l, "early {e} late {l}");
    assert!(l > 0, "late child ran");
}
