//! Span accounting: self time under nesting, and wrappers that leave both
//! the simulation and `vsched::instance` untouched.

use perfbench::host::{segment_seed, Pass, Segment};
use perfbench::spans::{Layer, LayerTotals, Profiler};
use simcore::SimTime;
use std::rc::Rc;

/// Simulated span of the live-machine tests: enough for masstree
/// arrivals to wake workers through `select_cpu`.
const SHORT: SimTime = SimTime::from_ms(100);

#[test]
fn select_cpu_nested_in_a_workload_call_is_charged_to_vsched() {
    // One workload call over [100, 200) wakes two tasks, and each wake
    // re-enters select_cpu: [130, 150) and [160, 165).
    let mut p = Profiler::new();
    p.enter_at(Layer::Workloads, 100);
    p.enter_at(Layer::Vsched, 130);
    p.exit_at(150);
    p.enter_at(Layer::Vsched, 160);
    p.exit_at(165);
    p.exit_at(200);
    let workloads = LayerTotals {
        calls: 1,
        total_ns: 100,
        self_ns: 75,
    };
    let vsched = LayerTotals {
        calls: 2,
        total_ns: 25,
        self_ns: 25,
    };
    assert_eq!(p.totals(Layer::Workloads), workloads);
    assert_eq!(p.totals(Layer::Vsched), vsched);
    assert_eq!(p.open_spans(), 0);
}

#[test]
fn a_grandchild_is_subtracted_from_its_own_parent_only() {
    // placement [0, 100) holds workload [10, 60), which holds hook [20, 30).
    let mut p = Profiler::new();
    p.enter_at(Layer::Fleet, 0);
    p.enter_at(Layer::Workloads, 10);
    p.enter_at(Layer::Vsched, 20);
    p.exit_at(30);
    p.exit_at(60);
    p.exit_at(100);
    assert_eq!(p.totals(Layer::Fleet).self_ns, 50);
    assert_eq!(p.totals(Layer::Workloads).self_ns, 40);
    assert_eq!(p.totals(Layer::Vsched).self_ns, 10);
}

#[test]
fn wrapped_hooks_still_answer_vsched_instance() {
    let prof = Profiler::shared();
    let pass = Pass::Spans(Rc::clone(&prof));
    let mut seg = Segment::build("masstree", segment_seed(3, 0), pass);
    assert!(
        vsched::instance(seg.guest()).is_some(),
        "the wrapper hides Vsched"
    );
    seg.run(SHORT);
    let vs = vsched::instance(seg.guest()).expect("Vsched still answers after running");
    assert!(vs.cfg.bvs);
    let p = prof.borrow();
    assert!(
        p.hooks.select_cpu > 0,
        "no select_cpu went through the wrapper"
    );
    assert_eq!(p.open_spans(), 0);
}

#[test]
fn spans_leave_the_simulation_bit_identical() {
    let seed = segment_seed(11, 0);
    let mut plain = Segment::build("masstree", seed, Pass::Plain);
    plain.run(SHORT);
    let prof = Profiler::shared();
    let mut wrapped = Segment::build("masstree", seed, Pass::Spans(Rc::clone(&prof)));
    wrapped.run(SHORT);
    assert_eq!(plain.digest(), wrapped.digest());
    // Arrivals wake workers from inside workload calls, so some hook time
    // nests there and is not the workload's own.
    let wl = prof.borrow().totals(Layer::Workloads);
    assert!(wl.calls > 0 && wl.self_ns < wl.total_ns);
}
