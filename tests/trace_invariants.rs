//! Trace-driven invariant gates on the tier-1 figure experiments.
//!
//! Each checked run replays a figure with the streaming conservation-law
//! checker attached: a task runs on at most one vCPU, steal accounting
//! closes every waiting window exactly, delivered work never exceeds
//! capacity × active time, per-vCPU `min_vruntime` is monotonic, and every
//! ivh pull attempt resolves exactly once. A violation here means the
//! simulator broke a scheduler law, not that a figure's numbers drifted.

use vsched_repro::experiments::common::{check_report, checked_collector};
use vsched_repro::experiments::fig03::{self, Fig03};
use vsched_repro::experiments::runner::{cell_seed, job_parts};
use vsched_repro::experiments::{fig11, fig15, Scale};
use vsched_repro::hostsim::{ChaosSpec, FaultPlan, HostSpec, ScenarioBuilder, VmSpec};
use vsched_repro::simcore::time::{MS, SEC};
use vsched_repro::simcore::SimTime;
use vsched_repro::trace::{
    chrome_trace, validate_json, CheckReport, Collector, EventKind, FaultClass, TraceSink,
};
use vsched_repro::vsched::VschedConfig;
use vsched_repro::workloads;

fn assert_clean(figure: &str, reports: &[CheckReport]) {
    for (i, r) in reports.iter().enumerate() {
        assert!(r.events > 0, "{figure} run {i} produced no trace events");
        assert!(r.ok(), "{figure} run {i} violated an invariant:\n{r}");
    }
}

/// Figure 3 at quick scale, both modes run at the suite's cell seeds for
/// `seed`, each traced into its own checked collector.
fn fig03_checked(seed: u64) -> (Fig03, Vec<CheckReport>) {
    let secs = Scale::Quick.secs(5, 20);
    let cols = [checked_collector(), checked_collector()];
    let mode = |migrate, label, c| {
        fig03::run_mode(migrate, secs, cell_seed(seed, "fig03", label), Some(c))
    };
    let fig = Fig03 {
        default_mode: mode(false, "default", &cols[0]),
        migration_mode: mode(true, "migrate", &cols[1]),
    };
    (fig, cols.iter().map(check_report).collect())
}

#[test]
fn fig03_invariants_hold() {
    let (fig, reports) = fig03_checked(42);
    assert_clean("fig03", &reports);
    // The checked run is still the real experiment.
    assert!(fig.improvement() > 1.2, "improvement {}", fig.improvement());
}

#[test]
fn fig11_invariants_hold() {
    let secs = Scale::Quick.secs(10, 40);
    let seed = |label: &str| cell_seed(42, "fig11", label);
    let cols: Vec<_> = (0..4).map(|_| checked_collector()).collect();
    fig11::run_asym(false, secs, seed("asym/cfs"), Some(&cols[0]));
    fig11::run_asym(true, secs, seed("asym/vcap"), Some(&cols[1]));
    fig11::run_sym(false, secs, seed("sym/cfs"), Some(&cols[2]));
    fig11::run_sym(true, secs, seed("sym/vcap"), Some(&cols[3]));
    assert_clean("fig11", &cols.iter().map(check_report).collect::<Vec<_>>());
}

#[test]
fn fig15_cell_invariants_hold() {
    // One ivh-enabled cell exercises the full pull lifecycle (attempt /
    // complete / abandon) under the checker.
    let shared = checked_collector();
    let seed = cell_seed(42, "fig15", "canneal/t=4/ivh=true");
    let rate = fig15::run_cell("canneal", 4, true, 4, seed, Some(&shared));
    assert!(rate > 0.0);
    assert_clean("fig15[canneal,4,ivh]", &[check_report(&shared)]);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Bit-identical figure results with the sink off (the default) and
    // with a full collector attached: emitting must never branch the
    // simulation.
    let plain = Fig03::from_parts(job_parts("fig03", 7, Scale::Quick));
    let (checked, _) = fig03_checked(7);
    assert_eq!(
        plain.default_mode.utilization.to_bits(),
        checked.default_mode.utilization.to_bits()
    );
    assert_eq!(
        plain.migration_mode.utilization.to_bits(),
        checked.migration_mode.utilization.to_bits()
    );
    assert_eq!(plain.default_mode.segments, checked.default_mode.segments);
}

#[test]
fn chrome_export_is_valid_json_with_events() {
    // A small two-VM contention scenario with full vSched, traced into a
    // ring, exported to Chrome trace-event JSON.
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(4), 42).vm(VmSpec::pinned(4, 0));
    let (b, stress_vm) = b.vm(VmSpec::pinned(4, 0));
    let mut m = b.build();
    let (_, shared) = TraceSink::shared(Collector::with_ring(1 << 16).with_checker());
    m.attach_trace(&shared);
    let (wl, _h) = workloads::build("sysbench", 2, vsched_repro::simcore::SimRng::new(1));
    m.set_workload(vm, wl);
    let (sw, _s) = workloads::Stressor::new(4, workloads::work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    m.with_vm(vm, |g, p| {
        vsched_repro::vsched::install(g, p, VschedConfig::full())
    });
    m.start();
    m.run_until(SimTime::from_secs(2));

    let c = shared.borrow();
    let ring = c.ring.as_ref().expect("ring attached");
    assert!(!ring.is_empty(), "no events captured");
    let json = chrome_trace(ring);
    validate_json(&json).expect("exporter emits well-formed JSON");
    assert!(json.contains("\"traceEvents\""));
    // Schedstat aggregates ride along on the same collector.
    let stats = c.stats.render(SimTime::from_secs(2));
    assert!(stats.contains("vcpu"), "schedstat render:\n{stats}");
    let report = c.checker.as_ref().expect("checker").report();
    assert!(report.ok(), "invariant violation:\n{report}");
}

#[test]
fn bandwidth_and_pelt_laws_fire_under_quota_churn() {
    // A QuotaChurn-only fault plan drives the two newest checker laws
    // through their observable events: every quota change emits a
    // `BandwidthSet` (quota ≤ period or violation), the resulting
    // throttle/unthrottle cycles and idle gaps produce `PeltDecay` records
    // (load must not grow across an idle decay), and each injection is
    // annotated with a `FaultInjected` marker. The test asserts all three
    // actually appear — a law that never sees its events gates nothing.
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(4), 5).vm(VmSpec::pinned(4, 0));
    let mut m = b.build();
    let mut spec = ChaosSpec::for_pinned_vm(vm, 4, 3 * SEC).mean_interval(300 * MS);
    spec.classes = vec![FaultClass::QuotaChurn];
    let plan = FaultPlan::generate(5, &spec);
    plan.apply(&mut m);
    let (_, shared) = TraceSink::shared(Collector::with_ring(1 << 18).with_checker());
    m.attach_trace(&shared);
    let (wl, _h) = workloads::build("sysbench", 4, vsched_repro::simcore::SimRng::new(5));
    m.set_workload(vm, wl);
    m.start();
    m.run_until(SimTime::from_secs(4));

    let c = shared.borrow();
    let ring = c.ring.as_ref().expect("ring attached");
    let (mut bandwidth, mut pelt, mut faults) = (0u64, 0u64, 0u64);
    for ev in ring.iter() {
        match ev.kind {
            EventKind::BandwidthSet { .. } => bandwidth += 1,
            EventKind::PeltDecay { .. } => pelt += 1,
            EventKind::FaultInjected { .. } => faults += 1,
            _ => {}
        }
    }
    assert!(bandwidth > 0, "quota churn emitted no BandwidthSet events");
    assert!(pelt > 0, "no PeltDecay events despite throttling gaps");
    assert!(faults > 0, "fault plan injected nothing");
    let report = c.checker.as_ref().expect("checker").report();
    assert!(
        report.ok(),
        "invariant violation under quota churn:\n{report}"
    );
}

#[test]
fn wake_latency_breakdown_pairs_wakeups() {
    // The latency-breakdown exporter rides on the same collector as
    // schedstat: a latency-serving workload under contention must produce
    // completed TaskWake→ContextSwitch pairs with plausible delays.
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(4), 42).vm(VmSpec::pinned(4, 0));
    let (b, stress_vm) = b.vm(VmSpec::pinned(4, 0));
    let mut m = b.build();
    let (_, shared) = TraceSink::shared(Collector::default());
    m.attach_trace(&shared);
    let (wl, _h) = workloads::build_latency(
        "silo",
        4,
        2.0 * 1_000_000.0,
        false,
        vsched_repro::simcore::SimRng::new(9),
    );
    m.set_workload(vm, wl);
    let (sw, _s) = workloads::Stressor::new(4, workloads::work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    m.start();
    m.run_until(SimTime::from_secs(2));

    let c = shared.borrow();
    let wl = &c.wake_latency;
    assert!(wl.pairs() > 100, "only {} wake→run pairs", wl.pairs());
    // Every completed delay fits inside the run window, and at least one
    // wakeup on some vCPU actually waited (contention guarantees queueing).
    let mut max_delay = 0;
    for vcpu in 0..4u16 {
        if let Some(h) = wl.vcpu(0, vcpu) {
            assert!(h.max() <= 2_000_000_000, "delay beyond window: {}", h.max());
            max_delay = max_delay.max(h.max());
        }
    }
    assert!(max_delay > 0, "no wakeup ever waited despite contention");
    let text = wl.render();
    assert!(text.contains("# cpu<vm>/<vcpu> pairs"), "{text}");
    assert!(text.lines().any(|l| l.starts_with("cpu0/")), "{text}");
}
