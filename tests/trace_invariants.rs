//! Trace-driven invariant gates on the suite's cells.
//!
//! Every cell builds its machines through its [`CellCtx`], so one traced
//! context replays any cell with the streaming conservation-law checker
//! attached to each machine: a task runs on at most one vCPU, steal
//! accounting closes every waiting window exactly, delivered work never
//! exceeds capacity × active time, per-vCPU `min_vruntime` is monotonic,
//! and every ivh pull attempt resolves exactly once. [`gate_cell`] runs a
//! cell untraced and traced at the same seed and demands identical rows
//! and clean collectors. A violation here means the simulator broke a
//! scheduler law, not that a figure's numbers drifted; a row mismatch
//! means emitting a trace branched the simulation.

use vsched_repro::experiments::runner::{cell_seed, registry, CellCtx, Job};
use vsched_repro::experiments::Scale;
use vsched_repro::hostsim::{ChaosSpec, FaultPlan, HostSpec, Machine, VmSpec};
use vsched_repro::simcore::json::Json;
use vsched_repro::simcore::time::{MS, SEC};
use vsched_repro::simcore::SimTime;
use vsched_repro::trace::{
    chrome_trace, Collector, EventKind, FaultClass, SharedCollector, TraceSink,
};
use vsched_repro::vsched::VschedConfig;
use vsched_repro::workloads;

/// The jobs whose cells build clusters: every host carries its own checker
/// inside the cluster, and the verdict is in the row, so their contexts
/// hand out no collector.
const FLEET_JOBS: [&str; 3] = ["fleet", "fleet-replay", "fleet-chaos"];

/// Runs cell `cell` of `job` at its suite seed for `seed`, untraced and
/// then traced, and gates the pair:
///
/// * the rows are identical (`{:?}` prints floats exactly);
/// * no row names a violated law;
/// * the traced context built every machine the cell built;
/// * every collector it handed out saw events and no violation, and a
///   single-host cell's context handed out at least one.
fn gate_cell(job: &Job, cell: usize, seed: u64, scale: Scale) {
    let label = job.label(cell);
    let at = format!("{}/{label}", job.name);
    let seed = cell_seed(seed, job.name, label);
    let plain = job.debug_row(cell, &CellCtx::new(seed, scale));
    let traced = CellCtx::traced(seed, scale);
    let before = Machine::built_on_this_thread();
    let row = job.debug_row(cell, &traced);
    let built = Machine::built_on_this_thread() - before;
    assert!(plain == row, "{at}: tracing perturbed the row");
    assert!(!row.contains("first_law: Some"), "{at}: {row}");
    assert_eq!(
        built,
        traced.machines_built(),
        "{at} built a machine its context did not see"
    );
    let reports = traced.reports();
    assert!(
        !reports.is_empty() || FLEET_JOBS.contains(&job.name),
        "{at}: the traced context handed out no collector"
    );
    for (i, r) in reports.iter().enumerate() {
        assert!(r.events > 0, "{at}: collector {i} saw no trace events");
        assert!(r.ok(), "{at}: collector {i} violated an invariant:\n{r}");
    }
}

/// Gates every cell of registry job `name` whose label `keep` selects.
fn gate_job(name: &str, scale: Scale, keep: impl Fn(&str) -> bool) {
    let job = registry()
        .into_iter()
        .find(|j| j.name == name)
        .expect("a registered job");
    let cells: Vec<usize> = (0..job.cells).filter(|&c| keep(job.label(c))).collect();
    assert!(!cells.is_empty(), "{name}: no cell selected");
    for cell in cells {
        gate_cell(&job, cell, 42, scale);
    }
}

#[test]
fn fig03_invariants_hold() {
    gate_job("fig03", Scale::Quick, |_| true);
}

#[test]
fn fig11_invariants_hold() {
    gate_job("fig11", Scale::Quick, |_| true);
}

#[test]
fn fig15_cell_invariants_hold() {
    // One ivh run exercises the full pull lifecycle (attempt / complete /
    // abandon).
    gate_job("fig15", Scale::Quick, |label| {
        label == "canneal/t=4/ivh=true"
    });
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The first cell of every job, at smoke scale: each job's machines
    // and clusters come from its context, traced or not.
    for job in registry() {
        gate_cell(&job, 0, 7, Scale::Smoke);
    }
}

/// The whole-registry gate: every cell of every job, traced against
/// untraced. Too long for the debug tier-1 run; `ci.sh` runs it in
/// release.
#[test]
#[ignore = "every cell of all 24 jobs, twice; run in release by ci.sh"]
fn every_registry_cell_traces_identically_and_law_clean() {
    for job in registry() {
        for cell in 0..job.cells {
            gate_cell(&job, cell, 42, Scale::Smoke);
        }
    }
}

#[test]
fn chrome_export_is_valid_json_with_events() {
    // A small two-VM contention scenario with full vSched, traced into a
    // ring, exported to Chrome trace-event JSON.
    let mut m = Machine::new(HostSpec::flat(4), 42);
    let vm = m.add_vm(VmSpec::pinned(4, 0));
    let stress_vm = m.add_vm(VmSpec::pinned(4, 0));
    let (_, shared) = TraceSink::shared(
        Collector::with_ring(1 << 16)
            .with_checker()
            .with_aggregates(),
    );
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
    Json::parse(&json).expect("exporter emits well-formed JSON");
    assert!(json.contains("\"traceEvents\""));
    // Schedstat aggregates ride along on the same collector.
    let stats = c
        .stats
        .as_ref()
        .expect("aggregates attached")
        .render(SimTime::from_secs(2));
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
    let mut m = Machine::new(HostSpec::flat(4), 5);
    let vm = m.add_vm(VmSpec::pinned(4, 0));
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

/// A latency-serving workload on a 4-vCPU VM contending with a 4-thread
/// stressor for 2 simulated seconds, traced into `collector`.
fn contended_silo(collector: Collector) -> SharedCollector {
    let mut m = Machine::new(HostSpec::flat(4), 42);
    let vm = m.add_vm(VmSpec::pinned(4, 0));
    let stress_vm = m.add_vm(VmSpec::pinned(4, 0));
    let (_, shared) = TraceSink::shared(collector);
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
    shared
}

#[test]
fn wake_latency_breakdown_pairs_wakeups() {
    // The latency-breakdown exporter rides on the same collector as
    // schedstat: a latency-serving workload under contention must produce
    // completed TaskWake→ContextSwitch pairs with plausible delays.
    let shared = contended_silo(Collector::default().with_aggregates());
    let c = shared.borrow();
    let wl = c.wake_latency.as_ref().expect("aggregates attached");
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

/// Schedstat then wake-latency render of [`contended_silo`] at 2 s,
/// pinned byte for byte: building the aggregates on request must not
/// change what they render.
const CONTENDED_SILO_AGGREGATES: &str = "\
version 1 (vsched-trace)
timestamp_ns 2000000000
# cpu<vm>/<vcpu> run_ns steal_ns idle_ns switches wakes migrations_in resched_ipis
cpu0/0 56130378 510986510 1432883112 222 227 93 0
cpu0/1 49369724 450960266 1499670010 192 188 70 0
cpu0/2 67428343 481646299 1450925358 237 236 94 0
cpu0/3 73131686 631529413 1295338901 298 298 109 0
cpu1/0 1943869622 56130378 0 1 1 0 0
cpu1/1 1950630276 49369724 0 1 1 1 0
cpu1/2 1932571657 67428343 0 1 1 1 0
cpu1/3 1926868314 73131686 0 1 1 1 0
# wake-to-run runqueue delay (ns)
# cpu<vm>/<vcpu> pairs mean p50 p95 p99 max
cpu0/0 222 1961248 1916928 3768320 3964928 3990437
cpu0/1 192 2159835 2392064 3833856 3964928 3989604
cpu0/2 237 1826898 1687552 3702784 3833856 3983747
cpu0/3 298 1916157 1818624 3702784 3964928 3997574
cpu1/0 1 0 0 0 0 0
cpu1/1 1 0 0 0 0 0
cpu1/2 1 0 0 0 0 0
cpu1/3 1 0 0 0 0 0
";

#[test]
fn aggregates_are_built_only_on_request() {
    // The checker alone (what fleet hosts and checked suite cells attach)
    // builds no aggregate state, and leaving it out perturbs nothing.
    let plain = contended_silo(Collector::default().with_checker());
    let with = contended_silo(Collector::default().with_checker().with_aggregates());
    let (plain, with) = (plain.borrow(), with.borrow());
    assert!(
        plain.stats.is_none(),
        "checker-only collector built schedstat"
    );
    assert!(
        plain.wake_latency.is_none(),
        "checker-only collector built wake-latency histograms"
    );
    let report = |c: &Collector| c.checker.as_ref().expect("checker").report();
    assert_eq!(report(&plain).events, report(&with).events);

    let rendered = format!(
        "{}{}",
        with.stats
            .as_ref()
            .expect("aggregates attached")
            .render(SimTime::from_secs(2)),
        with.wake_latency
            .as_ref()
            .expect("aggregates attached")
            .render()
    );
    assert_eq!(rendered, CONTENDED_SILO_AGGREGATES);
}
