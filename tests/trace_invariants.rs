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
use vsched_repro::experiments::fig11::{self, Fig11};
use vsched_repro::experiments::runner::cell_seed;
use vsched_repro::experiments::{fig15, Scale};
use vsched_repro::hostsim::{ChaosSpec, FaultPlan, HostSpec, Machine, VmSpec};
use vsched_repro::simcore::json::Json;
use vsched_repro::simcore::time::{MS, SEC};
use vsched_repro::simcore::SimTime;
use vsched_repro::trace::{
    chrome_trace, CheckReport, Collector, EventKind, FaultClass, SharedCollector, TraceSink,
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

/// Figure 11 at quick scale, all four cells run at the suite's cell seeds
/// for `seed`, each traced into its own checked collector.
fn fig11_checked(seed: u64) -> (Fig11, Vec<CheckReport>) {
    let secs = Scale::Quick.secs(10, 40);
    let seed = |label: &str| cell_seed(seed, "fig11", label);
    let cols: Vec<_> = (0..4).map(|_| checked_collector()).collect();
    let fig = Fig11 {
        asym_cfs: fig11::run_asym(false, secs, seed("asym/cfs"), Some(&cols[0])),
        asym_vcap: fig11::run_asym(true, secs, seed("asym/vcap"), Some(&cols[1])),
        sym_cfs: fig11::run_sym(false, secs, seed("sym/cfs"), Some(&cols[2])),
        sym_vcap: fig11::run_sym(true, secs, seed("sym/vcap"), Some(&cols[3])),
    };
    (fig, cols.iter().map(check_report).collect())
}

/// The ivh-enabled Figure 15 cell the checked runs exercise.
const FIG15_CELL: &str = "canneal/t=4/ivh=true";

/// [`FIG15_CELL`] for `secs` at its suite seed for `seed`, traced into a
/// checked collector: one ivh run exercises the full pull lifecycle
/// (attempt / complete / abandon).
fn fig15_checked(seed: u64, secs: u64) -> (f64, CheckReport) {
    let shared = checked_collector();
    let seed = cell_seed(seed, "fig15", FIG15_CELL);
    let rate = fig15::run_cell("canneal", 4, true, secs, seed, Some(&shared));
    (rate, check_report(&shared))
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
    assert_clean("fig11", &fig11_checked(42).1);
}

#[test]
fn fig15_cell_invariants_hold() {
    let (rate, report) = fig15_checked(42, 4);
    assert!(rate > 0.0);
    assert_clean("fig15[canneal,4,ivh]", &[report]);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Bit-identical figure results from the untraced suite grid (the sink
    // off, the default) and from the checked runs at the same cell seeds:
    // emitting must never branch the simulation.
    let plain = fig03::grid().run(7, Scale::Quick);
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

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let plain = fig11::grid().run(7, Scale::Quick);
    let (checked, _) = fig11_checked(7);
    for (p, c) in [
        (&plain.asym_cfs, &checked.asym_cfs),
        (&plain.asym_vcap, &checked.asym_vcap),
    ] {
        assert_eq!(p.high_cap_fraction.to_bits(), c.high_cap_fraction.to_bits());
        assert_eq!(p.throughput.to_bits(), c.throughput.to_bits());
        assert_eq!(bits(&p.distribution), bits(&c.distribution));
    }
    for (p, c) in [
        (&plain.sym_cfs, &checked.sym_cfs),
        (&plain.sym_vcap, &checked.sym_vcap),
    ] {
        assert_eq!(p.migrations, c.migrations);
        assert_eq!(p.throughput.to_bits(), c.throughput.to_bits());
    }

    // Figure 15's 110-cell grid is too long for a debug test; its checked
    // cell runs straight from the grid instead, at smoke scale.
    let grid = fig15::grid();
    let cell = grid
        .cells
        .iter()
        .find(|c| c.label == FIG15_CELL)
        .expect("fig15 declares the checked cell");
    let plain = cell.execute(cell_seed(7, "fig15", FIG15_CELL), Scale::Smoke);
    let (checked, _) = fig15_checked(7, Scale::Smoke.secs(8, 30));
    assert_eq!(plain.rate.to_bits(), checked.to_bits());
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
