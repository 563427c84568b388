//! Chaos gates: fault injection, graceful degradation, determinism.
//!
//! Every test drives a real `Machine` through a seed-generated
//! [`FaultPlan`] with the streaming invariant checker attached. The gates:
//!
//! * each fault class in isolation leaves every traced invariant intact
//!   (and, trivially, completes without a panic);
//! * the resilience layer's degraded mode both enters under sustained
//!   chaos and exits once the host calms down;
//! * degraded vSched is *graceful*: its p99 stays within 1.10× of vanilla
//!   CFS on the very same faulted host;
//! * a fixed seed replays byte-identically, and plans are structurally
//!   sound across a randomized seed sweep.
//!
//! `SWEEP_SEED` (drawn by `ci.sh`'s randomized sweeps) points the
//! invariant sweep at an arbitrary seed; the failure message prints the
//! seed so a CI hit replays locally.

use vsched_repro::experiments::chaos::{self, ChaosMode};
use vsched_repro::experiments::common::{check_report, checked_collector};
use vsched_repro::experiments::runner::CellCtx;
use vsched_repro::experiments::Scale;
use vsched_repro::hostsim::{ChaosSpec, FaultPlan, HostSpec, Machine, VmSpec};
use vsched_repro::simcore::plan::Plan;
use vsched_repro::simcore::propcheck;
use vsched_repro::simcore::time::{MS, SEC};
use vsched_repro::simcore::{SimRng, SimTime};
use vsched_repro::trace::FaultClass;
use vsched_repro::vsched::{ResilCfg, VschedConfig};
use vsched_repro::workloads::{work_ms, LatencyServer, LatencyServerCfg};

/// The independently injectable fault classes (`VcpuOnline` is only ever
/// scheduled as an offline's reversal).
const CLASSES: [FaultClass; 6] = [
    FaultClass::StressorBurst,
    FaultClass::QuotaChurn,
    FaultClass::PinChange,
    FaultClass::VcpuOffline,
    FaultClass::CapacityStep,
    FaultClass::ProbeNoise,
];

/// Runs resilient vSched under a plan restricted to `classes`, returns
/// `(check report, degraded episodes incl. an open one, abandons)`.
fn run_chaos(
    seed: u64,
    classes: &[FaultClass],
    mean_interval_ns: u64,
    horizon_ns: u64,
    run_secs: u64,
    resil: ResilCfg,
) -> (vsched_repro::trace::CheckReport, u64, u64) {
    let nr = 4;
    let mut m = Machine::new(HostSpec::flat(nr), seed);
    let vm = m.add_vm(VmSpec::pinned(nr, 0));
    let mut spec = ChaosSpec::for_pinned_vm(vm, nr, horizon_ns).mean_interval(mean_interval_ns);
    spec.classes = classes.to_vec();
    let plan = FaultPlan::generate(seed, &spec);
    plan.apply(&mut m);
    let shared = checked_collector();
    m.attach_trace(&shared);
    let service = work_ms(0.5);
    let interarrival = service / 1024.0 / nr as f64 / 0.5;
    let (wl, _stats) = LatencyServer::new(
        LatencyServerCfg::new(nr, service, interarrival),
        SimRng::new(seed ^ 0xF1),
    );
    m.set_workload(vm, Box::new(wl));
    m.with_vm(vm, |g, p| {
        vsched_repro::vsched::install(g, p, VschedConfig::full().with_resilience(resil))
    });
    m.start();
    m.run_until(SimTime::from_secs(run_secs));
    let (episodes, abandons) = m.with_vm(vm, |g, _| {
        let vs = vsched_repro::vsched::instance(g).expect("vsched installed");
        let r = vs.resil.as_ref().expect("resilience enabled");
        (r.episodes + u64::from(r.degraded()), r.watchdog_abandons)
    });
    (check_report(&shared), episodes, abandons)
}

#[test]
fn every_fault_class_keeps_invariants() {
    // One class at a time: a violation here pins the breakage to a single
    // fault mechanism. The run itself completing is the no-panic gate.
    let seed = propcheck::sweep_seed(42);
    for class in CLASSES {
        let (report, _, _) = run_chaos(seed, &[class], 400 * MS, 2 * SEC, 3, ResilCfg::default());
        assert!(report.events > 0, "{class:?}: no trace events");
        assert!(
            report.ok(),
            "{class:?} violated an invariant (SWEEP_SEED={seed}):\n{report}"
        );
    }
}

#[test]
fn all_fault_classes_together_keep_invariants() {
    let seed = propcheck::sweep_seed(42);
    let (report, _, _) = run_chaos(seed, &CLASSES, 250 * MS, 3 * SEC, 4, ResilCfg::default());
    assert!(report.events > 0);
    assert!(
        report.ok(),
        "combined chaos violated an invariant (SWEEP_SEED={seed}):\n{report}"
    );
}

#[test]
fn degraded_mode_enters_and_exits() {
    // Aggressive churn for 2 s, then 5 s of calm: the resilience layer
    // must distrust the abstraction while it lies and re-trust it after.
    // QuotaChurn + CapacityStep swing the probed capacities hard;
    // ProbeNoise corrupts the measurements themselves.
    let (report, episodes, _) = run_chaos(
        7,
        &[
            FaultClass::QuotaChurn,
            FaultClass::CapacityStep,
            FaultClass::ProbeNoise,
        ],
        120 * MS,
        2 * SEC,
        8,
        ResilCfg::default(),
    );
    assert!(
        report.ok(),
        "degradation cycle violated an invariant:\n{report}"
    );
    assert!(episodes >= 1, "sustained chaos never degraded the VM");
    // The trace checker separately enforces enter/exit alternation and a
    // truthful `after_ns`; a completed episode count (not an open flag)
    // proves at least one exit fired.
}

#[test]
fn offlined_pull_targets_are_abandoned_by_watchdog() {
    // vCPU offlining is the fault that strands ivh pulls: a pre-woken
    // target that never starts would hold its slot forever. Frequent
    // offlines plus a harvest-friendly workload must exercise the
    // watchdog path without tripping the pull-resolution invariant.
    let (report, _, _) = run_chaos(
        11,
        &[FaultClass::VcpuOffline],
        200 * MS,
        3 * SEC,
        4,
        ResilCfg::default(),
    );
    assert!(
        report.ok(),
        "offline chaos violated an invariant:\n{report}"
    );
    assert_eq!(
        report.pending_ivh, 0,
        "pulls left in flight at trace end despite the watchdog"
    );
}

#[test]
fn degraded_p99_stays_close_to_vanilla_cfs() {
    // The graceful-degradation gate: on the same faulted host, vSched
    // pinned in degraded mode must deliver a p99 within 1.10× of stock
    // CFS. Fixed seeds: this is a property of the degraded configuration
    // (bvs/ivh off, heavy probes suppressed), not of lucky noise.
    for seed in [42u64, 7, 1234] {
        let ctx = CellCtx::new(seed, Scale::Quick);
        let cfs = chaos::run_mode(&ctx, ChaosMode::Cfs, 5);
        let deg = chaos::run_mode(&ctx, ChaosMode::VschedForcedDegraded, 5);
        assert_eq!(cfs.violations, 0, "CFS run violated an invariant");
        assert_eq!(deg.violations, 0, "degraded run violated an invariant");
        assert!(
            deg.p99_ms <= 1.10 * cfs.p99_ms,
            "seed {seed}: degraded p99 {:.3}ms > 1.10 x CFS p99 {:.3}ms",
            deg.p99_ms,
            cfs.p99_ms
        );
    }
}

#[test]
fn fixed_seed_replays_byte_identically() {
    // The full outcome of a chaos run — plan rendering and every reported
    // number — must be a pure function of the seed.
    let ctx = CellCtx::new(99, Scale::Quick);
    let a = chaos::run_mode(&ctx, ChaosMode::VschedResilient, 4);
    let b = chaos::run_mode(&ctx, ChaosMode::VschedResilient, 4);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let (_, plan_a) = chaos::plan_for(4, 99);
    let (_, plan_b) = chaos::plan_for(4, 99);
    assert_eq!(plan_a.describe(), plan_b.describe());
}
