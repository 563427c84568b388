//! Chaos cell: adaptability under seed-driven fault injection.
//!
//! A fig16-style adaptability experiment driven by a
//! [`FaultPlan`] instead of a hand-written phase
//! script: an 8-vCPU pinned VM serves latency-sensitive requests while the
//! host misbehaves — stressor bursts, quota churn, re-pinning, vCPU
//! offline/online, DVFS steps, probe noise — on a replayable schedule.
//! Stock CFS is compared against full vSched with the resilience layer on
//! (confidence scoring + degraded mode). The question the cell answers:
//! when the vCPU abstraction lies, does vSched degrade *gracefully* —
//! tail latency no worse than vanilla CFS on the very same faulted host —
//! while its traced invariants keep holding?

use crate::common::{check_report, checked_collector, Mode, Scale};
use crate::runner::{take, Grid};
use hostsim::{ChaosSpec, FaultPlan, HostSpec, Machine, VmSpec};
use metrics::Table;
use simcore::plan::Plan;
use simcore::time::{MS, SEC};
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::{ResilCfg, VschedConfig};
use workloads::{work_ms, LatencyServer, LatencyServerCfg};

/// VM size for the chaos cell.
pub const NR_VCPUS: usize = 8;

/// Scheduler under test in one chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Stock CFS (the graceful-degradation baseline).
    Cfs,
    /// Full vSched with the resilience layer enabled.
    VschedResilient,
    /// vSched pinned in degraded mode (entry threshold above any reachable
    /// confidence): measures what degradation itself costs. The graceful-
    /// degradation gate compares this against CFS on the same faulted host.
    VschedForcedDegraded,
}

impl ChaosMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosMode::Cfs => "CFS",
            ChaosMode::VschedResilient => "vSched+resilience",
            ChaosMode::VschedForcedDegraded => "vSched degraded",
        }
    }
}

/// One chaos run's outcome.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// p99 end-to-end request latency (ms).
    pub p99_ms: f64,
    /// Median end-to-end request latency (ms).
    pub p50_ms: f64,
    /// Completed requests.
    pub completed: u64,
    /// Faults the plan injected.
    pub faults: usize,
    /// Degraded-mode episodes (including one still open at run end).
    pub degraded_episodes: u64,
    /// ivh pulls abandoned by the resilience watchdog.
    pub watchdog_abandons: u64,
    /// Trace events observed by the streaming checker.
    pub trace_events: u64,
    /// Invariant violations (must be 0).
    pub violations: u64,
    /// Law name of the first violation, if any — the seed shrinker's
    /// comparison key (not rendered in figure output).
    pub first_law: Option<String>,
}

/// Mixed into the cell seed to seed the fault plan; the plan's recorded
/// seed XOR this recovers the cell seed (see `shrink::ShrinkPlan`).
pub const PLAN_SALT: u64 = 0xC0A5;

/// Builds the fault schedule a chaos run at this scale uses.
pub fn plan_for(horizon_secs: u64, seed: u64) -> (ChaosSpec, FaultPlan) {
    let spec = ChaosSpec::for_pinned_vm(0, NR_VCPUS, horizon_secs * SEC);
    let plan = FaultPlan::generate(seed ^ PLAN_SALT, &spec);
    (spec, plan)
}

/// Runs one chaos cell: same host, same faults, one scheduler.
pub fn run_mode(mode: ChaosMode, horizon_secs: u64, seed: u64) -> ChaosOutcome {
    let (_, plan) = plan_for(horizon_secs, seed);
    run_plan(mode, &plan, seed)
}

/// Runs one chaos cell under an explicit fault plan (the shrinker and
/// `suite --replay` drive arbitrary — typically subset — plans through the
/// very same scenario the seeded cell uses).
pub fn run_plan(mode: ChaosMode, plan: &FaultPlan, seed: u64) -> ChaosOutcome {
    let mut m = Machine::new(HostSpec::flat(NR_VCPUS), seed);
    let vm = m.add_vm(VmSpec::pinned(NR_VCPUS, 0));
    let spec = plan.spec().clone();
    plan.apply(&mut m);
    let shared = checked_collector();
    m.attach_trace(&shared);
    // Offered load ≈ 50% of nominal capacity: fault transients push the
    // faulted vCPUs past saturation, so scheduling quality shows in the
    // tail.
    let service = work_ms(0.5);
    let interarrival = service / 1024.0 / NR_VCPUS as f64 / 0.5;
    let cfg = LatencyServerCfg::new(NR_VCPUS, service, interarrival);
    let (wl, stats) = LatencyServer::new(cfg, SimRng::new(seed ^ 0xF1));
    m.set_workload(vm, Box::new(wl));
    match mode {
        ChaosMode::Cfs => {}
        ChaosMode::VschedResilient => Mode::install_custom(
            &mut m,
            vm,
            VschedConfig::full().with_resilience(ResilCfg::default()),
        ),
        ChaosMode::VschedForcedDegraded => Mode::install_custom(
            &mut m,
            vm,
            VschedConfig::full().with_resilience(ResilCfg {
                // Confidence lives in [0, 1]: entry at 1.5 is unreachable,
                // so the VM degrades at the first watchdog tick and never
                // exits.
                enter_confidence: 1.5,
                exit_confidence: 2.0,
                ..ResilCfg::default()
            }),
        ),
    }
    m.start();
    // Past the horizon plus the longest transient, so every reversal fires
    // and the host ends in its nominal configuration.
    m.run_until(SimTime::from_ns(
        spec.start.ns() + spec.horizon_ns + 600 * MS,
    ));
    let (episodes, abandons) = m.with_vm(vm, |g, _| {
        vsched::instance(g)
            .and_then(|vs| {
                vs.resil
                    .as_ref()
                    .map(|r| (r.episodes + u64::from(r.degraded()), r.watchdog_abandons))
            })
            .unwrap_or((0, 0))
    });
    let rep = check_report(&shared);
    let st = stats.borrow();
    ChaosOutcome {
        p99_ms: st.e2e.p99() as f64 / MS as f64,
        p50_ms: st.e2e.p50() as f64 / MS as f64,
        completed: st.completed,
        faults: plan.events.len(),
        degraded_episodes: episodes,
        watchdog_abandons: abandons,
        trace_events: rep.events,
        violations: rep.violations,
        first_law: rep.first_law().map(str::to_string),
    }
}

/// The rendered chaos cell.
pub struct Chaos {
    /// Stock CFS on the faulted host.
    pub cfs: ChaosOutcome,
    /// Resilient vSched on the same faulted host.
    pub vsched: ChaosOutcome,
}

impl fmt::Display for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chaos: graceful degradation under fault injection ({} faults)",
            self.cfs.faults
        )?;
        let mut t = Table::new(&[
            "scheduler",
            "p50 ms",
            "p99 ms",
            "completed",
            "degraded",
            "abandons",
            "violations",
        ]);
        for (label, o) in [
            (ChaosMode::Cfs.label(), &self.cfs),
            (ChaosMode::VschedResilient.label(), &self.vsched),
        ] {
            t.row_owned(vec![
                label.to_string(),
                format!("{:.2}", o.p50_ms),
                format!("{:.2}", o.p99_ms),
                o.completed.to_string(),
                o.degraded_episodes.to_string(),
                o.watchdog_abandons.to_string(),
                o.violations.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        write!(
            f,
            "\np99 ratio (vSched/CFS): {:.2}x",
            self.vsched.p99_ms / self.cfs.p99_ms.max(1e-9)
        )
    }
}

/// The suite grid: one cell per scheduler, under the same seeded faults.
pub fn grid() -> Grid<(ChaosMode, ChaosOutcome), Chaos> {
    let mut g = Grid::new(
        "chaos",
        "graceful degradation under seed-driven fault injection",
        |mut rows: Vec<(ChaosMode, ChaosOutcome)>, _| Chaos {
            cfs: take(&mut rows, |r| r.0 == ChaosMode::Cfs).1,
            vsched: take(&mut rows, |r| r.0 == ChaosMode::VschedResilient).1,
        },
    );
    for (label, mode) in [
        ("cfs", ChaosMode::Cfs),
        ("vsched-resilient", ChaosMode::VschedResilient),
    ] {
        g.cell(label, move |seed, scale: Scale| {
            (mode, run_mode(mode, scale.secs(6, 20), seed))
        });
    }
    g
}
