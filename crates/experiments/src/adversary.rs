//! Adversary cell: scheduler-gaming guests vs domain partitioning and
//! probe hardening.
//!
//! A 4-vCPU victim VM shares its first two host threads with a hostile
//! co-tenant VM driven by a seed-deterministic [`AttackPlan`]. The matrix
//! crosses two host policies — sampled proportional share (tick-based
//! charging, the classic gameable accounting) and a seL4-style static
//! [`DomainSchedule`] — with three victim guest
//! configurations (stock CFS, stock vSched, hardened vSched with
//! resilience). Each cell answers two questions on the *same* host:
//!
//! * **steal**: how much above its fair share does a tick-dodging
//!   adversary run against a saturated victim? Positive under sampled
//!   proportional accounting; structurally near-zero once the host's
//!   domain schedule caps the Batch tenant's slice.
//! * **pollute**: what happens to the victim's request p99 when the
//!   adversary bursts interference exactly inside vSched's probe windows?
//!   Stock vSched learns false-low capacities and crowds its load; the
//!   hardened prober rejects the poisoned samples and rides degraded mode
//!   back to CFS-like placement.
//!
//! Both sub-runs stream every trace event through the PR 4 checker, so
//! the new domain/steal/rejection laws hold in every cell, and both are
//! replayable from an explicit plan (`suite --replay-adversary`) and
//! shrinkable (`suite --shrink-adversary`).

use crate::common::{check_report, checked_collector, Mode, Scale};
use crate::runner::Grid;
use hostsim::{DomainSchedule, HostSched, HostSpec, Machine, VmSpec};
use metrics::Table;
use simcore::plan::Plan;
use simcore::time::{MS, SEC};
use simcore::{SimRng, SimTime};
use std::fmt;
use trace::PriorityClass;
use vsched::{ResilCfg, VschedConfig};
use workloads::{
    work_ms, Adversary as AdversaryWorkload, AttackKind, AttackPlan, AttackSpec, LatencyServer,
    LatencyServerCfg, Stressor,
};

/// Victim VM size (vCPUs, pinned 1:1 on threads `0..4`).
pub const NR_VCPUS: usize = 4;
/// Adversary VM size (vCPUs, pinned 1:1 on threads `0..2` — it contends
/// for *half* the victim's threads, so honest placement can route around
/// it but capacity-blind placement cannot).
pub const ADV_VCPUS: usize = 2;
/// Domain schedule period: Standard and Batch alternate 2 ms / 2 ms.
pub const DOMAIN_PERIOD_NS: u64 = 4 * MS;

/// Host scheduling policy under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPolicy {
    /// Proportional share with sampled (per-tick) charging — the
    /// accounting a tick-dodger games. (The repo's exact-settling
    /// proportional mode is dodge-proof by construction; the workloads
    /// crate's integration tests pin that separately.)
    Proportional,
    /// Static per-class time domains rotated round-robin: the Batch
    /// adversary is confined to its own slice regardless of behaviour.
    Domain,
}

impl HostPolicy {
    /// Display / cell-label name.
    pub fn label(&self) -> &'static str {
        match self {
            HostPolicy::Proportional => "prop",
            HostPolicy::Domain => "domain",
        }
    }

    /// The host scheduler this policy selects.
    pub fn sched(&self) -> HostSched {
        match self {
            HostPolicy::Proportional => HostSched::CreditSampled { tick_ns: MS },
            HostPolicy::Domain => HostSched::Domain(DomainSchedule::even_pair(
                PriorityClass::Standard,
                PriorityClass::Batch,
                DOMAIN_PERIOD_NS,
            )),
        }
    }
}

/// Victim guest configuration under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestMode {
    /// Stock CFS: capacity-blind, so probe pollution cannot mislead it.
    Cfs,
    /// Stock vSched: trusts every probe sample.
    Vsched,
    /// vSched with hardened probing and the resilience layer: rejects
    /// window-targeted samples and degrades under sustained gaming.
    VschedHardened,
}

impl GuestMode {
    /// Display / cell-label name.
    pub fn label(&self) -> &'static str {
        match self {
            GuestMode::Cfs => "cfs",
            GuestMode::Vsched => "vsched",
            GuestMode::VschedHardened => "vsched-hardened",
        }
    }

    fn install(&self, m: &mut hostsim::Machine, vm: usize) {
        match self {
            GuestMode::Cfs => {}
            GuestMode::Vsched => Mode::install_custom(m, vm, VschedConfig::full()),
            GuestMode::VschedHardened => Mode::install_custom(
                m,
                vm,
                VschedConfig::full()
                    .with_hardened_probes()
                    .with_resilience(ResilCfg::default()),
            ),
        }
    }
}

/// One (policy, guest) cell's outcome: the dodge sub-run's steal
/// fraction plus the pollute sub-run's victim service quality.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// Adversary CPU share above its 50% fair share on the contended
    /// threads, dodge sub-run (0 = no steal).
    pub steal_frac: f64,
    /// Victim p99 end-to-end request latency (ms), pollute sub-run.
    pub p99_ms: f64,
    /// Victim median request latency (ms), pollute sub-run.
    pub p50_ms: f64,
    /// Victim requests completed, pollute sub-run.
    pub completed: u64,
    /// Probe samples the hardened prober rejected (0 unless hardened).
    pub rejected_samples: u64,
    /// Degraded-mode episodes (including one still open at run end).
    pub degraded_episodes: u64,
    /// Attack actions across both sub-runs' plans.
    pub attack_actions: usize,
    /// Trace events observed by the streaming checker, both sub-runs.
    pub trace_events: u64,
    /// Invariant violations (must be 0), both sub-runs.
    pub violations: u64,
    /// Law name of the first violation, if any — the shrinker's
    /// comparison key.
    pub first_law: Option<String>,
}

/// What the victim runs while under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VictimKind {
    /// Always-runnable spinners saturating every vCPU: any adversary
    /// share above 50% of the contended threads is stolen, not idle-time
    /// harvest.
    Saturated,
    /// A latency server at ~35% offered load: the pollute sub-run's p99
    /// probe.
    Serving,
}

/// Mixed into the cell seed to seed the attack plan; the plan's recorded
/// seed XOR this recovers the cell seed (see `shrink::ShrinkPlan`).
pub const PLAN_SALT: u64 = 0xAD5A;

/// Builds the attack schedule a cell at this horizon uses; `kind`
/// restricts the plan to one archetype (`None` = all three, the combined
/// plan `--shrink-adversary` and `--replay-adversary` operate on).
pub fn plan_for(kind: Option<AttackKind>, horizon_secs: u64, seed: u64) -> AttackPlan {
    let mut spec = AttackSpec::for_vm(ADV_VCPUS, horizon_secs * SEC);
    if let Some(k) = kind {
        spec = spec.only(k);
    }
    AttackPlan::generate(seed ^ PLAN_SALT, &spec)
}

/// One scenario: victim + adversary on the shared host, one policy, one
/// guest config, one explicit attack plan.
fn run_scenario(
    policy: HostPolicy,
    guest: GuestMode,
    plan: &AttackPlan,
    victim_kind: VictimKind,
    seed: u64,
) -> AdversaryOutcome {
    let horizon_ns = plan.spec().horizon_ns;
    let adv_vcpus = plan.spec().nr_vcpus;
    let mut m = Machine::new(HostSpec::flat(NR_VCPUS), seed);
    let victim = m.add_vm(VmSpec::pinned(NR_VCPUS, 0));
    let adv = m.add_vm(VmSpec::pinned(adv_vcpus, 0));
    m.set_vm_class(victim, PriorityClass::Standard);
    m.set_vm_class(adv, PriorityClass::Batch);
    m.set_host_sched(policy.sched())
        .expect("adversary cell host schedule is valid");
    let shared = checked_collector();
    m.attach_trace(&shared);
    let stats = match victim_kind {
        VictimKind::Saturated => {
            let (s, _stats) = Stressor::new(NR_VCPUS, work_ms(1.0));
            m.set_workload(victim, Box::new(s.pinned((0..NR_VCPUS).collect())));
            None
        }
        VictimKind::Serving => {
            // ~35% offered load: headroom even inside a half-machine
            // domain slice, so tail movement is scheduling quality, not
            // raw saturation.
            let service = work_ms(0.5);
            let interarrival = service / 1024.0 / NR_VCPUS as f64 / 0.35;
            let cfg = LatencyServerCfg::new(NR_VCPUS, service, interarrival);
            let (wl, stats) = LatencyServer::new(cfg, SimRng::new(seed ^ 0xF1));
            m.set_workload(victim, Box::new(wl));
            Some(stats)
        }
    };
    m.set_workload(adv, Box::new(AdversaryWorkload::new(plan)));
    guest.install(&mut m, victim);
    m.start();
    // Past the horizon so in-flight requests drain; the plan's last
    // action ends at the horizon, so the tail adds no adversary time.
    m.run_until(SimTime::from_ns(horizon_ns + 300 * MS));
    let adv_active: u64 = (0..adv_vcpus).map(|v| m.vcpu_active_ns(m.gv(adv, v))).sum();
    let share = adv_active as f64 / (adv_vcpus as u64 * horizon_ns) as f64;
    let (rejected, episodes) = m.with_vm(victim, |g, _| {
        vsched::instance(g)
            .map(|vs| {
                (
                    vs.vcap.vet.rejected_samples,
                    vs.resil
                        .as_ref()
                        .map(|r| r.episodes + u64::from(r.degraded()))
                        .unwrap_or(0),
                )
            })
            .unwrap_or((0, 0))
    });
    let rep = check_report(&shared);
    let (p99_ms, p50_ms, completed) = match &stats {
        Some(st) => {
            let st = st.borrow();
            (
                st.e2e.p99() as f64 / MS as f64,
                st.e2e.p50() as f64 / MS as f64,
                st.completed,
            )
        }
        None => (0.0, 0.0, 0),
    };
    AdversaryOutcome {
        steal_frac: (share - 0.5).max(0.0),
        p99_ms,
        p50_ms,
        completed,
        rejected_samples: rejected,
        degraded_episodes: episodes,
        attack_actions: plan.events.len(),
        trace_events: rep.events,
        violations: rep.violations,
        first_law: rep.first_law().map(str::to_string),
    }
}

/// Dodge sub-run: tick-dodging adversary against a saturated victim; the
/// outcome's `steal_frac` is the headline number.
pub fn run_dodge(
    policy: HostPolicy,
    guest: GuestMode,
    horizon_secs: u64,
    seed: u64,
) -> AdversaryOutcome {
    let plan = plan_for(Some(AttackKind::DodgeRun), horizon_secs, seed);
    run_scenario(policy, guest, &plan, VictimKind::Saturated, seed)
}

/// Pollute sub-run: probe-window-targeted bursts against a serving
/// victim; the outcome's `p99_ms` is the headline number.
pub fn run_pollute(
    policy: HostPolicy,
    guest: GuestMode,
    horizon_secs: u64,
    seed: u64,
) -> AdversaryOutcome {
    let plan = plan_for(Some(AttackKind::ProbeBurst), horizon_secs, seed);
    run_scenario(policy, guest, &plan, VictimKind::Serving, seed)
}

/// Runs one full cell under an explicit combined plan (the shrinker and
/// `suite --replay-adversary` drive arbitrary — typically subset — plans
/// through the very same scenario the seeded cells use). The serving
/// victim keeps every probing and scheduling path live.
pub fn run_attack(
    policy: HostPolicy,
    guest: GuestMode,
    plan: &AttackPlan,
    seed: u64,
) -> AdversaryOutcome {
    run_scenario(policy, guest, plan, VictimKind::Serving, seed)
}

/// Runs one matrix cell: dodge sub-run for steal, pollute sub-run for
/// service quality, merged into one outcome.
pub fn run_cell(
    policy: HostPolicy,
    guest: GuestMode,
    horizon_secs: u64,
    seed: u64,
) -> AdversaryOutcome {
    let dodge = run_dodge(policy, guest, horizon_secs, seed);
    let pollute = run_pollute(policy, guest, horizon_secs, seed);
    AdversaryOutcome {
        steal_frac: dodge.steal_frac,
        p99_ms: pollute.p99_ms,
        p50_ms: pollute.p50_ms,
        completed: pollute.completed,
        rejected_samples: pollute.rejected_samples,
        degraded_episodes: pollute.degraded_episodes,
        attack_actions: dodge.attack_actions + pollute.attack_actions,
        trace_events: dodge.trace_events + pollute.trace_events,
        violations: dodge.violations + pollute.violations,
        first_law: dodge.first_law.or(pollute.first_law),
    }
}

/// The (policy, guest) axes in suite/cell order.
pub const POLICIES: [HostPolicy; 2] = [HostPolicy::Proportional, HostPolicy::Domain];
/// Guest configurations in suite/cell order.
pub const GUESTS: [GuestMode; 3] = [GuestMode::Cfs, GuestMode::Vsched, GuestMode::VschedHardened];

/// The rendered adversary matrix.
pub struct AdversaryMatrix {
    /// One row per (policy, guest), in [`POLICIES`] × [`GUESTS`] order.
    pub rows: Vec<(HostPolicy, GuestMode, AdversaryOutcome)>,
}

impl AdversaryMatrix {
    fn get(&self, p: HostPolicy, g: GuestMode) -> Option<&AdversaryOutcome> {
        self.rows
            .iter()
            .find(|(rp, rg, _)| *rp == p && *rg == g)
            .map(|(_, _, o)| o)
    }
}

impl fmt::Display for AdversaryMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Adversarial co-tenancy: dodge steal and probe pollution")?;
        let mut t = Table::new(&[
            "host",
            "guest",
            "steal",
            "p50 ms",
            "p99 ms",
            "completed",
            "rejected",
            "degraded",
            "violations",
        ]);
        for (p, g, o) in &self.rows {
            t.row_owned(vec![
                p.label().to_string(),
                g.label().to_string(),
                format!("{:.3}", o.steal_frac),
                format!("{:.2}", o.p50_ms),
                format!("{:.2}", o.p99_ms),
                o.completed.to_string(),
                o.rejected_samples.to_string(),
                o.degraded_episodes.to_string(),
                o.violations.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        if let (Some(prop), Some(dom)) = (
            self.get(HostPolicy::Proportional, GuestMode::Cfs),
            self.get(HostPolicy::Domain, GuestMode::Cfs),
        ) {
            write!(
                f,
                "\ndodger steal (cfs guest): prop {:.3}, domain {:.3}",
                prop.steal_frac, dom.steal_frac
            )?;
        }
        if let (Some(soft), Some(hard)) = (
            self.get(HostPolicy::Proportional, GuestMode::Vsched),
            self.get(HostPolicy::Proportional, GuestMode::VschedHardened),
        ) {
            write!(
                f,
                "\npolluted p99, hardened/unhardened (prop): {:.2}x",
                hard.p99_ms / soft.p99_ms.max(1e-9)
            )?;
        }
        Ok(())
    }
}

/// The suite grid: one cell per (host policy, victim guest). Each cell
/// runs its own dodge and pollute sub-runs, so the matrix shards six ways.
pub fn grid() -> Grid<(HostPolicy, GuestMode, AdversaryOutcome), AdversaryMatrix> {
    let mut g = Grid::new(
        "adversary",
        "scheduler-gaming co-tenants vs domain partitioning and hardened probing",
        |rows, _| AdversaryMatrix { rows },
    );
    for &policy in POLICIES.iter() {
        for &guest in GUESTS.iter() {
            g.cell(
                format!("{}/{}", policy.label(), guest.label()),
                move |seed, scale: Scale| {
                    (
                        policy,
                        guest,
                        run_cell(policy, guest, scale.secs(8, 30), seed),
                    )
                },
            );
        }
    }
    g
}
