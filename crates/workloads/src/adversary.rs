//! Adversarial guest archetypes: scheduler-gaming workloads.
//!
//! "Scheduler Vulnerabilities and Attacks in Cloud Computing" (PAPERS.md)
//! shows that a guest which understands the hypervisor's accounting can
//! steal cycles from proportional-share schedulers. This module models
//! three such adversaries as seed-deterministic, replayable *attack
//! plans* — the same shape as `hostsim`'s chaos `FaultPlan`s, so the
//! PR 4 ddmin shrinker reduces an attack to a 1-minimal repro unchanged:
//!
//! * **tick-dodger** ([`AttackKind::DodgeRun`]) — computes between the
//!   host's sampled accounting ticks but sleeps across every tick
//!   instant, so a sampled scheduler (Xen-credit-style
//!   `HostSched::CreditSampled`) never charges it and its wakes always
//!   preempt honestly-charged neighbours;
//! * **probe-polluter** ([`AttackKind::ProbeBurst`]) — bursts interference
//!   exactly during a neighbour's vcap/vact probe windows (the "oracle
//!   attacker": window timing is computable from vSched's published
//!   defaults), poisoning the learned capacity while staying near-idle
//!   the rest of the time;
//! * **quota-thrasher** ([`AttackKind::ThrashPhase`]) — oscillates demand
//!   in square waves sized to defeat PELT-style averaging.
//!
//! An [`AttackPlan`] compiles an archetype mix into a coarse action
//! timeline (tens of actions, so ddmin stays tractable); the
//! [`Adversary`] workload executes it by force-waking and force-blocking
//! one pinned spin task per vCPU at the planned boundaries. DodgeRun
//! actions are expanded at install time into per-tick micro-intervals —
//! the plan stays coarse, the execution is tick-accurate.

use guestos::{CpuMask, GuestOs, Platform, SpawnSpec, TaskAction, TaskId, TaskState, Workload};
use simcore::json::{Field, Json};
use simcore::plan::Plan;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// A burst that never completes on its own; the adversary's tasks are
/// stopped by force-blocking, not by running out of work.
const ENDLESS_WORK: f64 = 1.0e18;

/// One archetype's action class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Tick-dodging compute run: expanded into per-tick micro-intervals
    /// that sleep across every accounting-tick instant.
    DodgeRun,
    /// Interference burst synchronized with a neighbour's probe window.
    ProbeBurst,
    /// One "on" phase of a demand square wave (off = the gap to the next).
    ThrashPhase,
}

/// All archetypes, in stable order.
pub const ATTACK_KINDS: [AttackKind; 3] = [
    AttackKind::DodgeRun,
    AttackKind::ProbeBurst,
    AttackKind::ThrashPhase,
];

impl AttackKind {
    /// Stable serialization name (attack-repro files store these).
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::DodgeRun => "DodgeRun",
            AttackKind::ProbeBurst => "ProbeBurst",
            AttackKind::ThrashPhase => "ThrashPhase",
        }
    }

    /// Inverse of [`AttackKind::name`].
    pub fn from_name(name: &str) -> Option<AttackKind> {
        ATTACK_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Stable per-kind RNG stream tag (independent of declaration order).
    fn tag(&self) -> u64 {
        match self {
            AttackKind::DodgeRun => 1,
            AttackKind::ProbeBurst => 2,
            AttackKind::ThrashPhase => 3,
        }
    }
}

/// What the adversary knows and may touch.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// Number of vCPUs the adversary VM has (one attack task per vCPU).
    pub nr_vcpus: usize,
    /// Enabled archetypes.
    pub kinds: Vec<AttackKind>,
    /// Attacks are planned in `[start, start + horizon)`.
    pub start: SimTime,
    /// Planning horizon in nanoseconds.
    pub horizon_ns: u64,
    /// The host's sampled accounting tick the dodger games.
    pub tick_ns: u64,
    /// How long before/after each tick instant the dodger stays off-CPU.
    pub guard_ns: u64,
    /// When the victim's first probe window opens (vSched arms its first
    /// vcap window 10 ms after install).
    pub probe_first_ns: u64,
    /// Probe window cadence (vSched's light-probe period).
    pub probe_every_ns: u64,
    /// Probe window width (vSched's sampling period).
    pub probe_window_ns: u64,
}

impl AttackSpec {
    /// A spec for an adversary VM with `nr_vcpus` vCPUs and every
    /// archetype enabled, tuned to the repo's default host tick (1 ms)
    /// and vSched probe schedule (first window at 10 ms, every 1 s,
    /// 100 ms wide).
    pub fn for_vm(nr_vcpus: usize, horizon_ns: u64) -> Self {
        Self {
            nr_vcpus,
            kinds: ATTACK_KINDS.to_vec(),
            start: SimTime::ZERO,
            horizon_ns,
            tick_ns: MS,
            guard_ns: 50_000,
            probe_first_ns: 10 * MS,
            probe_every_ns: 1_000 * MS,
            probe_window_ns: 100 * MS,
        }
    }

    /// Restricts the plan to a single archetype.
    pub fn only(mut self, kind: AttackKind) -> Self {
        self.kinds = vec![kind];
        self
    }
}

/// One planned attack action: vCPU `vcpu` is on-CPU (per its kind's
/// execution rule) during `[at, at + dur_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackAction {
    /// Action start.
    pub at: SimTime,
    /// Action length in nanoseconds.
    pub dur_ns: u64,
    /// Guest-local vCPU of the adversary VM.
    pub vcpu: usize,
    /// Archetype.
    pub kind: AttackKind,
}

impl fmt::Display for AttackAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} {:?} vcpu={} dur={}",
            self.at.ns(),
            self.kind,
            self.vcpu,
            self.dur_ns
        )
    }
}

/// A replayable, shrinkable attack schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Planned actions, sorted by start time (ties keep generation order,
    /// which is itself deterministic).
    pub events: Vec<AttackAction>,
    spec: AttackSpec,
}

impl AttackPlan {
    /// Generates the plan. Each enabled archetype draws from its own
    /// forked RNG stream, so enabling or disabling one archetype never
    /// perturbs the timeline of another.
    pub fn generate(seed: u64, spec: &AttackSpec) -> AttackPlan {
        let tag = |k: AttackKind| k.tag();
        Self::from_streams(seed, 0xAD5A_5A17, spec, &spec.kinds, tag, Self::plan_kind)
    }

    fn plan_kind(
        rng: &mut SimRng,
        spec: &AttackSpec,
        kind: AttackKind,
        out: &mut Vec<AttackAction>,
    ) {
        let end = spec.start.ns().saturating_add(spec.horizon_ns);
        match kind {
            AttackKind::DodgeRun => {
                // Long, mostly-back-to-back compute runs; the executor
                // carves the per-tick dodging out of each run.
                for vcpu in 0..spec.nr_vcpus {
                    let mut t = spec.start.ns().saturating_add(rng.range(0, 4 * MS));
                    while t < end {
                        let dur = (100 * MS + rng.range(0, 200 * MS)).min(end - t);
                        out.push(AttackAction {
                            at: SimTime::from_ns(t),
                            dur_ns: dur,
                            vcpu,
                            kind,
                        });
                        t = t.saturating_add(dur + 10 * MS + rng.range(0, 40 * MS));
                    }
                }
            }
            AttackKind::ProbeBurst => {
                // The oracle attacker: one burst per computable probe
                // window, opened slightly early so the interference is
                // already flowing when the window's steal snapshot lands.
                let mut open = spec.start.ns().saturating_add(spec.probe_first_ns);
                while open < end {
                    for vcpu in 0..spec.nr_vcpus {
                        let lead = MS + rng.range(0, 500_000);
                        let at = open.saturating_sub(lead);
                        out.push(AttackAction {
                            at: SimTime::from_ns(at),
                            dur_ns: spec.probe_window_ns + lead + MS,
                            vcpu,
                            kind,
                        });
                    }
                    open = open.saturating_add(spec.probe_every_ns);
                }
            }
            AttackKind::ThrashPhase => {
                // Square-wave demand: on-phases with comparable off-gaps,
                // sized near PELT's averaging horizon so the load signal
                // never converges.
                for vcpu in 0..spec.nr_vcpus {
                    let mut t = spec.start.ns().saturating_add(rng.range(0, 20 * MS));
                    while t < end {
                        let on = (50 * MS + rng.range(0, 100 * MS)).min(end - t);
                        out.push(AttackAction {
                            at: SimTime::from_ns(t),
                            dur_ns: on,
                            vcpu,
                            kind,
                        });
                        t = t.saturating_add(on + 50 * MS + rng.range(0, 100 * MS));
                    }
                }
            }
        }
    }
}

/// The attack-repro file format (`suite --shrink-adversary` writes it);
/// integers round-trip exactly.
impl Plan for AttackPlan {
    type Spec = AttackSpec;
    type Event = AttackAction;

    fn parts(&self) -> (u64, &AttackSpec, &[AttackAction]) {
        (self.seed, &self.spec, &self.events)
    }
    fn from_parts(seed: u64, spec: AttackSpec, events: Vec<AttackAction>) -> Self {
        AttackPlan { seed, events, spec }
    }
    fn at(event: &AttackAction) -> SimTime {
        event.at
    }

    fn spec_to_json(spec: &AttackSpec) -> Json {
        let kinds = spec.kinds.iter().map(|k| k.name().into()).collect();
        Json::obj([
            ("nr_vcpus", Json::Uint(spec.nr_vcpus as u64)),
            ("kinds", Json::Arr(kinds)),
            ("start_ns", Json::Uint(spec.start.ns())),
            ("horizon_ns", Json::Uint(spec.horizon_ns)),
            ("tick_ns", Json::Uint(spec.tick_ns)),
            ("guard_ns", Json::Uint(spec.guard_ns)),
            ("probe_first_ns", Json::Uint(spec.probe_first_ns)),
            ("probe_every_ns", Json::Uint(spec.probe_every_ns)),
            ("probe_window_ns", Json::Uint(spec.probe_window_ns)),
        ])
    }

    fn spec_from_json(f: &Field) -> Result<AttackSpec, String> {
        Ok(AttackSpec {
            nr_vcpus: f.get("nr_vcpus")?.int()?,
            kinds: (f.get("kinds")?.arr()?.iter())
                .map(|k| k.name(AttackKind::from_name))
                .collect::<Result<_, _>>()?,
            start: f.get("start_ns")?.time()?,
            horizon_ns: f.get("horizon_ns")?.u64()?,
            tick_ns: f.get("tick_ns")?.u64()?,
            guard_ns: f.get("guard_ns")?.u64()?,
            probe_first_ns: f.get("probe_first_ns")?.u64()?,
            probe_every_ns: f.get("probe_every_ns")?.u64()?,
            probe_window_ns: f.get("probe_window_ns")?.u64()?,
        })
    }

    fn event_to_json(e: &AttackAction) -> Json {
        Json::obj([
            ("at_ns", Json::Uint(e.at.ns())),
            ("kind", e.kind.name().into()),
            ("vcpu", Json::Uint(e.vcpu as u64)),
            ("dur_ns", Json::Uint(e.dur_ns)),
        ])
    }

    fn event_from_json(_: &AttackSpec, f: &Field) -> Result<AttackAction, String> {
        Ok(AttackAction {
            at: f.get("at_ns")?.time()?,
            kind: f.get("kind")?.name(AttackKind::from_name)?,
            vcpu: f.get("vcpu")?.int()?,
            dur_ns: f.get("dur_ns")?.u64()?,
        })
    }
}

// ----------------------------------------------------------------------
// Executor
// ----------------------------------------------------------------------

/// Executes an [`AttackPlan`]: one endless-spin task per adversary vCPU,
/// pinned, force-woken at each planned interval start and force-blocked
/// at each interval end via per-vCPU timer chains. Fully deterministic:
/// the entire schedule is a pure function of the plan.
pub struct Adversary {
    plan_label: String,
    /// Per-vCPU run intervals `(start_ns, end_ns)`, sorted and merged.
    intervals: Vec<VecDeque<(u64, u64)>>,
    tasks: Vec<TaskId>,
    /// Whether vCPU `i`'s task is currently meant to be on-CPU.
    running: Vec<bool>,
}

impl Adversary {
    /// Compiles the plan into per-vCPU merged run intervals. DodgeRun
    /// actions expand here into their per-tick micro-intervals.
    pub fn new(plan: &AttackPlan) -> Self {
        let spec = plan.spec();
        let mut per: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spec.nr_vcpus];
        for e in &plan.events {
            if e.vcpu >= spec.nr_vcpus {
                continue;
            }
            let (a, b) = (e.at.ns(), e.at.ns().saturating_add(e.dur_ns));
            match e.kind {
                AttackKind::DodgeRun => {
                    // Off-CPU inside [tick - guard, tick + guard] around
                    // every accounting tick; on-CPU in the gaps between.
                    let tick = spec.tick_ns.max(1);
                    let guard = spec.guard_ns.min(tick / 2);
                    let mut k = a / tick;
                    loop {
                        let lo = (k * tick + guard).max(a);
                        let hi = ((k + 1) * tick).saturating_sub(guard).min(b);
                        if lo >= b {
                            break;
                        }
                        if lo < hi {
                            per[e.vcpu].push((lo, hi));
                        }
                        k += 1;
                    }
                }
                AttackKind::ProbeBurst | AttackKind::ThrashPhase => {
                    if a < b {
                        per[e.vcpu].push((a, b));
                    }
                }
            }
        }
        let intervals = per
            .into_iter()
            .map(|mut v| {
                v.sort_unstable();
                let mut merged: VecDeque<(u64, u64)> = VecDeque::with_capacity(v.len());
                for (a, b) in v {
                    match merged.back_mut() {
                        Some(last) if a <= last.1 => last.1 = last.1.max(b),
                        _ => merged.push_back((a, b)),
                    }
                }
                merged
            })
            .collect();
        Self {
            plan_label: format!("adversary[seed={}]", plan.seed),
            intervals,
            tasks: Vec::new(),
            running: Vec::new(),
        }
    }

    /// Total planned on-CPU nanoseconds (per-vCPU intervals summed) —
    /// the denominator for a stolen-fraction measurement.
    pub fn planned_on_ns(&self) -> u64 {
        self.intervals.iter().flatten().map(|(a, b)| b - a).sum()
    }
}

impl Workload for Adversary {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.cfg.nr_vcpus;
        for v in 0..self.intervals.len() {
            let spec = SpawnSpec::normal(nr).affinity(CpuMask::single(v % nr.max(1)));
            let t = guest.spawn(plat, spec);
            self.tasks.push(t);
            self.running.push(false);
            // Not woken here: the task sits Blocked until its first
            // planned interval.
            if let Some(&(start, _)) = self.intervals[v].front() {
                plat.set_timer(v as u64, SimTime::from_ns(start));
            }
        }
    }

    fn on_timer(&mut self, g: &mut GuestOs, p: &mut dyn Platform, token: u64) {
        let v = token as usize;
        if v >= self.tasks.len() {
            return;
        }
        let task = self.tasks[v];
        if self.running[v] {
            // Interval end: force the task off-CPU until the next one.
            let Some((_, end)) = self.intervals[v].pop_front() else {
                return;
            };
            debug_assert!(p.now().ns() >= end);
            self.running[v] = false;
            if g.kern.task(task).state != TaskState::Dead {
                g.kern.block_task(p, task);
            }
            if let Some(&(start, _)) = self.intervals[v].front() {
                p.set_timer(v as u64, SimTime::from_ns(start));
            }
        } else {
            // Interval start: wake and arm the end-of-interval timer.
            let Some(&(_, end)) = self.intervals[v].front() else {
                return;
            };
            self.running[v] = true;
            if g.kern.task(task).state == TaskState::Blocked {
                g.wake_task(p, task, None);
            }
            p.set_timer(v as u64, SimTime::from_ns(end));
        }
    }

    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        // The burst never completes; intervals end by force-block.
        TaskAction::Compute { work: ENDLESS_WORK }
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        &self.plan_label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::propcheck;

    #[test]
    fn plans_are_byte_identical_per_seed() {
        propcheck::forall(0xA77A, 40, |rng| {
            let seed = rng.u64();
            let spec = AttackSpec::for_vm(2, 3_000 * MS);
            let a = AttackPlan::generate(seed, &spec);
            let b = AttackPlan::generate(seed, &spec);
            assert_eq!(a.describe(), b.describe());
            assert_eq!(a, b);
        });
    }

    #[test]
    fn disabling_one_archetype_never_perturbs_another() {
        let full_spec = AttackSpec::for_vm(2, 3_000 * MS);
        let full = AttackPlan::generate(7, &full_spec);
        for kind in ATTACK_KINDS {
            let only = AttackPlan::generate(7, &full_spec.clone().only(kind));
            let filtered: Vec<_> = full
                .events
                .iter()
                .copied()
                .filter(|e| e.kind == kind)
                .collect();
            assert_eq!(only.events, filtered, "{kind:?} stream not independent");
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        propcheck::forall(0x1507, 20, |rng| {
            let seed = rng.u64();
            let spec = AttackSpec::for_vm(3, 2_500 * MS);
            let plan = AttackPlan::generate(seed, &spec);
            let back = AttackPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back, plan);
        });
    }

    #[test]
    fn dodge_runs_expand_to_tick_avoiding_micro_intervals() {
        let mut spec = AttackSpec::for_vm(1, 100 * MS).only(AttackKind::DodgeRun);
        spec.tick_ns = MS;
        spec.guard_ns = 50_000;
        let plan = AttackPlan::generate(3, &spec);
        assert!(!plan.events.is_empty());
        let adv = Adversary::new(&plan);
        let tick = spec.tick_ns;
        let guard = spec.guard_ns;
        let mut checked = 0;
        for &(a, b) in &adv.intervals[0] {
            assert!(a < b);
            // Both edges keep at least the guard distance from the
            // nearest tick instant, and no interval spans a tick.
            assert!(a % tick >= guard, "start {a} within guard of a tick");
            assert!(
                b % tick != 0 && tick - b % tick >= guard,
                "end {b} within guard of a tick"
            );
            assert!(b - a <= tick - 2 * guard, "interval [{a},{b}) spans a tick");
            checked += 1;
        }
        assert!(
            checked > 50,
            "expanded intervals should straddle many ticks"
        );
        assert!(adv.planned_on_ns() > 0);
    }

    #[test]
    fn subset_plans_preserve_order_and_spec() {
        let spec = AttackSpec::for_vm(2, 2_000 * MS);
        let plan = AttackPlan::generate(11, &spec);
        let evens: Vec<_> = plan.events.iter().copied().step_by(2).collect();
        let sub = plan.with_events(evens.clone());
        assert_eq!(sub.events, evens);
        assert_eq!(sub.spec(), plan.spec());
        assert_eq!(sub.seed, plan.seed);
    }
}
