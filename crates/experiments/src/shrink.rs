//! Automatic shrinking of failing fault and attack plans.
//!
//! A seed that trips the streaming invariant checker hands you a plan with
//! hundreds of entries — useless as a bug report. This module delta-debugs
//! the plan down to a locally-minimal entry subset that still fails the
//! *same checker law* (compared by
//! [`trace::check::ViolationKind::law_name`] via `CheckReport::first_law`),
//! using the classic ddmin algorithm: try dropping chunks (and keeping
//! complements) at progressively finer granularity, re-running the checker
//! on each candidate, until no single removal preserves the failure.
//!
//! The result is 1-minimal — removing **any one** remaining entry makes
//! the violation disappear — which is exactly the property that makes a
//! repro plan readable. Minimality is *local*: a different, smaller
//! failing subset may exist elsewhere in the lattice; ddmin trades that
//! global guarantee for a number of checker runs linear-ish in plan size.
//!
//! One driver serves all three plan types — host-level [`FaultPlan`]s
//! (the chaos cell), fleet-level [`FleetChaosPlan`]s (the fleet-chaos
//! cell) and guest-level [`AttackPlan`]s (the adversary cell) — through
//! the [`ShrinkPlan`] trait. The oracle is pluggable
//! (`FnMut(&P, u64) -> Option<String>`, returning the failed law's name)
//! so tests can exercise the machinery with synthetic laws without needing
//! a genuine simulator bug on tap; the `suite --shrink*` flags wire in the
//! real checkers. Both [`shrink`] and [`replay`] hand the oracle the seed
//! the plan was generated from ([`ShrinkPlan::oracle_seed`]), so a repro
//! file re-simulates the machine its shrink ran on.

use crate::adversary::{self, GuestMode, HostPolicy};
use crate::chaos::{self, ChaosMode};
use crate::common::Scale;
use crate::fleet_chaos::{self, ChaosGuests};
use ::fleet::{FleetChaosPlan, HostFault, HostOp};
use hostsim::{FaultPlan, InjectedFault};
use workloads::{AttackAction, AttackKind, AttackPlan};

/// A seeded plan the shrinker can cut down, and the suite can write to
/// and replay from a repro file.
pub trait ShrinkPlan: Sized {
    /// One plan entry.
    type Event: Clone;
    /// Repro file stem: `target/<STEM>_repro_<seed>.json`.
    const STEM: &'static str;
    /// Suffix of the `--shrink`/`--replay` flags and their stderr prefix.
    const FLAG: &'static str;
    /// What one entry is called in messages.
    const EVENT: &'static str;
    /// The plan a shrink seed generates at this scale: the plan the
    /// suite cell itself would run.
    fn from_seed(seed: u64, scale: Scale) -> Self;
    /// The seed [`Self::from_seed`] was called with, recovered from the
    /// plan (its JSON carries it); the real oracle runs under it.
    fn oracle_seed(&self) -> u64;
    /// The plan's entries, in injection order.
    fn events(&self) -> &[Self::Event];
    /// The same plan with a subset of its entries.
    fn with_events(&self, events: Vec<Self::Event>) -> Self;
    /// The repro file encoding.
    fn to_json(&self) -> String;
    /// Parses a repro file.
    fn from_json(text: &str) -> Result<Self, String>;
    /// The real oracle: runs the plan's cell at `seed` and reports which
    /// invariant law (if any) the streaming checker saw broken first.
    fn checker_law(&self, seed: u64) -> Option<String>;
    /// A synthetic oracle with a known small minimum, for exercising the
    /// pipeline when no genuine checker bug is available (CI smoke,
    /// tests). Selected by `VSCHED_SHRINK_LAW=synthetic` in the suite
    /// binary.
    fn synthetic_law(&self) -> Option<String>;
}

/// What a completed shrink reports.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome<P> {
    /// The minimized plan (same seed and spec, fewer entries).
    pub plan: P,
    /// The checker law every kept candidate failed.
    pub law: String,
    /// Entries in the original plan.
    pub original_events: usize,
    /// Oracle invocations spent.
    pub oracle_runs: usize,
}

/// Why a shrink could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShrinkError {
    /// The full plan does not fail any law — nothing to shrink.
    PlanPasses,
}

impl std::fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShrinkError::PlanPasses => {
                write!(f, "plan passes every checker law; nothing to shrink")
            }
        }
    }
}

/// The core ddmin loop, generic over the event list: repeatedly drops one
/// chunk at a time — keeping any complement that still fails `target` —
/// at progressively finer granularity, until no single removal preserves
/// the failure. `fails` runs the oracle on a candidate subsequence and
/// returns the law it breaks, if any.
fn ddmin<E: Clone>(
    mut events: Vec<E>,
    target: &str,
    mut fails: impl FnMut(&[E]) -> Option<String>,
) -> Vec<E> {
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        // Try each chunk's *complement* (i.e. drop one chunk at a time);
        // for n == 2 this also covers "keep one half".
        for start in (0..events.len()).step_by(chunk) {
            let candidate: Vec<E> = events[..start]
                .iter()
                .chain(events[(start + chunk).min(events.len())..].iter())
                .cloned()
                .collect();
            if candidate.is_empty() {
                continue;
            }
            if fails(&candidate).as_deref() == Some(target) {
                events = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if n >= events.len() {
                break; // singleton granularity exhausted: 1-minimal
            }
            n = (n * 2).min(events.len());
        }
    }
    events
}

/// Delta-debugs `plan` against `law`, which returns the name of the law a
/// candidate plan fails at the given seed (or `None` if it passes).
/// Returns a locally minimal plan failing the same law as the full plan.
pub fn shrink<P: ShrinkPlan>(
    plan: &P,
    mut law: impl FnMut(&P, u64) -> Option<String>,
) -> Result<ShrinkOutcome<P>, ShrinkError> {
    let seed = plan.oracle_seed();
    let mut runs = 1usize;
    let target = law(plan, seed).ok_or(ShrinkError::PlanPasses)?;
    let events = ddmin(plan.events().to_vec(), &target, |evs| {
        runs += 1;
        law(&plan.with_events(evs.to_vec()), seed)
    });
    Ok(ShrinkOutcome {
        plan: plan.with_events(events),
        law: target,
        original_events: plan.events().len(),
        oracle_runs: runs,
    })
}

/// Parses a repro file and runs `law` on it under the seed its shrink
/// used. Returns the plan and the law it fails, if any.
pub fn replay<P: ShrinkPlan>(
    text: &str,
    law: impl FnOnce(&P, u64) -> Option<String>,
) -> Result<(P, Option<String>), String> {
    let plan = P::from_json(text)?;
    let failed = law(&plan, plan.oracle_seed());
    Ok((plan, failed))
}

impl ShrinkPlan for FaultPlan {
    type Event = InjectedFault;
    const STEM: &'static str = "chaos";
    const FLAG: &'static str = "";
    const EVENT: &'static str = "action";

    fn from_seed(seed: u64, scale: Scale) -> Self {
        chaos::plan_for(scale.secs(6, 20), seed).1
    }
    fn oracle_seed(&self) -> u64 {
        self.seed ^ chaos::PLAN_SALT
    }
    fn events(&self) -> &[InjectedFault] {
        &self.events
    }
    fn with_events(&self, events: Vec<InjectedFault>) -> Self {
        FaultPlan::with_events(self, events)
    }
    fn to_json(&self) -> String {
        FaultPlan::to_json(self)
    }
    fn from_json(text: &str) -> Result<Self, String> {
        FaultPlan::from_json(text)
    }
    /// Runs the chaos cell's resilient-vSched configuration.
    fn checker_law(&self, seed: u64) -> Option<String> {
        chaos::run_plan(ChaosMode::VschedResilient, self, seed).first_law
    }
    /// Fails iff the plan still contains at least two `QuotaChurn`
    /// actions and at least one `StressorBurst` — so the minimal repro is
    /// exactly three actions.
    fn synthetic_law(&self) -> Option<String> {
        use trace::FaultClass;
        let count = |c: FaultClass| self.events.iter().filter(|e| e.class == c).count();
        (count(FaultClass::QuotaChurn) >= 2 && count(FaultClass::StressorBurst) >= 1)
            .then(|| "synthetic-canary".to_string())
    }
}

impl ShrinkPlan for FleetChaosPlan {
    type Event = HostFault;
    const STEM: &'static str = "fleet_chaos";
    const FLAG: &'static str = "-fleet";
    const EVENT: &'static str = "host fault";

    fn from_seed(seed: u64, scale: Scale) -> Self {
        fleet_chaos::plan_for_seed(seed, scale.secs(4, 16))
    }
    fn oracle_seed(&self) -> u64 {
        self.seed
    }
    fn events(&self) -> &[HostFault] {
        &self.events
    }
    fn with_events(&self, events: Vec<HostFault>) -> Self {
        FleetChaosPlan::with_events(self, events)
    }
    fn to_json(&self) -> String {
        FleetChaosPlan::to_json(self)
    }
    fn from_json(text: &str) -> Result<Self, String> {
        FleetChaosPlan::from_json(text)
    }
    /// Replays the fleet-chaos cell's canonical day under the plan (vSched
    /// guests, probe-state handoff).
    fn checker_law(&self, seed: u64) -> Option<String> {
        let horizon_ns = self
            .spec()
            .start
            .ns()
            .saturating_add(self.spec().horizon_ns)
            .max(1);
        fleet_chaos::run_plan(
            "probe-aware",
            ChaosGuests::VschedHandoff,
            self,
            horizon_ns,
            seed,
        )
        .first_law
    }
    /// Fails iff the plan still contains at least one crash *and* at least
    /// one drain — so the minimal repro is exactly two host faults.
    fn synthetic_law(&self) -> Option<String> {
        let count = |op: HostOp| self.events.iter().filter(|e| e.op == op).count();
        (count(HostOp::Crash) >= 1 && count(HostOp::Drain) >= 1)
            .then(|| "fleet-synthetic-canary".to_string())
    }
}

impl ShrinkPlan for AttackPlan {
    type Event = AttackAction;
    const STEM: &'static str = "adversary";
    const FLAG: &'static str = "-adversary";
    const EVENT: &'static str = "attack action";

    fn from_seed(seed: u64, scale: Scale) -> Self {
        adversary::plan_for(None, scale.secs(8, 30), seed)
    }
    fn oracle_seed(&self) -> u64 {
        self.seed ^ adversary::PLAN_SALT
    }
    fn events(&self) -> &[AttackAction] {
        &self.events
    }
    fn with_events(&self, events: Vec<AttackAction>) -> Self {
        AttackPlan::with_events(self, events)
    }
    fn to_json(&self) -> String {
        AttackPlan::to_json(self)
    }
    fn from_json(text: &str) -> Result<Self, String> {
        AttackPlan::from_json(text)
    }
    /// Runs the attack through the richest cell — domain-partitioned host,
    /// hardened vSched guest — so the domain ownership/steal laws *and*
    /// the probe-rejection path are all live.
    fn checker_law(&self, seed: u64) -> Option<String> {
        adversary::run_attack(HostPolicy::Domain, GuestMode::VschedHardened, self, seed).first_law
    }
    /// Fails iff the plan still contains at least two `ProbeBurst` actions
    /// and at least one `DodgeRun` — so the minimal repro is exactly three
    /// actions.
    fn synthetic_law(&self) -> Option<String> {
        let count = |k: AttackKind| self.events.iter().filter(|e| e.kind == k).count();
        (count(AttackKind::ProbeBurst) >= 2 && count(AttackKind::DodgeRun) >= 1)
            .then(|| "adversary-synthetic-canary".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsim::ChaosSpec;
    use simcore::time::MS;

    /// Shrinks `full` under its synthetic law and checks the repro fails
    /// the same law at exactly `min` entries and is 1-minimal.
    fn assert_one_minimal<P: ShrinkPlan>(full: &P, law: &str, min: usize) -> ShrinkOutcome<P> {
        assert!(
            full.synthetic_law().is_some(),
            "seed must fail the synthetic law to start ({} entries)",
            full.events().len()
        );
        let out = shrink(full, |p, _| p.synthetic_law()).unwrap();
        assert_eq!(out.law, law);
        assert_eq!(out.original_events, full.events().len());
        assert_eq!(out.plan.events().len(), min);
        assert!(out.plan.synthetic_law().is_some(), "repro still fails");
        // 1-minimality: removing any single remaining entry passes.
        for skip in 0..min {
            let mut fewer = out.plan.events().to_vec();
            fewer.remove(skip);
            assert!(
                out.plan.with_events(fewer).synthetic_law().is_none(),
                "not 1-minimal at index {skip}"
            );
        }
        out
    }

    /// The shrunk repro survives the file format and still fails.
    fn assert_round_trips<P: ShrinkPlan + PartialEq + std::fmt::Debug>(full: &P) {
        let out = shrink(full, |p, _| p.synthetic_law()).unwrap();
        let back = P::from_json(&out.plan.to_json()).unwrap();
        assert_eq!(back, out.plan);
        assert!(back.synthetic_law().is_some(), "parsed repro still fails");
    }

    fn assert_passes<P: ShrinkPlan>(p: &P) {
        assert!(matches!(
            shrink(p, |p, _| p.synthetic_law()),
            Err(ShrinkError::PlanPasses)
        ));
    }

    fn plan(seed: u64) -> FaultPlan {
        let spec = ChaosSpec::for_pinned_vm(0, 8, 4_000 * MS).mean_interval(250 * MS);
        FaultPlan::generate(seed, &spec)
    }

    #[test]
    fn shrinks_to_a_one_minimal_repro_of_the_same_law() {
        let full = plan(0xC0FFEE);
        // The synthetic law's minimum is two quota churns plus a burst.
        let out = assert_one_minimal(&full, "synthetic-canary", 3);
        assert!(out.plan.events.len() < full.events.len());
    }

    #[test]
    fn passing_plan_reports_nothing_to_shrink() {
        let spec = ChaosSpec::for_pinned_vm(0, 2, 600 * MS).only(trace::FaultClass::ProbeNoise);
        assert_passes(&FaultPlan::generate(1, &spec));
    }

    #[test]
    fn shrink_is_deterministic() {
        let full = plan(0xC0FFEE);
        let a = shrink(&full, |p, _| p.synthetic_law()).unwrap();
        let b = shrink(&full, |p, _| p.synthetic_law()).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.oracle_runs, b.oracle_runs);
    }

    #[test]
    fn shrunk_plan_round_trips_through_the_repro_file_format() {
        assert_round_trips(&plan(0xC0FFEE));
    }

    fn fleet_plan(seed: u64) -> FleetChaosPlan {
        let spec = ::fleet::FleetChaosSpec::for_fleet(4, 6_000 * MS).mean_gap(300 * MS);
        FleetChaosPlan::generate(seed, &spec)
    }

    #[test]
    fn fleet_plans_shrink_to_a_one_minimal_crash_drain_pair() {
        // The fleet synthetic law's minimum is one crash plus one drain.
        assert_one_minimal(&fleet_plan(0xF1EE7), "fleet-synthetic-canary", 2);
    }

    #[test]
    fn shrunk_fleet_plan_round_trips_through_the_repro_file_format() {
        assert_round_trips(&fleet_plan(0xF1EE7));
    }

    #[test]
    fn attack_plans_shrink_to_a_one_minimal_burst_dodge_triple() {
        // The adversary synthetic law's minimum is two bursts plus a dodge.
        let full = adversary::plan_for(None, 4, 0xBAD);
        assert_one_minimal(&full, "adversary-synthetic-canary", 3);
    }

    #[test]
    fn shrunk_attack_plan_round_trips_through_the_repro_file_format() {
        assert_round_trips(&adversary::plan_for(None, 4, 0xBAD));
    }

    #[test]
    fn passing_attack_plan_reports_nothing_to_shrink() {
        let spec = workloads::AttackSpec::for_vm(2, 2_000 * MS).only(AttackKind::ThrashPhase);
        assert_passes(&AttackPlan::generate(5, &spec));
    }

    #[test]
    fn passing_fleet_plan_reports_nothing_to_shrink() {
        let spec = ::fleet::FleetChaosSpec::for_fleet(2, 2_000 * MS).only(HostOp::Degrade);
        assert_passes(&FleetChaosPlan::generate(3, &spec));
    }

    /// Shrinks the plan `seed` generates under an oracle that fails only
    /// on the machine `seed` builds, writes the repro, and replays it: the
    /// replay must run the oracle under the shrink's seed, not a default.
    fn assert_replay_uses_the_shrink_seed<P: ShrinkPlan>() {
        let seed = 123;
        let seeded = |p: &P, s: u64| (s == seed && !p.events().is_empty()).then(|| "seeded".into());
        let full = P::from_seed(seed, Scale::Quick);
        assert_eq!(full.oracle_seed(), seed);
        let out = shrink(&full, seeded).unwrap();
        assert_eq!(out.plan.events().len(), 1);
        let (back, law) = replay::<P>(&out.plan.to_json(), seeded).unwrap();
        assert_eq!(back.oracle_seed(), seed, "{} repro lost its seed", P::STEM);
        assert_eq!(law.as_deref(), Some("seeded"), "{} repro", P::STEM);
    }

    #[test]
    fn replay_runs_the_oracle_under_the_shrink_seed() {
        assert_replay_uses_the_shrink_seed::<FaultPlan>();
        assert_replay_uses_the_shrink_seed::<FleetChaosPlan>();
        assert_replay_uses_the_shrink_seed::<AttackPlan>();
    }
}
