//! Adversary gates: scheduler gaming, domain confinement, determinism.
//!
//! Every test drives a real `Machine` through a seed-generated
//! [`AttackPlan`] with the streaming invariant checker attached. The
//! gates:
//!
//! * each attack archetype in isolation leaves every traced invariant
//!   intact — under the sampled proportional host *and* the domain
//!   schedule (whose slice-sum, cross-domain, and steal-conservation
//!   laws are only live there);
//! * the combined plan (all archetypes interleaved) stays law-clean
//!   against the hardened guest;
//! * a fixed seed replays byte-identically.
//!
//! `SWEEP_SEED` (drawn by `ci.sh`'s randomized sweeps) points the sweep at
//! an arbitrary seed; the failure message prints the seed so a CI hit
//! replays locally.

use vsched_repro::experiments::adversary::{self, GuestMode, HostPolicy};
use vsched_repro::experiments::runner::CellCtx;
use vsched_repro::experiments::Scale;
use vsched_repro::simcore::plan::Plan;
use vsched_repro::simcore::propcheck;
use vsched_repro::workloads::{AttackKind, ATTACK_KINDS};

const SWEEP_HORIZON_SECS: u64 = 4;

#[test]
fn every_attack_kind_keeps_invariants() {
    // One archetype at a time, under both host policies: a violation here
    // pins the breakage to a single attack mechanism and host scheduler.
    let seed = propcheck::sweep_seed(42);
    let ctx = CellCtx::new(seed, Scale::Quick);
    for kind in ATTACK_KINDS {
        let plan = adversary::plan_for(Some(kind), SWEEP_HORIZON_SECS, seed);
        for policy in [HostPolicy::Proportional, HostPolicy::Domain] {
            let out = adversary::run_attack(&ctx, policy, GuestMode::VschedHardened, &plan);
            assert!(out.trace_events > 0, "{kind:?}/{policy:?}: no trace events");
            assert_eq!(
                out.violations, 0,
                "{kind:?} under {policy:?} violated {:?} (SWEEP_SEED={seed})",
                out.first_law
            );
        }
    }
}

#[test]
fn combined_attack_keeps_invariants() {
    // All archetypes interleaved against the hardened guest on the
    // domain-partitioned host — the cell the shrinker's oracle replays.
    let seed = propcheck::sweep_seed(42);
    let plan = adversary::plan_for(None, SWEEP_HORIZON_SECS, seed);
    let ctx = CellCtx::new(seed, Scale::Quick);
    let out = adversary::run_attack(&ctx, HostPolicy::Domain, GuestMode::VschedHardened, &plan);
    assert!(out.trace_events > 0);
    assert_eq!(
        out.violations, 0,
        "combined attack violated {:?} (SWEEP_SEED={seed})",
        out.first_law
    );
}

#[test]
fn fixed_seed_replays_byte_identically() {
    // The full outcome of an adversary cell — attack schedule and every
    // reported number — must be a pure function of the seed.
    let ctx = CellCtx::new(99, Scale::Quick);
    let a = adversary::run_cell(&ctx, HostPolicy::Proportional, GuestMode::VschedHardened, 4);
    let b = adversary::run_cell(&ctx, HostPolicy::Proportional, GuestMode::VschedHardened, 4);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let plan_a = adversary::plan_for(Some(AttackKind::DodgeRun), 4, 99);
    let plan_b = adversary::plan_for(Some(AttackKind::DodgeRun), 4, 99);
    assert_eq!(plan_a.describe(), plan_b.describe());
}
