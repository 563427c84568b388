//! Migration laws under randomized host-failure chaos.
//!
//! These are the fault-tolerance counterparts to the placement laws: for
//! *any* seed-generated chaos plan overlaid on *any* random churned
//! cluster, the trace checker must stay law-clean, no VM may end the day
//! stranded on a dead host, and the admission ledger must still balance.
//! One test is re-seedable from the `SWEEP_SEED` environment
//! variable so a CI sweep failure prints the exact seed to replay (and
//! `suite --shrink-fleet SEED` can then 1-minimize the plan).

use simcore::propcheck;
use simcore::time::MS;
use vsched_fleet::{
    policy_by_name, Cluster, FleetChaosPlan, FleetChaosSpec, FleetSpec, GuestMode, MigrationMode,
    SloSummary, POLICIES,
};

/// Property case budget; `--features property-tests` widens the sweep.
fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

fn random_spec(rng: &mut simcore::SimRng) -> FleetSpec {
    let mut spec = FleetSpec::small(2 + rng.index(4), 1 + rng.index(4), 1);
    spec.horizon_ns = 800 * MS + rng.range(0, 1_200 * MS);
    spec.arrival_mean_ns = 1 + rng.range(0, 600 * MS);
    spec
}

fn run_chaos(
    spec: &FleetSpec,
    policy: &str,
    migration: MigrationMode,
    seed: u64,
    chaos_seed: u64,
) -> SloSummary {
    let mut c = Cluster::new(
        spec.clone(),
        GuestMode::Vsched,
        policy_by_name(policy).expect("registered policy"),
        seed,
    );
    let cspec = FleetChaosSpec::for_fleet(spec.hosts as u16, spec.horizon_ns);
    c.set_chaos(FleetChaosPlan::generate(chaos_seed, &cspec));
    c.set_migration_mode(migration);
    c.run()
}

/// The laws every summary must satisfy regardless of what the chaos plan
/// did to the fleet. The `label` lands in the panic message so a failing
/// sweep case is replayable without rerunning the whole property.
fn assert_chaos_laws(s: &SloSummary, label: &str) {
    assert_eq!(
        s.violations, 0,
        "{label}: checker law violated (first: {:?})",
        s.first_law
    );
    assert_eq!(
        s.stranded, 0,
        "{label}: {} VMs ended the day stranded on failed hosts",
        s.stranded
    );
    assert_eq!(
        s.admitted,
        s.placed + s.rejected,
        "{label}: admission ledger out of balance"
    );
    if s.host_failures == 0 {
        assert_eq!(
            (s.migrations, s.evacuations_failed, s.shed_admissions),
            (0, 0, 0),
            "{label}: migration/shed activity without any fired host failure"
        );
    }
}

/// Core fault-tolerance property: random fleets under random chaos plans,
/// every policy, both migration modes — always law-clean, never stranded.
#[test]
fn random_chaos_plans_never_strand_vms_or_break_placement_laws() {
    propcheck::forall(0xFA17, cases(6), |rng| {
        let spec = random_spec(rng);
        let seed = rng.u64();
        let chaos_seed = rng.u64();
        let policy = POLICIES[rng.index(POLICIES.len())];
        let migration = if rng.index(2) == 0 {
            MigrationMode::Handoff
        } else {
            MigrationMode::ColdReprobe
        };
        let s = run_chaos(&spec, policy, migration, seed, chaos_seed);
        assert_chaos_laws(
            &s,
            &format!(
                "policy {policy} migration {} seed {seed:#x} chaos {chaos_seed:#x}",
                migration.name()
            ),
        );
    });
}

/// A crash mid-day must actually exercise the evacuation path: when the
/// plan fires at least one failure on a loaded fleet, either VMs migrated
/// off the dead host or the retry ledger accounts for why they could not.
#[test]
fn fired_failures_are_accounted_as_migrations_or_failed_evacuations() {
    let mut spec = FleetSpec::small(4, 2, 2);
    spec.arrival_mean_ns = 40 * MS;
    let s = run_chaos(&spec, "worst-fit", MigrationMode::Handoff, 7, 0xBAD5EED);
    assert!(
        s.host_failures > 0,
        "chaos plan fired no failures at this scale; for_fleet scaling regressed"
    );
    assert!(
        s.migrations > 0 || s.evacuations_failed > 0,
        "a failure fired on a loaded fleet but nothing was evacuated or retried"
    );
    assert_chaos_laws(&s, "worst-fit handoff seed 7 chaos 0xBAD5EED");
}

/// CI sweep hook: `SWEEP_SEED` reseeds the whole day (plan *and*
/// workload) so nightly runs explore fresh faulted days; the seed is in
/// every assertion message, so a red run is immediately reproducible with
/// `SWEEP_SEED=<seed> cargo test -p vsched-fleet --test fleet_chaos`.
#[test]
fn env_seeded_chaos_day_is_law_clean() {
    let chaos_seed = propcheck::sweep_seed(0xD15EA5E);
    let mut spec = FleetSpec::small(4, 4, 2);
    spec.arrival_mean_ns = 60 * MS;
    for migration in [MigrationMode::Handoff, MigrationMode::ColdReprobe] {
        let s = run_chaos(&spec, "probe-aware", migration, chaos_seed, chaos_seed);
        assert_chaos_laws(
            &s,
            &format!(
                "SWEEP_SEED={chaos_seed} migration {} (replay with this env var)",
                migration.name()
            ),
        );
    }
}
