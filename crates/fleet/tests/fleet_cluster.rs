//! End-to-end cluster runs checked against the fleet trace laws, plus the
//! property that a lifecycle schedule is a pure function of its spec and
//! seed.

use simcore::propcheck;
use simcore::time::MS;
use vsched_fleet::{policy_by_name, Cluster, FleetSpec, GuestMode, VmOp, POLICIES};

/// Property case budget; `--features property-tests` widens the sweep.
fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

fn random_spec(rng: &mut simcore::SimRng) -> FleetSpec {
    let mut spec = FleetSpec::small(1 + rng.index(8), 1 + rng.index(8), 1);
    spec.arrival_mean_ns = 1 + rng.range(0, 500 * MS);
    spec.horizon_ns = 1 + rng.range(0, 30_000 * MS);
    spec
}

#[test]
fn lifecycle_schedules_are_pure_functions_of_spec_and_seed() {
    propcheck::forall(0xF1EE8, cases(8), |rng| {
        let spec = random_spec(rng);
        let seed = rng.u64();
        assert_eq!(
            vsched_fleet::generate(&spec, seed),
            vsched_fleet::generate(&spec, seed)
        );
    });
}

/// Every policy, both guest modes: a churned cluster must satisfy the
/// fleet placement laws (overcommit cap respected on every placement,
/// each admitted VM placed at most once, departs match placements) *and*
/// the per-host conservation laws, with the bookkeeping identity
/// `admitted == placed + rejected` and `unplaced == rejected` holding at
/// the horizon.
#[test]
fn every_policy_and_mode_runs_clean_under_churn() {
    for policy in POLICIES {
        for mode in [GuestMode::Cfs, GuestMode::Vsched] {
            let spec = FleetSpec::small(3, 2, 2);
            let mut c = Cluster::new(spec, mode, policy_by_name(policy).unwrap(), 17);
            let s = c.run();
            assert!(
                s.admitted > 0,
                "{policy}/{}: no churn generated",
                mode.label()
            );
            assert_eq!(
                s.admitted,
                s.placed + s.rejected,
                "{policy}/{}: admissions unaccounted",
                mode.label()
            );
            assert_eq!(
                s.violations,
                0,
                "{policy}/{}: law broken: {:?}",
                mode.label(),
                s.first_law
            );
            assert_eq!(s.unplaced, s.rejected as usize);
            assert!(s.completed > 0, "{policy}/{}: tenants idle", mode.label());
            assert!(s.trace_events > 0);
        }
    }
}

/// The overcommit cap binds: with one thread per host the cap is one
/// vCPU, so multi-vCPU VMs in the mix can never be placed, yet the run
/// stays violation-free because rejection (not over-placement) is the
/// required response.
#[test]
fn saturated_cluster_rejects_instead_of_overcommitting() {
    let spec = FleetSpec::small(2, 1, 2);
    assert_eq!(spec.overcommit_cap(), 1);
    let mut c = Cluster::new(
        spec,
        GuestMode::Cfs,
        policy_by_name("first-fit").unwrap(),
        9,
    );
    let s = c.run();
    assert!(s.rejected > 0);
    assert_eq!(s.violations, 0, "law broken: {:?}", s.first_law);
    for t in &s.tenants {
        assert_eq!(t.vcpus, 1, "only 1-vCPU VMs fit under a cap of 1");
    }
}

/// Two runs of the same `(spec, mode, policy, seed)` cell replay the
/// same schedule and land on bit-identical summaries — the property the
/// suite's sharded fleet job depends on.
#[test]
fn fleet_cells_are_deterministic() {
    let outcome = |seed: u64| {
        let mut c = Cluster::new(
            FleetSpec::small(2, 2, 1),
            GuestMode::Vsched,
            policy_by_name("probe-aware").unwrap(),
            seed,
        );
        let s = c.run();
        (
            s.admitted,
            s.placed,
            s.completed,
            s.dropped,
            s.p50_ms.to_bits(),
            s.p99_ms.to_bits(),
            s.worst_tenant_p99_ms.to_bits(),
            s.fairness.to_bits(),
            s.mean_util.to_bits(),
            s.peak_util.to_bits(),
            s.trace_events,
        )
    };
    assert_eq!(outcome(23), outcome(23));
    assert_ne!(outcome(23), outcome(24));
}

/// Resizes appear in schedules and only ever target live VMs — and a
/// churned run that includes them still satisfies every law.
#[test]
fn resizes_ride_along_cleanly() {
    let spec = FleetSpec::small(2, 4, 3);
    let schedule = vsched_fleet::generate(&spec, 101);
    let resizes = schedule
        .iter()
        .filter(|e| matches!(e.op, VmOp::Resize { .. }))
        .count();
    assert!(resizes > 0, "3s of churn should include resizes");
    let mut c = Cluster::new(
        spec,
        GuestMode::Vsched,
        policy_by_name("worst-fit").unwrap(),
        101,
    );
    let s = c.run();
    assert_eq!(s.violations, 0, "law broken: {:?}", s.first_law);
}
