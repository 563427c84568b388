//! Byte-identity of parallel cluster stepping.
//!
//! The stepping pool (`Cluster::run` with >1 effective worker) must be
//! invisible in every output: the same `(spec, mode, policy, seed)` run
//! at 1, 2, and N workers has to produce identical `SloSummary` fields,
//! checker verdicts, per-tenant snapshots, and per-host utilization
//! series — bit-for-bit on the floats, not approximately. One worker
//! takes the plain serial path, so these tests pin the parallel path to
//! the serial baseline directly.

use simcore::propcheck;
use simcore::time::MS;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use vsched_fleet::{
    parse_fleet_threads, policy_by_name, ChurnModel, Cluster, FleetChaosPlan, FleetChaosSpec,
    FleetSpec, FleetTrace, GuestMode, MigrationMode, SloSummary,
};

/// Property case budget; `--features property-tests` widens the sweep.
fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Every observable output of a run, rendered with float *bits* so "close
/// enough" can never pass: summary counters and percentiles, per-tier
/// tails, checker verdict, per-tenant snapshots, and the per-host
/// utilization series in host-id order.
fn digest(c: &Cluster, s: &SloSummary) -> String {
    let mut d = String::new();
    let _ = write!(
        d,
        "adm {} placed {} rej {} done {} drop {} ",
        s.admitted, s.placed, s.rejected, s.completed, s.dropped
    );
    let _ = write!(
        d,
        "p50 {:x} p99 {:x} worst {:x} fair {:x} mean {:x} peak {:x} ",
        s.p50_ms.to_bits(),
        s.p99_ms.to_bits(),
        s.worst_tenant_p99_ms.to_bits(),
        s.fairness.to_bits(),
        s.mean_util.to_bits(),
        s.peak_util.to_bits()
    );
    for (t, n) in s.tier_p99_ms.iter().zip(s.tier_tenants) {
        let _ = write!(d, "tier {:x}/{n} ", t.to_bits());
    }
    let _ = write!(
        d,
        "slo {}/{} events {} viol {} law {:?} unplaced {} | ",
        s.slo_violations, s.measured_tenants, s.trace_events, s.violations, s.first_law, s.unplaced
    );
    let _ = write!(
        d,
        "tierslo {:?} stranded {} fail {} mig {} evacfail {} shed {} | ",
        s.tier_slo_violations,
        s.stranded,
        s.host_failures,
        s.migrations,
        s.evacuations_failed,
        s.shed_admissions
    );
    for t in &s.tenants {
        let _ = write!(
            d,
            "t{}:{:?}v{}l{}c{}d{}e{} ",
            t.uid,
            t.prio,
            t.vcpus,
            t.lifetime_ns,
            t.completed,
            t.dropped,
            t.e2e.count()
        );
    }
    d.push('|');
    for host in c.host_util() {
        for u in host {
            let _ = write!(d, " {:x}", u.to_bits());
        }
        d.push(';');
    }
    d
}

fn run_digest(
    spec: &FleetSpec,
    mode: GuestMode,
    policy: &str,
    seed: u64,
    workers: usize,
) -> String {
    let mut c = Cluster::with_threads(
        spec.clone(),
        mode,
        policy_by_name(policy).expect("registered policy"),
        seed,
        nz(workers),
    );
    let s = c.run();
    digest(&c, &s)
}

fn random_spec(rng: &mut simcore::SimRng) -> FleetSpec {
    let mut spec = FleetSpec::small(1 + rng.index(6), 1 + rng.index(4), 1);
    spec.horizon_ns = 200 * MS + rng.range(0, 1_000 * MS);
    spec.arrival_mean_ns = 1 + rng.range(0, 600 * MS);
    spec
}

#[test]
fn random_fleets_step_identically_at_1_2_and_n_workers() {
    propcheck::forall(0x9A57E9, cases(4), |rng| {
        let spec = random_spec(rng);
        let seed = rng.u64();
        let mode = if rng.index(2) == 0 {
            GuestMode::Cfs
        } else {
            GuestMode::Vsched
        };
        let policy = ["first-fit", "worst-fit", "probe-aware"][rng.index(3)];
        let serial = run_digest(&spec, mode, policy, seed, 1);
        assert_eq!(
            serial,
            run_digest(&spec, mode, policy, seed, 2),
            "2 workers diverged from serial ({policy}, {mode:?})"
        );
        assert_eq!(
            serial,
            run_digest(&spec, mode, policy, seed, 7),
            "7 workers diverged from serial ({policy}, {mode:?})"
        );
    });
}

/// The churned fleets the bench harness times at 256 hosts for 2 s and
/// 1000 hosts for 1 s: 4-thread hosts, arrivals sped up with the fleet
/// size (floored at 4 ms), vSched guests under the probe-aware policy.
/// Too long for a debug run; CI runs it in release with `-- --ignored`.
#[test]
#[ignore = "large fleets: run in release with -- --ignored"]
fn large_churned_fleets_step_identically_at_1_2_and_4_workers() {
    for (hosts, horizon_secs) in [(256, 2), (1000, 1)] {
        let mut spec = FleetSpec::small(hosts, 4, horizon_secs);
        spec.arrival_mean_ns = (250 * MS * 16 / hosts as u64).max(4 * MS);
        let run = |workers| {
            let mut c = Cluster::with_threads(
                spec.clone(),
                GuestMode::Vsched,
                policy_by_name("probe-aware").expect("registered policy"),
                1,
                nz(workers),
            );
            let s = c.run();
            (c.events_dispatched(), digest(&c, &s))
        };
        let (events, serial) = run(1);
        assert!(events > 0, "{hosts} hosts dispatched nothing");
        for workers in [2, 4] {
            let (e, d) = run(workers);
            assert_eq!(events, e, "{hosts} hosts: events at {workers} workers");
            // Not assert_eq: the digest of a large fleet runs to megabytes.
            assert!(serial == d, "{hosts} hosts: {workers} workers diverged");
        }
    }
}

#[test]
fn committed_sap_day_replays_identically_across_worker_counts() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/sap_day.trace.jsonl"
    ))
    .expect("committed example trace readable");
    let trace = FleetTrace::decode(&text).expect("committed example trace valid");
    let spec = vsched_fleet::spec_for_trace(&trace, 4, 4);
    assert!(matches!(spec.churn, ChurnModel::Trace(_)));
    let serial = run_digest(&spec, GuestMode::Vsched, "probe-aware", 42, 1);
    for workers in [2, 3, 8] {
        assert_eq!(
            serial,
            run_digest(&spec, GuestMode::Vsched, "probe-aware", 42, workers),
            "replayed day diverged at {workers} workers"
        );
    }
}

fn run_chaos_digest(
    spec: &FleetSpec,
    policy: &str,
    migration: MigrationMode,
    seed: u64,
    chaos_seed: u64,
    workers: usize,
) -> String {
    let mut c = Cluster::with_threads(
        spec.clone(),
        GuestMode::Vsched,
        policy_by_name(policy).expect("registered policy"),
        seed,
        nz(workers),
    );
    let cspec = FleetChaosSpec::for_fleet(spec.hosts as u16, spec.horizon_ns);
    c.set_chaos(FleetChaosPlan::generate(chaos_seed, &cspec));
    c.set_migration_mode(migration);
    let s = c.run();
    digest(&c, &s)
}

/// The tentpole's determinism gate: a chaos day — failures, evacuations,
/// retries, recoveries, degraded-mode sheds — must be byte-identical at
/// 1, 2, and N stepping workers, in both migration modes.
#[test]
fn chaos_days_step_identically_at_1_2_and_n_workers() {
    propcheck::forall(0xC4A05, cases(3), |rng| {
        let mut spec = random_spec(rng);
        // Long enough that the scaled fault window actually fires.
        spec.horizon_ns = 800 * MS + rng.range(0, 800 * MS);
        let seed = rng.u64();
        let chaos_seed = rng.u64();
        let policy = ["first-fit", "worst-fit", "probe-aware"][rng.index(3)];
        let migration = if rng.index(2) == 0 {
            MigrationMode::Handoff
        } else {
            MigrationMode::ColdReprobe
        };
        let serial = run_chaos_digest(&spec, policy, migration, seed, chaos_seed, 1);
        assert_eq!(
            serial,
            run_chaos_digest(&spec, policy, migration, seed, chaos_seed, 2),
            "2 workers diverged from serial ({policy}, {migration:?}, chaos {chaos_seed:#x})"
        );
        assert_eq!(
            serial,
            run_chaos_digest(&spec, policy, migration, seed, chaos_seed, 7),
            "7 workers diverged from serial ({policy}, {migration:?}, chaos {chaos_seed:#x})"
        );
    });
}

#[test]
fn fleet_threads_zero_is_rejected_with_a_named_field_error() {
    assert_eq!(
        parse_fleet_threads("0").unwrap_err(),
        "fleet_threads must be positive (got 0)"
    );
    assert_eq!(parse_fleet_threads("4").unwrap().get(), 4);
}
