//! Workspace-level integration tests: the paper's headline claims, asserted
//! as *shapes* (who wins, roughly by how much) on quick-scale runs.
//!
//! Each test exercises the full stack — host simulator, guest CFS, vProbers,
//! and the vSched policies — through the suite runner's own cells, so the
//! asserted numbers are the ones `suite --scale quick --seed 42` publishes.

use vsched_repro::experiments::fig03::Fig03;
use vsched_repro::experiments::fig04::Fig04;
use vsched_repro::experiments::fig11::Fig11;
use vsched_repro::experiments::fig14::Fig14;
use vsched_repro::experiments::runner::{job_parts, Part};
use vsched_repro::experiments::table2::Table2;
use vsched_repro::experiments::table3::Table3;
use vsched_repro::experiments::table4::Table4;
use vsched_repro::experiments::Scale;

/// One suite job's parts at the published quick-scale seed.
fn quick(id: &str) -> Vec<Part> {
    job_parts(id, 42, Scale::Quick)
}

#[test]
fn stalled_running_task_doubles_utilization_with_migration() {
    // Figure 3: proactive migration roughly doubles vCPU utilization.
    let r = Fig03::from_parts(quick("fig03"));
    assert!(
        (0.45..0.55).contains(&r.default_mode.utilization),
        "default utilization {:.2}",
        r.default_mode.utilization
    );
    assert!(
        r.improvement() > 1.7,
        "migration improvement {:.2}x (paper: ~2x)",
        r.improvement()
    );
}

#[test]
fn relaxing_work_conservation_beats_straggler_and_priority_inversion() {
    // Figure 4: non-work-conserving placement wins on problematic vCPUs.
    let r = Fig04::from_parts(quick("fig04"));
    // Straggler: at least one sync-intensive benchmark improves >30%
    // (paper: up to 43%).
    assert!(
        r.straggler.iter().any(|p| p.improvement() > 1.3),
        "straggler improvements: {:?}",
        r.straggler
            .iter()
            .map(|p| p.improvement())
            .collect::<Vec<_>>()
    );
    // Priority inversion: at least one benchmark improves >2x (paper: up
    // to 6.7x).
    assert!(
        r.priority_inversion.iter().any(|p| p.improvement() > 1.5),
        "priority-inversion improvements: {:?}",
        r.priority_inversion
            .iter()
            .map(|p| p.improvement())
            .collect::<Vec<_>>()
    );
    // And nothing in the non-work-conserving column collapses.
    for p in r
        .straggler
        .iter()
        .chain(&r.stacking)
        .chain(&r.priority_inversion)
    {
        assert!(p.improvement() > 0.8, "{}: {:.2}", p.bench, p.improvement());
    }
}

#[test]
fn vtop_probes_within_a_second_and_validates_faster() {
    // Table 2: sub-second probing; validation faster than full probing.
    let t = Table2::from_parts(quick("table2"));
    for (label, ns) in [
        ("rcvm-full", t.rcvm_full_ns),
        ("rcvm-validate", t.rcvm_validate_ns),
        ("hpvm-full", t.hpvm_full_ns),
        ("hpvm-validate", t.hpvm_validate_ns),
    ] {
        assert!(ns > 0, "{label} did not run");
        assert!(
            ns < 1_000_000_000,
            "{label} took {ns} ns (paper: sub-second)"
        );
    }
    assert!(t.rcvm_validate_ns < t.rcvm_full_ns);
    assert!(t.hpvm_validate_ns < t.hpvm_full_ns);
    // Stacking confirmation makes rcvm validation slower than hpvm's.
    assert!(t.rcvm_validate_ns > t.hpvm_validate_ns);
}

#[test]
fn vcap_steers_to_high_capacity_vcpus_and_calms_migrations() {
    // Figure 11: the paper reports 44%→81% high-capacity residency with a
    // 32% throughput gain, and 74% fewer migrations on symmetric hosts.
    let r = Fig11::from_parts(quick("fig11"));
    assert!(
        r.asym_vcap.high_cap_fraction > r.asym_cfs.high_cap_fraction + 0.25,
        "high-cap residency: CFS {:.0}% vs vcap {:.0}%",
        100.0 * r.asym_cfs.high_cap_fraction,
        100.0 * r.asym_vcap.high_cap_fraction
    );
    assert!(
        r.asym_vcap.throughput > 1.2 * r.asym_cfs.throughput,
        "throughput: {:.0} vs {:.0}",
        r.asym_cfs.throughput,
        r.asym_vcap.throughput
    );
    let reduction = 1.0 - r.sym_vcap.migrations as f64 / r.sym_cfs.migrations.max(1) as f64;
    assert!(
        reduction > 0.4,
        "migration reduction {:.0}% (paper: 74%)",
        100.0 * reduction
    );
}

#[test]
fn bvs_reduces_tail_latency() {
    // Figure 14: bvs cuts p95 (paper: 42% on average).
    let r = Fig14::from_parts(quick("fig14"));
    let mean = r.mean_reduction();
    assert!(
        mean > 0.15,
        "mean p95 reduction {:.0}% (paper: 42%)",
        100.0 * mean
    );
}

#[test]
fn bvs_state_check_helps_with_best_effort_tasks() {
    // Table 3's ablation: with best-effort tasks, full bvs beats both no
    // bvs and the no-state-check variant on queue time.
    let t = Table3::from_parts(quick("table3"));
    let (no_bvs, _no_state, bvs) = t.with_be;
    assert!(
        bvs.e2e_ns < no_bvs.e2e_ns,
        "bvs e2e {} vs no-bvs {}",
        bvs.e2e_ns,
        no_bvs.e2e_ns
    );
}

#[test]
fn ivh_prewake_beats_direct_migration_at_low_thread_counts() {
    // Table 4: activity-aware migration wins where harvesting happens.
    let t = Table4::from_parts(quick("table4"));
    assert!(
        t.speedup(0) > 1.1,
        "1-thread speedup {:.2}x (paper: ~1.17x)",
        t.speedup(0)
    );
    let (attempts, completed, _abandoned) = t.aware_stats;
    assert!(attempts > 0, "ivh never attempted a harvest");
    assert!(completed > 0, "ivh never completed a harvest");
}
