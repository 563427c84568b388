//! Fleet-wide tenant SLO accounting.
//!
//! The cluster snapshots one [`TenantStats`] per VM at departure (or at
//! the horizon for still-live VMs); [`summarize`] folds those into an
//! [`SloSummary`]: fleet-merged latency percentiles (via
//! `metrics::Histogram::merge`), per-tenant p99 SLO violations, Jain's
//! fairness index over per-tenant throughput, and host-utilization
//! aggregates from the cluster's sampled timeseries.

use crate::lifecycle::FleetSpec;
use metrics::Histogram;
use simcore::time::MS;
use trace::PriorityClass;

/// Per-tenant accounting, snapshotted when the VM departs (or when the
/// run's horizon is reached for still-live VMs).
#[derive(Clone)]
pub struct TenantStats {
    /// Fleet-wide VM id.
    pub uid: u32,
    /// Tenant priority class (SLO reporting is sliced by tier).
    pub prio: PriorityClass,
    /// Nominal size in vCPUs.
    pub vcpus: usize,
    /// Time between placement and departure/horizon.
    pub lifetime_ns: u64,
    /// End-to-end request latency observed by the tenant's guest workload.
    pub e2e: Histogram,
    /// Requests completed over the tenant's lifetime.
    pub completed: u64,
    /// Requests dropped by the tenant's workload queue.
    pub dropped: u64,
}

impl TenantStats {
    /// Completed requests per simulated second — the throughput Jain's
    /// index is computed over.
    pub fn rate_per_sec(&self) -> f64 {
        if self.lifetime_ns == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e9 / self.lifetime_ns as f64
    }
}

/// Fleet-wide outcome of one cluster run.
#[derive(Clone)]
pub struct SloSummary {
    /// VMs that entered the placement pipeline.
    pub admitted: u64,
    /// VMs a policy successfully sited.
    pub placed: u64,
    /// VMs rejected (no host fit under its overcommit cap).
    pub rejected: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests dropped fleet-wide.
    pub dropped: u64,
    /// Fleet-merged median end-to-end latency, ms.
    pub p50_ms: f64,
    /// Fleet-merged tail end-to-end latency, ms.
    pub p99_ms: f64,
    /// The single worst tenant's p99, ms.
    pub worst_tenant_p99_ms: f64,
    /// Merged p99 per priority tier in [`PRIORITY_CLASSES`](trace::PRIORITY_CLASSES) order
    /// (critical, standard, batch); 0.0 for an unpopulated tier.
    pub tier_p99_ms: [f64; 3],
    /// Measured tenants per priority tier (same order).
    pub tier_tenants: [usize; 3],
    /// Tenants whose own p99 exceeded `spec.slo_p99_ns`.
    pub slo_violations: usize,
    /// Tenants whose own p99 exceeded their *tier's* target
    /// (`spec.tier_slo_p99_ns`), in [`PRIORITY_CLASSES`](trace::PRIORITY_CLASSES) order.
    pub tier_slo_violations: [usize; 3],
    /// Tenants with at least one completed request (the SLO denominator).
    pub measured_tenants: usize,
    /// Jain's fairness index over per-tenant completion rates
    /// (1.0 = perfectly fair, 1/n = one tenant gets everything).
    pub fairness: f64,
    /// Mean of the per-host mean utilizations (0..=1).
    pub mean_util: f64,
    /// Max single-window utilization across all hosts (0..=1).
    pub peak_util: f64,
    /// Trace events observed across fleet + per-host collectors.
    pub trace_events: u64,
    /// Invariant violations across fleet + per-host collectors.
    pub violations: u64,
    /// The first broken law's name, if any collector flagged one.
    pub first_law: Option<&'static str>,
    /// Admitted-but-unplaced VMs left in the fleet checker (should equal
    /// `rejected` on a clean run).
    pub unplaced: usize,
    /// VMs still placed on a failed host when the run ended (should be 0:
    /// the cluster force-departs unevacuable residents at the horizon).
    pub stranded: usize,
    /// Host crash/drain events the chaos plan actually injected.
    pub host_failures: u64,
    /// VMs live-migrated off a crashing or draining host.
    pub migrations: u64,
    /// Evacuations that exhausted their retry budget (victim departed).
    pub evacuations_failed: u64,
    /// Admissions shed by fleet degraded mode (Batch first, then
    /// Standard; Critical is never shed). Counted inside `rejected`.
    pub shed_admissions: u64,
    /// Per-tenant snapshots, in departure order.
    pub tenants: Vec<TenantStats>,
}

/// Folds per-tenant snapshots and host-utilization samples into the
/// fleet summary. `host_util` is one sampled-utilization series per host
/// (each sample 0..=1).
pub fn summarize(
    spec: &FleetSpec,
    tenants: Vec<TenantStats>,
    host_util: &[Vec<f64>],
    admitted: u64,
    placed: u64,
    rejected: u64,
) -> SloSummary {
    let mut fleet = Histogram::new();
    let mut tiers: [Histogram; 3] = [Histogram::new(), Histogram::new(), Histogram::new()];
    let mut tier_tenants = [0usize; 3];
    let mut completed = 0u64;
    let mut dropped = 0u64;
    let mut worst_p99 = 0u64;
    let mut slo_violations = 0usize;
    let mut tier_slo_violations = [0usize; 3];
    let mut measured = 0usize;
    for t in &tenants {
        fleet.merge(&t.e2e);
        tiers[t.prio.index()].merge(&t.e2e);
        completed += t.completed;
        dropped += t.dropped;
        if t.e2e.count() > 0 {
            measured += 1;
            tier_tenants[t.prio.index()] += 1;
            let p99 = t.e2e.p99();
            worst_p99 = worst_p99.max(p99);
            if p99 > spec.slo_p99_ns {
                slo_violations += 1;
            }
            if p99 > spec.tier_slo_p99_ns[t.prio.index()] {
                tier_slo_violations[t.prio.index()] += 1;
            }
        }
    }
    let mut tier_p99_ms = [0.0f64; 3];
    for (i, h) in tiers.iter().enumerate() {
        if h.count() > 0 {
            tier_p99_ms[i] = h.p99() as f64 / MS as f64;
        }
    }

    // Jain's index: (Σx)² / (n·Σx²) over tenants that lived long enough
    // to have a rate; empty fleets count as perfectly fair.
    let rates: Vec<f64> = tenants
        .iter()
        .map(TenantStats::rate_per_sec)
        .filter(|r| *r > 0.0)
        .collect();
    let fairness = if rates.is_empty() {
        1.0
    } else {
        let sum: f64 = rates.iter().sum();
        let sq: f64 = rates.iter().map(|r| r * r).sum();
        (sum * sum) / (rates.len() as f64 * sq)
    };

    let mut mean_util = 0.0;
    let mut peak_util = 0.0f64;
    if !host_util.is_empty() {
        let mut host_means = 0.0;
        for series in host_util {
            if !series.is_empty() {
                host_means += series.iter().sum::<f64>() / series.len() as f64;
            }
            for &u in series {
                peak_util = peak_util.max(u);
            }
        }
        mean_util = host_means / host_util.len() as f64;
    }

    SloSummary {
        admitted,
        placed,
        rejected,
        completed,
        dropped,
        p50_ms: fleet.p50() as f64 / MS as f64,
        p99_ms: fleet.p99() as f64 / MS as f64,
        worst_tenant_p99_ms: worst_p99 as f64 / MS as f64,
        tier_p99_ms,
        tier_tenants,
        slo_violations,
        tier_slo_violations,
        measured_tenants: measured,
        fairness,
        mean_util,
        peak_util,
        trace_events: 0,
        violations: 0,
        first_law: None,
        unplaced: 0,
        stranded: 0,
        host_failures: 0,
        migrations: 0,
        evacuations_failed: 0,
        shed_admissions: 0,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::PRIORITY_CLASSES;

    fn tenant(uid: u32, latencies_ns: &[u64], lifetime_ns: u64) -> TenantStats {
        let mut e2e = Histogram::new();
        for &l in latencies_ns {
            e2e.record(l);
        }
        TenantStats {
            uid,
            prio: PRIORITY_CLASSES[uid as usize % 3],
            vcpus: 1,
            lifetime_ns,
            e2e,
            completed: latencies_ns.len() as u64,
            dropped: 0,
        }
    }

    #[test]
    fn summary_merges_tenants_and_counts_violations() {
        let spec = FleetSpec::small(2, 2, 1); // slo_p99_ns = 20ms
        let fast = tenant(0, &[MS, 2 * MS, 3 * MS], 1_000 * MS);
        let slow = tenant(1, &[40 * MS, 50 * MS], 1_000 * MS);
        let s = summarize(
            &spec,
            vec![fast, slow],
            &[vec![0.5, 0.7], vec![0.9]],
            3,
            2,
            1,
        );
        assert_eq!(s.completed, 5);
        assert_eq!(s.slo_violations, 1, "only the slow tenant busts 20ms");
        assert_eq!(s.measured_tenants, 2);
        assert!(s.worst_tenant_p99_ms >= 40.0);
        assert!(s.p99_ms >= s.p50_ms);
        assert!(s.fairness > 0.5 && s.fairness <= 1.0);
        assert!((s.mean_util - 0.75).abs() < 1e-9);
        assert!((s.peak_util - 0.9).abs() < 1e-9);
    }

    #[test]
    fn tier_targets_count_violations_per_class() {
        let spec = FleetSpec::small(2, 2, 1); // tiers: 10ms / 20ms / 80ms
        let crit = tenant(0, &[15 * MS], 1_000 * MS); // busts 10ms
        let std_ = tenant(1, &[15 * MS], 1_000 * MS); // within 20ms
        let batch = tenant(2, &[60 * MS], 1_000 * MS); // within 80ms
        let s = summarize(&spec, vec![crit, std_, batch], &[], 3, 3, 0);
        assert_eq!(s.tier_slo_violations, [1, 0, 0]);
        assert_eq!(
            s.slo_violations, 1,
            "fleet-wide 20ms SLO still counts the batch tenant"
        );
    }

    #[test]
    fn per_tier_p99_slices_by_priority_class() {
        let spec = FleetSpec::small(2, 2, 1);
        // uid % 3 picks the tier: 0 → critical, 1 → standard, 2 → batch.
        let crit = tenant(0, &[MS, 2 * MS], 1_000 * MS);
        let std_ = tenant(1, &[30 * MS], 1_000 * MS);
        let s = summarize(&spec, vec![crit, std_], &[], 2, 2, 0);
        assert_eq!(s.tier_tenants, [1, 1, 0]);
        assert!(s.tier_p99_ms[0] < s.tier_p99_ms[1], "{:?}", s.tier_p99_ms);
        assert_eq!(s.tier_p99_ms[2], 0.0, "empty tier reports 0");
    }

    #[test]
    fn fairness_is_one_when_rates_match_and_low_when_skewed() {
        let spec = FleetSpec::small(1, 2, 1);
        let even = vec![
            tenant(0, &[MS; 10], 1_000 * MS),
            tenant(1, &[MS; 10], 1_000 * MS),
        ];
        let s = summarize(&spec, even, &[], 2, 2, 0);
        assert!((s.fairness - 1.0).abs() < 1e-9);

        let mut hog = tenant(0, &[MS; 100], 1_000 * MS);
        hog.completed = 100;
        let starved = tenant(1, &[MS], 1_000 * MS);
        let s = summarize(&spec, vec![hog, starved], &[], 2, 2, 0);
        assert!(
            s.fairness < 0.6,
            "skewed rates must show up: {}",
            s.fairness
        );
    }

    #[test]
    fn empty_fleet_is_well_defined() {
        let spec = FleetSpec::small(1, 1, 1);
        let s = summarize(&spec, Vec::new(), &[], 0, 0, 0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.slo_violations, 0);
        assert!((s.fairness - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_util, 0.0);
    }
}
