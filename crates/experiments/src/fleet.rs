//! Fleet cell: CFS guests vs vSched guests on the same churned cluster.
//!
//! The paper evaluates vSched on one host with a fixed sibling set; the
//! fleet cell asks what its probing buys at cluster scale. A small
//! overcommitted cluster (`fleet::Cluster`) replays an identical
//! seed-driven churn schedule — VM arrivals, departures, vertical resizes
//! — once with plain CFS guests and once with vSched guests, under each
//! registered placement policy. The probe-aware policy only differentiates
//! itself in the vSched rows: CFS guests report nominal capacity, so for
//! them it collapses to first-fit. Columns are the fleet SLO summary
//! (merged p50/p99, per-tenant p99 SLO violations, Jain's fairness, host
//! utilization) plus the trace checker's verdict on the placement laws
//! (overcommit cap respected, every admitted VM placed at most once).

use crate::common::Scale;
use crate::runner::{cell, got, Job, Part};
use ::fleet::{policy_by_name, Cluster, FleetSpec, GuestMode, POLICIES};
use metrics::Table;
use std::fmt;

/// Hosts in the fleet cell's cluster.
pub const HOSTS: usize = 4;

/// Hardware threads per host.
pub const THREADS_PER_HOST: usize = 4;

/// The cluster spec a fleet cell at this horizon uses: [`HOSTS`] flat
/// [`THREADS_PER_HOST`]-thread machines with a 1.5× overcommit cap and the
/// default heavy-tailed size mix, churned harder than the test default
/// (~10 arrivals per simulated second) so even smoke-scale cells see
/// placement pressure.
pub fn spec_for(horizon_secs: u64) -> FleetSpec {
    let mut spec = FleetSpec::small(HOSTS, THREADS_PER_HOST, horizon_secs);
    spec.arrival_mean_ns = 100 * simcore::time::MS;
    spec
}

/// One fleet cell's outcome: the SLO summary of a single
/// `(policy, guest mode)` cluster run, minus the per-tenant detail.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// VMs that entered the placement pipeline.
    pub admitted: u64,
    /// VMs a policy successfully sited.
    pub placed: u64,
    /// VMs rejected (no host fit under the overcommit cap).
    pub rejected: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Fleet-merged median end-to-end latency (ms).
    pub p50_ms: f64,
    /// Fleet-merged tail end-to-end latency (ms).
    pub p99_ms: f64,
    /// The single worst tenant's p99 (ms).
    pub worst_tenant_p99_ms: f64,
    /// Tenants whose own p99 busted the spec's SLO.
    pub slo_violations: usize,
    /// Tenants whose own p99 busted their *tier's* target
    /// (critical, standard, batch).
    pub tier_slo_violations: [usize; 3],
    /// Tenants with at least one completed request.
    pub measured_tenants: usize,
    /// Jain's fairness index over per-tenant completion rates.
    pub fairness: f64,
    /// Mean host utilization (0..=1).
    pub mean_util: f64,
    /// Trace events observed across fleet + per-host collectors.
    pub trace_events: u64,
    /// Invariant violations (must be 0).
    pub violations: u64,
}

/// Runs one policy's cell: the *same* `(spec, seed)` churn schedule
/// replayed twice — once with CFS guests, once with vSched guests — so the
/// two rows differ only in the guest scheduler (and, for the probe-aware
/// policy, in the capacity signal it feeds back to placement).
pub fn run_cell(
    policy: &'static str,
    horizon_secs: u64,
    seed: u64,
) -> (FleetOutcome, FleetOutcome) {
    let run_mode = |mode| {
        let mut c = Cluster::new(
            spec_for(horizon_secs),
            mode,
            policy_by_name(policy).expect("registered policy"),
            seed,
        );
        outcome(c.run())
    };
    (run_mode(GuestMode::Cfs), run_mode(GuestMode::Vsched))
}

fn outcome(s: ::fleet::SloSummary) -> FleetOutcome {
    FleetOutcome {
        admitted: s.admitted,
        placed: s.placed,
        rejected: s.rejected,
        completed: s.completed,
        p50_ms: s.p50_ms,
        p99_ms: s.p99_ms,
        worst_tenant_p99_ms: s.worst_tenant_p99_ms,
        slo_violations: s.slo_violations,
        tier_slo_violations: s.tier_slo_violations,
        measured_tenants: s.measured_tenants,
        fairness: s.fairness,
        mean_util: s.mean_util,
        trace_events: s.trace_events,
        violations: s.violations,
    }
}

/// The rendered fleet cell: one `(CFS, vSched)` outcome pair per policy,
/// in [`POLICIES`] order.
pub struct Fleet {
    /// `(policy, cfs, vsched)` rows.
    pub rows: Vec<(&'static str, FleetOutcome, FleetOutcome)>,
}

impl fmt::Display for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet: CFS vs vSched guests on a churned {HOSTS}-host cluster"
        )?;
        let mut t = Table::new(&[
            "policy",
            "guests",
            "placed",
            "rejected",
            "p50 ms",
            "p99 ms",
            "SLO viol",
            "tier viol c/s/b",
            "fairness",
            "util",
            "violations",
        ]);
        for (policy, cfs, vs) in &self.rows {
            for (mode, o) in [(GuestMode::Cfs, cfs), (GuestMode::Vsched, vs)] {
                t.row_owned(vec![
                    policy.to_string(),
                    mode.label().to_string(),
                    o.placed.to_string(),
                    o.rejected.to_string(),
                    format!("{:.2}", o.p50_ms),
                    format!("{:.2}", o.p99_ms),
                    format!("{}/{}", o.slo_violations, o.measured_tenants),
                    format!(
                        "{}/{}/{}",
                        o.tier_slo_violations[0],
                        o.tier_slo_violations[1],
                        o.tier_slo_violations[2]
                    ),
                    format!("{:.3}", o.fairness),
                    format!("{:.2}", o.mean_util),
                    o.violations.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        for (policy, cfs, vs) in &self.rows {
            write!(
                f,
                "\n{policy}: p99 ratio (vSched/CFS) {:.2}x",
                vs.p99_ms / cfs.p99_ms.max(1e-9)
            )?;
        }
        Ok(())
    }
}

/// The suite job: one cell per placement policy. Each replays the
/// identical churn schedule under CFS guests and under vSched guests (same
/// cell seed), so the comparison inside a cell is apples-to-apples and the
/// job still shards across policies.
pub(crate) fn job() -> Job {
    let cells = POLICIES
        .iter()
        .map(|&policy| {
            cell(policy, move |seed, scale: Scale| {
                run_cell(policy, scale.secs(4, 16), seed)
            })
        })
        .collect();
    Job {
        name: "fleet",
        desc: "CFS vs vSched guests on a churned multi-host cluster, per placement policy",
        cells,
        reduce: Box::new(|parts, _| Fleet::from_parts(parts).to_string()),
    }
}

impl Fleet {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fleet {
        let rows = POLICIES
            .iter()
            .zip(parts.into_iter().map(got::<(FleetOutcome, FleetOutcome)>))
            .map(|(&policy, (cfs, vs))| (policy, cfs, vs))
            .collect();
        Fleet { rows }
    }
}
