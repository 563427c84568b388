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

use crate::runner::{CellCtx, Grid};
use ::fleet::{Cluster, FleetSpec, GuestMode, SloSummary, POLICIES};
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

/// Runs `c` to its horizon: the SLO summary of a single
/// `(policy, guest mode)` cluster run, minus the per-tenant detail no
/// figure renders.
pub(crate) fn summarize(mut c: Cluster) -> SloSummary {
    let mut s = c.run();
    s.tenants = Vec::new();
    s
}

/// Runs one policy's cell: the *same* `(spec, seed)` churn schedule
/// replayed twice — once with CFS guests, once with vSched guests — so the
/// two rows differ only in the guest scheduler (and, for the probe-aware
/// policy, in the capacity signal it feeds back to placement).
pub fn run_cell(ctx: &CellCtx, policy: &'static str) -> (SloSummary, SloSummary) {
    let run_mode = |mode| summarize(ctx.cluster(spec_for(ctx.scale.secs(4, 16)), mode, policy));
    (run_mode(GuestMode::Cfs), run_mode(GuestMode::Vsched))
}

/// The rendered fleet cell: one `(CFS, vSched)` outcome pair per policy,
/// in [`POLICIES`] order.
pub struct Fleet {
    /// `(policy, cfs, vsched)` rows.
    pub rows: Vec<(&'static str, SloSummary, SloSummary)>,
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

/// The suite grid: one cell per placement policy. Each replays the
/// identical churn schedule under CFS guests and under vSched guests (same
/// cell seed), so the comparison inside a cell is apples-to-apples and the
/// job still shards across policies.
pub fn grid() -> Grid<(&'static str, SloSummary, SloSummary), Fleet> {
    let mut g = Grid::new(
        "fleet",
        "CFS vs vSched guests on a churned multi-host cluster, per placement policy",
        |rows, _| Fleet { rows },
    );
    for &policy in POLICIES.iter() {
        g.cell(policy, move |ctx| {
            let (cfs, vs) = run_cell(ctx, policy);
            (policy, cfs, vs)
        });
    }
    g
}
