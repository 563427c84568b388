//! Replayed-day cell: every placement policy × guest mode over one trace.
//!
//! The stochastic `fleet` job re-draws its churn from the cell seed, so
//! two policies never see *exactly* the same day. This cell fixes that:
//! a SAP-shaped trace is synthesized from the profile's canonical
//! [`day_seed`] — deliberately independent of the suite's cell seeds —
//! and compiled into the spec as [`ChurnModel::Trace`], so every
//! `(policy, guest mode)` pair replays the identical arrival/departure/
//! resize schedule. The cell seed still reaches workload phases and host
//! streams, but never the day itself. Reported columns add per-priority-
//! tier p99 (critical/standard/batch), the slice the trace's tenant
//! tiers exist for.
//!
//! [`ChurnModel::Trace`]: ::fleet::ChurnModel::Trace

use crate::fleet::{summarize, HOSTS, THREADS_PER_HOST};
use crate::runner::{CellCtx, Grid};
use ::fleet::{
    day_seed, profile_by_name, spec_for_trace, synthesize, GuestMode, SloSummary, POLICIES,
    PROFILES,
};
use metrics::Table;
use std::fmt;

/// Generator profiles the job grids over, in cell order.
pub fn profile_names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p.name).collect()
}

/// Runs one `(profile, policy)` cell: the profile's canonical day,
/// replayed once with CFS guests and once with vSched guests.
pub fn run_cell(
    ctx: &CellCtx,
    policy: &'static str,
    profile: &'static str,
) -> (SloSummary, SloSummary) {
    let p = profile_by_name(profile).expect("registered profile");
    let horizon_ns = ctx.scale.secs(4, 16) * 1_000_000_000;
    let trace = synthesize(p, horizon_ns, day_seed(p.name));
    let spec = spec_for_trace(&trace, HOSTS, THREADS_PER_HOST);
    let run_mode = |mode| summarize(ctx.cluster(spec.clone(), mode, policy));
    (run_mode(GuestMode::Cfs), run_mode(GuestMode::Vsched))
}

/// The rendered replay cell grid: one `(CFS, vSched)` pair per
/// `(profile, policy)`, profiles outermost.
pub struct Replay {
    /// One row per cell.
    pub rows: Vec<Row>,
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet replay: policies x guest modes over one trace per profile \
             ({HOSTS}x{THREADS_PER_HOST} cluster)"
        )?;
        let mut t = Table::new(&[
            "profile",
            "policy",
            "guests",
            "placed",
            "rejected",
            "p99 ms",
            "crit p99",
            "std p99",
            "batch p99",
            "SLO viol",
            "fairness",
            "violations",
        ]);
        for (profile, policy, cfs, vs) in &self.rows {
            for (mode, o) in [(GuestMode::Cfs, cfs), (GuestMode::Vsched, vs)] {
                t.row_owned(vec![
                    profile.to_string(),
                    policy.to_string(),
                    mode.label().to_string(),
                    o.placed.to_string(),
                    o.rejected.to_string(),
                    format!("{:.2}", o.p99_ms),
                    format!("{:.2}", o.tier_p99_ms[0]),
                    format!("{:.2}", o.tier_p99_ms[1]),
                    format!("{:.2}", o.tier_p99_ms[2]),
                    format!("{}/{}", o.slo_violations, o.measured_tenants),
                    format!("{:.3}", o.fairness),
                    o.violations.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        for (profile, policy, cfs, vs) in &self.rows {
            write!(
                f,
                "\n{profile}/{policy}: p99 ratio (vSched/CFS) {:.2}x",
                vs.p99_ms / cfs.p99_ms.max(1e-9)
            )?;
        }
        Ok(())
    }
}

/// One row: `(profile, policy, cfs, vsched)`.
pub type Row = (&'static str, &'static str, SloSummary, SloSummary);

/// The suite grid: one cell per (generator profile, placement policy).
/// The day is pinned by the profile's canonical day_seed — not the cell
/// seed — so every cell in a profile replays the identical generated
/// trace; within a cell, CFS and vSched guests run it back to back.
pub fn grid() -> Grid<Row, Replay> {
    let mut g = Grid::new(
        "fleet-replay",
        "placement policies x guest modes over one replayed SAP-shaped day per profile",
        |rows, _| Replay { rows },
    );
    for profile in profile_names() {
        for &policy in POLICIES.iter() {
            g.cell(format!("{profile}/{policy}"), move |ctx| {
                let (cfs, vs) = run_cell(ctx, policy, profile);
                (profile, policy, cfs, vs)
            });
        }
    }
    g
}
