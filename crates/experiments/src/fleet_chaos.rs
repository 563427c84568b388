//! Fleet-chaos cell: host failures, evacuation, and degraded mode.
//!
//! The `fleet` cell asks what vSched's probing buys at cluster scale;
//! this cell asks what survives when hosts themselves misbehave. Every
//! cell replays the *identical faulted day*: one SAP-shaped trace pinned
//! by its profile's canonical [`day_seed`], plus one
//! [`FleetChaosPlan`] (crashes, maintenance drains, transient
//! degradations) pinned by [`chaos_day_seed`] — both deliberately
//! independent of the suite's cell seeds, so every `(policy, guests)`
//! pair faces the same failures at the same instants. Three guest
//! configurations run per policy: CFS, vSched with probe-state handoff
//! on drain migrations, and vSched with cold re-probing — the
//! handoff-vs-cold p99 delta is the ablation the footer reports.
//!
//! Columns add the chaos counters: injected host failures, live
//! migrations, evacuations that exhausted their retry budget, and
//! admissions shed by fleet degraded mode. The checker's verdict covers
//! the migration laws (no placement onto a failed host, occupancy
//! conserved across each migration, every recovery timed).

use crate::fleet::{summarize, HOSTS, THREADS_PER_HOST};
use crate::runner::{CellCtx, Grid};
use ::fleet::{
    day_seed, profile_by_name, spec_for_trace, synthesize, FleetChaosPlan, FleetChaosSpec,
    GuestMode, MigrationMode, SloSummary, POLICIES,
};
use metrics::Table;
use std::fmt;

/// Generator profile whose canonical day the chaos cells replay.
pub const DAY_PROFILE: &str = "sap-diurnal";

/// Guest configurations per policy, in cell order.
pub const GUEST_CONFIGS: [ChaosGuests; 3] = [
    ChaosGuests::Cfs,
    ChaosGuests::VschedHandoff,
    ChaosGuests::VschedCold,
];

/// One guest configuration under fleet chaos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosGuests {
    /// Plain CFS guests (migration mode is moot: no probe state exists).
    Cfs,
    /// vSched guests; drain migrations hand the victim's probed
    /// capacities to the destination host.
    VschedHandoff,
    /// vSched guests; every migration re-probes from scratch.
    VschedCold,
}

impl ChaosGuests {
    /// Stable cell-label / row-label suffix.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosGuests::Cfs => "cfs",
            ChaosGuests::VschedHandoff => "vsched-handoff",
            ChaosGuests::VschedCold => "vsched-cold",
        }
    }

    fn mode(&self) -> GuestMode {
        match self {
            ChaosGuests::Cfs => GuestMode::Cfs,
            _ => GuestMode::Vsched,
        }
    }

    fn migration(&self) -> MigrationMode {
        match self {
            ChaosGuests::VschedCold => MigrationMode::ColdReprobe,
            _ => MigrationMode::Handoff,
        }
    }
}

/// Seed the shared chaos plan is generated from: FNV-1a of a fixed tag,
/// so every run of the suite replays the same day.
pub fn chaos_day_seed() -> u64 {
    day_seed("fleet-chaos-day")
}

/// The fault schedule every cell at this horizon replays.
pub fn plan_for(horizon_secs: u64) -> FleetChaosPlan {
    plan_for_seed(chaos_day_seed(), horizon_secs)
}

/// The fault schedule an explicit seed generates at this horizon (the
/// `suite --shrink-fleet` entry; the suite job itself pins its day with
/// [`plan_for`]).
pub fn plan_for_seed(seed: u64, horizon_secs: u64) -> FleetChaosPlan {
    let spec = FleetChaosSpec::for_fleet(HOSTS as u16, horizon_secs * 1_000_000_000);
    FleetChaosPlan::generate(seed, &spec)
}

/// Runs one `(policy, guests)` cell over the shared faulted day.
pub fn run_cell(
    ctx: &CellCtx,
    policy: &'static str,
    guests: ChaosGuests,
    horizon_secs: u64,
) -> SloSummary {
    let plan = plan_for(horizon_secs);
    run_plan(ctx, policy, guests, &plan, horizon_secs * 1_000_000_000)
}

/// Runs one cell under an explicit chaos plan (the fleet shrinker and
/// `fleettrace replay --chaos-seed` shape drive arbitrary — typically
/// subset — plans through the very same cluster the seeded cell uses).
pub fn run_plan(
    ctx: &CellCtx,
    policy: &'static str,
    guests: ChaosGuests,
    plan: &FleetChaosPlan,
    horizon_ns: u64,
) -> SloSummary {
    let p = profile_by_name(DAY_PROFILE).expect("registered profile");
    let trace = synthesize(p, horizon_ns, day_seed(p.name));
    let spec = spec_for_trace(&trace, HOSTS, THREADS_PER_HOST);
    let mut c = ctx.cluster(spec, guests.mode(), policy);
    c.set_chaos(plan.clone());
    c.set_migration_mode(guests.migration());
    summarize(c)
}

/// The rendered fleet-chaos grid: one row per `(policy, guests)`.
pub struct FleetChaos {
    /// Faults the shared plan injects (cell-independent).
    pub faults: usize,
    /// `(policy, guests, outcome)` rows, one per cell.
    pub rows: Vec<(&'static str, ChaosGuests, SloSummary)>,
}

impl FleetChaos {
    fn get(&self, policy: &str, guests: ChaosGuests) -> Option<&SloSummary> {
        self.rows
            .iter()
            .find(|(p, g, _)| *p == policy && *g == guests)
            .map(|(_, _, o)| o)
    }
}

impl fmt::Display for FleetChaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet chaos: host failures + evacuation on a replayed day \
             ({HOSTS}x{THREADS_PER_HOST} cluster, {} planned faults)",
            self.faults
        )?;
        let mut t = Table::new(&[
            "policy",
            "guests",
            "placed",
            "rejected",
            "p99 ms",
            "tier viol c/s/b",
            "failures",
            "migrated",
            "evac fail",
            "shed",
            "stranded",
            "violations",
        ]);
        for (policy, g, o) in &self.rows {
            t.row_owned(vec![
                policy.to_string(),
                g.label().to_string(),
                o.placed.to_string(),
                o.rejected.to_string(),
                format!("{:.2}", o.p99_ms),
                format!(
                    "{}/{}/{}",
                    o.tier_slo_violations[0], o.tier_slo_violations[1], o.tier_slo_violations[2]
                ),
                o.host_failures.to_string(),
                o.migrations.to_string(),
                o.evacuations_failed.to_string(),
                o.shed_admissions.to_string(),
                o.stranded.to_string(),
                o.violations.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        for (policy, _, handoff) in self
            .rows
            .iter()
            .filter(|r| r.1 == ChaosGuests::VschedHandoff)
        {
            let Some(cold) = self.get(policy, ChaosGuests::VschedCold) else {
                continue;
            };
            write!(
                f,
                "\n{policy}: migration p99 handoff {:.2}ms vs cold-reprobe {:.2}ms \
                 ({:.2}x)",
                handoff.p99_ms,
                cold.p99_ms,
                handoff.p99_ms / cold.p99_ms.max(1e-9)
            )?;
        }
        Ok(())
    }
}

/// The suite grid: one cell per (policy, guest config). Every cell
/// replays the same faulted day — trace pinned by the profile's day_seed,
/// failures by [`chaos_day_seed`] — so rows differ only in scheduler and
/// migration mode; the footer reports the handoff-vs-cold ablation per
/// policy.
pub fn grid() -> Grid<(&'static str, ChaosGuests, SloSummary), FleetChaos> {
    let mut g = Grid::new(
        "fleet-chaos",
        "host-failure chaos, evacuation, and degraded mode on a replayed faulted day",
        |rows, scale| FleetChaos {
            faults: plan_for(scale.secs(4, 16)).events.len(),
            rows,
        },
    );
    for &policy in POLICIES.iter() {
        for &guests in GUEST_CONFIGS.iter() {
            g.cell(format!("{policy}/{}", guests.label()), move |ctx| {
                let horizon_secs = ctx.scale.secs(4, 16);
                (policy, guests, run_cell(ctx, policy, guests, horizon_secs))
            });
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    /// [`run_cell`] at a 4 s horizon, seeded with `seed`.
    fn run(policy: &'static str, guests: ChaosGuests, seed: u64) -> SloSummary {
        run_cell(&CellCtx::new(seed, Scale::Quick), policy, guests, 4)
    }

    #[test]
    fn every_guest_config_survives_the_faulted_day_law_clean() {
        for &g in &GUEST_CONFIGS {
            let o = run("worst-fit", g, 11);
            assert!(o.host_failures > 0, "{}: plan never fired", g.label());
            assert_eq!(o.violations, 0, "{}: law broken", g.label());
            assert_eq!(o.stranded, 0, "{}: stranded VMs", g.label());
        }
    }

    #[test]
    fn all_cells_share_one_faulted_day() {
        // The failure schedule is pinned by chaos_day_seed, not the cell
        // seed: different policies and seeds see the same injections.
        let a = run("first-fit", ChaosGuests::Cfs, 1);
        let b = run("worst-fit", ChaosGuests::VschedHandoff, 2);
        assert_eq!(a.host_failures, b.host_failures);
    }

    #[test]
    fn chaos_cells_are_deterministic() {
        let digest = |o: &SloSummary| {
            (
                o.placed,
                o.rejected,
                o.p99_ms.to_bits(),
                o.migrations,
                o.evacuations_failed,
                o.shed_admissions,
            )
        };
        let a = run("probe-aware", ChaosGuests::VschedHandoff, 7);
        let b = run("probe-aware", ChaosGuests::VschedHandoff, 7);
        assert_eq!(digest(&a), digest(&b));
    }
}
