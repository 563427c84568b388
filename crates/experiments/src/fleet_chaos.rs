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

use crate::common::Scale;
use crate::fleet::{HOSTS, THREADS_PER_HOST};
use crate::runner::{cell, got, Job, Part};
use ::fleet::{
    day_seed, policy_by_name, profile_by_name, spec_for_trace, synthesize, Cluster, FleetChaosPlan,
    FleetChaosSpec, GuestMode, MigrationMode, POLICIES,
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
/// overridable with `FLEET_CHAOS_SEED` so CI can sweep randomized days
/// (every cell in one run still shares whatever day the env pins).
pub fn chaos_day_seed() -> u64 {
    if let Ok(s) = std::env::var("FLEET_CHAOS_SEED") {
        if let Ok(n) = s.trim().parse::<u64>() {
            return n;
        }
    }
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

/// One chaos cell's outcome.
#[derive(Debug, Clone)]
pub struct FleetChaosOutcome {
    /// VMs a policy successfully sited.
    pub placed: u64,
    /// VMs rejected — includes degraded-mode sheds.
    pub rejected: u64,
    /// Fleet-merged tail end-to-end latency (ms).
    pub p99_ms: f64,
    /// Tenants whose own p99 busted their tier's target, per tier.
    pub tier_slo_violations: [usize; 3],
    /// Host crash/drain events the plan injected.
    pub host_failures: u64,
    /// VMs live-migrated off a failing host.
    pub migrations: u64,
    /// Evacuations that exhausted their retry budget.
    pub evacuations_failed: u64,
    /// Admissions shed by fleet degraded mode.
    pub shed_admissions: u64,
    /// VMs still on a failed host at the horizon (must be 0).
    pub stranded: usize,
    /// Invariant violations (must be 0).
    pub violations: u64,
    /// Law name of the first violation, if any — the fleet shrinker's
    /// comparison key (not rendered in figure output).
    pub first_law: Option<String>,
}

/// Runs one `(policy, guests)` cell over the shared faulted day.
pub fn run_cell(
    policy: &'static str,
    guests: ChaosGuests,
    horizon_secs: u64,
    seed: u64,
) -> FleetChaosOutcome {
    run_plan(
        policy,
        guests,
        &plan_for(horizon_secs),
        horizon_secs * 1_000_000_000,
        seed,
    )
}

/// Runs one cell under an explicit chaos plan (the fleet shrinker and
/// `fleettrace replay --chaos-seed` shape drive arbitrary — typically
/// subset — plans through the very same cluster the seeded cell uses).
pub fn run_plan(
    policy: &'static str,
    guests: ChaosGuests,
    plan: &FleetChaosPlan,
    horizon_ns: u64,
    seed: u64,
) -> FleetChaosOutcome {
    let p = profile_by_name(DAY_PROFILE).expect("registered profile");
    let trace = synthesize(p, horizon_ns, day_seed(p.name));
    let spec = spec_for_trace(&trace, HOSTS, THREADS_PER_HOST);
    let mut c = Cluster::new(
        spec,
        guests.mode(),
        policy_by_name(policy).expect("registered policy"),
        seed,
    );
    c.set_chaos(plan.clone());
    c.set_migration_mode(guests.migration());
    outcome(c.run())
}

fn outcome(s: ::fleet::SloSummary) -> FleetChaosOutcome {
    FleetChaosOutcome {
        placed: s.placed,
        rejected: s.rejected,
        p99_ms: s.p99_ms,
        tier_slo_violations: s.tier_slo_violations,
        host_failures: s.host_failures,
        migrations: s.migrations,
        evacuations_failed: s.evacuations_failed,
        shed_admissions: s.shed_admissions,
        stranded: s.stranded,
        violations: s.violations,
        first_law: s.first_law.map(str::to_string),
    }
}

/// The rendered fleet-chaos grid: one row per `(policy, guests)`.
pub struct FleetChaos {
    /// Faults the shared plan injects (cell-independent).
    pub faults: usize,
    /// `(policy, outcome per GUEST_CONFIGS entry)` rows.
    pub rows: Vec<(&'static str, [FleetChaosOutcome; 3])>,
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
        for (policy, outs) in &self.rows {
            for (g, o) in GUEST_CONFIGS.iter().zip(outs.iter()) {
                t.row_owned(vec![
                    policy.to_string(),
                    g.label().to_string(),
                    o.placed.to_string(),
                    o.rejected.to_string(),
                    format!("{:.2}", o.p99_ms),
                    format!(
                        "{}/{}/{}",
                        o.tier_slo_violations[0],
                        o.tier_slo_violations[1],
                        o.tier_slo_violations[2]
                    ),
                    o.host_failures.to_string(),
                    o.migrations.to_string(),
                    o.evacuations_failed.to_string(),
                    o.shed_admissions.to_string(),
                    o.stranded.to_string(),
                    o.violations.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        for (policy, outs) in &self.rows {
            let handoff = &outs[1];
            let cold = &outs[2];
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

/// The suite job: one cell per (policy, guest config). Every cell replays
/// the same faulted day — trace pinned by the profile's day_seed, failures
/// by [`chaos_day_seed`] — so rows differ only in scheduler and migration
/// mode; the footer reports the handoff-vs-cold ablation per policy.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for &policy in POLICIES.iter() {
        for &g in GUEST_CONFIGS.iter() {
            cells.push(cell(
                format!("{policy}/{}", g.label()),
                move |seed, scale: Scale| run_cell(policy, g, scale.secs(4, 16), seed),
            ));
        }
    }
    Job {
        name: "fleet-chaos",
        desc: "host-failure chaos, evacuation, and degraded mode on a replayed faulted day",
        cells,
        reduce: Box::new(|parts, scale| FleetChaos::from_parts(parts, scale).to_string()),
    }
}

impl FleetChaos {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>, scale: Scale) -> FleetChaos {
        let mut it = parts.into_iter().map(got::<FleetChaosOutcome>);
        let rows = POLICIES
            .iter()
            .map(|&policy| {
                let outs: Vec<FleetChaosOutcome> = GUEST_CONFIGS
                    .iter()
                    .map(|_| it.next().expect("one part per cell"))
                    .collect();
                (policy, outs.try_into().expect("three guest configs"))
            })
            .collect();
        FleetChaos {
            faults: plan_for(scale.secs(4, 16)).events.len(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_guest_config_survives_the_faulted_day_law_clean() {
        for &g in &GUEST_CONFIGS {
            let o = run_cell("worst-fit", g, 4, 11);
            assert!(o.host_failures > 0, "{}: plan never fired", g.label());
            assert_eq!(o.violations, 0, "{}: law broken", g.label());
            assert_eq!(o.stranded, 0, "{}: stranded VMs", g.label());
        }
    }

    #[test]
    fn all_cells_share_one_faulted_day() {
        // The failure schedule is pinned by chaos_day_seed, not the cell
        // seed: different policies and seeds see the same injections.
        let a = run_cell("first-fit", ChaosGuests::Cfs, 4, 1);
        let b = run_cell("worst-fit", ChaosGuests::VschedHandoff, 4, 2);
        assert_eq!(a.host_failures, b.host_failures);
    }

    #[test]
    fn chaos_cells_are_deterministic() {
        let digest = |o: &FleetChaosOutcome| {
            (
                o.placed,
                o.rejected,
                o.p99_ms.to_bits(),
                o.migrations,
                o.evacuations_failed,
                o.shed_admissions,
            )
        };
        let a = run_cell("probe-aware", ChaosGuests::VschedHandoff, 4, 7);
        let b = run_cell("probe-aware", ChaosGuests::VschedHandoff, 4, 7);
        assert_eq!(digest(&a), digest(&b));
    }
}
