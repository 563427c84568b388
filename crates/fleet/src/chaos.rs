//! Fleet-level chaos: host failures, maintenance drains, and transient
//! host degradation.
//!
//! A [`FleetChaosPlan`] is the cluster-scale sibling of
//! [`hostsim::faults::FaultPlan`]: a seed-driven, fully precomputed
//! schedule of *host* misbehaviour, generated before the run so a given
//! `(seed, spec)` pair replays the same faulted day byte for byte at any
//! stepping worker count. Three operations exist:
//!
//! * [`HostOp::Crash`] — the host drops out abruptly. Residents are
//!   evacuated cold: whatever probe state their vSched instances held is
//!   lost with the host.
//! * [`HostOp::Drain`] — an orderly maintenance drain. Residents migrate
//!   off while the source is still coherent, so their probe state can be
//!   handed to the destination ([`MigrationMode::Handoff`]).
//! * [`HostOp::Degrade`] — the host stays up but misbehaves for the
//!   window: the plan compiles the window into machine-wide
//!   [`hostsim::faults`] actions (stressor bursts, DVFS capacity steps,
//!   probe noise) via [`FleetChaosPlan::degrade_plan_for_host`].
//!
//! Crash and drain each carry a `down_ns` after which the host recovers
//! and may accept placements again. The cluster turns these into
//! `HostFailed`/`HostRecovered`/`VmMigrated` trace events whose laws the
//! streaming checker enforces (no placement onto a failed host, occupancy
//! conserved across migration, every resident migrated or departed).

use hostsim::faults::{ChaosSpec, FaultPlan, InjectedFault};
use simcore::json::{Field, Json};
use simcore::plan::Plan;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::fmt;
use trace::{FaultClass, HostFailKind};

/// What a planned host fault does to its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    /// Abrupt host loss; residents evacuate cold.
    Crash,
    /// Orderly maintenance drain; residents migrate with state handoff.
    Drain,
    /// Transient degradation; the host stays up but misbehaves.
    Degrade,
}

/// Every host operation, in stable order.
pub const HOST_OPS: [HostOp; 3] = [HostOp::Crash, HostOp::Drain, HostOp::Degrade];

impl HostOp {
    /// Stable serialization name (fleet chaos plans store these).
    pub fn name(&self) -> &'static str {
        match self {
            HostOp::Crash => "Crash",
            HostOp::Drain => "Drain",
            HostOp::Degrade => "Degrade",
        }
    }

    /// Inverse of [`HostOp::name`].
    pub fn from_name(name: &str) -> Option<HostOp> {
        HOST_OPS.into_iter().find(|o| o.name() == name)
    }

    /// The trace-level failure kind, for ops that take the host down.
    pub fn fail_kind(&self) -> Option<HostFailKind> {
        match self {
            HostOp::Crash => Some(HostFailKind::Crash),
            HostOp::Drain => Some(HostFailKind::Drain),
            HostOp::Degrade => None,
        }
    }
}

/// Stable per-op RNG stream tag (independent of declaration order).
fn op_tag(op: HostOp) -> u64 {
    match op {
        HostOp::Crash => 1,
        HostOp::Drain => 2,
        HostOp::Degrade => 3,
    }
}

/// How a live migration transfers vSched probe state.
///
/// The measurable ablation the `fleet-chaos` suite job reports: drained
/// VMs either hand their probed per-vCPU capacities to the destination
/// instance (which then converges *from* them) or re-probe from the
/// nominal 1024 like a fresh boot. Crash victims always re-probe cold —
/// their source host is gone, there is nothing to hand off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMode {
    /// Seed the destination's vcap with the source's published estimates.
    Handoff,
    /// Start the destination from nominal capacity (fresh-boot probing).
    ColdReprobe,
}

impl MigrationMode {
    /// Stable name used in cell labels and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationMode::Handoff => "handoff",
            MigrationMode::ColdReprobe => "cold-reprobe",
        }
    }

    /// Inverse of [`MigrationMode::name`].
    pub fn from_name(name: &str) -> Option<MigrationMode> {
        Some(match name {
            "handoff" => MigrationMode::Handoff,
            "cold-reprobe" => MigrationMode::ColdReprobe,
            _ => return None,
        })
    }
}

/// Which hosts and when a fleet chaos plan may strike.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetChaosSpec {
    /// Hosts in the cluster (faults pick uniformly among them).
    pub hosts: u16,
    /// Faults are injected in `[start, start + horizon)`.
    pub start: SimTime,
    /// Injection horizon length in nanoseconds.
    pub horizon_ns: u64,
    /// Mean gap between consecutive faults of one op (ns).
    pub mean_gap_ns: u64,
    /// Shortest outage/degradation window (ns).
    pub min_down_ns: u64,
    /// Longest outage/degradation window (ns).
    pub max_down_ns: u64,
    /// Enabled operations.
    pub ops: Vec<HostOp>,
}

impl FleetChaosSpec {
    /// A spec covering a whole fleet: every op enabled, with the fault
    /// window scaled to the day so even a short (smoke-scale) horizon
    /// sees crashes and drains. Warm-up takes the first tenth of the day
    /// (at most 400 ms), injection stops at ~85% of the remainder so
    /// most recoveries land inside the day, gaps run a quarter of the
    /// window (at most 700 ms), and outages span horizon/10..horizon/4
    /// clamped to 300–900 ms.
    pub fn for_fleet(hosts: u16, horizon_ns: u64) -> Self {
        let start = (horizon_ns / 10).clamp(MS, 400 * MS);
        let window = horizon_ns.saturating_sub(start).saturating_mul(17) / 20;
        let min_down = (horizon_ns / 10).clamp(MS, 300 * MS);
        Self {
            hosts,
            start: SimTime::from_ns(start),
            horizon_ns: window,
            mean_gap_ns: (window / 4).clamp(MS, 700 * MS),
            min_down_ns: min_down,
            max_down_ns: (horizon_ns / 4).clamp(min_down, 900 * MS),
            ops: HOST_OPS.to_vec(),
        }
    }

    /// Restricts the plan to a single operation.
    pub fn only(mut self, op: HostOp) -> Self {
        self.ops = vec![op];
        self
    }

    /// Overrides the mean inter-fault gap.
    pub fn mean_gap(mut self, ns: u64) -> Self {
        self.mean_gap_ns = ns;
        self
    }
}

/// One planned host fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFault {
    /// Injection time.
    pub at: SimTime,
    /// Struck host.
    pub host: u16,
    /// What happens to it.
    pub op: HostOp,
    /// Outage (crash/drain) or degradation window length.
    pub down_ns: u64,
}

impl fmt::Display for HostFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} {:?} host={} down={}",
            self.at.ns(),
            self.op,
            self.host,
            self.down_ns
        )
    }
}

/// A replayable fleet fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetChaosPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Planned faults, sorted by injection time (ties keep op order).
    pub events: Vec<HostFault>,
    spec: FleetChaosSpec,
}

impl FleetChaosPlan {
    /// Generates the plan. Each enabled op draws from its own forked RNG
    /// stream (derived only from `(seed, op)`), so enabling or disabling
    /// one op never perturbs the schedule of another — the same
    /// independence the per-host chaos plans have.
    pub fn generate(seed: u64, spec: &FleetChaosSpec) -> FleetChaosPlan {
        Self::from_streams(seed, 0xF1EE_7C05, spec, &spec.ops, op_tag, Self::plan_op)
    }

    fn plan_op(rng: &mut SimRng, spec: &FleetChaosSpec, op: HostOp, out: &mut Vec<HostFault>) {
        // Saturating horizon arithmetic, same rationale as the host-level
        // planner: near-MAX specs clip the window rather than wrap it.
        let end = spec.start.ns().saturating_add(spec.horizon_ns);
        let span = spec.max_down_ns.saturating_sub(spec.min_down_ns);
        let mut t = spec
            .start
            .ns()
            .saturating_add(rng.exp(spec.mean_gap_ns as f64) as u64);
        while t < end {
            let host = rng.index(spec.hosts.max(1) as usize) as u16;
            let down_ns = spec.min_down_ns + rng.range(0, span + 1);
            out.push(HostFault {
                at: SimTime::from_ns(t),
                host,
                op,
                down_ns: down_ns.max(MS),
            });
            t = t.saturating_add(rng.exp(spec.mean_gap_ns as f64).max(1.0) as u64);
        }
    }

    /// The crash/drain faults, in time order — what the cluster's run
    /// loop merges with the lifecycle schedule. Degrade windows are not
    /// loop events; they compile to per-host script actions instead.
    pub fn fail_events(&self) -> impl Iterator<Item = &HostFault> {
        self.events.iter().filter(|e| e.op != HostOp::Degrade)
    }

    /// Compiles this plan's Degrade windows on one host into a single
    /// machine-level [`FaultPlan`] of machine-wide faults: a stressor
    /// burst, a DVFS capacity step, and probe noise per window, each
    /// reversed at the window's end so the host returns to nominal.
    ///
    /// One plan per host, because stressor reversals predict load arena
    /// ids — the cluster applies the result exactly once per machine.
    /// Pure in `(plan, host, threads)`, independent of every other host.
    pub fn degrade_plan_for_host(&self, host: u16, threads: usize) -> Option<FaultPlan> {
        let windows: Vec<&HostFault> = self
            .events
            .iter()
            .filter(|e| e.op == HostOp::Degrade && e.host == host)
            .collect();
        if windows.is_empty() {
            return None;
        }
        let nr = threads.max(1);
        let cspec = ChaosSpec {
            vm: 0,
            nr_vcpus: nr,
            threads: (0..nr).collect(),
            cores: (0..nr).collect(),
            // Emptied class list: the events below are hand-compiled from
            // the degrade windows, not drawn by the host-level planner.
            classes: Vec::new(),
            start: self.spec.start,
            horizon_ns: self.spec.horizon_ns,
            mean_interval_ns: self.spec.mean_gap_ns,
        };
        let mut rng = SimRng::new(self.seed ^ 0x00DE_64AD).fork(host as u64 + 1);
        let mut events = Vec::with_capacity(windows.len() * 3);
        for w in windows {
            let end = w.at.ns().saturating_add(w.down_ns);
            // One of each machine-wide fault per window: a host stressor
            // at 2×–8× a vCPU's default weight, a DVFS step to 350–900 ‰
            // of nominal, and ±15 %–±50 % probe noise.
            let picks = [
                (
                    FaultClass::StressorBurst,
                    rng.index(nr),
                    1024 * rng.range(2, 9),
                ),
                (FaultClass::CapacityStep, rng.index(nr), rng.range(350, 901)),
                (FaultClass::ProbeNoise, 0, rng.range(150, 501)),
            ];
            // Stagger each fault into the window's first quarter; every
            // one lasts until the window closes.
            for (class, vcpu, magnitude) in picks {
                let at = w.at.ns() + rng.range(0, (w.down_ns / 4).max(1));
                events.push(InjectedFault {
                    at: SimTime::from_ns(at),
                    class,
                    vcpu,
                    duration_ns: end.saturating_sub(at).max(MS),
                    magnitude,
                });
            }
        }
        events.sort_by_key(|e| e.at);
        Some(FaultPlan::from_parts(self.seed, cspec, events))
    }
}

/// The fleet chaos repro format (`suite --shrink-fleet` writes it);
/// integers round-trip exactly.
impl Plan for FleetChaosPlan {
    type Spec = FleetChaosSpec;
    type Event = HostFault;

    fn parts(&self) -> (u64, &FleetChaosSpec, &[HostFault]) {
        (self.seed, &self.spec, &self.events)
    }
    fn from_parts(seed: u64, spec: FleetChaosSpec, events: Vec<HostFault>) -> Self {
        FleetChaosPlan { seed, events, spec }
    }
    fn at(event: &HostFault) -> SimTime {
        event.at
    }

    fn spec_to_json(spec: &FleetChaosSpec) -> Json {
        let ops = spec.ops.iter().map(|o| o.name().into()).collect();
        Json::obj([
            ("hosts", Json::Uint(spec.hosts as u64)),
            ("start_ns", Json::Uint(spec.start.ns())),
            ("horizon_ns", Json::Uint(spec.horizon_ns)),
            ("mean_gap_ns", Json::Uint(spec.mean_gap_ns)),
            ("min_down_ns", Json::Uint(spec.min_down_ns)),
            ("max_down_ns", Json::Uint(spec.max_down_ns)),
            ("ops", Json::Arr(ops)),
        ])
    }

    fn spec_from_json(f: &Field) -> Result<FleetChaosSpec, String> {
        Ok(FleetChaosSpec {
            hosts: f.get("hosts")?.int()?,
            start: f.get("start_ns")?.time()?,
            horizon_ns: f.get("horizon_ns")?.u64()?,
            mean_gap_ns: f.get("mean_gap_ns")?.u64()?,
            min_down_ns: f.get("min_down_ns")?.u64()?,
            max_down_ns: f.get("max_down_ns")?.u64()?,
            ops: (f.get("ops")?.arr()?.iter())
                .map(|o| o.name(HostOp::from_name))
                .collect::<Result<_, _>>()?,
        })
    }

    fn event_to_json(e: &HostFault) -> Json {
        Json::obj([
            ("at_ns", Json::Uint(e.at.ns())),
            ("host", Json::Uint(e.host as u64)),
            ("op", e.op.name().into()),
            ("down_ns", Json::Uint(e.down_ns)),
        ])
    }

    fn event_from_json(spec: &FleetChaosSpec, f: &Field) -> Result<HostFault, String> {
        let host = f.get("host")?;
        let h: u16 = host.int()?;
        if h >= spec.hosts {
            let path = host.path();
            return Err(format!(
                "{path} {h} out of range (spec.hosts {})",
                spec.hosts
            ));
        }
        Ok(HostFault {
            at: f.get("at_ns")?.time()?,
            host: h,
            op: f.get("op")?.name(HostOp::from_name)?,
            down_ns: f.get("down_ns")?.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::propcheck;

    fn spec(hosts: u16) -> FleetChaosSpec {
        FleetChaosSpec::for_fleet(hosts, 3_000 * MS)
    }

    #[test]
    fn same_seed_same_plan() {
        let s = spec(4);
        let a = FleetChaosPlan::generate(7, &s);
        let b = FleetChaosPlan::generate(7, &s);
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        assert!(!a.events.is_empty(), "horizon long enough to draw faults");
        assert_ne!(
            a.describe(),
            FleetChaosPlan::generate(8, &s).describe(),
            "seed must matter"
        );
    }

    #[test]
    fn op_streams_are_independent() {
        let full = FleetChaosPlan::generate(11, &spec(6));
        let only = FleetChaosPlan::generate(11, &spec(6).only(HostOp::Drain));
        let full_drains: Vec<_> = full
            .events
            .iter()
            .filter(|e| e.op == HostOp::Drain)
            .copied()
            .collect();
        assert_eq!(full_drains, only.events);
    }

    #[test]
    fn events_sorted_and_bounded() {
        propcheck::forall(0xF1EE7, 16, |rng| {
            let s = spec(1 + rng.index(16) as u16);
            let plan = FleetChaosPlan::generate(rng.u64(), &s);
            let end = s.start.ns() + s.horizon_ns;
            let mut prev = 0;
            for e in &plan.events {
                assert!(e.at.ns() >= prev, "sorted");
                prev = e.at.ns();
                assert!(e.at >= s.start && e.at.ns() < end, "inside horizon");
                assert!(e.host < s.hosts);
                assert!(e.down_ns >= s.min_down_ns.min(MS) && e.down_ns <= s.max_down_ns);
            }
        });
    }

    #[test]
    fn json_round_trips_exactly() {
        propcheck::forall(0xF1EE8, 16, |rng| {
            let s = spec(1 + rng.index(8) as u16);
            let plan = FleetChaosPlan::generate(rng.u64(), &s);
            let back = FleetChaosPlan::from_json(&plan.to_json()).expect("parses back");
            assert_eq!(plan, back);
            assert_eq!(plan.to_json(), back.to_json());
        });
    }

    #[test]
    fn from_json_rejects_malformed_plans() {
        assert!(FleetChaosPlan::from_json("{}").is_err());
        assert!(FleetChaosPlan::from_json("not json").is_err());
        // Unsorted events are rejected.
        let plan = FleetChaosPlan::generate(5, &spec(4));
        assert!(plan.events.len() >= 2);
        let mut doc = Json::parse(&plan.to_json()).unwrap();
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Arr(events)) = m.get_mut("events") {
                events.reverse();
            }
        }
        assert!(FleetChaosPlan::from_json(&doc.render()).is_err());
        // Out-of-range hosts are rejected.
        let mut doc = Json::parse(&plan.to_json()).unwrap();
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Obj(sj)) = m.get_mut("spec") {
                sj.insert("hosts".into(), Json::Uint(1));
            }
        }
        assert!(
            FleetChaosPlan::from_json(&doc.render()).is_err(),
            "4-host plan must not parse under a 1-host spec"
        );
    }

    #[test]
    fn subsets_preserve_identity_and_order() {
        let plan = FleetChaosPlan::generate(9, &spec(6));
        let n = plan.events.len();
        assert!(n >= 4, "want a non-trivial plan");
        let half: Vec<_> = plan.events.iter().step_by(2).copied().collect();
        let sub = plan.with_events(half.clone());
        assert_eq!(sub.seed, plan.seed);
        assert_eq!(sub.spec(), plan.spec());
        assert_eq!(sub.events, half);
        assert_eq!(plan.prefix(3).events, plan.events[..3].to_vec());
        assert_eq!(plan.prefix(n + 10).events.len(), n);
    }

    #[test]
    fn degrade_windows_compile_to_machine_wide_faults() {
        // A plan with only Degrade ops compiles per-host FaultPlans of
        // machine-wide classes (no VM state touched), each fault inside
        // its window and reversed by the window's end.
        let s = spec(3).only(HostOp::Degrade);
        let plan = FleetChaosPlan::generate(13, &s);
        assert!(plan.fail_events().next().is_none(), "no crash/drain");
        let mut compiled = 0;
        for host in 0..3u16 {
            let Some(fp) = plan.degrade_plan_for_host(host, 4) else {
                continue;
            };
            compiled += 1;
            let again = plan.degrade_plan_for_host(host, 4).unwrap();
            assert_eq!(fp.describe(), again.describe(), "deterministic per host");
            let windows: Vec<_> = plan
                .events
                .iter()
                .filter(|e| e.op == HostOp::Degrade && e.host == host)
                .collect();
            assert_eq!(fp.events.len(), windows.len() * 3);
            for e in &fp.events {
                assert!(
                    matches!(
                        e.class,
                        FaultClass::StressorBurst
                            | FaultClass::CapacityStep
                            | FaultClass::ProbeNoise
                    ),
                    "machine-wide classes only, got {:?}",
                    e.class
                );
                assert!(
                    windows
                        .iter()
                        .any(|w| e.at >= w.at
                            && e.at.ns() + e.duration_ns <= w.at.ns() + w.down_ns + MS),
                    "fault outside every window: {e}"
                );
            }
        }
        assert!(compiled > 0, "some host drew a degrade window");
        assert!(
            plan.degrade_plan_for_host(200, 4).is_none(),
            "unstruck host compiles to nothing"
        );
    }
}
