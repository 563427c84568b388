//! Chaos-mode fault injection.
//!
//! A [`FaultPlan`] is a seed-driven, fully precomputed schedule of host
//! misbehaviour: stressor bursts, quota/period churn, re-pinning, vCPU
//! offline/online, DVFS capacity steps, and probe-time measurement noise.
//! The plan is generated *before* the simulation starts from a
//! [`simcore::SimRng`] stream, so a given `(seed, spec)` pair always yields
//! the same injected-event sequence, byte for byte — chaos runs replay
//! exactly, across processes and thread counts.
//!
//! Each concrete fault is applied through the existing
//! [`ScriptAction`] machinery and paired with an
//! [`ScriptAction::AnnotateFault`] marker, so traces (and the streaming
//! invariant checker) see fault boundaries as first-class events.
//!
//! Transient faults carry a duration and schedule their own reversal:
//! stressor loads are removed, quotas lifted, offline vCPUs brought back,
//! frequencies restored, and noise cleared. A plan therefore leaves the
//! host in its nominal configuration once the last reversal fires.

use crate::machine::{Machine, ScriptAction};
use simcore::json::{Field, Json};
use simcore::plan::Plan;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::fmt;
use trace::FaultClass;

/// Which VM / host surface a plan may touch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// VM index the vCPU-level faults target.
    pub vm: usize,
    /// Number of vCPUs in that VM.
    pub nr_vcpus: usize,
    /// Hardware threads the VM's vCPUs occupy (stressor bursts and
    /// re-pinning stay inside this set).
    pub threads: Vec<usize>,
    /// Cores whose DVFS frequency may step (typically the cores backing
    /// `threads`).
    pub cores: Vec<usize>,
    /// Enabled fault classes. [`FaultClass::VcpuOnline`] is implied by
    /// [`FaultClass::VcpuOffline`] (every offline schedules its online).
    pub classes: Vec<FaultClass>,
    /// Injection horizon: faults are injected in `[start, start + horizon)`.
    pub start: SimTime,
    /// Horizon length in nanoseconds.
    pub horizon_ns: u64,
    /// Mean gap between consecutive faults of one class (ns).
    pub mean_interval_ns: u64,
}

impl ChaosSpec {
    /// A spec covering one pinned VM: vCPU `i` on thread `i`, one core per
    /// thread, every fault class enabled, faults from 500 ms to `horizon`.
    pub fn for_pinned_vm(vm: usize, nr_vcpus: usize, horizon_ns: u64) -> Self {
        Self {
            vm,
            nr_vcpus,
            threads: (0..nr_vcpus).collect(),
            cores: (0..nr_vcpus).collect(),
            classes: vec![
                FaultClass::StressorBurst,
                FaultClass::QuotaChurn,
                FaultClass::PinChange,
                FaultClass::VcpuOffline,
                FaultClass::CapacityStep,
                FaultClass::ProbeNoise,
            ],
            start: SimTime::from_ns(500 * MS),
            horizon_ns,
            mean_interval_ns: 800 * MS,
        }
    }

    /// Restricts the plan to a single fault class.
    pub fn only(mut self, class: FaultClass) -> Self {
        self.classes = vec![class];
        self
    }

    /// Overrides the mean inter-fault gap.
    pub fn mean_interval(mut self, ns: u64) -> Self {
        self.mean_interval_ns = ns;
        self
    }
}

/// Stable per-class RNG stream tag (independent of declaration order).
fn class_tag(class: FaultClass) -> u64 {
    match class {
        FaultClass::StressorBurst => 1,
        FaultClass::QuotaChurn => 2,
        FaultClass::PinChange => 3,
        FaultClass::VcpuOffline => 4,
        FaultClass::VcpuOnline => 5,
        FaultClass::CapacityStep => 6,
        FaultClass::ProbeNoise => 7,
    }
}

/// One planned fault with its concrete parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Injection time.
    pub at: SimTime,
    /// Classification (matches the `FaultInjected` trace marker).
    pub class: FaultClass,
    /// Affected guest-local vCPU, where one exists (0 for machine-wide).
    pub vcpu: usize,
    /// How long the fault persists before its reversal (0 = permanent
    /// within the run, e.g. a pin change).
    pub duration_ns: u64,
    /// Class-specific magnitude: stressor weight, quota fraction ×1000,
    /// DVFS factor ×1000, noise amplitude ×1000, target thread for pins.
    pub magnitude: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} {:?} vcpu={} dur={} mag={}",
            self.at.ns(),
            self.class,
            self.vcpu,
            self.duration_ns,
            self.magnitude
        )
    }
}

/// A replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Planned faults, sorted by injection time (ties keep generation
    /// order, which is itself deterministic).
    pub events: Vec<InjectedFault>,
    spec: ChaosSpec,
}

impl FaultPlan {
    /// Generates the plan. Each enabled class draws from its own forked
    /// RNG stream, so enabling or disabling one class never perturbs the
    /// schedule of another.
    pub fn generate(seed: u64, spec: &ChaosSpec) -> FaultPlan {
        Self::from_streams(
            seed,
            0xC4A0_5F00,
            spec,
            &spec.classes,
            class_tag,
            Self::plan_class,
        )
    }

    fn plan_class(
        rng: &mut SimRng,
        spec: &ChaosSpec,
        class: FaultClass,
        out: &mut Vec<InjectedFault>,
    ) {
        // Saturating horizon arithmetic: a spec with `start + horizon` near
        // `u64::MAX` must clip the injection window, not wrap it to zero
        // (which would silently plan nothing — or, pre-overflow-checks,
        // plan faults in the past).
        let end = spec.start.ns().saturating_add(spec.horizon_ns);
        let mut t = spec
            .start
            .ns()
            .saturating_add(rng.exp(spec.mean_interval_ns as f64) as u64);
        while t < end {
            let vcpu = rng.index(spec.nr_vcpus.max(1));
            // Transients last 50–400 ms and never outlive the horizon, so
            // the plan always restores the nominal configuration.
            let max_dur = (end - t).min(400 * MS);
            let duration_ns = (50 * MS + rng.range(0, 350 * MS)).min(max_dur).max(MS);
            let magnitude = match class {
                // Host stressor weight: 1×–8× a vCPU's default weight.
                FaultClass::StressorBurst => 1024 * rng.range(1, 9),
                // Quota as a fraction of the period, ×1000: 200–800 ‰.
                FaultClass::QuotaChurn => rng.range(200, 801),
                // Pin target: another thread from the allowed set.
                FaultClass::PinChange => spec.threads[rng.index(spec.threads.len())] as u64,
                FaultClass::VcpuOffline => 0,
                // DVFS factor ×1000: 300–900 ‰ of nominal.
                FaultClass::CapacityStep => rng.range(300, 901),
                // Noise amplitude ×1000: 100–500 ‰ (±10 % – ±50 %).
                FaultClass::ProbeNoise => rng.range(100, 501),
                // Onlines are scheduled by their offline, never drawn.
                FaultClass::VcpuOnline => 0,
            };
            out.push(InjectedFault {
                at: SimTime::from_ns(t),
                class,
                vcpu,
                duration_ns,
                magnitude,
            });
            t = t.saturating_add(rng.exp(spec.mean_interval_ns as f64).max(1.0) as u64);
        }
    }

    /// Schedules every planned fault (and its reversal) onto a machine.
    /// Call after the scenario is assembled but before [`Machine::start`].
    ///
    /// Stressor reversals remove loads by arena id, which is predicted
    /// from [`Machine::nr_host_loads`] — the plan must therefore be the
    /// only source of *scripted* `AddLoad` actions on this machine
    /// (loads added directly before `start` are fine).
    pub fn apply(&self, m: &mut Machine) {
        let spec = &self.spec;
        let mut next_load_id = m.nr_host_loads();
        for e in &self.events {
            let vm = spec.vm;
            let vcpu = e.vcpu;
            m.at(
                e.at,
                ScriptAction::AnnotateFault {
                    vm,
                    vcpu,
                    class: e.class,
                },
            );
            let until = e.at.after(e.duration_ns);
            match e.class {
                FaultClass::StressorBurst => {
                    // Stress the thread hosting the chosen vCPU.
                    let thread = spec.threads[vcpu % spec.threads.len()];
                    let weight = e.magnitude;
                    m.at(e.at, ScriptAction::AddLoad { thread, weight });
                    m.at(until, ScriptAction::RemoveLoad { id: next_load_id });
                    next_load_id += 1;
                }
                FaultClass::QuotaChurn => {
                    let period_ns = 10 * MS;
                    let quota_ns = period_ns * e.magnitude / 1000;
                    m.at(
                        e.at,
                        ScriptAction::SetBandwidth {
                            vm,
                            vcpu,
                            qp: Some((quota_ns, period_ns)),
                        },
                    );
                    m.at(until, ScriptAction::SetBandwidth { vm, vcpu, qp: None });
                }
                FaultClass::PinChange => {
                    m.at(
                        e.at,
                        ScriptAction::SetAffinity {
                            vm,
                            vcpu,
                            threads: vec![e.magnitude as usize],
                        },
                    );
                    // Restore the home thread after the transient.
                    let home = spec.threads[vcpu % spec.threads.len()];
                    m.at(
                        until,
                        ScriptAction::SetAffinity {
                            vm,
                            vcpu,
                            threads: vec![home],
                        },
                    );
                }
                FaultClass::VcpuOffline => {
                    m.at(e.at, ScriptAction::OfflineVcpu { vm, vcpu });
                    m.at(
                        until,
                        ScriptAction::AnnotateFault {
                            vm,
                            vcpu,
                            class: FaultClass::VcpuOnline,
                        },
                    );
                    m.at(until, ScriptAction::OnlineVcpu { vm, vcpu });
                }
                FaultClass::VcpuOnline => {}
                FaultClass::CapacityStep => {
                    let core = spec.cores[vcpu % spec.cores.len()];
                    let factor = e.magnitude as f64 / 1000.0;
                    m.at(e.at, ScriptAction::SetFreq { core, factor });
                    m.at(until, ScriptAction::SetFreq { core, factor: 1.0 });
                }
                FaultClass::ProbeNoise => {
                    let noise = e.magnitude as f64 / 1000.0;
                    m.at(e.at, ScriptAction::SetProbeNoise { noise });
                    m.at(until, ScriptAction::SetProbeNoise { noise: 0.0 });
                }
            }
        }
    }
}

/// The chaos-repro file format (`suite --shrink` writes it, `suite
/// --replay` reads it back); integers round-trip exactly.
impl Plan for FaultPlan {
    type Spec = ChaosSpec;
    type Event = InjectedFault;

    fn parts(&self) -> (u64, &ChaosSpec, &[InjectedFault]) {
        (self.seed, &self.spec, &self.events)
    }
    fn from_parts(seed: u64, spec: ChaosSpec, events: Vec<InjectedFault>) -> Self {
        FaultPlan { seed, events, spec }
    }
    fn at(event: &InjectedFault) -> SimTime {
        event.at
    }

    fn spec_to_json(spec: &ChaosSpec) -> Json {
        let uints = |v: &[usize]| Json::Arr(v.iter().map(|&x| Json::Uint(x as u64)).collect());
        let classes = spec.classes.iter().map(|c| c.name().into()).collect();
        Json::obj([
            ("vm", Json::Uint(spec.vm as u64)),
            ("nr_vcpus", Json::Uint(spec.nr_vcpus as u64)),
            ("threads", uints(&spec.threads)),
            ("cores", uints(&spec.cores)),
            ("classes", Json::Arr(classes)),
            ("start_ns", Json::Uint(spec.start.ns())),
            ("horizon_ns", Json::Uint(spec.horizon_ns)),
            ("mean_interval_ns", Json::Uint(spec.mean_interval_ns)),
        ])
    }

    fn spec_from_json(f: &Field) -> Result<ChaosSpec, String> {
        let usizes = |key| -> Result<Vec<usize>, String> {
            f.get(key)?.arr()?.iter().map(Field::int).collect()
        };
        Ok(ChaosSpec {
            vm: f.get("vm")?.int()?,
            nr_vcpus: f.get("nr_vcpus")?.int()?,
            threads: usizes("threads")?,
            cores: usizes("cores")?,
            classes: (f.get("classes")?.arr()?.iter())
                .map(|c| c.name(FaultClass::from_name))
                .collect::<Result<_, _>>()?,
            start: f.get("start_ns")?.time()?,
            horizon_ns: f.get("horizon_ns")?.u64()?,
            mean_interval_ns: f.get("mean_interval_ns")?.u64()?,
        })
    }

    fn event_to_json(e: &InjectedFault) -> Json {
        Json::obj([
            ("at_ns", Json::Uint(e.at.ns())),
            ("class", e.class.name().into()),
            ("vcpu", Json::Uint(e.vcpu as u64)),
            ("duration_ns", Json::Uint(e.duration_ns)),
            ("magnitude", Json::Uint(e.magnitude)),
        ])
    }

    fn event_from_json(_: &ChaosSpec, f: &Field) -> Result<InjectedFault, String> {
        Ok(InjectedFault {
            at: f.get("at_ns")?.time()?,
            class: f.get("class")?.name(FaultClass::from_name)?,
            vcpu: f.get("vcpu")?.int()?,
            duration_ns: f.get("duration_ns")?.u64()?,
            magnitude: f.get("magnitude")?.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HostSpec;
    use simcore::propcheck;

    fn spec(n: usize) -> ChaosSpec {
        ChaosSpec::for_pinned_vm(0, n, 3_000 * MS)
    }

    #[test]
    fn same_seed_same_plan() {
        let s = spec(8);
        let a = FaultPlan::generate(7, &s);
        let b = FaultPlan::generate(7, &s);
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        assert!(!a.events.is_empty(), "horizon long enough to draw faults");
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec(8);
        let a = FaultPlan::generate(1, &s);
        let b = FaultPlan::generate(2, &s);
        assert_ne!(a.describe(), b.describe());
    }

    #[test]
    fn class_streams_are_independent() {
        // Dropping one class must not perturb another class's schedule.
        let full = FaultPlan::generate(11, &spec(4));
        let only = FaultPlan::generate(11, &spec(4).only(FaultClass::QuotaChurn));
        let full_quota: Vec<_> = full
            .events
            .iter()
            .filter(|e| e.class == FaultClass::QuotaChurn)
            .cloned()
            .collect();
        assert_eq!(full_quota, only.events);
    }

    #[test]
    fn events_sorted_and_bounded() {
        propcheck::forall(0xFA017, 16, |rng| {
            let s = spec(1 + rng.index(16));
            let plan = FaultPlan::generate(rng.u64(), &s);
            let end = s.start.ns() + s.horizon_ns;
            let mut prev = 0;
            for e in &plan.events {
                assert!(e.at.ns() >= prev, "sorted");
                prev = e.at.ns();
                assert!(e.at >= s.start && e.at.ns() < end, "inside horizon");
                assert!(e.vcpu < s.nr_vcpus);
                assert!(
                    e.at.ns() + e.duration_ns <= end + 400 * MS,
                    "reversal near horizon"
                );
            }
        });
    }

    #[test]
    fn json_round_trips_exactly() {
        propcheck::forall(0xFA018, 16, |rng| {
            let s = spec(1 + rng.index(8));
            let plan = FaultPlan::generate(rng.u64(), &s);
            let back = FaultPlan::from_json(&plan.to_json()).expect("parses back");
            assert_eq!(plan, back);
            assert_eq!(plan.to_json(), back.to_json());
        });
    }

    #[test]
    fn from_json_rejects_malformed_plans() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("not json").is_err());
        // Unsorted events are rejected: apply() assumes time order.
        let plan = FaultPlan::generate(5, &spec(4));
        assert!(plan.events.len() >= 2);
        let mut doc = Json::parse(&plan.to_json()).unwrap();
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Arr(events)) = m.get_mut("events") {
                events.reverse();
            }
        }
        let e = FaultPlan::from_json(&doc.render()).unwrap_err();
        assert_eq!(e, "events[1].at_ns goes backwards");
    }

    #[test]
    fn subsets_preserve_identity_and_order() {
        let plan = FaultPlan::generate(9, &spec(6));
        let n = plan.events.len();
        assert!(n >= 4, "want a non-trivial plan");
        let half: Vec<_> = plan.events.iter().step_by(2).cloned().collect();
        let sub = plan.with_events(half.clone());
        assert_eq!(sub.seed, plan.seed);
        assert_eq!(sub.spec(), plan.spec());
        assert_eq!(sub.events, half);
        let pre = plan.prefix(3);
        assert_eq!(pre.events, plan.events[..3].to_vec());
        assert_eq!(plan.prefix(n + 10).events.len(), n);
    }

    #[test]
    fn near_max_horizon_saturates_instead_of_wrapping() {
        // start + horizon would overflow; generation must clip, not wrap
        // (wrapped arithmetic would put `end` before `start` and plan
        // nothing — or abort under overflow-checks).
        let mut s = spec(4);
        s.start = SimTime::from_ns(u64::MAX - 100 * MS);
        s.horizon_ns = u64::MAX;
        let plan = FaultPlan::generate(3, &s);
        for e in &plan.events {
            assert!(e.at >= s.start);
        }
    }

    #[test]
    fn apply_schedules_reversals() {
        let s = spec(4);
        let plan = FaultPlan::generate(3, &s);
        let mut m = Machine::new(HostSpec::flat(4), 3);
        m.add_vm(crate::VmSpec::pinned(4, 0));
        plan.apply(&mut m);
        m.start();
        m.run_until(SimTime::from_ns(s.start.ns() + s.horizon_ns + 500 * MS));
        // All transients reversed: no live stressors, nominal noise.
        for th in 0..4 {
            assert_eq!(m.host_load_weight_on(th), 0, "thread {th} stressor left");
        }
    }
}
