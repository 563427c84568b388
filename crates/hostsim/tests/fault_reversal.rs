//! Reversal completeness of the chaos fault planner.
//!
//! Supervised suite runs retry and resume cells on the same process-global
//! assumptions a clean run makes, so a `FaultPlan` must never leak host
//! state past its horizon: every transient's reversal has to restore the
//! machine's capacity, quota, pinning, offline, stressor, and probe-noise
//! configuration *exactly*. This propcheck applies an arbitrary plan
//! prefix (each prefix event still schedules its own reversal), runs past
//! the last possible reversal, and compares the machine against its
//! nominal configuration field by field.

use simcore::plan::Plan;
use simcore::time::MS;
use simcore::{propcheck, SimTime};
use trace::FaultClass;
use vsched_hostsim::{ChaosSpec, FaultPlan, HostSpec, Machine, VmSpec};

/// Longest transient the planner draws (see `plan_class`).
const MAX_TRANSIENT_NS: u64 = 400 * MS;

fn build_machine(nr: usize, seed: u64) -> Machine {
    let mut m = Machine::new(HostSpec::flat(nr), seed);
    m.add_vm(VmSpec::pinned(nr, 0));
    m
}

fn assert_nominal(m: &Machine, nr: usize, what: &str) {
    for th in 0..nr {
        assert_eq!(
            m.host_load_weight_on(th),
            0,
            "{what}: stressor left on thread {th}"
        );
    }
    for core in 0..nr {
        assert_eq!(
            m.core_freq_factor(core),
            1.0,
            "{what}: DVFS factor left on core {core}"
        );
    }
    assert_eq!(m.probe_noise(), 0.0, "{what}: probe noise left");
    for vcpu in 0..nr {
        let gv = m.gv(0, vcpu);
        assert!(!m.vcpu_offline(gv), "{what}: vCPU {vcpu} left offline");
        assert_eq!(
            m.vcpu_bandwidth(gv),
            None,
            "{what}: quota left on vCPU {vcpu}"
        );
        assert_eq!(
            m.vcpu_affinity(gv),
            &[vcpu],
            "{what}: vCPU {vcpu} not re-pinned home"
        );
    }
}

fn run_past_reversals(m: &mut Machine, spec: &ChaosSpec) {
    m.start();
    // Past the horizon plus the longest transient: every reversal has
    // fired by construction.
    let end = spec.start.ns() + spec.horizon_ns + MAX_TRANSIENT_NS + 100 * MS;
    m.run_until(SimTime::from_ns(end));
}

#[test]
fn prefix_plus_reversals_restores_state() {
    propcheck::forall(0x4EF5, 12, |rng| {
        let nr = 2 + rng.index(7);
        let spec = ChaosSpec::for_pinned_vm(0, nr, 2_000 * MS);
        let plan = FaultPlan::generate(rng.u64(), &spec);
        let k = rng.index(plan.events.len() + 1);
        let prefix = plan.prefix(k);

        let mut m = build_machine(nr, 7);
        prefix.apply(&mut m);
        run_past_reversals(&mut m, &spec);
        assert_nominal(&m, nr, &format!("prefix {k}/{}", plan.events.len()));
    });
}

#[test]
fn single_class_plans_restore_state() {
    // Per-class sweep pins down which reversal leaks if one ever does.
    for class in [
        FaultClass::StressorBurst,
        FaultClass::QuotaChurn,
        FaultClass::PinChange,
        FaultClass::VcpuOffline,
        FaultClass::CapacityStep,
        FaultClass::ProbeNoise,
    ] {
        let nr = 4;
        let spec = ChaosSpec::for_pinned_vm(0, nr, 2_000 * MS)
            .only(class)
            .mean_interval(200 * MS);
        let plan = FaultPlan::generate(11, &spec);
        assert!(
            !plan.events.is_empty(),
            "{class:?}: horizon long enough to draw faults"
        );
        let mut m = build_machine(nr, 3);
        plan.apply(&mut m);
        run_past_reversals(&mut m, &spec);
        assert_nominal(&m, nr, &format!("{class:?}"));
    }
}
