//! End-to-end adversary claims, at the machine level:
//!
//! * the tick-dodger steals a measurably positive share from an equal-
//!   weight neighbour under *sampled* proportional-share accounting
//!   (`HostSched::CreditSampled` — the Xen-credit attack from "Scheduler
//!   Vulnerabilities and Attacks in Cloud Computing");
//! * the same attack gains nothing under exact-settling accounting
//!   (`HostSched::Proportional`) — dodging only forfeits runtime;
//! * under `HostSched::Domain` time partitioning the theft is
//!   structurally impossible, and the run stays clean under the new
//!   domain trace laws (slice sums, cross-domain execution, steal
//!   conservation).

use hostsim::{DomainSchedule, DomainSlice, HostSched, HostSpec, Machine, VmSpec};
use simcore::time::MS;
use simcore::SimTime;
use trace::{Collector, PriorityClass, TraceSink};
use vsched_workloads::{work_ms, Adversary, AttackKind, AttackPlan, AttackSpec, Stressor};

const HORIZON_NS: u64 = 3_000 * MS;

/// Runs an always-hungry 2-vCPU victim against a 2-vCPU tick-dodger on a
/// 2-thread host under `sched`; returns the adversary's share of total
/// thread time. Fair share is 0.5. Panics on any trace-law violation.
fn adversary_share(sched: HostSched) -> f64 {
    let mut m = Machine::new(HostSpec::flat(2), 7);
    let victim = m.add_vm(VmSpec::pinned(2, 0));
    let advm = m.add_vm(VmSpec::pinned(2, 0));
    m.set_vm_class(victim, PriorityClass::Standard);
    m.set_vm_class(advm, PriorityClass::Batch);
    let (_, shared) = TraceSink::shared(Collector::default().with_checker());
    m.attach_trace(&shared);
    m.set_host_sched(sched).unwrap();

    let (stressor, _stats) = Stressor::new(2, work_ms(1.0));
    m.set_workload(victim, Box::new(stressor.pinned(vec![0, 1])));
    let spec = AttackSpec::for_vm(2, HORIZON_NS).only(AttackKind::DodgeRun);
    let plan = AttackPlan::generate(42, &spec);
    m.set_workload(advm, Box::new(Adversary::new(&plan)));

    m.start();
    m.run_until(SimTime::from_ns(HORIZON_NS));

    let report_ok = {
        let c = shared.borrow();
        let checker = c.checker.as_ref().unwrap();
        assert!(
            checker.report().ok(),
            "trace law violated: {:?}",
            checker.first()
        );
        true
    };
    assert!(report_ok);

    let adv_active: u64 = (0..2).map(|v| m.vcpu_active_ns(m.gv(advm, v))).sum();
    adv_active as f64 / (2 * HORIZON_NS) as f64
}

#[test]
fn tick_dodger_steals_under_sampled_accounting() {
    let share = adversary_share(HostSched::CreditSampled);
    assert!(
        share > 0.65,
        "dodger share {share:.3} — expected well above the 0.5 fair share"
    );
}

#[test]
fn exact_accounting_gives_the_dodger_nothing() {
    let share = adversary_share(HostSched::Proportional);
    assert!(
        share < 0.55,
        "dodger share {share:.3} under exact settling — dodging should not pay"
    );
}

#[test]
fn domain_schedule_confines_the_dodger_to_its_slice() {
    let ds = DomainSchedule::new(vec![
        DomainSlice::new(PriorityClass::Standard, 2 * MS),
        DomainSlice::new(PriorityClass::Batch, 2 * MS),
    ]);
    let share = adversary_share(HostSched::Domain(ds));
    assert!(
        share < 0.52,
        "dodger share {share:.3} — must not exceed its half-period entitlement"
    );
    assert!(
        share > 0.2,
        "dodger share {share:.3} — the adversary's own slice must still run it"
    );
}
