//! Probe hardening under hostile and honest neighbours.
//!
//! The probe-polluter archetype bursts interference exactly inside the
//! victim's vcap sampling windows. Hardened probing must reject those
//! samples (window-targeted steal far above the between-window rate) and
//! drive the resilience layer toward degraded mode — while *honest*
//! disturbances (round-the-clock contention, PR 3's `ProbeNoise` chaos)
//! must keep flowing into the estimates unrejected.

use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, Workload};
use hostsim::{ChaosSpec, FaultPlan, HostSpec, Machine, VmSpec};
use simcore::time::MS;
use simcore::SimTime;
use trace::FaultClass;
use vsched::{ResilCfg, Vsched, VschedConfig};
use workloads::{work_ms, Adversary, AttackKind, AttackPlan, AttackSpec, Stressor};

const HORIZON_NS: u64 = 6_000 * MS;

/// CPU-bound spinner tasks (idle victim when `0`).
struct Spinners(usize);

impl Workload for Spinners {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.0 {
            let t = guest.spawn(plat, SpawnSpec::normal(nr));
            guest.wake_task(plat, t, None);
        }
    }
    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: u64) {}
    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        TaskAction::Compute { work: 1.0e18 }
    }
    fn label(&self) -> &str {
        "spinners"
    }
}

fn vs(m: &mut hostsim::Machine, vm: usize) -> &mut Vsched {
    vsched::instance(&mut m.vms[vm].guest).expect("vsched installed")
}

#[test]
fn hardening_rejects_window_targeted_pollution_and_degrades() {
    // Victim and polluter share both threads; the polluter bursts only
    // around the victim's probe windows (~11% duty cycle), so an
    // unhardened prober would learn a false-low capacity.
    let mut m = Machine::new(HostSpec::flat(2), 11);
    let victim = m.add_vm(VmSpec::pinned(2, 0));
    let adv = m.add_vm(VmSpec::pinned(2, 0));
    m.set_workload(victim, Box::new(Spinners(0)));
    let spec = AttackSpec::for_vm(2, HORIZON_NS).only(AttackKind::ProbeBurst);
    m.set_workload(
        adv,
        Box::new(Adversary::new(&AttackPlan::generate(11, &spec))),
    );
    m.with_vm(victim, |g, p| {
        vsched::install(
            g,
            p,
            VschedConfig::probers_only()
                .with_hardened_probes()
                .with_resilience(ResilCfg::default()),
        )
    });
    m.start();
    m.run_until(SimTime::from_ns(HORIZON_NS));
    let v = vs(&mut m, victim);
    assert!(
        v.vcap.vet.rejected_samples >= 3,
        "polluted windows must be rejected, got {}",
        v.vcap.vet.rejected_samples
    );
    let episodes = v.resil.as_ref().unwrap().episodes;
    assert!(
        v.degraded() || episodes >= 1,
        "sustained gaming must reach degraded mode (episodes {episodes})"
    );
}

#[test]
fn hardening_accepts_round_the_clock_contention() {
    // An honest always-on neighbour presses equally inside and outside the
    // probe windows: every sample must be accepted and the probed capacity
    // must still converge to the true ~50% share.
    let mut m = Machine::new(HostSpec::flat(2), 12);
    let victim = m.add_vm(VmSpec::pinned(2, 0));
    let nb = m.add_vm(VmSpec::pinned(2, 0));
    m.set_workload(victim, Box::new(Spinners(0)));
    let (s, _stats) = Stressor::new(2, work_ms(1.0));
    m.set_workload(nb, Box::new(s.pinned(vec![0, 1])));
    m.with_vm(victim, |g, p| {
        vsched::install(g, p, VschedConfig::probers_only().with_hardened_probes())
    });
    m.start();
    m.run_until(SimTime::from_ns(HORIZON_NS));
    let v = vs(&mut m, victim);
    assert_eq!(
        v.vcap.vet.rejected_samples, 0,
        "honest contention must never be rejected"
    );
    let cap = v.vcap.capacity(guestos::VcpuId(0));
    assert!(
        (cap - 512.0).abs() < 120.0,
        "capacity should still track the honest ~50% share, got {cap}"
    );
}

#[test]
fn hardening_accepts_probe_noise_chaos() {
    // PR 3's ProbeNoise chaos jitters the steal readings themselves —
    // inside and outside the windows alike. The hardening layer must not
    // mistake that honest (if noisy) signal for gaming.
    let mut m = Machine::new(HostSpec::flat(2), 13);
    let victim = m.add_vm(VmSpec::pinned(2, 0));
    let nb = m.add_vm(VmSpec::pinned(2, 0));
    m.set_workload(victim, Box::new(Spinners(0)));
    let (s, _stats) = Stressor::new(2, work_ms(1.0));
    m.set_workload(nb, Box::new(s.pinned(vec![0, 1])));
    let chaos = ChaosSpec::for_pinned_vm(victim, 2, HORIZON_NS).only(FaultClass::ProbeNoise);
    FaultPlan::generate(13, &chaos).apply(&mut m);
    m.with_vm(victim, |g, p| {
        vsched::install(g, p, VschedConfig::probers_only().with_hardened_probes())
    });
    m.start();
    m.run_until(SimTime::from_ns(HORIZON_NS));
    let v = vs(&mut m, victim);
    assert!(
        v.vcap.vet.rejected_samples <= 1,
        "probe noise is honest signal, got {} rejections",
        v.vcap.vet.rejected_samples
    );
}
