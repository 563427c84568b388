//! Workspace-level prober accuracy tests (Figure 10 claims) plus
//! cross-stack property tests on the simulator's conservation laws.

use vsched_repro::experiments::{fig10, Scale};
use vsched_repro::guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, Workload};
use vsched_repro::hostsim::{HostSpec, Machine, VmSpec};
use vsched_repro::simcore::propcheck::forall;
use vsched_repro::simcore::{SimRng, SimTime};

#[test]
fn ema_capacity_tracks_the_trend() {
    let r = fig10::grid().run(42, Scale::Quick);
    // The estimate follows each step within a few sampling periods; over
    // the run the mean error stays moderate (the EMA trades lag for
    // smoothness by design).
    assert!(
        r.tracking_error < 0.35,
        "mean tracking error {:.0}%",
        100.0 * r.tracking_error
    );
    // Late in a plateau the estimate is close.
    let last = r.samples.last().expect("samples recorded");
    assert!(
        (last.ema - last.actual).abs() / last.actual < 0.2,
        "final estimate {:.0} vs actual {:.0}",
        last.ema,
        last.actual
    );
}

#[test]
fn probed_latency_matrix_shows_figure_10b_bands() {
    let r = fig10::grid().run(43, Scale::Quick);
    let m = &r.matrix;
    // SMT pair (0,1): single-digit ns.
    assert!(m[0][1] > 0.0 && m[0][1] < 20.0, "smt {}", m[0][1]);
    // Same socket (0,2): tens of ns.
    assert!(m[0][2] > 20.0 && m[0][2] < 80.0, "llc {}", m[0][2]);
    // Cross socket (0,4): ~100+ ns.
    assert!(m[0][4] > 80.0, "cross {}", m[0][4]);
    // Stacked pair (6,7): infinite.
    assert!(m[6][7].is_infinite(), "stacked {}", m[6][7]);
}

/// A workload of n spinners used by the property tests.
struct Spinners(usize);

impl Workload for Spinners {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        for _ in 0..self.0 {
            let t = guest.spawn(plat, SpawnSpec::normal(guest.kern.nr_vcpus()));
            guest.wake_task(plat, t, None);
        }
    }
    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: u64) {}
    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        TaskAction::Compute { work: 1.0e18 }
    }
}

/// Conservation: across any host shape and task count, total delivered
/// work never exceeds host capacity, and with enough spinners it
/// saturates most of it.
#[test]
fn work_is_conserved() {
    forall(0x91, 12, |rng| {
        let cores = 1 + rng.index(5);
        let tasks = 1 + rng.index(9);
        let seed = rng.range(0, 1000);
        let mut m = Machine::new(HostSpec::flat(cores), seed);
        let vm = m.add_vm(VmSpec::pinned(cores, 0));
        m.set_workload(vm, Box::new(Spinners(tasks)));
        m.start();
        let secs = 1u64;
        m.run_until(SimTime::from_secs(secs));
        let work: f64 = (0..cores)
            .map(|i| m.vcpus[m.gv(vm, i)].delivered_work)
            .sum();
        let capacity = cores as f64 * 1024.0 * 1e9 * secs as f64;
        assert!(
            work <= capacity * 1.001,
            "work {work:.3e} > capacity {capacity:.3e}"
        );
        let usable = cores.min(tasks) as f64 * 1024.0 * 1e9 * secs as f64;
        assert!(
            work >= usable * 0.9,
            "work {work:.3e} < usable {usable:.3e}"
        );
    });
}

/// Steal accounting: a vCPU's active + steal time never exceeds wall
/// time, and on a fully contended core the split is roughly even.
#[test]
fn steal_plus_active_bounded_by_wall() {
    forall(0x92, 12, |rng| {
        let seed = rng.range(0, 1000);
        let mut m = Machine::new(HostSpec::flat(1), seed);
        let vm0 = m.add_vm(VmSpec::pinned(1, 0));
        let vm1 = m.add_vm(VmSpec::pinned(1, 0));
        m.set_workload(vm0, Box::new(Spinners(1)));
        m.set_workload(vm1, Box::new(Spinners(1)));
        m.start();
        m.run_until(SimTime::from_secs(1));
        let gv = m.gv(vm0, 0);
        let total = m.vcpu_steal(gv) + m.vcpu_active_ns(gv);
        assert!(total <= 1_000_000_001, "active+steal {total}");
        assert!(total >= 990_000_000, "vCPU unaccounted for: {total}");
    });
}

/// Determinism: identical seeds give identical results end to end.
#[test]
fn simulation_is_deterministic() {
    forall(0x93, 8, |rng| {
        let seed = rng.range(0, 50);
        let run = |seed: u64| -> f64 {
            let mut m = Machine::new(HostSpec::flat(3), seed);
            let vm = m.add_vm(VmSpec::pinned(3, 0));
            let (wl, handle) = vsched_repro::workloads::build("canneal", 3, SimRng::new(seed));
            m.set_workload(vm, wl);
            m.with_vm(vm, |g, p| {
                vsched_repro::vsched::install(g, p, vsched_repro::vsched::VschedConfig::full())
            });
            m.start();
            m.run_until(SimTime::from_ms(1500));
            handle.rate(SimTime::from_ms(1500))
        };
        assert_eq!(run(seed), run(seed));
    });
}
