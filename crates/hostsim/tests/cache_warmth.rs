//! Cache-warmth model: a cache-sensitive task pays a refill cost whenever
//! its vCPU resumes after a pollution-length inactive period (paper §2.1:
//! "a vCPU cannot allow its tasks to effectively build up data in the
//! cache if the co-running vCPUs constantly pollute the cache during its
//! inactive periods").

use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, Workload};
use simcore::time::SEC;
use simcore::SimTime;
use vsched_hostsim::{HostSpec, Machine, VmSpec};

struct OneSpinner {
    cache_sensitive: bool,
}

impl Workload for OneSpinner {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let mut spec = SpawnSpec::normal(guest.kern.nr_vcpus());
        if self.cache_sensitive {
            spec = spec.cache_sensitive();
        }
        let t = guest.spawn(plat, spec);
        guest.wake_task(plat, t, None);
    }
    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: u64) {}
    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        TaskAction::Compute { work: 1.0e18 }
    }
}

fn run(cache_sensitive: bool, contended: bool) -> f64 {
    let mut m = Machine::new(HostSpec::flat(1), 3);
    let vm = m.add_vm(VmSpec::pinned(1, 0));
    if contended {
        m.add_host_load(0, 1024);
    }
    m.set_workload(vm, Box::new(OneSpinner { cache_sensitive }));
    m.start();
    m.run_until(SimTime::from_secs(2));
    m.vcpus[m.gv(vm, 0)].delivered_work
}

#[test]
fn refills_cost_only_under_preemption() {
    // Dedicated vCPU: cache sensitivity is free (no inactive periods).
    let plain = run(false, false);
    let sensitive = run(true, false);
    assert!(
        (plain - sensitive).abs() / plain < 0.001,
        "dedicated: {plain:.3e} vs {sensitive:.3e}"
    );
}

#[test]
fn refills_tax_preempted_cache_sensitive_tasks() {
    // Contended vCPU (4 ms quanta → ~250 resumes over 2 s): the sensitive
    // task pays one refill (~50 µs of work) per resume — a visible but
    // bounded tax on top of the 50% share.
    let plain = run(false, true);
    let sensitive = run(true, true);
    let tax = 1.0 - sensitive / plain;
    assert!(
        tax > 0.01 && tax < 0.10,
        "cache tax {:.2}% (plain {plain:.3e}, sensitive {sensitive:.3e})",
        100.0 * tax
    );
    // Sanity: both still got roughly half the core.
    let half = 1024.0 * 2.0 * SEC as f64 / 2.0;
    assert!((plain - half).abs() / half < 0.05);
}
