//! Figure 3: the stalled running task, with and without proactive
//! migration.
//!
//! A 4-vCPU VM whose vCPUs are each active 5 ms out of every 10 ms (phases
//! staggered 2.5 ms apart, as two competing pinned VMs produce on a real
//! host) runs a single CPU-bound thread. In *default* mode the scheduler
//! leaves the thread where it is: it stalls whenever its vCPU is preempted
//! — 50% of the time. In *migration* mode the thread migrates itself every
//! 4 ms to the next host-active vCPU, and utilization roughly doubles
//! (paper: "the vCPU utilization is doubled").

use crate::common::Scale;
use crate::runner::{cell, got, Job, Part};
use guestos::{
    GuestOs, MigrateKind, Platform, SpawnSpec, TaskAction, TaskId, TaskState, VcpuId, Workload,
};
use hostsim::{HostSpec, Machine, ScenarioBuilder, ScriptAction, VmSpec};
use metrics::Table;
use simcore::time::MS;
use simcore::SimTime;
use std::fmt;

/// Timer token for the self-migration tick.
const MIGRATE: u64 = 7;

/// The single CPU-bound thread, optionally self-migrating every 4 ms
/// (the paper's "migration mode").
struct SelfMigrating {
    task: Option<TaskId>,
    migrate: bool,
    nr_vcpus: usize,
}

impl Workload for SelfMigrating {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let t = guest.spawn(plat, SpawnSpec::normal(self.nr_vcpus));
        self.task = Some(t);
        guest.wake_task(plat, t, None);
        if self.migrate {
            let at = plat.now().after(4 * MS);
            plat.set_timer(MIGRATE, at);
        }
    }

    fn on_timer(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform, token: u64) {
        if token != MIGRATE {
            return;
        }
        if let Some(t) = self.task {
            if let TaskState::Running(v) = guest.kern.task(t).state {
                // The thread can only migrate itself while actually
                // executing; it hops circularly to the next idle vCPU
                // (paper: "circularly migrated itself among idle vCPUs").
                if plat.vcpu_active(v) {
                    let cand = VcpuId((v.0 + 1) % self.nr_vcpus);
                    if guest.kern.vcpu_is_idle(cand) {
                        guest
                            .kern
                            .migrate_running(plat, v, cand, MigrateKind::Active);
                    }
                }
            }
        }
        let at = plat.now().after(4 * MS);
        plat.set_timer(MIGRATE, at);
    }

    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        TaskAction::Compute { work: 1.0e18 }
    }

    fn label(&self) -> &str {
        "self-migrating"
    }
}

/// Result of one mode.
pub struct ModeResult {
    /// Task active-execution fraction of wall time.
    pub utilization: f64,
    /// Running-segment timeline per vCPU (for the ASCII rendering).
    pub segments: Vec<Vec<(SimTime, SimTime)>>,
}

/// The full Figure 3 result.
pub struct Fig03 {
    /// Default mode (no proactive migration).
    pub default_mode: ModeResult,
    /// Migration mode.
    pub migration_mode: ModeResult,
}

impl Fig03 {
    /// Utilization improvement factor.
    pub fn improvement(&self) -> f64 {
        self.migration_mode.utilization / self.default_mode.utilization.max(1e-9)
    }
}

impl fmt::Display for Fig03 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: proactive migration prevents the stalled running task"
        )?;
        let mut t = Table::new(&["mode", "vCPU utilization", "improvement"]);
        t.row_owned(vec![
            "default (no migration)".into(),
            format!("{:.1}%", 100.0 * self.default_mode.utilization),
            "1.00x".into(),
        ]);
        t.row_owned(vec![
            "proactive self-migration".into(),
            format!("{:.1}%", 100.0 * self.migration_mode.utilization),
            format!("{:.2}x", self.improvement()),
        ]);
        writeln!(f, "{t}")?;
        writeln!(f, "Task placement timeline (80 ms, '#' = executing):")?;
        for (mode, r) in [
            ("default ", &self.default_mode),
            ("migrate ", &self.migration_mode),
        ] {
            for (v, segs) in r.segments.iter().enumerate() {
                let mut line = vec!['.'; 80];
                for (s, e) in segs {
                    let from = (s.ns() / MS) as usize;
                    let to = e.ns().div_ceil(MS) as usize;
                    for c in line.iter_mut().take(to.min(80)).skip(from.min(80)) {
                        *c = '#';
                    }
                }
                writeln!(f, "  {mode} vCPU{v}: {}", line.iter().collect::<String>())?;
            }
        }
        Ok(())
    }
}

/// Runs one mode, optionally with a trace collector attached.
pub fn run_mode(
    migrate: bool,
    secs: u64,
    seed: u64,
    check: Option<&trace::SharedCollector>,
) -> ModeResult {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(4), seed).vm(VmSpec::pinned(4, 0));
    let mut m: Machine = b.build();
    if let Some(shared) = check {
        m.attach_trace(shared);
    }
    m.trace_activity = true;
    // Staggered 5 ms on / 5 ms off phases: bandwidth installed at offsets.
    for v in 0..4 {
        m.at(
            SimTime::from_ns(v as u64 * 2_500_000),
            ScriptAction::SetBandwidth {
                vm,
                vcpu: v,
                qp: Some((5 * MS, 10 * MS)),
            },
        );
    }
    m.set_workload(
        vm,
        Box::new(SelfMigrating {
            task: None,
            migrate,
            nr_vcpus: 4,
        }),
    );
    m.start();
    m.run_until(SimTime::from_secs(secs));
    // The single task's execution time is the VM's delivered active time.
    let active: u64 = (0..4).map(|i| m.vcpu_active_ns(m.gv(vm, i))).sum();
    let utilization = active as f64 / (secs as f64 * 1e9);
    let segments = (0..4)
        .map(|i| m.vcpus[m.gv(vm, i)].trace_segments.clone())
        .collect();
    ModeResult {
        utilization,
        segments,
    }
}

/// The suite job: one cell per mode.
pub(crate) fn job() -> Job {
    let cells = vec![
        cell("default", |seed, scale: Scale| {
            run_mode(false, scale.secs(5, 20), seed, None)
        }),
        cell("migrate", |seed, scale: Scale| {
            run_mode(true, scale.secs(5, 20), seed, None)
        }),
    ];
    Job {
        name: "fig03",
        desc: "the stalled running task, with and without proactive migration",
        cells,
        reduce: Box::new(|parts, _| Fig03::from_parts(parts).to_string()),
    }
}

impl Fig03 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig03 {
        let mut it = parts.into_iter().map(got::<ModeResult>);
        Fig03 {
            default_mode: it.next().expect("default cell"),
            migration_mode: it.next().expect("migrate cell"),
        }
    }
}
