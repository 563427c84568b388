//! Figure 17: vSched in a multi-tenant host.
//!
//! Nginx's VM shares 16 cores with co-located VMs whose vCPUs float freely;
//! the neighbours change over three phases: *intermittent* interference
//! (facesim + ferret, synchronization-heavy), *consistent* interference
//! (swaptions + raytrace, computation-heavy), then *transient* interference
//! (four latency-sensitive VMs with small tasks). We compare Nginx's
//! throughput under CFS vs vSched per phase, and measure the slowdown
//! vSched imposes on the neighbours.

use crate::common::Mode;
use crate::runner::{take, CellCtx, Grid};
use hostsim::{HostSpec, Machine, VmSpec};
use metrics::Table;
use simcore::time::SEC;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::{build, DelayedWorkload, Handle};

/// Phase labels.
pub const PHASES: [&str; 3] = ["intermittent", "consistent", "transient"];

/// One mode's outcome.
#[derive(Debug)]
pub struct ModeOutcome {
    /// Nginx requests/s per phase.
    pub nginx: [f64; 3],
    /// Neighbour completion totals per phase (for degradation accounting).
    pub neighbours: [f64; 3],
}

/// Figure 17 result.
pub struct Fig17 {
    /// Stock CFS in the Nginx VM.
    pub cfs: ModeOutcome,
    /// vSched in the Nginx VM.
    pub vsched: ModeOutcome,
}

impl fmt::Display for Fig17 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 17: Nginx under multi-tenant interference (req/s) and \
             neighbour degradation under vSched"
        )?;
        let mut t = Table::new(&[
            "phase",
            "CFS nginx",
            "vSched nginx",
            "gain",
            "neighbour impact",
        ]);
        for (i, name) in PHASES.iter().enumerate() {
            let gain = self.vsched.nginx[i] / self.cfs.nginx[i].max(1e-9) - 1.0;
            let degr = 1.0 - self.vsched.neighbours[i] / self.cfs.neighbours[i].max(1e-9);
            t.row_owned(vec![
                name.to_string(),
                format!("{:.0}", self.cfs.nginx[i]),
                format!("{:.0}", self.vsched.nginx[i]),
                format!("{:+.0}%", 100.0 * gain),
                format!("{:+.1}%", -100.0 * degr),
            ]);
        }
        write!(f, "{t}")
    }
}

struct Neighbour {
    handle: Handle,
    phase: usize,
}

fn run_mode(ctx: &CellCtx, mode: Mode) -> ModeOutcome {
    let (phase_secs, seed) = (ctx.scale.secs(10, 80), ctx.seed);
    let threads: Vec<usize> = (0..16).collect();
    let mut m = ctx.machine(HostSpec::flat(16));
    let nginx_vm = m.add_vm(VmSpec::floating(16, threads.clone()));
    // Two 16-vCPU neighbour VMs for phases 1-2, four 8-vCPU VMs for phase 3.
    let mut vm_ids = Vec::new();
    for _ in 0..2 {
        vm_ids.push(m.add_vm(VmSpec::floating(16, threads.clone())));
    }
    for _ in 0..4 {
        vm_ids.push(m.add_vm(VmSpec::floating(8, threads.clone())));
    }

    let (wl, nginx_handle) = build("nginx", 16, SimRng::new(seed ^ 0xF2));
    m.set_workload(nginx_vm, wl);

    // Neighbour workloads per phase; each runs for one phase (finite-ish
    // via delayed start; ended by the next phase's arrival of load — the
    // paper terminates them, we let the finite run lengths approximate it).
    let mut neighbours: Vec<Neighbour> = Vec::new();
    let mut add =
        |m: &mut Machine, vm: usize, bench: &str, threads: usize, phase: usize, seed: u64| {
            let (wl, handle) = build(bench, threads, SimRng::new(seed));
            let delayed = DelayedWorkload::new(wl, phase as u64 * phase_secs * SEC);
            m.set_workload(vm, Box::new(delayed));
            neighbours.push(Neighbour { handle, phase });
        };
    // Phase 0: intermittent (sync-heavy).
    add(&mut m, vm_ids[0], "facesim", 16, 0, seed ^ 1);
    add(&mut m, vm_ids[1], "dedup", 16, 0, seed ^ 2); // ferret archetype: pipeline
                                                      // Phase 1: consistent (compute-heavy) — reuse the four phase-3 VMs'
                                                      // slots cannot overlap, so these go on the first two VMs? They are
                                                      // busy; instead run them on two of the 8-vCPU VMs.
    add(&mut m, vm_ids[2], "swaptions", 8, 1, seed ^ 3);
    add(&mut m, vm_ids[3], "raytrace", 8, 1, seed ^ 4);
    // Phase 2: transient (small latency-sensitive tasks).
    add(&mut m, vm_ids[4], "masstree", 8, 2, seed ^ 5);
    add(&mut m, vm_ids[5], "silo", 8, 2, seed ^ 6);

    mode.install(&mut m, nginx_vm);
    m.start();

    // Phase-sliced Nginx throughput from its live series; neighbour
    // completions sampled at phase ends.
    let mut nginx = [0.0; 3];
    let mut neigh = [0.0; 3];
    let mut prev_counts = vec![0u64; neighbours.len()];
    for phase in 0..3 {
        m.run_until(SimTime::from_secs((phase as u64 + 1) * phase_secs));
        let mut total = 0.0;
        for (i, n) in neighbours.iter().enumerate() {
            if n.phase == phase {
                total += (n.handle.completed() - prev_counts[i]) as f64;
            }
            prev_counts[i] = n.handle.completed();
        }
        neigh[phase] = total.max(1.0);
        if let Handle::Latency(s) = &nginx_handle {
            let rates = s
                .borrow()
                .series
                .as_ref()
                .map(|ts| ts.rates_per_sec())
                .unwrap_or_default();
            let from = (phase as u64 * phase_secs + 2) as usize;
            let to = ((phase as u64 + 1) * phase_secs) as usize;
            let w = &rates[from.min(rates.len())..to.min(rates.len())];
            nginx[phase] = w.iter().sum::<f64>() / w.len().max(1) as f64;
        }
    }
    ModeOutcome {
        nginx,
        neighbours: neigh,
    }
}

/// The suite grid: one cell per scheduler.
pub fn grid() -> Grid<(Mode, ModeOutcome), Fig17> {
    let mut g = Grid::new(
        "fig17",
        "vSched in a multi-tenant host with floating sibling vCPUs",
        |mut rows: Vec<(Mode, ModeOutcome)>, _| Fig17 {
            cfs: take(&mut rows, |(m, _)| *m == Mode::Cfs).1,
            vsched: take(&mut rows, |(m, _)| *m == Mode::Vsched).1,
        },
    );
    for (label, mode) in [("cfs", Mode::Cfs), ("vsched", Mode::Vsched)] {
        g.cell(label, move |ctx| (mode, run_mode(ctx, mode)));
    }
    g
}
