//! Figure 2: the impact of vCPU latency on latency-sensitive workloads.
//!
//! Two overcommitted VMs share a set of cores one-to-one; one runs
//! Tailbench apps at a low request rate, the other stresses every vCPU with
//! sysbench. The host scheduling quantum plays the role of the paper's
//! bandwidth-control + granularity tuning: it sets the vCPU latency (2, 4,
//! 8, 16 ms) without changing the 50% capacity split. The p95 tail latency
//! of each benchmark is reported normalized to the 16 ms setting — the
//! paper observes up to a 20× spread.

use crate::runner::{CellCtx, Grid};
use hostsim::{HostSpec, VmSpec};
use metrics::Table;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::{build_latency, work_ms, Stressor};

/// The vCPU latency settings swept (ns).
pub const LATENCIES_MS: [u64; 4] = [2, 4, 8, 16];

/// Benchmarks shown in the figure.
pub const BENCHES: [&str; 3] = ["img-dnn", "silo", "specjbb"];

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name.
    pub bench: &'static str,
    /// With best-effort background tasks?
    pub best_effort: bool,
    /// vCPU latency setting (ms).
    pub latency_ms: u64,
    /// Measured p95 end-to-end latency (ns).
    pub p95_ns: u64,
}

/// Full result of the Figure 2 reproduction.
pub struct Fig02 {
    /// All measured cells.
    pub cells: Vec<Cell>,
}

impl Fig02 {
    /// p95 for a configuration.
    pub fn p95(&self, bench: &str, best_effort: bool, latency_ms: u64) -> u64 {
        self.cells
            .iter()
            .find(|c| {
                c.bench == bench && c.best_effort == best_effort && c.latency_ms == latency_ms
            })
            .map(|c| c.p95_ns)
            .unwrap_or(0)
    }
}

impl fmt::Display for Fig02 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2: p95 tail latency vs vCPU latency, normalized to 16 ms (lower is better)"
        )?;
        let mut t = Table::new(&["config", "2 ms", "4 ms", "8 ms", "16 ms"]);
        for &be in &[false, true] {
            for bench in BENCHES {
                let base = self.p95(bench, be, 16).max(1) as f64;
                let label = format!("{bench}{}", if be { " (+best-effort)" } else { "" });
                let row: Vec<String> = LATENCIES_MS
                    .iter()
                    .map(|&l| format!("{:.1}", 100.0 * self.p95(bench, be, l) as f64 / base))
                    .collect();
                t.row_owned(std::iter::once(label).chain(row).collect());
            }
        }
        write!(f, "{t}")
    }
}

/// Runs one cell: a 16-vCPU VM against a stressor VM with the host quantum
/// set to the target vCPU latency.
fn run_cell(ctx: &CellCtx, bench: &'static str, best_effort: bool, latency_ms: u64) -> Cell {
    let n = 16;
    let mut host = HostSpec::flat(n);
    host.quantum_ns = latency_ms * MS;
    let mut m = ctx.machine(host);
    let vm = m.add_vm(VmSpec::pinned(n, 0));
    let stress_vm = m.add_vm(VmSpec::pinned(n, 0));
    // Very light offered load, as the paper configures it ("we reduced the
    // arrival rate of requests to minimize the delay on the runqueue while
    // waiting for other requests"): requests arrive far apart so each one
    // independently samples the vCPU activity phase.
    let interarrival = 30.0 * simcore::time::MS as f64;
    let (wl, handle) = build_latency(
        bench,
        4,
        interarrival,
        best_effort,
        SimRng::new(ctx.seed ^ 0x51),
    );
    m.set_workload(vm, wl);
    let (sw, _ss) = Stressor::new(n, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    m.start();
    m.run_until(SimTime::from_secs(ctx.scale.secs(20, 120)));
    Cell {
        bench,
        best_effort,
        latency_ms,
        p95_ns: handle.p95_ns().expect("a latency benchmark"),
    }
}

/// The suite grid: one cell per (best-effort, benchmark, vCPU latency).
pub fn grid() -> Grid<Cell, Fig02> {
    let mut g = Grid::new(
        "fig02",
        "vCPU latency vs request latency for latency-sensitive workloads",
        |cells, _| Fig02 { cells },
    );
    for &be in &[false, true] {
        for bench in BENCHES {
            for &l in &LATENCIES_MS {
                g.cell(format!("{bench}/be={be}/lat={l}"), move |ctx| {
                    run_cell(ctx, bench, be, l)
                });
            }
        }
    }
    g
}
