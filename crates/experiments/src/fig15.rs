//! Figure 15 and Table 4: increased throughput with ivh.
//!
//! A 16-vCPU VM shares its 16 cores with a stressor VM (each vCPU gets
//! ~50%). Throughput-oriented workloads run with 1–16 threads; with fewer
//! threads there are unused vCPUs whose cycles a stalled running task could
//! harvest. ivh proactively migrates the task just before its vCPU goes
//! inactive — pre-waking the target — and the paper reports up to 82%
//! higher throughput (17% on average even at 16 threads).
//!
//! Table 4 isolates the value of activity awareness: canneal run times with
//! pre-waking ivh vs the direct (activity-unaware) migration ablation.

use crate::common::Mode;
use crate::runner::{CellCtx, Grid};
use hostsim::{HostSpec, Machine, VmSpec};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::{build, work_ms, Stressor};

/// Workloads in the figure.
pub const BENCHES: [&str; 11] = [
    "streamcluster",
    "canneal",
    "blackscholes",
    "bodytrack",
    "dedup",
    "ocean_cp",
    "ocean_ncp",
    "radiosity",
    "radix",
    "fft",
    "pbzip2",
];

/// Thread counts swept.
pub const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Thread count.
    pub threads: usize,
    /// With ivh?
    pub ivh: bool,
    /// Throughput.
    pub rate: f64,
}

/// Figure 15 result.
pub struct Fig15 {
    /// All cells.
    pub cells: Vec<Cell>,
}

impl Fig15 {
    /// Looks up one cell's throughput.
    pub fn rate(&self, bench: &str, threads: usize, ivh: bool) -> f64 {
        self.cells
            .iter()
            .find(|c| c.bench == bench && c.threads == threads && c.ivh == ivh)
            .map(|c| c.rate)
            .unwrap_or(0.0)
    }

    /// Improvement fraction for one benchmark at `THREADS[threads_idx]`.
    pub fn improvement(&self, bench: &str, threads_idx: usize) -> f64 {
        let n = THREADS[threads_idx];
        self.rate(bench, n, true) / self.rate(bench, n, false).max(1e-12) - 1.0
    }

    /// Mean improvement across benchmarks at one thread count.
    pub fn mean_improvement(&self, threads_idx: usize) -> f64 {
        let vals: Vec<f64> = BENCHES
            .iter()
            .map(|b| self.improvement(b, threads_idx))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

impl fmt::Display for Fig15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 15: throughput improvement with ivh (%) vs thread count"
        )?;
        let mut t = Table::new(&["benchmark", "1", "2", "4", "8", "16"]);
        for bench in BENCHES {
            let cells: Vec<String> = (0..THREADS.len())
                .map(|i| format!("{:+.0}%", 100.0 * self.improvement(bench, i)))
                .collect();
            t.row_owned(std::iter::once(bench.to_string()).chain(cells).collect());
        }
        writeln!(f, "{t}")?;
        for (i, &n) in THREADS.iter().enumerate() {
            writeln!(
                f,
                "mean improvement at {n} threads: {:+.0}%",
                100.0 * self.mean_improvement(i)
            )?;
        }
        Ok(())
    }
}

/// Builds the overcommitted machine shared by Figure 15 and Table 4.
pub fn build_machine(ctx: &CellCtx) -> (Machine, usize) {
    let mut m = ctx.machine(HostSpec::flat(16));
    let vm = m.add_vm(VmSpec::pinned(16, 0));
    let stress_vm = m.add_vm(VmSpec::pinned(16, 0));
    let (sw, _s) = Stressor::new(16, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    (m, vm)
}

/// Runs one cell; returns the completion rate.
pub fn run_cell(ctx: &CellCtx, bench: &str, threads: usize, with_ivh: bool) -> f64 {
    let (mut m, vm) = build_machine(ctx);
    let (wl, handle) = build(bench, threads, SimRng::new(ctx.seed ^ 0xE1));
    m.set_workload(vm, wl);
    let cfg = if with_ivh {
        VschedConfig {
            bvs: false,
            rwc: false,
            ..VschedConfig::full()
        }
    } else {
        VschedConfig::probers_only()
    };
    Mode::install_custom(&mut m, vm, cfg);
    m.start();
    let dur = SimTime::from_secs(ctx.scale.secs(8, 30));
    m.run_until(dur);
    handle.rate(dur)
}

/// The suite grid: per (benchmark, thread count), a cell without then
/// with ivh.
pub fn grid() -> Grid<Cell, Fig15> {
    let mut g = Grid::new(
        "fig15",
        "throughput gain from idle vCPU harvesting (ivh)",
        |cells, _| Fig15 { cells },
    );
    for &bench in &BENCHES {
        for &threads in &THREADS {
            for &ivh in &[false, true] {
                g.cell(format!("{bench}/t={threads}/ivh={ivh}"), move |ctx| Cell {
                    bench,
                    threads,
                    ivh,
                    rate: run_cell(ctx, bench, threads, ivh),
                });
            }
        }
    }
    g
}
