//! Figure 14 and Table 3: latency reduction with bvs.
//!
//! A 16-vCPU VM is overcommitted with a stressor VM on the same 16 cores,
//! giving every vCPU 50% capacity; per-thread host quanta make half the
//! vCPUs' inactive periods 2× shorter (the paper tunes the same asymmetry
//! with bandwidth control and granularity sysctls). Tailbench apps run at
//! low rate, with and without best-effort background tasks;
//! vProbers are enabled in every configuration and only bvs is toggled.
//! The paper reports a 42% average p95 reduction, and Table 3 breaks
//! Masstree's latency into queue/service components, including the
//! "bvs without the state check" ablation.

use crate::common::Mode;
use crate::runner::{CellCtx, Grid};
use hostsim::{HostSpec, VmSpec};
use metrics::Table;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::{build_latency, work_ms, Handle, Stressor};

/// Benchmarks in Figure 14.
pub const BENCHES: [&str; 5] = ["img-dnn", "masstree", "silo", "specjbb", "xapian"];

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name.
    pub bench: &'static str,
    /// With best-effort tasks?
    pub best_effort: bool,
    /// With bvs?
    pub bvs: bool,
    /// p95 end-to-end latency (ns).
    pub p95_ns: u64,
}

/// Figure 14 result.
pub struct Fig14 {
    /// All cells.
    pub cells: Vec<Cell>,
}

impl Fig14 {
    /// Looks up one cell's p95.
    pub fn p95(&self, bench: &str, best_effort: bool, bvs: bool) -> u64 {
        self.cells
            .iter()
            .find(|c| c.bench == bench && c.best_effort == best_effort && c.bvs == bvs)
            .map(|c| c.p95_ns)
            .unwrap_or(0)
    }

    /// Mean p95 reduction across all benchmark/best-effort combinations.
    pub fn mean_reduction(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for &be in &[false, true] {
            for bench in BENCHES {
                let without = self.p95(bench, be, false) as f64;
                let with = self.p95(bench, be, true) as f64;
                if without > 0.0 {
                    sum += 1.0 - with / without;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

impl fmt::Display for Fig14 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 14: p95 tail latency with bvs, normalized to bvs disabled (lower is better)"
        )?;
        let mut t = Table::new(&["config", "without bvs", "with bvs"]);
        for &be in &[false, true] {
            for bench in BENCHES {
                let base = self.p95(bench, be, false).max(1) as f64;
                t.row_owned(vec![
                    format!("{bench}{}", if be { " (+best-effort)" } else { "" }),
                    "100.0".into(),
                    format!("{:.1}", 100.0 * self.p95(bench, be, true) as f64 / base),
                ]);
            }
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "mean p95 reduction with bvs: {:.0}% (paper: 42%)",
            100.0 * self.mean_reduction()
        )
    }
}

/// Runs one cell on the Figure 14 machine — 16 vCPUs at symmetric 50%
/// capacity (competing stressor VM), vCPUs 0–7 with 2x lower latency
/// (4 ms host quanta vs 8 ms) — and returns the latency handle for
/// Table 3 reuse.
pub fn run_cell(
    ctx: &CellCtx,
    bench: &'static str,
    best_effort: bool,
    cfg: VschedConfig,
) -> Handle {
    let mut m = ctx.machine(HostSpec::flat(16));
    let vm = m.add_vm(VmSpec::pinned(16, 0));
    let stress_vm = m.add_vm(VmSpec::pinned(16, 0));
    let (sw, _s) = Stressor::new(16, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    for th in 0..16 {
        m.set_thread_quantum(th, if th < 8 { 4 * MS } else { 8 * MS });
    }
    // Low offered load: the tail is dominated by wakeup placement.
    let interarrival = 8.0 * MS as f64;
    let (wl, handle) = build_latency(
        bench,
        4,
        interarrival,
        best_effort,
        SimRng::new(ctx.seed ^ 0xD1),
    );
    m.set_workload(vm, wl);
    Mode::install_custom(&mut m, vm, cfg);
    m.start();
    m.run_until(SimTime::from_secs(ctx.scale.secs(15, 60)));
    handle
}

/// The suite grid: per (best-effort, benchmark), a probers-only then a
/// bvs cell.
pub fn grid() -> Grid<Cell, Fig14> {
    let mut g = Grid::new(
        "fig14",
        "p95 latency reduction with boosted vCPU scheduling (bvs)",
        |cells, _| Fig14 { cells },
    );
    for &best_effort in &[false, true] {
        for bench in BENCHES {
            for &bvs in &[false, true] {
                g.cell(format!("{bench}/be={best_effort}/bvs={bvs}"), move |ctx| {
                    let cfg = if bvs {
                        crate::table3::bvs_cfg()
                    } else {
                        VschedConfig::probers_only()
                    };
                    let h = run_cell(ctx, bench, best_effort, cfg);
                    Cell {
                        bench,
                        best_effort,
                        bvs,
                        p95_ns: h.p95_ns().unwrap_or(0),
                    }
                });
            }
        }
    }
    g
}
