//! Figure 21: vSched overhead when accurate abstraction cannot help.
//!
//! A 16-vCPU VM dedicatedly hosted on 16 cores: vCPUs are always active,
//! symmetric, UMA — the default abstraction is already correct, so vSched
//! can only cost. The paper measures a 0.7% average degradation.

use crate::common::Mode;
use crate::runner::{pair_up, CellCtx, Grid};
use hostsim::{HostSpec, VmSpec};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::{build_loaded, is_latency_bench};

/// Benchmarks measured (the paper's Figure 21 set).
pub const BENCHES: [&str; 17] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "facesim",
    "streamcluster",
    "fft",
    "ocean_cp",
    "radix",
    "img-dnn",
    "moses",
    "masstree",
    "silo",
    "shore",
    "specjbb",
    "sphinx",
    "xapian",
];

/// Figure 21 result: per bench, performance degradation fraction (positive
/// = worse under vSched).
pub struct Fig21 {
    /// Per-benchmark degradation.
    pub rows: Vec<(&'static str, f64)>,
}

impl Fig21 {
    /// Mean degradation across all benchmarks.
    pub fn mean(&self) -> f64 {
        self.rows.iter().map(|(_, d)| *d).sum::<f64>() / self.rows.len().max(1) as f64
    }
}

impl fmt::Display for Fig21 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 21: vSched overhead on a dedicated symmetric VM \
             (degradation vs CFS; positive = slower)"
        )?;
        let mut t = Table::new(&["benchmark", "degradation"]);
        for (bench, d) in &self.rows {
            t.row_owned(vec![bench.to_string(), format!("{:+.1}%", 100.0 * d)]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "mean degradation: {:+.2}% (paper: +0.7%)",
            100.0 * self.mean()
        )
    }
}

fn run_cell(ctx: &CellCtx, bench: &str, mode: Mode) -> f64 {
    let mut m = ctx.machine(HostSpec::flat(16));
    let vm = m.add_vm(VmSpec::pinned(16, 0));
    let (wl, handle) = build_loaded(bench, 16, 0.15, SimRng::new(ctx.seed ^ 0xDD));
    m.set_workload(vm, wl);
    mode.install(&mut m, vm);
    m.start();
    let dur = SimTime::from_secs(ctx.scale.secs(6, 25));
    m.run_until(dur);
    if is_latency_bench(bench) {
        // Lower is better: return inverse so "higher = better" throughout.
        1e12 / handle.p95_ns().unwrap_or(1).max(1) as f64
    } else {
        handle.rate(dur)
    }
}

/// The suite grid: per benchmark, a CFS then a vSched cell.
pub fn grid() -> Grid<(&'static str, Mode, f64), Fig21> {
    let mut g = Grid::new(
        "fig21",
        "vSched overhead on a dedicated host where probing cannot help",
        |cells: Vec<(&'static str, Mode, f64)>, _| Fig21 {
            rows: pair_up(cells, |c| c.1 == Mode::Vsched, |c| c.0)
                .into_iter()
                .map(|((bench, _, cfs), (_, _, vs))| (bench, 1.0 - vs / cfs.max(1e-12)))
                .collect(),
        },
    );
    for &bench in &BENCHES {
        for mode in [Mode::Cfs, Mode::Vsched] {
            g.cell(format!("{bench}/{}", mode.label()), move |ctx| {
                (bench, mode, run_cell(ctx, bench, mode))
            });
        }
    }
    g
}
