//! Figure 21: vSched overhead when accurate abstraction cannot help.
//!
//! A 16-vCPU VM dedicatedly hosted on 16 cores: vCPUs are always active,
//! symmetric, UMA — the default abstraction is already correct, so vSched
//! can only cost. The paper measures a 0.7% average degradation.

use crate::common::{Mode, Scale};
use crate::runner::{cell, got, Job, Part};
use hostsim::{HostSpec, ScenarioBuilder, VmSpec};
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

fn run_cell(bench: &str, mode: Mode, secs: u64, seed: u64) -> f64 {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(16), seed).vm(VmSpec::pinned(16, 0));
    let mut m = b.build();
    let (wl, handle) = build_loaded(bench, 16, 0.15, SimRng::new(seed ^ 0xDD));
    m.set_workload(vm, wl);
    mode.install(&mut m, vm);
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    if is_latency_bench(bench) {
        // Lower is better: return inverse so "higher = better" throughout.
        1e12 / handle.p95_ns().unwrap_or(1).max(1) as f64
    } else {
        handle.rate(dur)
    }
}

/// The suite job: per benchmark, a CFS then a vSched cell.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for &bench in &BENCHES {
        for mode in [Mode::Cfs, Mode::Vsched] {
            cells.push(cell(
                format!("{bench}/{}", mode.label()),
                move |seed, scale: Scale| run_cell(bench, mode, scale.secs(6, 25), seed),
            ));
        }
    }
    Job {
        name: "fig21",
        desc: "vSched overhead on a dedicated host where probing cannot help",
        cells,
        reduce: Box::new(|parts, _| Fig21::from_parts(parts).to_string()),
    }
}

impl Fig21 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig21 {
        let mut it = parts.into_iter().map(got::<f64>);
        let rows = BENCHES
            .iter()
            .map(|&bench| {
                let cfs = it.next().expect("cfs cell");
                let vs = it.next().expect("vsched cell");
                (bench, 1.0 - vs / cfs.max(1e-12))
            })
            .collect();
        Fig21 { rows }
    }
}
