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

use crate::common::{Mode, Scale};
use crate::runner::{cell, got, Job, Part};
use hostsim::{HostSpec, Machine, ScenarioBuilder, VmSpec};
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

/// Figure 15 result: improvement\[bench]\[thread-idx] as a fraction.
pub struct Fig15 {
    /// Per benchmark: throughput with/without ivh per thread count.
    pub rows: Vec<(&'static str, Vec<(f64, f64)>)>,
}

impl Fig15 {
    /// Improvement fraction for one cell.
    pub fn improvement(&self, bench: &str, threads_idx: usize) -> f64 {
        self.rows
            .iter()
            .find(|(b, _)| *b == bench)
            .map(|(_, cells)| {
                let (without, with) = cells[threads_idx];
                with / without.max(1e-12) - 1.0
            })
            .unwrap_or(0.0)
    }

    /// Mean improvement across benchmarks at one thread count.
    pub fn mean_improvement(&self, threads_idx: usize) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .map(|(b, _)| self.improvement(b, threads_idx))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }
}

impl fmt::Display for Fig15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 15: throughput improvement with ivh (%) vs thread count"
        )?;
        let mut t = Table::new(&["benchmark", "1", "2", "4", "8", "16"]);
        for (bench, _) in &self.rows {
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
pub fn build_machine(seed: u64) -> (Machine, usize) {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(16), seed).vm(VmSpec::pinned(16, 0));
    let (b, stress_vm) = b.vm(VmSpec::pinned(16, 0));
    let mut m = b.build();
    let (sw, _s) = Stressor::new(16, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    (m, vm)
}

/// Runs one cell, optionally with a trace collector attached; returns
/// the completion rate.
pub fn run_cell(
    bench: &str,
    threads: usize,
    with_ivh: bool,
    secs: u64,
    seed: u64,
    check: Option<&trace::SharedCollector>,
) -> f64 {
    let (mut m, vm) = build_machine(seed);
    if let Some(shared) = check {
        m.attach_trace(shared);
    }
    let (wl, handle) = build(bench, threads, SimRng::new(seed ^ 0xE1));
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
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    handle.rate(dur)
}

/// The suite job: per (benchmark, thread count), a cell without then
/// with ivh.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for &bench in &BENCHES {
        for &t in &THREADS {
            for &ivh in &[false, true] {
                cells.push(cell(
                    format!("{bench}/t={t}/ivh={ivh}"),
                    move |seed, scale: Scale| {
                        run_cell(bench, t, ivh, scale.secs(8, 30), seed, None)
                    },
                ));
            }
        }
    }
    Job {
        name: "fig15",
        desc: "throughput gain from idle vCPU harvesting (ivh)",
        cells,
        reduce: Box::new(|parts, _| Fig15::from_parts(parts).to_string()),
    }
}

impl Fig15 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig15 {
        let mut it = parts.into_iter().map(got::<f64>);
        let rows = BENCHES
            .iter()
            .map(|&bench| {
                let cells = THREADS
                    .iter()
                    .map(|_| {
                        let without = it.next().expect("cell without ivh");
                        let with = it.next().expect("cell with ivh");
                        (without, with)
                    })
                    .collect();
                (bench, cells)
            })
            .collect();
        Fig15 { rows }
    }
}
