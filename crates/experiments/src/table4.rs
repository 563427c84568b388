//! Table 4: canneal throughput — activity-aware vs activity-unaware ivh.
//!
//! The paper reports canneal execution times with ivh's pre-waking
//! migration vs a direct migration that ignores target activity; migration
//! delay (the task parked on a still-inactive vCPU's runqueue) erodes the
//! harvest. We report completion rates (inverse execution time) for the
//! same sweep of thread counts.

use crate::common::{Mode, Scale};
use crate::fig15::build_machine;
use crate::runner::{cell, got, Job, Part};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::build;

/// Thread counts swept (as in the paper's Table 4).
pub const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Table 4 result: per thread count, (activity-unaware, activity-aware)
/// completion rates.
pub struct Table4 {
    /// Completion rates.
    pub cells: Vec<(f64, f64)>,
    /// ivh migration statistics from the aware run (attempted, completed,
    /// abandoned).
    pub aware_stats: (u64, u64, u64),
}

impl Table4 {
    /// Speedup of activity-aware over unaware at a thread index.
    pub fn speedup(&self, idx: usize) -> f64 {
        let (unaware, aware) = self.cells[idx];
        aware / unaware.max(1e-12)
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4: canneal throughput under ivh (rounds/s; higher is better)"
        )?;
        let mut t = Table::new(&["#threads", "1", "2", "4", "8", "16"]);
        let row = |which: usize| -> Vec<String> {
            self.cells
                .iter()
                .map(|c| format!("{:.1}", if which == 0 { c.0 } else { c.1 }))
                .collect()
        };
        t.row_owned(
            std::iter::once("ivh (activity-unaware)".to_string())
                .chain(row(0))
                .collect(),
        );
        t.row_owned(
            std::iter::once("ivh (activity-aware)".to_string())
                .chain(row(1))
                .collect(),
        );
        writeln!(f, "{t}")?;
        let (att, done, abandoned) = self.aware_stats;
        writeln!(
            f,
            "activity-aware run: {att} attempts, {done} completed, {abandoned} abandoned"
        )
    }
}

fn run_cell(threads: usize, prewake: bool, secs: u64, seed: u64) -> (f64, (u64, u64, u64)) {
    let (mut m, vm) = build_machine(seed);
    let (wl, handle) = build("canneal", threads, SimRng::new(seed ^ 0xE2));
    m.set_workload(vm, wl);
    let mut cfg = VschedConfig {
        bvs: false,
        rwc: false,
        ..VschedConfig::full()
    };
    if !prewake {
        cfg = cfg.without_ivh_prewake();
    }
    Mode::install_custom(&mut m, vm, cfg);
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    let stats = &m.vms[vm].guest.kern.stats;
    (
        handle.rate(dur),
        (
            stats.ivh_attempts.get(),
            stats.ivh_completed.get(),
            stats.ivh_abandoned.get(),
        ),
    )
}

/// The suite job: per thread count, an activity-unaware then an
/// activity-aware cell.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for &t in &THREADS {
        for &prewake in &[false, true] {
            cells.push(cell(
                format!("t={t}/aware={prewake}"),
                move |seed, scale: Scale| run_cell(t, prewake, scale.secs(8, 30), seed),
            ));
        }
    }
    Job {
        name: "table4",
        desc: "canneal throughput: activity-aware vs unaware ivh pre-waking",
        cells,
        reduce: Box::new(|parts, _| Table4::from_parts(parts).to_string()),
    }
}

impl Table4 {
    /// Assembles the table from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Table4 {
        let mut it = parts.into_iter().map(got::<(f64, (u64, u64, u64))>);
        let mut cells = Vec::new();
        let mut aware_stats = (0, 0, 0);
        for &t in &THREADS {
            let (unaware, _) = it.next().expect("unaware cell");
            let (aware, st) = it.next().expect("aware cell");
            if t == 1 {
                // Report harvest statistics where harvesting actually happens.
                aware_stats = st;
            }
            cells.push((unaware, aware));
        }
        Table4 { cells, aware_stats }
    }
}
