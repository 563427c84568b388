//! Table 4: canneal throughput — activity-aware vs activity-unaware ivh.
//!
//! The paper reports canneal execution times with ivh's pre-waking
//! migration vs a direct migration that ignores target activity; migration
//! delay (the task parked on a still-inactive vCPU's runqueue) erodes the
//! harvest. We report completion rates (inverse execution time) for the
//! same sweep of thread counts.

use crate::common::Mode;
use crate::fig15::build_machine;
use crate::runner::{pair_up, CellCtx, Grid};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::build;

/// Thread counts swept (as in the paper's Table 4).
pub const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Thread count.
    pub threads: usize,
    /// Activity-aware (pre-waking) ivh?
    pub aware: bool,
    /// Completion rate.
    pub rate: f64,
    /// ivh migrations (attempted, completed, abandoned).
    pub ivh: (u64, u64, u64),
}

/// Table 4 result: per thread count, (activity-unaware, activity-aware)
/// cells.
pub struct Table4 {
    /// Cell pairs in [`THREADS`] order.
    pub rows: Vec<(Cell, Cell)>,
    /// ivh migration statistics from the aware run (attempted, completed,
    /// abandoned).
    pub aware_stats: (u64, u64, u64),
}

impl Table4 {
    /// Speedup of activity-aware over unaware at a thread index.
    pub fn speedup(&self, idx: usize) -> f64 {
        let (unaware, aware) = self.rows[idx];
        aware.rate / unaware.rate.max(1e-12)
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
            self.rows
                .iter()
                .map(|c| format!("{:.1}", if which == 0 { c.0.rate } else { c.1.rate }))
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

fn run_cell(ctx: &CellCtx, threads: usize, prewake: bool) -> Cell {
    let (mut m, vm) = build_machine(ctx);
    let (wl, handle) = build("canneal", threads, SimRng::new(ctx.seed ^ 0xE2));
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
    let dur = SimTime::from_secs(ctx.scale.secs(8, 30));
    m.run_until(dur);
    let stats = &m.vms[vm].guest.kern.stats;
    Cell {
        threads,
        aware: prewake,
        rate: handle.rate(dur),
        ivh: (
            stats.ivh_attempts.get(),
            stats.ivh_completed.get(),
            stats.ivh_abandoned.get(),
        ),
    }
}

/// The suite grid: per thread count, an activity-unaware then an
/// activity-aware cell.
pub fn grid() -> Grid<Cell, Table4> {
    let mut g = Grid::new(
        "table4",
        "canneal throughput: activity-aware vs unaware ivh pre-waking",
        |cells, _| {
            let rows = pair_up(cells, |c: &Cell| c.aware, |c| c.threads);
            // Report harvest statistics where harvesting actually happens.
            let aware_stats = rows
                .iter()
                .find(|(_, aware)| aware.threads == 1)
                .map_or((0, 0, 0), |(_, aware)| aware.ivh);
            Table4 { rows, aware_stats }
        },
    );
    for &t in &THREADS {
        for &prewake in &[false, true] {
            g.cell(format!("t={t}/aware={prewake}"), move |ctx| {
                run_cell(ctx, t, prewake)
            });
        }
    }
    g
}
