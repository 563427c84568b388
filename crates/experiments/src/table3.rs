//! Table 3: Masstree p95 latency breakdown under bvs.
//!
//! The Figure 14 setup, measured for Masstree only, decomposed into queue
//! time (runqueue latency), service time, and end-to-end — plus the
//! "bvs without the vCPU-state check" ablation that shows why prioritizing
//! recently-active sched_idle vCPUs matters when best-effort tasks are
//! present.

use crate::fig14::run_cell;
use crate::runner::{take, Grid};
use metrics::Table;
use std::fmt;
use vsched::VschedConfig;
use workloads::Handle;

/// One configuration's breakdown (ns).
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// p95 queue time.
    pub queue_ns: u64,
    /// p95 service time.
    pub service_ns: u64,
    /// p95 end-to-end.
    pub e2e_ns: u64,
}

impl Breakdown {
    pub(crate) fn from_handle(h: &Handle) -> Breakdown {
        match h {
            Handle::Latency(s) => {
                let s = s.borrow();
                Breakdown {
                    queue_ns: s.queue.p95(),
                    service_ns: s.service.p95(),
                    e2e_ns: s.e2e.p95(),
                }
            }
            Handle::Throughput(_) => unreachable!("masstree is a latency benchmark"),
        }
    }
}

/// Table 3 result.
pub struct Table3 {
    /// Without best-effort tasks: (no bvs, bvs).
    pub no_be: (Breakdown, Breakdown),
    /// With best-effort tasks: (no bvs, bvs without state check, bvs).
    pub with_be: (Breakdown, Breakdown, Breakdown),
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3: Masstree p95 latency breakdown (ms)")?;
        let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
        let mut t = Table::new(&[
            "setting",
            "no-BE: no bvs",
            "no-BE: bvs",
            "BE: no bvs",
            "BE: bvs (no state check)",
            "BE: bvs",
        ]);
        t.row_owned(vec![
            "Queue".into(),
            ms(self.no_be.0.queue_ns),
            ms(self.no_be.1.queue_ns),
            ms(self.with_be.0.queue_ns),
            ms(self.with_be.1.queue_ns),
            ms(self.with_be.2.queue_ns),
        ]);
        t.row_owned(vec![
            "Service".into(),
            ms(self.no_be.0.service_ns),
            ms(self.no_be.1.service_ns),
            ms(self.with_be.0.service_ns),
            ms(self.with_be.1.service_ns),
            ms(self.with_be.2.service_ns),
        ]);
        t.row_owned(vec![
            "End-2-end".into(),
            ms(self.no_be.0.e2e_ns),
            ms(self.no_be.1.e2e_ns),
            ms(self.with_be.0.e2e_ns),
            ms(self.with_be.1.e2e_ns),
            ms(self.with_be.2.e2e_ns),
        ]);
        write!(f, "{t}")
    }
}

pub(crate) fn bvs_cfg() -> VschedConfig {
    VschedConfig {
        ivh: false,
        rwc: false,
        ..VschedConfig::full()
    }
}

/// The suite grid: masstree without then with best-effort tasks, under
/// each bvs variant; every row is keyed by its cell label.
pub fn grid() -> Grid<(&'static str, Breakdown), Table3> {
    let mut g = Grid::new(
        "table3",
        "Masstree p95 latency breakdown under bvs",
        |mut rows: Vec<(&'static str, Breakdown)>, _| {
            let mut b = |label: &str| take(&mut rows, |r| r.0 == label).1;
            Table3 {
                no_be: (b("no-be/no-bvs"), b("no-be/bvs")),
                with_be: (b("be/no-bvs"), b("be/bvs-no-state-check"), b("be/bvs")),
            }
        },
    );
    let probers_only: fn() -> VschedConfig = VschedConfig::probers_only;
    let cells = [
        ("no-be/no-bvs", false, probers_only),
        ("no-be/bvs", false, bvs_cfg),
        ("be/no-bvs", true, probers_only),
        ("be/bvs-no-state-check", true, || {
            bvs_cfg().without_bvs_state_check()
        }),
        ("be/bvs", true, bvs_cfg),
    ];
    for (label, be, cfg) in cells {
        g.cell(label, move |ctx| {
            let h = run_cell(ctx, "masstree", be, cfg());
            (label, Breakdown::from_handle(&h))
        });
    }
    g
}
