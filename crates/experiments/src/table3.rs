//! Table 3: Masstree p95 latency breakdown under bvs.
//!
//! The Figure 14 setup, measured for Masstree only, decomposed into queue
//! time (runqueue latency), service time, and end-to-end — plus the
//! "bvs without the vCPU-state check" ablation that shows why prioritizing
//! recently-active sched_idle vCPUs matters when best-effort tasks are
//! present.

use crate::common::Scale;
use crate::fig14::run_cell;
use crate::runner::{cell, got, Job, Part};
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

/// The suite job: masstree without then with best-effort tasks, under
/// each bvs variant.
pub(crate) fn job() -> Job {
    fn breakdown(be: bool, cfg: VschedConfig, seed: u64, scale: Scale) -> Breakdown {
        let h = run_cell("masstree", be, cfg, scale.secs(15, 60), seed);
        Breakdown::from_handle(&h)
    }
    let cells = vec![
        cell("no-be/no-bvs", |seed, scale: Scale| {
            breakdown(false, VschedConfig::probers_only(), seed, scale)
        }),
        cell("no-be/bvs", |seed, scale: Scale| {
            breakdown(false, bvs_cfg(), seed, scale)
        }),
        cell("be/no-bvs", |seed, scale: Scale| {
            breakdown(true, VschedConfig::probers_only(), seed, scale)
        }),
        cell("be/bvs-no-state-check", |seed, scale: Scale| {
            breakdown(true, bvs_cfg().without_bvs_state_check(), seed, scale)
        }),
        cell("be/bvs", |seed, scale: Scale| {
            breakdown(true, bvs_cfg(), seed, scale)
        }),
    ];
    Job {
        name: "table3",
        desc: "Masstree p95 latency breakdown under bvs",
        cells,
        reduce: Box::new(|parts, _| Table3::from_parts(parts).to_string()),
    }
}

impl Table3 {
    /// Assembles the table from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Table3 {
        let mut it = parts.into_iter().map(got::<Breakdown>);
        let mut next = || it.next().expect("one part per cell");
        let no_be = (next(), next());
        let with_be = (next(), next(), next());
        Table3 { no_be, with_be }
    }
}
