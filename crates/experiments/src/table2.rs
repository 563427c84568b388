//! Table 2: vtop probing time.
//!
//! Measures how long vtop's full probe and validation passes take on the
//! rcvm (12 vCPUs with a stacked pair) and hpvm (32 vCPUs across 4
//! sockets) profiles. The paper reports sub-second times with validation up
//! to 4× faster than full probing, and notes that validation takes longer
//! on rcvm than on the larger hpvm because confirming stacking requires
//! waiting out the transfer timeout.

use crate::common::Scale;
use crate::profiles::{hpvm, rcvm, Profile};
use crate::runner::{cell, got, Job, Part};
use metrics::{fmt_ns, Table};
use simcore::SimTime;
use std::fmt;
use vsched::VschedConfig;
use workloads::{work_ms, Stressor};

/// Table 2 result (all times in ns).
pub struct Table2 {
    /// rcvm full probe duration.
    pub rcvm_full_ns: u64,
    /// rcvm validation duration.
    pub rcvm_validate_ns: u64,
    /// hpvm full probe duration.
    pub hpvm_full_ns: u64,
    /// hpvm validation duration.
    pub hpvm_validate_ns: u64,
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2: vtop probing time")?;
        let mut t = Table::new(&[
            "config",
            "rcvm-full",
            "rcvm-validate",
            "hpvm-full",
            "hpvm-validate",
        ]);
        t.row_owned(vec![
            "time".into(),
            fmt_ns(self.rcvm_full_ns),
            fmt_ns(self.rcvm_validate_ns),
            fmt_ns(self.hpvm_full_ns),
            fmt_ns(self.hpvm_validate_ns),
        ]);
        write!(f, "{t}")
    }
}

fn measure(mut p: Profile, secs: u64) -> (u64, u64) {
    let vm = p.vm;
    // A light background so the system resembles the evaluation setting.
    let (wl, _s) = Stressor::new(2, work_ms(5.0));
    p.machine.set_workload(vm, Box::new(wl));
    p.machine.with_vm(vm, |g, pl| {
        vsched::install(g, pl, VschedConfig::probers_only())
    });
    p.machine.start();
    p.machine.run_until(SimTime::from_secs(secs));
    let vs = vsched::instance(&mut p.machine.vms[vm].guest).expect("installed");
    (
        vs.vtop.last_full_ns.unwrap_or(0),
        vs.vtop.last_validate_ns.unwrap_or(0),
    )
}

/// The suite job: one cell per profile.
pub(crate) fn job() -> Job {
    let cells = vec![
        cell("rcvm", |seed, scale: Scale| {
            measure(rcvm(seed), scale.secs(12, 30))
        }),
        cell("hpvm", |seed, scale: Scale| {
            measure(hpvm(seed), scale.secs(12, 30))
        }),
    ];
    Job {
        name: "table2",
        desc: "vtop probing time: full probe vs validation pass",
        cells,
        reduce: Box::new(|parts, _| Table2::from_parts(parts).to_string()),
    }
}

impl Table2 {
    /// Assembles the table from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Table2 {
        let mut it = parts.into_iter().map(got::<(u64, u64)>);
        let (rcvm_full_ns, rcvm_validate_ns) = it.next().expect("rcvm cell");
        let (hpvm_full_ns, hpvm_validate_ns) = it.next().expect("hpvm cell");
        Table2 {
            rcvm_full_ns,
            rcvm_validate_ns,
            hpvm_full_ns,
            hpvm_validate_ns,
        }
    }
}
