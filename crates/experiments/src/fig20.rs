//! Figure 20: cost of vSched — total cycles and cycles per second.
//!
//! Re-runs six representative workloads from the overall evaluation on both
//! profiles, collecting the VM's consumed cycles (capacity-integrated
//! running time) and CPS. The paper finds throughput workloads pay ~5.5%
//! more cycles for ~38% more CPS, and latency workloads pay more cycles
//! (probing keeps vCPUs busy) while remaining light in absolute terms.

use crate::common::{Mode, Scale};
use crate::fig18_19::ProfileKind;
use crate::profiles::{hpvm, rcvm};
use crate::runner::{cell, got, Job, Part};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::build_loaded;

/// Benchmarks in the figure.
pub const BENCHES: [&str; 6] = [
    "bodytrack",
    "swaptions",
    "lu_cb",
    "img-dnn",
    "specjbb",
    "sphinx",
];

/// One cell: cycles and CPS.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Cycles consumed per completed unit of work (the paper's fixed-work
    /// total-cycles comparison, expressed per unit since our runs are
    /// fixed-time).
    pub cycles: f64,
    /// Cycles per second of wall time (vCPU utilization).
    pub cps: f64,
}

/// Figure 20 result: per (profile, bench): (CFS, vSched).
pub struct Fig20 {
    /// Rows: (profile, bench, cfs, vsched).
    pub rows: Vec<(ProfileKind, &'static str, Cost, Cost)>,
}

impl fmt::Display for Fig20 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 20: vSched cost (cycles, CPS) vs CFS")?;
        let mut t = Table::new(&["profile", "benchmark", "cycles vs CFS", "CPS vs CFS"]);
        for (p, bench, cfs, vs) in &self.rows {
            t.row_owned(vec![
                format!("{p:?}"),
                bench.to_string(),
                format!("{:+.1}%", 100.0 * (vs.cycles / cfs.cycles.max(1.0) - 1.0)),
                format!("{:+.1}%", 100.0 * (vs.cps / cfs.cps.max(1.0) - 1.0)),
            ]);
        }
        write!(f, "{t}")
    }
}

fn run_cell(kind: ProfileKind, bench: &str, mode: Mode, secs: u64, seed: u64) -> Cost {
    let mut p = match kind {
        ProfileKind::Rcvm => rcvm(seed),
        ProfileKind::Hpvm => hpvm(seed),
    };
    let nr = p.machine.vms[p.vm].nr_vcpus;
    let (wl, h) = build_loaded(bench, nr, 0.15, SimRng::new(seed ^ 0xCC));
    p.machine.set_workload(p.vm, wl);
    mode.install(&mut p.machine, p.vm);
    p.machine.start();
    p.machine.run_until(SimTime::from_secs(secs));
    let cycles = p.machine.vms[p.vm].cycles.value();
    Cost {
        cycles: cycles / h.completed().max(1) as f64,
        cps: cycles / secs as f64,
    }
}

/// Profiles in figure order.
const PROFILES: [ProfileKind; 2] = [ProfileKind::Hpvm, ProfileKind::Rcvm];

/// The suite job: per (profile, benchmark), a CFS then a vSched cell.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for kind in PROFILES {
        for &bench in &BENCHES {
            for mode in [Mode::Cfs, Mode::Vsched] {
                cells.push(cell(
                    format!("{kind:?}/{bench}/{}", mode.label()),
                    move |seed, scale: Scale| run_cell(kind, bench, mode, scale.secs(6, 25), seed),
                ));
            }
        }
    }
    Job {
        name: "fig20",
        desc: "cost of vSched: total cycles and cycles per second",
        cells,
        reduce: Box::new(|parts, _| Fig20::from_parts(parts).to_string()),
    }
}

impl Fig20 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig20 {
        let mut it = parts.into_iter().map(got::<Cost>);
        let mut rows = Vec::new();
        for kind in PROFILES {
            for &bench in &BENCHES {
                let cfs = it.next().expect("cfs cell");
                let vs = it.next().expect("vsched cell");
                rows.push((kind, bench, cfs, vs));
            }
        }
        Fig20 { rows }
    }
}
