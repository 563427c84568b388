//! Figure 20: cost of vSched — total cycles and cycles per second.
//!
//! Re-runs six representative workloads from the overall evaluation on both
//! profiles, collecting the VM's consumed cycles (capacity-integrated
//! running time) and CPS. The paper finds throughput workloads pay ~5.5%
//! more cycles for ~38% more CPS, and latency workloads pay more cycles
//! (probing keeps vCPUs busy) while remaining light in absolute terms.

use crate::common::Mode;
use crate::fig18_19::{make_profile, ProfileKind};
use crate::runner::{pair_up, CellCtx, Grid};
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
    /// VM profile.
    pub profile: ProfileKind,
    /// Benchmark name.
    pub bench: &'static str,
    /// Scheduler.
    pub mode: Mode,
    /// Cycles consumed per completed unit of work (the paper's fixed-work
    /// total-cycles comparison, expressed per unit since our runs are
    /// fixed-time).
    pub cycles: f64,
    /// Cycles per second of wall time (vCPU utilization).
    pub cps: f64,
}

/// Figure 20 result: per (profile, bench): (CFS, vSched).
pub struct Fig20 {
    /// Rows: (cfs, vsched).
    pub rows: Vec<(Cost, Cost)>,
}

impl fmt::Display for Fig20 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 20: vSched cost (cycles, CPS) vs CFS")?;
        let mut t = Table::new(&["profile", "benchmark", "cycles vs CFS", "CPS vs CFS"]);
        for (cfs, vs) in &self.rows {
            t.row_owned(vec![
                format!("{:?}", cfs.profile),
                cfs.bench.to_string(),
                format!("{:+.1}%", 100.0 * (vs.cycles / cfs.cycles.max(1.0) - 1.0)),
                format!("{:+.1}%", 100.0 * (vs.cps / cfs.cps.max(1.0) - 1.0)),
            ]);
        }
        write!(f, "{t}")
    }
}

fn run_cell(ctx: &CellCtx, kind: ProfileKind, bench: &'static str, mode: Mode) -> Cost {
    let secs = ctx.scale.secs(6, 25);
    let mut p = make_profile(kind, ctx);
    let nr = p.machine.vms[p.vm].nr_vcpus;
    let (wl, h) = build_loaded(bench, nr, 0.15, SimRng::new(ctx.seed ^ 0xCC));
    p.machine.set_workload(p.vm, wl);
    mode.install(&mut p.machine, p.vm);
    p.machine.start();
    p.machine.run_until(SimTime::from_secs(secs));
    let cycles = p.machine.vms[p.vm].cycles.value();
    Cost {
        profile: kind,
        bench,
        mode,
        cycles: cycles / h.completed().max(1) as f64,
        cps: cycles / secs as f64,
    }
}

/// Profiles in figure order.
const PROFILES: [ProfileKind; 2] = [ProfileKind::Hpvm, ProfileKind::Rcvm];

/// The suite grid: per (profile, benchmark), a CFS then a vSched cell.
pub fn grid() -> Grid<Cost, Fig20> {
    let mut g = Grid::new(
        "fig20",
        "cost of vSched: total cycles and cycles per second",
        |rows, _| Fig20 {
            rows: pair_up(
                rows,
                |c: &Cost| c.mode == Mode::Vsched,
                |c| (c.profile, c.bench),
            ),
        },
    );
    for kind in PROFILES {
        for &bench in &BENCHES {
            for mode in [Mode::Cfs, Mode::Vsched] {
                g.cell(format!("{kind:?}/{bench}/{}", mode.label()), move |ctx| {
                    run_cell(ctx, kind, bench, mode)
                });
            }
        }
    }
    g
}
