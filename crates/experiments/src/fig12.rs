//! Figure 12: effective SMT-aware scheduling with vtop.
//!
//! A 32-vCPU VM is pinned to 16 SMT pairs (32 hardware threads on 16
//! cores).
//!
//! (a) **Underloaded system**: sysbench runs 16 CPU-bound threads. Without
//! SMT topology the scheduler often lands two threads on sibling hardware
//! threads of one core, leaving whole cores idle (paper: 11–12 of 16 cores
//! used); with vtop's SMT domains the idle-core search spreads them
//! (15–16 cores).
//!
//! (b) **Mixed workloads**: CPU-intensive Matmul shares the VM with
//! memory-/IO-bound Nginx or Fio (16 threads each). Correct SMT topology
//! resolves the resource conflicts (paper: up to +18% Matmul, +5% Nginx,
//! no Fio degradation).

use crate::common::Mode;
use crate::runner::{pair_up, take, CellCtx, Grid};
use guestos::TaskState;
use hostsim::{HostSpec, Machine, Pinning, VmSpec};
use metrics::Table;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use vsched::VschedConfig;
use workloads::{build, MultiWorkload};

/// Result of the underloaded-system part.
#[derive(Debug, Clone)]
pub struct ActiveCores {
    /// With vtop?
    pub vtop: bool,
    /// Histogram over "number of cores executing benchmark work" samples
    /// (index = core count).
    pub histogram: Vec<u64>,
    /// Mean active cores.
    pub mean: f64,
}

/// Result of one mixed-workload pairing.
#[derive(Debug, Clone)]
pub struct Mixed {
    /// With vtop?
    pub vtop: bool,
    /// Partner benchmark name.
    pub partner: &'static str,
    /// Matmul events/s.
    pub matmul: f64,
    /// Partner completion rate.
    pub partner_rate: f64,
}

/// One cell's result: an under-loaded or a mixed-workload run.
#[derive(Debug)]
pub enum Row {
    /// (a) active cores.
    Cores(ActiveCores),
    /// (b) one mixed pairing.
    Mixed(Mixed),
}

/// Figure 12 result.
pub struct Fig12 {
    /// (a) stock CFS.
    pub cores_cfs: ActiveCores,
    /// (a) CFS + vtop.
    pub cores_vtop: ActiveCores,
    /// (b) per partner: (CFS, CFS+vtop).
    pub mixed: Vec<(Mixed, Mixed)>,
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 12a: active cores with 16 threads on 16 SMT pairs (higher is better)"
        )?;
        let mut t = Table::new(&["config", "mean active cores", "P(>=15 cores)"]);
        for (label, c) in [("CFS", &self.cores_cfs), ("CFS + vtop", &self.cores_vtop)] {
            let total: u64 = c.histogram.iter().sum();
            let high: u64 = c.histogram.iter().skip(15).sum();
            t.row_owned(vec![
                label.into(),
                format!("{:.1}", c.mean),
                format!("{:.0}%", 100.0 * high as f64 / total.max(1) as f64),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "Figure 12b: mixed workloads (normalized to CFS = 100)")?;
        let mut t = Table::new(&["pairing", "Matmul", "partner"]);
        for (cfs, vtop) in &self.mixed {
            t.row_owned(vec![
                format!("Matmul + {}", cfs.partner),
                format!("{:.1}", 100.0 * vtop.matmul / cfs.matmul.max(1e-12)),
                format!(
                    "{:.1}",
                    100.0 * vtop.partner_rate / cfs.partner_rate.max(1e-12)
                ),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Co-runners of the mixed scenario, in figure order.
const MIXED_PARTNERS: [&str; 2] = ["nginx", "fio"];

fn smt_host() -> HostSpec {
    HostSpec::new(1, 16, 2) // 16 cores x 2 threads
}

fn run_underloaded(ctx: &CellCtx, with_vtop: bool) -> ActiveCores {
    let mut m = ctx.machine(smt_host());
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 32,
        pinning: Pinning::OneToOne((0..32).collect()),
        weight: 1024,
        bandwidth: None,
    });
    let (wl, _h) = build("sysbench", 16, SimRng::new(ctx.seed ^ 0xB1));
    m.set_workload(vm, wl);
    if with_vtop {
        Mode::install_custom(&mut m, vm, VschedConfig::probers_only());
    }
    let hist: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; 17]));
    let hist_ref = Rc::clone(&hist);
    m.add_sampler(
        10 * MS,
        Box::new(move |m: &Machine| {
            // Count cores executing a normal-policy benchmark task.
            let kern = &m.vms[0].guest.kern;
            let mut cores = [false; 16];
            for v in 0..32 {
                if let Some(t) = kern.vcpus[v].curr {
                    let task = kern.task(t);
                    if !task.policy.is_idle()
                        && matches!(task.program, guestos::TaskProgram::Workload)
                        && matches!(task.state, TaskState::Running(_))
                        && m.vcpu_active_ns(m.gv(0, v)) > 0
                    {
                        cores[m.spec.core_of(v)] = true;
                    }
                }
            }
            let n = cores.iter().filter(|c| **c).count();
            hist_ref.borrow_mut()[n] += 1;
        }),
    );
    // Skip vtop's initial probing transient before sampling matters; the
    // histogram covers the whole run, which is dominated by steady state.
    m.start();
    m.run_until(SimTime::from_secs(ctx.scale.secs(8, 40)));
    let histogram = hist.borrow().clone();
    let total: u64 = histogram.iter().sum();
    let mean = histogram
        .iter()
        .enumerate()
        .map(|(n, c)| n as f64 * *c as f64)
        .sum::<f64>()
        / total.max(1) as f64;
    ActiveCores {
        vtop: with_vtop,
        histogram,
        mean,
    }
}

fn run_mixed(ctx: &CellCtx, partner: &'static str, with_vtop: bool) -> Mixed {
    let mut m = ctx.machine(smt_host());
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 32,
        pinning: Pinning::OneToOne((0..32).collect()),
        weight: 1024,
        bandwidth: None,
    });
    let (mat, mat_h) = build("matmul", 16, SimRng::new(ctx.seed ^ 0xB2));
    let (pw, pw_h) = build(partner, 16, SimRng::new(ctx.seed ^ 0xB3));
    m.set_workload(vm, Box::new(MultiWorkload::new(vec![mat, pw])));
    if with_vtop {
        Mode::install_custom(&mut m, vm, VschedConfig::probers_only());
    }
    m.start();
    let dur = SimTime::from_secs(ctx.scale.secs(8, 40));
    m.run_until(dur);
    Mixed {
        vtop: with_vtop,
        partner,
        matmul: mat_h.rate(dur),
        partner_rate: pw_h.rate(dur),
    }
}

/// The suite grid: the under-loaded pair, then CFS and vtop per mixed
/// partner.
pub fn grid() -> Grid<Row, Fig12> {
    let mut g = Grid::new(
        "fig12",
        "SMT-aware scheduling with vtop on pinned sibling pairs",
        |rows, _| {
            let (mut cores, mut mixed) = (Vec::new(), Vec::new());
            for row in rows {
                match row {
                    Row::Cores(c) => cores.push(c),
                    Row::Mixed(m) => mixed.push(m),
                }
            }
            Fig12 {
                cores_cfs: take(&mut cores, |c| !c.vtop),
                cores_vtop: take(&mut cores, |c| c.vtop),
                mixed: pair_up(mixed, |m| m.vtop, |m| m.partner),
            }
        },
    );
    for (label, vtop) in [("cores/cfs", false), ("cores/vtop", true)] {
        g.cell(label, move |ctx| Row::Cores(run_underloaded(ctx, vtop)));
    }
    for partner in MIXED_PARTNERS {
        for &vtop in &[false, true] {
            g.cell(format!("mixed/{partner}/vtop={vtop}"), move |ctx| {
                Row::Mixed(run_mixed(ctx, partner, vtop))
            });
        }
    }
    g
}
