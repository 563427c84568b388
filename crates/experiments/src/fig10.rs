//! Figure 10: accuracy of vcap (EMA capacity tracking) and vtop (cache-line
//! latency matrix).
//!
//! (a) A vCPU's real capacity is stepped over time (share changes through
//! host contention); vcap's probed EMA must track the trend while smoothing
//! spikes. (b) An 8-vCPU VM with all three topology levels — two SMT pairs
//! in socket 0; one SMT pair and one stacked pair in socket 1 — is probed
//! by vtop; the measured latency matrix must show the paper's distinct
//! bands (≈6 ns SMT, ≈48 ns intra-socket, ≈113 ns cross-socket, ∞ for
//! stacking).

use crate::runner::{CellCtx, Grid};
use guestos::VcpuId;
use hostsim::{HostSpec, Machine, Pinning, ScriptAction, VmSpec};
use metrics::Table;
use simcore::time::SEC;
use simcore::SimTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use vsched::VschedConfig;
use workloads::{work_ms, Stressor};

/// One EMA-tracking sample.
#[derive(Debug, Clone, Copy)]
pub struct CapSample {
    /// Time (s).
    pub t_secs: f64,
    /// Ground-truth capacity of the observed vCPU.
    pub actual: f64,
    /// vcap's probed EMA capacity.
    pub ema: f64,
}

/// One cell's result: the figure's two panels come from different runs.
#[derive(Debug)]
pub enum Row {
    /// (a) capacity tracking samples.
    Tracking(Vec<CapSample>),
    /// (b) probed latency matrix.
    Matrix(Vec<Vec<f64>>),
}

/// Figure 10 result.
pub struct Fig10 {
    /// (a) capacity tracking samples for vCPU 0.
    pub samples: Vec<CapSample>,
    /// (b) probed latency matrix (ns; `inf` = stacked, `-1` = inferred).
    pub matrix: Vec<Vec<f64>>,
    /// Mean absolute tracking error across samples (fraction of actual).
    pub tracking_error: f64,
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10a: EMA capacity tracking (vCPU 0)")?;
        let mut t = Table::new(&["time (s)", "actual capacity", "probed EMA"]);
        for s in self.samples.iter().step_by(5) {
            t.row_owned(vec![
                format!("{:.0}", s.t_secs),
                format!("{:.0}", s.actual),
                format!("{:.0}", s.ema),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "mean tracking error: {:.1}%",
            100.0 * self.tracking_error
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "Figure 10b: probed cache-line transfer latency matrix (ns)"
        )?;
        let header: Vec<String> = std::iter::once("vCPU".to_string())
            .chain((0..self.matrix.len()).map(|i| i.to_string()))
            .collect();
        let href: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&href);
        for (i, row) in self.matrix.iter().enumerate() {
            let cells: Vec<String> = std::iter::once(i.to_string())
                .chain(row.iter().map(|&v| {
                    if v.is_infinite() {
                        "inf".to_string()
                    } else if v < 0.0 {
                        "-".to_string()
                    } else {
                        format!("{v:.0}")
                    }
                }))
                .collect();
            t.row_owned(cells);
        }
        write!(f, "{t}")
    }
}

/// Runs part (a): step the real capacity of vCPU 0 and sample the EMA.
fn run_capacity_tracking(ctx: &CellCtx) -> Vec<CapSample> {
    let secs = ctx.scale.secs(75, 150);
    let mut m = ctx.machine(HostSpec::flat(2));
    let vm = m.add_vm(VmSpec::pinned(2, 0));
    // Capacity schedule for vCPU 0 via DVFS steps on core 0 (share styles
    // produce the same observable; frequency exercises the heavy phase).
    let steps: [(u64, f64); 5] = [
        (0, 1.0),
        (secs / 5, 0.5),
        (2 * secs / 5, 0.25),
        (3 * secs / 5, 0.75),
        (4 * secs / 5, 1.0),
    ];
    for (at, f) in steps {
        m.at(
            SimTime::from_secs(at),
            ScriptAction::SetFreq { core: 0, factor: f },
        );
    }
    let (wl, _s) = Stressor::new(2, work_ms(10.0));
    m.set_workload(vm, Box::new(wl));
    m.with_vm(vm, |g, p| {
        vsched::install(g, p, VschedConfig::probers_only())
    });
    // Sample every 500 ms.
    let samples: Rc<RefCell<Vec<CapSample>>> = Rc::new(RefCell::new(Vec::new()));
    let samples_ref = Rc::clone(&samples);
    let schedule: Vec<(u64, f64)> = steps.iter().map(|&(t, f)| (t * SEC, f * 1024.0)).collect();
    m.add_sampler(
        SEC / 2,
        Box::new(move |m: &Machine| {
            let now = m.q.now();
            let actual = schedule
                .iter()
                .rev()
                .find(|(t, _)| now.ns() >= *t)
                .map(|(_, c)| *c)
                .unwrap_or(1024.0);
            let ema = m.vms[0]
                .guest
                .kern
                .cap_override(VcpuId(0))
                .unwrap_or(1024.0);
            samples_ref.borrow_mut().push(CapSample {
                t_secs: now.as_secs_f64(),
                actual,
                ema,
            });
        }),
    );
    m.start();
    m.run_until(SimTime::from_secs(secs));
    let out = samples.borrow().clone();
    out
}

/// Runs part (b): probe the 8-vCPU mixed topology.
fn run_matrix(ctx: &CellCtx) -> Vec<Vec<f64>> {
    let mut m = ctx.machine(HostSpec::new(2, 2, 2));
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 8,
        pinning: Pinning::OneToOne(vec![0, 1, 2, 3, 4, 5, 6, 6]),
        weight: 1024,
        bandwidth: None,
    });
    let (wl, _s) = Stressor::new(0, work_ms(1.0));
    m.set_workload(vm, Box::new(wl));
    m.with_vm(vm, |g, p| {
        vsched::install(g, p, VschedConfig::probers_only())
    });
    m.start();
    m.run_until(SimTime::from_secs(4));
    let vs = vsched::instance(&mut m.vms[vm].guest).expect("installed");
    vs.vtop.latency_matrix.clone()
}

/// The suite grid: the tracking run and the matrix probe.
pub fn grid() -> Grid<Row, Fig10> {
    let mut g = Grid::new(
        "fig10",
        "accuracy of vcap capacity tracking and the vtop latency matrix",
        |rows, _| {
            let (mut samples, mut matrix) = (Vec::new(), Vec::new());
            for row in rows {
                match row {
                    Row::Tracking(s) => samples = s,
                    Row::Matrix(m) => matrix = m,
                }
            }
            let err: Vec<f64> = samples
                .iter()
                .filter(|s| s.actual > 0.0)
                .map(|s| (s.ema - s.actual).abs() / s.actual)
                .collect();
            let tracking_error = if err.is_empty() {
                0.0
            } else {
                err.iter().sum::<f64>() / err.len() as f64
            };
            Fig10 {
                samples,
                matrix,
                tracking_error,
            }
        },
    );
    g.cell("tracking", |ctx| Row::Tracking(run_capacity_tracking(ctx)));
    g.cell("matrix", |ctx| Row::Matrix(run_matrix(ctx)));
    g
}
