//! Figure 16: adaptability of vSched to vCPU changes.
//!
//! Nginx runs in a 16-vCPU VM while the host configuration moves through
//! four phases (as a migrating/multi-tenant cloud would): dedicated →
//! overcommitted (a competing VM appears) → asymmetric capacity (half the
//! vCPUs get 2× the share without changing the total) → resource-
//! constrained (two vCPUs stacked, two crushed). Live throughput under
//! stock CFS is compared with vSched, which re-probes and adapts within
//! seconds.

use crate::common::Mode;
use crate::runner::{take, CellCtx, Grid};
use hostsim::{HostSpec, ScriptAction, VmSpec};
use metrics::Table;
use simcore::time::SEC;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::{work_ms, LatencyServer, LatencyServerCfg};

/// Phase boundaries as fractions of the run.
const PHASES: [&str; 4] = ["dedicated", "overcommitted", "asymmetric", "constrained"];

/// Figure 16 result.
pub struct Fig16 {
    /// Per-second Nginx throughput under CFS.
    pub cfs_series: Vec<f64>,
    /// Per-second Nginx throughput under vSched.
    pub vsched_series: Vec<f64>,
    /// Seconds per phase.
    pub phase_secs: u64,
}

impl Fig16 {
    /// Mean throughput of a phase (skipping the first 2 s of transient).
    pub fn phase_mean(&self, series: &[f64], phase: usize) -> f64 {
        let from = (phase as u64 * self.phase_secs + 2) as usize;
        let to = ((phase as u64 + 1) * self.phase_secs) as usize;
        let window = &series[from.min(series.len())..to.min(series.len())];
        window.iter().sum::<f64>() / window.len().max(1) as f64
    }
}

impl fmt::Display for Fig16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 16: Nginx live throughput through host phase changes (req/s)"
        )?;
        let mut t = Table::new(&["phase", "CFS", "vSched", "vSched/CFS"]);
        for (i, name) in PHASES.iter().enumerate() {
            let c = self.phase_mean(&self.cfs_series, i);
            let v = self.phase_mean(&self.vsched_series, i);
            t.row_owned(vec![
                name.to_string(),
                format!("{c:.0}"),
                format!("{v:.0}"),
                format!("{:.2}x", v / c.max(1e-9)),
            ]);
        }
        write!(f, "{t}")
    }
}

fn run_mode(ctx: &CellCtx, mode: Mode) -> Vec<f64> {
    let mut m = ctx.machine(HostSpec::flat(16));
    let vm = m.add_vm(VmSpec::pinned(16, 0));
    let p = ctx.scale.secs(10, 30);
    // Phase 2 (overcommitted): host loads on every thread = a competing VM.
    for th in 0..16 {
        m.at(
            SimTime::from_secs(p),
            ScriptAction::AddLoad {
                thread: th,
                weight: 1024,
            },
        );
    }
    // Phase 3 (asymmetric): half the vCPUs get a 2x share — lighten the
    // competitor on threads 0-7, weigh it down on 8-15; total unchanged.
    for th in 0..8 {
        m.at(
            SimTime::from_secs(2 * p),
            ScriptAction::SetVcpuWeight {
                vm,
                vcpu: th,
                weight: 2048,
            },
        );
    }
    for th in 8..16 {
        m.at(
            SimTime::from_secs(2 * p),
            ScriptAction::SetVcpuWeight {
                vm,
                vcpu: th,
                weight: 683, // ~1/3 share against weight-1024 load
            },
        );
    }
    // Phase 4 (constrained): stack vCPU 1 onto vCPU 0's thread and crush
    // vCPUs 2 and 3 with heavy host load.
    m.at(
        SimTime::from_secs(3 * p),
        ScriptAction::SetAffinity {
            vm,
            vcpu: 1,
            threads: vec![0],
        },
    );
    for th in [2usize, 3] {
        m.at(
            SimTime::from_secs(3 * p),
            ScriptAction::AddLoad {
                thread: th,
                weight: 15 * 1024,
            },
        );
    }
    // Offered load ≈ 60% of the dedicated capacity: the overcommitted and
    // constrained phases are capacity-bound, so scheduling quality shows
    // up directly in completions.
    let service = work_ms(0.5);
    let interarrival = service / 1024.0 / 16.0 / 0.6;
    let cfg = LatencyServerCfg::new(16, service, interarrival).with_series(SEC);
    let (wl, stats) = LatencyServer::new(cfg, SimRng::new(ctx.seed ^ 0xF1));
    m.set_workload(vm, Box::new(wl));
    mode.install(&mut m, vm);
    m.start();
    m.run_until(SimTime::from_secs(4 * p));
    let out = stats
        .borrow()
        .series
        .as_ref()
        .map(|ts| ts.rates_per_sec())
        .unwrap_or_default();
    out
}

/// The suite grid: one cell per scheduler, each returning its live
/// throughput series.
pub fn grid() -> Grid<(Mode, Vec<f64>), Fig16> {
    let mut g = Grid::new(
        "fig16",
        "adaptability of vSched as the host reconfigures vCPUs",
        |mut rows: Vec<(Mode, Vec<f64>)>, scale| Fig16 {
            cfs_series: take(&mut rows, |(m, _)| *m == Mode::Cfs).1,
            vsched_series: take(&mut rows, |(m, _)| *m == Mode::Vsched).1,
            phase_secs: scale.secs(10, 30),
        },
    );
    for (label, mode) in [("cfs", Mode::Cfs), ("vsched", Mode::Vsched)] {
        g.cell(label, move |ctx| (mode, run_mode(ctx, mode)));
    }
    g
}
