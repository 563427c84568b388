//! Figures 18 and 19: overall improvement with vSched on rcvm and hpvm.
//!
//! Every suite workload runs under three configurations — stock CFS,
//! enhanced CFS (vProbers + rwc), and full vSched — on the two VM profiles
//! of §5.1. Throughput-oriented workloads report completion rate;
//! latency-sensitive ones report p95 tail latency. Everything is
//! normalized to CFS, as in the paper's bar charts.

use crate::common::Mode;
use crate::profiles::{hpvm_with, rcvm_with, Profile};
use crate::runner::{CellCtx, Grid};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::{build_loaded, is_latency_bench, LATENCY_BENCHES, THROUGHPUT_BENCHES};

/// Which profile to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// Resource-constrained VM (12 vCPUs, stragglers + stacking).
    Rcvm,
    /// High-performance VM (32 vCPUs over 4 sockets).
    Hpvm,
}

/// One cell: a benchmark's metric under one mode (rate for throughput
/// benches, p95 ns for latency benches).
pub type Cell = (&'static str, Mode, f64);

/// Figure 18/19 result.
pub struct Overall {
    /// Which profile.
    pub profile: ProfileKind,
    /// All cells.
    pub cells: Vec<Cell>,
}

impl Overall {
    /// The benchmarks, in figure order.
    fn benches(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.cells.iter().filter(|c| c.1 == Mode::Cfs).map(|c| c.0)
    }

    fn value(&self, bench: &str, mode: Mode) -> f64 {
        self.cells
            .iter()
            .find(|c| c.0 == bench && c.1 == mode)
            .map_or(0.0, |c| c.2)
    }

    /// `mode`'s performance normalized to CFS (higher = better for both
    /// kinds).
    pub fn normalized(&self, bench: &str, mode: Mode) -> f64 {
        let (cfs, v) = (self.value(bench, Mode::Cfs), self.value(bench, mode));
        if is_latency_bench(bench) {
            // Lower latency is better: invert.
            cfs / v.max(1.0)
        } else {
            v / cfs.max(1e-12)
        }
    }

    /// Geometric mean of `mode`'s normalized performance over the latency
    /// benches (the reduction factor) or the throughput benches (the
    /// speedup).
    pub fn mean(&self, latency: bool, mode: Mode) -> f64 {
        geo_mean(
            self.benches()
                .filter(|b| is_latency_bench(b) == latency)
                .map(|b| self.normalized(b, mode)),
        )
    }
}

fn geo_mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.filter(|x| *x > 0.0).collect();
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

impl fmt::Display for Overall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.profile {
            ProfileKind::Rcvm => "Figure 18 (rcvm)",
            ProfileKind::Hpvm => "Figure 19 (hpvm)",
        };
        writeln!(
            f,
            "{name}: normalized performance vs CFS = 100 (higher is better)"
        )?;
        let mut t = Table::new(&["benchmark", "kind", "CFS", "Enhanced CFS", "vSched"]);
        for bench in self.benches() {
            t.row_owned(vec![
                bench.to_string(),
                if is_latency_bench(bench) {
                    "latency"
                } else {
                    "throughput"
                }
                .into(),
                "100.0".into(),
                format!("{:.1}", 100.0 * self.normalized(bench, Mode::EnhancedCfs)),
                format!("{:.1}", 100.0 * self.normalized(bench, Mode::Vsched)),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "throughput gain:  enhanced CFS {:+.0}%, vSched {:+.0}%",
            100.0 * (self.mean(false, Mode::EnhancedCfs) - 1.0),
            100.0 * (self.mean(false, Mode::Vsched) - 1.0),
        )?;
        writeln!(
            f,
            "latency reduction: enhanced CFS {:.2}x, vSched {:.2}x",
            self.mean(true, Mode::EnhancedCfs),
            self.mean(true, Mode::Vsched),
        )
    }
}

/// Builds `kind`'s profile on a machine from `ctx`.
pub(crate) fn make_profile(kind: ProfileKind, ctx: &CellCtx) -> Profile {
    let machine = |host| ctx.machine(host);
    match kind {
        ProfileKind::Rcvm => rcvm_with(machine),
        ProfileKind::Hpvm => hpvm_with(machine),
    }
}

/// Runs one (benchmark, mode) cell on a profile.
pub fn run_cell(ctx: &CellCtx, kind: ProfileKind, bench: &str, mode: Mode) -> f64 {
    let mut p = make_profile(kind, ctx);
    let nr = p.machine.vms[p.vm].nr_vcpus;
    // Offered load sits just below the constrained profiles' effective
    // capacity (~30% of nominal): high enough that misplaced work tips
    // stock CFS toward saturation, which is precisely the regime the
    // paper's rcvm results live in.
    let (wl, handle) = build_loaded(bench, nr, 0.28, SimRng::new(ctx.seed ^ 0xAB));
    p.machine.set_workload(p.vm, wl);
    mode.install(&mut p.machine, p.vm);
    p.machine.start();
    let dur = SimTime::from_secs(ctx.scale.secs(6, 25));
    p.machine.run_until(dur);
    if is_latency_bench(bench) {
        handle.p95_ns().unwrap_or(0) as f64
    } else {
        handle.rate(dur)
    }
}

/// The suite grid for one profile: per workload, a CFS, an enhanced-CFS
/// and a vSched cell.
pub fn grid(name: &'static str, desc: &'static str, kind: ProfileKind) -> Grid<Cell, Overall> {
    let mut g = Grid::new(name, desc, move |cells, _| Overall {
        profile: kind,
        cells,
    });
    for &bench in THROUGHPUT_BENCHES.iter().chain(LATENCY_BENCHES.iter()) {
        for mode in [Mode::Cfs, Mode::EnhancedCfs, Mode::Vsched] {
            g.cell(format!("{bench}/{}", mode.label()), move |ctx| {
                (bench, mode, run_cell(ctx, kind, bench, mode))
            });
        }
    }
    g
}
