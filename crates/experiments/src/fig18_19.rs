//! Figures 18 and 19: overall improvement with vSched on rcvm and hpvm.
//!
//! Every suite workload runs under three configurations — stock CFS,
//! enhanced CFS (vProbers + rwc), and full vSched — on the two VM profiles
//! of §5.1. Throughput-oriented workloads report completion rate;
//! latency-sensitive ones report p95 tail latency. Everything is
//! normalized to CFS, as in the paper's bar charts.

use crate::common::{Mode, Scale};
use crate::profiles::{hpvm, rcvm, Profile};
use crate::runner::{cell, got, Job, Part};
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

/// One benchmark's results across the three modes.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Is this a tail-latency benchmark?
    pub latency: bool,
    /// Measured metric per mode (rate for throughput benches, p95 ns for
    /// latency benches): (CFS, enhanced CFS, vSched).
    pub values: (f64, f64, f64),
}

impl Row {
    /// Normalized performance vs CFS (higher = better for both kinds).
    pub fn normalized(&self) -> (f64, f64) {
        let (cfs, ecfs, vs) = self.values;
        if self.latency {
            // Lower latency is better: invert.
            (cfs / ecfs.max(1.0), cfs / vs.max(1.0))
        } else {
            (ecfs / cfs.max(1e-12), vs / cfs.max(1e-12))
        }
    }
}

/// Figure 18/19 result.
pub struct Overall {
    /// Which profile.
    pub profile: ProfileKind,
    /// Per-benchmark rows.
    pub rows: Vec<Row>,
}

impl Overall {
    /// Geometric-mean speedup of throughput benches under a mode
    /// (0 = enhanced, 1 = vsched).
    pub fn mean_throughput_gain(&self, which: usize) -> f64 {
        geo_mean(self.rows.iter().filter(|r| !r.latency).map(|r| {
            if which == 0 {
                r.normalized().0
            } else {
                r.normalized().1
            }
        }))
    }

    /// Geometric-mean latency reduction factor of latency benches.
    pub fn mean_latency_factor(&self, which: usize) -> f64 {
        geo_mean(self.rows.iter().filter(|r| r.latency).map(|r| {
            if which == 0 {
                r.normalized().0
            } else {
                r.normalized().1
            }
        }))
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
        for r in &self.rows {
            let (e, v) = r.normalized();
            t.row_owned(vec![
                r.bench.to_string(),
                if r.latency { "latency" } else { "throughput" }.into(),
                "100.0".into(),
                format!("{:.1}", 100.0 * e),
                format!("{:.1}", 100.0 * v),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "throughput gain:  enhanced CFS {:+.0}%, vSched {:+.0}%",
            100.0 * (self.mean_throughput_gain(0) - 1.0),
            100.0 * (self.mean_throughput_gain(1) - 1.0),
        )?;
        writeln!(
            f,
            "latency reduction: enhanced CFS {:.2}x, vSched {:.2}x",
            self.mean_latency_factor(0),
            self.mean_latency_factor(1),
        )
    }
}

fn make_profile(kind: ProfileKind, seed: u64) -> Profile {
    match kind {
        ProfileKind::Rcvm => rcvm(seed),
        ProfileKind::Hpvm => hpvm(seed),
    }
}

/// Runs one (benchmark, mode) cell on a profile.
pub fn run_cell(kind: ProfileKind, bench: &str, mode: Mode, secs: u64, seed: u64) -> f64 {
    let mut p = make_profile(kind, seed);
    let nr = p.machine.vms[p.vm].nr_vcpus;
    // Offered load sits just below the constrained profiles' effective
    // capacity (~30% of nominal): high enough that misplaced work tips
    // stock CFS toward saturation, which is precisely the regime the
    // paper's rcvm results live in.
    let (wl, handle) = build_loaded(bench, nr, 0.28, SimRng::new(seed ^ 0xAB));
    p.machine.set_workload(p.vm, wl);
    mode.install(&mut p.machine, p.vm);
    p.machine.start();
    let dur = SimTime::from_secs(secs);
    p.machine.run_until(dur);
    if is_latency_bench(bench) {
        handle.p95_ns().unwrap_or(0) as f64
    } else {
        handle.rate(dur)
    }
}

/// Every suite workload, in figure order.
fn overall_benches() -> Vec<&'static str> {
    THROUGHPUT_BENCHES
        .iter()
        .chain(LATENCY_BENCHES.iter())
        .copied()
        .collect()
}

/// The suite job for one profile: per workload, a CFS, an enhanced-CFS
/// and a vSched cell.
pub(crate) fn job(name: &'static str, desc: &'static str, kind: ProfileKind) -> Job {
    let mut cells = Vec::new();
    for bench in overall_benches() {
        for mode in [Mode::Cfs, Mode::EnhancedCfs, Mode::Vsched] {
            cells.push(cell(
                format!("{bench}/{}", mode.label()),
                move |seed, scale: Scale| run_cell(kind, bench, mode, scale.secs(6, 25), seed),
            ));
        }
    }
    Job {
        name,
        desc,
        cells,
        reduce: Box::new(move |parts, _| Overall::from_parts(kind, parts).to_string()),
    }
}

impl Overall {
    /// Assembles one profile's figure from its job's cell parts, in cell
    /// order.
    pub fn from_parts(profile: ProfileKind, parts: Vec<Part>) -> Overall {
        let mut it = parts.into_iter().map(got::<f64>);
        let mut next = || it.next().expect("one part per cell");
        let rows = overall_benches()
            .into_iter()
            .map(|bench| Row {
                bench,
                latency: is_latency_bench(bench),
                values: (next(), next(), next()),
            })
            .collect();
        Overall { profile, rows }
    }
}
