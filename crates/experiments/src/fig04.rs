//! Figure 4: deficient work conservation.
//!
//! Two situations where placing tasks on an *idle* vCPU hurts:
//!
//! * **Straggler vCPU** — one of 16 pinned vCPUs is crushed by a
//!   high-priority host task; leaving it idle (non-work-conserving) beats
//!   using it for synchronization-intensive benchmarks (paper: up to 43%).
//! * **Stacking vCPUs** — 16 vCPUs stacked in pairs on 8 cores; excluding
//!   one vCPU per pair avoids expensive vCPU switches (up to 30%), and with
//!   a best-effort workload on one vCPU of each pair, excluding the *other*
//!   vCPU avoids host-level priority inversion entirely (up to 6.7×).
//!
//! Work conservation is relaxed here by hand (cgroup bans) — this is the
//! motivation experiment that rwc later automates.

use crate::common::Scale;
use crate::runner::{cell, got, Job, Part};
use hostsim::{HostSpec, Pinning, ScenarioBuilder, VmSpec};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use workloads::{build, work_ms, MultiWorkload, Stressor};

/// Benchmarks used in the figure.
pub const BENCHES: [&str; 3] = ["canneal", "dedup", "streamcluster"];

/// One (scenario, benchmark) pair of measurements.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Benchmark name.
    pub bench: &'static str,
    /// Throughput under the work-conserving policy.
    pub work_conserving: f64,
    /// Throughput with problematic vCPUs excluded.
    pub non_work_conserving: f64,
}

impl Pair {
    /// Improvement of non-work-conserving over work-conserving.
    pub fn improvement(&self) -> f64 {
        self.non_work_conserving / self.work_conserving.max(1e-12)
    }
}

/// The full Figure 4 result.
pub struct Fig04 {
    /// Left: straggler vCPU scenario.
    pub straggler: Vec<Pair>,
    /// Right, first half: plain stacking scenario.
    pub stacking: Vec<Pair>,
    /// Right, second half: stacking with a best-effort workload (priority
    /// inversion).
    pub priority_inversion: Vec<Pair>,
}

impl fmt::Display for Fig04 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4: non-work-conserving placement beats work conservation \
             on problematic vCPUs (throughput normalized to non-work-conserving = 100)"
        )?;
        let mut t = Table::new(&[
            "scenario",
            "benchmark",
            "work-conserving",
            "non-work-conserving",
        ]);
        for (name, pairs) in [
            ("straggler", &self.straggler),
            ("stacking", &self.stacking),
            ("stacking+prio-inv", &self.priority_inversion),
        ] {
            for p in pairs {
                t.row_owned(vec![
                    name.into(),
                    p.bench.into(),
                    format!(
                        "{:.1}",
                        100.0 * p.work_conserving / p.non_work_conserving.max(1e-12)
                    ),
                    "100.0".into(),
                ]);
            }
        }
        write!(f, "{t}")
    }
}

fn straggler_cell(bench: &'static str, exclude: bool, secs: u64, seed: u64) -> f64 {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(16), seed).vm(VmSpec::pinned(16, 0));
    let mut m = b.host_load(15, 15 * 1024).build();
    if exclude {
        m.vms[vm].guest.kern.cgroup.ban(15);
    }
    let (wl, handle) = build(bench, 16, SimRng::new(seed ^ 0x41));
    m.set_workload(vm, wl);
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    handle.rate(dur)
}

fn stacking_cell(
    bench: &'static str,
    exclude: bool,
    with_best_effort: bool,
    secs: u64,
    seed: u64,
) -> f64 {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(8), seed).vm(VmSpec {
        nr_vcpus: 16,
        pinning: Pinning::stacked_pairs(0, 16),
        weight: 1024,
        bandwidth: None,
        guest_cfg: None,
    });
    let mut m = b.build();
    let threads = if with_best_effort { 8 } else { 16 };
    let (wl, handle) = build(bench, threads, SimRng::new(seed ^ 0x42));
    if with_best_effort {
        // Best-effort load pinned on the odd vCPU of each stack pair; the
        // host cannot see that it is low priority (priority inversion).
        let odd: Vec<usize> = (0..16).filter(|v| v % 2 == 1).collect();
        let (be, _s) = Stressor::new(8, work_ms(10.0));
        let be = be.best_effort().pinned(odd);
        if exclude {
            // Exclude the vCPUs *not* running the best-effort load, so the
            // benchmark shares vCPUs with it under guest control instead.
            for v in (0..16).filter(|v| v % 2 == 0) {
                m.vms[vm].guest.kern.cgroup.ban(v);
            }
        }
        // The best-effort load starts first so the benchmark's initial
        // placement sees those vCPUs as occupied (as on a real system).
        m.set_workload(vm, Box::new(MultiWorkload::new(vec![Box::new(be), wl])));
    } else {
        if exclude {
            for v in (0..16).filter(|v| v % 2 == 1) {
                m.vms[vm].guest.kern.cgroup.ban(v);
            }
        }
        m.set_workload(vm, wl);
    }
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    handle.rate(dur)
}

/// The suite job: per scenario kind, per benchmark, a work-conserving
/// then a non-work-conserving cell.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for bench in BENCHES {
        for &exclude in &[false, true] {
            cells.push(cell(
                format!("straggler/{bench}/nwc={exclude}"),
                move |seed, scale: Scale| straggler_cell(bench, exclude, scale.secs(6, 25), seed),
            ));
        }
    }
    for &prio_inv in &[false, true] {
        for bench in BENCHES {
            for &exclude in &[false, true] {
                let kind = if prio_inv { "prio-inv" } else { "stacking" };
                cells.push(cell(
                    format!("{kind}/{bench}/nwc={exclude}"),
                    move |seed, scale: Scale| {
                        stacking_cell(bench, exclude, prio_inv, scale.secs(6, 25), seed)
                    },
                ));
            }
        }
    }
    Job {
        name: "fig04",
        desc: "deficient work conservation: stragglers, stacking, priority inversion",
        cells,
        reduce: Box::new(|parts, _| Fig04::from_parts(parts).to_string()),
    }
}

impl Fig04 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig04 {
        let mut it = parts.into_iter().map(got::<f64>);
        let mut pairs = || -> Vec<Pair> {
            BENCHES
                .iter()
                .map(|&bench| Pair {
                    bench,
                    work_conserving: it.next().expect("work-conserving cell"),
                    non_work_conserving: it.next().expect("non-work-conserving cell"),
                })
                .collect()
        };
        let straggler = pairs();
        let stacking = pairs();
        let priority_inversion = pairs();
        Fig04 {
            straggler,
            stacking,
            priority_inversion,
        }
    }
}
