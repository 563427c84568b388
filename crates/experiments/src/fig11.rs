//! Figure 11: impact of accurate vCPU capacity (vcap).
//!
//! (a) **Asymmetric capacity**: a 16-vCPU VM whose last four vCPUs have 2×
//! the capacity of the rest (DVFS — invisible to the guest's steal-based
//! view). Sysbench runs 4 CPU-bound threads. Under stock CFS the threads
//! spend less than half their time on the high-capacity vCPUs; with vcap
//! the scheduler steers them there (paper: 44% → 81%, +32% throughput).
//!
//! (b) **Symmetric capacity**: all 16 vCPUs share 50% of a core with a
//! competitor VM. Stock CFS keeps migrating tasks toward idle vCPUs that
//! merely *appear* stronger (steal is unobservable while idle); vcap's
//! stable estimates remove the motive (paper: 74% fewer migrations).

use crate::common::{Mode, Scale};
use crate::runner::{cell, got, Job, Part};
use hostsim::{HostSpec, ScenarioBuilder, ScriptAction, VmSpec};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::{build, work_ms, Stressor};

/// One asymmetric-capacity measurement.
#[derive(Debug, Clone)]
pub struct AsymResult {
    /// Fraction of sysbench execution time spent on the high-capacity
    /// vCPUs (12..16).
    pub high_cap_fraction: f64,
    /// Sysbench events per second.
    pub throughput: f64,
    /// Per-vCPU share of delivered sysbench work (the paper's
    /// execution-distribution bars).
    pub distribution: Vec<f64>,
}

/// One symmetric-capacity measurement.
#[derive(Debug, Clone)]
pub struct SymResult {
    /// Total task migrations over the run.
    pub migrations: u64,
    /// Sysbench events per second.
    pub throughput: f64,
}

/// Figure 11 result.
pub struct Fig11 {
    /// (a) asymmetric, stock CFS.
    pub asym_cfs: AsymResult,
    /// (a) asymmetric, CFS + vcap.
    pub asym_vcap: AsymResult,
    /// (b) symmetric, stock CFS.
    pub sym_cfs: SymResult,
    /// (b) symmetric, CFS + vcap.
    pub sym_vcap: SymResult,
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 11a: asymmetric capacity (4 sysbench threads, last 4 vCPUs 2x faster)"
        )?;
        let mut t = Table::new(&["config", "time on high-cap vCPUs", "throughput (events/s)"]);
        t.row_owned(vec![
            "CFS".into(),
            format!("{:.0}%", 100.0 * self.asym_cfs.high_cap_fraction),
            format!("{:.0}", self.asym_cfs.throughput),
        ]);
        t.row_owned(vec![
            "CFS + vcap".into(),
            format!("{:.0}%", 100.0 * self.asym_vcap.high_cap_fraction),
            format!("{:.0}", self.asym_vcap.throughput),
        ]);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "throughput improvement with vcap: {:+.1}%",
            100.0 * (self.asym_vcap.throughput / self.asym_cfs.throughput.max(1e-9) - 1.0)
        )?;
        writeln!(f)?;
        writeln!(f, "Figure 11b: symmetric capacity — adverse migrations")?;
        let mut t = Table::new(&["config", "migrations", "throughput (events/s)"]);
        t.row_owned(vec![
            "CFS".into(),
            self.sym_cfs.migrations.to_string(),
            format!("{:.0}", self.sym_cfs.throughput),
        ]);
        t.row_owned(vec![
            "CFS + vcap".into(),
            self.sym_vcap.migrations.to_string(),
            format!("{:.0}", self.sym_vcap.throughput),
        ]);
        writeln!(f, "{t}")?;
        let red = 1.0 - self.sym_vcap.migrations as f64 / self.sym_cfs.migrations.max(1) as f64;
        writeln!(f, "migration reduction with vcap: {:.0}%", 100.0 * red)
    }
}

/// Runs the asymmetric-host cell, optionally with a trace collector
/// attached.
pub fn run_asym(
    with_vcap: bool,
    secs: u64,
    seed: u64,
    check: Option<&trace::SharedCollector>,
) -> AsymResult {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(16), seed).vm(VmSpec::pinned(16, 0));
    let mut m = b.build();
    if let Some(shared) = check {
        m.attach_trace(shared);
    }
    // First 12 cores at half frequency: last 4 vCPUs have 2x capacity.
    for core in 0..12 {
        m.at(SimTime::ZERO, ScriptAction::SetFreq { core, factor: 0.5 });
    }
    let (wl, handle) = build("sysbench", 4, SimRng::new(seed ^ 0xA1));
    m.set_workload(vm, wl);
    if with_vcap {
        Mode::install_custom(&mut m, vm, VschedConfig::probers_only());
    }
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    // Execution distribution from per-vCPU delivered work (subtract prober
    // noise by ignoring sub-1% shares).
    let per_vcpu: Vec<f64> = (0..16)
        .map(|i| m.vcpus[m.gv(vm, i)].delivered_work)
        .collect();
    let total: f64 = per_vcpu.iter().sum();
    let distribution: Vec<f64> = per_vcpu.iter().map(|w| w / total.max(1.0)).collect();
    let high: f64 = distribution[12..].iter().sum();
    AsymResult {
        high_cap_fraction: high,
        throughput: handle.rate(dur),
        distribution,
    }
}

/// Runs the symmetric-host cell, optionally with a trace collector
/// attached.
pub fn run_sym(
    with_vcap: bool,
    secs: u64,
    seed: u64,
    check: Option<&trace::SharedCollector>,
) -> SymResult {
    let (b, vm) = ScenarioBuilder::new(HostSpec::flat(16), seed).vm(VmSpec::pinned(16, 0));
    let (b, stress_vm) = b.vm(VmSpec::pinned(16, 0));
    let mut m = b.build();
    if let Some(shared) = check {
        m.attach_trace(shared);
    }
    let (wl, handle) = build("sysbench", 4, SimRng::new(seed ^ 0xA2));
    m.set_workload(vm, wl);
    let (sw, _s) = Stressor::new(16, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    if with_vcap {
        Mode::install_custom(&mut m, vm, VschedConfig::probers_only());
    }
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    SymResult {
        migrations: m.vms[vm].guest.kern.stats.total_migrations(),
        throughput: handle.rate(dur),
    }
}

/// The suite job: CFS then vcap, on the asymmetric then the symmetric
/// host.
pub(crate) fn job() -> Job {
    let cells = vec![
        cell("asym/cfs", |seed, scale: Scale| {
            run_asym(false, scale.secs(10, 40), seed, None)
        }),
        cell("asym/vcap", |seed, scale: Scale| {
            run_asym(true, scale.secs(10, 40), seed, None)
        }),
        cell("sym/cfs", |seed, scale: Scale| {
            run_sym(false, scale.secs(10, 40), seed, None)
        }),
        cell("sym/vcap", |seed, scale: Scale| {
            run_sym(true, scale.secs(10, 40), seed, None)
        }),
    ];
    Job {
        name: "fig11",
        desc: "impact of accurate vCPU capacity (vcap) on asym/sym hosts",
        cells,
        reduce: Box::new(|parts, _| Fig11::from_parts(parts).to_string()),
    }
}

impl Fig11 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig11 {
        let mut it = parts.into_iter();
        let asym_cfs = got::<AsymResult>(it.next().expect("asym/cfs cell"));
        let asym_vcap = got::<AsymResult>(it.next().expect("asym/vcap cell"));
        let sym_cfs = got::<SymResult>(it.next().expect("sym/cfs cell"));
        let sym_vcap = got::<SymResult>(it.next().expect("sym/vcap cell"));
        Fig11 {
            asym_cfs,
            asym_vcap,
            sym_cfs,
            sym_vcap,
        }
    }
}
