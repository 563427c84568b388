//! Figure 13: effective LLC-aware optimizations with vtop.
//!
//! 32 vCPUs are pinned across two sockets (16 per socket). Two instances of
//! a communication-heavy benchmark run side by side; with correct socket
//! topology, wake placement confines each instance's threads to one LLC
//! domain, cutting cross-socket IPIs (paper: −99%), raising IPC (+14.5%),
//! and lifting throughput (+26% on average).

use crate::common::{Mode, Scale};
use crate::runner::{cell, got, Job, Part};
use hostsim::{HostSpec, Pinning, ScenarioBuilder, VmSpec};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::{
    work_ms, Handle, LatencyServer, LatencyServerCfg, MsgPairs, MsgPairsCfg, MultiWorkload,
    Pipeline, PipelineCfg,
};

/// Benchmarks in the figure.
pub const BENCHES: [&str; 3] = ["dedup", "nginx", "hackbench"];

/// One configuration's measurements (two instances summed).
#[derive(Debug, Clone)]
pub struct LlcCell {
    /// Combined completion rate of the two instances.
    pub throughput: f64,
    /// IPC proxy: work done per cycle consumed.
    pub ipc: f64,
    /// Cross-LLC IPIs.
    pub ipis: u64,
}

/// Figure 13 result: per benchmark, (CFS, CFS+vtop).
pub struct Fig13 {
    /// Rows per benchmark.
    pub rows: Vec<(&'static str, LlcCell, LlcCell)>,
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13: LLC-aware placement with vtop (two instances per benchmark, \
             normalized to CFS = 100)"
        )?;
        let mut t = Table::new(&["benchmark", "throughput", "IPC", "IPIs"]);
        for (name, cfs, vtop) in &self.rows {
            t.row_owned(vec![
                name.to_string(),
                format!("{:.1}", 100.0 * vtop.throughput / cfs.throughput.max(1e-12)),
                format!("{:.1}", 100.0 * vtop.ipc / cfs.ipc.max(1e-12)),
                format!("{:.1}", 100.0 * vtop.ipis as f64 / cfs.ipis.max(1) as f64),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Builds one instance of a communication-heavy benchmark with its own
/// communication group.
fn instance(
    name: &str,
    threads: usize,
    group: u32,
    rng: SimRng,
) -> (Box<dyn guestos::Workload>, Handle) {
    match name {
        "dedup" => {
            let (wl, s) = Pipeline::new(
                PipelineCfg::new(
                    vec![
                        (threads.div_ceil(3), work_ms(0.8)),
                        (threads.div_ceil(3), work_ms(1.2)),
                        (threads.div_ceil(3), work_ms(0.6)),
                    ],
                    u64::MAX / 4,
                )
                .with_comm_group(group),
                rng,
            );
            (Box::new(wl), Handle::Throughput(s))
        }
        "nginx" => {
            let service = work_ms(0.5);
            let interarrival = service / 1024.0 / threads as f64 / 0.5;
            let (wl, s) = LatencyServer::new(
                LatencyServerCfg::new(threads, service, interarrival).with_comm_group(group),
                rng,
            );
            (Box::new(wl), Handle::Latency(s))
        }
        "hackbench" => {
            let mut cfg = MsgPairsCfg::new((threads / 4).max(1), 2, 2, u64::MAX / 4);
            cfg.comm_group_base = group;
            let (wl, s) = MsgPairs::new(cfg, rng);
            (Box::new(wl), Handle::Throughput(s))
        }
        other => panic!("not an LLC benchmark: {other}"),
    }
}

fn run_cell(name: &'static str, with_vtop: bool, secs: u64, seed: u64) -> LlcCell {
    // Two sockets x 16 cores, SMT off: vCPU i on thread i.
    let host = HostSpec::new(2, 16, 1);
    let (b, vm) = ScenarioBuilder::new(host, seed).vm(VmSpec {
        nr_vcpus: 32,
        pinning: Pinning::OneToOne((0..32).collect()),
        weight: 1024,
        bandwidth: None,
        guest_cfg: None,
    });
    let mut m = b.build();
    let (a, ha) = instance(name, 8, 50, SimRng::new(seed ^ 0xC1));
    let (bw, hb) = instance(name, 8, 60, SimRng::new(seed ^ 0xC2));
    m.set_workload(vm, Box::new(MultiWorkload::new(vec![a, bw])));
    if with_vtop {
        Mode::install_custom(&mut m, vm, VschedConfig::probers_only());
    }
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    let throughput = ha.rate(dur) + hb.rate(dur);
    let cycles = m.vms[vm].cycles.value().max(1.0);
    let work: f64 = (0..32).map(|i| m.vcpus[m.gv(vm, i)].delivered_work).sum();
    LlcCell {
        throughput,
        ipc: work / cycles,
        ipis: m.vms[vm].guest.kern.stats.cross_llc_ipis.get(),
    }
}

/// The suite job: CFS then vtop per benchmark.
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for &name in &BENCHES {
        for &vtop in &[false, true] {
            cells.push(cell(
                format!("{name}/vtop={vtop}"),
                move |seed, scale: Scale| run_cell(name, vtop, scale.secs(8, 40), seed),
            ));
        }
    }
    Job {
        name: "fig13",
        desc: "LLC-aware co-location with vtop across two sockets",
        cells,
        reduce: Box::new(|parts, _| Fig13::from_parts(parts).to_string()),
    }
}

impl Fig13 {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> Fig13 {
        let mut it = parts.into_iter().map(got::<LlcCell>);
        let rows = BENCHES
            .iter()
            .map(|&name| {
                let cfs = it.next().expect("cfs cell");
                let vtop = it.next().expect("vtop cell");
                (name, cfs, vtop)
            })
            .collect();
        Fig13 { rows }
    }
}
