//! vCache: cache-aware placement under an LLC-thrashing neighbour.
//!
//! The fig13 co-location reshaped for the LLC occupancy model: the victim
//! VM spans both sockets (32 vCPUs one-to-one on a 2×16 host) and runs two
//! instances of a communication-heavy benchmark, while a neighbour VM
//! pinned to socket 1 streams through a working set larger than the LLC,
//! evicting whatever the victim keeps there. Three guest configurations
//! run the identical scenario:
//!
//! * **cfs** — stock CFS, blind to everything;
//! * **vsched** — full vSched (probers + bvs/ivh/rwc), which sees
//!   capacity, activity, and topology but *not* the cache;
//! * **vsched-cache-aware** — full vSched plus the vcache prober and
//!   cache-aware bvs, which steers small latency-sensitive wakeups onto
//!   the socket whose LLC is not being thrashed.
//!
//! The measured margin between the last two is the figure's point: the
//! cache abstraction moves *throughput*, not just IPC, because work on
//! the quiet socket completes at the un-evicted miss rate.

use crate::common::{check_report, checked_collector, Mode, Scale};
use crate::runner::{cell, got, Job, Part};
use hostsim::{HostSpec, Pinning, ScenarioBuilder, VmSpec};
use metrics::Table;
use simcore::{SimRng, SimTime};
use std::fmt;
use vsched::VschedConfig;
use workloads::{
    work_ms, Handle, LatencyServer, LatencyServerCfg, MsgPairs, MsgPairsCfg, MultiWorkload,
    Pipeline, PipelineCfg, Stressor,
};

/// Benchmarks in the figure (the fig13 set).
pub const BENCHES: [&str; 3] = ["dedup", "nginx", "hackbench"];

/// Guest configurations, in column order.
pub const MODES: [&str; 3] = ["cfs", "vsched", "vsched-cache-aware"];

/// Victim working set: fits the LLC comfortably when resident.
const VICTIM_FOOTPRINT: f64 = 16.0 * 1024.0 * 1024.0;
/// Thrasher working set: larger than the socket LLC, so its occupancy
/// pressure evicts the victim's lines on the shared socket.
const THRASHER_FOOTPRINT: f64 = 96.0 * 1024.0 * 1024.0;

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct VcacheCell {
    /// Combined completion rate of the two victim instances.
    pub throughput: f64,
    /// IPC proxy: work done per cycle consumed (victim VM).
    pub ipc: f64,
    /// bvs placements steered by a fresh LLC pressure estimate.
    pub cache_picks: u64,
    /// vcache sampling windows closed over the run.
    pub windows: u64,
    /// Invariant violations flagged by the trace checker (must be 0; the
    /// cache-pick margin law and the LLC conservation law run here).
    pub violations: u64,
}

/// The rendered figure: per benchmark, one cell per mode.
pub struct VcacheFig {
    /// Rows per benchmark, cells in [`MODES`] order.
    pub rows: Vec<(&'static str, Vec<VcacheCell>)>,
}

impl fmt::Display for VcacheFig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "vCache: cache-aware placement under an LLC-thrashing neighbour \
             (normalized to CFS = 100)"
        )?;
        let mut t = Table::new(&[
            "benchmark",
            "vsched tput",
            "cache-aware tput",
            "cache-aware IPC",
            "cache picks",
            "windows",
            "violations",
        ]);
        for (name, cells) in &self.rows {
            let cfs = &cells[0];
            let vs = &cells[1];
            let ca = &cells[2];
            let violations: u64 = cells.iter().map(|c| c.violations).sum();
            t.row_owned(vec![
                name.to_string(),
                format!("{:.1}", 100.0 * vs.throughput / cfs.throughput.max(1e-12)),
                format!("{:.1}", 100.0 * ca.throughput / cfs.throughput.max(1e-12)),
                format!("{:.1}", 100.0 * ca.ipc / cfs.ipc.max(1e-12)),
                format!("{}", ca.cache_picks),
                format!("{}", ca.windows),
                format!("{violations}"),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Builds one victim benchmark instance (the fig13 shapes, with dedup's
/// pipeline workers tagged latency-sensitive so bvs — and therefore
/// cache-aware bvs — places their wakeups).
fn instance(
    name: &str,
    threads: usize,
    group: u32,
    rng: SimRng,
) -> (Box<dyn guestos::Workload>, Handle) {
    match name {
        "dedup" => {
            // A closed-loop window (bounded buffers): few items circulate
            // through wide stages, so throughput is bound by the per-item
            // critical path — which an evicted LLC stretches — while the
            // workers stay small under PELT, so bvs (and therefore
            // cache-aware bvs) places every stage hand-off.
            let (wl, s) = Pipeline::new(
                PipelineCfg::new(
                    vec![
                        (threads, work_ms(0.25)),
                        (threads, work_ms(0.35)),
                        (threads, work_ms(0.2)),
                    ],
                    u64::MAX / 4,
                )
                .with_window(threads as u64 / 2)
                .with_comm_group(group)
                .with_latency_sensitive(),
                rng,
            );
            (Box::new(wl), Handle::Throughput(s))
        }
        "nginx" => {
            // Closed-loop (wrk style): each connection issues its next
            // request a think time after the previous response, so the
            // completion rate is bound by service speed — an evicted LLC
            // costs throughput directly. Think ≫ service keeps the worker
            // tasks small under PELT, so bvs places every request wakeup.
            let service = work_ms(1.0);
            let think = 3.0 * simcore::time::MS as f64;
            let (wl, s) = LatencyServer::new(
                LatencyServerCfg::new(5 * threads, service, think)
                    .with_closed_loop(2 * threads, think)
                    .with_comm_group(group),
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
        other => panic!("not a vcache benchmark: {other}"),
    }
}

fn run_cell(name: &'static str, mode: &'static str, secs: u64, seed: u64) -> VcacheCell {
    // Two sockets x 16 cores, SMT off. The victim spans both sockets;
    // the thrasher owns half of socket 1 (threads 16..24).
    let host = HostSpec::new(2, 16, 1);
    let (b, victim) = ScenarioBuilder::new(host, seed).vm(VmSpec {
        nr_vcpus: 32,
        pinning: Pinning::OneToOne((0..32).collect()),
        weight: 1024,
        bandwidth: None,
        guest_cfg: None,
    });
    let (b, thrasher) = b.vm(VmSpec {
        nr_vcpus: 8,
        pinning: Pinning::OneToOne((16..24).collect()),
        weight: 1024,
        bandwidth: None,
        guest_cfg: None,
    });
    let mut m = b.build();
    let shared = checked_collector();
    m.attach_trace(&shared);
    let (a, ha) = instance(name, 8, 50, SimRng::new(seed ^ 0xC1));
    let (bw, hb) = instance(name, 8, 60, SimRng::new(seed ^ 0xC2));
    m.set_workload(victim, Box::new(MultiWorkload::new(vec![a, bw])));
    // The thrasher streams: steady CPU-bound events on every pinned vCPU.
    let (stress, _hs) = Stressor::new(8, work_ms(0.5));
    m.set_workload(thrasher, Box::new(stress));
    // Working sets arm the LLC occupancy model.
    m.set_vm_footprint(victim, VICTIM_FOOTPRINT);
    m.set_vm_footprint(thrasher, THRASHER_FOOTPRINT);
    match mode {
        "cfs" => {}
        "vsched" => Mode::install_custom(&mut m, victim, VschedConfig::full()),
        "vsched-cache-aware" => Mode::install_custom(&mut m, victim, VschedConfig::cache_aware()),
        other => panic!("not a vcache mode: {other}"),
    }
    m.start();
    let dur = SimTime::from_secs(secs);
    m.run_until(dur);
    let throughput = ha.rate(dur) + hb.rate(dur);
    let cycles = m.vms[victim].cycles.value().max(1.0);
    let work: f64 = (0..32)
        .map(|i| m.vcpus[m.gv(victim, i)].delivered_work)
        .sum();
    let (cache_picks, windows) = match vsched::instance(&mut m.vms[victim].guest) {
        Some(vs) => (vs.bvs_stats.cache_picks, vs.vcache.windows),
        None => (0, 0),
    };
    VcacheCell {
        throughput,
        ipc: work / cycles,
        cache_picks,
        windows,
        violations: check_report(&shared).violations,
    }
}

/// The suite job: one cell per (benchmark, guest mode).
pub(crate) fn job() -> Job {
    let mut cells = Vec::new();
    for &name in &BENCHES {
        for &mode in &MODES {
            cells.push(cell(format!("{name}/{mode}"), move |seed, scale: Scale| {
                run_cell(name, mode, scale.secs(8, 40), seed)
            }));
        }
    }
    Job {
        name: "vcache",
        desc: "cache-aware bvs vs stock vSched under an LLC-thrashing neighbour",
        cells,
        reduce: Box::new(|parts, _| VcacheFig::from_parts(parts).to_string()),
    }
}

impl VcacheFig {
    /// Assembles the figure from its job's cell parts, in cell order.
    pub fn from_parts(parts: Vec<Part>) -> VcacheFig {
        let mut it = parts.into_iter().map(got::<VcacheCell>);
        let rows = BENCHES
            .iter()
            .map(|&name| {
                let cells = MODES
                    .iter()
                    .map(|_| it.next().expect("one part per cell"))
                    .collect();
                (name, cells)
            })
            .collect();
        VcacheFig { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's acceptance criterion, in miniature: with the prober on,
    /// cache-aware bvs must actually steer placements (picks > 0), close
    /// its sampling windows, and trip zero checker laws — and the steering
    /// must not *lose* throughput against stock vSched.
    #[test]
    fn cache_aware_steers_and_stays_lawful() {
        let vs = run_cell("dedup", "vsched", 4, 42);
        let ca = run_cell("dedup", "vsched-cache-aware", 4, 42);
        assert!(ca.cache_picks > 0, "cache-aware bvs never steered a pick");
        assert!(ca.windows > 0, "vcache prober closed no windows");
        assert_eq!(ca.violations, 0, "checker flagged the cache-aware run");
        assert_eq!(vs.violations, 0, "checker flagged the stock run");
        assert!(
            ca.throughput > vs.throughput,
            "cache-aware ({}) did not beat stock vSched ({})",
            ca.throughput,
            vs.throughput
        );
    }
}
