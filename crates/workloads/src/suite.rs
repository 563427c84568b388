//! The benchmark suite: the paper's 34 workloads as archetype instances.
//!
//! Each benchmark name maps to an archetype with parameters chosen to
//! reflect its published character — synchronization intensity, task size,
//! communication pattern — with service times taken from the paper where it
//! states them (Masstree's ≈ 0.36 ms service time, Table 3). Absolute
//! constants are calibrated for the simulator's reference core, not the
//! authors' Xeons; the *relative* behaviour (which benchmarks are
//! sync-intensive, which tasks are small) is what the experiments depend
//! on.

use crate::common::{work_ms, LatencyStats, ThroughputStats};
use crate::latency::{LatencyServer, LatencyServerCfg};
use crate::msgpairs::{MsgPairs, MsgPairsCfg};
use crate::parallel::{BarrierCfg, BarrierParallel, LockCfg, LockParallel};
use crate::pipeline::{Pipeline, PipelineCfg};
use crate::stress::{Stressor, TaskQueue, ThinkIo};
use guestos::Workload;
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared statistics handle of a built benchmark.
pub enum Handle {
    /// Latency-server statistics.
    Latency(Rc<RefCell<LatencyStats>>),
    /// Throughput statistics.
    Throughput(Rc<RefCell<ThroughputStats>>),
}

impl Handle {
    /// 95th-percentile end-to-end latency, if this is a latency benchmark.
    pub fn p95_ns(&self) -> Option<u64> {
        match self {
            Handle::Latency(s) => Some(s.borrow().e2e.p95()),
            Handle::Throughput(_) => None,
        }
    }

    /// Completed units (requests / rounds / items / messages).
    pub fn completed(&self) -> u64 {
        match self {
            Handle::Latency(s) => s.borrow().completed,
            Handle::Throughput(s) => s.borrow().completed,
        }
    }

    /// Completion rate per second over the run (uses the workload's own
    /// finish time when it completed early).
    pub fn rate(&self, duration: SimTime) -> f64 {
        match self {
            Handle::Latency(s) => s.borrow().throughput(duration),
            Handle::Throughput(s) => s.borrow().rate(duration),
        }
    }

    /// A single performance score: completion rate for throughput
    /// benchmarks, inverse p95 latency for latency benchmarks — in both
    /// cases, higher is better.
    pub fn score(&self, duration: SimTime) -> f64 {
        match self {
            Handle::Latency(s) => {
                let p95 = s.borrow().e2e.p95().max(1);
                1e9 / p95 as f64
            }
            Handle::Throughput(_) => self.rate(duration),
        }
    }
}

/// All benchmark names, grouped as the paper's figures group them.
pub const THROUGHPUT_BENCHES: &[&str] = &[
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "facesim",
    "fluidanimate",
    "freqmine",
    "streamcluster",
    "swaptions",
    "x264",
    "barnes",
    "fft",
    "lu_cb",
    "lu_ncb",
    "ocean_cp",
    "ocean_ncp",
    "radiosity",
    "radix",
    "raytrace",
    "volrend",
    "water_spatial",
    "pbzip2",
    "nginx",
];

/// Latency-sensitive benchmarks (Tailbench).
pub const LATENCY_BENCHES: &[&str] = &[
    "img-dnn", "moses", "masstree", "silo", "shore", "specjbb", "sphinx", "xapian",
];

/// Whether a benchmark reports tail latency (vs throughput).
pub fn is_latency_bench(name: &str) -> bool {
    LATENCY_BENCHES.contains(&name)
}

/// Mean service work (capacity-ns) of a Tailbench app.
fn tailbench_service(name: &str) -> f64 {
    match name {
        "img-dnn" => work_ms(2.0),
        "moses" => work_ms(1.8),
        "masstree" => work_ms(0.36), // Table 3
        "silo" => work_ms(0.25),
        "shore" => work_ms(1.2),
        "specjbb" => work_ms(0.5),
        "sphinx" => work_ms(6.0),
        "xapian" => work_ms(0.9),
        _ => unreachable!("not a tailbench app: {name}"),
    }
}

/// Builds a latency benchmark with explicit arrival control.
pub fn build_latency(
    name: &str,
    workers: usize,
    interarrival_ns: f64,
    best_effort: bool,
    rng: SimRng,
) -> (Box<dyn Workload>, Handle) {
    let mut cfg = LatencyServerCfg::new(workers, tailbench_service(name), interarrival_ns);
    if best_effort {
        cfg = cfg.with_best_effort();
    }
    let (wl, stats) = LatencyServer::new(cfg, rng);
    (Box::new(wl), Handle::Latency(stats))
}

/// Builds any suite benchmark with `threads` threads at a default offered
/// load (latency benchmarks at 35% of nominal capacity). Returns the
/// workload and its statistics handle.
pub fn build(name: &str, threads: usize, rng: SimRng) -> (Box<dyn Workload>, Handle) {
    build_loaded(name, threads, 0.35, rng)
}

/// Like [`build`], with an explicit offered-load factor for latency
/// benchmarks (fraction of `threads` full reference cores). Constrained
/// VM profiles need lower factors to stay out of saturation.
pub fn build_loaded(
    name: &str,
    threads: usize,
    load: f64,
    rng: SimRng,
) -> (Box<dyn Workload>, Handle) {
    if is_latency_bench(name) {
        let service = tailbench_service(name);
        let interarrival = service / 1024.0 / threads as f64 / load;
        return build_latency(name, threads, interarrival, false, rng);
    }
    let t = threads;
    let huge = u64::MAX / 4; // effectively endless item pools
    let (wl, stats): (Box<dyn Workload>, Rc<RefCell<ThroughputStats>>) = match name {
        // PARSEC
        "blackscholes" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(25.0)), rng)),
        "bodytrack" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(3.0)), rng)),
        "canneal" => boxed(LockParallel::new(
            LockCfg::new(t, work_ms(0.5), work_ms(0.04)).with_comm_group(1),
            rng,
        )),
        "dedup" => boxed(Pipeline::new(
            PipelineCfg::new(
                vec![
                    (t.div_ceil(3), work_ms(0.8)),
                    (t.div_ceil(3), work_ms(1.2)),
                    (t.div_ceil(3), work_ms(0.6)),
                ],
                huge,
            )
            .with_comm_group(2),
            rng,
        )),
        "facesim" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(6.0)), rng)),
        "fluidanimate" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(1.2)), rng)),
        "freqmine" => boxed(mk_queue(t, huge, work_ms(8.0), rng)),
        "streamcluster" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(0.6)).spinning(),
            rng,
        )),
        "swaptions" => boxed(mk_queue(t, huge, work_ms(20.0), rng)),
        "x264" => boxed(Pipeline::new(
            PipelineCfg::new(
                vec![(t.div_ceil(2), work_ms(1.5)), (t.div_ceil(2), work_ms(1.0))],
                huge,
            )
            .with_comm_group(3),
            rng,
        )),
        // SPLASH-2x
        "barnes" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(4.0)), rng)),
        "fft" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(2.0)).with_comm_group(4),
            rng,
        )),
        "lu_cb" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(1.8)), rng)),
        "lu_ncb" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(1.5)).with_comm_group(5),
            rng,
        )),
        "ocean_cp" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(1.2)).with_comm_group(6),
            rng,
        )),
        "ocean_ncp" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(1.0)).with_comm_group(7),
            rng,
        )),
        "radiosity" => boxed(LockParallel::new(
            LockCfg::new(t, work_ms(0.4), work_ms(0.08)),
            rng,
        )),
        "radix" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(1.0)).with_comm_group(8),
            rng,
        )),
        "raytrace" => boxed(mk_queue(t, huge, work_ms(10.0), rng)),
        "volrend" => boxed(BarrierParallel::new(
            BarrierCfg::new(t, work_ms(0.8)).spinning(),
            rng,
        )),
        "water_spatial" => boxed(BarrierParallel::new(BarrierCfg::new(t, work_ms(2.5)), rng)),
        // Others
        "pbzip2" => boxed(mk_queue(t, huge, work_ms(6.0), rng)),
        "hackbench" => boxed(MsgPairs::new(MsgPairsCfg::new((t / 4).max(1), 2000), rng)),
        "fio" => boxed(ThinkIo::new(t, work_ms(0.2), 2_000_000, rng)),
        "sysbench" => {
            let (w, s) = Stressor::new(t, work_ms(10.0));
            (Box::new(w.with_pause(100_000)) as Box<dyn Workload>, s)
        }
        "matmul" => {
            let (w, s) = Stressor::new(t, work_ms(15.0));
            (
                Box::new(w.cache_sensitive().with_pause(100_000)) as Box<dyn Workload>,
                s,
            )
        }
        "nginx" => {
            // Nginx reports throughput; built as a server with a live
            // series for the adaptability experiments.
            let service = work_ms(0.5);
            let interarrival = service / 1024.0 / t as f64 / 0.5;
            let cfg =
                LatencyServerCfg::new(t, service, interarrival).with_series(simcore::time::SEC);
            let (wl, stats) = LatencyServer::new(cfg, rng);
            return (Box::new(wl), Handle::Latency(stats));
        }
        other => panic!("unknown benchmark: {other}"),
    };
    (wl, Handle::Throughput(stats))
}

fn boxed<W: Workload + 'static>(
    pair: (W, Rc<RefCell<ThroughputStats>>),
) -> (Box<dyn Workload>, Rc<RefCell<ThroughputStats>>) {
    (Box::new(pair.0), pair.1)
}

fn mk_queue(
    threads: usize,
    items: u64,
    work: f64,
    rng: SimRng,
) -> (TaskQueue, Rc<RefCell<ThroughputStats>>) {
    TaskQueue::new(threads, items, work, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_benchmark_builds() {
        let names: Vec<&str> = THROUGHPUT_BENCHES
            .iter()
            .chain(LATENCY_BENCHES.iter())
            .copied()
            .chain(["hackbench", "fio", "sysbench", "matmul"])
            .collect();
        for name in names {
            let (_wl, _h) = build(name, 4, SimRng::new(1));
        }
    }

    #[test]
    fn masstree_matches_table3_service_time() {
        assert_eq!(tailbench_service("masstree"), work_ms(0.36));
    }

    #[test]
    fn latency_classification() {
        assert!(is_latency_bench("img-dnn"));
        assert!(is_latency_bench("xapian"));
        assert!(!is_latency_bench("canneal"));
        assert!(!is_latency_bench("nginx"));
    }

    #[test]
    #[should_panic]
    fn unknown_benchmark_panics() {
        build("not-a-bench", 4, SimRng::new(1));
    }

    #[test]
    fn suite_has_34_named_workloads() {
        // 23 throughput + 8 tailbench + hackbench + fio + sysbench = 34.
        assert_eq!(THROUGHPUT_BENCHES.len() + LATENCY_BENCHES.len() + 3, 34);
    }
}
