//! Archetype validation on the full simulator: every workload runs,
//! produces sane statistics, and reacts to contention the way its real
//! counterpart does.

use hostsim::{HostSpec, Machine, VmSpec};
use simcore::time::{MS, SEC};
use simcore::{SimRng, SimTime};
use vsched_workloads::{
    build, suite::Handle, work_ms, BarrierCfg, BarrierParallel, LatencyServer, LatencyServerCfg,
    LockCfg, LockParallel, MsgPairs, MsgPairsCfg, Pipeline, PipelineCfg, Stressor, TaskQueue,
    ThinkIo,
};

fn one_vm(cores: usize, seed: u64) -> (Machine, usize) {
    let mut m = Machine::new(HostSpec::flat(cores), seed);
    let vm = m.add_vm(VmSpec::pinned(cores, 0));
    (m, vm)
}

#[test]
fn latency_server_serves_requests_with_sane_breakdown() {
    let (mut m, vm) = one_vm(4, 1);
    // 1 ms requests every ~2 ms across 4 workers: light load.
    let cfg = LatencyServerCfg::new(4, work_ms(1.0), 2.0 * MS as f64);
    let (wl, stats) = LatencyServer::new(cfg, SimRng::new(7));
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(10));
    let s = stats.borrow();
    // ~5000 arrivals in 10 s.
    assert!(
        (4000..6000).contains(&s.completed),
        "completed {}",
        s.completed
    );
    // Service ≈ 1 ms on dedicated cores.
    let p50 = s.service.p50();
    assert!((800_000..1_400_000).contains(&p50), "service p50 {p50}");
    // Queue is small on an idle VM.
    assert!(s.queue.p50() < 200_000, "queue p50 {}", s.queue.p50());
    // e2e ≈ queue + service.
    assert!(s.e2e.p50() >= s.service.p50());
}

#[test]
fn latency_server_queue_grows_under_saturation() {
    let (mut m, vm) = one_vm(1, 2);
    // Offered load ≈ 1.5x capacity: the backlog must dominate.
    let cfg = LatencyServerCfg::new(2, work_ms(1.0), 0.66 * MS as f64);
    let (wl, stats) = LatencyServer::new(cfg, SimRng::new(8));
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(3));
    let s = stats.borrow();
    assert!(
        s.queue.p95() > 10 * MS,
        "saturated queue p95 {}",
        s.queue.p95()
    );
}

#[test]
fn barrier_parallel_completes_rounds() {
    let (mut m, vm) = one_vm(4, 3);
    let (wl, stats) =
        BarrierParallel::new(BarrierCfg::new(4, work_ms(2.0)).rounds(100), SimRng::new(9));
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(10));
    let s = stats.borrow();
    assert_eq!(s.completed, 100);
    let t = s.finished_at.expect("finished");
    // 100 rounds × ~2 ms ≈ 0.2 s (plus stragglers).
    assert!(
        (SimTime::from_ms(180)..SimTime::from_ms(600)).contains(&t),
        "finished at {t}"
    );
}

#[test]
fn spinning_barrier_burns_more_cycles_than_blocking() {
    let run = |spin: bool| -> f64 {
        let (mut m, vm) = one_vm(4, 4);
        // The bursts' spread makes stragglers, so threads wait at barriers.
        let mut cfg = BarrierCfg::new(4, work_ms(1.0)).rounds(200);
        if spin {
            cfg = cfg.spinning();
        }
        let (wl, _stats) = BarrierParallel::new(cfg, SimRng::new(10));
        m.set_workload(vm, Box::new(wl));
        m.start();
        m.run_until(SimTime::from_secs(10));
        m.vms[vm].cycles.value()
    };
    let blocking = run(false);
    let spinning = run(true);
    assert!(
        spinning > 1.1 * blocking,
        "spin {spinning:.3e} vs block {blocking:.3e}"
    );
}

#[test]
fn lock_parallel_serializes_critical_sections() {
    let (mut m, vm) = one_vm(4, 5);
    let (wl, stats) = LockParallel::new(
        LockCfg::new(4, work_ms(0.1), work_ms(1.0)).iterations(500),
        SimRng::new(11),
    );
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(10));
    let s = stats.borrow();
    assert_eq!(s.completed, 500);
    // Critical sections serialize: 500 × 1 ms ≥ 0.5 s wall time.
    let t = s.finished_at.expect("finished");
    assert!(t >= SimTime::from_ms(480), "finished at {t}");
}

#[test]
fn pipeline_pushes_items_through_stages() {
    let (mut m, vm) = one_vm(6, 6);
    let (wl, stats) = Pipeline::new(
        PipelineCfg::new(
            vec![(2, work_ms(1.0)), (2, work_ms(1.0)), (2, work_ms(0.5))],
            300,
        ),
        SimRng::new(12),
    );
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(10));
    let s = stats.borrow();
    assert_eq!(s.completed, 300);
    assert!(s.finished_at.is_some());
}

#[test]
fn msg_pairs_delivers_all_messages() {
    let (mut m, vm) = one_vm(4, 7);
    let (wl, stats) = MsgPairs::new(MsgPairsCfg::new(2, 200), SimRng::new(13));
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(20));
    let s = stats.borrow();
    // 2 groups × 2 senders × 200 messages.
    assert_eq!(s.completed, 800);
    assert!(s.finished_at.is_some());
}

#[test]
fn stressor_throughput_scales_with_capacity() {
    let run = |with_competitor: bool| -> u64 {
        let mut m = Machine::new(HostSpec::flat(1), 8);
        let vm = m.add_vm(VmSpec::pinned(1, 0));
        let other = m.add_vm(VmSpec::pinned(1, 0));
        let (wl, stats) = Stressor::new(1, work_ms(5.0));
        m.set_workload(vm, Box::new(wl));
        if with_competitor {
            let (cw, _cs) = Stressor::new(1, work_ms(5.0));
            m.set_workload(other, Box::new(cw));
        }
        m.start();
        m.run_until(SimTime::from_secs(5));
        let completed = stats.borrow().completed;
        completed
    };
    let alone = run(false);
    let shared = run(true);
    let ratio = shared as f64 / alone as f64;
    assert!((ratio - 0.5).abs() < 0.08, "ratio {ratio}");
}

#[test]
fn think_io_sleeps_between_bursts() {
    let (mut m, vm) = one_vm(1, 9);
    // 0.2 ms compute + ~2 ms sleep → ~450 cycles/s.
    let (wl, stats) = ThinkIo::new(1, work_ms(0.2), 2 * MS, SimRng::new(14));
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(5));
    let c = stats.borrow().completed;
    assert!((1800..2800).contains(&c), "cycles {c}");
    // The vCPU was mostly idle.
    let active = m.vcpu_active_ns(m.gv(vm, 0)) as f64 / (5.0 * SEC as f64);
    assert!(active < 0.25, "active fraction {active}");
}

#[test]
fn task_queue_finishes_all_items() {
    let (mut m, vm) = one_vm(4, 10);
    let (wl, stats) = TaskQueue::new(4, 200, work_ms(2.0), SimRng::new(15));
    m.set_workload(vm, Box::new(wl));
    m.start();
    m.run_until(SimTime::from_secs(10));
    let s = stats.borrow();
    assert_eq!(s.completed, 200);
    // 200 × 2 ms / 4 workers ≈ 0.1 s.
    let t = s.finished_at.expect("finished");
    assert!(t < SimTime::from_ms(400), "finished at {t}");
}

#[test]
fn suite_benchmarks_all_run_on_the_machine() {
    // Smoke-run every suite benchmark briefly and require forward progress.
    let names: Vec<&str> = vsched_workloads::THROUGHPUT_BENCHES
        .iter()
        .chain(vsched_workloads::LATENCY_BENCHES.iter())
        .copied()
        .chain(["hackbench", "fio", "sysbench", "matmul"])
        .collect();
    for (i, name) in names.iter().enumerate() {
        let (mut m, vm) = one_vm(4, 100 + i as u64);
        let (wl, handle) = build(name, 4, SimRng::new(200 + i as u64));
        m.set_workload(vm, wl);
        m.start();
        m.run_until(SimTime::from_secs(3));
        assert!(handle.completed() > 0, "{name}: no progress in 3 s");
        match handle {
            Handle::Latency(s) => assert!(s.borrow().e2e.p95() > 0, "{name}: empty latency"),
            Handle::Throughput(s) => assert!(s.borrow().work_done > 0.0, "{name}"),
        }
    }
}
