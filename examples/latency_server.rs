//! Latency-server demo: how bvs steers small latency-sensitive tasks.
//!
//! Recreates a scaled-down Table 3: Masstree-like requests on a VM with
//! asymmetric vCPU latency, with and without bvs, printing the
//! queue/service/end-to-end p95 breakdown.
//!
//! ```text
//! cargo run --release --example latency_server
//! ```

use hostsim::{HostSpec, Machine, VmSpec};
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use vsched::VschedConfig;
use workloads::{work_ms, LatencyServer, LatencyServerCfg, Stressor};

fn run(with_bvs: bool) -> (f64, f64, f64) {
    // 8 vCPUs at 50% capacity; vCPUs 0-3 have 3 ms inactive periods,
    // vCPUs 4-7 have 9 ms (the "vCPU latency" asymmetry of §5.4).
    let mut m = Machine::new(HostSpec::flat(8), 42);
    let vm = m.add_vm(VmSpec::pinned(8, 0));
    let stress_vm = m.add_vm(VmSpec::pinned(8, 0));
    let (sw, _s) = Stressor::new(8, work_ms(10.0));
    m.set_workload(stress_vm, Box::new(sw));
    for th in 0..8 {
        m.set_thread_quantum(th, if th < 4 { 3 * MS } else { 9 * MS });
    }

    // Masstree: ~0.36 ms requests at a low rate.
    let cfg = LatencyServerCfg::new(4, work_ms(0.36), 6.0 * MS as f64);
    let (wl, stats) = LatencyServer::new(cfg, SimRng::new(5));
    m.set_workload(vm, Box::new(wl));

    let vcfg = if with_bvs {
        VschedConfig {
            ivh: false,
            rwc: false,
            ..VschedConfig::full()
        }
    } else {
        VschedConfig::probers_only()
    };
    m.with_vm(vm, |g, p| vsched::install(g, p, vcfg));
    m.start();
    m.run_until(SimTime::from_secs(20));
    let s = stats.borrow();
    (
        s.queue.p95() as f64 / 1e6,
        s.service.p95() as f64 / 1e6,
        s.e2e.p95() as f64 / 1e6,
    )
}

fn main() {
    println!("Masstree-like requests on a VM with asymmetric vCPU latency\n");
    println!(
        "{:<14}{:>12}{:>12}{:>12}",
        "config", "queue p95", "service p95", "e2e p95"
    );
    let (q, s, e) = run(false);
    println!("{:<14}{q:>10.2}ms{s:>10.2}ms{e:>10.2}ms", "without bvs");
    let (q2, s2, e2) = run(true);
    println!("{:<14}{q2:>10.2}ms{s2:>10.2}ms{e2:>10.2}ms", "with bvs");
    println!(
        "\nbvs places the small requests on low-latency vCPUs: e2e p95 {:+.0}%",
        100.0 * (e2 / e - 1.0)
    );
}
