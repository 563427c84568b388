//! Multi-tenant demo: a server VM rides out changing neighbours.
//!
//! An Nginx-like VM floats freely over a 8-core host while neighbour VMs
//! come and go (the Figure 17 scenario, scaled down); live per-second
//! throughput is printed for stock CFS and vSched side by side.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use hostsim::{HostSpec, Machine, VmSpec};
use simcore::time::SEC;
use simcore::{SimRng, SimTime};
use vsched::VschedConfig;
use workloads::{build, work_ms, DelayedWorkload, LatencyServer, LatencyServerCfg};

fn run(with_vsched: bool) -> Vec<f64> {
    let threads: Vec<usize> = (0..8).collect();
    let mut m = Machine::new(HostSpec::flat(8), 42);
    let vm = m.add_vm(VmSpec::floating(8, threads.clone()));
    let n1 = m.add_vm(VmSpec::floating(8, threads.clone()));
    let n2 = m.add_vm(VmSpec::floating(8, threads));

    // The server: ~0.5 ms requests, offered at ~60% of the host.
    let service = work_ms(0.5);
    let cfg = LatencyServerCfg::new(8, service, service / 1024.0 / 8.0 / 0.6).with_series(SEC);
    let (wl, stats) = LatencyServer::new(cfg, SimRng::new(3));
    m.set_workload(vm, Box::new(wl));

    // Neighbours: a sync-heavy VM arrives at t=5s, a compute-heavy one at
    // t=10s.
    let (w1, _h1) = build("facesim", 8, SimRng::new(4));
    m.set_workload(n1, Box::new(DelayedWorkload::new(w1, 5 * SEC)));
    let (w2, _h2) = build("swaptions", 8, SimRng::new(5));
    m.set_workload(n2, Box::new(DelayedWorkload::new(w2, 10 * SEC)));

    if with_vsched {
        m.with_vm(vm, |g, p| vsched::install(g, p, VschedConfig::full()));
    }
    m.start();
    m.run_until(SimTime::from_secs(15));
    let out = stats
        .borrow()
        .series
        .as_ref()
        .map(|ts| ts.rates_per_sec())
        .unwrap_or_default();
    out
}

fn main() {
    println!("Nginx-like server under arriving neighbours (req/s per second)\n");
    let cfs = run(false);
    let vs = run(true);
    println!("{:>4} {:>10} {:>10}   phase", "t(s)", "CFS", "vSched");
    for i in 0..cfs.len().min(vs.len()) {
        let phase = match i {
            0..=4 => "alone",
            5..=9 => "+ facesim",
            _ => "+ facesim + swaptions",
        };
        println!("{:>4} {:>10.0} {:>10.0}   {phase}", i + 1, cfs[i], vs[i]);
    }
    let tail = |s: &[f64]| s[10..].iter().sum::<f64>() / (s.len() - 10).max(1) as f64;
    println!(
        "\ncontended-phase mean: CFS {:.0} req/s, vSched {:.0} req/s ({:+.0}%)",
        tail(&cfs),
        tail(&vs),
        100.0 * (tail(&vs) / tail(&cfs) - 1.0)
    );
}
