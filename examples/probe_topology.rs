//! vtop demo: probe a hidden vCPU topology from inside the VM.
//!
//! Builds the paper's Figure 10b setup — 8 vCPUs spread over two sockets
//! with SMT pairs and one *stacked* pair — and prints the measured
//! cache-line transfer latency matrix plus the reconstructed topology.
//!
//! ```text
//! cargo run --release --example probe_topology
//! ```

use hostsim::{HostSpec, Machine, Pinning, VmSpec};
use simcore::SimTime;
use vsched::VschedConfig;
use workloads::{work_ms, Stressor};

fn main() {
    // Ground truth (invisible to the guest): vCPUs 0-3 on two SMT pairs of
    // socket 0; vCPUs 4,5 an SMT pair on socket 1; vCPUs 6,7 stacked on a
    // single hardware thread of socket 1.
    let host = HostSpec::new(2, 2, 2);
    let mut m = Machine::new(host, 1);
    let vm = m.add_vm(VmSpec {
        nr_vcpus: 8,
        pinning: Pinning::OneToOne(vec![0, 1, 2, 3, 4, 5, 6, 6]),
        weight: 1024,
        bandwidth: None,
    });
    let (wl, _s) = Stressor::new(2, work_ms(5.0));
    m.set_workload(vm, Box::new(wl));
    m.with_vm(vm, |g, p| {
        vsched::install(g, p, VschedConfig::probers_only())
    });
    m.start();
    m.run_until(SimTime::from_secs(5));

    let vs = vsched::instance(&mut m.vms[vm].guest).expect("vsched installed");
    println!("probed cache-line transfer latency matrix (ns; inf = stacked, - = inferred):\n");
    print!("      ");
    for j in 0..8 {
        print!("{j:>6}");
    }
    println!();
    for (i, row) in vs.vtop.latency_matrix.iter().enumerate() {
        print!("vCPU{i} ");
        for (j, &v) in row.iter().enumerate() {
            if i == j {
                print!("{:>6}", "0");
            } else if v.is_infinite() {
                print!("{:>6}", "inf");
            } else if v < 0.0 {
                print!("{:>6}", "-");
            } else {
                print!("{v:>6.0}");
            }
        }
        println!();
    }

    let topo = vs.vtop.topo.as_ref().expect("topology probed");
    println!("\nreconstructed topology:");
    for v in 0..8 {
        let smt: Vec<usize> = topo.smt[v].iter().filter(|&s| s != v).collect();
        let stacked: Vec<usize> = topo.stacked[v].iter().filter(|&s| s != v).collect();
        let socket: Vec<usize> = topo.socket[v].iter().collect();
        println!("  vCPU{v}: smt_siblings={smt:?} stacked_with={stacked:?} socket={socket:?}");
    }
    println!(
        "\nfull probe took {} of simulated time (paper: sub-second)",
        metrics::fmt_ns(vs.vtop.last_full_ns.unwrap_or(0))
    );
}
