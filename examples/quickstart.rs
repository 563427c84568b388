//! Quickstart: build a small overcommitted cloud host, run a benchmark
//! under stock CFS and under vSched, and compare. The vSched run is traced:
//! a Chrome trace-event file and a schedstat dump land in `target/`, and
//! the streaming invariant checker audits the run as it happens.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hostsim::{HostSpec, Machine, VmSpec};
use simcore::{SimRng, SimTime};
use trace::{chrome_trace, Collector, SharedCollector, TraceSink};
use vsched::VschedConfig;
use workloads::{build, work_ms, Stressor};

fn run(with_vsched: bool, trace_to: Option<&SharedCollector>) -> f64 {
    // A 16-core host: our 16-vCPU VM shares every core with a competing
    // VM's stressor, so each vCPU gets ~50% and experiences inactive
    // periods — the dynamic vCPU resources the paper targets.
    let mut machine = Machine::new(HostSpec::flat(16), 42);
    let vm = machine.add_vm(VmSpec::pinned(16, 0));
    let competitor = machine.add_vm(VmSpec::pinned(16, 0));
    if let Some(shared) = trace_to {
        machine.attach_trace(shared);
    }

    // The guest runs canneal (lock-heavy PARSEC benchmark) with 4 threads:
    // plenty of unused vCPUs whose cycles a stalled task could harvest.
    let (workload, stats) = build("canneal", 4, SimRng::new(7));
    machine.set_workload(vm, workload);
    let (stress, _s) = Stressor::new(16, work_ms(10.0));
    machine.set_workload(competitor, Box::new(stress));

    if with_vsched {
        // Install vSched: vProbers (vcap/vact/vtop) + bvs + ivh + rwc —
        // entirely guest-side, no hypervisor changes.
        machine.with_vm(vm, |guest, plat| {
            vsched::install(guest, plat, VschedConfig::full());
        });
    }

    machine.start();
    let duration = SimTime::from_secs(10);
    machine.run_until(duration);
    stats.rate(duration)
}

fn main() {
    println!("vSched quickstart: canneal x4 threads on an overcommitted 16-vCPU VM\n");
    let cfs = run(false, None);
    println!("  stock CFS : {cfs:8.1} lock sections/s");

    // Trace the vSched run: ring buffer for the exporters, checker for the
    // conservation laws, and the schedstat aggregates written below.
    let (_, shared) = TraceSink::shared(
        Collector::with_ring(1 << 18)
            .with_checker()
            .with_aggregates(),
    );
    let vsched = run(true, Some(&shared));
    println!("  vSched    : {vsched:8.1} lock sections/s");
    println!(
        "\n  improvement: {:+.1}% (ivh harvests cycles the stalled task would waste)",
        100.0 * (vsched / cfs - 1.0)
    );

    let collector = shared.borrow();
    let ring = collector.ring.as_ref().expect("ring attached");
    println!(
        "\ntrace: {} events captured ({} dropped by the ring)",
        ring.len(),
        ring.dropped()
    );
    let report = collector
        .checker
        .as_ref()
        .expect("checker attached")
        .report();
    println!("invariant checker: {report}");

    let _ = std::fs::create_dir_all("target");
    let json_path = "target/quickstart_trace.json";
    if let Err(e) = std::fs::write(json_path, chrome_trace(ring)) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path} — open it at https://ui.perfetto.dev (or chrome://tracing)");
    }
    let stat_path = "target/quickstart_schedstat.txt";
    let stats = collector.stats.as_ref().expect("aggregates attached");
    if let Err(e) = std::fs::write(stat_path, stats.render(SimTime::from_secs(10))) {
        eprintln!("could not write {stat_path}: {e}");
    } else {
        println!("wrote {stat_path} — Linux /proc/schedstat-style per-vCPU aggregates");
    }
}
