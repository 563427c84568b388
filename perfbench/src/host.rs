//! `host-hpvm`: the single-guest inner loop.
//!
//! One hpvm host (`experiments::profiles::hpvm`: 32 vCPUs on 4 sockets
//! under steady host contention) runs a full vSched guest with tracing
//! off and the LLC model inert. A rotation runs four suite benchmarks at
//! Fig 19's 0.28 offered load, each on a fresh machine for a fixed
//! simulated span: masstree (open-loop latency server, wake and switch
//! heavy), dedup (pipeline), streamcluster (barrier) and canneal (lock).
//! Host dispatch, CFS and the vSched hooks do nearly all the work; there
//! is no fleet coordinator and no checker.

use crate::outcome::{digest, fastest, ratio, repetitions, timed, Outcome};
use crate::spans::{HookSpan, Layer, Profiler, SharedProfiler, WorkloadSpan};
use crate::speed::{Meter, Timing};
use experiments::common::{check_report, checked_collector};
use experiments::{profiles, Mode};
use guestos::GuestOs;
use hostsim::Machine;
use simcore::{SimRng, SimTime};
use std::rc::Rc;
use std::time::Instant;
use trace::{Collector, InvariantChecker, SharedCollector, TraceSink};
use workloads::{build_loaded, Handle};

/// The rotation, in order.
const BENCHES: [&str; 4] = ["masstree", "dedup", "streamcluster", "canneal"];
/// Simulated span of each segment.
const SEGMENT: SimTime = SimTime::from_secs(6);
/// Simulated span of the recorded capture whose checker replay is timed.
const CAPTURE: SimTime = SimTime::from_ms(500);
/// Retention of the capture's ring: far above its event count, so the
/// replay starts at the first event.
const CAPTURE_RING: usize = 1 << 23;
/// Fig 19's offered load.
const LOAD: f64 = 0.28;
/// Wall seconds of one untraced rotation on the reference machine (a
/// shared 2-core x86-64 VM): with a run's seconds, it fixes how many
/// rotations the run makes.
const ROTATION_S: f64 = 1.8;
/// Build-only trials of each segment after every rotation, beside the
/// rotation's own builds: a build takes tens of microseconds, and
/// `setup_s` is the sum of each segment's fastest build, scaled by the
/// speed read around the segment. Spreading the trials over the run lets
/// some of them miss a burst of interference.
const SETUP_TRIALS: usize = 2;

/// How a segment is observed.
pub enum Pass {
    /// Nothing attached: the measured configuration.
    Plain,
    /// Hook and workload seams wrapped in spans.
    Spans(SharedProfiler),
    /// A trace collector attached through `Machine::attach_trace`.
    Trace(SharedCollector),
}

/// One benchmark on a fresh hpvm machine.
pub struct Segment {
    machine: Machine,
    vm: usize,
    handle: Handle,
}

/// Seed of segment `i` of a rotation.
pub fn segment_seed(seed: u64, i: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)
}

impl Segment {
    /// Builds the host, the workload and the vSched guest: the work
    /// `setup_s` times.
    pub fn build(bench: &str, seed: u64, pass: Pass) -> Segment {
        let p = profiles::hpvm(seed);
        let (mut machine, vm) = (p.machine, p.vm);
        let nr = machine.vms[vm].nr_vcpus;
        let (mut wl, handle) = build_loaded(bench, nr, LOAD, SimRng::new(seed ^ 0xAB));
        if let Pass::Spans(prof) = &pass {
            wl = Box::new(WorkloadSpan::new(wl, Rc::clone(prof)));
        }
        machine.set_workload(vm, wl);
        if let Pass::Trace(collector) = &pass {
            machine.attach_trace(collector);
        }
        Mode::Vsched.install(&mut machine, vm);
        if let Pass::Spans(prof) = pass {
            let guest = &mut machine.vms[vm].guest;
            let hooks = guest.take_hooks().expect("vSched installs a hook set");
            guest.install_hooks(Box::new(HookSpan::new(hooks, prof)));
        }
        Segment {
            machine,
            vm,
            handle,
        }
    }

    /// Starts the host and simulates it up to `until`.
    pub fn run(&mut self, until: SimTime) {
        self.machine.start();
        self.machine.run_until(until);
    }

    /// The benchmarked guest.
    pub fn guest(&mut self) -> &mut GuestOs {
        &mut self.machine.vms[self.vm].guest
    }

    fn switches_and_migrations(&self) -> (u64, u64) {
        let s = &self.machine.vms[self.vm].guest.kern.stats;
        let migrations =
            s.wake_migrations.get() + s.balance_migrations.get() + s.active_migrations.get();
        (s.context_switches.get(), migrations)
    }

    /// Digest of the simulated statistics: equal digests mean the same
    /// events, switches, migrations, active time, completions and tail.
    pub fn digest(&self) -> u64 {
        let (switches, migrations) = self.switches_and_migrations();
        digest(&[
            self.machine.events_dispatched,
            switches,
            migrations,
            self.machine.total_active_ns(),
            self.handle.completed(),
            self.handle.p95_ns().unwrap_or(0),
        ])
    }
}

/// One rotation's totals.
#[derive(Default)]
struct Rotation {
    setup_s: [f64; 4],
    /// Each segment's simulation, timed by the meter.
    seg: [Timing; 4],
    wall_s: f64,
    events: u64,
    switches: u64,
    migrations: u64,
    digests: [u64; 4],
}

/// Builds and runs every segment, timing set-up and simulation apart.
fn rotation(seed: u64, meter: &mut Meter, mut pass: impl FnMut(usize) -> Pass) -> Rotation {
    let mut r = Rotation::default();
    for (i, bench) in BENCHES.iter().enumerate() {
        let (build_s, mut seg) = timed(|| Segment::build(bench, segment_seed(seed, i), pass(i)));
        (r.seg[i], ()) = meter.time(|| seg.run(SEGMENT));
        r.wall_s += r.seg[i].wall_s;
        r.setup_s[i] = build_s;
        let (switches, migrations) = seg.switches_and_migrations();
        r.events += seg.machine.events_dispatched;
        r.switches += switches;
        r.migrations += migrations;
        r.digests[i] = seg.digest();
    }
    r
}

fn check_digests(out: &mut Outcome, got: &[u64; 4], want: &[u64; 4], what: &str) {
    for (i, bench) in BENCHES.iter().enumerate() {
        out.check(got[i] == want[i], || {
            format!("host-hpvm {bench}: {what} changed the simulated statistics")
        });
    }
}

/// One trace-attached rotation, each machine under its own checker. The
/// digests must match `want` and every verdict must be clean. Returns the
/// rotation and the trace events checked.
fn trace_rotation(
    seed: u64,
    meter: &mut Meter,
    want: &[u64; 4],
    out: &mut Outcome,
) -> (Rotation, u64) {
    let collectors: Vec<SharedCollector> = BENCHES.iter().map(|_| checked_collector()).collect();
    let r = rotation(seed, meter, |i| Pass::Trace(Rc::clone(&collectors[i])));
    check_digests(out, &r.digests, want, "attaching a trace");
    let mut events = 0;
    for (bench, c) in BENCHES.iter().zip(&collectors) {
        let report = check_report(c);
        events += report.events;
        out.check(report.ok(), || {
            format!(
                "host-hpvm {bench}: {} law violations, first {:?}",
                report.violations,
                report.first_law()
            )
        });
    }
    (r, events)
}

/// Untraced run: a fixed number of rotations for `seconds` (at least
/// two, so every segment's digest is seen to repeat), then one
/// trace-attached rotation that must reproduce the untraced statistics
/// bit for bit and come back law-clean. `wall_s` is the rotation with
/// each segment at its fastest, each scaled to the reference machine's
/// speed by the reads on its two sides ([`crate::speed`]): a segment
/// takes a tenth of a second to a second, and interference bursts last
/// several, so the finer the part timed, the likelier one of its
/// repetitions misses them, and the better the reads beside it tell the
/// speed it ran at.
pub fn untraced(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut meter = Meter::default();
    let mut builds: [Vec<f64>; 4] = Default::default();
    let mut walls: [Vec<f64>; 4] = Default::default();
    let mut first: Option<[u64; 4]> = None;
    for n in 1..=repetitions(seconds, ROTATION_S, 2) {
        let r = rotation(seed, &mut meter, |_| Pass::Plain);
        let want = *first.get_or_insert(r.digests);
        check_digests(out, &r.digests, &want, "a repetition");
        println!(
            "# rotation {n}: setup {:.6} s, wall {:.4} s ({:.4} s at reference speed), {} events",
            r.setup_s.iter().sum::<f64>(),
            r.wall_s,
            r.seg.iter().map(Timing::ref_s).sum::<f64>(),
            r.events
        );
        for (i, bench) in BENCHES.iter().enumerate() {
            let scale = r.seg[i].scale;
            walls[i].push(r.seg[i].ref_s());
            builds[i].push(r.setup_s[i] * scale);
            for _ in 0..SETUP_TRIALS {
                let build = || Segment::build(bench, segment_seed(seed, i), Pass::Plain);
                builds[i].push(timed(build).0 * scale);
            }
        }
    }
    let want = first.expect("a run makes at least two rotations");
    trace_rotation(seed, &mut meter, &want, out);
    let wall = walls.iter().map(|w| fastest(w)).sum::<f64>();
    let sim_s = BENCHES.len() as f64 * SEGMENT.as_secs_f64();
    out.set("setup_s", builds.iter().map(|b| fastest(b)).sum(), "s");
    out.set("wall_s", wall, "s");
    println!(
        "# host-hpvm: {} rotations of {sim_s} simulated s, sim_s_per_s {:.2} (derived, not gated)",
        walls[0].len(),
        sim_s / wall
    );
}

/// Traced run: an untraced, a span-wrapped and a trace-attached rotation
/// (the last two must reproduce the first bit for bit), and a recorded
/// capture replayed through a fresh checker.
pub fn traced(seed: u64, out: &mut Outcome) {
    let mut meter = Meter::default();
    let plain = rotation(seed, &mut meter, |_| Pass::Plain);
    let prof = Profiler::shared();
    let spans = rotation(seed, &mut meter, |_| Pass::Spans(Rc::clone(&prof)));
    check_digests(out, &spans.digests, &plain.digests, "wrapping the seams");
    let (traced, trace_events) = trace_rotation(seed, &mut meter, &plain.digests, out);
    let (replayed, replay_s) = replay_capture(seed, out);

    let p = prof.borrow();
    let hooks = p.totals(Layer::Vsched);
    let wl = p.totals(Layer::Workloads);
    let hook_s = hooks.self_ns as f64 / 1e9;
    let wl_s = wl.self_ns as f64 / 1e9;
    // Outside in, host dispatch and the guest kernel cannot be told
    // apart: `Machine` calls the kernel directly. Together they are core,
    // taken from the untraced rotation so the spans' own cost outside
    // their measured intervals is not charged to it.
    let core_s = plain.wall_s - hook_s - wl_s;
    let events = spans.events as f64;
    out.set("core.events", events, "count");
    out.set("core.ns_per_event", 1e9 * ratio(core_s, events), "ns");
    out.set("guestos.context_switches", spans.switches as f64, "count");
    out.set("guestos.migrations", spans.migrations as f64, "count");
    out.set("vsched.hook_calls", hooks.calls as f64, "count");
    out.set("vsched.hook_self_s", hook_s, "s");
    out.set(
        "vsched.select_cpu_calls",
        p.hooks.select_cpu as f64,
        "count",
    );
    let picks = ratio(p.hooks.picked as f64, p.hooks.select_cpu as f64);
    out.set("vsched.bvs_pick_ratio", picks, "ratio");
    out.set("vsched.timer_calls", p.hooks.timer as f64, "count");
    out.set("workloads.calls", wl.calls as f64, "count");
    out.set("workloads.self_s", wl_s, "s");
    out.set("trace.events", trace_events as f64, "count");
    out.set("trace.emit_check_s", traced.wall_s - plain.wall_s, "s");
    let check_ns = 1e9 * ratio(replay_s, replayed as f64);
    out.set("trace.check_ns_per_event", check_ns, "ns");
    let share = |s: f64| 100.0 * s / plain.wall_s;
    println!(
        "# host-hpvm layers (untraced rotation, {:.3} s): core {core_s:.3} s ({:.1}%), \
         vsched {hook_s:.3} s ({:.1}%), workloads {wl_s:.3} s ({:.1}%)",
        plain.wall_s,
        share(core_s),
        share(hook_s),
        share(wl_s)
    );
    let spanned = hooks.calls + wl.calls;
    println!(
        "# overhead against the untraced rotation ({:.3} s): spans {:+.1}% ({:.0} ns a span \
         over {spanned} spans), trace-attached {:+.1}%",
        plain.wall_s,
        100.0 * (spans.wall_s / plain.wall_s - 1.0),
        1e9 * ratio(spans.wall_s - plain.wall_s, spanned as f64),
        100.0 * (traced.wall_s / plain.wall_s - 1.0)
    );
}

/// Records a masstree capture into a ring that keeps every event, then
/// times its replay through a fresh `InvariantChecker`, whose verdict
/// must match the online one. Returns the events replayed and seconds.
fn replay_capture(seed: u64, out: &mut Outcome) -> (u64, f64) {
    let (_, shared) = TraceSink::shared(Collector::with_ring(CAPTURE_RING).with_checker());
    let pass = Pass::Trace(Rc::clone(&shared));
    let mut seg = Segment::build(BENCHES[0], segment_seed(seed, 0), pass);
    seg.run(CAPTURE);
    let c = shared.borrow();
    let ring = c.ring.as_ref().expect("the capture collector has a ring");
    let mut checker = InvariantChecker::new();
    let t0 = Instant::now();
    for ev in ring.iter() {
        checker.observe(ev);
    }
    let secs = t0.elapsed().as_secs_f64();
    let online = check_report(&shared);
    let replay = checker.report();
    out.check(
        ring.dropped() == 0 && online.ok() && replay.ok() && replay.events == online.events,
        || {
            format!(
                "checker replay: {} of {} events ({} dropped), {} online and {} replayed violations",
                replay.events,
                online.events,
                ring.dropped(),
                online.violations,
                replay.violations
            )
        },
    );
    (replay.events, secs)
}
