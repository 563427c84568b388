//! `fleet-region`: region-scale churn.
//!
//! 1000 shallow hosts of 4 threads, stepped in 50 ms epochs on one
//! worker, run vSched guests under `probe-aware` placement, with
//! stochastic churn from the seed at a 2 ms mean interarrival (about a
//! thousand arrivals a run). Each admission refreshes every host's view
//! by scanning every live VM (O(hosts × live)), every host runs a
//! checker, and idle hosts still step every epoch: many small machines
//! where `host-hpvm` has one deep one.

use crate::outcome::{digest, fastest, ratio, repetitions, timed, Outcome};
use crate::spans::{Layer, PolicySpan, Profiler};
use crate::speed::{Meter, Timing};
use fleet::{
    policy_by_name, Cluster, FleetSpec, GuestMode, HostView, PlacementPolicy, PlacementReq,
    SloSummary, VmOp,
};
use simcore::time::MS;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::rc::Rc;

/// Simulated horizon of one cluster run, in seconds.
const HORIZON_S: u64 = 2;
/// Wall seconds of one untraced cluster run on the reference machine (a
/// shared 2-core x86-64 VM): with a run's seconds, it fixes how many
/// cluster runs the run makes.
const RUN_S: f64 = 4.0;
/// Build-only cluster builds before each cluster run, beside the run's
/// own build: a build takes milliseconds, and `setup_s` is the fastest of
/// them all, each scaled by the speed read as the run begins. Spreading
/// the trials over the run lets some of them miss a burst of
/// interference.
const SETUP_TRIALS: usize = 12;
/// Placements between two reads of the machine's speed: a run of about a
/// thousand placements is timed in pieces of a third of a second or so.
const PLACEMENTS_PER_PIECE: u64 = 100;
/// The offered load `wall_s` is given for, in vCPU-seconds: about the
/// median of what a seed's churn offers.
const NOMINAL_LOAD: f64 = 1400.0;

fn probe_aware() -> Box<dyn PlacementPolicy> {
    policy_by_name("probe-aware").expect("probe-aware is a registered policy")
}

/// A placement policy that ends a piece of the stepping every
/// [`PLACEMENTS_PER_PIECE`] calls, so that a long run is timed in pieces
/// each scaled by the speed read around it. Placement happens at the same
/// points of every repetition, so the pieces line up across them.
struct Splitting {
    inner: Box<dyn PlacementPolicy>,
    calls: u64,
    meter: Rc<RefCell<Meter>>,
    pieces: Rc<RefCell<Vec<Timing>>>,
}

impl PlacementPolicy for Splitting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, req: &PlacementReq, hosts: &[HostView]) -> Option<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(PLACEMENTS_PER_PIECE) {
            let piece = self.meter.borrow_mut().split();
            self.pieces.borrow_mut().push(piece);
        }
        self.inner.place(req, hosts)
    }
}

/// The load a cluster's churn offers, in vCPU-seconds: each admitted VM's
/// vCPUs times the span it lives within the horizon. The schedule is a
/// function of the spec and the seed alone, whatever the code under test
/// does with it.
fn offered_load(cluster: &Cluster) -> f64 {
    let mut arrived: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
    let mut vcpu_ns = 0.0;
    for e in cluster.schedule() {
        match e.op {
            VmOp::Arrive { uid, vcpus, .. } => {
                arrived.insert(uid, (e.at.ns(), vcpus));
            }
            VmOp::Depart { uid } => {
                if let Some((at, vcpus)) = arrived.remove(&uid) {
                    vcpu_ns += (e.at.ns() - at) as f64 * vcpus as f64;
                }
            }
            VmOp::Resize { .. } => {}
        }
    }
    let horizon_ns = HORIZON_S * 1_000 * MS;
    for (at, vcpus) in arrived.into_values() {
        vcpu_ns += (horizon_ns - at) as f64 * vcpus as f64;
    }
    vcpu_ns / 1e9
}

/// One cluster run, with set-up and stepping timed apart.
struct Run {
    setup_s: f64,
    /// The stepping's pieces, in order.
    pieces: Vec<Timing>,
    events: u64,
    summary: SloSummary,
}

/// Builds the region's cluster on one stepping worker: the work `setup_s`
/// times.
fn build(seed: u64, policy: Box<dyn PlacementPolicy>) -> Cluster {
    let mut spec = FleetSpec::small(1000, 4, HORIZON_S);
    spec.arrival_mean_ns = 2 * MS;
    Cluster::with_threads(spec, GuestMode::Vsched, policy, seed, NonZeroUsize::MIN)
}

impl Run {
    fn new(seed: u64, meter: &Rc<RefCell<Meter>>, policy: Box<dyn PlacementPolicy>) -> Run {
        let pieces = Rc::new(RefCell::new(Vec::new()));
        let splitting = Splitting {
            inner: policy,
            calls: 0,
            meter: Rc::clone(meter),
            pieces: Rc::clone(&pieces),
        };
        let (setup_s, mut cluster) = timed(|| build(seed, Box::new(splitting)));
        meter.borrow_mut().begin();
        let summary = cluster.run();
        let last = meter.borrow_mut().split();
        let mut pieces = pieces.take();
        pieces.push(last);
        Run {
            setup_s,
            pieces,
            events: cluster.events_dispatched(),
            summary,
        }
    }

    /// Wall seconds of the stepping, the speed reads left out.
    fn wall_s(&self) -> f64 {
        self.pieces.iter().map(|p| p.wall_s).sum()
    }

    /// Digest of the simulated outcome, which every repetition must match.
    fn digest(&self) -> u64 {
        let s = &self.summary;
        digest(&[
            self.events,
            s.admitted,
            s.placed,
            s.rejected,
            s.completed,
            s.dropped,
            s.trace_events,
            s.p99_ms.to_bits(),
            s.mean_util.to_bits(),
        ])
    }

    /// Counts the run as one unit: law-clean, nothing stranded, VMs
    /// placed, and the outcome `want`.
    fn check(&self, want: u64, out: &mut Outcome) {
        let s = &self.summary;
        let repeats = self.digest() == want;
        out.check(
            s.violations == 0 && s.stranded == 0 && s.placed > 0 && repeats,
            || {
                format!(
                    "fleet-region: {} violations (first {:?}), {} stranded, {} placed, outcome {}",
                    s.violations,
                    s.first_law,
                    s.stranded,
                    s.placed,
                    if repeats { "repeats" } else { "changed" }
                )
            },
        );
    }
}

/// Untraced run: a fixed number of cluster runs for `seconds`, at least
/// two so the outcome is seen to repeat. Each is preceded by
/// [`SETUP_TRIALS`] build-only cluster builds. `wall_s` is the stepping
/// with each of its pieces at its fastest, at the reference machine's
/// speed and for the [`NOMINAL_LOAD`]: seeds' churn offers 1300 to 1600
/// vCPU-seconds, and host events follow the offered load (r = 0.997 over
/// ten seeds), so unscaled the spread across seeds would mostly be the
/// seeds'. `setup_s` is the fastest build at the reference speed.
pub fn untraced(seed: u64, seconds: f64, out: &mut Outcome) {
    let meter = Rc::new(RefCell::new(Meter::default()));
    let mut setups = Vec::new();
    let mut walls: Vec<Vec<f64>> = Vec::new();
    let mut first = None;
    let runs = repetitions(seconds, RUN_S, 2);
    for n in 1..=runs {
        let trials: Vec<f64> = (0..SETUP_TRIALS)
            .map(|_| timed(|| build(seed, probe_aware())).0)
            .collect();
        let r = Run::new(seed, &meter, probe_aware());
        let want = *first.get_or_insert(r.digest());
        r.check(want, out);
        let ref_s: f64 = r.pieces.iter().map(Timing::ref_s).sum();
        println!(
            "# cluster run {n}: setup {:.4} s, wall {:.3} s ({ref_s:.3} s at reference speed) \
             in {} pieces, {} host events, {} placed",
            r.setup_s,
            r.wall_s(),
            r.pieces.len(),
            r.events,
            r.summary.placed
        );
        let scale = r.pieces[0].scale;
        setups.extend(trials.iter().map(|s| s * scale));
        setups.push(r.setup_s * scale);
        walls.resize(walls.len().max(r.pieces.len()), Vec::new());
        for (w, p) in walls.iter_mut().zip(&r.pieces) {
            w.push(p.ref_s());
        }
    }
    // The pieces line up only if every run placed at the same points.
    let aligned = walls.iter().all(|w| w.len() == runs);
    out.check(aligned, || {
        "fleet-region: the runs' placements split them into different pieces".into()
    });
    let load = offered_load(&build(seed, probe_aware()));
    let wall = walls.iter().map(|w| fastest(w)).sum::<f64>() * NOMINAL_LOAD / load;
    out.set("setup_s", fastest(&setups), "s");
    out.set("wall_s", wall, "s");
    println!(
        "# fleet-region: {runs} runs of {HORIZON_S} simulated s offering {load:.1} vCPU-s, \
         sim_s_per_s {:.3} at {NOMINAL_LOAD} vCPU-s (derived, not gated)",
        HORIZON_S as f64 / wall
    );
}

/// Traced run: an untraced and a placement-wrapped cluster run, which
/// must match bit for bit. Only the policy call is a public seam, so the
/// coordinator's own cost stays inside `fleet.ns_per_host_event`.
pub fn traced(seed: u64, out: &mut Outcome) {
    let meter = Rc::new(RefCell::new(Meter::default()));
    let plain = Run::new(seed, &meter, probe_aware());
    let want = plain.digest();
    plain.check(want, out);
    let prof = Profiler::shared();
    let wrapped = Run::new(
        seed,
        &meter,
        Box::new(PolicySpan::new(probe_aware(), Rc::clone(&prof))),
    );
    wrapped.check(want, out);

    let p = prof.borrow();
    let place = p.totals(Layer::Fleet);
    let place_s = place.self_ns as f64 / 1e9;
    let events = wrapped.events as f64;
    let ns_per_event = 1e9 * ratio(wrapped.wall_s() - place_s, events);
    let s = &wrapped.summary;
    out.set("fleet.host_events", events, "count");
    out.set("fleet.ns_per_host_event", ns_per_event, "ns");
    out.set("fleet.place_calls", place.calls as f64, "count");
    out.set("fleet.place_self_s", place_s, "s");
    let views = ratio(p.views as f64, place.calls as f64);
    out.set("fleet.views_per_call", views, "count");
    out.set("fleet.admitted", s.admitted as f64, "count");
    out.set("fleet.trace_events", s.trace_events as f64, "count");
    // Outside in, host stepping cannot be told from the coordinator
    // around it: here core is everything but the policy call.
    out.set("core.events", events, "count");
    out.set("core.ns_per_event", ns_per_event, "ns");
    out.set("trace.events", s.trace_events as f64, "count");
    println!(
        "# fleet-region layers (wrapped run, {:.3} s): placement {place_s:.4} s ({:.2}%) \
         over {} calls, hosts and coordinator {:.3} s",
        wrapped.wall_s(),
        100.0 * place_s / wrapped.wall_s(),
        place.calls,
        wrapped.wall_s() - place_s
    );
    println!(
        "# overhead against the untraced run ({:.3} s): spans {:+.1}%",
        plain.wall_s(),
        100.0 * (wrapped.wall_s() / plain.wall_s() - 1.0)
    );
}
