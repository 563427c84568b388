//! The lockstep multi-host cluster.
//!
//! A [`Cluster`] owns N `hostsim::Machine`s plus a compiled churn
//! schedule and replays it deterministically: hosts advance in lockstep
//! on the shared virtual clock (each `Machine` keeps its own event queue,
//! stepped to a common barrier via [`hostsim::Machine::run_until`]), and
//! every placement decision is emitted into a fleet-scoped trace
//! collector whose invariant checker enforces the overcommit cap and
//! single-placement laws independently of the cluster's own bookkeeping.
//!
//! Hosts share no state *between* barriers, so [`Cluster::run`] shards
//! the stepping itself across a scoped worker pool (`pstep`):
//! every epoch boundary, placement, failure and recovery is a full sync
//! (a join barrier over all hosts), and all cross-host decisions
//! (admission, placement, SLO accounting, fleet-collector events) happen
//! serially on the coordinator between rounds. A departure or resize
//! touches one host, so it steps only that host and defers its instant
//! for the others, which replay every deferred barrier in order, as the
//! same `run_until` calls, at the start of the next full sync. Worker
//! count ([`Cluster::with_threads`], default
//! [`crate::threads::DEFAULT_FLEET_THREADS`], serial) never changes output —
//! per-host RNG streams are forked at construction, utilization samples
//! live per host, and checker reports fold in host-id order — which
//! `tests/parallel_step.rs` and the `ci.sh` fleet smoke pin down
//! byte-for-byte.
//!
//! Per-machine collectors stay separate from the fleet collector: vCPU
//! and task ids restart at zero on every host, so mixing their streams
//! would alias ids and trip the per-host conservation laws.
//!
//! [`Cluster::set_chaos`] layers a [`crate::chaos::FleetChaosPlan`] on
//! the run: crash/drain faults merge into the event loop (recoveries
//! first, then failures, then lifecycle on ties), degrade windows
//! compile to per-host script actions at install time, and a failed
//! host's machine simply stops being stepped — the same skip on the
//! serial and pooled paths, so worker count still never changes output.
//! Residents of a failing host are evacuated by live migration
//! ([`crate::chaos::MigrationMode`] decides whether drained vSched
//! guests hand their probe state to the destination); victims that find
//! no headroom retry with exponential backoff while the fleet sheds
//! Batch- then Standard-tier admissions (degraded mode), and depart if
//! the retry budget runs dry.

use crate::chaos::{FleetChaosPlan, HostFault, MigrationMode};
use crate::lifecycle::{self, FleetSpec, LifecycleEvent, VmOp};
use crate::placement::{HostView, PlacementPolicy, PlacementReq};
use crate::pstep::StepPool;
use crate::slo::{self, SloSummary, TenantStats};
use crate::threads;
use guestos::VcpuId;
use hostsim::topology::HostSpec;
use hostsim::{Machine, VmSpec};
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use trace::{Collector, EventKind, HostFailKind, PriorityClass, SharedCollector, TraceSink};
use vsched::VschedConfig;
use workloads::latency::{LatencyServer, LatencyServerCfg};
use workloads::{work_ms, LatencyStats};

/// Which guest scheduler the fleet's VMs boot with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestMode {
    /// Plain CFS guests: no probing, the placement layer sees nominal
    /// capacity only.
    Cfs,
    /// vSched guests (`VschedConfig::full()`): vcap probing feeds the
    /// probe-aware placement policy real capacity estimates.
    Vsched,
}

impl GuestMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            GuestMode::Cfs => "CFS",
            GuestMode::Vsched => "vSched",
        }
    }
}

/// Lockstep barrier granularity. Small enough that cross-host placement
/// decisions see fresh probing state, large enough to amortize the
/// per-host re-entry cost.
const EPOCH_NS: u64 = 50 * MS;

/// CFS bandwidth period used for vertical resizes.
const RESIZE_PERIOD_NS: u64 = 4 * MS;

/// Placement retries a stranded evacuee gets (exponential epoch backoff)
/// before the cluster gives up and departs it.
const EVAC_MAX_RETRIES: u32 = 3;

pub(crate) struct HostSim {
    m: Machine,
    collector: SharedCollector,
    /// Committed (placed, not departed) vCPUs — the checker re-verifies
    /// this via the occupancy carried on every `VmPlaced` event.
    committed: u64,
    /// Active-ns total at the previous utilization sample.
    prev_active_ns: u64,
    /// Sampled utilization per epoch (0..=1); capacity preallocated for
    /// the whole horizon at construction so epochs never reallocate.
    util: Vec<f64>,
    /// Down (crashed or draining): the machine is not stepped and the
    /// placement layer must not see the host. Flipped only between
    /// rounds on the coordinator, so every worker observes the same
    /// value for a whole round.
    failed: bool,
    /// When the current outage began (recovery reports the wall delta).
    failed_at_ns: u64,
    /// How many of the cluster's deferred barriers this host has reached.
    replayed: usize,
}

impl HostSim {
    /// Steps through the deferred barriers this host has not reached yet:
    /// the same `run_until` calls, in the same order, that a full sync at
    /// each of them would have made. A failed host stays frozen; failure
    /// and recovery are full syncs, so it was failed at every one of them.
    fn catch_up(&mut self, deferred: &[SimTime]) {
        if !self.failed {
            for &t in &deferred[self.replayed..] {
                self.m.run_until(t);
            }
        }
        self.replayed = deferred.len();
    }

    /// One host's share of a full-sync round: replay the deferred
    /// barriers, step to the barrier and, on epoch boundaries, fold the
    /// utilization sample in place. Touches only this host's state (and
    /// reads the shared `deferred` list), so rounds can run it from any
    /// worker. The coordinator empties `deferred` after every round.
    ///
    /// A failed host skips the stepping — its machine stays frozen at
    /// the failure barrier until recovery fast-forwards it — but still
    /// contributes a zero utilization sample, keeping every host's
    /// series the same length at any worker count.
    pub(crate) fn step_round(
        &mut self,
        deferred: &[SimTime],
        until: SimTime,
        sample_now_ns: Option<u64>,
        threads: u64,
    ) {
        self.catch_up(deferred);
        self.replayed = 0;
        if self.failed {
            if sample_now_ns.is_some() {
                self.util.push(0.0);
            }
            return;
        }
        self.m.run_until(until);
        if let Some(now_ns) = sample_now_ns {
            // Δ active-ns across all of the host's vCPUs over
            // `threads × window`.
            let active = self.m.total_active_ns();
            let window = EPOCH_NS.min(now_ns.max(1));
            let used = active.saturating_sub(self.prev_active_ns);
            self.prev_active_ns = active;
            self.util.push(used as f64 / (threads * window) as f64);
        }
    }
}

struct LiveVm {
    uid: u32,
    prio: PriorityClass,
    vcpus: usize,
    host: usize,
    vm_idx: usize,
    stats: Rc<RefCell<LatencyStats>>,
    arrived_ns: u64,
}

/// Per-vCPU probe state captured from a draining source instance:
/// `(published capacity, core capacity)`, `None` for never-probed vCPUs.
type ProbeSnapshot = Vec<Option<(f64, f64)>>;

/// A victim of a failed host that found no headroom: it stays quiesced
/// on the (down) source — counted in its committed vCPUs — until a
/// backoff retry places it or the budget runs dry.
struct PendingEvac {
    uid: u32,
    retries: u32,
    next_retry_ns: u64,
    snapshot: Option<ProbeSnapshot>,
}

/// A deterministic multi-host cluster run: `(spec, mode, policy, seed)`
/// fully determines the churn schedule, every placement decision, and
/// every latency sample.
pub struct Cluster {
    spec: FleetSpec,
    mode: GuestMode,
    policy: Box<dyn PlacementPolicy>,
    hosts: Vec<HostSim>,
    schedule: Vec<LifecycleEvent>,
    fleet_sink: TraceSink,
    fleet_collector: SharedCollector,
    live: Vec<LiveVm>,
    tenants: Vec<TenantStats>,
    wl_rng: SimRng,
    /// Requested stepping workers; effective count also caps at the host
    /// count ([`Cluster::effective_workers`]).
    fleet_threads: NonZeroUsize,
    /// Reusable [`HostView`] buffer for placement decisions, preallocated
    /// at construction so arrivals never allocate a fresh snapshot.
    views_scratch: Vec<HostView>,
    /// Per-host probed-capacity sums behind `views_scratch`, indexed by
    /// host id and likewise preallocated.
    probed_scratch: Vec<f64>,
    admitted: u64,
    placed: u64,
    rejected: u64,
    /// Installed fault schedule, if any ([`Cluster::set_chaos`]).
    chaos: Option<FleetChaosPlan>,
    /// Probe-state policy for drained vSched guests.
    migration_mode: MigrationMode,
    /// Evacuees waiting for headroom, serviced at epoch barriers.
    pending_evac: Vec<PendingEvac>,
    /// Scheduled host recoveries: `(recover_at_ns, host)` min-heap.
    recoveries: BinaryHeap<Reverse<(u64, usize)>>,
    /// Departure and resize instants since the last full sync, in order;
    /// each host's [`HostSim::catch_up`] replays the ones it has not
    /// reached ([`Cluster::step_host`]).
    deferred: Vec<SimTime>,
    host_failures: u64,
    migrations: u64,
    evacuations_failed: u64,
    shed_admissions: u64,
}

impl Cluster {
    /// Builds the cluster with the default stepping worker count
    /// ([`threads::DEFAULT_FLEET_THREADS`], one: serial stepping, no
    /// pool); see [`Cluster::with_threads`].
    pub fn new(
        spec: FleetSpec,
        mode: GuestMode,
        policy: Box<dyn PlacementPolicy>,
        seed: u64,
    ) -> Cluster {
        Self::with_threads(spec, mode, policy, seed, threads::DEFAULT_FLEET_THREADS)
    }

    /// Builds the cluster: N started machines with per-host trace
    /// checkers, the compiled churn schedule, and an empty fleet-level
    /// collector for placement events. `fleet_threads` bounds the
    /// stepping pool; any value produces byte-identical output.
    pub fn with_threads(
        spec: FleetSpec,
        mode: GuestMode,
        policy: Box<dyn PlacementPolicy>,
        seed: u64,
        fleet_threads: NonZeroUsize,
    ) -> Cluster {
        spec.validate().expect("valid spec");
        let schedule = lifecycle::generate(&spec, seed);
        // One sample per epoch plus the horizon remainder.
        let epochs = (spec.horizon_ns / EPOCH_NS + 2) as usize;
        let mut hosts = Vec::with_capacity(spec.hosts);
        for h in 0..spec.hosts {
            // Per-host seed: mixed so host streams are independent but a
            // host's stream is stable when the fleet size changes. Forked
            // here, never shared — each worker only ever advances the
            // streams of hosts it has claimed.
            let host_seed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(h as u64 + 1));
            let mut m = Machine::new(HostSpec::flat(spec.threads_per_host), host_seed);
            let (_, collector) = TraceSink::shared(Collector::default().with_checker());
            m.attach_trace(&collector);
            m.start();
            hosts.push(HostSim {
                m,
                collector,
                committed: 0,
                prev_active_ns: 0,
                util: Vec::with_capacity(epochs),
                failed: false,
                failed_at_ns: 0,
                replayed: 0,
            });
        }
        let (fleet_sink, fleet_collector) = TraceSink::shared(Collector::default().with_checker());
        let views_scratch = Vec::with_capacity(spec.hosts);
        let probed_scratch = Vec::with_capacity(spec.hosts);
        Cluster {
            spec,
            mode,
            policy,
            hosts,
            schedule,
            fleet_sink,
            fleet_collector,
            live: Vec::new(),
            tenants: Vec::new(),
            wl_rng: SimRng::new(seed ^ 0x0F1E_E75E_ED00),
            fleet_threads,
            views_scratch,
            probed_scratch,
            admitted: 0,
            placed: 0,
            rejected: 0,
            chaos: None,
            migration_mode: MigrationMode::Handoff,
            pending_evac: Vec::new(),
            recoveries: BinaryHeap::new(),
            deferred: Vec::new(),
            host_failures: 0,
            migrations: 0,
            evacuations_failed: 0,
            shed_admissions: 0,
        }
    }

    /// Installs a fleet chaos plan. Must be called before [`Cluster::run`]:
    /// crash/drain faults merge into the run loop, and each host's degrade
    /// windows compile to machine script actions here (exactly once per
    /// machine — the plan's stressor reversals predict load arena ids).
    pub fn set_chaos(&mut self, plan: FleetChaosPlan) {
        assert!(
            self.live.is_empty() && self.tenants.is_empty(),
            "set_chaos must run before the cluster steps"
        );
        for (h, host) in self.hosts.iter_mut().enumerate() {
            if let Some(fp) = plan.degrade_plan_for_host(h as u16, self.spec.threads_per_host) {
                fp.apply(&mut host.m);
            }
        }
        self.chaos = Some(plan);
    }

    /// Chooses how drained vSched guests transfer probe state (the
    /// handoff-vs-cold-reprobe ablation). Default: [`MigrationMode::Handoff`].
    pub fn set_migration_mode(&mut self, mode: MigrationMode) {
        self.migration_mode = mode;
    }

    /// The compiled churn schedule (for tests and inspection).
    pub fn schedule(&self) -> &[LifecycleEvent] {
        &self.schedule
    }

    /// Simulation events dispatched across every host machine — the
    /// cluster-stepping throughput denominator the bench harness tracks.
    pub fn events_dispatched(&self) -> u64 {
        self.hosts.iter().map(|h| h.m.events_dispatched).sum()
    }

    /// Stepping workers a run actually uses: the requested count capped
    /// at the host count (a worker per host saturates every round).
    pub fn effective_workers(&self) -> usize {
        self.fleet_threads.get().min(self.hosts.len().max(1))
    }

    /// Per-host sampled utilization series, in host-id order (what the
    /// byte-identity tests compare across worker counts).
    pub fn host_util(&self) -> Vec<&[f64]> {
        self.hosts.iter().map(|h| h.util.as_slice()).collect()
    }

    /// Replays the whole schedule to the horizon and folds the outcome
    /// into an [`SloSummary`].
    ///
    /// With more than one effective worker the host stepping runs on a
    /// scoped pool kept alive for the whole run; one worker (or one
    /// host) takes the plain serial path, which doubles as the baseline
    /// the parallel path must match byte-for-byte.
    pub fn run(&mut self) -> SloSummary {
        let workers = self.effective_workers();
        if workers <= 1 {
            return self.run_with(None);
        }
        let pool = StepPool::new();
        std::thread::scope(|s| {
            // The coordinator claims round work too, so spawn one fewer.
            for _ in 0..workers - 1 {
                s.spawn(|| pool.worker_loop());
            }
            // Release the workers even if the coordinator panics, or the
            // scope join would wait on them forever.
            let out = panic::catch_unwind(AssertUnwindSafe(|| self.run_with(Some(&pool))));
            pool.shutdown();
            out.unwrap_or_else(|p| panic::resume_unwind(p))
        })
    }

    fn run_with(&mut self, pool: Option<&StepPool>) -> SloSummary {
        let horizon = self.spec.horizon_ns;
        let schedule = std::mem::take(&mut self.schedule);
        let chaos_fails: Vec<HostFault> = self
            .chaos
            .as_ref()
            .map(|p| p.fail_events().copied().collect())
            .unwrap_or_default();
        let mut next = 0usize;
        let mut cnext = 0usize;
        let mut epoch_end = EPOCH_NS.min(horizon);
        loop {
            // Merge the three event sources in time order. Ties resolve
            // recovery → failure → lifecycle: a host recovering at the
            // same instant another fails (or a VM arrives) must be
            // usable before the decision is made.
            loop {
                let rt = self
                    .recoveries
                    .peek()
                    .map(|&Reverse((t, _))| t)
                    .filter(|&t| t <= epoch_end);
                let ct = chaos_fails
                    .get(cnext)
                    .map(|f| f.at.ns())
                    .filter(|&t| t <= epoch_end);
                let lt = schedule
                    .get(next)
                    .map(|e| e.at.ns())
                    .filter(|&t| t <= epoch_end);
                let Some(at) = [rt, ct, lt].iter().flatten().copied().min() else {
                    break;
                };
                let at_t = SimTime::from_ns(at);
                if rt == Some(at) {
                    self.step_all(at_t, None, pool);
                    let Reverse((t, h)) = self.recoveries.pop().expect("peeked");
                    self.recover_host(t, h);
                } else if ct == Some(at) {
                    self.step_all(at_t, None, pool);
                    let f = chaos_fails[cnext];
                    cnext += 1;
                    self.fail_host(&f);
                } else {
                    let ev = schedule[next];
                    next += 1;
                    match ev.op {
                        // Placement reads every host: a full sync.
                        VmOp::Arrive { .. } => self.step_all(at_t, None, pool),
                        VmOp::Depart { uid } | VmOp::Resize { uid, .. } => {
                            let host = self.live.iter().find(|lv| lv.uid == uid).map(|lv| lv.host);
                            self.step_host(host, at_t);
                        }
                    }
                    self.apply(ev);
                }
            }
            // Epoch barrier; the utilization sample folds into each host
            // on whichever worker stepped it. Backed-up evacuations are
            // retried here, after every host has settled.
            self.step_all(SimTime::from_ns(epoch_end), Some(epoch_end), pool);
            self.service_pending(epoch_end);
            if epoch_end >= horizon {
                break;
            }
            epoch_end = (epoch_end + EPOCH_NS).min(horizon);
        }
        self.schedule = schedule;
        // Hosts still down at the horizon would hold their stranded
        // evacuees forever; depart them so the run ends with zero
        // stranded placements (the checker's stranded_vms cross-checks).
        for p in std::mem::take(&mut self.pending_evac) {
            self.evacuations_failed += 1;
            self.force_depart(SimTime::from_ns(horizon), p.uid);
        }
        // Still-live tenants are snapshotted against the horizon; they
        // stay placed, which the checker permits (placement is released
        // only by an explicit depart).
        for i in 0..self.live.len() {
            let lifetime = horizon.saturating_sub(self.live[i].arrived_ns);
            let t = Self::snapshot(&self.live[i], lifetime);
            self.tenants.push(t);
        }
        self.summary()
    }

    /// Full sync: advances every host, through the deferred barriers, to
    /// the same barrier on the virtual clock, serially or through the
    /// stepping pool. Every failure, recovery, placement and epoch
    /// boundary is one: it reads or writes state across hosts.
    fn step_all(&mut self, until: SimTime, sample_now_ns: Option<u64>, pool: Option<&StepPool>) {
        let threads = self.spec.threads_per_host as u64;
        match pool {
            Some(p) => p.run_round(
                &mut self.hosts,
                &self.deferred,
                until,
                sample_now_ns,
                threads,
            ),
            None => {
                for h in &mut self.hosts {
                    h.step_round(&self.deferred, until, sample_now_ns, threads);
                }
            }
        }
        self.deferred.clear();
        #[cfg(test)]
        tests::audit_full_sync(self, until);
    }

    /// Per-host barrier for a departure or resize, which touches only its
    /// VM's `host` (`None` for a VM that never placed): only that host
    /// steps to `at` now; the rest replay `at` at the next full sync.
    fn step_host(&mut self, host: Option<usize>, at: SimTime) {
        #[cfg(test)]
        let before = tests::host_clocks(self);
        self.deferred.push(at);
        if let Some(h) = host {
            self.hosts[h].catch_up(&self.deferred);
        }
        #[cfg(test)]
        tests::audit_host_step(self, &before, host);
    }

    fn apply(&mut self, ev: LifecycleEvent) {
        match ev.op {
            VmOp::Arrive { uid, vcpus, prio } => self.arrive(ev.at, uid, vcpus, prio),
            VmOp::Depart { uid } => self.depart(ev.at, uid),
            VmOp::Resize { uid, quota_pct } => self.resize(uid, quota_pct),
        }
    }

    /// Refreshes the reusable snapshot of every host the policy can
    /// choose from (held in `views_scratch`; placement events are too
    /// frequent to allocate a fresh snapshot per decision). Failed hosts
    /// are excluded entirely — a policy cannot place onto a host it
    /// cannot see, which is what keeps the no-placement-onto-failed-host
    /// law structural. Views carry their host id and are pushed in
    /// ascending host order, so lookups after a decision go through
    /// [`Cluster::ensure_fits`], never by index.
    ///
    /// One pass over the live VMs sums each host's residents into
    /// `probed_scratch`, then one pass over the hosts builds the views:
    /// O(hosts + live) per decision. Each host's sum starts at 0.0 and
    /// adds its residents in `live` order, so it is bit-identical to a
    /// per-host scan of `live` (the `shadow` feature and the unit tests
    /// audit every refresh).
    fn refresh_host_views(&mut self) {
        let mode = self.mode;
        let probed = &mut self.probed_scratch;
        probed.clear();
        probed.resize(self.hosts.len(), 0.0);
        for lv in &self.live {
            let host = &mut self.hosts[lv.host];
            if !host.failed {
                probed[lv.host] += probed_capacity(&mut host.m, lv.vm_idx, lv.vcpus, mode);
            }
        }
        let views = &mut self.views_scratch;
        views.clear();
        for (h, host) in self.hosts.iter_mut().enumerate() {
            if host.failed {
                continue;
            }
            views.push(HostView {
                host: h,
                threads: self.spec.threads_per_host,
                committed: host.committed,
                cap: self.spec.overcommit_cap(),
                probed_capacity: probed[h],
                llc_pressure: host.m.llc_pressure(),
            });
        }
        #[cfg(any(test, feature = "shadow"))]
        audit_views(self);
    }

    /// Verifies a placement decision against the destination's cap and
    /// liveness. The error names every field involved, so a policy bug —
    /// or a recovery re-admission onto a host that refilled while the VM
    /// was stranded — is diagnosable from the message alone instead of
    /// being silently accepted into an over-cap host.
    fn ensure_fits(&self, h: usize, req: &PlacementReq) -> Result<(), String> {
        let view = self
            .views_scratch
            .binary_search_by_key(&h, |v| v.host)
            .map(|i| &self.views_scratch[i])
            .map_err(|_| {
                format!(
                    "policy placed uid {} on host {h} which is failed or unknown \
                 (views cover {} hosts)",
                    req.uid,
                    self.views_scratch.len()
                )
            })?;
        if !view.fits(req) {
            return Err(format!(
                "placement overflows host {h}: committed {} + vcpus {} \
                 exceeds overcommit_cap {} (uid {})",
                view.committed, req.vcpus, view.cap, req.uid
            ));
        }
        Ok(())
    }

    /// Current degraded-mode shed level: 1 while any evacuation is backed
    /// up (shed Batch admissions), 2 once an evacuee has been retried
    /// twice without finding headroom (shed Standard too). Critical
    /// admissions are never shed.
    fn shed_level(&self) -> u8 {
        if self.pending_evac.iter().any(|p| p.retries >= 2) {
            2
        } else if self.pending_evac.is_empty() {
            0
        } else {
            1
        }
    }

    fn arrive(&mut self, at: SimTime, uid: u32, vcpus: usize, prio: PriorityClass) {
        self.admitted += 1;
        self.fleet_sink.emit(
            at,
            EventKind::VmAdmitted {
                uid,
                vcpus: vcpus as u16,
                prio,
            },
        );
        // Fleet degraded mode: while evacuations are backed up, shed the
        // lowest tiers at admission instead of letting them compete with
        // evacuees for the remaining headroom.
        let shed = match self.shed_level() {
            2 => prio != PriorityClass::Critical,
            1 => prio == PriorityClass::Batch,
            _ => false,
        };
        if shed {
            self.rejected += 1;
            self.shed_admissions += 1;
            return;
        }
        self.refresh_host_views();
        let req = PlacementReq { uid, vcpus };
        let Some(h) = self.policy.place(&req, &self.views_scratch) else {
            self.rejected += 1;
            return;
        };
        self.ensure_fits(h, &req).unwrap_or_else(|e| panic!("{e}"));
        let threads = self.spec.threads_per_host;
        let vm_idx = self.hosts[h]
            .m
            .add_vm(VmSpec::floating(vcpus, (0..threads).collect()));
        let stats = self.install_guest(h, vm_idx, uid, vcpus, None, None);
        self.hosts[h].committed += vcpus as u64;
        self.placed += 1;
        self.fleet_sink.emit(
            at,
            EventKind::VmPlaced {
                uid,
                host: h as u16,
                vcpus: vcpus as u16,
                occupied: self.hosts[h].committed,
                cap: self.spec.overcommit_cap(),
            },
        );
        self.live.push(LiveVm {
            uid,
            prio,
            vcpus,
            host: h,
            vm_idx,
            stats,
            arrived_ns: at.ns(),
        });
    }

    /// Installs the guest scheduler and latency workload into a VM slot —
    /// shared by first placement (fresh stats), live migration (the
    /// tenant's histograms follow it), and post-outage resumption.
    /// `snapshot` seeds the fresh vSched instance's vcap from the source
    /// host's probe state (drain handoff); without one the instance
    /// probes from nominal, like a cold boot.
    fn install_guest(
        &mut self,
        h: usize,
        vm_idx: usize,
        uid: u32,
        vcpus: usize,
        stats: Option<Rc<RefCell<LatencyStats>>>,
        snapshot: Option<&ProbeSnapshot>,
    ) -> Rc<RefCell<LatencyStats>> {
        // Migration/resume forks are salted so they can never collide
        // with any uid's arrival fork; they are only drawn under chaos,
        // keeping fault-free runs byte-identical.
        let rng = match stats {
            None => self.wl_rng.fork(uid as u64),
            Some(_) => self.wl_rng.fork(uid as u64 ^ 0x4D16_8A7E),
        };
        let mode = self.mode;
        let host = &mut self.hosts[h];
        if mode == GuestMode::Vsched {
            host.m
                .with_vm(vm_idx, |g, p| vsched::install(g, p, VschedConfig::full()));
            if let Some(snap) = snapshot {
                host.m.with_vm(vm_idx, |g, _p| {
                    let vs = vsched::instance(g).expect("vsched just installed");
                    for (v, entry) in snap.iter().enumerate().take(vcpus) {
                        if let Some((cap, core)) = entry {
                            vs.vcap.seed_capacity(VcpuId(v), *cap, *core);
                        }
                    }
                });
            }
        }
        // Open-loop latency server at ~50% of the VM's nominal capacity:
        // the same load point the single-host experiments use.
        let service = work_ms(0.5);
        let interarrival = service / 1024.0 / vcpus as f64 / 0.5;
        let cfg = LatencyServerCfg::new(vcpus, service, interarrival);
        let stats = match stats {
            None => {
                let (server, stats) = LatencyServer::new(cfg, rng);
                host.m.set_workload(vm_idx, Box::new(server));
                stats
            }
            Some(stats) => {
                let server = LatencyServer::with_stats(cfg, rng, Rc::clone(&stats));
                host.m.set_workload(vm_idx, Box::new(server));
                stats
            }
        };
        host.m.start_vm_workload(vm_idx);
        stats
    }

    /// Takes a host down. Every resident is evacuated by live migration
    /// in arrival order; victims with no headroom anywhere go to the
    /// pending queue (quiesced on the dead source, still counted in its
    /// committed vCPUs). A failure landing on an already-down host is
    /// dropped silently — there is nothing further to take away.
    fn fail_host(&mut self, fault: &HostFault) {
        let h = fault.host as usize;
        if h >= self.hosts.len() || self.hosts[h].failed {
            return;
        }
        let kind = fault
            .op
            .fail_kind()
            .expect("degrade never reaches fail_host");
        let victims: Vec<u32> = self
            .live
            .iter()
            .filter(|lv| lv.host == h)
            .map(|lv| lv.uid)
            .collect();
        self.fleet_sink.emit(
            fault.at,
            EventKind::HostFailed {
                host: h as u16,
                kind,
                residents: victims.len() as u16,
            },
        );
        self.host_failures += 1;
        self.hosts[h].failed = true;
        self.hosts[h].failed_at_ns = fault.at.ns();
        self.recoveries
            .push(Reverse((fault.at.ns().saturating_add(fault.down_ns), h)));
        for uid in victims {
            let i = self
                .live
                .iter()
                .position(|lv| lv.uid == uid)
                .expect("victim is live");
            // Drain handoff: capture the source instance's probe state
            // before quiescing tears the hooks down. Crash victims
            // always re-probe cold — the state died with the host.
            let snapshot = (kind == HostFailKind::Drain
                && self.migration_mode == MigrationMode::Handoff
                && self.mode == GuestMode::Vsched)
                .then(|| self.capture_probe_state(i))
                .flatten();
            let vm_idx = self.live[i].vm_idx;
            self.hosts[h].m.quiesce_vm(vm_idx);
            if !self.try_migrate(fault.at, uid, snapshot.as_ref()) {
                self.pending_evac.push(PendingEvac {
                    uid,
                    retries: 0,
                    next_retry_ns: fault.at.ns() + EPOCH_NS,
                    snapshot,
                });
            }
        }
    }

    /// Reads the per-vCPU capacities a victim's vSched instance has
    /// published so far (`None` without an instance — CFS guests).
    fn capture_probe_state(&mut self, i: usize) -> Option<ProbeSnapshot> {
        let (host, vm_idx, vcpus) = {
            let lv = &self.live[i];
            (lv.host, lv.vm_idx, lv.vcpus)
        };
        self.hosts[host].m.with_vm(vm_idx, |g, _p| {
            vsched::instance(g).map(|vs| {
                (0..vcpus)
                    .map(|v| {
                        vs.vcap.cap[v]
                            .initialized()
                            .then(|| (vs.vcap.cap[v].get(), vs.vcap.core_cap[v]))
                    })
                    .collect()
            })
        })
    }

    /// Tries to re-place an evacuee through the normal placement policy
    /// (over views that exclude failed hosts). On success the VM boots on
    /// the destination and a `VmMigrated` event records the move with
    /// both hosts' post-move occupancy; `false` means no host had
    /// headroom and the caller keeps it pending.
    fn try_migrate(&mut self, at: SimTime, uid: u32, snapshot: Option<&ProbeSnapshot>) -> bool {
        let i = self
            .live
            .iter()
            .position(|lv| lv.uid == uid)
            .expect("evacuee is live");
        let (vcpus, from) = (self.live[i].vcpus, self.live[i].host);
        self.refresh_host_views();
        let req = PlacementReq { uid, vcpus };
        let Some(h) = self.policy.place(&req, &self.views_scratch) else {
            return false;
        };
        self.ensure_fits(h, &req).unwrap_or_else(|e| panic!("{e}"));
        let threads = self.spec.threads_per_host;
        let vm_idx = self.hosts[h]
            .m
            .add_vm(VmSpec::floating(vcpus, (0..threads).collect()));
        let stats = Rc::clone(&self.live[i].stats);
        self.install_guest(h, vm_idx, uid, vcpus, Some(stats), snapshot);
        self.hosts[from].committed -= vcpus as u64;
        self.hosts[h].committed += vcpus as u64;
        self.fleet_sink.emit(
            at,
            EventKind::VmMigrated {
                uid,
                from: from as u16,
                to: h as u16,
                vcpus: vcpus as u16,
                from_occupied: self.hosts[from].committed,
                to_occupied: self.hosts[h].committed,
                cap: self.spec.overcommit_cap(),
            },
        );
        self.live[i].host = h;
        self.live[i].vm_idx = vm_idx;
        self.migrations += 1;
        true
    }

    /// Brings a host back. Stranded evacuees still sited on it resume in
    /// place — they were never unplaced, so no event is emitted; they get
    /// a fresh guest boot (cold probing: the quiesced instance's state
    /// died with the outage) and leave the pending queue.
    fn recover_host(&mut self, at_ns: u64, h: usize) {
        debug_assert!(self.hosts[h].failed);
        self.hosts[h].failed = false;
        let down_ns = at_ns - self.hosts[h].failed_at_ns;
        self.fleet_sink.emit(
            SimTime::from_ns(at_ns),
            EventKind::HostRecovered {
                host: h as u16,
                down_ns,
            },
        );
        for p in std::mem::take(&mut self.pending_evac) {
            let i = self
                .live
                .iter()
                .position(|lv| lv.uid == p.uid)
                .expect("pending evacuee is live");
            if self.live[i].host != h {
                self.pending_evac.push(p);
                continue;
            }
            let (vm_idx, vcpus, stats) = (
                self.live[i].vm_idx,
                self.live[i].vcpus,
                Rc::clone(&self.live[i].stats),
            );
            self.install_guest(h, vm_idx, p.uid, vcpus, Some(stats), None);
        }
    }

    /// Retries backed-up evacuations at an epoch barrier: each due entry
    /// gets one placement attempt, then exponential epoch backoff, then —
    /// past [`EVAC_MAX_RETRIES`] — a forced departure.
    fn service_pending(&mut self, now_ns: u64) {
        if self.pending_evac.is_empty() {
            return;
        }
        for mut p in std::mem::take(&mut self.pending_evac) {
            if p.next_retry_ns > now_ns {
                self.pending_evac.push(p);
                continue;
            }
            if self.try_migrate(SimTime::from_ns(now_ns), p.uid, p.snapshot.as_ref()) {
                continue;
            }
            p.retries += 1;
            if p.retries > EVAC_MAX_RETRIES {
                // Out of retries: the tenant's session is lost.
                self.evacuations_failed += 1;
                self.force_depart(SimTime::from_ns(now_ns), p.uid);
            } else {
                p.next_retry_ns = now_ns + (EPOCH_NS << p.retries);
                self.pending_evac.push(p);
            }
        }
    }

    /// Departs a pending evacuee that will never be placed. Its VM was
    /// already quiesced when the host failed; only the bookkeeping and
    /// the departure event remain (departing from a failed host is legal
    /// — departure releases placement wherever the VM sits).
    fn force_depart(&mut self, at: SimTime, uid: u32) {
        let i = self
            .live
            .iter()
            .position(|lv| lv.uid == uid)
            .expect("pending evacuee is live");
        let lv = self.live.remove(i);
        self.hosts[lv.host].committed -= lv.vcpus as u64;
        self.fleet_sink.emit(
            at,
            EventKind::VmDeparted {
                uid,
                host: lv.host as u16,
                vcpus: lv.vcpus as u16,
            },
        );
        let lifetime = at.ns().saturating_sub(lv.arrived_ns);
        let t = Self::snapshot(&lv, lifetime);
        self.tenants.push(t);
    }

    fn depart(&mut self, at: SimTime, uid: u32) {
        // Rejected arrivals still get a Depart in the schedule; there is
        // nothing to tear down for them.
        let Some(i) = self.live.iter().position(|lv| lv.uid == uid) else {
            return;
        };
        let lv = self.live.remove(i);
        // A stranded evacuee can reach its scheduled departure while
        // still waiting for headroom: it was already quiesced when its
        // host failed, and its pending retry must be cancelled.
        if let Some(pi) = self.pending_evac.iter().position(|p| p.uid == uid) {
            self.pending_evac.remove(pi);
        } else {
            self.hosts[lv.host].m.quiesce_vm(lv.vm_idx);
        }
        let host = &mut self.hosts[lv.host];
        host.committed -= lv.vcpus as u64;
        self.fleet_sink.emit(
            at,
            EventKind::VmDeparted {
                uid,
                host: lv.host as u16,
                vcpus: lv.vcpus as u16,
            },
        );
        let lifetime = at.ns().saturating_sub(lv.arrived_ns);
        let t = Self::snapshot(&lv, lifetime);
        self.tenants.push(t);
    }

    /// Vertical resize via per-vCPU bandwidth caps: `quota_pct` of a
    /// fixed period per vCPU, 100 restoring the uncapped allocation.
    fn resize(&mut self, uid: u32, quota_pct: u8) {
        let Some(lv) = self.live.iter().find(|lv| lv.uid == uid) else {
            return;
        };
        // Nothing to throttle while the VM's host is down; its frozen
        // machine must not be touched at a stale local clock.
        if self.hosts[lv.host].failed {
            return;
        }
        let qp = if quota_pct >= 100 {
            None
        } else {
            Some((RESIZE_PERIOD_NS * quota_pct as u64 / 100, RESIZE_PERIOD_NS))
        };
        for v in 0..lv.vcpus {
            self.hosts[lv.host].m.set_bandwidth(lv.vm_idx, v, qp);
        }
    }

    fn snapshot(lv: &LiveVm, lifetime_ns: u64) -> TenantStats {
        let s = lv.stats.borrow();
        TenantStats {
            uid: lv.uid,
            prio: lv.prio,
            vcpus: lv.vcpus,
            lifetime_ns,
            e2e: s.e2e.clone(),
            completed: s.completed,
            dropped: s.dropped,
        }
    }

    /// Folds the run's outcome; moves the tenant records out (the run
    /// is over, and they are the largest thing it still holds).
    fn summary(&mut self) -> SloSummary {
        let util: Vec<Vec<f64>> = self.hosts.iter().map(|h| h.util.clone()).collect();
        let mut s = slo::summarize(
            std::mem::take(&mut self.tenants),
            &util,
            self.admitted,
            self.placed,
            self.rejected,
        );
        // Fold order is fleet collector then hosts by ascending id — a
        // pure function of host id, never of which worker finished a
        // round first (`trace::CheckReport::fold` keeps the first
        // violation in fold order).
        let report = |c: &SharedCollector| {
            c.borrow()
                .checker
                .as_ref()
                .expect("collector has a checker")
                .report()
        };
        let fleet_report = report(&self.fleet_collector);
        let folded = trace::CheckReport::fold(
            std::iter::once(fleet_report.clone())
                .chain(self.hosts.iter().map(|h| report(&h.collector))),
        );
        s.trace_events = folded.events;
        s.violations = folded.violations;
        s.first_law = folded.first_law();
        s.unplaced = fleet_report.unplaced_admissions;
        s.stranded = fleet_report.stranded_vms;
        s.host_failures = self.host_failures;
        s.migrations = self.migrations;
        s.evacuations_failed = self.evacuations_failed;
        s.shed_admissions = self.shed_admissions;
        s
    }
}

/// What the placement layer believes this VM's vCPUs can deliver, in
/// vcap units (0..=1024 per vCPU). vSched guests report what their
/// probing measured; CFS guests (and vSched instances that have not
/// probed yet, whose vcap defaults to full capacity) report nominal.
fn probed_capacity(m: &mut Machine, vm_idx: usize, vcpus: usize, mode: GuestMode) -> f64 {
    match mode {
        GuestMode::Cfs => 1024.0 * vcpus as f64,
        GuestMode::Vsched => m.with_vm(vm_idx, |g, _p| match vsched::instance(g) {
            Some(vs) => (0..vcpus)
                .map(|i| vs.vcap.capacity(VcpuId(i)).clamp(0.0, 1024.0))
                .sum(),
            None => 1024.0 * vcpus as f64,
        }),
    }
}

/// Runs after every `refresh_host_views` under the `shadow` feature and in
/// this crate's unit tests: the views must cover exactly the non-failed
/// hosts, in ascending host order, each with the bit-identical probed
/// capacity of a naive per-host scan of the live VMs.
#[cfg(any(test, feature = "shadow"))]
fn audit_views(c: &mut Cluster) {
    let mut views = c.views_scratch.iter();
    for h in 0..c.hosts.len() {
        if c.hosts[h].failed {
            continue;
        }
        let v = views.next().expect("every non-failed host has a view");
        assert_eq!(v.host, h, "shadow: views skip or reorder host {h}");
        let mut naive = 0.0;
        for lv in c.live.iter().filter(|lv| lv.host == h) {
            naive += probed_capacity(&mut c.hosts[h].m, lv.vm_idx, lv.vcpus, c.mode);
        }
        assert_eq!(
            v.probed_capacity.to_bits(),
            naive.to_bits(),
            "shadow: host {h}: one-pass {} vs per-host scan {naive}",
            v.probed_capacity
        );
    }
    assert!(views.next().is_none(), "shadow: a failed host has a view");
    #[cfg(test)]
    tests::AUDITED.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::policy_by_name;
    use std::cell::Cell;

    thread_local! {
        /// `refresh_host_views` calls audited on this test thread.
        pub(super) static AUDITED: Cell<u64> = const { Cell::new(0) };
    }

    thread_local! {
        /// Per-host barriers and full syncs audited on this test thread.
        static HOST_STEPS: Cell<u64> = const { Cell::new(0) };
        static FULL_SYNCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Every host's `(clock, events dispatched)`.
    pub(super) fn host_clocks(c: &Cluster) -> Vec<(SimTime, u64)> {
        c.hosts
            .iter()
            .map(|h| (h.m.q.now(), h.m.events_dispatched))
            .collect()
    }

    /// Runs after every per-host barrier in this crate's unit tests: no
    /// host but `host` moved, and a live `host` reached the barrier.
    pub(super) fn audit_host_step(c: &Cluster, before: &[(SimTime, u64)], host: Option<usize>) {
        let at = *c.deferred.last().expect("the barrier was deferred");
        for (h, (after, before)) in host_clocks(c).iter().zip(before).enumerate() {
            if Some(h) == host && !c.hosts[h].failed {
                assert_eq!(after.0, at, "host {h} did not reach its own barrier");
            } else {
                assert_eq!(
                    after, before,
                    "barrier at {at:?} for {host:?} stepped host {h}"
                );
            }
        }
        HOST_STEPS.with(|n| n.set(n.get() + 1));
    }

    /// Runs after every full sync in this crate's unit tests: every live
    /// host stands at the barrier and no deferred barrier remains.
    pub(super) fn audit_full_sync(c: &Cluster, until: SimTime) {
        assert!(c.deferred.is_empty(), "deferred barriers outlived a sync");
        for (h, host) in c.hosts.iter().enumerate() {
            assert_eq!(host.replayed, 0, "host {h} kept a replay cursor");
            if !host.failed {
                assert_eq!(host.m.q.now(), until, "host {h} missed the sync");
            }
        }
        FULL_SYNCS.with(|n| n.set(n.get() + 1));
    }

    #[test]
    fn cluster_runs_clean_and_accounts_every_admission() {
        let mut c = Cluster::new(
            FleetSpec::small(2, 2, 1),
            GuestMode::Vsched,
            policy_by_name("first-fit").unwrap(),
            11,
        );
        let s = c.run();
        assert!(s.admitted > 0, "1s of churn must admit something");
        assert_eq!(s.admitted, s.placed + s.rejected);
        assert_eq!(s.violations, 0, "first law broken: {:?}", s.first_law);
        assert_eq!(s.unplaced, s.rejected as usize);
        assert!(s.completed > 0, "placed tenants must complete requests");
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut c = Cluster::new(
                FleetSpec::small(2, 2, 1),
                GuestMode::Cfs,
                policy_by_name("worst-fit").unwrap(),
                seed,
            );
            let s = c.run();
            (
                s.admitted,
                s.placed,
                s.rejected,
                s.completed,
                s.p50_ms.to_bits(),
                s.p99_ms.to_bits(),
                s.fairness.to_bits(),
                s.trace_events,
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "seed must reach the outcome");
    }

    #[test]
    fn pool_stepping_matches_serial_byte_for_byte() {
        let digest = |workers: usize| {
            let mut c = Cluster::with_threads(
                FleetSpec::small(2, 2, 1),
                GuestMode::Vsched,
                policy_by_name("probe-aware").unwrap(),
                9,
                NonZeroUsize::new(workers).unwrap(),
            );
            let s = c.run();
            let util: Vec<Vec<u64>> = c
                .host_util()
                .iter()
                .map(|h| h.iter().map(|u| u.to_bits()).collect())
                .collect();
            (
                s.admitted,
                s.placed,
                s.completed,
                s.p50_ms.to_bits(),
                s.p99_ms.to_bits(),
                s.trace_events,
                s.violations,
                util,
            )
        };
        let serial = digest(1);
        assert_eq!(serial, digest(2));
        assert_eq!(serial, digest(8), "workers beyond host count are capped");
    }

    #[test]
    fn departures_and_resizes_step_only_their_host() {
        let spec = FleetSpec::small(4, 2, 2);
        let horizon = SimTime::from_ns(spec.horizon_ns);
        let run = |workers: usize| {
            let counts = || (HOST_STEPS.with(Cell::get), FULL_SYNCS.with(Cell::get));
            let (steps0, syncs0) = counts();
            let mut c = Cluster::with_threads(
                spec.clone(),
                GuestMode::Vsched,
                policy_by_name("worst-fit").unwrap(),
                13,
                NonZeroUsize::new(workers).unwrap(),
            );
            assert_eq!(c.effective_workers(), workers);
            let s = c.run();
            let (steps, syncs) = counts();
            let (mut departs, mut resizes) = (0, 0);
            for e in c.schedule().iter().filter(|e| e.at <= horizon) {
                match e.op {
                    VmOp::Arrive { .. } => {}
                    VmOp::Depart { .. } => departs += 1,
                    VmOp::Resize { .. } => resizes += 1,
                }
            }
            assert!(departs > 0 && resizes > 0, "churn must depart and resize");
            assert_eq!(steps - steps0, departs + resizes);
            assert!(syncs - syncs0 >= s.admitted, "every arrival is a full sync");
            (
                s.completed,
                s.p99_ms.to_bits(),
                s.trace_events,
                c.events_dispatched(),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        // The counts this fleet produced when every departure and resize
        // stepped all hosts: replaying the deferred barriers must make
        // exactly the same `run_until` calls on every host. (The event
        // count was 56 306 while a host without SMT refreshed a thread as
        // its own sibling: 61 duplicate burst completions, each dispatched
        // as a stale event.)
        assert_eq!((serial.2, serial.3), (65_618, 56_245));
    }

    #[test]
    fn effective_workers_cap_at_host_count() {
        let c = Cluster::with_threads(
            FleetSpec::small(2, 2, 1),
            GuestMode::Cfs,
            policy_by_name("first-fit").unwrap(),
            1,
            NonZeroUsize::new(16).unwrap(),
        );
        assert_eq!(c.effective_workers(), 2, "2 hosts bound the pool");
    }

    #[test]
    fn placement_overflow_error_names_every_field() {
        let mut c = Cluster::new(
            FleetSpec::small(2, 2, 1),
            GuestMode::Cfs,
            policy_by_name("first-fit").unwrap(),
            1,
        );
        c.refresh_host_views();
        let req = PlacementReq { uid: 7, vcpus: 99 };
        assert_eq!(
            c.ensure_fits(0, &req).unwrap_err(),
            "placement overflows host 0: committed 0 + vcpus 99 \
             exceeds overcommit_cap 3 (uid 7)"
        );
        assert!(
            c.ensure_fits(5, &req)
                .unwrap_err()
                .contains("failed or unknown"),
            "out-of-range hosts are named too"
        );
    }

    #[test]
    fn chaos_day_evacuates_every_resident() {
        use crate::chaos::{FleetChaosPlan, FleetChaosSpec};
        let spec = FleetSpec::small(3, 4, 2);
        let plan = FleetChaosPlan::generate(21, &FleetChaosSpec::for_fleet(3, spec.horizon_ns));
        let mut c = Cluster::new(
            spec,
            GuestMode::Vsched,
            policy_by_name("worst-fit").unwrap(),
            21,
        );
        c.set_chaos(plan);
        let s = c.run();
        assert!(s.host_failures > 0, "2s of chaos must strike");
        assert_eq!(s.violations, 0, "law broken: {:?}", s.first_law);
        assert_eq!(s.stranded, 0, "every victim migrated or departed");
        assert_eq!(s.admitted, s.placed + s.rejected);
        assert!(s.completed > 0);
    }

    #[test]
    fn one_pass_views_match_per_host_scans_through_a_chaos_day() {
        use crate::chaos::{FleetChaosPlan, FleetChaosSpec, HostOp};
        let spec = FleetSpec::small(3, 4, 2);
        let plan = FleetChaosPlan::generate(21, &FleetChaosSpec::for_fleet(3, spec.horizon_ns));
        for op in [HostOp::Crash, HostOp::Drain] {
            assert!(
                plan.fail_events().any(|f| f.op == op),
                "the plan must {} a host",
                op.name()
            );
        }
        // Serial stepping, so a failed audit panics instead of leaving
        // pool workers waiting on a coordinator that has unwound.
        let mut c = Cluster::with_threads(
            spec,
            GuestMode::Vsched,
            policy_by_name("probe-aware").unwrap(),
            21,
            NonZeroUsize::MIN,
        );
        c.set_chaos(plan);
        let before = AUDITED.with(Cell::get);
        let s = c.run();
        let audited = AUDITED.with(Cell::get) - before;
        assert!(s.host_failures > 0, "2s of chaos must strike");
        assert!(s.migrations > 0, "victims must live-migrate");
        assert!(
            audited >= s.admitted - s.shed_admissions + s.migrations,
            "every placement decision audits its views ({audited} audits)"
        );
    }

    #[test]
    fn tiny_cap_forces_clean_rejections() {
        // One thread per host: a cap of one vCPU.
        let mut c = Cluster::new(
            FleetSpec::small(2, 1, 1),
            GuestMode::Cfs,
            policy_by_name("probe-aware").unwrap(),
            3,
        );
        let s = c.run();
        assert!(s.rejected > 0, "cap of 1 vCPU per host must reject");
        assert_eq!(s.violations, 0);
    }
}
