//! Streaming conservation-law checker.
//!
//! Consumes the event stream online (no buffering of the full run) and
//! validates the simulator's structural invariants:
//!
//! * a task runs on at most one vCPU at any instant, and switch-in/out
//!   events pair up per vCPU;
//! * per-vCPU host accounting conserves wall time: every waiting window
//!   (preempt/throttle/kick → resume or halt) is fully covered by
//!   `StealAccrue` deltas, so `run + steal + idle == wall`;
//! * accrued work never exceeds `capacity × active-time`;
//! * per-runqueue `min_vruntime` never moves backwards across switches;
//! * every ivh pull attempt resolves to exactly one of completed/abandoned.
//!
//! The first violation is retained with the events leading up to it, so a
//! failing figure run points straight at the broken transition.

use crate::event::{EventKind, IvhPhase, PreemptReason, PriorityClass, TraceEvent};
use crate::table::VcpuTable;
use simcore::SimTime;
use std::collections::HashMap;
use std::fmt;

/// How many events of context precede a reported violation.
const CONTEXT: usize = 8;

/// Max work per nanosecond of active time (1024 = a full-speed core).
const CAP_CEILING: f64 = 1024.0;

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A task was switched in while already running on another vCPU.
    DoubleRun,
    /// Switch-in on a vCPU whose previous task never switched out.
    SwitchInWhileBusy,
    /// Switch-out of a task that was not the vCPU's current.
    MismatchedSwitchOut,
    /// A runqueue's `min_vruntime` moved backwards.
    VruntimeInversion,
    /// A waiting window's steal deltas do not sum to its wall time.
    StealAccountingGap,
    /// Steal accrued to a vCPU that was not waiting.
    StealWhileNotWaiting,
    /// A vCPU resumed while already running (host double-schedule).
    RunOverlap,
    /// A run delta accrued more work than capacity × active-time allows.
    WorkExceedsCapacity,
    /// An ivh pull completed/abandoned with no outstanding attempt, or
    /// resolved twice.
    IvhUnmatchedResolution,
    /// A second ivh pull attempt targeted a vCPU with one still pending.
    IvhDuplicateAttempt,
    /// A task migrated while recorded as running.
    MigrateWhileRunning,
    /// A bandwidth limit was installed with `quota > period`.
    QuotaExceedsPeriod,
    /// A vCPU throttled again without an intervening unthrottle (resume,
    /// halt, or wake) — quota refill never released it.
    ThrottleWithoutRefill,
    /// PELT load grew across an idle gap (sleep decay must be monotone).
    PeltLoadIncrease,
    /// DegradedEnter while already degraded, DegradedExit while not, or an
    /// exit whose `after_ns` disagrees with the observed enter time.
    DegradedStateMismatch,
    /// A placement left a host with more committed vCPUs than its
    /// overcommit cap allows (`occupied > cap` on a `VmPlaced`).
    OvercommitCapExceeded,
    /// A VM was placed without a preceding admission.
    PlacementWithoutAdmission,
    /// A VM was placed a second time while already placed.
    DuplicatePlacement,
    /// A VM departed without ever being placed, or from the wrong host.
    DepartWithoutPlacement,
    /// A VM was placed or migrated onto a host that had failed and not
    /// yet recovered.
    PlacementOntoFailedHost,
    /// A VM was migrated while not placed, or away from a host other
    /// than the one it was placed on.
    MigrationWithoutPlacement,
    /// A migration's claimed source/destination occupancy disagrees with
    /// the occupancy reconstructed from prior placements: the source
    /// must lose exactly `vcpus` and the destination gain exactly
    /// `vcpus`.
    MigrationOccupancyMismatch,
    /// HostFailed while already failed, HostRecovered while not failed,
    /// or a recovery whose `down_ns` disagrees with the observed failure
    /// time.
    HostFailureStateMismatch,
    /// A `DomainSwitch` announced a zero-length slice, a slice longer than
    /// the period, or closed a rotation cycle whose slices do not sum to
    /// the period.
    DomainSliceSumMismatch,
    /// A vCPU of one tenant class resumed while the domain scheduler had a
    /// different class's slice active.
    CrossDomainExecution,
    /// A `StealAccounted` record does not conserve time: `entitled_ns`
    /// disagrees with `slice_ns * threads`, or `used + stolen` exceeds the
    /// entitlement.
    StealConservationMismatch,
    /// An `LlcOccupancySample` reported more occupied bytes than the
    /// socket's LLC holds.
    LlcOccupancyOverflow,
    /// An `LlcOccupancySample` breaks conservation: its cumulative
    /// inserted/evicted/decayed counters moved backwards, or
    /// `occupied != inserted - evicted - decayed` beyond float slack.
    LlcConservationMismatch,
    /// A `CacheAwarePick` chose a vCPU whose LLC-domain pressure exceeds
    /// the best published estimate by more than the preference margin —
    /// the pick is not justified by the estimates it claims to act on.
    CacheAwarePickUnjustified,
}

/// How far above the best published LLC-domain pressure a cache-aware
/// pick may land and still count as justified. Cache-aware bvs picks
/// with this same margin.
pub const CACHE_PICK_MARGIN: f64 = 0.15;

impl ViolationKind {
    /// Stable machine-readable law identifier. The chaos-seed shrinker
    /// compares these to decide whether a reduced fault plan still fails
    /// the *same* law, so the names are part of the repro-file format —
    /// treat them as append-only.
    pub fn law_name(&self) -> &'static str {
        match self {
            ViolationKind::DoubleRun => "double-run",
            ViolationKind::SwitchInWhileBusy => "switch-in-while-busy",
            ViolationKind::MismatchedSwitchOut => "mismatched-switch-out",
            ViolationKind::VruntimeInversion => "vruntime-inversion",
            ViolationKind::StealAccountingGap => "steal-accounting-gap",
            ViolationKind::StealWhileNotWaiting => "steal-while-not-waiting",
            ViolationKind::RunOverlap => "run-overlap",
            ViolationKind::WorkExceedsCapacity => "work-exceeds-capacity",
            ViolationKind::IvhUnmatchedResolution => "ivh-unmatched-resolution",
            ViolationKind::IvhDuplicateAttempt => "ivh-duplicate-attempt",
            ViolationKind::MigrateWhileRunning => "migrate-while-running",
            ViolationKind::QuotaExceedsPeriod => "quota-exceeds-period",
            ViolationKind::ThrottleWithoutRefill => "throttle-without-refill",
            ViolationKind::PeltLoadIncrease => "pelt-load-increase",
            ViolationKind::DegradedStateMismatch => "degraded-state-mismatch",
            ViolationKind::OvercommitCapExceeded => "overcommit-cap-exceeded",
            ViolationKind::PlacementWithoutAdmission => "placement-without-admission",
            ViolationKind::DuplicatePlacement => "duplicate-placement",
            ViolationKind::DepartWithoutPlacement => "depart-without-placement",
            ViolationKind::PlacementOntoFailedHost => "placement-onto-failed-host",
            ViolationKind::MigrationWithoutPlacement => "migration-without-placement",
            ViolationKind::MigrationOccupancyMismatch => "migration-occupancy-mismatch",
            ViolationKind::HostFailureStateMismatch => "host-failure-state-mismatch",
            ViolationKind::DomainSliceSumMismatch => "domain-slice-sum-mismatch",
            ViolationKind::CrossDomainExecution => "cross-domain-execution",
            ViolationKind::StealConservationMismatch => "steal-conservation-mismatch",
            ViolationKind::LlcOccupancyOverflow => "llc-occupancy-overflow",
            ViolationKind::LlcConservationMismatch => "llc-conservation-mismatch",
            ViolationKind::CacheAwarePickUnjustified => "cache-aware-pick-unjustified",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One detected violation, with the triggering event and recent context.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Classification.
    pub kind: ViolationKind,
    /// The event that exposed the inconsistency.
    pub event: TraceEvent,
    /// Human-readable specifics (expected vs observed).
    pub detail: String,
    /// Up to 8 events preceding `event`, oldest first.
    pub context: Vec<TraceEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} at {} (vm {}): {}",
            self.kind, self.event.at, self.event.vm, self.detail
        )?;
        writeln!(f, "  event: {:?}", self.event.kind)?;
        for ev in &self.context {
            writeln!(f, "  before: {} {:?}", ev.at, ev.kind)?;
        }
        Ok(())
    }
}

/// Summary of a completed check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Events observed.
    pub events: u64,
    /// Total violations detected.
    pub violations: u64,
    /// The first violation, with context.
    pub first: Option<Violation>,
    /// ivh pulls still in flight when the stream ended (not a violation).
    pub pending_ivh: usize,
    /// vCPUs still throttled when the stream ended (not a violation — the
    /// run may simply have ended mid-period).
    pub still_throttled: usize,
    /// VMs admitted but never placed by stream end (not a violation — an
    /// admission may be pending or have been rejected for lack of room).
    pub unplaced_admissions: usize,
    /// VMs still placed on a failed host at stream end. The fleet's
    /// evacuation liveness law is that every resident of a failed host
    /// is migrated or departed before the run ends, so cluster runs
    /// assert this is zero; it is informational (like
    /// `unplaced_admissions`) because a raw stream may legitimately end
    /// mid-evacuation.
    pub stranded_vms: usize,
}

impl CheckReport {
    /// Whether the stream satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }

    /// The law the first violation broke, as data rather than a panic or
    /// a rendered string — what supervised runs record and the shrinker
    /// minimizes against.
    pub fn first_law(&self) -> Option<&'static str> {
        self.first.as_ref().map(|v| v.kind.law_name())
    }

    /// Folds many collectors' reports into one verdict: counters sum and
    /// the first violation *in fold order* wins. Callers that check
    /// several collectors (a fleet cluster folds `[fleet, host 0,
    /// host 1, …]`) must pass a deterministic order — host id, not
    /// completion order — so the merged report is identical no matter
    /// how many workers produced the underlying streams.
    pub fn fold(reports: impl IntoIterator<Item = CheckReport>) -> CheckReport {
        let mut out = CheckReport {
            events: 0,
            violations: 0,
            first: None,
            pending_ivh: 0,
            still_throttled: 0,
            unplaced_admissions: 0,
            stranded_vms: 0,
        };
        for r in reports {
            out.events += r.events;
            out.violations += r.violations;
            if out.first.is_none() {
                out.first = r.first;
            }
            out.pending_ivh += r.pending_ivh;
            out.still_throttled += r.still_throttled;
            out.unplaced_admissions += r.unplaced_admissions;
            out.stranded_vms += r.stranded_vms;
        }
        out
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.first {
            None => write!(
                f,
                "{} events checked, 0 violations ({} ivh pulls in flight)",
                self.events, self.pending_ivh
            ),
            Some(v) => write!(
                f,
                "{} events checked, {} violations; first:\n{v}",
                self.events, self.violations
            ),
        }
    }
}

/// Host-side occupancy state of one vCPU, as reconstructed from events.
#[derive(Debug, Clone, Copy)]
enum HostCpu {
    /// No event seen yet; first transition initializes without checking.
    Unknown,
    /// Halted (guest idle).
    Idle,
    /// Runnable or throttled since `since`, with `steal` ns accrued so far.
    Waiting { since: SimTime, steal: u64 },
    /// On a hardware thread.
    Running,
}

/// The streaming checker. Feed with [`InvariantChecker::observe`]; collect
/// with [`InvariantChecker::report`].
#[derive(Debug)]
pub struct InvariantChecker {
    /// Per-event state in dense tables ([`VcpuTable`]): `running` is
    /// keyed by `(vm, task)`, the rest by `(vm, vcpu)`.
    running: VcpuTable<u16>,
    curr: VcpuTable<u32>,
    min_vr: VcpuTable<u64>,
    host: VcpuTable<HostCpu>,
    ivh_pending: VcpuTable<u32>,
    throttled: VcpuTable<SimTime>,
    degraded: HashMap<u16, SimTime>,
    /// Fleet VMs admitted (by uid) and awaiting placement.
    admitted: HashMap<u32, SimTime>,
    /// Fleet VMs currently placed: uid → host.
    placed: HashMap<u32, u16>,
    /// Fleet hosts currently failed/draining: host → failure time.
    failed_hosts: HashMap<u16, SimTime>,
    /// Committed-vCPU occupancy per fleet host, reconstructed from the
    /// `occupied` snapshots that placements and migrations carry.
    host_occ: HashMap<u16, u64>,
    /// Tenant class each VM was bound to by `DomainAssigned`.
    vm_class: HashMap<u16, PriorityClass>,
    /// Last cumulative (inserted, evicted, decayed) LLC counters per
    /// `(vm, socket)`, for the monotonicity half of conservation.
    llc_cumulative: HashMap<(u16, u16), (f64, f64, f64)>,
    /// The domain slice currently active: `(index, class)`.
    active_domain: Option<(u16, PriorityClass)>,
    /// Slice lengths accumulated since the current rotation cycle began
    /// (reset when a `DomainSwitch` wraps back to index 0).
    domain_cycle_ns: u64,
    recent: std::collections::VecDeque<TraceEvent>,
    events: u64,
    violations: u64,
    first: Option<Violation>,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl InvariantChecker {
    /// An empty checker.
    pub fn new() -> Self {
        Self {
            running: VcpuTable::default(),
            curr: VcpuTable::default(),
            min_vr: VcpuTable::default(),
            host: VcpuTable::default(),
            ivh_pending: VcpuTable::default(),
            throttled: VcpuTable::default(),
            degraded: HashMap::new(),
            admitted: HashMap::new(),
            placed: HashMap::new(),
            failed_hosts: HashMap::new(),
            host_occ: HashMap::new(),
            vm_class: HashMap::new(),
            llc_cumulative: HashMap::new(),
            active_domain: None,
            domain_cycle_ns: 0,
            recent: std::collections::VecDeque::with_capacity(CONTEXT + 1),
            events: 0,
            violations: 0,
            first: None,
        }
    }

    /// Violations detected so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first violation, if any.
    pub fn first(&self) -> Option<&Violation> {
        self.first.as_ref()
    }

    /// Final report for the stream seen so far.
    pub fn report(&self) -> CheckReport {
        CheckReport {
            events: self.events,
            violations: self.violations,
            first: self.first.clone(),
            pending_ivh: self.ivh_pending.len(),
            still_throttled: self.throttled.len(),
            unplaced_admissions: self.admitted.len(),
            stranded_vms: self
                .placed
                .values()
                .filter(|h| self.failed_hosts.contains_key(h))
                .count(),
        }
    }

    fn flag(&mut self, kind: ViolationKind, event: TraceEvent, detail: String) {
        self.violations += 1;
        if self.first.is_none() {
            self.first = Some(Violation {
                kind,
                event,
                detail,
                context: self.recent.iter().copied().collect(),
            });
        }
    }

    /// Feeds one event through every applicable invariant.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let ev = *ev;
        match ev.kind {
            EventKind::ContextSwitch {
                vcpu,
                prev,
                next,
                min_vruntime,
                ..
            } => {
                let (vm, v) = (ev.vm, usize::from(vcpu));
                let floor = self.min_vr.get_or_default(vm, v);
                if min_vruntime < *floor {
                    let was = *floor;
                    self.flag(
                        ViolationKind::VruntimeInversion,
                        ev,
                        format!("min_vruntime {min_vruntime} after {was} on vcpu {vcpu}"),
                    );
                } else {
                    *floor = min_vruntime;
                }
                if let Some(t) = next {
                    if let Some(&on) = self.running.get(vm, t as usize) {
                        self.flag(
                            ViolationKind::DoubleRun,
                            ev,
                            format!("task {t} switched in on vcpu {vcpu} while running on {on}"),
                        );
                    }
                    if let Some(&busy) = self.curr.get(vm, v) {
                        self.flag(
                            ViolationKind::SwitchInWhileBusy,
                            ev,
                            format!("vcpu {vcpu} still runs task {busy}"),
                        );
                    }
                    self.running.insert(vm, t as usize, vcpu);
                    self.curr.insert(vm, v, t);
                }
                if let Some(t) = prev {
                    match self.curr.get(vm, v) {
                        Some(&c) if c == t => {
                            self.curr.remove(vm, v);
                            self.running.remove(vm, t as usize);
                        }
                        other => {
                            let have = other.copied();
                            self.flag(
                                ViolationKind::MismatchedSwitchOut,
                                ev,
                                format!("switch-out of task {t} but vcpu {vcpu} runs {have:?}"),
                            );
                        }
                    }
                }
            }
            EventKind::TaskMigrate { task, from, to, .. } => {
                if let Some(&on) = self.running.get(ev.vm, task as usize) {
                    self.flag(
                        ViolationKind::MigrateWhileRunning,
                        ev,
                        format!("task {task} migrated {from}->{to} while running on {on}"),
                    );
                }
            }
            EventKind::VcpuResume { vcpu, .. } => {
                let (vm, v) = (ev.vm, usize::from(vcpu));
                let state = *self.host.get(vm, v).unwrap_or(&HostCpu::Unknown);
                match state {
                    HostCpu::Running => self.flag(
                        ViolationKind::RunOverlap,
                        ev,
                        format!("vcpu {vcpu} resumed while already running"),
                    ),
                    HostCpu::Waiting { since, steal } => {
                        let wall = ev.at.since(since);
                        if steal != wall {
                            self.flag(
                                ViolationKind::StealAccountingGap,
                                ev,
                                format!(
                                    "vcpu {vcpu} waited {wall} ns but accrued {steal} ns steal"
                                ),
                            );
                        }
                    }
                    HostCpu::Idle | HostCpu::Unknown => {}
                }
                self.host.insert(vm, v, HostCpu::Running);
                self.throttled.remove(vm, v);
                if let (Some((idx, active)), Some(&class)) =
                    (self.active_domain, self.vm_class.get(&ev.vm))
                {
                    if class != active {
                        self.flag(
                            ViolationKind::CrossDomainExecution,
                            ev,
                            format!(
                                "vcpu {vcpu} of class {class:?} resumed during slice {idx} \
                                 of class {active:?}"
                            ),
                        );
                    }
                }
            }
            EventKind::VcpuPreempt { vcpu, reason } => {
                let (vm, v) = (ev.vm, usize::from(vcpu));
                if reason == PreemptReason::Throttle {
                    if let Some(&since) = self.throttled.get(vm, v) {
                        self.flag(
                            ViolationKind::ThrottleWithoutRefill,
                            ev,
                            format!("vcpu {vcpu} throttled again (throttled since {since})"),
                        );
                    }
                    self.throttled.insert(vm, v, ev.at);
                }
                let next = match reason {
                    PreemptReason::Halt => HostCpu::Idle,
                    _ => HostCpu::Waiting {
                        since: ev.at,
                        steal: 0,
                    },
                };
                self.host.insert(vm, v, next);
            }
            EventKind::VcpuWake { vcpu } => {
                let (vm, v) = (ev.vm, usize::from(vcpu));
                self.throttled.remove(vm, v);
                self.host.insert(
                    vm,
                    v,
                    HostCpu::Waiting {
                        since: ev.at,
                        steal: 0,
                    },
                );
            }
            EventKind::VcpuHalt { vcpu } => {
                let (vm, v) = (ev.vm, usize::from(vcpu));
                self.throttled.remove(vm, v);
                if let Some(HostCpu::Waiting { since, steal }) = self.host.get(vm, v).copied() {
                    let wall = ev.at.since(since);
                    if steal != wall {
                        self.flag(
                            ViolationKind::StealAccountingGap,
                            ev,
                            format!(
                                "vcpu {vcpu} halted after waiting {wall} ns with {steal} ns steal"
                            ),
                        );
                    }
                }
                self.host.insert(vm, v, HostCpu::Idle);
            }
            EventKind::StealAccrue { vcpu, delta_ns } => {
                match self.host.get_mut(ev.vm, usize::from(vcpu)) {
                    Some(HostCpu::Waiting { since, steal }) => {
                        *steal += delta_ns;
                        let elapsed = ev.at.since(*since);
                        if *steal > elapsed {
                            let got = *steal;
                            self.flag(
                                ViolationKind::StealAccountingGap,
                                ev,
                                format!(
                                    "vcpu {vcpu} accrued {got} ns steal in {elapsed} ns of waiting"
                                ),
                            );
                        }
                    }
                    Some(HostCpu::Unknown) | None => {}
                    _ => self.flag(
                        ViolationKind::StealWhileNotWaiting,
                        ev,
                        format!("vcpu {vcpu} accrued {delta_ns} ns steal while not waiting"),
                    ),
                }
            }
            EventKind::TaskCharge {
                task,
                active_ns,
                work,
                ..
            } => {
                let ceiling = CAP_CEILING * active_ns as f64 * (1.0 + 1e-6) + 1e-6;
                if work > ceiling {
                    self.flag(
                        ViolationKind::WorkExceedsCapacity,
                        ev,
                        format!(
                            "task {task} accrued {work:.1} work in {active_ns} active ns \
                             (ceiling {ceiling:.1})"
                        ),
                    );
                }
            }
            EventKind::IvhPull { target, phase, .. } => {
                let (vm, v) = (ev.vm, usize::from(target));
                match phase {
                    IvhPhase::Attempt => {
                        if let Some(&t) = self.ivh_pending.get(vm, v) {
                            self.flag(
                                ViolationKind::IvhDuplicateAttempt,
                                ev,
                                format!("pull toward vcpu {target} already pending (task {t})"),
                            );
                        }
                        if let EventKind::IvhPull { task, .. } = ev.kind {
                            self.ivh_pending.insert(vm, v, task);
                        }
                    }
                    IvhPhase::Complete | IvhPhase::Abandon => {
                        if self.ivh_pending.remove(vm, v).is_none() {
                            self.flag(
                                ViolationKind::IvhUnmatchedResolution,
                                ev,
                                format!("{phase:?} with no outstanding attempt on vcpu {target}"),
                            );
                        }
                    }
                }
            }
            EventKind::BandwidthSet {
                vcpu,
                quota_ns,
                period_ns,
            } => {
                if quota_ns > period_ns {
                    self.flag(
                        ViolationKind::QuotaExceedsPeriod,
                        ev,
                        format!("vcpu {vcpu} quota {quota_ns} ns > period {period_ns} ns"),
                    );
                }
            }
            EventKind::PeltDecay {
                task,
                load_before,
                load_after,
                idle_ns,
            } => {
                // Sleep decay multiplies by a factor in (0, 1]; allow only
                // f64 rounding slack above the starting load.
                if load_after > load_before * (1.0 + 1e-9) + 1e-9 {
                    self.flag(
                        ViolationKind::PeltLoadIncrease,
                        ev,
                        format!(
                            "task {task} load grew {load_before:.3} -> {load_after:.3} \
                             across {idle_ns} ns idle"
                        ),
                    );
                }
            }
            EventKind::DegradedEnter { .. } => {
                if let Some(&since) = self.degraded.get(&ev.vm) {
                    self.flag(
                        ViolationKind::DegradedStateMismatch,
                        ev,
                        format!("enter while degraded since {since}"),
                    );
                }
                self.degraded.insert(ev.vm, ev.at);
            }
            EventKind::DegradedExit { after_ns } => match self.degraded.remove(&ev.vm) {
                None => self.flag(
                    ViolationKind::DegradedStateMismatch,
                    ev,
                    "exit while not degraded".into(),
                ),
                Some(entered) => {
                    let wall = ev.at.since(entered);
                    if after_ns != wall {
                        self.flag(
                            ViolationKind::DegradedStateMismatch,
                            ev,
                            format!("exit claims {after_ns} ns degraded but entered {wall} ns ago"),
                        );
                    }
                }
            },
            EventKind::IvhAbandonedByWatchdog { target, .. } => {
                // Resolves the outstanding attempt exactly like an Abandon.
                if self
                    .ivh_pending
                    .remove(ev.vm, usize::from(target))
                    .is_none()
                {
                    self.flag(
                        ViolationKind::IvhUnmatchedResolution,
                        ev,
                        format!("watchdog abandon with no outstanding attempt on vcpu {target}"),
                    );
                }
            }
            EventKind::VmAdmitted { uid, .. } => {
                // Re-admitting a live uid is tolerated only after departure;
                // a duplicate admission of a placed VM surfaces at the next
                // VmPlaced as a DuplicatePlacement.
                self.admitted.insert(uid, ev.at);
            }
            EventKind::VmPlaced {
                uid,
                host,
                occupied,
                cap,
                ..
            } => {
                if self.admitted.remove(&uid).is_none() {
                    self.flag(
                        ViolationKind::PlacementWithoutAdmission,
                        ev,
                        format!("vm {uid} placed on host {host} without admission"),
                    );
                }
                if let Some(&on) = self.placed.get(&uid) {
                    self.flag(
                        ViolationKind::DuplicatePlacement,
                        ev,
                        format!("vm {uid} placed on host {host} while already on host {on}"),
                    );
                }
                if occupied > cap {
                    self.flag(
                        ViolationKind::OvercommitCapExceeded,
                        ev,
                        format!("host {host} committed {occupied} vCPUs over cap {cap}"),
                    );
                }
                if let Some(&since) = self.failed_hosts.get(&host) {
                    self.flag(
                        ViolationKind::PlacementOntoFailedHost,
                        ev,
                        format!("vm {uid} placed on host {host} (failed since {since})"),
                    );
                }
                self.placed.insert(uid, host);
                self.host_occ.insert(host, occupied);
            }
            EventKind::VmDeparted { uid, host, vcpus } => {
                match self.placed.remove(&uid) {
                    Some(on) if on == host => {}
                    Some(on) => {
                        self.flag(
                            ViolationKind::DepartWithoutPlacement,
                            ev,
                            format!("vm {uid} departed host {host} but was placed on host {on}"),
                        );
                    }
                    None => {
                        self.flag(
                            ViolationKind::DepartWithoutPlacement,
                            ev,
                            format!("vm {uid} departed host {host} without being placed"),
                        );
                    }
                }
                if let Some(occ) = self.host_occ.get_mut(&host) {
                    *occ = occ.saturating_sub(u64::from(vcpus));
                }
            }
            EventKind::HostFailed { host, kind, .. } => {
                if let Some(&since) = self.failed_hosts.get(&host) {
                    self.flag(
                        ViolationKind::HostFailureStateMismatch,
                        ev,
                        format!("host {host} failed ({kind:?}) while already failed since {since}"),
                    );
                }
                self.failed_hosts.insert(host, ev.at);
            }
            EventKind::HostRecovered { host, down_ns } => match self.failed_hosts.remove(&host) {
                None => self.flag(
                    ViolationKind::HostFailureStateMismatch,
                    ev,
                    format!("host {host} recovered while not failed"),
                ),
                Some(since) => {
                    let wall = ev.at.since(since);
                    if down_ns != wall {
                        self.flag(
                            ViolationKind::HostFailureStateMismatch,
                            ev,
                            format!(
                                "host {host} recovery claims {down_ns} ns down \
                                 but failed {wall} ns ago"
                            ),
                        );
                    }
                }
            },
            EventKind::VmMigrated {
                uid,
                from,
                to,
                vcpus,
                from_occupied,
                to_occupied,
                cap,
            } => {
                match self.placed.get(&uid) {
                    Some(&on) if on == from => {}
                    Some(&on) => self.flag(
                        ViolationKind::MigrationWithoutPlacement,
                        ev,
                        format!("vm {uid} migrated off host {from} but was placed on host {on}"),
                    ),
                    None => self.flag(
                        ViolationKind::MigrationWithoutPlacement,
                        ev,
                        format!("vm {uid} migrated {from}->{to} without being placed"),
                    ),
                }
                if let Some(&since) = self.failed_hosts.get(&to) {
                    self.flag(
                        ViolationKind::PlacementOntoFailedHost,
                        ev,
                        format!("vm {uid} migrated onto host {to} (failed since {since})"),
                    );
                }
                // Conservation: the source loses exactly `vcpus`, the
                // destination gains exactly `vcpus`. Unknown hosts (no
                // prior occupancy snapshot) initialize without checking,
                // like `HostCpu::Unknown`.
                if let Some(&prev) = self.host_occ.get(&from) {
                    let expect = prev.saturating_sub(u64::from(vcpus));
                    if from_occupied != expect {
                        self.flag(
                            ViolationKind::MigrationOccupancyMismatch,
                            ev,
                            format!(
                                "vm {uid} ({vcpus} vCPUs) left host {from} at {prev} \
                                 committed, but the source claims {from_occupied} \
                                 (expected {expect})"
                            ),
                        );
                    }
                }
                if let Some(&prev) = self.host_occ.get(&to) {
                    let expect = prev + u64::from(vcpus);
                    if to_occupied != expect {
                        self.flag(
                            ViolationKind::MigrationOccupancyMismatch,
                            ev,
                            format!(
                                "vm {uid} ({vcpus} vCPUs) landed on host {to} at {prev} \
                                 committed, but the destination claims {to_occupied} \
                                 (expected {expect})"
                            ),
                        );
                    }
                }
                if to_occupied > cap {
                    self.flag(
                        ViolationKind::OvercommitCapExceeded,
                        ev,
                        format!("host {to} committed {to_occupied} vCPUs over cap {cap}"),
                    );
                }
                self.placed.insert(uid, to);
                self.host_occ.insert(from, from_occupied);
                self.host_occ.insert(to, to_occupied);
            }
            EventKind::DomainAssigned { class } => {
                self.vm_class.insert(ev.vm, class);
            }
            EventKind::DomainSwitch {
                index,
                class,
                slice_ns,
                period_ns,
            } => {
                if slice_ns == 0 {
                    self.flag(
                        ViolationKind::DomainSliceSumMismatch,
                        ev,
                        format!("slice {index} ({class:?}) has zero length"),
                    );
                }
                if slice_ns > period_ns {
                    self.flag(
                        ViolationKind::DomainSliceSumMismatch,
                        ev,
                        format!(
                            "slice {index} ({class:?}) is {slice_ns} ns, \
                             longer than the {period_ns} ns period"
                        ),
                    );
                }
                if index == 0 {
                    let cycle = self.domain_cycle_ns;
                    if cycle > 0 && cycle != period_ns {
                        self.flag(
                            ViolationKind::DomainSliceSumMismatch,
                            ev,
                            format!(
                                "previous rotation's slices sum to {cycle} ns, \
                                 not the {period_ns} ns period"
                            ),
                        );
                    }
                    self.domain_cycle_ns = 0;
                }
                self.domain_cycle_ns += slice_ns;
                self.active_domain = Some((index, class));
            }
            EventKind::StealAccounted {
                index,
                class,
                threads,
                slice_ns,
                entitled_ns,
                used_ns,
                stolen_ns,
            } => {
                let expect = slice_ns * u64::from(threads);
                if entitled_ns != expect {
                    self.flag(
                        ViolationKind::StealConservationMismatch,
                        ev,
                        format!(
                            "slice {index} ({class:?}) claims {entitled_ns} ns entitled, \
                             but {slice_ns} ns x {threads} threads = {expect} ns"
                        ),
                    );
                }
                if used_ns + stolen_ns > entitled_ns {
                    self.flag(
                        ViolationKind::StealConservationMismatch,
                        ev,
                        format!(
                            "slice {index} ({class:?}) accounts used {used_ns} + \
                             stolen {stolen_ns} ns over {entitled_ns} ns entitled"
                        ),
                    );
                }
            }
            EventKind::LlcOccupancySample {
                socket,
                occupied_bytes,
                llc_bytes,
                inserted_bytes,
                evicted_bytes,
                decayed_bytes,
            } => {
                // Relative slack covers float accumulation over a long
                // run; the absolute byte covers tiny caches.
                let slack = 1.0 + 1e-6 * llc_bytes.abs();
                if occupied_bytes > llc_bytes + slack {
                    self.flag(
                        ViolationKind::LlcOccupancyOverflow,
                        ev,
                        format!(
                            "socket {socket} holds {occupied_bytes:.0} bytes \
                             in a {llc_bytes:.0}-byte LLC"
                        ),
                    );
                }
                let key = (ev.vm, socket);
                if let Some(&(pi, pe, pd)) = self.llc_cumulative.get(&key) {
                    let eps = 1.0;
                    if inserted_bytes < pi - eps
                        || evicted_bytes < pe - eps
                        || decayed_bytes < pd - eps
                    {
                        self.flag(
                            ViolationKind::LlcConservationMismatch,
                            ev,
                            format!(
                                "socket {socket} cumulative counters moved backwards: \
                                 inserted {pi:.0}->{inserted_bytes:.0}, \
                                 evicted {pe:.0}->{evicted_bytes:.0}, \
                                 decayed {pd:.0}->{decayed_bytes:.0}"
                            ),
                        );
                    }
                }
                self.llc_cumulative
                    .insert(key, (inserted_bytes, evicted_bytes, decayed_bytes));
                let balance = inserted_bytes - evicted_bytes - decayed_bytes;
                let tol = (1e-6 * inserted_bytes.abs()).max(1.0);
                if (occupied_bytes - balance).abs() > tol {
                    self.flag(
                        ViolationKind::LlcConservationMismatch,
                        ev,
                        format!(
                            "socket {socket} occupies {occupied_bytes:.0} bytes but \
                             inserted {inserted_bytes:.0} - evicted {evicted_bytes:.0} \
                             - decayed {decayed_bytes:.0} = {balance:.0}"
                        ),
                    );
                }
            }
            EventKind::CacheAwarePick {
                task,
                chosen,
                domain,
                pressure,
                best_pressure,
            } => {
                if pressure > best_pressure + CACHE_PICK_MARGIN + 1e-9 {
                    self.flag(
                        ViolationKind::CacheAwarePickUnjustified,
                        ev,
                        format!(
                            "task {task} placed on vcpu {chosen} in domain {domain} at \
                             pressure {pressure:.3}, but the best domain sat at \
                             {best_pressure:.3} (margin {CACHE_PICK_MARGIN})"
                        ),
                    );
                }
            }
            EventKind::TaskWake { .. }
            | EventKind::ReschedIpi { .. }
            | EventKind::ProbeSample { .. }
            | EventKind::BvsSelect { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::ProbeRejected { .. }
            | EventKind::CacheProbe { .. }
            | EventKind::ProbeRetry { .. } => {}
        }
        self.recent.push_back(ev);
        if self.recent.len() > CONTEXT {
            self.recent.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MigrateKind, SwitchReason};

    fn ev(at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            vm: 0,
            kind,
        }
    }

    fn switch_in(at: u64, vcpu: u16, task: u32, min_vruntime: u64) -> TraceEvent {
        ev(
            at,
            EventKind::ContextSwitch {
                vcpu,
                prev: None,
                next: Some(task),
                reason: SwitchReason::Pick,
                min_vruntime,
            },
        )
    }

    fn switch_out(at: u64, vcpu: u16, task: u32, min_vruntime: u64) -> TraceEvent {
        ev(
            at,
            EventKind::ContextSwitch {
                vcpu,
                prev: Some(task),
                next: None,
                reason: SwitchReason::Sleep,
                min_vruntime,
            },
        )
    }

    fn check(events: &[TraceEvent]) -> InvariantChecker {
        let mut c = InvariantChecker::new();
        for e in events {
            c.observe(e);
        }
        c
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let c = check(&[
            ev(0, EventKind::VcpuWake { vcpu: 0 }),
            ev(
                100,
                EventKind::StealAccrue {
                    vcpu: 0,
                    delta_ns: 100,
                },
            ),
            ev(100, EventKind::VcpuResume { vcpu: 0, thread: 0 }),
            switch_in(100, 0, 7, 0),
            ev(
                600,
                EventKind::TaskCharge {
                    task: 7,
                    vcpu: 0,
                    active_ns: 500,
                    work: 500.0 * 1024.0,
                },
            ),
            switch_out(600, 0, 7, 500),
            ev(
                600,
                EventKind::VcpuPreempt {
                    vcpu: 0,
                    reason: PreemptReason::Halt,
                },
            ),
        ]);
        let r = c.report();
        assert!(r.ok(), "unexpected violation: {:?}", r.first);
        assert_eq!(r.events, 7);
    }

    #[test]
    fn double_run_detected() {
        let c = check(&[switch_in(10, 0, 7, 0), switch_in(20, 1, 7, 0)]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::DoubleRun);
    }

    #[test]
    fn switch_in_while_busy_detected() {
        let c = check(&[switch_in(10, 0, 7, 0), switch_in(20, 0, 8, 0)]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::SwitchInWhileBusy);
    }

    #[test]
    fn mismatched_switch_out_detected() {
        let c = check(&[switch_in(10, 0, 7, 0), switch_out(20, 0, 9, 0)]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::MismatchedSwitchOut);
    }

    #[test]
    fn steal_accounting_gap_detected_on_resume() {
        // Waits 1000 ns but only 400 ns of steal were accrued.
        let c = check(&[
            ev(0, EventKind::VcpuWake { vcpu: 2 }),
            ev(
                1000,
                EventKind::StealAccrue {
                    vcpu: 2,
                    delta_ns: 400,
                },
            ),
            ev(1000, EventKind::VcpuResume { vcpu: 2, thread: 0 }),
        ]);
        let v = c.first().unwrap();
        assert_eq!(v.kind, ViolationKind::StealAccountingGap);
        assert!(!v.context.is_empty(), "violation carries context");
    }

    #[test]
    fn over_accrued_steal_detected_immediately() {
        let c = check(&[
            ev(0, EventKind::VcpuWake { vcpu: 2 }),
            ev(
                100,
                EventKind::StealAccrue {
                    vcpu: 2,
                    delta_ns: 400,
                },
            ),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::StealAccountingGap);
    }

    #[test]
    fn steal_while_running_detected() {
        let c = check(&[
            ev(0, EventKind::VcpuResume { vcpu: 1, thread: 0 }),
            ev(
                50,
                EventKind::StealAccrue {
                    vcpu: 1,
                    delta_ns: 50,
                },
            ),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::StealWhileNotWaiting);
    }

    #[test]
    fn vruntime_inversion_detected() {
        let c = check(&[
            switch_in(10, 0, 7, 1_000_000),
            switch_out(20, 0, 7, 999_000),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::VruntimeInversion);
    }

    #[test]
    fn work_exceeding_capacity_detected() {
        let c = check(&[ev(
            10,
            EventKind::TaskCharge {
                task: 3,
                vcpu: 0,
                active_ns: 100,
                work: 200.0 * 1024.0,
            },
        )]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::WorkExceedsCapacity);
    }

    #[test]
    fn migrate_while_running_detected() {
        let c = check(&[
            switch_in(10, 0, 7, 0),
            ev(
                20,
                EventKind::TaskMigrate {
                    task: 7,
                    from: 0,
                    to: 1,
                    kind: MigrateKind::Balance,
                },
            ),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::MigrateWhileRunning);
    }

    #[test]
    fn ivh_pull_lifecycle_checked() {
        let pull = |at, phase| {
            ev(
                at,
                EventKind::IvhPull {
                    task: 5,
                    src: 0,
                    target: 3,
                    phase,
                },
            )
        };
        // Attempt → complete is clean.
        let c = check(&[pull(10, IvhPhase::Attempt), pull(20, IvhPhase::Complete)]);
        assert!(c.report().ok());
        // Resolution without an attempt.
        let c = check(&[pull(10, IvhPhase::Abandon)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::IvhUnmatchedResolution
        );
        // Double attempt on one target.
        let c = check(&[pull(10, IvhPhase::Attempt), pull(20, IvhPhase::Attempt)]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::IvhDuplicateAttempt);
        // In-flight at stream end: reported, not a violation.
        let c = check(&[pull(10, IvhPhase::Attempt)]);
        let r = c.report();
        assert!(r.ok());
        assert_eq!(r.pending_ivh, 1);
    }

    #[test]
    fn run_overlap_detected() {
        let c = check(&[
            ev(0, EventKind::VcpuResume { vcpu: 1, thread: 0 }),
            ev(10, EventKind::VcpuResume { vcpu: 1, thread: 1 }),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::RunOverlap);
    }

    #[test]
    fn quota_exceeding_period_detected() {
        let c = check(&[ev(
            0,
            EventKind::BandwidthSet {
                vcpu: 0,
                quota_ns: 2_000_000,
                period_ns: 1_000_000,
            },
        )]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::QuotaExceedsPeriod);
        // quota == period is a full (unthrottled) allocation: clean.
        let c = check(&[ev(
            0,
            EventKind::BandwidthSet {
                vcpu: 0,
                quota_ns: 1_000_000,
                period_ns: 1_000_000,
            },
        )]);
        assert!(c.report().ok());
    }

    #[test]
    fn throttle_requires_refill_before_rethrottle() {
        let throttle = |at| {
            ev(
                at,
                EventKind::VcpuPreempt {
                    vcpu: 0,
                    reason: PreemptReason::Throttle,
                },
            )
        };
        // Throttle → resume → throttle is the expected refill cycle.
        let c = check(&[
            throttle(10),
            ev(
                30,
                EventKind::StealAccrue {
                    vcpu: 0,
                    delta_ns: 20,
                },
            ),
            ev(30, EventKind::VcpuResume { vcpu: 0, thread: 0 }),
            throttle(50),
        ]);
        let r = c.report();
        assert!(r.ok(), "unexpected violation: {:?}", r.first);
        assert_eq!(r.still_throttled, 1);
        // Two throttles with no resume/halt/wake in between.
        let c = check(&[throttle(10), throttle(50)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::ThrottleWithoutRefill
        );
    }

    #[test]
    fn pelt_decay_must_not_increase_load() {
        let decay = |before: f64, after: f64| {
            ev(
                10,
                EventKind::PeltDecay {
                    task: 1,
                    load_before: before,
                    load_after: after,
                    idle_ns: 1_000_000,
                },
            )
        };
        assert!(check(&[decay(512.0, 256.0)]).report().ok());
        assert!(check(&[decay(512.0, 512.0)]).report().ok());
        let c = check(&[decay(256.0, 256.1)]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::PeltLoadIncrease);
    }

    #[test]
    fn degraded_mode_alternation_checked() {
        let enter = |at| {
            ev(
                at,
                EventKind::DegradedEnter {
                    reason: crate::event::DegradeReason::LowConfidence(crate::ProbeKind::Vcap),
                },
            )
        };
        // Enter → exit with a truthful duration is clean.
        let c = check(&[
            enter(100),
            ev(350, EventKind::DegradedExit { after_ns: 250 }),
        ]);
        assert!(c.report().ok(), "{:?}", c.first());
        // Double enter.
        let c = check(&[enter(100), enter(200)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DegradedStateMismatch
        );
        // Exit without enter.
        let c = check(&[ev(100, EventKind::DegradedExit { after_ns: 10 })]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DegradedStateMismatch
        );
        // Exit lying about its duration.
        let c = check(&[
            enter(100),
            ev(350, EventKind::DegradedExit { after_ns: 99 }),
        ]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DegradedStateMismatch
        );
    }

    #[test]
    fn fleet_placement_lifecycle_checked() {
        let admit = |at, uid| {
            ev(
                at,
                EventKind::VmAdmitted {
                    uid,
                    vcpus: 2,
                    prio: crate::PriorityClass::Standard,
                },
            )
        };
        let place = |at, uid, host, occupied, cap| {
            ev(
                at,
                EventKind::VmPlaced {
                    uid,
                    host,
                    vcpus: 2,
                    occupied,
                    cap,
                },
            )
        };
        let depart = |at, uid, host| {
            ev(
                at,
                EventKind::VmDeparted {
                    uid,
                    host,
                    vcpus: 2,
                },
            )
        };
        // Admit → place → depart is clean; occupied == cap is allowed.
        let c = check(&[admit(10, 7), place(20, 7, 1, 6, 6), depart(90, 7, 1)]);
        let r = c.report();
        assert!(r.ok(), "unexpected violation: {:?}", r.first);
        assert_eq!(r.unplaced_admissions, 0);
        // Admitted but never placed (rejected): clean, but reported.
        let c = check(&[admit(10, 7)]);
        let r = c.report();
        assert!(r.ok());
        assert_eq!(r.unplaced_admissions, 1);
        // Placement over the overcommit cap.
        let c = check(&[admit(10, 7), place(20, 7, 0, 9, 8)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::OvercommitCapExceeded
        );
        // Placement without admission.
        let c = check(&[place(20, 7, 0, 2, 8)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::PlacementWithoutAdmission
        );
        // Placing an already-placed VM again.
        let c = check(&[
            admit(10, 7),
            place(20, 7, 0, 2, 8),
            admit(30, 7),
            place(40, 7, 1, 2, 8),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::DuplicatePlacement);
        // Departing a VM that was never placed, and from the wrong host.
        let c = check(&[depart(20, 7, 0)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DepartWithoutPlacement
        );
        let c = check(&[admit(10, 7), place(20, 7, 0, 2, 8), depart(30, 7, 1)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DepartWithoutPlacement
        );
    }

    #[test]
    fn host_failure_migration_laws_checked() {
        use crate::event::HostFailKind;
        let admit = |at, uid| {
            ev(
                at,
                EventKind::VmAdmitted {
                    uid,
                    vcpus: 2,
                    prio: crate::PriorityClass::Standard,
                },
            )
        };
        let place = |at, uid, host, occupied| {
            ev(
                at,
                EventKind::VmPlaced {
                    uid,
                    host,
                    vcpus: 2,
                    occupied,
                    cap: 8,
                },
            )
        };
        let fail = |at, host| {
            ev(
                at,
                EventKind::HostFailed {
                    host,
                    kind: HostFailKind::Crash,
                    residents: 1,
                },
            )
        };
        let migrate = |at, uid, from, to, from_occ, to_occ| {
            ev(
                at,
                EventKind::VmMigrated {
                    uid,
                    from,
                    to,
                    vcpus: 2,
                    from_occupied: from_occ,
                    to_occupied: to_occ,
                    cap: 8,
                },
            )
        };
        // Place → fail → evacuate → recover, with truthful occupancy and
        // down time: clean, and nothing left stranded.
        let c = check(&[
            admit(10, 7),
            place(20, 7, 0, 2),
            fail(100, 0),
            migrate(110, 7, 0, 1, 0, 2),
            ev(
                400,
                EventKind::HostRecovered {
                    host: 0,
                    down_ns: 300,
                },
            ),
        ]);
        let r = c.report();
        assert!(r.ok(), "unexpected violation: {:?}", r.first);
        assert_eq!(r.stranded_vms, 0);
        // A resident still placed on the failed host at stream end is
        // stranded (informational, not a violation).
        let c = check(&[admit(10, 7), place(20, 7, 0, 2), fail(100, 0)]);
        let r = c.report();
        assert!(r.ok(), "unexpected violation: {:?}", r.first);
        assert_eq!(r.stranded_vms, 1);
        // Placement onto a failed host.
        let c = check(&[fail(10, 0), admit(20, 7), place(30, 7, 0, 2)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::PlacementOntoFailedHost
        );
        // Migration onto a failed host.
        let c = check(&[
            admit(10, 7),
            place(20, 7, 0, 2),
            fail(30, 1),
            fail(40, 0),
            migrate(50, 7, 0, 1, 0, 2),
        ]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::PlacementOntoFailedHost
        );
        // Migration of a VM that was never placed, and from the wrong host.
        let c = check(&[migrate(10, 7, 0, 1, 0, 2)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::MigrationWithoutPlacement
        );
        let c = check(&[admit(10, 7), place(20, 7, 0, 2), migrate(30, 7, 2, 1, 0, 2)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::MigrationWithoutPlacement
        );
        // Occupancy not conserved: the source claims it lost nothing.
        let c = check(&[admit(10, 7), place(20, 7, 0, 2), migrate(30, 7, 0, 1, 2, 2)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::MigrationOccupancyMismatch
        );
        // Destination over its overcommit cap.
        let c = check(&[admit(10, 7), place(20, 7, 0, 2), migrate(30, 7, 0, 1, 0, 9)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::OvercommitCapExceeded
        );
        // Double failure, recovery without failure, recovery lying about
        // its down time.
        let c = check(&[fail(10, 0), fail(20, 0)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::HostFailureStateMismatch
        );
        let c = check(&[ev(
            10,
            EventKind::HostRecovered {
                host: 0,
                down_ns: 5,
            },
        )]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::HostFailureStateMismatch
        );
        let c = check(&[
            fail(10, 0),
            ev(
                400,
                EventKind::HostRecovered {
                    host: 0,
                    down_ns: 5,
                },
            ),
        ]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::HostFailureStateMismatch
        );
    }

    #[test]
    fn watchdog_abandon_resolves_pending_pull() {
        let attempt = ev(
            10,
            EventKind::IvhPull {
                task: 5,
                src: 0,
                target: 3,
                phase: IvhPhase::Attempt,
            },
        );
        let watchdog = ev(
            50,
            EventKind::IvhAbandonedByWatchdog {
                task: 5,
                src: 0,
                target: 3,
                waited_ns: 40,
            },
        );
        let c = check(&[attempt, watchdog]);
        let r = c.report();
        assert!(r.ok(), "{:?}", r.first);
        assert_eq!(r.pending_ivh, 0);
        // Watchdog abandon with nothing outstanding is a violation.
        let c = check(&[watchdog]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::IvhUnmatchedResolution
        );
    }

    #[test]
    fn end_of_stream_counts_pending_pulls_and_throttled_vcpus() {
        let on = |at, vm, kind| TraceEvent {
            at: SimTime(at),
            vm,
            kind,
        };
        let pull = |at, vm, target, phase| {
            on(
                at,
                vm,
                EventKind::IvhPull {
                    task: 1,
                    src: 0,
                    target,
                    phase,
                },
            )
        };
        let throttle = |at, vm, vcpu| {
            on(
                at,
                vm,
                EventKind::VcpuPreempt {
                    vcpu,
                    reason: PreemptReason::Throttle,
                },
            )
        };
        let c = check(&[
            pull(1, 2, 5, IvhPhase::Attempt),
            pull(2, 0, 1, IvhPhase::Attempt),
            pull(3, 0, 3, IvhPhase::Attempt),
            pull(4, 0, 1, IvhPhase::Complete),
            pull(5, 1, 0, IvhPhase::Attempt),
            pull(6, 1, 0, IvhPhase::Abandon),
            pull(7, 1, 0, IvhPhase::Attempt),
            pull(8, 1, 0, IvhPhase::Complete),
            throttle(10, 3, 2),
            throttle(10, 0, 0),
            throttle(10, 1, 4),
            on(20, 0, EventKind::VcpuWake { vcpu: 0 }),
            on(
                20,
                1,
                EventKind::StealAccrue {
                    vcpu: 4,
                    delta_ns: 10,
                },
            ),
            on(20, 1, EventKind::VcpuHalt { vcpu: 4 }),
        ]);
        let r = c.report();
        assert!(r.ok(), "{:?}", r.first);
        assert_eq!(r.pending_ivh, 2, "vm 2 vcpu 5 and vm 0 vcpu 3 still pull");
        assert_eq!(r.still_throttled, 1, "only vm 3 vcpu 2 was never released");
    }

    #[test]
    fn domain_slice_sums_checked_over_rotation_cycles() {
        let switch = |at, index, slice_ns, period_ns| {
            ev(
                at,
                EventKind::DomainSwitch {
                    index,
                    class: if index == 0 {
                        PriorityClass::Standard
                    } else {
                        PriorityClass::Batch
                    },
                    slice_ns,
                    period_ns,
                },
            )
        };
        // Two full 2+2 ms rotations of a 4 ms period: clean.
        let c = check(&[
            switch(0, 0, 2_000_000, 4_000_000),
            switch(2_000_000, 1, 2_000_000, 4_000_000),
            switch(4_000_000, 0, 2_000_000, 4_000_000),
            switch(6_000_000, 1, 2_000_000, 4_000_000),
        ]);
        assert!(c.report().ok(), "{:?}", c.first());
        // Zero-length slice.
        let c = check(&[switch(0, 0, 0, 4_000_000)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DomainSliceSumMismatch
        );
        // Slice longer than the period.
        let c = check(&[switch(0, 0, 5_000_000, 4_000_000)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DomainSliceSumMismatch
        );
        // A cycle whose slices undershoot the period.
        let c = check(&[
            switch(0, 0, 2_000_000, 4_000_000),
            switch(2_000_000, 1, 1_000_000, 4_000_000),
            switch(3_000_000, 0, 2_000_000, 4_000_000),
        ]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::DomainSliceSumMismatch
        );
    }

    #[test]
    fn cross_domain_execution_detected() {
        let assigned = |at, vm, class| TraceEvent {
            at: SimTime(at),
            vm,
            kind: EventKind::DomainAssigned { class },
        };
        let switch = |at, class| {
            ev(
                at,
                EventKind::DomainSwitch {
                    index: 0,
                    class,
                    slice_ns: 4_000_000,
                    period_ns: 4_000_000,
                },
            )
        };
        let resume = |at, vm| TraceEvent {
            at: SimTime(at),
            vm,
            kind: EventKind::VcpuResume { vcpu: 0, thread: 0 },
        };
        // Standard VM resuming in the Standard slice: clean.
        let c = check(&[
            assigned(0, 0, PriorityClass::Standard),
            switch(0, PriorityClass::Standard),
            resume(10, 0),
        ]);
        assert!(c.report().ok(), "{:?}", c.first());
        // A Batch VM resuming in the Standard slice breaks the gate.
        let c = check(&[
            assigned(0, 1, PriorityClass::Batch),
            switch(0, PriorityClass::Standard),
            resume(10, 1),
        ]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::CrossDomainExecution);
        // Unassigned VMs (host loads, non-domain runs) are not gated.
        let c = check(&[switch(0, PriorityClass::Standard), resume(10, 3)]);
        assert!(c.report().ok(), "{:?}", c.first());
    }

    #[test]
    fn steal_accounting_conservation_checked() {
        let acct = |entitled, used, stolen| {
            ev(
                10,
                EventKind::StealAccounted {
                    index: 0,
                    class: PriorityClass::Standard,
                    threads: 4,
                    slice_ns: 2_000_000,
                    entitled_ns: entitled,
                    used_ns: used,
                    stolen_ns: stolen,
                },
            )
        };
        // entitled == slice * threads, used + stolen within it: clean.
        assert!(check(&[acct(8_000_000, 7_000_000, 0)]).report().ok());
        // Entitlement arithmetic wrong.
        let c = check(&[acct(6_000_000, 1_000_000, 0)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::StealConservationMismatch
        );
        // used + stolen over the entitlement.
        let c = check(&[acct(8_000_000, 7_000_000, 2_000_000)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::StealConservationMismatch
        );
    }

    #[test]
    fn llc_occupancy_laws_checked() {
        let sample = |at, occupied: f64, inserted: f64, evicted: f64, decayed: f64| {
            ev(
                at,
                EventKind::LlcOccupancySample {
                    socket: 0,
                    occupied_bytes: occupied,
                    llc_bytes: 1_000_000.0,
                    inserted_bytes: inserted,
                    evicted_bytes: evicted,
                    decayed_bytes: decayed,
                },
            )
        };
        // Fill, evict, decay — balanced and under capacity: clean.
        let c = check(&[
            sample(10, 400_000.0, 400_000.0, 0.0, 0.0),
            sample(20, 900_000.0, 1_100_000.0, 150_000.0, 50_000.0),
        ]);
        assert!(c.report().ok(), "{:?}", c.first());
        // Occupancy over the socket's LLC size.
        let c = check(&[sample(10, 1_200_000.0, 1_200_000.0, 0.0, 0.0)]);
        assert_eq!(c.first().unwrap().kind, ViolationKind::LlcOccupancyOverflow);
        // Balance broken: occupied disagrees with the counters.
        let c = check(&[sample(10, 300_000.0, 400_000.0, 0.0, 0.0)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::LlcConservationMismatch
        );
        // Cumulative counters moving backwards.
        let c = check(&[
            sample(10, 200_000.0, 300_000.0, 100_000.0, 0.0),
            sample(20, 250_000.0, 250_000.0, 0.0, 0.0),
        ]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::LlcConservationMismatch
        );
    }

    #[test]
    fn cache_aware_pick_must_be_justified() {
        let pick = |pressure: f64, best: f64| {
            ev(
                10,
                EventKind::CacheAwarePick {
                    task: 3,
                    chosen: 1,
                    domain: 0,
                    pressure,
                    best_pressure: best,
                },
            )
        };
        // Inside the preference margin: clean.
        assert!(check(&[pick(0.2, 0.1)]).report().ok());
        assert!(check(&[pick(0.0, 0.0)]).report().ok());
        // Picked a domain far above the best published estimate.
        let c = check(&[pick(0.9, 0.1)]);
        assert_eq!(
            c.first().unwrap().kind,
            ViolationKind::CacheAwarePickUnjustified
        );
    }

    #[test]
    fn fold_sums_counters_and_keeps_the_first_violation_in_fold_order() {
        let clean = check(&[ev(1, EventKind::VcpuWake { vcpu: 0 })]).report();
        let broken = |at: u64| {
            check(&[ev(
                at,
                EventKind::IvhAbandonedByWatchdog {
                    task: 5,
                    src: 0,
                    target: 3,
                    waited_ns: 40,
                },
            )])
            .report()
        };
        let folded = CheckReport::fold([clean.clone(), broken(7), broken(99)]);
        assert_eq!(folded.events, 3);
        assert_eq!(folded.violations, 2);
        // Fold order decides `first`, not timestamps or completion order.
        assert_eq!(folded.first.as_ref().unwrap().event.at.ns(), 7);
        let refolded = CheckReport::fold([broken(99), clean, broken(7)]);
        assert_eq!(refolded.first.as_ref().unwrap().event.at.ns(), 99);
    }
}
