//! The guest kernel: CFS core, context switching, and the hook dispatcher.
//!
//! [`Kernel`] holds the scheduler state (task arena, per-vCPU runqueues,
//! domains, cgroup masks) and implements the CFS mechanics: enqueue/dequeue
//! with sleeper placement, vruntime accounting from platform run deltas,
//! tick-driven preemption, and migration primitives. [`GuestOs`] wraps a
//! kernel together with an optional [`SchedHooks`] implementation and
//! dispatches the hook points, mirroring how the paper's BPF programs attach
//! to a stock CFS.

use crate::balance::{self, MISFIT_CAP_ADVANTAGE};
use crate::cgroup::CpuAllow;
use crate::cpumask::CpuMask;
use crate::domains::{DomainTree, PerceivedTopology};
use crate::hooks::SchedHooks;
use crate::pelt::{Pelt, PeltState};
use crate::platform::{CommDistance, Platform, RunDelta};
use crate::runqueue::CfsRq;
use crate::select;
use crate::stats::KernelStats;
use crate::task::{SpawnSpec, Task, TaskId, TaskState};
use crate::weight::calc_delta_vruntime;
use simcore::SimTime;
use trace::{EventKind, SwitchReason, TraceSink};

pub use trace::MigrateKind;

/// Identifies a vCPU within one guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcpuId(pub usize);

/// Work remaining below this threshold (capacity-ns) counts as complete.
pub const WORK_EPSILON: f64 = 0.5;

/// Renormalizes a vruntime across runqueues: `vrt - from_min + to_min` in
/// signed arithmetic (clamped at 0), as Linux does with its signed
/// vruntimes. Unsigned saturation here would ratchet the vruntime upward on
/// every migration and starve the task.
fn renorm_vruntime(vrt: u64, from_min: u64, to_min: u64) -> u64 {
    let v = vrt as i128 - from_min as i128 + to_min as i128;
    v.clamp(0, u64::MAX as i128) as u64
}

/// Burst size given to built-in spin tasks; effectively infinite.
pub const BUILTIN_SPIN_WORK: f64 = 1.0e16;

/// Cache-refill work charged to a cache-sensitive task when its vCPU
/// resumes after a pollution-length inactive period (≈50 µs of a reference
/// core — an L2-scale refill).
pub const CACHE_REFILL_WORK: f64 = 1024.0 * 50_000.0;

// Guest scheduler constants (Linux defaults scaled for a 1 ms tick).

/// Scheduler tick period (ns).
pub const TICK_NS: u64 = 1_000_000;
/// Minimum time a task runs before tick preemption (ns).
const MIN_GRANULARITY_NS: u64 = 1_500_000;
/// Wakeup preemption granularity: vruntime advantage required (ns).
const WAKEUP_GRANULARITY_NS: u64 = 1_000_000;
/// Targeted scheduling latency; sleeper placement credit is half (ns).
const SCHED_LATENCY_NS: u64 = 6_000_000;
/// Run periodic load balancing every this many ticks.
const BALANCE_INTERVAL_TICKS: u64 = 4;
/// Cache-hot window: a task enqueued more recently than this is not
/// migrated by the balancer (Linux's `sched_migration_cost`).
pub(crate) const MIGRATION_COST_NS: u64 = 500_000;

/// Work-rate multiplier for communicating tasks placed cross-socket.
pub const CROSS_SOCKET_COMM_FACTOR: f64 = 0.78;
/// Work-rate multiplier for communicating tasks in one LLC.
pub const SAME_LLC_COMM_FACTOR: f64 = 0.97;
// `comm_factor` stops its scan at the cross-socket factor, so it must be
// the smallest factor any distance yields.
const _: () =
    assert!(CROSS_SOCKET_COMM_FACTOR <= SAME_LLC_COMM_FACTOR && SAME_LLC_COMM_FACTOR <= 1.0);

/// Per-vCPU scheduler state.
pub struct VcpuData {
    /// Waiting tasks.
    pub rq: CfsRq,
    /// The task currently selected on this vCPU (may be stalled if the host
    /// preempted the vCPU).
    pub curr: Option<TaskId>,
    /// CFS's *perceived* capacity of this vCPU (1024 scale), from tick-time
    /// steal observation — the inaccurate baseline view.
    observed_cap: f64,
    /// When the observation was last refreshed.
    observed_at: SimTime,
    /// Consecutive balance attempts that found imbalance but nothing to
    /// pull (Linux's `nr_balance_failed`, which eventually triggers active
    /// balance of a running task).
    pub balance_failed: u32,
    /// Steal counter at the last tick (for per-tick steal deltas).
    pub last_tick_steal: u64,
    /// Time of the last tick on this vCPU.
    pub last_tick_at: SimTime,
    /// Ticks delivered to this vCPU.
    pub tick_count: u64,
}

impl VcpuData {
    fn new(now: SimTime) -> Self {
        Self {
            rq: CfsRq::new(),
            curr: None,
            observed_cap: 1024.0,
            observed_at: now,
            balance_failed: 0,
            last_tick_steal: 0,
            last_tick_at: now,
            tick_count: 0,
        }
    }
}

/// Why the current task is being taken off a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PutReason {
    /// Preempted inside the guest; goes back on this runqueue.
    Preempt,
    /// Going to sleep on a timer.
    Sleep,
    /// Blocking on a workload event.
    Block,
    /// Exiting.
    Exit,
    /// Being migrated; the caller re-enqueues elsewhere.
    Migrate,
}

impl PutReason {
    fn switch_reason(self) -> SwitchReason {
        match self {
            PutReason::Preempt => SwitchReason::Preempt,
            PutReason::Sleep => SwitchReason::Sleep,
            PutReason::Block => SwitchReason::Block,
            PutReason::Exit => SwitchReason::Exit,
            PutReason::Migrate => SwitchReason::Migrate,
        }
    }
}

/// The guest scheduler state and CFS mechanics.
pub struct Kernel {
    /// Per-vCPU state, indexed by [`VcpuId`].
    pub vcpus: Vec<VcpuData>,
    /// Task arena; slots of dead tasks are retired, not reused.
    pub tasks: Vec<Task>,
    /// Current schedule-domain hierarchy.
    pub domains: DomainTree,
    /// cgroup placement restrictions (driven by rwc).
    pub cgroup: CpuAllow,
    /// Scheduler statistics.
    pub stats: KernelStats,
    /// Trace emission sink; [`TraceSink::Off`] (the default) makes every
    /// emit site a branch over a stack value.
    pub trace: TraceSink,
    /// Tasks per communication group (so locality factors don't scan the
    /// whole arena).
    comm_groups: Vec<(u32, Vec<TaskId>)>,
    /// Whether the perceived topology declares asymmetric CPU capacities
    /// (Linux's `SD_ASYM_CPUCAPACITY`). Misfit/active capacity balancing
    /// only runs when set; a stock x86 VM never sets it — vcap's kernel
    /// module does when probing reveals real asymmetry.
    pub asym_capacity: bool,
    /// The vCPUs with a current task or a waiting one (every `v` with
    /// `!vcpu_is_idle(v)`), so balancer scans skip idle vCPUs without
    /// visiting them. This and the two masks below are re-derived by
    /// `sync_vcpu` at the only places `curr` or a runqueue changes:
    /// enqueue, dequeue, `set_curr` and the two `put_curr`s.
    busy: CpuMask,
    /// The vCPUs whose current task has a normal (non-`SCHED_IDLE`)
    /// policy.
    normal_running: CpuMask,
    /// The vCPUs that count as idle for wake placement: no current task or
    /// a `SCHED_IDLE` one, and no normal task waiting (Linux's
    /// `sched_idle_cpu()`).
    idle_like: CpuMask,
    /// Each vCPU's load ratio (queue weight per unit of perceived
    /// capacity), kept across balance passes; valid where `ratio_fresh`
    /// has the vCPU's bit. Empty until the first balance read sizes it.
    ratio: Vec<f64>,
    /// The vCPUs whose `ratio` entry is current. A bit is cleared wherever
    /// an input of the ratio changes: `sync_vcpu` (queue weight, current
    /// task, busy bit), the tick's steal observation while no override is
    /// installed, and [`Self::set_cap_override`].
    ratio_fresh: CpuMask,
    /// Probed capacities installed by vcap's kernel module, overriding the
    /// baseline observation, one per vCPU. Written only through
    /// [`Self::set_cap_override`], so the kept load ratios and misfit
    /// masks see every change. Empty until the first override.
    cap_override: Vec<Option<f64>>,
    /// How many entries of `cap_override` are `Some`.
    nr_overrides: usize,
    /// While every vCPU has an override, entry `d` holds the vCPUs that
    /// are materially weaker than `d` (misfit balancing's candidate
    /// sources). Emptied by [`Self::set_cap_override`] and rebuilt on the
    /// next read; stays empty while some vCPU has no override.
    weaker: Vec<CpuMask>,
}

impl Kernel {
    /// Creates a guest kernel of `nr` vCPUs with the default flat/UMA
    /// domain tree.
    pub fn new(nr: usize, now: SimTime) -> Self {
        Self {
            vcpus: (0..nr).map(|_| VcpuData::new(now)).collect(),
            tasks: Vec::new(),
            domains: DomainTree::flat(nr),
            cgroup: CpuAllow::unrestricted(nr),
            stats: KernelStats::new(),
            trace: TraceSink::default(),
            comm_groups: Vec::new(),
            asym_capacity: false,
            busy: CpuMask::empty(),
            normal_running: CpuMask::empty(),
            idle_like: CpuMask::first_n(nr),
            ratio: Vec::new(),
            ratio_fresh: CpuMask::empty(),
            cap_override: Vec::new(),
            nr_overrides: 0,
            weaker: Vec::new(),
        }
    }

    /// Number of vCPUs.
    pub fn nr_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    /// Immutable task accessor.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.0 as usize]
    }

    /// Mutable task accessor.
    pub fn task_mut(&mut self, t: TaskId) -> &mut Task {
        &mut self.tasks[t.0 as usize]
    }

    /// Creates a task in the Blocked state; wake it to start it.
    pub fn spawn(&mut self, now: SimTime, spec: SpawnSpec) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            id,
            policy: spec.policy,
            state: TaskState::Blocked,
            affinity: spec.affinity,
            program: spec.program,
            vruntime: 0,
            pelt: Pelt::new_full(now),
            remaining: 0.0,
            latency_sensitive: spec.latency_sensitive,
            comm_group: spec.comm_group,
            cache_sensitive: spec.cache_sensitive,
            bypass_cgroup: spec.bypass_cgroup,
            enqueued_at: now,
            wakeup_pending: false,
            last_queue_ns: 0,
            run_started: now,
            last_vcpu: VcpuId(spec.affinity.first().unwrap_or(0)),
            total_active_ns: 0,
            total_work: 0.0,
            migrations: 0,
        });
        if let Some(g) = self.task(id).comm_group {
            match self.comm_groups.iter_mut().find(|(gid, _)| *gid == g) {
                Some((_, members)) => members.push(id),
                None => self.comm_groups.push((g, vec![id])),
            }
        }
        id
    }

    /// Whether vCPU `v` has nothing to run (guest-idle).
    pub fn vcpu_is_idle(&self, v: VcpuId) -> bool {
        let d = &self.vcpus[v.0];
        d.curr.is_none() && d.rq.is_empty()
    }

    /// The vCPUs that are not guest-idle: a current task or a non-empty
    /// runqueue.
    pub fn busy(&self) -> &CpuMask {
        #[cfg(feature = "shadow")]
        self.shadow_check_masks();
        &self.busy
    }

    /// The vCPUs whose current task has a normal (non-`SCHED_IDLE`) policy.
    pub fn normal_running(&self) -> &CpuMask {
        #[cfg(feature = "shadow")]
        self.shadow_check_masks();
        &self.normal_running
    }

    /// The vCPUs that count as idle for wake placement: truly idle, or
    /// running only `SCHED_IDLE` work with no normal task waiting (Linux's
    /// `sched_idle_cpu()`).
    pub fn idle_like(&self) -> &CpuMask {
        #[cfg(feature = "shadow")]
        self.shadow_check_masks();
        &self.idle_like
    }

    /// `v`'s busy, normal-running and idle-like bits, by their definitions.
    fn derive_bits(&self, v: VcpuId) -> (bool, bool, bool) {
        let d = &self.vcpus[v.0];
        let normal_curr = d.curr.is_some_and(|t| !self.task(t).policy.is_idle());
        (
            !self.vcpu_is_idle(v),
            normal_curr,
            !normal_curr && d.rq.nr_normal == 0,
        )
    }

    /// Re-derives `v`'s mask bits after its `curr` or runqueue changed,
    /// and marks its load ratio stale.
    fn sync_vcpu(&mut self, v: VcpuId) {
        let (busy, normal, idle_like) = self.derive_bits(v);
        self.busy.assign(v.0, busy);
        self.normal_running.assign(v.0, normal);
        self.idle_like.assign(v.0, idle_like);
        self.ratio_fresh.clear(v.0);
    }

    /// Asserts every kept mask bit against its definition.
    #[cfg(feature = "shadow")]
    fn shadow_check_masks(&self) {
        for v in 0..self.nr_vcpus() {
            let (busy, normal, idle_like) = self.derive_bits(VcpuId(v));
            assert_eq!(self.busy.contains(v), busy, "shadow: busy bit of vCPU {v}");
            assert_eq!(
                self.normal_running.contains(v),
                normal,
                "shadow: normal-running bit of vCPU {v}"
            );
            assert_eq!(
                self.idle_like.contains(v),
                idle_like,
                "shadow: idle-like bit of vCPU {v}"
            );
        }
    }

    /// The vCPUs a task may be placed on under current cgroup rules.
    pub fn placement_mask(&self, t: TaskId) -> CpuMask {
        let task = self.task(t);
        let allowed = if task.bypass_cgroup {
            CpuMask::first_n(self.nr_vcpus())
        } else {
            self.cgroup.allowed_for(&task.policy)
        };
        let mask = task.affinity.and(&allowed);
        if mask.is_empty() {
            // A task must be runnable somewhere; fall back to raw affinity
            // (Linux cpusets behave the same when a cpuset empties).
            task.affinity
        } else {
            mask
        }
    }

    /// The capacity CFS currently believes vCPU `v` has. Baseline: steal is
    /// only visible while the vCPU is busy, so an idle vCPU's observation
    /// relaxes back toward full capacity — the mismatch Figure 11
    /// demonstrates. A vcap override, when installed, is authoritative.
    pub fn capacity_of(&self, v: VcpuId, now: SimTime) -> f64 {
        if let Some(cap) = self.cap_override(v) {
            return cap;
        }
        let d = &self.vcpus[v.0];
        if self.vcpu_is_idle(v) {
            // No steal is observed while halted: the stale observation
            // relaxes toward full capacity (25 ms half-life), so a weak
            // vCPU soon *appears* strong again — the adverse-migration
            // driver of Figure 11b.
            let dt = now.since(d.observed_at) as f64;
            let decay = 0.5f64.powf(dt / 25.0e6);
            1024.0 - (1024.0 - d.observed_cap) * decay
        } else {
            d.observed_cap
        }
    }

    /// Sum of queued weights plus the current task's weight, as a load
    /// proxy for balancing decisions.
    pub fn rq_weight(&self, v: VcpuId) -> u64 {
        let d = &self.vcpus[v.0];
        let curr_w = d.curr.map(|t| self.task(t).weight()).unwrap_or(0);
        d.rq.weight_sum + curr_w
    }

    /// The probed capacity vcap installed for `v`, if any.
    #[inline]
    pub fn cap_override(&self, v: VcpuId) -> Option<f64> {
        self.cap_override.get(v.0).copied().flatten()
    }

    /// Installs (or, with `None`, withdraws) a probed capacity for `v`,
    /// which [`Self::capacity_of`] then reports in place of the baseline
    /// observation.
    pub fn set_cap_override(&mut self, v: VcpuId, cap: Option<f64>) {
        if self.cap_override.is_empty() {
            self.cap_override = vec![None; self.nr_vcpus()];
        }
        let old = std::mem::replace(&mut self.cap_override[v.0], cap);
        self.nr_overrides =
            self.nr_overrides + usize::from(cap.is_some()) - usize::from(old.is_some());
        self.ratio_fresh.clear(v.0);
        self.weaker.clear();
    }

    /// The vCPUs materially weaker than `d`, those whose capacity times
    /// `MISFIT_CAP_ADVANTAGE` is below `d`'s, while every vCPU has a
    /// probed capacity; `None` while some vCPU has none, since a baseline
    /// capacity moves with time. Kept across reads and rebuilt on the
    /// first read after an override changes.
    pub fn weaker_than(&mut self, d: VcpuId) -> Option<&CpuMask> {
        if self.weaker.is_empty() && self.nr_overrides == self.nr_vcpus() {
            self.rebuild_weaker();
        }
        #[cfg(feature = "shadow")]
        assert_eq!(
            self.weaker.get(d.0),
            self.weaker_by_scan(d).as_ref(),
            "shadow: misfit candidates of vCPU {}",
            d.0
        );
        self.weaker.get(d.0)
    }

    /// Rebuilds every vCPU's misfit candidate mask from the overrides;
    /// called only while every vCPU has one.
    fn rebuild_weaker(&mut self) {
        // Refilled in place, so a rebuild allocates only the first time.
        let mut weaker = std::mem::take(&mut self.weaker);
        weaker.extend((0..self.nr_vcpus()).map(|d| {
            self.weaker_by_scan(VcpuId(d))
                .expect("every vCPU has an override")
        }));
        self.weaker = weaker;
    }

    /// `d`'s misfit candidates by pairwise comparison of the overrides, or
    /// `None` while some vCPU has none.
    fn weaker_by_scan(&self, d: VcpuId) -> Option<CpuMask> {
        let cap_d = self.cap_override(d)?;
        let mut weaker = CpuMask::empty();
        for c in 0..self.nr_vcpus() {
            if cap_d > MISFIT_CAP_ADVANTAGE * self.cap_override(VcpuId(c))? {
                weaker.set(c);
            }
        }
        Some(weaker)
    }

    /// Load of `v`'s queue per unit of perceived capacity, as the balancer
    /// compares vCPUs. Kept across passes until an input changes. An idle
    /// vCPU's queue weight is 0, so its ratio is exactly 0.0 and needs no
    /// capacity read.
    #[inline]
    pub(crate) fn load_ratio(&mut self, v: VcpuId, now: SimTime) -> f64 {
        if !self.ratio_fresh.contains(v.0) {
            self.refresh_ratio(v, now);
        }
        #[cfg(feature = "shadow")]
        {
            let full = self.rq_weight(v) as f64 / self.capacity_of(v, now).max(1.0);
            assert_eq!(
                self.ratio[v.0].to_bits(),
                full.to_bits(),
                "shadow: load ratio of vCPU {}",
                v.0
            );
        }
        self.ratio[v.0]
    }

    /// Recomputes `v`'s kept load ratio, sizing the vector on first use.
    fn refresh_ratio(&mut self, v: VcpuId, now: SimTime) {
        if self.ratio.len() < self.nr_vcpus() {
            self.ratio.resize(self.nr_vcpus(), 0.0);
        }
        self.ratio[v.0] = if self.busy.contains(v.0) {
            self.rq_weight(v) as f64 / self.capacity_of(v, now).max(1.0)
        } else {
            0.0
        };
        self.ratio_fresh.set(v.0);
    }

    /// The kept load ratio of `v` while it is fresh, so a checker can hold
    /// the cache to its definition.
    pub fn fresh_ratio(&self, v: VcpuId) -> Option<f64> {
        self.ratio_fresh.contains(v.0).then(|| self.ratio[v.0])
    }

    // ------------------------------------------------------------------
    // Enqueue / dequeue / context switch
    // ------------------------------------------------------------------

    /// Places a woken (or migrated) task on vCPU `v`'s runqueue.
    ///
    /// `wakeup` selects sleeper placement: the task's vruntime is advanced
    /// to just below the queue's `min_vruntime` so sleepers get a fair boost
    /// without starving the queue.
    pub fn enqueue_task(&mut self, plat: &mut dyn Platform, t: TaskId, v: VcpuId, wakeup: bool) {
        let now = plat.now();
        let min_vruntime = self.vcpus[v.0].rq.min_vruntime;
        let latency_half = SCHED_LATENCY_NS / 2;
        let slept_on = self.task(t).last_vcpu;
        let slept_min = self.vcpus[slept_on.0].rq.min_vruntime;
        if wakeup {
            // Decay the task's PELT signal across the idle gap, and report
            // the decay to the trace so the monotonicity law (load never
            // grows while sleeping) stays checkable.
            let (load_before, idle_ns) = {
                let task = self.task(t);
                (task.pelt.load(), now.since(task.pelt.last_update()))
            };
            self.task_mut(t).pelt.update(now, PeltState::Sleeping);
            if idle_ns > 0 {
                self.trace.emit(
                    now,
                    EventKind::PeltDecay {
                        task: t.0,
                        load_before,
                        load_after: self.task(t).pelt.load(),
                        idle_ns,
                    },
                );
            }
        }
        let task = self.task_mut(t);
        debug_assert!(
            !task.on_rq(),
            "enqueue of task already on rq: {:?}",
            task.id
        );
        if wakeup {
            // Linux keeps the absolute vruntime across a sleep: the old
            // queue's min_vruntime advances past long sleepers, so any
            // fairness debt decays naturally. A wake onto a *different*
            // queue renormalizes against the old queue's current floor
            // (migrate_task_rq_fair).
            let abs = if slept_on == v {
                task.vruntime
            } else {
                renorm_vruntime(task.vruntime, slept_min, min_vruntime)
            };
            let placed = min_vruntime.saturating_sub(latency_half);
            task.vruntime = abs.max(placed);
            task.wakeup_pending = true;
        }
        task.enqueued_at = now;
        task.state = TaskState::Runnable(v);
        let migrated = task.last_vcpu != v;
        if migrated {
            task.migrations += 1;
        }
        task.last_vcpu = v;
        if migrated && wakeup {
            self.stats.wake_migrations.inc();
            self.trace.emit(
                now,
                EventKind::TaskMigrate {
                    task: t.0,
                    from: slept_on.0 as u16,
                    to: v.0 as u16,
                    kind: MigrateKind::Wake,
                },
            );
        }
        let (vrt, w, is_idle, load) = {
            let task = self.task(t);
            (
                task.vruntime,
                task.weight(),
                task.policy.is_idle(),
                task.pelt.load(),
            )
        };
        self.vcpus[v.0].rq.enqueue(t, vrt, w, is_idle, load);
        self.sync_vcpu(v);
    }

    /// Removes a waiting task from its runqueue. Returns false if the task
    /// was not queued (e.g. it is current).
    pub fn dequeue_task(&mut self, t: TaskId) -> bool {
        let task = self.task(t);
        let v = match task.state {
            TaskState::Runnable(v) => v,
            _ => return false,
        };
        let (vrt, w, is_idle, load) = (
            task.vruntime,
            task.weight(),
            task.policy.is_idle(),
            task.pelt.load(),
        );
        let removed = self.vcpus[v.0].rq.dequeue(t, vrt, w, is_idle, load);
        self.sync_vcpu(v);
        removed
    }

    /// Charges a run delta to a task: vruntime, PELT, work, statistics.
    fn charge(&mut self, now: SimTime, t: TaskId, delta: RunDelta) {
        let vcpu = {
            let task = self.task_mut(t);
            task.vruntime = task
                .vruntime
                .saturating_add(calc_delta_vruntime(delta.active_ns, task.weight()));
            task.pelt.update_mixed(now, delta.active_ns);
            task.remaining = (task.remaining - delta.work).max(0.0);
            task.total_active_ns += delta.active_ns;
            task.total_work += delta.work;
            task.last_vcpu
        };
        if delta.active_ns > 0 || delta.work > 0.0 {
            self.trace.emit(
                now,
                EventKind::TaskCharge {
                    task: t.0,
                    vcpu: vcpu.0 as u16,
                    active_ns: delta.active_ns,
                    work: delta.work,
                },
            );
        }
    }

    /// Makes `t` current on `v`, informing the platform so work accrues.
    fn set_curr(&mut self, plat: &mut dyn Platform, v: VcpuId, t: TaskId) {
        let now = plat.now();
        debug_assert!(
            self.vcpus[v.0].curr.is_none(),
            "set_curr over existing curr"
        );
        // Settle waiting-time PELT and note the wakeup's queue latency.
        let task = self.task_mut(t);
        task.pelt.update(now, PeltState::Runnable);
        if task.wakeup_pending {
            task.wakeup_pending = false;
            task.last_queue_ns = now.since(task.enqueued_at);
        }
        task.state = TaskState::Running(v);
        task.run_started = now;
        task.last_vcpu = v;
        self.vcpus[v.0].curr = Some(t);
        self.sync_vcpu(v);
        self.stats.context_switches.inc();
        self.trace.emit(
            now,
            EventKind::ContextSwitch {
                vcpu: v.0 as u16,
                prev: None,
                next: Some(t.0),
                reason: SwitchReason::Pick,
                min_vruntime: self.vcpus[v.0].rq.min_vruntime,
            },
        );
        let factor = self.comm_factor(plat, t, v);
        let remaining = self.task(t).remaining;
        let penalty = if self.task(t).cache_sensitive {
            CACHE_REFILL_WORK
        } else {
            0.0
        };
        plat.run_task(v, t, remaining, factor, penalty);
    }

    /// Stops the current task on `v` for `reason`, charging its run delta.
    /// Returns the task. For `Migrate`, the caller must re-enqueue it.
    fn put_curr(
        &mut self,
        plat: &mut dyn Platform,
        v: VcpuId,
        reason: PutReason,
    ) -> Option<TaskId> {
        let t = self.vcpus[v.0].curr.take()?;
        self.sync_vcpu(v);
        let delta = plat.stop_task(v);
        let now = plat.now();
        self.charge(now, t, delta);
        let vrt = self.task(t).vruntime;
        self.vcpus[v.0].rq.update_min_vruntime(Some(vrt));
        self.trace.emit(
            now,
            EventKind::ContextSwitch {
                vcpu: v.0 as u16,
                prev: Some(t.0),
                next: None,
                reason: reason.switch_reason(),
                min_vruntime: self.vcpus[v.0].rq.min_vruntime,
            },
        );
        match reason {
            PutReason::Preempt => {
                self.task_mut(t).state = TaskState::Blocked; // transient; enqueue fixes it
                self.enqueue_task(plat, t, v, false);
            }
            PutReason::Sleep => self.task_mut(t).state = TaskState::Sleeping,
            PutReason::Block => self.task_mut(t).state = TaskState::Blocked,
            PutReason::Exit => self.task_mut(t).state = TaskState::Dead,
            PutReason::Migrate => self.task_mut(t).state = TaskState::Blocked, // transient
        }
        Some(t)
    }

    /// Picks and installs the next task on `v`; halts the vCPU when the
    /// queue is empty. Call only when `curr` is `None`. Before going idle,
    /// new-idle balancing tries to pull work (work conservation).
    pub fn schedule(&mut self, plat: &mut dyn Platform, v: VcpuId) {
        debug_assert!(self.vcpus[v.0].curr.is_none());
        if self.vcpus[v.0].rq.is_empty() {
            balance::newidle_balance(self, plat, v);
        }
        match self.vcpus[v.0].rq.peek() {
            Some(next) => {
                let removed = self.dequeue_task(next);
                debug_assert!(removed);
                self.set_curr(plat, v, next);
            }
            None => plat.vcpu_idle(v),
        }
    }

    /// Context-switches `v` from its current task to the leftmost waiting
    /// task (guest-level preemption).
    pub fn resched(&mut self, plat: &mut dyn Platform, v: VcpuId) {
        self.put_curr(plat, v, PutReason::Preempt);
        self.schedule(plat, v);
    }

    // ------------------------------------------------------------------
    // Wakeups
    // ------------------------------------------------------------------

    /// Wakes task `t` onto vCPU `v` (already selected). `waker` is the vCPU
    /// context issuing the wakeup, if any, for IPI accounting.
    pub fn wake_to(
        &mut self,
        plat: &mut dyn Platform,
        t: TaskId,
        v: VcpuId,
        waker: Option<VcpuId>,
    ) {
        match self.task(t).state {
            TaskState::Sleeping | TaskState::Blocked => {}
            _ => return, // spurious wake
        }
        self.trace.emit(
            plat.now(),
            EventKind::TaskWake {
                task: t.0,
                vcpu: v.0 as u16,
                waker: waker.map(|w| w.0 as u32),
            },
        );
        let was_idle = self.vcpu_is_idle(v);
        self.enqueue_task(plat, t, v, true);
        if let Some(w) = waker {
            if w != v {
                self.stats.resched_ipis.inc();
                self.trace.emit(
                    plat.now(),
                    EventKind::ReschedIpi {
                        from: Some(w.0 as u16),
                        to: v.0 as u16,
                    },
                );
                if plat.comm_distance(w, v) == CommDistance::CrossSocket {
                    self.stats.cross_llc_ipis.inc();
                }
            }
        }
        if was_idle {
            // The guest kicks the halted vCPU; it will pick the task when
            // the host runs it (vCPU wakeup latency applies here).
            plat.kick(v);
            return;
        }
        // Wakeup preemption check against the current task.
        if let Some(curr) = self.vcpus[v.0].curr {
            if self.should_preempt_wakeup(t, curr) && plat.vcpu_active(v) {
                self.resched(plat, v);
            } else if waker != Some(v) {
                plat.send_ipi(v);
            }
        }
    }

    /// Linux's `check_preempt_wakeup`: a waking normal task always preempts
    /// a `SCHED_IDLE` current; otherwise it preempts when its vruntime
    /// advantage exceeds the wakeup granularity.
    fn should_preempt_wakeup(&self, waking: TaskId, curr: TaskId) -> bool {
        let wt = self.task(waking);
        let ct = self.task(curr);
        if ct.policy.is_idle() && !wt.policy.is_idle() {
            return true;
        }
        if wt.policy.is_idle() && !ct.policy.is_idle() {
            return false;
        }
        ct.vruntime > wt.vruntime.saturating_add(WAKEUP_GRANULARITY_NS)
    }

    // ------------------------------------------------------------------
    // Tick
    // ------------------------------------------------------------------

    /// Scheduler tick on vCPU `v` (fires only while the vCPU is active).
    /// Performs runtime accounting, baseline capacity observation, tick
    /// preemption, and periodic balancing.
    pub fn tick(&mut self, plat: &mut dyn Platform, v: VcpuId) {
        let now = plat.now();
        // Baseline capacity observation from the steal counter. Only a busy
        // vCPU sees steal (paper §5.3).
        let steal = plat.steal_ns(v);
        // A probed override, while installed, is the capacity every ratio
        // reads, so the observation below cannot move `v`'s ratio.
        let overridden = self.cap_override(v).is_some();
        {
            let d = &mut self.vcpus[v.0];
            let wall = now.since(d.last_tick_at).max(1);
            let stolen = steal.saturating_sub(d.last_tick_steal).min(wall);
            let inst = 1024.0 * (1.0 - stolen as f64 / wall as f64);
            if d.curr.is_some() {
                // Time-decayed average (16 ms half-life), as scale_rt-style
                // capacity tracking does; floored so capacity never
                // collapses to zero on a burst of fully-stolen ticks.
                let decay = 0.5f64.powf(wall as f64 / 16.0e6);
                d.observed_cap = (d.observed_cap * decay + inst * (1.0 - decay)).max(64.0);
                d.observed_at = now;
                if !overridden {
                    self.ratio_fresh.clear(v.0);
                }
            }
            d.last_tick_steal = steal;
            d.last_tick_at = now;
            d.tick_count += 1;
        }

        if let Some(curr) = self.vcpus[v.0].curr {
            let delta = plat.poll_task(v);
            self.charge(now, curr, delta);
            let vrt = self.task(curr).vruntime;
            self.vcpus[v.0].rq.update_min_vruntime(Some(vrt));
            // Tick preemption.
            if let Some(next) = self.vcpus[v.0].rq.peek() {
                let ran = now.since(self.task(curr).run_started);
                let curr_idle = self.task(curr).policy.is_idle();
                let next_normal = !self.task(next).policy.is_idle();
                let vrt_next = self.task(next).vruntime;
                let vrt_curr = self.task(curr).vruntime;
                let preempt = (curr_idle && next_normal)
                    || (ran >= MIN_GRANULARITY_NS
                        && vrt_curr > vrt_next.saturating_add(WAKEUP_GRANULARITY_NS));
                if preempt {
                    self.resched(plat, v);
                }
            }
        }

        if self.vcpus[v.0]
            .tick_count
            .is_multiple_of(BALANCE_INTERVAL_TICKS)
        {
            balance::periodic_balance(self, plat, v);
        }
    }

    // ------------------------------------------------------------------
    // Burst lifecycle (called by the platform driver)
    // ------------------------------------------------------------------

    /// The current task on `v` completed its burst: settle accounting and
    /// return the task so the VM driver can ask the workload what's next.
    pub fn on_burst_complete(&mut self, plat: &mut dyn Platform, v: VcpuId) -> Option<TaskId> {
        let t = self.vcpus[v.0].curr?;
        let delta = plat.stop_task(v);
        self.charge(plat.now(), t, delta);
        self.task_mut(t).remaining = 0.0;
        Some(t)
    }

    /// Continues the current task on `v` with a fresh burst of `work`.
    pub fn continue_curr(&mut self, plat: &mut dyn Platform, v: VcpuId, work: f64) {
        let t = self.vcpus[v.0].curr.expect("continue_curr without curr");
        self.task_mut(t).remaining = work;
        let factor = self.comm_factor(plat, t, v);
        let penalty = if self.task(t).cache_sensitive {
            CACHE_REFILL_WORK
        } else {
            0.0
        };
        plat.run_task(v, t, work, factor, penalty);
    }

    /// The current task on `v` goes to sleep; schedules the next task.
    /// Call after [`Self::on_burst_complete`] (accounting already settled).
    pub fn curr_sleeps(&mut self, plat: &mut dyn Platform, v: VcpuId) -> Option<TaskId> {
        let t = self.put_curr_settled(plat.now(), v, PutReason::Sleep)?;
        self.schedule(plat, v);
        Some(t)
    }

    /// The current task on `v` blocks on a workload event.
    pub fn curr_blocks(&mut self, plat: &mut dyn Platform, v: VcpuId) -> Option<TaskId> {
        let t = self.put_curr_settled(plat.now(), v, PutReason::Block)?;
        self.schedule(plat, v);
        Some(t)
    }

    /// The current task on `v` exits.
    pub fn curr_exits(&mut self, plat: &mut dyn Platform, v: VcpuId) -> Option<TaskId> {
        let t = self.put_curr_settled(plat.now(), v, PutReason::Exit)?;
        self.schedule(plat, v);
        Some(t)
    }

    /// Removes `curr` without consulting the platform (accounting was
    /// settled by `on_burst_complete`).
    fn put_curr_settled(&mut self, now: SimTime, v: VcpuId, reason: PutReason) -> Option<TaskId> {
        let t = self.vcpus[v.0].curr.take()?;
        self.sync_vcpu(v);
        let vrt = self.task(t).vruntime;
        self.vcpus[v.0].rq.update_min_vruntime(Some(vrt));
        self.trace.emit(
            now,
            EventKind::ContextSwitch {
                vcpu: v.0 as u16,
                prev: Some(t.0),
                next: None,
                reason: reason.switch_reason(),
                min_vruntime: self.vcpus[v.0].rq.min_vruntime,
            },
        );
        self.task_mut(t).state = match reason {
            PutReason::Sleep => TaskState::Sleeping,
            PutReason::Block => TaskState::Blocked,
            PutReason::Exit => TaskState::Dead,
            _ => unreachable!("put_curr_settled only handles terminal reasons"),
        };
        Some(t)
    }

    // ------------------------------------------------------------------
    // Migration
    // ------------------------------------------------------------------

    /// Migrates a *waiting* task to vCPU `to`, renormalizing vruntime
    /// across queues as Linux does. `kind` labels the migration in traces.
    pub fn migrate_runnable(
        &mut self,
        plat: &mut dyn Platform,
        t: TaskId,
        to: VcpuId,
        kind: MigrateKind,
    ) {
        let from = match self.task(t).state {
            TaskState::Runnable(v) => v,
            _ => return,
        };
        if from == to {
            return;
        }
        if !self.dequeue_task(t) {
            return;
        }
        let from_min = self.vcpus[from.0].rq.min_vruntime;
        let to_min = self.vcpus[to.0].rq.min_vruntime;
        {
            let task = self.task_mut(t);
            task.vruntime = renorm_vruntime(task.vruntime, from_min, to_min);
            task.state = TaskState::Blocked; // transient
        }
        let was_idle = self.vcpu_is_idle(to);
        self.enqueue_task(plat, t, to, false);
        self.trace.emit(
            plat.now(),
            EventKind::TaskMigrate {
                task: t.0,
                from: from.0 as u16,
                to: to.0 as u16,
                kind,
            },
        );
        if was_idle {
            plat.kick(to);
        }
    }

    /// Migrates the *running* task off `src` onto `to` (active balance and
    /// ivh's stopper-thread migration). Counts an active migration and a
    /// migration IPI. Returns the migrated task.
    pub fn migrate_running(
        &mut self,
        plat: &mut dyn Platform,
        src: VcpuId,
        to: VcpuId,
        kind: MigrateKind,
    ) -> Option<TaskId> {
        if src == to {
            return None;
        }
        let t = self.put_curr(plat, src, PutReason::Migrate)?;
        let src_min = self.vcpus[src.0].rq.min_vruntime;
        let to_min = self.vcpus[to.0].rq.min_vruntime;
        {
            let task = self.task_mut(t);
            task.vruntime = renorm_vruntime(task.vruntime, src_min, to_min);
        }
        let was_idle = self.vcpu_is_idle(to);
        self.enqueue_task(plat, t, to, false);
        self.trace.emit(
            plat.now(),
            EventKind::TaskMigrate {
                task: t.0,
                from: src.0 as u16,
                to: to.0 as u16,
                kind,
            },
        );
        self.stats.active_migrations.inc();
        if plat.comm_distance(src, to) == CommDistance::CrossSocket {
            self.stats.cross_llc_ipis.inc();
        }
        if was_idle {
            plat.kick(to);
        } else {
            plat.send_ipi(to);
        }
        self.schedule(plat, src);
        Some(t)
    }

    /// Forces a task into the Blocked state regardless of where it is
    /// (probers are parked this way between sampling windows).
    pub fn block_task(&mut self, plat: &mut dyn Platform, t: TaskId) {
        match self.task(t).state {
            TaskState::Running(v) => {
                self.put_curr(plat, v, PutReason::Block);
                self.schedule(plat, v);
            }
            TaskState::Runnable(_) => {
                self.dequeue_task(t);
                self.task_mut(t).state = TaskState::Blocked;
            }
            TaskState::Sleeping => self.task_mut(t).state = TaskState::Blocked,
            TaskState::Blocked | TaskState::Dead => {}
        }
    }

    /// Terminates a task regardless of state (used to retire probers).
    pub fn kill_task(&mut self, plat: &mut dyn Platform, t: TaskId) {
        match self.task(t).state {
            TaskState::Running(v) => {
                self.put_curr(plat, v, PutReason::Exit);
                self.schedule(plat, v);
            }
            TaskState::Runnable(_) => {
                self.dequeue_task(t);
                self.task_mut(t).state = TaskState::Dead;
            }
            TaskState::Sleeping | TaskState::Blocked => {
                self.task_mut(t).state = TaskState::Dead;
            }
            TaskState::Dead => {}
        }
    }

    // ------------------------------------------------------------------
    // Communication locality
    // ------------------------------------------------------------------

    /// Work-rate multiplier for `t` when running on `v`, from the physical
    /// distance to the other *running* members of its communication group:
    /// the smallest factor among them, or 1.0 when none runs.
    pub fn comm_factor(&self, plat: &dyn Platform, t: TaskId, v: VcpuId) -> f64 {
        let group = match self.task(t).comm_group {
            Some(g) => g,
            None => return 1.0,
        };
        let members = match self.comm_groups.iter().find(|(gid, _)| *gid == group) {
            Some((_, m)) => m,
            None => return 1.0,
        };
        // No member can push the minimum below the cross-socket factor,
        // the smallest there is, so the scan stops once it gets there
        // (`comm_distance` is a pure read).
        // A member that is `t` itself or not running contributes 1.0,
        // which never lowers the minimum.
        let factor = |other_id: TaskId| match self.task(other_id).state {
            TaskState::Running(ov) if other_id != t => match plat.comm_distance(v, ov) {
                CommDistance::CrossSocket => CROSS_SOCKET_COMM_FACTOR,
                CommDistance::SameLlc => SAME_LLC_COMM_FACTOR,
                _ => 1.0,
            },
            _ => 1.0,
        };
        let mut worst = 1.0f64;
        for &other_id in members {
            if worst <= CROSS_SOCKET_COMM_FACTOR {
                break;
            }
            worst = worst.min(factor(other_id));
        }
        #[cfg(feature = "shadow")]
        {
            let full = members.iter().fold(1.0f64, |w, &o| w.min(factor(o)));
            assert_eq!(
                worst.to_bits(),
                full.to_bits(),
                "shadow: comm factor of task {}",
                t.0
            );
        }
        worst
    }

    /// Installs a probed topology: rebuilds the schedule domains (the
    /// paper's kernel module calling `rebuild_sched_domains`).
    pub fn install_topology(&mut self, topo: &PerceivedTopology) {
        self.domains = DomainTree::rebuild(topo);
    }

    /// Default CFS CPU selection (used when no hook overrides).
    pub fn select_cpu_fair(&self, plat: &mut dyn Platform, t: TaskId, now: SimTime) -> VcpuId {
        select::select_cpu_fair(self, plat, t, now, None)
    }

    /// CFS CPU selection with a waker context (wake-affine).
    pub fn select_cpu_fair_from(
        &self,
        plat: &mut dyn Platform,
        t: TaskId,
        now: SimTime,
        waker: Option<VcpuId>,
    ) -> VcpuId {
        select::select_cpu_fair(self, plat, t, now, waker)
    }
}

// ----------------------------------------------------------------------
// GuestOs: kernel + hooks dispatcher
// ----------------------------------------------------------------------

/// A guest kernel bundled with its (optional) vSched hook set.
///
/// All entry points from the platform driver and from workloads go through
/// this wrapper so hook dispatch is uniform.
pub struct GuestOs {
    /// The scheduler state.
    pub kern: Kernel,
    hooks: Option<Box<dyn SchedHooks>>,
}

impl GuestOs {
    /// Creates a guest of `nr_vcpus` vCPUs with no hooks installed (stock
    /// CFS).
    pub fn new(nr_vcpus: usize, now: SimTime) -> Self {
        Self {
            kern: Kernel::new(nr_vcpus, now),
            hooks: None,
        }
    }

    /// Installs a hook set (vSched's BPF-equivalent attach).
    pub fn install_hooks(&mut self, hooks: Box<dyn SchedHooks>) {
        self.hooks = Some(hooks);
    }

    /// Removes and returns the installed hooks.
    pub fn take_hooks(&mut self) -> Option<Box<dyn SchedHooks>> {
        self.hooks.take()
    }

    /// Mutable access to the installed hooks (for reading statistics back).
    pub fn hooks_mut(&mut self) -> Option<&mut (dyn SchedHooks + 'static)> {
        match self.hooks.as_mut() {
            Some(h) => Some(h.as_mut()),
            None => None,
        }
    }

    fn with_hooks<R>(
        &mut self,
        plat: &mut dyn Platform,
        f: impl FnOnce(&mut dyn SchedHooks, &mut Kernel, &mut dyn Platform) -> R,
    ) -> Option<R> {
        let mut hooks = self.hooks.take()?;
        let r = f(hooks.as_mut(), &mut self.kern, plat);
        self.hooks = Some(hooks);
        Some(r)
    }

    /// Spawns a task (Blocked until woken).
    pub fn spawn(&mut self, plat: &mut dyn Platform, spec: SpawnSpec) -> TaskId {
        self.kern.spawn(plat.now(), spec)
    }

    /// Wakes a task: hook-first CPU selection, then CFS fallback.
    pub fn wake_task(&mut self, plat: &mut dyn Platform, t: TaskId, waker: Option<VcpuId>) {
        match self.kern.task(t).state {
            TaskState::Sleeping | TaskState::Blocked => {}
            _ => return,
        }
        let prev = self.kern.task(t).last_vcpu;
        let hook_choice = self
            .with_hooks(plat, |h, k, p| h.select_cpu(k, p, t, prev))
            .flatten();
        let v = match hook_choice {
            Some(v) => v,
            None => {
                let now = plat.now();
                self.kern.select_cpu_fair_from(plat, t, now, waker)
            }
        };
        self.kern.wake_to(plat, t, v, waker);
    }

    /// Scheduler tick entry point.
    pub fn tick(&mut self, plat: &mut dyn Platform, v: VcpuId) {
        self.kern.tick(plat, v);
        self.with_hooks(plat, |h, k, p| h.on_tick(k, p, v));
    }

    /// The host started executing vCPU `v`.
    pub fn vcpu_started(&mut self, plat: &mut dyn Platform, v: VcpuId) {
        self.with_hooks(plat, |h, k, p| h.on_vcpu_start(k, p, v));
        if self.kern.vcpus[v.0].curr.is_none() {
            self.kern.schedule(plat, v);
        }
    }

    /// The host preempted or halted vCPU `v`.
    pub fn vcpu_stopped(&mut self, plat: &mut dyn Platform, v: VcpuId) {
        self.with_hooks(plat, |h, k, p| h.on_vcpu_stop(k, p, v));
    }

    /// Delivers a hook timer (token >= `HOOK_TIMER_BASE`).
    pub fn deliver_hook_timer(&mut self, plat: &mut dyn Platform, token: u64) {
        self.with_hooks(plat, |h, k, p| h.on_timer(k, p, token));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::task::{Policy, TaskProgram};

    /// A minimal single-"core" platform for the crate's unit tests: every
    /// vCPU is always active at capacity 1024, and run/stop deltas are
    /// synthesized from wall time (all zero while the clock stands still).
    pub(crate) struct TestPlat {
        pub(crate) now: SimTime,
        running: Vec<Option<(TaskId, SimTime)>>,
        kicks: Vec<VcpuId>,
        idles: Vec<VcpuId>,
    }

    impl TestPlat {
        pub(crate) fn new(nr: usize) -> Self {
            Self {
                now: SimTime::ZERO,
                running: vec![None; nr],
                kicks: Vec::new(),
                idles: Vec::new(),
            }
        }

        fn advance(&mut self, ns: u64) {
            self.now = self.now.after(ns);
        }
    }

    impl Platform for TestPlat {
        fn now(&self) -> SimTime {
            self.now
        }
        fn steal_ns(&self, _v: VcpuId) -> u64 {
            0
        }
        fn vcpu_active(&self, _v: VcpuId) -> bool {
            true
        }
        fn kick(&mut self, v: VcpuId) {
            self.kicks.push(v);
        }
        fn vcpu_idle(&mut self, v: VcpuId) {
            self.idles.push(v);
        }
        fn run_task(&mut self, v: VcpuId, t: TaskId, _remaining: f64, _factor: f64, _pen: f64) {
            self.running[v.0] = Some((t, self.now));
        }
        fn stop_task(&mut self, v: VcpuId) -> RunDelta {
            match self.running[v.0].take() {
                Some((_, since)) => {
                    let wall = self.now.since(since);
                    RunDelta {
                        wall_ns: wall,
                        active_ns: wall,
                        work: wall as f64,
                    }
                }
                None => RunDelta::default(),
            }
        }
        fn poll_task(&mut self, v: VcpuId) -> RunDelta {
            match self.running[v.0].as_mut() {
                Some((_, since)) => {
                    let wall = self.now.since(*since);
                    *since = self.now;
                    RunDelta {
                        wall_ns: wall,
                        active_ns: wall,
                        work: wall as f64,
                    }
                }
                None => RunDelta::default(),
            }
        }
        fn update_factor(&mut self, _v: VcpuId, _f: f64) {}
        fn send_ipi(&mut self, _to: VcpuId) {}
        fn comm_distance(&self, _a: VcpuId, _b: VcpuId) -> CommDistance {
            CommDistance::SameLlc
        }
        fn cacheline_latency_ns(&mut self, _a: VcpuId, _b: VcpuId) -> Option<f64> {
            Some(50.0)
        }
        fn set_timer(&mut self, _token: u64, _at: SimTime) {}
    }

    fn setup(nr: usize) -> (Kernel, TestPlat) {
        (Kernel::new(nr, SimTime::ZERO), TestPlat::new(nr))
    }

    fn spawn_normal(k: &mut Kernel, nr: usize) -> TaskId {
        k.spawn(SimTime::ZERO, SpawnSpec::normal(nr))
    }

    #[test]
    fn wake_onto_idle_vcpu_kicks_and_runs_on_start() {
        let (mut k, mut p) = setup(2);
        let t = spawn_normal(&mut k, 2);
        k.wake_to(&mut p, t, VcpuId(0), None);
        assert_eq!(p.kicks, vec![VcpuId(0)]);
        assert!(matches!(k.task(t).state, TaskState::Runnable(VcpuId(0))));
        // Host runs the vCPU: the guest picks the task.
        k.schedule(&mut p, VcpuId(0));
        assert!(matches!(k.task(t).state, TaskState::Running(VcpuId(0))));
        assert_eq!(k.vcpus[0].curr, Some(t));
    }

    #[test]
    fn idle_vcpu_halts_when_nothing_to_run() {
        let (mut k, mut p) = setup(1);
        k.schedule(&mut p, VcpuId(0));
        assert_eq!(p.idles, vec![VcpuId(0)]);
        assert!(k.vcpu_is_idle(VcpuId(0)));
    }

    #[test]
    fn normal_task_preempts_idle_policy_curr() {
        let (mut k, mut p) = setup(1);
        let bg = k.spawn(SimTime::ZERO, SpawnSpec::normal(1).policy(Policy::Idle));
        k.wake_to(&mut p, bg, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(bg).remaining = 1e12;
        assert_eq!(k.vcpus[0].curr, Some(bg));

        p.advance(100_000);
        let t = spawn_normal(&mut k, 1);
        k.wake_to(&mut p, t, VcpuId(0), None);
        assert_eq!(
            k.vcpus[0].curr,
            Some(t),
            "normal task must preempt idle policy"
        );
        assert!(matches!(k.task(bg).state, TaskState::Runnable(VcpuId(0))));
    }

    #[test]
    fn tick_preemption_round_robins_equal_tasks() {
        let (mut k, mut p) = setup(1);
        let a = spawn_normal(&mut k, 1);
        let b = spawn_normal(&mut k, 1);
        k.wake_to(&mut p, a, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(a).remaining = 1e12;
        p.advance(10_000);
        k.wake_to(&mut p, b, VcpuId(0), None);
        k.task_mut(b).remaining = 1e12;
        let first = k.vcpus[0].curr.unwrap();
        // Tick until the scheduler switches.
        let mut switched = false;
        for _ in 0..20 {
            p.advance(1_000_000);
            k.tick(&mut p, VcpuId(0));
            if k.vcpus[0].curr != Some(first) {
                switched = true;
                break;
            }
        }
        assert!(switched, "equal-weight tasks must round-robin");
    }

    #[test]
    fn vruntime_advances_with_execution() {
        let (mut k, mut p) = setup(1);
        let t = spawn_normal(&mut k, 1);
        k.wake_to(&mut p, t, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(t).remaining = 1e12;
        let v0 = k.task(t).vruntime;
        p.advance(5_000_000);
        k.tick(&mut p, VcpuId(0));
        assert_eq!(k.task(t).vruntime, v0 + 5_000_000);
        assert_eq!(k.task(t).total_active_ns, 5_000_000);
    }

    #[test]
    fn migrate_runnable_renormalizes_vruntime() {
        let (mut k, mut p) = setup(2);
        let a = spawn_normal(&mut k, 2);
        let b = spawn_normal(&mut k, 2);
        k.wake_to(&mut p, a, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(a).remaining = 1e12;
        p.advance(10_000);
        k.wake_to(&mut p, b, VcpuId(0), None);
        k.vcpus[1].rq.min_vruntime = 500_000_000;
        k.migrate_runnable(&mut p, b, VcpuId(1), MigrateKind::Balance);
        assert!(matches!(k.task(b).state, TaskState::Runnable(VcpuId(1))));
        assert!(k.task(b).vruntime >= 500_000_000 - SCHED_LATENCY_NS);
        assert_eq!(k.task(b).migrations, 1);
    }

    #[test]
    fn migrate_running_moves_curr_and_reschedules() {
        let (mut k, mut p) = setup(2);
        let a = spawn_normal(&mut k, 2);
        k.wake_to(&mut p, a, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(a).remaining = 1e12;
        p.advance(2_000_000);
        let moved = k.migrate_running(&mut p, VcpuId(0), VcpuId(1), MigrateKind::Active);
        assert_eq!(moved, Some(a));
        assert!(k.vcpus[0].curr.is_none());
        assert!(matches!(k.task(a).state, TaskState::Runnable(VcpuId(1))));
        assert_eq!(k.stats.active_migrations.get(), 1);
        // Target was idle → kicked.
        assert!(p.kicks.contains(&VcpuId(1)));
    }

    #[test]
    fn burst_complete_then_sleep_schedules_next() {
        let (mut k, mut p) = setup(1);
        let a = spawn_normal(&mut k, 1);
        let b = spawn_normal(&mut k, 1);
        k.wake_to(&mut p, a, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(a).remaining = 1_000_000.0;
        p.advance(5_000);
        k.wake_to(&mut p, b, VcpuId(0), None);
        k.task_mut(b).remaining = 1e12;
        p.advance(1_000_000);
        let done = k.on_burst_complete(&mut p, VcpuId(0));
        assert_eq!(done, Some(a));
        k.curr_sleeps(&mut p, VcpuId(0));
        assert!(matches!(k.task(a).state, TaskState::Sleeping));
        assert_eq!(k.vcpus[0].curr, Some(b));
    }

    #[test]
    fn kill_task_in_every_state() {
        let (mut k, mut p) = setup(2);
        let running = spawn_normal(&mut k, 2);
        let queued = spawn_normal(&mut k, 2);
        let blocked = spawn_normal(&mut k, 2);
        k.wake_to(&mut p, running, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(running).remaining = 1e12;
        k.wake_to(&mut p, queued, VcpuId(0), None);
        k.kill_task(&mut p, running);
        assert!(matches!(k.task(running).state, TaskState::Dead));
        // The queued task took over.
        assert_eq!(k.vcpus[0].curr, Some(queued));
        k.kill_task(&mut p, queued);
        assert!(matches!(k.task(queued).state, TaskState::Dead));
        k.kill_task(&mut p, blocked);
        assert!(matches!(k.task(blocked).state, TaskState::Dead));
    }

    #[test]
    fn capacity_drifts_to_full_when_idle() {
        let (mut k, mut p) = setup(1);
        k.vcpus[0].observed_cap = 200.0;
        k.vcpus[0].observed_at = SimTime::ZERO;
        // Busy: capacity stays at the observation.
        let t = spawn_normal(&mut k, 1);
        k.wake_to(&mut p, t, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(t).remaining = 1e12;
        assert_eq!(k.capacity_of(VcpuId(0), SimTime::from_ms(500)), 200.0);
        // Idle: observation relaxes toward 1024.
        k.kill_task(&mut p, t);
        let relaxed = k.capacity_of(VcpuId(0), SimTime::from_ms(500));
        assert!(
            relaxed > 950.0,
            "idle capacity should drift up, got {relaxed}"
        );
    }

    #[test]
    fn cap_override_is_authoritative() {
        let (mut k, _p) = setup(1);
        k.set_cap_override(VcpuId(0), Some(333.0));
        assert_eq!(k.capacity_of(VcpuId(0), SimTime::from_secs(10)), 333.0);
    }

    #[test]
    fn placement_mask_respects_cgroup_and_bypass() {
        let (mut k, _p) = setup(4);
        let t = k.spawn(SimTime::ZERO, SpawnSpec::normal(4));
        let mut prober_spec = SpawnSpec::normal(4);
        prober_spec.bypass_cgroup = true;
        prober_spec.program = TaskProgram::BuiltinSpin;
        let prober = k.spawn(SimTime::ZERO, prober_spec);
        k.cgroup.ban(2);
        assert!(!k.placement_mask(t).contains(2));
        assert!(k.placement_mask(prober).contains(2));
    }

    #[test]
    fn empty_placement_falls_back_to_affinity() {
        let (mut k, _p) = setup(2);
        let t = k.spawn(
            SimTime::ZERO,
            SpawnSpec::normal(2).affinity(CpuMask::single(1)),
        );
        k.cgroup.ban(1);
        // cgroup would leave nothing; affinity wins.
        assert_eq!(k.placement_mask(t), CpuMask::single(1));
    }

    #[test]
    fn sched_idle_task_does_not_preempt_normal() {
        let (mut k, mut p) = setup(1);
        let a = spawn_normal(&mut k, 1);
        k.wake_to(&mut p, a, VcpuId(0), None);
        k.schedule(&mut p, VcpuId(0));
        k.task_mut(a).remaining = 1e12;
        p.advance(1000);
        let bg = k.spawn(SimTime::ZERO, SpawnSpec::normal(1).policy(Policy::Idle));
        k.wake_to(&mut p, bg, VcpuId(0), None);
        assert_eq!(k.vcpus[0].curr, Some(a));
    }
}
