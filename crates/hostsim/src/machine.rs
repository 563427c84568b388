//! The machine: host scheduler, vCPUs, VMs, and the event loop.
//!
//! [`Machine`] owns the physical threads, every vCPU, and every VM (each a
//! [`guestos::GuestOs`] plus its workload). It drives the simulation:
//!
//! * **Host scheduling** — per-hardware-thread weighted round-robin over
//!   entities (vCPUs and host stressor loads), with CFS-bandwidth-style
//!   `(quota, period)` throttling per vCPU. This produces exactly the
//!   signals the paper manipulates on its testbed: vCPU inactive periods,
//!   steal time, and capacity fluctuation.
//! * **Work accrual** — a guest task accrues work only while its vCPU is
//!   `Running`, at the hosting thread's capacity (DVFS × SMT contention),
//!   scaled by the task's communication-locality factor.
//! * **Guest callbacks** — vCPU start/stop, the 1 ms guest tick (suppressed
//!   while preempted, which is what makes `vact`'s heartbeat work), burst
//!   completion, task wake timers, and workload/vSched timers.
//!
//! Re-entrancy rule: [`guestos::Platform`] methods invoked from inside guest
//! code never call back into a guest; anything that needs to (a thread
//! reschedule that starts another VM's vCPU) is deferred through a
//! zero-delay event.

use crate::domain::{DomainConfigError, DomainSchedule};
use crate::llc::LlcModel;
use crate::scenario::VmSpec;
use crate::topology::{
    HostSpec, CACHELINE_CROSS_NS, CACHELINE_LLC_NS, CACHELINE_NOISE, LLC_BYTES, SMT_CONTENTION,
};
use guestos::kernel::TICK_NS;
use guestos::{CommDistance, GuestOs, Platform, RunDelta, TaskId, TaskState, VcpuId, Workload};
use simcore::rng::mix64;
use simcore::time::MS;
use simcore::{EventQueue, Integrator, SimRng, SimTime};
use std::collections::VecDeque;
use trace::{EventKind, FaultClass, PreemptReason, PriorityClass, SharedCollector, TraceSink};

/// Global vCPU index across all VMs.
pub type GVcpu = usize;

/// Host-side scheduling state of a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Guest has nothing to run; not on any host runqueue.
    Halted,
    /// Wants to run; waiting on a host runqueue (steal time accrues).
    Runnable,
    /// Executing on the given hardware thread.
    Running(usize),
    /// Out of CFS-bandwidth quota (steal time accrues).
    Throttled,
}

/// CFS-bandwidth-style quota state.
#[derive(Debug, Clone, Copy)]
struct Bandwidth {
    quota_ns: u64,
    period_ns: u64,
    runtime_ns: u64,
    period_start: SimTime,
}

impl Bandwidth {
    /// Rolls the period window forward to contain `now`, resetting runtime.
    fn refill_to(&mut self, now: SimTime) {
        if now.since(self.period_start) >= self.period_ns {
            let periods = now.since(self.period_start) / self.period_ns;
            self.period_start = self.period_start.after(periods * self.period_ns);
            self.runtime_ns = 0;
        }
    }

    fn quota_left(&self) -> u64 {
        self.quota_ns.saturating_sub(self.runtime_ns)
    }

    fn next_refill(&self) -> SimTime {
        self.period_start.after(self.period_ns)
    }
}

/// An in-flight guest-task execution on a vCPU.
struct RunCtx {
    target: f64,
    factor: f64,
    cache_penalty: f64,
    work: Integrator,
    active: Integrator,
    prev_work: f64,
    prev_active: f64,
    last_settle: SimTime,
}

/// Host-side record of one vCPU.
pub struct HostVcpu {
    /// Owning VM index.
    pub vm: usize,
    /// Guest-local index.
    pub idx: usize,
    /// Hardware threads this vCPU may run on (preference order).
    pub affinity: Vec<usize>,
    /// Host scheduling weight (1024 = one fair share).
    pub weight: u64,
    /// Current host state.
    pub state: HostState,
    state_since: SimTime,
    /// Cumulative steal (runnable/throttled) time, guest-visible.
    pub steal_ns: u64,
    /// Cumulative time actually executing.
    pub active_ns: u64,
    /// Host-side preemption count (Running → waiting transitions).
    pub preemptions: u64,
    /// Taken offline by the chaos layer: the host refuses to schedule it.
    /// Guest kicks still land (Halted → Runnable) but the vCPU never
    /// reaches a host queue, so it sits Runnable accruing steal — the
    /// starving-vCPU signal the probers are supposed to notice.
    pub offline: bool,
    bandwidth: Option<Bandwidth>,
    bw_gen: u64,
    run: Option<RunCtx>,
    tick_gen: u64,
    burst_gen: u64,
    /// Capacity contribution currently flowing into the VM cycle counter.
    cap_contrib: f64,
    /// Total work delivered through this vCPU (capacity-ns).
    pub delivered_work: f64,
    /// Segment log of (start, end) running intervals, kept only when
    /// tracing is enabled (Figure 3's timeline).
    pub trace_segments: Vec<(SimTime, SimTime)>,
}

/// An always-runnable host-level load (stressor / high-priority host task).
#[derive(Debug, Clone, Copy)]
pub struct HostLoad {
    /// Identifier (index into the load arena).
    pub id: usize,
    /// Host scheduling weight.
    pub weight: u64,
    /// Pinned thread.
    pub thread: usize,
    /// Whether the load has been removed.
    pub dead: bool,
}

/// How the host arbitrates a thread among its runnable entities.
///
/// [`HostSched::Proportional`] is the original exact-settling weighted
/// round-robin — the default, byte-identical to every prior run.
/// [`HostSched::CreditSampled`] models a Xen-credit-style scheduler whose
/// accounting is *sampled* at a periodic tick rather than settled exactly:
/// whoever happens to be on-CPU at the tick eats the whole tick's charge,
/// which is precisely the hole a tick-dodging adversary exploits
/// ("Scheduler Vulnerabilities and Attacks in Cloud Computing").
/// [`HostSched::Domain`] is the seL4-style static time-partition that
/// closes the hole structurally.
#[derive(Debug, Clone)]
pub enum HostSched {
    /// Exact-accounting weighted round-robin (the default).
    Proportional,
    /// Sampled-accounting credit scheduler: charge is attributed at each
    /// tick to whichever entity is running at that instant, decays ×3/4
    /// per tick, and the runqueue picks the least-charged entity, with
    /// wake preemption when a waiter's charge undercuts the current's.
    /// The accounting tick is [`CREDIT_TICK_NS`].
    CreditSampled,
    /// Static per-tenant-class time slices rotated round-robin; only the
    /// active slice's class may execute.
    Domain(DomainSchedule),
}

/// Accounting tick period of [`HostSched::CreditSampled`] (1 ms).
pub const CREDIT_TICK_NS: u64 = MS;

/// Margin by which a queued entity's charge must undercut the current's
/// before a credit-sampled wake preempts (hysteresis against thrash).
const CREDIT_PREEMPT_MARGIN_NS: u64 = 200_000;

/// Live rotation state of a [`HostSched::Domain`] machine.
struct DomainState {
    /// Index of the active slice.
    active: usize,
    /// Class of the active slice (denormalized for the eligibility check).
    active_class: PriorityClass,
    /// Per-vCPU `active_ns` at the instant the slice began, for exact
    /// used/stolen deltas at the next rotation.
    snapshot: Vec<u64>,
}

/// An entity schedulable on a hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// A vCPU (global index).
    Vcpu(GVcpu),
    /// A host load (arena index).
    Load(usize),
}

/// Per-hardware-thread scheduler state.
struct HwThread {
    current: Option<Entity>,
    queue: VecDeque<Entity>,
    quantum_gen: u64,
    /// When the current entity started its quantum (for bandwidth runtime).
    quantum_started: SimTime,
}

/// One virtual machine: guest kernel + workload + accounting.
pub struct Vm {
    /// The guest OS (scheduler + optional vSched hooks). Boxed so that
    /// [`Machine::with_vm`] lends it out by swapping a pointer.
    pub guest: Box<GuestOs>,
    /// The hosted workload, if any.
    pub workload: Option<Box<dyn Workload>>,
    /// First global vCPU index of this VM.
    pub gvcpu_base: usize,
    /// Number of vCPUs.
    pub nr_vcpus: usize,
    /// Cycle accounting: integral of capacity over running vCPU time
    /// (Figure 20's total-cycles metric).
    pub cycles: Integrator,
    cycles_rate: f64,
}

/// Simulation events.
pub enum Ev {
    /// Re-evaluate a hardware thread's current entity.
    ThreadResched {
        /// Thread index.
        th: usize,
    },
    /// The current entity's quantum on a thread expired.
    QuantumExpire {
        /// Thread index.
        th: usize,
        /// Validity generation.
        gen: u64,
    },
    /// A throttled vCPU's bandwidth period rolled over.
    ThrottleRefill {
        /// Global vCPU.
        gv: GVcpu,
        /// Validity generation.
        gen: u64,
    },
    /// Guest scheduler tick (1 ms while the vCPU runs).
    GuestTick {
        /// Global vCPU.
        gv: GVcpu,
        /// Validity generation.
        gen: u64,
    },
    /// Predicted completion of the current task's burst.
    BurstDone {
        /// Global vCPU.
        gv: GVcpu,
        /// Validity generation.
        gen: u64,
    },
    /// A sleeping task's timer fired.
    TaskWake {
        /// VM index.
        vm: usize,
        /// Task to wake.
        task: TaskId,
    },
    /// A workload or vSched timer fired.
    Timer {
        /// VM index.
        vm: usize,
        /// Token (routed by `HOOK_TIMER_BASE`).
        token: u64,
    },
    /// A scripted scenario action fires.
    Script {
        /// Index into the scenario script.
        idx: usize,
    },
    /// A registered sampler fires.
    Sample {
        /// Sampler index.
        id: usize,
    },
    /// Credit-sampled accounting tick ([`HostSched::CreditSampled`]).
    ChargeTick,
    /// A wake enqueued a low-charge entity behind a busy thread; re-check
    /// whether it should preempt (deferred so the preemption's guest
    /// callbacks run from dispatch context, per the re-entrancy rule).
    CreditKick {
        /// Thread index.
        th: usize,
    },
    /// The active domain slice ended ([`HostSched::Domain`]).
    DomainRotate,
    /// Periodic LLC occupancy sample: advance the occupancy model, emit
    /// per-socket samples, and refresh running vCPU rates so the miss
    /// penalty tracks occupancy with bounded staleness. Armed only while
    /// the model is active (some VM has a non-zero footprint).
    LlcSample,
    /// End of the current run window.
    End,
}

/// A scripted change to the host configuration at a point in time.
pub enum ScriptAction {
    /// Install or remove bandwidth control on a vCPU.
    SetBandwidth {
        /// VM index.
        vm: usize,
        /// Guest-local vCPU.
        vcpu: usize,
        /// `(quota_ns, period_ns)`, or `None` to remove throttling.
        qp: Option<(u64, u64)>,
    },
    /// Change a core's DVFS frequency factor.
    SetFreq {
        /// Core index.
        core: usize,
        /// Frequency factor (1.0 = nominal).
        factor: f64,
    },
    /// Add a host-level load on a thread; the load id is its arena index
    /// (`loads_added` so far).
    AddLoad {
        /// Thread to stress.
        thread: usize,
        /// Host weight of the load.
        weight: u64,
    },
    /// Remove a previously added host load.
    RemoveLoad {
        /// Load id from the add order.
        id: usize,
    },
    /// Re-pin a vCPU to a new set of threads.
    SetAffinity {
        /// VM index.
        vm: usize,
        /// Guest-local vCPU.
        vcpu: usize,
        /// New allowed threads.
        threads: Vec<usize>,
    },
    /// Change a vCPU's host scheduling weight.
    SetVcpuWeight {
        /// VM index.
        vm: usize,
        /// Guest-local vCPU.
        vcpu: usize,
        /// New weight.
        weight: u64,
    },
    /// Take a vCPU offline: the host stops scheduling it and drops guest
    /// kicks until the matching [`ScriptAction::OnlineVcpu`].
    OfflineVcpu {
        /// VM index.
        vm: usize,
        /// Guest-local vCPU.
        vcpu: usize,
    },
    /// Bring an offline vCPU back online.
    OnlineVcpu {
        /// VM index.
        vm: usize,
        /// Guest-local vCPU.
        vcpu: usize,
    },
    /// Set the machine-wide probe-noise level: guest-visible measurements
    /// (`steal_ns`, cacheline latency) gain deterministic multiplicative
    /// jitter of up to ±`noise` (0.0 disables).
    SetProbeNoise {
        /// Relative jitter amplitude (e.g. 0.3 = ±30%).
        noise: f64,
    },
    /// Emit a [`EventKind::FaultInjected`] marker into the trace. The chaos
    /// layer schedules one alongside each concrete fault action so traces
    /// and the checker see fault boundaries.
    AnnotateFault {
        /// VM index the fault targets.
        vm: usize,
        /// Affected guest-local vCPU (0 for machine-wide faults).
        vcpu: usize,
        /// Fault classification.
        class: FaultClass,
    },
}

type Sampler = (u64, Option<Box<dyn FnMut(&Machine)>>);

/// Period of the [`Ev::LlcSample`] occupancy bookkeeping event (10 ms —
/// two fill time constants, so published occupancy is never badly stale).
const LLC_SAMPLE_NS: u64 = 10_000_000;

/// The simulated physical machine and everything on it.
pub struct Machine {
    /// Physical description.
    pub spec: HostSpec,
    /// Event queue (owns the clock).
    pub q: EventQueue<Ev>,
    /// Randomness (measurement noise).
    pub rng: SimRng,
    threads: Vec<HwThread>,
    thread_quantum: Vec<u64>,
    core_freq: Vec<f64>,
    /// Host scheduling policy ([`Machine::set_host_sched`], pre-start).
    sched: HostSched,
    /// Tenant class per VM (defaults to Standard).
    classes: Vec<PriorityClass>,
    /// Credit-sampled charge per vCPU ([`HostSched::CreditSampled`]).
    charge: Vec<u64>,
    /// Credit-sampled charge per host load.
    load_charge: Vec<u64>,
    /// Rotation state while running under [`HostSched::Domain`].
    domain: Option<DomainState>,
    /// Per-socket LLC occupancy model ([`crate::llc`]). Inert (and
    /// byte-identical to its absence) until some VM is given a working-set
    /// footprint via [`Machine::set_vm_footprint`].
    llc: LlcModel,
    /// Whether the periodic [`Ev::LlcSample`] event has been armed.
    llc_armed: bool,
    /// All vCPUs, across VMs.
    pub vcpus: Vec<HostVcpu>,
    /// All VMs.
    pub vms: Vec<Vm>,
    loads: Vec<HostLoad>,
    script: Vec<(SimTime, ScriptAction)>,
    samplers: Vec<Sampler>,
    /// Record running segments per vCPU (Figure 3 timelines).
    pub trace_activity: bool,
    /// Probe-noise amplitude (chaos mode): relative jitter applied to
    /// guest-visible measurements. 0.0 (the default) is bit-exact off.
    probe_noise: f64,
    /// Host-side trace sink; [`Machine::attach_trace`] turns it on and
    /// propagates per-VM scoped sinks into every guest kernel.
    pub trace: TraceSink,
    /// Reusable stand-in guest swapped into a VM's slot while its real
    /// guest is borrowed out by [`Machine::with_vm`]. Built on the first
    /// guest call and kept, so each call swaps two pointers and allocates
    /// nothing (a placeholder holds a full `KernelStats`, histogram
    /// buckets included); a machine that never calls a guest never
    /// builds one.
    placeholder: Option<Box<GuestOs>>,
    /// Events popped and dispatched over the machine's lifetime (the bench
    /// harness's events/sec denominator).
    pub events_dispatched: u64,
    finished: bool,
    /// Whether [`Machine::start`] has run. Script entries appended after
    /// start ([`Machine::at`]) are posted to the event queue directly
    /// rather than waiting for the start-time sweep.
    started: bool,
}

thread_local! {
    /// Machines built on this thread; see [`Machine::built_on_this_thread`].
    static BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Machine {
    /// How many machines [`Machine::new`] has built on the calling thread.
    /// A harness that hands machines out compares it with its own count to
    /// catch a machine built behind its back.
    pub fn built_on_this_thread() -> u64 {
        BUILT.with(|n| n.get())
    }

    /// Creates an empty machine; add VMs with [`Machine::add_vm`].
    pub fn new(spec: HostSpec, seed: u64) -> Self {
        BUILT.with(|n| n.set(n.get() + 1));
        let nr = spec.nr_threads();
        let cores = spec.nr_cores();
        let quantum = spec.quantum_ns;
        let llc = LlcModel::new(spec.sockets, LLC_BYTES);
        Self {
            spec,
            q: EventQueue::new(),
            rng: SimRng::new(seed),
            threads: (0..nr)
                .map(|_| HwThread {
                    current: None,
                    queue: VecDeque::new(),
                    quantum_gen: 0,
                    quantum_started: SimTime::ZERO,
                })
                .collect(),
            thread_quantum: vec![quantum; nr],
            core_freq: vec![1.0; cores],
            sched: HostSched::Proportional,
            classes: Vec::new(),
            charge: Vec::new(),
            load_charge: Vec::new(),
            domain: None,
            llc,
            llc_armed: false,
            vcpus: Vec::new(),
            vms: Vec::new(),
            loads: Vec::new(),
            script: Vec::new(),
            samplers: Vec::new(),
            trace_activity: false,
            probe_noise: 0.0,
            trace: TraceSink::default(),
            placeholder: None,
            events_dispatched: 0,
            finished: false,
            started: false,
        }
    }

    /// Turns on tracing: the machine emits host-side events (resume,
    /// preempt, steal accrual) and every guest kernel — current and
    /// later-added — emits guest-side events, all into `shared`, each
    /// stamped with its VM index.
    pub fn attach_trace(&mut self, shared: &SharedCollector) {
        self.trace = TraceSink::for_vm(shared, 0);
        for (i, vm) in self.vms.iter_mut().enumerate() {
            vm.guest.kern.trace = TraceSink::for_vm(shared, i as u16);
        }
    }

    /// Adds the VM `spec` describes: its vCPUs with their thread
    /// affinities, host weight and optional bandwidth, and its stock-CFS
    /// guest of the same size.
    /// Returns the VM index.
    pub fn add_vm(&mut self, spec: VmSpec) -> usize {
        let nr = spec.nr_vcpus;
        let affinities = spec.pinning.into_affinities(nr);
        let base = self.vcpus.len();
        let vm_idx = self.vms.len();
        let now = self.q.now();
        for (i, aff) in affinities.into_iter().enumerate() {
            assert!(!aff.is_empty(), "vCPU affinity must be non-empty");
            for &t in &aff {
                assert!(t < self.spec.nr_threads(), "thread {t} out of range");
            }
            self.vcpus.push(HostVcpu {
                vm: vm_idx,
                idx: i,
                affinity: aff,
                weight: spec.weight,
                state: HostState::Halted,
                state_since: now,
                steal_ns: 0,
                active_ns: 0,
                preemptions: 0,
                offline: false,
                bandwidth: spec.bandwidth.map(|(q, p)| Bandwidth {
                    quota_ns: q,
                    period_ns: p,
                    runtime_ns: 0,
                    period_start: now,
                }),
                bw_gen: 0,
                run: None,
                tick_gen: 0,
                burst_gen: 0,
                cap_contrib: 0.0,
                delivered_work: 0.0,
                trace_segments: Vec::new(),
            });
            self.charge.push(0);
        }
        self.classes.push(PriorityClass::Standard);
        self.llc.add_vm();
        let mut guest = Box::new(GuestOs::new(nr, now));
        guest.kern.trace = self.trace.scoped(vm_idx as u16);
        self.vms.push(Vm {
            guest,
            workload: None,
            gvcpu_base: base,
            nr_vcpus: nr,
            cycles: Integrator::new(now),
            cycles_rate: 0.0,
        });
        vm_idx
    }

    /// Installs the workload of a VM.
    pub fn set_workload(&mut self, vm: usize, w: Box<dyn Workload>) {
        self.vms[vm].workload = Some(w);
    }

    /// Sets a VM's tenant class (domain-schedule eligibility). Defaults
    /// to [`PriorityClass::Standard`]; set before [`Machine::start`].
    pub fn set_vm_class(&mut self, vm: usize, class: PriorityClass) {
        self.classes[vm] = class;
    }

    /// Sets a VM's working-set footprint in bytes, activating the
    /// per-socket LLC occupancy model ([`crate::llc`]). Footprint 0 (the
    /// default) means cache-insensitive: the VM neither occupies modelled
    /// cache nor pays a miss penalty — and while *every* VM is at 0 the
    /// model is inert and runs are byte-identical to builds without it.
    pub fn set_vm_footprint(&mut self, vm: usize, bytes: f64) {
        let now = self.q.now();
        self.llc.set_footprint(now, vm, bytes);
        if self.llc.active() && self.started && !self.llc_armed {
            self.llc_armed = true;
            self.q.post(now.after(LLC_SAMPLE_NS), Ev::LlcSample);
        }
    }

    /// Worst-socket LLC pressure in `[0, 1]` — the fleet placement signal.
    /// Advances the occupancy model to the current time first.
    pub fn llc_pressure(&mut self) -> f64 {
        if self.llc.active() {
            let now = self.q.now();
            for s in 0..self.spec.sockets {
                self.llc.advance(now, s);
            }
        }
        self.llc.pressure()
    }

    /// Read access to the LLC occupancy model (tests, diagnostics).
    pub fn llc(&self) -> &LlcModel {
        &self.llc
    }

    /// A VM's tenant class.
    pub fn vm_class(&self, vm: usize) -> PriorityClass {
        self.classes[vm]
    }

    /// Selects the host scheduling policy. Must be called before
    /// [`Machine::start`]; a [`HostSched::Domain`] schedule is validated
    /// against the tenant classes of the VMs added so far.
    pub fn set_host_sched(&mut self, sched: HostSched) -> Result<(), DomainConfigError> {
        assert!(
            !self.started,
            "host scheduling policy must be set before start()"
        );
        if let HostSched::Domain(ds) = &sched {
            let mut in_use: Vec<PriorityClass> = Vec::new();
            for &c in &self.classes {
                if !in_use.contains(&c) {
                    in_use.push(c);
                }
            }
            ds.validate(&in_use)?;
        }
        self.sched = sched;
        Ok(())
    }

    /// Appends a scripted action at an absolute time. Before
    /// [`Machine::start`] the entry joins the start-time sweep; after
    /// start (fleet chaos injecting mid-run degradation) it is posted to
    /// the event queue directly, so `t` must not be in the past.
    pub fn at(&mut self, t: SimTime, action: ScriptAction) {
        self.script.push((t, action));
        if self.started {
            let idx = self.script.len() - 1;
            self.q.post(t, Ev::Script { idx });
        }
    }

    /// Registers a periodic sampler; returns its id.
    pub fn add_sampler(&mut self, interval_ns: u64, f: Box<dyn FnMut(&Machine)>) -> usize {
        self.samplers.push((interval_ns, Some(f)));
        self.samplers.len() - 1
    }

    /// Adds a host load immediately; returns its id.
    pub fn add_host_load(&mut self, thread: usize, weight: u64) -> usize {
        let id = self.loads.len();
        self.loads.push(HostLoad {
            id,
            weight,
            thread,
            dead: false,
        });
        self.load_charge.push(0);
        self.threads[thread].queue.push_back(Entity::Load(id));
        let now = self.q.now();
        self.q.post(now, Ev::ThreadResched { th: thread });
        id
    }

    /// Removes a host load.
    pub fn remove_host_load(&mut self, id: usize) {
        if self.loads[id].dead {
            return;
        }
        self.loads[id].dead = true;
        let th = self.loads[id].thread;
        self.threads[th].queue.retain(|e| *e != Entity::Load(id));
        if self.threads[th].current == Some(Entity::Load(id)) {
            self.stop_current(th);
            let now = self.q.now();
            self.q.post(now, Ev::ThreadResched { th });
        }
    }

    /// Global vCPU index of a guest-local vCPU.
    pub fn gv(&self, vm: usize, vcpu: usize) -> GVcpu {
        self.vms[vm].gvcpu_base + vcpu
    }

    /// Total weight of live host loads pinned to a thread.
    pub fn host_load_weight_on(&self, th: usize) -> u64 {
        self.loads
            .iter()
            .filter(|l| !l.dead && l.thread == th)
            .map(|l| l.weight)
            .sum()
    }

    /// Hardware threads a vCPU may currently run on (preference order).
    pub fn vcpu_affinity(&self, gv: GVcpu) -> &[usize] {
        &self.vcpus[gv].affinity
    }

    /// Whether the chaos layer currently holds a vCPU offline.
    pub fn vcpu_offline(&self, gv: GVcpu) -> bool {
        self.vcpus[gv].offline
    }

    /// The bandwidth limit installed on a vCPU, as `(quota_ns, period_ns)`.
    pub fn vcpu_bandwidth(&self, gv: GVcpu) -> Option<(u64, u64)> {
        self.vcpus[gv]
            .bandwidth
            .map(|bw| (bw.quota_ns, bw.period_ns))
    }

    /// The multiplicative probe-noise amplitude currently in force.
    pub fn probe_noise(&self) -> f64 {
        self.probe_noise
    }

    /// A core's current DVFS frequency factor (1.0 = nominal).
    pub fn core_freq_factor(&self, core: usize) -> f64 {
        self.core_freq[core]
    }

    // ------------------------------------------------------------------
    // Capacity and accounting
    // ------------------------------------------------------------------

    /// Instantaneous capacity of a hardware thread (1024 scale).
    pub fn thread_cap(&self, th: usize) -> f64 {
        let core = self.spec.core_of(th);
        let sib = self.spec.sibling_of(th);
        let sib_busy = sib != th && self.threads[sib].current.is_some();
        let smt_factor = if sib_busy { SMT_CONTENTION } else { 1.0 };
        1024.0 * self.core_freq[core] * smt_factor
    }

    /// Current steal time of a vCPU including the in-progress segment.
    pub fn vcpu_steal(&self, gv: GVcpu) -> u64 {
        let v = &self.vcpus[gv];
        let extra = match v.state {
            HostState::Runnable | HostState::Throttled => self.q.now().since(v.state_since),
            _ => 0,
        };
        v.steal_ns + extra
    }

    /// Current active (executing) time of a vCPU including in-progress.
    pub fn vcpu_active_ns(&self, gv: GVcpu) -> u64 {
        let v = &self.vcpus[gv];
        let extra = match v.state {
            HostState::Running(_) => self.q.now().since(v.state_since),
            _ => 0,
        };
        v.active_ns + extra
    }

    /// Active (executing) time summed across every vCPU, including
    /// in-progress segments — the utilization numerator a fleet samples
    /// per host at each epoch barrier.
    pub fn total_active_ns(&self) -> u64 {
        (0..self.vcpus.len())
            .map(|gv| self.vcpu_active_ns(gv))
            .sum()
    }

    fn settle_vcpu_state(&mut self, gv: GVcpu) {
        let now = self.q.now();
        let v = &mut self.vcpus[gv];
        let dt = now.since(v.state_since);
        let mut stolen = 0;
        match v.state {
            HostState::Runnable | HostState::Throttled => {
                v.steal_ns += dt;
                stolen = dt;
            }
            HostState::Running(_) => {
                v.active_ns += dt;
                if let Some(bw) = v.bandwidth.as_mut() {
                    bw.runtime_ns += dt;
                }
            }
            HostState::Halted => {}
        }
        v.state_since = now;
        if stolen > 0 {
            let (vm, idx) = (self.vcpus[gv].vm, self.vcpus[gv].idx);
            self.trace.emit_vm(
                now,
                vm as u16,
                EventKind::StealAccrue {
                    vcpu: idx as u16,
                    delta_ns: stolen,
                },
            );
        }
    }

    fn set_vcpu_state(&mut self, gv: GVcpu, st: HostState) {
        // How long the vCPU has been off-core, read before settling.
        let inactive_gap = {
            let v = &self.vcpus[gv];
            match v.state {
                HostState::Runnable | HostState::Throttled => self.q.now().since(v.state_since),
                _ => 0,
            }
        };
        self.settle_vcpu_state(gv);
        let now = self.q.now();
        let old = self.vcpus[gv].state;
        if matches!(old, HostState::Running(_))
            && !matches!(st, HostState::Running(_) | HostState::Halted)
        {
            self.vcpus[gv].preemptions += 1;
        }
        if self.trace.is_on() {
            let (vm, idx) = (self.vcpus[gv].vm as u16, self.vcpus[gv].idx as u16);
            let kind = match (old, st) {
                (HostState::Running(_), HostState::Running(_)) => None,
                (_, HostState::Running(th)) => Some(EventKind::VcpuResume {
                    vcpu: idx,
                    thread: th as u16,
                }),
                (HostState::Running(_), HostState::Runnable) => Some(EventKind::VcpuPreempt {
                    vcpu: idx,
                    reason: PreemptReason::Preempt,
                }),
                (HostState::Running(_), HostState::Throttled) => Some(EventKind::VcpuPreempt {
                    vcpu: idx,
                    reason: PreemptReason::Throttle,
                }),
                (HostState::Running(_), HostState::Halted) => Some(EventKind::VcpuPreempt {
                    vcpu: idx,
                    reason: PreemptReason::Halt,
                }),
                (HostState::Halted, HostState::Runnable | HostState::Throttled) => {
                    Some(EventKind::VcpuWake { vcpu: idx })
                }
                (HostState::Runnable | HostState::Throttled, HostState::Halted) => {
                    Some(EventKind::VcpuHalt { vcpu: idx })
                }
                _ => None,
            };
            if let Some(kind) = kind {
                self.trace.emit_vm(now, vm, kind);
            }
        }
        if self.trace_activity {
            match (old, st) {
                (HostState::Running(_), HostState::Running(_)) => {}
                (HostState::Running(_), _) => {
                    if let Some(last) = self.vcpus[gv].trace_segments.last_mut() {
                        last.1 = now;
                    }
                }
                (_, HostState::Running(_)) => {
                    self.vcpus[gv].trace_segments.push((now, now));
                }
                _ => {}
            }
        }
        // LLC occupancy: sched/desched transitions move the VM's running
        // count on the affected socket(s); advance happens inside the
        // model before counts change so the elapsed interval is charged
        // under the old regime.
        if self.llc.active() {
            let vm = self.vcpus[gv].vm;
            let old_th = match old {
                HostState::Running(t) => Some(t),
                _ => None,
            };
            let new_th = match st {
                HostState::Running(t) => Some(t),
                _ => None,
            };
            if old_th != new_th {
                if let Some(t) = old_th {
                    self.llc.on_desched(now, vm, self.spec.socket_of(t));
                }
                if let Some(t) = new_th {
                    self.llc.on_sched(now, vm, self.spec.socket_of(t));
                }
            }
        }
        self.vcpus[gv].state = st;
        // Cache pollution: a resume after a long enough inactive period
        // costs a cache-sensitive task a refill's worth of extra work
        // (paper §2.1 — co-running vCPUs pollute the cache while this one
        // is off the core).
        if matches!(st, HostState::Running(_)) && inactive_gap >= 1_000_000 {
            if let Some(run) = self.vcpus[gv].run.as_mut() {
                if run.cache_penalty > 0.0 {
                    run.work.add(-run.cache_penalty);
                }
            }
        }
        self.refresh_vcpu_rate(gv);
    }

    /// Recomputes the work/active/cycle rates of a vCPU after any boundary
    /// (state change, frequency step, SMT sibling change, factor update) and
    /// re-arms its burst-completion event.
    fn refresh_vcpu_rate(&mut self, gv: GVcpu) {
        let now = self.q.now();
        let cap = match self.vcpus[gv].state {
            HostState::Running(th) => self.thread_cap(th),
            _ => 0.0,
        };
        let vm = self.vcpus[gv].vm;
        // VM cycle accounting.
        let old = self.vcpus[gv].cap_contrib;
        if (cap - old).abs() > f64::EPSILON {
            let vmref = &mut self.vms[vm];
            vmref.cycles_rate += cap - old;
            vmref.cycles.set_rate(now, vmref.cycles_rate);
            self.vcpus[gv].cap_contrib = cap;
        }
        // LLC miss penalty: a cache-sensitive VM whose working set is not
        // resident on its socket accrues work slower, exactly like a bad
        // communication-locality factor (the paper's follow-up extends the
        // abstraction premise from cycles to cache this way).
        let llc_eff = if self.llc.active() {
            match self.vcpus[gv].state {
                HostState::Running(th) => {
                    let s = self.spec.socket_of(th);
                    self.llc.advance(now, s);
                    self.llc.efficiency(vm, s)
                }
                _ => 1.0,
            }
        } else {
            1.0
        };
        // Task work accrual.
        let mut arm: Option<(u64, u64)> = None;
        {
            let v = &mut self.vcpus[gv];
            if let Some(run) = v.run.as_mut() {
                run.work.set_rate(now, cap * run.factor * llc_eff);
                run.active.set_rate(now, if cap > 0.0 { 1.0 } else { 0.0 });
                v.burst_gen += 1;
                if run.target < 1.0e15 {
                    if let Some(eta) = run.work.eta_ns(now, run.target) {
                        arm = Some((eta, v.burst_gen));
                    }
                }
            }
        }
        if let Some((eta, gen)) = arm {
            self.q.post(now.after(eta), Ev::BurstDone { gv, gen });
        }
    }

    /// Refresh both the thread's current vCPU and its sibling's (SMT
    /// contention changed). Without SMT a thread is its own sibling, and a
    /// second refresh would only post a duplicate `BurstDone` that
    /// tombstones the first.
    fn refresh_thread_and_sibling(&mut self, th: usize) {
        let sibling = self.spec.sibling_of(th);
        let n = if sibling == th { 1 } else { 2 };
        for &t in &[th, sibling][..n] {
            if let Some(Entity::Vcpu(gv)) = self.threads[t].current {
                self.refresh_vcpu_rate(gv);
            }
        }
    }

    // ------------------------------------------------------------------
    // Host scheduling
    // ------------------------------------------------------------------

    fn entity_weight(&self, e: Entity) -> u64 {
        match e {
            Entity::Vcpu(gv) => self.vcpus[gv].weight,
            Entity::Load(id) => self.loads[id].weight,
        }
    }

    fn entity_charge(&self, e: Entity) -> u64 {
        match e {
            Entity::Vcpu(gv) => self.charge[gv],
            Entity::Load(id) => self.load_charge[id],
        }
    }

    /// Whether an entity may run right now. Only a domain schedule ever
    /// says no: vCPUs outside the active slice's class wait. Host loads
    /// are classless (hypervisor work) and always eligible.
    fn entity_eligible(&self, e: Entity) -> bool {
        let Some(d) = &self.domain else { return true };
        match e {
            Entity::Vcpu(gv) => self.classes[self.vcpus[gv].vm] == d.active_class,
            Entity::Load(_) => true,
        }
    }

    /// Queue position of the entity the policy would run next on `th`,
    /// or `None` if nothing there is runnable under the policy.
    fn pickable(&self, th: usize) -> Option<usize> {
        let q = &self.threads[th].queue;
        match &self.sched {
            HostSched::Proportional => {
                if q.is_empty() {
                    None
                } else {
                    Some(0)
                }
            }
            HostSched::CreditSampled => {
                let mut best: Option<(usize, u64)> = None;
                for (pos, &e) in q.iter().enumerate() {
                    let c = self.entity_charge(e);
                    if best.map(|(_, bc)| c < bc).unwrap_or(true) {
                        best = Some((pos, c));
                    }
                }
                best.map(|(pos, _)| pos)
            }
            HostSched::Domain(_) => q.iter().position(|&e| self.entity_eligible(e)),
        }
    }

    /// Stops the current entity on a thread without picking a successor.
    /// vCPUs go back to Runnable (host preemption).
    fn stop_current(&mut self, th: usize) {
        let Some(cur) = self.threads[th].current.take() else {
            return;
        };
        self.threads[th].quantum_gen += 1;
        match cur {
            Entity::Vcpu(gv) => {
                self.set_vcpu_state(gv, HostState::Runnable);
                self.vcpus[gv].tick_gen += 1; // suppress guest ticks while off-core
                self.threads[th].queue.push_back(Entity::Vcpu(gv));
                self.notify_vcpu_stop(gv);
            }
            Entity::Load(id) => {
                if !self.loads[id].dead {
                    self.threads[th].queue.push_back(Entity::Load(id));
                }
            }
        }
        self.refresh_thread_and_sibling(th);
    }

    /// Removes the current entity entirely (halt/throttle/migrate-away).
    fn remove_current(&mut self, th: usize) {
        if self.threads[th].current.take().is_some() {
            self.threads[th].quantum_gen += 1;
            self.refresh_thread_and_sibling(th);
        }
    }

    /// Picks the next entity on an idle thread and starts it.
    fn thread_resched(&mut self, th: usize) {
        if self.threads[th].current.is_some() {
            return;
        }
        // Work-steal a waiting vCPU if we have nothing runnable of our
        // own (floating vCPUs).
        if self.pickable(th).is_none() {
            self.steal_waiting(th);
        }
        let Some(pos) = self.pickable(th) else {
            self.refresh_thread_and_sibling(th);
            return;
        };
        let Some(next) = self.threads[th].queue.remove(pos) else {
            self.refresh_thread_and_sibling(th);
            return;
        };
        self.start_entity(th, next);
    }

    /// Steals the longest-waiting runnable vCPU allowed on `th` from
    /// another thread's queue.
    fn steal_waiting(&mut self, th: usize) {
        let mut best: Option<(usize, usize, u64)> = None; // (thread, pos, waited)
        let now = self.q.now();
        for (ot, other) in self.threads.iter().enumerate() {
            if ot == th {
                continue;
            }
            // Only steal when the owner has more demand than it can serve.
            if other.current.is_none() {
                continue;
            }
            for (pos, e) in other.queue.iter().enumerate() {
                if let Entity::Vcpu(gv) = e {
                    let v = &self.vcpus[*gv];
                    if !v.offline
                        && v.affinity.contains(&th)
                        && v.affinity.len() > 1
                        && self.entity_eligible(*e)
                    {
                        let waited = now.since(v.state_since);
                        if best.map(|(_, _, w)| waited > w).unwrap_or(true) {
                            best = Some((ot, pos, waited));
                        }
                    }
                }
            }
        }
        if let Some((ot, pos, _)) = best {
            if let Some(e) = self.threads[ot].queue.remove(pos) {
                self.threads[th].queue.push_back(e);
            }
        }
    }

    /// Starts an entity on a thread and arms its quantum.
    fn start_entity(&mut self, th: usize, e: Entity) {
        let now = self.q.now();
        debug_assert!(self.threads[th].current.is_none());
        self.threads[th].current = Some(e);
        self.threads[th].quantum_started = now;
        self.threads[th].quantum_gen += 1;
        let gen = self.threads[th].quantum_gen;

        let mut slice = self.thread_quantum[th] * self.entity_weight(e) / 1024;
        slice = slice.max(100_000); // floor: 0.1 ms
        if let Entity::Vcpu(gv) = e {
            // Bandwidth: clamp the slice to the remaining quota.
            if let Some(bw) = self.vcpus[gv].bandwidth.as_mut() {
                bw.refill_to(now);
                slice = slice.min(bw.quota_left().max(1));
            }
            self.set_vcpu_state(gv, HostState::Running(th));
            // Start guest ticks.
            self.vcpus[gv].tick_gen += 1;
            let tgen = self.vcpus[gv].tick_gen;
            self.q
                .post(now.after(TICK_NS), Ev::GuestTick { gv, gen: tgen });
            self.refresh_thread_and_sibling(th);
            self.notify_vcpu_start(gv);
        } else {
            self.refresh_thread_and_sibling(th);
        }
        self.q.post(now.after(slice), Ev::QuantumExpire { th, gen });
    }

    /// Handles quantum expiry: bandwidth throttling, then rotation.
    fn quantum_expire(&mut self, th: usize, gen: u64) {
        if self.threads[th].quantum_gen != gen {
            return;
        }
        let Some(cur) = self.threads[th].current else {
            return;
        };
        let now = self.q.now();
        if let Entity::Vcpu(gv) = cur {
            // Settle running time into the bandwidth window.
            self.settle_vcpu_state(gv);
            let throttle = {
                let v = &mut self.vcpus[gv];
                match v.bandwidth.as_mut() {
                    Some(bw) => {
                        bw.refill_to(now);
                        bw.quota_left() == 0
                    }
                    None => false,
                }
            };
            if throttle {
                self.threads[th].current = None;
                self.threads[th].quantum_gen += 1;
                self.set_vcpu_state(gv, HostState::Throttled);
                self.vcpus[gv].tick_gen += 1;
                self.vcpus[gv].bw_gen += 1;
                let bwgen = self.vcpus[gv].bw_gen;
                let refill = self.vcpus[gv].bandwidth.as_ref().unwrap().next_refill();
                self.q.post(refill, Ev::ThrottleRefill { gv, gen: bwgen });
                self.refresh_thread_and_sibling(th);
                self.notify_vcpu_stop(gv);
                self.thread_resched(th);
                return;
            }
        }
        if self.pickable(th).is_none() {
            // Nothing the policy could run instead: extend in place.
            self.threads[th].quantum_gen += 1;
            let gen = self.threads[th].quantum_gen;
            let mut slice = self.thread_quantum[th] * self.entity_weight(cur) / 1024;
            slice = slice.max(100_000);
            if let Entity::Vcpu(gv) = cur {
                if let Some(bw) = self.vcpus[gv].bandwidth.as_mut() {
                    slice = slice.min(bw.quota_left().max(1));
                }
            }
            self.threads[th].quantum_started = now;
            self.q.post(now.after(slice), Ev::QuantumExpire { th, gen });
            return;
        }
        // Rotate.
        self.stop_current(th);
        self.thread_resched(th);
    }

    fn throttle_refill(&mut self, gv: GVcpu, gen: u64) {
        if self.vcpus[gv].bw_gen != gen {
            return;
        }
        if self.vcpus[gv].state != HostState::Throttled {
            return;
        }
        let now = self.q.now();
        if let Some(bw) = self.vcpus[gv].bandwidth.as_mut() {
            bw.refill_to(now);
        }
        self.set_vcpu_state(gv, HostState::Runnable);
        self.enqueue_vcpu(gv);
    }

    /// Credit-sampled accounting tick: whoever is on-CPU at this instant
    /// is charged the whole tick (the sampling hole a tick-dodger games),
    /// every charge decays ×3/4, and each thread re-checks whether a
    /// less-charged waiter should take over.
    fn charge_tick(&mut self) {
        if !matches!(self.sched, HostSched::CreditSampled) {
            return;
        }
        for th in 0..self.threads.len() {
            match self.threads[th].current {
                Some(Entity::Vcpu(gv)) => self.charge[gv] += CREDIT_TICK_NS,
                Some(Entity::Load(id)) => self.load_charge[id] += CREDIT_TICK_NS,
                None => {}
            }
        }
        for c in &mut self.charge {
            *c = *c * 3 / 4;
        }
        for c in &mut self.load_charge {
            *c = *c * 3 / 4;
        }
        for th in 0..self.threads.len() {
            self.credit_resort(th);
        }
        let now = self.q.now();
        self.q.post(now.after(CREDIT_TICK_NS), Ev::ChargeTick);
    }

    /// Preempts a thread's current entity if a queued one undercuts its
    /// charge by more than the hysteresis margin (credit-sampled only).
    fn credit_resort(&mut self, th: usize) {
        if !matches!(self.sched, HostSched::CreditSampled) {
            return;
        }
        let Some(cur) = self.threads[th].current else {
            self.thread_resched(th);
            return;
        };
        let cur_charge = self.entity_charge(cur);
        let min_queued = self.threads[th]
            .queue
            .iter()
            .map(|&e| self.entity_charge(e))
            .min();
        if let Some(mc) = min_queued {
            if mc + CREDIT_PREEMPT_MARGIN_NS < cur_charge {
                self.stop_current(th);
                self.thread_resched(th);
            }
        }
    }

    /// Ends the active domain slice: settles execution time, accounts the
    /// ended slice (used vs stolen vs entitled — the steal-conservation
    /// law re-derives this), rotates to the next slice, and evicts any
    /// vCPU the new domain does not admit.
    fn domain_rotate(&mut self) {
        let HostSched::Domain(ref ds) = self.sched else {
            return;
        };
        let ds = ds.clone();
        let now = self.q.now();
        // Settle running vCPUs so active_ns deltas are exact at the
        // boundary; everything off-CPU is already settled.
        for th in 0..self.threads.len() {
            if let Some(Entity::Vcpu(gv)) = self.threads[th].current {
                self.settle_vcpu_state(gv);
            }
        }
        let Some(mut d) = self.domain.take() else {
            return;
        };
        let ended = ds.slices[d.active];
        let mut used_ns = 0u64;
        let mut stolen_ns = 0u64;
        for gv in 0..self.vcpus.len() {
            // VMs added mid-slice (fleet arrivals) have no snapshot entry:
            // their execution this slice is zero by construction.
            let before = d
                .snapshot
                .get(gv)
                .copied()
                .unwrap_or(self.vcpus[gv].active_ns);
            let delta = self.vcpus[gv].active_ns.saturating_sub(before);
            if self.classes[self.vcpus[gv].vm] == ended.class {
                used_ns += delta;
            } else {
                stolen_ns += delta;
            }
        }
        let threads = self.threads.len() as u16;
        self.trace.emit_vm(
            now,
            0,
            EventKind::StealAccounted {
                index: d.active as u16,
                class: ended.class,
                threads,
                slice_ns: ended.slice_ns,
                entitled_ns: ended.slice_ns * threads as u64,
                used_ns,
                stolen_ns,
            },
        );
        d.active = (d.active + 1) % ds.slices.len();
        let next = ds.slices[d.active];
        d.active_class = next.class;
        d.snapshot = self.vcpus.iter().map(|v| v.active_ns).collect();
        self.trace.emit_vm(
            now,
            0,
            EventKind::DomainSwitch {
                index: d.active as u16,
                class: next.class,
                slice_ns: next.slice_ns,
                period_ns: ds.period_ns,
            },
        );
        self.domain = Some(d);
        for th in 0..self.threads.len() {
            if let Some(e) = self.threads[th].current {
                if !self.entity_eligible(e) {
                    self.stop_current(th);
                }
            }
        }
        for th in 0..self.threads.len() {
            self.thread_resched(th);
        }
        self.q.post(now.after(next.slice_ns), Ev::DomainRotate);
    }

    /// Puts a runnable vCPU on the best allowed thread's queue.
    fn enqueue_vcpu(&mut self, gv: GVcpu) {
        if self.vcpus[gv].offline {
            // Chaos offline: stays Runnable (steal accrues) but never
            // reaches a host queue until brought back online.
            return;
        }
        let mut best = self.vcpus[gv].affinity[0];
        let mut best_len = usize::MAX;
        for &t in &self.vcpus[gv].affinity {
            let len = self.threads[t].queue.len() + usize::from(self.threads[t].current.is_some());
            if len < best_len {
                best_len = len;
                best = t;
            }
        }
        self.threads[best].queue.push_back(Entity::Vcpu(gv));
        let now = self.q.now();
        if self.threads[best].current.is_none() {
            self.q.post(now, Ev::ThreadResched { th: best });
        } else if matches!(self.sched, HostSched::CreditSampled) {
            // A freshly woken low-charge entity may deserve the CPU now;
            // decided via a zero-delay event because the preemption's
            // guest callbacks must not run from guest context.
            self.q.post(now, Ev::CreditKick { th: best });
        }
    }

    /// Makes a halted vCPU runnable (guest kick). Public so vSched's ivh
    /// pre-wake can reach it through the platform.
    pub fn kick_vcpu(&mut self, gv: GVcpu) {
        if self.vcpus[gv].state != HostState::Halted {
            return;
        }
        if let Some(bw) = self.vcpus[gv].bandwidth.as_mut() {
            bw.refill_to(self.q.now());
            if bw.quota_left() == 0 {
                // Out of quota: wake straight into Throttled.
                self.set_vcpu_state(gv, HostState::Throttled);
                self.vcpus[gv].bw_gen += 1;
                let gen = self.vcpus[gv].bw_gen;
                let refill = self.vcpus[gv].bandwidth.as_ref().unwrap().next_refill();
                self.q.post(refill, Ev::ThrottleRefill { gv, gen });
                return;
            }
        }
        self.set_vcpu_state(gv, HostState::Runnable);
        self.enqueue_vcpu(gv);
    }

    /// Halts a vCPU (guest went idle).
    fn halt_vcpu(&mut self, gv: GVcpu) {
        match self.vcpus[gv].state {
            HostState::Halted => {}
            HostState::Running(th) => {
                self.set_vcpu_state(gv, HostState::Halted);
                self.vcpus[gv].tick_gen += 1;
                self.remove_current(th);
                let now = self.q.now();
                self.q.post(now, Ev::ThreadResched { th });
            }
            HostState::Runnable => {
                for t in &mut self.threads {
                    t.queue.retain(|e| *e != Entity::Vcpu(gv));
                }
                self.set_vcpu_state(gv, HostState::Halted);
            }
            HostState::Throttled => {
                self.set_vcpu_state(gv, HostState::Halted);
                self.vcpus[gv].bw_gen += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Guest call plumbing
    // ------------------------------------------------------------------

    fn placeholder_guest() -> Box<GuestOs> {
        Box::new(GuestOs::new(0, SimTime::ZERO))
    }

    /// Runs `f` with mutable access to a VM's guest and a [`Platform`]
    /// implementation over this machine.
    pub fn with_vm<R>(
        &mut self,
        vm: usize,
        f: impl FnOnce(&mut GuestOs, &mut dyn Platform) -> R,
    ) -> R {
        // Reuse the cached placeholder. The first call, and a nested
        // with_vm (rare — the re-entrancy rule above forbids guest→guest
        // calls), build one.
        let ph = self
            .placeholder
            .take()
            .unwrap_or_else(Self::placeholder_guest);
        let mut guest = std::mem::replace(&mut self.vms[vm].guest, ph);
        let mut ctx = Ctx { m: self, vm };
        let r = f(&mut guest, &mut ctx);
        self.placeholder = Some(std::mem::replace(&mut self.vms[vm].guest, guest));
        r
    }

    /// Like [`Machine::with_vm`] but also hands out the workload.
    fn with_vm_and_workload<R>(
        &mut self,
        vm: usize,
        f: impl FnOnce(&mut GuestOs, &mut dyn Workload, &mut dyn Platform) -> R,
    ) -> Option<R> {
        let mut wl = self.vms[vm].workload.take()?;
        let ph = self
            .placeholder
            .take()
            .unwrap_or_else(Self::placeholder_guest);
        let mut guest = std::mem::replace(&mut self.vms[vm].guest, ph);
        let mut ctx = Ctx { m: self, vm };
        let r = f(&mut guest, wl.as_mut(), &mut ctx);
        self.placeholder = Some(std::mem::replace(&mut self.vms[vm].guest, guest));
        self.vms[vm].workload = Some(wl);
        Some(r)
    }

    fn notify_vcpu_start(&mut self, gv: GVcpu) {
        let (vm, idx) = (self.vcpus[gv].vm, self.vcpus[gv].idx);
        self.with_vm(vm, |g, p| g.vcpu_started(p, VcpuId(idx)));
    }

    fn notify_vcpu_stop(&mut self, gv: GVcpu) {
        let (vm, idx) = (self.vcpus[gv].vm, self.vcpus[gv].idx);
        self.with_vm(vm, |g, p| g.vcpu_stopped(p, VcpuId(idx)));
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Starts all workloads and schedules the scenario script and samplers.
    pub fn start(&mut self) {
        self.started = true;
        let now = self.q.now();
        match self.sched.clone() {
            HostSched::Proportional => {}
            HostSched::CreditSampled => {
                self.q.post(now.after(CREDIT_TICK_NS), Ev::ChargeTick);
            }
            HostSched::Domain(ds) => {
                for vm in 0..self.vms.len() {
                    let class = self.classes[vm];
                    self.trace
                        .emit_vm(now, vm as u16, EventKind::DomainAssigned { class });
                }
                let first = ds.slices[0];
                self.trace.emit_vm(
                    now,
                    0,
                    EventKind::DomainSwitch {
                        index: 0,
                        class: first.class,
                        slice_ns: first.slice_ns,
                        period_ns: ds.period_ns,
                    },
                );
                self.domain = Some(DomainState {
                    active: 0,
                    active_class: first.class,
                    snapshot: self.vcpus.iter().map(|v| v.active_ns).collect(),
                });
                self.q.post(now.after(first.slice_ns), Ev::DomainRotate);
            }
        }
        self.script.sort_by_key(|(t, _)| *t);
        for (idx, (t, _)) in self.script.iter().enumerate() {
            self.q.post(*t, Ev::Script { idx });
        }
        for id in 0..self.samplers.len() {
            let interval = self.samplers[id].0;
            self.q.post(SimTime::from_ns(interval), Ev::Sample { id });
        }
        if self.llc.active() && !self.llc_armed {
            self.llc_armed = true;
            self.q.post(now.after(LLC_SAMPLE_NS), Ev::LlcSample);
        }
        for vm in 0..self.vms.len() {
            self.with_vm_and_workload(vm, |g, w, p| w.start(g, p));
        }
    }

    /// Periodic LLC bookkeeping while the occupancy model is active:
    /// advance every socket, publish `LlcOccupancySample` events, and
    /// refresh running vCPU rates so the miss penalty tracks occupancy
    /// with bounded staleness.
    fn llc_sample(&mut self) {
        if !self.llc.active() {
            self.llc_armed = false;
            return;
        }
        let now = self.q.now();
        for s in 0..self.spec.sockets {
            self.llc.advance(now, s);
            if self.trace.is_on() {
                let snap = self.llc.snapshot(s);
                self.trace.emit_vm(
                    now,
                    0,
                    EventKind::LlcOccupancySample {
                        socket: s as u16,
                        occupied_bytes: snap.occupied,
                        llc_bytes: self.llc.llc_bytes(),
                        inserted_bytes: snap.inserted,
                        evicted_bytes: snap.evicted,
                        decayed_bytes: snap.decayed,
                    },
                );
            }
        }
        for gv in 0..self.vcpus.len() {
            if matches!(self.vcpus[gv].state, HostState::Running(_)) {
                self.refresh_vcpu_rate(gv);
            }
        }
        self.q.post(now.after(LLC_SAMPLE_NS), Ev::LlcSample);
    }

    /// Runs the simulation until `until` (inclusive), settling accounting
    /// at the end. This is also the lockstep re-entry point for
    /// multi-machine stepping: a fleet `Cluster` calls it on every host per
    /// epoch; machines share no state, so stepping them in *any* order —
    /// or from different worker threads — is deterministic.
    ///
    /// A `Machine` is deliberately **not** `Send`: its trace plumbing and
    /// workload handles are `Rc`-based so the single-host emit path stays
    /// allocation- and atomic-free. A cluster that steps machines from a
    /// worker pool must instead confine each machine — and everything its
    /// `Rc` graph reaches (guest kernels, workload, per-host collector) —
    /// to exactly one worker per barrier interval, with a happens-before
    /// edge between successive owners. `fleet`'s stepping pool enforces
    /// that by claiming stable host indices under a mutex and joining
    /// every worker before any cross-host state is touched.
    pub fn run_until(&mut self, until: SimTime) {
        self.q.post(until, Ev::End);
        self.finished = false;
        while !self.finished {
            let Some((_, ev)) = self.q.pop() else { break };
            self.events_dispatched += 1;
            self.dispatch(ev);
        }
        self.settle_all();
    }

    /// Starts the workload of one VM. [`Machine::start`] does this for
    /// every VM present at start time; a VM added *after* `start()` (fleet
    /// arrivals) needs this call once its workload is installed, or it
    /// will sit idle forever.
    pub fn start_vm_workload(&mut self, vm: usize) {
        self.with_vm_and_workload(vm, |g, w, p| w.start(g, p));
    }

    /// Quiesces a VM in place (fleet departures): drops its workload so
    /// pending timers become no-ops, removes its scheduler hooks, and
    /// kills every guest task so the vCPUs halt and stop generating
    /// events. The VM's slot and vCPU indices stay allocated — per-machine
    /// indices are load-bearing (trace scoping, `gvcpu_base`) — but a
    /// quiesced VM consumes no further host time.
    pub fn quiesce_vm(&mut self, vm: usize) {
        self.vms[vm].workload = None;
        self.with_vm(vm, |g, p| {
            g.take_hooks();
            for t in 0..g.kern.tasks.len() {
                g.kern.kill_task(p, TaskId(t as u32));
            }
        });
    }

    fn settle_all(&mut self) {
        let now = self.q.now();
        for vm in &mut self.vms {
            vm.cycles.settle(now);
        }
        for gv in 0..self.vcpus.len() {
            self.settle_vcpu_state(gv);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::ThreadResched { th } => self.thread_resched(th),
            Ev::QuantumExpire { th, gen } => self.quantum_expire(th, gen),
            Ev::ThrottleRefill { gv, gen } => self.throttle_refill(gv, gen),
            Ev::GuestTick { gv, gen } => self.guest_tick(gv, gen),
            Ev::BurstDone { gv, gen } => self.burst_done(gv, gen),
            Ev::TaskWake { vm, task } => {
                let state = self.vms[vm].guest.kern.task(task).state;
                if matches!(state, TaskState::Sleeping) {
                    self.with_vm(vm, |g, p| g.wake_task(p, task, None));
                }
            }
            Ev::Timer { vm, token } => {
                if token >= guestos::platform::HOOK_TIMER_BASE {
                    self.with_vm(vm, |g, p| g.deliver_hook_timer(p, token));
                } else {
                    self.with_vm_and_workload(vm, |g, w, p| w.on_timer(g, p, token));
                }
            }
            Ev::Script { idx } => {
                let action = std::mem::replace(
                    &mut self.script[idx].1,
                    ScriptAction::SetFreq {
                        core: 0,
                        factor: 1.0,
                    },
                );
                // Re-store a no-op; scripted actions fire once.
                self.apply_script(action);
            }
            Ev::Sample { id } => {
                if let Some(mut f) = self.samplers[id].1.take() {
                    f(self);
                    self.samplers[id].1 = Some(f);
                    let interval = self.samplers[id].0;
                    let now = self.q.now();
                    self.q.post(now.after(interval), Ev::Sample { id });
                }
            }
            Ev::ChargeTick => self.charge_tick(),
            Ev::CreditKick { th } => self.credit_resort(th),
            Ev::DomainRotate => self.domain_rotate(),
            Ev::LlcSample => self.llc_sample(),
            Ev::End => self.finished = true,
        }
    }

    fn guest_tick(&mut self, gv: GVcpu, gen: u64) {
        if self.vcpus[gv].tick_gen != gen {
            return;
        }
        if !matches!(self.vcpus[gv].state, HostState::Running(_)) {
            return;
        }
        let (vm, idx) = (self.vcpus[gv].vm, self.vcpus[gv].idx);
        self.with_vm(vm, |g, p| g.tick(p, VcpuId(idx)));
        // The tick may have halted the vCPU (guest went idle).
        if self.vcpus[gv].tick_gen == gen && matches!(self.vcpus[gv].state, HostState::Running(_)) {
            let now = self.q.now();
            self.q.post(now.after(TICK_NS), Ev::GuestTick { gv, gen });
        }
    }

    fn burst_done(&mut self, gv: GVcpu, gen: u64) {
        if self.vcpus[gv].burst_gen != gen {
            return;
        }
        let now = self.q.now();
        let complete = match self.vcpus[gv].run.as_ref() {
            Some(run) => run.work.value_at(now) + 1e-6 >= run.target,
            None => false,
        };
        if !complete {
            return;
        }
        let (vm, idx) = (self.vcpus[gv].vm, self.vcpus[gv].idx);
        let v = VcpuId(idx);
        // Settle into the guest, then ask the workload what's next.
        let program = {
            let guest = &self.vms[vm].guest;
            guest.kern.vcpus[idx]
                .curr
                .map(|t| guest.kern.task(t).program)
        };
        let Some(program) = program else { return };
        match program {
            guestos::TaskProgram::BuiltinSpin => {
                self.with_vm(vm, |g, p| {
                    if g.kern.on_burst_complete(p, v).is_some() {
                        g.kern
                            .continue_curr(p, v, guestos::kernel::BUILTIN_SPIN_WORK);
                    }
                });
            }
            guestos::TaskProgram::Workload => {
                let action = self.with_vm_and_workload(vm, |g, w, p| {
                    g.kern
                        .on_burst_complete(p, v)
                        .map(|t| (t, w.next_action(g, p, t)))
                });
                let Some(Some((task, action))) = action else {
                    return;
                };
                self.apply_action(vm, v, task, action);
            }
        }
    }

    /// Applies a workload-decided action to `task`. The workload may have
    /// woken other tasks while deciding, preempting `task` off the vCPU —
    /// so the action targets the task wherever it now is, not "the current
    /// task of `v`".
    fn apply_action(&mut self, vm: usize, v: VcpuId, task: TaskId, action: guestos::TaskAction) {
        use guestos::TaskAction::*;
        let is_curr = self.vms[vm].guest.kern.vcpus[v.0].curr == Some(task);
        match action {
            Compute { work } => {
                if is_curr {
                    self.with_vm(vm, |g, p| g.kern.continue_curr(p, v, work.max(1.0)));
                } else {
                    // Preempted mid-decision: the burst starts when the task
                    // is next picked.
                    self.vms[vm].guest.kern.task_mut(task).remaining = work.max(1.0);
                }
            }
            Sleep { ns } => {
                if is_curr {
                    self.with_vm(vm, |g, p| g.kern.curr_sleeps(p, v));
                } else {
                    self.with_vm(vm, |g, p| g.kern.block_task(p, task));
                }
                self.vms[vm].guest.kern.task_mut(task).state = TaskState::Sleeping;
                let now = self.q.now();
                self.q.post(now.after(ns.max(1)), Ev::TaskWake { vm, task });
            }
            Block => {
                if is_curr {
                    self.with_vm(vm, |g, p| g.kern.curr_blocks(p, v));
                } else {
                    self.with_vm(vm, |g, p| g.kern.block_task(p, task));
                }
            }
            Exit => {
                if is_curr {
                    self.with_vm(vm, |g, p| g.kern.curr_exits(p, v));
                } else {
                    self.with_vm(vm, |g, p| g.kern.kill_task(p, task));
                }
            }
        }
    }

    fn apply_script(&mut self, action: ScriptAction) {
        match action {
            ScriptAction::SetBandwidth { vm, vcpu, qp } => self.set_bandwidth(vm, vcpu, qp),
            ScriptAction::SetFreq { core, factor } => self.set_freq(core, factor),
            ScriptAction::AddLoad { thread, weight } => {
                self.add_host_load(thread, weight);
            }
            ScriptAction::RemoveLoad { id } => self.remove_host_load(id),
            ScriptAction::SetAffinity { vm, vcpu, threads } => self.set_affinity(vm, vcpu, threads),
            ScriptAction::SetVcpuWeight { vm, vcpu, weight } => {
                let gv = self.gv(vm, vcpu);
                self.vcpus[gv].weight = weight;
            }
            ScriptAction::OfflineVcpu { vm, vcpu } => self.offline_vcpu(vm, vcpu),
            ScriptAction::OnlineVcpu { vm, vcpu } => self.online_vcpu(vm, vcpu),
            ScriptAction::SetProbeNoise { noise } => self.set_probe_noise(noise),
            ScriptAction::AnnotateFault { vm, vcpu, class } => {
                let now = self.q.now();
                self.trace.emit_vm(
                    now,
                    vm as u16,
                    EventKind::FaultInjected {
                        vcpu: vcpu as u16,
                        class,
                    },
                );
            }
        }
    }

    /// Takes a vCPU offline (chaos mode): evicted if running, removed from
    /// every host queue, and excluded from scheduling until
    /// [`Machine::online_vcpu`]. Its host state keeps evolving normally
    /// (kicks land, quota refills), so steal accrues the whole time.
    pub fn offline_vcpu(&mut self, vm: usize, vcpu: usize) {
        let gv = self.gv(vm, vcpu);
        if self.vcpus[gv].offline {
            return;
        }
        self.vcpus[gv].offline = true;
        match self.vcpus[gv].state {
            HostState::Running(th) => {
                self.set_vcpu_state(gv, HostState::Runnable);
                self.vcpus[gv].tick_gen += 1;
                self.remove_current(th);
                let now = self.q.now();
                self.q.post(now, Ev::ThreadResched { th });
                self.notify_vcpu_stop(gv);
            }
            HostState::Runnable => {
                for t in &mut self.threads {
                    t.queue.retain(|e| *e != Entity::Vcpu(gv));
                }
            }
            HostState::Halted | HostState::Throttled => {}
        }
    }

    /// Brings an offline vCPU back online and requeues it if it wants to
    /// run. Inverse of [`Machine::offline_vcpu`].
    pub fn online_vcpu(&mut self, vm: usize, vcpu: usize) {
        let gv = self.gv(vm, vcpu);
        if !self.vcpus[gv].offline {
            return;
        }
        self.vcpus[gv].offline = false;
        // Every Runnable transition while offline skipped the enqueue, so a
        // Runnable vCPU here is guaranteed not to be on any queue.
        if self.vcpus[gv].state == HostState::Runnable {
            self.enqueue_vcpu(gv);
        }
    }

    /// Sets the machine-wide probe-noise amplitude (chaos mode).
    pub fn set_probe_noise(&mut self, noise: f64) {
        self.probe_noise = noise.max(0.0);
    }

    /// Host loads added so far (live or dead). The chaos planner uses this
    /// to predict the arena ids its scripted `AddLoad`s will receive.
    pub fn nr_host_loads(&self) -> usize {
        self.loads.len()
    }

    /// Deterministic probe jitter in `[-probe_noise, +probe_noise]`, keyed
    /// on the current simulated time and `salt`. A pure hash rather than an
    /// rng draw: reading a noisy measurement must not advance shared rng
    /// state, or probe timing would perturb unrelated draws.
    fn probe_jitter(&self, salt: u64) -> f64 {
        if self.probe_noise == 0.0 {
            return 0.0;
        }
        let x = mix64(
            self.q
                .now()
                .ns()
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.rotate_left(17)),
        );
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.probe_noise * (2.0 * unit - 1.0)
    }

    /// Installs/changes/removes bandwidth control on a vCPU at runtime.
    pub fn set_bandwidth(&mut self, vm: usize, vcpu: usize, qp: Option<(u64, u64)>) {
        let gv = self.gv(vm, vcpu);
        let now = self.q.now();
        self.settle_vcpu_state(gv);
        if let Some((q, p)) = qp {
            self.trace.emit_vm(
                now,
                vm as u16,
                EventKind::BandwidthSet {
                    vcpu: vcpu as u16,
                    quota_ns: q,
                    period_ns: p,
                },
            );
        }
        self.vcpus[gv].bw_gen += 1;
        self.vcpus[gv].bandwidth = qp.map(|(q, p)| Bandwidth {
            quota_ns: q,
            period_ns: p,
            runtime_ns: 0,
            period_start: now,
        });
        if self.vcpus[gv].state == HostState::Throttled {
            // New regime: become runnable immediately.
            self.set_vcpu_state(gv, HostState::Runnable);
            self.enqueue_vcpu(gv);
        }
    }

    /// Changes one hardware thread's scheduling quantum (the paper's
    /// per-cgroup granularity tunables shape per-core vCPU latency).
    pub fn set_thread_quantum(&mut self, th: usize, quantum_ns: u64) {
        self.thread_quantum[th] = quantum_ns;
    }

    /// Changes a core's DVFS factor at runtime.
    pub fn set_freq(&mut self, core: usize, factor: f64) {
        self.core_freq[core] = factor;
        for th in self.spec.threads_of_core(core) {
            if let Some(Entity::Vcpu(gv)) = self.threads[th].current {
                self.refresh_vcpu_rate(gv);
            }
        }
    }

    /// Re-pins a vCPU at runtime.
    pub fn set_affinity(&mut self, vm: usize, vcpu: usize, threads: Vec<usize>) {
        assert!(!threads.is_empty());
        let gv = self.gv(vm, vcpu);
        self.vcpus[gv].affinity = threads;
        match self.vcpus[gv].state {
            HostState::Running(th) if !self.vcpus[gv].affinity.contains(&th) => {
                // Evict and requeue on an allowed thread.
                self.set_vcpu_state(gv, HostState::Runnable);
                self.vcpus[gv].tick_gen += 1;
                self.remove_current(th);
                let now = self.q.now();
                self.q.post(now, Ev::ThreadResched { th });
                self.enqueue_vcpu(gv);
                self.notify_vcpu_stop(gv);
            }
            HostState::Runnable => {
                for t in &mut self.threads {
                    t.queue.retain(|e| *e != Entity::Vcpu(gv));
                }
                self.enqueue_vcpu(gv);
            }
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// Platform implementation
// ----------------------------------------------------------------------

/// Platform view of the machine scoped to one VM.
struct Ctx<'a> {
    m: &'a mut Machine,
    vm: usize,
}

impl Ctx<'_> {
    fn gv(&self, v: VcpuId) -> GVcpu {
        self.m.vms[self.vm].gvcpu_base + v.0
    }
}

impl Platform for Ctx<'_> {
    fn now(&self) -> SimTime {
        self.m.q.now()
    }

    fn steal_ns(&self, v: VcpuId) -> u64 {
        let exact = self.m.vcpu_steal(self.gv(v));
        let jitter = self.m.probe_jitter(self.gv(v) as u64);
        if jitter == 0.0 {
            return exact;
        }
        // Chaos probe noise: the paravirtual counter lies by up to
        // ±probe_noise. Consumers must already tolerate non-monotonic
        // readings (they clamp deltas), so no monotonicity fix-up here.
        (exact as f64 * (1.0 + jitter)).max(0.0) as u64
    }

    fn vcpu_active(&self, v: VcpuId) -> bool {
        matches!(self.m.vcpus[self.gv(v)].state, HostState::Running(_))
    }

    fn kick(&mut self, v: VcpuId) {
        let gv = self.gv(v);
        self.m.kick_vcpu(gv);
    }

    fn vcpu_idle(&mut self, v: VcpuId) {
        let gv = self.gv(v);
        self.m.halt_vcpu(gv);
    }

    fn run_task(&mut self, v: VcpuId, _t: TaskId, remaining: f64, factor: f64, cache_penalty: f64) {
        let gv = self.gv(v);
        let now = self.m.q.now();
        self.m.vcpus[gv].run = Some(RunCtx {
            target: remaining,
            factor,
            cache_penalty,
            work: Integrator::new(now),
            active: Integrator::new(now),
            prev_work: 0.0,
            prev_active: 0.0,
            last_settle: now,
        });
        self.m.refresh_vcpu_rate(gv);
    }

    fn stop_task(&mut self, v: VcpuId) -> RunDelta {
        let gv = self.gv(v);
        let now = self.m.q.now();
        let Some(mut run) = self.m.vcpus[gv].run.take() else {
            return RunDelta::default();
        };
        run.work.settle(now);
        run.active.settle(now);
        let delta = RunDelta {
            wall_ns: now.since(run.last_settle),
            active_ns: (run.active.value() - run.prev_active) as u64,
            work: run.work.value() - run.prev_work,
        };
        self.m.vcpus[gv].delivered_work += delta.work;
        self.m.vcpus[gv].burst_gen += 1;
        delta
    }

    fn poll_task(&mut self, v: VcpuId) -> RunDelta {
        let gv = self.gv(v);
        let now = self.m.q.now();
        let Some(run) = self.m.vcpus[gv].run.as_mut() else {
            return RunDelta::default();
        };
        run.work.settle(now);
        run.active.settle(now);
        let delta = RunDelta {
            wall_ns: now.since(run.last_settle),
            active_ns: (run.active.value() - run.prev_active) as u64,
            work: run.work.value() - run.prev_work,
        };
        run.prev_work = run.work.value();
        run.prev_active = run.active.value();
        run.last_settle = now;
        self.m.vcpus[gv].delivered_work += delta.work;
        delta
    }

    fn update_factor(&mut self, v: VcpuId, factor: f64) {
        let gv = self.gv(v);
        if let Some(run) = self.m.vcpus[gv].run.as_mut() {
            if (run.factor - factor).abs() > 1e-9 {
                run.factor = factor;
                self.m.refresh_vcpu_rate(gv);
            }
        }
    }

    fn send_ipi(&mut self, to: VcpuId) {
        let gv = self.gv(to);
        self.m.kick_vcpu(gv);
    }

    fn comm_distance(&self, a: VcpuId, b: VcpuId) -> CommDistance {
        let (ga, gb) = (self.gv(a), self.gv(b));
        let ta = match self.m.vcpus[ga].state {
            HostState::Running(th) => th,
            _ => self.m.vcpus[ga].affinity[0],
        };
        let tb = match self.m.vcpus[gb].state {
            HostState::Running(th) => th,
            _ => self.m.vcpus[gb].affinity[0],
        };
        if ga != gb && ta == tb {
            return CommDistance::Stacked;
        }
        self.m.spec.distance(ta, tb)
    }

    fn cacheline_latency_ns(&mut self, a: VcpuId, b: VcpuId) -> Option<f64> {
        let (ga, gb) = (self.gv(a), self.gv(b));
        let (ta, tb) = match (self.m.vcpus[ga].state, self.m.vcpus[gb].state) {
            (HostState::Running(x), HostState::Running(y)) => (x, y),
            _ => return None,
        };
        if ta == tb {
            return None; // stacked vCPUs never overlap
        }
        let base = self.m.spec.cacheline_ns(ta, tb);
        let noise = CACHELINE_NOISE;
        let jitter = 1.0 + noise * (2.0 * self.m.rng.f64() - 1.0);
        // Chaos probe noise stacks on the spec's measurement noise.
        let chaos = 1.0 + self.m.probe_jitter((ga as u64) << 16 | gb as u64);
        Some(base * jitter * chaos)
    }

    fn llc_probe_ns(&mut self, v: VcpuId) -> Option<f64> {
        let gv = self.gv(v);
        let th = match self.m.vcpus[gv].state {
            HostState::Running(t) => t,
            _ => return None,
        };
        let s = self.m.spec.socket_of(th);
        let now = self.m.q.now();
        self.m.llc.advance(now, s);
        // Thrash drives the mean pointer-chase latency from an LLC hit
        // toward a cross-socket/DRAM-ish line fill, linearly in the
        // fraction of the socket held by *other* VMs.
        let pressure = self.m.llc.contention(self.vm, s);
        let hit = CACHELINE_LLC_NS;
        let miss = CACHELINE_CROSS_NS;
        let base = hit + (miss - hit) * pressure;
        let noise = CACHELINE_NOISE;
        let jitter = 1.0 + noise * (2.0 * self.m.rng.f64() - 1.0);
        // Chaos probe noise stacks, keyed apart from vtop's pair probes.
        let chaos = 1.0 + self.m.probe_jitter(0xCAC4E_u64 ^ ((gv as u64) << 20));
        Some(base * jitter * chaos)
    }

    fn set_timer(&mut self, token: u64, at: SimTime) {
        let vm = self.vm;
        self.m.q.post(at, Ev::Timer { vm, token });
    }
}
