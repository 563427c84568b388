//! Parallel throughput-oriented workloads (PARSEC / SPLASH-2x archetypes).
//!
//! * [`BarrierParallel`] — T threads alternate compute bursts and barriers
//!   (data-parallel scientific codes). `spin_wait` models user-level
//!   spin-based synchronization (streamcluster, volrend), which burns CPU
//!   while waiting and suffers the LHP-like problem the paper notes in
//!   §5.6.
//! * [`LockParallel`] — threads interleave outside work with critical
//!   sections under one lock (synchronization-intensive codes like
//!   canneal/dedup). A preempted lock holder stalls every waiter, which is
//!   why these workloads are so sensitive to straggler and stacked vCPUs
//!   (Figure 4).

use crate::common::ThroughputStats;
use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, Workload};
use simcore::SimRng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Work burned per spin-wait quantum (capacity-ns): 50 µs of spinning.
const SPIN_QUANTUM: f64 = 1024.0 * 50_000.0;

/// Compute-burst spread as a fraction of the mean, for barrier bursts
/// and for the lock workload's outside work.
const SIGMA_FRAC: f64 = 0.15;

/// Configuration of a barrier-parallel workload.
#[derive(Debug, Clone)]
pub struct BarrierCfg {
    /// Threads.
    pub threads: usize,
    /// Mean compute work per burst (capacity-ns).
    pub burst_work: f64,
    /// Rounds to execute; `None` = run forever.
    pub rounds: Option<u64>,
    /// Busy-wait at the barrier instead of blocking.
    pub spin_wait: bool,
    /// Communication group tag for the threads.
    pub comm_group: Option<u32>,
}

impl BarrierCfg {
    /// Blocking barriers, endless rounds.
    pub fn new(threads: usize, burst_work: f64) -> Self {
        Self {
            threads,
            burst_work,
            rounds: None,
            spin_wait: false,
            comm_group: None,
        }
    }

    /// Limits the number of rounds (finite job with an execution time).
    pub fn rounds(mut self, r: u64) -> Self {
        self.rounds = Some(r);
        self
    }

    /// Spin at barriers.
    pub fn spinning(mut self) -> Self {
        self.spin_wait = true;
        self
    }

    /// Tags threads with a communication group.
    pub fn with_comm_group(mut self, g: u32) -> Self {
        self.comm_group = Some(g);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BarPhase {
    Computing,
    Waiting,
    Spinning,
}

/// Barrier-synchronized parallel workload.
pub struct BarrierParallel {
    cfg: BarrierCfg,
    rng: SimRng,
    stats: Rc<RefCell<ThroughputStats>>,
    tasks: Vec<TaskId>,
    phase: Vec<BarPhase>,
    task_round: Vec<u64>,
    round: u64,
    arrivals: usize,
    finished: bool,
}

impl BarrierParallel {
    /// Creates the workload and its statistics handle.
    pub fn new(cfg: BarrierCfg, rng: SimRng) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        (
            Self {
                cfg,
                rng,
                stats: Rc::clone(&stats),
                tasks: Vec::new(),
                phase: Vec::new(),
                task_round: Vec::new(),
                round: 0,
                arrivals: 0,
                finished: false,
            },
            stats,
        )
    }

    fn index(&self, t: TaskId) -> usize {
        self.tasks.iter().position(|&x| x == t).expect("own task")
    }

    fn burst(&mut self) -> TaskAction {
        let w = self
            .rng
            .normal_at(self.cfg.burst_work, SIGMA_FRAC * self.cfg.burst_work, 1.0);
        self.stats.borrow_mut().work_done += w;
        TaskAction::Compute { work: w }
    }
}

impl Workload for BarrierParallel {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.cfg.threads {
            let mut spec = SpawnSpec::normal(nr);
            if let Some(g) = self.cfg.comm_group {
                spec = spec.comm_group(g);
            }
            let t = guest.spawn(plat, spec);
            self.tasks.push(t);
            self.phase.push(BarPhase::Computing);
            self.task_round.push(0);
            guest.wake_task(plat, t, None);
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        let i = self.index(t);
        match self.phase[i] {
            BarPhase::Computing => {
                // Arrived at the barrier.
                self.arrivals += 1;
                if self.arrivals == self.cfg.threads {
                    // Barrier releases.
                    self.arrivals = 0;
                    self.round += 1;
                    let mut s = self.stats.borrow_mut();
                    s.completed += 1;
                    if let Some(r) = self.cfg.rounds {
                        if s.completed >= r {
                            self.finished = true;
                            s.finished_at = Some(plat.now());
                        }
                    }
                    drop(s);
                    // Wake the blocked waiters.
                    for (j, &task) in self.tasks.clone().iter().enumerate() {
                        if self.phase[j] == BarPhase::Waiting {
                            guest.wake_task(plat, task, guest.kern.task(t).state.vcpu());
                        }
                    }
                }
                if self.task_round[i] < self.round {
                    // Barrier already released (this was the last arriver).
                    self.task_round[i] = self.round;
                    if self.finished {
                        self.phase[i] = BarPhase::Computing;
                        return TaskAction::Exit;
                    }
                    return self.burst();
                }
                if self.cfg.spin_wait {
                    self.phase[i] = BarPhase::Spinning;
                    TaskAction::Compute { work: SPIN_QUANTUM }
                } else {
                    self.phase[i] = BarPhase::Waiting;
                    TaskAction::Block
                }
            }
            BarPhase::Spinning => {
                if self.task_round[i] < self.round {
                    self.task_round[i] = self.round;
                    self.phase[i] = BarPhase::Computing;
                    if self.finished {
                        return TaskAction::Exit;
                    }
                    return self.burst();
                }
                TaskAction::Compute { work: SPIN_QUANTUM }
            }
            BarPhase::Waiting => {
                // Woken by the releasing thread.
                if self.task_round[i] < self.round {
                    self.task_round[i] = self.round;
                    self.phase[i] = BarPhase::Computing;
                    if self.finished {
                        return TaskAction::Exit;
                    }
                    return self.burst();
                }
                TaskAction::Block // spurious
            }
        }
    }

    fn finished(&self) -> bool {
        self.finished
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        "barrier-parallel"
    }
}

// ----------------------------------------------------------------------

/// Configuration of a lock-based parallel workload.
#[derive(Debug, Clone)]
pub struct LockCfg {
    /// Threads.
    pub threads: usize,
    /// Work outside the critical section (capacity-ns).
    pub outside_work: f64,
    /// Work inside the critical section (capacity-ns).
    pub critical_work: f64,
    /// Total critical sections to execute; `None` = forever.
    pub iterations: Option<u64>,
    /// Communication group.
    pub comm_group: Option<u32>,
}

impl LockCfg {
    /// Blocking lock, endless.
    pub fn new(threads: usize, outside_work: f64, critical_work: f64) -> Self {
        Self {
            threads,
            outside_work,
            critical_work,
            iterations: None,
            comm_group: None,
        }
    }

    /// Limits total iterations.
    pub fn iterations(mut self, n: u64) -> Self {
        self.iterations = Some(n);
        self
    }

    /// Tags threads with a communication group.
    pub fn with_comm_group(mut self, g: u32) -> Self {
        self.comm_group = Some(g);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LockPhase {
    Outside,
    WaitingLock,
    Critical,
}

/// Lock-intensive parallel workload.
pub struct LockParallel {
    cfg: LockCfg,
    rng: SimRng,
    stats: Rc<RefCell<ThroughputStats>>,
    tasks: Vec<TaskId>,
    phase: Vec<LockPhase>,
    holder: Option<usize>,
    waiters: VecDeque<usize>,
    finished: bool,
}

impl LockParallel {
    /// Creates the workload and its statistics handle.
    pub fn new(cfg: LockCfg, rng: SimRng) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        (
            Self {
                cfg,
                rng,
                stats: Rc::clone(&stats),
                tasks: Vec::new(),
                phase: Vec::new(),
                holder: None,
                waiters: VecDeque::new(),
                finished: false,
            },
            stats,
        )
    }

    fn index(&self, t: TaskId) -> usize {
        self.tasks.iter().position(|&x| x == t).expect("own task")
    }

    fn outside(&mut self) -> TaskAction {
        let w = self.rng.normal_at(
            self.cfg.outside_work,
            SIGMA_FRAC * self.cfg.outside_work,
            1.0,
        );
        self.stats.borrow_mut().work_done += w;
        TaskAction::Compute { work: w }
    }

    fn critical(&mut self) -> TaskAction {
        self.stats.borrow_mut().work_done += self.cfg.critical_work;
        TaskAction::Compute {
            work: self.cfg.critical_work.max(1.0),
        }
    }
}

impl Workload for LockParallel {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.cfg.threads {
            let mut spec = SpawnSpec::normal(nr);
            if let Some(g) = self.cfg.comm_group {
                spec = spec.comm_group(g);
            }
            let t = guest.spawn(plat, spec);
            self.tasks.push(t);
            self.phase.push(LockPhase::Outside);
            guest.wake_task(plat, t, None);
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        let i = self.index(t);
        if self.finished {
            return TaskAction::Exit;
        }
        match self.phase[i] {
            LockPhase::Outside => {
                // Try to acquire.
                if self.holder.is_none() {
                    self.holder = Some(i);
                    self.phase[i] = LockPhase::Critical;
                    self.critical()
                } else {
                    self.phase[i] = LockPhase::WaitingLock;
                    self.waiters.push_back(i);
                    TaskAction::Block
                }
            }
            LockPhase::WaitingLock => {
                // Granted the lock at release time.
                debug_assert_eq!(self.holder, Some(i));
                self.phase[i] = LockPhase::Critical;
                self.critical()
            }
            LockPhase::Critical => {
                // Release.
                let mut s = self.stats.borrow_mut();
                s.completed += 1;
                if let Some(n) = self.cfg.iterations {
                    if s.completed >= n {
                        self.finished = true;
                        s.finished_at = Some(plat.now());
                    }
                }
                drop(s);
                self.holder = None;
                if !self.finished {
                    if let Some(next) = self.waiters.pop_front() {
                        // Direct handoff to the oldest blocked waiter.
                        self.holder = Some(next);
                        let waiter_task = self.tasks[next];
                        guest.wake_task(plat, waiter_task, guest.kern.task(t).state.vcpu());
                    }
                } else {
                    // Wake everyone so they can exit.
                    for j in self.waiters.drain(..) {
                        let task = self.tasks[j];
                        self.phase[j] = LockPhase::Outside;
                        guest.wake_task(plat, task, None);
                    }
                }
                if self.finished {
                    return TaskAction::Exit;
                }
                self.phase[i] = LockPhase::Outside;
                self.outside()
            }
        }
    }

    fn finished(&self) -> bool {
        self.finished
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        "lock-parallel"
    }
}
