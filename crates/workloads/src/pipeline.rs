//! Pipeline workloads (dedup, ferret, x264 archetype).
//!
//! Items flow through compute stages connected by queues; each stage has
//! its own worker pool. Stage imbalance plus cross-stage wakeups make
//! pipelines sensitive to runqueue latency and LLC locality.

use crate::common::ThroughputStats;
use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, TaskState, Workload};
use simcore::SimRng;
use std::cell::RefCell;
use std::rc::Rc;

/// One pipeline stage.
#[derive(Debug, Clone)]
pub struct StageCfg {
    /// Worker tasks in this stage.
    pub workers: usize,
    /// Work per item (capacity-ns).
    pub work: f64,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineCfg {
    /// The stages, in order.
    pub stages: Vec<StageCfg>,
    /// Total items to push through.
    pub items: u64,
    /// Communication group for all workers (stages exchange data).
    pub comm_group: Option<u32>,
    /// Tag workers latency-sensitive so bvs places their wakeups (the
    /// items are small and the stages block on each other constantly).
    pub latency_sensitive: bool,
    /// Closed-loop in-flight window: at most this many items circulate at
    /// once, and a completed item immediately re-enters stage 0. Throughput
    /// becomes bound by the per-item critical path (service plus wake
    /// latency) instead of stage saturation, so workers stay small under
    /// PELT while slower service still costs completions. `None` keeps the
    /// batch behaviour (all items enqueued upfront).
    pub window: Option<u64>,
}

impl PipelineCfg {
    /// A pipeline with the given `(workers, work)` stages and item count.
    pub fn new(stages: Vec<(usize, f64)>, items: u64) -> Self {
        Self {
            stages: stages
                .into_iter()
                .map(|(workers, work)| StageCfg { workers, work })
                .collect(),
            items,
            comm_group: None,
            latency_sensitive: false,
            window: None,
        }
    }

    /// Limits the in-flight items to a closed-loop window (completed items
    /// recycle into stage 0).
    pub fn with_window(mut self, n: u64) -> Self {
        self.window = Some(n);
        self
    }

    /// Tags all workers with a communication group.
    pub fn with_comm_group(mut self, g: u32) -> Self {
        self.comm_group = Some(g);
        self
    }

    /// Tags all workers latency-sensitive (bvs places their wakeups).
    pub fn with_latency_sensitive(mut self) -> Self {
        self.latency_sensitive = true;
        self
    }
}

/// The pipeline workload.
pub struct Pipeline {
    cfg: PipelineCfg,
    rng: SimRng,
    stats: Rc<RefCell<ThroughputStats>>,
    /// Worker tasks per stage.
    workers: Vec<Vec<TaskId>>,
    /// Pending item counts per stage queue.
    queues: Vec<u64>,
    /// Whether a worker is currently processing an item.
    busy: Vec<Vec<bool>>,
    /// Per-stage rotating wake cursor (window mode): spreads wakeups over
    /// the stage's workers so no single worker accumulates all the load.
    rr: Vec<usize>,
    finished: bool,
    exited: u64,
}

impl Pipeline {
    /// Creates the workload and its statistics handle.
    pub fn new(cfg: PipelineCfg, rng: SimRng) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        let queues = {
            let mut q = vec![0u64; cfg.stages.len()];
            q[0] = cfg.window.map_or(cfg.items, |w| w.min(cfg.items));
            q
        };
        let busy = cfg.stages.iter().map(|s| vec![false; s.workers]).collect();
        let rr = vec![0usize; cfg.stages.len()];
        (
            Self {
                cfg,
                rng,
                stats: Rc::clone(&stats),
                workers: Vec::new(),
                queues,
                busy,
                rr,
                finished: false,
                exited: 0,
            },
            stats,
        )
    }

    fn locate(&self, t: TaskId) -> Option<(usize, usize)> {
        for (s, stage) in self.workers.iter().enumerate() {
            if let Some(w) = stage.iter().position(|&x| x == t) {
                return Some((s, w));
            }
        }
        None
    }

    fn stage_work(&mut self, s: usize) -> f64 {
        let base = self.cfg.stages[s].work;
        self.rng.normal_at(base, 0.15 * base, 1.0)
    }

    /// All items delivered and nothing in flight?
    fn drained(&self) -> bool {
        self.stats.borrow().completed >= self.cfg.items
    }

    /// Wakes one blocked worker of `stage`. Batch mode takes the first
    /// blocked worker (the original behaviour); window mode rotates a
    /// per-stage cursor so wakeups spread across the pool.
    fn wake_stage(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        stage: usize,
        waker: Option<guestos::VcpuId>,
    ) {
        let pool = &self.workers[stage];
        let n = pool.len();
        let start = if self.cfg.window.is_some() {
            self.rr[stage] % n.max(1)
        } else {
            0
        };
        let blocked = (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| matches!(guest.kern.task(pool[i]).state, TaskState::Blocked));
        if let Some(i) = blocked {
            let t = pool[i];
            if self.cfg.window.is_some() {
                self.rr[stage] = i + 1;
            }
            guest.wake_task(plat, t, waker);
        }
    }
}

impl Workload for Pipeline {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for stage in &self.cfg.stages {
            let mut tasks = Vec::new();
            for _ in 0..stage.workers {
                let mut spec = SpawnSpec::normal(nr);
                if let Some(g) = self.cfg.comm_group {
                    spec = spec.comm_group(g);
                }
                if self.cfg.latency_sensitive {
                    spec = spec.latency_sensitive();
                }
                let t = guest.spawn(plat, spec);
                tasks.push(t);
                guest.wake_task(plat, t, None);
            }
            self.workers.push(tasks);
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        let Some((s, w)) = self.locate(t) else {
            return TaskAction::Exit;
        };
        // Finish the in-flight item: push downstream (or complete).
        if self.busy[s][w] {
            self.busy[s][w] = false;
            if s + 1 < self.cfg.stages.len() {
                self.queues[s + 1] += 1;
                // Wake one blocked downstream worker.
                let waker = guest.kern.task(t).state.vcpu();
                self.wake_stage(guest, plat, s + 1, waker);
            } else {
                let mut st = self.stats.borrow_mut();
                st.completed += 1;
                st.work_done += self.cfg.stages[s].work;
                let done = st.completed >= self.cfg.items;
                drop(st);
                // Window mode: the completed item re-enters stage 0.
                if self.cfg.window.is_some() && !done {
                    self.queues[0] += 1;
                    let waker = guest.kern.task(t).state.vcpu();
                    self.wake_stage(guest, plat, 0, waker);
                }
                if done {
                    self.stats.borrow_mut().finished_at = Some(plat.now());
                    self.finished = true;
                    // Wake everyone so they can exit.
                    let all: Vec<TaskId> = self.workers.iter().flatten().copied().collect();
                    for task in all {
                        if matches!(guest.kern.task(task).state, TaskState::Blocked) {
                            guest.wake_task(plat, task, None);
                        }
                    }
                }
            }
        }
        if self.finished && self.drained() {
            self.exited += 1;
            return TaskAction::Exit;
        }
        // Pull the next item for this stage.
        if self.queues[s] > 0 {
            self.queues[s] -= 1;
            self.busy[s][w] = true;
            let work = self.stage_work(s);
            TaskAction::Compute { work }
        } else if self.finished {
            TaskAction::Exit
        } else {
            TaskAction::Block
        }
    }

    fn finished(&self) -> bool {
        self.finished
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.locate(t).is_some()
    }

    fn label(&self) -> &str {
        "pipeline"
    }
}
