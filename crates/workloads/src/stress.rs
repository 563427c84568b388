//! Simple stressors: CPU-bound event loops (sysbench, Matmul), I/O
//! think-time loops (fio), and a work-item pool (pbzip2, swaptions,
//! raytrace, freqmine).

use crate::common::ThroughputStats;
use guestos::{CpuMask, GuestOs, Platform, Policy, SpawnSpec, TaskAction, TaskId, Workload};
use simcore::SimRng;
use std::cell::RefCell;
use std::rc::Rc;

/// CPU-bound event loop (sysbench archetype): each thread runs fixed-size
/// events back to back; throughput = events/s.
pub struct Stressor {
    threads: usize,
    event_work: f64,
    sched_idle: bool,
    affinity: Option<Vec<usize>>,
    cache_sensitive: bool,
    pause_ns: Option<u64>,
    paused: Vec<bool>,
    tasks: Vec<TaskId>,
    stats: Rc<RefCell<ThroughputStats>>,
}

impl Stressor {
    /// Creates a stressor with `threads` threads and `event_work`
    /// capacity-ns per event.
    pub fn new(threads: usize, event_work: f64) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        (
            Self {
                threads,
                event_work,
                sched_idle: false,
                affinity: None,
                cache_sensitive: false,
                pause_ns: None,
                paused: Vec::new(),
                tasks: Vec::new(),
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }

    /// Runs the threads at `SCHED_IDLE` (best-effort background load).
    pub fn best_effort(mut self) -> Self {
        self.sched_idle = true;
        self
    }

    /// Pins thread `i` to vCPU `affinity[i % len]`.
    pub fn pinned(mut self, affinity: Vec<usize>) -> Self {
        self.affinity = Some(affinity);
        self
    }

    /// Marks threads cache-sensitive.
    pub fn cache_sensitive(mut self) -> Self {
        self.cache_sensitive = true;
        self
    }

    /// Inserts a short sleep between events (real sysbench briefly yields
    /// between events, which exercises the wake-placement path).
    pub fn with_pause(mut self, ns: u64) -> Self {
        self.pause_ns = Some(ns);
        self
    }
}

impl Workload for Stressor {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for i in 0..self.threads {
            let mut spec = SpawnSpec::normal(nr);
            if self.sched_idle {
                spec = spec.policy(Policy::Idle);
            }
            if let Some(aff) = &self.affinity {
                spec = spec.affinity(CpuMask::single(aff[i % aff.len()]));
            }
            if self.cache_sensitive {
                spec = spec.cache_sensitive();
            }
            let t = guest.spawn(plat, spec);
            self.tasks.push(t);
            self.paused.push(false);
            guest.wake_task(plat, t, None);
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, t: TaskId) -> TaskAction {
        if let Some(pause) = self.pause_ns {
            let i = self.tasks.iter().position(|&x| x == t).expect("own task");
            if !self.paused[i] {
                self.paused[i] = true;
                return TaskAction::Sleep { ns: pause };
            }
            self.paused[i] = false;
        }
        let mut s = self.stats.borrow_mut();
        s.completed += 1;
        s.work_done += self.event_work;
        TaskAction::Compute {
            work: self.event_work,
        }
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        "stressor"
    }
}

// ----------------------------------------------------------------------

/// I/O think-time loop (fio archetype): short compute, then sleep.
pub struct ThinkIo {
    threads: usize,
    compute_work: f64,
    io_ns: u64,
    phase_compute: Vec<bool>,
    tasks: Vec<TaskId>,
    rng: SimRng,
    stats: Rc<RefCell<ThroughputStats>>,
}

impl ThinkIo {
    /// Creates the workload: `compute_work` capacity-ns then `io_ns` sleep,
    /// per cycle and thread.
    pub fn new(
        threads: usize,
        compute_work: f64,
        io_ns: u64,
        rng: SimRng,
    ) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        (
            Self {
                threads,
                compute_work,
                io_ns,
                phase_compute: Vec::new(),
                tasks: Vec::new(),
                rng,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl Workload for ThinkIo {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.threads {
            let t = guest.spawn(plat, SpawnSpec::normal(nr).latency_sensitive());
            self.tasks.push(t);
            self.phase_compute.push(true);
            guest.wake_task(plat, t, None);
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _t: TaskId) -> TaskAction {
        let i = self.tasks.iter().position(|&x| x == _t).expect("own task");
        if self.phase_compute[i] {
            self.phase_compute[i] = false;
            TaskAction::Compute {
                work: self
                    .rng
                    .normal_at(self.compute_work, 0.2 * self.compute_work, 1.0),
            }
        } else {
            self.phase_compute[i] = true;
            let mut s = self.stats.borrow_mut();
            s.completed += 1;
            s.work_done += self.compute_work;
            drop(s);
            TaskAction::Sleep {
                ns: self.rng.exp(self.io_ns as f64).max(1.0) as u64,
            }
        }
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        "think-io"
    }
}

// ----------------------------------------------------------------------

/// Work-item pool (pbzip2 / swaptions / raytrace archetype): `items` chunks
/// of `item_work` each, `threads` workers; execution time is the metric.
pub struct TaskQueue {
    threads: usize,
    items_left: u64,
    total_items: u64,
    item_work: f64,
    tasks: Vec<TaskId>,
    busy: Vec<bool>,
    rng: SimRng,
    finished: bool,
    stats: Rc<RefCell<ThroughputStats>>,
}

impl TaskQueue {
    /// Creates the pool workload.
    pub fn new(
        threads: usize,
        items: u64,
        item_work: f64,
        rng: SimRng,
    ) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        (
            Self {
                threads,
                items_left: items,
                total_items: items,
                item_work,
                tasks: Vec::new(),
                busy: Vec::new(),
                rng,
                finished: false,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl Workload for TaskQueue {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.threads {
            let t = guest.spawn(plat, SpawnSpec::normal(nr));
            self.tasks.push(t);
            self.busy.push(false);
            guest.wake_task(plat, t, None);
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(&mut self, _g: &mut GuestOs, plat: &mut dyn Platform, t: TaskId) -> TaskAction {
        let i = self.tasks.iter().position(|&x| x == t).expect("own task");
        if self.busy[i] {
            self.busy[i] = false;
            let mut s = self.stats.borrow_mut();
            s.completed += 1;
            s.work_done += self.item_work;
            if s.completed >= self.total_items {
                s.finished_at = Some(plat.now());
                drop(s);
                self.finished = true;
            }
        }
        if self.items_left > 0 {
            self.items_left -= 1;
            self.busy[i] = true;
            TaskAction::Compute {
                work: self
                    .rng
                    .normal_at(self.item_work, 0.2 * self.item_work, 1.0),
            }
        } else {
            TaskAction::Exit
        }
    }

    fn finished(&self) -> bool {
        self.finished
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        "task-queue"
    }
}
