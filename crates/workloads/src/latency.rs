//! Open-loop request-serving workloads (Tailbench, Nginx).
//!
//! Requests arrive in a Poisson stream; a pool of worker tasks serves them.
//! An idle (blocked) worker is woken per arrival; when all workers are busy
//! the request waits in an application backlog. Per-request latency is
//! decomposed exactly as Table 3 of the paper reports it for Masstree:
//!
//! * **queue** — arrival → service start. A woken worker only reaches its
//!   service burst after traversing the runqueue, so vCPU inactivity
//!   extends this component exactly as §2.3's *extended runqueue latency*
//!   describes;
//! * **service** — service start → completion (a stalled vCPU stretches
//!   this too);
//! * **end-to-end** — their sum.

use crate::common::LatencyStats;
use guestos::{GuestOs, Platform, Policy, SpawnSpec, TaskAction, TaskId, Workload};
#[cfg(any(test, feature = "shadow"))]
use guestos::{Kernel, TaskState};
use metrics::TimeSeries;
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Timer token for request arrivals.
const ARRIVAL: u64 = 1;

/// Service-time spread (lognormal sigma).
const SIGMA: f64 = 0.3;

/// Configuration of a latency-server workload.
#[derive(Debug, Clone)]
pub struct LatencyServerCfg {
    /// Worker tasks.
    pub workers: usize,
    /// Mean service work per request (capacity-ns).
    pub service_work: f64,
    /// Mean request inter-arrival time (ns).
    pub interarrival_ns: f64,
    /// Spawn one `SCHED_IDLE` best-effort spinner per vCPU (the paper's
    /// "with best-effort tasks" configuration).
    pub best_effort: bool,
    /// Tag worker tasks with a communication group.
    pub comm_group: Option<u32>,
    /// Record a live completions-per-window series (Figures 16/17).
    pub series_window_ns: Option<u64>,
    /// Closed-loop drive (wrk/ab style): `(connections, think_ns)`. Each
    /// connection issues its next request one exponential think time after
    /// the previous response, so the completion rate is capacity-bound —
    /// slower service (e.g. an evicted LLC) costs throughput directly —
    /// while per-worker utilization stays low. `None` keeps the open-loop
    /// Poisson stream.
    pub closed_loop: Option<(usize, f64)>,
}

impl LatencyServerCfg {
    /// A server with the given worker count, mean per-request service work
    /// (capacity-ns) and mean inter-arrival time.
    pub fn new(workers: usize, service_work: f64, interarrival_ns: f64) -> Self {
        Self {
            workers,
            service_work,
            interarrival_ns,
            best_effort: false,
            comm_group: None,
            series_window_ns: None,
            closed_loop: None,
        }
    }

    /// Switches to closed-loop drive with the given connection count and
    /// mean think time (ns); `interarrival_ns` is ignored in this mode.
    pub fn with_closed_loop(mut self, connections: usize, think_ns: f64) -> Self {
        self.closed_loop = Some((connections, think_ns));
        self
    }

    /// Enables per-vCPU best-effort spinners.
    pub fn with_best_effort(mut self) -> Self {
        self.best_effort = true;
        self
    }

    /// Enables the live-throughput series.
    pub fn with_series(mut self, window_ns: u64) -> Self {
        self.series_window_ns = Some(window_ns);
        self
    }

    /// Tags workers with a communication group.
    pub fn with_comm_group(mut self, g: u32) -> Self {
        self.comm_group = Some(g);
        self
    }
}

struct InFlight {
    arrived: SimTime,
    issued: SimTime,
}

/// The workload object.
pub struct LatencyServer {
    cfg: LatencyServerCfg,
    rng: SimRng,
    stats: Rc<RefCell<LatencyStats>>,
    workers: Vec<TaskId>,
    best_effort: Vec<TaskId>,
    current: Vec<Option<InFlight>>,
    /// Bit `w` is set exactly when worker `w` is idle: no request in
    /// flight and its task blocked (`is_idle`). Set at spawn
    /// and when a worker blocks; cleared when an arrival wakes it.
    idle: Vec<u64>,
    backlog: VecDeque<SimTime>,
    /// Rotating wake cursor (closed-loop mode): spreads request wakeups
    /// across the worker pool so no single worker absorbs all the load.
    rr: usize,
}

impl LatencyServer {
    /// Creates the workload and its shared statistics handle.
    pub fn new(cfg: LatencyServerCfg, rng: SimRng) -> (Self, Rc<RefCell<LatencyStats>>) {
        let stats = LatencyStats::handle();
        if let Some(w) = cfg.series_window_ns {
            stats.borrow_mut().series = Some(TimeSeries::new(w, 0));
        }
        (
            Self {
                cfg,
                rng,
                stats: Rc::clone(&stats),
                workers: Vec::new(),
                best_effort: Vec::new(),
                current: Vec::new(),
                idle: Vec::new(),
                backlog: VecDeque::new(),
                rr: 0,
            },
            stats,
        )
    }

    /// Creates the workload around an *existing* statistics handle, so a
    /// tenant whose VM is live-migrated between hosts keeps accumulating
    /// into the same histograms. Does not reset the handle; a series is
    /// only attached if the config asks for one and none exists yet.
    pub fn with_stats(
        cfg: LatencyServerCfg,
        rng: SimRng,
        stats: Rc<RefCell<LatencyStats>>,
    ) -> Self {
        if let Some(w) = cfg.series_window_ns {
            let mut s = stats.borrow_mut();
            if s.series.is_none() {
                s.series = Some(TimeSeries::new(w, 0));
            }
        }
        Self {
            cfg,
            rng,
            stats,
            workers: Vec::new(),
            best_effort: Vec::new(),
            current: Vec::new(),
            idle: Vec::new(),
            backlog: VecDeque::new(),
            rr: 0,
        }
    }

    /// The worker running task `t`, if `t` is a worker. Workers are
    /// spawned back to back (`start` asserts it), so `t`'s offset from the
    /// first worker is its index.
    fn worker_index(&self, t: TaskId) -> Option<usize> {
        let first = self.workers.first()?.0;
        let w = t.0.wrapping_sub(first) as usize;
        (w < self.workers.len()).then_some(w)
    }

    /// Whether worker `w` is idle by definition: no request in flight and
    /// its task blocked.
    #[cfg(any(test, feature = "shadow"))]
    fn is_idle(&self, kern: &Kernel, w: usize) -> bool {
        self.current[w].is_none() && matches!(kern.task(self.workers[w]).state, TaskState::Blocked)
    }

    fn set_idle(&mut self, w: usize, idle: bool) {
        let bit = 1u64 << (w % 64);
        if idle {
            self.idle[w / 64] |= bit;
        } else {
            self.idle[w / 64] &= !bit;
        }
    }

    /// The first idle worker at or after `start`, wrapping around to the
    /// lowest: the order of a scan over `(start..n).chain(0..start)`.
    fn first_idle_from(&self, start: usize) -> Option<usize> {
        let first_at = |from: usize| {
            let mut i = from / 64;
            let mut word = self.idle.get(i)? & (u64::MAX << (from % 64));
            while word == 0 {
                i += 1;
                word = *self.idle.get(i)?;
            }
            Some(i * 64 + word.trailing_zeros() as usize)
        };
        first_at(start).or_else(|| first_at(0))
    }

    /// Asserts the idle set against [`Self::is_idle`] for every worker.
    #[cfg(any(test, feature = "shadow"))]
    fn check_idle_set(&self, kern: &Kernel) {
        for w in 0..self.workers.len() {
            let bit = self.idle[w / 64] >> (w % 64) & 1 == 1;
            assert_eq!(bit, self.is_idle(kern, w), "shadow: idle bit of worker {w}");
        }
    }

    fn draw_service(&mut self) -> f64 {
        self.rng.lognormal(self.cfg.service_work, SIGMA).max(1.0)
    }

    fn schedule_arrival(&mut self, plat: &mut dyn Platform) {
        let dt = self.rng.exp(self.cfg.interarrival_ns).max(1.0) as u64;
        let at = plat.now().after(dt);
        plat.set_timer(ARRIVAL, at);
    }

    /// Schedules one connection's next request a think time from now.
    /// Timer events with the same token coexist, so each connection simply
    /// posts its own `ARRIVAL`.
    fn schedule_think(&mut self, plat: &mut dyn Platform, think_ns: f64) {
        let dt = self.rng.exp(think_ns).max(1.0) as u64;
        let at = plat.now().after(dt);
        plat.set_timer(ARRIVAL, at);
    }

    fn complete(&mut self, plat: &mut dyn Platform, now: SimTime, w: usize) {
        let Some(fl) = self.current[w].take() else {
            return;
        };
        let queue = fl.issued.since(fl.arrived);
        let e2e = now.since(fl.arrived);
        let service = e2e.saturating_sub(queue);
        let mut s = self.stats.borrow_mut();
        s.queue.record(queue);
        s.service.record(service);
        s.e2e.record(e2e);
        s.completed += 1;
        if let Some(series) = s.series.as_mut() {
            series.tick(now.ns());
        }
        drop(s);
        // Closed loop: the connection thinks, then issues the next request.
        if let Some((_, think_ns)) = self.cfg.closed_loop {
            self.schedule_think(plat, think_ns);
        }
    }
}

impl Workload for LatencyServer {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for _ in 0..self.cfg.workers {
            let mut spec = SpawnSpec::normal(nr).latency_sensitive();
            if let Some(g) = self.cfg.comm_group {
                spec = spec.comm_group(g);
            }
            let t = guest.spawn(plat, spec);
            debug_assert!(
                self.workers.last().is_none_or(|p| p.0 + 1 == t.0),
                "workers must hold consecutive task ids"
            );
            self.workers.push(t);
            self.current.push(None);
        }
        // A spawned task starts blocked, so every worker starts idle.
        self.idle = vec![0; self.workers.len().div_ceil(64)];
        for w in 0..self.workers.len() {
            self.set_idle(w, true);
        }
        if self.cfg.best_effort {
            for _ in 0..nr {
                let t = guest.spawn(plat, SpawnSpec::normal(nr).policy(Policy::Idle));
                self.best_effort.push(t);
                guest.wake_task(plat, t, None);
            }
        }
        match self.cfg.closed_loop {
            Some((connections, think_ns)) => {
                for _ in 0..connections {
                    self.schedule_think(plat, think_ns);
                }
            }
            None => self.schedule_arrival(plat),
        }
    }

    fn on_timer(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform, token: u64) {
        if token != ARRIVAL {
            return;
        }
        let now = plat.now();
        self.backlog.push_back(now);
        // Wake one idle worker; it pulls the request when it actually runs,
        // so the measured queue time includes the runqueue latency. Closed
        // loop rotates the search start so the load spreads over the pool;
        // open loop keeps the original first-fit.
        let n = self.workers.len();
        let start = if self.cfg.closed_loop.is_some() {
            self.rr % n.max(1)
        } else {
            0
        };
        let idle = self.first_idle_from(start);
        #[cfg(feature = "shadow")]
        {
            self.check_idle_set(&guest.kern);
            let scan = (start..n)
                .chain(0..start)
                .find(|&w| self.is_idle(&guest.kern, w));
            assert_eq!(idle, scan, "shadow: idle worker for an arrival");
        }
        if let Some(w) = idle {
            if self.cfg.closed_loop.is_some() {
                self.rr = w + 1;
            }
            self.set_idle(w, false);
            guest.wake_task(plat, self.workers[w], None);
        }
        // Open loop: the Poisson stream re-arms itself. (Closed loop re-arms
        // per connection, on completion.)
        if self.cfg.closed_loop.is_none() {
            self.schedule_arrival(plat);
        }
    }

    fn next_action(
        &mut self,
        _guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        let now = plat.now();
        let Some(w) = self.worker_index(t) else {
            // A best-effort spinner: spin forever.
            return TaskAction::Compute { work: 1.0e18 };
        };
        if self.current[w].is_some() {
            self.complete(plat, now, w);
        }
        match self.backlog.pop_front() {
            Some(arrived) => {
                let work = self.draw_service();
                self.current[w] = Some(InFlight {
                    arrived,
                    issued: now,
                });
                TaskAction::Compute { work }
            }
            None => {
                // No request in flight and the task blocks on this action.
                self.set_idle(w, true);
                TaskAction::Block
            }
        }
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.worker_index(t).is_some() || self.best_effort.contains(&t)
    }

    fn label(&self) -> &str {
        "latency-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{work_ms, work_us};
    use hostsim::{HostSpec, Machine, VmSpec};
    use simcore::time::MS;
    use std::cell::Cell;

    /// A latency server that checks its idle-worker set against the
    /// definition on entry to every callback and after every arrival.
    /// Workers enter or leave the blocked state only through the server's
    /// own `Block` action and its own wakes, so a check on every callback
    /// entry sees the set after every event that can move it.
    struct Checked {
        inner: LatencyServer,
        checks: Rc<Cell<u64>>,
    }

    impl Checked {
        fn check(&self, guest: &GuestOs) {
            self.inner.check_idle_set(&guest.kern);
            self.checks.set(self.checks.get() + 1);
        }
    }

    impl Workload for Checked {
        fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
            self.inner.start(guest, plat);
            self.check(guest);
        }

        fn on_timer(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform, token: u64) {
            self.check(guest);
            self.inner.on_timer(guest, plat, token);
            self.check(guest);
        }

        fn next_action(
            &mut self,
            guest: &mut GuestOs,
            plat: &mut dyn Platform,
            t: TaskId,
        ) -> TaskAction {
            self.check(guest);
            self.inner.next_action(guest, plat, t)
        }
    }

    /// Runs `cfg` with best-effort spinners on a 2-vCPU VM for 200 ms and
    /// returns the completed requests and the checks made.
    fn run_checked(cfg: LatencyServerCfg, seed: u64) -> (u64, u64) {
        let mut m = Machine::new(HostSpec::flat(2), seed);
        let vm = m.add_vm(VmSpec::pinned(2, 0));
        let (inner, stats) = LatencyServer::new(cfg.with_best_effort(), SimRng::new(seed));
        let checks = Rc::new(Cell::new(0));
        let wl = Checked {
            inner,
            checks: Rc::clone(&checks),
        };
        m.set_workload(vm, Box::new(wl));
        m.start();
        m.run_until(SimTime::from_ms(200));
        let completed = stats.borrow().completed;
        (completed, checks.get())
    }

    #[test]
    fn idle_set_matches_scan_open_loop() {
        // Light load leaves workers idle; heavy load exhausts the pool.
        for (workers, interarrival) in [(4, 2.0 * MS as f64), (3, 0.1 * MS as f64)] {
            let cfg = LatencyServerCfg::new(workers, work_ms(0.3), interarrival);
            let (completed, checks) = run_checked(cfg, 11);
            assert!(completed > 50, "completed {completed}");
            assert!(checks > 2 * completed, "checks {checks}");
        }
    }

    #[test]
    fn idle_set_matches_scan_closed_loop() {
        // 70 workers span two words of the set, and the rotating start
        // wraps around the pool.
        for (workers, connections) in [(4, 6), (70, 90)] {
            let cfg = LatencyServerCfg::new(workers, work_us(200.0), 0.0)
                .with_closed_loop(connections, 0.5 * MS as f64);
            let (completed, checks) = run_checked(cfg, 12);
            assert!(completed > 50, "completed {completed}");
            assert!(checks > 2 * completed, "checks {checks}");
        }
    }

    #[test]
    fn first_idle_from_wraps_in_scan_order() {
        let (mut s, _) = LatencyServer::new(LatencyServerCfg::new(0, 1.0, 1.0), SimRng::new(1));
        s.idle = vec![0; 2];
        for w in [3, 70, 100] {
            s.set_idle(w, true);
        }
        assert_eq!(s.first_idle_from(0), Some(3));
        assert_eq!(s.first_idle_from(4), Some(70));
        assert_eq!(s.first_idle_from(70), Some(70));
        assert_eq!(s.first_idle_from(101), Some(3));
        s.set_idle(3, false);
        assert_eq!(s.first_idle_from(101), Some(70));
        s.idle = vec![0; 2];
        assert_eq!(s.first_idle_from(5), None);
    }
}
