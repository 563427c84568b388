//! Property tests: the guest kernel's structural invariants hold under
//! arbitrary sequences of scheduler operations.
//!
//! Invariants checked after every step:
//! * every live task is in exactly one place (one vCPU's `curr`, one
//!   runqueue, or off-queue sleeping/blocked/dead);
//! * runqueue aggregates (`weight_sum`, `nr_normal`, `nr_idle`) match the
//!   queue contents;
//! * `min_vruntime` never decreases;
//! * a vCPU with waiting tasks and no current is never silently abandoned
//!   (the wake path kicked it);
//! * the kernel's busy mask names exactly the vCPUs that are not idle;
//! * its normal-running mask names exactly the vCPUs running a normal
//!   task, and its idle-like mask exactly those running nothing or a
//!   `SCHED_IDLE` task with no normal task waiting;
//! * every load ratio it keeps as fresh equals the vCPU's queue weight
//!   over its perceived capacity, recomputed from scratch;
//! * its misfit candidate masks equal a pairwise comparison of the
//!   probed capacities.
//!
//! The steps include stolen time (so the tick moves the perceived
//! capacity), vcap-style capacity overrides on one vCPU or all of them,
//! and burst completions that sleep, block or exit the current task, so
//! every place a kept value goes stale is exercised.
//!
//! Further properties hold the communication-locality factor, which stops
//! scanning a group once no member can lower it, to a full scan of every
//! running group member; the misfit masks to a pairwise comparison under
//! drawn override sets and withdrawals; and each domain level's kept
//! group index to the first group holding the vCPU, over random perceived
//! topologies with overlapping groups.
//!
//! Driven by simcore's in-tree `propcheck` harness (deterministic, offline).

use simcore::propcheck::{forall, vec_of};
use simcore::{SimRng, SimTime};
use vsched_guestos::balance::MISFIT_CAP_ADVANTAGE;
use vsched_guestos::kernel::{CROSS_SOCKET_COMM_FACTOR, SAME_LLC_COMM_FACTOR};
use vsched_guestos::{
    CommDistance, CpuMask, DomainTree, Kernel, MigrateKind, PerceivedTopology, Platform, Policy,
    RunDelta, SpawnSpec, TaskId, TaskState, VcpuId,
};

/// An always-active platform that advances a synthetic clock and lets tasks
/// "run" with wall-time work accrual.
struct FakePlat {
    now: SimTime,
    running: Vec<Option<(TaskId, SimTime)>>,
    /// Per-vCPU steal counters.
    steal: Vec<u64>,
    /// `comm_distance(a, b)` at `a * nr + b`; empty means every pair is
    /// `SameLlc`.
    distance: Vec<CommDistance>,
}

impl FakePlat {
    fn new(nr: usize) -> Self {
        Self {
            now: SimTime::ZERO,
            running: vec![None; nr],
            steal: vec![0; nr],
            distance: Vec::new(),
        }
    }
}

impl Platform for FakePlat {
    fn now(&self) -> SimTime {
        self.now
    }
    fn steal_ns(&self, v: VcpuId) -> u64 {
        self.steal[v.0]
    }
    fn vcpu_active(&self, _v: VcpuId) -> bool {
        true
    }
    fn kick(&mut self, _v: VcpuId) {}
    fn vcpu_idle(&mut self, _v: VcpuId) {}
    fn run_task(&mut self, v: VcpuId, t: TaskId, _r: f64, _f: f64, _p: f64) {
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
    fn comm_distance(&self, a: VcpuId, b: VcpuId) -> CommDistance {
        let nr = self.running.len();
        self.distance
            .get(a.0 * nr + b.0)
            .copied()
            .unwrap_or(CommDistance::SameLlc)
    }
    fn cacheline_latency_ns(&mut self, _a: VcpuId, _b: VcpuId) -> Option<f64> {
        None
    }
    fn set_timer(&mut self, _token: u64, _at: SimTime) {}
}

/// `d`'s misfit candidates by their definition: while every vCPU has a
/// probed capacity, the vCPUs whose capacity times the misfit advantage is
/// below `d`'s; `None` otherwise.
fn weaker_by_pairs(kern: &Kernel, d: VcpuId) -> Option<CpuMask> {
    let caps: Option<Vec<f64>> = (0..kern.nr_vcpus())
        .map(|c| kern.cap_override(VcpuId(c)))
        .collect();
    let caps = caps?;
    let weaker = (0..caps.len()).filter(|&c| caps[d.0] > MISFIT_CAP_ADVANTAGE * caps[c]);
    Some(CpuMask::from_iter(weaker))
}

/// Asserts every vCPU's kept misfit mask against [`weaker_by_pairs`].
fn check_misfit_masks(kern: &mut Kernel) {
    for d in (0..kern.nr_vcpus()).map(VcpuId) {
        let want = weaker_by_pairs(kern, d);
        assert_eq!(kern.weaker_than(d).copied(), want, "misfit mask of {d:?}");
    }
}

/// The randomized operations.
#[derive(Debug, Clone)]
enum Op {
    Spawn { idle_policy: bool },
    Wake { task: usize, vcpu: usize },
    Tick { vcpu: usize },
    Block { task: usize },
    MigrateRunnable { task: usize, to: usize },
    MigrateRunning { from: usize, to: usize },
    Kill { task: usize },
    Ban { vcpu: usize },
    Allow { vcpu: usize },
    Advance { ns: u64 },
    Steal { vcpu: usize, ns: u64 },
    CapOverride { vcpu: usize, cap: Option<f64> },
    OverrideAll { caps: [f64; 4] },
    BurstEnd { vcpu: usize, how: usize },
}

/// Wakes and ticks are drawn more often than the rest, so vCPUs are busy
/// and their kept load ratios are fresh when a tick moves a capacity.
fn gen_op(rng: &mut SimRng) -> Op {
    match rng.index(17) {
        0 => Op::Spawn {
            idle_policy: rng.chance(0.5),
        },
        1 | 2 => Op::Wake {
            task: rng.index(24),
            vcpu: rng.index(4),
        },
        3..=5 => Op::Tick { vcpu: rng.index(4) },
        6 => Op::Block {
            task: rng.index(24),
        },
        7 => Op::MigrateRunnable {
            task: rng.index(24),
            to: rng.index(4),
        },
        8 => Op::MigrateRunning {
            from: rng.index(4),
            to: rng.index(4),
        },
        9 => Op::Kill {
            task: rng.index(24),
        },
        10 => Op::Ban { vcpu: rng.index(4) },
        11 => Op::Allow { vcpu: rng.index(4) },
        12 => Op::Steal {
            vcpu: rng.index(4),
            ns: rng.range(1, 2_000_000),
        },
        13 => Op::CapOverride {
            vcpu: rng.index(4),
            cap: rng.chance(0.3).then(|| rng.range(64, 1024) as f64),
        },
        14 => Op::BurstEnd {
            vcpu: rng.index(4),
            how: rng.index(3),
        },
        15 => Op::OverrideAll {
            caps: [(); 4].map(|_| rng.range(64, 1024) as f64),
        },
        _ => Op::Advance {
            ns: rng.range(1, 5_000_000),
        },
    }
}

fn check_invariants(kern: &Kernel, now: SimTime, min_floor: &mut [u64]) {
    let nr = kern.nr_vcpus();
    // 1. Placement uniqueness.
    let mut seen = vec![0u32; kern.tasks.len()];
    for v in 0..nr {
        if let Some(t) = kern.vcpus[v].curr {
            seen[t.0 as usize] += 1;
            assert_eq!(
                kern.task(t).state,
                TaskState::Running(VcpuId(v)),
                "curr task state mismatch"
            );
        }
        for (_, t) in kern.vcpus[v].rq.iter() {
            seen[t.0 as usize] += 1;
            assert_eq!(
                kern.task(t).state,
                TaskState::Runnable(VcpuId(v)),
                "queued task state mismatch"
            );
        }
    }
    for task in &kern.tasks {
        let expected = match task.state {
            TaskState::Running(_) | TaskState::Runnable(_) => 1,
            _ => 0,
        };
        assert_eq!(
            seen[task.id.0 as usize], expected,
            "task {:?} in state {:?} appears {} times",
            task.id, task.state, seen[task.id.0 as usize]
        );
    }
    // 2. Queue aggregates.
    for v in 0..nr {
        let rq = &kern.vcpus[v].rq;
        let mut weight = 0u64;
        let mut idle = 0usize;
        let mut normal = 0usize;
        for (_, t) in rq.iter() {
            weight += kern.task(t).weight();
            if kern.task(t).policy.is_idle() {
                idle += 1;
            } else {
                normal += 1;
            }
        }
        assert_eq!(rq.weight_sum, weight, "vcpu {v} weight_sum");
        assert_eq!(rq.nr_idle, idle, "vcpu {v} nr_idle");
        assert_eq!(rq.nr_normal, normal, "vcpu {v} nr_normal");
    }
    // 3. min_vruntime monotonic.
    #[allow(clippy::needless_range_loop)]
    for v in 0..nr {
        let m = kern.vcpus[v].rq.min_vruntime;
        assert!(m >= min_floor[v], "vcpu {v} min_vruntime went backwards");
        min_floor[v] = m;
    }
    // 4. The busy mask is exactly the set of non-idle vCPUs.
    let busy = CpuMask::from_iter((0..nr).filter(|&v| !kern.vcpu_is_idle(VcpuId(v))));
    assert_eq!(*kern.busy(), busy, "busy mask out of step");
    // 5. The normal-running and idle-like masks, by their definitions.
    let normal = |t: TaskId| !kern.task(t).policy.is_idle();
    let normal_running =
        CpuMask::from_iter((0..nr).filter(|&v| kern.vcpus[v].curr.is_some_and(normal)));
    assert_eq!(
        *kern.normal_running(),
        normal_running,
        "normal-running mask out of step"
    );
    let idle_like = CpuMask::from_iter((0..nr).filter(|&v| {
        let d = &kern.vcpus[v];
        !d.curr.is_some_and(normal) && !d.rq.iter().any(|(_, t)| normal(t))
    }));
    assert_eq!(*kern.idle_like(), idle_like, "idle-like mask out of step");
    // 6. Every fresh kept load ratio, against a recomputation.
    for v in (0..nr).map(VcpuId) {
        if let Some(kept) = kern.fresh_ratio(v) {
            let want = kern.rq_weight(v) as f64 / kern.capacity_of(v, now).max(1.0);
            assert_eq!(kept.to_bits(), want.to_bits(), "stale load ratio of {v:?}");
        }
    }
}

#[test]
fn kernel_invariants_hold() {
    let cases = if cfg!(feature = "property-tests") {
        512
    } else {
        64
    };
    forall(0x81, cases, |rng| {
        let ops = vec_of(rng, 1, 120, gen_op);
        let nr = 4;
        let mut kern = Kernel::new(nr, SimTime::ZERO);
        // Half the cases declare asymmetric capacity, so the balancer's
        // misfit pass runs and reads the kept masks.
        kern.asym_capacity = rng.chance(0.5);
        // Half the cases balance over two SMT cores in two sockets, so the
        // SMT-spread and per-level pull paths run as well as the flat one.
        if rng.chance(0.5) {
            let pairs = [vec![0, 1], vec![2, 3]];
            kern.install_topology(&PerceivedTopology::from_groups(nr, &[], &pairs, &pairs));
        }
        let mut plat = FakePlat::new(nr);
        let mut ids: Vec<TaskId> = Vec::new();
        let mut min_floor = vec![0u64; nr];
        // Most cases start with a few tasks spawned and woken, so the first
        // steps find running vCPUs to tick, balance and steal from.
        let preload = (0..rng.index(8)).flat_map(|task| {
            let spawn = Op::Spawn {
                idle_policy: rng.chance(0.25),
            };
            let vcpu = rng.index(nr);
            [spawn, Op::Wake { task, vcpu }]
        });
        let ops: Vec<Op> = preload.chain(ops).collect();

        for op in ops {
            match op {
                Op::Spawn { idle_policy } => {
                    if ids.len() < 24 {
                        let mut spec = SpawnSpec::normal(nr);
                        if idle_policy {
                            spec = spec.policy(Policy::Idle);
                        }
                        let t = kern.spawn(plat.now, spec);
                        kern.task_mut(t).remaining = 1e15;
                        ids.push(t);
                    }
                }
                Op::Wake { task, vcpu } => {
                    if let Some(&t) = ids.get(task) {
                        kern.wake_to(&mut plat, t, VcpuId(vcpu), None);
                        // A woken task must be schedulable: if the vCPU has
                        // no current, schedule it.
                        if kern.vcpus[vcpu].curr.is_none() && !kern.vcpus[vcpu].rq.is_empty() {
                            kern.schedule(&mut plat, VcpuId(vcpu));
                        }
                    }
                }
                Op::Tick { vcpu } => kern.tick(&mut plat, VcpuId(vcpu)),
                Op::Block { task } => {
                    if let Some(&t) = ids.get(task) {
                        kern.block_task(&mut plat, t);
                    }
                }
                Op::MigrateRunnable { task, to } => {
                    if let Some(&t) = ids.get(task) {
                        kern.migrate_runnable(&mut plat, t, VcpuId(to), MigrateKind::Balance);
                    }
                }
                Op::MigrateRunning { from, to } => {
                    kern.migrate_running(&mut plat, VcpuId(from), VcpuId(to), MigrateKind::Active);
                }
                Op::Kill { task } => {
                    if let Some(&t) = ids.get(task) {
                        kern.kill_task(&mut plat, t);
                    }
                }
                Op::Ban { vcpu } => kern.cgroup.ban(vcpu),
                Op::Allow { vcpu } => kern.cgroup.allow(vcpu),
                Op::Advance { ns } => plat.now = plat.now.after(ns),
                Op::Steal { vcpu, ns } => plat.steal[vcpu] += ns,
                Op::CapOverride { vcpu, cap } => kern.set_cap_override(VcpuId(vcpu), cap),
                Op::OverrideAll { caps } => {
                    for (v, cap) in caps.into_iter().enumerate() {
                        kern.set_cap_override(VcpuId(v), Some(cap));
                    }
                }
                Op::BurstEnd { vcpu, how } => {
                    let v = VcpuId(vcpu);
                    if kern.on_burst_complete(&mut plat, v).is_some() {
                        match how {
                            0 => kern.curr_sleeps(&mut plat, v),
                            1 => kern.curr_blocks(&mut plat, v),
                            _ => kern.curr_exits(&mut plat, v),
                        };
                    }
                }
            }
            check_invariants(&kern, plat.now, &mut min_floor);
            check_misfit_masks(&mut kern);
        }
    });
}

#[test]
fn misfit_masks_match_pairwise_comparison() {
    let cases = if cfg!(feature = "property-tests") {
        512
    } else {
        64
    };
    forall(0x315F, cases, |rng| {
        let nr = 1 + rng.index(12);
        let mut kern = Kernel::new(nr, SimTime::ZERO);
        // Capacities from a short list, so equal capacities and pairs on
        // either side of the misfit advantage come up often.
        const CAPS: [f64; 6] = [100.0, 114.0, 115.0, 116.0, 600.0, 1024.0];
        let cap = |rng: &mut SimRng| match rng.index(3) {
            0 => CAPS[rng.index(CAPS.len())],
            _ => rng.range(1, 1024) as f64,
        };
        for _ in 0..rng.index(40) {
            match rng.index(5) {
                // One vCPU's override set or withdrawn.
                0 | 1 => {
                    let c = rng.chance(0.7).then(|| cap(rng));
                    kern.set_cap_override(VcpuId(rng.index(nr)), c);
                }
                // A vcap sampling window: every vCPU's override.
                2 | 3 => {
                    for v in 0..nr {
                        let c = cap(rng);
                        kern.set_cap_override(VcpuId(v), Some(c));
                    }
                }
                // Degraded-mode entry: every override withdrawn.
                _ => {
                    for v in 0..nr {
                        kern.set_cap_override(VcpuId(v), None);
                    }
                }
            }
            check_misfit_masks(&mut kern);
        }
    });
}

/// A random mask over `0..bound` that holds `v` when `v` is given.
fn random_mask(rng: &mut SimRng, bound: usize, v: Option<usize>) -> CpuMask {
    let mut m = CpuMask::from_iter((0..rng.index(4)).map(|_| rng.index(bound)));
    if let Some(v) = v {
        m.set(v);
    }
    m
}

#[test]
fn domain_group_index_matches_first_match() {
    let cases = if cfg!(feature = "property-tests") {
        512
    } else {
        64
    };
    forall(0xD0A1, cases, |rng| {
        let nr = 1 + rng.index(40);
        let mut topo = PerceivedTopology::flat(nr);
        // Sibling lists drawn per vCPU, so groups overlap; a few name
        // vCPUs past the last one or leave out their own vCPU.
        let bound = nr + 2;
        for v in 0..nr {
            let own = rng.chance(0.9).then_some(v);
            topo.smt[v] = if rng.chance(0.5) {
                random_mask(rng, bound, own)
            } else {
                CpuMask::single(v)
            };
            let own = rng.chance(0.9).then_some(v);
            topo.socket[v] = random_mask(rng, bound, own);
        }
        let tree = DomainTree::rebuild(&topo);
        for level in tree.levels() {
            for v in (0..bound + 2).map(VcpuId) {
                let first = level.groups().iter().find(|g| g.contains(v.0));
                assert_eq!(
                    level.group_of(v).map(|g| g as *const CpuMask),
                    first.map(|g| g as *const CpuMask),
                    "{} group of {v:?} in {:?}",
                    level.name,
                    level.groups()
                );
            }
        }
    });
}

/// The factor by its definition: the smallest factor over every other
/// running member of `t`'s group, 1.0 when there is none.
fn full_scan_comm_factor(kern: &Kernel, plat: &FakePlat, t: TaskId, v: VcpuId) -> f64 {
    let Some(group) = kern.task(t).comm_group else {
        return 1.0;
    };
    let mut worst = 1.0f64;
    for other in &kern.tasks {
        if other.id == t || other.comm_group != Some(group) {
            continue;
        }
        if let TaskState::Running(ov) = other.state {
            let f = match plat.comm_distance(v, ov) {
                CommDistance::CrossSocket => CROSS_SOCKET_COMM_FACTOR,
                CommDistance::SameLlc => SAME_LLC_COMM_FACTOR,
                _ => 1.0,
            };
            worst = worst.min(f);
        }
    }
    worst
}

#[test]
fn comm_factor_matches_a_full_scan() {
    let cases = if cfg!(feature = "property-tests") {
        512
    } else {
        64
    };
    const DISTANCES: [CommDistance; 4] = [
        CommDistance::Stacked,
        CommDistance::SmtSibling,
        CommDistance::SameLlc,
        CommDistance::CrossSocket,
    ];
    forall(0xC0AA, cases, |rng| {
        let nr = 1 + rng.index(8);
        let mut kern = Kernel::new(nr, SimTime::ZERO);
        let mut plat = FakePlat::new(nr);
        plat.distance = (0..nr * nr)
            .map(|_| DISTANCES[rng.index(DISTANCES.len())])
            .collect();

        // Up to 24 tasks in three groups or none; most wake somewhere.
        let ntasks = rng.index(25);
        let mut ids = Vec::new();
        for _ in 0..ntasks {
            let mut spec = SpawnSpec::normal(nr);
            let g = rng.index(4);
            if g < 3 {
                spec = spec.comm_group(g as u32);
            }
            let t = kern.spawn(plat.now, spec);
            kern.task_mut(t).remaining = 1e15;
            if rng.chance(0.8) {
                kern.wake_to(&mut plat, t, VcpuId(rng.index(nr)), None);
            }
            ids.push(t);
        }
        for v in 0..nr {
            if kern.vcpus[v].curr.is_none() && !kern.vcpus[v].rq.is_empty() {
                kern.schedule(&mut plat, VcpuId(v));
            }
        }

        for &t in &ids {
            for v in 0..nr {
                let v = VcpuId(v);
                let got = kern.comm_factor(&plat, t, v);
                let want = full_scan_comm_factor(&kern, &plat, t, v);
                assert_eq!(got.to_bits(), want.to_bits(), "task {t:?} on {v:?}");
            }
        }
    });
}
