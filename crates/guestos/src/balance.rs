//! Load balancing.
//!
//! Periodic balancing walks the domain hierarchy lowest-level-first and
//! pulls waiting tasks toward the balancing vCPU when the load-to-capacity
//! imbalance warrants it; new-idle balancing does the same the moment a vCPU
//! runs out of work (this is what makes baseline CFS *work-conserving* —
//! and what rwc's cgroup bans deliberately relax); misfit balancing moves a
//! *running* task whose utilization exceeds its vCPU's perceived capacity to
//! an idle vCPU with more (Linux's active balance, which Figure 11a shows
//! steering work to high-capacity vCPUs only when capacity is probed
//! correctly).

use crate::cpumask::CpuMask;
use crate::kernel::{Kernel, MigrateKind, VcpuId, MIGRATION_COST_NS};
use crate::platform::Platform;
use crate::select::FITS_MARGIN;
use crate::task::{TaskId, TaskState};

/// Imbalance factor: the busiest queue must be this much more loaded than
/// the destination before a pull happens (Linux's `imbalance_pct` = 125).
const IMBALANCE_PCT: f64 = 1.25;

/// Capacity advantage required of the destination in a misfit migration.
pub const MISFIT_CAP_ADVANTAGE: f64 = 1.15;

/// Finds the first waiting task on `src` that may run on `dst`, skipping
/// cache-hot tasks (enqueued within `migration_cost_ns`, Linux's
/// `can_migrate_task` heat check — this also prevents a freshly migrated
/// task from ping-ponging straight back).
fn movable_task(kern: &Kernel, src: VcpuId, dst: VcpuId, now: simcore::SimTime) -> Option<TaskId> {
    for (_, t) in kern.vcpus[src.0].rq.iter() {
        let task = kern.task(t);
        if matches!(task.state, TaskState::Runnable(_))
            && kern.placement_mask(t).contains(dst.0)
            && now.since(task.enqueued_at) >= MIGRATION_COST_NS
        {
            return Some(t);
        }
    }
    None
}

/// Outcome of one pull attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PullResult {
    /// A task moved.
    Pulled,
    /// No imbalance worth acting on.
    Balanced,
    /// Imbalance exists but the busiest queue had nothing movable
    /// (Linux increments `nr_balance_failed` here).
    NothingMovable(VcpuId),
}

/// The busiest non-idle vCPU other than `dst` among `best` and the vCPUs
/// of `cands`, by load ratio, the lowest-numbered first among equal ratios
/// — considering the running task too, since active balance may target
/// it.
fn busiest_of(
    kern: &mut Kernel,
    cands: &CpuMask,
    dst: VcpuId,
    now: simcore::SimTime,
    mut best: Option<(VcpuId, f64)>,
) -> Option<(VcpuId, f64)> {
    for c in cands.and(kern.busy()).iter() {
        if c == dst.0 {
            continue;
        }
        let r = kern.load_ratio(VcpuId(c), now);
        if best.is_none_or(|(b, br)| r > br || (r == br && c < b.0)) {
            best = Some((VcpuId(c), r));
        }
    }
    best
}

/// Attempts one pull into `dst` from `busiest`, the busiest other vCPU of
/// the level's span.
fn try_pull(
    kern: &mut Kernel,
    plat: &mut dyn Platform,
    dst: VcpuId,
    busiest: Option<(VcpuId, f64)>,
) -> PullResult {
    let now = plat.now();
    let dst_ratio = kern.load_ratio(dst, now);
    let Some((src, src_ratio)) = busiest else {
        return PullResult::Balanced;
    };

    let dst_idle = kern.vcpu_is_idle(dst);
    if src_ratio <= IMBALANCE_PCT * dst_ratio || (!dst_idle && src_ratio <= dst_ratio + 0.5) {
        return PullResult::Balanced;
    }
    if dst_idle && kern.vcpus[src.0].rq.is_empty() {
        // Only the running task could move: that is active balance's job.
        return PullResult::NothingMovable(src);
    }
    let t = match movable_task(kern, src, dst, now) {
        Some(t) => t,
        None => {
            // Linux's LBF_ALL_PINNED: when every queued task is barred by
            // affinity/cgroup (not merely cache-hot), the CPU is excluded
            // from balancing instead of escalating to active balance.
            let any_placeable = kern.vcpus[src.0]
                .rq
                .iter()
                .any(|(_, t)| kern.placement_mask(t).contains(dst.0));
            if !any_placeable {
                return PullResult::Balanced;
            }
            return PullResult::NothingMovable(src);
        }
    };
    // Require strict improvement so tasks do not ping-pong.
    let tw = kern.task(t).weight() as f64;
    let src_cap = kern.capacity_of(src, now).max(1.0);
    let dst_cap = kern.capacity_of(dst, now).max(1.0);
    let new_src = (kern.rq_weight(src) as f64 - tw) / src_cap;
    let new_dst = (kern.rq_weight(dst) as f64 + tw) / dst_cap;
    if new_dst.max(new_src) >= src_ratio.max(dst_ratio) && !dst_idle {
        return PullResult::Balanced;
    }
    kern.migrate_runnable(plat, t, dst, MigrateKind::Balance);
    kern.stats.balance_migrations.inc();
    PullResult::Pulled
}

/// Linux's active balance after repeated failed attempts: when the balance
/// pass keeps finding imbalance with nothing pullable, the *running* task
/// of the busiest vCPU is pushed to the balancer. Under the inaccurate
/// baseline capacity view, perceived ratios diverge even on symmetric
/// hosts, producing the adverse migration churn Figure 11b profiles.
const BALANCE_FAILED_THRESHOLD: u32 = 3;

fn maybe_active_balance(
    kern: &mut Kernel,
    plat: &mut dyn Platform,
    dst: VcpuId,
    src: VcpuId,
) -> bool {
    // Linux only reaches active balance when the busiest CPU is genuinely
    // overloaded (waiting tasks it cannot hand over); a CPU running a
    // single task is "fully busy", not "overloaded", and is left alone.
    if kern.vcpus[src.0].rq.is_empty() {
        return false;
    }
    kern.vcpus[src.0].balance_failed += 1;
    if kern.vcpus[src.0].balance_failed < BALANCE_FAILED_THRESHOLD {
        return false;
    }
    let Some(curr) = kern.vcpus[src.0].curr else {
        return false;
    };
    if !kern.placement_mask(curr).contains(dst.0) {
        return false;
    }
    kern.vcpus[src.0].balance_failed = 0;
    kern.migrate_running(plat, src, dst, MigrateKind::Active)
        .is_some()
}

/// Misfit / active balance: if `dst` is idle and some vCPU runs a task too
/// big for its perceived capacity, and `dst` has materially more capacity,
/// migrate the running task here. Gated on the asymmetric-capacity flag
/// (`SD_ASYM_CPUCAPACITY`): a stock x86 VM never balances on misfit;
/// vcap's module enables it when probing reveals real asymmetry.
fn try_misfit(kern: &mut Kernel, plat: &mut dyn Platform, dst: VcpuId) -> bool {
    if !kern.asym_capacity || !kern.vcpu_is_idle(dst) {
        return false;
    }
    let now = plat.now();
    let dst_cap = kern.capacity_of(dst, now);
    let busy = *kern.busy();
    // While every vCPU has a probed capacity, the kept mask holds exactly
    // the vCPUs the capacity test below passes.
    let cands = kern.weaker_than(dst).map_or(busy, |w| busy.and(w));
    for c in cands.iter() {
        let src = VcpuId(c);
        if src == dst {
            continue;
        }
        let curr = match kern.vcpus[c].curr {
            Some(t) => t,
            None => continue,
        };
        // The capacity test first: it needs no task lookup, and most
        // vCPUs are not materially weaker than `dst`.
        let src_cap = kern.capacity_of(src, now);
        let stronger = dst_cap > MISFIT_CAP_ADVANTAGE * src_cap;
        if !stronger {
            continue;
        }
        let task = kern.task(curr);
        let misfit = task.pelt.util() > FITS_MARGIN * src_cap;
        // Cache-hot gate: leave freshly (re)started tasks alone.
        let cold = now.since(task.run_started) >= MIGRATION_COST_NS;
        if misfit && cold && kern.placement_mask(curr).contains(dst.0) {
            kern.migrate_running(plat, src, dst, MigrateKind::Active);
            return true;
        }
    }
    false
}

/// SMT spreading (Linux's SD_PREFER_SIBLING): if `dst` sits on a fully
/// idle core while some core runs tasks on both its hardware threads,
/// migrate one of them here — actively if necessary. Returns true on a
/// migration.
fn try_smt_spread(kern: &mut Kernel, plat: &mut dyn Platform, dst: VcpuId) -> bool {
    if !kern.domains.has_smt() || !kern.vcpu_is_idle(dst) {
        return false;
    }
    let Some(dst_group) = kern.domains.smt_group(dst).copied() else {
        return false;
    };
    if dst_group.intersects(kern.busy()) {
        return false;
    }
    let now = plat.now();
    // Sources: busy vCPUs off dst's core whose core runs normal tasks on
    // at least two of its hardware threads. A vCPU's core is the first
    // SMT group holding it, as `smt_group` finds it.
    let mut doubled = CpuMask::empty();
    let mut placed = CpuMask::empty();
    for group in kern.domains.smt_groups() {
        if group.and(kern.normal_running()).count() >= 2 {
            doubled = doubled.or(&group.minus(&placed));
        }
        placed = placed.or(group);
    }
    let sources = doubled.and(kern.busy()).minus(&dst_group);
    for c in sources.iter() {
        let src = VcpuId(c);
        // Prefer a queued task; otherwise actively migrate the running one.
        if let Some(t) = movable_task(kern, src, dst, now) {
            kern.migrate_runnable(plat, t, dst, MigrateKind::Balance);
            kern.stats.balance_migrations.inc();
            return true;
        }
        if let Some(curr) = kern.vcpus[src.0].curr {
            if kern.placement_mask(curr).contains(dst.0) {
                return kern
                    .migrate_running(plat, src, dst, MigrateKind::Active)
                    .is_some();
            }
        }
    }
    false
}

/// One pull pass into `v` up its domain hierarchy, lowest level first,
/// ending at the first migration. With `active`, a level whose busiest
/// queue had nothing movable may escalate to active balance (periodic
/// balancing does; new-idle balancing does not). Returns true on a
/// migration.
///
/// Spans nest (SMT within LLC within the machine), and nothing changes a
/// load ratio before the pass's first migration, so a level's busiest
/// vCPU is the level below's, challenged only by the vCPUs the level adds.
fn pull_pass(kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId, active: bool) -> bool {
    let now = plat.now();
    let mut scanned = CpuMask::empty();
    let mut busiest = None;
    for level in 0..kern.domains.levels().len() {
        let Some(span) = kern.domains.levels()[level].group_of(v).copied() else {
            continue;
        };
        if span.count() <= 1 {
            continue;
        }
        if !scanned.subset_of(&span) {
            // Not nested under the level below: scan the span whole.
            (scanned, busiest) = (CpuMask::empty(), None);
        }
        busiest = busiest_of(kern, &span.minus(&scanned), v, now, busiest);
        scanned = span;
        #[cfg(feature = "shadow")]
        assert_eq!(
            busiest,
            busiest_of(kern, &span, v, now, None),
            "shadow: busiest vCPU of level {level} for vCPU {}",
            v.0
        );
        let moved = match try_pull(kern, plat, v, busiest) {
            PullResult::Pulled => true,
            PullResult::Balanced => false,
            PullResult::NothingMovable(src) => active && maybe_active_balance(kern, plat, v, src),
        };
        if moved {
            return true;
        }
    }
    false
}

/// Periodic balance, run from the tick of vCPU `v` every
/// `balance_interval_ticks` ticks. Also performs a round of *nohz idle
/// balancing*: halted vCPUs cannot balance for themselves, so a busy vCPU
/// runs the pass on behalf of one idle vCPU (Linux's nohz balancer kick).
pub fn periodic_balance(kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
    if !pull_pass(kern, plat, v, true) {
        try_misfit(kern, plat, v);
    }
    // nohz idle balance on behalf of one idle vCPU, rotating with the tick.
    let nr = kern.nr_vcpus();
    let start = (kern.vcpus[v.0].tick_count as usize).wrapping_mul(3) % nr.max(1);
    let idle = CpuMask::first_n(nr).minus(kern.busy());
    let cand = idle.iter_from(start).find(|&c| c != v.0);
    if let Some(cand) = cand.map(VcpuId) {
        if !try_smt_spread(kern, plat, cand) {
            try_misfit(kern, plat, cand);
        }
    }
}

/// New-idle balance: called when vCPU `v` is about to go idle; pulls a task
/// from anywhere allowed (work conservation) or performs a misfit pull.
/// Returns true if work arrived.
pub fn newidle_balance(kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) -> bool {
    pull_pass(kern, plat, v, false) || try_smt_spread(kern, plat, v) || try_misfit(kern, plat, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::TestPlat;
    use crate::task::SpawnSpec;
    use simcore::SimTime;

    fn setup(nr: usize) -> (Kernel, TestPlat) {
        (Kernel::new(nr, SimTime::ZERO), TestPlat::new(nr))
    }

    /// Wakes `n` infinite tasks onto vCPU `v`; the first becomes current.
    fn load_vcpu(k: &mut Kernel, p: &mut TestPlat, v: usize, n: usize) -> Vec<TaskId> {
        let mut ids = Vec::new();
        for _ in 0..n {
            let t = k.spawn(SimTime::ZERO, SpawnSpec::normal(k.nr_vcpus()));
            k.wake_to(p, t, VcpuId(v), None);
            k.task_mut(t).remaining = 1e12;
            ids.push(t);
        }
        if k.vcpus[v].curr.is_none() {
            k.schedule(p, VcpuId(v));
        }
        ids
    }

    #[test]
    fn newidle_pulls_from_busy_queue() {
        let (mut k, mut p) = setup(2);
        load_vcpu(&mut k, &mut p, 0, 3);
        assert_eq!(k.vcpus[0].rq.len(), 2);
        p.now = SimTime::from_ms(1); // let queued tasks go cache-cold
        let pulled = newidle_balance(&mut k, &mut p, VcpuId(1));
        assert!(pulled);
        assert_eq!(k.vcpus[0].rq.len(), 1);
        assert_eq!(k.stats.balance_migrations.get(), 1);
    }

    #[test]
    fn no_pull_when_balanced() {
        let (mut k, mut p) = setup(2);
        load_vcpu(&mut k, &mut p, 0, 1);
        load_vcpu(&mut k, &mut p, 1, 1);
        // Both vCPUs run one task with empty queues: nothing to pull.
        assert!(!newidle_balance(&mut k, &mut p, VcpuId(1)));
        assert_eq!(k.stats.balance_migrations.get(), 0);
    }

    #[test]
    fn periodic_balance_evens_out_queues() {
        let (mut k, mut p) = setup(2);
        load_vcpu(&mut k, &mut p, 0, 4);
        load_vcpu(&mut k, &mut p, 1, 1);
        p.now = SimTime::from_ms(1); // let queued tasks go cache-cold
        periodic_balance(&mut k, &mut p, VcpuId(1));
        assert_eq!(k.vcpus[0].rq.len(), 2);
        assert_eq!(k.vcpus[1].rq.len(), 1);
    }

    #[test]
    fn misfit_moves_running_task_to_big_idle_vcpu() {
        let (mut k, mut p) = setup(2);
        k.asym_capacity = true; // probed asymmetry enables misfit balancing
        k.set_cap_override(VcpuId(0), Some(300.0));
        k.set_cap_override(VcpuId(1), Some(1024.0));
        let ids = load_vcpu(&mut k, &mut p, 0, 1);
        p.now = SimTime::from_ms(1); // past the cache-hot gate
                                     // PELT starts at 512 > 0.8 * 300 → misfit.
        assert!(newidle_balance(&mut k, &mut p, VcpuId(1)));
        assert!(matches!(
            k.task(ids[0]).state,
            TaskState::Runnable(VcpuId(1))
        ));
        assert_eq!(k.stats.active_migrations.get(), 1);
    }

    #[test]
    fn misfit_needs_capacity_advantage() {
        let (mut k, mut p) = setup(2);
        k.set_cap_override(VcpuId(0), Some(1000.0));
        k.set_cap_override(VcpuId(1), Some(1024.0));
        load_vcpu(&mut k, &mut p, 0, 1);
        // util 512 < 0.8*1000 → no misfit; also no queue → no pull.
        assert!(!newidle_balance(&mut k, &mut p, VcpuId(1)));
    }

    #[test]
    fn smt_spread_moves_work_off_a_doubled_core() {
        use crate::domains::PerceivedTopology;
        use crate::task::Policy;
        let (mut k, mut p) = setup(6);
        let pairs = [vec![0, 1], vec![2, 3], vec![4, 5]];
        k.install_topology(&PerceivedTopology::from_groups(6, &[], &pairs, &[]));
        // Core {0,1} runs a normal and a SCHED_IDLE task; core {2,3} runs
        // a normal task on each thread, so only core {2,3} is doubled.
        load_vcpu(&mut k, &mut p, 0, 1);
        let bg = k.spawn(SimTime::ZERO, SpawnSpec::normal(6).policy(Policy::Idle));
        k.wake_to(&mut p, bg, VcpuId(1), None);
        k.schedule(&mut p, VcpuId(1));
        let a = load_vcpu(&mut k, &mut p, 2, 1)[0];
        load_vcpu(&mut k, &mut p, 3, 1);
        // Nothing is queued, so no pull happens; vCPU 4's idle core takes
        // the lowest-numbered running task of the doubled core.
        assert!(newidle_balance(&mut k, &mut p, VcpuId(4)));
        assert_eq!(k.task(a).state, TaskState::Runnable(VcpuId(4)));
        assert_eq!(k.stats.active_migrations.get(), 1);
        // Now no core runs two normal tasks: vCPU 5 shares vCPU 4's busy
        // core, and no other idle core is left to spread to.
        assert!(!newidle_balance(&mut k, &mut p, VcpuId(5)));
        assert_eq!(k.stats.active_migrations.get(), 1);
    }

    #[test]
    fn cgroup_ban_blocks_pull() {
        let (mut k, mut p) = setup(2);
        load_vcpu(&mut k, &mut p, 0, 3);
        p.now = SimTime::from_ms(1);
        k.cgroup.ban(1);
        // Banned vCPU cannot receive tasks: placement mask excludes it.
        assert!(!newidle_balance(&mut k, &mut p, VcpuId(1)));
        assert_eq!(k.vcpus[0].rq.len(), 2);
    }

    #[test]
    fn affinity_blocks_pull() {
        let (mut k, mut p) = setup(2);
        let t = k.spawn(
            SimTime::ZERO,
            SpawnSpec::normal(2).affinity(crate::cpumask::CpuMask::single(0)),
        );
        let mut p2 = TestPlat::new(2);
        k.wake_to(&mut p2, t, VcpuId(0), None);
        let t2 = k.spawn(
            SimTime::ZERO,
            SpawnSpec::normal(2).affinity(crate::cpumask::CpuMask::single(0)),
        );
        k.wake_to(&mut p2, t2, VcpuId(0), None);
        k.schedule(&mut p2, VcpuId(0));
        assert!(!newidle_balance(&mut k, &mut p, VcpuId(1)));
    }
}
