//! `bvs`: biased vCPU selection (paper §3.2).
//!
//! Matches *small latency-sensitive tasks* (identified by PELT utilization
//! plus the user-space latency hint) with vCPUs where they experience
//! minimal extended runqueue latency, following the Figure 8 heuristic:
//!
//! 1. Prefer vCPUs with at least median capacity (avoid runqueue
//!    saturation).
//! 2. Empty runqueue → require low vCPU latency. The paper also asks for
//!    prolonged idleness (a long-idle low-latency vCPU wakes quickly);
//!    this implementation accepts any idle duration.
//! 3. Runqueue holding only `SCHED_IDLE` tasks → consult the vCPU state:
//!    a *recently active* vCPU is ideal (the task starts immediately and
//!    finishes within the remaining active period — the "blue path");
//!    a *long-inactive* low-latency vCPU is acceptable (it will be
//!    rescheduled soon).
//!
//! A first-fit policy returns the first acceptable vCPU so the search stays
//! cheap; when nothing qualifies the caller falls back to the CFS
//! heuristic. Because the search is not limited to the preferred LLC
//! domain, bvs can search more aggressively than `select_idle_sibling`.
//!
//! # Cache-aware selection (the vcache extension)
//!
//! When the vcache prober is running and holds a fresh pressure estimate,
//! bvs switches from first-fit to a two-phase pick: collect every vCPU
//! that passes the Figure 8 qualification, then among the qualifiers whose
//! LLC domain's pressure is within [`CACHE_PICK_MARGIN`] of the
//! best published pressure, take the one with the most vcap headroom. A
//! small latency-sensitive task lands on a socket whose cache is *not*
//! being thrashed — its working set stays resident, so it actually runs at
//! the low latency the activity check promised. Without a fresh estimate
//! (prober cold, estimates stale) the pick degrades to the stock first-fit
//! byte-for-byte.

use crate::tunables::BVS_SMALL_TASK_UTIL;
use crate::vact::{ActState, Vact};
use crate::vcache::Vcache;
use crate::vcap::Vcap;
use guestos::{Kernel, Platform, TaskId, VcpuId};
use trace::check::CACHE_PICK_MARGIN;
use trace::EventKind;

/// Statistics bvs keeps about its own decisions.
#[derive(Debug, Default, Clone, Copy)]
pub struct BvsStats {
    /// Wakeups bvs placed.
    pub placed: u64,
    /// Wakeups that fell through to CFS.
    pub fallback: u64,
    /// Placements taken via the recently-active sched_idle path.
    pub blue_path: u64,
    /// Placements steered by a fresh LLC pressure estimate (cache-aware
    /// mode only).
    pub cache_picks: u64,
}

/// Why a vCPU passed the Figure 8 qualification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Qualified {
    /// Via the empty-runqueue, sched_idle-occupancy, or long-inactive path.
    Plain,
    /// Via the recently-active sched_idle path (the blue path of Figure 8).
    BluePath,
}

/// The Figure 8 per-vCPU qualification: `Some` when the vCPU is an
/// acceptable home for a small latency-sensitive task right now.
fn qualify(
    kern: &Kernel,
    vact: &Vact,
    now: simcore::SimTime,
    vid: VcpuId,
    median_cap: f64,
    median_lat: u64,
    state_check: bool,
) -> Option<Qualified> {
    // High capacity first: prevent runqueue saturation. 10% headroom
    // keeps measurement noise from excluding half the symmetric vCPUs.
    if kern.capacity_of(vid, now) < 0.9 * median_cap {
        return None;
    }
    let lat = vact.latency_ns(vid);
    let d = &kern.vcpus[vid.0];
    if d.curr.is_none() && d.rq.is_empty() {
        // Empty runqueue: low latency (any idle duration qualifies).
        return (lat <= median_lat).then_some(Qualified::Plain);
    }
    // Occupied only by best-effort tasks?
    let curr_is_idle_policy = d
        .curr
        .map(|c| kern.task(c).policy.is_idle())
        .unwrap_or(true);
    let only_idle = curr_is_idle_policy && d.rq.nr_normal == 0;
    if !only_idle {
        return None;
    }
    if !state_check {
        // Ablation: pick on latency alone (Table 3's
        // "bvs (no state check)" column).
        return (lat <= median_lat).then_some(Qualified::Plain);
    }
    match vact.state(vid, now, true) {
        ActState::Active { for_ns } => {
            // Recently become active with sched_idle tasks: the task
            // can start immediately and finish within the remaining
            // active period (the blue path of Figure 8).
            let avg_active = vact.active_period_ns(vid);
            (avg_active == u64::MAX || for_ns < avg_active / 2).then_some(Qualified::BluePath)
        }
        ActState::Inactive { for_ns } => {
            // Long-inactive and low-latency: likely active again soon.
            (lat <= median_lat && for_ns >= lat / 2).then_some(Qualified::Plain)
        }
        ActState::Idle => None,
    }
}

/// Decides a wake-up placement for a small latency-sensitive task.
///
/// Returns `None` when the task does not qualify or no acceptable vCPU is
/// found (CFS fallback). Pass `vcache` to enable cache-aware selection;
/// `None` reproduces the paper's first-fit exactly.
#[allow(clippy::too_many_arguments)]
pub fn select(
    kern: &mut Kernel,
    plat: &mut dyn Platform,
    vact: &Vact,
    vcap: &Vcap,
    vcache: Option<&Vcache>,
    stats: &mut BvsStats,
    t: TaskId,
    state_check: bool,
) -> Option<VcpuId> {
    let task = kern.task(t);
    if !task.latency_sensitive || task.pelt.util() > BVS_SMALL_TASK_UTIL {
        return None;
    }
    let now = plat.now();
    let allowed = kern.placement_mask(t);
    let median_cap = vcap.median_cap;
    let median_lat = vact.median_latency_ns.max(1);
    let cache = vcache.and_then(|vc| vc.best_pressure(now).map(|best| (vc, best)));

    // First-fit starting from the task's previous vCPU: quick, and wakes
    // of distinct tasks spread instead of piling onto vCPU 0.
    let start = kern.task(t).last_vcpu.0;

    let Some((vc, best)) = cache else {
        // Stock vSched (or a cold/stale cache abstraction): the paper's
        // first-fit, returning the first qualifier.
        for v in allowed.iter_from(start) {
            let vid = VcpuId(v);
            if let Some(q) = qualify(kern, vact, now, vid, median_cap, median_lat, state_check) {
                stats.placed += 1;
                if q == Qualified::BluePath {
                    stats.blue_path += 1;
                }
                return Some(vid);
            }
        }
        stats.fallback += 1;
        return None;
    };

    // Cache-aware: collect every qualifier, then prefer qualifiers on an
    // un-thrashed LLC domain, breaking ties by vcap headroom.
    let mut candidates: Vec<(VcpuId, Qualified)> = Vec::new();
    for v in allowed.iter_from(start) {
        let vid = VcpuId(v);
        if let Some(q) = qualify(kern, vact, now, vid, median_cap, median_lat, state_check) {
            candidates.push((vid, q));
        }
    }
    if candidates.is_empty() {
        stats.fallback += 1;
        return None;
    }
    let mut pick: Option<(VcpuId, Qualified, f64, f64)> = None;
    for &(vid, q) in &candidates {
        let Some(p) = vc.pressure_of(vid, now) else {
            continue;
        };
        if p > best + CACHE_PICK_MARGIN {
            continue;
        }
        let headroom = kern.capacity_of(vid, now);
        if pick.is_none_or(|(_, _, _, h)| headroom > h) {
            pick = Some((vid, q, p, headroom));
        }
    }
    let (vid, q, pressure) = match pick {
        Some((vid, q, p, _)) => (vid, q, p),
        // No qualifier had a fresh domain estimate: behave like first-fit.
        None => {
            let (vid, q) = candidates[0];
            stats.placed += 1;
            if q == Qualified::BluePath {
                stats.blue_path += 1;
            }
            return Some(vid);
        }
    };
    stats.placed += 1;
    stats.cache_picks += 1;
    if q == Qualified::BluePath {
        stats.blue_path += 1;
    }
    kern.trace.emit(
        now,
        EventKind::CacheAwarePick {
            task: t.0,
            chosen: vid.0 as u16,
            domain: vc.domain(vid) as u16,
            pressure,
            best_pressure: best,
        },
    );
    Some(vid)
}
