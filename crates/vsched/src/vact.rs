//! `vact`: the vCPU activity prober (paper §3.1).
//!
//! Two mechanisms, both hypervisor-free:
//!
//! * **Heartbeat** — the scheduler-tick hook records a timestamp per tick on
//!   each vCPU. Ticks only fire while a vCPU actually executes, so a stale
//!   heartbeat on a vCPU that *has work* means the host preempted it. This
//!   yields a near-real-time state query without paravirtualization.
//! * **Steal-jump counting** — each tick compares the paravirtual steal
//!   counter against the previous tick; a jump above the noise filter means
//!   the vCPU was just rescheduled after a preemption. A per-vCPU preemption
//!   counter and the window's total steal give the *average inactive
//!   period*, exposed as the new abstraction the paper calls **vCPU
//!   latency**. Average active periods are derived the same way.

use crate::tunables::{VACT_STALE_TICKS, VACT_STEAL_JUMP_NS};
use guestos::kernel::TICK_NS;
use guestos::{Kernel, VcpuId};
use simcore::SimTime;

/// Heartbeat gap beyond which a vCPU's heartbeat is stale.
const STALE_NS: u64 = VACT_STALE_TICKS * TICK_NS;

/// Activity estimate for one vCPU, as bvs consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActState {
    /// Heartbeats are fresh; carries the time the vCPU has been active
    /// since its last observed resume (ns).
    Active {
        /// Time since the last inactive→active transition.
        for_ns: u64,
    },
    /// The vCPU has work but its heartbeat is stale: the host preempted it.
    /// Carries the time since the last heartbeat.
    Inactive {
        /// Time since the vCPU was last observed executing.
        for_ns: u64,
    },
    /// The vCPU is guest-idle (no work): staleness is not preemption.
    Idle,
}

/// Per-vCPU activity bookkeeping.
#[derive(Debug, Clone, Copy)]
struct VcpuAct {
    last_heartbeat: SimTime,
    last_steal: u64,
    /// When the current active stretch started (last steal jump or first
    /// heartbeat after staleness).
    active_since: SimTime,
    /// Preemptions observed in the current sampling window.
    window_preemptions: u64,
    /// Steal accumulated in the current sampling window (ns).
    window_steal: u64,
    /// Active time accumulated in the current sampling window (ns).
    window_active: u64,
    /// Heartbeats seen in the current sampling window.
    window_ticks: u64,
    last_window_end_steal: u64,
    /// Published vCPU latency: average inactive period (ns).
    latency_ns: u64,
    /// Published average active period (ns).
    active_period_ns: u64,
}

/// The activity prober.
pub struct Vact {
    per_vcpu: Vec<VcpuAct>,
    /// Median of published vCPU latencies.
    pub median_latency_ns: u64,
}

impl Vact {
    /// Creates the prober for `nr_vcpus` vCPUs.
    pub fn new(nr_vcpus: usize, now: SimTime) -> Self {
        Self {
            per_vcpu: vec![
                VcpuAct {
                    last_heartbeat: now,
                    last_steal: 0,
                    active_since: now,
                    window_preemptions: 0,
                    window_steal: 0,
                    window_active: 0,
                    window_ticks: 0,
                    last_window_end_steal: 0,
                    latency_ns: 0,
                    active_period_ns: 0,
                };
                nr_vcpus
            ],
            median_latency_ns: 0,
        }
    }

    /// Scheduler-tick instrumentation: heartbeat + steal-jump detection.
    pub fn on_tick(&mut self, v: VcpuId, now: SimTime, steal_ns: u64) {
        let a = &mut self.per_vcpu[v.0];
        let gap = now.since(a.last_heartbeat);
        let steal_delta = steal_ns.saturating_sub(a.last_steal);
        if steal_delta >= VACT_STEAL_JUMP_NS {
            // The vCPU was preempted and has just been rescheduled.
            a.window_preemptions += 1;
            a.window_steal += steal_delta;
            a.active_since = now;
        } else if gap > STALE_NS {
            // Heartbeat resumed after guest-idle: a fresh active stretch,
            // but not a preemption.
            a.active_since = now;
        } else {
            a.window_active += gap;
        }
        a.last_steal = steal_ns;
        a.last_heartbeat = now;
        a.window_ticks += 1;
    }

    /// State query (the paper's new kernel function). `has_work` and
    /// `queue steal` come from the kernel/platform; staleness without work
    /// is idleness, not preemption.
    pub fn state(&self, v: VcpuId, now: SimTime, has_work: bool) -> ActState {
        let a = &self.per_vcpu[v.0];
        let gap = now.since(a.last_heartbeat);
        if gap > STALE_NS {
            if has_work {
                ActState::Inactive { for_ns: gap }
            } else {
                ActState::Idle
            }
        } else {
            ActState::Active {
                for_ns: now.since(a.active_since),
            }
        }
    }

    /// Published vCPU latency (average inactive period) of a vCPU.
    pub fn latency_ns(&self, v: VcpuId) -> u64 {
        self.per_vcpu[v.0].latency_ns
    }

    /// Published average active period of a vCPU.
    pub fn active_period_ns(&self, v: VcpuId) -> u64 {
        self.per_vcpu[v.0].active_period_ns
    }

    /// Closes a sampling window (called at the end of each vcap period):
    /// publishes latency = window steal / preemptions, refreshes the median.
    pub fn close_window(&mut self, kern: &Kernel, now: SimTime) {
        let _ = (kern, now);
        for a in self.per_vcpu.iter_mut() {
            if let Some(lat) = a.window_steal.checked_div(a.window_preemptions) {
                a.latency_ns = lat;
                a.active_period_ns = a.window_active / a.window_preemptions.max(1);
            } else if a.last_steal == a.last_window_end_steal && a.window_ticks >= 10 {
                // The vCPU demonstrably executed through the window without
                // any steal: it is currently dedicated. A window without
                // heartbeats carries no information and keeps the estimate.
                a.latency_ns = 0;
                a.active_period_ns = u64::MAX;
            }
            // Windows with steal but no detected jump also keep the
            // previous estimate (the vCPU may have been inactive the whole
            // window).
            a.last_window_end_steal = a.last_steal;
            a.window_preemptions = 0;
            a.window_steal = 0;
            a.window_active = 0;
            a.window_ticks = 0;
        }
        let mut lats: Vec<u64> = self.per_vcpu.iter().map(|a| a.latency_ns).collect();
        lats.sort_unstable();
        // Lower middle: with a half/half latency split the median must fall
        // in the *low-latency* class so bvs's `lat <= median` test selects
        // it.
        self.median_latency_ns = lats[(lats.len() - 1) / 2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::MS;

    fn mk(n: usize) -> (Vact, Kernel) {
        (Vact::new(n, SimTime::ZERO), Kernel::new(n, SimTime::ZERO))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn fresh_heartbeat_reports_active() {
        let (mut vact, _k) = mk(1);
        vact.on_tick(VcpuId(0), t(1), 0);
        vact.on_tick(VcpuId(0), t(2), 0);
        match vact.state(VcpuId(0), t(3), true) {
            ActState::Active { .. } => {}
            other => panic!("expected Active, got {other:?}"),
        }
    }

    #[test]
    fn stale_heartbeat_with_work_is_inactive() {
        let (mut vact, _k) = mk(1);
        vact.on_tick(VcpuId(0), t(1), 0);
        match vact.state(VcpuId(0), t(20), true) {
            ActState::Inactive { for_ns } => assert_eq!(for_ns, 19 * MS),
            other => panic!("expected Inactive, got {other:?}"),
        }
    }

    #[test]
    fn stale_heartbeat_without_work_is_idle() {
        let (mut vact, _k) = mk(1);
        vact.on_tick(VcpuId(0), t(1), 0);
        assert_eq!(vact.state(VcpuId(0), t(20), false), ActState::Idle);
    }

    #[test]
    fn steal_jumps_count_preemptions_and_set_latency() {
        let (mut vact, k) = mk(1);
        // Pattern: 5 ms active, then a 5 ms steal jump, repeated 5 times.
        let mut steal = 0u64;
        let mut clock = 0u64;
        for _ in 0..5 {
            for _ in 0..5 {
                clock += 1;
                vact.on_tick(VcpuId(0), t(clock), steal);
            }
            steal += 5 * MS;
            clock += 6; // the vCPU was off-core; next tick arrives late
            vact.on_tick(VcpuId(0), t(clock), steal);
        }
        vact.close_window(&k, t(clock));
        let lat = vact.latency_ns(VcpuId(0));
        assert_eq!(lat, 5 * MS, "latency {lat}");
        assert!(vact.active_period_ns(VcpuId(0)) >= 4 * MS);
    }

    #[test]
    fn small_steal_jumps_are_filtered() {
        let (mut vact, k) = mk(1);
        let mut steal = 0u64;
        for i in 1..=100u64 {
            steal += 100_000; // 0.1 ms per tick: under the 0.3 ms filter
            vact.on_tick(VcpuId(0), t(i), steal);
        }
        vact.close_window(&k, t(100));
        // Window had steal but no qualified jumps: previous (zero… but
        // steal changed) estimate is kept — latency stays at initial 0 and
        // no preemptions were counted.
        assert_eq!(vact.latency_ns(VcpuId(0)), 0);
    }

    #[test]
    fn dedicated_vcpu_publishes_zero_latency() {
        let (mut vact, k) = mk(1);
        for i in 1..=50u64 {
            vact.on_tick(VcpuId(0), t(i), 0);
        }
        vact.close_window(&k, t(50));
        assert_eq!(vact.latency_ns(VcpuId(0)), 0);
        assert_eq!(vact.active_period_ns(VcpuId(0)), u64::MAX);
    }

    #[test]
    fn median_latency_is_published() {
        let (mut vact, k) = mk(3);
        let mut clock = 0;
        // vCPU 0: dedicated. vCPU 1: 2 ms inactive periods. vCPU 2: 8 ms.
        for round in 0..10 {
            clock = round * 20 + 1;
            vact.on_tick(VcpuId(0), t(clock), 0);
            vact.on_tick(VcpuId(1), t(clock), (round + 1) * 2 * MS);
            vact.on_tick(VcpuId(2), t(clock), (round + 1) * 8 * MS);
        }
        vact.close_window(&k, t(clock));
        assert_eq!(vact.latency_ns(VcpuId(1)), 2 * MS);
        assert_eq!(vact.latency_ns(VcpuId(2)), 8 * MS);
        assert_eq!(vact.median_latency_ns, 2 * MS);
    }

    #[test]
    fn active_since_resets_on_preemption() {
        let (mut vact, _k) = mk(1);
        vact.on_tick(VcpuId(0), t(1), 0);
        vact.on_tick(VcpuId(0), t(2), 0);
        // Preemption: big steal jump at t=10.
        vact.on_tick(VcpuId(0), t(10), 5 * MS);
        match vact.state(VcpuId(0), t(11), true) {
            ActState::Active { for_ns } => assert_eq!(for_ns, MS),
            other => panic!("expected Active, got {other:?}"),
        }
    }
}
