//! Per-wakeup runqueue-delay breakdown.
//!
//! Pairs every `TaskWake` with the `ContextSwitch` that first runs the
//! woken task and records the gap — the guest-visible runqueue delay — in
//! a per-vCPU log-bucketed histogram. This is the latency-breakdown
//! exporter the ROADMAP names: where `schedstat` says *how much* time a
//! vCPU spent where, this says *how long each individual wakeup waited*,
//! which is the quantity the paper's tail-latency figures ultimately
//! measure.
//!
//! A task migrated between wake and first run is charged to the vCPU that
//! finally ran it (the delay is the task's experience, not a vCPU's).
//! Re-wakes of a task already pending overwrite the earlier timestamp:
//! the earlier wake never materialized as a run, so it has no delay to
//! report.

use crate::event::{EventKind, TraceEvent};
use crate::table::VcpuTable;
use metrics::Histogram;
use simcore::SimTime;
use std::fmt::Write as _;

/// Streaming wake→first-run delay accumulator.
#[derive(Default)]
pub struct WakeLatency {
    /// Wakeups awaiting their first run, keyed by `(vm, task)`.
    pending: VcpuTable<SimTime>,
    /// Completed delays per `(vm, vcpu)`.
    per_vcpu: VcpuTable<Histogram>,
}

impl std::fmt::Debug for WakeLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeLatency")
            .field("pending", &self.pending.len())
            .field("pairs", &self.pairs())
            .finish()
    }
}

impl WakeLatency {
    /// Folds one event into the breakdown.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::TaskWake { task, .. } => {
                self.pending.insert(ev.vm, task as usize, ev.at);
            }
            EventKind::ContextSwitch {
                vcpu,
                next: Some(task),
                ..
            } => {
                if let Some(woke) = self.pending.remove(ev.vm, task as usize) {
                    self.per_vcpu
                        .get_or_default(ev.vm, usize::from(vcpu))
                        .record(ev.at.since(woke));
                }
            }
            _ => {}
        }
    }

    /// Number of completed wake→run pairs across all vCPUs.
    pub fn pairs(&self) -> u64 {
        self.per_vcpu.iter().map(|(_, _, h)| h.count()).sum()
    }

    /// The delay histogram of one vCPU, if it completed any wakeups.
    pub fn vcpu(&self, vm: u16, vcpu: u16) -> Option<&Histogram> {
        self.per_vcpu.get(vm, usize::from(vcpu))
    }

    /// Renders one line per vCPU alongside the schedstat dump: pair count,
    /// mean, and the p50/p95/p99 tail of the runqueue delay in ns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# wake-to-run runqueue delay (ns)");
        let _ = writeln!(out, "# cpu<vm>/<vcpu> pairs mean p50 p95 p99 max");
        for (vm, vcpu, h) in self.per_vcpu.iter() {
            let _ = writeln!(
                out,
                "cpu{vm}/{vcpu} {} {:.0} {} {} {} {}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max(),
            );
        }
        if self.per_vcpu.is_empty() {
            let _ = writeln!(out, "# (no completed wakeups)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            vm: 0,
            kind,
        }
    }

    fn wake(at: u64, task: u32, vcpu: u16) -> TraceEvent {
        ev(
            at,
            EventKind::TaskWake {
                task,
                vcpu,
                waker: None,
            },
        )
    }

    fn switch_in(at: u64, task: u32, vcpu: u16) -> TraceEvent {
        ev(
            at,
            EventKind::ContextSwitch {
                vcpu,
                prev: None,
                next: Some(task),
                reason: crate::event::SwitchReason::Pick,
                min_vruntime: 0,
            },
        )
    }

    #[test]
    fn pairs_wake_with_first_run() {
        let mut w = WakeLatency::default();
        w.observe(&wake(100, 7, 0));
        w.observe(&switch_in(350, 7, 0));
        assert_eq!(w.pairs(), 1);
        let h = w.vcpu(0, 0).unwrap();
        assert_eq!(h.max(), 250);
        // A later switch-in of the same task without a wake is a preemption
        // resume, not a wakeup: no new pair.
        w.observe(&switch_in(900, 7, 0));
        assert_eq!(w.pairs(), 1);
    }

    #[test]
    fn migration_charges_the_running_vcpu() {
        let mut w = WakeLatency::default();
        w.observe(&wake(0, 3, 1));
        // First run lands on vCPU 2 (wake-time placement moved it).
        w.observe(&switch_in(500, 3, 2));
        assert!(w.vcpu(0, 1).is_none());
        assert_eq!(w.vcpu(0, 2).unwrap().max(), 500);
    }

    #[test]
    fn rewake_overwrites_pending() {
        let mut w = WakeLatency::default();
        w.observe(&wake(0, 5, 0));
        w.observe(&wake(400, 5, 0));
        w.observe(&switch_in(500, 5, 0));
        assert_eq!(w.vcpu(0, 0).unwrap().max(), 100);
    }

    #[test]
    fn render_lists_per_vcpu_lines() {
        let mut w = WakeLatency::default();
        w.observe(&wake(0, 1, 0));
        w.observe(&switch_in(128, 1, 0));
        let text = w.render();
        assert!(text.contains("cpu0/0 1"), "{text}");
        let empty = WakeLatency::default().render();
        assert!(empty.contains("no completed wakeups"), "{empty}");
    }

    #[test]
    fn render_lists_vcpus_in_ascending_vm_vcpu_order() {
        let mut w = WakeLatency::default();
        for (i, (vm, vcpu)) in [(2, 1), (0, 3), (0, 0), (1, 0)].into_iter().enumerate() {
            let task = i as u32;
            for e in [wake(10, task, vcpu), switch_in(20, task, vcpu)] {
                w.observe(&TraceEvent { vm, ..e });
            }
        }
        assert_eq!(w.pairs(), 4);
        let text = w.render();
        let cpus: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("cpu"))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(cpus, ["cpu0/0", "cpu0/3", "cpu1/0", "cpu2/1"], "{text}");
    }
}
