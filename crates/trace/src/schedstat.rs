//! Linux-style plain-text schedstat export.
//!
//! Aggregates per-vCPU counters from the event stream — independent of the
//! bounded ring, so the numbers cover the whole run even when raw events
//! were dropped — and renders them as one line per vCPU, mirroring the
//! shape of `/proc/schedstat`.

use crate::event::{EventKind, TraceEvent};
use crate::table::VcpuTable;
use simcore::SimTime;
use std::fmt::Write as _;

/// Per-vCPU running totals.
#[derive(Debug, Default, Clone)]
struct VcpuStat {
    run_ns: u64,
    steal_ns: u64,
    switches: u64,
    wakes: u64,
    migrations_in: u64,
    ipis: u64,
    running_since: Option<SimTime>,
}

/// The schedstat accumulator: cheap counters, built by a collector that
/// asks for them ([`crate::Collector::with_aggregates`]).
#[derive(Debug, Default)]
pub struct Schedstat {
    per_vcpu: VcpuTable<VcpuStat>,
    last_event: SimTime,
}

impl Schedstat {
    fn stat(&mut self, vm: u16, vcpu: u16) -> &mut VcpuStat {
        self.per_vcpu.get_or_default(vm, usize::from(vcpu))
    }

    /// Folds one event into the totals.
    pub fn observe(&mut self, ev: &TraceEvent) {
        if ev.at > self.last_event {
            self.last_event = ev.at;
        }
        match ev.kind {
            EventKind::VcpuResume { vcpu, .. } => {
                self.stat(ev.vm, vcpu).running_since = Some(ev.at);
            }
            EventKind::VcpuPreempt { vcpu, .. } => {
                let at = ev.at;
                let s = self.stat(ev.vm, vcpu);
                if let Some(since) = s.running_since.take() {
                    s.run_ns += at.since(since);
                }
            }
            EventKind::StealAccrue { vcpu, delta_ns } => {
                self.stat(ev.vm, vcpu).steal_ns += delta_ns;
            }
            EventKind::ContextSwitch {
                vcpu,
                next: Some(_),
                ..
            } => {
                self.stat(ev.vm, vcpu).switches += 1;
            }
            EventKind::TaskWake { vcpu, .. } => {
                self.stat(ev.vm, vcpu).wakes += 1;
            }
            EventKind::TaskMigrate { to, .. } => {
                self.stat(ev.vm, to).migrations_in += 1;
            }
            EventKind::ReschedIpi { to, .. } => {
                self.stat(ev.vm, to).ipis += 1;
            }
            _ => {}
        }
    }

    /// Renders the totals at `now` (idle time is derived as
    /// `wall − run − steal`).
    pub fn render(&self, now: SimTime) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "version 1 (vsched-trace)");
        let _ = writeln!(out, "timestamp_ns {}", now.ns());
        let _ = writeln!(
            out,
            "# cpu<vm>/<vcpu> run_ns steal_ns idle_ns switches wakes migrations_in resched_ipis"
        );
        for (vm, vcpu, s) in self.per_vcpu.iter() {
            // A vCPU still on-core at render time: charge the open segment.
            let run = s.run_ns + s.running_since.map(|since| now.since(since)).unwrap_or(0);
            let idle = now.ns().saturating_sub(run + s.steal_ns);
            let _ = writeln!(
                out,
                "cpu{vm}/{vcpu} {run} {} {idle} {} {} {} {}",
                s.steal_ns, s.switches, s.wakes, s.migrations_in, s.ipis
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PreemptReason;

    fn ev(at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            vm: 0,
            kind,
        }
    }

    #[test]
    fn run_steal_idle_partition_wall_time() {
        let mut s = Schedstat::default();
        s.observe(&ev(0, EventKind::VcpuResume { vcpu: 0, thread: 0 }));
        s.observe(&ev(
            600,
            EventKind::VcpuPreempt {
                vcpu: 0,
                reason: PreemptReason::Preempt,
            },
        ));
        s.observe(&ev(
            900,
            EventKind::StealAccrue {
                vcpu: 0,
                delta_ns: 300,
            },
        ));
        let text = s.render(SimTime(1000));
        let line = text
            .lines()
            .find(|l| l.starts_with("cpu0/0"))
            .expect("cpu line");
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[1], "600", "run: {line}");
        assert_eq!(fields[2], "300", "steal: {line}");
        assert_eq!(fields[3], "100", "idle: {line}");
    }

    #[test]
    fn counters_tally() {
        let mut s = Schedstat::default();
        s.observe(&ev(
            1,
            EventKind::TaskWake {
                task: 5,
                vcpu: 2,
                waker: None,
            },
        ));
        s.observe(&ev(
            2,
            EventKind::ContextSwitch {
                vcpu: 2,
                prev: None,
                next: Some(5),
                reason: crate::event::SwitchReason::Pick,
                min_vruntime: 0,
            },
        ));
        s.observe(&ev(3, EventKind::ReschedIpi { from: None, to: 2 }));
        let text = s.render(SimTime(10));
        assert!(text.contains("cpu0/2 0 0 10 1 1 0 1"), "{text}");
    }

    #[test]
    fn render_lists_vcpus_in_ascending_vm_vcpu_order() {
        let mut s = Schedstat::default();
        for (vm, vcpu) in [(2, 1), (0, 3), (0, 0), (1, 0)] {
            s.observe(&TraceEvent {
                at: SimTime(1),
                vm,
                kind: EventKind::ReschedIpi {
                    from: None,
                    to: vcpu,
                },
            });
        }
        let text = s.render(SimTime(10));
        let cpus: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("cpu"))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(cpus, ["cpu0/0", "cpu0/3", "cpu1/0", "cpu2/1"], "{text}");
    }
}
