//! The emit-site dispatch point.
//!
//! Every instrumented component (guest kernel, host machine, vSched hooks)
//! holds a [`TraceSink`]. The default is [`TraceSink::Off`]: emitting is a
//! single enum discriminant test on a stack-built `Copy` event — no
//! allocation, no side effects, bit-identical simulation results. When on,
//! the sink forwards into a [`Collector`] shared (single-threaded `Rc`)
//! between the host machine and every guest, each scoped with its VM index.

use crate::check::InvariantChecker;
use crate::event::{EventKind, TraceEvent};
use crate::latency::WakeLatency;
use crate::ring::RingBuffer;
use crate::schedstat::Schedstat;
use simcore::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Aggregation target behind an enabled sink. Each consumer is opt-in:
/// a collector builds only the state its reader asked for.
#[derive(Debug, Default)]
pub struct Collector {
    /// Bounded raw event log (for exporters), from [`Collector::with_ring`].
    pub ring: Option<RingBuffer>,
    /// Per-vCPU schedstat totals, from [`Collector::with_aggregates`].
    pub stats: Option<Schedstat>,
    /// Per-wakeup runqueue-delay breakdown (latency export), from
    /// [`Collector::with_aggregates`].
    pub wake_latency: Option<WakeLatency>,
    /// Online conservation-law checker, from [`Collector::with_checker`].
    pub checker: Option<InvariantChecker>,
}

impl Collector {
    /// A collector retaining up to `ring_cap` raw events.
    pub fn with_ring(ring_cap: usize) -> Self {
        Self {
            ring: Some(RingBuffer::new(ring_cap)),
            ..Self::default()
        }
    }

    /// Adds an invariant checker to this collector.
    pub fn with_checker(mut self) -> Self {
        self.checker = Some(InvariantChecker::new());
        self
    }

    /// Adds the schedstat and wake-latency aggregates to this collector.
    pub fn with_aggregates(mut self) -> Self {
        self.stats = Some(Schedstat::default());
        self.wake_latency = Some(WakeLatency::default());
        self
    }

    /// Routes one event to every attached consumer.
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(s) = &mut self.stats {
            s.observe(&ev);
        }
        if let Some(w) = &mut self.wake_latency {
            w.observe(&ev);
        }
        if let Some(c) = &mut self.checker {
            c.observe(&ev);
        }
        if let Some(r) = &mut self.ring {
            r.push(ev);
        }
    }
}

/// A handle to a shared collector.
pub type SharedCollector = Rc<RefCell<Collector>>;

/// Where a component sends its scheduler events.
#[derive(Debug, Clone, Default)]
pub enum TraceSink {
    /// Tracing disabled: `emit` is a branch and nothing else.
    #[default]
    Off,
    /// Tracing enabled; events are stamped with this component's VM scope.
    On {
        /// VM index stamped on events emitted through [`TraceSink::emit`].
        vm: u16,
        /// The shared aggregation target.
        shared: SharedCollector,
    },
}

impl TraceSink {
    /// Wraps a collector for sharing and returns a sink scoped to VM 0 plus
    /// the handle for exporting afterwards.
    pub fn shared(collector: Collector) -> (TraceSink, SharedCollector) {
        let shared = Rc::new(RefCell::new(collector));
        (
            TraceSink::On {
                vm: 0,
                shared: Rc::clone(&shared),
            },
            shared,
        )
    }

    /// A sink for VM `vm` feeding an existing collector.
    pub fn for_vm(shared: &SharedCollector, vm: u16) -> TraceSink {
        TraceSink::On {
            vm,
            shared: Rc::clone(shared),
        }
    }

    /// This sink re-scoped to another VM (same collector).
    pub fn scoped(&self, vm: u16) -> TraceSink {
        match self {
            TraceSink::Off => TraceSink::Off,
            TraceSink::On { shared, .. } => TraceSink::for_vm(shared, vm),
        }
    }

    /// Whether events are being collected.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, TraceSink::On { .. })
    }

    /// Emits an event stamped with this sink's VM scope.
    #[inline]
    pub fn emit(&self, at: SimTime, kind: EventKind) {
        if let TraceSink::On { vm, shared } = self {
            shared.borrow_mut().record(TraceEvent { at, vm: *vm, kind });
        }
    }

    /// Emits an event for an explicit VM (host-side emit points that span
    /// all VMs).
    #[inline]
    pub fn emit_vm(&self, at: SimTime, vm: u16, kind: EventKind) {
        if let TraceSink::On { shared, .. } = self {
            shared.borrow_mut().record(TraceEvent { at, vm, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_collects_nothing() {
        let sink = TraceSink::default();
        assert!(!sink.is_on());
        sink.emit(SimTime(1), EventKind::VcpuWake { vcpu: 0 });
        // Nothing observable: Off holds no state at all.
    }

    #[test]
    fn scoped_sinks_stamp_their_vm() {
        let (sink, shared) = TraceSink::shared(Collector::with_ring(8));
        sink.emit(SimTime(1), EventKind::VcpuWake { vcpu: 0 });
        sink.scoped(3)
            .emit(SimTime(2), EventKind::VcpuWake { vcpu: 1 });
        sink.emit_vm(SimTime(3), 7, EventKind::VcpuHalt { vcpu: 2 });
        let c = shared.borrow();
        let vms: Vec<u16> = c.ring.as_ref().unwrap().iter().map(|e| e.vm).collect();
        assert_eq!(vms, vec![0, 3, 7]);
    }
}
