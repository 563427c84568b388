//! Deterministic scheduler tracing for the vSched reproduction.
//!
//! The simulator's figures all hinge on *scheduling events* — preemptions,
//! steal accrual, migrations, ivh pulls — but aggregate counters can't show
//! why a run behaved the way it did. This crate is the observability layer:
//!
//! * [`TraceEvent`]/[`EventKind`] — typed, `SimTime`-stamped events covering
//!   both levels of the two-level scheduling stack (host vCPU scheduling and
//!   guest task scheduling).
//! * [`TraceSink`] — the emit-site dispatch enum. [`TraceSink::Off`] (the
//!   default) makes every emit a branch over a stack value: no allocation,
//!   no behavioural change, bit-identical results.
//! * [`RingBuffer`] — bounded raw event retention with drop counting.
//! * [`chrome::chrome_trace`] — Chrome trace-event JSON (Perfetto-loadable).
//! * [`schedstat::Schedstat`] — Linux-style plain-text per-vCPU totals.
//! * [`InvariantChecker`] — a streaming conservation-law checker; the tier-1
//!   figure tests attach it and assert zero violations.
//!
//! Wiring lives in the instrumented crates: `guestos` (switches, wakes,
//! migrations, IPIs, charges), `hostsim` (resume/preempt/steal/throttle),
//! and `vsched` (bvs decisions, ivh pull lifecycle, prober samples).

pub mod check;
pub mod chrome;
pub mod event;
pub mod latency;
pub mod ring;
pub mod schedstat;
pub mod sink;
mod table;

pub use check::{CheckReport, InvariantChecker, Violation, ViolationKind};
pub use chrome::chrome_trace;
pub use event::{
    DegradeReason, EventKind, FaultClass, HostFailKind, IvhPhase, MigrateKind, PreemptReason,
    PriorityClass, ProbeKind, SwitchReason, TraceEvent, PRIORITY_CLASSES,
};
pub use latency::WakeLatency;
pub use ring::RingBuffer;
pub use schedstat::Schedstat;
pub use sink::{Collector, SharedCollector, TraceSink};
