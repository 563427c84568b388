//! Host/hypervisor simulator.
//!
//! This crate is the *below-the-VM* half of the vSched reproduction: a
//! discrete-event model of a multi-socket SMT host running KVM-style VMs.
//! It produces, from first principles, every signal the paper's guest-side
//! machinery observes:
//!
//! * **vCPU activity** — per-thread weighted round-robin among vCPUs and
//!   host loads, plus CFS-bandwidth `(quota, period)` throttling, yields
//!   the active/inactive periods the paper controls with
//!   `cpu.cfs_quota_us` and the granularity sysctls;
//! * **steal time** — accounted while a vCPU is runnable-but-preempted or
//!   throttled, exposed to the guest as the paravirtual steal counter;
//! * **capacity** — DVFS frequency factors per core and an SMT-contention
//!   factor while a sibling thread is busy;
//! * **topology** — sockets/cores/threads with a cache-line transfer
//!   latency model calibrated to the paper's Figure 10b, which `vtop`
//!   measures through [`guestos::Platform::cacheline_latency_ns`].
//!
//! The [`machine::Machine`] owns the event loop; a [`scenario::VmSpec`]
//! describes one VM (size, pinning, weight, bandwidth), and
//! [`Machine::add_vm`] adds it to the machine.

pub mod domain;
pub mod faults;
pub mod llc;
pub mod machine;
pub mod scenario;
pub mod topology;

pub use domain::{DomainConfigError, DomainSchedule, DomainSlice};
pub use faults::{ChaosSpec, FaultPlan, InjectedFault};
pub use machine::{Ev, GVcpu, HostSched, HostState, Machine, ScriptAction, Vm};
pub use scenario::{Pinning, VmSpec};
pub use topology::HostSpec;
