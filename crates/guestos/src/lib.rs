//! Guest OS scheduler substrate.
//!
//! This crate implements the *inside-the-VM* half of the vSched reproduction:
//! a faithful model of the Linux Completely Fair Scheduler (CFS) operating on
//! vCPUs, with every mechanism the paper's techniques hook into:
//!
//! * per-vCPU runqueues ordered by virtual runtime, with the standard
//!   nice-to-weight table and the `SCHED_IDLE` policy ([`runqueue`],
//!   [`weight`], [`task`]);
//! * per-entity load tracking (PELT) for task-size classification
//!   ([`pelt`]);
//! * hierarchical schedule domains built from the *perceived* topology —
//!   flat/UMA by default, exactly the inaccurate abstraction the paper
//!   diagnoses, rebuildable at runtime from probed topology ([`domains`]);
//! * wake-up CPU selection and periodic/idle load balancing, including
//!   misfit (active-balance) migration ([`select`], [`balance`]);
//! * a cgroup-cpuset-like mechanism for hiding vCPUs from task placement
//!   ([`cgroup`]), which `rwc` drives;
//! * extension points mirroring the paper's BPF hooks ([`hooks::SchedHooks`])
//!   through which `vsched` installs `bvs` and `ivh` without replacing the
//!   scheduling class.
//!
//! The hypervisor below is abstracted as [`platform::Platform`]; the
//! `hostsim` crate provides the production implementation. Workload logic
//! plugs in through [`workload::Workload`].

pub mod balance;
pub mod cgroup;
pub mod cpumask;
pub mod domains;
pub mod hooks;
pub mod kernel;
pub mod pelt;
pub mod platform;
pub mod runqueue;
pub mod select;
pub mod stats;
pub mod task;
pub mod weight;
pub mod workload;

pub use cgroup::CpuAllow;
pub use cpumask::CpuMask;
pub use domains::{DomainTree, PerceivedTopology};
pub use hooks::SchedHooks;
pub use kernel::{GuestOs, Kernel, MigrateKind, VcpuId};
pub use pelt::Pelt;
pub use platform::{CommDistance, Platform, RunDelta};
pub use stats::KernelStats;
pub use task::{Policy, SpawnSpec, Task, TaskId, TaskProgram, TaskState};
pub use workload::{TaskAction, Workload};
