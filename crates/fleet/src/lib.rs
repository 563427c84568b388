//! Deterministic multi-host cluster simulation.
//!
//! The paper evaluates vSched on a single host, but its premise — the
//! guest must *probe* its vCPU abstraction because the cloud keeps
//! changing it — bites hardest under fleet dynamics: VMs arriving,
//! departing, and resizing while placement policies overcommit hosts.
//! This crate layers that on the existing stack:
//!
//! * [`cluster`] — a [`Cluster`] owning N [`hostsim::Machine`]s stepped in
//!   lockstep on the virtual clock ([`hostsim::Machine::run_until`]),
//!   sharded across a scoped worker pool with a join barrier at every
//!   epoch and placement event ([`threads`] resolves the worker count;
//!   output is byte-identical at any count).
//! * [`lifecycle`] — a seed-driven open-loop arrival/departure/resize
//!   process (Poisson-style interarrivals, bounded lognormal lifetimes,
//!   heavy-tailed size mix) plus its [`FleetSpec`] config.
//! * [`placement`] — pluggable policies behind [`PlacementPolicy`]:
//!   first-fit, worst-fit (load-balanced on nominal counts), and a
//!   probe-aware policy packing by *probed* vcap capacity. Every decision
//!   emits `trace` events so the invariant checker can assert no host
//!   exceeds its overcommit cap and every admitted VM is placed at most
//!   once.
//! * [`slo`] — fleet-wide tenant accounting on `metrics`: per-tenant
//!   p50/p99 latency from `workloads::latency` guests, host-utilization
//!   sampling, and a fairness/violation summary.
//!
//! Everything is deterministic in `(FleetSpec, seed)`: the same pair
//! replays the same churn schedule, placements, and latency histograms
//! byte-for-byte, which is what lets the experiment suite shard fleet
//! cells across workers.
//!
//! On top of the stochastic churn sits trace-driven replay:
//!
//! * [`trace_format`] — the compact versioned [`FleetTrace`] JSONL format
//!   (line-precise validation, exact-u64 round-trip).
//! * [`generate`](mod@generate) — SAP-shaped workload [`Profile`]s:
//!   diurnal sinusoid arrivals × Pareto/lognormal lifetime mix ×
//!   priority tiers × bursty resize storms, all a pure function of
//!   `(profile, seed)`.
//! * [`replay`] — compiles a trace into a [`FleetSpec`] whose churn is
//!   the trace verbatim, so every policy × guest mode runs the same day.

pub mod chaos;
pub mod cluster;
pub mod generate;
pub mod lifecycle;
pub mod placement;
mod pstep;
pub mod replay;
pub mod slo;
pub mod threads;
pub mod trace_format;

pub use chaos::{FleetChaosPlan, FleetChaosSpec, HostFault, HostOp, MigrationMode, HOST_OPS};
pub use cluster::{Cluster, GuestMode};
pub use generate::{day_seed, profile_by_name, synthesize, Profile, PROFILES};
pub use lifecycle::{generate, ChurnModel, FleetSpec, LifecycleEvent, VmOp};
pub use placement::{
    policy_by_name, CacheAware, FirstFit, HostView, PlacementPolicy, PlacementReq, ProbeAware,
    WorstFit, POLICIES,
};
pub use replay::spec_for_trace;
pub use slo::{SloSummary, TenantStats};
pub use threads::{default_fleet_threads, parse_fleet_threads};
pub use trace_format::{FleetTrace, TraceError, FORMAT_TAG, FORMAT_VERSION};
