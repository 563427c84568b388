//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate every other layer of the vSched reproduction
//! stands on. It provides:
//!
//! * [`SimTime`] — simulated time as integer nanoseconds with convenience
//!   constructors ([`time::MS`], [`time::SEC`], …).
//! * [`EventQueue`] — a total-order event heap generic over the event
//!   payload; ties are broken by insertion sequence so simulations are
//!   deterministic and independent of heap internals.
//! * [`SimRng`] — a self-contained xoshiro256++ PRNG with the distributions
//!   the workload generators need (exponential, lognormal-ish, uniform).
//! * [`Integrator`] — a piecewise-constant-rate work integrator, the
//!   mechanism by which tasks accrue work only while their vCPU is actually
//!   running on a physical core (the paper's central observable).
//! * [`propcheck`] — a minimal deterministic property-test harness used by
//!   the workspace's randomized test suites (no external deps).
//! * [`json`] — a tiny exact-integer JSON reader/writer for on-disk
//!   artifacts (checkpoint manifests, failure reports, chaos repro plans),
//!   with a path-carrying field reader for decoding them.
//! * [`plan`] — the seeded `{seed, spec, events}` plan envelope every
//!   repro-file type shares: subset surgery, rendering, and the codec.
//!
//! The engine is single-threaded by design: determinism is a feature, every
//! experiment is exactly reproducible from its seed.

pub mod event;
pub mod integrator;
pub mod json;
pub mod plan;
pub mod propcheck;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use integrator::Integrator;
pub use rng::SimRng;
pub use time::SimTime;
