//! vsched-repro — umbrella crate for the vSched (EuroSys '25) reproduction.
//!
//! This crate re-exports the workspace's public surface so examples and
//! integration tests can depend on a single crate. See `README.md` for the
//! architecture overview and `DESIGN.md` for the system inventory.

pub use experiments;
pub use guestos;
pub use hostsim;
pub use metrics;
pub use simcore;
pub use trace;
pub use vsched;
pub use workloads;

/// The README's code blocks, compiled as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// DESIGN.md's code blocks, compiled as doctests.
#[cfg(doctest)]
#[doc = include_str!("../DESIGN.md")]
pub struct DesignDoctests;
