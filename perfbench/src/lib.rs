//! The repository's benchmark, driven from outside the program.
//!
//! Three workloads call the repository's public API: [`host`] (one deep
//! hpvm machine), [`region`] (a 1000-host fleet) and [`suite`] (the
//! smoke-scale experiment suite). Untraced runs give the gated end-to-end
//! metrics. A traced run wraps the public seams between layers
//! ([`spans`]) to split wall time by layer. [`speed`] scales the gated
//! times to the reference machine's speed. [`stats`] and [`compare`]
//! turn repeated runs into medians, quartiles and verdicts.

pub mod compare;
pub mod host;
pub mod micro;
pub mod outcome;
pub mod region;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod suite;
