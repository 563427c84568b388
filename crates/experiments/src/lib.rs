//! Experiment harness: one driver per table and figure of the vSched paper.
//!
//! Every module reproduces one piece of the paper's evaluation (§2.3 and
//! §5), or one beyond-the-paper scenario: it builds the scenario on the
//! simulated host and declares a [`runner::Grid`] — one independent cell
//! per scheduler configuration and knob, each returning one row of the
//! figure — whose reducer builds the typed figure from those rows; the
//! figure's `Display` prints the same rows/series the paper reports. The
//! `suite` binary runs every grid on the [`runner`]; the integration tests
//! read the same typed figures through [`runner::Grid::run`] and assert
//! the paper's *shape* claims (who wins, by roughly what factor).
//!
//! Durations honour the `VSCHED_SCALE` environment variable
//! (`smoke`/`quick`/`paper`); see [`common::Scale`].

pub mod adversary;
pub mod chaos;
pub mod common;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18_19;
pub mod fig20;
pub mod fig21;
pub mod fleet;
pub mod fleet_chaos;
pub mod profiles;
pub mod replay;
pub mod runner;
pub mod shrink;
pub mod supervise;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod vcache;

pub use common::{Mode, Scale};
