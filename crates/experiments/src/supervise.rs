//! Per-cell panic isolation.
//!
//! The suite runner shards the paper's evaluation into 506 independent
//! cells. Without isolation, one panicking cell would abort the whole run
//! and discard every finished result. Every cell (and every job's
//! reduction) therefore executes under [`std::panic::catch_unwind`]: a
//! panic is caught, its message captured, and the worker thread survives
//! to run the next cell. A process-wide quiet hook keeps isolated panics
//! from spraying backtraces over the suite's stderr; the final failure
//! report carries the message instead.
//!
//! Cells are deterministic — a cell's seed is a pure function of its
//! identity — so a failed cell is reported, never retried: a rerun would
//! panic again. Its job is marked failed, and every other job merges and
//! renders exactly as in a clean run.

use crate::runner::{CellCtx, CellSpec};
use std::cell::Cell as StdCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Instant;

/// One cell, or one job's reduction, that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Owning figure/table id.
    pub figure: String,
    /// Cell label within the figure; `reduce` for the job's reducer.
    pub label: String,
    /// The cell's seed (the suite's base seed for a reducer).
    pub seed: u64,
    /// The panic payload's message.
    pub message: String,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} seed={}: panic: {}",
            self.figure, self.label, self.seed, self.message
        )
    }
}

/// The failure report a run prints to stderr when cells die.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Every failed cell and reducer, in (job, cell) order.
    pub failures: Vec<CellFailure>,
}

impl FailureReport {
    /// Whether every cell survived.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# {} cell(s) FAILED under supervision:",
            self.failures.len()
        )?;
        for cf in &self.failures {
            writeln!(f, "#   FAILED {cf}")?;
        }
        Ok(())
    }
}

thread_local! {
    /// Set while this thread runs isolated code: the quiet panic hook
    /// swallows the default backtrace print for it.
    static QUIET_PANICS: StdCell<bool> = const { StdCell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for
/// isolated code and delegates to the previous hook for every other
/// panic — test harness failures still print normally.
fn install_quiet_panic_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` under `catch_unwind` with the quiet hook: its value, or the
/// message it panicked with.
pub(crate) fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    outcome.map_err(panic_message)
}

/// Runs one cell in isolation: the cell's row and its compute seconds, or
/// the typed failure.
pub fn run_cell<R>(
    figure: &str,
    cell: &CellSpec<R>,
    ctx: &CellCtx,
) -> Result<(R, f64), CellFailure> {
    let t0 = Instant::now();
    isolate(|| cell.execute(ctx))
        .map(|row| (row, t0.elapsed().as_secs_f64()))
        .map_err(|message| CellFailure {
            figure: figure.to_string(),
            label: cell.label.clone(),
            seed: ctx.seed,
            message,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;
    use crate::runner::Grid;

    /// A one-cell grid around `f`, labelled `label`.
    fn grid(label: &str, f: fn(&CellCtx) -> u64) -> Grid<u64, ()> {
        let mut g = Grid::new("figX", "one cell", |_, _| ());
        g.cell(label, f);
        g
    }

    #[test]
    fn healthy_cell_passes_through() {
        let g = grid("ok", |ctx| ctx.seed * 2);
        let (row, _) = run_cell("figX", &g.cells[0], &CellCtx::new(21, Scale::Smoke)).unwrap();
        assert_eq!(row, 42);
    }

    #[test]
    fn panicking_cell_is_contained_and_typed() {
        let g = grid("boom", |_| panic!("injected failure"));
        let err = run_cell("figX", &g.cells[0], &CellCtx::new(7, Scale::Smoke)).unwrap_err();
        assert_eq!(err.figure, "figX");
        assert_eq!(err.label, "boom");
        assert_eq!(err.seed, 7);
        assert!(err.message.contains("injected failure"), "{err}");
    }

    #[test]
    fn failure_report_names_figure_cell_and_message() {
        let rep = FailureReport {
            failures: vec![CellFailure {
                figure: "canary".into(),
                label: "panic".into(),
                seed: 3,
                message: "boom".into(),
            }],
        };
        assert_eq!(
            rep.to_string(),
            "# 1 cell(s) FAILED under supervision:\n\
             #   FAILED canary/panic seed=3: panic: boom\n"
        );
    }
}
