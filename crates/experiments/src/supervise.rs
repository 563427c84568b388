//! Supervised cell execution: panic isolation, deadlines, retries.
//!
//! The suite runner shards the paper's evaluation into 506 independent
//! cells. Before this layer, one panicking or runaway cell aborted the
//! whole run and discarded every finished result. Supervision gives each
//! cell the failure domain it deserves — exactly one cell:
//!
//! * **Panic isolation** — every cell executes under
//!   [`std::panic::catch_unwind`]; a panic is caught, its message captured,
//!   and the worker thread survives to run the next cell. A process-wide
//!   quiet hook keeps retried panics from spraying backtraces over the
//!   suite's stderr (the final failure report carries the message instead).
//! * **Deadlines** — each attempt is timed against a wall-clock budget
//!   (per-cell override, else the suite-wide default). Cells run
//!   synchronously on the worker, so a deadline is *detected at attempt
//!   completion*, not enforced preemptively: a cell that returns late is
//!   treated as failed, never merged, and retried like a panic. This keeps
//!   the simulator single-threaded per cell — determinism is worth more
//!   than a hard kill.
//! * **Retries with capped exponential backoff** — environmental failures
//!   (memory pressure, a loaded CI host blowing a deadline) deserve another
//!   attempt; the cell's seed never changes across attempts, so a retry
//!   that succeeds produces exactly the bytes a clean run would have.
//!
//! A cell that exhausts its retries becomes a typed [`CellFailure`] in the
//! suite's failure report; its job is marked failed but every other job
//! merges and renders exactly as in a clean run.

use crate::common::Scale;
use crate::runner::CellSpec;
use simcore::json::Json;
use std::cell::Cell as StdCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Retry/deadline policy for one suite run.
#[derive(Debug, Clone)]
pub struct SupervisePolicy {
    /// Additional attempts after the first failed one.
    pub retries: u32,
    /// Suite-wide per-attempt wall-clock budget (`None` = unlimited).
    /// A cell's own [`CellSpec::deadline`] overrides this.
    pub deadline: Option<Duration>,
    /// First backoff sleep; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            retries: 2,
            deadline: None,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

impl SupervisePolicy {
    /// The sleep before retry number `attempt` (1-based): capped
    /// exponential, `base * 2^(attempt-1)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap)
    }
}

/// Why a cell's final attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The cell panicked; the payload message is preserved.
    Panic(String),
    /// The attempt finished after its wall-clock budget.
    Deadline {
        /// Budget the attempt was given.
        budget_ms: u64,
        /// What it actually took.
        elapsed_ms: u64,
    },
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::Deadline {
                budget_ms,
                elapsed_ms,
            } => write!(f, "deadline: {elapsed_ms}ms > budget {budget_ms}ms"),
        }
    }
}

/// One cell that exhausted its retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Owning figure/table id.
    pub figure: String,
    /// Cell label within the figure.
    pub label: String,
    /// The cell's (unchanged across attempts) seed.
    pub seed: u64,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// The final attempt's failure.
    pub cause: FailureCause,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} seed={} after {} attempt{}: {}",
            self.figure,
            self.label,
            self.seed,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.cause
        )
    }
}

impl CellFailure {
    /// JSON object for the machine-readable failure report.
    pub fn to_json(&self) -> Json {
        let (kind, detail) = match &self.cause {
            FailureCause::Panic(msg) => ("panic", Json::Str(msg.clone())),
            FailureCause::Deadline {
                budget_ms,
                elapsed_ms,
            } => (
                "deadline",
                Json::obj([
                    ("budget_ms", Json::Uint(*budget_ms)),
                    ("elapsed_ms", Json::Uint(*elapsed_ms)),
                ]),
            ),
        };
        Json::obj([
            ("figure", self.figure.as_str().into()),
            ("label", self.label.as_str().into()),
            ("seed", Json::Uint(self.seed)),
            ("attempts", Json::Uint(self.attempts as u64)),
            ("cause", kind.into()),
            ("detail", detail),
        ])
    }
}

/// The structured failure report a supervised run emits when cells die.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Every cell that exhausted its retries, in (job, cell) order.
    pub failures: Vec<CellFailure>,
}

impl FailureReport {
    /// Whether every cell survived.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Machine-readable rendering (written next to the checkpoint).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("failed_cells", Json::Uint(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| f.to_json()).collect()),
            ),
        ])
        .render()
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
    /// Set while this thread runs a supervised cell attempt: the quiet
    /// panic hook swallows the default backtrace print for it.
    static QUIET_PANICS: StdCell<bool> = const { StdCell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for
/// supervised cell attempts and delegates to the previous hook for every
/// other panic — test harness failures still print normally.
pub fn install_quiet_panic_hook() {
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

/// Runs one cell under supervision. On success returns the cell's row and
/// the *successful attempt's* compute seconds (failed attempts don't
/// pollute the per-job CPU accounting); on exhaustion returns the typed
/// failure.
pub fn run_cell<R>(
    figure: &str,
    cell: &CellSpec<R>,
    seed: u64,
    scale: Scale,
    policy: &SupervisePolicy,
) -> Result<(R, f64), CellFailure> {
    install_quiet_panic_hook();
    let budget = cell.deadline.or(policy.deadline);
    let mut last_cause = None;
    for attempt in 1..=policy.retries + 1 {
        if attempt > 1 {
            std::thread::sleep(policy.backoff(attempt - 1));
        }
        let t0 = Instant::now();
        QUIET_PANICS.with(|q| q.set(true));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| cell.execute(seed, scale)));
        QUIET_PANICS.with(|q| q.set(false));
        let elapsed = t0.elapsed();
        match outcome {
            Ok(row) => {
                if let Some(b) = budget {
                    if elapsed > b {
                        last_cause = Some(FailureCause::Deadline {
                            budget_ms: b.as_millis() as u64,
                            elapsed_ms: elapsed.as_millis() as u64,
                        });
                        continue;
                    }
                }
                return Ok((row, elapsed.as_secs_f64()));
            }
            Err(payload) => {
                last_cause = Some(FailureCause::Panic(panic_message(payload)));
            }
        }
    }
    Err(CellFailure {
        figure: figure.to_string(),
        label: cell.label.clone(),
        seed,
        attempts: policy.retries + 1,
        cause: last_cause.expect("at least one attempt ran"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::cell;

    fn policy(retries: u32, deadline_ms: Option<u64>) -> SupervisePolicy {
        SupervisePolicy {
            retries,
            deadline: deadline_ms.map(Duration::from_millis),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    #[test]
    fn healthy_cell_passes_through() {
        let c = cell("ok", |seed, _| seed * 2);
        let (row, _) = run_cell("figX", &c, 21, Scale::Smoke, &policy(0, None)).unwrap();
        assert_eq!(row, 42);
    }

    #[test]
    fn panicking_cell_is_contained_and_typed() {
        let c = cell("boom", |_, _: Scale| -> u64 { panic!("injected failure") });
        let err = run_cell("figX", &c, 7, Scale::Smoke, &policy(2, None)).unwrap_err();
        assert_eq!(err.attempts, 3);
        assert_eq!(err.figure, "figX");
        assert_eq!(err.label, "boom");
        assert_eq!(err.seed, 7);
        match &err.cause {
            FailureCause::Panic(msg) => assert!(msg.contains("injected failure")),
            other => panic!("wrong cause: {other:?}"),
        }
    }

    #[test]
    fn flaky_cell_recovers_on_retry_with_same_seed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let c = cell("flaky", |seed, _: Scale| {
            if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt dies");
            }
            seed
        });
        let (row, _) = run_cell("figX", &c, 99, Scale::Smoke, &policy(1, None)).unwrap();
        // The retry saw the identical seed: determinism preserved.
        assert_eq!(row, 99);
        assert_eq!(CALLS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn over_deadline_cell_is_a_typed_failure() {
        let c = cell("slow", |_, _: Scale| {
            std::thread::sleep(Duration::from_millis(30));
            0u64
        });
        let err = run_cell("figX", &c, 1, Scale::Smoke, &policy(1, Some(5))).unwrap_err();
        match &err.cause {
            FailureCause::Deadline {
                budget_ms,
                elapsed_ms,
            } => {
                assert_eq!(*budget_ms, 5);
                assert!(*elapsed_ms >= 30, "elapsed {elapsed_ms}ms");
            }
            other => panic!("wrong cause: {other:?}"),
        }
    }

    #[test]
    fn per_cell_deadline_overrides_policy() {
        let mut c = cell("slow", |_, _: Scale| {
            std::thread::sleep(Duration::from_millis(20));
            0u64
        });
        c.deadline = Some(Duration::from_secs(30));
        // Policy deadline of 1ms would fail it; the cell override wins.
        assert!(run_cell("figX", &c, 1, Scale::Smoke, &policy(0, Some(1))).is_ok());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = SupervisePolicy {
            retries: 10,
            deadline: None,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(70)); // capped
        assert_eq!(p.backoff(10), Duration::from_millis(70));
    }

    #[test]
    fn failure_report_renders_both_ways() {
        let rep = FailureReport {
            failures: vec![CellFailure {
                figure: "canary".into(),
                label: "panic".into(),
                seed: 3,
                attempts: 2,
                cause: FailureCause::Panic("boom \"quoted\"".into()),
            }],
        };
        let text = rep.to_string();
        assert!(text.contains("canary/panic"));
        let json = Json::parse(&rep.to_json()).unwrap();
        assert_eq!(json.get("failed_cells").unwrap().as_u64(), Some(1));
        let f = &json.get("failures").unwrap().as_arr().unwrap()[0];
        assert_eq!(f.get("cause").unwrap().as_str(), Some("panic"));
        assert_eq!(f.get("detail").unwrap().as_str(), Some("boom \"quoted\""));
    }
}
