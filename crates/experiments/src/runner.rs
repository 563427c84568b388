//! Deterministic parallel experiment runner.
//!
//! Every figure and table in this crate is a reduction over independent
//! *cells* — one (benchmark, mode, knob) simulation each — that share no
//! state beyond the seed. Each experiment module declares its cell grid as
//! a [`Job`] and assembles its typed result in exactly one place, its
//! `from_parts`. This module shards the whole suite into those cells, runs
//! them on a `std::thread::scope` worker pool, and merges the parts back
//! in declaration order; [`job_parts`] runs one job's cells serially for
//! callers (tests) that want the typed figure rather than its rendering.
//!
//! # Determinism
//!
//! Results are bit-identical to the serial path and independent of worker
//! count or completion order, by construction:
//!
//! * Every cell's RNG seed is a stable hash of `(figure id, cell label,
//!   base seed)` — see [`cell_seed`]. Nothing about scheduling feeds the
//!   seed, so a cell computes the same result no matter when or where it
//!   runs. The `--jobs 1` path is the serial baseline the parallel path
//!   must match.
//! * Each cell builds its own `Machine`; the simulator is single-threaded
//!   per cell and shares nothing mutable across cells.
//! * Parts are merged by cell index, not completion order, and each
//!   figure's reduction is a pure function of its parts.

use crate::checkpoint::{Checkpoint, CkptKey};
use crate::common::Scale;
use crate::fig18_19::ProfileKind;
use crate::supervise::{self, CellFailure, FailureReport, SupervisePolicy};
use crate::{
    adversary, chaos, fig02, fig03, fig04, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17,
    fig18_19, fig20, fig21, fleet_chaos, replay, table2, table3, table4, vcache,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One cell's result, typed per figure and merged by the figure's reducer.
pub type Part = Box<dyn Any + Send>;

/// One independent unit of work: a single simulation.
pub struct CellSpec {
    /// Stable identity within the figure; feeds [`cell_seed`].
    pub label: String,
    /// Per-cell wall-clock budget; overrides the suite-wide deadline.
    pub deadline: Option<Duration>,
    run: Box<dyn Fn(u64, Scale) -> Part + Send + Sync>,
}

impl CellSpec {
    /// Runs the cell's closure (the supervisor wraps this in
    /// `catch_unwind` and timing).
    pub(crate) fn execute(&self, seed: u64, scale: Scale) -> Part {
        (self.run)(seed, scale)
    }

    /// Gives this cell its own wall-clock budget.
    pub(crate) fn with_deadline(mut self, budget: Duration) -> CellSpec {
        self.deadline = Some(budget);
        self
    }
}

/// One figure or table: a set of cells plus the reduction that turns their
/// parts into the figure's rendered output.
pub struct Job {
    /// Figure id (`fig02` … `table4`); feeds [`cell_seed`] and `--filter`.
    pub name: &'static str,
    /// One-line description (`suite --list`).
    pub desc: &'static str,
    /// The cells, in merge order.
    pub cells: Vec<CellSpec>,
    /// Renders the parts; each figure's is `FigXX::from_parts(..).to_string()`.
    pub(crate) reduce: Box<dyn Fn(Vec<Part>, Scale) -> String + Send + Sync>,
}

/// Builds a cell around a typed closure.
pub(crate) fn cell<T, F>(label: impl Into<String>, f: F) -> CellSpec
where
    T: Any + Send,
    F: Fn(u64, Scale) -> T + Send + Sync + 'static,
{
    CellSpec {
        label: label.into(),
        deadline: None,
        run: Box::new(move |seed, scale| Box::new(f(seed, scale)) as Part),
    }
}

/// Downcasts one part back to its cell's concrete type.
pub(crate) fn got<T: Any>(p: Part) -> T {
    *p.downcast::<T>()
        .expect("cell part carries the cell's type")
}

/// Stable per-cell seed: FNV-1a over `(figure, label)` finalized with the
/// base seed through a splitmix64 mix. Depends only on the cell's identity,
/// never on scheduling, worker count, or completion order.
pub fn cell_seed(base: u64, figure: &str, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in figure
        .bytes()
        .chain(std::iter::once(0xff))
        .chain(label.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The supervision canary: a job whose cells fail on purpose. Never in
/// [`registry`] — `run_suite` appends it only when
/// [`SuiteOptions::canary`] is set (the `VSCHED_CANARY` env gate in the
/// binary), so CI can assert that a panicking cell and an over-deadline
/// cell are isolated, reported, and leave every real job's bytes alone.
fn canary_job() -> Job {
    let cells = vec![
        cell("healthy", |seed, _: Scale| seed),
        cell("panic", |_, _: Scale| -> u64 {
            panic!("canary: injected panic")
        }),
        cell("deadline", |_, _: Scale| -> u64 {
            std::thread::sleep(Duration::from_millis(120));
            0
        })
        .with_deadline(Duration::from_millis(10)),
    ];
    Job {
        name: "canary",
        desc: "always-failing supervision canary (VSCHED_CANARY=1 only)",
        cells,
        reduce: Box::new(|parts, _| {
            // Unreachable in practice: the panic cell always fails the job
            // before reduction. Kept total so a future "healthy canary"
            // variant still renders.
            let sum: u64 = parts.into_iter().map(got::<u64>).sum();
            format!("canary merged (sum {sum})")
        }),
    }
}

/// All jobs in suite output order.
pub fn registry() -> Vec<Job> {
    vec![
        fig02::job(),
        fig03::job(),
        fig04::job(),
        fig10::job(),
        fig11::job(),
        fig12::job(),
        fig13::job(),
        fig14::job(),
        fig15::job(),
        fig16::job(),
        fig17::job(),
        fig18_19::job(
            "fig18",
            "overall improvement with vSched on the resource-constrained VM",
            ProfileKind::Rcvm,
        ),
        fig18_19::job(
            "fig19",
            "overall improvement with vSched on the high-performance VM",
            ProfileKind::Hpvm,
        ),
        fig20::job(),
        fig21::job(),
        table2::job(),
        table3::job(),
        table4::job(),
        chaos::job(),
        adversary::job(),
        crate::fleet::job(),
        replay::job(),
        fleet_chaos::job(),
        vcache::job(),
    ]
}

/// Runs one registry job's cells serially at their runner seeds — the
/// `--jobs 1` path, without supervision — and returns the parts in cell
/// order, ready for the figure's `from_parts`.
///
/// # Panics
///
/// If `id` names no registry job.
pub fn job_parts(id: &str, seed: u64, scale: Scale) -> Vec<Part> {
    let job = registry()
        .into_iter()
        .find(|j| j.name == id)
        .unwrap_or_else(|| panic!("no suite job named {id}"));
    job.cells
        .iter()
        .map(|c| c.execute(cell_seed(seed, job.name, &c.label), scale))
        .collect()
}

/// How to run the suite.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Worker threads; `0` sizes the pool by `available_parallelism`.
    pub jobs: usize,
    /// Filter on job names: comma-separated substrings, any match keeps
    /// the job (`None` = all).
    pub filter: Option<String>,
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed mixed into every cell seed.
    pub seed: u64,
    /// Retry/deadline policy for supervised cells.
    pub supervise: SupervisePolicy,
    /// Checkpoint directory (`None` = no checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// Replay finished jobs from the checkpoint instead of re-running.
    pub resume: bool,
    /// Append the always-failing canary job (CI supervision smoke).
    pub canary: bool,
    /// Host-stepping workers for the fleet cells' clusters
    /// (`--fleet-threads`); `None` keeps the fleet crate's process
    /// default (available parallelism). Worker count never changes cell
    /// output — only wall clock — so it stays out of the checkpoint key.
    pub fleet_threads: Option<std::num::NonZeroUsize>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            jobs: 0,
            filter: None,
            scale: Scale::Quick,
            seed: 42,
            supervise: SupervisePolicy::default(),
            checkpoint: None,
            resume: false,
            canary: false,
            fleet_threads: None,
        }
    }
}

impl SuiteOptions {
    /// The checkpoint key this run writes/reads.
    fn ckpt_key(&self) -> CkptKey {
        CkptKey {
            version: CkptKey::current_version(),
            seed: self.seed,
            scale: self.scale.label().to_string(),
            filter: self.filter.clone().unwrap_or_default(),
        }
    }
}

/// `--filter` matched nothing: refuse to silently run zero cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError {
    /// The filter as given.
    pub filter: String,
    /// Every valid figure id, in suite order.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for FilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--filter '{}' matches no suite job; valid figure ids: {}",
            self.filter,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for FilterError {}

/// One job's merged output plus its summed cell compute time.
#[derive(Debug)]
pub struct JobReport {
    /// Job name.
    pub name: &'static str,
    /// Number of cells the job sharded into.
    pub cells: usize,
    /// The figure's rendered output (empty when the job failed).
    pub output: String,
    /// Total cell compute (CPU) seconds, summed across workers.
    pub cpu_secs: f64,
    /// Whether every cell merged and the figure rendered.
    pub ok: bool,
    /// Whether the output was replayed from a checkpoint.
    pub from_checkpoint: bool,
}

/// The whole suite's outcome.
#[derive(Debug)]
pub struct SuiteResult {
    /// Per-job reports, in registry order.
    pub reports: Vec<JobReport>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Cells that exhausted their retries, in (job, cell) order.
    pub failures: FailureReport,
    /// Cells actually executed this run (replayed jobs contribute none).
    pub executed_cells: usize,
    /// Jobs replayed byte-for-byte from the checkpoint.
    pub resumed_jobs: usize,
    /// Operational notes (checkpoint discards, I/O degradations); never
    /// part of figure output.
    pub notes: Vec<String>,
}

/// Resolves `--jobs 0` to the machine's parallelism.
pub fn resolve_workers(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Whether a job name passes a comma-separated substring filter.
fn filter_matches(name: &str, filter: Option<&str>) -> bool {
    match filter {
        None => true,
        Some(f) => f
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .any(|p| name.contains(p)),
    }
}

/// Runs every registry job whose name matches the filter, under
/// supervision. A filter that selects nothing is an error (listing the
/// valid ids) rather than a silently empty run.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteResult, FilterError> {
    if let Some(n) = opts.fleet_threads {
        // Cells reach their clusters through `Cluster::new`, which reads
        // the fleet crate's process-wide default.
        ::fleet::set_default_fleet_threads(Some(n));
    }
    let all = registry();
    let valid: Vec<&'static str> = all.iter().map(|j| j.name).collect();
    let mut jobs: Vec<Job> = all
        .into_iter()
        .filter(|j| filter_matches(j.name, opts.filter.as_deref()))
        .collect();
    if jobs.is_empty() {
        return Err(FilterError {
            filter: opts.filter.clone().unwrap_or_default(),
            valid,
        });
    }
    if opts.canary {
        // Appended after filtering: the canary rides along with whatever
        // real jobs run, and its absence never changes their output.
        jobs.push(canary_job());
    }
    Ok(run_jobs(jobs, opts))
}

struct Item {
    job: usize,
    cell: usize,
    seed: u64,
}

/// Per-job completion state shared by the worker pool.
struct JobState {
    /// Cells not yet finished (success or exhausted failure). The worker
    /// that decrements this to zero owns the job's reduction.
    remaining: AtomicUsize,
    /// Set when any cell exhausts its retries: the job skips reduction.
    failed: AtomicBool,
    /// One slot per cell, filled in any order, drained in cell order.
    slots: Vec<Mutex<Option<(Part, f64)>>>,
    /// The reduced output and summed cell CPU seconds, once complete.
    output: Mutex<Option<(String, f64)>>,
}

fn run_jobs(jobs: Vec<Job>, opts: &SuiteOptions) -> SuiteResult {
    let t0 = Instant::now();
    let workers = resolve_workers(opts.jobs);
    let mut notes: Vec<String> = Vec::new();

    // Checkpoint plumbing: open (or resume) the directory up front, and
    // collect the jobs we can replay without executing. I/O trouble
    // degrades to an un-checkpointed run with a note, never a crash.
    let mut replay: BTreeMap<usize, String> = BTreeMap::new();
    let ckpt: Option<Mutex<Checkpoint>> = match &opts.checkpoint {
        None => None,
        Some(dir) => {
            let key = opts.ckpt_key();
            let opened = if opts.resume {
                Checkpoint::resume(dir, key).map(|(ck, note)| {
                    notes.extend(note);
                    for (ji, job) in jobs.iter().enumerate() {
                        if let Some(out) = ck.load(job.name) {
                            replay.insert(ji, out);
                        }
                    }
                    ck
                })
            } else {
                Checkpoint::create(dir, key)
            };
            match opened {
                Ok(ck) => Some(Mutex::new(ck)),
                Err(e) => {
                    notes.push(format!(
                        "checkpoint dir {} unusable ({e}); running without checkpoints",
                        dir.display()
                    ));
                    None
                }
            }
        }
    };
    let resumed_jobs = replay.len();

    // Flatten into a work list, skipping replayed jobs; seeds are
    // precomputed from cell identity so nothing downstream depends on
    // which worker runs what.
    let items: Vec<Item> = jobs
        .iter()
        .enumerate()
        .filter(|(ji, _)| !replay.contains_key(ji))
        .flat_map(|(ji, j)| {
            j.cells.iter().enumerate().map(move |(ci, c)| Item {
                job: ji,
                cell: ci,
                seed: cell_seed(opts.seed, j.name, &c.label),
            })
        })
        .collect();

    let states: Vec<JobState> = jobs
        .iter()
        .map(|j| JobState {
            remaining: AtomicUsize::new(j.cells.len()),
            failed: AtomicBool::new(false),
            slots: j.cells.iter().map(|_| Mutex::new(None)).collect(),
            output: Mutex::new(None),
        })
        .collect();
    let failures: Mutex<Vec<(usize, usize, CellFailure)>> = Mutex::new(Vec::new());
    let late_notes: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let cursor = AtomicUsize::new(0);
    let n_threads = workers.min(items.len()).max(1);
    std::thread::scope(|s| {
        for _ in 0..n_threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let it = &items[i];
                let job = &jobs[it.job];
                let st = &states[it.job];
                match supervise::run_cell(
                    job.name,
                    &job.cells[it.cell],
                    it.seed,
                    opts.scale,
                    &opts.supervise,
                ) {
                    Ok(filled) => *st.slots[it.cell].lock().unwrap() = Some(filled),
                    Err(cf) => {
                        st.failed.store(true, Ordering::Release);
                        failures.lock().unwrap().push((it.job, it.cell, cf));
                    }
                }
                // The worker finishing a job's last cell merges it at once:
                // the reduced output reaches the checkpoint while the rest
                // of the suite is still running.
                if st.remaining.fetch_sub(1, Ordering::AcqRel) == 1
                    && !st.failed.load(Ordering::Acquire)
                {
                    let mut parts = Vec::with_capacity(st.slots.len());
                    let mut cpu = 0.0f64;
                    for slot in &st.slots {
                        let (part, secs) = slot
                            .lock()
                            .unwrap()
                            .take()
                            .expect("job complete and unfailed: every slot filled");
                        parts.push(part);
                        cpu += secs;
                    }
                    // A reducer panic (type confusion, arithmetic) fails
                    // its job, not the suite.
                    match panic::catch_unwind(AssertUnwindSafe(|| (job.reduce)(parts, opts.scale)))
                    {
                        Ok(out) => {
                            if let Some(ck) = &ckpt {
                                if let Err(e) = ck.lock().unwrap().record(job.name, &out) {
                                    late_notes
                                        .lock()
                                        .unwrap()
                                        .push(format!("checkpointing {} failed: {e}", job.name));
                                }
                            }
                            *st.output.lock().unwrap() = Some((out, cpu));
                        }
                        Err(_) => {
                            st.failed.store(true, Ordering::Release);
                            late_notes
                                .lock()
                                .unwrap()
                                .push(format!("{}: reducer panicked; job failed", job.name));
                        }
                    }
                }
            });
        }
    });

    let executed_cells = items.len();
    notes.extend(late_notes.into_inner().unwrap());
    let mut failed = failures.into_inner().unwrap();
    failed.sort_by_key(|&(ji, ci, _)| (ji, ci));

    let mut reports = Vec::new();
    for ((ji, job), st) in jobs.iter().enumerate().zip(states) {
        let cells = job.cells.len();
        let report = if let Some(output) = replay.remove(&ji) {
            JobReport {
                name: job.name,
                cells,
                output,
                cpu_secs: 0.0,
                ok: true,
                from_checkpoint: true,
            }
        } else if let Some((output, cpu_secs)) = st.output.into_inner().unwrap() {
            JobReport {
                name: job.name,
                cells,
                output,
                cpu_secs,
                ok: true,
                from_checkpoint: false,
            }
        } else {
            // Failed job: surviving cells still count toward CPU time.
            let cpu_secs = st
                .slots
                .iter()
                .filter_map(|s| s.lock().unwrap().take())
                .map(|(_, secs)| secs)
                .sum();
            JobReport {
                name: job.name,
                cells,
                output: String::new(),
                cpu_secs,
                ok: false,
                from_checkpoint: false,
            }
        };
        reports.push(report);
    }
    SuiteResult {
        reports,
        workers: n_threads,
        wall_secs: t0.elapsed().as_secs_f64(),
        failures: FailureReport {
            failures: failed.into_iter().map(|(_, _, cf)| cf).collect(),
        },
        executed_cells,
        resumed_jobs,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_stable_and_distinct() {
        let a = cell_seed(42, "fig02", "silo/be=false/lat=2");
        assert_eq!(a, cell_seed(42, "fig02", "silo/be=false/lat=2"));
        assert_ne!(a, cell_seed(42, "fig02", "silo/be=false/lat=4"));
        assert_ne!(a, cell_seed(42, "fig03", "silo/be=false/lat=2"));
        assert_ne!(a, cell_seed(43, "fig02", "silo/be=false/lat=2"));
    }

    #[test]
    fn registry_covers_the_full_suite() {
        let names: Vec<&str> = registry().iter().map(|j| j.name).collect();
        assert_eq!(names.len(), 24);
        for want in [
            "fig02",
            "fig15",
            "fig18",
            "fig19",
            "table2",
            "table4",
            "chaos",
            "adversary",
            "fleet",
            "fleet-replay",
            "fleet-chaos",
            "vcache",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
        // Every job decomposes into at least two independent cells except
        // none — sharding is the whole point — and carries a one-line
        // description for `suite --list`.
        for j in registry() {
            assert!(j.cells.len() >= 2, "{} has {} cells", j.name, j.cells.len());
            assert!(
                !j.desc.is_empty() && !j.desc.contains('\n'),
                "{} needs a one-line description",
                j.name
            );
        }
    }

    #[test]
    fn zero_match_filter_is_an_error_listing_valid_ids() {
        let err = run_suite(&SuiteOptions {
            filter: Some("fig99".into()),
            ..SuiteOptions::default()
        })
        .unwrap_err();
        assert_eq!(err.filter, "fig99");
        assert_eq!(err.valid.len(), 24);
        assert!(err.valid.contains(&"fig03"));
        let msg = err.to_string();
        assert!(msg.contains("fig99") && msg.contains("fig03") && msg.contains("table4"));
    }

    #[test]
    fn filter_is_comma_separated_any_match() {
        assert!(filter_matches("fig03", Some("fig03,table2")));
        assert!(filter_matches("table2", Some("fig03,table2")));
        assert!(!filter_matches("fig04", Some("fig03,table2")));
        assert!(filter_matches("fig04", Some(" fig04 , ")));
        assert!(filter_matches("anything", None));
    }

    #[test]
    fn canary_never_sits_in_the_registry() {
        assert!(registry().iter().all(|j| j.name != "canary"));
        let c = canary_job();
        assert_eq!(c.cells.len(), 3);
        assert!(c.cells[2].deadline.is_some(), "deadline cell has a budget");
    }

    #[test]
    fn labels_are_unique_within_a_job() {
        for j in registry() {
            let mut labels: Vec<&str> = j.cells.iter().map(|c| c.label.as_str()).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(before, labels.len(), "duplicate cell label in {}", j.name);
        }
    }
}
