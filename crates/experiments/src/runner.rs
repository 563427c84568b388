//! Deterministic parallel experiment runner.
//!
//! Every figure and table in this crate is a reduction over independent
//! *cells* — one (benchmark, mode, knob) simulation each — that share no
//! state beyond the seed. Each experiment module declares its cells once,
//! as a typed [`Grid`]: every cell returns one row of the figure (carrying
//! its key fields), and the grid's reducer turns the rows into the typed
//! figure whose `Display` is the published output. This module shards the
//! whole suite into those cells, runs them on a `std::thread::scope`
//! worker pool, and hands each job's rows back to its reducer in
//! declaration order. [`Grid::run`] runs one grid's cells serially for
//! callers (tests) that want the typed figure rather than its rendering.
//!
//! # The cell context
//!
//! A cell is a `Fn(&CellCtx) -> R`. The [`CellCtx`] carries what the run
//! hands a cell — seed, scale, the stepping-worker count for its clusters
//! — and builds every machine (`ctx.machine(host)`) and cluster
//! (`ctx.cluster(spec, mode, policy)`) the cell runs. The suite's contexts are
//! untraced, so nothing is attached. A [traced](CellCtx::traced) context
//! gives each machine its own checked collector, which lets one test
//! trace and law-check every job of the [`registry`] through this path.
//!
//! The pool holds jobs of different row types side by side, so [`Job`]
//! erases a grid's row type; rows cross the pool as `Box<dyn Any>` and are
//! downcast back in exactly one place, the grid's own reduction here.
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
//! * Each cell builds its own machines; the simulator is single-threaded
//!   per cell and shares nothing mutable across cells.
//! * Rows are merged by cell index, not completion order, and each
//!   figure's reduction is a pure function of its rows.

use crate::common::{check_report, checked_collector, Scale};
use crate::fig18_19::ProfileKind;
use crate::supervise::{self, CellFailure, FailureReport};
use crate::{
    adversary, chaos, fig02, fig03, fig04, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17,
    fig18_19, fig20, fig21, fleet_chaos, replay, table2, table3, table4, vcache,
};
use ::fleet::{policy_by_name, Cluster, FleetSpec, GuestMode};
use hostsim::{HostSpec, Machine};
use simcore::rng::{fnv1a, mix64};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt::{Debug, Display};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace::{CheckReport, SharedCollector};

/// What the run hands one cell, and how the cell builds what it simulates.
pub struct CellCtx {
    /// The cell's seed ([`cell_seed`] of its identity); every machine and
    /// cluster the cell builds is seeded with it.
    pub seed: u64,
    /// Experiment scale.
    pub scale: Scale,
    /// Host-stepping workers for the cell's clusters; `None` sizes the
    /// pool by available parallelism. Never changes a row.
    pub fleet_threads: Option<NonZeroUsize>,
    /// `Some` when traced: every collector handed out, in order.
    trace: Option<RefCell<Vec<SharedCollector>>>,
    /// Machines built through this context, cluster hosts included.
    machines: Cell<u64>,
}

impl CellCtx {
    /// An untraced context: machines get no collector, and clusters size
    /// their stepping pools by available parallelism.
    pub fn new(seed: u64, scale: Scale) -> CellCtx {
        CellCtx {
            seed,
            scale,
            fleet_threads: None,
            trace: None,
            machines: Cell::new(0),
        }
    }

    /// A traced context: every machine gets its own fresh checked
    /// collector; [`CellCtx::reports`] reads their verdicts.
    pub fn traced(seed: u64, scale: Scale) -> CellCtx {
        CellCtx {
            trace: Some(RefCell::new(Vec::new())),
            ..CellCtx::new(seed, scale)
        }
    }

    /// A machine on `host`, seeded with the cell seed, checked when the
    /// context is traced.
    pub(crate) fn machine(&self, host: HostSpec) -> Machine {
        if self.trace.is_some() {
            return self.checked_machine(host).0;
        }
        self.machines.set(self.machines.get() + 1);
        Machine::new(host, self.seed)
    }

    /// A machine with a checked collector attached whether or not the
    /// context is traced, for cells whose rows carry the checker's verdict.
    /// A traced context records that same collector, so the checker is
    /// never attached twice.
    pub(crate) fn checked_machine(&self, host: HostSpec) -> (Machine, SharedCollector) {
        self.machines.set(self.machines.get() + 1);
        let mut m = Machine::new(host, self.seed);
        let shared = checked_collector();
        m.attach_trace(&shared);
        if let Some(trace) = &self.trace {
            trace.borrow_mut().push(SharedCollector::clone(&shared));
        }
        (m, shared)
    }

    /// A cluster under the registered placement `policy`, seeded with the
    /// cell seed and stepped by [`CellCtx::fleet_threads`] workers. Its
    /// hosts carry their own checkers, whose verdict the cluster reports.
    pub(crate) fn cluster(&self, spec: FleetSpec, mode: GuestMode, policy: &str) -> Cluster {
        self.machines.set(self.machines.get() + spec.hosts as u64);
        let policy = policy_by_name(policy).expect("registered policy");
        match self.fleet_threads {
            Some(n) => Cluster::with_threads(spec, mode, policy, self.seed, n),
            None => Cluster::new(spec, mode, policy, self.seed),
        }
    }

    /// How many machines the context has built, cluster hosts included.
    pub fn machines_built(&self) -> u64 {
        self.machines.get()
    }

    /// The verdict of every collector a traced context handed out, in
    /// order; empty when untraced.
    pub fn reports(&self) -> Vec<CheckReport> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, |t| t.borrow().iter().map(check_report).collect())
    }
}

/// One independent unit of work: a single simulation returning one row.
pub struct CellSpec<R> {
    /// Stable identity within the figure; feeds [`cell_seed`].
    pub label: String,
    run: Box<dyn Fn(&CellCtx) -> R + Send + Sync>,
}

impl<R> CellSpec<R> {
    /// Runs the cell's closure unsupervised (the supervisor wraps this in
    /// `catch_unwind` and timing).
    pub fn execute(&self, ctx: &CellCtx) -> R {
        (self.run)(ctx)
    }
}

/// One figure or table: its cells, each returning a row `R`, plus the
/// reduction of those rows (in cell order) into the figure `F`.
pub struct Grid<R, F> {
    /// Figure id (`fig02` … `table4`); feeds [`cell_seed`] and `--filter`.
    pub name: &'static str,
    /// One-line description (`suite --list`).
    pub desc: &'static str,
    /// The cells, in merge order.
    pub cells: Vec<CellSpec<R>>,
    reduce: Box<dyn Fn(Vec<R>, Scale) -> F + Send + Sync>,
}

impl<R, F> Grid<R, F> {
    /// An empty grid with its reducer; [`Grid::cell`] adds the cells.
    pub(crate) fn new(
        name: &'static str,
        desc: &'static str,
        reduce: impl Fn(Vec<R>, Scale) -> F + Send + Sync + 'static,
    ) -> Self {
        Grid {
            name,
            desc,
            cells: Vec::new(),
            reduce: Box::new(reduce),
        }
    }

    /// Appends a cell.
    pub(crate) fn cell(
        &mut self,
        label: impl Into<String>,
        f: impl Fn(&CellCtx) -> R + Send + Sync + 'static,
    ) {
        self.cells.push(CellSpec {
            label: label.into(),
            run: Box::new(f),
        });
    }

    /// Runs every cell serially at its runner seed — the `--jobs 1` path,
    /// without supervision — and reduces: the typed figure the suite
    /// renders for `seed`.
    pub fn run(&self, seed: u64, scale: Scale) -> F {
        let rows = self
            .cells
            .iter()
            .map(|c| c.execute(&CellCtx::new(cell_seed(seed, self.name, &c.label), scale)))
            .collect();
        (self.reduce)(rows, scale)
    }
}

/// Removes and returns the row `key` selects: how a reducer looks its rows
/// up by key rather than by position.
///
/// # Panics
///
/// If no row matches — a key the grid never declared a cell for.
pub(crate) fn take<R>(rows: &mut Vec<R>, key: impl Fn(&R) -> bool) -> R {
    let i = rows
        .iter()
        .position(key)
        .expect("the grid declares a cell for every key its reducer takes");
    rows.remove(i)
}

/// Pairs every baseline row with the treated row of the same key — the
/// reduction of a "without vs with" grid — in the baselines' cell order.
///
/// # Panics
///
/// If a baseline has no treated row of its key.
pub(crate) fn pair_up<R, K: PartialEq>(
    rows: Vec<R>,
    treated: impl Fn(&R) -> bool,
    key: impl Fn(&R) -> K,
) -> Vec<(R, R)> {
    let (base, mut treat): (Vec<R>, Vec<R>) = rows.into_iter().partition(|r| !treated(r));
    base.into_iter()
        .map(|b| {
            let k = key(&b);
            (b, take(&mut treat, |t| key(t) == k))
        })
        .collect()
}

/// A row in flight between a worker and its job's reduction.
type AnyRow = Box<dyn Any + Send>;

/// A [`Grid`] with its row and figure types erased, so the pool can hold
/// every job in one list.
trait ErasedGrid: Send + Sync {
    fn label(&self, cell: usize) -> &str;
    fn run_cell(&self, cell: usize, ctx: &CellCtx) -> Result<(AnyRow, f64), CellFailure>;
    fn debug_row(&self, cell: usize, ctx: &CellCtx) -> String;
    fn render(&self, rows: Vec<AnyRow>, scale: Scale) -> String;
}

impl<R: Debug + Send + 'static, F: Display> ErasedGrid for Grid<R, F> {
    fn label(&self, cell: usize) -> &str {
        &self.cells[cell].label
    }

    fn run_cell(&self, cell: usize, ctx: &CellCtx) -> Result<(AnyRow, f64), CellFailure> {
        supervise::run_cell(self.name, &self.cells[cell], ctx)
            .map(|(row, secs)| (Box::new(row) as AnyRow, secs))
    }

    fn debug_row(&self, cell: usize, ctx: &CellCtx) -> String {
        format!("{:?}", self.cells[cell].execute(ctx))
    }

    fn render(&self, rows: Vec<AnyRow>, scale: Scale) -> String {
        let rows = rows
            .into_iter()
            .map(|r| *r.downcast::<R>().expect("every slot holds its grid's row"))
            .collect();
        (self.reduce)(rows, scale).to_string()
    }
}

/// One registry entry: a grid whose row type the pool need not know.
pub struct Job {
    /// Figure id; see [`Grid::name`].
    pub name: &'static str,
    /// One-line description; see [`Grid::desc`].
    pub desc: &'static str,
    /// Number of cells the job shards into.
    pub cells: usize,
    grid: Box<dyn ErasedGrid>,
}

impl Job {
    /// Label of cell `cell`; see [`CellSpec::label`].
    pub fn label(&self, cell: usize) -> &str {
        self.grid.label(cell)
    }

    /// Runs cell `cell` unsupervised in `ctx` and renders its row with
    /// `{:?}`, which prints floats exactly: two runs' rows compare bit for
    /// bit as strings.
    pub fn debug_row(&self, cell: usize, ctx: &CellCtx) -> String {
        self.grid.debug_row(cell, ctx)
    }
}

impl<R: Debug + Send + 'static, F: Display + 'static> From<Grid<R, F>> for Job {
    fn from(grid: Grid<R, F>) -> Job {
        Job {
            name: grid.name,
            desc: grid.desc,
            cells: grid.cells.len(),
            grid: Box::new(grid),
        }
    }
}

/// Stable per-cell seed: FNV-1a over `(figure, label)` finalized with the
/// base seed through a splitmix64 mix. Depends only on the cell's identity,
/// never on scheduling, worker count, or completion order.
pub fn cell_seed(base: u64, figure: &str, label: &str) -> u64 {
    let h = fnv1a(figure.bytes().chain([0xff]).chain(label.bytes()));
    mix64(h ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The supervision canary: a grid whose cells fail on purpose. Never in
/// [`registry`] — `run_suite` appends it only when
/// [`SuiteOptions::canary`] is set (the `VSCHED_CANARY` env gate in the
/// binary), so CI can assert that a panicking cell is isolated, reported,
/// and leaves every real job's bytes alone.
fn canary_grid() -> Grid<u64, String> {
    // The reducer is unreachable in practice: the panic cell always fails
    // the job before reduction. Kept total so a future "healthy canary"
    // variant still renders.
    let mut g = Grid::new(
        "canary",
        "always-failing supervision canary (VSCHED_CANARY=1 only)",
        |rows: Vec<u64>, _| format!("canary merged (sum {})", rows.iter().sum::<u64>()),
    );
    g.cell("healthy", |ctx| ctx.seed);
    g.cell("panic", |_| -> u64 { panic!("canary: injected panic") });
    g
}

/// All jobs in suite output order.
pub fn registry() -> Vec<Job> {
    vec![
        fig02::grid().into(),
        fig03::grid().into(),
        fig04::grid().into(),
        fig10::grid().into(),
        fig11::grid().into(),
        fig12::grid().into(),
        fig13::grid().into(),
        fig14::grid().into(),
        fig15::grid().into(),
        fig16::grid().into(),
        fig17::grid().into(),
        fig18_19::grid(
            "fig18",
            "overall improvement with vSched on the resource-constrained VM",
            ProfileKind::Rcvm,
        )
        .into(),
        fig18_19::grid(
            "fig19",
            "overall improvement with vSched on the high-performance VM",
            ProfileKind::Hpvm,
        )
        .into(),
        fig20::grid().into(),
        fig21::grid().into(),
        table2::grid().into(),
        table3::grid().into(),
        table4::grid().into(),
        chaos::grid().into(),
        adversary::grid().into(),
        crate::fleet::grid().into(),
        replay::grid().into(),
        fleet_chaos::grid().into(),
        vcache::grid().into(),
    ]
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
    /// Append the always-failing canary job (CI supervision smoke).
    pub canary: bool,
    /// Host-stepping workers for the fleet cells' clusters
    /// (`--fleet-threads`), handed to every cell as
    /// [`CellCtx::fleet_threads`]; `None` sizes each pool by available
    /// parallelism. Worker count never changes cell output — only wall
    /// clock.
    pub fleet_threads: Option<NonZeroUsize>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            jobs: 0,
            filter: None,
            scale: Scale::Quick,
            seed: 42,
            canary: false,
            fleet_threads: None,
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
    /// Cells and reducers that panicked, in (job, cell) order; a job's
    /// reducer sorts after its cells.
    pub failures: FailureReport,
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
        jobs.push(canary_grid().into());
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
    /// Cells not yet finished (success or failure). The worker that
    /// decrements this to zero owns the job's reduction.
    remaining: AtomicUsize,
    /// Set when any cell panics: the job skips reduction.
    failed: AtomicBool,
    /// One slot per cell, filled in any order, drained in cell order.
    slots: Vec<Mutex<Option<(AnyRow, f64)>>>,
    /// The reduced output and summed cell CPU seconds, once complete.
    output: Mutex<Option<(String, f64)>>,
}

fn run_jobs(jobs: Vec<Job>, opts: &SuiteOptions) -> SuiteResult {
    let t0 = Instant::now();
    let workers = resolve_workers(opts.jobs);

    // Flatten into a work list; seeds are precomputed from cell identity
    // so nothing downstream depends on which worker runs what.
    let items: Vec<Item> = jobs
        .iter()
        .enumerate()
        .flat_map(|(ji, j)| {
            (0..j.cells).map(move |ci| Item {
                job: ji,
                cell: ci,
                seed: cell_seed(opts.seed, j.name, j.grid.label(ci)),
            })
        })
        .collect();

    let states: Vec<JobState> = jobs
        .iter()
        .map(|j| JobState {
            remaining: AtomicUsize::new(j.cells),
            failed: AtomicBool::new(false),
            slots: (0..j.cells).map(|_| Mutex::new(None)).collect(),
            output: Mutex::new(None),
        })
        .collect();
    let failures: Mutex<Vec<(usize, usize, CellFailure)>> = Mutex::new(Vec::new());
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
                let ctx = CellCtx {
                    fleet_threads: opts.fleet_threads,
                    ..CellCtx::new(it.seed, opts.scale)
                };
                match job.grid.run_cell(it.cell, &ctx) {
                    Ok(filled) => *st.slots[it.cell].lock().unwrap() = Some(filled),
                    Err(cf) => {
                        st.failed.store(true, Ordering::Release);
                        failures.lock().unwrap().push((it.job, it.cell, cf));
                    }
                }
                // The worker finishing a job's last cell merges it at once.
                if st.remaining.fetch_sub(1, Ordering::AcqRel) == 1
                    && !st.failed.load(Ordering::Acquire)
                {
                    let mut rows = Vec::with_capacity(st.slots.len());
                    let mut cpu = 0.0f64;
                    for slot in &st.slots {
                        let (row, secs) = slot
                            .lock()
                            .unwrap()
                            .take()
                            .expect("job complete and unfailed: every slot filled");
                        rows.push(row);
                        cpu += secs;
                    }
                    // A reducer panic (a missing row, arithmetic) fails its
                    // job, not the suite, and is reported like a cell's.
                    match supervise::isolate(|| job.grid.render(rows, opts.scale)) {
                        Ok(out) => *st.output.lock().unwrap() = Some((out, cpu)),
                        Err(message) => {
                            st.failed.store(true, Ordering::Release);
                            let cf = CellFailure {
                                figure: job.name.to_string(),
                                label: "reduce".to_string(),
                                seed: opts.seed,
                                message,
                            };
                            failures.lock().unwrap().push((it.job, job.cells, cf));
                        }
                    }
                }
            });
        }
    });

    let mut failed = failures.into_inner().unwrap();
    failed.sort_by_key(|&(ji, ci, _)| (ji, ci));

    let reports = jobs
        .iter()
        .zip(states)
        .map(|(job, st)| match st.output.into_inner().unwrap() {
            Some((output, cpu_secs)) => JobReport {
                name: job.name,
                cells: job.cells,
                output,
                cpu_secs,
                ok: true,
            },
            // Failed job: surviving cells still count toward CPU time.
            None => JobReport {
                name: job.name,
                cells: job.cells,
                output: String::new(),
                cpu_secs: st
                    .slots
                    .iter()
                    .filter_map(|s| s.lock().unwrap().take())
                    .map(|(_, secs)| secs)
                    .sum(),
                ok: false,
            },
        })
        .collect();
    SuiteResult {
        reports,
        workers: n_threads,
        wall_secs: t0.elapsed().as_secs_f64(),
        failures: FailureReport {
            failures: failed.into_iter().map(|(_, _, cf)| cf).collect(),
        },
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
            assert!(j.cells >= 2, "{} has {} cells", j.name, j.cells);
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
        assert_eq!(canary_grid().cells.len(), 2);
    }

    #[test]
    fn reducer_panic_fails_its_job_only_and_is_reported() {
        let mut boom = Grid::new("boom", "reducer panics", |_: Vec<u64>, _| -> String {
            panic!("reducer: injected panic")
        });
        boom.cell("a", |ctx| ctx.seed);
        boom.cell("b", |ctx| ctx.seed);
        let mut fine = Grid::new("fine", "healthy", |rows: Vec<u64>, _| {
            rows.len().to_string()
        });
        fine.cell("a", |ctx| ctx.seed);
        fine.cell("b", |ctx| ctx.seed);
        let opts = SuiteOptions {
            jobs: 2,
            seed: 7,
            ..SuiteOptions::default()
        };
        let res = run_jobs(vec![boom.into(), fine.into()], &opts);

        let [cf] = &res.failures.failures[..] else {
            panic!("want one failure, got {:?}", res.failures);
        };
        assert_eq!((cf.figure.as_str(), cf.label.as_str()), ("boom", "reduce"));
        assert_eq!(cf.seed, 7);
        assert!(cf.message.contains("reducer: injected panic"), "{cf}");
        assert!(res.failures.to_string().contains("FAILED boom/reduce"));

        let (boom, fine) = (&res.reports[0], &res.reports[1]);
        assert!(!boom.ok && boom.output.is_empty());
        assert!(fine.ok);
        assert_eq!(fine.output, "2");
    }

    /// Runs a 2-vCPU VM under a stressor for 50 ms on a machine from `ctx`.
    fn run_stressed(ctx: &CellCtx) {
        let mut m = ctx.machine(HostSpec::flat(2));
        let vm = m.add_vm(hostsim::VmSpec::pinned(2, 0));
        let (w, _) = workloads::Stressor::new(2, workloads::work_ms(1.0));
        m.set_workload(vm, Box::new(w));
        m.start();
        m.run_until(simcore::SimTime::from_ns(50 * simcore::time::MS));
    }

    #[test]
    fn untraced_context_leaves_the_sink_off() {
        let ctx = CellCtx::new(1, Scale::Smoke);
        let m = ctx.machine(HostSpec::flat(2));
        assert!(matches!(m.trace, trace::TraceSink::Off));
        assert_eq!(ctx.machines_built(), 1);
        assert!(ctx.reports().is_empty());
    }

    #[test]
    fn traced_cell_gets_one_clean_collector_per_machine() {
        let ctx = CellCtx::traced(1, Scale::Smoke);
        run_stressed(&ctx);
        let first = ctx.reports();
        run_stressed(&ctx);
        let both = ctx.reports();
        assert_eq!((first.len(), both.len()), (1, 2));
        // The second machine fed its own collector, not the first one's.
        assert_eq!(both[0].events, first[0].events);
        for r in &both {
            assert!(r.events > 0 && r.ok(), "{r}");
        }
        assert_eq!(ctx.machines_built(), 2);
    }

    #[test]
    fn fleet_threads_never_change_a_fleet_row() {
        let job: Job = crate::fleet::grid().into();
        let row = |n| {
            let ctx = CellCtx {
                fleet_threads: NonZeroUsize::new(n),
                ..CellCtx::new(3, Scale::Smoke)
            };
            job.debug_row(0, &ctx)
        };
        assert_eq!(row(1), row(4));
    }

    #[test]
    fn labels_are_unique_within_a_job() {
        for j in registry() {
            let mut labels: Vec<&str> = (0..j.cells).map(|i| j.label(i)).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(before, labels.len(), "duplicate cell label in {}", j.name);
        }
    }
}
