//! `suite-smoke`: the command users run.
//!
//! `experiments::runner::run_suite` runs the 24 jobs (506 cells) at smoke
//! scale on one worker, with one fleet stepping worker and checkpointing
//! off. It mixes CFS and vSched cells, LLC-active jobs, checked traces,
//! chaos, adversary and small fleets, so a gain for one layer that costs
//! another use of it shows here.

use crate::outcome::{digest_bytes, fastest, repetitions, timed, Outcome};
use crate::speed::Meter;
use experiments::runner::{registry, run_suite, SuiteOptions, SuiteResult};
use experiments::{profiles, Mode, Scale};
use fleet::{policy_by_name, Cluster, GuestMode};
use simcore::SimRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::num::NonZeroUsize;
use workloads::build_loaded;

/// Wall seconds of one pass over the suite's jobs on the reference
/// machine (a shared 2-core x86-64 VM): with a run's seconds, it fixes how
/// many passes the run makes.
const PASS_S: f64 = 16.0;
/// The fewest passes an untraced run makes. A job takes up to a few
/// seconds, about as long as a burst of interference, so its fastest of
/// two passes still often sits in a burst; of three, seldom.
const MIN_PASSES: usize = 3;
/// Set-up trials after each job of a pass. `setup_s` is the sum of each
/// set-up step's fastest trial: a step takes tens of microseconds, and
/// spreading its trials over the run lets some of them miss a burst of
/// interference.
const SETUP_TRIALS: usize = 2;

/// The suite's job ids, in run order: the traced run reports each as
/// `suite.job.<id>_s`.
pub fn job_names() -> Vec<&'static str> {
    registry().iter().map(|j| j.name).collect()
}

/// Seconds `build` takes, with what it built dropped untimed.
fn build_s<T>(build: impl FnOnce() -> T) -> f64 {
    let (secs, built) = timed(build);
    drop(black_box(built));
    secs
}

/// One set-up trial: the seconds of each step that cells take before
/// their first simulated event. The steps are the job table, a machine
/// on each of the paper's two profiles (hpvm and rcvm) with a workload
/// and a vSched guest, and a fleet cell's smoke-scale cluster.
fn setup_trial(seed: u64) -> [f64; 4] {
    let machine = |p: profiles::Profile| {
        let (mut machine, vm) = (p.machine, p.vm);
        let nr = machine.vms[vm].nr_vcpus;
        let (wl, _) = build_loaded("masstree", nr, 0.5, SimRng::new(seed));
        machine.set_workload(vm, wl);
        Mode::Vsched.install(&mut machine, vm);
        machine
    };
    let cluster = || {
        let policy = policy_by_name("probe-aware").expect("probe-aware is a registered policy");
        let spec = experiments::fleet::spec_for(Scale::Smoke.secs(4, 16));
        Cluster::with_threads(spec, GuestMode::Vsched, policy, seed, NonZeroUsize::MIN)
    };
    [
        build_s(registry),
        build_s(|| machine(profiles::hpvm(seed))),
        build_s(|| machine(profiles::rcvm(seed))),
        build_s(cluster),
    ]
}

/// One suite run through the runner, of every job or of those whose
/// names contain `filter`.
fn run(seed: u64, filter: Option<&str>) -> SuiteResult {
    let opts = SuiteOptions {
        jobs: 1,
        filter: filter.map(str::to_string),
        scale: Scale::Smoke,
        seed,
        fleet_threads: Some(NonZeroUsize::MIN),
        ..SuiteOptions::default()
    };
    run_suite(&opts).expect("a job's own name matches it")
}

/// Counts every registry job as a unit: its report is there and `ok`, and
/// its output renders as on its first run. The failure report counts as
/// one more unit, which must be empty.
fn check(res: &SuiteResult, first: &mut BTreeMap<&'static str, u64>, out: &mut Outcome) {
    for name in res.reports.iter().map(|r| r.name) {
        let report = res.reports.iter().find(|r| r.name == name);
        let repeats = report.is_some_and(|r| {
            let d = digest_bytes(r.output.bytes());
            d == *first.entry(name).or_insert(d)
        });
        let ok = report.is_some_and(|r| r.ok);
        out.check(ok && repeats, || {
            format!(
                "suite-smoke {name}: reported {}, ok {ok}, output {}",
                report.is_some(),
                if repeats { "repeats" } else { "changed" }
            )
        });
    }
    out.check(res.failures.is_empty(), || {
        format!("suite-smoke: {} cells failed", res.failures.failures.len())
    });
}

/// Untraced run: a fixed number of passes over the suite's jobs for
/// `seconds`, at least [`MIN_PASSES`]. A pass runs each job alone through
/// the runner, and the machine's speed is read between jobs. A job whose
/// name is part of another's (`chaos`, `fleet`) runs beside it, and each
/// job's first report in a pass is the one kept.
///
/// `wall_s` sums each job's cell seconds at its fastest pass, scaled to
/// the reference speed by the run's calmest stretch
/// ([`Meter::calm_scale`]): the fastest pass of each job escapes short
/// bursts of interference, and the scale corrects for a run that sits
/// wholly in a slow stretch. Scaling each job by the reads beside it
/// instead doubled the spread across seeds: a job seconds long outlasts
/// the stretch those reads see. The runner's few milliseconds around the
/// jobs are left to the traced run.
pub fn untraced(seed: u64, seconds: f64, out: &mut Outcome) {
    let names = job_names();
    let mut meter = Meter::default();
    let mut setups: Vec<[f64; 4]> = Vec::new();
    let mut first = BTreeMap::new();
    let mut jobs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let passes = repetitions(seconds, PASS_S, MIN_PASSES);
    for n in 1..=passes {
        let mut wall = 0.0;
        for &name in &names {
            if jobs.get(name).is_some_and(|t| t.len() == n) {
                continue;
            }
            let (_, res) = meter.time(|| run(seed, Some(name)));
            check(&res, &mut first, out);
            for r in &res.reports {
                let times = jobs.entry(r.name).or_default();
                if times.len() < n {
                    times.push(r.cpu_secs);
                    wall += r.cpu_secs;
                }
            }
            setups.extend((0..SETUP_TRIALS).map(|_| setup_trial(seed)));
        }
        println!("# pass {n}: jobs {wall:.3} s");
    }
    let every = names
        .iter()
        .all(|n| jobs.get(n).is_some_and(|t| t.len() == passes));
    out.check(every, || {
        "suite-smoke: a job went unreported in a pass".into()
    });
    let calm = meter.calm_scale();
    let wall = jobs.values().map(|t| fastest(t)).sum::<f64>();
    let setup_s: f64 = (0..4)
        .map(|k| fastest(&setups.iter().map(|t| t[k]).collect::<Vec<_>>()))
        .sum();
    println!("# suite-smoke: jobs at their fastest {wall:.3} s, calmest speed scale {calm:.3}");
    out.set("setup_s", setup_s * calm, "s");
    out.set("wall_s", wall * calm, "s");
}

/// Traced run: one suite run, split by job. No seam is wrapped, so the
/// traced run costs nothing over an untraced one.
pub fn traced(seed: u64, out: &mut Outcome) {
    let (wall, res) = timed(|| run(seed, None));
    check(&res, &mut BTreeMap::new(), out);
    let reported: Vec<&str> = res.reports.iter().map(|r| r.name).collect();
    let names = job_names();
    out.check(reported == names, || {
        format!("suite-smoke: reports for {reported:?}, registry has {names:?}")
    });
    for r in &res.reports {
        out.set(format!("suite.job.{}_s", r.name), r.cpu_secs, "s");
    }
    let jobs: f64 = res.reports.iter().map(|r| r.cpu_secs).sum();
    out.set("experiments.runner_overhead_s", wall - jobs, "s");
    println!(
        "# suite-smoke layers: jobs {jobs:.3} s and runner {:.3} s of {wall:.3} s wall",
        wall - jobs
    );
}
