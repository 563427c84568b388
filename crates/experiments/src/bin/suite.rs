//! Runs the figure/table suite on the deterministic runner.
//!
//! Figure outputs go to stdout (stable across `--jobs` values for a given
//! seed); the timing summary and the failure report go to stderr so
//! output equality can be checked with a plain `diff`. A suite run writes
//! no file.
//!
//! ```text
//! cargo run --release -p experiments --bin suite -- [--jobs N] [--filter S]
//!     [--scale smoke|quick|paper] [--seed N] [--fleet-threads N] [--list]
//!     [--shrink SEED | --replay FILE]
//! ```
//!
//! * `--scale` picks the experiment scale (default quick).
//! * Every cell runs in isolation: a panicking cell (or job reducer)
//!   fails **its job only** — the suite still exits 0 and prints the
//!   failure report to stderr. Isolating a failure is the tool working,
//!   not a tool error. Cells are deterministic, so a failed cell is not
//!   retried.
//! * `--shrink SEED` delta-debugs the chaos `FaultPlan` that seed generates
//!   down to a locally-minimal action subset failing the same checker law,
//!   written to `target/chaos_repro_<seed>.json`; `--replay FILE` re-runs a
//!   repro file — under the seed its shrink used, which the file carries —
//!   and exits 0 iff the failure still reproduces. `--shrink-fleet` /
//!   `--replay-fleet` do the same for the fleet-chaos cell's
//!   `FleetChaosPlan` (`target/fleet_chaos_repro_<seed>.json`), and
//!   `--shrink-adversary` / `--replay-adversary` for the adversary cell's
//!   `AttackPlan` (`target/adversary_repro_<seed>.json`). One generic
//!   shrink driver and one replay driver serve all three plan types
//!   (`experiments::shrink::ShrinkPlan`). `VSCHED_SHRINK_LAW=synthetic`
//!   swaps the real checkers for the synthetic canary laws (tests/CI).
//! * `VSCHED_CANARY=1` appends the always-failing canary job (CI
//!   supervision smoke).
//! * `--list` prints every registered job id with its cell count and a
//!   one-line description, then exits.
//! * `--fleet-threads N` bounds the host-stepping worker pool inside the
//!   fleet, fleet-replay and fleet-chaos cells' clusters (default:
//!   available parallelism; `0` is rejected with a named-field error).
//!   Worker count never changes suite output — only wall clock.

use experiments::runner::{registry, run_suite, SuiteOptions};
use experiments::shrink::{self, ShrinkPlan};
use experiments::Scale;
use fleet::FleetChaosPlan;
use hostsim::FaultPlan;
use std::str::FromStr;
use workloads::AttackPlan;

fn usage() -> ! {
    eprintln!(
        "usage: suite [--jobs N] [--filter SUBSTR[,SUBSTR...]] \
         [--scale smoke|quick|paper] [--seed N] [--fleet-threads N] [--list] \
         [--shrink SEED | --replay FILE | --shrink-fleet SEED | --replay-fleet FILE \
         | --shrink-adversary SEED | --replay-adversary FILE]\n\
         \n\
         --fleet-threads N   host-stepping workers for the fleet, \
         fleet-replay and fleet-chaos cells (default: available parallelism; output is byte-identical \
         at any worker count)"
    );
    std::process::exit(2);
}

/// Parses `flag`'s value; a malformed one names the flag and the value,
/// then exits 2 with the usage.
fn parse_flag<T: FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value \"{value}\"");
        usage()
    })
}

/// The oracle `--shrink*`/`--replay*` consult: the real checker, or the
/// synthetic canary law under `VSCHED_SHRINK_LAW=synthetic`.
fn law<P: ShrinkPlan>(plan: &P, seed: u64) -> Option<String> {
    if std::env::var("VSCHED_SHRINK_LAW").as_deref() == Ok("synthetic") {
        plan.synthetic_law()
    } else {
        plan.checker_law(seed)
    }
}

/// `--shrink<FLAG> SEED`: shrinks the plan `seed` generates and writes the
/// repro to `target/<STEM>_repro_<seed>.json`.
fn shrink_main<P: ShrinkPlan>(seed: u64, scale: Scale) -> ! {
    let tag = format!("shrink{}", P::FLAG);
    let plan = P::from_seed(seed, scale);
    eprintln!(
        "# {tag}: seed {seed} -> {} {}s at {} scale",
        plan.events().len(),
        P::EVENT,
        scale.label()
    );
    let out = shrink::shrink(&plan, law::<P>).unwrap_or_else(|e| {
        eprintln!("# {tag}: {e}");
        std::process::exit(1);
    });
    let path = format!("target/{}_repro_{seed}.json", P::STEM);
    let _ = std::fs::create_dir_all("target");
    if let Err(e) = std::fs::write(&path, out.plan.to_json()) {
        eprintln!("# {tag}: cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "# {tag}: law '{}' holds at {} of {} {}s ({} oracle runs); repro written to {}",
        out.law,
        out.plan.events().len(),
        out.original_events,
        P::EVENT,
        out.oracle_runs,
        path
    );
    std::process::exit(0);
}

/// `--replay<FLAG> FILE`: re-runs a repro under the seed its shrink used
/// and exits 0 iff the failure still reproduces.
fn replay_main<P: ShrinkPlan>(path: &str) -> ! {
    let tag = format!("replay{}", P::FLAG);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("# {tag}: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let (plan, failed) = shrink::replay::<P>(&text, law::<P>).unwrap_or_else(|e| {
        eprintln!("# {tag}: {path} is not a {} repro: {e}", P::STEM);
        std::process::exit(2);
    });
    match failed {
        Some(l) => {
            eprintln!(
                "# {tag}: reproduced law '{l}' with {} {}(s) from {path}",
                plan.events().len(),
                P::EVENT
            );
            std::process::exit(0);
        }
        None => {
            eprintln!("# {tag}: plan from {path} passes every law; no reproduction");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut opts = SuiteOptions {
        canary: std::env::var("VSCHED_CANARY")
            .map(|v| v == "1")
            .unwrap_or(false),
        ..SuiteOptions::default()
    };
    let mut list = false;
    // A shrink or replay request: (flag, seed or repro path).
    let mut repro: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--jobs" | "-j" => opts.jobs = parse_flag("--jobs", &value("--jobs")),
            "--filter" | "-f" => opts.filter = Some(value("--filter")),
            "--scale" | "-s" => opts.scale = parse_flag("--scale", &value("--scale")),
            "--seed" => opts.seed = parse_flag("--seed", &value("--seed")),
            "--fleet-threads" => match fleet::parse_fleet_threads(&value("--fleet-threads")) {
                Ok(n) => opts.fleet_threads = Some(n),
                Err(e) => {
                    eprintln!("--fleet-threads: {e}");
                    usage();
                }
            },
            flag @ ("--shrink" | "--replay" | "--shrink-fleet" | "--replay-fleet"
            | "--shrink-adversary" | "--replay-adversary") => {
                repro = Some((flag.to_string(), value(flag)));
            }
            "--list" => list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    if list {
        for j in registry() {
            println!("{:<8} {:>3} cells  {}", j.name, j.cells, j.desc);
        }
        println!(
            "# fleet, fleet-replay and fleet-chaos cells shard host stepping \
             across a cluster pool; override with --fleet-threads N (default: \
             available parallelism, byte-identical output at any worker count)"
        );
        return;
    }
    if let Some((flag, arg)) = repro {
        let seed = || parse_flag(&flag, &arg);
        match flag.as_str() {
            "--shrink" => shrink_main::<FaultPlan>(seed(), opts.scale),
            "--shrink-fleet" => shrink_main::<FleetChaosPlan>(seed(), opts.scale),
            "--shrink-adversary" => shrink_main::<AttackPlan>(seed(), opts.scale),
            "--replay" => replay_main::<FaultPlan>(&arg),
            "--replay-fleet" => replay_main::<FleetChaosPlan>(&arg),
            _ => replay_main::<AttackPlan>(&arg), // --replay-adversary
        }
    }

    let res = match run_suite(&opts) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Failed jobs print nothing: healthy output stays byte-identical to a
    // clean run's, and the failure report below carries the rest.
    for r in res.reports.iter().filter(|r| r.ok) {
        println!("=== {} ===", r.name);
        println!("{}", r.output);
    }

    let cpu: f64 = res.reports.iter().map(|r| r.cpu_secs).sum();
    eprintln!(
        "# suite: {} jobs, {} cells, scale={}, seed={}, workers={}",
        res.reports.len(),
        res.reports.iter().map(|r| r.cells).sum::<usize>(),
        opts.scale.label(),
        opts.seed,
        res.workers,
    );
    for r in &res.reports {
        let status = if r.ok { "" } else { " FAILED" };
        eprintln!(
            "#   {:<8} {:>4} cells {:>8.2}s cpu{status}",
            r.name, r.cells, r.cpu_secs
        );
    }
    eprintln!(
        "# wall {:.2}s, cpu {:.2}s, speedup {:.2}x",
        res.wall_secs,
        cpu,
        cpu / res.wall_secs.max(1e-9)
    );

    // Isolated failures are reported and non-fatal by design: exit 0 so
    // one bad cell doesn't fail a whole CI suite run.
    if !res.failures.is_empty() {
        eprint!("{}", res.failures);
    }
}
