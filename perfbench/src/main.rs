//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <host-hpvm|fleet-region|suite-smoke> --seed N \
//!           --seconds S --trace <0|1> [--out FILE]
//! perfbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! `--seconds` fixes how many repetitions an untraced run makes, from what
//! one repetition takes on the reference machine, so the count never
//! depends on the speed of the code under test. A run prints progress as
//! `#` lines and, last, its result object:
//! `correct`, `attempted`, `failed` and `metrics` (`--trace 0` the
//! end-to-end metrics, `--trace 1` the per-layer ones). `--out` also
//! appends a record of the result with its seed, `git describe`, `nproc`
//! and rustc version to FILE. Compare mode reads two such files and
//! `BENCHMARK.json` from the current directory and prints, per workload
//! and end-to-end metric, both sides' medians and quartiles and a verdict.

use perfbench::outcome::{peak_rss_mib, Outcome, PER_LAYER};
use perfbench::{compare, host, micro, region, suite};
use simcore::json::Json;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// The benchmark's workloads.
const WORKLOADS: [&str; 3] = ["host-hpvm", "fleet-region", "suite-smoke"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.into_iter().find(|w| *w == value.as_str());
                workload = Some(w.ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {WORKLOADS:?}")
                })?);
            }
            "--seed" => {
                let s = value.parse::<u64>();
                seed = Some(s.map_err(|e| format!("--seed {value:?}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value:?}: expected (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            out.set(name, 0.0, unit);
        }
        for id in suite::job_names() {
            out.set(format!("suite.job.{id}_s"), 0.0, "s");
        }
        out.set("guestos.pelt_update_ns", micro::pelt_update_ns(), "ns");
        out.set("hostsim.llc_advance_ns", micro::llc_advance_ns(), "ns");
        match args.workload {
            "host-hpvm" => host::traced(args.seed, &mut out),
            "fleet-region" => region::traced(args.seed, &mut out),
            "suite-smoke" => suite::traced(args.seed, &mut out),
            w => unreachable!("parse_args admits no workload {w:?}"),
        }
    } else {
        match args.workload {
            "host-hpvm" => host::untraced(args.seed, args.seconds, &mut out),
            "fleet-region" => region::untraced(args.seed, args.seconds, &mut out),
            "suite-smoke" => suite::untraced(args.seed, args.seconds, &mut out),
            w => unreachable!("parse_args admits no workload {w:?}"),
        }
        match peak_rss_mib() {
            Some(mib) => out.set("peak_rss_mb", mib, "MiB"),
            None => out.check(false, || "no VmHWM in /proc/self/status".into()),
        }
    }
    out
}

/// The result with what produced it, for compare mode.
fn record(args: &Args, result: &Json) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("workload", Json::from(args.workload)),
        ("seed", Json::Uint(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "git_describe",
            Json::from(first_line("git", &["describe", "--always", "--dirty"])),
        ),
        ("nproc", Json::Uint(nproc as u64)),
        ("rustc", Json::from(first_line("rustc", &["--version"]))),
        ("result", result.clone()),
    ])
}

/// First stdout line of a command, or `unknown`. Git may not look above
/// the current directory, so a checkout that is not a repository reads
/// `unknown` instead of describing a repository around it.
fn first_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".into(),
    }
}

fn run_main(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = measure(&args).to_json();
    if let Some(path) = &args.out {
        let line = record(&args, &result).render();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(())
}

fn compare_main(argv: &[String]) -> Result<(), String> {
    let [parent, change] = argv else {
        return Err("usage: perfbench compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bench =
        Json::parse(&read("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let gates = compare::gates(&bench)?;
    let records =
        |path: &str| compare::parse_records(&read(path)?).map_err(|e| format!("{path}: {e}"));
    print!(
        "{}",
        compare::report(&records(parent)?, &records(change)?, &gates)
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare_main(rest),
        _ => run_main(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
