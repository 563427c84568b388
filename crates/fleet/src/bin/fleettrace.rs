//! `fleettrace` — generate, validate, and replay fleet traces.
//!
//! ```text
//! fleettrace profiles
//! fleettrace gen --profile sap-diurnal [--seed N] [--horizon-secs S] [--out FILE]
//! fleettrace validate FILE
//! fleettrace replay FILE [--policy P] [--mode cfs|vsched] [--hosts N] [--threads N] [--seed N]
//!     [--fleet-threads N] [--chaos-seed N] [--migration handoff|cold-reprobe]
//! ```
//!
//! `gen` defaults the seed to the profile's canonical day seed, so
//! `fleettrace gen --profile X` always reproduces the same day the suite
//! replays. `validate` exits nonzero with a line-precise error for any
//! corrupt trace, and additionally gates the byte-level round trip: a
//! trace that parses but is not in the codec's canonical encoding is
//! rejected too. `replay` runs the trace through a full cluster and
//! exits nonzero if any trace law is violated; `--fleet-threads` bounds
//! the cluster's host-stepping worker pool (default: 1, serial stepping)
//! and never changes the replay's output — only wall clock.
//! `--chaos-seed` overlays a seed-generated host-failure plan (crashes,
//! maintenance drains, transient degradations) on the replayed day;
//! `--migration` picks whether drain evacuations hand probe state to the
//! destination (`handoff`, the default) or re-probe cold.

use std::process::ExitCode;
use vsched_fleet::{
    day_seed, parse_fleet_threads, policy_by_name, profile_by_name, spec_for_trace, synthesize,
    Cluster, FleetChaosPlan, FleetChaosSpec, FleetTrace, GuestMode, MigrationMode, PROFILES,
};

const USAGE: &str = "usage:
  fleettrace profiles
  fleettrace gen --profile <name> [--seed <u64>] [--horizon-secs <u64>] [--out <file>]
  fleettrace validate <file>
  fleettrace replay <file> [--policy <name>] [--mode cfs|vsched] [--hosts <n>] [--threads <n>] [--seed <u64>]
      [--fleet-threads <n>]   host-stepping workers (default: 1, serial;
                              output is byte-identical at any worker
                              count)
      [--chaos-seed <u64>]    overlay a seed-generated host-failure plan
      [--migration handoff|cold-reprobe]
                              probe-state handling on drain evacuations
                              (default handoff)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("fleettrace: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Pulls `--flag value` out of `args`, leaving positional args in place.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn parse_u64(v: Option<String>, flag: &str) -> Result<Option<u64>, String> {
    match v {
        None => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("{flag} must be a u64 (got {s:?})")),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = (if args.is_empty() {
        None
    } else {
        Some(args.remove(0))
    }) else {
        return fail("missing subcommand");
    };
    let run = match cmd.as_str() {
        "profiles" => cmd_profiles(),
        "gen" => cmd_gen(&mut args),
        "validate" => cmd_validate(&mut args),
        "replay" => cmd_replay(&mut args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return fail(&format!("unknown subcommand {other:?}")),
    };
    match run {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}

fn cmd_profiles() -> Result<ExitCode, String> {
    for p in &PROFILES {
        println!(
            "{:<18} day_seed={:#018x}  {}",
            p.name,
            day_seed(p.name),
            p.desc
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(args: &mut Vec<String>) -> Result<ExitCode, String> {
    let profile_name =
        take_flag(args, "--profile")?.ok_or_else(|| "gen requires --profile".to_string())?;
    let profile = profile_by_name(&profile_name).ok_or_else(|| {
        let names: Vec<&str> = PROFILES.iter().map(|p| p.name).collect();
        format!(
            "unknown profile {profile_name:?} (have: {})",
            names.join(", ")
        )
    })?;
    let seed =
        parse_u64(take_flag(args, "--seed")?, "--seed")?.unwrap_or_else(|| day_seed(profile.name));
    let horizon_secs =
        parse_u64(take_flag(args, "--horizon-secs")?, "--horizon-secs")?.unwrap_or(4);
    if horizon_secs == 0 {
        return Err("--horizon-secs must be positive".into());
    }
    let horizon_ns = horizon_secs.checked_mul(1_000_000_000).ok_or_else(|| {
        format!(
            "--horizon-secs must be at most {} (got {horizon_secs})",
            u64::MAX / 1_000_000_000
        )
    })?;
    let out = take_flag(args, "--out")?;
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let trace = synthesize(profile, horizon_ns, seed);
    let text = trace.encode();
    match out {
        None => print!("{text}"),
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!(
                "wrote {path}: {} records over {horizon_secs}s (profile {}, seed {seed:#x})",
                trace.events.len(),
                profile.name
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn read_trace(args: &mut Vec<String>) -> Result<(String, String), String> {
    if args.is_empty() {
        return Err("missing trace file argument".into());
    }
    let path = args.remove(0);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
    Ok((path, text))
}

fn cmd_validate(args: &mut Vec<String>) -> Result<ExitCode, String> {
    let (path, text) = read_trace(args)?;
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    match FleetTrace::decode(&text) {
        Ok(t) => {
            // Byte-level round-trip gate: a committed trace must be in the
            // codec's canonical encoding, so decode -> encode reproduces
            // the file exactly. Anything else (hand edits, field
            // reordering, whitespace drift) is rejected even though it
            // parses — replay provenance depends on the bytes.
            if t.encode() != text {
                eprintln!(
                    "{path}: invalid trace: decodes but is not in canonical encoding \
                     (re-encoding differs; regenerate with `fleettrace gen`)"
                );
                return Ok(ExitCode::FAILURE);
            }
            println!(
                "{path}: ok — profile {:?}, {} records, horizon {}ms, day_seed {:#x}, \
                 round-trip clean",
                t.profile,
                t.events.len(),
                t.horizon_ns / 1_000_000,
                t.day_seed
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_replay(args: &mut Vec<String>) -> Result<ExitCode, String> {
    let (path, text) = read_trace(args)?;
    let policy_name = take_flag(args, "--policy")?.unwrap_or_else(|| "first-fit".to_string());
    let mode = match take_flag(args, "--mode")?.as_deref() {
        None | Some("vsched") => GuestMode::Vsched,
        Some("cfs") => GuestMode::Cfs,
        Some(other) => return Err(format!("--mode must be cfs or vsched (got {other:?})")),
    };
    let hosts = parse_u64(take_flag(args, "--hosts")?, "--hosts")?.unwrap_or(4) as usize;
    let threads = parse_u64(take_flag(args, "--threads")?, "--threads")?.unwrap_or(4) as usize;
    let seed = parse_u64(take_flag(args, "--seed")?, "--seed")?.unwrap_or(1);
    let fleet_threads = match take_flag(args, "--fleet-threads")? {
        None => None,
        Some(s) => Some(parse_fleet_threads(&s)?),
    };
    let chaos_seed = parse_u64(take_flag(args, "--chaos-seed")?, "--chaos-seed")?;
    let migration = match take_flag(args, "--migration")?.as_deref() {
        None => MigrationMode::Handoff,
        Some(name) => MigrationMode::from_name(name)
            .ok_or_else(|| format!("--migration must be handoff or cold-reprobe (got {name:?})"))?,
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let trace = match FleetTrace::decode(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let policy =
        policy_by_name(&policy_name).ok_or_else(|| format!("unknown policy {policy_name:?}"))?;
    let spec = spec_for_trace(&trace, hosts, threads);
    spec.validate()?;
    let chaos = match chaos_seed {
        None => None,
        Some(cs) => {
            let hosts = u16::try_from(hosts)
                .map_err(|_| format!("hosts {hosts} out of range for a chaos plan (u16)"))?;
            let cspec = FleetChaosSpec::for_fleet(hosts, trace.horizon_ns);
            Some(FleetChaosPlan::generate(cs, &cspec))
        }
    };
    let mut cluster = match fleet_threads {
        Some(n) => Cluster::with_threads(spec, mode, policy, seed, n),
        None => Cluster::new(spec, mode, policy, seed),
    };
    if let Some(plan) = &chaos {
        cluster.set_chaos(plan.clone());
        cluster.set_migration_mode(migration);
    }
    let s = cluster.run();
    println!(
        "replayed {path} (profile {:?}) on {hosts}x{threads} {} / {policy_name}",
        trace.profile,
        mode.label()
    );
    if let Some(plan) = &chaos {
        println!(
            "  chaos seed {:#x}: {} planned faults ({} migration); \
             failures {} migrated {} evac-failed {} shed {} stranded {}",
            plan.seed,
            plan.events.len(),
            migration.name(),
            s.host_failures,
            s.migrations,
            s.evacuations_failed,
            s.shed_admissions,
            s.stranded
        );
    }
    println!(
        "  admitted {} = placed {} + rejected {}; completed {} dropped {}",
        s.admitted, s.placed, s.rejected, s.completed, s.dropped
    );
    println!(
        "  p50 {:.3}ms p99 {:.3}ms worst-tenant p99 {:.3}ms fairness {:.3}",
        s.p50_ms, s.p99_ms, s.worst_tenant_p99_ms, s.fairness
    );
    println!(
        "  tier p99 ms: critical {:.3} standard {:.3} batch {:.3} (tenants {}/{}/{})",
        s.tier_p99_ms[0],
        s.tier_p99_ms[1],
        s.tier_p99_ms[2],
        s.tier_tenants[0],
        s.tier_tenants[1],
        s.tier_tenants[2]
    );
    println!(
        "  trace events {} violations {} slo violations {}/{} measured",
        s.trace_events, s.violations, s.slo_violations, s.measured_tenants
    );
    if s.violations > 0 {
        eprintln!(
            "replay violated trace laws: {} (first: {:?})",
            s.violations, s.first_law
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
