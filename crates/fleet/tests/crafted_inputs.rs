//! Crafted file inputs the decoders must reject with a named field.
//!
//! Trace files and repro plans come from outside the program. A header
//! count must never size an allocation, and an integer too wide for its
//! field must be an error, never a silent truncation (`300 as u8` = 44
//! would replay a resize nobody wrote). Traces are checked through the
//! library and through the `fleettrace` binary: exit 1 with the line and
//! field named, never a panic (exit 101) or an abort (no exit code). A
//! fleet too wide for its host ids, a stepping pool past its bound and a
//! horizon too long for a u64 of nanoseconds are usage errors (exit 2).

use simcore::plan::Plan;
use std::process::Command;
use vsched_fleet::{FleetChaosPlan, FleetTrace};

/// An arrival and a resize of it, with the header's record count, the
/// arrival's uid and the resize's quota spliced in.
fn trace(records: &str, uid: &str, quota: &str) -> String {
    let header = r#"{"day_seed":7,"format":"vsched-fleet-trace","horizon_ns":1000000000,"profile":"x","records":N,"version":1}"#;
    let arrive = r#"{"at":10000000,"op":"arrive","prio":"standard","uid":N,"vcpus":2}"#;
    let resize = r#"{"at":20000000,"op":"resize","quota_pct":N,"uid":0}"#;
    let splice = |(line, n): (&str, &str)| line.replace('N', n);
    let [h, a, r] = [(header, records), (arrive, uid), (resize, quota)].map(splice);
    format!("{h}\n{a}\n{r}\n")
}

/// `(records, uid, quota_pct, line, error)`: one crafted value per case.
const CRAFTED: [(&str, &str, &str, usize, &str); 4] = [
    ("18446744073709551615", "0", "50", 1, "records but body"),
    ("4000000000000", "0", "50", 1, "records but body"),
    ("2", "0", "300", 3, "quota_pct 300 out of range for u8"),
    ("2", "4294967320", "50", 2, "uid 4294967320 out of range"),
];

#[test]
fn crafted_traces_are_line_and_field_errors() {
    FleetTrace::decode(&trace("2", "0", "50")).expect("the uncrafted trace decodes");
    for (records, uid, quota, line, want) in CRAFTED {
        let e = FleetTrace::decode(&trace(records, uid, quota)).unwrap_err();
        assert_eq!((e.line, e.msg.contains(want)), (line, true), "{e}");
    }
}

#[test]
fn fleettrace_exits_one_without_a_panic_on_crafted_traces() {
    let path = std::env::temp_dir().join(format!("vsched_crafted_{}.jsonl", std::process::id()));
    for (records, uid, quota, line, want) in CRAFTED {
        std::fs::write(&path, trace(records, uid, quota)).unwrap();
        for cmd in ["validate", "replay"] {
            let bin = env!("CARGO_BIN_EXE_fleettrace");
            let out = Command::new(bin).arg(cmd).arg(&path).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
            let named = stderr.contains(&format!("line {line}: ")) && stderr.contains(want);
            assert!(named, "{cmd}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Replays the uncrafted trace with `flag 70000`; returns the exit code
/// and stderr.
fn replay_with_70000(flag: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("vsched_wide{flag}_{}.jsonl", std::process::id()));
    std::fs::write(&path, trace("2", "0", "50")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fleettrace"))
        .args(["replay", path.to_str().unwrap(), flag, "70000"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// A fleet wider than a 16-bit host id is a usage error (exit 2) naming
/// `hosts`, caught before any host is built.
#[test]
fn fleettrace_replay_rejects_more_hosts_than_ids() {
    let (code, stderr) = replay_with_70000("--hosts");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("hosts must be at most 65536 (got 70000)"),
        "{stderr}"
    );
}

/// So is a host wider than a 16-bit thread id, naming `threads_per_host`;
/// validation runs before the host is built, so no such host exists.
#[test]
fn fleettrace_replay_rejects_more_threads_than_ids() {
    let (code, stderr) = replay_with_70000("--threads");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("threads_per_host must be at most 65536 (got 70000)"),
        "{stderr}"
    );
}

/// A stepping pool past `MAX_FLEET_THREADS` is a usage error naming
/// `fleet_threads`, refused while parsing, before any thread starts.
#[test]
fn fleettrace_replay_rejects_an_oversized_stepping_pool() {
    let (code, stderr) = replay_with_70000("--fleet-threads");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("fleet_threads must be at most 256 (got 70000)"),
        "{stderr}"
    );
}

/// A horizon whose nanoseconds overflow a u64 is a usage error naming
/// `--horizon-secs`, refused before any synthesis.
#[test]
fn fleettrace_gen_rejects_an_overflowing_horizon() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleettrace"))
        .args(["gen", "--profile", "sap-diurnal", "--horizon-secs"])
        .arg(u64::MAX.to_string())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--horizon-secs must be at most 18446744073 (got 18446744073709551615)"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "gen synthesized a trace");
}

#[test]
fn fleet_chaos_plan_hosts_wider_than_u16_is_a_field_error() {
    let plan = r#"{"events":[],"seed":1,"spec":{"horizon_ns":1000,"hosts":70000,"max_down_ns":9,"mean_gap_ns":5,"min_down_ns":1,"ops":["Crash"],"start_ns":0}}"#;
    let e = FleetChaosPlan::from_json(plan).unwrap_err();
    assert_eq!(e, "spec.hosts 70000 out of range for u16");
    assert!(FleetChaosPlan::from_json(&plan.replace("70000", "7")).is_ok());
}
