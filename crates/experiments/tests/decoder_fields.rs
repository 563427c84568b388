//! Missing-field sweep over every on-disk decoder.
//!
//! One valid document per decoder — the three repro-plan types, a fleet
//! spec, a fleet trace (JSON-lines and embedded) and a checkpoint
//! manifest. Each required member is removed in turn, and the decoder
//! must fail with an error that names the member's full dotted path
//! (`missing events[0].vcpu`), so a hand-edited file is fixable from the
//! message alone.

use experiments::checkpoint::{Checkpoint, CkptKey};
use fleet::{FleetChaosPlan, FleetChaosSpec, FleetSpec, FleetTrace};
use hostsim::{ChaosSpec, FaultPlan};
use simcore::json::Json;
use simcore::plan::Plan;
use simcore::time::MS;
use workloads::{AttackPlan, AttackSpec};

/// Every object member of `doc` as `(path suffix, doc without it)`, the
/// suffix like `.spec.threads` or `[0].vcpu`, descending into objects and
/// into the first element of each array.
fn removals(doc: &Json) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    match doc {
        Json::Obj(m) => {
            for (key, value) in m {
                let mut without = m.clone();
                without.remove(key);
                out.push((format!(".{key}"), Json::Obj(without)));
                for (sub, value) in removals(value) {
                    let mut with = m.clone();
                    with.insert(key.clone(), value);
                    out.push((format!(".{key}{sub}"), Json::Obj(with)));
                }
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (sub, first) in removals(&items[0]) {
                let mut with = items.clone();
                with[0] = first;
                out.push((format!("[0]{sub}"), Json::Arr(with)));
            }
        }
        _ => {}
    }
    out
}

/// Removes each member of `doc` except the `optional` ones and requires
/// `decode` to name it. Returns how many members were swept.
fn sweep(
    what: &str,
    doc: &str,
    optional: &[&str],
    decode: impl Fn(&str) -> Result<(), String>,
) -> usize {
    decode(doc).unwrap_or_else(|e| panic!("{what}: the valid document fails: {e}"));
    let mut swept = 0;
    for (suffix, broken) in removals(&Json::parse(doc).unwrap()) {
        let path = &suffix[1..];
        if optional.contains(&path) {
            continue;
        }
        let want = format!("missing {path}");
        match decode(&broken.render()) {
            Ok(()) => panic!("{what}: decoded without {path}"),
            Err(e) => assert!(e.contains(&want), "{what}: want {want:?}, got {e:?}"),
        }
        swept += 1;
    }
    swept
}

fn sweep_plan<P: Plan>(what: &str, plan: &P) {
    assert!(!plan.events().is_empty(), "{what}: want a non-empty plan");
    let swept = sweep(what, &plan.to_json(), &[], |t| P::from_json(t).map(drop));
    assert!(swept > 8, "{what}: only {swept} members swept");
}

#[test]
fn repro_plans_name_every_missing_field() {
    let spec = ChaosSpec::for_pinned_vm(0, 4, 3_000 * MS);
    sweep_plan("FaultPlan", &FaultPlan::generate(5, &spec));
    let spec = FleetChaosSpec::for_fleet(4, 3_000 * MS);
    sweep_plan("FleetChaosPlan", &FleetChaosPlan::generate(5, &spec));
    let spec = AttackSpec::for_vm(2, 2_000 * MS);
    sweep_plan("AttackPlan", &AttackPlan::generate(5, &spec));
}

#[test]
fn fleet_spec_names_every_missing_field() {
    // Absent churn and tier targets mean an older spec shape, not an error.
    let optional = [
        "churn",
        "slo_crit_p99_ns",
        "slo_std_p99_ns",
        "slo_batch_p99_ns",
    ];
    let doc = FleetSpec::small(4, 2, 1).to_json();
    let decode = |t: &str| FleetSpec::from_json(t).map(drop);
    let swept = sweep("FleetSpec", &doc, &optional, decode);
    assert_eq!(swept, 12);
}

/// A trace with one record of each op.
const TRACE: &str = r#"{"day_seed":7,"format":"vsched-fleet-trace","horizon_ns":1000000000,"profile":"x","records":3,"version":1}
{"at":10000000,"op":"arrive","prio":"critical","uid":0,"vcpus":2}
{"at":20000000,"op":"resize","quota_pct":50,"uid":0}
{"at":900000000,"op":"depart","uid":0}
"#;

#[test]
fn fleet_trace_lines_name_every_missing_field_and_its_line() {
    let lines: Vec<&str> = TRACE.lines().collect();
    let mut swept = 0;
    for (i, line) in lines.iter().enumerate() {
        // Decodes the whole trace with line `i` replaced, and reports the
        // error only if it is on that line.
        let decode = |replacement: &str| {
            let mut edited = lines.clone();
            edited[i] = replacement;
            match FleetTrace::decode(&(edited.join("\n") + "\n")) {
                Ok(_) => Ok(()),
                Err(e) if e.line == i + 1 => Err(e.msg),
                Err(e) => Err(format!("wrong line: {e}")),
            }
        };
        swept += sweep(&format!("trace line {}", i + 1), line, &[], decode);
    }
    // Header: six members; records: five, four and three.
    assert_eq!(swept, 18);
}

#[test]
fn embedded_fleet_trace_names_every_missing_field() {
    let doc = FleetTrace::decode(TRACE).unwrap().to_json_value().render();
    let swept = sweep("embedded trace", &doc, &[], |t| {
        FleetTrace::from_json_value(&Json::parse(t).unwrap())
            .map(drop)
            .map_err(|e| e.msg)
    });
    // Five header members, `events`, and the first record's five.
    assert_eq!(swept, 11);
}

#[test]
fn checkpoint_manifest_names_every_missing_field() {
    let dir = std::env::temp_dir().join(format!("vsched_manifest_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = CkptKey {
        version: "test-v1".into(),
        seed: 42,
        scale: "smoke".into(),
        filter: "fig03".into(),
    };
    let mut ck = Checkpoint::create(&dir, key.clone()).unwrap();
    ck.record("fig03", "fig03 output\n").unwrap();
    let manifest = dir.join("MANIFEST.json");
    let doc = std::fs::read_to_string(&manifest).unwrap();
    // Jobs are a set keyed by name: a dropped entry re-executes.
    let swept = sweep("MANIFEST.json", &doc, &["jobs.fig03"], |t| {
        std::fs::write(&manifest, t).unwrap();
        let (_, note) = Checkpoint::resume(&dir, key.clone()).unwrap();
        note.map_or(Ok(()), Err)
    });
    // The four key members, `jobs`, and the job's three.
    assert_eq!(swept, 8);
    let _ = std::fs::remove_dir_all(&dir);
}
