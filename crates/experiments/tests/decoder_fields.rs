//! Missing-field sweep and mutation propcheck over every on-disk decoder.
//!
//! One valid document per decoder — the three repro-plan types, a fleet
//! spec and a fleet trace (JSON-lines and embedded). Each required member
//! is removed in turn, and the decoder must fail with an error that names
//! the member's full dotted path (`missing events[0].vcpu`), so a
//! hand-edited file is fixable from the message alone. The same documents,
//! truncated, bit-flipped, with a member duplicated or a number pushed out
//! of range, must decode or fail with a message, never panic.

use fleet::{FleetChaosPlan, FleetChaosSpec, FleetSpec, FleetTrace};
use hostsim::{ChaosSpec, FaultPlan};
use simcore::json::Json;
use simcore::plan::Plan;
use simcore::propcheck;
use simcore::time::MS;
use simcore::SimRng;
use std::panic;
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

/// The spans of every number token outside strings in `text`.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let (mut spans, mut in_str, mut i) = (Vec::new(), false, 0);
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'-' | b'0'..=b'9' if !in_str => {
                let start = i;
                while i + 1 < b.len()
                    && matches!(b[i + 1], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                spans.push((start, i + 1));
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// `doc` rendered with member `member` (mod its size) of the `target`-th
/// object, in pre-order, written twice.
fn with_duplicate(doc: &Json, target: usize, member: usize) -> String {
    fn render(doc: &Json, seen: &mut usize, target: usize, member: usize) -> String {
        match doc {
            Json::Obj(m) => {
                let dup = (*seen == target).then(|| member % m.len().max(1));
                *seen += 1;
                let mut members = Vec::new();
                for (i, (k, v)) in m.iter().enumerate() {
                    let kv = format!(
                        "{}:{}",
                        Json::Str(k.clone()).render(),
                        render(v, seen, target, member)
                    );
                    if dup == Some(i) {
                        members.push(kv.clone());
                    }
                    members.push(kv);
                }
                format!("{{{}}}", members.join(","))
            }
            Json::Arr(items) => {
                let items: Vec<String> = items
                    .iter()
                    .map(|v| render(v, seen, target, member))
                    .collect();
                format!("[{}]", items.join(","))
            }
            leaf => leaf.render(),
        }
    }
    render(doc, &mut 0, target, member)
}

/// How many objects `doc` holds, itself included.
fn objects(doc: &Json) -> usize {
    match doc {
        Json::Obj(m) => 1 + m.values().map(objects).sum::<usize>(),
        Json::Arr(items) => items.iter().map(objects).sum(),
        _ => 0,
    }
}

/// One random mutation of `doc` (JSON-lines documents mutate one line):
/// truncation, a bit flip, a duplicated member, or a number replaced by an
/// out-of-range one.
fn mutate(doc: &str, kind: usize, rng: &mut SimRng) -> String {
    match kind {
        0 => doc[..rng.index(doc.len())].to_string(),
        1 => {
            let mut bytes = doc.as_bytes().to_vec();
            let i = rng.index(bytes.len());
            bytes[i] ^= 1 << rng.index(8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        2 => {
            let mut lines: Vec<String> = doc.lines().map(str::to_string).collect();
            let i = rng.index(lines.len());
            let line = Json::parse(&lines[i]).unwrap();
            lines[i] = with_duplicate(&line, rng.index(objects(&line)), rng.index(64));
            lines.join("\n") + if doc.ends_with('\n') { "\n" } else { "" }
        }
        _ => {
            let spans = number_spans(doc);
            let (a, b) = spans[rng.index(spans.len())];
            let wide = ["-1", "1e30", "18446744073709551616"][rng.index(3)];
            format!("{}{wide}{}", &doc[..a], &doc[b..])
        }
    }
}

/// Every decoder, each reducing its result to `Ok(())` or its message.
type Decoder = (&'static str, fn(&str) -> Result<(), String>);

const DECODERS: [Decoder; 6] = [
    ("FaultPlan", |t| FaultPlan::from_json(t).map(drop)),
    ("FleetChaosPlan", |t| FleetChaosPlan::from_json(t).map(drop)),
    ("AttackPlan", |t| AttackPlan::from_json(t).map(drop)),
    ("FleetSpec", |t| FleetSpec::from_json(t).map(drop)),
    ("FleetTrace::decode", |t| {
        FleetTrace::decode(t).map(drop).map_err(|e| e.msg)
    }),
    ("FleetTrace::from_json_value", |t| {
        let doc = Json::parse(t).map_err(|e| e.to_string())?;
        FleetTrace::from_json_value(&doc)
            .map(drop)
            .map_err(|e| e.msg)
    }),
];

/// Mutated documents never panic a decoder: each decodes or fails with a
/// message. `DECODER_SEED` reseeds the sweep, so a CI failure replays
/// with `DECODER_SEED=<seed> cargo test -p experiments --test
/// decoder_fields mutated`.
#[test]
fn mutated_documents_decode_or_fail_with_a_message() {
    let seed = std::env::var("DECODER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xDEC0DE);
    let docs = [
        FaultPlan::generate(5, &ChaosSpec::for_pinned_vm(0, 4, 3_000 * MS)).to_json(),
        FleetChaosPlan::generate(5, &FleetChaosSpec::for_fleet(4, 3_000 * MS)).to_json(),
        AttackPlan::generate(5, &AttackSpec::for_vm(2, 2_000 * MS)).to_json(),
        FleetSpec::small(4, 2, 1).to_json(),
        TRACE.to_string(),
        FleetTrace::decode(TRACE).unwrap().to_json_value().render(),
    ];
    propcheck::forall(seed, 64, |rng| {
        for doc in &docs {
            for kind in 0..4 {
                let mutated = mutate(doc, kind, rng);
                for (name, decode) in DECODERS {
                    let outcome = panic::catch_unwind(|| decode(&mutated));
                    match outcome {
                        Ok(Err(e)) => assert!(!e.is_empty(), "{name}: empty error on {mutated}"),
                        Ok(Ok(())) => {}
                        Err(_) => panic!(
                            "{name} panicked on mutation {kind} (DECODER_SEED={seed}): {mutated}"
                        ),
                    }
                }
            }
        }
    });
}
