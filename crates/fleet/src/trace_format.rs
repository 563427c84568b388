//! Compact, versioned fleet-trace format.
//!
//! A trace is a replayable day of VM lifecycle churn: timestamped
//! arrive/depart/resize records with tenant priority class and requested
//! vCPU shape. The on-disk shape is JSON-lines so validation errors can
//! point at the offending line:
//!
//! ```text
//! {"day_seed":7,"format":"vsched-fleet-trace","horizon_ns":...,"profile":"sap-diurnal","records":2,"version":1}
//! {"at":12000000,"op":"arrive","prio":"standard","uid":0,"vcpus":2}
//! {"at":52000000,"op":"depart","uid":0}
//! ```
//!
//! Every value is an integer or a short enum string, rendered through
//! [`simcore::json`] (sorted keys, exact u64), so `encode` is a pure
//! function of the trace and `decode(encode(t)) == t` exactly.

use crate::lifecycle::{LifecycleEvent, VmOp};
use simcore::json::{Field, Json};
use std::collections::BTreeSet;
use std::fmt;
use trace::PriorityClass;

/// Format tag in the header line; anything else is rejected.
pub const FORMAT_TAG: &str = "vsched-fleet-trace";
/// Current (only) format version.
pub const FORMAT_VERSION: u64 = 1;

/// A decoded fleet trace: provenance (which generator profile and day
/// seed produced it) plus the event schedule itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTrace {
    /// Generator profile name (or a free-form label for hand-written traces).
    pub profile: String,
    /// Seed the generator ran with — provenance only; replay never re-draws.
    pub day_seed: u64,
    /// Simulated duration the trace covers; every record's `at` is below it.
    pub horizon_ns: u64,
    /// Time-sorted lifecycle schedule.
    pub events: Vec<LifecycleEvent>,
}

/// A line-precise trace decode/validation error. Line 1 is the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number the error was detected on (0 = whole-file).
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for TraceError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError {
        line,
        msg: msg.into(),
    })
}

fn record_json(e: &LifecycleEvent) -> Json {
    let at = Json::Uint(e.at.ns());
    match e.op {
        VmOp::Arrive { uid, vcpus, prio } => Json::obj([
            ("at", at),
            ("op", Json::Str("arrive".into())),
            ("prio", Json::Str(prio.name().into())),
            ("uid", Json::Uint(uid as u64)),
            ("vcpus", Json::Uint(vcpus as u64)),
        ]),
        VmOp::Depart { uid } => Json::obj([
            ("at", at),
            ("op", Json::Str("depart".into())),
            ("uid", Json::Uint(uid as u64)),
        ]),
        VmOp::Resize { uid, quota_pct } => Json::obj([
            ("at", at),
            ("op", Json::Str("resize".into())),
            ("quota_pct", Json::Uint(quota_pct as u64)),
            ("uid", Json::Uint(uid as u64)),
        ]),
    }
}

/// Tags a decode error with the line it was found on.
fn on_line(line: usize) -> impl Fn(String) -> TraceError {
    move |msg| TraceError { line, msg }
}

/// Parses the header line: checks the format tag and version, then reads
/// the provenance into a trace with no events yet, and the declared record
/// count. The count is outside input, checked against the body, never
/// allocated for.
fn parse_header(f: &Field) -> Result<(FleetTrace, u64), String> {
    match f.get("format")?.str()? {
        FORMAT_TAG => {}
        other => return Err(format!("format {other:?} is not {FORMAT_TAG:?}")),
    }
    match f.get("version")?.u64()? {
        FORMAT_VERSION => {}
        v => return Err(format!("unsupported version {v} (want {FORMAT_VERSION})")),
    }
    let trace = FleetTrace {
        profile: f.get("profile")?.str()?.to_string(),
        day_seed: f.get("day_seed")?.u64()?,
        horizon_ns: f.get("horizon_ns")?.u64()?,
        events: Vec::new(),
    };
    Ok((trace, f.get("records")?.u64()?))
}

fn parse_record(rec: &Field) -> Result<LifecycleEvent, String> {
    let at = rec.get("at")?.time()?;
    let uid = || rec.get("uid")?.int();
    let op_field = rec.get("op")?;
    let op = match op_field.str()? {
        "arrive" => VmOp::Arrive {
            uid: uid()?,
            vcpus: rec.get("vcpus")?.int()?,
            prio: rec.get("prio")?.name(PriorityClass::from_name)?,
        },
        "depart" => VmOp::Depart { uid: uid()? },
        "resize" => VmOp::Resize {
            uid: uid()?,
            quota_pct: rec.get("quota_pct")?.int()?,
        },
        other => return Err(format!("unknown {} {other:?}", op_field.path())),
    };
    Ok(LifecycleEvent { at, op })
}

impl FleetTrace {
    /// Renders the trace as JSON-lines: header, then one record per line.
    /// Deterministic byte-for-byte (sorted keys, exact integers).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &Json::obj([
                ("day_seed", Json::Uint(self.day_seed)),
                ("format", Json::Str(FORMAT_TAG.into())),
                ("horizon_ns", Json::Uint(self.horizon_ns)),
                ("profile", Json::Str(self.profile.clone())),
                ("records", Json::Uint(self.events.len() as u64)),
                ("version", Json::Uint(FORMAT_VERSION)),
            ])
            .render(),
        );
        out.push('\n');
        for e in &self.events {
            out.push_str(&record_json(e).render());
            out.push('\n');
        }
        out
    }

    /// Parses and validates a trace written by [`FleetTrace::encode`].
    /// Errors carry the 1-based line they were detected on.
    pub fn decode(text: &str) -> Result<FleetTrace, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header_line) = match lines.next() {
            Some(pair) => pair,
            None => return err(1, "empty trace: missing header line"),
        };
        let header = Json::parse(header_line).map_err(|e| TraceError {
            line: 1,
            msg: format!("header is not valid JSON: {e}"),
        })?;
        let (mut trace, declared) = parse_header(&Field::root(&header)).map_err(on_line(1))?;
        // Records are collected as lines arrive.
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                return err(lineno, "blank line inside trace body");
            }
            let doc = Json::parse(line).map_err(|e| TraceError {
                line: lineno,
                msg: format!("record is not valid JSON: {e}"),
            })?;
            let record = parse_record(&Field::root(&doc)).map_err(on_line(lineno))?;
            trace.events.push(record);
        }
        let body = trace.events.len();
        if body as u64 != declared {
            let msg = format!("header declares {declared} records but body has {body}");
            return err(1, msg);
        }
        trace.validate()?;
        Ok(trace)
    }

    /// Semantic validation: sorted timestamps inside the horizon, unique
    /// arrivals, and depart/resize only against live VMs. Errors name the
    /// offending record's line (header is line 1, so record `i` is line
    /// `i + 2`).
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.horizon_ns == 0 {
            return err(1, "horizon_ns must be positive (got 0)");
        }
        let mut last_at = 0u64;
        let mut live: BTreeSet<u32> = BTreeSet::new();
        let mut ever: BTreeSet<u32> = BTreeSet::new();
        for (i, e) in self.events.iter().enumerate() {
            let lineno = i + 2;
            let at = e.at.ns();
            if at < last_at {
                return err(
                    lineno,
                    format!("timestamp {at} goes backwards (previous record at {last_at})"),
                );
            }
            if at >= self.horizon_ns {
                return err(
                    lineno,
                    format!(
                        "timestamp {at} is at or past horizon_ns {}",
                        self.horizon_ns
                    ),
                );
            }
            last_at = at;
            match e.op {
                VmOp::Arrive { uid, vcpus, .. } => {
                    if vcpus == 0 {
                        return err(lineno, format!("vm {uid} arrives with 0 vcpus"));
                    }
                    if !ever.insert(uid) {
                        return err(lineno, format!("vm {uid} arrives twice"));
                    }
                    live.insert(uid);
                }
                VmOp::Depart { uid } => {
                    if !live.remove(&uid) {
                        return err(lineno, format!("vm {uid} departs while not live"));
                    }
                }
                VmOp::Resize { uid, quota_pct } => {
                    if !live.contains(&uid) {
                        return err(lineno, format!("vm {uid} resized while not live"));
                    }
                    if quota_pct == 0 || quota_pct > 100 {
                        return err(
                            lineno,
                            format!("vm {uid} resize quota_pct {quota_pct} outside 1..=100"),
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn sample() -> FleetTrace {
        FleetTrace {
            profile: "hand-written".into(),
            day_seed: 7,
            horizon_ns: 1_000_000_000,
            events: vec![
                LifecycleEvent {
                    at: SimTime::from_ns(10_000_000),
                    op: VmOp::Arrive {
                        uid: 0,
                        vcpus: 2,
                        prio: PriorityClass::Critical,
                    },
                },
                LifecycleEvent {
                    at: SimTime::from_ns(20_000_000),
                    op: VmOp::Resize {
                        uid: 0,
                        quota_pct: 50,
                    },
                },
                LifecycleEvent {
                    at: SimTime::from_ns(900_000_000),
                    op: VmOp::Depart { uid: 0 },
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let t = sample();
        let text = t.encode();
        let back = FleetTrace::decode(&text).expect("decodes");
        assert_eq!(t, back);
        assert_eq!(text, back.encode(), "re-encode is byte-identical");
    }

    #[test]
    fn decode_errors_carry_line_numbers() {
        let t = sample();
        let text = t.encode();

        // Corrupt record 2 (line 3): flip "depart" to an unknown op.
        let corrupted = text.replace("\"depart\"", "\"explode\"");
        let e = FleetTrace::decode(&corrupted).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("unknown op \"explode\""), "{e}");

        // An empty document has no header on line 1.
        assert_eq!(FleetTrace::decode("").unwrap_err().line, 1);

        // Drop the last record: header count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let truncated = lines.join("\n");
        let e = FleetTrace::decode(&truncated).unwrap_err();
        assert!(e.msg.contains("declares 3 records"), "{e}");

        // Bad header format tag.
        let bad_tag = text.replace(FORMAT_TAG, "other-format");
        let e = FleetTrace::decode(&bad_tag).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn validate_rejects_semantic_violations() {
        let mut t = sample();
        t.events[2].op = VmOp::Depart { uid: 9 };
        let e = t.validate().unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("vm 9 departs while not live"), "{e}");

        let mut t = sample();
        t.events[1].at = SimTime::from_ns(5_000_000); // before the arrival
        assert!(t.validate().unwrap_err().msg.contains("goes backwards"));

        let mut t = sample();
        t.horizon_ns = 100_000_000; // depart lands past the horizon
        assert!(t.validate().unwrap_err().msg.contains("past horizon_ns"));
    }
}
