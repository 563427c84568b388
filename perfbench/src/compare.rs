//! Compare mode: a parent's and a change's result sets, judged under
//! `BENCHMARK.json`'s bounds by the rule of choosing-metrics §6–8.
//!
//! Runs pair up in file order, so record parent and change alternately
//! with the same seeds (`--out`). For each workload and end-to-end metric
//! the verdict is
//!
//! * **better** when the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ, the right way, by
//!   more than the parent's quartile spread;
//! * **unresolved** when either side's quartile spread, as a share of its
//!   median, is wider than the bound, unless every change run beats every
//!   parent run;
//! * **worse** when the change's median is worse than the parent's by
//!   more than the bound;
//! * **same** otherwise.

use crate::stats::{median, quartiles};
use simcore::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// The outcome of comparing one workload's metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the nine-pairs-in-ten rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound.
    Same,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent`, runs paired by index.
pub fn verdict(parent: &[f64], change: &[f64], better: Direction, bound: f64) -> Verdict {
    let (Some([p1, pm, p3]), Some([c1, cm, c3])) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    let sign = match better {
        Direction::Lower => -1.0,
        Direction::Higher => 1.0,
    };
    let ahead = |c: f64, p: f64| sign * (c - p) > 0.0;
    let gain = sign * (cm - pm);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| ahead(c, p))
        .count();
    if wins * 10 >= pairs * 9 && gain > p3 - p1 {
        return Verdict::Better;
    }
    let spread = ((p3 - p1) / pm.abs()).max((c3 - c1) / cm.abs());
    if spread.is_nan() || spread > bound {
        let dominates = change.iter().all(|&c| parent.iter().all(|&p| ahead(c, p)));
        return if dominates {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound * pm.abs() {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// An end-to-end metric's gate from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Which way it improves.
    pub better: Direction,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` gates of a parsed `BENCHMARK.json`.
pub fn gates(bench: &Json) -> Result<Vec<Gate>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("an end_to_end entry has no name")?
                .to_string();
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Direction::Lower,
                Some("higher") => Direction::Higher,
                _ => return Err(format!("{name}: better must be \"lower\" or \"higher\"")),
            };
            let bound = m
                .get("bound")
                .and_then(number)
                .ok_or_else(|| format!("{name}: bound is not a number"))?;
            Ok(Gate {
                name,
                better,
                bound,
            })
        })
        .collect()
}

fn number(j: &Json) -> Option<f64> {
    match *j {
        Json::Float(x) => Some(x),
        Json::Uint(n) => Some(n as f64),
        Json::Int(n) => Some(n as f64),
        _ => None,
    }
}

/// One run's result, as `--out` records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Checked units.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Reads a record; `None` if `j` is not one.
    pub fn from_json(j: &Json) -> Option<Record> {
        let result = j.get("result")?;
        let Json::Obj(metrics) = result.get("metrics")? else {
            return None;
        };
        Some(Record {
            workload: j.get("workload")?.as_str()?.to_string(),
            trace: j.get("trace")?.as_bool()?,
            attempted: result.get("attempted")?.as_u64()?,
            failed: result.get("failed")?.as_u64()?,
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), number(v.get("value")?)?)))
                .collect(),
        })
    }
}

/// Parses a result set, one record per non-empty line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let j = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            Record::from_json(&j).ok_or_else(|| format!("line {}: not a perfbench record", i + 1))
        })
        .collect()
}

/// The comparison table: per workload, each side's failed units, then per
/// gate both sides' run counts, medians and quartiles, the change of the
/// median and the verdict. Traced runs are left out: their metrics are
/// per-layer.
pub fn report(parent: &[Record], change: &[Record], gates: &[Gate]) -> String {
    let untraced = |set: &[Record], w: &str| -> Vec<Record> {
        set.iter()
            .filter(|r| !r.trace && r.workload == w)
            .cloned()
            .collect()
    };
    let mut workloads: Vec<&str> = parent
        .iter()
        .chain(change)
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    for w in workloads {
        let (p, c) = (untraced(parent, w), untraced(change, w));
        let failed = |set: &[Record]| {
            let f: u64 = set.iter().map(|r| r.failed).sum();
            let a: u64 = set.iter().map(|r| r.attempted).sum();
            format!("{f}/{a}")
        };
        let _ = writeln!(
            out,
            "{w}: failed units parent {}, change {}",
            failed(&p),
            failed(&c)
        );
        for g in gates {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(&g.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            let v = verdict(&pv, &cv, g.better, g.bound);
            let _ = writeln!(
                out,
                "  {:<12} parent n={:<2} {:<34} change n={:<2} {:<34} {:+7.1}%  {} (bound {:.0}%)",
                g.name,
                pv.len(),
                summary(&pv),
                cv.len(),
                summary(&cv),
                100.0 * (median(&cv) / median(&pv) - 1.0),
                v.label(),
                100.0 * g.bound
            );
        }
    }
    out
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, m, q3]) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:.4}", median(v)),
    }
}
