//! What a run reports, and the helpers every workload shares.

use simcore::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics of a traced run, with their units. Each workload
/// fills in the layers it reaches; a layer it never calls into reads 0.
/// The `suite.job.<id>_s` rows come from [`crate::suite::job_names`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.events", "count"),
    ("core.ns_per_event", "ns"),
    ("guestos.context_switches", "count"),
    ("guestos.migrations", "count"),
    ("guestos.pelt_update_ns", "ns"),
    ("hostsim.llc_advance_ns", "ns"),
    ("vsched.hook_calls", "count"),
    ("vsched.hook_self_s", "s"),
    ("vsched.select_cpu_calls", "count"),
    ("vsched.bvs_pick_ratio", "ratio"),
    ("vsched.timer_calls", "count"),
    ("workloads.calls", "count"),
    ("workloads.self_s", "s"),
    ("trace.events", "count"),
    ("trace.emit_check_s", "s"),
    ("trace.check_ns_per_event", "ns"),
    ("fleet.host_events", "count"),
    ("fleet.ns_per_host_event", "ns"),
    ("fleet.place_calls", "count"),
    ("fleet.place_self_s", "s"),
    ("fleet.views_per_call", "count"),
    ("fleet.admitted", "count"),
    ("fleet.trace_events", "count"),
    ("experiments.runner_overhead_s", "s"),
];

/// A run's checks and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units: segments, cluster runs or suite jobs.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Counts one checked unit; a failure is named on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# check failed: {}", what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, &(value, unit))| {
                let m = Json::obj([("value", Json::Float(value)), ("unit", Json::from(unit))]);
                (name.clone(), m)
            })
            .collect();
        Json::obj([
            (
                "correct",
                Json::Bool(self.attempted > 0 && self.failed == 0),
            ),
            ("attempted", Json::Uint(self.attempted)),
            ("failed", Json::Uint(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// How many repetitions a run of `seconds` makes, given what one takes on
/// the reference machine (`nominal_s`): at least `min`. The count depends
/// on the requested seconds alone, never on how fast the code under test
/// is, so both sides of a comparison do the same work.
pub fn repetitions(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// The fastest of a run's repetitions of one piece of work, from which
/// the gated `wall_s` and `setup_s` are built. Interference from other
/// tenants of a shared machine only ever adds time, and comes in bursts
/// that outlast whole repetitions, so the fastest repetition is the
/// steadiest estimate of the work's own cost.
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Wall seconds `f` takes, and what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let value = f();
    (t0.elapsed().as_secs_f64(), value)
}

/// FNV-1a over words: a digest of simulated statistics, which every
/// repetition of a deterministic run must reproduce bit for bit.
pub fn digest(words: &[u64]) -> u64 {
    digest_bytes(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// FNV-1a over bytes.
pub fn digest_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
