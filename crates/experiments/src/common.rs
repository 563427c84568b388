//! Shared experiment infrastructure: scheduler configurations, scale
//! control, and result formatting helpers.

use hostsim::Machine;
use trace::{CheckReport, Collector, SharedCollector, TraceSink};
use vsched::VschedConfig;

/// The three scheduler configurations the paper compares (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stock CFS with the default (inaccurate) vCPU abstraction.
    Cfs,
    /// CFS + vProbers + rwc: accurate abstraction feeding the *existing*
    /// heuristics.
    EnhancedCfs,
    /// Full vSched: enhanced CFS plus bvs and ivh.
    Vsched,
}

impl Mode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Cfs => "CFS",
            Mode::EnhancedCfs => "Enhanced CFS",
            Mode::Vsched => "vSched",
        }
    }

    /// Installs this configuration into a VM (no-op for stock CFS).
    pub fn install(&self, m: &mut Machine, vm: usize) {
        let cfg = match self {
            Mode::Cfs => return,
            Mode::EnhancedCfs => VschedConfig::enhanced_cfs(),
            Mode::Vsched => VschedConfig::full(),
        };
        m.with_vm(vm, |g, p| vsched::install(g, p, cfg));
    }

    /// Installs a custom vSched configuration.
    pub fn install_custom(m: &mut Machine, vm: usize, cfg: VschedConfig) {
        m.with_vm(vm, |g, p| vsched::install(g, p, cfg));
    }
}

/// Experiment scale: `Smoke` is for determinism gates and CI smoke runs,
/// `Quick` shrinks durations for CI and bench runs, and `Paper` uses
/// durations closer to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal runs (a fraction of quick): enough simulated time to
    /// exercise every code path, short enough for debug-build gates.
    Smoke,
    /// Short runs (seconds of simulated time).
    Quick,
    /// Longer runs for tighter statistics.
    Paper,
}

impl Scale {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Scales a base duration (seconds of simulated time).
    pub fn secs(&self, quick: u64, paper: u64) -> u64 {
        match self {
            Scale::Smoke => (quick / 4).max(1),
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = ();

    /// Parses a scale name (the suite binary's `--scale` flag).
    fn from_str(s: &str) -> Result<Scale, ()> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "quick" => Ok(Scale::Quick),
            "paper" | "full" => Ok(Scale::Paper),
            _ => Err(()),
        }
    }
}

/// A fresh shared trace collector with the invariant checker enabled and
/// no ring buffer: checked figure runs want the streaming verdict, not the
/// raw event log. Use one collector per [`Machine`] — vCPU and task IDs
/// restart from zero on every machine, so sharing a checker across
/// machines would cross their state.
pub fn checked_collector() -> SharedCollector {
    let (_, shared) = TraceSink::shared(Collector::default().with_checker());
    shared
}

/// Extracts the checker's report from a [`checked_collector`].
pub fn check_report(shared: &SharedCollector) -> CheckReport {
    shared
        .borrow()
        .checker
        .as_ref()
        .expect("collector has a checker")
        .report()
}

/// Formats a ratio as `xx.x%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Normalizes `value` against `base` as the paper's percentage plots do.
pub fn norm_pct(value: f64, base: f64) -> String {
    if base == 0.0 {
        return "n/a".into();
    }
    format!("{:.1}", 100.0 * value / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selects_duration() {
        assert_eq!(Scale::Quick.secs(5, 60), 5);
        assert_eq!(Scale::Paper.secs(5, 60), 60);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Cfs.label(), "CFS");
        assert_eq!(Mode::EnhancedCfs.label(), "Enhanced CFS");
        assert_eq!(Mode::Vsched.label(), "vSched");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(norm_pct(50.0, 100.0), "50.0");
        assert_eq!(norm_pct(1.0, 0.0), "n/a");
    }
}
