//! Graceful degradation under a lying vCPU abstraction.
//!
//! The vProbers assume the host changes slowly enough for their estimates
//! to stay meaningful between windows. Chaos (and real multi-tenant
//! clouds) break that assumption: quotas churn, vCPUs vanish, probe
//! readings gain noise. This module scores how much the current estimates
//! can be trusted and, when trust collapses, moves vSched into an explicit
//! **degraded mode** instead of letting bvs/ivh/rwc act on wrong data:
//!
//! * **Confidence scoring** — each prober (vcap / vact / vtop) carries a
//!   score in `[0, 1]`, updated from the *surprise* of each new window
//!   (how far the fresh aggregate moved against the previous one) and
//!   decayed when a prober goes stale. Probe errors zero the score.
//! * **DegradedMode state machine** — entered when any score falls below
//!   [`ResilCfg::enter_confidence`] (or a prober errors), exited with
//!   hysteresis once every score recovers above
//!   [`ResilCfg::exit_confidence`]. While degraded, vSched falls back to
//!   vanilla-CFS placement (bvs off), stops initiating harvests, abandons
//!   in-flight ivh pulls, and caps rwc relaxation (stragglers unhidden,
//!   no new restrictions) — the paper's machinery re-engages only once
//!   the abstraction is trustworthy again.
//! * **Bounded re-probe with backoff** — while degraded, the layer forces
//!   early re-probes (extra vcap windows, vtop validation) at
//!   exponentially backed-off intervals, at most `MAX_RETRIES` (5) times
//!   per episode, each announced with a `ProbeRetry` trace event.
//!
//! Everything is driven from the watchdog timer vSched arms every
//! `WATCHDOG_PERIOD_NS` (10 ms); the trace events (`DegradedEnter`,
//! `DegradedExit`, `ProbeRetry`, `IvhAbandonedByWatchdog`) are validated
//! by the streaming invariant checker (strict enter/exit alternation,
//! truthful `after_ns`, watchdog abandons only with an outstanding pull).

use crate::error::ProbeError;
use crate::vact::Vact;
use crate::vcap::Vcap;
use guestos::Kernel;
use simcore::time::MS;
use simcore::SimTime;
use trace::{DegradeReason, EventKind, ProbeKind};

/// Watchdog period: staleness decay, stuck-pull scan, retry pacing.
pub(crate) const WATCHDOG_PERIOD_NS: u64 = 10 * MS;
/// First re-probe delay after entering degraded mode; doubles per retry.
pub(crate) const RETRY_BASE_NS: u64 = 250 * MS;
/// Re-probes per degraded episode.
pub(crate) const MAX_RETRIES: u32 = 5;
/// Pending ivh pulls older than this are abandoned by the watchdog.
pub(crate) const PULL_TIMEOUT_NS: u64 = 40 * MS;
/// A prober quiet for longer than this decays toward distrust: its
/// confidence then halves roughly every such interval of further silence.
/// Three vcap window periods ([`crate::tunables::VCAP_LIGHT_EVERY_NS`]).
pub(crate) const STALENESS_NS: u64 = 3_000 * MS;
/// Surprise scale: a relative estimate swing of this size drives one
/// window's confidence contribution to zero.
const SURPRISE_FULL_SCALE: f64 = 0.5;

/// Resilience-layer knobs.
#[derive(Debug, Clone)]
pub struct ResilCfg {
    /// Enter degraded mode when any prober confidence falls below this.
    pub enter_confidence: f64,
    /// Leave degraded mode once every confidence exceeds this (hysteresis).
    pub exit_confidence: f64,
}

impl Default for ResilCfg {
    fn default() -> Self {
        Self {
            enter_confidence: 0.55,
            exit_confidence: 0.75,
        }
    }
}

/// Index of a prober in the confidence arrays. The vcache slot is scored
/// only when the configuration runs the vcache prober (see
/// [`Resilience::set_vcache_enabled`]).
const PROBERS: [ProbeKind; 4] = [
    ProbeKind::Vcap,
    ProbeKind::Vact,
    ProbeKind::Vtop,
    ProbeKind::Vcache,
];

fn idx(p: ProbeKind) -> usize {
    match p {
        ProbeKind::Vcap | ProbeKind::VcapCore => 0,
        ProbeKind::Vact => 1,
        ProbeKind::Vtop => 2,
        ProbeKind::Vcache => 3,
    }
}

/// What the caller (the vSched hook layer) must do after a state-machine
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilAction {
    /// Nothing changed.
    None,
    /// Degraded mode was just entered: abandon in-flight pulls, cap rwc.
    EnteredDegraded,
    /// Degraded mode was just left: normal operation may resume.
    ExitedDegraded,
    /// A bounded re-probe should fire now (extra vcap window, vtop
    /// validation).
    Reprobe(ProbeKind),
}

/// The per-VM resilience state.
pub struct Resilience {
    /// Configuration.
    pub cfg: ResilCfg,
    conf: [f64; 4],
    last_seen: [SimTime; 4],
    /// Whether the vcache slot participates in scoring. Off by default:
    /// a configuration without the vcache prober must not be dragged into
    /// degraded mode by a slot nothing ever feeds.
    vcache_enabled: bool,
    prev_mean_cap: Option<f64>,
    prev_median_lat: Option<u64>,
    prev_mean_pressure: Option<f64>,
    prev_validations: u64,
    prev_failures: u64,
    degraded_since: Option<SimTime>,
    retry_attempt: u32,
    next_retry: SimTime,
    retry_probe: ProbeKind,
    /// Completed degraded episodes (enter + exit pairs).
    pub episodes: u64,
    /// Pulls abandoned by the watchdog over the run.
    pub watchdog_abandons: u64,
}

impl Resilience {
    /// Creates the layer with full initial trust.
    pub fn new(cfg: ResilCfg, now: SimTime) -> Self {
        Self {
            cfg,
            conf: [1.0; 4],
            last_seen: [now; 4],
            vcache_enabled: false,
            prev_mean_cap: None,
            prev_median_lat: None,
            prev_mean_pressure: None,
            prev_validations: 0,
            prev_failures: 0,
            degraded_since: None,
            retry_attempt: 0,
            next_retry: now,
            retry_probe: ProbeKind::Vcap,
            episodes: 0,
            watchdog_abandons: 0,
        }
    }

    /// Whether vSched is currently degraded (bvs/ivh/rwc suppressed).
    pub fn degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// Enables scoring of the vcache slot (call when the configuration
    /// runs the vcache prober).
    pub fn set_vcache_enabled(&mut self, on: bool) {
        self.vcache_enabled = on;
    }

    /// How many slots participate in scoring: the vcache slot only when
    /// its prober runs.
    fn nr_scored(&self) -> usize {
        if self.vcache_enabled {
            PROBERS.len()
        } else {
            PROBERS.len() - 1
        }
    }

    /// Current confidence of a prober.
    pub fn confidence(&self, p: ProbeKind) -> f64 {
        self.conf[idx(p)]
    }

    /// Blends one window's agreement score into a prober's confidence.
    /// `surprise` is the relative swing of the fresh aggregate against the
    /// previous one; [`SURPRISE_FULL_SCALE`] maps it onto `[0, 1]` distrust.
    fn absorb(&mut self, p: ProbeKind, now: SimTime, surprise: f64) {
        let scaled = (surprise / SURPRISE_FULL_SCALE).clamp(0.0, 1.0);
        let i = idx(p);
        self.conf[i] = 0.5 * self.conf[i] + 0.5 * (1.0 - scaled);
        self.last_seen[i] = now;
    }

    /// Feeds a closed vcap window.
    pub fn observe_vcap(&mut self, now: SimTime, vcap: &Vcap) {
        let mean = vcap.mean_cap;
        let surprise = match self.prev_mean_cap {
            Some(prev) if prev > 0.0 => (mean - prev).abs() / prev,
            _ => 0.0,
        };
        self.prev_mean_cap = Some(mean);
        self.absorb(ProbeKind::Vcap, now, surprise);
    }

    /// Feeds the vcap hardening layer's interference-suspicion score: a
    /// gamed prober erodes trust in that prober even while individual
    /// windows still close (their samples rejected), so sustained gaming
    /// drives the VM into degraded mode instead of starving the EMAs
    /// silently. Zero suspicion is a no-op — clean windows already feed
    /// confidence through [`Resilience::observe_vcap`].
    pub fn observe_suspicion(&mut self, now: SimTime, p: ProbeKind, suspicion: f64) {
        if suspicion > 0.0 {
            self.absorb(p, now, suspicion * SURPRISE_FULL_SCALE);
        }
    }

    /// Feeds a closed vact window.
    pub fn observe_vact(&mut self, now: SimTime, vact: &Vact) {
        let lat = vact.median_latency_ns;
        // Latency is zero on a quiet host; normalize swings against a
        // 1 ms floor so a 0 → 50 µs change does not read as infinite.
        let floor = 1_000_000u64;
        let surprise = match self.prev_median_lat {
            Some(prev) => {
                let delta = lat.abs_diff(prev);
                delta as f64 / prev.max(floor) as f64
            }
            None => 0.0,
        };
        self.prev_median_lat = Some(lat);
        self.absorb(ProbeKind::Vact, now, surprise);
    }

    /// Feeds a closed vcache window. Pressure is already normalized to
    /// `[0, 1]`, so the absolute swing of the mean estimate *is* the
    /// surprise — a socket whose thrash level jumps half the scale between
    /// windows is exactly the abstraction-churn signal the layer scores.
    pub fn observe_vcache(&mut self, now: SimTime, vcache: &crate::vcache::Vcache) {
        let mean = vcache.mean_pressure();
        let surprise = match self.prev_mean_pressure {
            Some(prev) => (mean - prev).abs(),
            None => 0.0,
        };
        self.prev_mean_pressure = Some(mean);
        self.absorb(ProbeKind::Vcache, now, surprise);
    }

    /// Feeds vtop progress: validation passes restore trust, detected
    /// mismatches spend it.
    pub fn observe_vtop(&mut self, now: SimTime, validations: u64, failures: u64) {
        let new_validations = validations.saturating_sub(self.prev_validations);
        let new_failures = failures.saturating_sub(self.prev_failures);
        self.prev_validations = validations;
        self.prev_failures = failures;
        if new_failures > 0 {
            self.absorb(ProbeKind::Vtop, now, 1.0);
        } else if new_validations > 0 {
            self.absorb(ProbeKind::Vtop, now, 0.0);
        }
    }

    /// Routes a prober error: trust in that prober collapses immediately.
    pub fn on_probe_error(&mut self, now: SimTime, err: ProbeError) {
        let i = idx(err.probe());
        self.conf[i] = 0.0;
        self.last_seen[i] = now;
    }

    /// The prober currently trusted least (among the scored slots).
    fn worst(&self) -> (ProbeKind, f64) {
        let n = self.nr_scored();
        let mut worst = (PROBERS[0], self.conf[0]);
        for (p, &c) in PROBERS.iter().zip(&self.conf).take(n).skip(1) {
            if c < worst.1 {
                worst = (*p, c);
            }
        }
        worst
    }

    /// One watchdog tick: decay stale probers, evaluate the state machine,
    /// pace re-probes. Emits `DegradedEnter`/`DegradedExit`/`ProbeRetry`
    /// through the kernel's trace sink.
    pub fn on_watchdog(&mut self, kern: &mut Kernel, now: SimTime) -> ResilAction {
        // Staleness only erodes trust while healthy: a prober that goes
        // silent in normal operation is broken, but degraded mode silences
        // probing on purpose — decaying then would trap the VM degraded
        // once the bounded retries run out.
        if self.degraded_since.is_none() {
            for i in 0..self.nr_scored() {
                if now.since(self.last_seen[i]) > STALENESS_NS {
                    // Quiet probers drift toward distrust, slowly:
                    // confidence halves roughly every staleness interval
                    // of silence.
                    let per_tick = WATCHDOG_PERIOD_NS as f64 / STALENESS_NS as f64;
                    self.conf[i] *= 0.5f64.powf(per_tick);
                }
            }
        }
        let (worst_probe, worst_conf) = self.worst();
        match self.degraded_since {
            None => {
                if worst_conf < self.cfg.enter_confidence {
                    self.enter(kern, now, DegradeReason::LowConfidence(worst_probe));
                    return ResilAction::EnteredDegraded;
                }
                ResilAction::None
            }
            Some(entered) => {
                if worst_conf > self.cfg.exit_confidence {
                    kern.trace.emit(
                        now,
                        EventKind::DegradedExit {
                            after_ns: now.since(entered),
                        },
                    );
                    self.degraded_since = None;
                    self.episodes += 1;
                    return ResilAction::ExitedDegraded;
                }
                if self.retry_attempt < MAX_RETRIES && now >= self.next_retry {
                    self.retry_attempt += 1;
                    self.retry_probe = worst_probe;
                    kern.trace.emit(
                        now,
                        EventKind::ProbeRetry {
                            probe: worst_probe,
                            attempt: self.retry_attempt,
                        },
                    );
                    let backoff = RETRY_BASE_NS << self.retry_attempt.min(16);
                    self.next_retry = now.after(backoff);
                    return ResilAction::Reprobe(worst_probe);
                }
                ResilAction::None
            }
        }
    }

    /// Forces degraded mode from a probe error (called by the hook layer
    /// right where the error surfaced).
    pub fn degrade_on_error(
        &mut self,
        kern: &mut Kernel,
        now: SimTime,
        err: ProbeError,
    ) -> ResilAction {
        self.on_probe_error(now, err);
        if self.degraded_since.is_none() {
            self.enter(kern, now, DegradeReason::ProbeError(err.probe()));
            return ResilAction::EnteredDegraded;
        }
        ResilAction::None
    }

    fn enter(&mut self, kern: &mut Kernel, now: SimTime, reason: DegradeReason) {
        kern.trace.emit(now, EventKind::DegradedEnter { reason });
        self.degraded_since = Some(now);
        self.retry_attempt = 0;
        self.next_retry = now.after(RETRY_BASE_NS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::Kernel;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    fn kern() -> Kernel {
        Kernel::new(2, t(0))
    }

    #[test]
    fn starts_trusting_and_stays_calm() {
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        let mut k = kern();
        assert!(!r.degraded());
        for i in 1..10 {
            assert_eq!(r.on_watchdog(&mut k, t(10 * i)), ResilAction::None);
        }
    }

    #[test]
    fn probe_error_enters_and_recovery_exits() {
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        let mut k = kern();
        let err = ProbeError::NoSamples(ProbeKind::Vcap);
        assert_eq!(
            r.degrade_on_error(&mut k, t(100), err),
            ResilAction::EnteredDegraded
        );
        assert!(r.degraded());
        assert_eq!(r.confidence(ProbeKind::Vcap), 0.0);
        // A second error while degraded does not re-enter.
        assert_eq!(r.degrade_on_error(&mut k, t(110), err), ResilAction::None);
        // Steady agreeing windows rebuild confidence past the exit bar.
        let mut now = 200;
        let vcap = Vcap::new(2);
        let mut exited = false;
        for _ in 0..16 {
            r.observe_vcap(t(now), &vcap);
            if r.on_watchdog(&mut k, t(now + 5)) == ResilAction::ExitedDegraded {
                exited = true;
                break;
            }
            now += 100;
        }
        assert!(exited, "confidence never recovered: {:?}", r.conf);
        assert_eq!(r.episodes, 1);
    }

    #[test]
    fn surprise_erodes_confidence_until_entry() {
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        let mut k = kern();
        let mut vcap = Vcap::new(2);
        let mut entered = false;
        for i in 0..12u64 {
            // Mean capacity oscillates wildly window over window.
            vcap.mean_cap = if i % 2 == 0 { 1024.0 } else { 150.0 };
            r.observe_vcap(t(100 * (i + 1)), &vcap);
            if r.on_watchdog(&mut k, t(100 * (i + 1) + 5)) == ResilAction::EnteredDegraded {
                entered = true;
                break;
            }
        }
        assert!(entered, "oscillation never degraded: {:?}", r.conf);
    }

    #[test]
    fn retries_are_bounded_and_backed_off() {
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        let mut k = kern();
        r.degrade_on_error(&mut k, t(0), ProbeError::NoSamples(ProbeKind::Vcap));
        let mut retries = Vec::new();
        let mut now = SimTime::from_ms(0);
        for _ in 0..100_000 {
            now = now.after(10 * MS);
            if let ResilAction::Reprobe(p) = r.on_watchdog(&mut k, now) {
                retries.push((now, p));
            }
        }
        assert_eq!(retries.len(), MAX_RETRIES as usize, "bounded retries");
        // Gaps grow: each ≥ the previous (exponential backoff, quantized
        // by the watchdog period).
        for w in retries.windows(2) {
            assert!(w[1].0.since(w[0].0) >= RETRY_BASE_NS, "backoff too fast");
        }
    }

    #[test]
    fn unfed_vcache_slot_is_inert_unless_enabled() {
        // Disabled (the default): the never-fed vcache slot must not
        // decay a healthy VM into degraded mode. Keep the three original
        // probers fresh and walk far past staleness (four staleness
        // intervals: long enough that a decaying slot would have entered).
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        let mut k = kern();
        let vcap = Vcap::new(2);
        let mut now = SimTime::from_ms(10);
        for _ in 0..4 * STALENESS_NS / WATCHDOG_PERIOD_NS {
            r.observe_vcap(now, &vcap);
            r.last_seen[idx(ProbeKind::Vact)] = now;
            r.last_seen[idx(ProbeKind::Vtop)] = now;
            assert_eq!(r.on_watchdog(&mut k, now), ResilAction::None);
            now = now.after(10 * MS);
        }
        // Enabled but silent: the stale vcache slot degrades like any
        // other quiet prober.
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        r.set_vcache_enabled(true);
        let mut now = SimTime::from_ms(10);
        let mut entered = false;
        for _ in 0..2_000 {
            r.observe_vcap(now, &vcap);
            r.last_seen[idx(ProbeKind::Vact)] = now;
            r.last_seen[idx(ProbeKind::Vtop)] = now;
            if r.on_watchdog(&mut k, now) == ResilAction::EnteredDegraded {
                entered = true;
                break;
            }
            now = now.after(10 * MS);
        }
        assert!(entered, "silent vcache never degraded: {:?}", r.conf);
    }

    #[test]
    fn vcache_pressure_swings_spend_trust() {
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        r.set_vcache_enabled(true);
        let mut k = kern();
        let mut vc = crate::vcache::Vcache::new(2);
        let mut entered = false;
        for i in 0..12u64 {
            vc.pressure[0] = Some(if i % 2 == 0 { 0.95 } else { 0.05 });
            r.observe_vcache(t(100 * (i + 1)), &vc);
            if r.on_watchdog(&mut k, t(100 * (i + 1) + 5)) == ResilAction::EnteredDegraded {
                entered = true;
                break;
            }
        }
        assert!(entered, "pressure oscillation never degraded: {:?}", r.conf);
    }

    #[test]
    fn staleness_decays_confidence() {
        let mut r = Resilience::new(ResilCfg::default(), t(0));
        let mut k = kern();
        let mut now = SimTime::from_ns(STALENESS_NS + 50 * MS);
        let mut entered = false;
        for _ in 0..2_000 {
            if r.on_watchdog(&mut k, now) == ResilAction::EnteredDegraded {
                entered = true;
                break;
            }
            now = now.after(10 * MS);
        }
        assert!(entered, "silence never degraded: {:?}", r.conf);
    }
}
