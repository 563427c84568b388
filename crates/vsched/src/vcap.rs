//! `vcap`: the vCPU capacity prober (paper §3.1).
//!
//! Cooperative, multi-phase sampling. Every second, one prober thread per
//! vCPU runs for a 100 ms window:
//!
//! * **Light phase** (default): probers run at `SCHED_IDLE` priority, only
//!   consuming cycles the workload leaves idle. Keeping the vCPU busy makes
//!   steal observable, so the window yields the *share* of core time the
//!   vCPU receives: `1 − steal/window`. Multiplied by the last known core
//!   capacity this gives the vCPU capacity.
//! * **Heavy phase** (every 5th sampling): probers run at high priority and
//!   the work they complete per unit of active time *is* the hosting core's
//!   capacity (it folds in DVFS and SMT contention), refreshing the core
//!   estimate that light phases rely on.
//!
//! Samples are smoothed with an EMA (half-life 2 periods, Table 1) and
//! installed into the kernel as the per-vCPU capacity override — the
//! "kernel module updating per-vCPU data" of paper §4.

use crate::error::ProbeError;
use crate::tunables::Tunables;
use crate::vet::{BandFloor, Vet};
use guestos::{CpuMask, Kernel, Platform, Policy, SpawnSpec, TaskId, TaskProgram, VcpuId};
use metrics::Ema;
use simcore::SimTime;

/// High-priority weight used by heavy-phase probers (nice −20).
const HEAVY_WEIGHT: u64 = 88761;

/// A window whose steal rate exceeds this multiple of the canary baseline
/// (plus [`TARGETED_RATE_FLOOR`]) is treated as window-targeted
/// interference. Honest contention presses on the vCPU around the clock,
/// so window and canary rates agree; only an adversary synchronized to
/// the probe schedule concentrates steal inside the windows.
const TARGETED_RATE_RATIO: f64 = 4.0;
/// Absolute steal-rate floor for the targeted test: keeps a nearly idle
/// host (baseline rate ≈ 0) from flagging microscopic jitter.
const TARGETED_RATE_FLOOR: f64 = 0.05;
/// Length of a canary micro-probe (hardened mode): long enough for a
/// meaningful steal reading, short enough to stay invisible (~0.5% of a
/// vCPU at the 1 s window cadence).
pub const CANARY_NS: u64 = 5_000_000;

/// The capacity prober.
pub struct Vcap {
    nr_vcpus: usize,
    period_ns: u64,
    heavy_every: u32,
    probers: Vec<Option<TaskId>>,
    heavy_probers: Vec<Option<TaskId>>,
    /// vCPUs vcap must not touch (rwc-banned stacked vCPUs).
    pub skip: Vec<bool>,
    /// Degraded mode: force light phases only. Heavy probers run at high
    /// priority and visibly disturb the workload; a degraded scheduler
    /// must not add that cost on top of an already-misbehaving host.
    /// Light windows still feed the capacity EMAs (through the last known
    /// core estimate), so confidence can recover without the disturbance.
    pub suppress_heavy: bool,
    /// Degraded mode: keep sampling but do not publish the estimates into
    /// the kernel (`cap_override`, `asym_capacity`). Untrusted capacities
    /// must not steer CFS wakeup placement or misfit balancing; windows
    /// only feed the EMAs so confidence can recover.
    pub suppress_publish: bool,
    /// The single vCPU this window probes when degraded (round-robin).
    /// A light prober still keeps its vCPU host-busy for the whole window,
    /// which costs real capacity on a stacked or DVFS-slowed core —
    /// exactly the hosts a degraded scheduler runs on — so degraded
    /// windows disturb one vCPU at a time instead of all of them.
    window_rr: Option<usize>,
    window_open: bool,
    window_heavy: bool,
    light_count: u32,
    start_steal: Vec<u64>,
    /// Hardened probing (adversarial co-tenancy): reject window-targeted
    /// interference and statistical outliers before they reach the EMAs.
    pub hardened: bool,
    /// Median/MAD vetting of each vCPU's samples plus the suspicion
    /// score fed to the resilience layer (hardened mode only); the band
    /// floor is a quarter of the history median.
    pub vet: Vet,
    /// Baseline steal rate per vCPU, measured by canary micro-probes at
    /// schedule-jittered offsets between windows. An idle guest accrues
    /// no steal while its vCPUs have nothing to run, so the windows alone
    /// carry no baseline — without the canaries every honest always-on
    /// neighbour would look window-targeted.
    canary_rate: Vec<Option<f64>>,
    canary_start_steal: Vec<u64>,
    canary_open: bool,
    canary_opened_at: SimTime,
    /// When the current window opened.
    window_opened_at: SimTime,
    /// Probed core capacity per vCPU (EMA over heavy samples).
    pub core_cap: Vec<f64>,
    /// Published per-vCPU capacity estimates.
    pub cap: Vec<Ema>,
    /// Median of published capacities.
    pub median_cap: f64,
    /// Mean of published capacities.
    pub mean_cap: f64,
}

impl Vcap {
    /// Creates the prober.
    pub fn new(nr_vcpus: usize, tun: &Tunables) -> Self {
        Self {
            nr_vcpus,
            period_ns: tun.vcap_sampling_period_ns,
            heavy_every: tun.vcap_heavy_every,
            probers: vec![None; nr_vcpus],
            heavy_probers: vec![None; nr_vcpus],
            skip: vec![false; nr_vcpus],
            suppress_heavy: false,
            suppress_publish: false,
            window_rr: None,
            window_open: false,
            window_heavy: false,
            light_count: 0,
            start_steal: vec![0; nr_vcpus],
            hardened: false,
            vet: Vet::new(nr_vcpus, BandFloor::Relative(0.25)),
            canary_rate: vec![None; nr_vcpus],
            canary_start_steal: vec![0; nr_vcpus],
            canary_open: false,
            canary_opened_at: SimTime::ZERO,
            window_opened_at: SimTime::ZERO,
            core_cap: vec![1024.0; nr_vcpus],
            cap: vec![Ema::from_half_life(tun.vcap_ema_half_life); nr_vcpus],
            median_cap: 1024.0,
            mean_cap: 1024.0,
        }
    }

    /// Whether a sampling window is currently open.
    pub fn window_open(&self) -> bool {
        self.window_open
    }

    /// Seeds a vCPU's capacity estimate before any probe window runs
    /// (fleet live migration handing probe state from the source host's
    /// instance to the destination's). The first `Ema::update` on an
    /// uninitialized estimator adopts the sample exactly, so the
    /// destination starts from the source's published capacity instead
    /// of the nominal 1024 and converges from there.
    pub fn seed_capacity(&mut self, v: VcpuId, cap: f64, core: f64) {
        self.cap[v.0].update(cap);
        self.core_cap[v.0] = core;
    }

    /// The published capacity of a vCPU (1024 scale; 1024 until probed).
    pub fn capacity(&self, v: VcpuId) -> f64 {
        if self.cap[v.0].initialized() {
            self.cap[v.0].get()
        } else {
            1024.0
        }
    }

    /// Opens a sampling window: wakes one prober per (non-skipped) vCPU at
    /// the phase-appropriate priority and snapshots the counters.
    pub fn open_window(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        debug_assert!(!self.window_open);
        if self.canary_open {
            // A forced re-probe window can land mid-canary: finish the
            // canary first so the probers go through their regular
            // park/wake cycle before the window re-arms them.
            self.close_canary(kern, plat);
        }
        self.window_open = true;
        self.window_opened_at = plat.now();
        self.window_heavy =
            !self.suppress_heavy && self.light_count.is_multiple_of(self.heavy_every);
        self.window_rr = self
            .suppress_publish
            .then_some(self.light_count as usize % self.nr_vcpus);
        self.light_count = self.light_count.wrapping_add(1);
        for v in 0..self.nr_vcpus {
            if self.skip[v] || self.window_rr.is_some_and(|rr| rr != v) {
                continue;
            }
            // The persistent light prober: best-effort, only consumes
            // otherwise-idle cycles, keeps the vCPU busy so steal is
            // observable.
            let t = match self.probers[v] {
                Some(t) => t,
                None => {
                    let t = kern.spawn(plat.now(), Self::prober_spec(v, Policy::Idle));
                    kern.task_mut(t).remaining = guestos::kernel::BUILTIN_SPIN_WORK;
                    self.probers[v] = Some(t);
                    t
                }
            };
            self.start_steal[v] = plat.steal_ns(VcpuId(v));
            kern.wake_to(plat, t, VcpuId(v), None);
            if self.window_heavy {
                // A fresh short-lived high-priority prober measures the
                // core's work rate; it is retired after ~15 ms so the
                // disturbance stays small ("delicately measuring").
                let h = kern.spawn(
                    plat.now(),
                    Self::prober_spec(
                        v,
                        Policy::Normal {
                            weight: HEAVY_WEIGHT,
                        },
                    ),
                );
                kern.task_mut(h).remaining = guestos::kernel::BUILTIN_SPIN_WORK;
                self.heavy_probers[v] = Some(h);
                kern.wake_to(plat, h, VcpuId(v), None);
            }
        }
    }

    fn prober_spec(v: usize, policy: Policy) -> SpawnSpec {
        SpawnSpec {
            policy,
            affinity: CpuMask::single(v),
            program: TaskProgram::BuiltinSpin,
            latency_sensitive: false,
            comm_group: None,
            cache_sensitive: false,
            // Probing must still reach straggler vCPUs that rwc restricted
            // to best-effort tasks.
            bypass_cgroup: true,
        }
    }

    /// Closes the window: computes shares (and core capacities in heavy
    /// phase), feeds the EMAs, installs overrides, parks the probers.
    ///
    /// Errors when the window produced no usable sample (every vCPU
    /// skipped); previous capacity estimates stay installed.
    pub fn close_window(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
    ) -> Result<(), ProbeError> {
        debug_assert!(self.window_open);
        self.window_open = false;
        let mut sampled = 0usize;
        let mut rejected_now = false;
        let window_rr = self.window_rr.take();
        for v in 0..self.nr_vcpus {
            if self.skip[v] || window_rr.is_some_and(|rr| rr != v) {
                continue;
            }
            let Some(t) = self.probers[v] else { continue };
            // Park the light prober first: this settles its accounting
            // through the regular stop path.
            kern.block_task(plat, t);
            let steal_now = plat.steal_ns(VcpuId(v));
            let steal_delta = steal_now.saturating_sub(self.start_steal[v]);
            let share = 1.0 - (steal_delta as f64 / self.period_ns as f64).clamp(0.0, 1.0);
            if self.window_heavy {
                if let Some(h) = self.heavy_probers[v].take() {
                    kern.kill_task(plat, h); // no-op if already retired
                    let work = kern.task(h).total_work;
                    let active = kern.task(h).total_active_ns;
                    if active > 2_000_000 {
                        // Work per active nanosecond *is* the core
                        // capacity; the measurement is direct, so weight
                        // it heavily over the stale estimate.
                        let core = work / active as f64;
                        self.core_cap[v] = 0.15 * self.core_cap[v] + 0.85 * core;
                    }
                }
            }
            let sample = self.core_cap[v] * share;
            if self.hardened {
                if let Some(median) = self.sample_rejected(v, sample, steal_delta) {
                    // A poisoned reading must not move the EMA, must not be
                    // published, and must not count toward `sampled` — an
                    // all-rejected window surfaces as `NoSamples` and rides
                    // the existing degraded-mode entry path.
                    self.vet.reject();
                    rejected_now = true;
                    kern.trace.emit(
                        plat.now(),
                        trace::EventKind::ProbeRejected {
                            vcpu: v as u16,
                            probe: trace::ProbeKind::Vcap,
                            sample,
                            median,
                        },
                    );
                    continue;
                }
                self.vet.accept(v, sample);
            }
            let ema = self.cap[v].update(sample);
            if !self.suppress_publish {
                kern.vcpus[v].cap_override = Some(ema.max(1.0));
            }
            sampled += 1;
            kern.trace.emit(
                plat.now(),
                trace::EventKind::ProbeSample {
                    vcpu: v as u16,
                    probe: trace::ProbeKind::Vcap,
                    value: ema,
                },
            );
        }
        let mut caps: Vec<f64> = (0..self.nr_vcpus)
            .filter(|&v| !self.skip[v])
            .map(|v| self.capacity(VcpuId(v)))
            .collect();
        // total_cmp orders NaN deterministically instead of panicking on a
        // poisoned comparison (a lying host can produce any f64).
        caps.sort_by(|a, b| a.total_cmp(b));
        if let (Some(&min), Some(&max)) = (caps.first(), caps.last()) {
            self.median_cap = caps[(caps.len() - 1) / 2];
            self.mean_cap = caps.iter().sum::<f64>() / caps.len() as f64;
            // Accurate capacity turns capacity-aware balancing back on:
            // declare asymmetry (SD_ASYM_CPUCAPACITY) when probed capacities
            // genuinely diverge.
            if !self.suppress_publish {
                kern.asym_capacity = max / min.max(1.0) > 1.3;
            }
        }
        if self.hardened {
            self.vet.end_window(!rejected_now);
        }
        if sampled == 0 {
            return Err(ProbeError::NoSamples(trace::ProbeKind::Vcap));
        }
        Ok(())
    }

    /// Hardened-mode sample vetting. Returns `Some(history median)` when
    /// the sample must be rejected, on either of two grounds:
    ///
    /// * **window-targeted interference** — the steal rate observed
    ///   *inside* the probe window is far above the canary baseline.
    ///   Honest neighbours contend around the clock (rates agree); only an
    ///   adversary synchronized to the probe schedule concentrates its
    ///   interference inside the measurement — and the jittered canaries
    ///   are exactly what such an adversary cannot cover.
    /// * **statistical outlier** — the sample sits outside a robust
    ///   (median/MAD) band around the accepted history. Catches pollution
    ///   that slips past the rate test once enough clean history exists.
    fn sample_rejected(&self, v: usize, sample: f64, steal_delta: u64) -> Option<f64> {
        let inside_rate = steal_delta as f64 / self.period_ns as f64;
        let targeted = match self.canary_rate[v] {
            Some(baseline) => inside_rate > TARGETED_RATE_RATIO * baseline + TARGETED_RATE_FLOOR,
            // No canary has run yet: no baseline to compare against.
            None => false,
        };
        let med = self
            .vet
            .median(v)
            .unwrap_or_else(|| self.capacity(VcpuId(v)));
        let outlier = self.vet.outlier(v, sample).is_some();
        (targeted || outlier).then_some(med)
    }

    /// Where in the current inter-window gap the next canary lands,
    /// relative to the window's open: deterministic but irregular
    /// (SplitMix64 over the window counter), so an adversary synchronized
    /// to the probe schedule cannot predict and cover it. The range
    /// `[150 ms, 850 ms)` keeps the canary clear of the 100 ms window at
    /// one end and the next 1 s open at the other.
    pub fn canary_offset_ns(&self) -> u64 {
        let mut x = (self.light_count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        150_000_000 + x % 700_000_000
    }

    /// Opens a canary micro-probe: wakes the light probers for
    /// [`CANARY_NS`] to measure the *baseline* steal rate that
    /// [`Self::close_window`] compares the in-window rate against.
    pub fn open_canary(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        if self.window_open || self.canary_open {
            return;
        }
        self.canary_open = true;
        self.canary_opened_at = plat.now();
        for v in 0..self.nr_vcpus {
            if self.skip[v] {
                continue;
            }
            let t = match self.probers[v] {
                Some(t) => t,
                None => {
                    let t = kern.spawn(plat.now(), Self::prober_spec(v, Policy::Idle));
                    kern.task_mut(t).remaining = guestos::kernel::BUILTIN_SPIN_WORK;
                    self.probers[v] = Some(t);
                    t
                }
            };
            self.canary_start_steal[v] = plat.steal_ns(VcpuId(v));
            kern.wake_to(plat, t, VcpuId(v), None);
        }
    }

    /// Closes the canary, parks the probers and folds the measured steal
    /// rates into the per-vCPU baseline (equal-weight blend, so the
    /// baseline tracks host churn within a few canaries).
    pub fn close_canary(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        if !self.canary_open {
            return;
        }
        self.canary_open = false;
        let dur = plat.now().since(self.canary_opened_at);
        for v in 0..self.nr_vcpus {
            if self.skip[v] {
                continue;
            }
            let Some(t) = self.probers[v] else { continue };
            kern.block_task(plat, t);
            if dur == 0 {
                continue;
            }
            let delta = plat
                .steal_ns(VcpuId(v))
                .saturating_sub(self.canary_start_steal[v]);
            let rate = delta as f64 / dur as f64;
            self.canary_rate[v] = Some(match self.canary_rate[v] {
                Some(prev) => 0.5 * prev + 0.5 * rate,
                None => rate,
            });
        }
    }

    /// Retires the heavy-phase probers once they have executed long enough
    /// for an accurate work-rate measurement ("delicately measuring",
    /// §3.1): the reading only needs a few milliseconds of guaranteed
    /// execution, not the whole window. Their totals stay readable until
    /// the window closes.
    pub fn demote_heavy(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        if !self.window_open || !self.window_heavy {
            return;
        }
        for v in 0..self.nr_vcpus {
            if let Some(t) = self.heavy_probers[v] {
                kern.kill_task(plat, t);
            }
        }
    }

    /// Withdraws every published estimate from the kernel (degraded-mode
    /// entry): with the overrides gone, CFS falls back to its own
    /// steal-observation heuristic instead of acting on untrusted numbers.
    pub fn unpublish(&mut self, kern: &mut Kernel) {
        for d in kern.vcpus.iter_mut() {
            d.cap_override = None;
        }
        kern.asym_capacity = false;
    }

    /// Kills the prober of a newly banned vCPU and marks it skipped.
    pub fn ban_vcpu(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: usize) {
        self.skip[v] = true;
        if let Some(t) = self.probers[v].take() {
            kern.kill_task(plat, t);
        }
    }

    /// Lifts a ban.
    pub fn unban_vcpu(&mut self, v: usize) {
        self.skip[v] = false;
    }
}
