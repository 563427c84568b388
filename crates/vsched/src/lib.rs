//! vSched: optimizing task scheduling in cloud VMs with accurate vCPU
//! abstraction (EuroSys '25).
//!
//! This crate is the paper's contribution: entirely guest-side machinery —
//! no hypervisor modification — that
//!
//! 1. **probes** the real vCPU abstraction with three lightweight
//!    microbenchmarks (the *vProbers*): [`vcap`] for dynamic capacity,
//!    [`vact`] for activity (vCPU latency and state), [`vtop`] for
//!    topology (stacking / SMT / socket); and
//! 2. **optimizes** task scheduling with three techniques layered onto the
//!    stock CFS through hook points (the paper's BPF attach sites):
//!    [`bvs`] biased vCPU selection for small latency-sensitive tasks,
//!    [`ivh`] intra-VM harvesting of wasted vCPU time, and [`rwc`] relaxed
//!    work conservation hiding straggler and stacked vCPUs.
//!
//! # Usage
//!
//! ```ignore
//! // inside a hostsim scenario:
//! machine.with_vm(vm, |guest, plat| {
//!     vsched::install(guest, plat, VschedConfig::full());
//! });
//! ```
//!
//! [`VschedConfig::enhanced_cfs`] reproduces the paper's "enhanced CFS"
//! configuration (vProbers + rwc, no new policies); [`VschedConfig::full`]
//! is complete vSched.
//!
//! A configuration switches only what the paper's experiments vary: the
//! techniques, their ablations, resilience, hardened probing and the
//! vcache prober. The three vProbers have no switch; [`install`] always
//! arms them. Values with one setting in use are constants, in
//! [`tunables`] or beside the code that reads them (the resilience
//! layer's staleness interval is `resilience::STALENESS_NS`).

pub mod bvs;
pub mod error;
pub mod ivh;
pub mod resilience;
pub mod rwc;
pub mod tunables;
pub mod vact;
pub mod vcache;
pub mod vcap;
pub mod vet;
pub mod vtop;

pub use bvs::BvsStats;
pub use error::ProbeError;
pub use ivh::Ivh;
pub use resilience::{ResilAction, ResilCfg, Resilience};
pub use rwc::Rwc;
pub use vact::{ActState, Vact};
pub use vcache::Vcache;
pub use vcap::Vcap;
pub use vtop::{PairClass, Vtop};

use guestos::platform::HOOK_TIMER_BASE;
use guestos::{GuestOs, Kernel, Platform, SchedHooks, TaskId, VcpuId};
use resilience::{PULL_TIMEOUT_NS, WATCHDOG_PERIOD_NS};
use simcore::SimTime;
use trace::ProbeKind;
use tunables::{
    VCACHE_PERIOD_NS, VCACHE_SAMPLE_GAP_NS, VCAP_FIRST_WINDOW_NS, VCAP_LIGHT_EVERY_NS,
    VCAP_SAMPLING_PERIOD_NS, VTOP_PERIOD_NS,
};

/// Timer token: open a vcap sampling window (periodic).
pub const TOKEN_VCAP_OPEN: u64 = HOOK_TIMER_BASE + 1;
/// Timer token: close the current vcap sampling window.
pub const TOKEN_VCAP_CLOSE: u64 = HOOK_TIMER_BASE + 2;
/// Timer token: demote heavy-phase probers mid-window.
pub const TOKEN_VCAP_DEMOTE: u64 = HOOK_TIMER_BASE + 5;
/// Timer token: vtop probing period (periodic).
pub const TOKEN_VTOP_PERIOD: u64 = HOOK_TIMER_BASE + 3;
/// Timer token: vtop in-flight session check (1 ms while probing).
pub const TOKEN_VTOP_CHECK: u64 = HOOK_TIMER_BASE + 4;
/// Timer token: resilience watchdog (periodic while resilience is on).
pub const TOKEN_RESIL_WATCHDOG: u64 = HOOK_TIMER_BASE + 6;
/// Timer token: open a hardened-mode canary micro-probe (jittered offset
/// inside each inter-window gap).
pub const TOKEN_VCAP_CANARY_OPEN: u64 = HOOK_TIMER_BASE + 7;
/// Timer token: close the canary micro-probe.
pub const TOKEN_VCAP_CANARY_CLOSE: u64 = HOOK_TIMER_BASE + 8;
/// Timer token: open a vcache sampling window (periodic).
pub const TOKEN_VCACHE_PERIOD: u64 = HOOK_TIMER_BASE + 9;
/// Timer token: take the next vcache sample (or close the window).
pub const TOKEN_VCACHE_SAMPLE: u64 = HOOK_TIMER_BASE + 10;

/// Which vSched pieces are enabled. The three vProbers (vcap, vact,
/// vtop) have no switch: every configuration the paper evaluates runs
/// them.
#[derive(Debug, Clone)]
pub struct VschedConfig {
    /// Biased vCPU selection.
    pub bvs: bool,
    /// Intra-VM harvesting.
    pub ivh: bool,
    /// Relaxed work conservation.
    pub rwc: bool,
    /// bvs consults the vCPU state (false = Table 3's ablation).
    pub bvs_state_check: bool,
    /// ivh pre-wakes targets (false = Table 4's activity-unaware ablation).
    pub ivh_prewake: bool,
    /// Resilience layer: confidence scoring, degraded mode, watchdog.
    /// `None` (the default) reproduces the paper's behavior exactly.
    pub resilience: Option<ResilCfg>,
    /// Hardened probing: windowed median/MAD outlier rejection and
    /// window-targeted interference detection on vcap samples (and vtop
    /// validation latencies), with an interference-suspicion score feeding
    /// the resilience layer. Off by default (the paper trusts its
    /// neighbours).
    pub hardened_probes: bool,
    /// LLC thrash prober + cache-aware bvs (the follow-up paper's cache
    /// abstraction). Off by default: the original paper has no cache
    /// dimension, and every pre-vcache configuration must stay
    /// byte-identical.
    pub vcache: bool,
}

impl VschedConfig {
    /// Full vSched: all probers and all three techniques.
    pub fn full() -> Self {
        Self {
            bvs: true,
            ivh: true,
            rwc: true,
            bvs_state_check: true,
            ivh_prewake: true,
            resilience: None,
            hardened_probes: false,
            vcache: false,
        }
    }

    /// Full vSched plus the LLC abstraction: the vcache prober runs and
    /// bvs prefers vCPUs on sockets whose cache is not thrashed.
    pub fn cache_aware() -> Self {
        Self {
            vcache: true,
            ..Self::full()
        }
    }

    /// The paper's "enhanced CFS": accurate abstraction (vProbers) and rwc,
    /// but none of the new activity-aware policies.
    pub fn enhanced_cfs() -> Self {
        Self {
            bvs: false,
            ivh: false,
            ..Self::full()
        }
    }

    /// Probers only: expose the abstraction, change no policy.
    pub fn probers_only() -> Self {
        Self {
            bvs: false,
            ivh: false,
            rwc: false,
            ..Self::full()
        }
    }

    /// Disables the bvs state check (Table 3 ablation).
    pub fn without_bvs_state_check(mut self) -> Self {
        self.bvs_state_check = false;
        self
    }

    /// Disables ivh pre-waking (Table 4 ablation).
    pub fn without_ivh_prewake(mut self) -> Self {
        self.ivh_prewake = false;
        self
    }

    /// Enables the resilience layer with the given knobs.
    pub fn with_resilience(mut self, cfg: ResilCfg) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Enables hardened probing (adversarial co-tenancy defence).
    pub fn with_hardened_probes(mut self) -> Self {
        self.hardened_probes = true;
        self
    }
}

/// The installed vSched instance: owns the probers and policies and
/// implements the scheduler hook surface.
pub struct Vsched {
    /// Active configuration.
    pub cfg: VschedConfig,
    /// Capacity prober.
    pub vcap: Vcap,
    /// Activity prober.
    pub vact: Vact,
    /// Topology prober.
    pub vtop: Vtop,
    /// LLC thrash prober.
    pub vcache: Vcache,
    /// Harvesting engine.
    pub ivh: Ivh,
    /// Work-conservation policy.
    pub rwc: Rwc,
    /// bvs decision statistics.
    pub bvs_stats: BvsStats,
    /// Resilience layer (when configured).
    pub resil: Option<Resilience>,
    vtop_check_armed: bool,
    vtop_ran_once: bool,
}

impl Vsched {
    fn new(nr_vcpus: usize, cfg: VschedConfig, now: SimTime) -> Self {
        let mut vcap = Vcap::new(nr_vcpus);
        vcap.hardened = cfg.hardened_probes;
        let mut vtop = Vtop::new(nr_vcpus);
        vtop.hardened = cfg.hardened_probes;
        let mut resil = cfg.resilience.clone().map(|rc| Resilience::new(rc, now));
        if let Some(r) = resil.as_mut() {
            r.set_vcache_enabled(cfg.vcache);
        }
        Self {
            vcap,
            vact: Vact::new(nr_vcpus, now),
            vtop,
            vcache: Vcache::new(nr_vcpus),
            ivh: Ivh::new(nr_vcpus, cfg.ivh_prewake),
            rwc: Rwc::new(nr_vcpus),
            bvs_stats: BvsStats::default(),
            resil,
            vtop_check_armed: false,
            vtop_ran_once: false,
            cfg,
        }
    }

    /// Whether the resilience layer currently distrusts the abstraction
    /// (bvs/ivh/rwc suppressed, vanilla-CFS placement in force).
    pub fn degraded(&self) -> bool {
        self.resil.as_ref().is_some_and(|r| r.degraded())
    }

    /// Applies a freshly probed topology: rebuild domains, update rwc bans,
    /// retire vcap probers on newly banned vCPUs.
    fn install_topology(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        let Some(topo) = self.vtop.take_installed() else {
            return;
        };
        kern.install_topology(&topo);
        if self.cfg.vcache {
            // LLC domains follow the probed socket partition; a changed
            // partition resets the pressure estimates (they described
            // sockets that no longer exist).
            self.vcache.set_domains(&topo);
        }
        if self.cfg.rwc {
            let groups = self.vtop.stacked_groups();
            match self.rwc.update_stacking(kern, plat, &groups) {
                Ok(newly_banned) => {
                    for v in newly_banned {
                        self.vcap.ban_vcpu(kern, plat, v);
                    }
                    // Unbanned vCPUs may be probed again.
                    for v in 0..self.rwc.banned.len() {
                        if !self.rwc.banned[v] {
                            self.vcap.unban_vcpu(v);
                        }
                    }
                }
                // Malformed probed topology: keep the previous ban set.
                Err(e) => self.probe_error(kern, plat, e),
            }
        }
    }

    fn arm_vtop_check(&mut self, plat: &mut dyn Platform) {
        if !self.vtop_check_armed {
            self.vtop_check_armed = true;
            let at = plat.now().after(1_000_000);
            plat.set_timer(TOKEN_VTOP_CHECK, at);
        }
    }

    /// Routes a prober failure into the resilience layer (no-op without
    /// one: the estimates simply stay at their last good values).
    fn probe_error(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, err: ProbeError) {
        let now = plat.now();
        let action = match self.resil.as_mut() {
            Some(r) => r.degrade_on_error(kern, now, err),
            None => return,
        };
        if action == ResilAction::EnteredDegraded {
            self.on_entered_degraded(kern, plat);
        }
    }

    /// Degraded-mode entry actions: abandon every in-flight harvest, lift
    /// rwc's capacity-based restrictions, and withdraw the published
    /// capacity overrides (all rely on estimates that are no longer
    /// trusted — vanilla CFS must not be steered by them either).
    fn on_entered_degraded(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        let now = plat.now();
        let pulls = self.ivh.take_all_pulls(now);
        self.abandon_pulls(kern, now, pulls);
        self.rwc.clear_stragglers(kern);
        self.vcap.suppress_publish = true;
        self.vcap.unpublish(kern);
    }

    fn abandon_pulls(
        &mut self,
        kern: &mut Kernel,
        now: SimTime,
        pulls: Vec<(VcpuId, VcpuId, TaskId, u64)>,
    ) {
        for (target, src, task, waited_ns) in pulls {
            kern.stats.ivh_abandoned.inc();
            kern.trace.emit(
                now,
                trace::EventKind::IvhAbandonedByWatchdog {
                    task: task.0,
                    src: src.0 as u16,
                    target: target.0 as u16,
                    waited_ns,
                },
            );
            if let Some(r) = self.resil.as_mut() {
                r.watchdog_abandons += 1;
            }
        }
    }

    /// A bounded degraded-mode re-probe: an early vcap window or a vtop
    /// validation pass, whichever prober is trusted least.
    fn force_reprobe(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, probe: ProbeKind) {
        let now = plat.now();
        match probe {
            ProbeKind::Vcap | ProbeKind::VcapCore | ProbeKind::Vact => {
                if !self.vcap.window_open() {
                    self.vcap.suppress_heavy = self.degraded();
                    self.vcap.open_window(kern, plat);
                    plat.set_timer(TOKEN_VCAP_DEMOTE, now.after(15_000_000));
                    plat.set_timer(TOKEN_VCAP_CLOSE, now.after(VCAP_SAMPLING_PERIOD_NS));
                }
            }
            ProbeKind::Vtop => {
                if !self.vtop.probing() {
                    self.vtop.start_validation(kern, plat);
                    if self.vtop.probing() {
                        self.arm_vtop_check(plat);
                    } else {
                        self.install_topology(kern, plat);
                    }
                }
            }
            ProbeKind::Vcache => {
                if self.cfg.vcache && !self.vcache.window_open() {
                    self.vcache.open_window();
                    plat.set_timer(TOKEN_VCACHE_SAMPLE, now.after(VCACHE_SAMPLE_GAP_NS));
                }
            }
        }
    }
}

impl SchedHooks for Vsched {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn select_cpu(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        task: TaskId,
        _prev: VcpuId,
    ) -> Option<VcpuId> {
        if !self.cfg.bvs || self.degraded() {
            // Degraded: the activity/capacity estimates backing bvs are
            // untrusted — fall through to vanilla CFS selection.
            return None;
        }
        let chosen = bvs::select(
            kern,
            plat,
            &self.vact,
            &self.vcap,
            self.cfg.vcache.then_some(&self.vcache),
            &mut self.bvs_stats,
            task,
            self.cfg.bvs_state_check,
        );
        kern.trace.emit(
            plat.now(),
            trace::EventKind::BvsSelect {
                task: task.0,
                chosen: chosen.map(|v| v.0 as u16),
            },
        );
        chosen
    }

    fn on_tick(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        let steal = plat.steal_ns(v);
        self.vact.on_tick(v, plat.now(), steal);
        if self.cfg.ivh && !self.degraded() {
            self.ivh.on_tick(kern, plat, &self.vact, v);
        }
    }

    fn on_vcpu_start(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, v: VcpuId) {
        if self.cfg.ivh {
            self.ivh.on_vcpu_start(kern, plat, &self.vact, v);
        }
        if self.vtop.probing() {
            match self.vtop.update_sessions(kern, plat) {
                Ok(_) => self.install_topology(kern, plat),
                Err(e) => self.probe_error(kern, plat, e),
            }
        }
    }

    fn on_vcpu_stop(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, _v: VcpuId) {
        if self.vtop.probing() {
            match self.vtop.update_sessions(kern, plat) {
                Ok(_) => self.install_topology(kern, plat),
                Err(e) => self.probe_error(kern, plat, e),
            }
        }
    }

    fn on_timer(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, token: u64) {
        match token {
            TOKEN_VCAP_OPEN => {
                if !self.vcap.window_open() {
                    self.vcap.suppress_heavy = self.degraded();
                    self.vcap.open_window(kern, plat);
                }
                let now = plat.now();
                // Heavy probers yield their priority once the measurement
                // has enough runtime (15 ms).
                plat.set_timer(TOKEN_VCAP_DEMOTE, now.after(15_000_000));
                plat.set_timer(TOKEN_VCAP_CLOSE, now.after(VCAP_SAMPLING_PERIOD_NS));
                plat.set_timer(TOKEN_VCAP_OPEN, now.after(VCAP_LIGHT_EVERY_NS));
                if self.vcap.hardened {
                    // The hardening baseline: one canary micro-probe per
                    // inter-window gap, at a jittered offset the adversary
                    // cannot predict from the window schedule.
                    plat.set_timer(
                        TOKEN_VCAP_CANARY_OPEN,
                        now.after(self.vcap.canary_offset_ns()),
                    );
                }
            }
            TOKEN_VCAP_DEMOTE => {
                self.vcap.demote_heavy(kern, plat);
            }
            TOKEN_VCAP_CANARY_OPEN if self.vcap.hardened => {
                self.vcap.open_canary(kern, plat);
                plat.set_timer(TOKEN_VCAP_CANARY_CLOSE, plat.now().after(vcap::CANARY_NS));
            }
            TOKEN_VCAP_CANARY_CLOSE => {
                self.vcap.close_canary(kern, plat);
            }
            TOKEN_VCAP_CLOSE => {
                if self.vcap.window_open() {
                    match self.vcap.close_window(kern, plat) {
                        Ok(()) => {
                            if let Some(r) = self.resil.as_mut() {
                                r.observe_vcap(plat.now(), &self.vcap);
                                if self.vcap.hardened {
                                    r.observe_suspicion(
                                        plat.now(),
                                        ProbeKind::Vcap,
                                        self.vcap.vet.suspicion,
                                    );
                                }
                            }
                        }
                        Err(e) => self.probe_error(kern, plat, e),
                    }
                }
                self.vact.close_window(kern, plat.now());
                if let Some(r) = self.resil.as_mut() {
                    r.observe_vact(plat.now(), &self.vact);
                }
                // Degraded: the capacity estimates feeding straggler
                // detection are untrusted, so rwc relaxation stays capped.
                if self.cfg.rwc && !self.degraded() {
                    self.rwc.update_stragglers(kern, plat, &self.vcap);
                }
            }
            TOKEN_VTOP_PERIOD => {
                // Degraded: no periodic probe starts — vtop's high-priority
                // ping-pong probers disturb the workload, and the watchdog's
                // bounded retries already re-probe at a controlled pace.
                if !self.vtop.probing() && !self.degraded() {
                    if self.vtop_ran_once {
                        self.vtop.start_validation(kern, plat);
                    } else {
                        self.vtop.start_full(kern, plat);
                        self.vtop_ran_once = true;
                    }
                    if self.vtop.probing() {
                        self.arm_vtop_check(plat);
                    } else {
                        self.install_topology(kern, plat);
                    }
                }
                let now = plat.now();
                plat.set_timer(TOKEN_VTOP_PERIOD, now.after(VTOP_PERIOD_NS));
            }
            TOKEN_VTOP_CHECK => {
                self.vtop_check_armed = false;
                let still = match self.vtop.update_sessions(kern, plat) {
                    Ok(still) => {
                        self.install_topology(kern, plat);
                        still
                    }
                    Err(e) => {
                        self.probe_error(kern, plat, e);
                        false
                    }
                };
                if still {
                    self.arm_vtop_check(plat);
                }
            }
            TOKEN_VCACHE_PERIOD => {
                let now = plat.now();
                if self.cfg.vcache && !self.vcache.window_open() {
                    self.vcache.open_window();
                    plat.set_timer(TOKEN_VCACHE_SAMPLE, now.after(VCACHE_SAMPLE_GAP_NS));
                }
                plat.set_timer(TOKEN_VCACHE_PERIOD, now.after(VCACHE_PERIOD_NS));
            }
            TOKEN_VCACHE_SAMPLE if self.cfg.vcache && self.vcache.window_open() => {
                if self.vcache.sample_step(kern, plat) {
                    plat.set_timer(TOKEN_VCACHE_SAMPLE, plat.now().after(VCACHE_SAMPLE_GAP_NS));
                } else {
                    match self.vcache.close_window(kern, plat) {
                        Ok(()) => {
                            if let Some(r) = self.resil.as_mut() {
                                r.observe_vcache(plat.now(), &self.vcache);
                                r.observe_suspicion(
                                    plat.now(),
                                    ProbeKind::Vcache,
                                    self.vcache.vet.suspicion,
                                );
                            }
                        }
                        Err(e) => self.probe_error(kern, plat, e),
                    }
                }
            }
            TOKEN_RESIL_WATCHDOG => {
                let now = plat.now();
                if self.resil.is_none() {
                    return;
                }
                // A pre-woken target that never started (offlined, crushed,
                // or re-pinned away) would hold its pull slot forever.
                let stale = self.ivh.take_stale_pulls(now, PULL_TIMEOUT_NS);
                self.abandon_pulls(kern, now, stale);
                let action = match self.resil.as_mut() {
                    Some(r) => {
                        r.observe_vtop(now, self.vtop.validations, self.vtop.validation_failures);
                        if self.vtop.hardened {
                            r.observe_suspicion(now, ProbeKind::Vtop, self.vtop.vet.suspicion);
                        }
                        r.on_watchdog(kern, now)
                    }
                    None => ResilAction::None,
                };
                match action {
                    ResilAction::EnteredDegraded => self.on_entered_degraded(kern, plat),
                    ResilAction::Reprobe(p) => self.force_reprobe(kern, plat, p),
                    ResilAction::ExitedDegraded => {
                        // Re-trusted: the next window republishes overrides.
                        self.vcap.suppress_publish = false;
                    }
                    ResilAction::None => {}
                }
                if self.resil.is_some() {
                    plat.set_timer(TOKEN_RESIL_WATCHDOG, now.after(WATCHDOG_PERIOD_NS));
                }
            }
            _ => {}
        }
    }
}

/// Installs vSched into a guest: creates the instance, arms the prober
/// timers, and attaches the hook set (the paper's out-of-tree module + BPF
/// programs loading at boot).
pub fn install(guest: &mut GuestOs, plat: &mut dyn Platform, cfg: VschedConfig) {
    let nr = guest.kern.nr_vcpus();
    let now = plat.now();
    let vs = Vsched::new(nr, cfg, now);
    if vs.resil.is_some() {
        // The watchdog's first tick lands before the first probe window so
        // a low entry threshold (or an already-poisoned config) degrades
        // the VM before any heavy prober gets to run.
        plat.set_timer(
            TOKEN_RESIL_WATCHDOG,
            now.after(WATCHDOG_PERIOD_NS.min(5_000_000)),
        );
    }
    plat.set_timer(TOKEN_VCAP_OPEN, now.after(VCAP_FIRST_WINDOW_NS));
    plat.set_timer(TOKEN_VTOP_PERIOD, now.after(50_000_000));
    if vs.cfg.vcache {
        // First window after the first vtop pass has had a chance to
        // install real LLC domains (single-domain estimates are still
        // sound, just coarser).
        plat.set_timer(TOKEN_VCACHE_PERIOD, now.after(30_000_000));
    }
    guest.install_hooks(Box::new(vs));
}

/// Convenience: borrows the installed [`Vsched`] back out of a guest.
pub fn instance(guest: &mut GuestOs) -> Option<&mut Vsched> {
    guest.hooks_mut()?.as_any().downcast_mut::<Vsched>()
}
