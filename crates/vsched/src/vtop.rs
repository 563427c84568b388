//! `vtop`: the vCPU topology prober (paper §3.1).
//!
//! Topology is inferred from *measured cache-line transfer latency* between
//! vCPU pairs. A probe session pins one high-priority spinner per vCPU of
//! the pair; transfers only complete while both vCPUs are simultaneously
//! active, at the physical latency of their current placement — SMT
//! siblings are fast, same-socket medium, cross-socket slow, and stacked
//! vCPUs *never* overlap, so their sessions exhaust the attempt budget with
//! zero transfers and report infinite distance.
//!
//! The paper's three speed optimizations are implemented:
//!
//! 1. **Inference skipping** — a vCPU found stacked/SMT with a socket
//!    leader inherits the leader's socket without probing other leaders.
//! 2. **Socket-first, then parallel** — socket membership is resolved
//!    first (sequential sessions against socket leaders); SMT/stacking
//!    discovery then proceeds *in parallel across sockets*.
//! 3. **Validation periods** — between full probes, a much lighter pass
//!    re-checks known pairs (all in parallel, since the pairs are
//!    disjoint) plus leader representatives; a full probe runs only when
//!    validation detects a mismatch.

use crate::error::ProbeError;
use crate::tunables::{
    VTOP_MAX_EXTENSIONS, VTOP_SMT_THRESHOLD_NS, VTOP_SOCKET_THRESHOLD_NS, VTOP_SPIN_ATTEMPT_NS,
    VTOP_TARGET_TRANSFERS, VTOP_TIMEOUT_ATTEMPTS,
};
use crate::vet::{BandFloor, Vet};
use guestos::{
    CpuMask, Kernel, PerceivedTopology, Platform, Policy, SpawnSpec, TaskId, TaskProgram, VcpuId,
};
use simcore::SimTime;
use trace::{EventKind, ProbeKind};

/// Classified distance between a vCPU pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairClass {
    /// Time-sharing one hardware thread (infinite measured distance).
    Stacked,
    /// SMT siblings.
    Smt,
    /// Same socket, different cores.
    SameSocket,
    /// Different sockets.
    CrossSocket,
}

/// An in-flight pair probe.
struct Session {
    a: usize,
    b: usize,
    prober_a: TaskId,
    prober_b: TaskId,
    transfers: f64,
    attempts: f64,
    budget: f64,
    extensions: u8,
    min_latency: f64,
    rate_transfers: f64,
    rate_attempts: f64,
    last: SimTime,
    outcome: Option<PairClass>,
    /// Wall-clock latency matrix entry (ns) — `f64::INFINITY` for stacked.
    latency: f64,
}

impl Session {
    /// Settles accrual and installs rates from current activity.
    fn update(&mut self, now: SimTime, overlap_latency: Option<f64>, any_active: bool) {
        let dt = now.since(self.last) as f64;
        self.transfers += self.rate_transfers * dt;
        self.attempts += self.rate_attempts * dt;
        self.last = now;
        match overlap_latency {
            Some(lat) => {
                self.min_latency = self.min_latency.min(lat);
                self.rate_transfers = 1.0 / lat;
                self.rate_attempts = 1.0 / lat;
            }
            None => {
                self.rate_transfers = 0.0;
                self.rate_attempts = if any_active {
                    1.0 / VTOP_SPIN_ATTEMPT_NS
                } else {
                    0.0
                };
            }
        }
    }

    /// Checks for completion, applying the timeout-extension policy.
    fn check_done(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        if self.transfers >= VTOP_TARGET_TRANSFERS {
            self.latency = self.min_latency;
            self.outcome = Some(classify(self.min_latency));
            return;
        }
        if self.attempts >= self.budget {
            if self.extensions < VTOP_MAX_EXTENSIONS {
                // Extend the timeout to avoid misidentifying a non-stacked
                // pair whose active periods rarely overlap (§3.1).
                self.extensions += 1;
                self.budget *= 2.0;
                return;
            }
            if self.transfers < 1.0 {
                self.latency = f64::INFINITY;
                self.outcome = Some(PairClass::Stacked);
            } else {
                // At least one real transfer was observed: classify by the
                // lowest latency seen rather than giving up.
                self.latency = self.min_latency;
                self.outcome = Some(classify(self.min_latency));
            }
        }
    }
}

fn classify(latency_ns: f64) -> PairClass {
    if latency_ns < VTOP_SMT_THRESHOLD_NS {
        PairClass::Smt
    } else if latency_ns < VTOP_SOCKET_THRESHOLD_NS {
        PairClass::SameSocket
    } else {
        PairClass::CrossSocket
    }
}

/// What a finished probe pass produced.
enum Phase {
    Idle,
    Full(FullProbe),
    Validate(Validation),
}

struct FullProbe {
    started: SimTime,
    stage: FullStage,
    socket_of: Vec<Option<usize>>,
    leaders: Vec<usize>,
    stacked_with: Vec<Option<usize>>,
    smt_with: Vec<Option<usize>>,
    classify_v: usize,
    leader_idx: usize,
    /// Per-socket members still unresolved for SMT/stacking discovery.
    smt_queues: Vec<Vec<usize>>,
}

#[derive(PartialEq, Eq)]
enum FullStage {
    Sockets,
    Smt,
}

struct Validation {
    started: SimTime,
    stage: ValStage,
    mismatch: bool,
    /// Hardened mode rejected at least one sample this pass.
    rejected: bool,
    /// Expected class per in-flight session (parallel with `sessions`).
    expectations: Vec<(usize, usize, PairClass)>,
    socket_checks: Vec<(usize, usize, bool)>, // (a, b, expect_cross)
    check_idx: usize,
}

#[derive(PartialEq, Eq)]
enum ValStage {
    Pairs,
    Sockets,
}

/// The topology prober.
pub struct Vtop {
    nr_vcpus: usize,
    phase: Phase,
    sessions: Vec<Session>,
    /// The most recently probed topology.
    pub topo: Option<PerceivedTopology>,
    /// Pairwise latency matrix from the last full probe (ns;
    /// `f64::INFINITY` = stacked, `-1.0` = not probed/inferred).
    pub latency_matrix: Vec<Vec<f64>>,
    /// Duration of the last full probe (ns).
    pub last_full_ns: Option<u64>,
    /// Duration of the last validation pass (ns).
    pub last_validate_ns: Option<u64>,
    /// Completed full probes.
    pub full_probes: u64,
    /// Completed validation passes.
    pub validations: u64,
    /// Validation passes that detected a topology change.
    pub validation_failures: u64,
    /// Median/MAD vetting of validation latencies + suspicion scoring
    /// (PR 9's vcap hardening discipline). Off by default — the paper
    /// trusts its neighbours.
    pub hardened: bool,
    /// Vetting of validation latencies per finite pair class
    /// (Smt / SameSocket / CrossSocket); the band floor is a quarter of
    /// the history median, and a clean validation pass is a clean window.
    pub vet: Vet,
    installed: Option<PerceivedTopology>,
}

/// History slot of a finite pair class (stacked pairs have no latency).
fn class_slot(c: PairClass) -> Option<usize> {
    match c {
        PairClass::Smt => Some(0),
        PairClass::SameSocket => Some(1),
        PairClass::CrossSocket => Some(2),
        PairClass::Stacked => None,
    }
}

impl Vtop {
    /// Creates the prober.
    pub fn new(nr_vcpus: usize) -> Self {
        Self {
            nr_vcpus,
            phase: Phase::Idle,
            sessions: Vec::new(),
            topo: None,
            latency_matrix: vec![vec![-1.0; nr_vcpus]; nr_vcpus],
            last_full_ns: None,
            last_validate_ns: None,
            full_probes: 0,
            validations: 0,
            validation_failures: 0,
            hardened: false,
            vet: Vet::new(3, BandFloor::Relative(0.25)),
            installed: None,
        }
    }

    /// Whether a probe pass is in progress.
    pub fn probing(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    /// Takes a newly probed topology for installation (kernel module path).
    pub fn take_installed(&mut self) -> Option<PerceivedTopology> {
        self.installed.take()
    }

    fn spawn_prober(&self, kern: &mut Kernel, plat: &mut dyn Platform, v: usize) -> TaskId {
        let spec = SpawnSpec {
            policy: Policy::Normal { weight: 88761 },
            affinity: CpuMask::single(v),
            program: TaskProgram::BuiltinSpin,
            latency_sensitive: false,
            comm_group: None,
            cache_sensitive: false,
            bypass_cgroup: true, // vtop may probe banned stacked vCPUs (§3.4)
        };
        let t = kern.spawn(plat.now(), spec);
        kern.task_mut(t).remaining = guestos::kernel::BUILTIN_SPIN_WORK;
        kern.wake_to(plat, t, VcpuId(v), None);
        t
    }

    fn start_session(&mut self, kern: &mut Kernel, plat: &mut dyn Platform, a: usize, b: usize) {
        debug_assert_ne!(a, b);
        let prober_a = self.spawn_prober(kern, plat, a);
        let prober_b = self.spawn_prober(kern, plat, b);
        self.sessions.push(Session {
            a,
            b,
            prober_a,
            prober_b,
            transfers: 0.0,
            attempts: 0.0,
            budget: VTOP_TIMEOUT_ATTEMPTS,
            extensions: 0,
            min_latency: f64::INFINITY,
            rate_transfers: 0.0,
            rate_attempts: 0.0,
            last: plat.now(),
            outcome: None,
            latency: -1.0,
        });
    }

    fn end_session(kern: &mut Kernel, plat: &mut dyn Platform, s: &Session) {
        kern.kill_task(plat, s.prober_a);
        kern.kill_task(plat, s.prober_b);
    }

    /// Updates every in-flight session from current activity; returns true
    /// while any session remains (the caller keeps the check timer armed).
    ///
    /// Errors abort the whole probe pass (probers killed, partial results
    /// discarded, previously installed topology untouched): under chaos a
    /// session can finish in a state the phase machine cannot reconcile,
    /// and a half-applied topology is worse than a stale one.
    pub fn update_sessions(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
    ) -> Result<bool, ProbeError> {
        if self.sessions.is_empty() {
            return Ok(self.probing());
        }
        let now = plat.now();
        for s in self.sessions.iter_mut() {
            let lat = plat.cacheline_latency_ns(VcpuId(s.a), VcpuId(s.b));
            let any = plat.vcpu_active(VcpuId(s.a)) || plat.vcpu_active(VcpuId(s.b));
            s.update(now, lat, any);
            s.check_done();
        }
        if let Err(e) = self.advance(kern, plat) {
            self.abort(kern, plat);
            return Err(e);
        }
        Ok(self.probing())
    }

    /// Aborts the in-flight probe pass: kills every session prober and
    /// returns to idle without touching the installed topology.
    fn abort(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        for s in std::mem::take(&mut self.sessions) {
            Self::end_session(kern, plat, &s);
        }
        self.phase = Phase::Idle;
    }

    /// Begins a full topology probe.
    pub fn start_full(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        if self.probing() || self.nr_vcpus < 2 {
            return;
        }
        self.latency_matrix = vec![vec![-1.0; self.nr_vcpus]; self.nr_vcpus];
        let mut fp = FullProbe {
            started: plat.now(),
            stage: FullStage::Sockets,
            socket_of: vec![None; self.nr_vcpus],
            leaders: vec![0],
            stacked_with: vec![None; self.nr_vcpus],
            smt_with: vec![None; self.nr_vcpus],
            classify_v: 1,
            leader_idx: 0,
            smt_queues: Vec::new(),
        };
        fp.socket_of[0] = Some(0);
        self.phase = Phase::Full(fp);
        self.start_session(kern, plat, 0, 1);
    }

    /// Begins a validation pass (falls back to a full probe when no
    /// topology is known yet).
    pub fn start_validation(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) {
        if self.probing() {
            return;
        }
        let Some(topo) = self.topo.clone() else {
            self.start_full(kern, plat);
            return;
        };
        let mut expectations = Vec::new();
        let mut seen = vec![false; self.nr_vcpus];
        for v in 0..self.nr_vcpus {
            if seen[v] {
                continue;
            }
            // Validate one partner per stacked / SMT group.
            if topo.stacked[v].count() > 1 {
                let partner = topo.stacked[v].iter().find(|&o| o != v);
                if let Some(o) = partner {
                    expectations.push((v, o, PairClass::Stacked));
                    seen[v] = true;
                    seen[o] = true;
                    continue;
                }
            }
            if topo.smt[v].count() > 1 {
                let partner = topo.smt[v].iter().find(|&o| o != v && !seen[o]);
                if let Some(o) = partner {
                    expectations.push((v, o, PairClass::Smt));
                    seen[v] = true;
                    seen[o] = true;
                }
            }
        }
        // Socket representative checks, run sequentially after the pair
        // stage: consecutive socket leaders must be cross-socket; a leader
        // and another member of its socket must not be cross-socket.
        let mut leaders: Vec<usize> = Vec::new();
        let mut seen_socket: Vec<CpuMask> = Vec::new();
        for v in 0..self.nr_vcpus {
            if seen_socket.iter().any(|m| m.contains(v)) {
                continue;
            }
            leaders.push(v);
            seen_socket.push(topo.socket[v]);
        }
        let mut socket_checks = Vec::new();
        for w in leaders.windows(2) {
            socket_checks.push((w[0], w[1], true));
        }
        for &l in &leaders {
            if let Some(member) = topo.socket[l]
                .iter()
                .find(|&m| m != l && !topo.stacked[l].contains(m))
            {
                socket_checks.push((l, member, false));
            }
        }
        let mut val = Validation {
            started: plat.now(),
            stage: ValStage::Pairs,
            mismatch: false,
            rejected: false,
            expectations: expectations.clone(),
            socket_checks,
            check_idx: 0,
        };
        // All pair sessions run in parallel: the pairs are disjoint.
        for &(a, b, _) in &expectations {
            self.start_session(kern, plat, a, b);
        }
        if self.sessions.is_empty() {
            // No pairs to validate: go straight to socket checks, or finish
            // trivially when there are none either.
            val.stage = ValStage::Sockets;
            if let Some(&(a, b, _)) = val.socket_checks.first() {
                self.phase = Phase::Validate(val);
                self.start_session(kern, plat, a, b);
            } else {
                self.validations += 1;
                self.last_validate_ns = Some(0);
            }
            return;
        }
        self.phase = Phase::Validate(val);
    }

    /// Consumes finished sessions and drives the phase machine.
    fn advance(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) -> Result<(), ProbeError> {
        loop {
            // Collect finished sessions.
            let mut finished: Vec<Session> = Vec::new();
            let mut i = 0;
            while i < self.sessions.len() {
                if self.sessions[i].outcome.is_some() {
                    finished.push(self.sessions.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if finished.is_empty() {
                return Ok(());
            }
            for s in &finished {
                Self::end_session(kern, plat, s);
                if s.latency.is_finite() && s.latency >= 0.0 {
                    self.latency_matrix[s.a][s.b] = s.latency;
                    self.latency_matrix[s.b][s.a] = s.latency;
                } else if s.outcome == Some(PairClass::Stacked) {
                    self.latency_matrix[s.a][s.b] = f64::INFINITY;
                    self.latency_matrix[s.b][s.a] = f64::INFINITY;
                }
            }
            let mut phase = std::mem::replace(&mut self.phase, Phase::Idle);
            match &mut phase {
                Phase::Full(fp) => {
                    for s in &finished {
                        self.full_step(fp, kern, plat, s)?;
                    }
                    if matches!(fp.stage, FullStage::Smt)
                        && self.sessions.is_empty()
                        && fp.smt_queues.iter().all(|q| q.len() <= 1)
                    {
                        self.finish_full(fp, plat.now())?;
                        // phase goes Idle.
                        continue;
                    }
                }
                Phase::Validate(val) => {
                    for s in &finished {
                        self.validate_step(kern, plat.now(), val, s)?;
                    }
                    if self.sessions.is_empty() {
                        if val.stage == ValStage::Pairs {
                            val.stage = ValStage::Sockets;
                        }
                        if val.stage == ValStage::Sockets {
                            if val.check_idx < val.socket_checks.len() {
                                let (a, b, _) = val.socket_checks[val.check_idx];
                                self.start_session(kern, plat, a, b);
                            } else {
                                // Validation complete.
                                self.validations += 1;
                                self.last_validate_ns = Some(plat.now().since(val.started));
                                let mismatch = val.mismatch;
                                if self.hardened {
                                    self.vet.end_window(!val.rejected);
                                }
                                self.phase = Phase::Idle;
                                if mismatch {
                                    self.validation_failures += 1;
                                    self.start_full(kern, plat);
                                }
                                return Ok(());
                            }
                        }
                    }
                }
                Phase::Idle => {}
            }
            if !matches!(phase, Phase::Idle) {
                self.phase = phase;
            }
            if self.sessions.iter().all(|s| s.outcome.is_none()) {
                return Ok(());
            }
        }
    }

    fn full_step(
        &mut self,
        fp: &mut FullProbe,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
        s: &Session,
    ) -> Result<(), ProbeError> {
        let Some(class) = s.outcome else {
            return Err(ProbeError::Inconsistent(
                ProbeKind::Vtop,
                "finished session without outcome",
            ));
        };
        match fp.stage {
            FullStage::Sockets => {
                let v = fp.classify_v;
                let leader = fp.leaders[fp.leader_idx];
                debug_assert!((s.a == leader && s.b == v) || (s.a == v && s.b == leader));
                match class {
                    PairClass::Stacked => {
                        fp.socket_of[v] = fp.socket_of[leader];
                        fp.stacked_with[v] = Some(leader);
                        fp.stacked_with[leader] = Some(v);
                    }
                    PairClass::Smt => {
                        fp.socket_of[v] = fp.socket_of[leader];
                        fp.smt_with[v] = Some(leader);
                        fp.smt_with[leader] = Some(v);
                    }
                    PairClass::SameSocket => fp.socket_of[v] = fp.socket_of[leader],
                    PairClass::CrossSocket => {
                        fp.leader_idx += 1;
                        if fp.leader_idx < fp.leaders.len() {
                            let next_leader = fp.leaders[fp.leader_idx];
                            self.start_session(kern, plat, next_leader, v);
                            return Ok(());
                        }
                        // A new socket.
                        fp.socket_of[v] = Some(fp.leaders.len());
                        fp.leaders.push(v);
                    }
                }
                // Next vCPU to classify.
                fp.classify_v += 1;
                fp.leader_idx = 0;
                if fp.classify_v < self.nr_vcpus {
                    let v = fp.classify_v;
                    let leader = fp.leaders[0];
                    self.start_session(kern, plat, leader, v);
                } else {
                    // Socket stage complete: build per-socket SMT queues of
                    // vCPUs whose pairing is still unknown, and start one
                    // session per socket (parallel across sockets).
                    fp.stage = FullStage::Smt;
                    let nr_sockets = fp.leaders.len();
                    fp.smt_queues = vec![Vec::new(); nr_sockets];
                    for u in 0..self.nr_vcpus {
                        if fp.stacked_with[u].is_none() && fp.smt_with[u].is_none() {
                            let Some(sock) = fp.socket_of[u] else {
                                return Err(ProbeError::Inconsistent(
                                    ProbeKind::Vtop,
                                    "vCPU left socket stage unresolved",
                                ));
                            };
                            fp.smt_queues[sock].push(u);
                        }
                    }
                    for sock in 0..nr_sockets {
                        if fp.smt_queues[sock].len() >= 2 {
                            let a = fp.smt_queues[sock][0];
                            let b = fp.smt_queues[sock][1];
                            self.start_session(kern, plat, a, b);
                        }
                    }
                }
            }
            FullStage::Smt => {
                let Some(sock) = fp.socket_of.get(s.a).copied().flatten() else {
                    return Err(ProbeError::Inconsistent(
                        ProbeKind::Vtop,
                        "SMT session on socket-unresolved vCPU",
                    ));
                };
                let q = &mut fp.smt_queues[sock];
                // The session probed q[0] against some q[i].
                let Some(&head) = q.first() else {
                    return Err(ProbeError::Inconsistent(
                        ProbeKind::Vtop,
                        "SMT session finished for an empty queue",
                    ));
                };
                let other = if s.a == head { s.b } else { s.a };
                let pos = q.iter().position(|&x| x == other).unwrap_or(0);
                match class {
                    PairClass::Smt => {
                        fp.smt_with[head] = Some(other);
                        fp.smt_with[other] = Some(head);
                        q.retain(|&x| x != head && x != other);
                    }
                    PairClass::Stacked => {
                        fp.stacked_with[head] = Some(other);
                        fp.stacked_with[other] = Some(head);
                        q.retain(|&x| x != head && x != other);
                    }
                    _ => {
                        // Same-socket only; try the next candidate for head.
                        if pos + 1 < q.len() {
                            let next = q[pos + 1];
                            self.start_session(kern, plat, head, next);
                            return Ok(());
                        }
                        // head has no partner: it owns its core.
                        q.remove(0);
                    }
                }
                if q.len() >= 2 {
                    let a = q[0];
                    let b = q[1];
                    self.start_session(kern, plat, a, b);
                }
            }
        }
        Ok(())
    }

    fn finish_full(&mut self, fp: &FullProbe, now: SimTime) -> Result<(), ProbeError> {
        let n = self.nr_vcpus;
        let mut stacked_groups: Vec<Vec<usize>> = Vec::new();
        let mut smt_groups: Vec<Vec<usize>> = Vec::new();
        let mut socket_groups: Vec<Vec<usize>> = vec![Vec::new(); fp.leaders.len()];
        let mut seen = vec![false; n];
        for v in 0..n {
            let Some(sock) = fp.socket_of[v] else {
                return Err(ProbeError::Inconsistent(
                    ProbeKind::Vtop,
                    "probe finished with an unresolved socket",
                ));
            };
            socket_groups[sock].push(v);
            if seen[v] {
                continue;
            }
            if let Some(o) = fp.stacked_with[v] {
                stacked_groups.push(vec![v, o]);
                seen[v] = true;
                seen[o] = true;
            } else if let Some(o) = fp.smt_with[v] {
                smt_groups.push(vec![v, o]);
                seen[v] = true;
                seen[o] = true;
            }
        }
        let topo = PerceivedTopology::from_groups(n, &stacked_groups, &smt_groups, &socket_groups);
        self.topo = Some(topo.clone());
        self.installed = Some(topo);
        self.full_probes += 1;
        self.last_full_ns = Some(now.since(fp.started));
        self.phase = Phase::Idle;
        Ok(())
    }

    fn validate_step(
        &mut self,
        kern: &mut Kernel,
        now: SimTime,
        val: &mut Validation,
        s: &Session,
    ) -> Result<(), ProbeError> {
        let Some(class) = s.outcome else {
            return Err(ProbeError::Inconsistent(
                ProbeKind::Vtop,
                "finished session without outcome",
            ));
        };
        match val.stage {
            ValStage::Pairs => {
                if let Some(&(_, _, expect)) = val
                    .expectations
                    .iter()
                    .find(|(a, b, _)| (*a == s.a && *b == s.b) || (*a == s.b && *b == s.a))
                {
                    if class != expect {
                        if self.hardened && self.reject_latency(kern, now, s, class) {
                            // Vetted out: an interference spike inflated
                            // the latency past a class boundary. Suspicion
                            // rises; the topology is NOT re-probed.
                            val.rejected = true;
                        } else {
                            val.mismatch = true;
                        }
                    } else if self.hardened {
                        if let Some(slot) = class_slot(class) {
                            if s.latency.is_finite() {
                                self.vet.accept(slot, s.latency);
                            }
                        }
                    }
                }
            }
            ValStage::Sockets => {
                let Some(&(_, _, expect_cross)) = val.socket_checks.get(val.check_idx) else {
                    return Err(ProbeError::Inconsistent(
                        ProbeKind::Vtop,
                        "socket check finished past the check list",
                    ));
                };
                let is_cross = class == PairClass::CrossSocket;
                if is_cross != expect_cross {
                    val.mismatch = true;
                }
                val.check_idx += 1;
            }
        }
        Ok(())
    }

    /// Hardened-mode vetting of a mismatching validation latency: a
    /// genuine topology change produces a latency that fits the measured
    /// class's own historical band (the pair really does sit at that
    /// distance now), while an interference spike lands *outside* every
    /// band — the transfer was slowed by a noisy neighbour, not moved by
    /// the hypervisor. Returns true when the sample was rejected.
    fn reject_latency(
        &mut self,
        kern: &mut Kernel,
        now: SimTime,
        s: &Session,
        measured: PairClass,
    ) -> bool {
        let Some(slot) = class_slot(measured) else {
            // Stacked has no latency to vet: zero overlap is not a
            // plausible interference artifact.
            return false;
        };
        if !s.latency.is_finite() {
            return false;
        }
        let Some(med) = self.vet.outlier(slot, s.latency) else {
            return false;
        };
        self.vet.reject();
        kern.trace.emit(
            now,
            EventKind::ProbeRejected {
                vcpu: s.a as u16,
                probe: ProbeKind::Vtop,
                sample: s.latency,
                median: med,
            },
        );
        true
    }

    /// Current stacked groups from the probed topology (for rwc).
    pub fn stacked_groups(&self) -> Vec<Vec<usize>> {
        let Some(topo) = &self.topo else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut seen = vec![false; self.nr_vcpus];
        for v in 0..self.nr_vcpus {
            if seen[v] || topo.stacked[v].count() <= 1 {
                continue;
            }
            let group: Vec<usize> = topo.stacked[v].iter().collect();
            for &m in &group {
                seen[m] = true;
            }
            out.push(group);
        }
        out
    }
}
