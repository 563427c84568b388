//! The scoped worker pool behind parallel host stepping.
//!
//! A [`Cluster`](crate::Cluster) advances its hosts to a common barrier
//! many times per simulated second (every 50 ms epoch plus every
//! placement, failure and recovery). Spawning threads per barrier would
//! dominate the work, so [`Cluster::run`](crate::Cluster::run) keeps one
//! pool of workers alive for the whole run inside a `std::thread::scope`
//! and drives a *round* through it per full sync: the coordinator
//! publishes the host slice, the deferred per-host barriers and the
//! barrier time, workers (and the coordinator itself) claim host indices
//! from a shared cursor under the pool mutex, replay and step their
//! claims outside the lock, and the round ends only when every host
//! reached the barrier. Between rounds workers hold no borrow of
//! any host and block on a condvar, which is what lets the coordinator
//! run the serial phases (admission, placement, SLO accounting,
//! fleet-collector emission) with plain `&mut self` access.
//!
//! # Why this is sound without `Machine: Send`
//!
//! A [`HostSim`] is not `Send`: its machine, guest kernels, workload, and
//! per-host trace collector share `Rc<RefCell<…>>` handles. But that `Rc`
//! graph is *closed per host* — host `h`'s collector is shared only among
//! host `h`'s machine and guests, and a live VM's latency-stats handle is
//! shared only between the cluster's bookkeeping (which the coordinator
//! touches strictly between rounds) and the workload boxed inside host
//! `h`'s machine. During a round:
//!
//! * each host index is claimed exactly once (the cursor advances under
//!   the pool mutex), so exactly one thread touches host `h`'s graph;
//! * the coordinator does not return from [`StepPool::run_round`] until
//!   `remaining == 0`, so no worker still holds a host when the serial
//!   phase resumes, and the mutex hand-offs give the necessary
//!   happens-before edges for the non-atomic `Rc` counts and `RefCell`
//!   borrows;
//! * the host slice itself is never resized mid-round (arrivals reuse VM
//!   slots inside a machine; hosts are fixed at construction).
//!
//! Confinement in time, not `Sync`, is the invariant — which is why the
//! `unsafe impl Send` lives on the private [`HostsPtr`] wrapper here and
//! nowhere near the hot single-host emit paths.

use crate::cluster::HostSim;
use simcore::SimTime;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Base pointer of the round's host slice.
///
/// SAFETY (for the `Send` impl): the pointer is only dereferenced at an
/// index claimed from `PoolState::next` while `PoolState::remaining`
/// keeps the coordinator blocked inside [`StepPool::run_round`], so every
/// `HostSim` — and its host-closed `Rc` graph — is touched by exactly one
/// thread at a time, with mutex-mediated happens-before between owners.
struct HostsPtr(*mut HostSim);

unsafe impl Send for HostsPtr {}

/// The round's deferred barriers, read by every claim.
///
/// SAFETY (for the `Send` impl): it points into the coordinator's
/// `&[SimTime]` borrow, which outlives the round because
/// [`StepPool::run_round`] does not return until `remaining == 0`, and
/// nothing writes the list while that borrow lives, so shared reads from
/// any worker are sound.
struct DeferredPtr(*const [SimTime]);

unsafe impl Send for DeferredPtr {}

/// One claimed unit of work: host `i` of the published slice, plus the
/// round parameters it must be stepped with.
struct Claim {
    ptr: *mut HostSim,
    i: usize,
    deferred: *const [SimTime],
    until: SimTime,
    sample_now_ns: Option<u64>,
    threads_per_host: u64,
}

struct PoolState {
    hosts: HostsPtr,
    len: usize,
    /// Next unclaimed host index; `next >= len` means no work available.
    next: usize,
    /// Hosts claimed but not yet stepped to the barrier this round.
    remaining: usize,
    /// Per-host barriers each host replays before stepping to `until`.
    deferred: DeferredPtr,
    until: SimTime,
    /// `Some(now_ns)` on epoch barriers: fold the utilization sample
    /// into the host right after stepping, on the same worker.
    sample_now_ns: Option<u64>,
    threads_per_host: u64,
    /// A claim panicked this round; the coordinator re-raises once the
    /// round has fully drained (so no worker still borrows a host).
    panicked: bool,
    shutdown: bool,
}

impl PoolState {
    /// Takes the next claim if the current round still has one.
    fn claim(&mut self) -> Option<Claim> {
        if self.next >= self.len {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(Claim {
            ptr: self.hosts.0,
            i,
            deferred: self.deferred.0,
            until: self.until,
            sample_now_ns: self.sample_now_ns,
            threads_per_host: self.threads_per_host,
        })
    }
}

/// A run-scoped stepping pool; see the module docs for the protocol.
pub(crate) struct StepPool {
    state: Mutex<PoolState>,
    /// Workers wait here for a new round (or shutdown).
    start: Condvar,
    /// The coordinator waits here for the round to drain.
    done: Condvar,
}

impl StepPool {
    pub(crate) fn new() -> StepPool {
        StepPool {
            state: Mutex::new(PoolState {
                hosts: HostsPtr(std::ptr::null_mut()),
                len: 0,
                next: 0,
                remaining: 0,
                deferred: DeferredPtr(&[]),
                until: SimTime(0),
                sample_now_ns: None,
                threads_per_host: 1,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Steps a claimed host outside the lock. Panics are caught so
    /// `remaining` always drains; the coordinator re-raises after the
    /// round.
    fn run_claim(&self, c: Claim) {
        // SAFETY: see `HostsPtr` — `c.i` was claimed exactly once under
        // the pool mutex and the slice outlives the round.
        let host = unsafe { &mut *c.ptr.add(c.i) };
        // SAFETY: see `DeferredPtr` — the list outlives the round and is
        // only read during it.
        let deferred = unsafe { &*c.deferred };
        let ok = panic::catch_unwind(AssertUnwindSafe(|| {
            host.step_round(deferred, c.until, c.sample_now_ns, c.threads_per_host)
        }));
        let mut st = self.state.lock().unwrap();
        st.remaining -= 1;
        if ok.is_err() {
            st.panicked = true;
        }
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Worker body: claim → step → repeat, parked between rounds.
    pub(crate) fn worker_loop(&self) {
        loop {
            let claim = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(c) = st.claim() {
                        break c;
                    }
                    st = self.start.wait(st).unwrap();
                }
            };
            self.run_claim(claim);
        }
    }

    /// Runs one barrier round over `hosts`, stepping every host through
    /// the `deferred` barriers it has not reached to `until` (and folding
    /// the epoch utilization sample when `sample_now_ns` is set). The
    /// coordinator claims work from the same cursor as the pool — on
    /// small fleets it steps most hosts itself — and does not return
    /// until every host reached the barrier.
    pub(crate) fn run_round(
        &self,
        hosts: &mut [HostSim],
        deferred: &[SimTime],
        until: SimTime,
        sample_now_ns: Option<u64>,
        threads_per_host: u64,
    ) {
        if hosts.is_empty() {
            return;
        }
        {
            let mut st = self.state.lock().unwrap();
            debug_assert_eq!(st.remaining, 0, "previous round must have drained");
            st.hosts = HostsPtr(hosts.as_mut_ptr());
            st.len = hosts.len();
            st.next = 0;
            st.remaining = hosts.len();
            st.deferred = DeferredPtr(deferred);
            st.until = until;
            st.sample_now_ns = sample_now_ns;
            st.threads_per_host = threads_per_host;
            self.start.notify_all();
        }
        loop {
            // The guard must drop before stepping (`run_claim` relocks),
            // so take the claim in its own statement — a `while let`
            // scrutinee would keep the lock alive across the body.
            let claim = self.state.lock().unwrap().claim();
            match claim {
                Some(c) => self.run_claim(c),
                None => break,
            }
        }
        let panicked = {
            let mut st = self.state.lock().unwrap();
            while st.remaining > 0 {
                st = self.done.wait(st).unwrap();
            }
            st.len = 0;
            st.next = 0;
            st.hosts = HostsPtr(std::ptr::null_mut());
            st.deferred = DeferredPtr(&[]);
            std::mem::replace(&mut st.panicked, false)
        };
        if panicked {
            // Drained first, so no worker still borrows a host; release
            // the pool before unwinding or the scope join would deadlock
            // on workers parked in `start.wait`.
            self.shutdown();
            panic!("parallel host stepping: a worker panicked while stepping a host");
        }
    }

    /// Releases every parked worker; the scope join then completes.
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        self.start.notify_all();
    }
}
