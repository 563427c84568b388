//! Randomized property checks over the per-socket LLC occupancy model.
//!
//! For *any* interleaving of schedule/deschedule/footprint/advance
//! operations at arbitrary times, [`LlcModel`] must (1) never report
//! more resident bytes than a socket's capacity, (2) keep its byte
//! ledger conserved — `occupied == inserted - evicted - decayed` within
//! float tolerance — and (3) only ever *lose* occupancy on a socket
//! while a VM is fully descheduled there. One test re-seeds from the
//! `SWEEP_SEED` environment variable so a CI sweep failure prints the
//! exact seed to replay:
//! `SWEEP_SEED=<seed> cargo test -p vsched-hostsim --test llc_propcheck`.

use simcore::propcheck;
use simcore::{SimRng, SimTime};
use vsched_hostsim::llc::LlcModel;

const MB: f64 = 1024.0 * 1024.0;

/// A random but *valid* operation schedule driver: deschedules are only
/// issued against VMs that are actually running on that socket, and time
/// only moves forward.
struct Harness {
    m: LlcModel,
    now: SimTime,
    sockets: usize,
    vms: usize,
    /// Mirror of the model's per-(vm, socket) running counts, so the
    /// driver never violates the sched/desched pairing contract.
    running: Vec<Vec<u32>>,
}

impl Harness {
    fn new(rng: &mut SimRng) -> Self {
        let sockets = 1 + rng.index(3);
        let vms = 1 + rng.index(4);
        let mut m = LlcModel::new(sockets, 32.0 * MB);
        for _ in 0..vms {
            m.add_vm();
        }
        Harness {
            m,
            now: SimTime::ZERO,
            sockets,
            vms,
            running: vec![vec![0; sockets]; vms],
        }
    }

    /// Applies one random operation after a random forward time step.
    fn step(&mut self, rng: &mut SimRng) {
        self.now = self.now.after(rng.range(0, 4_000_000));
        let vm = rng.index(self.vms);
        let socket = rng.index(self.sockets);
        match rng.index(4) {
            0 => {
                self.m.on_sched(self.now, vm, socket);
                self.running[vm][socket] += 1;
            }
            1 => {
                if self.running[vm][socket] > 0 {
                    self.m.on_desched(self.now, vm, socket);
                    self.running[vm][socket] -= 1;
                }
            }
            2 => {
                // Footprints from 0 (cache-insensitive) up to 3x the LLC,
                // so oversubscription and shrink-eviction both happen.
                let bytes = rng.f64() * 96.0 * MB;
                let bytes = if rng.chance(0.2) { 0.0 } else { bytes };
                self.m.set_footprint(self.now, vm, bytes);
            }
            _ => self.m.advance(self.now, socket),
        }
    }

    /// The invariants every reachable state must satisfy, on every socket.
    fn check(&mut self, label: &str) {
        for s in 0..self.sockets {
            self.m.advance(self.now, s);
            let snap = self.m.snapshot(s);
            let tol = (1e-6 * snap.inserted).max(1.0);
            assert!(
                snap.occupied <= self.m.llc_bytes() + tol,
                "{label}: socket {s} over capacity: occupied {} > llc {}",
                snap.occupied,
                self.m.llc_bytes()
            );
            let ledger = snap.inserted - snap.evicted - snap.decayed;
            assert!(
                (snap.occupied - ledger).abs() <= tol,
                "{label}: socket {s} ledger drift: occupied {} vs inserted - evicted - decayed = {}",
                snap.occupied,
                ledger
            );
            assert!(
                snap.occupied >= -tol
                    && snap.inserted >= 0.0
                    && snap.evicted >= 0.0
                    && snap.decayed >= 0.0,
                "{label}: socket {s} negative ledger entry: {snap:?}"
            );
            for vm in 0..self.vms {
                let occ = self.m.occupancy(vm, s);
                assert!(occ >= -tol, "{label}: vm {vm} negative occupancy {occ}");
                let eff = self.m.efficiency(vm, s);
                assert!(
                    (0.6..=1.0).contains(&eff),
                    "{label}: vm {vm} efficiency {eff} outside [MISS_FLOOR, 1]"
                );
                let con = self.m.contention(vm, s);
                assert!(
                    (0.0..=1.0).contains(&con),
                    "{label}: vm {vm} contention {con} outside [0, 1]"
                );
            }
        }
        let p = self.m.pressure();
        assert!(
            (0.0..=1.0).contains(&p),
            "{label}: pressure {p} outside [0, 1]"
        );
    }
}

fn run_schedule(rng: &mut SimRng, ops: usize, label: &str) {
    let mut h = Harness::new(rng);
    for op in 0..ops {
        h.step(rng);
        h.check(&format!("{label} op {op}"));
    }
}

/// Core safety property: arbitrary valid schedules never overflow a
/// socket, never leak ledger bytes, and keep every derived signal in
/// range.
#[test]
fn random_schedules_conserve_bytes_and_respect_capacity() {
    propcheck::forall(0x11C0, 48, |rng| run_schedule(rng, 60, "random schedule"));
}

/// While a VM is fully descheduled on a socket, its occupancy there is
/// monotone non-increasing — warm footprints can only cool, never grow.
#[test]
fn occupancy_decays_monotonically_while_descheduled() {
    propcheck::forall(0x11C1, 48, |rng| {
        let mut h = Harness::new(rng);
        // Warm a random subset of VMs with random on-CPU stints.
        for _ in 0..20 {
            h.step(rng);
        }
        // Deschedule everything, everywhere.
        for vm in 0..h.vms {
            for s in 0..h.sockets {
                while h.running[vm][s] > 0 {
                    h.m.on_desched(h.now, vm, s);
                    h.running[vm][s] -= 1;
                }
            }
        }
        let mut prev: Vec<Vec<f64>> = (0..h.vms)
            .map(|vm| (0..h.sockets).map(|s| h.m.occupancy(vm, s)).collect())
            .collect();
        for _ in 0..12 {
            h.now = h.now.after(rng.range(1, 20_000_000));
            for s in 0..h.sockets {
                h.m.advance(h.now, s);
            }
            for (vm, row) in prev.iter_mut().enumerate() {
                for (s, last) in row.iter_mut().enumerate() {
                    let occ = h.m.occupancy(vm, s);
                    assert!(
                        occ <= *last + 1e-9,
                        "vm {vm} socket {s} occupancy grew while descheduled: {last} -> {occ}"
                    );
                    *last = occ;
                }
            }
        }
    });
}

/// CI sweep hook: `SWEEP_SEED` reseeds one long schedule so a sweep
/// failure is replayable with
/// `SWEEP_SEED=<seed> cargo test -p vsched-hostsim --test llc_propcheck`.
#[test]
fn env_seeded_schedule_is_invariant_clean() {
    let seed = propcheck::sweep_seed(0x11C2);
    let mut rng = SimRng::new(seed);
    run_schedule(
        &mut rng,
        200,
        &format!("SWEEP_SEED={seed} (replay with this env var)"),
    );
}
