//! Direct-call unit costs of two inner-loop kernels: one PELT update
//! (`guestos`) and one LLC occupancy advance (`hostsim`). Each is the
//! median of several timed trials, so a change to either kernel shows as
//! a per-layer number even where no workload leans on it.

use guestos::pelt::{Pelt, PeltState};
use hostsim::llc::LlcModel;
use simcore::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Timed trials per unit cost.
const TRIALS: usize = 5;

/// Median ns per `Pelt::update`, cycling through the three entity states
/// with deltas from sub-tick to several half-lives.
pub fn pelt_update_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    const DELTAS: [u64; 5] = [50_000, 350_000, 1_000_000, 4_000_000, 48_000_000];
    let states = [PeltState::Running, PeltState::Runnable, PeltState::Sleeping];
    median_ns(ITERS, || {
        let mut p = Pelt::new(SimTime::ZERO);
        let mut now = 0;
        for i in 0..ITERS {
            now += DELTAS[(i % 5) as usize];
            p.update(SimTime(black_box(now)), states[(i % 3) as usize]);
        }
        black_box(p.util() + p.load());
    })
}

/// Median ns per `LlcModel::advance` on a two-socket model holding 114 MB
/// of footprints against 64 MB of cache with one VM per socket
/// descheduled, so every call runs the fill, decay and eviction passes.
pub fn llc_advance_ns() -> f64 {
    const ITERS: u64 = 1_000_000;
    const MB: f64 = 1024.0 * 1024.0;
    median_ns(ITERS, || {
        let mut llc = LlcModel::new(2, 32.0 * MB);
        for _ in 0..6 {
            llc.add_vm();
        }
        for vm in 0..6 {
            llc.set_footprint(SimTime::ZERO, vm, (4 + vm) as f64 * 4.0 * MB);
        }
        for vm in 0..5 {
            llc.on_sched(SimTime::ZERO, vm, vm / 3);
        }
        let mut now = SimTime::ZERO;
        for i in 0..ITERS {
            now = now.after(250_000 + (i % 7) * 50_000);
            llc.advance(black_box(now), (i % 2) as usize);
        }
        black_box(llc.pressure());
    })
}

/// Times `trial` [`TRIALS`] times and returns the median ns per iteration.
fn median_ns(iters: u64, mut trial: impl FnMut()) -> f64 {
    let per_iter: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let t0 = Instant::now();
            trial();
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&per_iter)
}
