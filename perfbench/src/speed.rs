//! Machine speed, read from a fixed kernel, so that wall times taken on a
//! shared machine can be scaled to the reference machine's speed.
//!
//! Other tenants of a shared host slow a process down by up to half
//! again, in stretches of seconds to tens of seconds, while it stays on
//! its CPU: they contend for shared caches, memory bandwidth and clock
//! frequency, which no process clock leaves out. [`kernel_s`] times a
//! fixed piece of work that shares no code with the repository, so no
//! change to the program under test changes it. [`Meter`] reads it
//! between pieces of the benchmark's work, and scales each piece by the
//! speed read on its two sides (for pieces under a second or so, which a
//! stretch of interference covers whole) or the whole run by the speed
//! of its calmest stretch (for pieces seconds long).

use crate::outcome::timed;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`kernel_s`] takes on the reference machine (a shared 2-core
/// x86-64 VM) when other tenants leave it alone: its fastest time there.
pub const KERNEL_REF_S: f64 = 0.0166;
/// Pending events in the kernel's queue.
const QUEUE: u64 = 4096;
/// Entries of the kernel's state table: 512 KiB of `u64`.
const STATE: usize = 1 << 16;
/// Events the kernel dispatches.
const STEPS: usize = 200_000;

/// Wall seconds of the speed kernel: an event-queue loop shaped like a
/// discrete-event simulator's dispatch (pop the earliest event, update a
/// random slot of a state table, push a follow-up), written here so that
/// it stays the same whatever the program under test becomes.
pub fn kernel_s() -> f64 {
    timed(|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..QUEUE)
            .map(|id| Reverse((next() % 1_000_000, id)))
            .collect();
        let mut state = vec![0u64; STATE];
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse((at, id)) = queue.pop().expect("every pop is followed by a push");
            let r = next();
            let slot = r as usize % STATE;
            state[slot] = state[slot].wrapping_add(at ^ id);
            acc = acc.wrapping_add(state[acc as usize % STATE]);
            queue.push(Reverse((at + 1 + r % 10_000, id)));
        }
        black_box(acc)
    })
    .0
}

/// One timed piece of work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Wall seconds it took.
    pub wall_s: f64,
    /// The machine's speed meanwhile against the reference machine's: the
    /// reference kernel time over the faster of the kernel times read
    /// just before and just after. The faster read, because a burst of
    /// interference that hits a read but not the work must not make the
    /// work look fast.
    pub scale: f64,
}

impl Timing {
    /// Its wall seconds at the reference machine's speed.
    pub fn ref_s(&self) -> f64 {
        self.wall_s * self.scale
    }
}

/// Times pieces of work one after another, with a kernel run between
/// each two, so each piece is scaled by the speed read on its two sides.
/// A piece is one closure ([`Meter::time`]) or the stretch between two
/// points the work reaches ([`Meter::begin`], [`Meter::split`]); the
/// kernel runs are left out of the pieces.
pub struct Meter {
    since: Instant,
    /// Every kernel time read, in order.
    reads: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter {
            reads: vec![kernel_s()],
            since: Instant::now(),
        }
    }
}

impl Meter {
    /// Runs `f` and times it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (Timing, T) {
        self.begin();
        let value = f();
        (self.split(), value)
    }

    /// Starts a piece.
    pub fn begin(&mut self) {
        self.since = Instant::now();
    }

    /// Ends the piece begun at the last [`Meter::begin`] or
    /// [`Meter::split`], reads the machine's speed, and begins the next.
    pub fn split(&mut self) -> Timing {
        let wall_s = self.since.elapsed().as_secs_f64();
        let before = self.reads[self.reads.len() - 1];
        let after = kernel_s();
        let scale = KERNEL_REF_S / before.min(after);
        self.reads.push(after);
        self.since = Instant::now();
        Timing { wall_s, scale }
    }

    /// The speed of the calmest stretch of the run so far against the
    /// reference machine's: the reference kernel time over the kernel's
    /// tenth-percentile read.
    pub fn calm_scale(&self) -> f64 {
        let mut reads = self.reads.clone();
        reads.sort_by(f64::total_cmp);
        KERNEL_REF_S / reads[(reads.len() - 1) / 10]
    }
}
