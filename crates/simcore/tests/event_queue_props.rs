//! Property suite for [`EventQueue`]: FIFO tie order, clock monotonicity,
//! and equivalence with a sorted-vec reference model under interleaved
//! post/pop sequences.
//!
//! The queue's determinism contract — two events at the same instant fire
//! in post order, and `now` never runs backwards — is what makes the
//! parallel experiment runner's per-cell runs bit-identical to serial
//! execution. These properties pin that contract directly.

use vsched_simcore::propcheck::{forall, vec_of};
use vsched_simcore::{EventQueue, SimTime};

fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

/// Events posted for the same timestamp pop in FIFO post order.
#[test]
fn same_timestamp_pops_in_fifo_post_order() {
    forall(0xE1, cases(64), |rng| {
        // A few distinct timestamps, many events each.
        let stamps = vec_of(rng, 1, 6, |r| r.range(0, 1_000));
        let mut q: EventQueue<usize> = EventQueue::new();
        let n = 50 + rng.index(150);
        for i in 0..n {
            let t = stamps[rng.index(stamps.len())];
            q.post(SimTime(t), i);
        }
        // Within each timestamp, sequence numbers must come out ascending.
        let mut last_seq_at: std::collections::BTreeMap<u64, usize> = Default::default();
        while let Some((t, i)) = q.pop() {
            if let Some(&prev) = last_seq_at.get(&t.ns()) {
                assert!(prev < i, "t={t}: {i} popped after {prev}");
            }
            last_seq_at.insert(t.ns(), i);
        }
    });
}

/// The clock is monotone across arbitrary interleavings of posts and pops,
/// including posts relative to the advancing clock.
#[test]
fn now_is_monotonic_under_interleaving() {
    forall(0xE2, cases(64), |rng| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut last = SimTime(0);
        for step in 0..300u32 {
            if q.is_empty() || rng.chance(0.6) {
                // Posting in the past is clamped to `now`, never rewinds.
                let at = q.now().after(rng.range(0, 50_000));
                q.post(at, step);
            } else {
                let (t, _) = q.pop().unwrap();
                assert!(t >= last, "clock ran backwards: {t} < {last}");
                assert_eq!(q.now(), t);
                last = t;
            }
        }
    });
}

/// Full behavioural equivalence with a reference model: a sorted vec keyed
/// by `(time, post sequence)`, popped from the front.
///
/// The model's clock starts at a drawn offset (zero, or just below 2^40,
/// 2^63 or `u64::MAX`) so the times set bits in every part of the queue's
/// packed key, and a quarter of the posts reuse the last instant so FIFO
/// ties are exercised at every offset.
#[test]
fn matches_sorted_vec_reference_model() {
    /// The furthest the model's clock can advance in one case.
    const SPAN: u64 = 400 * 10_000;
    forall(0xE3, cases(64), |rng| {
        let base = match rng.index(4) {
            0 => 0,
            1 => (1 << 40) - rng.range(0, SPAN),
            2 => (1 << 63) - rng.range(0, SPAN),
            _ => u64::MAX - SPAN - rng.range(0, SPAN),
        };
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: Vec<(u64, u64, u64)> = Vec::new(); // (time, seq, payload)
        let mut seq = 0u64;
        let mut model_now = base;
        let mut last_at = base;
        for _ in 0..400 {
            if q.is_empty() || rng.chance(0.55) {
                let at = if last_at >= model_now && rng.chance(0.25) {
                    last_at
                } else {
                    model_now + rng.range(0, 10_000)
                };
                last_at = at;
                let payload = rng.u64();
                q.post(SimTime(at), payload);
                seq += 1;
                model.push((at, seq, payload));
                // Keep the model sorted by (time, seq): a stable total order
                // identical to the queue's key.
                model.sort_unstable_by_key(|&(t, s, _)| (t, s));
            } else {
                let (t, got) = q.pop().expect("queue non-empty");
                let (mt, _, want) = model.remove(0);
                assert_eq!(t.ns(), mt, "pop time diverged from model");
                assert_eq!(got, want, "pop payload diverged from model");
                assert_eq!(q.now(), t, "clock is not the popped time");
                model_now = mt;
            }
        }
        // Drain both; they must agree to the end.
        while let Some((t, got)) = q.pop() {
            let (mt, _, want) = model.remove(0);
            assert_eq!((t.ns(), got), (mt, want));
        }
        assert!(model.is_empty());
    });
}

/// `peek_time` always agrees with the next pop and never advances the clock.
#[test]
fn peek_agrees_with_pop() {
    forall(0xE4, cases(32), |rng| {
        let mut q: EventQueue<usize> = EventQueue::new();
        for i in 0..50 {
            q.post(SimTime(rng.range(0, 5_000)), i);
        }
        while let Some(peeked) = q.peek_time() {
            let before = q.now();
            assert_eq!(q.peek_time(), Some(peeked));
            assert_eq!(q.now(), before, "peek advanced the clock");
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, peeked);
        }
    });
}
