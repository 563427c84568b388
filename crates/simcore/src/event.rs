//! The event queue.
//!
//! A binary heap ordered by `(time, sequence)`. The sequence number breaks
//! ties in insertion order, which makes simulations deterministic: two
//! events scheduled for the same instant always fire in the order they were
//! posted.
//!
//! The pair is packed into one `u128`, `(time_ns << 64) | seq`: time in the
//! high word, the post sequence in the low one. Sequences are unique, so
//! every key is, and comparing two packed keys gives the same total order
//! as comparing the pairs field by field. The heap does nothing but
//! compare and move entries, so one integer compare per sift step and a
//! 16-byte key (a 32-byte entry around the host's 16-byte event) is what
//! its cost comes down to.
//!
//! Cancellation is by *generation counters* at the call sites (lazy
//! invalidation): schedulers bump a counter when state changes and stale
//! events are discarded on delivery. This is cheaper and simpler than
//! removing heap entries, and it is the pattern used throughout `hostsim`.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The packed `(time, seq)` key: time in the high word.
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.ns()) << 64) | u128::from(seq)
}

/// The time half of a packed key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_ns((key >> 64) as u64)
}

#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use vsched_simcore::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.post(SimTime::from_ms(5), "later");
/// q.post(SimTime::from_ms(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_ms(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes one pending event takes in the heap: the 16-byte key and the
    /// event, padded to the key's alignment. A caller whose event count
    /// makes heap traffic matter can pin it with a compile-time assert.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Reverse<Entry<E>>>();

    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// `now` so time never runs backwards (debug builds assert instead).
    pub fn post(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event posted in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            key: key(at, self.seq),
            event,
        }));
    }

    /// Schedules `event` after a relative delay.
    pub fn post_after(&mut self, delay_ns: u64, event: E) {
        self.post(self.now.after(delay_ns), event);
    }

    /// Removes and returns the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = key_time(entry.key);
        Some((self.now, entry.event))
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| key_time(e.key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.post(SimTime::from_ms(3), 3);
        q.post(SimTime::from_ms(1), 1);
        q.post(SimTime::from_ms(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1);
        for i in 0..100 {
            q.post(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.post(SimTime::from_ms(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7));
    }

    #[test]
    fn post_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.post(SimTime::from_ms(10), "a");
        q.pop();
        q.post_after(5 * crate::time::MS, "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ms(15));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.post(SimTime::from_ms(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(2)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn packed_key_orders_like_the_pair() {
        let times = [0, 1, 1 << 31, 1 << 32, 1 << 40, 1 << 63, u64::MAX];
        let seqs = [0, 1, 1 << 32, u64::MAX - 1, u64::MAX];
        for &ta in &times {
            for &sa in &seqs {
                let a = key(SimTime(ta), sa);
                assert_eq!(key_time(a), SimTime(ta));
                for &tb in &times {
                    for &sb in &seqs {
                        let b = key(SimTime(tb), sb);
                        assert_eq!(a.cmp(&b), (ta, sa).cmp(&(tb, sb)));
                    }
                }
            }
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.post(SimTime::from_ms(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
