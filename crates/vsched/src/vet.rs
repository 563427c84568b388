//! Median/MAD probe vetting, shared by the hardened probers.
//!
//! `vcap`, `vtop` and `vcache` vet each new reading against a short ring
//! of accepted readings per slot (vCPU, pair class, LLC domain): once the
//! ring holds enough history, a reading further than `max(4·MAD, floor)`
//! from its median is rejected. Every rejection bumps an
//! interference-suspicion score in `[0, 1]` by 0.35 and every clean
//! window decays it by ×0.6; the resilience layer reads the score, so a
//! gamed prober erodes confidence instead of publishing poison.

use std::collections::VecDeque;

/// Accepted readings remembered per slot.
const HISTORY_CAP: usize = 8;
/// Outlier tests need at least this much history to be meaningful.
const HISTORY_MIN: usize = 4;

/// Lower bound of the rejection band's half-width: a per-prober constant.
#[derive(Debug, Clone, Copy)]
pub enum BandFloor {
    /// A fraction of the history median.
    Relative(f64),
    /// An absolute width, for readings already on a fixed scale.
    Absolute(f64),
}

/// Per-slot accepted-history rings plus the suspicion score.
#[derive(Debug, Clone)]
pub struct Vet {
    history: Vec<VecDeque<f64>>,
    floor: BandFloor,
    /// Interference-suspicion score in `[0, 1]`.
    pub suspicion: f64,
    /// Readings rejected over the run.
    pub rejected_samples: u64,
}

impl Vet {
    /// Empty history for `slots` slots.
    pub fn new(slots: usize, floor: BandFloor) -> Self {
        Self {
            history: vec![VecDeque::new(); slots],
            floor,
            suspicion: 0.0,
            rejected_samples: 0,
        }
    }

    /// Forgets every slot's history (the slot set changed); the
    /// suspicion score and rejection count carry over.
    pub fn reset(&mut self, slots: usize) {
        self.history = vec![VecDeque::new(); slots];
    }

    /// Median of a slot's accepted history, if it has any.
    pub fn median(&self, slot: usize) -> Option<f64> {
        let h = &self.history[slot];
        (!h.is_empty()).then(|| median_of(h.iter().copied()))
    }

    /// The history median when `x` falls outside the slot's band; `None`
    /// when it fits, or when the slot has too little history to judge.
    pub fn outlier(&self, slot: usize, x: f64) -> Option<f64> {
        let h = &self.history[slot];
        if h.len() < HISTORY_MIN {
            return None;
        }
        let med = median_of(h.iter().copied());
        let mad = median_of(h.iter().map(|&v| (v - med).abs()));
        let floor = match self.floor {
            BandFloor::Relative(f) => f * med,
            BandFloor::Absolute(w) => w,
        };
        ((x - med).abs() > (4.0 * mad).max(floor)).then_some(med)
    }

    /// Records an accepted reading, dropping the oldest past the cap.
    pub fn accept(&mut self, slot: usize, x: f64) {
        let h = &mut self.history[slot];
        h.push_back(x);
        if h.len() > HISTORY_CAP {
            h.pop_front();
        }
    }

    /// Counts a rejected reading and raises suspicion.
    pub fn reject(&mut self) {
        self.rejected_samples += 1;
        self.suspicion = (self.suspicion + 0.35).min(1.0);
    }

    /// Closes a probe window: a clean one (no rejection) bleeds suspicion
    /// off, so only sustained gaming keeps it high enough to matter.
    pub fn end_window(&mut self, clean: bool) {
        if clean {
            self.suspicion *= 0.6;
        }
    }
}

/// Median of a small sample set (the lower middle for even counts).
/// `total_cmp` keeps a hostile NaN from poisoning the sort.
pub(crate) fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = values.collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    if xs.is_empty() {
        0.0
    } else {
        xs[(xs.len() - 1) / 2]
    }
}
