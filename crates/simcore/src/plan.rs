//! The seeded plan envelope shared by every repro-file type.
//!
//! Host fault plans, fleet chaos plans and attack plans are all a seed, a
//! spec, and a schedule of timed events generated from the two. The
//! shrinker cuts the schedule down, determinism gates compare its
//! rendering, and the suite writes it to and replays it from a repro
//! file. A plan type supplies its parts and the JSON codec of its spec and
//! of one event; [`Plan`] provides the rest once.

use crate::json::{Field, Json};
use crate::{SimRng, SimTime};
use std::fmt::Display;

/// A seed-generated, time-sorted event schedule against a spec.
pub trait Plan: Sized {
    /// What the plan was generated against.
    type Spec: Clone;
    /// One scheduled entry.
    type Event: Clone + Display;

    /// The seed the plan was generated from, its spec, and its entries,
    /// sorted by [`Plan::at`] (ties keep generation order).
    fn parts(&self) -> (u64, &Self::Spec, &[Self::Event]);
    /// Inverse of [`Plan::parts`]; `events` must be sorted by [`Plan::at`].
    fn from_parts(seed: u64, spec: Self::Spec, events: Vec<Self::Event>) -> Self;
    /// When an entry fires.
    fn at(event: &Self::Event) -> SimTime;

    /// The spec's JSON form.
    fn spec_to_json(spec: &Self::Spec) -> Json;
    /// Inverse of [`Plan::spec_to_json`].
    fn spec_from_json(field: &Field) -> Result<Self::Spec, String>;
    /// One entry's JSON form.
    fn event_to_json(event: &Self::Event) -> Json;
    /// Inverse of [`Plan::event_to_json`]; `spec` is the plan's own, for
    /// checks that depend on it.
    fn event_from_json(spec: &Self::Spec, field: &Field) -> Result<Self::Event, String>;

    /// The spec the plan was generated against.
    fn spec(&self) -> &Self::Spec {
        self.parts().1
    }

    /// The entries, in time order.
    fn events(&self) -> &[Self::Event] {
        self.parts().2
    }

    /// Generates a plan with one RNG stream per enabled kind, forked from
    /// `seed ^ salt` by the kind's stable tag alone, so enabling or
    /// disabling one kind never perturbs another's schedule. `draw`
    /// appends one kind's entries; the stable sort keeps simultaneous
    /// entries in `kinds` order.
    fn from_streams<K: Copy>(
        seed: u64,
        salt: u64,
        spec: &Self::Spec,
        kinds: &[K],
        tag: impl Fn(K) -> u64,
        draw: impl Fn(&mut SimRng, &Self::Spec, K, &mut Vec<Self::Event>),
    ) -> Self {
        let mut events = Vec::new();
        for &kind in kinds {
            let mut rng = SimRng::new(seed ^ salt).fork(tag(kind));
            draw(&mut rng, spec, kind, &mut events);
        }
        events.sort_by_key(Self::at);
        Self::from_parts(seed, spec.clone(), events)
    }

    /// The same seed and spec with a different entry list. The shrinker
    /// tests subsets with this: any subsequence of a sorted list stays
    /// sorted, so the result replays deterministically.
    fn with_events(&self, events: Vec<Self::Event>) -> Self {
        debug_assert!(sorted::<Self>(&events));
        let (seed, spec, _) = self.parts();
        Self::from_parts(seed, spec.clone(), events)
    }

    /// The plan truncated to its first `k` entries.
    fn prefix(&self, k: usize) -> Self {
        let events = self.events();
        self.with_events(events[..k.min(events.len())].to_vec())
    }

    /// Stable one-line-per-entry rendering; determinism gates compare it
    /// byte for byte across runs and processes.
    fn describe(&self) -> String {
        self.events().iter().map(|e| format!("{e}\n")).collect()
    }

    /// The repro file: `{seed, spec, events}` as compact JSON with exact
    /// integers and sorted keys.
    fn to_json(&self) -> String {
        let (seed, spec, events) = self.parts();
        let events = events.iter().map(Self::event_to_json).collect();
        Json::obj([
            ("seed", Json::Uint(seed)),
            ("spec", Self::spec_to_json(spec)),
            ("events", Json::Arr(events)),
        ])
        .render()
    }

    /// Parses a repro file written by [`Plan::to_json`]. Errors name the
    /// bad field's path; unsorted entries are rejected at the first entry
    /// out of order.
    fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let root = Field::root(&doc);
        let spec = Self::spec_from_json(&root.get("spec")?)?;
        let events: Vec<_> = (root.get("events")?.arr()?.iter())
            .map(|e| Self::event_from_json(&spec, e))
            .collect::<Result<_, _>>()?;
        if let Some(i) =
            (1..events.len()).find(|&i| Self::at(&events[i]) < Self::at(&events[i - 1]))
        {
            return Err(format!("events[{i}].at_ns goes backwards"));
        }
        Ok(Self::from_parts(root.get("seed")?.u64()?, spec, events))
    }
}

fn sorted<P: Plan>(events: &[P::Event]) -> bool {
    events.windows(2).all(|w| P::at(&w[0]) <= P::at(&w[1]))
}
