//! Property coverage for the trace-replay subsystem: synthesis is a pure
//! function of `(profile, seed)`, the JSONL codec round-trips exactly,
//! and a replayed spec's schedule is the trace verbatim under any seed.

use simcore::propcheck;
use simcore::time::MS;
use vsched_fleet::{day_seed, spec_for_trace, synthesize, FleetTrace, VmOp, PROFILES};

/// Property case budget; `--features property-tests` widens the sweep.
fn cases(base: usize) -> usize {
    if cfg!(feature = "property-tests") {
        base * 8
    } else {
        base
    }
}

#[test]
fn synthesis_is_byte_identical_across_runs() {
    propcheck::forall(0x7ACE1, cases(8), |rng| {
        let p = &PROFILES[rng.index(PROFILES.len())];
        let horizon = (500 + rng.range(0, 3_500)) * MS;
        let seed = rng.u64();
        let a = synthesize(p, horizon, seed);
        let b = synthesize(p, horizon, seed);
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode(), "encode must be deterministic");
    });
}

#[test]
fn decode_of_encode_is_the_identity() {
    propcheck::forall(0x7ACE2, cases(16), |rng| {
        let p = &PROFILES[rng.index(PROFILES.len())];
        let horizon = (500 + rng.range(0, 3_500)) * MS;
        let trace = synthesize(p, horizon, rng.u64());
        let text = trace.encode();
        let back = FleetTrace::decode(&text).expect("own encoding decodes");
        assert_eq!(trace, back, "replay(encode(schedule)) == schedule");
        assert_eq!(text, back.encode(), "re-encode is byte-identical");
    });
}

#[test]
fn replayed_specs_ignore_the_seed() {
    propcheck::forall(0x7ACE3, cases(8), |rng| {
        let p = &PROFILES[rng.index(PROFILES.len())];
        let horizon = (500 + rng.range(0, 1_500)) * MS;
        let trace = synthesize(p, horizon, day_seed(p.name));
        let spec = spec_for_trace(&trace, 1 + rng.index(4), 1 + rng.index(4));
        spec.validate().expect("replay spec validates");
        // Any two seeds compile to the identical schedule: the trace
        // alone pins the day.
        let a = vsched_fleet::generate(&spec, rng.u64());
        let b = vsched_fleet::generate(&spec, rng.u64());
        assert_eq!(a, trace.events);
        assert_eq!(a, b);
    });
}

#[test]
fn synthesized_traces_satisfy_their_own_validator_and_laws() {
    propcheck::forall(0x7ACE4, cases(12), |rng| {
        let p = &PROFILES[rng.index(PROFILES.len())];
        let horizon = (500 + rng.range(0, 3_500)) * MS;
        let trace = synthesize(p, horizon, rng.u64());
        trace.validate().expect("valid by construction");
        // Independent re-check of the replay ordering laws the cluster
        // depends on: arrivals unique, depart/resize only while live.
        let mut live = std::collections::BTreeSet::new();
        let mut seen = std::collections::BTreeSet::new();
        for e in &trace.events {
            match e.op {
                VmOp::Arrive { uid, vcpus, .. } => {
                    assert!(vcpus > 0);
                    assert!(seen.insert(uid), "uid {uid} arrives twice");
                    live.insert(uid);
                }
                VmOp::Depart { uid } => {
                    assert!(live.remove(&uid), "uid {uid} departs while not live");
                }
                VmOp::Resize { uid, quota_pct } => {
                    assert!(live.contains(&uid), "uid {uid} resized while not live");
                    assert!((1..=100).contains(&quota_pct));
                }
            }
        }
    });
}
