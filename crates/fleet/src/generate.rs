//! SAP-shaped synthetic workload generators.
//!
//! [`synthesize`] compiles a named [`Profile`] plus a seed into a
//! [`FleetTrace`]: a diurnal sinusoid modulates arrival intensity
//! (nonhomogeneous Poisson by thinning), lifetimes come from a
//! heavy-tail Pareto/lognormal mix, each tenant draws a priority tier,
//! and bursty "resize storms" sweep the live population with bandwidth
//! caps. The result is a pure function of `(profile, seed)` — the same
//! bytes on every run and under every `--jobs` setting — so a replayed
//! day is pinned by its trace alone.

use crate::lifecycle::{LifecycleEvent, VmOp, LIFETIME_MAX_NS, MIN_LIFETIME_NS};
use crate::trace_format::FleetTrace;
use simcore::rng::fnv1a;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::collections::BinaryHeap;
use trace::{PriorityClass, PRIORITY_CLASSES};

/// Period of one simulated "day" of every profile (compressed so quick
/// runs see a full diurnal cycle).
pub const DAY_NS: u64 = 4_000 * MS;
/// Admission bound on a profile's live population. Surge tenants bypass
/// it (see [`Profile::surge_at_ns`]).
pub const MAX_LIVE_VMS: usize = 16;

/// A named workload shape. All fields are fixed constants — profiles are
/// code, not config — so a profile name plus a seed fully pins a trace.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Stable identifier (CLI `--profile`, suite cell labels).
    pub name: &'static str,
    /// One-line description for `fleettrace profiles`.
    pub desc: &'static str,
    /// Mean interarrival at baseline intensity (the sinusoid midline).
    pub base_arrival_mean_ns: u64,
    /// Relative swing of the diurnal sinusoid over [`DAY_NS`], 0.0..1.0.
    pub diurnal_amplitude: f64,
    /// Fraction of lifetimes drawn from the Pareto tail (rest lognormal).
    pub pareto_frac: f64,
    /// Pareto shape; lower is heavier-tailed.
    pub pareto_alpha: f64,
    /// Pareto scale (minimum of the tail distribution).
    pub pareto_scale_ns: u64,
    /// Lognormal body mean lifetime.
    pub lognorm_mean_ns: u64,
    /// Lognormal sigma (log-space spread). Every lifetime is capped at
    /// [`LIFETIME_MAX_NS`], as in stochastic churn.
    pub lognorm_sigma: f64,
    /// Priority-tier weights in [`PRIORITY_CLASSES`] order
    /// (critical, standard, batch).
    pub tier_weights: [u64; 3],
    /// `(vcpus, weight)` size mix.
    pub size_mix: &'static [(usize, u64)],
    /// Mean gap between resize-storm onsets.
    pub storm_gap_mean_ns: u64,
    /// Storm duration.
    pub storm_len_ns: u64,
    /// Per-live-VM probability a storm caps it.
    pub storm_hit: f64,
    /// Start of the maintenance-drain window (0 with `drain_len_ns == 0`
    /// means no drain). Arrivals are frozen inside the window, everything
    /// live at its start is evicted (staggered through the first half),
    /// and each evictee re-arrives after the window with its interrupted
    /// remainder — the mass-departure-then-refill shape a host drain
    /// imposes on a fleet.
    pub drain_at_ns: u64,
    /// Length of the maintenance-drain window.
    pub drain_len_ns: u64,
    /// Start of the flash-crowd window (meaningless with
    /// `surge_len_ns == 0`). A burst of *extra* short-lived tenants
    /// arrives on top of the baseline stream — the step-function demand
    /// spike of a flash crowd — bypassing the steady-state admission
    /// bound, which is precisely what makes the surge stress placement.
    pub surge_at_ns: u64,
    /// Length of the flash-crowd window.
    pub surge_len_ns: u64,
    /// Mean interarrival of the surge's extra tenants inside the window.
    pub surge_arrival_mean_ns: u64,
}

/// The built-in profiles, in CLI listing order.
pub const PROFILES: [Profile; 4] = [
    Profile {
        name: "sap-diurnal",
        desc: "strong day/night arrival swing, heavy Pareto lifetime tail, rare storms",
        base_arrival_mean_ns: 120 * MS,
        diurnal_amplitude: 0.8,
        pareto_frac: 0.30,
        pareto_alpha: 1.5,
        pareto_scale_ns: 400 * MS,
        lognorm_mean_ns: 1_200 * MS,
        lognorm_sigma: 0.8,
        tier_weights: [2, 5, 3],
        size_mix: &[(1, 5), (2, 3), (4, 2)],
        storm_gap_mean_ns: 2_000 * MS,
        storm_len_ns: 200 * MS,
        storm_hit: 0.25,
        drain_at_ns: 0,
        drain_len_ns: 0,
        surge_at_ns: 0,
        surge_len_ns: 0,
        surge_arrival_mean_ns: 0,
    },
    Profile {
        name: "sap-resize-storm",
        desc: "flat arrivals, lognormal-dominated lifetimes, frequent bursty resize storms",
        base_arrival_mean_ns: 150 * MS,
        diurnal_amplitude: 0.25,
        pareto_frac: 0.10,
        pareto_alpha: 2.0,
        pareto_scale_ns: 500 * MS,
        lognorm_mean_ns: 1_500 * MS,
        lognorm_sigma: 0.6,
        tier_weights: [3, 4, 3],
        size_mix: &[(1, 4), (2, 4), (4, 2)],
        storm_gap_mean_ns: 800 * MS,
        storm_len_ns: 300 * MS,
        storm_hit: 0.7,
        drain_at_ns: 0,
        drain_len_ns: 0,
        surge_at_ns: 0,
        surge_len_ns: 0,
        surge_arrival_mean_ns: 0,
    },
    Profile {
        name: "sap-maintenance-drain",
        desc: "mid-day maintenance freeze: mass departures, then staggered re-arrivals",
        base_arrival_mean_ns: 130 * MS,
        diurnal_amplitude: 0.3,
        pareto_frac: 0.15,
        pareto_alpha: 1.8,
        pareto_scale_ns: 500 * MS,
        lognorm_mean_ns: 1_600 * MS,
        lognorm_sigma: 0.6,
        tier_weights: [2, 5, 3],
        size_mix: &[(1, 4), (2, 4), (4, 2)],
        storm_gap_mean_ns: 1_200 * MS,
        storm_len_ns: 250 * MS,
        storm_hit: 0.4,
        drain_at_ns: 1_500 * MS,
        drain_len_ns: 600 * MS,
        surge_at_ns: 0,
        surge_len_ns: 0,
        surge_arrival_mean_ns: 0,
    },
    Profile {
        name: "sap-flash-crowd",
        desc: "mid-day step-function surge: a burst of extra short-lived tenants on top of calm baseline arrivals",
        base_arrival_mean_ns: 200 * MS,
        diurnal_amplitude: 0.2,
        pareto_frac: 0.15,
        pareto_alpha: 1.8,
        pareto_scale_ns: 400 * MS,
        lognorm_mean_ns: 1_000 * MS,
        lognorm_sigma: 0.6,
        tier_weights: [2, 5, 3],
        size_mix: &[(1, 5), (2, 3), (4, 2)],
        storm_gap_mean_ns: 1_500 * MS,
        storm_len_ns: 250 * MS,
        storm_hit: 0.3,
        drain_at_ns: 0,
        drain_len_ns: 0,
        surge_at_ns: 1_600 * MS,
        surge_len_ns: 500 * MS,
        surge_arrival_mean_ns: 15 * MS,
    },
];

/// Looks a profile up by its stable name.
pub fn profile_by_name(name: &str) -> Option<&'static Profile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// Canonical seed for a profile's replayed day: FNV-1a of the profile
/// name. Deliberately independent of suite cell seeds — a replayed day
/// is *one fixed day*, identical for every policy and guest mode.
pub fn day_seed(profile_name: &str) -> u64 {
    fnv1a(profile_name.bytes())
}

fn draw_tier(rng: &mut SimRng, weights: &[u64; 3]) -> PriorityClass {
    PRIORITY_CLASSES[rng.weighted_index(weights.iter().copied())]
}

/// The diurnal arrival stream before admission, by thinning: candidate
/// instants drawn at the peak rate up to `horizon_ns`, each paired with
/// whether the sinusoid's intensity at that instant accepts it. Two draws
/// from `arr` per candidate.
fn arrival_candidates(
    profile: &Profile,
    horizon_ns: u64,
    mut arr: SimRng,
) -> impl Iterator<Item = (u64, bool)> + '_ {
    let lambda_max = (1.0 + profile.diurnal_amplitude) / profile.base_arrival_mean_ns as f64;
    let peak_mean_ns = 1.0 / lambda_max;
    let mut t = 0u64;
    std::iter::from_fn(move || {
        t = t.saturating_add(arr.exp(peak_mean_ns).max(1.0) as u64);
        if t >= horizon_ns {
            return None;
        }
        let phase = (t % DAY_NS) as f64 / DAY_NS as f64;
        let lambda_t = (1.0 + profile.diurnal_amplitude * (phase * std::f64::consts::TAU).sin())
            / profile.base_arrival_mean_ns as f64;
        Some((t, arr.chance(lambda_t / lambda_max)))
    })
}

/// Synthesizes a trace: a pure function of `(profile, horizon_ns, seed)`.
///
/// Stream discipline mirrors `lifecycle::generate`: every distribution
/// has its own forked stream, and per-arrival draws happen whether or
/// not the arrival is admitted, so the admission bound never shifts a
/// later stream. Storms run as a second pass over the recorded live
/// intervals (uid order), so arrival draws are unaffected by storm
/// parameters.
pub fn synthesize(profile: &Profile, horizon_ns: u64, seed: u64) -> FleetTrace {
    assert!(horizon_ns > 0, "horizon must be positive");
    let mut root = SimRng::new(seed ^ 0x5A9_DA11);
    let arr = root.fork(0xA1);
    let mut size = root.fork(0x51);
    let mut life = root.fork(0x1F);
    let mut pri = root.fork(0x9A);
    let mut storm = root.fork(0x57);

    let mut events: Vec<LifecycleEvent> = Vec::new();
    // (uid, arrive_at, depart_at) for the storm pass.
    let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
    let mut departs: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    let mut uid = 0u32;
    for (t, accept) in arrival_candidates(profile, horizon_ns, arr) {
        // Size, lifetime, and tier draw per candidate — admitted or not —
        // so knob changes never shift sibling streams.
        let vcpus =
            profile.size_mix[size.weighted_index(profile.size_mix.iter().map(|&(_, w)| w))].0;
        let heavy = life.chance(profile.pareto_frac);
        let body = life.lognormal(profile.lognorm_mean_ns as f64, profile.lognorm_sigma);
        let tail = life.pareto(profile.pareto_scale_ns as f64, profile.pareto_alpha);
        let lifetime =
            (if heavy { tail } else { body } as u64).clamp(MIN_LIFETIME_NS, LIFETIME_MAX_NS);
        let prio = draw_tier(&mut pri, &profile.tier_weights);

        // A maintenance window freezes admission: candidates still burn
        // their draws (streams stay aligned), but none are admitted.
        let in_drain = profile.drain_len_ns > 0
            && t >= profile.drain_at_ns
            && t < profile.drain_at_ns + profile.drain_len_ns;
        if !accept || in_drain {
            continue;
        }
        while matches!(departs.peek(), Some(&std::cmp::Reverse(d)) if d <= t) {
            departs.pop();
        }
        if departs.len() >= MAX_LIVE_VMS {
            continue;
        }
        events.push(LifecycleEvent {
            at: SimTime::from_ns(t),
            op: VmOp::Arrive { uid, vcpus, prio },
        });
        let depart_at = t + lifetime;
        departs.push(std::cmp::Reverse(depart_at));
        if depart_at < horizon_ns {
            events.push(LifecycleEvent {
                at: SimTime::from_ns(depart_at),
                op: VmOp::Depart { uid },
            });
        }
        intervals.push((uid, t, depart_at.min(horizon_ns)));
        uid += 1;
    }

    // Maintenance-drain pass: everything live at the window start is
    // evicted (departures staggered through the window's first half) and
    // re-admitted as a fresh tenant after the window with its
    // interrupted remainder. The drain stream forks *after* every other
    // stream, so profiles without a window synthesize byte-identical
    // traces to pre-drain builds. Runs before the storm pass so resizes
    // respect the shortened live intervals.
    if profile.drain_len_ns > 0 && profile.drain_at_ns < horizon_ns {
        let mut drain = root.fork(0xD7);
        let drain_end = profile.drain_at_ns.saturating_add(profile.drain_len_ns);
        let half = (profile.drain_len_ns / 2).max(1);
        let evictable = intervals.len();
        for i in 0..evictable {
            let (vm, arrive_at, live_until) = intervals[i];
            // Both staggers draw per candidate — live at the window or
            // not — so window tweaks never reshuffle who gets which slot.
            let out_at = profile.drain_at_ns + (drain.f64() * half as f64) as u64;
            let re_at = drain_end.saturating_add((drain.f64() * half as f64) as u64);
            if arrive_at >= profile.drain_at_ns || live_until <= out_at {
                continue;
            }
            let (vcpus, prio) = events
                .iter()
                .find_map(|e| match e.op {
                    VmOp::Arrive { uid, vcpus, prio } if uid == vm => Some((vcpus, prio)),
                    _ => None,
                })
                .expect("every interval has an arrival");
            // The eviction replaces the natural departure.
            events.retain(|e| !matches!(e.op, VmOp::Depart { uid } if uid == vm));
            if out_at < horizon_ns {
                events.push(LifecycleEvent {
                    at: SimTime::from_ns(out_at),
                    op: VmOp::Depart { uid: vm },
                });
            }
            let remainder = live_until.saturating_sub(out_at).max(MIN_LIFETIME_NS);
            intervals[i].2 = out_at.min(horizon_ns);
            if re_at < horizon_ns {
                events.push(LifecycleEvent {
                    at: SimTime::from_ns(re_at),
                    op: VmOp::Arrive { uid, vcpus, prio },
                });
                let redep = re_at.saturating_add(remainder);
                if redep < horizon_ns {
                    events.push(LifecycleEvent {
                        at: SimTime::from_ns(redep),
                        op: VmOp::Depart { uid },
                    });
                }
                intervals.push((uid, re_at, redep.min(horizon_ns)));
                uid += 1;
            }
        }
    }

    // Flash-crowd pass: a step-function burst of *extra* tenants inside
    // the surge window, drawn entirely from their own stream. The surge
    // stream forks *after* the drain stream (and the drain stream itself
    // only forks when a window exists), so profiles without a surge keep
    // synthesizing byte-identical traces to pre-surge builds. Runs before
    // the storm pass so storms can cap surge tenants too.
    if profile.surge_len_ns > 0 && profile.surge_at_ns < horizon_ns {
        let mut surge = root.fork(0xFC);
        let surge_end = profile
            .surge_at_ns
            .saturating_add(profile.surge_len_ns)
            .min(horizon_ns);
        let mut at = profile.surge_at_ns;
        loop {
            at = at.saturating_add(surge.exp(profile.surge_arrival_mean_ns as f64).max(1.0) as u64);
            if at >= surge_end {
                break;
            }
            // Surge tenants are small and short-lived: the crowd wants
            // capacity *now* and leaves soon after the event passes.
            let vcpus =
                profile.size_mix[surge.weighted_index(profile.size_mix.iter().map(|&(_, w)| w))].0;
            let lifetime = (surge.lognormal(profile.lognorm_mean_ns as f64 / 2.0, 0.5) as u64)
                .clamp(MIN_LIFETIME_NS, LIFETIME_MAX_NS);
            let prio = draw_tier(&mut surge, &profile.tier_weights);
            events.push(LifecycleEvent {
                at: SimTime::from_ns(at),
                op: VmOp::Arrive { uid, vcpus, prio },
            });
            let depart_at = at + lifetime;
            if depart_at < horizon_ns {
                events.push(LifecycleEvent {
                    at: SimTime::from_ns(depart_at),
                    op: VmOp::Depart { uid },
                });
            }
            intervals.push((uid, at, depart_at.min(horizon_ns)));
            uid += 1;
        }
    }

    // Storm pass: bursty windows that cap a random subset of whatever is
    // live, then restore. Strict `<` guards keep each resize inside its
    // VM's live interval so the trace validates.
    let mut storm_at = 0u64;
    loop {
        storm_at = storm_at.saturating_add(storm.exp(profile.storm_gap_mean_ns as f64) as u64);
        if storm_at >= horizon_ns {
            break;
        }
        let storm_end = (storm_at + profile.storm_len_ns).min(horizon_ns);
        let quota_pct: u8 = [40, 60, 80][storm.range(0, 3) as usize];
        for &(vm, arrive_at, live_until) in &intervals {
            let lo = storm_at.max(arrive_at);
            let hi = storm_end.min(live_until);
            if lo >= hi {
                continue;
            }
            if !storm.chance(profile.storm_hit) {
                continue;
            }
            let cap_at = lo + (storm.f64() * (hi - lo) as f64) as u64;
            if cap_at >= live_until {
                continue;
            }
            events.push(LifecycleEvent {
                at: SimTime::from_ns(cap_at),
                op: VmOp::Resize { uid: vm, quota_pct },
            });
            let restore_at = cap_at + (live_until - cap_at) / 2;
            if restore_at > cap_at && restore_at < live_until {
                events.push(LifecycleEvent {
                    at: SimTime::from_ns(restore_at),
                    op: VmOp::Resize {
                        uid: vm,
                        quota_pct: 100,
                    },
                });
            }
        }
    }

    // Stable by timestamp: an equal-time resize stays after its arrive
    // and before nothing it must precede (strict guards keep resizes off
    // depart timestamps).
    events.sort_by_key(|e| e.at);
    let trace = FleetTrace {
        profile: profile.name.to_string(),
        day_seed: seed,
        horizon_ns,
        events,
    };
    trace
        .validate()
        .expect("synthesized trace satisfies its own validator");
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_profile_synthesizes_a_valid_nonempty_trace() {
        for p in &PROFILES {
            let t = synthesize(p, 4_000 * MS, day_seed(p.name));
            assert!(!t.events.is_empty(), "{}: empty trace", p.name);
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let arrivals = t
                .events
                .iter()
                .filter(|e| matches!(e.op, VmOp::Arrive { .. }))
                .count();
            assert!(arrivals >= 10, "{}: only {arrivals} arrivals", p.name);
            let resizes = t
                .events
                .iter()
                .filter(|e| matches!(e.op, VmOp::Resize { .. }))
                .count();
            assert!(resizes > 0, "{}: storms never landed", p.name);
        }
    }

    #[test]
    fn synthesis_is_a_pure_function_of_profile_and_seed() {
        let p = profile_by_name("sap-diurnal").unwrap();
        let a = synthesize(p, 4_000 * MS, 7);
        let b = synthesize(p, 4_000 * MS, 7);
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
        let c = synthesize(p, 4_000 * MS, 8);
        assert_ne!(a, c, "seed must reach the trace");
    }

    #[test]
    fn diurnal_profile_modulates_arrival_intensity() {
        let p = profile_by_name("sap-diurnal").unwrap();
        // Long horizon, arrivals before admission (the live-population
        // bound would flatten the peak): compare arrivals landing in the
        // rising half-day vs the falling half-day of the sinusoid.
        let (mut up, mut down) = (0u64, 0u64);
        for (at, accept) in arrival_candidates(p, 40_000 * MS, SimRng::new(3)) {
            if accept {
                if (at % DAY_NS) < DAY_NS / 2 {
                    up += 1;
                } else {
                    down += 1;
                }
            }
        }
        assert!(
            up as f64 > down as f64 * 1.5,
            "sinusoid peak half must out-arrive the trough half ({up} vs {down})"
        );
    }

    #[test]
    fn maintenance_drain_empties_then_refills() {
        let p = profile_by_name("sap-maintenance-drain").unwrap();
        let t = synthesize(p, 4_000 * MS, day_seed(p.name));
        let drain_end = p.drain_at_ns + p.drain_len_ns;
        let mut arrivals_in_window = 0usize;
        let mut departs_in_window = 0usize;
        let mut refills = 0usize;
        for e in &t.events {
            let at = e.at.ns();
            match e.op {
                VmOp::Arrive { .. } if at >= p.drain_at_ns && at < drain_end => {
                    arrivals_in_window += 1;
                }
                VmOp::Arrive { .. } if at >= drain_end && at < drain_end + p.drain_len_ns => {
                    refills += 1;
                }
                VmOp::Depart { .. } if at >= p.drain_at_ns && at < drain_end => {
                    departs_in_window += 1;
                }
                _ => {}
            }
        }
        assert_eq!(
            arrivals_in_window, 0,
            "admission must freeze inside the maintenance window"
        );
        assert!(
            departs_in_window >= 3,
            "drain must mass-depart the live population ({departs_in_window} departs)"
        );
        assert!(
            refills >= 3,
            "evictees must re-arrive after the window ({refills} arrivals)"
        );
    }

    #[test]
    fn committed_example_traces_pin_synthesis_bytes() {
        // The drain stream forks only when a window exists, so profiles
        // without one must keep synthesizing exactly the traces committed
        // before the drain pass existed — the examples/ files are goldens.
        for (file, profile) in [
            ("sap_day.trace.jsonl", "sap-diurnal"),
            ("sap_storm.trace.jsonl", "sap-resize-storm"),
            ("sap_drain.trace.jsonl", "sap-maintenance-drain"),
            ("sap_flash.trace.jsonl", "sap-flash-crowd"),
        ] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/");
            let committed = std::fs::read_to_string(format!("{path}{file}"))
                .unwrap_or_else(|e| panic!("examples/{file}: {e}"));
            let p = profile_by_name(profile).unwrap();
            let t = synthesize(p, 4_000 * MS, day_seed(p.name));
            assert_eq!(
                committed.trim_end(),
                t.encode().trim_end(),
                "examples/{file} drifted from synthesize({profile})"
            );
        }
    }

    #[test]
    fn flash_crowd_steps_arrival_intensity() {
        let p = profile_by_name("sap-flash-crowd").unwrap();
        let t = synthesize(p, 4_000 * MS, day_seed(p.name));
        let surge_end = p.surge_at_ns + p.surge_len_ns;
        // Arrival rate inside the surge window vs the same-length window
        // right before it: the step must dominate, not merely nudge.
        let (mut inside, mut before) = (0u64, 0u64);
        for e in &t.events {
            if let VmOp::Arrive { .. } = e.op {
                let at = e.at.ns();
                if at >= p.surge_at_ns && at < surge_end {
                    inside += 1;
                } else if at >= p.surge_at_ns - p.surge_len_ns && at < p.surge_at_ns {
                    before += 1;
                }
            }
        }
        assert!(
            inside >= before.max(1) * 3,
            "surge window must out-arrive the calm window 3x ({inside} vs {before})"
        );
    }

    #[test]
    fn day_seed_is_stable_fnv() {
        assert_eq!(day_seed("sap-diurnal"), day_seed("sap-diurnal"));
        assert_ne!(day_seed("sap-diurnal"), day_seed("sap-resize-storm"));
    }
}
