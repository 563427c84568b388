//! Seed-driven VM lifecycle churn and the fleet configuration.
//!
//! [`generate`] compiles a [`FleetSpec`] plus a seed into a sorted,
//! replayable schedule of [`LifecycleEvent`]s — the same idiom as
//! `hostsim::faults::FaultPlan`: per-process forked RNG streams so adding
//! one knob never shifts another stream's draws, and a schedule that is a
//! pure function of `(spec, seed)`.

use crate::trace_format::FleetTrace;
use simcore::time::MS;
use simcore::{SimRng, SimTime};
use std::collections::BinaryHeap;
use trace::PriorityClass;

/// Where a fleet's churn schedule comes from.
///
/// `Stochastic` is the PR 5 behaviour: a Poisson/exponential process
/// compiled from `(spec, seed)`. `Trace` replays a pre-generated
/// [`FleetTrace`] verbatim — the schedule is fixed by the trace alone, so
/// every placement policy and guest mode runs over the identical day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnModel {
    /// Seed-driven Poisson arrivals / lognormal lifetimes (the default).
    Stochastic,
    /// Replay this trace's events verbatim.
    Trace(FleetTrace),
}

/// Mean VM lifetime (lognormal, right-skewed).
pub const LIFETIME_MEAN_NS: u64 = 1_500 * MS;
/// Hard upper bound on a VM's lifetime.
pub const LIFETIME_MAX_NS: u64 = 5_000 * MS;
/// Heavy-tailed VM size mix: `(vcpus, weight)` pairs.
pub const SIZE_MIX: [(usize, u64); 3] = [(1, 5), (2, 3), (4, 2)];
/// Per-tenant p99 end-to-end latency SLO (violation accounting).
pub const SLO_P99_NS: u64 = 20 * MS;
/// Per-tier p99 targets in `PRIORITY_CLASSES` order (critical,
/// standard, batch). Critical runs tighter than the fleet-wide SLO,
/// batch looser.
pub const TIER_SLO_P99_NS: [u64; 3] = [10 * MS, 20 * MS, 80 * MS];
/// Most hosts a spec may name: trace events and chaos plans carry host
/// ids as `u16`, so a larger fleet would give two hosts one id.
pub const MAX_HOSTS: usize = 1 << 16;
/// Most hardware threads a host may have: host trace events carry the
/// thread as a `u16`, so a wider host would give two threads one id.
pub const MAX_THREADS_PER_HOST: usize = 1 << 16;

/// Fleet configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of hosts in the cluster.
    pub hosts: usize,
    /// Hardware threads per host (flat topology, no SMT).
    pub threads_per_host: usize,
    /// Mean VM interarrival time (Poisson-style exponential draws).
    pub arrival_mean_ns: u64,
    /// Simulated duration of the churn process.
    pub horizon_ns: u64,
    /// Churn source: stochastic generation or trace replay.
    pub churn: ChurnModel,
}

impl FleetSpec {
    /// A small overcommitted cluster sized for suite cells and tests:
    /// `hosts` flat `threads`-thread machines with a 1.5× vCPU overcommit
    /// cap, ~4 arrivals per simulated second, and a 1–4 vCPU size mix.
    pub fn small(hosts: usize, threads: usize, horizon_secs: u64) -> FleetSpec {
        FleetSpec {
            hosts,
            threads_per_host: threads,
            arrival_mean_ns: 250 * MS,
            horizon_ns: horizon_secs * 1_000 * MS,
            churn: ChurnModel::Stochastic,
        }
    }

    /// Max committed (placed) vCPUs per host — the overcommit cap the
    /// trace checker enforces on every placement: 1.5× the host's threads.
    pub fn overcommit_cap(&self) -> u64 {
        (self.threads_per_host as u64 * 3) / 2
    }

    /// Admission bound: arrivals are skipped while this many VMs live
    /// (one per hardware thread of the fleet).
    pub fn max_live_vms(&self) -> usize {
        self.hosts * self.threads_per_host
    }

    /// Structural sanity: every field a schedule generator divides by or
    /// indexes with must be usable. Errors name the offending field and
    /// the value it carried, so a bad spec is fixable from the
    /// message alone.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err("hosts must be positive (got 0)".into());
        }
        if self.hosts > MAX_HOSTS {
            return Err(format!(
                "hosts must be at most {MAX_HOSTS} (got {}): host ids are 16-bit",
                self.hosts
            ));
        }
        if self.threads_per_host == 0 {
            return Err("threads_per_host must be positive (got 0)".into());
        }
        if self.threads_per_host > MAX_THREADS_PER_HOST {
            return Err(format!(
                "threads_per_host must be at most {MAX_THREADS_PER_HOST} (got {}): \
                 thread ids are 16-bit",
                self.threads_per_host
            ));
        }
        if self.arrival_mean_ns == 0 {
            return Err("arrival_mean_ns must be positive (got 0)".into());
        }
        if self.horizon_ns == 0 {
            return Err("horizon_ns must be positive (got 0)".into());
        }
        if let ChurnModel::Trace(t) = &self.churn {
            if t.horizon_ns != self.horizon_ns {
                return Err(format!(
                    "churn trace horizon_ns {} does not match spec horizon_ns {}",
                    t.horizon_ns, self.horizon_ns
                ));
            }
            t.validate().map_err(|e| format!("churn trace: {e}"))?;
        }
        Ok(())
    }
}

/// One lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmOp {
    /// A new VM requests admission.
    Arrive {
        /// Fleet-wide VM id.
        uid: u32,
        /// Nominal size.
        vcpus: usize,
        /// Tenant priority class (SLO reporting is sliced by tier).
        prio: PriorityClass,
    },
    /// A live VM leaves.
    Depart {
        /// Fleet-wide VM id.
        uid: u32,
    },
    /// A live VM's CPU allocation is resized in place (vertical resize via
    /// bandwidth caps; 100 restores the uncapped allocation).
    Resize {
        /// Fleet-wide VM id.
        uid: u32,
        /// New per-vCPU quota as a percentage of the period (1..=100).
        quota_pct: u8,
    },
}

/// A stamped lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// When the transition fires.
    pub at: SimTime,
    /// What happens.
    pub op: VmOp,
}

/// Floor on generated lifetimes: shorter than this and a VM departs
/// before its workload produces a single measurable request.
pub(crate) const MIN_LIFETIME_NS: u64 = 100 * MS;

/// Stochastic tier weights: most tenants are standard, a thin critical
/// slice, and a batch tail — drawn per arrival from a dedicated stream.
const TIER_WEIGHTS: [(PriorityClass, u64); 3] = [
    (PriorityClass::Critical, 2),
    (PriorityClass::Standard, 5),
    (PriorityClass::Batch, 3),
];

fn draw_tier(rng: &mut SimRng) -> PriorityClass {
    TIER_WEIGHTS[rng.weighted_index(TIER_WEIGHTS.iter().map(|&(_, w)| w))].0
}

/// Compiles the churn schedule for `(spec, seed)`: a time-sorted event
/// list that is a pure function of its inputs. Arrivals that would push
/// the live population past [`FleetSpec::max_live_vms`] are skipped (the
/// bound on open-loop growth); departures and resizes past the horizon
/// are dropped — those VMs simply live to the end of the run.
///
/// With [`ChurnModel::Trace`] the schedule is the trace's event list
/// verbatim: the seed does not reach it at all.
pub fn generate(spec: &FleetSpec, seed: u64) -> Vec<LifecycleEvent> {
    spec.validate().expect("valid spec");
    if let ChurnModel::Trace(t) = &spec.churn {
        return t.events.clone();
    }
    let mut root = SimRng::new(seed ^ 0xF1EE_7005);
    let mut arr = root.fork(0xA1);
    let mut size = root.fork(0x51);
    let mut life = root.fork(0x1F);
    let mut rsz = root.fork(0x25);
    // Appended after the PR 5 forks so their streams are unshifted.
    let mut pri = root.fork(0x9A);

    let mut events: Vec<LifecycleEvent> = Vec::new();
    // Min-heap of departure times (negated for BinaryHeap's max order) so
    // the generator can bound the live population deterministically.
    let mut departs: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    let max_live = spec.max_live_vms();
    let mut t = 0u64;
    let mut uid = 0u32;
    loop {
        t = t.saturating_add(arr.exp(spec.arrival_mean_ns as f64) as u64);
        if t >= spec.horizon_ns {
            break;
        }
        while matches!(departs.peek(), Some(&std::cmp::Reverse(d)) if d <= t) {
            departs.pop();
        }
        let vcpus = SIZE_MIX[size.weighted_index(SIZE_MIX.iter().map(|&(_, w)| w))].0;
        // Lifetime and resize draws happen whether or not the arrival is
        // admitted, so the admission bound never shifts later streams.
        let lifetime = (life.lognormal(LIFETIME_MEAN_NS as f64, 0.8) as u64)
            .clamp(MIN_LIFETIME_NS, LIFETIME_MAX_NS);
        let resize_at = t + (lifetime as f64 * (0.25 + 0.5 * rsz.f64())) as u64;
        let resize_pct = if rsz.chance(0.5) { 50 } else { 75 };
        let wants_resize = rsz.chance(0.35);
        let prio = draw_tier(&mut pri);
        if departs.len() >= max_live {
            continue;
        }
        events.push(LifecycleEvent {
            at: SimTime::from_ns(t),
            op: VmOp::Arrive { uid, vcpus, prio },
        });
        let depart_at = t + lifetime;
        departs.push(std::cmp::Reverse(depart_at));
        if depart_at < spec.horizon_ns {
            events.push(LifecycleEvent {
                at: SimTime::from_ns(depart_at),
                op: VmOp::Depart { uid },
            });
        }
        if wants_resize && resize_at < depart_at.min(spec.horizon_ns) {
            events.push(LifecycleEvent {
                at: SimTime::from_ns(resize_at),
                op: VmOp::Resize {
                    uid,
                    quota_pct: resize_pct,
                },
            });
            // Restore the full allocation for the tail of the lifetime.
            let restore_at = resize_at + (depart_at - resize_at) / 2;
            if restore_at < depart_at.min(spec.horizon_ns) {
                events.push(LifecycleEvent {
                    at: SimTime::from_ns(restore_at),
                    op: VmOp::Resize {
                        uid,
                        quota_pct: 100,
                    },
                });
            }
        }
        uid += 1;
    }
    // Stable by timestamp: simultaneous events keep generation order
    // (arrive before its own resize/depart).
    events.sort_by_key(|e| e.at);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec::small(4, 4, 4)
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = generate(&spec(), 42);
        let b = generate(&spec(), 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(!a.is_empty(), "4 simulated seconds must produce churn");
        let c = generate(&spec(), 43);
        assert_ne!(a, c, "seed must reach the schedule");
    }

    #[test]
    fn every_depart_and_resize_follows_its_arrival() {
        let events = generate(&spec(), 7);
        let mut seen: Vec<u32> = Vec::new();
        for e in &events {
            match e.op {
                VmOp::Arrive { uid, vcpus, .. } => {
                    assert!(!seen.contains(&uid), "uid {uid} arrives once");
                    assert!(vcpus > 0);
                    seen.push(uid);
                }
                VmOp::Depart { uid } | VmOp::Resize { uid, .. } => {
                    assert!(seen.contains(&uid), "uid {uid} used before arrival");
                }
            }
        }
    }

    #[test]
    fn all_three_priority_tiers_appear() {
        let events = generate(&spec(), 11);
        let mut seen = [false; 3];
        for e in &events {
            if let VmOp::Arrive { prio, .. } = e.op {
                seen[prio.index()] = true;
            }
        }
        assert_eq!(seen, [true; 3], "every tier drawn over 4 seconds of churn");
    }

    #[test]
    fn validation_errors_name_the_field_and_value() {
        let mut zero_rate = spec();
        zero_rate.arrival_mean_ns = 0;
        assert_eq!(
            zero_rate.validate().unwrap_err(),
            "arrival_mean_ns must be positive (got 0)"
        );

        assert_eq!(
            FleetSpec::small(70_000, 1, 1).validate().unwrap_err(),
            "hosts must be at most 65536 (got 70000): host ids are 16-bit"
        );
        FleetSpec::small(MAX_HOSTS, 1, 1)
            .validate()
            .expect("every host id fits in u16");

        // Validation only: a host this wide is never built here.
        assert_eq!(
            FleetSpec::small(1, 70_000, 1).validate().unwrap_err(),
            "threads_per_host must be at most 65536 (got 70000): thread ids are 16-bit"
        );
        FleetSpec::small(1, MAX_THREADS_PER_HOST, 1)
            .validate()
            .expect("every thread id fits in u16");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn folded_constants_are_valid() {
        let [crit, std, batch] = TIER_SLO_P99_NS;
        assert!(0 < crit && crit <= std && std <= batch, "tiers ordered");
        assert!(
            crit <= SLO_P99_NS && SLO_P99_NS <= batch,
            "fleet SLO between"
        );
        assert!(LIFETIME_MEAN_NS > 0 && LIFETIME_MEAN_NS <= LIFETIME_MAX_NS);
        assert!(!SIZE_MIX.is_empty());
        assert!(SIZE_MIX.iter().all(|&(v, w)| v > 0 && w > 0));
        let smallest = SIZE_MIX.iter().map(|&(v, _)| v as u64).min().unwrap();
        // The cap grows with the thread count, so one thread is the
        // tightest host; the sweep guards against a rounding change.
        for threads in 1..=64 {
            let cap = FleetSpec::small(1, threads, 1).overcommit_cap();
            assert!(
                smallest <= cap,
                "{threads}-thread hosts would reject every arrival"
            );
        }
    }
}
