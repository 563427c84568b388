//! Trace replay: compiling a [`FleetTrace`] into a runnable [`FleetSpec`].
//!
//! The point of a trace is that the *day is fixed*: every placement
//! policy and guest mode must see the identical arrival/departure/resize
//! schedule. [`spec_for_trace`] builds a spec whose churn model is the
//! trace verbatim — `lifecycle::generate` then returns the trace's
//! events untouched, so the run seed reaches workload phases and host
//! streams but never the schedule.

use crate::lifecycle::{ChurnModel, FleetSpec};
use crate::trace_format::FleetTrace;

/// Builds a spec that replays `trace` on a `hosts × threads` cluster.
///
/// Cluster shape stays a caller choice — the trace records *demand*, not
/// the fleet it lands on. The spec takes the trace's horizon; its
/// arrival rate and admission bound are never read, because the trace
/// already fixed the schedule.
pub fn spec_for_trace(trace: &FleetTrace, hosts: usize, threads: usize) -> FleetSpec {
    let mut spec = FleetSpec::small(hosts, threads, 1);
    spec.horizon_ns = trace.horizon_ns;
    spec.churn = ChurnModel::Trace(trace.clone());
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, GuestMode};
    use crate::generate::{day_seed, profile_by_name, synthesize};
    use crate::lifecycle;
    use crate::placement::policy_by_name;
    use simcore::time::MS;

    #[test]
    fn replayed_schedule_is_the_trace_verbatim_for_any_seed() {
        let p = profile_by_name("sap-diurnal").unwrap();
        let trace = synthesize(p, 2_000 * MS, day_seed(p.name));
        let spec = spec_for_trace(&trace, 2, 2);
        spec.validate().expect("replay spec validates");
        let a = lifecycle::generate(&spec, 1);
        let b = lifecycle::generate(&spec, 999);
        assert_eq!(a, trace.events, "seed must not reach a replayed schedule");
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_replays_a_trace_end_to_end_without_violations() {
        let p = profile_by_name("sap-diurnal").unwrap();
        let trace = synthesize(p, 1_000 * MS, day_seed(p.name));
        let spec = spec_for_trace(&trace, 2, 2);
        let mut c = Cluster::new(
            spec,
            GuestMode::Cfs,
            policy_by_name("first-fit").unwrap(),
            7,
        );
        let s = c.run();
        assert!(s.admitted > 0);
        assert_eq!(s.admitted, s.placed + s.rejected);
        assert_eq!(s.violations, 0, "first law broken: {:?}", s.first_law);
    }
}
