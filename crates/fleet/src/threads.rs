//! Worker-count policy for parallel cluster stepping.
//!
//! [`Cluster::run`](crate::Cluster::run) shards host stepping across a
//! scoped worker pool; how many workers it uses is resolved here. The
//! default is the machine's `available_parallelism`; a caller picks its
//! own count per cluster with
//! [`Cluster::with_threads`](crate::Cluster::with_threads). Worker count
//! only ever changes wall clock, never output — the byte-identity gates in
//! `tests/parallel_step.rs` and `ci.sh` enforce exactly that.

use std::num::NonZeroUsize;

/// The worker count a cluster built without an explicit count uses:
/// `available_parallelism` (1 when that is unknowable).
pub fn default_fleet_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Parses a `--fleet-threads` value. Errors name the field and the value
/// they carried, in the same style as [`FleetSpec::validate`]
/// (`"hosts must be positive (got 0)"`), so a bad flag is fixable from
/// the message alone.
///
/// [`FleetSpec::validate`]: crate::FleetSpec::validate
pub fn parse_fleet_threads(s: &str) -> Result<NonZeroUsize, String> {
    let n: usize = s
        .parse()
        .map_err(|_| format!("fleet_threads must be a positive integer (got {s:?})"))?;
    NonZeroUsize::new(n).ok_or_else(|| "fleet_threads must be positive (got 0)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_and_names_the_field_on_zero() {
        assert_eq!(parse_fleet_threads("3").unwrap().get(), 3);
        assert_eq!(
            parse_fleet_threads("0").unwrap_err(),
            "fleet_threads must be positive (got 0)"
        );
        assert_eq!(
            parse_fleet_threads("lots").unwrap_err(),
            "fleet_threads must be a positive integer (got \"lots\")"
        );
    }
}
