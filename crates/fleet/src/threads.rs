//! Worker-count policy for parallel cluster stepping.
//!
//! [`Cluster::run`](crate::Cluster::run) shards host stepping across a
//! scoped worker pool; how many workers it uses is resolved here. The
//! default is one worker, the serial loop with no pool; a caller that
//! wants the pool asks for a count per cluster with
//! [`Cluster::with_threads`](crate::Cluster::with_threads) (the CLIs'
//! `--fleet-threads N`). Worker count only ever changes wall clock, never
//! output — the byte-identity gates in `tests/parallel_step.rs` and
//! `ci.sh` enforce exactly that.

use std::num::NonZeroUsize;

/// Most stepping workers a caller may ask for. Each worker is an OS
/// thread and a pool starts one per host up to its count, so without a
/// bound one flag on a wide fleet (up to 65 536 hosts) asks the OS for
/// tens of thousands of threads and ends in a spawn failure. Stepping
/// gains nothing from more workers than cores; 256 leaves room for wide
/// machines.
pub const MAX_FLEET_THREADS: usize = 256;

/// The worker count a cluster built without an explicit count uses: one,
/// so stepping is serial unless a caller asks for the pool. The pool pays
/// off only when every barrier has many busy hosts to step; on a region of
/// mostly empty hosts it made a replay nearly 3× slower than the serial
/// loop (DESIGN.md §13), and sizing it by core count would make that the
/// default.
pub const DEFAULT_FLEET_THREADS: NonZeroUsize = NonZeroUsize::MIN;

/// Parses a `--fleet-threads` value: a positive count of at most
/// [`MAX_FLEET_THREADS`]. Errors name the field and the value they
/// carried, in the same style as [`FleetSpec::validate`] (`"hosts must
/// be positive (got 0)"`), so a bad flag is fixable from the message
/// alone.
///
/// [`FleetSpec::validate`]: crate::FleetSpec::validate
pub fn parse_fleet_threads(s: &str) -> Result<NonZeroUsize, String> {
    let n: usize = s
        .parse()
        .map_err(|_| format!("fleet_threads must be a positive integer (got {s:?})"))?;
    if n > MAX_FLEET_THREADS {
        return Err(format!(
            "fleet_threads must be at most {MAX_FLEET_THREADS} (got {n})"
        ));
    }
    NonZeroUsize::new(n).ok_or_else(|| "fleet_threads must be positive (got 0)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_and_names_the_field_on_zero() {
        assert_eq!(parse_fleet_threads("3").unwrap().get(), 3);
        assert_eq!(parse_fleet_threads("256").unwrap().get(), MAX_FLEET_THREADS);
        assert_eq!(
            parse_fleet_threads("257").unwrap_err(),
            "fleet_threads must be at most 256 (got 257)"
        );
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
