//! vSched tunables.
//!
//! The first block reproduces Table 1 of the paper exactly; the constants
//! below the table are values the paper mentions in prose (e.g. the 2 ms
//! ivh threshold "aligned with the scheduler tick", the 10× rwc straggler
//! criterion) or thresholds any implementation needs but the paper leaves
//! to the artifact. Every prober and policy reads them from here.

use simcore::time::{MS, SEC, US};

// ------ Table 1 ------

/// vcap sampling period (Table 1: 100 ms).
pub const VCAP_SAMPLING_PERIOD_NS: u64 = 100 * MS;
/// vcap light sampling frequency (Table 1: every 1 second).
pub const VCAP_LIGHT_EVERY_NS: u64 = SEC;
/// vcap heavy sampling frequency (Table 1: every 5 light samplings).
pub const VCAP_HEAVY_EVERY: u32 = 5;
/// vcap EMA decay (Table 1: 50% per 2 periods), as a half-life in samples.
pub const VCAP_EMA_HALF_LIFE: f64 = 2.0;
/// vtop sampling frequency (Table 1: every 2 seconds).
pub const VTOP_PERIOD_NS: u64 = 2 * SEC;
/// vtop targeted cache transfers (Table 1: 500).
pub const VTOP_TARGET_TRANSFERS: f64 = 500.0;
/// vtop cache transfer timeout (Table 1: 15000 transfer attempts).
pub const VTOP_TIMEOUT_ATTEMPTS: f64 = 15_000.0;
/// ivh migration threshold (Table 1: after 2 milliseconds).
pub const IVH_MIGRATION_THRESHOLD_NS: u64 = 2 * MS;

// ------ Constants from prose / implementation thresholds ------

/// Delay from install to the first vcap/vact probe window.
pub const VCAP_FIRST_WINDOW_NS: u64 = 10 * MS;

/// Steal-time jump below this is filtered as noise (vact, §3.1: "small
/// jumps are filtered out").
pub const VACT_STEAL_JUMP_NS: u64 = 300 * US;
/// Heartbeat staleness (in ticks) before a vCPU is considered inactive.
pub const VACT_STALE_TICKS: u64 = 3;
/// PELT utilization below which a latency-sensitive task counts as
/// "small" for bvs.
pub const BVS_SMALL_TASK_UTIL: f64 = 200.0;
/// PELT utilization above which ivh considers a task CPU-intensive.
pub const IVH_MIN_UTIL: f64 = 400.0;
/// Cooldown between ivh migrations of the same task.
pub const IVH_COOLDOWN_NS: u64 = 2 * MS;
/// Pending pre-wake pull requests older than this are dropped.
pub const IVH_PULL_TIMEOUT_NS: u64 = 20 * MS;
/// rwc straggler criterion: capacity below this fraction of the mean
/// (§3.4: "significantly lower (e.g., 10x lower)").
pub const RWC_STRAGGLER_FACTOR: f64 = 0.1;
/// vtop: latency below this is an SMT sibling (ns).
pub const VTOP_SMT_THRESHOLD_NS: f64 = 20.0;
/// vtop: latency below this is same-socket; above, cross-socket (ns).
pub const VTOP_SOCKET_THRESHOLD_NS: f64 = 80.0;
/// vtop: cost of one failed (spinning) transfer attempt (ns).
pub const VTOP_SPIN_ATTEMPT_NS: f64 = 1_000.0;
/// vtop: maximum timeout extensions before concluding.
pub const VTOP_MAX_EXTENSIONS: u8 = 3;

// ------ vcache (the follow-up paper's LLC abstraction) ------

/// vcache probing period.
pub const VCACHE_PERIOD_NS: u64 = 500 * MS;
/// Timed pointer-chase samples taken per window (per LLC domain).
pub const VCACHE_SAMPLES: u32 = 8;
/// Gap between successive samples inside a window.
pub const VCACHE_SAMPLE_GAP_NS: u64 = MS;
/// Latency anchor for an LLC hit on a quiet socket (ns).
pub const VCACHE_HIT_NS: f64 = 48.0;
/// Latency anchor for a fully thrashed socket — a DRAM-ish line fill (ns).
pub const VCACHE_MISS_NS: f64 = 113.0;
/// Domain pressure estimates older than this are ignored by cache-aware
/// bvs (stale abstraction must not steer placement).
pub const VCACHE_STALENESS_NS: u64 = 2 * SEC;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        assert_eq!(VCAP_SAMPLING_PERIOD_NS, 100 * MS);
        assert_eq!(VCAP_LIGHT_EVERY_NS, SEC);
        assert_eq!(VCAP_HEAVY_EVERY, 5);
        assert_eq!(VCAP_EMA_HALF_LIFE, 2.0);
        assert_eq!(VTOP_PERIOD_NS, 2 * SEC);
        assert_eq!(VTOP_TARGET_TRANSFERS, 500.0);
        assert_eq!(VTOP_TIMEOUT_ATTEMPTS, 15_000.0);
        assert_eq!(IVH_MIGRATION_THRESHOLD_NS, 2 * MS);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn thresholds_are_ordered() {
        assert!(VTOP_SMT_THRESHOLD_NS < VTOP_SOCKET_THRESHOLD_NS);
        assert!(RWC_STRAGGLER_FACTOR < 1.0);
        // The pressure normalisation divides by the hit-to-miss span.
        assert!(VCACHE_HIT_NS < VCACHE_MISS_NS);
    }
}
