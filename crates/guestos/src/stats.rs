//! Guest scheduler statistics.
//!
//! Counters behind the paper's profiled metrics: task migrations
//! (Figure 11b) and rescheduling/migration IPIs (Figure 13). Per-wakeup
//! runqueue latency is measured by the trace layer's
//! `trace::WakeLatency`.

use metrics::Counter;

/// Aggregated scheduler statistics for one guest.
#[derive(Default)]
pub struct KernelStats {
    /// Task migrations triggered at wakeup placement.
    pub wake_migrations: Counter,
    /// Task migrations triggered by (periodic or idle) load balancing.
    pub balance_migrations: Counter,
    /// Running-task migrations (active balance / ivh).
    pub active_migrations: Counter,
    /// Rescheduling IPIs sent to other vCPUs.
    pub resched_ipis: Counter,
    /// IPIs that crossed an LLC boundary at send time (physical placement).
    pub cross_llc_ipis: Counter,
    /// Context switches performed.
    pub context_switches: Counter,
    /// ivh migrations attempted (hook-maintained).
    pub ivh_attempts: Counter,
    /// ivh migrations completed (hook-maintained).
    pub ivh_completed: Counter,
    /// ivh migrations abandoned because the pull arrived too late.
    pub ivh_abandoned: Counter,
}

impl KernelStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total task migrations of any kind.
    pub fn total_migrations(&self) -> u64 {
        self.wake_migrations.get() + self.balance_migrations.get() + self.active_migrations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_categories() {
        let mut s = KernelStats::new();
        s.wake_migrations.add(2);
        s.balance_migrations.add(3);
        s.active_migrations.add(5);
        assert_eq!(s.total_migrations(), 10);
    }
}
