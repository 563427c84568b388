//! Memory-footprint regression guard for a churned fleet.
//!
//! A region-scale replay multiplies every per-host and per-VM byte by
//! thousands, so live heap is bounded here directly: a counting global
//! allocator measures the bytes a cluster holds after it is built and
//! after it has run. Allocation sizes depend only on the spec and seed, so
//! the measurement repeats exactly. This binary holds a single test, which
//! steps the cluster on one worker, so no other thread allocates while it
//! counts.

use simcore::time::MS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use vsched_fleet::{policy_by_name, Cluster, FleetSpec, GuestMode};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

/// Live heap bytes; a statistic that publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is only updated beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Live heap stays within a few KB per built host and about 24 KB per
/// admitted VM once the run is over. Each VM's latency workload holds
/// three histograms and each tenant record one more, so zeroing all 1920
/// of a histogram's buckets (15 KB) up front, or pre-sizing each host's
/// event heap, puts both figures more than twice over these bounds.
#[test]
fn churned_fleet_live_heap_is_bounded() {
    const HOSTS: usize = 200;
    const MAX_BYTES_PER_HOST: usize = 4 * 1024;
    const MAX_BYTES_PER_VM: usize = 24 * 1024;

    let mut spec = FleetSpec::small(HOSTS, 4, 1);
    spec.arrival_mean_ns = 4 * MS;
    let policy = policy_by_name("probe-aware").expect("probe-aware is a registered policy");

    let before = live();
    let mut cluster = Cluster::with_threads(spec, GuestMode::Vsched, policy, 1, NonZeroUsize::MIN);
    let built = live().saturating_sub(before);
    let per_host = built / HOSTS;
    assert!(
        per_host <= MAX_BYTES_PER_HOST,
        "built cluster holds {built} B live: {per_host} B/host > {MAX_BYTES_PER_HOST}"
    );

    let summary = cluster.run();
    assert!(summary.admitted > 0, "the churn admitted no VM");
    let ran = live().saturating_sub(before);
    let per_vm = ran / summary.admitted as usize;
    assert!(
        per_vm <= MAX_BYTES_PER_VM,
        "run cluster holds {ran} B live over {} admitted VMs: {per_vm} B/VM > {MAX_BYTES_PER_VM}",
        summary.admitted
    );
    eprintln!(
        "footprint: {per_host} B/host after build, {per_vm} B/VM after run ({} admitted)",
        summary.admitted
    );
}
