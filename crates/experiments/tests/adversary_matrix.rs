//! Acceptance gates for the adversary cell: the tick-dodger's steal is
//! real under sampled proportional share and structurally confined by the
//! domain schedule, and probe hardening strictly improves the victim's
//! tail under a window-targeted polluter.

use experiments::adversary::{run_dodge, run_pollute, GuestMode, HostPolicy};
use experiments::runner::CellCtx;
use experiments::Scale;

const HORIZON_SECS: u64 = 8;

/// The untraced context every gate here runs in.
fn ctx() -> CellCtx {
    CellCtx::new(42, Scale::Quick)
}

#[test]
fn dodger_steals_under_sampled_proportional_but_not_under_domains() {
    let prop = run_dodge(
        &ctx(),
        HostPolicy::Proportional,
        GuestMode::Cfs,
        HORIZON_SECS,
    );
    let domain = run_dodge(&ctx(), HostPolicy::Domain, GuestMode::Cfs, HORIZON_SECS);
    assert_eq!(prop.violations, 0, "prop dodge run must be law-clean");
    assert_eq!(domain.violations, 0, "domain dodge run must be law-clean");
    assert!(
        prop.steal_frac > 0.1,
        "tick-dodger must steal a measurable share under sampled accounting, got {:.3}",
        prop.steal_frac
    );
    assert!(
        domain.steal_frac < 0.02,
        "domain schedule must confine the dodger to its slice, got {:.3}",
        domain.steal_frac
    );
}

#[test]
fn hardened_probing_beats_stock_vsched_under_a_probe_polluter() {
    let stock = run_pollute(
        &ctx(),
        HostPolicy::Proportional,
        GuestMode::Vsched,
        HORIZON_SECS,
    );
    let hard = run_pollute(
        &ctx(),
        HostPolicy::Proportional,
        GuestMode::VschedHardened,
        HORIZON_SECS,
    );
    assert_eq!(stock.violations, 0, "stock pollute run must be law-clean");
    assert_eq!(hard.violations, 0, "hardened pollute run must be law-clean");
    assert_eq!(
        stock.rejected_samples, 0,
        "stock vSched has no rejection path"
    );
    assert!(
        hard.rejected_samples >= 3,
        "hardened probing must reject the polluted windows, got {}",
        hard.rejected_samples
    );
    assert!(
        hard.p99_ms < stock.p99_ms,
        "hardening must strictly improve victim p99 under pollution \
         (hardened {:.2} ms vs stock {:.2} ms)",
        hard.p99_ms,
        stock.p99_ms
    );
}
