//! Acceptance gate for the parallel runner: for a fixed seed, the merged
//! per-figure output must be byte-identical between the serial path
//! (`--jobs 1`) and the parallel path at two different worker counts.
//! Per-cell seeds depend only on cell identity and parts merge in cell
//! order, so worker count and completion order must be unobservable.

use experiments::fig03::Fig03;
use experiments::fig04::Fig04;
use experiments::fig10::Fig10;
use experiments::fig11::Fig11;
use experiments::fig14::Fig14;
use experiments::runner::{job_parts, run_suite, Part, SuiteOptions};
use experiments::table2::Table2;
use experiments::table3::Table3;
use experiments::table4::Table4;
use experiments::Scale;

fn outputs(jobs: usize, filter: &str) -> Vec<(&'static str, String)> {
    let res = run_suite(&SuiteOptions {
        jobs,
        filter: Some(filter.into()),
        scale: Scale::Smoke,
        ..SuiteOptions::default()
    })
    .expect("filter matches");
    assert!(!res.reports.is_empty(), "filter {filter} matched nothing");
    res.reports
        .into_iter()
        .map(|r| (r.name, r.output))
        .collect()
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    // fig03 (2 cells) + fig11 (4 cells): cheap figures with float-heavy
    // reductions, plus the chaos cell (fault injection + resilience state
    // machine must replay identically) and the fleet cells (multi-host
    // churn, placement, and SLO merging must be worker-count-invariant;
    // the "fleet" filter substring-matches both the stochastic "fleet"
    // job and the trace-driven "fleet-replay" job, so the replayed day
    // is held to the same byte-identity gate), run serially and at two
    // parallel widths. The adversary matrix rides the same gate: attack
    // plans, domain rotation, and probe hardening must replay identically
    // at any worker count. The vcache job adds the LLC occupancy model
    // and the vcache prober timers to the gate: cache-aware placement
    // must replay identically at any worker count.
    for filter in ["fig03", "fig11", "chaos", "adversary", "fleet", "vcache"] {
        let serial = outputs(1, filter);
        for jobs in [2, 5] {
            let parallel = outputs(jobs, filter);
            assert_eq!(
                serial, parallel,
                "{filter}: --jobs {jobs} diverged from --jobs 1"
            );
        }
    }
}

#[test]
fn seed_changes_the_output() {
    // The seed actually reaches the cells: a different base seed must not
    // reproduce the same bytes (guards against accidentally fixed seeding).
    // table4 threads the seed into its workload RNG, so completion rates
    // shift with it.
    let a = run_suite(&SuiteOptions {
        jobs: 2,
        filter: Some("table4".into()),
        scale: Scale::Smoke,
        seed: 42,
        ..SuiteOptions::default()
    })
    .expect("filter matches");
    let b = run_suite(&SuiteOptions {
        jobs: 2,
        filter: Some("table4".into()),
        scale: Scale::Smoke,
        seed: 1042,
        ..SuiteOptions::default()
    })
    .expect("filter matches");
    assert_ne!(a.reports[0].output, b.reports[0].output);
}

#[test]
fn typed_figures_render_the_published_output() {
    // The shape tests read typed figures through `job_parts` +
    // `from_parts`; those must be exactly the figures the suite prints,
    // so the tests assert published numbers.
    type Render = fn(Vec<Part>) -> String;
    let typed: [(&str, Render); 8] = [
        ("fig03", |p| Fig03::from_parts(p).to_string()),
        ("fig04", |p| Fig04::from_parts(p).to_string()),
        ("fig10", |p| Fig10::from_parts(p).to_string()),
        ("fig11", |p| Fig11::from_parts(p).to_string()),
        ("fig14", |p| Fig14::from_parts(p).to_string()),
        ("table2", |p| Table2::from_parts(p).to_string()),
        ("table3", |p| Table3::from_parts(p).to_string()),
        ("table4", |p| Table4::from_parts(p).to_string()),
    ];
    let ids: Vec<&str> = typed.iter().map(|(id, _)| *id).collect();
    let published = outputs(1, &ids.join(","));
    assert_eq!(published.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
    for ((id, render), (_, out)) in typed.iter().zip(&published) {
        assert_eq!(&render(job_parts(id, 42, Scale::Smoke)), out, "{id}");
    }
}
