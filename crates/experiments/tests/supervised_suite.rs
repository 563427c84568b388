//! Acceptance gates for the supervised suite: canary isolation, checkpoint
//! resume byte-identity, the zero-match filter error, and the CLI's
//! bad-value errors.

use experiments::runner::{run_suite, SuiteOptions};
use experiments::supervise::FailureCause;
use experiments::Scale;
use std::path::PathBuf;

fn base(filter: &str) -> SuiteOptions {
    SuiteOptions {
        jobs: 2,
        filter: Some(filter.into()),
        scale: Scale::Smoke,
        ..SuiteOptions::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vsched_supervised_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn canary_failures_are_isolated_and_healthy_output_is_untouched() {
    let clean = run_suite(&base("fig03")).expect("filter matches");
    assert!(clean.failures.is_empty());

    let mut opts = base("fig03");
    opts.canary = true;
    // One retry keeps the test fast while still proving retry exhaustion.
    opts.supervise.retries = 1;
    opts.supervise.backoff_base = std::time::Duration::from_millis(1);
    let res = run_suite(&opts).expect("filter matches");

    // Both injected failures surface, typed, naming figure and cell.
    assert_eq!(res.failures.failures.len(), 2);
    let panic = &res.failures.failures[0];
    assert_eq!(
        (panic.figure.as_str(), panic.label.as_str()),
        ("canary", "panic")
    );
    assert_eq!(panic.attempts, 2, "retries exhausted with the same seed");
    assert!(
        matches!(&panic.cause, FailureCause::Panic(m) if m.contains("injected panic")),
        "{:?}",
        panic.cause
    );
    let deadline = &res.failures.failures[1];
    assert_eq!(deadline.label, "deadline");
    assert!(matches!(
        deadline.cause,
        FailureCause::Deadline { budget_ms: 10, .. }
    ));

    // The canary job failed; every real job's bytes are exactly the clean
    // run's.
    let canary = res.reports.iter().find(|r| r.name == "canary").unwrap();
    assert!(!canary.ok);
    assert!(canary.output.is_empty());
    let healthy: Vec<_> = res
        .reports
        .iter()
        .filter(|r| r.name != "canary")
        .map(|r| (r.name, r.output.clone()))
        .collect();
    let clean_out: Vec<_> = clean
        .reports
        .iter()
        .map(|r| (r.name, r.output.clone()))
        .collect();
    assert_eq!(healthy, clean_out, "canary must not perturb healthy jobs");

    // The machine-readable report names both cells too.
    let json = res.failures.to_json();
    assert!(json.contains("\"failed_cells\":2"));
    assert!(json.contains("injected panic") && json.contains("deadline"));
}

#[test]
fn resume_replays_checkpointed_jobs_byte_identically() {
    let dir = tmpdir("resume");
    let filter = "fig03,fig11";
    let clean = run_suite(&base(filter)).expect("filter matches");
    assert_eq!(clean.reports.len(), 2);

    // First run writes the checkpoint.
    let mut first = base(filter);
    first.checkpoint = Some(dir.clone());
    let r1 = run_suite(&first).expect("filter matches");
    assert_eq!(r1.resumed_jobs, 0);
    assert!(r1.executed_cells > 0);

    // Resume replays everything: zero cells execute, bytes identical.
    let mut second = first.clone();
    second.resume = true;
    let r2 = run_suite(&second).expect("filter matches");
    assert_eq!(r2.resumed_jobs, 2, "notes: {:?}", r2.notes);
    assert_eq!(r2.executed_cells, 0);
    for (a, b) in clean.reports.iter().zip(&r2.reports) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.output, b.output, "{} diverged across resume", a.name);
    }
    assert!(r2.reports.iter().all(|r| r.from_checkpoint));

    // Partial checkpoint: drop one job's file; only that job re-executes,
    // and the merged output still matches the clean run byte-for-byte.
    std::fs::remove_file(dir.join("fig03.out")).unwrap();
    let r3 = run_suite(&second).expect("filter matches");
    assert_eq!(r3.resumed_jobs, 1);
    assert!(r3.executed_cells > 0, "fig03 re-ran");
    for (a, b) in clean.reports.iter().zip(&r3.reports) {
        assert_eq!(
            a.output, b.output,
            "{} diverged after partial resume",
            a.name
        );
    }

    // A different seed must not replay this checkpoint.
    let mut other_seed = second.clone();
    other_seed.seed = 1042;
    let r4 = run_suite(&other_seed).expect("filter matches");
    assert_eq!(r4.resumed_jobs, 0, "key mismatch must discard");
    assert!(
        r4.notes.iter().any(|n| n.contains("mismatch")),
        "{:?}",
        r4.notes
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_list_prints_every_job_with_a_description() {
    use experiments::runner::registry;
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
        .arg("--list")
        .output()
        .expect("suite binary runs");
    assert!(out.status.success(), "--list must exit 0");
    let text = String::from_utf8(out.stdout).expect("utf8 listing");
    // Job lines, then `#`-prefixed operational notes (the fleet-threads
    // hint) which must come last and are not job rows.
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let jobs = registry();
    assert_eq!(
        lines.len(),
        jobs.len(),
        "one listing line per registered job:\n{text}"
    );
    assert!(
        text.lines()
            .skip_while(|l| !l.starts_with('#'))
            .all(|l| l.starts_with('#')),
        "notes must trail the job rows:\n{text}"
    );
    assert!(
        text.contains("--fleet-threads"),
        "--list must document the fleet-threads knob:\n{text}"
    );
    for (line, job) in lines.iter().zip(&jobs) {
        assert!(
            line.starts_with(job.name),
            "listing out of registry order: {line:?} vs {}",
            job.name
        );
        assert!(
            line.contains(job.desc),
            "missing description for {}: {line:?}",
            job.name
        );
        assert!(line.contains(&format!("{} cells", job.cells)));
    }
    // The canary is env-gated, never listed.
    assert!(!text.contains("canary"));
}

#[test]
fn filter_matching_nothing_lists_the_valid_ids() {
    let err = match run_suite(&base("not-a-figure")) {
        Err(e) => e,
        Ok(_) => panic!("zero-match filter must error"),
    };
    assert_eq!(err.filter, "not-a-figure");
    assert!(err.valid.contains(&"fig02") && err.valid.contains(&"chaos"));
    assert!(err.to_string().contains("valid figure ids"));
}

#[test]
fn malformed_flag_values_name_the_flag() {
    for (flag, bad) in [("--jobs", "four"), ("--scale", "huge")] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
            .args([flag, bad])
            .output()
            .expect("suite binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {bad} must exit 2");
        let err = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(
            err.contains(&format!("{flag}: invalid value \"{bad}\"")),
            "{flag} {bad}: {err}"
        );
        assert!(err.contains("usage: suite"), "{flag} {bad}: {err}");
        assert!(out.stdout.is_empty(), "{flag} {bad} ran the suite");
    }
}
