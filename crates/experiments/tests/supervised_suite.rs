//! Acceptance gates for the supervised suite: canary isolation, the
//! zero-match filter error, and the CLI's bad-value and unknown-flag
//! errors.

use experiments::runner::{run_suite, SuiteOptions};
use experiments::Scale;

fn base(filter: &str) -> SuiteOptions {
    SuiteOptions {
        jobs: 2,
        filter: Some(filter.into()),
        scale: Scale::Smoke,
        ..SuiteOptions::default()
    }
}

#[test]
fn canary_failures_are_isolated_and_healthy_output_is_untouched() {
    let clean = run_suite(&base("fig03")).expect("filter matches");
    assert!(clean.failures.is_empty());

    let mut opts = base("fig03");
    opts.canary = true;
    let res = run_suite(&opts).expect("filter matches");

    // The injected panic surfaces, typed, naming figure and cell.
    let [panic] = &res.failures.failures[..] else {
        panic!("want one failure, got {:?}", res.failures);
    };
    assert_eq!(
        (panic.figure.as_str(), panic.label.as_str()),
        ("canary", "panic")
    );
    assert!(panic.message.contains("injected panic"), "{panic}");
    assert!(res.failures.to_string().contains("FAILED canary/panic"));

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
    // A stepping pool past the bound is refused before any job runs.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--fleet-threads", "257"])
        .output()
        .expect("suite binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--fleet-threads 257 must exit 2"
    );
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        err.contains("--fleet-threads: fleet_threads must be at most 256 (got 257)"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "--fleet-threads 257 ran the suite");
    // The retired checkpoint and retry flags are unknown, not ignored.
    for args in [&["--no-ckpt"][..], &["--resume"], &["--retries", "1"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(args)
            .output()
            .expect("suite binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(
            err.contains(&format!("unknown flag: {}", args[0])),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the suite");
    }
}
