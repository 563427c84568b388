//! The repetition count and the statistics the gated metrics report.

use perfbench::outcome::{fastest, repetitions};

#[test]
fn repetitions_follow_the_requested_seconds_alone() {
    assert_eq!(repetitions(30.0, 1.8, 2), 17);
    assert_eq!(repetitions(30.0, 4.0, 2), 8);
    assert_eq!(repetitions(30.0, 15.0, 2), 2);
    // Too short a run still repeats enough to check that outputs repeat.
    assert_eq!(repetitions(1.0, 15.0, 2), 2);
}

#[test]
fn fastest_is_the_minimum() {
    assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
}
