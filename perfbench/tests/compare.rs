//! The compare verdict rule (choosing-metrics §6–8) and the quartiles it
//! rests on.

use perfbench::compare::{verdict, Direction, Verdict};
use perfbench::stats::{median, quartiles};

/// Ten runs: `base`, `base + step`, …
fn runs(base: f64, step: f64) -> Vec<f64> {
    (0..10).map(|i| base + step * f64::from(i)).collect()
}

fn scaled(v: &[f64], k: f64) -> Vec<f64> {
    v.iter().map(|x| x * k).collect()
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn winning_every_pair_by_more_than_the_spread_is_better() {
    let parent = runs(10.0, 0.05);
    let change = scaled(&parent, 0.9);
    assert_eq!(
        verdict(&parent, &change, Direction::Lower, 0.1),
        Verdict::Better
    );
    // The same numbers on a higher-is-better metric are a regression.
    assert_eq!(
        verdict(&parent, &change, Direction::Higher, 0.05),
        Verdict::Worse
    );
}

#[test]
fn a_regression_within_the_bound_is_same_and_beyond_it_worse() {
    let parent = runs(10.0, 0.05);
    let slower = scaled(&parent, 1.02);
    assert_eq!(
        verdict(&parent, &slower, Direction::Lower, 0.1),
        Verdict::Same
    );
    let slower = scaled(&parent, 1.2);
    assert_eq!(
        verdict(&parent, &slower, Direction::Lower, 0.1),
        Verdict::Worse
    );
}

#[test]
fn nine_pairs_in_ten_are_needed_for_a_gain() {
    let parent = runs(10.0, 0.05);
    let mut change = scaled(&parent, 0.9);
    change[0] = 11.0;
    change[1] = 11.0;
    assert_eq!(
        verdict(&parent, &change, Direction::Lower, 0.1),
        Verdict::Same
    );
    change[1] = parent[1] * 0.9;
    assert_eq!(
        verdict(&parent, &change, Direction::Lower, 0.1),
        Verdict::Better
    );
}

#[test]
fn spread_wider_than_the_bound_is_unresolved() {
    let parent = runs(10.0, 0.5);
    let change = runs(11.0, 0.5);
    assert_eq!(
        verdict(&parent, &change, Direction::Lower, 0.1),
        Verdict::Unresolved
    );
}

#[test]
fn wide_spread_is_same_when_every_change_run_beats_every_parent_run() {
    let parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 30.0, 30.0];
    let change = [9.9; 10];
    assert_eq!(
        verdict(&parent, &change, Direction::Lower, 0.1),
        Verdict::Same
    );
}
