//! Medians and quartiles, computed the way Python's `statistics` module
//! computes them, so the spreads seen here match those an outside checker
//! derives from the same values.

/// The middle value, or the mean of the middle pair; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `[q1, median, q3]` as `statistics.quantiles(values, n=4)` gives them
/// (its default, exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (k, out) in q.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *out = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(q)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
