//! Order statistics, written in-tree (the vendored crates carry none).

/// The `p`-th percentile (0–100) of `values` by nearest rank; `0.0`
/// for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median, by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples per sub-window below which [`windowed_percentile`] stops
/// splitting.
const MIN_PER_WINDOW: usize = 200;
/// Most sub-windows [`windowed_percentile`] splits a run into.
const MAX_WINDOWS: usize = 10;

/// The median, over equal sub-windows of the run, of each
/// sub-window's `p`-th percentile. `at_s[i]` places sample `i` in time
/// (seconds from the window's start, `seconds` long). A run splits into
/// as many sub-windows as keep at least 200 samples each, at most 10;
/// a stall on a shared host then moves one or two sub-windows, not the
/// figure.
pub fn windowed_percentile(values: &[f64], at_s: &[f64], seconds: f64, p: f64) -> f64 {
    let k = (values.len() / MIN_PER_WINDOW).clamp(1, MAX_WINDOWS);
    let mut buckets = vec![Vec::new(); k];
    for (&v, &t) in values.iter().zip(at_s) {
        let b = ((t / seconds) * k as f64) as usize;
        buckets[b.min(k - 1)].push(v);
    }
    let per: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(b, p))
        .collect();
    median(&per)
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) — the same figures a reader checking the spread by hand
/// gets. Needs at least two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |i: usize| {
        let m = (n + 1) as f64;
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_stall() {
        // 2000 samples over 10 s: ten sub-windows of 200. A stall makes
        // one sub-window slow; the median of sub-window p90s ignores it.
        let at: Vec<f64> = (0..2000).map(|i| f64::from(i) / 200.0).collect();
        let lat: Vec<f64> = at
            .iter()
            .map(|&t| if t < 1.0 { 50.0 } else { 1.0 })
            .collect();
        assert_eq!(windowed_percentile(&lat, &at, 10.0, 90.0), 1.0);
        assert_eq!(percentile(&lat, 95.0), 50.0);
        // Too few samples to split: the plain percentile.
        assert_eq!(
            windowed_percentile(&lat[..150], &at[..150], 10.0, 50.0),
            50.0
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
