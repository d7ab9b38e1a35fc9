//! Order statistics shared by the run, `compare` and the per-layer folds.

use std::collections::BTreeMap;

/// Sorted copy of `values` (total order, so NaN cannot reorder silently).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile that still has at least ten samples above it:
/// `(value, percentile level in %)`, or `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    (n >= 11).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        *slot = (v[(j - 1) as usize] * (n as f64 - delta) + v[j as usize] * delta) / n as f64;
    }
    Some(out)
}

/// Each input's fastest latency and how many times it ran. Ops without
/// an input (`None`) are left out.
fn best_map(ops: &[(Option<usize>, f64)]) -> BTreeMap<usize, (f64, usize)> {
    let mut by_input: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for &(input, ms) in ops {
        if let Some(i) = input {
            let (best, n) = by_input.entry(i).or_insert((ms, 0));
            *best = best.min(ms);
            *n += 1;
        }
    }
    by_input
}

/// The fastest latency of each input, in input order, and the fewest
/// times any input ran. Ops without an input (`None`) are left out.
pub fn best_by_input(ops: &[(Option<usize>, f64)]) -> (Vec<f64>, usize) {
    let by_input = best_map(ops);
    let repeats = by_input.values().map(|&(_, n)| n).min().unwrap_or(0);
    (
        by_input.into_values().map(|(best, _)| best).collect(),
        repeats,
    )
}

/// How much longer the best pass of `other` takes than that of `base`,
/// as a share of `base`'s, over the inputs both ran; `None` when they
/// share none.
pub fn best_pass_slowdown(
    base: &[(Option<usize>, f64)],
    other: &[(Option<usize>, f64)],
) -> Option<f64> {
    let (base, other) = (best_map(base), best_map(other));
    let (mut b, mut o) = (0.0, 0.0);
    for (i, &(best, _)) in &base {
        if let Some(&(theirs, _)) = other.get(i) {
            b += best;
            o += theirs;
        }
    }
    (b > 0.0).then(|| o / b - 1.0)
}

/// Interquartile range as a share of the median (`0.0` for a zero median
/// or fewer than two samples).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie strictly above 90.
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let five_hundred: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&five_hundred), Some((490.0, 98.0)));
        // Eleven samples: only the minimum has ten above it.
        let eleven: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((0.0, 100.0 / 11.0)));
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn best_by_input_keeps_each_inputs_fastest_op() {
        let ops = [
            (Some(1), 5.0),
            (Some(0), 9.0),
            (None, 1.0),
            (Some(1), 4.0),
            (Some(0), 7.0),
            (Some(1), 6.0),
        ];
        assert_eq!(best_by_input(&ops), (vec![7.0, 4.0], 2));
        assert_eq!(best_by_input(&[(None, 1.0)]), (vec![], 0));
    }

    #[test]
    fn best_pass_slowdown_compares_the_inputs_both_ran() {
        let base = [
            (Some(0), 4.0),
            (Some(1), 6.0),
            (Some(0), 5.0),
            (Some(2), 9.0),
        ];
        let other = [(Some(1), 7.0), (Some(0), 5.0), (Some(3), 1.0), (None, 0.5)];
        // Inputs 0 and 1: 5 + 7 against 4 + 6.
        let slowdown = best_pass_slowdown(&base, &other).unwrap();
        assert!((slowdown - 0.2).abs() < 1e-12, "{slowdown}");
        assert_eq!(best_pass_slowdown(&base, &[(Some(5), 1.0)]), None);
    }

    #[test]
    fn median_percentile_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
