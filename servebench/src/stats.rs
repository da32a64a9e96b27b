//! Order statistics with the benchmark's reporting rule.

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie above its rank: a tail figure resting
/// on fewer samples is one unlucky epoch, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; need {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// The median of a handful of repeats (no tail rule: used for set-up and
/// recovery times measured a few times per run). Zero for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean, zero for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, zero when the base is zero (a layer the workload does
/// not run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n: the helper must sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
        assert_eq!(percentile(&ramp(250), 90.0), Ok(225.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert_eq!(percentile(&ramp(21), 50.0), Ok(11.0));
    }

    #[test]
    fn refusal_names_the_shortfall() {
        let err = percentile(&ramp(50), 90.0).unwrap_err();
        assert!(err.contains("leaves 5 beyond"), "{err}");
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_an_absent_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
    }
}
