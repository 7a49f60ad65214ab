//! Exact order statistics over raw samples and host-drift normalisation.
//!
//! Every percentile the benchmark reports comes from here, computed on
//! the raw per-operation samples (never from a bucketed histogram), and
//! only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer than this and the value is one outlier's guess.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q * n` samples at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
/// Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// The median by the same nearest-rank rule, for summaries that need no
/// tail guard (the median of a handful of set-up repetitions). `None`
/// only for an empty slice.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    Some(samples[samples.len().div_ceil(2) - 1])
}

/// Mean of `samples`; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The reference kernel's rate, in million operations per second, on
/// the host the benchmark was calibrated on. Normalised timings are
/// expressed on that host's clock, so they read close to the raw ones.
pub const NOMINAL_REF_MOPS: f64 = 150.0;

/// A CPU-bound duration measured while the reference kernel ran at
/// `ref_mops`, rescaled to a host where it runs at [`NOMINAL_REF_MOPS`]:
/// if the host is twice as slow, the raw time doubles and the reference
/// rate halves, so the product stays put.
pub fn normalise_time(raw: f64, ref_mops: f64) -> f64 {
    raw * ref_mops / NOMINAL_REF_MOPS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled so the sort is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        assert_eq!(percentile(&mut ramp(100), 0.5), Some(50.0));
        assert_eq!(percentile(&mut ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&mut ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&mut ramp(21), 0.5), Some(11.0));
        let mut skewed = vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        skewed.extend(vec![7.0; 20]);
        assert_eq!(percentile(&mut skewed, 0.2), Some(1.0));
        assert_eq!(percentile(&mut skewed, 0.34), Some(7.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
        assert!(percentile(&mut ramp(100), 0.9).is_some());
        assert!(percentile(&mut ramp(99), 0.9).is_none());
        assert!(percentile(&mut ramp(999), 0.99).is_none());
        assert!(percentile(&mut ramp(19), 0.5).is_none());
        assert!(percentile(&mut [], 0.5).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn normalisation_cancels_host_speed() {
        // The same work on a host at half speed: twice the time, half
        // the reference rate — the normalised figure does not move.
        let fast = normalise_time(1.5, 2.0 * NOMINAL_REF_MOPS);
        let slow = normalise_time(3.0, NOMINAL_REF_MOPS);
        assert!((fast - slow).abs() < 1e-12);
        assert!((fast - 3.0).abs() < 1e-12);
        // At the nominal reference rate it is the identity.
        assert_eq!(normalise_time(0.25, NOMINAL_REF_MOPS), 0.25);
    }
}
