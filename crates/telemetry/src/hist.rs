//! A power-of-two bucketed histogram for `u64` samples.
//!
//! Recording is a handful of integer operations (a `leading_zeros`, an
//! array add, min/max updates) — cheap enough to sit on simulation hot
//! paths. Bucket `k` covers `[2^(k-1), 2^k)` (bucket 0 holds zeros), so 65
//! buckets cover the full `u64` range. Used for trace-length,
//! misprediction-streak and fetch-bandwidth distributions.

use crate::json::Json;
use crate::ToJson;

/// Number of buckets: zeros plus one per power of two.
pub const BUCKETS: usize = 65;

/// A pow-2 bucketed histogram with exact count/sum/min/max.
///
/// # Examples
///
/// ```
/// use ntp_telemetry::Histogram;
/// let mut h = Histogram::new();
/// for v in [0, 1, 3, 3, 16] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 16);
/// assert!((h.mean() - 4.6).abs() < 1e-9);
/// assert_eq!(h.bucket_count(3), 2, "3 falls in [2,4)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Bucket index of a value: 0 for 0, otherwise `65 - leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Hot-path safe: no allocation, no branching
    /// beyond min/max.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in the bucket containing `v`.
    pub fn bucket_count(&self, v: u64) -> u64 {
        self.buckets[bucket_of(v)]
    }

    /// An upper bound on the `q`-quantile (0.0..=1.0): the inclusive top of
    /// the first bucket at which the cumulative count reaches
    /// `ceil(q * count)`. Exact to within the pow-2 bucket resolution; 0
    /// when empty.
    pub(crate) fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_top(k).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound, exact to the pow-2 bucket resolution; 0 when
    /// empty.
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(0.5)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(0.99)
    }

    /// 99.9th-percentile upper bound — the overload tail the serving
    /// reports lead with.
    pub fn p999(&self) -> u64 {
        self.quantile_upper_bound(0.999)
    }

    /// Iterates non-empty buckets as `(lo, hi_inclusive, count)`.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (bucket_bottom(k), bucket_top(k), *n))
    }

    /// Rebuilds a histogram from its [`ToJson`] form: `count`, `sum`,
    /// `min`, `max` and `buckets` are read back, so `mean` and the
    /// quantiles come out exact. The buckets must be pow-2 buckets, in
    /// ascending order, whose counts sum to `count`.
    pub(crate) fn from_json(j: &Json) -> Result<Histogram, String> {
        let field = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{key}` is not a u64"))
        };
        let mut h = Histogram {
            count: field("count")?,
            sum: field("sum")?,
            max: field("max")?,
            ..Histogram::new()
        };
        if h.count > 0 {
            h.min = field("min")?;
        }
        let Some(Json::Array(buckets)) = j.get("buckets") else {
            return Err("`buckets` is not an array".into());
        };
        let (mut seen, mut next) = (0u64, 0);
        for b in buckets {
            let triple = match b {
                Json::Array(v) => v.iter().map(Json::as_u64).collect::<Option<Vec<_>>>(),
                _ => None,
            };
            let Some(&[lo, hi, n]) = triple.as_deref() else {
                return Err(format!("bucket {b} is not [lo, hi, n]"));
            };
            let k = bucket_of(lo);
            if (bucket_bottom(k), bucket_top(k)) != (lo, hi) {
                return Err(format!("[{lo}, {hi}] is not a pow-2 bucket"));
            }
            if k < next {
                return Err(format!("bucket [{lo}, {hi}] repeated or out of order"));
            }
            h.buckets[k] = n;
            seen = seen.checked_add(n).ok_or("bucket counts overflow a u64")?;
            next = k + 1;
        }
        if seen != h.count {
            return Err(format!(
                "buckets hold {seen} samples, `count` says {}",
                h.count
            ));
        }
        Ok(h)
    }
}

/// Lowest value in bucket `k`.
fn bucket_bottom(k: usize) -> u64 {
    match k {
        0 => 0,
        1 => 1,
        _ => 1u64 << (k - 1),
    }
}

/// Highest value in bucket `k` (inclusive).
fn bucket_top(k: usize) -> u64 {
    match k {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

impl ToJson for Histogram {
    /// `{count, sum, min, max, mean, p50, p99, p999, buckets:
    /// [[lo, hi, n], …]}` with only non-empty buckets listed.
    fn to_json(&self) -> Json {
        Json::object()
            .with("count", Json::U64(self.count))
            .with("sum", Json::U64(self.sum))
            .with("min", Json::U64(self.min()))
            .with("max", Json::U64(self.max))
            .with("mean", Json::F64(self.mean()))
            .with("p50", Json::U64(self.quantile_upper_bound(0.5)))
            .with("p99", Json::U64(self.quantile_upper_bound(0.99)))
            .with("p999", Json::U64(self.quantile_upper_bound(0.999)))
            .with(
                "buckets",
                Json::Array(
                    self.nonempty_buckets()
                        .map(|(lo, hi, n)| {
                            Json::Array(vec![Json::U64(lo), Json::U64(hi), Json::U64(n)])
                        })
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 20, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 2, "2 and 3 share [2,4)");
        assert_eq!(h.bucket_count(4), 2, "4 and 7 share [4,8)");
        assert_eq!(h.bucket_count(8), 1);
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn quantiles_bound_from_above() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile_upper_bound(0.5);
        assert!((50..=63).contains(&p50), "p50 {p50} within bucket of 50");
        assert_eq!(h.quantile_upper_bound(1.0), 100, "clamped to observed max");
        assert_eq!(h.quantile_upper_bound(0.0), 1);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..50u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..70u64 {
            b.record(v * 7 + 1);
            whole.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantile_accessors_on_empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn p999_separates_the_tail_from_p99() {
        let mut h = Histogram::new();
        // 9989 fast samples, 10 slow, 1 pathological: p99 stays in the fast
        // bucket, p99.9 lands in the slow bucket, max sees the outlier.
        for _ in 0..9989 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(5_000);
        }
        h.record(1 << 30);
        assert_eq!(h.p99(), 15, "p99 bounded by the fast bucket [8,16)");
        assert_eq!(h.p999(), 8191, "p99.9 bounded by the slow bucket");
        assert_eq!(h.quantile_upper_bound(1.0), 1 << 30);
        let json = crate::ToJson::to_json(&h).render();
        assert!(json.contains(r#""p999":8191"#), "p999 serialized: {json}");
    }

    #[test]
    fn quantile_accessors_on_single_bucket() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(5); // all samples in [4,8)
        }
        // Every quantile lands in the one occupied bucket, clamped to max.
        assert_eq!(h.quantile_upper_bound(0.0), 5);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p99(), 5);
        assert_eq!(h.quantile_upper_bound(1.0), 5);
    }

    #[test]
    fn quantile_accessors_on_saturated_samples() {
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.record(u64::MAX);
        }
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        // Mixing in small samples keeps p50 low and p99 saturated.
        for _ in 0..97 {
            h.record(1);
        }
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn quantile_rank_rounding_at_exact_bucket_edges() {
        // 50 samples at 1 (bucket [1,1]) and 50 at 100 (bucket [64,128)):
        // rank ceil(0.5 * 100) = 50 is reached exactly at the end of the
        // first bucket, so p50 must NOT spill into the second.
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1);
            h.record(100);
        }
        assert_eq!(h.p50(), 1, "rank 50 satisfied by the first bucket");
        // One rank past the edge crosses into the top bucket, clamped to
        // the observed max (100), not the bucket top (127).
        assert_eq!(h.quantile_upper_bound(0.51), 100);
        // q = 0.0 still reports rank 1 (the minimum's bucket), not rank 0.
        assert_eq!(h.quantile_upper_bound(0.0), 1);
    }

    #[test]
    fn quantile_is_max_at_one_and_clamps_out_of_range_q() {
        let mut h = Histogram::new();
        for v in [3u64, 900, 77, 12_345] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(1.0), h.max());
        // Out-of-range q is clamped, not an error or a wild rank.
        assert_eq!(h.quantile_upper_bound(2.0), h.quantile_upper_bound(1.0));
        assert_eq!(h.quantile_upper_bound(-3.0), h.quantile_upper_bound(0.0));
        // NaN degrades to the lowest rank rather than panicking.
        assert_eq!(h.quantile_upper_bound(f64::NAN), 3);
    }

    #[test]
    fn quantile_rank_math_survives_huge_counts() {
        // Counts near u64::MAX exercise the f64 rank computation: the
        // product q * count and the cast back to u64 must not overflow,
        // wrap, or land outside the populated buckets. The u64::MAX - 1
        // sevens are 2 + 4 + ... + 2^63: one sample doubled by self-merges,
        // with every power folded in.
        let mut pow = Histogram::new();
        pow.record(7);
        let mut h = Histogram::new();
        for _ in 1..64 {
            pow.merge(&pow.clone());
            h.merge(&pow);
        }
        h.record(1 << 40);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p999(), 7, "the tail sample is far below rank 99.9%");
        assert_eq!(h.quantile_upper_bound(1.0), 1 << 40);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert_eq!(h.nonempty_buckets().count(), 0);
    }
}
