//! Percentiles as the benchmark reports them: a median and a tail,
//! where the tail is the highest percentile of a fixed ladder that
//! leaves at least [`MIN_BEYOND`] samples above its rank.

/// The percentile ladder, in basis points of a percent (5000 = p50).
const LADDER_BP: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// Samples a tail percentile must leave beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of percentile `bp` in `n` samples.
fn rank(bp: u64, n: usize) -> usize {
    ((bp * n as u64).div_ceil(10_000) as usize).max(1)
}

/// The highest ladder percentile (in basis points) with at least
/// [`MIN_BEYOND`] of `n` samples beyond its rank; p50 when even the
/// median leaves fewer.
pub fn tail_bp(n: usize) -> u64 {
    LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n.saturating_sub(rank(bp, n)) >= MIN_BEYOND)
        .unwrap_or(LADDER_BP[0])
}

/// Nearest-rank percentile of ascending `sorted`; 0 when empty.
pub fn percentile_bp(sorted: &[f64], bp: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(bp, sorted.len()) - 1]
}

/// Formats basis points as a percentile label (`p99.9`).
pub fn label(bp: u64) -> String {
    let whole = bp / 100;
    match bp % 100 {
        0 => format!("p{whole}"),
        frac if frac % 10 == 0 => format!("p{whole}.{}", frac / 10),
        frac => format!("p{whole}.{frac:02}"),
    }
}

/// The median by the Harrell-Davis estimator in its normal
/// approximation: a weighted mean of every order statistic, weighted by
/// how likely each is to be the population median. Unlike the
/// nearest-rank median it does not jump across a gap between clusters
/// of values (cold-solve latencies come in per-kernel clusters) when a
/// few samples move across it. 0 when empty.
pub fn median_hd(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n < 3 {
        return percentile_bp(sorted, 5000);
    }
    let sd = (0.25 / (n as f64 + 2.0)).sqrt();
    let (mut total, mut weights) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let z = ((i as f64 + 0.5) / n as f64 - 0.5) / sd;
        let w = (-0.5 * z * z).exp();
        total += w * x;
        weights += w;
    }
    total / weights
}

/// Median and tail of one latency population.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: usize,
    /// The Harrell-Davis median ([`median_hd`]).
    pub p50: f64,
    pub tail_bp: u64,
    pub tail: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_bp = tail_bp(sorted.len());
    Summary {
        n: sorted.len(),
        p50: median_hd(&sorted),
        tail_bp,
        tail: percentile_bp(&sorted, tail_bp),
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        for n in 20..20_000 {
            let bp = tail_bp(n);
            assert!(n - rank(bp, n) >= MIN_BEYOND, "n={n} bp={bp}");
            // And it is the highest such rung.
            if let Some(&next) = LADDER_BP.iter().find(|&&b| b > bp) {
                assert!(
                    n - rank(next, n) < MIN_BEYOND,
                    "n={n}: {next} also qualifies"
                );
            }
        }
    }

    #[test]
    fn tail_rungs_at_known_sizes() {
        assert_eq!(tail_bp(5), 5000);
        assert_eq!(tail_bp(100), 9000);
        assert_eq!(tail_bp(1_000), 9900);
        assert_eq!(tail_bp(10_000), 9990);
        assert_eq!(tail_bp(1_000_000), 9999);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_bp(&v, 5000), 50.0);
        assert_eq!(percentile_bp(&v, 9000), 90.0);
        assert_eq!(percentile_bp(&v, 9990), 100.0);
        let s = summarize(&v);
        assert_eq!((s.n, s.tail_bp, s.tail, s.max), (100, 9000, 90.0, 100.0));
    }

    #[test]
    fn harrell_davis_median_is_centred_and_smooth() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((median_hd(&v) - 51.0).abs() < 1e-9);
        // Two clusters with the split at the middle: nearest rank jumps
        // from one cluster to the other when one sample moves; the
        // estimate moves by a fraction of the gap.
        let mut a: Vec<f64> = vec![1.0; 50];
        a.extend(vec![2.0; 51]);
        let mut b: Vec<f64> = vec![1.0; 51];
        b.extend(vec![2.0; 50]);
        assert_eq!(percentile_bp(&a, 5000) - percentile_bp(&b, 5000), 1.0);
        let moved = median_hd(&a) - median_hd(&b);
        assert!(moved > 0.0 && moved < 0.2, "{moved}");
        assert_eq!(median_hd(&[3.0]), 3.0);
        assert_eq!(median_hd(&[]), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(label(5000), "p50");
        assert_eq!(label(9990), "p99.9");
        assert_eq!(label(9999), "p99.99");
    }
}
