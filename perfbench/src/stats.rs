//! The benchmark's own arithmetic: percentiles, medians and share fidelity.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// hundredths of a percent so that e.g. p99.9 of 10000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail latency as the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: u64,
    /// Number of samples.
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, with the sample count. `None` with fewer than ten samples
/// beyond the median.
pub fn supported_tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(n, p) >= 10)
        .map(|&pct| Tail {
            pct,
            value: percentile(sorted, pct),
            n,
        })
}

/// Median of a slice of measurements (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// How exactly observed shares follow their targets: the minimum over jobs
/// of `min(obs/target, target/obs)`, where `obs` is the job's share of the
/// bytes served. 1.0 is exact; a job that got nothing scores 0. With fewer
/// than two jobs there is nothing to split and the result is 1.0.
pub fn share_fidelity(targets: &[f64], bytes: &[u64]) -> f64 {
    assert_eq!(targets.len(), bytes.len(), "one target per job");
    if targets.len() < 2 {
        return 1.0;
    }
    let total: u64 = bytes.iter().sum();
    targets
        .iter()
        .zip(bytes)
        .map(|(&target, &b)| {
            let obs = b as f64 / total.max(1) as f64;
            if obs == 0.0 || target == 0.0 {
                0.0
            } else {
                (obs / target).min(target / obs)
            }
        })
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::entity::JobMeta;
    use themis_core::policy::Policy;
    use themis_core::shares::compute_shares;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let v = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
        assert_eq!(
            supported_tail(&v(1000)),
            Some(Tail {
                pct: 99.0,
                value: 990,
                n: 1000
            })
        );
        // 999 samples: p99 has 9 beyond (rank 990), so p95 (rank 950).
        assert_eq!(
            supported_tail(&v(999)).map(|t| (t.pct, t.value)),
            Some((95.0, 950))
        );
        // 10000 samples: p99.9 (rank 9990) has 10 beyond.
        assert_eq!(supported_tail(&v(10_000)).map(|t| t.pct), Some(99.9));
        // 100000 samples: p99.99 has 10 beyond.
        assert_eq!(supported_tail(&v(100_000)).map(|t| t.pct), Some(99.99));
        // 20 samples: the median has 10 beyond; 19 do not support even that.
        assert_eq!(
            supported_tail(&v(20)).map(|t| (t.pct, t.value)),
            Some((50.0, 10))
        );
        assert_eq!(supported_tail(&v(19)), None);
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fidelity_hand_computed() {
        // obs 0.3/0.7 against 0.25/0.75: min(0.25/0.3, 0.7/0.75) = 5/6.
        let f = share_fidelity(&[0.25, 0.75], &[300, 700]);
        assert!((f - 5.0 / 6.0).abs() < 1e-12, "{f}");
        // Exact split.
        assert_eq!(share_fidelity(&[0.5, 0.5], &[10, 10]), 1.0);
        // obs 0.6/0.4 against 0.5/0.5: the over-served job scores 5/6, the
        // under-served one 4/5, and the minimum counts.
        let f = share_fidelity(&[0.5, 0.5], &[6, 4]);
        assert!((f - 4.0 / 5.0).abs() < 1e-12, "{f}");
        // A starved job scores 0.
        assert_eq!(share_fidelity(&[0.5, 0.5], &[10, 0]), 0.0);
        // One job: nothing to split.
        assert_eq!(share_fidelity(&[1.0], &[5]), 1.0);
    }

    #[test]
    fn fidelity_against_size_fair_targets() {
        // fair_large's jobs: 1, 2, 4 and 8 nodes under size-fair → 1:2:4:8.
        let jobs: Vec<JobMeta> = [1u32, 2, 4, 8]
            .iter()
            .enumerate()
            .map(|(i, &n)| JobMeta::new(i as u64 + 1, i as u32 + 1, 1u32, n))
            .collect();
        let shares = compute_shares(&Policy::size_fair(), &jobs);
        let targets: Vec<f64> = jobs.iter().map(|j| shares.share(j.job)).collect();
        assert_eq!(share_fidelity(&targets, &[15, 30, 60, 120]), 1.0);
        // obs = [2,2,4,8]/16: the 1-node job got 1/8 against 1/15, so it
        // scores (1/15)/(1/8) = 8/15; the others score 15/16.
        let f = share_fidelity(&targets, &[2, 2, 4, 8]);
        assert!((f - 8.0 / 15.0).abs() < 1e-9, "{f}");
    }
}
