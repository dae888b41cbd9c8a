//! Summary statistics and the open-loop arithmetic, kept free of I/O so the
//! rules are unit-tested.

/// Median (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A sample must leave at least this many observations beyond a reported
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
/// Integer arithmetic in tenths of a percent, so 99 % of 1000 is rank 990
/// and not 991 by a rounding error.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Observations strictly after percentile `p`'s nearest-rank position.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest [`TAIL_LADDER`] percentile with at least [`MIN_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p, v[rank(n, p) - 1]))
}

/// Evenly spaced due times (seconds from the stream start) for an open loop
/// at `rate` requests per second lasting `secs`.
pub fn due_times(rate: f64, secs: f64) -> Vec<f64> {
    let count = (rate * secs).floor() as usize;
    (0..count).map(|i| i as f64 / rate).collect()
}

/// Requests due but not yet sent, observed at each due instant: the
/// generator's backlog. `due` is ascending; `sent[i] >= due[i]`.
pub fn backlog(due: &[f64], sent: &[f64]) -> Vec<usize> {
    let mut sorted = sent.to_vec();
    sorted.sort_by(f64::total_cmp);
    due.iter()
        .enumerate()
        .map(|(i, &t)| (i + 1) - sorted.partition_point(|&s| s <= t))
        .collect()
}

/// Backlog growth a steady open loop may show between the first and last
/// third of its run (mean requests waiting) before its latencies are
/// refused: service-time bursts queue a few requests, a rate the system
/// cannot sustain queues ever more.
pub const BACKLOG_SLACK: f64 = 2.0;

/// Mean backlog of the last third minus that of the first third.
pub fn backlog_growth(backlog: &[usize]) -> f64 {
    let third = backlog.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&backlog[backlog.len() - third..]) - mean(&backlog[..third])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 19 samples: not even the median has ten beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: p50 (rank 10) leaves exactly ten.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        // 40 samples: p75 (rank 30) leaves ten; p90 would leave four.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        // 100 samples: p90 (rank 90) leaves ten.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves ten, p99.9 only one.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        for n in 20..2000 {
            let (p, _) = tail(&vec![0.0; n]).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn due_times_are_evenly_spaced_at_the_rate() {
        let d = due_times(20.0, 10.0);
        assert_eq!(d.len(), 200);
        assert_eq!(d[0], 0.0);
        assert!((d[199] - 9.95).abs() < 1e-12);
        assert!(d.windows(2).all(|w| (w[1] - w[0] - 0.05).abs() < 1e-12));
    }

    #[test]
    fn backlog_counts_due_but_unsent() {
        let due = [0.0, 1.0, 2.0, 3.0];
        // Sent on time.
        assert_eq!(backlog(&due, &due), vec![0, 0, 0, 0]);
        // The first request stalls until 2.5: requests 0 and 1 wait at t = 1,
        // 0, 1 and 2 at t = 2 (FIFO), then the queue drains.
        let sent = [2.5, 2.5, 2.5, 3.0];
        assert_eq!(backlog(&due, &sent), vec![1, 2, 3, 0]);
    }

    #[test]
    fn backlog_growth_separates_bursts_from_overload() {
        // A burst in the middle drains: no growth.
        let steady = [0, 1, 0, 3, 4, 2, 0, 1, 0];
        assert!(backlog_growth(&steady).abs() < BACKLOG_SLACK);
        // Service slower than arrivals: the queue keeps growing.
        let overloaded: Vec<usize> = (0..30).map(|i| i / 2).collect();
        assert!(backlog_growth(&overloaded) > BACKLOG_SLACK);
        assert_eq!(backlog_growth(&[5, 6]), 0.0);
    }
}
