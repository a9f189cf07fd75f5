//! The benchmark's own arithmetic: medians, percentiles with their sample
//! counts, the steady-state throughput estimator, the quiet-bucket
//! selection, metric-name checks and the self-time subtraction. Every figure the benchmark prints goes
//! through one of these, so each has a test.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A percentile together with the samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank: the tail it rests on.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `values`: the smallest
/// sample with at least `q` of the samples at or below it. `None` when
/// empty or `q` is out of range. Infinite samples (refused requests) sort
/// last, so they count as missing any latency limit.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// A tail percentile taken per window of consecutive samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Median over windows of each window's percentile.
    pub value: f64,
    /// Windows the samples were split into.
    pub windows: usize,
    /// Samples in the smallest window.
    pub min_samples: usize,
    /// Samples beyond the percentile in the window with the fewest.
    pub min_beyond: usize,
}

/// Percentile `q` of each window of `window` consecutive samples (in the
/// order they were taken), and the median over windows: a tail estimate
/// that one stall of the host cannot move the way it moves a pooled
/// percentile. Leftover samples join the last full window; with fewer
/// than `window` samples there is one window of all of them.
pub fn windowed_percentile(samples: &[f64], q: f64, window: usize) -> Option<Windowed> {
    let window = window.max(1);
    let windows = (samples.len() / window).max(1);
    let mut tails = Vec::with_capacity(windows);
    let (mut min_samples, mut min_beyond) = (usize::MAX, usize::MAX);
    for w in 0..windows {
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * window
        };
        let p = percentile(&samples[w * window..end], q)?;
        tails.push(p.value);
        min_samples = min_samples.min(p.samples);
        min_beyond = min_beyond.min(p.beyond);
    }
    Some(Windowed {
        value: median(&tails)?,
        windows,
        min_samples,
        min_beyond,
    })
}

/// The steady-state part of `n` frames in completion order: positions
/// `lo..=hi`, from the 10th to the 90th percentile (at least one frame
/// trimmed at each end once there are four), so pipeline fill and drain
/// do not count. `None` with fewer than three frames.
pub fn steady_range(n: usize) -> Option<(usize, usize)> {
    if n < 3 {
        return None;
    }
    let trim = (n / 10).max(1).min((n - 2) / 2);
    Some((trim, n - 1 - trim))
}

/// Steady-state frames per second from per-frame completion times
/// (seconds, any origin): the completion rate across [`steady_range`].
/// `None` with fewer than three frames or a zero-length window.
pub fn steady_fps(completions: &[f64]) -> Option<f64> {
    let mut t = completions.to_vec();
    t.sort_by(f64::total_cmp);
    let (lo, hi) = steady_range(t.len())?;
    let span = t[hi] - t[lo];
    (span > 0.0).then(|| (hi - lo) as f64 / span)
}

/// Completions per second in each whole `bucket`-second interval that
/// counts: `keep` has one entry per interval of `[0, keep.len() *
/// bucket)` and names those that count (times in seconds from the start
/// of the span). Their median is a rate that a burst of host noise in a
/// few intervals cannot move.
pub fn bucket_rates(times: &[f64], keep: &[bool], bucket: f64) -> Vec<f64> {
    let mut counts = vec![0u32; keep.len()];
    for &t in times {
        if t >= 0.0 {
            if let Some(c) = counts.get_mut((t / bucket) as usize) {
                *c += 1;
            }
        }
    }
    counts
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&c, _)| f64::from(c) / bucket)
        .collect()
}

/// The quiet buckets of a run: those whose host CPU steal (time the
/// hypervisor gave this machine's CPUs to other guests) is at most the
/// median over all buckets, so at least half of them. Which buckets are
/// quiet depends on the host alone, never on what the program measured
/// in them.
pub fn quiet_buckets(steal: &[u64]) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let Some(&median) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    steal.iter().map(|&s| s <= median).collect()
}

/// `true` when `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// A rank's self time: its busy time minus the time attributed to the
/// layers below it. Clock reads taken on one thread nest, so the parts
/// never exceed the whole by more than clock granularity; the subtraction
/// saturates so a rounding excess never yields a negative time.
pub fn self_time(busy: Duration, parts: &[Duration]) -> Duration {
    parts.iter().fold(busy, |rest, p| rest.saturating_sub(*p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_reports_its_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        // Too few samples for a p99 with ten beyond it: the count says so.
        let small: Vec<f64> = (1..=16).map(f64::from).collect();
        let p = percentile(&small, 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (16.0, 0));
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        let one = percentile(&[7.0], 1.0).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        // Order of input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5).unwrap().value, 2.0);
    }

    #[test]
    fn refused_requests_miss_every_latency_limit() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert!(percentile(&v, 0.95).unwrap().value.is_infinite());
        assert_eq!(percentile(&v, 0.5).unwrap().value, 5.0);
    }

    #[test]
    fn windowed_percentile_resists_one_stall() {
        // Three windows of 1000 samples; one window holds a long stall.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x = 1.0e6;
        }
        let w = windowed_percentile(&v, 0.99, 1000).unwrap();
        assert_eq!((w.windows, w.min_samples, w.min_beyond), (3, 1000, 10));
        assert_eq!(w.value, 989.0);
        // Pooled, the stall owns the tail.
        assert_eq!(percentile(&v, 0.99).unwrap().value, 1.0e6);
    }

    #[test]
    fn windowed_percentile_small_and_leftover() {
        assert_eq!(windowed_percentile(&[], 0.5, 10), None);
        // Fewer samples than a window: one window, the pooled value.
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        let w = windowed_percentile(&v, 0.9, 100).unwrap();
        assert_eq!((w.windows, w.min_samples), (1, 16));
        assert_eq!(w.value, percentile(&v, 0.9).unwrap().value);
        // 25 samples in windows of 10: the last window takes 15.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let w = windowed_percentile(&v, 1.0, 10).unwrap();
        assert_eq!((w.windows, w.min_samples, w.min_beyond), (2, 10, 0));
        assert_eq!(w.value, (10.0 + 25.0) / 2.0);
    }

    #[test]
    fn steady_fps_ignores_fill_and_drain() {
        // 100 frames at 1 ms spacing after a 50 ms fill, with a slow tail.
        let mut t: Vec<f64> = (0..100).map(|i| 0.050 + f64::from(i) * 0.001).collect();
        t[0] = 0.0;
        t[99] = 1.0;
        let fps = steady_fps(&t).unwrap();
        assert!((fps - 1000.0).abs() < 1e-6, "{fps}");
    }

    #[test]
    fn steady_range_trims_both_ends() {
        assert_eq!(steady_range(2), None);
        assert_eq!(steady_range(3), Some((0, 2)));
        assert_eq!(steady_range(4), Some((1, 2)));
        assert_eq!(steady_range(16), Some((1, 14)));
        assert_eq!(steady_range(50), Some((5, 44)));
        assert_eq!(steady_range(1000), Some((100, 899)));
    }

    #[test]
    fn steady_fps_small_and_degenerate() {
        assert_eq!(steady_fps(&[]), None);
        assert_eq!(steady_fps(&[1.0, 2.0]), None);
        assert_eq!(steady_fps(&[1.0, 1.0, 1.0, 1.0]), None);
        // Three frames: too few to trim, the whole span counts.
        assert_eq!(steady_fps(&[0.0, 0.5, 1.0]), Some(2.0));
        let fps = steady_fps(&[0.0, 0.1, 0.2, 0.3]).unwrap();
        assert!((fps - 10.0).abs() < 1e-9, "{fps}");
        // Unsorted input is sorted first.
        let fps = steady_fps(&[0.3, 0.0, 0.2, 0.1]).unwrap();
        assert!((fps - 10.0).abs() < 1e-9, "{fps}");
    }

    #[test]
    fn bucket_rates_median_ignores_a_stalled_bucket() {
        let rate = |t: &[f64], keep: &[bool], b| median(&bucket_rates(t, keep, b));
        // 10 per second for 5 s, except nothing in the third second.
        let t: Vec<f64> = (0..50)
            .map(|i| f64::from(i) * 0.1)
            .filter(|t| !(2.0..3.0).contains(t))
            .collect();
        assert_eq!(rate(&t, &[true; 5], 1.0), Some(10.0));
        // Completions after the last whole bucket, or before 0, are ignored.
        assert_eq!(rate(&[0.5, 1.5, 1.9, -0.1], &[true; 2], 1.0), Some(1.5));
        assert_eq!(rate(&[0.1], &[], 1.0), None);
        assert_eq!(rate(&[], &[true; 4], 0.5), Some(0.0));
    }

    #[test]
    fn bucket_rates_of_kept_buckets_only() {
        // 1, 2, 3 and 4 completions in four 1-second buckets.
        let t = [0.5, 1.2, 1.8, 2.1, 2.5, 2.9, 3.0, 3.3, 3.6, 3.9];
        assert_eq!(bucket_rates(&t, &[true; 4], 1.0), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            bucket_rates(&t, &[true, false, true, false], 1.0),
            [1.0, 3.0]
        );
        assert_eq!(bucket_rates(&t, &[false, false, false, true], 1.0), [4.0]);
        assert!(bucket_rates(&t, &[false; 4], 1.0).is_empty());
        // Half-second buckets report per-second rates.
        assert_eq!(bucket_rates(&[0.1, 0.2, 0.7], &[true; 2], 0.5), [4.0, 2.0]);
    }

    #[test]
    fn quiet_buckets_keep_the_less_stolen_half() {
        assert_eq!(
            quiet_buckets(&[5, 40, 0, 12, 3, 90]),
            [true, false, true, false, true, false]
        );
        // Ties at the median are all kept; a steady host keeps everything.
        assert_eq!(quiet_buckets(&[2, 2, 2, 7]), [true, true, true, false]);
        assert_eq!(quiet_buckets(&[0; 3]), [true; 3]);
        assert_eq!(quiet_buckets(&[9]), [true]);
        assert!(quiet_buckets(&[]).is_empty());
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "setup_s",
            "fabric.recv_wait_s",
            "fft64_staged",
            "9x",
            "a-b.c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".lead", "has space", "semi;colon", "ünicode"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn self_time_never_goes_negative() {
        let ms = Duration::from_millis;
        assert_eq!(self_time(ms(10), &[ms(3), ms(2)]), ms(5));
        assert_eq!(self_time(ms(10), &[ms(6), ms(6)]), Duration::ZERO);
        assert_eq!(self_time(ms(10), &[]), ms(10));
        // Parts plus self time give back the whole whenever it fits.
        let parts = [ms(1), ms(2), ms(3), ms(0)];
        let rest = self_time(ms(10), &parts);
        assert_eq!(rest + parts.iter().sum::<Duration>(), ms(10));
    }
}
