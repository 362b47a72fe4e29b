//! Order statistics for latency series.

/// Nearest-rank percentile of an ascending series (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered series (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The quiet decile of an unordered series of times: its tenth percentile,
/// which of ten values or fewer is the least (0 when empty).
pub fn quiet(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, QUIET)
}

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it; `None` below 20 samples, where not even the median
/// does.
pub fn highest_supported(n: usize) -> Option<f64> {
    // In tenths of a percent, so that 10 % of 100 samples is exactly ten.
    LADDER.iter().copied().rfind(|p| n * (1000 - (p * 10.0) as usize) / 1000 >= 10)
}

/// One latency sample: when the operation ended (µs since the window
/// opened) and how long it took (µs).
pub type Sample = (f64, f64);

/// The share of a window's slices, in percent, that a report takes for
/// quiet: it prints the tenth percentile over slices of a latency, and of
/// a rate counted from the highest.
const QUIET: f64 = 10.0;

/// A latency series reduced to what a report prints. The window is cut, in
/// order of time, into slices of `per_slice` samples (the workload says how
/// many; a slice lasts some 0.4 s where operations take milliseconds, and is
/// one operation where they take seconds); each percentile is taken per
/// slice, and the *quiet decile* — the tenth percentile over slices — is
/// reported. With ten slices or fewer that is the best slice.
///
/// The reason is the sandbox, not the program: it loses the CPU for 5 to
/// 50 ms a few times a second and runs a quarter slower for seconds to
/// minutes at a time. Such noise only ever adds latency, so over the whole
/// window p99 measures the hypervisor. A slice's percentile is spoiled by
/// the noise that falls in it; while a tenth of the slices are quiet, the
/// quiet decile reports the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples in the whole window.
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Operations per second, the quiet decile taken the other way: over
    /// slices of each slice's count ÷ duration, from the highest down.
    pub rate_per_s: f64,
    /// The highest percentile the whole window supports with ten samples
    /// beyond it.
    pub supported: Option<f64>,
}

impl Summary {
    pub fn of(samples: &[Sample], per_slice: usize) -> Summary {
        let mut by_time = samples.to_vec();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        let slices = (by_time.len() / per_slice.max(1)).max(1);
        let bounds: Vec<usize> = (0..=slices).map(|i| i * by_time.len() / slices).collect();
        let per_slice: Vec<Vec<f64>> = bounds
            .windows(2)
            .map(|w| {
                let mut v: Vec<f64> = by_time[w[0]..w[1]].iter().map(|s| s.1).collect();
                v.sort_by(f64::total_cmp);
                v
            })
            .collect();
        let quiet_over_slices =
            |p: f64| quiet(&per_slice.iter().map(|v| percentile(v, p)).collect::<Vec<_>>());
        // A slice lasts from the end of the previous slice's last operation
        // (the window's opening, for the first) to the end of its own.
        let ended_us = |i: usize| if i == 0 { 0.0 } else { by_time[i - 1].0 };
        let mut rates = bounds
            .windows(2)
            .filter(|w| ended_us(w[1]) > ended_us(w[0]))
            .map(|w| (w[1] - w[0]) as f64 * 1e6 / (ended_us(w[1]) - ended_us(w[0])))
            .collect::<Vec<_>>();
        // The quietest slices are those with the highest rates.
        rates.sort_by(|a, b| b.total_cmp(a));
        Summary {
            n: by_time.len(),
            p50: quiet_over_slices(50.0),
            p90: quiet_over_slices(90.0),
            p99: quiet_over_slices(99.0),
            rate_per_s: percentile(&rates, QUIET),
            supported: highest_supported(by_time.len()),
        }
    }

    /// The percentile `p` of the ladder (50, 90 or 99).
    pub fn at(&self, p: f64) -> f64 {
        match p as u32 {
            50 => self.p50,
            90 => self.p90,
            _ => self.p99,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} p50={:.1} p90={:.1} p99={:.1}", self.n, self.p50, self.p90, self.p99)?;
        match self.supported {
            Some(p) => write!(f, " (supports p{p})"),
            None => write!(f, " (supports no percentile)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_keeps_ten_samples_beyond_the_quoted_percentile() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(400), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_count_percentiles_and_what_the_count_supports() {
        // 2000 samples, latency = arrival order: every slice of 100 holds a
        // run of consecutive values.
        let samples: Vec<Sample> = (1..=2000).rev().map(|i| (f64::from(i), f64::from(i))).collect();
        let s = Summary::of(&samples, 100);
        assert_eq!(s.n, 2000);
        assert_eq!(s.supported, Some(99.0));
        // Twenty slices; slice k (0-based) holds 100k+1..=100k+100: its p50
        // is 100k+50, its p99 100k+99; the tenth percentile over twenty
        // slices is the second's.
        assert_eq!(s.p50, 150.0);
        assert_eq!(s.p99, 199.0);
        assert!(s.to_string().starts_with("n=2000 p50=150.0"), "{s}");
        assert_eq!((s.at(50.0), s.at(90.0), s.at(99.0)), (s.p50, s.p90, s.p99));
        assert_eq!(Summary::of(&samples[..150], 100).supported, Some(90.0));
        assert_eq!(Summary::of(&[], 100).n, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quiet(&(1..=30).rev().map(f64::from).collect::<Vec<_>>()), 3.0);
        assert_eq!(quiet(&[]), 0.0);
    }

    #[test]
    fn noise_spoils_its_slices_not_the_report() {
        // 6000 requests at 1 ms; a 60 ms stall delays 40 of them in a row,
        // and the machine runs at half speed for the last five sixths.
        let mut samples: Vec<Sample> = (0..6000).map(|i| (f64::from(i), 1_000.0)).collect();
        for s in &mut samples[300..340] {
            s.1 = 60_000.0;
        }
        for s in &mut samples[1000..] {
            s.1 *= 2.0;
        }
        let whole: Vec<f64> = {
            let mut v: Vec<f64> = samples.iter().map(|s| s.1).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(percentile(&whole, 99.5), 60_000.0, "the stall owns the run's far tail");
        assert_eq!(percentile(&whole, 50.0), 2_000.0, "the slow stretch owns its median");
        let summary = Summary::of(&samples, 100);
        assert_eq!((summary.p50, summary.p99), (1_000.0, 1_000.0), "the quiet sixth is reported");
        // 60 slices of 100 here. With one sample per slice every percentile
        // is the sample itself, and of ten samples or fewer the best one is
        // reported.
        let short = [(0.0, 5.0), (1.0, 3.0), (2.0, 4.0), (3.0, 9.0)];
        let alone = Summary::of(&short, 1);
        assert_eq!((alone.p50, alone.p99), (3.0, 3.0));
        // Slices of four (rounds of an epoch): one slice here, whose median
        // is its second value and whose p99 its largest.
        let epoch = Summary::of(&short, 4);
        assert_eq!((epoch.p50, epoch.p99), (4.0, 9.0));
    }

    #[test]
    fn rate_is_the_upper_decile_of_slice_rates() {
        // 2000 operations: one per ms for the first fifth of the window,
        // then one per 2 ms (the machine slowed down).
        let fast = (1..=400).map(|i| (f64::from(i) * 1e3, 1.0));
        let slow = (1..=1600).map(|i| (4e5 + f64::from(i) * 2e3, 1.0));
        let summary = Summary::of(&fast.chain(slow).collect::<Vec<_>>(), 100);
        assert_eq!(summary.rate_per_s, 1_000.0, "whole-window rate would be 556/s");
        // Two campaigns of 5 s and 4 s: the better one is reported.
        let campaigns = Summary::of(&[(5e6, 5e6), (9e6, 4e6)], 1);
        assert_eq!((campaigns.rate_per_s, campaigns.p50), (0.25, 4e6));
        assert_eq!(Summary::of(&[], 1).rate_per_s, 0.0);
    }
}
