//! Percentiles, process memory, and deltas of the program's own scrape.

use apc_store::MetricsSnapshot;

/// Latency samples of one tier in nanoseconds, each tagged with the
/// [`WINDOW_NS`] window of the measured phase in which it started. A
/// failed request carries [`FAILED`], so it sorts slower than every
/// success; its value is the time until it learned it failed.
#[derive(Default)]
pub struct Latencies {
    samples: Vec<u64>,
    windows: Vec<u32>,
}

const FAILED: u64 = 1 << 63;
/// Width of a latency window.
pub const WINDOW_NS: u64 = 100_000_000;
/// Windows with fewer samples (the phase's ragged end) have no median.
const MIN_WINDOW_SAMPLES: usize = 100;

impl Latencies {
    pub fn with_capacity(n: usize) -> Latencies {
        Latencies { samples: Vec::with_capacity(n), windows: Vec::with_capacity(n) }
    }

    /// One sample of a request that started `at_ns` into the measured
    /// phase.
    pub fn push(&mut self, at_ns: u64, failed: bool, ns: u64) {
        self.samples.push(if failed { FAILED | ns } else { ns });
        self.windows.push((at_ns / WINDOW_NS) as u32);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|&&s| s & FAILED == 0).count()
    }

    /// Nearest-rank percentile `p` (0..100) of every sample, in µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        as_us(nearest_rank(&sorted, p))
    }

    /// The lowest median of any window, in µs: the median latency while
    /// the host disturbed the run least. On a shared host, stretches of
    /// seconds to minutes run the same code up to twice as slowly; the
    /// quietest window moves with the program, not with them. A window
    /// whose median is a failure ranks above every one whose median is a
    /// success.
    pub fn best_window_median_us(&self) -> f64 {
        let mut tagged: Vec<(u32, u64)> =
            self.windows.iter().copied().zip(self.samples.iter().copied()).collect();
        tagged.sort_unstable();
        let best = tagged
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
            .filter_map(|w| {
                let sorted: Vec<u64> = w.iter().map(|&(_, ns)| ns).collect();
                nearest_rank(&sorted, 50.0)
            })
            .min();
        as_us(best)
    }
}

/// Nearest-rank percentile `p` of ascending `sorted`, failure bit kept.
fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
    sorted.get(rank).copied()
}

/// A sample in µs, NaN for none.
fn as_us(sample: Option<u64>) -> f64 {
    sample.map_or(f64::NAN, |s| (s & !FAILED) as f64 / 1_000.0)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A field of `/proc/self/status` in bytes (`VmRSS`, `VmHWM`).
pub fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// A counter or gauge value, 0 when the series is absent.
pub fn value(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.value(name, labels).unwrap_or(0)
}

/// `(sum, count)` of a histogram, zeros when absent.
pub fn hist(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
    snap.histogram(name, labels).map_or((0, 0), |h| (h.sum, h.count))
}

/// Counter and histogram deltas between two scrapes of one source.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        value(self.after, name, labels).saturating_sub(value(self.before, name, labels))
    }

    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
        let (s1, c1) = hist(self.after, name, labels);
        let (s0, c0) = hist(self.before, name, labels);
        (s1.saturating_sub(s0), c1.saturating_sub(c0))
    }

    /// Mean of a histogram over the interval, 0 when it saw nothing.
    pub fn mean(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let (sum, count) = self.hist(name, labels);
        ratio(sum as f64, count as f64)
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_rank_slowest() {
        let mut l = Latencies::default();
        for ns in [5_000, 1_000, 3_000] {
            l.push(0, false, ns);
        }
        l.push(0, true, 500);
        assert_eq!(l.ok(), 3);
        assert_eq!(l.percentile_us(50.0), 3.0);
        assert_eq!(l.percentile_us(75.0), 5.0);
        assert_eq!(l.percentile_us(100.0), 0.5, "the failure sits above every success");
    }

    #[test]
    fn best_window_is_the_quietest_full_window() {
        let mut l = Latencies::default();
        // Window 0: medians 20 µs; window 1: 10 µs with failures ranked
        // slowest; window 2: 1 µs but too few samples to count.
        for i in 0..MIN_WINDOW_SAMPLES as u64 {
            l.push(i, false, 20_000);
            l.push(WINDOW_NS + i, i % 4 == 0, if i % 2 == 0 { 1_000 } else { 10_000 });
            l.push(WINDOW_NS + i, false, 10_000);
        }
        l.push(2 * WINDOW_NS, false, 1_000);
        // Window 3: most requests failed fast; it ranks slowest.
        for i in 0..MIN_WINDOW_SAMPLES as u64 {
            l.push(3 * WINDOW_NS + i, i > 10, 500);
        }
        assert_eq!(l.best_window_median_us(), 10.0);
        assert!(Latencies::default().best_window_median_us().is_nan());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
