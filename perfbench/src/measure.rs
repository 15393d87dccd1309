//! The benchmark's pure measuring pieces: latency summaries, the
//! `/proc` CPU and memory readers, metric-name checks and the JSON
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Percentiles a tail summary may fall back to, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// One closed-loop connection's rate at its median cycle, searches/s:
/// one over the median time between successive search completions (0
/// for fewer than two).
pub fn closed_loop_rate(done: &[Instant]) -> f64 {
    let cycles: Vec<f64> = done
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    if cycles.is_empty() {
        0.0
    } else {
        1.0 / median(&cycles)
    }
}

/// The highest candidate percentile not above `wanted` that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn choose_percentile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// A tail-latency figure with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile actually reported.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
    /// Windows whose percentiles were reduced to their median (1 when
    /// the whole run formed one window).
    pub windows: usize,
}

/// Tail latency of `samples` (in arrival order) at `wanted`.
///
/// The run is cut into consecutive windows of `window` samples (a short
/// last window joins the one before it); each window's percentile is
/// taken and their median reported, so one stall of the shared host
/// moves one window instead of the whole figure. With fewer samples
/// than a window, the whole run is one window. The percentile is the
/// highest one a window supports (see [`choose_percentile`]); `None`
/// when not even the median does.
pub fn tail(samples: &[f64], wanted: f64, window: usize) -> Option<Tail> {
    let windows = (samples.len() / window.max(1)).max(1);
    let size = if windows == 1 { samples.len() } else { window };
    let p = choose_percentile(size, wanted)?;
    let values: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            let mut chunk = samples[w * size..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, p)
        })
        .collect();
    Some(Tail {
        p,
        value: median(&values),
        samples: samples.len(),
        windows,
    })
}

/// Whether `name` is a legal metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Clock ticks per second of the `/proc` CPU fields (`USER_HZ`, 100 on
/// every Linux target).
const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks from one `/proc/<pid>/stat` or
/// `/proc/thread-self/stat` line. The command field is parenthesised
/// and may itself hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the line are the 12th and 13th after the
    // command.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field such as `VmHWM` from a `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn read_cpu_us(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let ticks = parse_stat_cpu_ticks(&stat).unwrap_or_else(|| panic!("parse {path}"));
    ticks * (1_000_000 / USER_HZ)
}

/// CPU time of the whole process, every thread, microseconds.
pub fn process_cpu_us() -> u64 {
    read_cpu_us("/proc/self/stat")
}

/// CPU time of the calling thread, microseconds.
pub fn thread_cpu_us() -> u64 {
    read_cpu_us("/proc/thread-self/stat")
}

/// Peak resident memory of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with a name and a unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Panics on an illegal name or unit or a
/// non-finite value, which would be a bug in the benchmark.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "illegal metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "illegal unit {:?}", m.unit);
        assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.01), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn closed_loop_rate_ignores_stalls() {
        use std::time::Duration;
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Cycles of 2, 2, 50 (a stall) and 2 ms: the median is 2 ms.
        let done = [at(0), at(2), at(4), at(54), at(56)];
        assert!((closed_loop_rate(&done) - 500.0).abs() < 1e-6);
        assert_eq!(closed_loop_rate(&done[..1]), 0.0);
        assert_eq!(closed_loop_rate(&[]), 0.0);
    }

    #[test]
    fn chooses_highest_percentile_with_ten_beyond() {
        assert_eq!(choose_percentile(10_000, 0.999), Some(0.999));
        assert_eq!(choose_percentile(9_999, 0.999), Some(0.99));
        assert_eq!(choose_percentile(1_000, 0.99), Some(0.99));
        assert_eq!(choose_percentile(999, 0.99), Some(0.95));
        assert_eq!(choose_percentile(200, 0.99), Some(0.95));
        assert_eq!(choose_percentile(100, 0.99), Some(0.9));
        assert_eq!(choose_percentile(20, 0.99), Some(0.5));
        assert_eq!(choose_percentile(19, 0.99), None);
        // Never above what was asked for.
        assert_eq!(choose_percentile(1_000_000, 0.95), Some(0.95));
    }

    #[test]
    fn tail_reports_percentile_and_sample_count() {
        let samples: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&samples, 0.99, 1_000).unwrap();
        assert_eq!(t.p, 0.9);
        assert_eq!(t.value, 135.0);
        assert_eq!((t.samples, t.windows), (150, 1));
        assert!(tail(&samples[..5], 0.99, 1_000).is_none());
    }

    #[test]
    fn tail_takes_median_of_window_percentiles() {
        // Three windows of 1,000; one has a stall that lifts its p99.
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..1_000 {
                let stall = if w == 1 { 1_000.0 } else { 0.0 };
                samples.push(f64::from(i) + stall);
            }
        }
        // A short tail joins the last window.
        samples.extend([5.0; 10]);
        let t = tail(&samples, 0.99, 1_000).unwrap();
        assert_eq!((t.p, t.windows, t.samples), (0.99, 3, 3_010));
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn parses_proc_stat_cpu_fields() {
        // The command may hold spaces and parentheses.
        let line = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 9 0 4711 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(1290));
        assert_eq!(parse_stat_cpu_ticks("17 (short) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        let live = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&live).is_some());
    }

    #[test]
    fn parses_proc_status_kb_fields() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn metric_name_check() {
        for ok in [
            "setup_s",
            "vecdb.knn.pass_us",
            "0ratio",
            "a-b.c_d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "slash/",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("latency_ms", 1.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
