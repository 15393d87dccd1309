//! Serving metrics: cheap atomic counters on the hot path, lock-free
//! log-linear histograms ([`fbp_obs::LogHistogram`]) for every latency
//! distribution, snapshots on demand.
//!
//! Sharded accounting: a client request is counted **once**
//! ([`Metrics::record_request`], at admission), while passes are
//! counted **per shard pass** ([`Metrics::record_pass`]) — every
//! request rides exactly `shards` passes, so the mean batch fill is
//! `requests × shards / passes`, the per-shard-pass fill the batching
//! policy actually controls. Queue waits are sampled per (request,
//! shard pass) pair: the delay from admission to that shard's dispatch.
//!
//! The histograms replaced bounded mutex-guarded sample rings. The
//! trade: quantiles now cover *all* samples (no sliding window) with a
//! documented relative error ≤ [`fbp_obs::RELATIVE_ERROR_BOUND`]
//! (< 0.8%), and recording is a handful of relaxed `fetch_add`s — no
//! lock on the dispatch path, and [`DownstreamStats::p99`] (read by the
//! router's hedge sweeper every millisecond, per live gather, per
//! downstream) no longer clones and sorts a 1024-entry ring under a
//! lock per read.

use crate::protocol::StatsSnapshot;
use fbp_obs::LogHistogram;
use feedbackbypass::ScanStatsSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Shared metrics sink.
pub(crate) struct Metrics {
    /// Shard count the server was configured with (for fill math).
    shards: u64,
    /// Client k-NN requests admitted to the scatter stage.
    requests: AtomicU64,
    /// Per-shard scan passes issued (each request rides `shards` of
    /// them).
    passes: AtomicU64,
    /// Protocol errors answered / connections dropped for framing.
    protocol_errors: AtomicU64,
    /// Replies merged from a subset of the shards (only a router under
    /// `FailurePolicy::Degraded` ever answers one).
    degraded_replies: AtomicU64,
    /// Queue-wait distribution in nanoseconds (admission → dispatch).
    waits: LogHistogram,
    /// Scan-path work counters, flushed by every shard pass (the shard
    /// dispatchers attach this sink to their `ShardedScan`; a router
    /// never scans, so its sink — and the six `scan_*` wire fields —
    /// stay zero there).
    scan: ScanStatsSink,
}

impl Metrics {
    pub(crate) fn new(shards: u64) -> Self {
        Metrics {
            shards: shards.max(1),
            requests: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            degraded_replies: AtomicU64::new(0),
            waits: LogHistogram::new(),
            scan: ScanStatsSink::new(),
        }
    }

    /// The scan-path counter sink the shard dispatchers flush into.
    pub(crate) fn scan_stats(&self) -> &ScanStatsSink {
        &self.scan
    }

    /// Count one admitted client request (once, regardless of shards).
    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one per-shard pass that served `waits.len()` requests,
    /// with each request's admission→dispatch delay on this shard.
    pub(crate) fn record_pass(&self, waits: &[Duration]) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        for w in waits {
            self.waits.record_duration(*w);
        }
    }

    /// Count one protocol error (answered or connection-fatal).
    pub(crate) fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one reply merged from a subset of the shards.
    pub(crate) fn record_degraded_reply(&self) {
        self.degraded_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot everything; `sessions_open` comes from the registry.
    pub(crate) fn snapshot(&self, sessions_open: u64) -> StatsSnapshot {
        let requests = self.requests.load(Ordering::Relaxed);
        let passes = self.passes.load(Ordering::Relaxed);
        let scan = self.scan.snapshot();
        StatsSnapshot {
            requests,
            passes,
            shards: self.shards,
            mean_batch_fill: if passes > 0 {
                (requests * self.shards) as f64 / passes as f64
            } else {
                0.0
            },
            queue_wait_p50_us: self.waits.quantile_us(0.50),
            queue_wait_p99_us: self.waits.quantile_us(0.99),
            sessions_open,
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            scan_rows_visited: scan.rows_visited,
            scan_blocks_abandoned: scan.blocks_abandoned,
            scan_candidates_filtered: scan.candidates_filtered,
            scan_candidates_rescored: scan.candidates_rescored,
            scan_seed_prunes: scan.seed_prunes,
            scan_partitions_pruned: scan.partitions_pruned,
            degraded_replies: self.degraded_replies.load(Ordering::Relaxed),
            // The downstream counters stay zero on a plain shard server;
            // the router fills them from its downstream pools.
            ..Default::default()
        }
    }
}

/// Robustness counters for one router downstream, shared by every
/// pooled connection worker talking to that shard server. The router's
/// stats snapshot sums these across downstreams into the six router
/// fields of [`StatsSnapshot`]; the fault tests assert them non-zero.
/// These count per-*call* outcomes only — the circuit-breaker
/// lifecycle counters (ejections, re-admissions, probe failures, fast
/// degrades) live in each downstream's
/// [`HealthTracker`](crate::health::HealthTracker) and surface as the
/// per-shard [`StatsSnapshot::health`] rows.
#[derive(Default)]
pub(crate) struct DownstreamStats {
    /// Calls abandoned because the shard deadline passed.
    pub(crate) timeouts: AtomicU64,
    /// Call attempts retried after an I/O failure mid-call.
    pub(crate) retries: AtomicU64,
    /// Connections (re-)established after a failure (the very first
    /// connect of a worker is not counted; every later one is).
    pub(crate) reconnects: AtomicU64,
    /// Hedge requests fired at this downstream while it straggled.
    pub(crate) hedges_fired: AtomicU64,
    /// Hedge requests whose answer beat the primary's.
    pub(crate) hedges_won: AtomicU64,
    /// Successful-call latency distribution (nanoseconds), the p99
    /// source for the hedge delay.
    lat: LogHistogram,
}

impl DownstreamStats {
    /// Record one successful call's request→reply latency.
    pub(crate) fn record_latency(&self, lat: Duration) {
        self.lat.record_duration(lat);
    }

    /// 99th-percentile call latency (`None` until a sample exists).
    ///
    /// A lock-free histogram walk: the hedge sweeper calls this every
    /// tick for every straggling shard of every live gather, and the
    /// previous implementation cloned and sorted the whole sample ring
    /// under the recording lock each time — contending with the pool
    /// workers recording completions. Now neither side blocks the
    /// other, at the cost of the histogram's < 0.8% relative error.
    pub(crate) fn p99(&self) -> Option<Duration> {
        self.lat.quantile(0.99).map(Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbp_obs::RELATIVE_ERROR_BOUND;

    #[test]
    fn snapshot_reports_fill_and_percentiles() {
        let m = Metrics::new(1);
        for _ in 0..4 {
            m.record_request();
        }
        m.record_pass(&[Duration::from_micros(100); 3]);
        m.record_pass(&[Duration::from_micros(900)]);
        m.record_protocol_error();
        let s = m.snapshot(2);
        assert_eq!(s.requests, 4);
        assert_eq!(s.passes, 2);
        assert_eq!(s.shards, 1);
        assert!((s.mean_batch_fill - 2.0).abs() < 1e-12);
        // Histogram quantiles report the containing bucket's upper
        // edge: never below the exact value, above it by at most the
        // documented relative-error bound.
        assert!(s.queue_wait_p50_us >= 100.0);
        assert!(s.queue_wait_p50_us <= 100.0 * (1.0 + RELATIVE_ERROR_BOUND));
        assert!(s.queue_wait_p99_us >= 900.0);
        assert!(s.queue_wait_p99_us <= 900.0 * (1.0 + RELATIVE_ERROR_BOUND));
        assert_eq!(s.sessions_open, 2);
        assert_eq!(s.protocol_errors, 1);
    }

    #[test]
    fn sharded_fill_counts_per_shard_passes() {
        // 4 requests over 2 shards = 8 request-shard dispatches; served
        // in 4 shard passes → mean per-shard fill 2.
        let m = Metrics::new(2);
        for _ in 0..4 {
            m.record_request();
        }
        for _ in 0..4 {
            m.record_pass(&[Duration::from_micros(50); 2]);
        }
        let s = m.snapshot(0);
        assert_eq!(s.requests, 4);
        assert_eq!(s.passes, 4);
        assert_eq!(s.shards, 2);
        assert!((s.mean_batch_fill - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_snapshot_is_zeroed() {
        let s = Metrics::new(1).snapshot(0);
        assert_eq!(s.requests, 0);
        assert_eq!(s.mean_batch_fill, 0.0);
        assert_eq!(s.queue_wait_p50_us, 0.0);
    }

    #[test]
    fn downstream_p99_tracks_latencies_within_bound() {
        let d = DownstreamStats::default();
        assert_eq!(d.p99(), None);
        // 100 fast + 10 slow: nearest rank round(109 × 0.99) = 108
        // lands inside the slow tail, so p99 must report ≈ 5 ms.
        for _ in 0..100 {
            d.record_latency(Duration::from_micros(200));
        }
        for _ in 0..10 {
            d.record_latency(Duration::from_millis(5));
        }
        let p99 = d.p99().expect("samples recorded").as_nanos() as f64;
        let exact = Duration::from_millis(5).as_nanos() as f64;
        assert!(p99 >= exact);
        assert!(p99 <= exact * (1.0 + RELATIVE_ERROR_BOUND));
    }
}
