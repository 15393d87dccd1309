//! The flat serving tier: [`serve`] puts the shared front-end
//! ([`crate::front`]) over [`LocalShards`] — the served collection split
//! into row shards, each with its own micro-batcher and dispatcher
//! thread (see [`crate::batcher`]).
//!
//! Besides the interactive session surface, every server also answers
//! the **router downstream surface** (`ShardKnn` / `ShardInfo` /
//! `SnapshotModule` / `RestoreModule` — see [`crate::protocol`]): with
//! [`ServerConfig::row_offset`] set, the served collection acts as one
//! slice of a larger router-fronted deployment, answering sessionless
//! shard-local k-bests with globally-offset indices.

use crate::batcher::{Batcher, EnqueueError};
use crate::front::{self, Front, Handle, ShardBackend};
use crate::gather::{Gather, GatherFailure, GatherReply};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, Response, ShardSpan, DEFAULT_MAX_FRAME_LEN};
use crate::sessions::err;
use crate::trace::RequestTrace;
use fbp_vecdb::{
    combine_partials, Collection, FailurePolicy, PartitionConfig, PartitionedCollection, ScanMode,
    ShardPartial, ShardedCollection, ShardedScan, WeightedEuclidean,
};
use feedbackbypass::{FeedbackConfig, KnnRequest, ShardedBypass, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most requests one coalesced pass serves. `1` disables batching
    /// (every request runs its own pass — the baseline configuration the
    /// serving bench compares against).
    pub max_batch: usize,
    /// Fill level at which the dispatcher stops waiting for more
    /// arrivals and goes work-conserving (it still drains up to
    /// [`ServerConfig::max_batch`] at dispatch). Below it, collection is
    /// bounded by `max_wait` / `idle_gap`.
    pub target_fill: usize,
    /// Longest the dispatcher holds a batch open waiting for it to fill,
    /// measured from the oldest queued request.
    pub max_wait: Duration,
    /// Arrival-burst cutoff: once no new request lands for this long,
    /// the batch dispatches early (think-time traffic arrives in bursts;
    /// a quiet gap means waiting further buys latency, not fill).
    pub idle_gap: Duration,
    /// Admission bound on **in-flight requests**: a `Knn` counts
    /// against this from admission until its gathered reply fires
    /// (including while it is mid-scan), and one admitted request
    /// occupies a slot in every shard's queue. Requests beyond it
    /// answer [`ErrorCode::Busy`] before touching any queue, so a
    /// request is either scattered to all shards or refused atomically.
    pub queue_capacity: usize,
    /// Largest accepted frame payload.
    pub max_frame_len: u32,
    /// Scan execution mode for the coalesced passes. Precision follows
    /// [`SharedBypass::effective_precision`]: mirrored collections are
    /// served with the f32-rescore path automatically.
    pub scan_mode: ScanMode,
    /// Collection shards (1 = flat serving). With `S > 1` the served
    /// collection splits into `S` contiguous row shards at startup,
    /// each with its **own micro-batcher and dispatcher thread** riding
    /// the same `target_fill`/`max_wait`/`idle_gap` policy; every `Knn`
    /// request scatters to all `S` queues and its reply is gathered
    /// from the per-shard k-bests — bit-identical to flat serving, but
    /// the scan bandwidth of a round scales with the shard count on a
    /// multi-core host. Keep `S ≤ cores / CPU-per-pass`; each shard
    /// pass also gets an even share of the machine for its own
    /// parallelism.
    pub shards: usize,
    /// Global index of this server's first row, added to every entry a
    /// `ShardKnn` reply carries. A standalone server leaves it `0`; a
    /// router-fronted shard server serving rows `[offset, offset+len)`
    /// of the full collection sets it so the router's gathered indices
    /// address the full key space.
    pub row_offset: usize,
    /// Opt-in partition pruning: when set, every shard's rows are
    /// clustered into a [`PartitionedCollection`] layout once at
    /// startup ([`ShardedCollection::build_partitions`]) and all shard
    /// passes run through the partition-pruning scan — skipping
    /// partitions whose sound lower bound exceeds the running k-th key
    /// and counting the skips in
    /// [`StatsSnapshot::scan_partitions_pruned`](crate::protocol::StatsSnapshot).
    /// Answers are bit-identical to unpartitioned serving (pruning is
    /// answer-transparent); only the rows visited change. `None` (the
    /// default) serves flat.
    pub partitions: Option<PartitionConfig>,
    /// Feedback transition configuration (`k` is per-request on the
    /// wire; `max_cycles` caps each session's loop server-side).
    pub feedback: FeedbackConfig,
    /// Read-timeout slice connection threads park in between frames —
    /// the shutdown-poll granularity, not a client-visible timeout.
    pub read_timeout: Duration,
    /// Write timeout on every reply. The dispatcher writes `Knn` replies
    /// itself, so a peer that stops draining its socket could otherwise
    /// stall every session behind one blocked `write`; on timeout the
    /// reply fails, the offending connection is shut down, and serving
    /// continues.
    pub write_timeout: Duration,
    /// Traced replies at or above this wall time are kept in the
    /// bounded slow-query ring `GetTraces` drains (zero keeps every
    /// traced reply — handy in tests and drills). Only requests that
    /// *asked* for a trace are candidates; the untraced path records
    /// nothing.
    pub slow_trace_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 16,
            target_fill: 4,
            max_wait: Duration::from_millis(2),
            idle_gap: Duration::from_micros(300),
            queue_capacity: 4096,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            scan_mode: ScanMode::Batched,
            shards: 1,
            row_offset: 0,
            partitions: None,
            feedback: FeedbackConfig::default(),
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_secs(1),
            slow_trace_threshold: Duration::from_millis(5),
        }
    }
}

/// In-process shards: one micro-batcher and dispatcher thread per row
/// shard of the served collection, plus the inline `ShardKnn` scan that
/// makes every server usable as a router's downstream.
pub(crate) struct LocalShards {
    /// One micro-batcher per shard; every admitted `Knn` is scattered
    /// into all of them.
    batchers: Vec<Batcher<Arc<Gather>>>,
    /// The internal shard split (`ShardKnn` scans it inline).
    coll: ShardedCollection,
    /// Per-shard partition layouts, built once at startup when
    /// [`ServerConfig::partitions`] opted in (`parts[i]` reorders shard
    /// `i`'s rows partition-contiguously; answers stay identical).
    partitions: Option<Vec<PartitionedCollection>>,
    bypass: ShardedBypass,
    scan_mode: ScanMode,
    row_offset: usize,
}

impl LocalShards {
    /// The shard-pass engine over this server's split. Partition layouts
    /// (when the server opted in) redirect every shard pass through the
    /// pruning scan; the delivered partials — and therefore the gathered
    /// replies — are bit-identical.
    fn scan<'a>(&'a self, metrics: &'a Metrics) -> ShardedScan<'a> {
        let scan = ShardedScan::with_mode(&self.coll, self.scan_mode)
            .with_scan_stats(metrics.scan_stats());
        match &self.partitions {
            Some(parts) => scan.with_partitions(parts),
            None => scan,
        }
    }

    /// One shard's dispatcher loop: drain batches from this shard's
    /// queue, run each as one per-shard scan pass, deliver every
    /// request's partial to its gather cell (the last shard to deliver
    /// fires the merged reply). Runs until the batcher shuts down and
    /// empties.
    fn run_dispatcher(&self, shard: usize, metrics: &Metrics) {
        while let Some(batch) = self.batchers[shard].next_batch() {
            let dispatched = Instant::now();
            let waits: Vec<Duration> = batch
                .iter()
                .map(|(enqueued, _)| dispatched.saturating_duration_since(*enqueued))
                .collect();
            let gathers: Vec<Arc<Gather>> = batch.into_iter().map(|(_, g)| g).collect();
            // Each request's point, metric, and k were resolved once at
            // admission; the pass borrows them instead of rebuilding the
            // metric per shard dispatch.
            let points: Vec<&[f64]> = gathers.iter().map(|g| g.req.point.as_slice()).collect();
            let pass_metrics: Vec<&WeightedEuclidean> = gathers.iter().map(|g| &g.metric).collect();
            let ks: Vec<usize> = gathers.iter().map(|g| g.k).collect();
            // Cross-shard bound propagation: requests whose gathers already
            // hold another shard's k-th key prune against it from row one.
            let seeds: Vec<f64> = gathers.iter().map(|g| g.seed()).collect();
            // The scan is rebuilt per pass (it is a couple of words); the
            // scan_shard precision rule upgrades it to the f32 mirrors
            // whenever every shard carries one, and the per-shard thread
            // budget is an even share of the machine so S concurrent shard
            // dispatchers cannot oversubscribe the host.
            let scan = self.scan(metrics);
            let partials = self.bypass.scan_shard_prepared(
                &scan,
                shard,
                &points,
                &pass_metrics,
                &ks,
                Some(&seeds),
            );
            let scanned = Instant::now();
            metrics.record_pass(&waits);
            // Traced requests get their span stamped *before* delivery, so
            // the delivery that completes the gather already sees it.
            let fill = gathers.len() as u32;
            for gather in &gathers {
                if let Some(trace) = &gather.trace {
                    trace.add_span(ShardSpan {
                        shard: shard as u32,
                        queue_ns: dispatched.saturating_duration_since(trace.t0()).as_nanos()
                            as u64,
                        busy_ns: scanned.saturating_duration_since(dispatched).as_nanos() as u64,
                        batch_fill: fill,
                        flags: 0,
                    });
                }
            }
            for (gather, partial) in gathers.iter().zip(partials) {
                gather.complete_shard(shard, Ok(partial));
            }
        }
    }
}

impl ShardBackend for LocalShards {
    fn scatter(
        &self,
        req: KnnRequest,
        metric: WeightedEuclidean,
        k: usize,
        trace: Option<Arc<RequestTrace>>,
        reply: GatherReply,
    ) {
        let gather = Gather::new(
            req,
            metric,
            k,
            self.batchers.len(),
            FailurePolicy::Strict,
            None,
            trace,
            reply,
        );
        for (shard, batcher) in self.batchers.iter().enumerate() {
            if let Err(EnqueueError::ShuttingDown) = batcher.enqueue(Arc::clone(&gather)) {
                // Shutdown raced the scatter: deliver this shard's slot as
                // an error so the gather still resolves exactly once (the
                // reply becomes an `Internal` error frame).
                gather.complete_shard(shard, Err("server shutting down".into()));
            }
        }
    }

    /// `ShardKnn`: a sessionless shard-local k-best under an explicit
    /// metric — the frame a router scatters. The scan honors the
    /// caller's cross-shard early-abandon `seed` (tightened further
    /// across the internal shard split), the internal per-shard partials
    /// fold into one via [`combine_partials`] (staying in selection
    /// space, so the router's gather merges them exactly like in-process
    /// partials), and every entry's index is offset by
    /// [`ServerConfig::row_offset`].
    fn shard_knn(
        &self,
        front: &Front,
        k: u32,
        seed: f64,
        point: Vec<f64>,
        weights: Vec<f64>,
    ) -> Response {
        let dim = front.store.coll().dim();
        if point.len() != dim {
            front.metrics.record_protocol_error();
            return err(
                ErrorCode::DimMismatch,
                format!("expected {dim}, got {}", point.len()),
            );
        }
        // Empty weights mean uniform by protocol; anything else must match
        // the dimensionality and be a valid metric — a router relays exact
        // learned weights, so there is no silent uniform fallback here.
        let weights = if weights.is_empty() {
            vec![1.0; dim]
        } else {
            weights
        };
        if weights.len() != dim {
            front.metrics.record_protocol_error();
            return err(
                ErrorCode::DimMismatch,
                format!("expected {dim} weights, got {}", weights.len()),
            );
        }
        let metric = match WeightedEuclidean::new(weights) {
            Ok(m) => m,
            Err(e) => {
                front.metrics.record_protocol_error();
                return err(ErrorCode::BadRequest, format!("shard metric: {e}"));
            }
        };
        let k = (k as usize).min(front.store.coll().len());
        // A NaN seed would poison every key comparison; treat it as
        // unseeded.
        let mut cap = if seed.is_nan() { f64::INFINITY } else { seed };
        let scan = self.scan(&front.metrics);
        let mut parts: Vec<ShardPartial> = Vec::with_capacity(self.coll.shards().len());
        for s in 0..self.coll.shards().len() {
            let part = self
                .bypass
                .scan_shard_prepared(
                    &scan,
                    s,
                    &[point.as_slice()],
                    &[&metric],
                    &[k],
                    Some(&[cap]),
                )
                .remove(0);
            // Serial internal shards: each finished shard's k-th key
            // tightens the next one's bound (answer-preserving, like the
            // dispatcher's cross-shard seeds).
            if let Some(b) = part.bound_key(k) {
                cap = cap.min(b);
            }
            parts.push(part);
        }
        let combined = combine_partials(parts.iter(), k);
        let offset = self.row_offset as u32;
        let entries: Vec<(f64, u32)> = combined
            .entries()
            .iter()
            .map(|&(key, idx)| (key, idx + offset))
            .collect();
        Response::ShardPartial {
            finished: combined.is_finished(),
            entries,
        }
    }

    /// A local slot fails only when shutdown raced the scatter; the
    /// reply reports that reason.
    fn failure(&self, failure: GatherFailure) -> Response {
        match failure {
            GatherFailure::Refused { first_error, .. } => err(ErrorCode::Internal, first_error),
            GatherFailure::Unmergeable => {
                err(ErrorCode::Internal, "shard partials are unmergeable")
            }
        }
    }

    fn stop(&self) {
        for batcher in &self.batchers {
            batcher.shutdown();
        }
    }
}

/// Handle to a running server: address, live stats, graceful shutdown.
///
/// Dropping the handle shuts the server down (and joins every thread),
/// so tests and examples cannot leak listeners; call
/// [`ServerHandle::shutdown`] for the explicit form.
///
/// ```
/// use fbp_server::{serve, ServerConfig};
/// use fbp_vecdb::CollectionBuilder;
/// use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
/// use std::sync::Arc;
///
/// let mut b = CollectionBuilder::new();
/// b.push_unlabelled(&[0.5, 0.5]).unwrap();
/// let bypass = SharedBypass::new(
///     FeedbackBypass::for_histograms(2, BypassConfig::default()).unwrap(),
/// );
/// // Two shards: two micro-batchers, two dispatcher threads, replies
/// // gathered — results identical to `shards: 1`.
/// let cfg = ServerConfig { shards: 2, ..Default::default() };
/// let handle = serve("127.0.0.1:0", Arc::new(b.build()), bypass, cfg).unwrap();
/// assert!(handle.local_addr().port() != 0, "ephemeral port was bound");
/// let stats = handle.stats();
/// assert_eq!(stats.shards, 2);
/// assert_eq!(stats.sessions_open, 0);
/// handle.shutdown(); // joins the accept loop and both dispatchers
/// ```
pub struct ServerHandle(Handle);

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// In-process metrics snapshot (same numbers the wire
    /// `SnapshotStats` reports).
    pub fn stats(&self) -> crate::protocol::StatsSnapshot {
        self.0.front.stats()
    }

    /// Graceful shutdown: stop accepting, unpark every thread, drain the
    /// batchers, join everything. Returns once the last thread exited.
    pub fn shutdown(self) {
        drop(self.0);
    }
}

/// Bind `addr` and start serving `coll` (searches) and `bypass`
/// (predictions, learned-parameter inserts) with the given
/// configuration. Returns once the listener is accepting.
pub fn serve(
    addr: impl ToSocketAddrs,
    coll: Arc<Collection>,
    bypass: SharedBypass,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let shards = cfg.shards.max(1);
    // The shard split happens once at startup: each shard copies its
    // rows (and f32 mirror) into its own contiguous buffers, so the
    // per-shard dispatchers stream disjoint memory.
    let sharded_coll = ShardedCollection::split(&coll, shards);
    // Partition layouts (opt-in) are likewise a startup cost: each
    // shard's rows are clustered and reordered once, and every pass
    // after that prunes against the same layout.
    let partitions: Option<Vec<PartitionedCollection>> = cfg
        .partitions
        .as_ref()
        .map(|p| sharded_coll.build_partitions(p));
    let local = Arc::new(LocalShards {
        batchers: (0..shards)
            .map(|_| Batcher::new(cfg.max_batch, cfg.target_fill, cfg.max_wait, cfg.idle_gap))
            .collect(),
        coll: sharded_coll,
        partitions,
        bypass: ShardedBypass::from_shared(bypass.clone()),
        scan_mode: cfg.scan_mode,
        row_offset: cfg.row_offset,
    });
    let backend: Arc<dyn ShardBackend> = local.clone();
    front::start(listener, coll, bypass, cfg, backend, |front| {
        (0..shards)
            .map(|shard| {
                let (local, metrics) = (Arc::clone(&local), Arc::clone(&front.metrics));
                std::thread::spawn(move || local.run_dispatcher(shard, &metrics))
            })
            .collect()
    })
    .map(ServerHandle)
}
