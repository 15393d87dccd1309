//! The shard-router serving tier: [`route`] puts the shared front-end
//! ([`crate::front`]) — the same client protocol, session tier, and
//! gather cell a flat server runs — over [`RemoteShards`], which
//! scatters each `Knn` as sessionless `ShardKnn` frames to **remote
//! shard servers** and gathers their partials with the same key-space
//! merge the in-process sharded server uses — **bit-identical** to
//! single-process `shards = N` serving while every shard is healthy.
//!
//! ## Split of responsibilities
//!
//! The router owns the **session tier**: the learned module
//! (predictions, inserts), the per-session feedback state machine, and
//! the full collection (the [`fbp_feedback::FeedbackStepper`] reads
//! judged rows' vectors). Downstream shard servers own the **scan
//! tier**: each serves one contiguous row slice with
//! [`crate::ServerConfig::row_offset`] set, so gathered indices address
//! the full key space. Startup probes every downstream (`ShardInfo`)
//! and refuses to start unless the slices tile the router's collection
//! exactly — the precondition of the bit-identity claim.
//!
//! ## Partial-failure policy
//!
//! Every downstream call is bounded by
//! [`RouterConfig::shard_timeout`]; what happens when a shard misses
//! its deadline is decided by the configured
//! [`FailurePolicy`](fbp_vecdb::FailurePolicy) — a typed
//! `ShardUnavailable` error (`Strict`), or a **degraded answer** merged
//! from the surviving shards, flagged on the wire with the missing
//! shard list (`Degraded`). There is no third outcome: no silent
//! narrowing, no hang. See `ARCHITECTURE.md`, "router tier", for the
//! full contract.
//!
//! ## Hedged retries
//!
//! With [`RouterConfig::hedge`] set, a shard that has not answered
//! within its observed p99 call latency (clamped to the configured
//! window) gets one duplicate request on another pooled connection;
//! the first answer wins and the loser is suppressed. Hedging spends
//! bounded extra downstream work to cut tail latency — it never
//! changes an answer, only when it arrives.
//!
//! ## Downstream health tracking
//!
//! Every downstream carries a circuit breaker (see [`crate::health`]):
//! call failures trip it `Healthy → Suspect → Ejected`, and an
//! **ejected** shard leaves the scatter set up front — `Degraded`
//! merges the survivors immediately with the shard in
//! `missing_shards`, `Strict` refuses fast with `ShardUnavailable`;
//! either way no request pays the shard's `shard_timeout` again. A
//! background prober re-checks ejected shards with `ShardInfo` at
//! exponentially backed-off intervals, and re-admission is earned:
//! [`crate::HealthConfig::readmit_successes`] consecutive probe
//! successes, a tiling re-validation against what startup accepted,
//! and a fresh push of the learned module — only then does the shard
//! take traffic again. The same prober also re-replicates the module
//! to the healthy shards whenever a session commit updates it.

use crate::faults::{FaultMode, FaultPlan};
use crate::front::{self, Front, Handle, ShardBackend};
use crate::gather::{Gather, GatherFailure, GatherReply};
use crate::health::HealthConfig;
use crate::pool::{control_call, Downstream, Job};
use crate::protocol::{
    DownstreamHealth, ErrorCode, Request, Response, StatsSnapshot, DEFAULT_MAX_FRAME_LEN,
    SPAN_FAILED, SPAN_FAST_DEGRADED, SPAN_HEDGE_FIRED,
};
use crate::server::ServerConfig;
use crate::sessions::err;
use crate::trace::RequestTrace;
use fbp_vecdb::{Collection, FailurePolicy, WeightedEuclidean};
use feedbackbypass::{FeedbackConfig, KnnRequest, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hedged-retry tuning: the hedge delay is the downstream's observed
/// p99 call latency, clamped into `[min_delay, max_delay]` (and
/// `max_delay` alone until a latency sample exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Never hedge sooner than this (guards cold p99 estimates).
    pub min_delay: Duration,
    /// Never wait longer than this before hedging a silent shard.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            min_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Budget for one downstream scatter call, connect + retries
    /// included; a shard silent past it is treated as failed and the
    /// [`RouterConfig::policy`] decides the reply.
    pub shard_timeout: Duration,
    /// Bound on each downstream TCP connect attempt.
    pub connect_timeout: Duration,
    /// First reconnect backoff; doubles per consecutive connect
    /// failure.
    pub backoff_base: Duration,
    /// Reconnect backoff clamp.
    pub backoff_max: Duration,
    /// Pooled connections per downstream (each is one worker thread);
    /// keep ≥ 2 so a hedge can overtake a stuck primary.
    pub conns_per_downstream: usize,
    /// Hedged-retry policy (`None` disables hedging).
    pub hedge: Option<HedgeConfig>,
    /// The documented partial-failure contract. Defaults to
    /// [`FailurePolicy::Strict`]: degradation is opt-in, never a
    /// surprise.
    pub policy: FailurePolicy,
    /// Admission bound on in-flight upstream `Knn` requests; beyond it
    /// requests answer [`ErrorCode::Busy`].
    pub queue_capacity: usize,
    /// Largest accepted frame payload, upstream and downstream.
    pub max_frame_len: u32,
    /// Read-timeout slice upstream connection threads park in between
    /// frames (shutdown-poll granularity, not a client timeout).
    pub read_timeout: Duration,
    /// Write timeout on every upstream reply and downstream request.
    pub write_timeout: Duration,
    /// Feedback transition configuration for the router's session tier.
    pub feedback: FeedbackConfig,
    /// Scripted downstream faults for tests and smoke drills (`None` in
    /// production). See [`crate::faults`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Circuit-breaker tuning for the per-downstream health trackers:
    /// ejection thresholds, probe cadence, re-admission quorum. See
    /// [`crate::health`].
    pub health: HealthConfig,
    /// Traced replies at or above this wall time are kept in the
    /// bounded slow-query ring `GetTraces` drains (zero keeps every
    /// traced reply). Untraced requests record nothing.
    pub slow_trace_threshold: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shard_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            conns_per_downstream: 2,
            hedge: Some(HedgeConfig::default()),
            policy: FailurePolicy::Strict,
            queue_capacity: 4096,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_secs(1),
            feedback: FeedbackConfig::default(),
            faults: None,
            health: HealthConfig::default(),
            slow_trace_threshold: Duration::from_millis(5),
        }
    }
}

/// Remote shards: one connection pool per downstream shard server, the
/// hedge sweeper and health prober that maintain them, and the learned
/// module's replication to the fleet.
pub(crate) struct RemoteShards {
    cfg: RouterConfig,
    downstreams: Vec<Arc<Downstream>>,
    /// Live gathers, swept for hedges and backstop delivery.
    gathers: Mutex<Vec<Arc<Gather>>>,
    /// Module epoch, bumped by the session store's commit hook on every
    /// successful learned-module insert.
    module_epoch: Arc<AtomicU64>,
    /// Last module epoch the prober finished replicating downstream;
    /// trailing [`RemoteShards::module_epoch`] means a fan-out is due.
    replicated_epoch: AtomicU64,
}

impl ShardBackend for RemoteShards {
    /// Ejected shards are out of the scatter set up front (the
    /// fast-degrade rule): under `Strict` the request is refused before
    /// admission — no downstream work, no `shard_timeout` paid — and
    /// under `Degraded` their slots fail instantly at scatter so the
    /// survivors merge immediately.
    fn refuse(&self) -> Option<Response> {
        if self.cfg.policy != FailurePolicy::Strict {
            return None;
        }
        let mut ejected: Vec<usize> = Vec::new();
        for ds in &self.downstreams {
            if !ds.health.admits_scatter() {
                ds.health.note_fast_degrade();
                ejected.push(ds.shard);
            }
        }
        (!ejected.is_empty()).then(|| {
            err(
                ErrorCode::ShardUnavailable,
                format!("shards {ejected:?} ejected from the scatter set"),
            )
        })
    }

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
            self.downstreams.len(),
            self.cfg.policy,
            Some(self.cfg.shard_timeout),
            trace,
            reply,
        );
        self.gathers
            .lock()
            .expect("gathers lock")
            .push(Arc::clone(&gather));
        for ds in &self.downstreams {
            if ds.health.admits_scatter() {
                ds.enqueue(Job {
                    gather: Arc::clone(&gather),
                    hedge: false,
                });
            } else {
                // Fast degrade: the ejected shard's slot fails instantly —
                // the survivors merge as soon as they answer, with the
                // shard reported in `missing_shards`, instead of every
                // request paying the full `shard_timeout` for a shard known
                // to be dead.
                ds.health.note_fast_degrade();
                gather.trace_span(ds.shard, None, SPAN_FAST_DEGRADED | SPAN_FAILED);
                gather.complete_shard(
                    ds.shard,
                    Err(format!("shard {} ejected from the scatter set", ds.shard)),
                );
            }
        }
    }

    /// The router is a front-end, not a shard server: it has no local
    /// rows to answer a sessionless shard-local scan over.
    fn shard_knn(&self, front: &Front, _: u32, _: f64, _: Vec<f64>, _: Vec<f64>) -> Response {
        front.metrics.record_protocol_error();
        err(
            ErrorCode::BadRequest,
            "ShardKnn targets a shard server, not a router",
        )
    }

    /// The router-tier counters summed over the downstream pools, and
    /// one health row per downstream.
    fn extend_stats(&self, snap: &mut StatsSnapshot) {
        for ds in &self.downstreams {
            snap.downstream_timeouts += ds.stats.timeouts.load(Ordering::Relaxed);
            snap.downstream_retries += ds.stats.retries.load(Ordering::Relaxed);
            snap.downstream_reconnects += ds.stats.reconnects.load(Ordering::Relaxed);
            snap.hedges_fired += ds.stats.hedges_fired.load(Ordering::Relaxed);
            snap.hedges_won += ds.stats.hedges_won.load(Ordering::Relaxed);
        }
        snap.health = self
            .downstreams
            .iter()
            .map(|ds| DownstreamHealth {
                shard: ds.shard as u32,
                state: ds.health.state(),
                ejections: ds.health.ejections.load(Ordering::Relaxed),
                readmissions: ds.health.readmissions.load(Ordering::Relaxed),
                probe_failures: ds.health.probe_failures.load(Ordering::Relaxed),
                fast_degrades: ds.health.fast_degrades.load(Ordering::Relaxed),
            })
            .collect();
    }

    /// A restored module fans out to every downstream — the router and
    /// its shards serve one module.
    fn module_restored(&self, _front: &Front, image: &[u8]) -> Response {
        let failed: Vec<String> = self
            .downstreams
            .iter()
            .filter_map(|ds| {
                push_module(ds, image, &self.cfg)
                    .err()
                    .map(|e| format!("shard {}: {e}", ds.shard))
            })
            .collect();
        if failed.is_empty() {
            Response::ModuleRestored
        } else {
            err(
                ErrorCode::ShardUnavailable,
                format!("module replication incomplete: {}", failed.join("; ")),
            )
        }
    }

    fn failure(&self, failure: GatherFailure) -> Response {
        match failure {
            GatherFailure::Refused { refusal, .. } => {
                err(ErrorCode::ShardUnavailable, refusal.to_string())
            }
            GatherFailure::Unmergeable => err(
                ErrorCode::Internal,
                "downstream shards disagree on scan mode; partials are unmergeable",
            ),
        }
    }

    fn stop(&self) {
        for ds in &self.downstreams {
            ds.shutdown();
        }
    }

    fn busy_message(&self) -> &'static str {
        "router queue full"
    }
}

/// One `ShardInfo` control call (startup and re-admission probes).
fn shard_info(addr: &SocketAddr, cfg: &RouterConfig) -> io::Result<Response> {
    control_call(
        addr,
        &Request::ShardInfo,
        cfg.connect_timeout,
        cfg.shard_timeout.max(Duration::from_millis(100)),
        cfg.max_frame_len,
    )
}

/// Push the learned-module `image` to `ds` with one `RestoreModule`
/// control call on a fresh connection. The error does not name the
/// shard: each caller words and handles a failed push its own way.
fn push_module(ds: &Downstream, image: &[u8], cfg: &RouterConfig) -> io::Result<()> {
    let resp = control_call(
        &ds.addr,
        &Request::RestoreModule {
            image: image.to_vec(),
        },
        cfg.connect_timeout,
        cfg.shard_timeout,
        cfg.max_frame_len,
    )?;
    match resp {
        Response::ModuleRestored => Ok(()),
        Response::Error { code, message } => Err(io::Error::other(format!("[{code}] {message}"))),
        other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
    }
}

/// Handle to a running router: address, live stats, module
/// replication, graceful shutdown. Dropping the handle shuts the
/// router down and joins every thread.
pub struct RouterHandle {
    handle: Handle,
    remote: Arc<RemoteShards>,
}

impl RouterHandle {
    /// The bound upstream address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// Stats snapshot: the serving counters plus the router-tier
    /// robustness counters summed over the downstream pools (same
    /// numbers the wire `SnapshotStats` reports).
    pub fn stats(&self) -> crate::protocol::StatsSnapshot {
        self.handle.front.stats()
    }

    /// Push the router's current learned module to every downstream
    /// (`RestoreModule` on a fresh control connection each). The first
    /// failure aborts the fan-out with its shard named — module
    /// replication is an operator action, not a best-effort background
    /// drift.
    pub fn replicate_module(&self) -> io::Result<()> {
        let image = self.handle.front.store.bypass().to_bytes();
        for ds in &self.remote.downstreams {
            push_module(ds, &image, &self.remote.cfg).map_err(|e| {
                io::Error::new(e.kind(), format!("replicate to shard {}: {e}", ds.shard))
            })?;
        }
        Ok(())
    }

    /// Graceful shutdown: stop accepting, fail the in-flight gathers,
    /// drain and join every pool worker and connection thread.
    pub fn shutdown(self) {
        drop(self.handle);
    }
}

/// Bind `addr` and start routing over the given downstream shard
/// servers. `coll` is the **full** collection (the router's session
/// tier reads judged rows from it); each downstream must serve one
/// contiguous slice of it with a matching
/// [`crate::ServerConfig::row_offset`]. Startup probes every
/// downstream and fails unless the slices tile `coll` exactly — all
/// downstreams must be reachable to start (a router that cannot see
/// its shards has nothing to serve).
pub fn route(
    addr: impl ToSocketAddrs,
    downstreams: &[SocketAddr],
    coll: Arc<Collection>,
    bypass: SharedBypass,
    cfg: RouterConfig,
) -> io::Result<RouterHandle> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if downstreams.is_empty() {
        return Err(invalid(
            "a router needs at least one downstream shard server".into(),
        ));
    }
    // Probe: every shard must be reachable, dimensionally compatible,
    // and the row slices must tile the collection in order — the
    // precondition of healthy-path bit-identity with in-process
    // sharding.
    let mut expected_offset: u64 = 0;
    // The validated per-shard tiling, kept so re-admission probes can
    // re-check a restarted shard against exactly what startup accepted.
    let mut tilings: Vec<(u64, u64, u32)> = Vec::with_capacity(downstreams.len());
    for (shard, ds_addr) in downstreams.iter().enumerate() {
        let resp = shard_info(ds_addr, &cfg).map_err(|e| {
            io::Error::new(e.kind(), format!("probe shard {shard} ({ds_addr}): {e}"))
        })?;
        let (rows, offset, dim) = match resp {
            Response::ShardInfoResult { rows, offset, dim } => (rows, offset, dim),
            other => {
                return Err(io::Error::other(format!(
                    "shard {shard} unexpected probe reply: {other:?}"
                )));
            }
        };
        tilings.push((rows, offset, dim));
        if dim as usize != coll.dim() {
            return Err(invalid(format!(
                "shard {shard} serves dim {dim}, router collection is dim {}",
                coll.dim()
            )));
        }
        if offset != expected_offset {
            return Err(invalid(format!(
                "shard {shard} starts at row {offset}, expected {expected_offset}"
            )));
        }
        expected_offset += rows;
    }
    if expected_offset != coll.len() as u64 {
        return Err(invalid(format!(
            "downstream slices cover {expected_offset} rows, router collection has {}",
            coll.len()
        )));
    }

    let listener = TcpListener::bind(addr)?;
    let pools: Vec<Arc<Downstream>> = downstreams
        .iter()
        .enumerate()
        .map(|(shard, ds_addr)| Downstream::new(shard, *ds_addr, cfg.clone(), tilings[shard]))
        .collect();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for pool in &pools {
        workers.extend(pool.spawn_workers());
    }

    // The front-end runs on the router's share of the serving knobs.
    let front_cfg = ServerConfig {
        queue_capacity: cfg.queue_capacity,
        max_frame_len: cfg.max_frame_len,
        shards: pools.len(),
        feedback: cfg.feedback.clone(),
        read_timeout: cfg.read_timeout,
        write_timeout: cfg.write_timeout,
        slow_trace_threshold: cfg.slow_trace_threshold,
        ..ServerConfig::default()
    };
    let remote = Arc::new(RemoteShards {
        cfg,
        downstreams: pools,
        gathers: Mutex::new(Vec::new()),
        module_epoch: Arc::new(AtomicU64::new(0)),
        replicated_epoch: AtomicU64::new(0),
    });
    let backend: Arc<dyn ShardBackend> = remote.clone();
    let handle = front::start(listener, coll, bypass, front_cfg, backend, |front| {
        // Session commits dirty the module epoch; the prober thread fans
        // the new module out to the healthy shards when it trails.
        front.store.set_commit_hook(Box::new({
            let epoch = Arc::clone(&remote.module_epoch);
            move || {
                epoch.fetch_add(1, Ordering::Release);
            }
        }));
        workers.push(std::thread::spawn({
            let (front, remote) = (Arc::clone(front), Arc::clone(&remote));
            move || run_sweeper(&front, &remote)
        }));
        workers.push(std::thread::spawn({
            let (front, remote) = (Arc::clone(front), Arc::clone(&remote));
            move || run_prober(&front, &remote)
        }));
        workers
    })?;
    Ok(RouterHandle { handle, remote })
}

/// Sweeper tick interval: hedge-fire and backstop granularity.
const SWEEP_TICK: Duration = Duration::from_millis(1);

/// Periodic gather maintenance: fire hedges at straggling shards,
/// backstop-fail any slot still undelivered well past its deadline
/// (workers normally classify their own timeouts; the backstop bounds
/// even a lost job), and prune finished gathers.
fn run_sweeper(front: &Front, remote: &RemoteShards) {
    let grace = remote.cfg.connect_timeout + Duration::from_millis(100);
    while !front.shutting_down() {
        std::thread::sleep(SWEEP_TICK);
        let live: Vec<Arc<Gather>> = {
            let mut gathers = remote.gathers.lock().expect("gathers lock");
            gathers.retain(|g| !g.is_done());
            gathers.clone()
        };
        let now = Instant::now();
        for gather in &live {
            if let Some(hedge) = &remote.cfg.hedge {
                fire_due_hedges(remote, gather, hedge, now);
            }
            if now >= gather.deadline() + grace {
                for shard in 0..remote.downstreams.len() {
                    if !gather.shard_resolved(shard) {
                        gather.trace_span(shard, None, SPAN_FAILED);
                        gather.complete_shard(
                            shard,
                            Err(format!(
                                "shard {shard} undelivered past deadline (backstop)"
                            )),
                        );
                    }
                }
            }
        }
    }
    // Shutdown: every live gather must still resolve exactly once. The
    // pools fail their queued jobs; anything left undelivered is
    // backstopped here.
    let live: Vec<Arc<Gather>> = std::mem::take(&mut *remote.gathers.lock().expect("gathers lock"));
    for gather in live {
        for shard in 0..remote.downstreams.len() {
            if !gather.shard_resolved(shard) {
                gather.complete_shard(shard, Err("router shutting down".into()));
            }
        }
    }
}

/// Prober tick interval: how often ejected downstreams are checked for
/// a due re-admission probe and a dirty module epoch for replication.
const PROBE_TICK: Duration = Duration::from_millis(2);

/// Background health maintenance: replicate a dirtied learned module to
/// the healthy downstreams, and re-probe ejected ones at their
/// backed-off schedule — the only path back into the scatter set.
fn run_prober(front: &Front, remote: &RemoteShards) {
    while !front.shutting_down() {
        std::thread::sleep(PROBE_TICK);
        replicate_if_dirty(front, remote);
        let now = Instant::now();
        for ds in &remote.downstreams {
            if ds.health.take_due_probe(now) {
                probe_one(front, remote, ds);
            }
        }
    }
}

/// One re-admission probe against an ejected downstream (the tracker
/// just moved it `Ejected → Probing`): `ShardInfo` must answer **and**
/// report exactly the tiling startup validated — a restarted shard
/// serving different rows would silently break the key-space merge.
/// When the success completes the re-admission quorum, the current
/// learned module is re-pushed before the shard takes traffic; only
/// then does it return to `Healthy`.
fn probe_one(front: &Front, remote: &RemoteShards, ds: &Downstream) {
    let now = Instant::now();
    // A scripted outage refuses control calls too (a dead host refuses
    // every call class).
    if matches!(ds.control_fault(), Some(FaultMode::Down { .. })) {
        ds.health.probe_failed(now);
        return;
    }
    let tiling_ok = matches!(
        shard_info(&ds.addr, &remote.cfg),
        Ok(Response::ShardInfoResult { rows, offset, dim }) if (rows, offset, dim) == ds.expected
    );
    if !tiling_ok {
        ds.health.probe_failed(Instant::now());
        return;
    }
    if !ds.health.probe_succeeded(Instant::now()) {
        return; // below the re-admission quorum; the next probe continues the run
    }
    // Quorum reached: the restarted shard may hold a stale (or empty)
    // module — push the router's current snapshot before any traffic.
    let pushed = !matches!(ds.control_fault(), Some(FaultMode::Down { .. }))
        && push_module(ds, &front.store.bypass().to_bytes(), &remote.cfg).is_ok();
    if pushed {
        ds.health.readmit();
    } else {
        ds.health.probe_failed(Instant::now());
    }
}

/// Re-replicate the learned module to the healthy downstreams when a
/// session commit has dirtied the epoch since the last fan-out. Shards
/// out of the scatter set are skipped — re-admission pushes the module
/// anyway — and a failed push feeds the shard's health tracker instead
/// of being dropped.
fn replicate_if_dirty(front: &Front, remote: &RemoteShards) {
    let epoch = remote.module_epoch.load(Ordering::Acquire);
    if epoch == remote.replicated_epoch.load(Ordering::Acquire) {
        return;
    }
    let image = front.store.bypass().to_bytes();
    for ds in &remote.downstreams {
        if !ds.health.admits_scatter() {
            continue;
        }
        if matches!(ds.control_fault(), Some(FaultMode::Down { .. })) {
            ds.health.record_failure(Instant::now());
            continue;
        }
        if push_module(ds, &image, &remote.cfg).is_err() {
            ds.health.record_failure(Instant::now());
        }
    }
    // Commits that landed mid-fan-out leave the epoch ahead of what was
    // read here, so the next tick replicates again.
    remote.replicated_epoch.store(epoch, Ordering::Release);
}

/// Enqueue a hedge for every shard of `gather` that is past its
/// downstream's hedge delay and still silent (at most once per shard).
fn fire_due_hedges(remote: &RemoteShards, gather: &Arc<Gather>, hedge: &HedgeConfig, now: Instant) {
    for ds in &remote.downstreams {
        let shard = ds.shard;
        if !ds.health.admits_scatter() {
            // An ejected shard's slot was (or will be) failed instantly;
            // a hedge would only queue a job that bails.
            continue;
        }
        let delay = ds
            .stats
            .p99()
            .map(|p| p.clamp(hedge.min_delay, hedge.max_delay))
            .unwrap_or(hedge.max_delay);
        if now < gather.created + delay {
            continue;
        }
        if !gather.take_hedge(shard) {
            continue; // already hedged, or the slot resolved
        }
        ds.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
        // The hedge-fired bit lands on whichever leg's span ultimately
        // resolves the shard (stashed until the span arrives).
        if let Some(trace) = &gather.trace {
            trace.flag_shard(shard as u32, SPAN_HEDGE_FIRED);
        }
        ds.enqueue(Job {
            gather: Arc::clone(gather),
            hedge: true,
        });
    }
}
