//! `wire_feedback` and `routed_mixed`: the serving tier over loopback
//! TCP, driven by closed-loop clients with zero think time.
//!
//! `wire_feedback` runs a flat `serve` (default `ServerConfig`, S = 1)
//! over 10k × 64-d rows in 20 labelled clusters; two connections each
//! run full feedback loops (`Knn`, judge by label, `Feedback`, until
//! done). `routed_mixed` runs `route` over two partition-enabled shard
//! servers holding 120k × 64-d rows in 64 tight labelled clusters; one
//! connection sends read-only lookups (a fresh anchor, one `Knn`), the
//! other runs feedback loops whose commits make the router re-push the
//! module to the shards.
//!
//! Feedback queries run in epochs: every epoch serves the same query
//! pool from a blank module (restored over a client connection), so
//! the paper's quantities do not drift with how many queries a run gets
//! through, and a run ends on an epoch boundary.

use crate::data::{self, Anchors, Rows};
use crate::layers;
use crate::measure::{closed_loop_rate, median, percentile, process_cpu_us, thread_cpu_us};
use crate::spans::{LayerTable, SpanLog};
use crate::{more_setups, Args, Gate, Outcome, Timed, SPAN_DIR};
use fbp_feedback::{FeedbackConfig, FeedbackStepper, SetOracle};
use fbp_server::protocol::{
    Request, Response, StatsSnapshot, TraceReport, KNN_CONVERGED, KNN_DEGRADED, KNN_DONE,
};
use fbp_server::{route, serve, Client, ClientError, KnnReply, RouterConfig, RouterHandle};
use fbp_server::{ServerConfig, ServerHandle};
use fbp_vecdb::{
    Collection, KnnEngine, LinearScan, PartitionConfig, PartitionedCollection, Precision,
    ResultList, ScanMode, ScanStatsSink, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, KnnRequest, QuerySpec, SharedBypass};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Which deployment the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `wire_feedback`: one flat server, two feedback connections.
    Flat,
    /// `routed_mixed`: a router over two partitioned shard servers; one
    /// lookup connection, one feedback connection.
    Routed,
}

/// Results per search.
const K: usize = 50;
/// Dimensionality of both workloads' rows.
const DIM: usize = 64;
/// Client-side cap on rounds per query (the server's cycle cap ends
/// every query well before it).
const MAX_ROUNDS: usize = 64;
/// Shard servers behind the router.
const SHARDS: usize = 2;
/// Warm-up before timing.
const WARMUP_S: f64 = 0.5;
/// Correctness probes after the timed phase, of each kind.
const PROBES: usize = 16;
/// Rows per scan block, for the abandonment share.
const BLOCK_ROWS: f64 = 256.0;
/// Judgments and frames kept per traced client for replay.
const CAPTURE: usize = 256;
/// Epoch query sets a run cycles through; each counts equally in the
/// paper's quantities however many times a run serves it. With 32 the
/// quantities average over 1,024 queries, which keeps their spread from
/// seed to seed well inside their bounds; a run serves them all once it
/// finishes 32 epochs (a 30 s `routed_mixed` run finishes about 70).
const SLICES: usize = 32;

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Flat => "wire_feedback",
            Shape::Routed => "routed_mixed",
        }
    }

    /// The rows the program is handed.
    fn rows(self, seed: u64) -> Rows {
        match self {
            Shape::Flat => data::clustered(10_000, DIM, 20, 0.08, false, seed),
            Shape::Routed => data::clustered(120_000, DIM, 64, 0.02, true, seed),
        }
    }

    /// Queries per feedback epoch. An epoch commits up to this many
    /// points, and the module image must stay under the protocol's
    /// 1 MiB frame limit (`DEFAULT_MAX_FRAME_LEN`): past it neither
    /// `SnapshotModule` replies nor the router's `RestoreModule` pushes
    /// fit in a frame. At 64-d an image grows by ~21 KB per commit.
    fn epoch_queries(self) -> usize {
        32
    }

    /// Connections running feedback loops.
    fn feeders(self) -> usize {
        match self {
            Shape::Flat => 2,
            Shape::Routed => 1,
        }
    }
}

fn blank_module() -> FeedbackBypass {
    FeedbackBypass::for_unit_cube(DIM, BypassConfig::default()).expect("unit-cube module")
}

/// The program under test, running on its own threads.
struct Deployment {
    coll: Arc<Collection>,
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    addr: SocketAddr,
}

impl Deployment {
    /// Set the program up from the generated rows; returns it with the
    /// collection-build share of the set-up time.
    fn start(shape: Shape, rows: &Rows) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let coll = Arc::new(rows.build());
        let build_s = t0.elapsed().as_secs_f64();
        let module = || SharedBypass::new(blank_module());
        let dep = match shape {
            Shape::Flat => {
                let server = serve(
                    "127.0.0.1:0",
                    Arc::clone(&coll),
                    module(),
                    ServerConfig::default(),
                )
                .map_err(|e| format!("serve: {e}"))?;
                let addr = server.local_addr();
                Deployment {
                    coll,
                    servers: vec![server],
                    router: None,
                    addr,
                }
            }
            Shape::Routed => {
                let mut servers = Vec::new();
                for i in 0..SHARDS {
                    let (start, end) = (i * coll.len() / SHARDS, (i + 1) * coll.len() / SHARDS);
                    let cfg = ServerConfig {
                        row_offset: start,
                        partitions: Some(PartitionConfig::default()),
                        ..ServerConfig::default()
                    };
                    let slice = Arc::new(coll.slice_rows(start, end));
                    servers.push(
                        serve("127.0.0.1:0", slice, module(), cfg)
                            .map_err(|e| format!("serve shard {i}: {e}"))?,
                    );
                }
                let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
                let router = route(
                    "127.0.0.1:0",
                    &addrs,
                    Arc::clone(&coll),
                    module(),
                    RouterConfig::default(),
                )
                .map_err(|e| format!("route: {e}"))?;
                let addr = router.local_addr();
                Deployment {
                    coll,
                    servers,
                    router: Some(router),
                    addr,
                }
            }
        };
        Ok((dep, build_s))
    }

    /// Front-end stats (the router's, or the flat server's).
    fn front_stats(&self) -> StatsSnapshot {
        match &self.router {
            Some(r) => r.stats(),
            None => self.servers[0].stats(),
        }
    }

    /// Scan-side stats summed over the servers that scan.
    fn scan_stats(&self) -> StatsSnapshot {
        self.servers
            .iter()
            .map(ServerHandle::stats)
            .fold(StatsSnapshot::default(), |mut acc, s| {
                add_counters(&mut acc, &s, 1);
                acc
            })
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// `acc += sign · s` over the monotonic counters of a snapshot.
fn add_counters(acc: &mut StatsSnapshot, s: &StatsSnapshot, sign: i64) {
    let f = |a: &mut u64, b: u64| *a = (*a as i64 + sign * b as i64) as u64;
    f(&mut acc.requests, s.requests);
    f(&mut acc.passes, s.passes);
    f(&mut acc.downstream_retries, s.downstream_retries);
    f(&mut acc.downstream_timeouts, s.downstream_timeouts);
    f(&mut acc.hedges_fired, s.hedges_fired);
    f(&mut acc.hedges_won, s.hedges_won);
    f(&mut acc.degraded_replies, s.degraded_replies);
    f(&mut acc.scan_rows_visited, s.scan_rows_visited);
    f(&mut acc.scan_blocks_abandoned, s.scan_blocks_abandoned);
    f(
        &mut acc.scan_candidates_rescored,
        s.scan_candidates_rescored,
    );
    f(&mut acc.scan_seed_prunes, s.scan_seed_prunes);
    f(&mut acc.scan_partitions_pruned, s.scan_partitions_pruned);
}

/// Counter growth from `before` to `after`.
fn delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    let mut d = StatsSnapshot::default();
    add_counters(&mut d, after, 1);
    add_counters(&mut d, before, -1);
    d
}

/// What every client thread of one phase shares.
struct Plan<'a> {
    shape: Shape,
    addr: SocketAddr,
    coll: &'a Collection,
    /// Rows whose vectors are the feedback queries: [`SLICES`] epochs'
    /// worth.
    pool: &'a [usize],
    barrier: Barrier,
    /// When each epoch began, and when the last one ended.
    boundaries: Mutex<Vec<Instant>>,
    stop: AtomicBool,
    deadline: Instant,
    traced: bool,
    epoch0: Instant,
    blank: Vec<u8>,
    lookup_seed: u64,
}

/// One round's judgment, kept for the stepper replay.
struct Judgment {
    anchor: Vec<f64>,
    results: ResultList,
    relevant: Vec<u32>,
}

/// What one client thread saw.
struct Tally {
    search: Vec<(Instant, f64)>,
    lookup: Vec<(Instant, f64)>,
    feedback: Vec<(Instant, f64)>,
    /// Completion time of every search.
    done: Vec<Instant>,
    /// Per epoch slice: `(queries, rounds, sum of last-round precision)`.
    slices: [(u64, u64, f64); SLICES],
    attempted: u64,
    failed: u64,
    cpu_us: u64,
    spans: SpanLog,
    /// `(client round trip ns, trailer)` of every traced search.
    traces: Vec<(u64, TraceReport)>,
    frames: Vec<(Request, Response)>,
    judgments: Vec<Judgment>,
    /// Anchors committed to the module, in order.
    commits: Vec<Vec<f64>>,
    /// Fresh anchors searched (predict replay input).
    anchors: Vec<Vec<f64>>,
    /// The module image at the end of the last whole epoch.
    module: Option<Vec<u8>>,
    /// Whole epochs finished.
    epochs: u64,
}

impl Tally {
    fn new(epoch0: Instant) -> Self {
        Tally {
            search: Vec::new(),
            lookup: Vec::new(),
            feedback: Vec::new(),
            done: Vec::new(),
            slices: [(0, 0, 0.0); SLICES],
            attempted: 0,
            failed: 0,
            cpu_us: 0,
            spans: SpanLog::new(epoch0),
            traces: Vec::new(),
            frames: Vec::new(),
            judgments: Vec::new(),
            commits: Vec::new(),
            anchors: Vec::new(),
            module: None,
            epochs: 0,
        }
    }
}

/// One `Knn`, traced or not. A refusal or server error counts as
/// failed and yields `None`; transport failures end the run.
fn search(
    c: &mut Client,
    plan: &Plan,
    tally: &mut Tally,
    session: u64,
    q: &[f64],
    root: &'static str,
    fresh: bool,
) -> Result<Option<KnnReply>, ClientError> {
    tally.attempted += 1;
    let t0 = Instant::now();
    let reply = if plan.traced {
        let spec = QuerySpec::builder(q.to_vec())
            .build()
            .expect("a bare anchor is a valid spec");
        c.knn_spec_traced(session, K as u32, &spec)
    } else {
        c.knn(session, K as u32, q)
    };
    let t1 = Instant::now();
    let reply = match reply {
        Ok(r) => r,
        Err(ClientError::Server { .. }) => {
            tally.failed += 1;
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    let us = (t1 - t0).as_secs_f64() * 1e6;
    tally.done.push(t1);
    if root == "search" {
        tally.search.push((t1, us));
    }
    if fresh {
        tally.lookup.push((t1, us));
        if plan.traced && tally.anchors.len() < CAPTURE {
            tally.anchors.push(q.to_vec());
        }
    }
    if plan.traced {
        record_search_spans(plan, tally, root, t0, t1, &reply);
        if tally.frames.len() < CAPTURE {
            let flag = |set: bool, bit: u8| if set { bit } else { 0 };
            let flags = flag(reply.done, KNN_DONE)
                | flag(reply.converged, KNN_CONVERGED)
                | flag(reply.degraded, KNN_DEGRADED);
            tally.frames.push((
                Request::Knn {
                    session,
                    k: K as u32,
                    query: q.to_vec(),
                },
                Response::KnnResult {
                    flags,
                    cycles: reply.cycles,
                    missing_shards: reply.missing_shards.clone(),
                    trace: None,
                    neighbors: reply.neighbors.clone(),
                },
            ));
        }
    }
    Ok(Some(reply))
}

/// Spans of one traced search: the client's round trip as the root,
/// the front-end's wall time from the trailer as its child, and each
/// shard leg's queue and busy time inside that. The trailer's times are
/// offsets on the server's clock; the front-end window is centred in
/// the round trip (the two socket hops are taken as equal).
fn record_search_spans(
    plan: &Plan,
    tally: &mut Tally,
    root: &'static str,
    t0: Instant,
    t1: Instant,
    reply: &KnnReply,
) {
    let Some(trace) = reply.trace.as_deref() else {
        return;
    };
    let log = &mut tally.spans;
    let (a, b) = (log.ns(t0), log.ns(t1));
    let id = trace.trace_id;
    let r = log.push(root, a, b, None, id);
    let wall = trace.wall_ns.min(b - a);
    let s = a + (b - a - wall) / 2;
    let front = log.push("server.server", s, s + wall, Some(r), id);
    let (queue_name, busy_name) = match plan.shape {
        Shape::Flat => ("server.batcher", "vecdb.knn"),
        Shape::Routed => ("server.router.pool", "server.router.shard"),
    };
    for span in &trace.spans {
        let q_end = s + span.queue_ns;
        log.push(queue_name, s, q_end, Some(front), id);
        log.push(busy_name, q_end, q_end + span.busy_ns, Some(front), id);
    }
    tally.traces.push((b - a, trace.clone()));
}

/// One feedback query: search, judge by label, feed back, until done.
fn run_query(
    c: &mut Client,
    plan: &Plan,
    tally: &mut Tally,
    session: u64,
    row: usize,
    slice: usize,
) -> Result<(), ClientError> {
    let coll = plan.coll;
    let q = coll.vector(row).to_vec();
    let label = coll.label(row);
    for round in 0..MAX_ROUNDS {
        let Some(reply) = search(c, plan, tally, session, &q, "search", round == 0)? else {
            return Ok(());
        };
        let relevant: Vec<u32> = reply
            .neighbors
            .iter()
            .map(|n| n.index)
            .filter(|&i| coll.label(i as usize) == label)
            .collect();
        let precision = relevant.len() as f64 / K as f64;
        let finished = if reply.done {
            Some(reply.cycles)
        } else {
            if plan.traced && tally.judgments.len() < CAPTURE {
                tally.judgments.push(Judgment {
                    anchor: q.clone(),
                    results: ResultList::new(reply.neighbors.clone()),
                    relevant: relevant.clone(),
                });
            }
            tally.attempted += 1;
            let t0 = Instant::now();
            let ack = match c.feedback(session, &relevant) {
                Ok(ack) => ack,
                Err(ClientError::Server { .. }) => {
                    tally.failed += 1;
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            let t1 = Instant::now();
            tally.feedback.push((t1, (t1 - t0).as_secs_f64() * 1e6));
            if plan.traced {
                let log = &mut tally.spans;
                let (a, b) = (log.ns(t0), log.ns(t1));
                log.push("feedback", a, b, None, 0);
            }
            ack.done.then_some(ack.cycles)
        };
        if let Some(cycles) = finished {
            let acc = &mut tally.slices[slice];
            acc.0 += 1;
            acc.1 += u64::from(cycles);
            acc.2 += precision;
            if cycles > 0 {
                tally.commits.push(q);
            }
            return Ok(());
        }
    }
    Ok(())
}

/// A feedback connection: epochs of the query pool, `slot`-th share.
/// The phase ends at the first epoch boundary past the deadline, so
/// every measured query belongs to a whole epoch.
fn feeder(plan: &Plan, slot: usize) -> Result<Tally, ClientError> {
    let cpu0 = thread_cpu_us();
    let mut tally = Tally::new(plan.epoch0);
    let mut c = Client::connect(plan.addr)?;
    if plan.traced {
        c.hello()?;
    }
    let (session, _) = c.open_session()?;
    let feeders = plan.shape.feeders();
    loop {
        if plan.barrier.wait().is_leader() {
            let now = Instant::now();
            plan.boundaries.lock().expect("boundaries lock").push(now);
            let stop = now >= plan.deadline;
            plan.stop.store(stop, Ordering::SeqCst);
            if !stop {
                if plan.traced && tally.epochs > 0 {
                    tally.module = Some(c.snapshot_module()?);
                }
                c.restore_module(&plan.blank)?;
            }
        }
        plan.barrier.wait();
        if plan.stop.load(Ordering::SeqCst) {
            break;
        }
        let slice = tally.epochs as usize % SLICES;
        let per = plan.pool.len() / SLICES;
        let queries = &plan.pool[slice * per..(slice + 1) * per];
        for i in (slot..queries.len()).step_by(feeders) {
            run_query(&mut c, plan, &mut tally, session, queries[i], slice)?;
        }
        tally.epochs += 1;
    }
    c.close_session(session)?;
    tally.cpu_us = thread_cpu_us() - cpu0;
    Ok(tally)
}

/// The lookup connection: a fresh anchor each time, one `Knn`.
fn looker(plan: &Plan) -> Result<Tally, ClientError> {
    let cpu0 = thread_cpu_us();
    let mut tally = Tally::new(plan.epoch0);
    let mut c = Client::connect(plan.addr)?;
    if plan.traced {
        c.hello()?;
    }
    let (session, _) = c.open_session()?;
    let mut anchors = Anchors::new(DIM, 64, plan.lookup_seed);
    // Lookups run for as long as the feedback connection does.
    while !plan.stop.load(Ordering::SeqCst) {
        let a = anchors.next_anchor();
        search(&mut c, plan, &mut tally, session, &a, "lookup", true)?;
    }
    c.close_session(session)?;
    tally.cpu_us = thread_cpu_us() - cpu0;
    Ok(tally)
}

/// One phase of traffic: the clients run until the first epoch boundary
/// after `seconds` have passed.
fn phase(
    shape: Shape,
    dep: &Deployment,
    pool: &[usize],
    seconds: f64,
    traced: bool,
    lookup_seed: u64,
) -> (Timed, Vec<Tally>) {
    let start = Instant::now();
    let plan = Plan {
        shape,
        addr: dep.addr,
        coll: &dep.coll,
        pool,
        barrier: Barrier::new(shape.feeders()),
        boundaries: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
        deadline: start + Duration::from_secs_f64(seconds),
        traced,
        epoch0: start,
        blank: blank_module().to_bytes(),
        lookup_seed,
    };
    let cpu0 = process_cpu_us();
    // A transport failure ends the run at once: the other client may be
    // parked at the epoch barrier waiting for the one that failed.
    let fatal = |e: ClientError| -> Tally {
        eprintln!("perfbench: client: {e}");
        std::process::exit(1)
    };
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let plan = &plan;
        let mut handles: Vec<_> = (0..shape.feeders())
            .map(|slot| scope.spawn(move || feeder(plan, slot).unwrap_or_else(fatal)))
            .collect();
        if shape == Shape::Routed {
            handles.push(scope.spawn(move || looker(plan).unwrap_or_else(fatal)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let process_cpu = process_cpu_us() - cpu0;
    let merged = |pick: fn(&Tally) -> &Vec<(Instant, f64)>| -> Vec<f64> {
        let mut all: Vec<(Instant, f64)> = tallies.iter().flat_map(|t| pick(t).clone()).collect();
        all.sort_by_key(|&(t, _)| t);
        all.into_iter().map(|(_, us)| us).collect()
    };
    let boundaries = plan.boundaries.into_inner().expect("boundaries lock");
    let done: Vec<Instant> = tallies
        .iter()
        .flat_map(|t| t.done.iter().copied())
        .collect();
    let epoch_rates = boundaries
        .windows(2)
        .map(|w| {
            let n = done.iter().filter(|&&t| t >= w[0] && t < w[1]).count();
            n as f64 / (w[1] - w[0]).as_secs_f64()
        })
        .collect();
    // Each slice's mean counts once, however often the run served it.
    let mut slices = [(0u64, 0u64, 0.0f64); SLICES];
    for t in &tallies {
        for (acc, s) in slices.iter_mut().zip(&t.slices) {
            *acc = (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2);
        }
    }
    let served: Vec<&(u64, u64, f64)> = slices.iter().filter(|s| s.0 > 0).collect();
    let mean = |f: fn(&(u64, u64, f64)) -> f64| {
        served.iter().map(|&s| f(s)).sum::<f64>() / served.len().max(1) as f64
    };
    let timed = Timed {
        searches: done.len() as u64,
        searches_per_s: tallies.iter().map(|t| closed_loop_rate(&t.done)).sum(),
        epoch_rates,
        search_us: merged(|t| &t.search),
        lookup_us: merged(|t| &t.lookup),
        feedback_us: merged(|t| &t.feedback),
        rounds_per_query: mean(|s| s.1 as f64 / s.0 as f64),
        final_precision: mean(|s| s.2 / s.0 as f64),
        process_cpu_us: process_cpu,
        client_cpu_us: tallies.iter().map(|t| t.cpu_us).sum(),
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
    };
    (timed, tallies)
}

/// The answer the serving tier must give a fresh anchor: the flat f64
/// scan under the module's predicted metric (uniform when the module
/// cannot predict or predicts degenerate weights).
fn oracle_answer(
    coll: &Collection,
    module: &FeedbackBypass,
    q: &[f64],
) -> Vec<fbp_vecdb::Neighbor> {
    let (point, weights) = match module.predict(q) {
        Ok(p) => (p.point, p.weights),
        Err(_) => (q.to_vec(), vec![1.0; q.len()]),
    };
    let weights = if weights.iter().all(|w| w.is_finite() && *w > 0.0) {
        weights
    } else {
        vec![1.0; q.len()]
    };
    let metric = WeightedEuclidean::new(weights).expect("validated weights");
    LinearScan::with_mode(coll, ScanMode::Batched).knn(&point, K, &metric)
}

/// Fetch the learned module, then probe fresh sessions (one first-round
/// search each) and lookups (one session re-anchored each time), each
/// compared bit for bit with [`oracle_answer`].
fn probe(dep: &Deployment, pool: &[usize], seed: u64) -> Result<Gate, String> {
    let io = |e: ClientError| format!("probe: {e}");
    let mut c = Client::connect(dep.addr).map_err(|e| format!("probe connect: {e}"))?;
    let image = c.snapshot_module().map_err(io)?;
    let image_kb = image.len() as f64 / 1024.0;
    let module = FeedbackBypass::from_bytes(&image).map_err(|e| format!("module image: {e}"))?;
    let mut anchors = Anchors::new(DIM, 64, seed ^ 0xA5A5);
    let mut queries: Vec<Vec<f64>> = pool
        .iter()
        .step_by((pool.len() / PROBES).max(1))
        .take(PROBES)
        .map(|&r| dep.coll.vector(r).to_vec())
        .collect();
    let fresh_sessions = queries.len();
    queries.extend((0..PROBES).map(|_| anchors.next_anchor()));
    let mut differ = 0;
    let (lookup_session, _) = c.open_session().map_err(io)?;
    for (i, q) in queries.iter().enumerate() {
        let session = if i < fresh_sessions {
            c.open_session().map_err(io)?.0
        } else {
            lookup_session
        };
        let reply = c.knn(session, K as u32, q).map_err(io)?;
        differ += usize::from(reply.neighbors != oracle_answer(&dep.coll, &module, q));
        if session != lookup_session {
            c.close_session(session).map_err(io)?;
        }
    }
    c.close_session(lookup_session).map_err(io)?;
    Ok(Gate::new(
        differ == 0,
        format!(
            "correct: {fresh_sessions} fresh sessions and {PROBES} lookups equal LinearScan \
             under the fetched module's prediction ({differ} differ; module image {image_kb:.0} KiB)"
        ),
    ))
}

pub fn run(args: &Args, shape: Shape) -> Result<Outcome, String> {
    let rows = shape.rows(args.seed);
    let pool: Vec<usize> = data::query_order(rows.len(), args.seed ^ 0x5EED)
        .into_iter()
        .take(SLICES * shape.epoch_queries())
        .collect();
    let mut out = Outcome::default();

    let mut dep: Option<Deployment> = None;
    let mut build_s = Vec::new();
    while more_setups(&out.setup_s) {
        if let Some(d) = dep.take() {
            d.shutdown();
        }
        let t0 = Instant::now();
        let (d, b) = Deployment::start(shape, &rows)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        build_s.push(b);
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");
    drop(rows);

    let lookup_seed = args.seed ^ 0x100C;
    phase(shape, &dep, &pool, WARMUP_S, false, lookup_seed);
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let front0 = dep.front_stats();
    let scan0 = dep.scan_stats();
    let (untraced, plain) = phase(shape, &dep, &pool, phase_s, false, lookup_seed);
    let front = delta(&dep.front_stats(), &front0);
    let scan = delta(&dep.scan_stats(), &scan0);
    shape_checks(&mut out, shape, &front, &scan, &plain);

    if args.trace {
        let front0 = dep.front_stats();
        let scan0 = dep.scan_stats();
        let (traced, tallies) = phase(shape, &dep, &pool, phase_s, true, lookup_seed);
        let front = delta(&dep.front_stats(), &front0);
        let scan = delta(&dep.scan_stats(), &scan0);
        traced_layers(
            &mut out,
            args,
            shape,
            &dep,
            median(&build_s),
            &untraced,
            &traced,
            tallies,
            &front,
            &scan,
        )?;
    }

    out.gates.push(probe(&dep, &pool, args.seed)?);
    dep.shutdown();
    out.untraced = untraced;
    Ok(out)
}

/// The counters that define each workload's mix.
fn shape_checks(
    out: &mut Outcome,
    shape: Shape,
    front: &StatsSnapshot,
    scan: &StatsSnapshot,
    tallies: &[Tally],
) {
    match shape {
        Shape::Flat => {
            let fill = front.requests as f64 / front.passes.max(1) as f64;
            out.gates.push(Gate::new(
                front.passes > 0 && fill <= 2.0 && scan.scan_partitions_pruned == 0,
                format!(
                    "shape: {} passes, fill {fill:.2} ≤ 2, {} partitions pruned (flat)",
                    front.passes, scan.scan_partitions_pruned
                ),
            ));
        }
        Shape::Routed => {
            // The lookup connection is the one with no feedback rounds.
            let lookups: usize = tallies
                .iter()
                .filter(|t| t.search.is_empty())
                .map(|t| t.lookup.len())
                .sum();
            let rounds: usize = tallies.iter().map(|t| t.search.len()).sum();
            out.gates.push(Gate::new(
                scan.scan_partitions_pruned > 0
                    && scan.passes == 0
                    && lookups > 0
                    && rounds > 0
                    && front.downstream_timeouts == 0
                    && front.degraded_replies == 0,
                format!(
                    "shape: {} partitions pruned > 0, shard batcher passes {} = 0, \
                     {lookups} lookups and {rounds} feedback searches, {} shard timeouts \
                     and {} degraded replies",
                    scan.scan_partitions_pruned,
                    scan.passes,
                    front.downstream_timeouts,
                    front.degraded_replies
                ),
            ));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    out: &mut Outcome,
    args: &Args,
    shape: Shape,
    dep: &Deployment,
    build_s: f64,
    untraced: &Timed,
    traced: &Timed,
    tallies: Vec<Tally>,
    front: &StatsSnapshot,
    scan: &StatsSnapshot,
) -> Result<(), String> {
    let coll = &dep.coll;
    let mut log = SpanLog::new(tallies[0].spans.epoch());
    let mut traces = Vec::new();
    let mut frames = Vec::new();
    let mut judgments = Vec::new();
    let mut commits = Vec::new();
    let mut anchors = Vec::new();
    let mut module_image = None;
    let mut epochs = 0;
    for t in tallies {
        log.absorb(t.spans);
        traces.extend(t.traces);
        frames.extend(t.frames);
        judgments.extend(t.judgments);
        anchors.extend(t.anchors);
        epochs = epochs.max(t.epochs);
        commits.extend(t.commits);
        module_image = module_image.or(t.module);
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let p = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
    let legs: Vec<_> = traces
        .iter()
        .flat_map(|(_, t)| t.spans.iter().copied())
        .collect();
    let queue = sorted(legs.iter().map(|s| us(s.queue_ns)).collect());
    let busy = sorted(legs.iter().map(|s| us(s.busy_ns)).collect());
    let gather = sorted(traces.iter().map(|(_, t)| us(t.gather_ns)).collect());
    let merge = sorted(traces.iter().map(|(_, t)| us(t.merge_ns)).collect());
    let unattributed = sorted(
        traces
            .iter()
            .map(|(rtt, t)| us(rtt.saturating_sub(t.wall_ns)))
            .collect(),
    );
    let requests = front.requests.max(1) as f64;
    let l = &mut out.layers;

    // vecdb.kernels and vecdb.knn.
    let fill = match shape {
        Shape::Flat => {
            legs.iter().map(|s| f64::from(s.batch_fill)).sum::<f64>() / legs.len().max(1) as f64
        }
        Shape::Routed => 1.0,
    };
    let (q1, batch, gbps) = layers::kernels(coll, fill);
    l.insert("vecdb.kernels.ns_per_row_dim_q1", q1);
    l.insert("vecdb.kernels.ns_per_row_dim_batch", batch);
    l.insert("vecdb.kernels.gb_per_s", gbps);
    // Shard scans run per shard-server call: one per shard per request,
    // plus every hedge and retry.
    let scans = match shape {
        Shape::Flat => front.passes,
        Shape::Routed => {
            front.requests * SHARDS as u64 + front.hedges_fired + front.downstream_retries
        }
    }
    .max(1) as f64;
    l.insert(
        "vecdb.knn.rows_per_search",
        scan.scan_rows_visited as f64 / requests,
    );
    l.insert(
        "vecdb.knn.rescored_per_search",
        scan.scan_candidates_rescored as f64 / requests,
    );
    l.insert(
        "vecdb.knn.abandon_share",
        scan.scan_blocks_abandoned as f64 / (scan.scan_rows_visited as f64 / BLOCK_ROWS).max(1.0),
    );
    l.insert(
        "vecdb.knn.seed_prune_share",
        scan.scan_seed_prunes as f64 / scans,
    );
    l.insert("vecdb.collection.build_s", build_s);
    l.insert(
        "vecdb.collection.mirror_mb",
        coll.mirror_bytes() as f64 / 1e6,
    );
    match shape {
        Shape::Flat => {
            let per_query: Vec<f64> = legs
                .iter()
                .map(|s| us(s.busy_ns) / f64::from(s.batch_fill.max(1)))
                .collect();
            l.insert("vecdb.knn.pass_us", p(&busy, 0.5));
            l.insert(
                "vecdb.knn.us_per_query",
                per_query.iter().sum::<f64>() / per_query.len().max(1) as f64,
            );
            l.insert("server.batcher.queue_wait_p50_us", p(&queue, 0.5));
            l.insert("server.batcher.queue_wait_p99_us", p(&queue, 0.99));
            l.insert("server.batcher.fill", fill);
            l.insert(
                "server.batcher.passes_per_search",
                front.passes as f64 / requests,
            );
            l.insert("server.batcher.busy_p50_us", p(&busy, 0.5));
        }
        Shape::Routed => {
            // The shard servers scan inline, out of the trailer's
            // sight: replay the captured anchors, under the uniform
            // metric, through the same partition-pruning entry on
            // shard 0's layout.
            let slice = coll.slice_rows(0, coll.len() / SHARDS);
            let cfg = PartitionConfig::default();
            let t0 = Instant::now();
            let part = PartitionedCollection::build(&slice, &cfg);
            l.insert(
                "vecdb.collection.partition_build_s",
                t0.elapsed().as_secs_f64(),
            );
            let sink = ScanStatsSink::new();
            let scan_engine = SharedBypass::serving_scan_partitioned(&part).with_scan_stats(&sink);
            let replay = SharedBypass::new(blank_module());
            let mut passes = Vec::new();
            for (req, _) in &frames {
                let Request::Knn { query, .. } = req else {
                    continue;
                };
                let request =
                    KnnRequest::uniform(query.clone()).with_precision(Precision::F32Rescore);
                let t0 = Instant::now();
                let r = replay
                    .knn_batch_lowered_partitioned(&scan_engine, &[request], K)
                    .map_err(|e| format!("replay: {e}"))?;
                passes.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(r);
            }
            let passes = sorted(passes);
            l.insert("vecdb.knn.pass_us", p(&passes, 0.5));
            l.insert("vecdb.knn.us_per_query", p(&passes, 0.5));
            l.insert(
                "vecdb.knn.partition_prune_share",
                scan.scan_partitions_pruned as f64 / (scans * cfg.partitions as f64),
            );
            l.insert("server.router.shard_rtt_p50_us", p(&busy, 0.5));
            l.insert("server.router.shard_rtt_p99_us", p(&busy, 0.99));
            l.insert("server.router.merge_p50_us", p(&merge, 0.5));
            l.insert(
                "server.router.hedges_fired_per_1k",
                front.hedges_fired as f64 * 1e3 / requests,
            );
            l.insert(
                "server.router.hedge_win_share",
                front.hedges_won as f64 / front.hedges_fired.max(1) as f64,
            );
            l.insert("server.router.retries", front.downstream_retries as f64);
            l.insert(
                "server.router.degraded_replies",
                front.degraded_replies as f64,
            );
        }
    }
    l.insert("server.server.gather_p50_us", p(&gather, 0.5));
    l.insert("server.server.merge_p50_us", p(&merge, 0.5));
    l.insert("server.server.unattributed_p50_us", p(&unattributed, 0.5));

    // core.shared and simplex_tree: the module fetched at an epoch's
    // end, and the epoch's commits replayed into a blank module.
    let module = module_image
        .map(|img| FeedbackBypass::from_bytes(&img).map_err(|e| format!("module image: {e}")))
        .transpose()?
        .unwrap_or_else(blank_module);
    let shared = SharedBypass::new(module);
    let (points, nodes, depth) = shared.stats();
    l.insert("simplex_tree.points", points as f64);
    l.insert("simplex_tree.nodes", nodes as f64);
    l.insert("simplex_tree.depth", depth as f64);
    let t0 = Instant::now();
    for a in &anchors {
        std::hint::black_box(shared.predict(a).ok());
    }
    l.insert(
        "core.shared.predict_us",
        t0.elapsed().as_secs_f64() * 1e6 / anchors.len().max(1) as f64,
    );
    let replay = SharedBypass::new(blank_module());
    let ones = vec![1.0; DIM];
    let per_epoch = commits.len() / epochs.max(1) as usize;
    let t0 = Instant::now();
    for a in commits.iter().take(per_epoch) {
        std::hint::black_box(replay.insert(a, a, &ones).ok());
    }
    l.insert(
        "core.shared.insert_us",
        t0.elapsed().as_secs_f64() * 1e6 / per_epoch.max(1) as f64,
    );
    l.insert("core.shared.inserts", per_epoch as f64);

    // feedback.step: the captured judgments, stepped from the anchor
    // under the uniform metric.
    let stepper = FeedbackStepper::new(coll, FeedbackConfig::default());
    let t0 = Instant::now();
    for j in &judgments {
        let oracle = SetOracle::new(j.relevant.clone());
        std::hint::black_box(stepper.step(&j.anchor, &ones, &j.results, &oracle).ok());
    }
    l.insert(
        "feedback.step.step_us",
        t0.elapsed().as_secs_f64() * 1e6 / judgments.len().max(1) as f64,
    );

    let (encode, decode, reply_bytes) = layers::protocol(&frames);
    l.insert("server.protocol.encode_us", encode);
    l.insert("server.protocol.decode_us", decode);
    l.insert("server.protocol.reply_bytes", reply_bytes);
    l.insert(
        "loadgen.cpu_us_per_search",
        untraced.client_cpu_us as f64 / untraced.searches.max(1) as f64,
    );
    l.insert(
        "trace.overhead_p50_ratio",
        traced.search_p50() / untraced.search_p50(),
    );
    let table = LayerTable::build(log.spans(), &["search", "lookup"]);
    l.insert("trace.unattributed_share", table.unattributed_share());
    out.notes.push(table.render(&format!(
        "self time per layer over {} traced searches (root span: the client's round trip)",
        traces.len()
    )));
    let path =
        std::path::Path::new(SPAN_DIR).join(format!("spans-{}-{}.tsv", shape.name(), args.seed));
    log.dump(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes
        .push(format!("  spans written to {}", path.display()));
    Ok(())
}
