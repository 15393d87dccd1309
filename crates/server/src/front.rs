//! The serving front-end [`crate::serve`] and [`crate::route`] share:
//! accept loop, per-connection threads, the session tier, admission,
//! tracing, and graceful shutdown — with the shards behind a
//! [`ShardBackend`], in-process ([`crate::server::LocalShards`]) or
//! remote ([`crate::router::RemoteShards`]).
//!
//! Each connection gets one thread running a read→handle→reply loop.
//! `Knn` and `KnnV2` frames are lowered once into a [`KnnIntent`],
//! admitted, and scattered as one [`Gather`](crate::gather::Gather)
//! cell to every shard; the thread that delivers the last shard slot
//! writes the reply. Everything else is answered inline. Session state (current query anchor,
//! learned parameters, last un-judged results) lives front-end-side in a
//! [`SessionStore`] keyed by session id, so the full interactive
//! feedback loop runs over the wire with the same
//! [`fbp_feedback::FeedbackStepper`] transition the in-process serving
//! path executes. Sessions are **connection-scoped**: only the
//! connection that opened a session may use or close it (ids are
//! sequential, so they must not be capabilities), and they are dropped
//! when it disconnects.
//!
//! The backend answers only what differs between the two tiers: how a
//! gather reaches the shards, whether a sessionless `ShardKnn` is
//! scanned or refused, extra stats fields, what follows an installed
//! `RestoreModule`, and which error a gather without an answer reports.

use crate::gather::{GatherFailure, GatherReply};
use crate::metrics::Metrics;
use crate::protocol::{
    error_code_for, read_frame, write_frame, DecodeError, ErrorCode, FrameError, Request, Response,
    StatsSnapshot, KNN_DEGRADED, KNN_TRACED, PROTOCOL_VERSION,
};
use crate::server::ServerConfig;
use crate::sessions::{err, ExampleSets, SessionStore};
use crate::trace::{RequestTrace, TraceRing};
use fbp_vecdb::{Collection, DegradedGather, WeightedEuclidean};
use feedbackbypass::{FeedbackBypass, KnnRequest, QuerySpec, RocchioWeights, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Capacity of the slow-query trace ring (reports, oldest evicted
/// first). Bounded so an undrained front-end holds a fixed few KiB of
/// trace state no matter how long it runs.
const TRACE_RING_CAP: usize = 64;

/// The shards behind the front-end.
pub(crate) trait ShardBackend: Send + Sync {
    /// Refuse a `Knn` before admission (`None` admits it).
    fn refuse(&self) -> Option<Response> {
        None
    }

    /// Build the admitted request's gather cell and deliver it to every
    /// shard slot; `reply` fires once the last slot resolves.
    fn scatter(
        &self,
        req: KnnRequest,
        metric: WeightedEuclidean,
        k: usize,
        trace: Option<Arc<RequestTrace>>,
        reply: GatherReply,
    );

    /// Answer a sessionless `ShardKnn` (the frame a router scatters).
    fn shard_knn(
        &self,
        front: &Front,
        k: u32,
        seed: f64,
        point: Vec<f64>,
        weights: Vec<f64>,
    ) -> Response;

    /// Fill the backend's own fields of a stats snapshot.
    fn extend_stats(&self, _snap: &mut StatsSnapshot) {}

    /// Reply to a `RestoreModule` whose image was validated and
    /// installed front-end-side.
    fn module_restored(&self, _front: &Front, _image: &[u8]) -> Response {
        Response::ModuleRestored
    }

    /// The error reply of a gather that resolved without an answer.
    fn failure(&self, failure: GatherFailure) -> Response;

    /// Stop taking work; queued work still resolves (shutdown).
    fn stop(&self);

    /// Message of the `Busy` admission refusal.
    fn busy_message(&self) -> &'static str {
        "batch queue full"
    }
}

/// Everything the front-end threads share.
pub(crate) struct Front {
    pub(crate) store: SessionStore,
    pub(crate) metrics: Arc<Metrics>,
    /// The front-end's share of the serving knobs (the batching knobs
    /// belong to the local backend).
    cfg: ServerConfig,
    backend: Arc<dyn ShardBackend>,
    /// Admission bound: requests mid-scatter/gather. Enforcing the
    /// queue capacity here (instead of per shard) keeps a request's
    /// scatter atomic — it is either admitted to every shard or refused
    /// outright with `Busy`.
    inflight: AtomicUsize,
    next_conn: AtomicU64,
    /// Trace-id source for traced requests (ids are per-front-end
    /// unique, never reused).
    next_trace: AtomicU64,
    /// Slow-query trace ring, drained by `GetTraces`.
    traces: TraceRing,
    shutdown: AtomicBool,
}

impl Front {
    /// Whether shutdown has begun (background threads poll this).
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stats snapshot: the serving counters plus the backend's fields
    /// (same numbers the wire `SnapshotStats` reports).
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let mut snap = self.metrics.snapshot(self.store.count());
        self.backend.extend_stats(&mut snap);
        snap
    }
}

/// A running front-end: address, live stats, graceful shutdown.
/// Dropping it shuts the front-end down and joins every thread.
pub(crate) struct Handle {
    /// The bound address.
    pub(crate) addr: SocketAddr,
    pub(crate) front: Arc<Front>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The backend's threads, joined last, in spawn order.
    workers: Vec<JoinHandle<()>>,
}

/// Graceful shutdown: stop accepting, stop the backend, join the
/// connection threads, then the backend's threads. Returns once the last
/// thread exited.
impl Drop for Handle {
    fn drop(&mut self) {
        self.front.shutdown.store(true, Ordering::SeqCst);
        self.front.backend.stop();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // After the accept thread exits no new connection threads are
        // spawned; connection threads notice the flag within a
        // read-timeout slice.
        let conns: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        // The backend goes last: it drains its remaining work
        // (best-effort completions to whatever sockets still live)
        // before its threads exit.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Start serving `coll` and `bypass` on `listener`: build the session
/// tier, let `spawn` start the backend's threads (they may hold the
/// front-end), and run the accept loop. Returns once the listener is
/// accepting.
pub(crate) fn start(
    listener: TcpListener,
    coll: Arc<Collection>,
    bypass: SharedBypass,
    cfg: ServerConfig,
    backend: Arc<dyn ShardBackend>,
    spawn: impl FnOnce(&Arc<Front>) -> Vec<JoinHandle<()>>,
) -> io::Result<Handle> {
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Metrics::new(cfg.shards.max(1) as u64));
    let front = Arc::new(Front {
        store: SessionStore::new(coll, bypass, cfg.feedback.clone(), Arc::clone(&metrics)),
        metrics,
        traces: TraceRing::new(TRACE_RING_CAP, cfg.slow_trace_threshold),
        cfg,
        backend,
        inflight: AtomicUsize::new(0),
        next_conn: AtomicU64::new(1),
        next_trace: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
    });
    let workers = spawn(&front);

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = std::thread::spawn({
        let front = Arc::clone(&front);
        let conns = Arc::clone(&conns);
        move || {
            for stream in listener.incoming() {
                if front.shutting_down() {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => {
                        // Persistent accept failures (EMFILE under fd
                        // exhaustion) must not busy-spin the core.
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                let front = Arc::clone(&front);
                let handle = std::thread::spawn(move || handle_connection(stream, &front));
                let mut conns = conns.lock().expect("conns lock");
                // Reap finished connection threads as we go so a
                // long-lived front-end doesn't accumulate one
                // JoinHandle per connection ever accepted.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
        }
    });

    Ok(Handle {
        addr,
        front,
        accept: Some(accept),
        conns,
        workers,
    })
}

/// Read→handle→reply loop for one connection. Frame-layer failures end
/// the connection; well-framed protocol errors are answered and the
/// connection lives on. Sessions this connection opened die with it.
///
/// The socket is split: this thread owns the read side; the write side
/// sits behind a mutex shared with the gather, whose last delivery
/// writes the `Knn` reply (each reply frame is one `write_all` under the
/// lock, so frames never interleave). A client must therefore keep at
/// most one `Knn` in flight per connection before reading its reply —
/// which a strict request/response client does by construction.
fn handle_connection(stream: TcpStream, front: &Arc<Front>) {
    let conn_id = front.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(front.cfg.read_timeout));
    // Bounded reply writes: SO_SNDTIMEO is socket-wide, so the clone the
    // gather writes through inherits it — a peer that stops reading can
    // stall a reply for at most this long before the write fails and
    // the connection is shut down.
    let _ = stream.set_write_timeout(Some(front.cfg.write_timeout));
    let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Buffered reads: header + body of a frame usually arrive together,
    // so one syscall serves both.
    let mut reader = io::BufReader::with_capacity(16 * 1024, stream);
    let mut owned_sessions: Vec<u64> = Vec::new();
    // Every connection starts at protocol v1; a `Hello` exchange can
    // raise it (to at most [`PROTOCOL_VERSION`]) for the connection's
    // remaining lifetime. v2-only opcodes are refused below the
    // negotiated version, so v1 traffic stays byte-for-byte unchanged.
    let mut version: u8 = 1;
    // The read polls the shutdown flag only while the peer is quiet, so
    // a connection that never pauses (a router's pooled connection
    // under load) also checks it between frames.
    while !front.shutting_down() {
        let mut keep_waiting = || !front.shutting_down();
        match read_frame(&mut reader, front.cfg.max_frame_len, &mut keep_waiting) {
            Ok(None) => break, // clean close or shutdown
            Ok(Some(payload)) => {
                let response = match Request::decode(&payload) {
                    Ok(req) => handle_request(
                        req,
                        front,
                        &writer,
                        conn_id,
                        &mut owned_sessions,
                        &mut version,
                    ),
                    Err(e) => {
                        // The length prefix framed this payload, so the
                        // stream is still in sync: answer and continue.
                        front.metrics.record_protocol_error();
                        let code = match e {
                            DecodeError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
                            _ => ErrorCode::BadFrame,
                        };
                        Some(err(code, e.to_string()))
                    }
                };
                // `None` means a Knn was scattered — the gather's last
                // delivery writes that reply.
                if let Some(response) = response {
                    if write_response(&writer, &response).is_err() {
                        break; // client gone mid-reply
                    }
                }
            }
            Err(FrameError::Oversized { len, max }) => {
                // The oversized body was never read, so the stream can't
                // be resynchronized: report, then drop the connection.
                front.metrics.record_protocol_error();
                let message = format!("frame of {len} bytes exceeds the {max}-byte maximum");
                let _ = write_response(&writer, &err(ErrorCode::BadFrame, message));
                break;
            }
            Err(FrameError::Io(e)) => {
                // Truncated frame / reset: nothing to answer.
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    front.metrics.record_protocol_error();
                }
                break;
            }
        }
    }
    front.store.drop_owned(&owned_sessions);
}

/// One reply frame under the connection's write lock.
fn write_response(writer: &Mutex<TcpStream>, response: &Response) -> io::Result<()> {
    let mut w = writer.lock().expect("writer lock");
    write_frame(&mut *w, &response.encode())
}

/// One `Knn` as the front-end admits it, whichever frame carried it.
struct KnnIntent {
    session: u64,
    k: u32,
    /// The query point — for `KnnV2`, the derived Rocchio anchor.
    point: Vec<f64>,
    /// The spec's example sets (empty for v1).
    examples: ExampleSets,
    /// Whether the reply carries the stage-timing trailer.
    traced: bool,
}

/// Serve one decoded request; `None` means the reply was deferred to
/// the gather's last delivery (a scattered `Knn`).
fn handle_request(
    req: Request,
    front: &Arc<Front>,
    writer: &Arc<Mutex<TcpStream>>,
    conn_id: u64,
    owned: &mut Vec<u64>,
    version: &mut u8,
) -> Option<Response> {
    match req {
        Request::Hello { version: client } => Some(if client == 0 {
            front.metrics.record_protocol_error();
            err(ErrorCode::BadRequest, "protocol version 0 is not valid")
        } else {
            *version = client.min(PROTOCOL_VERSION);
            Response::HelloAck { version: *version }
        }),
        Request::OpenSession => {
            let id = front.store.open(conn_id);
            owned.push(id);
            Some(Response::SessionOpened {
                session: id,
                dim: front.store.coll().dim() as u32,
            })
        }
        Request::Knn { session, k, query } => handle_knn(
            front,
            writer,
            conn_id,
            KnnIntent {
                session,
                k,
                point: query,
                examples: ExampleSets::default(),
                traced: false,
            },
        ),
        Request::KnnV2 {
            session,
            k,
            alpha,
            beta,
            gamma,
            clamp,
            trace,
            anchor,
            positives,
            negatives,
        } => {
            if *version < 2 {
                front.metrics.record_protocol_error();
                return Some(err(
                    ErrorCode::BadRequest,
                    "KnnV2 requires a negotiated protocol version >= 2 (send Hello first)",
                ));
            }
            let spec = match QuerySpec::builder(anchor)
                .positives(positives)
                .negatives(negatives)
                .rocchio(RocchioWeights::new(alpha, beta, gamma))
                .clamp_to_zero(clamp)
                .build()
            {
                Ok(spec) => spec,
                Err(e) => {
                    front.metrics.record_protocol_error();
                    return Some(err(error_code_for(&e), e.to_string()));
                }
            };
            // Lower once, before admission: everything downstream — the
            // session registry, the micro-batchers, the shard scatter,
            // the `ShardKnn` frames a router sends — sees a plain point
            // query on the derived anchor, exactly as if the client had
            // sent v1 `Knn` with that point.
            let examples = ExampleSets {
                positives: spec.positives().to_vec(),
                negatives: spec.negatives().to_vec(),
            };
            let point = spec.lower().into_request().point;
            // The trace bit is honored only at a negotiated v3+; on an
            // older negotiation it is ignored (not an error), so a v3
            // encoder talking through a v2 negotiation degrades to an
            // ordinary untraced reply.
            let traced = trace && *version >= 3;
            handle_knn(
                front,
                writer,
                conn_id,
                KnnIntent {
                    session,
                    k,
                    point,
                    examples,
                    traced,
                },
            )
        }
        Request::Feedback { session, relevant } => {
            Some(front.store.feedback(conn_id, session, relevant))
        }
        Request::SnapshotStats => Some(Response::Stats(Box::new(front.stats()))),
        Request::GetTraces { max } => {
            if *version < 3 {
                front.metrics.record_protocol_error();
                return Some(err(
                    ErrorCode::BadRequest,
                    "GetTraces requires a negotiated protocol version >= 3 (send Hello first)",
                ));
            }
            Some(Response::TraceList {
                traces: front.traces.drain(max),
            })
        }
        Request::Close { session } => {
            let removed = front.store.close(session, conn_id);
            owned.retain(|&id| id != session);
            Some(if removed {
                Response::Closed
            } else {
                err(ErrorCode::UnknownSession, format!("session {session}"))
            })
        }
        Request::ShardKnn {
            k,
            seed,
            point,
            weights,
        } => Some(front.backend.shard_knn(front, k, seed, point, weights)),
        Request::ShardInfo => Some(Response::ShardInfoResult {
            rows: front.store.coll().len() as u64,
            offset: front.cfg.row_offset as u64,
            dim: front.store.coll().dim() as u32,
        }),
        Request::SnapshotModule => Some(Response::ModuleImage {
            image: front.store.bypass().to_bytes(),
        }),
        Request::RestoreModule { image } => Some(handle_restore_module(front, &image)),
    }
}

/// `Knn` (and lowered `KnnV2`): resolve the session's search
/// parameters, admit the request, and scatter it to every shard; the
/// delivery of the last shard slot merges and finishes the reply
/// (post-pass bookkeeping + the socket write). With `traced` set, a
/// [`RequestTrace`] rides the gather and the reply carries the
/// stage-timing trailer — everything else about the reply is
/// bit-identical to the untraced answer. Returns `None` when the reply
/// was deferred to the gather, `Some(error)` otherwise.
fn handle_knn(
    front: &Arc<Front>,
    writer: &Arc<Mutex<TcpStream>>,
    conn_id: u64,
    knn: KnnIntent,
) -> Option<Response> {
    let (session, query, examples, traced) = (knn.session, knn.point, knn.examples, knn.traced);
    let dim = front.store.coll().dim();
    if query.len() != dim {
        front.metrics.record_protocol_error();
        return Some(err(
            ErrorCode::DimMismatch,
            format!("expected {dim}, got {}", query.len()),
        ));
    }
    // `k` can never exceed the collection, so clamp instead of letting a
    // forged request size a gigantic k-best heap.
    let k = (knn.k as usize).min(front.store.coll().len());

    let (point, weights) = match front.store.resolve_knn(conn_id, session, query, examples) {
        Ok(params) => params,
        Err(resp) => return Some(resp),
    };
    let req = KnnRequest {
        point,
        weights,
        k: Some(k),
        precision: None,
    };
    // Build the request's metric exactly once, at admission — every
    // shard pass and the final merge share it.
    let metric = match req.metric(dim) {
        Ok(m) => m,
        Err(e) => {
            front.metrics.record_protocol_error();
            return Some(err(ErrorCode::BadRequest, e.to_string()));
        }
    };
    if let Some(refusal) = front.backend.refuse() {
        return Some(refusal);
    }

    // Admission: the queue bound applies to whole requests — a request
    // either scatters to every shard or is refused up front, so no
    // gather can ever be left half-scattered by backpressure.
    if front.inflight.fetch_add(1, Ordering::AcqRel) >= front.cfg.queue_capacity {
        front.inflight.fetch_sub(1, Ordering::AcqRel);
        return Some(err(ErrorCode::Busy, front.backend.busy_message()));
    }
    front.metrics.record_request();

    // Admission is t0: the trace's clock starts the moment the request
    // enters the scatter path, so every stage offset shares one origin.
    let req_trace =
        traced.then(|| RequestTrace::new(front.next_trace.fetch_add(1, Ordering::Relaxed)));

    let reply: GatherReply = {
        let front = Arc::clone(front);
        let writer = Arc::clone(writer);
        let req_trace = req_trace.clone();
        Box::new(move |outcome: Result<DegradedGather, GatherFailure>| {
            front.inflight.fetch_sub(1, Ordering::AcqRel);
            let response = match outcome {
                Ok(gathered) => {
                    let (mut flags, cycles) = front.store.finish_knn(session, &gathered.neighbors);
                    if gathered.is_degraded() {
                        flags |= KNN_DEGRADED;
                        front.metrics.record_degraded_reply();
                    }
                    // Fold the trace last, right before encode, so the
                    // merge window covers the session bookkeeping too.
                    // Error replies never carry a trailer.
                    let trace = req_trace.as_ref().map(|t| {
                        let report = t.finish();
                        front.traces.record(&report);
                        Box::new(report)
                    });
                    if trace.is_some() {
                        flags |= KNN_TRACED;
                    }
                    Response::KnnResult {
                        flags,
                        cycles,
                        missing_shards: gathered.missing_shards,
                        trace,
                        neighbors: gathered.neighbors,
                    }
                }
                Err(failure) => front.backend.failure(failure),
            };
            // A failed (or timed-out) write is a vanished or stalled
            // client: shut the socket down so its connection thread's
            // read errors out and reaps the sessions — the delivering
            // thread must never be wedged by one bad peer.
            if write_response(&writer, &response).is_err() {
                let w = writer.lock().expect("writer lock");
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
        })
    };
    front.backend.scatter(req, metric, k, req_trace, reply);
    None
}

/// `RestoreModule`: deserialize, validate, and install a replacement
/// learned module, then let the backend follow up (a router fans it out
/// to its shards — the router and its shards serve one module).
fn handle_restore_module(front: &Front, image: &[u8]) -> Response {
    let module = match FeedbackBypass::from_bytes(image) {
        Ok(m) => m,
        Err(e) => {
            front.metrics.record_protocol_error();
            return err(ErrorCode::BadRequest, format!("module image: {e}"));
        }
    };
    let dim = front.store.coll().dim();
    if module.feature_dim() != dim {
        front.metrics.record_protocol_error();
        return err(
            ErrorCode::DimMismatch,
            format!(
                "module is {}-dimensional, serving {dim}",
                module.feature_dim()
            ),
        );
    }
    front.store.bypass().replace(module);
    front.backend.module_restored(front, image)
}
