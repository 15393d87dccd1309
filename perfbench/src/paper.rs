//! `paper_sessions`: the paper's own workload, in-process.
//!
//! 16 feedback sessions advance in lock-step over the labelled queries
//! of the paper's dataset. Each round is: predict for the sessions
//! starting a query → one coalesced `knn_batch_lowered` pass
//! (`ScanMode::Batched`, `F32Rescore`) → one `FeedbackStepper` step per
//! session → insert on convergence. This is the transition
//! `fbp_eval::sessions::run_sessions` runs, driven here with timers and
//! spans around each call. One epoch serves the whole query pool from a
//! blank module; epochs repeat until the run's time is up.

use crate::data;
use crate::layers;
use crate::measure::{median, process_cpu_us};
use crate::spans::{LayerTable, SpanLog};
use crate::{more_setups, Args, Gate, Outcome, Timed, SPAN_DIR};
use fbp_eval::sessions::{run_sessions, ServingMode, SessionQueryRecord, SessionsOptions};
use fbp_feedback::{CategoryOracle, FeedbackConfig, FeedbackStepper, StepOutcome};
use fbp_server::protocol::{Request, Response};
use fbp_vecdb::{
    CategoryId, Collection, KnnEngine, LinearScan, MultiQueryScan, Neighbor, Precision, ResultList,
    ScanMode, ScanStatsSink, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, KnnRequest, SharedBypass};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Concurrent sessions.
const SESSIONS: usize = 16;
/// Results per search.
const K: usize = 50;
/// One pass in this many is re-run through `LinearScan`.
const CHECK_EVERY: u64 = 53;
/// Warm-up before timing.
const WARMUP: Duration = Duration::from_millis(300);
/// Rows per scan block, for the abandonment share.
const BLOCK_ROWS: f64 = 256.0;

struct Active {
    q: Vec<f64>,
    category: CategoryId,
    point: Vec<f64>,
    weights: Vec<f64>,
    prev: Option<ResultList>,
    cycles: usize,
    latest_precision: f64,
    /// Latency of the prediction that started this query, µs (set until
    /// the query's first search completes).
    fresh_predict_us: Option<f64>,
}

struct Session {
    queue: VecDeque<usize>,
    current: Option<Active>,
    records: Vec<SessionQueryRecord>,
}

/// Counters and samples one traced phase adds beyond [`Timed`].
#[derive(Default)]
struct Trace {
    spans: Option<SpanLog>,
    passes: u64,
    predicted: u64,
    predict_ns: u64,
    /// Module inserts (per epoch once the phase is over).
    inserts: u64,
    frames: Vec<(Request, Response)>,
}

/// The driver: everything a run shares across epochs.
struct Driver<'a> {
    coll: &'a Collection,
    order: &'a [usize],
    per_session: usize,
    stepper: FeedbackStepper<'a>,
    scan: MultiQueryScan<'a>,
}

/// One pass kept for the `LinearScan` re-check.
struct Sampled {
    requests: Vec<KnnRequest>,
    answers: Vec<Vec<Neighbor>>,
}

impl<'a> Driver<'a> {
    /// Run one epoch from a blank module. Returns the per-session
    /// records and the module, or `None` when `deadline` cut it.
    fn epoch(
        &self,
        deadline: Option<Instant>,
        t: &mut Timed,
        tr: &mut Trace,
        sampled: &mut Vec<Sampled>,
    ) -> Option<(Vec<Vec<SessionQueryRecord>>, SharedBypass)> {
        let coll = self.coll;
        let shared = SharedBypass::new(
            FeedbackBypass::for_histograms(coll.dim(), BypassConfig::default())
                .expect("histogram module"),
        );
        let mut sessions: Vec<Session> = (0..SESSIONS)
            .map(|s| Session {
                queue: (0..self.per_session)
                    .map(|i| self.order[i * SESSIONS + s])
                    .collect(),
                current: None,
                records: Vec::new(),
            })
            .collect();
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let round_start = Instant::now();
            let request_id = tr.passes;
            let mut children: Vec<(&'static str, Instant, Instant)> = Vec::new();

            let starting: Vec<usize> = (0..SESSIONS)
                .filter(|&i| sessions[i].current.is_none() && !sessions[i].queue.is_empty())
                .collect();
            if !starting.is_empty() {
                let queries: Vec<Vec<f64>> = starting
                    .iter()
                    .map(|&i| coll.vector(sessions[i].queue[0]).to_vec())
                    .collect();
                let t0 = Instant::now();
                let predictions = shared.predict_batch(&queries).expect("collection queries");
                let t1 = Instant::now();
                children.push(("core.shared.predict", t0, t1));
                let predict_us = (t1 - t0).as_secs_f64() * 1e6;
                tr.predicted += starting.len() as u64;
                tr.predict_ns += (t1 - t0).as_nanos() as u64;
                for ((&i, q), pred) in starting.iter().zip(queries).zip(predictions) {
                    let qidx = sessions[i].queue.pop_front().expect("non-empty queue");
                    sessions[i].current = Some(Active {
                        category: coll.label(qidx),
                        q,
                        point: pred.point,
                        weights: pred.weights,
                        prev: None,
                        cycles: 0,
                        latest_precision: 0.0,
                        fresh_predict_us: Some(predict_us),
                    });
                }
            }

            let active: Vec<usize> = (0..SESSIONS)
                .filter(|&i| sessions[i].current.is_some())
                .collect();
            if active.is_empty() {
                let records = sessions.into_iter().map(|s| s.records).collect();
                return Some((records, shared));
            }
            let requests: Vec<KnnRequest> = active
                .iter()
                .map(|&i| {
                    let aq = sessions[i].current.as_ref().expect("active");
                    // The uniform fallback of the serving loop for a
                    // degenerate prediction.
                    let weights = if aq.weights.iter().all(|w| w.is_finite() && *w > 0.0) {
                        aq.weights.clone()
                    } else {
                        vec![1.0; aq.point.len()]
                    };
                    KnnRequest {
                        point: aq.point.clone(),
                        weights,
                        k: None,
                        precision: Some(Precision::F32Rescore),
                    }
                })
                .collect();
            let t0 = Instant::now();
            let round = shared
                .knn_batch_lowered(&self.scan, &requests, K)
                .expect("validated requests");
            let t1 = Instant::now();
            children.push(("vecdb.knn", t0, t1));
            let pass_us = (t1 - t0).as_secs_f64() * 1e6;
            tr.passes += 1;
            t.searches += active.len() as u64;
            t.attempted += active.len() as u64;
            if tr.passes % CHECK_EVERY == 1 {
                sampled.push(Sampled {
                    requests: requests.clone(),
                    answers: round.clone(),
                });
            }
            if tr.spans.is_some() && tr.frames.len() < 256 {
                for (i, (req, neighbors)) in requests.iter().zip(&round).enumerate() {
                    tr.frames.push((
                        Request::Knn {
                            session: i as u64,
                            k: K as u32,
                            query: req.point.clone(),
                        },
                        Response::KnnResult {
                            flags: 0,
                            cycles: 0,
                            missing_shards: Vec::new(),
                            trace: None,
                            neighbors: neighbors.clone(),
                        },
                    ));
                }
            }

            for (&i, neighbors) in active.iter().zip(round) {
                t.search_us.push(pass_us);
                let session = &mut sessions[i];
                let aq = session.current.as_mut().expect("active");
                if let Some(predict_us) = aq.fresh_predict_us.take() {
                    t.lookup_us.push(predict_us + pass_us);
                }
                let judge_start = Instant::now();
                let results = ResultList::new(neighbors);
                let oracle = CategoryOracle::new(coll, aq.category);
                aq.latest_precision = self.stepper.precision(&results, &oracle);
                let mut finished: Option<bool> = None;
                if let Some(prev) = &aq.prev {
                    aq.cycles += 1;
                    if results.same_ranking(prev) {
                        finished = Some(true);
                    }
                }
                if finished.is_none() {
                    if aq.cycles >= self.stepper.config().max_cycles {
                        finished = Some(false);
                    } else {
                        let s0 = Instant::now();
                        let outcome = self
                            .stepper
                            .step(&aq.point, &aq.weights, &results, &oracle)
                            .expect("feedback step");
                        children.push(("feedback.step", s0, Instant::now()));
                        match outcome {
                            StepOutcome::Converged => finished = Some(true),
                            StepOutcome::Continue { point, weights } => {
                                aq.point = point;
                                aq.weights = weights;
                                aq.prev = Some(results);
                            }
                        }
                    }
                }
                if let Some(converged) = finished {
                    let aq = session.current.take().expect("active");
                    if aq.cycles > 0 {
                        let s0 = Instant::now();
                        shared
                            .insert(&aq.q, &aq.point, &aq.weights)
                            .expect("insert converged parameters");
                        children.push(("core.shared.insert", s0, Instant::now()));
                        tr.inserts += 1;
                    }
                    session.records.push(SessionQueryRecord {
                        cycles: aq.cycles,
                        converged,
                        final_precision: aq.latest_precision,
                    });
                }
                t.attempted += 1;
                t.feedback_us
                    .push(judge_start.elapsed().as_secs_f64() * 1e6);
            }
            if let Some(log) = tr.spans.as_mut() {
                let root = log.record("round", round_start, Instant::now(), None, request_id);
                for (name, a, b) in children {
                    log.record(name, a, b, Some(root), request_id);
                }
            }
        }
    }

    /// Run whole epochs until `seconds` have passed (the phase ends on
    /// an epoch boundary, so every measure covers whole epochs).
    fn phase(
        &self,
        seconds: f64,
        tr: &mut Trace,
        sampled: &mut Vec<Sampled>,
    ) -> (
        Timed,
        Vec<Vec<Vec<SessionQueryRecord>>>,
        Option<SharedBypass>,
    ) {
        let mut t = Timed::default();
        let mut epochs = Vec::new();
        let mut last_module = None;
        let (mut queries, mut rounds, mut precision_sum) = (0u64, 0u64, 0.0);
        let cpu0 = process_cpu_us();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let (epoch_start, searches0) = (Instant::now(), t.searches);
            let (records, module) = self
                .epoch(None, &mut t, tr, sampled)
                .expect("an epoch without a deadline finishes");
            t.epoch_rates
                .push((t.searches - searches0) as f64 / epoch_start.elapsed().as_secs_f64());
            for r in records.iter().flatten() {
                queries += 1;
                rounds += r.cycles as u64;
                precision_sum += r.final_precision;
            }
            epochs.push(records);
            last_module = Some(module);
        }
        t.process_cpu_us = process_cpu_us() - cpu0;
        t.searches_per_s = median(&t.epoch_rates);
        t.rounds_per_query = rounds as f64 / queries as f64;
        t.final_precision = precision_sum / queries as f64;
        (t, epochs, last_module)
    }
}

/// Sockets the process holds (the workload must open none).
fn sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.flatten()
                .filter(|e| {
                    std::fs::read_link(e.path())
                        .is_ok_and(|target| target.to_string_lossy().starts_with("socket:"))
                })
                .count()
        })
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut ds, rows) = data::paper();
    let mut out = Outcome::default();
    let sockets_before = sockets();

    let mut coll = None;
    let mut build_s = Vec::new();
    while more_setups(&out.setup_s) {
        drop(coll.take());
        let t0 = Instant::now();
        let c = rows.build();
        build_s.push(t0.elapsed().as_secs_f64());
        let module = FeedbackBypass::for_histograms(c.dim(), BypassConfig::default())
            .map_err(|e| format!("module: {e}"))?;
        std::hint::black_box(SharedBypass::new(module));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        coll = Some(c);
    }
    let coll = coll.expect("at least one set-up");
    let order = fbp_eval::stream::query_order(&ds, args.seed);
    let per_session = order.len() / SESSIONS;
    let feedback = FeedbackConfig {
        k: K,
        ..FeedbackConfig::default()
    };
    let sink = ScanStatsSink::new();
    let plain_scan =
        MultiQueryScan::with_mode(&coll, ScanMode::Batched).with_precision(Precision::F32Rescore);
    let mut driver = Driver {
        coll: &coll,
        order: &order,
        per_session,
        stepper: FeedbackStepper::new(&coll, feedback.clone()),
        scan: plain_scan,
    };

    let mut sampled = Vec::new();
    driver.epoch(
        Some(Instant::now() + WARMUP),
        &mut Timed::default(),
        &mut Trace::default(),
        &mut Vec::new(),
    );
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = Trace::default();
    let (untraced, epochs, _) = driver.phase(phase_s, &mut plain, &mut sampled);

    // Shape: the fill that makes this the multi-query workload, and no
    // wire anywhere.
    let fill = untraced.searches as f64 / plain.passes.max(1) as f64;
    out.gates.push(Gate::new(
        fill >= 0.85 * SESSIONS as f64 && fill <= SESSIONS as f64,
        format!("shape: mean fill {fill:.2} ≈ {SESSIONS} sessions"),
    ));
    let opened = sockets().saturating_sub(sockets_before);
    out.gates.push(Gate::new(
        opened == 0,
        format!("shape: {opened} sockets opened (no wire)"),
    ));

    if args.trace {
        let traced_scan = plain_scan.with_scan_stats(&sink);
        driver.scan = traced_scan;
        let epoch0 = Instant::now();
        let mut tr = Trace {
            spans: Some(SpanLog::new(epoch0)),
            ..Trace::default()
        };
        let (traced, traced_epochs, module) = driver.phase(phase_s, &mut tr, &mut sampled);
        let module = module.ok_or("traced phase finished no epoch")?;
        tr.inserts /= traced_epochs.len() as u64;
        traced_layers(
            &mut out,
            args,
            &coll,
            median(&build_s),
            &untraced,
            &traced,
            &tr,
            &sink,
            &module,
        )?;
    }

    // Correctness: sampled passes against the flat f64 scan.
    let oracle = LinearScan::with_mode(&coll, ScanMode::Batched);
    let mut checked = 0;
    let mut mismatched = 0;
    for s in &sampled {
        for (req, answer) in s.requests.iter().zip(&s.answers) {
            let metric = WeightedEuclidean::new(req.weights.clone()).map_err(|e| e.to_string())?;
            checked += 1;
            mismatched += usize::from(oracle.knn(&req.point, K, &metric) != *answer);
        }
    }
    out.gates.push(Gate::new(
        checked > 0 && mismatched == 0,
        format!("correct: {checked} sampled searches equal LinearScan ({mismatched} differ)"),
    ));

    // Correctness: the paper's quantities equal run_sessions.
    ds.collection.ensure_f32_mirror();
    let reference = run_sessions(
        &ds,
        &SessionsOptions {
            n_sessions: SESSIONS,
            queries_per_session: per_session,
            k: K,
            feedback,
            bypass: BypassConfig::default(),
            serving: ServingMode::Coalesced(ScanMode::Batched),
            precision: Precision::F32Rescore,
            shards: 1,
            seed: args.seed,
        },
    );
    let same = !epochs.is_empty() && epochs.iter().all(|e| *e == reference.per_session);
    let n = reference.total_queries() as f64;
    let ref_rounds = reference.mean_cycles();
    let ref_precision = reference.mean_final_precision();
    let rounds = untraced.rounds_per_query;
    let precision = untraced.final_precision;
    out.gates.push(Gate::new(
        same,
        format!(
            "correct: {} epochs × {n} queries equal run_sessions record for record \
             (rounds/query {rounds:.4} vs {ref_rounds:.4}, precision {precision:.4} vs {ref_precision:.4})",
            epochs.len()
        ),
    ));
    out.untraced = untraced;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    out: &mut Outcome,
    args: &Args,
    coll: &Collection,
    build_s: f64,
    untraced: &Timed,
    traced: &Timed,
    tr: &Trace,
    sink: &ScanStatsSink,
    module: &SharedBypass,
) -> Result<(), String> {
    let log = tr.spans.as_ref().expect("traced phase records spans");
    let spans = log.spans();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let passes = durations("vecdb.knn");
    let fill = traced.searches as f64 / tr.passes.max(1) as f64;
    let stats = sink.snapshot();
    let searches = traced.searches.max(1) as f64;
    let (q1, batch, gbps) = layers::kernels(coll, fill);
    let (encode, decode, reply_bytes) = layers::protocol(&tr.frames);
    let (points, nodes, depth) = module.stats();
    let table = LayerTable::build(spans, &["round"]);
    let l = &mut out.layers;
    l.insert("vecdb.kernels.ns_per_row_dim_q1", q1);
    l.insert("vecdb.kernels.ns_per_row_dim_batch", batch);
    l.insert("vecdb.kernels.gb_per_s", gbps);
    l.insert("vecdb.knn.pass_us", median(&passes));
    l.insert(
        "vecdb.knn.us_per_query",
        passes.iter().sum::<f64>() / searches,
    );
    l.insert(
        "vecdb.knn.rows_per_search",
        stats.rows_visited as f64 / searches,
    );
    l.insert(
        "vecdb.knn.rescored_per_search",
        stats.candidates_rescored as f64 / searches,
    );
    l.insert(
        "vecdb.knn.abandon_share",
        stats.blocks_abandoned as f64 / (stats.rows_visited as f64 / BLOCK_ROWS).max(1.0),
    );
    l.insert(
        "vecdb.knn.seed_prune_share",
        stats.seed_prunes as f64 / tr.passes.max(1) as f64,
    );
    l.insert("vecdb.collection.build_s", build_s);
    l.insert(
        "vecdb.collection.mirror_mb",
        coll.mirror_bytes() as f64 / 1e6,
    );
    l.insert(
        "core.shared.predict_us",
        tr.predict_ns as f64 / 1e3 / tr.predicted.max(1) as f64,
    );
    l.insert(
        "core.shared.insert_us",
        mean(&durations("core.shared.insert")),
    );
    l.insert("core.shared.inserts", tr.inserts as f64);
    l.insert("simplex_tree.points", points as f64);
    l.insert("simplex_tree.nodes", nodes as f64);
    l.insert("simplex_tree.depth", depth as f64);
    l.insert("feedback.step.step_us", mean(&durations("feedback.step")));
    l.insert("server.protocol.encode_us", encode);
    l.insert("server.protocol.decode_us", decode);
    l.insert("server.protocol.reply_bytes", reply_bytes);
    l.insert(
        "trace.overhead_p50_ratio",
        traced.search_p50() / untraced.search_p50(),
    );
    l.insert("trace.unattributed_share", table.unattributed_share());
    out.notes.push(table.render(&format!(
        "self time per layer over {} rounds (root span: one lock-step round)",
        tr.passes
    )));
    let path =
        std::path::Path::new(SPAN_DIR).join(format!("spans-paper_sessions-{}.tsv", args.seed));
    log.dump(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes
        .push(format!("  spans written to {}", path.display()));
    Ok(())
}
