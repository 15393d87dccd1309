//! The gather cell: one admitted `Knn` in flight across the shards,
//! whether they are in-process ([`crate::server`]'s per-shard
//! dispatchers) or remote ([`crate::router`]'s downstream pools).
//!
//! The front-end admits a request once, builds one [`Gather`] holding
//! its resolved search parameters and the reply sink, and scatters it
//! to every shard. Each shard delivers exactly one outcome for its slot
//! ([`Gather::complete_shard`]); duplicate deliveries — a hedge losing
//! to its primary, a backstop racing a worker — are dropped. Every
//! delivered partial tightens the cell's shared early-abandon seed, so
//! a shard pass (or a retry, or a hedge) that starts after another
//! shard finished prunes against a near-global bound instead of its
//! looser local one; this can never change the merged answer, because
//! a row subset's k-th best is always ≥ the global k-th best.
//!
//! The delivery that resolves the **last** slot merges the partials
//! under the cell's [`FailurePolicy`] and fires the reply, on its own
//! thread — no extra thread ever sits on the latency path. In-process
//! shards use [`FailurePolicy::Strict`], which is exactly
//! [`merge_partials`](fbp_vecdb::merge_partials) when every slot is
//! present.

use crate::protocol::{Request, ShardSpan};
use crate::trace::RequestTrace;
use fbp_vecdb::{
    merge_partials_policy, DegradedGather, FailurePolicy, GatherError, ShardPartial,
    WeightedEuclidean,
};
use feedbackbypass::KnnRequest;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a gather resolved without an answer.
#[derive(Debug)]
pub(crate) enum GatherFailure {
    /// The failure policy refused the surviving partials.
    Refused {
        /// The policy's verdict (missing shards, survivors, quorum).
        refusal: GatherError,
        /// The first failed slot's own reason.
        first_error: String,
    },
    /// The shards answered in different selection spaces, so their
    /// partials cannot be merged.
    Unmergeable,
}

/// Reply sink of one gathered request, invoked exactly once with the
/// policy-approved (possibly degraded) merge or the reason there is
/// none. It finishes the reply — session bookkeeping, encoding, the
/// socket write — on whichever thread delivered the last slot.
pub(crate) type GatherReply = Box<dyn FnOnce(Result<DegradedGather, GatherFailure>) + Send>;

/// Delivery state of one shard slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Awaiting the shard's outcome.
    Open,
    /// Awaiting it, with a duplicate (hedge) call already issued.
    Hedged,
    /// Resolved; later deliveries are dropped.
    Delivered,
}

struct GatherState {
    /// Delivered partials by shard index (`None` for failed shards).
    partials: Vec<Option<ShardPartial>>,
    slots: Vec<Slot>,
    /// The first failed slot's reason, if any.
    first_error: Option<String>,
    /// Slots still outstanding.
    remaining: usize,
    /// Taken by the delivery that resolves the last slot.
    reply: Option<GatherReply>,
}

/// Per-request gather cell: the request's resolved search parameters
/// (read-only, shared by every shard), one delivery slot per shard, the
/// CAS-tightened early-abandon seed, and the fire-once reply.
pub(crate) struct Gather {
    /// The serving request (point, weights).
    pub(crate) req: KnnRequest,
    /// The request's resolved result count (clamped at admission).
    pub(crate) k: usize,
    /// The request's metric, built **once at admission** and shared by
    /// every shard pass and the final merge.
    pub(crate) metric: WeightedEuclidean,
    /// Cross-shard early-abandon bound (f64 bits, starts at `+∞`, only
    /// ever decreases).
    seed: AtomicU64,
    /// Admission instant (the hedge delay counts from here).
    pub(crate) created: Instant,
    /// Absolute deadline every downstream call for this gather shares
    /// (`None` for in-process shards, whose passes cannot time out).
    deadline: Option<Instant>,
    policy: FailurePolicy,
    done: AtomicBool,
    /// Span collector for a traced request (`None` on the untraced hot
    /// path). Observes timestamps only; it can never change an answer.
    pub(crate) trace: Option<Arc<RequestTrace>>,
    state: Mutex<GatherState>,
}

impl Gather {
    /// New cell awaiting `shards` slots; remote gathers pass the
    /// per-call `timeout` their deadline derives from.
    #[allow(clippy::too_many_arguments)] // construction sites are two; a params struct would only rename the fields
    pub(crate) fn new(
        req: KnnRequest,
        metric: WeightedEuclidean,
        k: usize,
        shards: usize,
        policy: FailurePolicy,
        timeout: Option<Duration>,
        trace: Option<Arc<RequestTrace>>,
        reply: GatherReply,
    ) -> Arc<Self> {
        let created = Instant::now();
        Arc::new(Gather {
            req,
            k,
            metric,
            seed: AtomicU64::new(f64::INFINITY.to_bits()),
            created,
            deadline: timeout.map(|t| created + t),
            policy,
            done: AtomicBool::new(false),
            trace,
            state: Mutex::new(GatherState {
                partials: (0..shards).map(|_| None).collect(),
                slots: vec![Slot::Open; shards],
                first_error: None,
                remaining: shards,
                reply: Some(reply),
            }),
        })
    }

    /// The current pruning seed (`+∞` until some shard delivered a full
    /// k-best).
    pub(crate) fn seed(&self) -> f64 {
        f64::from_bits(self.seed.load(Ordering::Acquire))
    }

    /// Absolute deadline of a remote gather's downstream calls.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
            .expect("only remote gathers, which always carry a deadline, are sent over the wire")
    }

    /// Whether every slot has resolved (the reply has fired).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Whether `shard`'s slot has already been delivered (lets a hedge
    /// or straggling retry stand down without touching the wire).
    pub(crate) fn shard_resolved(&self, shard: usize) -> bool {
        self.is_done() || self.state.lock().expect("gather lock").slots[shard] == Slot::Delivered
    }

    /// Latch `shard` as hedged: true exactly once per shard, and only
    /// while its slot is still open.
    pub(crate) fn take_hedge(&self, shard: usize) -> bool {
        let mut state = self.state.lock().expect("gather lock");
        if state.slots[shard] != Slot::Open {
            return false;
        }
        state.slots[shard] = Slot::Hedged;
        true
    }

    /// The `ShardKnn` frame for this gather, carrying the seed as
    /// currently tightened — built at send time so retries and hedges
    /// prune with everything already learned.
    pub(crate) fn shard_request(&self) -> Request {
        Request::ShardKnn {
            k: self.k as u32,
            seed: self.seed(),
            point: self.req.point.clone(),
            weights: self.req.weights.clone(),
        }
    }

    /// Deliver `shard`'s outcome; returns whether this call was the one
    /// recorded (duplicates are dropped). The delivery that resolves the
    /// last slot merges under the failure policy (outside the cell's
    /// lock) and fires the reply.
    pub(crate) fn complete_shard(
        &self,
        shard: usize,
        outcome: Result<ShardPartial, String>,
    ) -> bool {
        let fire = {
            let mut state = self.state.lock().expect("gather lock");
            if state.slots[shard] == Slot::Delivered {
                return false;
            }
            state.slots[shard] = Slot::Delivered;
            state.remaining -= 1;
            match outcome {
                Ok(partial) => {
                    if let Some(bound) = partial.bound_key(self.k) {
                        self.tighten_seed(bound);
                    }
                    state.partials[shard] = Some(partial);
                }
                Err(e) => {
                    state.first_error.get_or_insert(e);
                }
            }
            if state.remaining == 0 {
                self.done.store(true, Ordering::Release);
                let partials = std::mem::take(&mut state.partials);
                let first_error = state.first_error.take();
                state.reply.take().map(|r| (r, partials, first_error))
            } else {
                None
            }
        };
        if let Some((reply, partials, first_error)) = fire {
            // The last slot just resolved: everything from here (the
            // policy merge, session bookkeeping, reply encode + write)
            // is merge time.
            if let Some(trace) = &self.trace {
                trace.note_gathered();
            }
            reply(self.merge(&partials, first_error));
        }
        true
    }

    /// Record a remote `shard`'s span on a traced gather (no-op
    /// otherwise): `started` is when the leg's wire work began (`None`
    /// for legs that never touched the wire — fast degrades, backstops
    /// — which report zero times). Call **before** the matching
    /// [`Self::complete_shard`] so the delivery that fires the reply
    /// already sees the span; duplicate recordings for a shard (a
    /// losing leg racing the winner) are dropped by the collector.
    pub(crate) fn trace_span(&self, shard: usize, started: Option<Instant>, flags: u8) {
        if let Some(trace) = &self.trace {
            let (queue_ns, busy_ns) = match started {
                Some(s) => (
                    s.saturating_duration_since(trace.t0()).as_nanos() as u64,
                    s.elapsed().as_nanos() as u64,
                ),
                None => (0, 0),
            };
            trace.add_span(ShardSpan {
                shard: shard as u32,
                queue_ns,
                busy_ns,
                batch_fill: 0,
                flags,
            });
        }
    }

    /// CAS-tighten the shared early-abandon bound.
    fn tighten_seed(&self, bound: f64) {
        let mut current = self.seed.load(Ordering::Acquire);
        while bound < f64::from_bits(current) {
            match self.seed.compare_exchange_weak(
                current,
                bound.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
    }

    /// Fold the delivered partials under the failure policy.
    fn merge(
        &self,
        partials: &[Option<ShardPartial>],
        first_error: Option<String>,
    ) -> Result<DegradedGather, GatherFailure> {
        // Every shard must scan in the same mode; a deployment mixing
        // selection spaces would make the merge meaningless, so refuse
        // it as a typed failure instead of panicking the merge.
        let mut space: Option<bool> = None;
        for partial in partials.iter().flatten() {
            if partial.entries().is_empty() {
                continue;
            }
            match space {
                None => space = Some(partial.is_finished()),
                Some(f) if f != partial.is_finished() => return Err(GatherFailure::Unmergeable),
                Some(_) => {}
            }
        }
        // The merge reuses the admission-built metric.
        merge_partials_policy(partials, self.k, &self.metric, self.policy).map_err(|refusal| {
            GatherFailure::Refused {
                refusal,
                first_error: first_error.unwrap_or_default(),
            }
        })
    }
}

/// A single-shard remote gather whose reply reports success/failure on
/// a channel (the pool tests' stand-in for a scattered request).
#[cfg(test)]
pub(crate) fn gather_for(deadline: Duration) -> (Arc<Gather>, std::sync::mpsc::Receiver<bool>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let gather = Gather::new(
        KnnRequest::uniform(vec![0.0, 0.0]),
        WeightedEuclidean::new(vec![1.0, 1.0]).unwrap(),
        1,
        1,
        FailurePolicy::Strict,
        Some(deadline),
        None,
        Box::new(move |outcome| {
            let _ = tx.send(outcome.is_ok());
        }),
    );
    (gather, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbp_vecdb::{merge_partials, ScanMode, ShardedCollection, ShardedScan};

    /// Per-shard partials of `q` over a `shards`-way split of `rows`.
    fn partials(rows: &[Vec<f64>], shards: usize, q: &[f64], k: usize) -> Vec<ShardPartial> {
        let mut b = fbp_vecdb::CollectionBuilder::new();
        for r in rows {
            b.push_unlabelled(r).unwrap();
        }
        let sc = ShardedCollection::split(&b.build(), shards);
        let scan = ShardedScan::with_mode(&sc, ScanMode::Batched);
        let metric = WeightedEuclidean::uniform(q.len());
        (0..shards)
            .map(|s| {
                scan.scan_shard_weighted(s, &[q], std::slice::from_ref(&metric), &[k], None)
                    .remove(0)
            })
            .collect()
    }

    #[test]
    fn gather_fires_once_after_all_shards_any_order() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let got = Arc::new(Mutex::new(None));
        let req = KnnRequest::uniform(vec![0.0, 0.0]);
        let req_metric = req.metric(2).unwrap();
        let gather = Gather::new(
            req,
            req_metric,
            5,
            3,
            FailurePolicy::Strict,
            None,
            None,
            Box::new({
                let fired = Arc::clone(&fired);
                let got = Arc::clone(&got);
                move |outcome| {
                    fired.fetch_add(1, Ordering::SeqCst);
                    *got.lock().unwrap() = Some(outcome);
                }
            }),
        );
        // Build real partials through the public scatter API.
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, 0.0]).collect();
        let parts = partials(&rows, 3, &[0.0, 0.0], 5);
        // Out-of-order delivery; the reply fires exactly once, on the
        // last shard.
        gather.complete_shard(2, Ok(parts[2].clone()));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        gather.complete_shard(0, Ok(parts[0].clone()));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        gather.complete_shard(1, Ok(parts[1].clone()));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let merged = got.lock().unwrap().take().unwrap().unwrap().neighbors;
        assert_eq!(merged.len(), 5);
        assert_eq!(merged[0].index, 0);
        assert!(merged.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn gather_propagates_shard_errors() {
        let got = Arc::new(Mutex::new(None));
        let req = KnnRequest::uniform(vec![0.0]);
        let req_metric = req.metric(1).unwrap();
        let gather = Gather::new(
            req,
            req_metric,
            5,
            2,
            FailurePolicy::Strict,
            None,
            None,
            Box::new({
                let got = Arc::clone(&got);
                move |outcome| *got.lock().unwrap() = Some(outcome)
            }),
        );
        let part = partials(&[vec![0.5]], 2, &[0.0], 5).remove(0);
        gather.complete_shard(0, Ok(part));
        gather.complete_shard(1, Err("pass failed".into()));
        let outcome = got.lock().unwrap().take().unwrap();
        match outcome {
            Err(GatherFailure::Refused { first_error, .. }) => {
                assert_eq!(first_error, "pass failed")
            }
            other => panic!("expected the shard error to win, got {other:?}"),
        }
    }

    #[test]
    fn degraded_gather_reports_the_missing_slot_and_merges_the_survivors() {
        let got = Arc::new(Mutex::new(None));
        let req = KnnRequest::uniform(vec![0.0, 0.0]);
        let req_metric = req.metric(2).unwrap();
        let gather = Gather::new(
            req,
            req_metric.clone(),
            4,
            3,
            FailurePolicy::Degraded { min_shards: 1 },
            Some(Duration::from_secs(1)),
            None,
            Box::new({
                let got = Arc::clone(&got);
                move |outcome| *got.lock().unwrap() = Some(outcome)
            }),
        );
        let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 * 0.5, 1.0]).collect();
        let parts = partials(&rows, 3, &[0.0, 0.0], 4);
        assert!(gather.complete_shard(0, Ok(parts[0].clone())));
        assert!(gather.complete_shard(1, Err("shard 1 timed out".into())));
        // A late duplicate for the failed slot is dropped.
        assert!(!gather.complete_shard(1, Ok(parts[1].clone())));
        assert!(!gather.is_done());
        assert!(gather.complete_shard(2, Ok(parts[2].clone())));
        assert!(gather.is_done());
        let merged = got.lock().unwrap().take().unwrap().unwrap();
        assert_eq!(merged.missing_shards, vec![1]);
        let survivors = merge_partials([&parts[0], &parts[2]], 4, &req_metric);
        assert_eq!(merged.neighbors, survivors);
    }
}
