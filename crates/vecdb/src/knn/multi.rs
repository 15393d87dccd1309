//! Multi-query block scanning: evaluate Q concurrent queries per
//! collection pass instead of re-reading the collection once per query.
//!
//! The single-query [`LinearScan`](super::LinearScan) is memory-bound on
//! typical hosts: one pass streams `len × dim` f64s from DRAM to answer
//! one query. A retrieval service with many interactive feedback
//! sessions issues many k-NN queries against the *same* collection at
//! once, so [`MultiQueryScan`] amortizes that traffic: each block of
//! [`BLOCK_ROWS`] vectors is loaded once and scored against every
//! pending query while it is hot (via
//! [`Distance::eval_key_multi`]), dropping collection bytes per query by
//! ~Q× until the scan turns compute-bound.
//!
//! Two entry points cover the serving shapes:
//!
//! * [`MultiQueryScan::knn_multi`] — Q queries under **one shared
//!   metric** (e.g. a Q-sweep, or sessions that have not diverged yet).
//!   Uses the specialized multi-query kernels.
//! * [`MultiQueryScan::knn_per_query`] — Q queries each under **its own
//!   metric** (concurrent sessions with per-session learned weights).
//!   Shares the block pass; each query's distance runs its single-query
//!   batch kernel on the hot block.
//!
//! Results are **bit-identical** to Q independent `LinearScan` runs in
//! the same key-space mode: every (query, row) key is computed by the
//! same segment-wise accumulation, per-query early-abandon bounds can
//! only drop rows that could never enter that query's k-best, and the
//! parallel path merges per-thread candidates by ascending
//! `(key, index)` exactly like the single-query scan. The consistency
//! suite (`crates/vecdb/tests/multi_query.rs`) pins this across all four
//! distance classes.
//!
//! # Precision
//!
//! With [`Precision::F32Rescore`] (and a collection carrying its f32
//! mirror) the kernel-path modes run **two phases**: phase 1 streams the
//! mirror through the f32 kernels, collecting every row whose f32 key
//! lands under its query's admission bound; phase 2 rescores those
//! candidates from the f64 buffer with the exact kernels.
//!
//! The admission bound comes from the class's key-relative rounding
//! bound ([`Distance::f32_key_slack`], an [`F32KeyBound`]):
//! `|key32 − key64| ≤ Δ(key64) = δ₀ + α·√key64 + β·key64`. For the
//! weighted-squared classes `α` is the input-rounding term
//! (`4u·M·Σ|dᵢ|wᵢ ≤ 4u·M·√(W·κ)` by Cauchy–Schwarz), `β ≈ (n+4)·u` the
//! squaring, weight product and accumulation, `δ₀` a floor of order
//! `u²M²W`, all doubled as a safety margin — so near the k-th key the
//! allowance is a few parts per million of the key, not a band sized for
//! the largest key in the collection. Per query, with `T32` the running
//! f32 k-th key and `cap` a sound cap on the true k-th key `K64`, the
//! bound is `admit(min(ceiling(T32), cap))`:
//!
//! * the k rows with `key32 ≤ T32` each have `key64 ≤ ceiling(T32)`, so
//!   `K64 ≤ min(ceiling(T32), cap)`;
//! * every true top-k row has `key32 ≤ key64 + Δ(key64) = admit(key64)
//!   ≤ admit(K64)`, because `admit` is increasing.
//!
//! The candidate set is therefore a guaranteed superset of the true f64
//! top-k (details on [`MultiQueryScan::scan_range_shared_f32`]), so
//! results remain bit-identical to the pure-f64 scan while the bulk of
//! the pass moves half the bytes and the rescore touches ~k rows.

use super::stats::{ScanStats, ScanStatsSink};
use super::{
    f32_bound_up, finish_entries, phase1_bound, rescore_f64_keyed, scan_threads, KBest, Neighbor,
    Precision, ScanMode, SearchStats, BLOCK_ROWS, PARALLEL_CUTOFF,
};
use crate::collection::Collection;
use crate::distance::{kernels, Distance, F32KeyBound, WeightedEuclidean};

/// Keyed (pre-[`Distance::finish_key`]) results of one multi-query
/// pass: one ascending `(value, index)` k-best per query, plus whether
/// the values are already true distances (the Scalar reference pushes
/// distances; the kernel paths push surrogate keys). This is the unit
/// the sharded scatter/gather scan merges across shards **before**
/// finishing, so selection happens in one key space end to end.
pub(crate) struct KeyedResults {
    /// Per query: `(value, local index)`, ascending by `(value, index)`.
    pub entries: Vec<Vec<(f64, u32)>>,
    /// True when values are distances (identity finish — Scalar mode).
    pub finished: bool,
}

/// One f32 phase-1 chunk pass: scan a row range, tracking per-query
/// k-bests (f32 keys) and `(index, key32)` candidate pools.
type F32ChunkScan<'a> =
    dyn Fn(std::ops::Range<usize>, &mut [KBest], &mut [Vec<(u32, f32)>]) + Sync + 'a;

/// Multi-query scan engine borrowing a collection.
#[derive(Debug, Clone, Copy)]
pub struct MultiQueryScan<'a> {
    coll: &'a Collection,
    mode: ScanMode,
    precision: Precision,
    thread_budget: Option<usize>,
    stats: Option<&'a ScanStatsSink>,
}

impl<'a> MultiQueryScan<'a> {
    /// New engine over `coll` with [`ScanMode::Auto`].
    pub fn new(coll: &'a Collection) -> Self {
        MultiQueryScan {
            coll,
            mode: ScanMode::Auto,
            precision: Precision::F64,
            thread_budget: None,
            stats: None,
        }
    }

    /// New engine with an explicit execution mode.
    pub fn with_mode(coll: &'a Collection, mode: ScanMode) -> Self {
        MultiQueryScan {
            coll,
            mode,
            precision: Precision::F64,
            thread_budget: None,
            stats: None,
        }
    }

    /// Select the scan precision ([`Precision::F32Rescore`] silently
    /// degrades to the f64 path when the collection has no mirror or the
    /// distance class has no f32 kernel — results are identical either
    /// way, only bandwidth differs).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Cap the parallel path at `threads` worker threads (at least 1).
    /// Set this when the caller already runs scans from several of its
    /// own threads, so nested parallelism cannot oversubscribe the host.
    pub fn with_thread_budget(mut self, threads: usize) -> Self {
        self.thread_budget = Some(threads.max(1));
        self
    }

    /// Flush this scan's work counters into `sink` (see [`ScanStats`]):
    /// passes accumulate plain local tallies and record them with a few
    /// relaxed `fetch_add`s at pass end, so attaching a sink never
    /// perturbs the per-row hot loops — and never changes an answer.
    pub fn with_scan_stats(mut self, sink: &'a ScanStatsSink) -> Self {
        self.stats = Some(sink);
        self
    }

    /// Flush one pass's tallies, when a sink is attached.
    fn record_stats(&self, tally: ScanStats) {
        if let Some(sink) = self.stats {
            sink.record(&tally);
        }
    }

    /// Count one seeded pass: the caller handed finite cross-request /
    /// cross-shard caps, so this pass pruned against a bound tighter
    /// than `+∞` from row one.
    fn record_seeded_pass(&self, caps: Option<&[f64]>) {
        if self.stats.is_some() && caps.is_some_and(|c| c.iter().any(|v| v.is_finite())) {
            self.record_stats(ScanStats {
                seed_prunes: 1,
                ..Default::default()
            });
        }
    }

    /// The underlying collection.
    pub fn collection(&self) -> &'a Collection {
        self.coll
    }

    /// The configured execution mode.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// The configured precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The key-space rounding bound of an f32 phase-1 under `dist`, when
    /// every precondition for the two-phase scan holds: `F32Rescore`
    /// requested, mirror present, class exposes an f32 kernel with a
    /// bound for this data/query magnitude.
    pub(crate) fn f32_key_bound(
        &self,
        dist: &dyn Distance,
        queries: &[&[f64]],
    ) -> Option<F32KeyBound> {
        if self.precision != Precision::F32Rescore {
            return None;
        }
        let m_coll = self.coll.max_abs()?; // None ⇔ no mirror
        let m = queries
            .iter()
            .flat_map(|q| q.iter())
            .fold(m_coll, |m, &v| m.max(v.abs()));
        dist.f32_key_slack(self.coll.dim(), m)
    }

    /// The mode Auto resolves to for `nq` concurrent queries: total work
    /// is `len × dim × nq` candidate-components, so more queries tip the
    /// same collection into the parallel regime sooner.
    fn effective_mode(&self, nq: usize) -> ScanMode {
        match self.mode {
            ScanMode::Auto => {
                if self.coll.len() * self.coll.dim().max(1) * nq.max(1) >= PARALLEL_CUTOFF {
                    ScanMode::Parallel
                } else {
                    ScanMode::Batched
                }
            }
            m => m,
        }
    }

    /// The `k` nearest neighbors of every query under one shared
    /// `dist`, in one blocked pass over the collection. Queries must all
    /// have the collection's dimensionality; result `i` is sorted
    /// ascending by `(dist, index)` exactly like
    /// [`KnnEngine::knn`](super::KnnEngine::knn) on query `i`.
    pub fn knn_multi(
        &self,
        queries: &[&[f64]],
        k: usize,
        dist: &dyn Distance,
    ) -> Vec<Vec<Neighbor>> {
        self.knn_multi_k(queries, &vec![k; queries.len()], dist)
    }

    /// Like [`Self::knn_multi`] but with a **per-query** result count:
    /// query `i` gets its `ks[i]` nearest neighbors, all still answered
    /// in the same single blocked pass (concurrent sessions rarely agree
    /// on `k`; forcing the batch to the maximum would make every smaller
    /// request pay the widest k-best and return rows its session never
    /// asked for).
    pub fn knn_multi_k(
        &self,
        queries: &[&[f64]],
        ks: &[usize],
        dist: &dyn Distance,
    ) -> Vec<Vec<Neighbor>> {
        let keyed = self.knn_multi_k_keyed(queries, ks, dist, None);
        keyed
            .entries
            .into_iter()
            .map(|e| finish_entries(e, keyed.finished, dist))
            .collect()
    }

    /// [`Self::knn_multi_k`] stopped before the `finish_key` step: the
    /// pass's exact k-bests in selection space, for the sharded scan's
    /// per-shard scatter stage.
    ///
    /// `caps` (one per query, when given) are **sound pruning seeds**:
    /// the caller guarantees `caps[q]` is an upper bound on the true
    /// global k-th key of query `q` (in this pass's selection space),
    /// so rows with larger values can be dropped before the running
    /// k-best would have — the cross-shard bound-propagation lever.
    /// Rows beyond a cap never enter the result, which is exactly why a
    /// sound cap cannot change the merged global answer; an `INFINITY`
    /// cap is a no-op.
    pub(crate) fn knn_multi_k_keyed(
        &self,
        queries: &[&[f64]],
        ks: &[usize],
        dist: &dyn Distance,
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        assert_eq!(queries.len(), ks.len(), "one k per query");
        if queries.is_empty() || self.coll.is_empty() {
            return KeyedResults {
                entries: vec![Vec::new(); queries.len()],
                finished: true,
            };
        }
        let dim = self.coll.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimensionality mismatch");
        }
        self.record_seeded_pass(caps);
        let mode = self.effective_mode(queries.len());
        if mode != ScanMode::Scalar {
            if let Some(bound) = self.f32_key_bound(dist, queries) {
                return self.knn_multi_f32_keyed(queries, ks, dist, bound, mode, caps);
            }
        }
        let (kbs, finished) = match mode {
            ScanMode::Scalar => {
                let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                for i in 0..self.coll.len() {
                    let row = self.coll.vector(i);
                    for (qi, (q, kb)) in queries.iter().zip(kbs.iter_mut()).enumerate() {
                        let d = dist.eval(q, row);
                        if d <= cap_of(caps, qi) {
                            kb.push(i as u32, d);
                        }
                    }
                }
                self.record_stats(ScanStats {
                    rows_visited: self.coll.len() as u64,
                    ..Default::default()
                });
                // Scalar pushes true distances; finish is the identity.
                (kbs, true)
            }
            ScanMode::Batched => {
                let flat = flatten(queries);
                let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                self.scan_range_shared(&flat, dist, 0..self.coll.len(), &mut kbs, caps, None);
                (kbs, false)
            }
            ScanMode::Parallel => {
                let flat = flatten(queries);
                let kbs = self.parallel_merge(ks, &|range, kbs| {
                    self.scan_range_shared(&flat, dist, range, kbs, caps, None)
                });
                (kbs, false)
            }
            ScanMode::Auto => unreachable!("effective_mode resolves Auto"),
        };
        KeyedResults {
            entries: kbs.into_iter().map(KBest::into_sorted_entries).collect(),
            finished,
        }
    }

    /// Two-phase shared-metric scan: f32 phase-1 over the mirror
    /// (batched or fanned out over threads), exact f64 rescore of the
    /// surviving candidates per query — results still in key space.
    fn knn_multi_f32_keyed(
        &self,
        queries: &[&[f64]],
        ks: &[usize],
        dist: &dyn Distance,
        bound: F32KeyBound,
        mode: ScanMode,
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        let flat32 = flatten_f32(queries);
        let (kbs, cands) = self.phase1_candidates(ks, mode, &|range, kbs, cands| {
            self.scan_range_shared_f32(&flat32, dist, bound, range, kbs, cands, caps)
        });
        let cands = filter_candidates(&kbs, &vec![bound; ks.len()], cands, caps, self.stats);
        KeyedResults {
            entries: queries
                .iter()
                .zip(ks.iter())
                .zip(cands.iter())
                .map(|((q, &k), c)| {
                    rescore_f64_keyed(self.coll, q, dist, c, k, None).into_sorted_entries()
                })
                .collect(),
            finished: false,
        }
    }

    /// Like [`Self::knn_multi`] but also reports the pass's work
    /// counters (one distance evaluation per query per stored vector).
    pub fn knn_multi_with_stats(
        &self,
        queries: &[&[f64]],
        k: usize,
        dist: &dyn Distance,
    ) -> (Vec<Vec<Neighbor>>, SearchStats) {
        let results = self.knn_multi(queries, k, dist);
        (
            results,
            SearchStats {
                distance_evals: (self.coll.len() * queries.len()) as u64,
                nodes_visited: 0,
            },
        )
    }

    /// The `k` nearest neighbors of every query under its **own**
    /// distance function (`dists[i]` for `queries[i]`), sharing one
    /// blocked pass over the collection. This is the concurrent-session
    /// serving shape: each session's learned metric differs, but every
    /// block still gets read once for all of them.
    pub fn knn_per_query(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        self.knn_per_query_k(queries, dists, &vec![k; queries.len()])
    }

    /// Like [`Self::knn_per_query`] but with a per-query result count
    /// (`ks[i]` neighbors for `queries[i]`), still in one shared pass.
    pub fn knn_per_query_k(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        ks: &[usize],
    ) -> Vec<Vec<Neighbor>> {
        let keyed = self.knn_per_query_k_keyed(queries, dists, ks, None);
        keyed
            .entries
            .into_iter()
            .zip(dists.iter())
            .map(|(e, d)| finish_entries(e, keyed.finished, *d))
            .collect()
    }

    /// [`Self::knn_per_query_k`] in selection space (pre-`finish_key`),
    /// for the sharded scan's per-shard scatter stage. `caps` as on
    /// [`Self::knn_multi_k_keyed`]: sound per-query upper bounds on the
    /// global k-th key, used to prune earlier than the running k-best.
    pub(crate) fn knn_per_query_k_keyed(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        ks: &[usize],
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        assert_eq!(
            queries.len(),
            dists.len(),
            "one distance function per query"
        );
        assert_eq!(queries.len(), ks.len(), "one k per query");
        if queries.is_empty() || self.coll.is_empty() {
            return KeyedResults {
                entries: vec![Vec::new(); queries.len()],
                finished: true,
            };
        }
        let dim = self.coll.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimensionality mismatch");
        }
        self.record_seeded_pass(caps);
        let mode = self.effective_mode(queries.len());
        if mode != ScanMode::Scalar {
            // All-or-nothing: the f32 pass engages only when *every*
            // request's metric certifies a rounding bound, so the block
            // loop reads exactly one of the two buffers.
            let bounds: Option<Vec<F32KeyBound>> = dists
                .iter()
                .map(|d| self.f32_key_bound(*d, queries))
                .collect();
            if let Some(bounds) = bounds {
                return self.knn_per_query_f32_keyed(queries, dists, ks, &bounds, mode, caps);
            }
        }
        let (kbs, finished) = match mode {
            ScanMode::Scalar => {
                let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                for i in 0..self.coll.len() {
                    let row = self.coll.vector(i);
                    for (q, ((query, d), kb)) in queries
                        .iter()
                        .zip(dists.iter())
                        .zip(kbs.iter_mut())
                        .enumerate()
                    {
                        let dist = d.eval(query, row);
                        if dist <= cap_of(caps, q) {
                            kb.push(i as u32, dist);
                        }
                    }
                }
                self.record_stats(ScanStats {
                    rows_visited: self.coll.len() as u64,
                    ..Default::default()
                });
                (kbs, true)
            }
            ScanMode::Batched => {
                let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                self.scan_range_per_query(queries, dists, 0..self.coll.len(), &mut kbs, caps, None);
                (kbs, false)
            }
            ScanMode::Parallel => {
                let kbs = self.parallel_merge(ks, &|range, kbs| {
                    self.scan_range_per_query(queries, dists, range, kbs, caps, None)
                });
                (kbs, false)
            }
            ScanMode::Auto => unreachable!("effective_mode resolves Auto"),
        };
        KeyedResults {
            entries: kbs.into_iter().map(KBest::into_sorted_entries).collect(),
            finished,
        }
    }

    /// [`Self::knn_per_query_k`] specialized to **per-query
    /// weighted-Euclidean metrics** — the serving shape after sessions'
    /// learned weights diverge. Instead of one batch-kernel call per
    /// (query, block), every block goes through the Q×row multi kernels
    /// in their per-query-weight layout (`w_stride = dim`): one kernel
    /// call scores the block against all queries with register-blocked
    /// query/row tiles, which is what the compute-bound multi-query
    /// regime wants. Results are bit-identical to
    /// [`Self::knn_per_query_k`] with the same metrics (the per-
    /// (query, row) key arithmetic is the same in every kernel shape),
    /// and therefore to per-query [`LinearScan`](super::LinearScan)s.
    pub fn knn_weighted_per_query_k(
        &self,
        queries: &[&[f64]],
        metrics: &[WeightedEuclidean],
        ks: &[usize],
    ) -> Vec<Vec<Neighbor>> {
        let refs: Vec<&WeightedEuclidean> = metrics.iter().collect();
        let keyed = self.knn_weighted_per_query_k_keyed(queries, &refs, ks, None);
        keyed
            .entries
            .into_iter()
            .zip(metrics.iter())
            .map(|(e, m)| finish_entries(e, keyed.finished, m))
            .collect()
    }

    /// [`Self::knn_weighted_per_query_k`] in selection space
    /// (pre-`finish_key`), for the sharded scan's per-shard scatter
    /// stage. `caps` as on [`Self::knn_multi_k_keyed`].
    pub(crate) fn knn_weighted_per_query_k_keyed(
        &self,
        queries: &[&[f64]],
        metrics: &[&WeightedEuclidean],
        ks: &[usize],
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        assert_eq!(queries.len(), metrics.len(), "one metric per query");
        assert_eq!(queries.len(), ks.len(), "one k per query");
        if queries.is_empty() || self.coll.is_empty() {
            return KeyedResults {
                entries: vec![Vec::new(); queries.len()],
                finished: true,
            };
        }
        let dim = self.coll.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimensionality mismatch");
        }
        for m in metrics {
            assert_eq!(m.weights().len(), dim, "metric dimensionality mismatch");
        }
        let mode = self.effective_mode(queries.len());
        if mode == ScanMode::Scalar {
            // The scalar reference has no kernel layout to specialize.
            // (It records the seeded pass itself — don't double-count.)
            let dists: Vec<&dyn Distance> = metrics.iter().map(|&m| m as &dyn Distance).collect();
            return self.knn_per_query_k_keyed(queries, &dists, ks, caps);
        }
        self.record_seeded_pass(caps);
        // All-or-nothing f32 eligibility, exactly like the generic path.
        let bounds: Option<Vec<F32KeyBound>> = metrics
            .iter()
            .map(|&m| self.f32_key_bound(m, queries))
            .collect();
        if let Some(bounds) = bounds {
            let flat_q32 = flatten_f32(queries);
            let flat_w32: Vec<f32> = metrics
                .iter()
                .flat_map(|m| m.weights_f32().to_vec())
                .collect();
            let nq = queries.len();
            let scan_chunk =
                |rows: std::ops::Range<usize>, kbs: &mut [KBest], cands: &mut [Vec<(u32, f32)>]| {
                    let mut keys = vec![0.0f32; nq * BLOCK_ROWS];
                    let mut bounds64 = vec![f64::INFINITY; nq];
                    let mut bounds32 = vec![f32::INFINITY; nq];
                    let mut start = rows.start;
                    let mut tally = ScanStats::default();
                    while start < rows.end {
                        let end = (start + BLOCK_ROWS).min(rows.end);
                        let n = end - start;
                        tally.rows_visited += n as u64;
                        let block = self
                            .coll
                            .block_f32(start, end)
                            .expect("f32 path requires the mirror");
                        for (q, ((b64, b32), kb)) in bounds64
                            .iter_mut()
                            .zip(bounds32.iter_mut())
                            .zip(kbs.iter())
                            .enumerate()
                        {
                            *b64 = phase1_bound(&bounds[q], kb, cap_of(caps, q));
                            *b32 = f32_bound_up(*b64);
                        }
                        kernels::weighted_sq_multi_block_f32(
                            &flat_w32,
                            dim,
                            &flat_q32,
                            block,
                            dim,
                            &bounds32,
                            &mut keys[..nq * n],
                        );
                        let mut block_abandoned = false;
                        for (q, (kb, cand)) in kbs.iter_mut().zip(cands.iter_mut()).enumerate() {
                            for (offset, &key) in keys[q * n..(q + 1) * n].iter().enumerate() {
                                if (key as f64) <= bounds64[q] {
                                    cand.push(((start + offset) as u32, key));
                                    kb.push((start + offset) as u32, key as f64);
                                } else {
                                    block_abandoned = true;
                                }
                            }
                        }
                        tally.blocks_abandoned += block_abandoned as u64;
                        start = end;
                    }
                    self.record_stats(tally);
                };
            let (kbs, cands) = self.phase1_candidates(ks, mode, &scan_chunk);
            let cands = filter_candidates(&kbs, &bounds, cands, caps, self.stats);
            return KeyedResults {
                entries: queries
                    .iter()
                    .zip(metrics.iter().zip(ks.iter()))
                    .zip(cands.iter())
                    .map(|((q, (m, &k)), c)| {
                        rescore_f64_keyed(self.coll, q, *m, c, k, None).into_sorted_entries()
                    })
                    .collect(),
                finished: false,
            };
        }
        // Pure-f64 pass through the same multi-kernel layout.
        let flat_q = flatten(queries);
        let flat_w: Vec<f64> = metrics.iter().flat_map(|m| m.weights().to_vec()).collect();
        let scan_chunk = |rows: std::ops::Range<usize>, kbs: &mut [KBest]| {
            let nq = kbs.len();
            let mut keys = vec![0.0f64; nq * BLOCK_ROWS];
            let mut bounds = vec![f64::INFINITY; nq];
            let mut start = rows.start;
            let mut tally = ScanStats::default();
            while start < rows.end {
                let end = (start + BLOCK_ROWS).min(rows.end);
                let n = end - start;
                tally.rows_visited += n as u64;
                let block = self.coll.block(start, end);
                for (q, (b, kb)) in bounds.iter_mut().zip(kbs.iter()).enumerate() {
                    *b = kb.threshold().min(cap_of(caps, q));
                }
                kernels::weighted_sq_multi_block(
                    &flat_w,
                    dim,
                    &flat_q,
                    block,
                    dim,
                    &bounds,
                    &mut keys[..nq * n],
                );
                let mut block_abandoned = false;
                for (q, kb) in kbs.iter_mut().enumerate() {
                    for (offset, &key) in keys[q * n..(q + 1) * n].iter().enumerate() {
                        // Capped pruning can abandon rows before the
                        // k-best is full; the bound guard keeps their
                        // partial-sum keys (> bound) out of the heap.
                        if key <= bounds[q] {
                            kb.push((start + offset) as u32, key);
                        } else {
                            block_abandoned = true;
                        }
                    }
                }
                tally.blocks_abandoned += block_abandoned as u64;
                start = end;
            }
            self.record_stats(tally);
        };
        let kbs = match mode {
            ScanMode::Batched => {
                let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                scan_chunk(0..self.coll.len(), &mut kbs);
                kbs
            }
            ScanMode::Parallel => self.parallel_merge(ks, &scan_chunk),
            _ => unreachable!("scalar handled above"),
        };
        KeyedResults {
            entries: kbs.into_iter().map(KBest::into_sorted_entries).collect(),
            finished: false,
        }
    }

    /// Two-phase per-query-metric scan (each query's own bound/kernels),
    /// results still in key space.
    fn knn_per_query_f32_keyed(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        ks: &[usize],
        bounds: &[F32KeyBound],
        mode: ScanMode,
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        let q32s: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| q.iter().map(|&v| v as f32).collect())
            .collect();
        let (kbs, cands) = self.phase1_candidates(ks, mode, &|range, kbs, cands| {
            self.scan_range_per_query_f32(&q32s, dists, bounds, range, kbs, cands, caps)
        });
        let cands = filter_candidates(&kbs, bounds, cands, caps, self.stats);
        KeyedResults {
            entries: queries
                .iter()
                .zip(dists.iter().zip(ks.iter()))
                .zip(cands.iter())
                .map(|((q, (d, &k)), c)| {
                    rescore_f64_keyed(self.coll, q, *d, c, k, None).into_sorted_entries()
                })
                .collect(),
            finished: false,
        }
    }

    /// Shared-metric blocked pass over one contiguous index range:
    /// refresh every query's bound per block, evaluate the block against
    /// all queries in one kernel call, push surrogate keys. `perm`
    /// (when given) maps each scanned row index before the push — the
    /// partitioned scan's reorder-transparency: selection tie-breaks
    /// then happen in the *original* index space, which is what pins
    /// partitioned answers bit-identical to flat ones.
    pub(crate) fn scan_range_shared(
        &self,
        flat_queries: &[f64],
        dist: &dyn Distance,
        rows: std::ops::Range<usize>,
        kbs: &mut [KBest],
        caps: Option<&[f64]>,
        perm: Option<&[u32]>,
    ) {
        let dim = self.coll.dim();
        let nq = kbs.len();
        let mut keys = vec![0.0f64; nq * BLOCK_ROWS];
        let mut bounds = vec![f64::INFINITY; nq];
        let mut start = rows.start;
        let mut tally = ScanStats::default();
        while start < rows.end {
            let end = (start + BLOCK_ROWS).min(rows.end);
            let n = end - start;
            tally.rows_visited += n as u64;
            let block = self.coll.block(start, end);
            for (q, (b, kb)) in bounds.iter_mut().zip(kbs.iter()).enumerate() {
                *b = kb.threshold().min(cap_of(caps, q));
            }
            dist.eval_key_multi(flat_queries, block, dim, &bounds, &mut keys[..nq * n]);
            let mut block_abandoned = false;
            for (q, kb) in kbs.iter_mut().enumerate() {
                for (offset, &key) in keys[q * n..(q + 1) * n].iter().enumerate() {
                    // Capped pruning can abandon rows before the k-best
                    // is full; keep their partial-sum keys (> bound)
                    // out of the heap.
                    if key <= bounds[q] {
                        let idx = start + offset;
                        kb.push(perm.map_or(idx as u32, |p| p[idx]), key);
                    } else {
                        block_abandoned = true;
                    }
                }
            }
            tally.blocks_abandoned += block_abandoned as u64;
            start = end;
        }
        self.record_stats(tally);
    }

    /// Shared-metric f32 phase-1 over one contiguous index range of the
    /// mirror: every row whose f32 key lands under its query's admission
    /// bound `admit(min(ceiling(T), cap))` (from the class's
    /// [`F32KeyBound`]) is recorded in that query's candidate list
    /// (`kbs` tracks f32 keys only to tighten the bounds as the pass
    /// advances).
    ///
    /// Why that bound keeps every true top-k row (per query; `τ32` = the
    /// k-th smallest f32 key, `K64` = the k-th smallest true f64 key):
    /// the running threshold `T` is the k-th best f32 key *pushed so
    /// far*, which never undershoots `τ32`, and the k rows realizing
    /// `τ32` each have `key64 ≤ ceiling(τ32) ≤ ceiling(T)`, so
    /// `K64 ≤ min(ceiling(T), cap)`. A true top-k row (ties included)
    /// has `key32 ≤ admit(key64) ≤ admit(K64)`, both maps being
    /// increasing, so it sits under the bound: its monotone f32 prefix
    /// sums never exceed its final `key32`, so the kernel cannot abandon
    /// it, and the `key32 ≤ bound` filter admits it into `cands` (with
    /// its f32 key, so [`filter_candidates`] can re-apply the same test
    /// against the *final* — tightest — threshold before the rescore
    /// pays any scattered f64 reads).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_range_shared_f32(
        &self,
        flat_q32: &[f32],
        dist: &dyn Distance,
        bound: F32KeyBound,
        rows: std::ops::Range<usize>,
        kbs: &mut [KBest],
        cands: &mut [Vec<(u32, f32)>],
        caps: Option<&[f64]>,
    ) {
        let dim = self.coll.dim();
        let nq = kbs.len();
        let mut keys = vec![0.0f32; nq * BLOCK_ROWS];
        let mut bounds64 = vec![f64::INFINITY; nq];
        let mut bounds32 = vec![f32::INFINITY; nq];
        let mut start = rows.start;
        let mut tally = ScanStats::default();
        while start < rows.end {
            let end = (start + BLOCK_ROWS).min(rows.end);
            let n = end - start;
            tally.rows_visited += n as u64;
            let block = self
                .coll
                .block_f32(start, end)
                .expect("f32 path requires the mirror");
            for (q, ((b64, b32), kb)) in bounds64
                .iter_mut()
                .zip(bounds32.iter_mut())
                .zip(kbs.iter())
                .enumerate()
            {
                *b64 = phase1_bound(&bound, kb, cap_of(caps, q));
                *b32 = f32_bound_up(*b64);
            }
            dist.eval_key_multi_f32(flat_q32, block, dim, &bounds32, &mut keys[..nq * n]);
            let mut block_abandoned = false;
            for (q, (kb, cand)) in kbs.iter_mut().zip(cands.iter_mut()).enumerate() {
                for (offset, &key) in keys[q * n..(q + 1) * n].iter().enumerate() {
                    if (key as f64) <= bounds64[q] {
                        cand.push(((start + offset) as u32, key));
                        kb.push((start + offset) as u32, key as f64);
                    } else {
                        block_abandoned = true;
                    }
                }
            }
            tally.blocks_abandoned += block_abandoned as u64;
            start = end;
        }
        self.record_stats(tally);
    }

    /// Per-query-metric f32 phase-1: one shared mirror-block read, one
    /// f32 batch kernel call per (query, block), each query pruned by
    /// its own class's admission bound (same containment argument as
    /// [`Self::scan_range_shared_f32`], per query).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_range_per_query_f32(
        &self,
        q32s: &[Vec<f32>],
        dists: &[&dyn Distance],
        bounds: &[F32KeyBound],
        rows: std::ops::Range<usize>,
        kbs: &mut [KBest],
        cands: &mut [Vec<(u32, f32)>],
        caps: Option<&[f64]>,
    ) {
        let dim = self.coll.dim();
        let mut keys = [0.0f32; BLOCK_ROWS];
        let mut start = rows.start;
        let mut tally = ScanStats::default();
        while start < rows.end {
            let end = (start + BLOCK_ROWS).min(rows.end);
            let n = end - start;
            tally.rows_visited += n as u64;
            let block = self
                .coll
                .block_f32(start, end)
                .expect("f32 path requires the mirror");
            let mut block_abandoned = false;
            for (q, ((q32, d), (kb, cand))) in q32s
                .iter()
                .zip(dists.iter())
                .zip(kbs.iter_mut().zip(cands.iter_mut()))
                .enumerate()
            {
                let bound64 = phase1_bound(&bounds[q], kb, cap_of(caps, q));
                d.eval_key_batch_f32(q32, block, dim, f32_bound_up(bound64), &mut keys[..n]);
                for (offset, &key) in keys[..n].iter().enumerate() {
                    if (key as f64) <= bound64 {
                        cand.push(((start + offset) as u32, key));
                        kb.push((start + offset) as u32, key as f64);
                    } else {
                        block_abandoned = true;
                    }
                }
            }
            tally.blocks_abandoned += block_abandoned as u64;
            start = end;
        }
        self.record_stats(tally);
    }

    /// Per-query-metric blocked pass: one shared block read, one
    /// single-query batch kernel call per (query, block) on the hot
    /// block. `perm` as on [`Self::scan_range_shared`].
    pub(crate) fn scan_range_per_query(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        rows: std::ops::Range<usize>,
        kbs: &mut [KBest],
        caps: Option<&[f64]>,
        perm: Option<&[u32]>,
    ) {
        let dim = self.coll.dim();
        let mut keys = [0.0f64; BLOCK_ROWS];
        let mut start = rows.start;
        let mut tally = ScanStats::default();
        while start < rows.end {
            let end = (start + BLOCK_ROWS).min(rows.end);
            let n = end - start;
            tally.rows_visited += n as u64;
            let block = self.coll.block(start, end);
            let mut block_abandoned = false;
            for (qi, ((q, d), kb)) in queries
                .iter()
                .zip(dists.iter())
                .zip(kbs.iter_mut())
                .enumerate()
            {
                let bound = kb.threshold().min(cap_of(caps, qi));
                d.eval_key_batch(q, block, dim, bound, &mut keys[..n]);
                for (offset, &key) in keys[..n].iter().enumerate() {
                    if key <= bound {
                        let idx = start + offset;
                        kb.push(perm.map_or(idx as u32, |p| p[idx]), key);
                    } else {
                        block_abandoned = true;
                    }
                }
            }
            tally.blocks_abandoned += block_abandoned as u64;
            start = end;
        }
        self.record_stats(tally);
    }

    /// Parallel driver shared by both entry points: fan contiguous row
    /// chunks out to worker threads, each carrying a private k-best per
    /// query, then fold every thread's candidates through one final
    /// k-best per query by ascending `(key, index)` — deterministic
    /// regardless of thread count, chunk boundaries or completion order,
    /// and identical to what the single-threaded pass selects.
    fn parallel_merge(
        &self,
        ks: &[usize],
        scan_chunk: &(dyn Fn(std::ops::Range<usize>, &mut [KBest]) + Sync),
    ) -> Vec<KBest> {
        let len = self.coll.len();
        let threads = scan_threads(self.thread_budget, len.div_ceil(BLOCK_ROWS));
        if threads == 1 {
            let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
            scan_chunk(0..len, &mut kbs);
            return kbs;
        }
        let chunk = len.div_ceil(threads);
        let mut per_thread: Vec<Vec<Vec<(f64, u32)>>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(len);
                    scope.spawn(move || {
                        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                        scan_chunk(lo..hi, &mut kbs);
                        kbs.iter()
                            .map(|kb| {
                                let mut entries: Vec<(f64, u32)> = kb.entries().collect();
                                entries.sort_unstable_by(|a, b| {
                                    a.0.partial_cmp(&b.0)
                                        .expect("non-finite key")
                                        .then(a.1.cmp(&b.1))
                                });
                                entries
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().expect("multi-scan worker panicked"));
            }
        });
        let mut merged: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        for thread_entries in per_thread {
            for (kb, entries) in merged.iter_mut().zip(thread_entries) {
                fold_sorted(kb, entries);
            }
        }
        merged
    }

    /// Phase-1 driver for the f32 paths over the whole collection: one
    /// chunk in Batched mode, contiguous row chunks fanned out over
    /// worker threads in Parallel mode. Returns one f32 k-best and one
    /// `(index, key32)` candidate pool per query; worker k-bests fold
    /// into one by ascending `(key, index)`, so the merged threshold is
    /// the k-th smallest f32 key of the whole collection whatever the
    /// chunking, and [`filter_candidates`] then keeps exactly the rows
    /// under the final admission bound — the pool handed to the rescore
    /// does not depend on the thread count. (Every worker admitted
    /// against its chunk-local, hence looser, bounds, so no row under
    /// the final bound is missing from the concatenated pools.)
    fn phase1_candidates(
        &self,
        ks: &[usize],
        mode: ScanMode,
        scan_chunk: &F32ChunkScan<'_>,
    ) -> (Vec<KBest>, Vec<Vec<(u32, f32)>>) {
        let len = self.coll.len();
        let nq = ks.len();
        let threads = match mode {
            ScanMode::Batched => 1,
            ScanMode::Parallel => scan_threads(self.thread_budget, len.div_ceil(BLOCK_ROWS)),
            _ => unreachable!("f32 path only runs in kernel modes"),
        };
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut cands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
        if threads == 1 {
            scan_chunk(0..len, &mut kbs, &mut cands);
            return (kbs, cands);
        }
        let chunk = len.div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(len);
                    scope.spawn(move || {
                        let mut wkbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                        let mut wcands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
                        scan_chunk(lo..hi, &mut wkbs, &mut wcands);
                        let entries: Vec<Vec<(f64, u32)>> =
                            wkbs.into_iter().map(KBest::into_sorted_entries).collect();
                        (entries, wcands)
                    })
                })
                .collect();
            for h in handles {
                // Chunks are disjoint and joined in spawn order, so the
                // concatenation stays sorted by index per query.
                let (entries, wcands) = h.join().expect("multi-scan worker panicked");
                for ((kb, cand), (thread_entries, thread_cands)) in kbs
                    .iter_mut()
                    .zip(cands.iter_mut())
                    .zip(entries.into_iter().zip(wcands))
                {
                    cand.extend(thread_cands);
                    fold_sorted(kb, thread_entries);
                }
            }
        });
        (kbs, cands)
    }
}

/// Fold ascending `(key, index)` entries into `kb`, stopping at the
/// first that can no longer enter.
pub(crate) fn fold_sorted(kb: &mut KBest, entries: Vec<(f64, u32)>) {
    for (key, index) in entries {
        if key > kb.threshold() {
            break; // sorted: the rest can't enter
        }
        kb.push(index, key);
    }
}

/// Final candidate filter between the phases: re-apply the admission
/// test `key32 ≤ admit(min(ceiling(T), cap))` with each query's
/// **final** phase-1 threshold `T`. During the pass, candidates are
/// admitted against whatever (looser) threshold was current — the first
/// block alone admits every row — so most of the pool is stale by the
/// end. The final threshold is the k-th smallest f32 key pushed, which
/// never undershoots the true k-th smallest f32 key, so the argument on
/// [`MultiQueryScan::scan_range_shared_f32`] applies verbatim and the
/// filtered pool still contains the true f64 top-k — while the rescore
/// now gathers ~k scattered rows instead of hundreds.
pub(crate) fn filter_candidates(
    kbs: &[KBest],
    bounds: &[F32KeyBound],
    cands: Vec<Vec<(u32, f32)>>,
    caps: Option<&[f64]>,
    stats: Option<&ScanStatsSink>,
) -> Vec<Vec<u32>> {
    let mut tally = ScanStats::default();
    let kept: Vec<Vec<u32>> = kbs
        .iter()
        .zip(bounds.iter())
        .zip(cands)
        .enumerate()
        .map(|(q, ((kb, bound), cand))| {
            let limit = phase1_bound(bound, kb, cap_of(caps, q));
            let pool = cand.len() as u64;
            let survivors: Vec<u32> = cand
                .into_iter()
                .filter(|&(_, key)| (key as f64) <= limit)
                .map(|(i, _)| i)
                .collect();
            tally.candidates_rescored += survivors.len() as u64;
            tally.candidates_filtered += pool - survivors.len() as u64;
            survivors
        })
        .collect();
    if let Some(sink) = stats {
        sink.record(&tally);
    }
    kept
}

/// Query `q`'s pruning cap: a caller-guaranteed upper bound on the
/// true global k-th key, or `+∞` when no caps were provided. Taking
/// `min(running threshold, cap)` everywhere a bound is formed can only
/// drop rows that cannot appear in the merged global top-k, which is
/// the entire soundness argument for cross-shard bound propagation.
#[inline]
pub(crate) fn cap_of(caps: Option<&[f64]>, q: usize) -> f64 {
    caps.map_or(f64::INFINITY, |c| c[q])
}

/// Concatenate query slices into the row-major layout the multi-query
/// kernels consume.
pub(crate) fn flatten(queries: &[&[f64]]) -> Vec<f64> {
    let mut flat = Vec::with_capacity(queries.len() * queries.first().map_or(0, |q| q.len()));
    for q in queries {
        flat.extend_from_slice(q);
    }
    flat
}

/// Same, rounded once to the f32 layout the mirror kernels consume.
pub(crate) fn flatten_f32(queries: &[&[f64]]) -> Vec<f32> {
    let mut flat = Vec::with_capacity(queries.len() * queries.first().map_or(0, |q| q.len()));
    for q in queries {
        flat.extend(q.iter().map(|&v| v as f32));
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::super::{KnnEngine, LinearScan};
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::distance::{Euclidean, WeightedEuclidean};

    fn pseudo_random_collection(n: usize, dim: usize) -> Collection {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut b = CollectionBuilder::new();
        for _ in 0..n {
            let v: Vec<f64> = (0..dim).map(|_| next()).collect();
            b.push_unlabelled(&v).unwrap();
        }
        b.build()
    }

    fn sample_queries(nq: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..nq)
            .map(|q| {
                (0..dim)
                    .map(|i| ((q * 13 + i * 7) as f64 * 0.37).sin().abs())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn multi_matches_independent_scans_all_modes() {
        let c = pseudo_random_collection(900, 24);
        let queries = sample_queries(4, 24);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let w = WeightedEuclidean::new((0..24).map(|i| 0.2 + (i % 5) as f64).collect()).unwrap();
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode).knn_multi(&refs, 7, &w);
            let single = LinearScan::with_mode(&c, mode);
            for (q, res) in refs.iter().zip(multi.iter()) {
                assert_eq!(res, &single.knn(q, 7, &w), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn per_query_metrics_match_independent_scans() {
        let c = pseudo_random_collection(700, 16);
        let queries = sample_queries(3, 16);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let metrics: Vec<WeightedEuclidean> = (0..3)
            .map(|q| {
                WeightedEuclidean::new((0..16).map(|i| 0.3 + ((q + i) % 4) as f64).collect())
                    .unwrap()
            })
            .collect();
        let dists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode).knn_per_query(&refs, &dists, 5);
            for ((q, d), res) in refs.iter().zip(metrics.iter()).zip(multi.iter()) {
                let expect = LinearScan::with_mode(&c, ScanMode::Batched).knn(q, 5, d);
                assert_eq!(res, &expect, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let c = pseudo_random_collection(50, 4);
        let scan = MultiQueryScan::new(&c);
        assert!(scan.knn_multi(&[], 3, &Euclidean).is_empty());
        let empty = CollectionBuilder::new().build();
        let scan = MultiQueryScan::new(&empty);
        let q: &[f64] = &[];
        let res = scan.knn_multi(&[q, q], 3, &Euclidean);
        assert_eq!(res, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn k_zero_and_k_oversized() {
        let c = pseudo_random_collection(30, 6);
        let queries = sample_queries(2, 6);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let scan = MultiQueryScan::with_mode(&c, ScanMode::Batched);
        for res in scan.knn_multi(&refs, 0, &Euclidean) {
            assert!(res.is_empty());
        }
        for res in scan.knn_multi(&refs, 100, &Euclidean) {
            assert_eq!(res.len(), 30);
            for w in res.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn per_query_k_matches_independent_scans() {
        let c = pseudo_random_collection(900, 24);
        let queries = sample_queries(3, 24);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let ks = [1usize, 10, 50];
        let w = WeightedEuclidean::new((0..24).map(|i| 0.2 + (i % 5) as f64).collect()).unwrap();
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode).knn_multi_k(&refs, &ks, &w);
            let single = LinearScan::with_mode(&c, mode);
            for ((q, res), &k) in refs.iter().zip(multi.iter()).zip(ks.iter()) {
                assert_eq!(res.len(), k, "mode {mode:?}");
                assert_eq!(res, &single.knn(q, k, &w), "mode {mode:?} k={k}");
            }
        }
        // Per-query metrics with per-query k share the same pass.
        let metrics: Vec<WeightedEuclidean> = (0..3)
            .map(|q| {
                WeightedEuclidean::new((0..24).map(|i| 0.3 + ((q + i) % 4) as f64).collect())
                    .unwrap()
            })
            .collect();
        let dists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode).knn_per_query_k(&refs, &dists, &ks);
            for (((q, d), res), &k) in refs
                .iter()
                .zip(metrics.iter())
                .zip(multi.iter())
                .zip(ks.iter())
            {
                let expect = LinearScan::with_mode(&c, ScanMode::Batched).knn(q, k, d);
                assert_eq!(res, &expect, "mode {mode:?} k={k}");
            }
        }
    }

    #[test]
    fn weighted_per_query_matches_generic_and_linear() {
        let c = pseudo_random_collection(900, 24);
        let queries = sample_queries(5, 24);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let metrics: Vec<WeightedEuclidean> = (0..5)
            .map(|q| {
                WeightedEuclidean::new((0..24).map(|i| 0.3 + ((q + i) % 4) as f64).collect())
                    .unwrap()
            })
            .collect();
        let dists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
        let ks = [1usize, 10, 50, 7, 3];
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let scan = MultiQueryScan::with_mode(&c, mode);
            let specialized = scan.knn_weighted_per_query_k(&refs, &metrics, &ks);
            let generic = scan.knn_per_query_k(&refs, &dists, &ks);
            assert_eq!(specialized, generic, "mode {mode:?}");
            for ((q, m), (res, &k)) in refs
                .iter()
                .zip(metrics.iter())
                .zip(specialized.iter().zip(ks.iter()))
            {
                // Same-mode LinearScan: Scalar is the 1-ulp reference
                // baseline, the kernel modes are bit-identical to each
                // other.
                let expect = LinearScan::with_mode(&c, mode).knn(q, k, m);
                assert_eq!(res, &expect, "mode {mode:?} k={k}");
            }
        }
        // Empty inputs and empty collections behave like the generic
        // path.
        let scan = MultiQueryScan::new(&c);
        assert!(scan.knn_weighted_per_query_k(&[], &[], &[]).is_empty());
        let empty = CollectionBuilder::new().build();
        let scan = MultiQueryScan::new(&empty);
        let q: &[f64] = &[];
        let m = [WeightedEuclidean::uniform(0)];
        assert_eq!(
            scan.knn_weighted_per_query_k(&[q], &m[..1], &[3]),
            vec![Vec::new()]
        );
    }

    #[test]
    fn auto_mode_scales_with_query_count() {
        // A collection too small to go parallel for one query crosses the
        // cutoff once enough queries share the pass.
        let c = pseudo_random_collection(400, 16); // 6400 components/query
        let scan = MultiQueryScan::new(&c);
        assert_eq!(scan.effective_mode(1), ScanMode::Batched);
        assert_eq!(scan.effective_mode(16), ScanMode::Parallel);
    }

    #[test]
    fn thread_budget_is_respected_and_exact() {
        let c = pseudo_random_collection(2000, 12);
        let queries = sample_queries(5, 12);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let unbudgeted = MultiQueryScan::with_mode(&c, ScanMode::Parallel);
        let budgeted = MultiQueryScan::with_mode(&c, ScanMode::Parallel).with_thread_budget(2);
        let one = MultiQueryScan::with_mode(&c, ScanMode::Parallel).with_thread_budget(1);
        let a = unbudgeted.knn_multi(&refs, 9, &Euclidean);
        let b = budgeted.knn_multi(&refs, 9, &Euclidean);
        let c2 = one.knn_multi(&refs, 9, &Euclidean);
        assert_eq!(a, b);
        assert_eq!(a, c2);
    }

    #[test]
    fn stats_count_per_query_evals() {
        let c = pseudo_random_collection(40, 4);
        let queries = sample_queries(3, 4);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let (_, stats) = MultiQueryScan::new(&c).knn_multi_with_stats(&refs, 2, &Euclidean);
        assert_eq!(stats.distance_evals, 120);
        assert_eq!(stats.nodes_visited, 0);
    }
}
