//! Proof-based partition pruning: sub-linear scans that stay
//! bit-identical to the flat pass.
//!
//! A [`PartitionedScan`] runs the same selection the flat
//! [`MultiQueryScan`] runs — same kernels, same key spaces, same
//! `(key, index)` tie-breaks, same `F32Rescore` two-phase machinery,
//! same `caps` seeding — but walks the collection partition by
//! partition (the [`PartitionedCollection`] layout is
//! partition-contiguous, so each surviving partition is one contiguous
//! block scan) and **skips** any partition whose per-class key-space
//! lower bound ([`Distance::partition_lower_key`]) exceeds every
//! query's running selection bound.
//!
//! # Invariant: pruning is answer-transparent
//!
//! A partition is skipped only when, for **every** query, a sound
//! certificate proves no member row can enter that query's k-best:
//!
//! * f64 paths — skip for query `q` iff `lb > min(threshold_q, cap_q)`
//!   (strictly greater, so key ties at the bound survive). Every member
//!   key is ≥ `lb`, the running threshold never undershoots the final
//!   k-th key, and `cap_q` is caller-guaranteed sound — so a skipped
//!   member could never displace a result.
//! * f32 phase-1 — the running threshold `t` lives in f32-key space,
//!   while `lb` is exact. `t` never undershoots `τ32` (the true k-th
//!   f32 key), and the k rows realizing `τ32` each have
//!   `key64 ≤ ceiling(τ32)` (the class's [`F32KeyBound::ceiling`]), so
//!   `τ64 ≤ ceiling(t)`: skip iff `lb > min(ceiling(t), cap_q)`. Skipped
//!   members have `key64 ≥ lb > τ64`, hence are not in the true top-k,
//!   and the surviving candidate pool keeps the same superset guarantee
//!   the flat f32 pass proves.
//! * Queries whose class reports no sound bound (`None`) never prune
//!   anything — they force the flat pass over every partition, per
//!   class and explicitly. `k = 0` queries need nothing and always
//!   "agree" to skip.
//!
//! Because the partitioned pass pushes **original** row indices during
//! selection (via the layout's permutation) and a k-best's content is
//! insertion-order-independent, visit order — and therefore the
//! ascending-lower-bound order used to tighten thresholds early — can
//! never change an answer. The bit-identity suite
//! (`crates/vecdb/tests/partitioned.rs`) pins all of this against the
//! flat scans.

use super::multi::{cap_of, filter_candidates, flatten, flatten_f32, fold_sorted, KeyedResults};
use super::stats::{ScanStats, ScanStatsSink};
use super::{
    finish_entries, rescore_f64_keyed, scan_threads, KBest, MultiQueryScan, Neighbor, Precision,
    ScanMode, BLOCK_ROWS, PARALLEL_CUTOFF,
};
use crate::collection::PartitionedCollection;
use crate::distance::{Distance, F32KeyBound, WeightedEuclidean};

/// Chunk scanner of the f64 merge path: scan `rows`, folding hits into
/// the running k-bests under the optional per-query caps.
type MergeChunk<'f> = dyn Fn(std::ops::Range<usize>, &mut [KBest], Option<&[f64]>) + Sync + 'f;

/// Chunk scanner of the f32 phase-1 path: additionally collects the
/// per-query `(inner index, f32 key)` candidate pools for the rescore.
type CandidateChunk<'f> = dyn Fn(std::ops::Range<usize>, &mut [KBest], &mut [Vec<(u32, f32)>], Option<&[f64]>)
    + Sync
    + 'f;

/// Partition-pruning k-NN engine borrowing a [`PartitionedCollection`].
///
/// Configuration mirrors [`MultiQueryScan`]; results are bit-identical
/// to the flat scan over the source collection in every configuration
/// (see the module docs for the invariant). `ScanMode::Scalar` is the
/// reference baseline and never prunes.
#[derive(Debug, Clone, Copy)]
pub struct PartitionedScan<'a> {
    part: &'a PartitionedCollection,
    mode: ScanMode,
    precision: Precision,
    thread_budget: Option<usize>,
    stats: Option<&'a ScanStatsSink>,
}

impl<'a> PartitionedScan<'a> {
    /// New engine over `part` with [`ScanMode::Auto`].
    pub fn new(part: &'a PartitionedCollection) -> Self {
        PartitionedScan {
            part,
            mode: ScanMode::Auto,
            precision: Precision::F64,
            thread_budget: None,
            stats: None,
        }
    }

    /// New engine with an explicit execution mode.
    pub fn with_mode(part: &'a PartitionedCollection, mode: ScanMode) -> Self {
        PartitionedScan {
            mode,
            ..Self::new(part)
        }
    }

    /// Select the scan precision (same degrade rules as
    /// [`MultiQueryScan::with_precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Cap the parallel path at `threads` worker threads (at least 1).
    pub fn with_thread_budget(mut self, threads: usize) -> Self {
        self.thread_budget = Some(threads.max(1));
        self
    }

    /// Flush this scan's work counters into `sink` — including the new
    /// [`ScanStats::partitions_pruned`], the sub-linearity witness.
    pub fn with_scan_stats(mut self, sink: &'a ScanStatsSink) -> Self {
        self.stats = Some(sink);
        self
    }

    /// The underlying partitioned collection.
    pub fn partitions(&self) -> &'a PartitionedCollection {
        self.part
    }

    /// The configured precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The inner (reordered) flat scan with this engine's precision,
    /// budget and stats sink: the partitioned pass drives its
    /// range-scan primitives directly, so every per-row code path is
    /// *the* flat code path.
    fn inner_scan(&self) -> MultiQueryScan<'a> {
        let mut scan = MultiQueryScan::with_mode(self.part.collection(), ScanMode::Batched)
            .with_precision(self.precision);
        if let Some(budget) = self.thread_budget {
            scan = scan.with_thread_budget(budget);
        }
        if let Some(sink) = self.stats {
            scan = scan.with_scan_stats(sink);
        }
        scan
    }

    fn record_stats(&self, tally: ScanStats) {
        if let Some(sink) = self.stats {
            sink.record(&tally);
        }
    }

    fn record_seeded_pass(&self, caps: Option<&[f64]>) {
        if self.stats.is_some() && caps.is_some_and(|c| c.iter().any(|v| v.is_finite())) {
            self.record_stats(ScanStats {
                seed_prunes: 1,
                ..Default::default()
            });
        }
    }

    /// Same Auto resolution as the flat scan (total work across the
    /// whole collection — pruning-dependent savings are unknowable
    /// up front).
    fn effective_mode(&self, nq: usize) -> ScanMode {
        match self.mode {
            ScanMode::Auto => {
                if self.part.len() * self.part.dim().max(1) * nq.max(1) >= PARALLEL_CUTOFF {
                    ScanMode::Parallel
                } else {
                    ScanMode::Batched
                }
            }
            m => m,
        }
    }

    /// Per-(partition, query) key-space lower bounds, row-major by
    /// partition (`lbs[p · nq + q]`). `None` ⇔ query `q`'s class
    /// certifies no bound and can never prune partition `p`.
    fn partition_lower_bounds(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
    ) -> Vec<Option<f64>> {
        let p_count = self.part.partition_count();
        let nq = queries.len();
        let mut lbs = Vec::with_capacity(p_count * nq);
        for p in 0..p_count {
            let centroid = self.part.centroid(p);
            let radius = self.part.radius(p);
            for (q, d) in queries.iter().zip(dists.iter()) {
                lbs.push(if self.part.rows(p).is_empty() {
                    None // empty partitions are skipped, not "pruned"
                } else {
                    d.partition_lower_key(q, centroid, radius)
                });
            }
        }
        lbs
    }

    /// Partition visit order: ascending by the min-over-queries lower
    /// bound (unboundable queries sort a partition first). Visiting
    /// likely-near partitions first tightens every threshold as early
    /// as possible, maximizing later prunes; by the module invariant
    /// the order itself can never change an answer.
    fn visit_order(&self, lbs: &[Option<f64>], nq: usize) -> Vec<usize> {
        let p_count = self.part.partition_count();
        let sort_key = |p: usize| {
            lbs[p * nq..(p + 1) * nq]
                .iter()
                .map(|lb| lb.unwrap_or(f64::NEG_INFINITY))
                .fold(f64::INFINITY, f64::min)
        };
        let mut order: Vec<usize> = (0..p_count).collect();
        order.sort_unstable_by(|&a, &b| {
            sort_key(a)
                .partial_cmp(&sort_key(b))
                .expect("lower bounds are never NaN")
                .then(a.cmp(&b))
        });
        order
    }

    /// Whether every query proves partition slice `lbs_p` skippable on
    /// the f64 path: `lb > min(threshold, cap)`, strictly (ties at the
    /// bound must survive); `k = 0` needs nothing; `None` never prunes.
    fn all_prune_f64(
        lbs_p: &[Option<f64>],
        ks: &[usize],
        kbs: &[KBest],
        caps: Option<&[f64]>,
    ) -> bool {
        lbs_p.iter().enumerate().all(|(q, lb)| {
            ks[q] == 0 || lb.is_some_and(|l| l > kbs[q].threshold().min(cap_of(caps, q)))
        })
    }

    /// f32-phase-1 variant: the running threshold is in f32-key space,
    /// so the sound comparison is `lb > min(ceiling(t), cap)` (module
    /// docs).
    fn all_prune_f32(
        lbs_p: &[Option<f64>],
        ks: &[usize],
        kbs: &[KBest],
        bounds: &[F32KeyBound],
        caps: Option<&[f64]>,
    ) -> bool {
        lbs_p.iter().enumerate().all(|(q, lb)| {
            ks[q] == 0
                || lb
                    .is_some_and(|l| l > bounds[q].ceiling(kbs[q].threshold()).min(cap_of(caps, q)))
        })
    }

    /// The `k` nearest neighbors of every query under one shared
    /// metric — flat-scan semantics ([`MultiQueryScan::knn_multi`]),
    /// partition-pruned execution.
    pub fn knn_multi(
        &self,
        queries: &[&[f64]],
        k: usize,
        dist: &dyn Distance,
    ) -> Vec<Vec<Neighbor>> {
        self.knn_multi_k(queries, &vec![k; queries.len()], dist)
    }

    /// Per-query result counts under one shared metric
    /// ([`MultiQueryScan::knn_multi_k`] semantics).
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

    /// Per-query metrics ([`MultiQueryScan::knn_per_query`] semantics).
    pub fn knn_per_query(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        self.knn_per_query_k(queries, dists, &vec![k; queries.len()])
    }

    /// Per-query metrics and result counts
    /// ([`MultiQueryScan::knn_per_query_k`] semantics).
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

    /// Per-query weighted-Euclidean metrics
    /// ([`MultiQueryScan::knn_weighted_per_query_k`] semantics). The
    /// partitioned pass lowers to the generic per-query path — the
    /// per-(query, row) key arithmetic is identical in every kernel
    /// shape, so results stay bit-identical to the flat weighted entry.
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

    /// Selection-space shared-metric pass with pruning seeds (`caps` as
    /// on [`MultiQueryScan::knn_multi_k_keyed`]) — the sharded scatter
    /// stage's entry, so delivered partials seed partition bounds too.
    pub(crate) fn knn_multi_k_keyed(
        &self,
        queries: &[&[f64]],
        ks: &[usize],
        dist: &dyn Distance,
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        assert_eq!(queries.len(), ks.len(), "one k per query");
        if queries.is_empty() || self.part.is_empty() {
            return KeyedResults {
                entries: vec![Vec::new(); queries.len()],
                finished: true,
            };
        }
        let dim = self.part.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimensionality mismatch");
        }
        self.record_seeded_pass(caps);
        let mode = self.effective_mode(queries.len());
        if mode == ScanMode::Scalar {
            return self.scalar_reference(queries, ks, &vec![dist; queries.len()], caps);
        }
        let dists = vec![dist; queries.len()];
        let lbs = self.partition_lower_bounds(queries, &dists);
        let order = self.visit_order(&lbs, queries.len());
        let inner = self.inner_scan();
        if let Some(bound) = inner.f32_key_bound(dist, queries) {
            let flat32 = flatten_f32(queries);
            let bounds = vec![bound; ks.len()];
            let cands = self.pruned_candidates(
                &lbs,
                &order,
                ks,
                &bounds,
                caps,
                mode,
                &|range, kbs, cands, caps| {
                    inner.scan_range_shared_f32(&flat32, dist, bound, range, kbs, cands, caps)
                },
            );
            return self.rescore(queries, &dists, ks, &cands);
        }
        let flat = flatten(queries);
        let kbs = self.pruned_merge(&lbs, &order, ks, caps, mode, &|range, kbs, caps| {
            inner.scan_range_shared(&flat, dist, range, kbs, caps, Some(self.part.perm()))
        });
        KeyedResults {
            entries: kbs.into_iter().map(KBest::into_sorted_entries).collect(),
            finished: false,
        }
    }

    /// Selection-space per-query-metric pass with pruning seeds
    /// ([`MultiQueryScan::knn_per_query_k_keyed`] semantics).
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
        if queries.is_empty() || self.part.is_empty() {
            return KeyedResults {
                entries: vec![Vec::new(); queries.len()],
                finished: true,
            };
        }
        let dim = self.part.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimensionality mismatch");
        }
        self.record_seeded_pass(caps);
        let mode = self.effective_mode(queries.len());
        if mode == ScanMode::Scalar {
            return self.scalar_reference(queries, ks, dists, caps);
        }
        let lbs = self.partition_lower_bounds(queries, dists);
        let order = self.visit_order(&lbs, queries.len());
        let inner = self.inner_scan();
        // All-or-nothing f32 engagement, exactly like the flat scan.
        let bounds: Option<Vec<F32KeyBound>> = dists
            .iter()
            .map(|d| inner.f32_key_bound(*d, queries))
            .collect();
        if let Some(bounds) = bounds {
            let q32s: Vec<Vec<f32>> = queries
                .iter()
                .map(|q| q.iter().map(|&v| v as f32).collect())
                .collect();
            let cands = self.pruned_candidates(
                &lbs,
                &order,
                ks,
                &bounds,
                caps,
                mode,
                &|range, kbs, cands, caps| {
                    inner.scan_range_per_query_f32(&q32s, dists, &bounds, range, kbs, cands, caps)
                },
            );
            return self.rescore(queries, dists, ks, &cands);
        }
        let kbs = self.pruned_merge(&lbs, &order, ks, caps, mode, &|range, kbs, caps| {
            inner.scan_range_per_query(queries, dists, range, kbs, caps, Some(self.part.perm()))
        });
        KeyedResults {
            entries: kbs.into_iter().map(KBest::into_sorted_entries).collect(),
            finished: false,
        }
    }

    /// Selection-space weighted per-query pass
    /// ([`MultiQueryScan::knn_weighted_per_query_k_keyed`] semantics,
    /// lowered to the generic per-query path — bit-identical).
    pub(crate) fn knn_weighted_per_query_k_keyed(
        &self,
        queries: &[&[f64]],
        metrics: &[&WeightedEuclidean],
        ks: &[usize],
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        let dists: Vec<&dyn Distance> = metrics.iter().map(|m| *m as &dyn Distance).collect();
        self.knn_per_query_k_keyed(queries, &dists, ks, caps)
    }

    /// The Scalar reference pass: a flat, pruning-free loop pushing
    /// true distances under **original** indices (`finished = true`),
    /// exactly matching the flat scan's Scalar baseline — the anchor
    /// every pruned configuration is compared against.
    fn scalar_reference(
        &self,
        queries: &[&[f64]],
        ks: &[usize],
        dists: &[&dyn Distance],
        caps: Option<&[f64]>,
    ) -> KeyedResults {
        let coll = self.part.collection();
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        for i in 0..coll.len() {
            let row = coll.vector(i);
            let orig = self.part.original_index(i);
            for (qi, ((q, d), kb)) in queries
                .iter()
                .zip(dists.iter())
                .zip(kbs.iter_mut())
                .enumerate()
            {
                let dist = d.eval(q, row);
                if dist <= cap_of(caps, qi) {
                    kb.push(orig, dist);
                }
            }
        }
        self.record_stats(ScanStats {
            rows_visited: coll.len() as u64,
            ..Default::default()
        });
        KeyedResults {
            entries: kbs.into_iter().map(KBest::into_sorted_entries).collect(),
            finished: true,
        }
    }

    /// f64 driver: walk partitions in `order`, skip proven-empty ones,
    /// scan survivors through `scan_chunk` (which pushes original
    /// indices), fanning large partitions out over threads in Parallel
    /// mode. Returns the running k-bests (original indices, key space).
    fn pruned_merge(
        &self,
        lbs: &[Option<f64>],
        order: &[usize],
        ks: &[usize],
        caps: Option<&[f64]>,
        mode: ScanMode,
        scan_chunk: &MergeChunk<'_>,
    ) -> Vec<KBest> {
        let nq = ks.len();
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut tally = ScanStats::default();
        for &p in order {
            let rows = self.part.rows(p);
            if rows.is_empty() {
                continue;
            }
            if Self::all_prune_f64(&lbs[p * nq..(p + 1) * nq], ks, &kbs, caps) {
                tally.partitions_pruned += 1;
                continue;
            }
            if mode == ScanMode::Parallel {
                self.parallel_partition_merge(ks, caps, &mut kbs, rows, scan_chunk);
            } else {
                scan_chunk(rows, &mut kbs, caps);
            }
        }
        self.record_stats(tally);
        kbs
    }

    /// Fan one surviving partition's rows out over worker threads.
    /// Workers get fresh k-bests seeded by a snapshot cap
    /// `min(running threshold, cap)` — a sound upper bound on each
    /// query's final key at this point of the pass — and their sorted
    /// entries merge back into the running k-bests by ascending
    /// `(key, index)`: deterministic, and identical to what the
    /// sequential partition walk selects.
    fn parallel_partition_merge(
        &self,
        ks: &[usize],
        caps: Option<&[f64]>,
        kbs: &mut [KBest],
        rows: std::ops::Range<usize>,
        scan_chunk: &MergeChunk<'_>,
    ) {
        let len = rows.len();
        let threads = scan_threads(self.thread_budget, len.div_ceil(BLOCK_ROWS));
        if threads == 1 {
            scan_chunk(rows, kbs, caps);
            return;
        }
        let snapshot: Vec<f64> = kbs
            .iter()
            .enumerate()
            .map(|(q, kb)| kb.threshold().min(cap_of(caps, q)))
            .collect();
        let chunk = len.div_ceil(threads);
        let mut per_thread: Vec<Vec<Vec<(f64, u32)>>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = rows.start + t * chunk;
                    let hi = (lo + chunk).min(rows.end);
                    let snapshot = &snapshot;
                    scope.spawn(move || {
                        let mut wkbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                        scan_chunk(lo..hi, &mut wkbs, Some(snapshot));
                        wkbs.into_iter()
                            .map(KBest::into_sorted_entries)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().expect("partitioned-scan worker panicked"));
            }
        });
        for thread_entries in per_thread {
            for (kb, entries) in kbs.iter_mut().zip(thread_entries) {
                fold_sorted(kb, entries);
            }
        }
    }

    /// f32 phase-1 driver: walk partitions in `order` under the
    /// f32-space skip rule, collect candidate pools (inner-row indices
    /// — contiguous rescore gathers), then apply the final
    /// [`filter_candidates`] pass. The pool keeps the flat pass's
    /// superset guarantee, so the rescore pins exact answers.
    #[allow(clippy::too_many_arguments)]
    fn pruned_candidates(
        &self,
        lbs: &[Option<f64>],
        order: &[usize],
        ks: &[usize],
        bounds: &[F32KeyBound],
        caps: Option<&[f64]>,
        mode: ScanMode,
        scan_chunk: &CandidateChunk<'_>,
    ) -> Vec<Vec<u32>> {
        let nq = ks.len();
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut cands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
        let mut tally = ScanStats::default();
        for &p in order {
            let rows = self.part.rows(p);
            if rows.is_empty() {
                continue;
            }
            if Self::all_prune_f32(&lbs[p * nq..(p + 1) * nq], ks, &kbs, bounds, caps) {
                tally.partitions_pruned += 1;
                continue;
            }
            if mode == ScanMode::Parallel {
                self.parallel_partition_candidates(
                    ks, bounds, caps, &mut kbs, &mut cands, rows, scan_chunk,
                );
            } else {
                scan_chunk(rows, &mut kbs, &mut cands, caps);
            }
        }
        self.record_stats(tally);
        filter_candidates(&kbs, bounds, cands, caps, self.stats)
    }

    /// Parallel fan-out for one surviving partition of the f32 phase-1.
    /// Workers see the snapshot cap `min(ceiling(t), cap)` (sound on the
    /// true k-th f64 key — module docs), collect chunk-local candidate
    /// pools, and merge back in spawn order: pools concatenate (the
    /// rescore is order-independent) and worker k-best entries fold
    /// into the running f32 k-bests to keep later bounds tight.
    #[allow(clippy::too_many_arguments)]
    fn parallel_partition_candidates(
        &self,
        ks: &[usize],
        bounds: &[F32KeyBound],
        caps: Option<&[f64]>,
        kbs: &mut [KBest],
        cands: &mut [Vec<(u32, f32)>],
        rows: std::ops::Range<usize>,
        scan_chunk: &CandidateChunk<'_>,
    ) {
        let len = rows.len();
        let nq = ks.len();
        let threads = scan_threads(self.thread_budget, len.div_ceil(BLOCK_ROWS));
        if threads == 1 {
            scan_chunk(rows, kbs, cands, caps);
            return;
        }
        let snapshot: Vec<f64> = kbs
            .iter()
            .enumerate()
            .map(|(q, kb)| bounds[q].ceiling(kb.threshold()).min(cap_of(caps, q)))
            .collect();
        let chunk = len.div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = rows.start + t * chunk;
                    let hi = (lo + chunk).min(rows.end);
                    let snapshot = &snapshot;
                    scope.spawn(move || {
                        let mut wkbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                        let mut wcands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
                        scan_chunk(lo..hi, &mut wkbs, &mut wcands, Some(snapshot));
                        let entries: Vec<Vec<(f64, u32)>> =
                            wkbs.into_iter().map(KBest::into_sorted_entries).collect();
                        (entries, wcands)
                    })
                })
                .collect();
            for h in handles {
                let (entries, wcands) = h.join().expect("partitioned-scan worker panicked");
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
    }

    /// Phase 2: exact f64 rescore of the surviving candidates — gather
    /// by inner-row index, push under the original index (the
    /// permutation), identical to the flat rescore's key bits.
    fn rescore(
        &self,
        queries: &[&[f64]],
        dists: &[&dyn Distance],
        ks: &[usize],
        cands: &[Vec<u32>],
    ) -> KeyedResults {
        KeyedResults {
            entries: queries
                .iter()
                .zip(dists.iter().zip(ks.iter()))
                .zip(cands.iter())
                .map(|((q, (d, &k)), c)| {
                    rescore_f64_keyed(self.part.collection(), q, *d, c, k, Some(self.part.perm()))
                        .into_sorted_entries()
                })
                .collect(),
            finished: false,
        }
    }
}
