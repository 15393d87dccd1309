//! Scan-path counter suite: attaching a [`ScanStatsSink`] to a
//! [`MultiQueryScan`] / [`ShardedScan`] must populate the work counters
//! (rows streamed, blocks abandoned, f32 filter/rescore volumes, seeded
//! passes) while leaving every answer **bit-identical** to the
//! uninstrumented scan — observability is a read-only tap, never a
//! result knob.

use fbp_vecdb::{
    CollectionBuilder, KnnEngine, LinearScan, MultiQueryScan, PartitionConfig,
    PartitionedCollection, PartitionedScan, Precision, ScanMode, ScanStatsSink, ShardedCollection,
    ShardedScan, WeightedEuclidean,
};

const DIM: usize = 24;
const N: usize = 900;

fn collection(n: usize) -> fbp_vecdb::Collection {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..n {
        let v: Vec<f64> = (0..DIM).map(|_| next()).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn queries(nq: usize) -> Vec<Vec<f64>> {
    (0..nq)
        .map(|q| {
            (0..DIM)
                .map(|i| ((q * 31 + i * 11) as f64 * 0.43).sin().abs())
                .collect()
        })
        .collect()
}

fn metric() -> WeightedEuclidean {
    WeightedEuclidean::new((0..DIM).map(|i| 0.4 + (i % 6) as f64).collect()).unwrap()
}

#[test]
fn counters_populate_without_changing_answers() {
    let coll = collection(N);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = metric();
    let k = 10;
    for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
        for precision in [Precision::F64, Precision::F32Rescore] {
            let plain = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .knn_multi(&refs, k, &w);
            let sink = ScanStatsSink::new();
            let traced = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .with_scan_stats(&sink)
                .knn_multi(&refs, k, &w);
            assert_eq!(plain, traced, "mode {mode:?} precision {precision:?}");
            let s = sink.snapshot();
            assert_eq!(
                s.rows_visited, N as u64,
                "one pass streams every row (mode {mode:?} precision {precision:?})"
            );
            assert_eq!(s.seed_prunes, 0, "no caps were passed");
            if mode == ScanMode::Batched {
                // 900 rows = 4 blocks; after the first block fills the
                // k-bests, later blocks always drop something.
                assert!(s.blocks_abandoned > 0, "precision {precision:?}");
            }
            if mode != ScanMode::Scalar && precision == Precision::F32Rescore {
                // The true top-k per query always survive phase 1.
                assert!(
                    s.candidates_rescored >= (k * refs.len()) as u64,
                    "mode {mode:?}: rescored {}",
                    s.candidates_rescored
                );
            } else {
                assert_eq!(s.candidates_rescored, 0, "pure-f64 path has no rescore");
                assert_eq!(s.candidates_filtered, 0);
            }
        }
    }
}

#[test]
fn weighted_per_query_counters_match_generic_behaviour() {
    let coll = collection(N);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..3)
        .map(|q| {
            WeightedEuclidean::new((0..DIM).map(|i| 0.3 + ((q + i) % 4) as f64).collect()).unwrap()
        })
        .collect();
    let ks = [3usize, 10, 7];
    for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
        for precision in [Precision::F64, Precision::F32Rescore] {
            let plain = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .knn_weighted_per_query_k(&refs, &metrics, &ks);
            let sink = ScanStatsSink::new();
            let traced = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .with_scan_stats(&sink)
                .knn_weighted_per_query_k(&refs, &metrics, &ks);
            assert_eq!(plain, traced, "mode {mode:?} precision {precision:?}");
            let s = sink.snapshot();
            assert_eq!(
                s.rows_visited, N as u64,
                "mode {mode:?} precision {precision:?}"
            );
        }
    }
}

#[test]
fn sharded_scan_attributes_every_shard_pass() {
    let coll = collection(N);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = metric();
    let sharded = ShardedCollection::split(&coll, 3);
    let plain = ShardedScan::new(&sharded).knn_multi(&refs, 10, &w);
    let sink = ScanStatsSink::new();
    let traced = ShardedScan::new(&sharded)
        .with_scan_stats(&sink)
        .knn_multi(&refs, 10, &w);
    assert_eq!(plain, traced);
    // Every shard pass flushes into the one shared sink: the three
    // disjoint shard passes stream the whole collection exactly once.
    assert_eq!(sink.snapshot().rows_visited, N as u64);
}

#[test]
fn seeded_shard_pass_counts_a_seed_prune_and_keeps_the_answer() {
    let coll = collection(N);
    let qs = queries(1);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = metric();
    let k = 10usize;
    let sharded = ShardedCollection::split(&coll, 3);
    let scan = ShardedScan::new(&sharded);
    // Unseeded shard-0 pass: its k-th key upper-bounds the global k-th,
    // so it is a sound cap for a re-run of the same pass.
    let unseeded = scan.scan_shard_multi(0, &refs, &[k], &w, None);
    let cap = unseeded[0].bound_key(k).expect("shard 0 holds >= k rows");
    for weighted in [false, true] {
        let sink = ScanStatsSink::new();
        let traced = scan.with_scan_stats(&sink);
        let seeded = if weighted {
            traced.scan_shard_weighted_refs(0, &refs, &[&w], &[k], Some(&[cap]))
        } else {
            traced.scan_shard_multi(0, &refs, &[k], &w, Some(&[cap]))
        };
        assert_eq!(
            seeded[0].entries()[..k],
            unseeded[0].entries()[..k],
            "a sound cap never changes the kept top-k (weighted={weighted})"
        );
        let s = sink.snapshot();
        assert_eq!(s.seed_prunes, 1, "weighted={weighted}");
        assert_eq!(s.rows_visited, sharded.shard(0).len() as u64);
        // An infinite cap is a no-op and must not count as seeding.
        let seeded_inf =
            traced.scan_shard_multi(0, &refs, &[k], &w, Some(&[f64::INFINITY]))[0].clone();
        assert_eq!(seeded_inf.entries(), unseeded[0].entries());
        assert_eq!(sink.snapshot().seed_prunes, 1, "INFINITY cap not counted");
    }
}

// ---------------------------------------------------------------------
// Rescore-pool witness: with the key-relative f32 rounding bound, the
// f32 phase 1 hands the exact rescore only the rows whose f32 key sits
// within a few parts per million of the k-th key — about k per query on
// well-separated data. The counts are deterministic, so a later
// loosening of the bound fails here instead of only slowing a bench.

const WDIM: usize = 64;
const WN: usize = 6_000;
const WCLUSTERS: usize = 24;
const WK: usize = 20;
const WQ: usize = 16;
/// Rescored rows allowed per query beyond the k answers.
const EXTRA: u64 = 10;

fn center_coord(cluster: usize, dim: usize) -> f64 {
    (((cluster * 31 + dim * 7) % 97) as f64) / 97.0
}

/// Tight 64-d clusters (±0.02 around lattice centers), every value
/// multiplied by `scale`.
fn clustered(scale: f64) -> fbp_vecdb::Collection {
    let mut next = unit_stream(0xC1A5_7E2E_D0C5_0001);
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for r in 0..WN {
        let c = r % WCLUSTERS;
        let v: Vec<f64> = (0..WDIM)
            .map(|d| scale * (center_coord(c, d) + 0.04 * next() - 0.02))
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn clustered_queries(scale: f64) -> Vec<Vec<f64>> {
    let mut next = unit_stream(0xC1A5_7E2E_D0C5_0002);
    (0..WQ)
        .map(|i| {
            let c = (i * 7) % WCLUSTERS;
            (0..WDIM)
                .map(|d| scale * (center_coord(c, d) + 0.06 * next() - 0.03))
                .collect()
        })
        .collect()
}

/// One reweighted metric per query (the feedback loop's shape).
fn per_query_metrics() -> Vec<WeightedEuclidean> {
    let mut next = unit_stream(0xC1A5_7E2E_D0C5_0003);
    (0..WQ)
        .map(|_| WeightedEuclidean::new((0..WDIM).map(|_| 0.5 + 1.5 * next()).collect()).unwrap())
        .collect()
}

fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Rescored rows of one F32Rescore `LinearScan` k-NN per query.
fn linear_rescored(
    coll: &fbp_vecdb::Collection,
    qs: &[Vec<f64>],
    metrics: &[WeightedEuclidean],
    mode: ScanMode,
) -> Vec<u64> {
    qs.iter()
        .zip(metrics)
        .map(|(q, m)| {
            let sink = ScanStatsSink::new();
            let scan = LinearScan::with_mode(coll, mode)
                .with_precision(Precision::F32Rescore)
                .with_scan_stats(&sink);
            let got = scan.knn(q, WK, m);
            assert_eq!(got, LinearScan::with_mode(coll, mode).knn(q, WK, m));
            sink.snapshot().candidates_rescored
        })
        .collect()
}

#[test]
fn f32_rescore_pool_stays_near_k_per_query() {
    // Unit-cube data, and the same data scaled so max |x| reaches 1e3
    // (lattice coordinates top out at 96/97, jitter at 0.02).
    for scale in [1.0, 1e3 / (96.0 / 97.0 + 0.02)] {
        let coll = clustered(scale);
        let max_abs = coll.max_abs().unwrap();
        assert!(
            max_abs <= 1e3 && (scale == 1.0 || max_abs > 0.995e3),
            "max |x| {max_abs}"
        );
        let qs = clustered_queries(scale);
        let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
        let metrics = per_query_metrics();
        let ks = vec![WK; WQ];

        // LinearScan, one query per pass: ~k rows rescored, the same
        // count whether the f32 phase 1 ran on one thread or fanned out
        // (the final filter works off the whole pass's k-th f32 key).
        let batched = linear_rescored(&coll, &qs, &metrics, ScanMode::Batched);
        for (q, &n) in batched.iter().enumerate() {
            assert!(
                (WK as u64..=WK as u64 + EXTRA).contains(&n),
                "scale {scale} query {q}: LinearScan rescored {n} rows for k = {WK}"
            );
        }
        assert_eq!(
            batched,
            linear_rescored(&coll, &qs, &metrics, ScanMode::Batched)
        );
        assert_eq!(
            batched,
            linear_rescored(&coll, &qs, &metrics, ScanMode::Parallel)
        );
        let single_total: u64 = batched.iter().sum();

        // MultiQueryScan, Q = 16 per-query weights in one pass: each
        // query's pool is exactly what its single-query pass kept.
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let sink = ScanStatsSink::new();
            let got = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(Precision::F32Rescore)
                .with_scan_stats(&sink)
                .knn_weighted_per_query_k(&refs, &metrics, &ks);
            let want = MultiQueryScan::with_mode(&coll, mode)
                .knn_weighted_per_query_k(&refs, &metrics, &ks);
            assert_eq!(got, want, "scale {scale} mode {mode:?}");
            assert_eq!(
                sink.snapshot().candidates_rescored,
                single_total,
                "scale {scale} mode {mode:?}: batch pools differ from single-query pools"
            );
        }

        // PartitionedScan: pruning only ever removes rows from the pool.
        let part = PartitionedCollection::build(
            &coll,
            &PartitionConfig {
                partitions: WCLUSTERS,
                ..PartitionConfig::default()
            },
        );
        for (q, (query, m)) in qs.iter().zip(&metrics).enumerate() {
            let sink = ScanStatsSink::new();
            let got = PartitionedScan::with_mode(&part, ScanMode::Batched)
                .with_precision(Precision::F32Rescore)
                .with_scan_stats(&sink)
                .knn_multi(&[query.as_slice()], WK, m);
            assert_eq!(got[0], LinearScan::new(&coll).knn(query, WK, m));
            let s = sink.snapshot();
            assert!(
                (WK as u64..=batched[q]).contains(&s.candidates_rescored),
                "scale {scale} query {q}: PartitionedScan rescored {} rows (flat {})",
                s.candidates_rescored,
                batched[q]
            );
            assert!(s.partitions_pruned > 0, "scale {scale} query {q}");
        }

        // ShardedScan: every shard pass keeps ~k rows of its own.
        let shards = 3;
        let sharded = ShardedCollection::split(&coll, shards);
        for (q, (query, m)) in qs.iter().zip(&metrics).enumerate() {
            let sink = ScanStatsSink::new();
            let got = ShardedScan::with_mode(&sharded, ScanMode::Batched)
                .with_precision(Precision::F32Rescore)
                .with_thread_budget(1)
                .with_scan_stats(&sink)
                .knn_weighted_per_query_k(&[query.as_slice()], std::slice::from_ref(m), &[WK]);
            assert_eq!(got[0], LinearScan::new(&coll).knn(query, WK, m));
            let n = sink.snapshot().candidates_rescored;
            assert!(
                (WK as u64..=shards as u64 * (WK as u64 + EXTRA)).contains(&n),
                "scale {scale} query {q}: ShardedScan rescored {n} rows over {shards} shard passes"
            );
        }
    }
}
