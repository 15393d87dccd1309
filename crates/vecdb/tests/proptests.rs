//! Property-based tests: all k-NN engines must agree with the exhaustive
//! scan under every distance class, distances must obey their distortion
//! contracts, and the f32-rescore machinery must obey its rounding-bound
//! contract (`|key32 − key64| ≤ Δ(key64)`, `Δ` from `f32_key_slack`) —
//! the inequality the two-phase scan's exactness proof stands on.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::FeatureSpan;
use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, Euclidean, F32KeyBound, HierarchicalDistance,
    KnnEngine, LinearScan, MTree, Manhattan, Precision, QuadraticDistance, ScanMode, VpTree,
    WeightedEuclidean,
};
use proptest::prelude::*;

const DIM: usize = 4;

fn build_collection(points: &[Vec<f64>]) -> Collection {
    let mut b = CollectionBuilder::new();
    for p in points {
        b.push_unlabelled(p).unwrap();
    }
    b.build()
}

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..1.0f64, DIM), 2..120)
}

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1..10.0f64, DIM)
}

/// `|key32 − key64| ≤ Δ(key64)` for one (query, row) pair under `dist`
/// — keys computed exactly as the scan engines compute them (one-row
/// block through the dispatched f32 kernel vs the exact f64 kernel),
/// `Δ` the class's [`F32KeyBound`] at the pair's own magnitude, taken
/// at this pair's f64 key.
fn assert_key_within_slack(
    dist: &dyn Distance,
    q: &[f64],
    row: &[f64],
) -> std::result::Result<(), TestCaseError> {
    let dim = q.len();
    let max_abs = q
        .iter()
        .chain(row.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    let bound: F32KeyBound = dist
        .f32_key_slack(dim, max_abs)
        .expect("class under test supports f32");
    let mut key64 = [0.0f64; 1];
    dist.eval_key_batch(q, row, dim, f64::INFINITY, &mut key64);
    let allowed = bound.delta(key64[0]);
    prop_assert!(allowed.is_finite() && allowed >= 0.0);
    let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
    let row32: Vec<f32> = row.iter().map(|&v| v as f32).collect();
    let mut key32 = [0.0f32; 1];
    dist.eval_key_batch_f32(&q32, &row32, dim, f32::INFINITY, &mut key32);
    prop_assert!(
        (key32[0] as f64 - key64[0]).abs() <= allowed,
        "{} (dim {dim}, M {max_abs}): |key32 − key64| = {} exceeds Δ(key64) = {allowed} \
         (key64 {})",
        dist.name(),
        (key32[0] as f64 - key64[0]).abs(),
        key64[0]
    );
    Ok(())
}

/// Dimensionalities of the adversarial rounding-bound sweep: one lane,
/// sub-lane, exactly one lane group, a full segment, and past one
/// segment with a remainder.
const ADVERSARIAL_DIMS: [usize; 5] = [1, 7, 8, 64, 130];

/// Near-coincident pairs at the magnitude ceiling: `|aᵢ| ≈ M`, and
/// `bᵢ = aᵢ ∓ δᵢ` stepping toward zero with `δᵢ ≈ 10^e·M`,
/// `e ∈ [−9, −1]`, `M ∈ [0.1, 1e3]`. Input rounding (`u·M` per
/// component) dwarfs `|dᵢ|` here, so the bound's `√κ` term carries it.
fn near_coincident_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..ADVERSARIAL_DIMS.len(), -1.0..3.0f64, -9.0..-1.0f64).prop_flat_map(
        |(di, m_exp, d_exp)| {
            let m = 10f64.powf(m_exp);
            let delta = 10f64.powf(d_exp) * m;
            prop::collection::vec(
                (0.0..0.1f64, any::<bool>(), 0.5..1.5f64),
                ADVERSARIAL_DIMS[di],
            )
            .prop_map(move |comps| {
                let a: Vec<f64> = comps
                    .iter()
                    .map(|&(r, neg, _)| if neg { -m * (1.0 - r) } else { m * (1.0 - r) })
                    .collect();
                let b: Vec<f64> = a
                    .iter()
                    .zip(&comps)
                    .map(|(&x, &(_, _, jitter))| x - x.signum() * delta * jitter)
                    .collect();
                (a, b)
            })
        },
    )
}

/// Independent uniform pairs in `[−M, M]` at the adversarial dims.
fn uniform_pair_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..ADVERSARIAL_DIMS.len(), -1.0..3.0f64).prop_flat_map(|(di, m_exp)| {
        let m = 10f64.powf(m_exp);
        let dim = ADVERSARIAL_DIMS[di];
        (
            prop::collection::vec(-m..m, dim),
            prop::collection::vec(-m..m, dim),
        )
    })
}

/// Positive weights for `dim` components with one dominant component:
/// the rest in `[0.01, 1)`, the dominant one in `[1e4, 1e5)`, so
/// `w_max / w_min ≥ 1e4` whenever `dim > 1`.
fn dominant_weights(dim: usize, spread: &[f64], pick: f64, heavy: f64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..dim)
        .map(|i| 0.01 + 0.99 * spread[i % spread.len()])
        .collect();
    w[((pick * dim as f64) as usize).min(dim - 1)] = 1e4 + 9e4 * heavy;
    w
}

/// Every f32-capable class on one pair: Euclidean, weighted and
/// hierarchical under `w`, and a diagonally dominant quadratic form.
fn assert_all_classes_within_slack(
    a: &[f64],
    b: &[f64],
    w: &[f64],
    diag: &[f64],
    off: f64,
) -> std::result::Result<(), TestCaseError> {
    let dim = a.len();
    assert_key_within_slack(&Euclidean, a, b)?;
    assert_key_within_slack(&WeightedEuclidean::new(w.to_vec()).unwrap(), a, b)?;
    let spans = if dim >= 2 {
        vec![FeatureSpan::new(0, dim / 2), FeatureSpan::new(dim / 2, dim)]
    } else {
        vec![FeatureSpan::new(0, dim)]
    };
    let feature_weights = [1.7, 0.6][..spans.len()].to_vec();
    let h = HierarchicalDistance::new(spans, feature_weights, w.to_vec()).unwrap();
    assert_key_within_slack(&h, a, b)?;
    let mut m = Matrix::from_diag(diag);
    if dim >= 2 {
        m[(0, 1)] = off;
        m[(1, 0)] = off;
    }
    assert_key_within_slack(&QuadraticDistance::new(&m).unwrap(), a, b)
}

fn assert_same_answers(
    a: &[fbp_vecdb::Neighbor],
    b: &[fbp_vecdb::Neighbor],
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        // Ranks must agree up to distance ties; distances must agree.
        prop_assert!(
            (x.dist - y.dist).abs() < 1e-9,
            "distance mismatch: {} vs {}",
            x.dist,
            y.dist
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_euclidean(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        k in 1usize..20,
    ) {
        let coll = build_collection(&points);
        let scan = LinearScan::new(&coll).knn(&q, k, &Euclidean);
        let vp = VpTree::build(&coll).knn(&q, k, &Euclidean);
        let mt = MTree::with_defaults(&coll).knn(&q, k, &Euclidean);
        assert_same_answers(&scan, &vp)?;
        assert_same_answers(&scan, &mt)?;
    }

    #[test]
    fn engines_agree_weighted(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        w in weights_strategy(),
        k in 1usize..15,
    ) {
        let coll = build_collection(&points);
        let dist = WeightedEuclidean::new(w).unwrap();
        let scan = LinearScan::new(&coll).knn(&q, k, &dist);
        let vp = VpTree::build(&coll).knn(&q, k, &dist);
        let mt = MTree::with_defaults(&coll).knn(&q, k, &dist);
        assert_same_answers(&scan, &vp)?;
        assert_same_answers(&scan, &mt)?;
    }

    #[test]
    fn engines_agree_manhattan(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        k in 1usize..10,
    ) {
        // Manhattan has lower distortion factor 1 vs Euclidean: pruning is
        // legal and must stay exact.
        let coll = build_collection(&points);
        let scan = LinearScan::new(&coll).knn(&q, k, &Manhattan);
        let vp = VpTree::build(&coll).knn(&q, k, &Manhattan);
        let mt = MTree::with_defaults(&coll).knn(&q, k, &Manhattan);
        assert_same_answers(&scan, &vp)?;
        assert_same_answers(&scan, &mt)?;
    }

    #[test]
    fn range_queries_agree(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        w in weights_strategy(),
        radius in 0.05..1.0f64,
    ) {
        let coll = build_collection(&points);
        let dist = WeightedEuclidean::new(w).unwrap();
        let scan = LinearScan::new(&coll).range(&q, radius, &dist);
        let vp = VpTree::build(&coll).range(&q, radius, &dist);
        let mt = MTree::with_defaults(&coll).range(&q, radius, &dist);
        prop_assert_eq!(&scan, &vp);
        prop_assert_eq!(&scan, &mt);
    }

    #[test]
    fn mtree_invariants_hold(points in points_strategy()) {
        let coll = build_collection(&points);
        let mt = MTree::with_defaults(&coll);
        mt.verify_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn weighted_distortion_contract(
        a in prop::collection::vec(-2.0..2.0f64, DIM),
        b in prop::collection::vec(-2.0..2.0f64, DIM),
        w in weights_strategy(),
    ) {
        let dist = WeightedEuclidean::new(w).unwrap();
        let (lo, hi) = dist.euclidean_distortion().unwrap();
        let dw = dist.eval(&a, &b);
        let d2 = Euclidean.eval(&a, &b);
        prop_assert!(dw >= lo * d2 - 1e-9);
        prop_assert!(dw <= hi * d2 + 1e-9);
    }

    #[test]
    fn quadratic_distortion_contract(
        a in prop::collection::vec(-2.0..2.0f64, 3),
        b in prop::collection::vec(-2.0..2.0f64, 3),
        diag in prop::collection::vec(0.5..4.0f64, 3),
        off in -0.2..0.2f64,
    ) {
        // Diagonally dominant ⇒ SPD with positive Gershgorin lower bound.
        let mut m = Matrix::from_diag(&diag);
        m[(0, 1)] = off;
        m[(1, 0)] = off;
        let q = QuadraticDistance::new(&m).unwrap();
        if let Some((lo, hi)) = q.euclidean_distortion() {
            let dq = q.eval(&a, &b);
            let d2 = Euclidean.eval(&a, &b);
            prop_assert!(dq >= lo * d2 - 1e-9);
            prop_assert!(dq <= hi * d2 + 1e-9);
        }
    }

    #[test]
    fn f32_key_slack_is_sound_all_classes(
        a in prop::collection::vec(-3.0..3.0f64, DIM),
        b in prop::collection::vec(-3.0..3.0f64, DIM),
        w in weights_strategy(),
        diag in prop::collection::vec(0.5..4.0f64, DIM),
        off in -0.2..0.2f64,
    ) {
        // The inequality every phase-1 candidate-containment argument
        // rests on, for all four f32-capable distance classes, checked
        // at each pair's own f64 key.
        assert_all_classes_within_slack(&a, &b, &w, &diag, off)?;
    }

    #[test]
    fn f32_rescore_scan_identical_to_f64_scan(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        w in weights_strategy(),
        k in 1usize..20,
    ) {
        // End-to-end soundness of the inflated bound: if phase 1 ever
        // dropped a true top-k row, the rescored answer would differ
        // from the f64 scan in indices or distances.
        let mut coll = build_collection(&points);
        coll.ensure_f32_mirror();
        let dist = WeightedEuclidean::new(w).unwrap();
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let f64_res = LinearScan::with_mode(&coll, mode).knn(&q, k, &dist);
            let f32_res = LinearScan::with_mode(&coll, mode)
                .with_precision(Precision::F32Rescore)
                .knn(&q, k, &dist);
            prop_assert_eq!(&f32_res, &f64_res, "mode {:?}", mode);
        }
    }

    #[test]
    fn hierarchical_reduces_to_weighted(
        a in prop::collection::vec(-2.0..2.0f64, DIM),
        b in prop::collection::vec(-2.0..2.0f64, DIM),
        w in weights_strategy(),
    ) {
        // One feature spanning everything with unit feature weight must
        // equal plain weighted Euclidean.
        let h = HierarchicalDistance::new(
            vec![fbp_vecdb::distance::FeatureSpan::new(0, DIM)],
            vec![1.0],
            w.clone(),
        )
        .unwrap();
        let we = WeightedEuclidean::new(w).unwrap();
        prop_assert!((h.eval(&a, &b) - we.eval(&a, &b)).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f32_key_slack_is_sound_on_adversarial_pairs(
        near in near_coincident_strategy(),
        uniform in uniform_pair_strategy(),
        spread in prop::collection::vec(0.0..1.0f64, 16),
        pick in 0.0..1.0f64,
        heavy in 0.0..1.0f64,
        diag in prop::collection::vec(0.5..4.0f64, 130),
        off in -0.2..0.2f64,
    ) {
        // The same per-pair inequality, for all four classes, where the
        // key-relative bound is tightest: near-coincident rows at the
        // magnitude ceiling, uniform rows at every adversarial dim, and
        // one dominant weight.
        for (a, b) in [&near, &uniform] {
            let dim = a.len();
            let w = dominant_weights(dim, &spread, pick, heavy);
            assert_all_classes_within_slack(a, b, &w, &diag[..dim], off)?;
        }
    }
}
