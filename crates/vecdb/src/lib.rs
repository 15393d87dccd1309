//! # fbp-vecdb
//!
//! Vector-space similarity database substrate (paper §2).
//!
//! FeedbackBypass sits on top of a retrieval system that represents
//! multimedia objects as points in `R^D` and answers k-nearest-neighbor
//! queries under a parameterized class of distance functions. This crate
//! is that system:
//!
//! * [`collection`] — flat, cache-friendly storage of feature vectors with
//!   category labels (the evaluation needs the labels as its relevance
//!   oracle);
//! * [`distance`] — the distance-function classes the paper discusses:
//!   `Lp` norms, **weighted Euclidean** (Equation 1, the class used in the
//!   paper's experiments), **Mahalanobis / quadratic forms**, and the
//!   **Rui-Huang hierarchical** model;
//! * [`knn`] — three interchangeable k-NN engines: exhaustive
//!   [`knn::LinearScan`], a [`knn::VpTree`], and an [`knn::MTree`] (the
//!   paper cites the M-tree \[CPZ97\] as its access method). The metric
//!   trees are built once under the *default* metric and can still answer
//!   queries under any *re-weighted* metric exactly, via distortion
//!   bounds (`d_W ≥ √w_min · d_2` pruning). For concurrent feedback
//!   sessions, [`knn::MultiQueryScan`] answers Q queries per blocked
//!   collection pass (shared or per-query metrics, per-query `k`),
//!   amortizing memory traffic across the batch with results
//!   bit-identical to Q independent scans. Both scan engines accept
//!   [`knn::Precision::F32Rescore`]: phase 1 filters candidates over
//!   the collection's optional f32 mirror at half the bandwidth, phase
//!   2 rescores them in f64 — queries, keys and returned distances stay
//!   f64 and the answers are identical to the pure-f64 scan. To scale
//!   past one core's streaming bandwidth, a
//!   [`collection::ShardedCollection`] partitions the rows into
//!   contiguous shards and [`knn::ShardedScan`] runs scatter/gather
//!   passes over them, merging per-shard k-bests in key space — still
//!   bit-identical to the flat scan (see `ARCHITECTURE.md` at the
//!   repository root for the full invariant);
//! * [`result`] — ranked result lists and the stable-comparison helper the
//!   feedback loop uses as its convergence test.

#![warn(missing_docs)]

pub mod collection;
pub mod distance;
pub mod knn;
pub mod result;

pub use collection::{
    CategoryId, Collection, CollectionBuilder, PartitionConfig, PartitionedCollection,
    ShardedCollection,
};
pub use distance::{
    Distance, Euclidean, F32KeyBound, HierarchicalDistance, Lp, Manhattan, QuadraticDistance,
    WeightedEuclidean,
};
pub use knn::{
    combine_partials, merge_partials, merge_partials_policy, DegradedGather, FailurePolicy,
    GatherError, KnnEngine, LinearScan, MTree, MultiQueryScan, Neighbor, PartitionedScan,
    Precision, ScanMode, ScanStats, ScanStatsSink, ShardPartial, ShardedScan, VpTree,
};
pub use result::ResultList;

/// Errors from the vector database.
#[derive(Debug, Clone, PartialEq)]
pub enum VecdbError {
    /// Vector dimensionality doesn't match the collection/distance.
    DimMismatch {
        /// Dimensionality the collection/distance expected.
        expected: usize,
        /// Dimensionality actually supplied.
        got: usize,
    },
    /// Invalid distance parameterization (non-positive weights, non-SPD
    /// matrix, bad feature partition...).
    BadParameters(String),
    /// Operation requires a non-empty collection.
    EmptyCollection,
}

impl std::fmt::Display for VecdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VecdbError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            VecdbError::BadParameters(msg) => write!(f, "bad parameters: {msg}"),
            VecdbError::EmptyCollection => write!(f, "operation on empty collection"),
        }
    }
}

impl std::error::Error for VecdbError {}

/// Result alias for vecdb operations.
pub type Result<T> = std::result::Result<T, VecdbError>;
