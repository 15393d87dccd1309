//! Workload inputs, all made from the run's seed: the rows handed to
//! the program, and the query streams the clients send.

use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use fbp_vecdb::collection::NO_CATEGORY;
use fbp_vecdb::{Collection, CollectionBuilder};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

/// Generated rows: what the program is handed at set-up.
pub struct Rows {
    /// Dimensionality.
    pub dim: usize,
    /// Row-major values.
    pub data: Vec<f64>,
    /// Per-row category (`NO_CATEGORY` for noise rows).
    pub labels: Vec<u32>,
    /// Category names, in id order.
    pub categories: Vec<String>,
}

impl Rows {
    /// Row count.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The program's first set-up step: build the collection, with the
    /// f32 mirror every serving scan streams.
    pub fn build(&self) -> Collection {
        let mut b = CollectionBuilder::new()
            .with_dim(self.dim)
            .with_f32_mirror();
        for name in &self.categories {
            b.category(name);
        }
        for (i, &label) in self.labels.iter().enumerate() {
            if label == NO_CATEGORY {
                b.push_unlabelled(self.row(i))
            } else {
                b.push(self.row(i), label)
            }
            .expect("generated rows share one dimensionality");
        }
        b.build()
    }
}

/// The paper's dataset (`DatasetConfig::paper()`: ~10k 32-d colour
/// histograms in 7 labelled categories plus noise). It is fixed, as in
/// the paper; the run's seed picks the query order.
pub fn paper() -> (SyntheticDataset, Rows) {
    let ds = SyntheticDataset::generate(DatasetConfig::paper());
    let coll = &ds.collection;
    let rows = Rows {
        dim: coll.dim(),
        data: (0..coll.len())
            .flat_map(|i| coll.vector(i).to_vec())
            .collect(),
        labels: (0..coll.len()).map(|i| coll.label(i)).collect(),
        categories: coll.category_names().to_vec(),
    };
    (ds, rows)
}

/// Lattice centre of cluster `c` in dimension `d`, inside `[0, 1]`.
fn centre(c: usize, d: usize) -> f64 {
    (((c * 31 + d * 7) % 97) as f64) / 97.0
}

/// `n` rows in `[0, 1]^dim` around `clusters` lattice centres, each row
/// labelled by its cluster. `spread` is the half-width of the uniform
/// jitter; `round_robin` assigns row `r` to cluster `r % clusters`
/// instead of a random one.
pub fn clustered(
    n: usize,
    dim: usize,
    clusters: usize,
    spread: f64,
    round_robin: bool,
    seed: u64,
) -> Rows {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for r in 0..n {
        let c = if round_robin {
            r % clusters
        } else {
            rng.gen_range(0..clusters)
        };
        data.extend(
            (0..dim).map(|d| (centre(c, d) + rng.gen_range(-spread..spread)).clamp(0.0, 1.0)),
        );
        labels.push(c as u32);
    }
    Rows {
        dim,
        data,
        labels,
        categories: (0..clusters).map(|c| format!("cluster-{c}")).collect(),
    }
}

/// Row indices in a seeded order: the feedback queries' pool.
pub fn query_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// An endless stream of fresh lookup anchors near the cluster centres
/// (users query where the data is), each one new.
pub struct Anchors {
    rng: StdRng,
    dim: usize,
    clusters: usize,
}

impl Anchors {
    /// Stream for `clusters` lattice clusters in `dim` dimensions.
    pub fn new(dim: usize, clusters: usize, seed: u64) -> Self {
        Anchors {
            rng: StdRng::seed_from_u64(seed),
            dim,
            clusters,
        }
    }

    /// The next anchor.
    pub fn next_anchor(&mut self) -> Vec<f64> {
        let c = self.rng.gen_range(0..self.clusters);
        (0..self.dim)
            .map(|d| (centre(c, d) + self.rng.gen_range(-0.03..0.03)).clamp(0.0, 1.0))
            .collect()
    }
}
