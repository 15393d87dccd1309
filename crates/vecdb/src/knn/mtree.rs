//! M-tree: the paging metric access method of Ciaccia, Patella & Zezula
//! (VLDB '97) — the index the paper cites for its query-processing step.
//!
//! Structure: every node holds up to `max_entries` entries. Inner entries
//! are `(routing object, covering radius, distance to parent router,
//! child)`; leaf entries are `(object, distance to parent router)`. The
//! covering-radius invariant — every object below an entry is within its
//! radius of the routing object — yields the classic `mindist` pruning
//! bound, and `distance to parent` gives a second, cheaper prefilter via
//! the triangle inequality.
//!
//! Splits promote two routing objects with the **mM_RAD** policy (the
//! pair minimizing the larger of the two covering radii under
//! generalized-hyperplane assignment), the best-performing policy in the
//! original paper.
//!
//! The tree is built under the Euclidean metric; re-weighted feedback
//! queries stay exact through the distortion lower bound
//! (`d ≥ lo · d₂`, see the module docs of [`crate::knn`]).

use super::{f32_bound_up, lower_factor, KBest, KnnEngine, Neighbor, SearchStats};
use crate::collection::Collection;
use crate::distance::{Distance, Euclidean, F32KeyBound};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// M-tree tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct MTreeConfig {
    /// Maximum entries per node (≥ 2 required; paper-era page sizes map to
    /// small double-digit fan-outs for 32-d vectors).
    pub max_entries: usize,
}

impl Default for MTreeConfig {
    fn default() -> Self {
        MTreeConfig { max_entries: 16 }
    }
}

#[derive(Debug, Clone)]
struct LeafEntry {
    oid: u32,
    /// d₂(object, router of this leaf); 0 when the leaf is the root.
    dist_to_parent: f64,
}

#[derive(Debug, Clone)]
struct InnerEntry {
    /// Routing object (a collection index).
    router: u32,
    /// Covering radius: max d₂(router, x) over all x in the subtree.
    radius: f64,
    /// d₂(router, router of this node's parent); 0 at the root.
    dist_to_parent: f64,
    child: u32,
}

#[derive(Debug, Clone)]
enum MNode {
    Leaf(Vec<LeafEntry>),
    Inner(Vec<InnerEntry>),
}

/// M-tree engine borrowing a collection.
#[derive(Debug, Clone)]
pub struct MTree<'a> {
    coll: &'a Collection,
    nodes: Vec<MNode>,
    root: u32,
    cfg: MTreeConfig,
}

impl<'a> MTree<'a> {
    /// Build by inserting every collection object (deterministic order).
    pub fn build(coll: &'a Collection, cfg: MTreeConfig) -> Self {
        assert!(cfg.max_entries >= 2, "M-tree needs max_entries >= 2");
        let mut tree = MTree {
            coll,
            nodes: vec![MNode::Leaf(Vec::new())],
            root: 0,
            cfg,
        };
        for oid in 0..coll.len() as u32 {
            tree.insert(oid);
        }
        tree
    }

    /// Build with the default configuration.
    pub fn with_defaults(coll: &'a Collection) -> Self {
        Self::build(coll, MTreeConfig::default())
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                MNode::Leaf(_) => return h,
                MNode::Inner(entries) => {
                    id = entries[0].child;
                    h += 1;
                }
            }
        }
    }

    #[inline]
    fn d2(&self, a: u32, b: u32) -> f64 {
        Euclidean.eval(self.coll.vector(a as usize), self.coll.vector(b as usize))
    }

    fn insert(&mut self, oid: u32) {
        // Descend to the best leaf, tracking the path for splits and the
        // running distance to each chosen router for dist_to_parent.
        let mut path: Vec<(u32, usize)> = Vec::new(); // (node, entry idx)
        let mut cur = self.root;
        let mut dist_to_router = 0.0; // d₂(oid, router of `cur`); 0 at root
        loop {
            match &self.nodes[cur as usize] {
                MNode::Leaf(_) => break,
                MNode::Inner(entries) => {
                    // Choose: entry needing no radius enlargement with min
                    // distance; else min enlargement.
                    let mut best: Option<(usize, f64, f64)> = None; // (idx, d, enlarge)
                    for (i, e) in entries.iter().enumerate() {
                        let d = self.d2(oid, e.router);
                        let enlarge = (d - e.radius).max(0.0);
                        let better = match best {
                            None => true,
                            Some((_, bd, be)) => {
                                if (enlarge == 0.0) != (be == 0.0) {
                                    enlarge == 0.0
                                } else if enlarge == 0.0 {
                                    d < bd
                                } else {
                                    enlarge < be
                                }
                            }
                        };
                        if better {
                            best = Some((i, d, enlarge));
                        }
                    }
                    let (idx, d, _) = best.expect("inner node is never empty");
                    let MNode::Inner(entries) = &mut self.nodes[cur as usize] else {
                        unreachable!()
                    };
                    if d > entries[idx].radius {
                        entries[idx].radius = d;
                    }
                    path.push((cur, idx));
                    dist_to_router = d;
                    cur = entries[idx].child;
                }
            }
        }
        let MNode::Leaf(entries) = &mut self.nodes[cur as usize] else {
            unreachable!()
        };
        entries.push(LeafEntry {
            oid,
            dist_to_parent: dist_to_router,
        });
        if entries.len() > self.cfg.max_entries {
            self.split(cur, path);
        }
    }

    /// The objects a node's entries are anchored at (leaf objects or inner
    /// routers), used for promotion.
    fn anchor_oids(&self, node: u32) -> Vec<u32> {
        match &self.nodes[node as usize] {
            MNode::Leaf(es) => es.iter().map(|e| e.oid).collect(),
            MNode::Inner(es) => es.iter().map(|e| e.router).collect(),
        }
    }

    /// mM_RAD promotion: pick the anchor pair minimizing the larger
    /// covering radius after hyperplane partitioning. Returns
    /// (router1, router2, assignment) with `assignment[i] == false` for
    /// partition 1.
    fn promote(&self, anchors: &[u32]) -> (u32, u32, Vec<bool>) {
        debug_assert!(anchors.len() >= 2);
        let n = anchors.len();
        // Pairwise distances among anchors (n ≤ max_entries + 1, small).
        let mut dmat = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.d2(anchors[i], anchors[j]);
                dmat[i * n + j] = d;
                dmat[j * n + i] = d;
            }
        }
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                // Assign every anchor to the closer of i, j; track radii.
                let mut r1 = 0.0_f64;
                let mut r2 = 0.0_f64;
                for k in 0..n {
                    let di = dmat[k * n + i];
                    let dj = dmat[k * n + j];
                    if di <= dj {
                        r1 = r1.max(di);
                    } else {
                        r2 = r2.max(dj);
                    }
                }
                let worst = r1.max(r2);
                if best.is_none_or(|(b, _, _)| worst < b) {
                    best = Some((worst, i, j));
                }
            }
        }
        let (_, i, j) = best.expect("at least one pair");
        let mut assignment: Vec<bool> = (0..n).map(|k| dmat[k * n + i] > dmat[k * n + j]).collect();
        // Degenerate guard: with duplicate anchors every distance ties and
        // one partition comes out empty, which would create an empty node.
        // Rebalance by alternating — correctness only needs both non-empty
        // (the covering radii are recomputed from the actual assignment).
        if assignment.iter().all(|&a| !a) || assignment.iter().all(|&a| a) {
            for (k, a) in assignment.iter_mut().enumerate() {
                *a = k % 2 == 1;
            }
        }
        (anchors[i], anchors[j], assignment)
    }

    fn split(&mut self, node: u32, mut path: Vec<(u32, usize)>) {
        let anchors = self.anchor_oids(node);
        let (r1, r2, assignment) = self.promote(&anchors);
        // Partition entries; compute fresh dist_to_parent and radii.
        let new_node_id = self.nodes.len() as u32;
        let (radius1, radius2) = match self.nodes[node as usize].clone() {
            MNode::Leaf(entries) => {
                let mut p1 = Vec::new();
                let mut p2 = Vec::new();
                let mut rad1 = 0.0_f64;
                let mut rad2 = 0.0_f64;
                for (e, &to_two) in entries.iter().zip(assignment.iter()) {
                    if to_two {
                        let d = self.d2(e.oid, r2);
                        rad2 = rad2.max(d);
                        p2.push(LeafEntry {
                            oid: e.oid,
                            dist_to_parent: d,
                        });
                    } else {
                        let d = self.d2(e.oid, r1);
                        rad1 = rad1.max(d);
                        p1.push(LeafEntry {
                            oid: e.oid,
                            dist_to_parent: d,
                        });
                    }
                }
                self.nodes[node as usize] = MNode::Leaf(p1);
                self.nodes.push(MNode::Leaf(p2));
                (rad1, rad2)
            }
            MNode::Inner(entries) => {
                let mut p1 = Vec::new();
                let mut p2 = Vec::new();
                let mut rad1 = 0.0_f64;
                let mut rad2 = 0.0_f64;
                for (e, &to_two) in entries.iter().zip(assignment.iter()) {
                    if to_two {
                        let d = self.d2(e.router, r2);
                        rad2 = rad2.max(d + e.radius);
                        p2.push(InnerEntry {
                            dist_to_parent: d,
                            ..e.clone()
                        });
                    } else {
                        let d = self.d2(e.router, r1);
                        rad1 = rad1.max(d + e.radius);
                        p1.push(InnerEntry {
                            dist_to_parent: d,
                            ..e.clone()
                        });
                    }
                }
                self.nodes[node as usize] = MNode::Inner(p1);
                self.nodes.push(MNode::Inner(p2));
                (rad1, rad2)
            }
        };

        match path.pop() {
            None => {
                // Node was the root: grow a new root above it.
                let new_root = self.nodes.len() as u32;
                self.nodes.push(MNode::Inner(vec![
                    InnerEntry {
                        router: r1,
                        radius: radius1,
                        dist_to_parent: 0.0,
                        child: node,
                    },
                    InnerEntry {
                        router: r2,
                        radius: radius2,
                        dist_to_parent: 0.0,
                        child: new_node_id,
                    },
                ]));
                self.root = new_root;
            }
            Some((parent, entry_idx)) => {
                // Parent router (for dist_to_parent of the two new entries):
                // it is the router of the entry pointing at `parent`, i.e.
                // the next element up the path — or the root (no router).
                let parent_router = path.last().map(|&(gp, gi)| {
                    let MNode::Inner(es) = &self.nodes[gp as usize] else {
                        unreachable!()
                    };
                    es[gi].router
                });
                let dtp = |r: u32| parent_router.map_or(0.0, |pr| self.d2(r, pr));
                let e1 = InnerEntry {
                    router: r1,
                    radius: radius1,
                    dist_to_parent: dtp(r1),
                    child: node,
                };
                let e2 = InnerEntry {
                    router: r2,
                    radius: radius2,
                    dist_to_parent: dtp(r2),
                    child: new_node_id,
                };
                let MNode::Inner(entries) = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                entries[entry_idx] = e1;
                entries.push(e2);
                if entries.len() > self.cfg.max_entries {
                    self.split(parent, path);
                }
            }
        }
    }

    /// Best-first k-NN under `dist`.
    ///
    /// `kb` holds surrogate keys ([`Distance::eval_key`]): leaf scans are
    /// `sqrt`-free, and leaves with several surviving entries gather their
    /// vectors into a contiguous scratch block and evaluate them through
    /// one batch-kernel call (single virtual dispatch, early abandonment
    /// against the running threshold). When the collection carries an f32
    /// mirror and the class certifies a rounding bound
    /// ([`Distance::f32_key_slack`]), the gathered block is the **f32
    /// mirror** rows and the batch runs through
    /// [`Distance::eval_key_batch_f32`] against `admit(τ)` for the
    /// running (exact, f64) threshold `τ` — half the gathered bytes —
    /// with the few survivors rescored exactly in f64 before insertion,
    /// so answers stay bit-identical to the pure f64 leaf path (same
    /// guarantee as the flat scan's two-phase mode: any row with
    /// `key64 ≤ τ` has `key32 ≤ key64 + Δ(key64) ≤ admit(τ)` and
    /// therefore survives phase 1). Pruning bounds
    /// stay in true-distance (Euclidean) space and compare against
    /// `finish_key(kb.threshold())` — one root per node, not per
    /// candidate.
    fn knn_inner(
        &self,
        query: &[f64],
        k: usize,
        dist: &dyn Distance,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut kb = KBest::new(k);
        let mut stats = SearchStats::default();
        if k == 0 || self.coll.is_empty() {
            return (kb.into_sorted(), stats);
        }
        let dim = self.coll.dim();
        // Scratch for gathered leaf vectors + their ids + result keys.
        let mut gather: Vec<f64> = Vec::with_capacity(self.cfg.max_entries * dim);
        let mut gather_ids: Vec<u32> = Vec::with_capacity(self.cfg.max_entries);
        let mut keys: Vec<f64> = vec![0.0; self.cfg.max_entries + 1];
        // f32 mirror leaf path: query rounded once, plus the certified
        // key-space rounding bound (None ⇔ no mirror, no f32 kernel, or
        // an overflowing magnitude — leaves then gather f64).
        let f32_leaf: Option<(Vec<f32>, F32KeyBound)> = self.coll.max_abs().and_then(|m_coll| {
            let m = query.iter().fold(m_coll, |m, &v| m.max(v.abs()));
            let key_bound = dist.f32_key_slack(dim, m)?;
            Some((query.iter().map(|&v| v as f32).collect(), key_bound))
        });
        let mut gather32: Vec<f32> = Vec::new();
        let mut keys32: Vec<f32> = Vec::new();
        if f32_leaf.is_some() {
            gather32.reserve(self.cfg.max_entries * dim);
            keys32.resize(self.cfg.max_entries + 1, 0.0);
        }
        let lo = lower_factor(dist);
        // Priority queue of (Euclidean mindist bound, node, d₂(q, router)).
        #[derive(PartialEq)]
        struct Item {
            bound: f64,
            node: u32,
            d2_router: f64,
        }
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.bound
                    .partial_cmp(&other.bound)
                    .expect("non-finite bound")
                    .then(self.node.cmp(&other.node))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut queue: BinaryHeap<Reverse<Item>> = BinaryHeap::new();
        queue.push(Reverse(Item {
            bound: 0.0,
            node: self.root,
            d2_router: f64::NAN, // root has no router
        }));
        while let Some(Reverse(item)) = queue.pop() {
            let tau = dist.finish_key(kb.threshold());
            if lo > 0.0 && lo * item.bound > tau {
                continue; // everything left is at least this far
            }
            stats.nodes_visited += 1;
            match &self.nodes[item.node as usize] {
                MNode::Leaf(entries) => {
                    // Triangle prefilter on the Euclidean level:
                    // d₂(q,o) ≥ |d₂(q, router) − d₂(o, router)|; survivors
                    // are gathered into one contiguous block.
                    gather_ids.clear();
                    if let Some((q32, key_bound)) = &f32_leaf {
                        // Mirror path: gather f32 rows, filter against
                        // admit(threshold), rescore survivors exactly.
                        gather32.clear();
                        for e in entries {
                            if lo > 0.0 && item.d2_router.is_finite() {
                                let lb = (item.d2_router - e.dist_to_parent).abs();
                                if lo * lb > tau {
                                    continue;
                                }
                            }
                            let row = e.oid as usize;
                            gather32.extend_from_slice(
                                self.coll
                                    .block_f32(row, row + 1)
                                    .expect("f32 leaf path requires the mirror"),
                            );
                            gather_ids.push(e.oid);
                        }
                        let n = gather_ids.len();
                        let bound = kb.threshold();
                        let bound32 = f32_bound_up(key_bound.admit(bound));
                        dist.eval_key_batch_f32(q32, &gather32, dim, bound32, &mut keys32[..n]);
                        stats.distance_evals += n as u64;
                        for (&oid, &key32) in gather_ids.iter().zip(keys32[..n].iter()) {
                            if key32 <= bound32 {
                                // Exact f64 rescore: insertion uses the
                                // same keys the pure f64 path would.
                                let key = dist.eval_key(query, self.coll.vector(oid as usize));
                                stats.distance_evals += 1;
                                if key <= bound {
                                    kb.push(oid, key);
                                }
                            }
                        }
                    } else {
                        gather.clear();
                        for e in entries {
                            if lo > 0.0 && item.d2_router.is_finite() {
                                let lb = (item.d2_router - e.dist_to_parent).abs();
                                if lo * lb > tau {
                                    continue;
                                }
                            }
                            gather.extend_from_slice(self.coll.vector(e.oid as usize));
                            gather_ids.push(e.oid);
                        }
                        let n = gather_ids.len();
                        dist.eval_key_batch(query, &gather, dim, kb.threshold(), &mut keys[..n]);
                        stats.distance_evals += n as u64;
                        let bound = kb.threshold();
                        for (&oid, &key) in gather_ids.iter().zip(keys[..n].iter()) {
                            if key <= bound {
                                kb.push(oid, key);
                            }
                        }
                    }
                }
                MNode::Inner(entries) => {
                    // `tau` from the node pop stays valid: inner entries
                    // never push into `kb`, so the threshold can't move.
                    for e in entries {
                        // Prefilter before computing d₂(q, e.router).
                        if lo > 0.0 && item.d2_router.is_finite() {
                            let lb =
                                ((item.d2_router - e.dist_to_parent).abs() - e.radius).max(0.0);
                            if lo * lb > tau {
                                continue;
                            }
                        }
                        let d2r = Euclidean.eval(query, self.coll.vector(e.router as usize));
                        let bound = (d2r - e.radius).max(0.0);
                        if lo > 0.0 && lo * bound > tau {
                            continue;
                        }
                        queue.push(Reverse(Item {
                            bound,
                            node: e.child,
                            d2_router: d2r,
                        }));
                    }
                }
            }
        }
        (kb.into_sorted_with(|key| dist.finish_key(key)), stats)
    }

    /// Structural invariants: covering radii really cover, dist_to_parent
    /// fields are exact, every object appears exactly once.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let mut seen = vec![false; self.coll.len()];
        self.verify_node(self.root, None, &mut seen)?;
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("object {missing} missing from tree"));
        }
        Ok(())
    }

    fn verify_node(&self, node: u32, router: Option<u32>, seen: &mut [bool]) -> Result<(), String> {
        match &self.nodes[node as usize] {
            MNode::Leaf(entries) => {
                for e in entries {
                    if std::mem::replace(&mut seen[e.oid as usize], true) {
                        return Err(format!("object {} appears twice", e.oid));
                    }
                    if let Some(r) = router {
                        let d = self.d2(e.oid, r);
                        if (d - e.dist_to_parent).abs() > 1e-9 {
                            return Err(format!(
                                "leaf dtp stale for {}: {d} vs {}",
                                e.oid, e.dist_to_parent
                            ));
                        }
                    }
                }
                Ok(())
            }
            MNode::Inner(entries) => {
                if entries.is_empty() {
                    return Err(format!("empty inner node {node}"));
                }
                for e in entries {
                    if let Some(r) = router {
                        let d = self.d2(e.router, r);
                        if (d - e.dist_to_parent).abs() > 1e-9 {
                            return Err(format!("inner dtp stale for router {}", e.router));
                        }
                    }
                    // Covering radius: every object below within e.radius.
                    let mut stack = vec![e.child];
                    while let Some(id) = stack.pop() {
                        match &self.nodes[id as usize] {
                            MNode::Leaf(ls) => {
                                for le in ls {
                                    let d = self.d2(le.oid, e.router);
                                    if d > e.radius + 1e-9 {
                                        return Err(format!(
                                            "radius violated: object {} at {d} > {} from router {}",
                                            le.oid, e.radius, e.router
                                        ));
                                    }
                                }
                            }
                            MNode::Inner(is) => {
                                for ie in is {
                                    stack.push(ie.child);
                                }
                            }
                        }
                    }
                    self.verify_node(e.child, Some(e.router), seen)?;
                }
                Ok(())
            }
        }
    }
}

impl KnnEngine for MTree<'_> {
    fn knn(&self, query: &[f64], k: usize, dist: &dyn Distance) -> Vec<Neighbor> {
        self.knn_inner(query, k, dist).0
    }

    fn knn_with_stats(
        &self,
        query: &[f64],
        k: usize,
        dist: &dyn Distance,
    ) -> (Vec<Neighbor>, SearchStats) {
        self.knn_inner(query, k, dist)
    }

    fn range(&self, query: &[f64], radius: f64, dist: &dyn Distance) -> Vec<Neighbor> {
        let lo = lower_factor(dist);
        // Key-space inclusion (d ≤ r ⇔ key ≤ key_of_dist(r)): the same
        // test the scan and VP-tree use, so all engines agree exactly.
        let key_bound = dist.key_of_dist(radius);
        let mut out = Vec::new();
        let mut stack: Vec<(u32, f64)> = vec![(self.root, f64::NAN)];
        while let Some((node, d2_router)) = stack.pop() {
            match &self.nodes[node as usize] {
                MNode::Leaf(entries) => {
                    for e in entries {
                        if lo > 0.0 && d2_router.is_finite() {
                            let lb = (d2_router - e.dist_to_parent).abs();
                            if lo * lb > radius {
                                continue;
                            }
                        }
                        let key = dist.eval_key(query, self.coll.vector(e.oid as usize));
                        if key <= key_bound {
                            out.push(Neighbor {
                                index: e.oid,
                                dist: dist.finish_key(key),
                            });
                        }
                    }
                }
                MNode::Inner(entries) => {
                    for e in entries {
                        let d2r = Euclidean.eval(query, self.coll.vector(e.router as usize));
                        let bound = (d2r - e.radius).max(0.0);
                        if lo > 0.0 && lo * bound > radius {
                            continue;
                        }
                        stack.push((e.child, d2r));
                    }
                }
            }
        }
        out.sort_unstable_by(Neighbor::total_cmp);
        out
    }

    fn name(&self) -> &str {
        "m-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::distance::WeightedEuclidean;
    use crate::knn::LinearScan;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_collection(n: usize, dim: usize, seed: u64) -> Collection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CollectionBuilder::new();
        for _ in 0..n {
            let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
            b.push_unlabelled(&v).unwrap();
        }
        b.build()
    }

    /// The mirrored leaf path (f32 gather + admission filter + exact
    /// rescore) answers bit-identically to the flat f64 oracle — and to
    /// the same tree without a mirror.
    #[test]
    fn mirrored_leaves_bit_identical() {
        let mut c = random_collection(400, 6, 91);
        let plain = c.clone();
        c.ensure_f32_mirror();
        let mirrored = MTree::with_defaults(&c);
        let bare = MTree::with_defaults(&plain);
        let scan = LinearScan::new(&plain);
        let w = WeightedEuclidean::new(vec![3.0, 0.1, 1.0, 8.0, 0.5, 2.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let q: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            for k in [1, 7, 25] {
                let m_e = mirrored.knn(&q, k, &Euclidean);
                assert_eq!(m_e, scan.knn(&q, k, &Euclidean));
                assert_eq!(m_e, bare.knn(&q, k, &Euclidean));
                let m_w = mirrored.knn(&q, k, &w);
                assert_eq!(m_w, scan.knn(&q, k, &w));
                assert_eq!(m_w, bare.knn(&q, k, &w));
            }
        }
    }

    /// The mirror halves the gathered leaf bytes but must not change
    /// which nodes the best-first descent visits (the pruning bounds are
    /// all f64): same nodes, phase-1 evals plus a few rescores.
    #[test]
    fn mirrored_leaves_visit_same_nodes() {
        let mut c = random_collection(600, 5, 93);
        let plain = c.clone();
        c.ensure_f32_mirror();
        let mirrored = MTree::with_defaults(&c);
        let bare = MTree::with_defaults(&plain);
        let q = [0.4, 0.6, 0.5, 0.3, 0.7];
        let (rm, sm) = mirrored.knn_with_stats(&q, 5, &Euclidean);
        let (rb, sb) = bare.knn_with_stats(&q, 5, &Euclidean);
        assert_eq!(rm, rb);
        assert_eq!(sm.nodes_visited, sb.nodes_visited);
        assert!(sm.distance_evals >= sb.distance_evals);
    }

    #[test]
    fn invariants_after_build() {
        for n in [1, 2, 17, 100, 500] {
            let c = random_collection(n, 5, n as u64);
            let t = MTree::with_defaults(&c);
            t.verify_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn grows_in_height() {
        let c = random_collection(600, 4, 9);
        let t = MTree::build(&c, MTreeConfig { max_entries: 8 });
        assert!(t.height() >= 3, "height {}", t.height());
        t.verify_invariants().unwrap();
    }

    #[test]
    fn knn_agrees_with_scan_euclidean() {
        let c = random_collection(400, 6, 21);
        let t = MTree::with_defaults(&c);
        let scan = LinearScan::new(&c);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let q: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            let a = t.knn(&q, 10, &Euclidean);
            let b = scan.knn(&q, 10, &Euclidean);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn knn_agrees_with_scan_weighted() {
        let c = random_collection(300, 5, 33);
        let t = MTree::with_defaults(&c);
        let scan = LinearScan::new(&c);
        let w = WeightedEuclidean::new(vec![3.0, 0.1, 1.0, 8.0, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..25 {
            let q: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..1.0)).collect();
            let a = t.knn(&q, 7, &w);
            let b = scan.knn(&q, 7, &w);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pruning_beats_exhaustive() {
        let c = random_collection(3000, 4, 55);
        let t = MTree::with_defaults(&c);
        let (_, stats) = t.knn_with_stats(&[0.5, 0.5, 0.5, 0.5], 5, &Euclidean);
        assert!(
            stats.distance_evals < 3000,
            "no pruning: {} evals",
            stats.distance_evals
        );
    }

    #[test]
    fn range_agrees_with_scan() {
        let c = random_collection(400, 4, 77);
        let t = MTree::with_defaults(&c);
        let scan = LinearScan::new(&c);
        let q = [0.4, 0.6, 0.5, 0.5];
        for r in [0.05, 0.2, 0.5] {
            assert_eq!(t.range(&q, r, &Euclidean), scan.range(&q, r, &Euclidean));
        }
        let w = WeightedEuclidean::new(vec![2.0, 1.0, 0.5, 4.0]).unwrap();
        assert_eq!(t.range(&q, 0.4, &w), scan.range(&q, 0.4, &w));
    }

    #[test]
    fn empty_and_singleton() {
        let empty = CollectionBuilder::new().build();
        let t = MTree::with_defaults(&empty);
        assert!(t.knn(&[], 5, &Euclidean).is_empty());

        let mut b = CollectionBuilder::new();
        b.push_unlabelled(&[2.0, 2.0]).unwrap();
        let one = b.build();
        let t1 = MTree::with_defaults(&one);
        let r = t1.knn(&[0.0, 0.0], 5, &Euclidean);
        assert_eq!(r.len(), 1);
        assert!((r[0].dist - (8.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn duplicates_all_found() {
        let mut b = CollectionBuilder::new();
        for _ in 0..40 {
            b.push_unlabelled(&[1.0, 2.0]).unwrap();
        }
        let c = b.build();
        let t = MTree::build(&c, MTreeConfig { max_entries: 4 });
        t.verify_invariants().unwrap();
        let r = t.knn(&[1.0, 2.0], 40, &Euclidean);
        assert_eq!(r.len(), 40);
    }
}
