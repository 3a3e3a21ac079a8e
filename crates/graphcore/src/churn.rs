//! Seeded edge churn over a fixed vertex set — the dynamic-graph
//! workload model.
//!
//! A [`ChurnPlan`] describes a deterministic sequence of edit batches
//! (edge inserts and deletes) over a base graph: [`churn_sequence`]
//! materializes the batches with a ChaCha-seeded RNG, validating each
//! delete against the evolving edge set and each insert against
//! non-adjacency, and [`apply`] rebuilds the CSR graph after a batch.
//! The vertex set never changes, so a prior run's per-vertex outputs
//! stay index-aligned across batches — the invariant the engine's
//! warm-start seam (`simlocal`) relies on.

use crate::builder::from_sorted_edges;
use crate::csr::{Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// A deterministic churn schedule: how many batches, how many edits per
/// batch, and the seed that pins the whole sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// RNG seed; equal plans over equal base graphs yield equal batches.
    pub seed: u64,
    /// Number of edit batches.
    pub batches: usize,
    /// Edge insertions per batch (between currently non-adjacent pairs).
    pub inserts_per_batch: usize,
    /// Edge deletions per batch (of currently present edges).
    pub deletes_per_batch: usize,
}

/// One batch of edits, valid against the graph state it was drawn for:
/// every delete is a present edge, every insert a absent non-loop pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditBatch {
    /// Edges added (stored with `u < v`).
    pub inserts: Vec<(VertexId, VertexId)>,
    /// Edges removed (stored with `u < v`).
    pub deletes: Vec<(VertexId, VertexId)>,
}

impl EditBatch {
    /// Every vertex incident to an edit — the seeds of the engine's
    /// reactivation BFS.
    pub fn endpoints(&self) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .inserts
            .iter()
            .chain(&self.deletes)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total edit count.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch contains no edits.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Draws the plan's batches against the evolving graph, starting from
/// `base`. Batch `i` is valid for (and [`apply`]-able to) the graph
/// produced by applying batches `0..i` in order.
///
/// Deletes are drawn uniformly from the current edges; inserts are
/// rejection-sampled uniform non-adjacent pairs. If the graph runs out
/// of edges (or of absent pairs) a batch simply carries fewer edits.
pub fn churn_sequence(base: &Graph, plan: &ChurnPlan) -> Vec<EditBatch> {
    assert!(base.n() >= 2, "churn needs at least two vertices");
    let n = base.n();
    let mut rng = ChaCha8Rng::seed_from_u64(plan.seed);
    // Current edge multiverse: dense vec for indexed deletion draws plus
    // a set for O(1) adjacency tests. Swap-remove keeps draws O(1); the
    // vec order is RNG-history-deterministic, so sequences reproduce.
    let mut edges: Vec<(VertexId, VertexId)> = base.edges().map(|(_, e)| e).collect();
    let mut present: HashSet<(VertexId, VertexId)> = edges.iter().copied().collect();
    let mut batches = Vec::with_capacity(plan.batches);
    for _ in 0..plan.batches {
        let mut batch = EditBatch::default();
        for _ in 0..plan.deletes_per_batch {
            if edges.is_empty() {
                break;
            }
            let i = rng.gen_range(0..edges.len());
            let e = edges.swap_remove(i);
            present.remove(&e);
            batch.deletes.push(e);
        }
        let max_edges = n * (n - 1) / 2;
        for _ in 0..plan.inserts_per_batch {
            if present.len() >= max_edges {
                break;
            }
            // Rejection sampling; sparse workloads accept almost surely.
            let e = loop {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v {
                    continue;
                }
                let e = if u < v { (u, v) } else { (v, u) };
                if !present.contains(&e) {
                    break e;
                }
            };
            present.insert(e);
            edges.push(e);
            batch.inserts.push(e);
        }
        batches.push(batch);
    }
    batches
}

/// Applies one batch to `g`, returning the edited graph (same vertex
/// set). Panics if a delete is absent or an insert already present —
/// batches are only valid against the graph they were drawn for.
///
/// Linear in `m` plus the batch: the batch is validated against the
/// sorted adjacency, then the already-sorted edge list is merged with the
/// sorted deletes and inserts in one pass, so the edited graph's edge ids
/// are those of a fresh build of its edge set.
pub fn apply(g: &Graph, batch: &EditBatch) -> Graph {
    let n = g.n();
    let mut deletes = batch.deletes.clone();
    deletes.sort_unstable();
    for (i, &e) in deletes.iter().enumerate() {
        let present = e.0 < e.1 && (e.1 as usize) < n && g.has_edge(e.0, e.1);
        let repeated = i > 0 && deletes[i - 1] == e;
        assert!(present && !repeated, "delete {e:?}: edge not present");
    }
    let mut inserts = batch.inserts.clone();
    inserts.sort_unstable();
    for (i, &e) in inserts.iter().enumerate() {
        assert!(e.0 != e.1, "insert {e:?}: self-loop");
        assert!(e.0 < e.1, "insert {e:?}: endpoints not stored as u < v");
        assert!((e.1 as usize) < n, "edge {e:?} out of range for n={n}");
        let present = g.has_edge(e.0, e.1) && deletes.binary_search(&e).is_err();
        let repeated = i > 0 && inserts[i - 1] == e;
        assert!(!present && !repeated, "insert {e:?}: edge already present");
    }

    // Deletes are a sorted subset of the sorted edge list, and no insert
    // equals a kept edge, so one merge yields the sorted edited set.
    let mut edges = Vec::with_capacity(g.m() + inserts.len() - deletes.len());
    let mut dels = deletes.iter().peekable();
    let mut ins = inserts.into_iter().peekable();
    for (_, e) in g.edges() {
        if dels.next_if_eq(&&e).is_some() {
            continue;
        }
        while let Some(x) = ins.next_if(|&x| x < e) {
            edges.push(x);
        }
        edges.push(e);
    }
    edges.extend(ins);
    from_sorted_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen;
    use proptest::prelude::*;

    /// The HashSet-rebuild `apply` the merge replaced: the oracle the
    /// linear merge is pinned against.
    fn apply_by_rebuild(g: &Graph, batch: &EditBatch) -> Graph {
        let mut present: HashSet<(VertexId, VertexId)> = g.edges().map(|(_, e)| e).collect();
        for &e in &batch.deletes {
            assert!(present.remove(&e), "delete {e:?}: edge not present");
        }
        for &e in &batch.inserts {
            assert!(e.0 != e.1, "insert {e:?}: self-loop");
            assert!(present.insert(e), "insert {e:?}: edge already present");
        }
        let mut sorted: Vec<(VertexId, VertexId)> = present.into_iter().collect();
        sorted.sort_unstable();
        GraphBuilder::new(g.n()).edges(sorted).build()
    }

    fn plan(seed: u64) -> ChurnPlan {
        ChurnPlan {
            seed,
            batches: 4,
            inserts_per_batch: 3,
            deletes_per_batch: 2,
        }
    }

    #[test]
    fn sequence_is_deterministic() {
        let g = gen::grid(8, 8);
        let a = churn_sequence(&g, &plan(7));
        let b = churn_sequence(&g, &plan(7));
        assert_eq!(a, b);
        let c = churn_sequence(&g, &plan(8));
        assert_ne!(a, c, "different seeds give different sequences");
    }

    #[test]
    fn batches_apply_cleanly_in_order() {
        let base = gen::grid(6, 6);
        let batches = churn_sequence(&base, &plan(3));
        assert_eq!(batches.len(), 4);
        let mut g = base.clone();
        for b in &batches {
            assert_eq!(b.len(), 5);
            g = apply(&g, b);
            assert!(g.check_invariants());
            assert_eq!(g.n(), base.n(), "vertex set is fixed");
        }
        // Net edge drift: +3 −2 per batch.
        assert_eq!(g.m(), base.m() + 4);
    }

    #[test]
    fn endpoints_are_sorted_unique() {
        let b = EditBatch {
            inserts: vec![(3, 5), (1, 3)],
            deletes: vec![(0, 1)],
        };
        assert_eq!(b.endpoints(), vec![0, 1, 3, 5]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "edge not present")]
    fn apply_rejects_stale_delete() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![],
            deletes: vec![(0, 3)],
        };
        apply(&g, &b);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn apply_rejects_duplicate_insert() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![(0, 1)],
            deletes: vec![],
        };
        apply(&g, &b);
    }

    #[test]
    #[should_panic(expected = "edge not present")]
    fn apply_rejects_repeated_delete() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![],
            deletes: vec![(1, 2), (1, 2)],
        };
        apply(&g, &b);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn apply_rejects_repeated_insert() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![(0, 3), (0, 3)],
            deletes: vec![],
        };
        apply(&g, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The merge equals the rebuild, `Graph` for `Graph` (so edge ids
        // too), along whole churn chains; each batch is also checked with
        // one of its deletes re-inserted in the same batch.
        #[test]
        fn apply_equals_rebuild(
            n in 2usize..60,
            p_millis in 10u64..300,
            gseed in 0u64..1000,
            cseed in 0u64..1000,
            inserts in 0usize..6,
            deletes in 0usize..6,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(gseed);
            let base = gen::gnp(n, p_millis as f64 / 1000.0, &mut rng).graph;
            let plan = ChurnPlan {
                seed: cseed,
                batches: 4,
                inserts_per_batch: inserts,
                deletes_per_batch: deletes,
            };
            let mut g = base.clone();
            for batch in churn_sequence(&base, &plan) {
                if let Some(&e) = batch.deletes.iter().find(|e| !batch.inserts.contains(e)) {
                    let mut reinsert = batch.clone();
                    reinsert.inserts.push(e);
                    prop_assert_eq!(apply(&g, &reinsert), apply_by_rebuild(&g, &reinsert));
                }
                let merged = apply(&g, &batch);
                prop_assert_eq!(&merged, &apply_by_rebuild(&g, &batch));
                g = merged;
            }
        }
    }
}
