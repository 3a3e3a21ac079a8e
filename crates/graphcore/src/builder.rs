//! Edge-list graph construction.

use crate::csr::{EdgeId, Graph, VertexId};

/// Builds an undirected simple [`Graph`] from an edge list.
///
/// Self-loops are rejected (panic) and parallel edges are deduplicated
/// silently — generators may produce the same edge twice (e.g. overlapping
/// forests in [`crate::gen::forest_union`]) and the union is what's wanted.
///
/// ```
/// use graphcore::GraphBuilder;
/// let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (1, 0)]).build();
/// assert_eq!(g.m(), 2); // (1,0) deduplicated against (0,1)
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "vertex count exceeds u32 index space"
        );
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds a single undirected edge `{u, v}`.
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push(u, v);
        self
    }

    /// Adds many edges.
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, it: I) -> Self {
        for (u, v) in it {
            self.push(u, v);
        }
        self
    }

    /// In-place edge insertion for loop-heavy generators.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "self-loop {{{u},{u}}} rejected");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Number of (not yet deduplicated) edges added so far.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes into a CSR [`Graph`], deduplicating parallel edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        from_sorted_edges(self.n, self.edges)
    }
}

/// Lays out the CSR arrays for `edges`, which must be sorted by `(u, v)`,
/// free of duplicates and stored with `u < v`; edge ids follow that
/// order.
///
/// One pass places both half-edges of each edge, and every neighbor
/// list comes out sorted: vertex `x`'s entries from edges `(u, x)`,
/// `u < x`, all precede those from edges `(x, v)` in the sorted order,
/// and within each group the partner increases. So no list needs a sort
/// and no per-vertex buffer is allocated.
pub(crate) fn from_sorted_edges(n: usize, edges: Vec<(VertexId, VertexId)>) -> Graph {
    debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
    let mut degree = vec![0u32; n];
    for &(u, v) in &edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for d in &degree {
        acc = acc.checked_add(*d).expect("half-edge count overflows u32");
        offsets.push(acc);
    }

    let mut cursor = degree;
    cursor.copy_from_slice(&offsets[..n]);
    let mut neighbors = vec![0 as VertexId; acc as usize];
    let mut edge_ids = vec![0 as EdgeId; acc as usize];
    for (e, &(u, v)) in edges.iter().enumerate() {
        for (owner, nb) in [(u, v), (v, u)] {
            let c = &mut cursor[owner as usize];
            neighbors[*c as usize] = nb;
            edge_ids[*c as usize] = e as EdgeId;
            *c += 1;
        }
    }

    Graph::from_parts(offsets, neighbors, edge_ids, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_parallel_edges() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 0), (0, 1), (2, 3)])
            .build();
        assert_eq!(g.m(), 2);
        assert!(g.check_invariants());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        GraphBuilder::new(2).edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).edge(0, 2);
    }

    #[test]
    fn sorted_adjacency_after_interleaved_roles() {
        // Vertex 2 is higher endpoint for (0,2),(1,2) and lower for (2,3),(2,4).
        let g = GraphBuilder::new(5)
            .edges([(2, 4), (0, 2), (2, 3), (1, 2)])
            .build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert!(g.check_invariants());
    }

    #[test]
    fn edge_ids_are_dense_and_consistent() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        let mut seen = vec![false; g.m()];
        for (e, (u, v)) in g.edges() {
            assert!(!seen[e as usize]);
            seen[e as usize] = true;
            assert_eq!(g.edge_between(u, v), Some(e));
        }
        assert!(seen.iter().all(|&s| s));
    }

    mod build_props {
        use super::*;
        use proptest::prelude::*;

        /// The CSR layout by per-vertex sort: place both half-edges in
        /// edge order, then sort each list by neighbor, carrying edge ids.
        fn sorted_per_list(n: usize, mut edges: Vec<(VertexId, VertexId)>) -> Graph {
            edges.sort_unstable();
            edges.dedup();
            let mut lists: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); n];
            for (e, &(u, v)) in edges.iter().enumerate() {
                lists[u as usize].push((v, e as EdgeId));
                lists[v as usize].push((u, e as EdgeId));
            }
            let mut offsets = vec![0u32];
            let (mut neighbors, mut edge_ids) = (Vec::new(), Vec::new());
            for mut l in lists {
                l.sort_unstable();
                for (nb, e) in l {
                    neighbors.push(nb);
                    edge_ids.push(e);
                }
                offsets.push(neighbors.len() as u32);
            }
            Graph::from_parts(offsets, neighbors, edge_ids, edges)
        }

        proptest! {
            // The single-pass layout is the sorted-list layout, edge ids
            // included, for any edge multiset in any order.
            #[test]
            fn build_equals_sorted_lists(
                n in 2usize..40,
                raw in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
            ) {
                let edges: Vec<(VertexId, VertexId)> = raw
                    .into_iter()
                    .map(|(u, v)| (u % n as u32, v % n as u32))
                    .filter(|(u, v)| u != v)
                    .collect();
                let built = GraphBuilder::new(n).edges(edges.iter().copied()).build();
                let normalized = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                let scanned = built.vertices().map(|v| built.degree(v)).max().unwrap_or(0);
                prop_assert_eq!(built.max_degree(), scanned);
                prop_assert_eq!(built, sorted_per_list(n, normalized));
            }
        }
    }
}
