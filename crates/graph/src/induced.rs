//! Induced-subgraph extraction.
//!
//! Given a sorted vertex subset `W ⊆ V`, the induced subgraph `G[W]` keeps
//! exactly the edges with both endpoints in `W`. Mining algorithms operate
//! on the *relabeled* graph (local ids `0..|W|`) and map results back via
//! [`InducedSubgraph::original`].

use crate::bitadj::VertexBitset;
use crate::csr::{CsrGraph, VertexId};

/// A relabeled induced subgraph together with its vertex mapping.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph with local vertex ids `0..k`.
    pub graph: CsrGraph,
    /// `original[local] = global id`; sorted ascending (so local order
    /// preserves global order).
    pub original: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Extracts `G[W]` for a sorted, duplicate-free vertex set `W`.
    ///
    /// Runs in `O(|V(G)| + Σ_{v ∈ W} deg(v))` time: a rank array indexed by
    /// global id (allocated per call) maps each member to its local id, and
    /// each member's neighbor list is filtered through it. `W` is sorted, so
    /// the ranks are monotone and every local row comes out ascending.
    pub fn extract(g: &CsrGraph, set: &[VertexId]) -> Self {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        let mut rank: Vec<VertexId> = vec![VertexId::MAX; g.num_vertices()];
        for (local, &v) in set.iter().enumerate() {
            rank[v as usize] = local as VertexId;
        }
        let mut offsets = Vec::with_capacity(set.len() + 1);
        offsets.push(0usize);
        let mut neighbors: Vec<VertexId> = Vec::new();
        for &v in set {
            neighbors.extend(
                g.neighbors(v)
                    .iter()
                    .map(|&w| rank[w as usize])
                    .filter(|&r| r != VertexId::MAX),
            );
            offsets.push(neighbors.len());
        }
        InducedSubgraph {
            graph: CsrGraph::from_parts(offsets, neighbors),
            original: set.to_vec(),
        }
    }

    /// Carves a *child* induced subgraph out of this one: keeps exactly the
    /// parent-local vertices in `keep` and relabels them `0..keep.count()`.
    ///
    /// This is the incremental-projection fast path of the lattice DFS:
    /// a child attribute set's vertex set is contained in its parent's
    /// (`V(S ∪ {a}) ⊆ V(S)`, and the Theorem-3 cover restriction only
    /// shrinks it further), so the child's subgraph is
    /// [`InducedSubgraph::extract`] over the parent's compact CSR, in
    /// `O(|W_parent| + Σ_{v ∈ keep} deg_parent(v))`, with `original` mapped
    /// through the parent. The result is **identical** to `extract` on the
    /// corresponding global vertex set (local order preserves global order
    /// in both constructions).
    pub fn project(&self, keep: &VertexBitset) -> InducedSubgraph {
        debug_assert_eq!(keep.universe(), self.num_vertices());
        let locals: Vec<VertexId> = keep.iter().collect();
        let mut sub = Self::extract(&self.graph, &locals);
        for v in &mut sub.original {
            *v = self.original[*v as usize];
        }
        sub
    }

    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Maps a local vertex id back to the global id.
    #[inline]
    pub fn to_original(&self, local: VertexId) -> VertexId {
        self.original[local as usize]
    }

    /// Maps a set of local ids back to (sorted) global ids.
    pub fn to_original_set(&self, locals: &[VertexId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = locals.iter().map(|&l| self.to_original(l)).collect();
        out.sort_unstable();
        out
    }

    /// Maps a global id to its local id, if present.
    pub fn to_local(&self, global: VertexId) -> Option<VertexId> {
        self.original
            .binary_search(&global)
            .ok()
            .map(|i| i as VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn diamond() -> CsrGraph {
        // 0-1, 0-2, 1-2, 1-3, 2-3
        graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn extract_preserves_internal_edges_only() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // triangle 1-2-3
        assert!(sub.graph.has_edge(0, 1)); // local 0=1, 1=2
        assert_eq!(sub.to_original(0), 1);
        assert_eq!(sub.to_original_set(&[0, 2]), vec![1, 3]);
    }

    #[test]
    fn extract_empty_and_single() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        let sub1 = InducedSubgraph::extract(&g, &[2]);
        assert_eq!(sub1.num_vertices(), 1);
        assert_eq!(sub1.graph.num_edges(), 0);
    }

    #[test]
    fn extract_disconnected_subset() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[0, 3]);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    fn to_local_roundtrip() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[0, 2, 3]);
        for local in 0..sub.num_vertices() as VertexId {
            let global = sub.to_original(local);
            assert_eq!(sub.to_local(global), Some(local));
        }
        assert_eq!(sub.to_local(1), None);
    }

    #[test]
    fn project_equals_extract() {
        let g = diamond();
        let parent = InducedSubgraph::extract(&g, &[0, 1, 2, 3]);
        // Keep parent-locals {1, 2, 3} = globals {1, 2, 3}.
        let keep = VertexBitset::from_sorted(4, &[1, 2, 3]);
        let child = parent.project(&keep);
        let direct = InducedSubgraph::extract(&g, &[1, 2, 3]);
        assert_eq!(child.graph, direct.graph);
        assert_eq!(child.original, direct.original);
    }

    #[test]
    fn project_chains_through_relabeled_parents() {
        let g = diamond();
        // Parent locals 0,1,2; keep parent-locals {0, 2} = globals {1, 3}.
        let parent = InducedSubgraph::extract(&g, &[1, 2, 3]);
        let keep = VertexBitset::from_sorted(3, &[0, 2]);
        let child = parent.project(&keep);
        let direct = InducedSubgraph::extract(&g, &[1, 3]);
        assert_eq!(child.graph, direct.graph);
        assert_eq!(child.original, direct.original);
        assert_eq!(child.graph.num_edges(), 1); // edge 1-3
    }

    #[test]
    fn project_empty_keep() {
        let g = diamond();
        let parent = InducedSubgraph::extract(&g, &[0, 1, 2]);
        let child = parent.project(&VertexBitset::empty(3));
        assert_eq!(child.num_vertices(), 0);
    }

    #[test]
    fn whole_graph_extraction_is_identity() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[0, 1, 2, 3]);
        assert_eq!(sub.graph, g);
    }
}
