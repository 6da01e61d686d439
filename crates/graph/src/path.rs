//! The [`Path`] type: an explicit vertex sequence through a graph.
//!
//! Paths are how the workspace records routes taken by packets and the paths
//! realising hopset edges (Property 1 in the paper). A path always stores its
//! vertices in order; its weighted length and hop count are derived from the
//! graph it is validated against.

use crate::graph::WeightedGraph;
use crate::types::{dist_add, Dist, NodeId};

/// An explicit path `v_0, v_1, …, v_t` through a graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Creates a path from an ordered vertex sequence.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Path { nodes }
    }

    /// A path consisting of a single vertex (zero hops).
    pub fn trivial(node: NodeId) -> Self {
        Path { nodes: vec![node] }
    }

    /// A single-vertex path with room reserved for `expected_hops` more
    /// vertices — the forwarding hot loop grows a path one hop at a time,
    /// and pre-sizing skips the doubling reallocations.
    pub fn trivial_with_capacity(node: NodeId, expected_hops: usize) -> Self {
        let mut nodes = Vec::with_capacity(expected_hops + 1);
        nodes.push(node);
        Path { nodes }
    }

    /// The ordered vertices of the path.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The first vertex, if the path is non-empty.
    pub fn source(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// The last vertex, if the path is non-empty.
    pub fn target(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Number of hops (edges) on the path.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Returns `true` if the path has no vertices at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a vertex to the end of the path.
    pub fn push(&mut self, node: NodeId) {
        self.nodes.push(node);
    }

    /// Checks that every consecutive pair is an edge of `g`.
    pub fn is_valid_in(&self, g: &WeightedGraph) -> bool {
        self.nodes
            .windows(2)
            .all(|w| w[0] < g.num_nodes() && g.has_edge(w[0], w[1]))
            && self.nodes.iter().all(|&v| v < g.num_nodes())
    }

    /// Weighted length of the path in `g`, or `None` if some consecutive pair
    /// is not an edge of `g`.
    pub fn length_in(&self, g: &WeightedGraph) -> Option<Dist> {
        let mut total: Dist = 0;
        for w in self.nodes.windows(2) {
            let weight = g.edge_weight(w[0], w[1])?;
            total = dist_add(total, weight);
        }
        Some(total)
    }

    /// Reverses the path in place.
    pub fn reverse(&mut self) {
        self.nodes.reverse();
    }

    /// Concatenates `other` onto `self`, dropping `other`'s first vertex if it
    /// equals `self`'s last (so `a→b` + `b→c` becomes `a→b→c`).
    pub fn concat(&self, other: &Path) -> Path {
        let mut nodes = self.nodes.clone();
        let mut rest = other.nodes.as_slice();
        if let (Some(&last), Some(&first)) = (nodes.last(), rest.first()) {
            if last == first {
                rest = &rest[1..];
            }
        }
        nodes.extend_from_slice(rest);
        Path { nodes }
    }
}

impl From<Vec<NodeId>> for Path {
    fn from(nodes: Vec<NodeId>) -> Self {
        Path::new(nodes)
    }
}

impl FromIterator<NodeId> for Path {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Path::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;

    fn line() -> WeightedGraph {
        WeightedGraph::from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)]).unwrap()
    }

    #[test]
    fn trivial_path_has_zero_hops_and_zero_length() {
        let g = line();
        let p = Path::trivial(2);
        assert_eq!(p.hops(), 0);
        assert_eq!(p.length_in(&g), Some(0));
        assert_eq!(p.source(), Some(2));
        assert_eq!(p.target(), Some(2));
        assert!(p.is_valid_in(&g));
    }

    #[test]
    fn valid_path_length_sums_weights() {
        let g = line();
        let p = Path::new(vec![0, 1, 2, 3]);
        assert!(p.is_valid_in(&g));
        assert_eq!(p.hops(), 3);
        assert_eq!(p.length_in(&g), Some(9));
    }

    #[test]
    fn invalid_path_detected() {
        let g = line();
        let p = Path::new(vec![0, 2]);
        assert!(!p.is_valid_in(&g));
        assert_eq!(p.length_in(&g), None);
        let p2 = Path::new(vec![0, 9]);
        assert!(!p2.is_valid_in(&g));
    }

    #[test]
    fn concat_merges_shared_endpoint() {
        let a = Path::new(vec![0, 1, 2]);
        let b = Path::new(vec![2, 3]);
        assert_eq!(a.concat(&b).nodes(), &[0, 1, 2, 3]);
        let c = Path::new(vec![3]);
        assert_eq!(a.concat(&c).nodes(), &[0, 1, 2, 3]);
    }

    #[test]
    fn reverse_and_push() {
        let mut p = Path::new(vec![0, 1]);
        p.push(2);
        p.reverse();
        assert_eq!(p.nodes(), &[2, 1, 0]);
    }

    #[test]
    fn empty_path_behaviour() {
        let p = Path::default();
        assert!(p.is_empty());
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), None);
        assert_eq!(p.target(), None);
    }

    #[test]
    fn from_iterator_collects() {
        let p: Path = (0..3).collect();
        assert_eq!(p.nodes(), &[0, 1, 2]);
    }
}
