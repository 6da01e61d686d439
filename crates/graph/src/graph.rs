//! The [`WeightedGraph`] type: an undirected weighted graph with port numbers.
//!
//! The adjacency list of each vertex is ordered; the index of a neighbour in
//! that list is the *port number* of the edge at that endpoint, exactly as a
//! node in the CONGEST model would address its incident links. The routing
//! tables of this workspace name tree neighbours by vertex id, and each tree
//! table also stores the port of its parent edge (resolved once with
//! [`WeightedGraph::port_towards`] when the scheme is assembled), so a route
//! weighs a hop with one [`WeightedGraph::neighbors`] read instead of a scan
//! ([`WeightedGraph::edge_weight`]) — the paper's model, where a node
//! forwards through one of its own ports.

use crate::error::GraphError;
use crate::types::{Dist, NodeId, Weight};

/// A neighbour entry in an adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    /// The neighbouring vertex.
    pub node: NodeId,
    /// The weight of the connecting edge.
    pub weight: Weight,
}

/// An undirected edge `(u, v)` with weight `w`, reported with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
    /// The edge weight.
    pub weight: Weight,
}

/// An undirected weighted graph on vertices `0..n`.
///
/// Construction is incremental via [`WeightedGraph::new`] +
/// [`WeightedGraph::add_edge`], or in one shot via
/// [`WeightedGraph::from_edges`].
///
/// # Example
///
/// ```
/// use en_graph::WeightedGraph;
///
/// let mut g = WeightedGraph::new(3);
/// g.add_edge(0, 1, 5).unwrap();
/// g.add_edge(1, 2, 7).unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedGraph {
    adj: Vec<Vec<Neighbor>>,
    num_edges: usize,
}

impl WeightedGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error if any edge references a vertex `>= n`, has zero
    /// weight, is a self-loop, or duplicates an earlier edge.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, Weight)>,
    {
        let mut g = WeightedGraph::new(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Number of vertices `n`.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes()
    }

    /// Adds the undirected edge `(u, v)` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error if `u` or `v` is out of range, `w == 0`, `u == v`, or
    /// the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<(), GraphError> {
        let n = self.num_nodes();
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.adj[u].push(Neighbor { node: v, weight: w });
        self.adj[v].push(Neighbor { node: u, weight: w });
        self.num_edges += 1;
        Ok(())
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u].iter().any(|nb| nb.node == v)
    }

    /// Returns the weight of edge `(u, v)`, if present.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.adj[u]
            .iter()
            .find(|nb| nb.node == v)
            .map(|nb| nb.weight)
    }

    /// The ordered neighbour list of `u`; position `p` in this slice is port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> &[Neighbor] {
        &self.adj[u]
    }

    /// Degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// The port number at `u` of the edge towards neighbour `v`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn port_towards(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.adj[u].iter().position(|nb| nb.node == v)
    }

    /// The neighbour reached from `u` through port `port`, if the port exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbor_at_port(&self, u: NodeId, port: usize) -> Option<Neighbor> {
        self.adj[u].get(port).copied()
    }

    /// Iterator over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbs)| {
            nbs.iter().filter_map(move |nb| {
                if u < nb.node {
                    Some(Edge {
                        u,
                        v: nb.node,
                        weight: nb.weight,
                    })
                } else {
                    None
                }
            })
        })
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> Dist {
        self.edges().map(|e| e.weight).sum()
    }

    /// Maximum edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> Weight {
        self.edges().map(|e| e.weight).max().unwrap_or(0)
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }
}

impl FromIterator<(NodeId, NodeId, Weight)> for WeightedGraph {
    /// Collects an edge list into a graph sized to the largest referenced
    /// vertex id; duplicate edges keep the first weight seen.
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId, Weight)>>(iter: I) -> Self {
        let edges: Vec<_> = iter.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(u, v, _)| u.max(v) + 1)
            .max()
            .unwrap_or(0);
        let mut g = WeightedGraph::new(n);
        for (u, v, w) in edges {
            if u != v && w > 0 && !g.has_edge(u, v) {
                // Errors are impossible here: nodes are in range by construction.
                let _ = g.add_edge(u, v, w);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        WeightedGraph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 5)]).unwrap()
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = WeightedGraph::new(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_empty());
        assert!(WeightedGraph::new(0).is_empty());
    }

    #[test]
    fn add_edge_updates_both_endpoints() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(1, 0), Some(1));
        assert_eq!(g.edge_weight(0, 2), Some(5));
        assert_eq!(g.edge_weight(1, 3), None);
    }

    #[test]
    fn add_edge_rejects_out_of_range() {
        let mut g = WeightedGraph::new(2);
        assert_eq!(
            g.add_edge(0, 2, 1),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
        assert_eq!(
            g.add_edge(5, 0, 1),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn add_edge_rejects_self_loop_zero_weight_duplicate() {
        let mut g = WeightedGraph::new(3);
        assert_eq!(g.add_edge(1, 1, 1), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(
            g.add_edge(0, 1, 0),
            Err(GraphError::ZeroWeight { u: 0, v: 1 })
        );
        g.add_edge(0, 1, 3).unwrap();
        assert_eq!(
            g.add_edge(1, 0, 4),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
    }

    #[test]
    fn ports_are_stable_and_symmetric_lookup_works() {
        let g = triangle();
        let p01 = g.port_towards(0, 1).unwrap();
        let p02 = g.port_towards(0, 2).unwrap();
        assert_ne!(p01, p02);
        assert_eq!(g.neighbor_at_port(0, p01).unwrap().node, 1);
        assert_eq!(g.neighbor_at_port(0, p02).unwrap().node, 2);
        assert_eq!(g.neighbor_at_port(0, 99), None);
        assert_eq!(g.port_towards(1, 1), None);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|e| e.u < e.v));
        assert_eq!(g.total_weight(), 8);
        assert_eq!(g.max_weight(), 5);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn from_iter_sizes_graph_and_skips_invalid() {
        let g: WeightedGraph = [(0, 3, 2), (0, 0, 1), (3, 0, 9), (1, 2, 0)]
            .into_iter()
            .collect();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 3), Some(2));
    }

    #[test]
    fn from_edges_propagates_errors() {
        assert!(WeightedGraph::from_edges(2, [(0, 1, 1), (0, 1, 2)]).is_err());
        assert!(WeightedGraph::from_edges(2, [(0, 1, 1)]).is_ok());
    }
}
