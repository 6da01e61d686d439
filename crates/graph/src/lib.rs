//! Weighted-graph substrate for the Elkin–Neiman routing-scheme reproduction.
//!
//! This crate provides everything the higher layers (CONGEST simulator,
//! hopsets, tree routing, and the routing scheme itself) need from a graph
//! library:
//!
//! * [`WeightedGraph`] — an undirected weighted graph with integer weights in
//!   `{1, …, poly(n)}`, stored as adjacency lists with stable port numbers
//!   (the index of a neighbour in a node's adjacency list is that node's
//!   *port* towards the neighbour, exactly as in the CONGEST model).
//! * [`csr`] — the flat [`CsrGraph`] view (`offsets`/`targets`/`weights`)
//!   built once from a [`WeightedGraph`]; every hot shortest-path kernel in
//!   the workspace iterates adjacency through it.
//! * [`generators`] — reproducible random and structured graph generators
//!   (Erdős–Rényi, random geometric, grids, rings, trees, Barabási–Albert,
//!   caterpillars, …) used as workloads by the benchmark harness.
//! * [`forest`] — the arena-backed compact [`ClusterForest`]: every cluster
//!   of a family in shared CSR-style arrays (`O(Σ|C|)` memory instead of
//!   `O(n · #clusters)`), an inverted vertex → clusters membership CSR, and
//!   the [`TreeView`] trait that lets tree-routing consume forest slices
//!   zero-copy and [`tree::RootedTree`]s interchangeably.
//! * [`restricted`] — the batched, threshold-restricted multi-source kernel
//!   behind Thorup–Zwick cluster growing, built on the shared [`cell`]
//!   distance-cell machinery (which the Theorem-1 kernel in
//!   `en_congest_algos` reuses).
//! * [`dijkstra`] — exact single-source shortest paths (the ground truth all
//!   stretch measurements are computed against).
//! * [`bellman_ford`] — hop-bounded distances `d^{(t)}_G` (Section 2 of the
//!   paper) and hop counts `h_G(u, v)`.
//! * [`bfs`] — unweighted BFS, BFS trees, the hop-diameter `D` and the
//!   shortest-path diameter `S`.
//! * [`tree`] — rooted-tree utilities (parent arrays, children, DFS orders,
//!   subtree sizes) shared by the tree-routing crate and the cluster trees.
//! * [`properties`] — connectivity and degree statistics used to validate
//!   generated workloads.
//!
//! # Example
//!
//! ```
//! use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
//! use en_graph::dijkstra::dijkstra;
//!
//! let cfg = GeneratorConfig::new(64, 7);
//! let g = erdos_renyi_connected(&cfg, 0.1);
//! let sp = dijkstra(&g, 0);
//! assert_eq!(sp.dist[0], 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bellman_ford;
pub mod bfs;
pub mod cell;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod forest;
pub mod generators;
pub mod graph;
pub mod path;
pub mod properties;
pub mod restricted;
pub mod tree;
pub mod types;

pub use csr::CsrGraph;
pub use error::GraphError;
pub use forest::{
    ClusterForest, ClusterForestBuilder, ClusterId, ClusterView, ForestMember, LocalTopology,
    TreeView,
};
pub use graph::{Edge, Neighbor, WeightedGraph};
pub use path::Path;
pub use restricted::{
    restricted_multi_source_csr, restricted_multi_source_csr_grouped, RestrictedMultiSource,
};
pub use types::{dist_add, is_finite, Dist, NodeId, NodeIdHasher, NodeMap, Weight, INFINITY};
