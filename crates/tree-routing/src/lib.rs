//! Tree routing (Section 6 of the paper): exact (stretch-1) routing in a
//! rooted tree with `O(log n)`-word tables and `O(log² n)`-word labels,
//! constructible in `Õ(√n + D)` rounds.
//!
//! The classic Thorup–Zwick tree-routing scheme assigns DFS intervals and
//! heavy-child pointers, which takes `Θ(depth)` rounds to compute
//! distributively — linear in the worst case. The paper's variant samples
//! ≈ `√n` *portal* vertices `U`, removes the edge from each portal to its
//! parent to split the tree into bounded-depth subtrees, runs the TZ scheme
//! *locally* in every subtree, and runs a second TZ scheme *globally* on the
//! virtual tree `T'` induced on the portals. A routing step first decides, via
//! the global DFS interval, which subtree to head for, and then routes locally
//! inside the current subtree (possibly towards a *portal* whose local label
//! is embedded in the header).
//!
//! This crate implements that two-level scheme exactly as described
//! (Theorem 7), including the degenerate single-level case (`U = {root}`),
//! plus the round accounting of Theorem 7 and Remark 3.
//!
//! # Example
//!
//! ```
//! use en_graph::generators::{random_tree, GeneratorConfig};
//! use en_graph::dijkstra::dijkstra;
//! use en_graph::tree::RootedTree;
//! use en_tree_routing::{TreeRoutingConfig, TreeRoutingScheme};
//!
//! let g = random_tree(&GeneratorConfig::new(64, 3));
//! let tree = RootedTree::from_shortest_paths(&g, &dijkstra(&g, 0));
//! let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(9));
//! let route = scheme.route(17, 42).expect("both vertices are in the tree");
//! assert_eq!(route.nodes().first(), Some(&17));
//! assert_eq!(route.nodes().last(), Some(&42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod label;
pub mod scheme;
pub mod table;

pub use cost::{remark3_rounds, theorem7_rounds};
pub use label::{LabelView, LocalLabel, LocalLabelView, TreeLabel, TreeLabelRef};
pub use scheme::{next_hop_view, TreeRoutingConfig, TreeRoutingScheme};
pub use table::{GlobalHeavyEntry, TableView, TreeTable};
