//! Path-reporting `(β, ε)`-hopsets (Theorem 2 of the paper).
//!
//! A set of weighted edges `F` is a `(β, ε)`-hopset for a graph `G = (V, E)`
//! if in `H = (V, E ∪ F)` every pair `u, v` satisfies
//!
//! ```text
//! d_G(u, v) ≤ d_H(u, v) ≤ d^{(β)}_H(u, v) ≤ (1 + ε) d_G(u, v)       (4)
//! ```
//!
//! The routing construction additionally needs the hopset to be
//! *path-reporting* (Property 1): every hopset edge `(u, v)` of weight `b`
//! corresponds to a path `P` in `G` of length `b`, and every vertex on `P`
//! knows its position on it. Phase 1.5 of the large-scale cluster
//! construction walks these paths to set real parents.
//!
//! Reproduction note: the paper takes the hopset construction of \[EN16a\]
//! (a separate FOCS'16 paper) as a black box with
//! `β = (log m / (ε ρ))^{O(1/ρ)}`. We implement a simpler sampled-shortcut
//! construction with the *same interface and guarantees*: sample a set `S` of
//! pivots (each vertex independently with probability `m^{-ρ}`), and add a
//! shortcut edge from every pivot to every vertex carrying the exact shortest
//! distance, realised by the shortest path (so the hopset is path-reporting
//! and in fact has ε = 0). With high probability every shortest path with more
//! than `O(m^ρ ln m)` hops contains a pivot, so the hopbound is
//! `β = O(m^ρ ln m)`, and for pairs beyond that bound two hopset edges
//! suffice. The downstream construction only consumes the hopset through (4)
//! and Property 1, which this construction satisfies (and
//! [`verify::verify_hopset`] checks empirically).
//!
//! # Example
//!
//! ```
//! use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
//! use en_hopset::{build_hopset, HopsetConfig, verify::verify_hopset};
//!
//! let g = erdos_renyi_connected(&GeneratorConfig::new(40, 2), 0.1);
//! let hopset = build_hopset(&g, &HopsetConfig::new(0.5, 0.1, 7));
//! let report = verify_hopset(&g, &hopset);
//! assert!(report.satisfies(hopset.beta(), 0.1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod build;
pub mod edge;
pub mod verify;

pub use augment::AugmentedGraph;
pub use build::{build_hopset, HopsetConfig};
pub use edge::{Hopset, HopsetEdge};
