//! Distributed construction of near-optimal compact routing schemes
//! (Elkin & Neiman, PODC 2016).
//!
//! Given a weighted graph `G` on `n` vertices with hop-diameter `D` and a
//! parameter `k ≥ 1`, this crate builds a compact routing scheme with routing
//! tables of `O(n^{1/k} log² n)` words, labels of `O(k log² n)` words, and
//! stretch `4k − 5 + o(1)`, whose *distributed* construction runs in
//! `(n^{1/2+1/k} + D) · n^{o(1)}` CONGEST rounds (for odd `k`:
//! `(n^{1/2+1/(2k)} + D) · n^{o(1)}`). As a corollary it also produces
//! distance-estimation sketches of `O(n^{1/k} log n)` words with stretch
//! `2k − 1 + o(1)`.
//!
//! The crate is organised around the paper's structure:
//!
//! * [`params`] — the scheme parameter `k`, the accuracy `ε = 1/(48k⁴)`, and
//!   the exploration-depth / sample-size formulas used throughout.
//! * [`hierarchy`] — the sampled vertex hierarchy `V = A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅`.
//! * [`exact`] — exact Thorup–Zwick pivots and clusters (the sequential
//!   baseline of \[TZ01\], and the ground truth the approximate construction
//!   is validated against).
//! * [`pivots`] — exact pivots for small scales via distributed Bellman–Ford
//!   exploration and approximate pivots for large scales via the virtual
//!   graph + hopset (Theorem 3).
//! * [`preprocess`] — the Section 3.3.1 preprocessing: Theorem 1 on
//!   `V' = A_{⌈k/2⌉}`, the virtual graph `G'`, the path-reporting hopset `F`,
//!   and the augmented graph `G''`.
//! * [`approx_clusters`] — Section 3: small-scale cluster trees, the odd-`k`
//!   middle level, and the three-phase large-scale construction.
//! * [`family`] — the [`ClusterFamily`] abstraction
//!   shared by the exact and approximate constructions.
//! * [`scheme`] — Section 4: assembling per-vertex routing tables and labels,
//!   Algorithm 1 (`Find-tree`), and hop-by-hop packet forwarding.
//! * [`access`] — the storage-generic forwarding kernel: one `Find-tree` +
//!   one hop loop shared by the in-memory scheme and the validated flat
//!   snapshot (in `en_wire`), bit-identical by construction.
//! * [`distance_estimation`] — Section 5: sketches and Algorithm 2 (`Dist`).
//! * [`construction`] — the end-to-end distributed construction with its
//!   round ledger (Theorems 4 and 5).
//! * [`baselines`] — the comparison rows of Table 1: centralized
//!   Thorup–Zwick, and a Lenzen–Patt-Shamir-style landmark scheme whose
//!   routing tables are `Ω(√n)` regardless of `k`.
//! * [`stretch`] — stretch measurement utilities used by tests and the harness
//!   binaries.
//!
//! # Quickstart
//!
//! ```
//! use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
//! use en_routing::construction::{build_routing_scheme, ConstructionConfig};
//!
//! let g = erdos_renyi_connected(&GeneratorConfig::new(96, 7), 0.08);
//! let cfg = ConstructionConfig::new(3, 42);
//! let built = build_routing_scheme(&g, &cfg).expect("construction succeeds");
//! let route = built.scheme.route(&g, 5, 60).expect("delivery succeeds");
//! assert_eq!(route.path.nodes().last(), Some(&60));
//! println!("stretch = {:.3}", route.stretch);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod approx_clusters;
pub mod baselines;
pub mod construction;
pub mod distance_estimation;
pub mod error;
pub mod exact;
pub mod family;
pub mod hierarchy;
pub mod params;
pub mod pivots;
pub mod preprocess;
pub mod scheme;
pub mod stretch;

pub use construction::{build_routing_scheme, BuiltScheme, ConstructionConfig};
pub use error::RoutingError;
pub use family::{Cluster, ClusterFamily};
pub use hierarchy::Hierarchy;
pub use params::SchemeParams;
pub use scheme::{RouteOutcome, RoutingScheme};
