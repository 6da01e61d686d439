//! Distributed primitives used by the routing-scheme construction.
//!
//! Three primitives from the paper live here:
//!
//! * [`explore`] — multi-source weighted Bellman–Ford exploration, executed as
//!   a *real* message-passing protocol on the CONGEST simulator. This is the
//!   workhorse of the exact-pivot computation and the small-scale cluster
//!   construction (Section 3.2): `t` iterations rooted at a vertex set `A`
//!   give every vertex its exact distance to `A` provided the relevant
//!   shortest paths use at most `t` hops.
//! * [`theorem1`] — the multi-source approximate hop-bounded distance
//!   computation of \[Nan14\] (Theorem 1 in the paper): every vertex `u`
//!   learns values `d_uv` for all sources `v ∈ V'` with
//!   `d^{(B)}_G(u,v) ≤ d_uv ≤ (1+ε) d^{(B)}_G(u,v)`, together with a parent
//!   neighbour `p_v(u)` satisfying `d_uv ≥ w(u,p) + d_pv` (Remark 1).
//!   The values are computed source-parallel at graph level and the round
//!   cost `Õ(|V'| + B + D)/ε` is charged on a [`RoundLedger`]; the returned
//!   values are validated in tests against the sequential reference.
//! * [`cluster_explore`] — the *parallel* depth-bounded cluster exploration of
//!   Section 3.2 (all centres of a level at once, join condition (11)),
//!   executed as a real protocol so the congestion that Claim 2 bounds by
//!   `Õ(n^{1/k})` is actually measured on the wire.
//!
//! [`RoundLedger`]: en_congest::RoundLedger

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_explore;
pub mod explore;
pub mod theorem1;

pub use cluster_explore::{distributed_cluster_exploration, ClusterExplorationResult};
pub use explore::{distributed_exploration, ExplorationResult};
pub use theorem1::{
    multi_source_hop_bounded, multi_source_hop_bounded_reference, MultiSourceHopBounded,
};
