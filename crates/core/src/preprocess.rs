//! The Section 3.3.1 preprocessing for the large scales.
//!
//! Let `V' = A_{⌈k/2⌉}` and `B = 4 (n / E[|V'|]) ln n`. The preprocessing
//!
//! 1. runs Theorem 1 on `G` with source set `V'`, hop bound `B`, and accuracy
//!    `ε/2`, giving every vertex `u` a value `d_{uv}` and a parent `p_v(u)`
//!    for every `v ∈ V'`;
//! 2. forms the *virtual graph* `G' = (V', E', w')` with an edge between two
//!    sampled vertices whenever their Theorem-1 value is finite, weighted by
//!    that value;
//! 3. builds a path-reporting `(β, ε/3)`-hopset `F` for `G'`
//!    (Theorem 2, with `ρ = max(1/k, log log n / √log n)`);
//! 4. forms the augmented graph `G'' = (V', E' ∪ F)`, in which `β`-hop
//!    distances `(1+ε)`-approximate true distances (inequality (13)).
//!
//! Both the approximate pivots for large levels (Theorem 3) and the
//! large-scale cluster construction (Section 3.3.2) run on this object.

use std::collections::HashMap;

use en_congest::broadcast::lemma1_rounds;
use en_congest::RoundLedger;
use en_congest_algos::theorem1::{multi_source_hop_bounded, MultiSourceHopBounded};
use en_graph::{is_finite, Dist, NodeId, WeightedGraph};
use en_hopset::{build_hopset, AugmentedGraph, Hopset, HopsetConfig};

use crate::hierarchy::Hierarchy;
use crate::params::SchemeParams;

/// The output of the Section 3.3.1 preprocessing.
#[derive(Debug, Clone)]
pub struct Preprocessing {
    /// The sampled set `V' = A_{⌈k/2⌉}`, in index order (virtual index `i`
    /// corresponds to original vertex `vprime[i]`).
    pub vprime: Vec<NodeId>,
    /// Maps an original vertex id to its virtual index, if it is in `V'`.
    pub index_of: HashMap<NodeId, usize>,
    /// The Theorem 1 output (`d_{uv}` values and parents `p_v(u)`).
    pub theorem1: MultiSourceHopBounded,
    /// The virtual graph `G'` over virtual indices.
    pub gprime: WeightedGraph,
    /// The path-reporting hopset `F` for `G'` (over virtual indices).
    pub hopset: Hopset,
    /// The hopbound `β` of the hopset.
    pub beta: usize,
    /// The augmented graph `G'' = (V', E' ∪ F)` over virtual indices.
    pub augmented: AugmentedGraph,
    /// The hop bound `B` used for Theorem 1.
    pub hop_bound: usize,
    /// Round charges of the preprocessing.
    pub ledger: RoundLedger,
}

impl Preprocessing {
    /// Runs the preprocessing. Returns `None` when `V' = A_{⌈k/2⌉}` is empty
    /// (then there are no large scales at all, e.g. for `k = 1` or when the
    /// sampling left the level empty).
    pub fn run(
        g: &WeightedGraph,
        hierarchy: &Hierarchy,
        params: &SchemeParams,
        hop_diameter: usize,
    ) -> Option<Self> {
        let half = params.half_k();
        let vprime: Vec<NodeId> = hierarchy.level(half).to_vec();
        if vprime.is_empty() {
            return None;
        }
        let mut ledger = RoundLedger::new();
        let hop_bound = params.large_scale_hop_bound();
        let eps = params.epsilon();
        // Step 1: Theorem 1 with accuracy ε/2.
        let theorem1 =
            multi_source_hop_bounded(g, &vprime, hop_bound, (eps / 2.0).max(1e-9), hop_diameter);
        ledger.absorb(theorem1.ledger.clone());
        // Step 2: the virtual graph G'.
        let index_of: HashMap<NodeId, usize> = vprime
            .iter()
            .copied()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        let m = vprime.len();
        let mut gprime = WeightedGraph::new(m);
        for i in 0..m {
            // Row access into the flat source-major Theorem-1 output: one
            // slice per virtual vertex instead of a hash lookup per pair.
            let row = theorem1.dist_row(i);
            for j in (i + 1)..m {
                let d = row[vprime[j]];
                if is_finite(d) && d > 0 {
                    gprime
                        .add_edge(i, j, d)
                        .expect("virtual edge endpoints are in range and weights positive");
                }
            }
        }
        // Step 3: the hopset on G' (Theorem 2).
        let rho = params.hopset_rho();
        let hopset_cfg = HopsetConfig::new(rho, eps / 3.0, params.seed ^ 0x00C0_FFEE);
        let hopset = build_hopset(&gprime, &hopset_cfg);
        let beta = hopset.beta();
        ledger.charge(
            format!("Theorem 2: path-reporting hopset on |V'| = {m} virtual vertices"),
            hopset_cfg.construction_rounds(m, hop_diameter),
            format!("O(m^(1+rho) + D) * beta^2, rho = {rho:.3}, beta = {beta}"),
        );
        // Every vertex of V' must learn the hopset edges incident to it; the
        // paper's construction does this as part of Theorem 2, we charge the
        // broadcast explicitly for transparency.
        ledger.charge(
            "broadcast hopset edges to V'",
            lemma1_rounds(hopset.len(), hop_diameter),
            format!("Lemma 1 with M = |F| = {}", hopset.len()),
        );
        // Step 4: the augmented graph G''.
        let augmented = AugmentedGraph::new(&gprime, &hopset);
        Some(Preprocessing {
            vprime,
            index_of,
            theorem1,
            gprime,
            hopset,
            beta,
            augmented,
            hop_bound,
            ledger,
        })
    }

    /// Number of virtual vertices `|V'|`.
    pub fn m(&self) -> usize {
        self.vprime.len()
    }

    /// The Theorem-1 value `d_{uv}` between an arbitrary vertex `u` and a
    /// sampled vertex `v ∈ V'` ([`en_graph::INFINITY`] if `v ∉ V'` or out of range).
    pub fn value(&self, u: NodeId, v: NodeId) -> Dist {
        self.theorem1.value(u, v)
    }

    /// The Theorem-1 parent `p_v(u)`: the neighbour of `u` on its hop-bounded
    /// path towards `v ∈ V'`.
    pub fn parent_towards(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        self.theorem1.parent_towards(u, v)
    }

    /// The original vertex behind virtual index `i`.
    pub fn original(&self, i: usize) -> NodeId {
        self.vprime[i]
    }

    /// The virtual index of original vertex `v`, if `v ∈ V'`.
    pub fn virtual_index(&self, v: NodeId) -> Option<usize> {
        self.index_of.get(&v).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::dijkstra::all_pairs_dijkstra;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn setup(n: usize, k: usize, seed: u64) -> (WeightedGraph, Hierarchy, SchemeParams) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 20), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        (g, hierarchy, params)
    }

    #[test]
    fn preprocessing_exists_iff_vprime_nonempty() {
        let (g, hierarchy, params) = setup(80, 3, 1);
        let pre = Preprocessing::run(&g, &hierarchy, &params, 6);
        assert_eq!(pre.is_some(), !hierarchy.level(params.half_k()).is_empty());
        // k = 1 never has large scales.
        let (g1, h1, p1) = setup(40, 1, 2);
        assert!(Preprocessing::run(&g1, &h1, &p1, 6).is_none());
    }

    #[test]
    fn virtual_graph_weights_dominate_true_distances() {
        let (g, hierarchy, params) = setup(70, 2, 3);
        if let Some(pre) = Preprocessing::run(&g, &hierarchy, &params, 6) {
            let truth = all_pairs_dijkstra(&g);
            for e in pre.gprime.edges() {
                let (a, b) = (pre.original(e.u), pre.original(e.v));
                // Inequality (12): d_G <= w' <= (1+eps/2) d_G; with the exact
                // Theorem-1 reproduction the upper slack is 1 when B hops
                // suffice, and never below the true distance.
                assert!(e.weight >= truth[a][b], "w'({a},{b}) undercuts d_G");
            }
        }
    }

    #[test]
    fn beta_hop_distances_on_augmented_graph_respect_inequality_13() {
        let (g, hierarchy, params) = setup(60, 2, 5);
        if let Some(pre) = Preprocessing::run(&g, &hierarchy, &params, 5) {
            let truth = all_pairs_dijkstra(&g);
            let eps = params.epsilon();
            for i in 0..pre.m() {
                let (dist, _) = pre.augmented.hop_bounded_from(i, pre.beta);
                for j in 0..pre.m() {
                    if i == j {
                        continue;
                    }
                    let (a, b) = (pre.original(i), pre.original(j));
                    if !is_finite(dist[j]) {
                        continue;
                    }
                    assert!(dist[j] >= truth[a][b]);
                    assert!(
                        dist[j] as f64 <= (1.0 + eps) * truth[a][b] as f64 + 1e-6,
                        "pair ({a},{b}): {} vs {}",
                        dist[j],
                        truth[a][b]
                    );
                }
            }
        }
    }

    #[test]
    fn index_maps_are_inverse() {
        let (g, hierarchy, params) = setup(60, 3, 7);
        if let Some(pre) = Preprocessing::run(&g, &hierarchy, &params, 5) {
            for i in 0..pre.m() {
                assert_eq!(pre.virtual_index(pre.original(i)), Some(i));
            }
            assert!(pre.ledger.total_rounds() > 0);
        }
    }

    #[test]
    fn hopset_is_path_reporting_on_gprime() {
        let (g, hierarchy, params) = setup(90, 2, 9);
        if let Some(pre) = Preprocessing::run(&g, &hierarchy, &params, 5) {
            assert!(pre.hopset.is_path_reporting_in(&pre.gprime));
        }
    }
}
