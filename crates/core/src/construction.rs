//! The end-to-end distributed construction (Theorems 4 and 5).
//!
//! [`build_routing_scheme`] glues together the whole pipeline:
//!
//! 1. sample the hierarchy `A_0 ⊇ … ⊇ A_{k−1}`;
//! 2. run the Section 3.3.1 preprocessing (Theorem 1 + hopset) if there are
//!    large scales;
//! 3. compute exact (small-scale) and approximate (large-scale) pivots;
//! 4. build the cluster trees: small scales, the odd-`k` middle level, and the
//!    three-phase large scales;
//! 5. build the per-tree routing schemes and assemble tables and labels
//!    (Section 4), charging Remark 3 for the parallel tree-routing
//!    construction;
//! 6. build the distance-estimation sketches (Section 5).
//!
//! Every phase contributes to a [`RoundLedger`] so the harness can report the
//! number of CONGEST rounds the construction would take, phase by phase.

use en_congest::RoundLedger;
use en_graph::bfs::{hop_diameter_estimate, is_connected};
use en_graph::WeightedGraph;
use en_tree_routing::remark3_rounds;

use crate::approx_clusters::{
    large_scale_clusters, middle_level_clusters, small_scale_clusters, ClusterDiagnostics,
};
use crate::distance_estimation::DistanceEstimation;
use crate::error::RoutingError;
use crate::family::ClusterFamily;
use crate::hierarchy::Hierarchy;
use crate::params::SchemeParams;
use crate::pivots::compute_pivots;
use crate::preprocess::Preprocessing;
use crate::scheme::RoutingScheme;

/// Configuration of the end-to-end construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructionConfig {
    /// The trade-off parameter `k ≥ 1`.
    pub k: usize,
    /// Seed for all randomness (hierarchy, hopset, tree-routing portals).
    pub seed: u64,
    /// Optional explicit hop-diameter; when `None` it is estimated with a
    /// double BFS sweep (the estimate only affects round *charges*, never
    /// correctness).
    pub hop_diameter: Option<usize>,
}

impl ConstructionConfig {
    /// A configuration with the given `k` and seed.
    pub fn new(k: usize, seed: u64) -> Self {
        ConstructionConfig {
            k,
            seed,
            hop_diameter: None,
        }
    }

    /// Overrides the hop-diameter used for round charges.
    pub fn with_hop_diameter(mut self, d: usize) -> Self {
        self.hop_diameter = Some(d);
        self
    }
}

/// Everything the construction produces.
#[derive(Debug, Clone)]
pub struct BuiltScheme {
    /// The parameters used.
    pub params: SchemeParams,
    /// The cluster family (hierarchy, clusters, pivots).
    pub family: ClusterFamily,
    /// The assembled routing scheme (tables, labels, per-tree schemes).
    pub scheme: RoutingScheme,
    /// The distance-estimation sketches.
    pub sketches: DistanceEstimation,
    /// Phase-by-phase round charges of the distributed construction.
    pub ledger: RoundLedger,
    /// Construction diagnostics (whp-failure repairs etc.).
    pub diagnostics: ClusterDiagnostics,
    /// The hop-diameter used for round charges.
    pub hop_diameter: usize,
    /// The hopbound `β` of the hopset built by the preprocessing (`None` when
    /// there were no large scales). This is the concrete value behind the
    /// paper's `n^{o(1)}` factor on this instance.
    pub hopset_beta: Option<usize>,
}

impl BuiltScheme {
    /// Total CONGEST rounds charged for the construction.
    pub fn total_rounds(&self) -> usize {
        self.ledger.total_rounds()
    }
}

/// Runs the full distributed construction on `g`.
///
/// The build runs on the calling thread. The parallelism it reproduces is
/// the CONGEST execution, whose rounds the ledger charges phase by phase.
///
/// # Errors
///
/// Returns an error if `k == 0`, the graph is empty, or the graph is not
/// connected.
pub fn build_routing_scheme(
    g: &WeightedGraph,
    config: &ConstructionConfig,
) -> Result<BuiltScheme, RoutingError> {
    if config.k == 0 {
        return Err(RoutingError::InvalidK { k: config.k });
    }
    if g.num_nodes() == 0 {
        return Err(RoutingError::EmptyGraph);
    }
    if !is_connected(g) {
        return Err(RoutingError::DisconnectedGraph);
    }
    let params = SchemeParams::new(config.k, g.num_nodes(), config.seed);
    let hop_diameter = config
        .hop_diameter
        .unwrap_or_else(|| hop_diameter_estimate(g));
    let mut ledger = RoundLedger::new();
    let _build_span = en_obs::span("build");

    // 1. Hierarchy (local coin flips: 0 rounds).
    let hierarchy = {
        let _s = en_obs::span("hierarchy");
        Hierarchy::sample(&params)
    };

    // 2. Preprocessing for the large scales.
    let pre = {
        let _s = en_obs::span("preprocess");
        Preprocessing::run(g, &hierarchy, &params, hop_diameter)
    };
    let hopset_beta = pre.as_ref().map(|p| p.beta);
    if let Some(pre) = &pre {
        ledger.absorb(pre.ledger.clone());
    }

    // 3. Pivots.
    let pivot_table = {
        let _s = en_obs::span("pivots");
        compute_pivots(g, &hierarchy, &params, pre.as_ref(), hop_diameter)
    };
    ledger.absorb(pivot_table.ledger.clone());

    // 4. Clusters: every phase appends into one shared forest builder, so
    // the inverted membership CSR is built exactly once, at the family's
    // final finish().
    let mut diagnostics = ClusterDiagnostics::default();
    diagnostics.round_limit_hits += pivot_table.round_limit_hits;
    let mut builder = en_graph::forest::ClusterForestBuilder::new(g.num_nodes());
    {
        let _s = en_obs::span("clusters_small");
        let (small_ledger, small_diag) =
            small_scale_clusters(g, &hierarchy, &params, &pivot_table.pivots, &mut builder);
        ledger.absorb(small_ledger);
        merge_diagnostics(&mut diagnostics, small_diag);
    }
    {
        let _s = en_obs::span("clusters_middle");
        let (middle_ledger, middle_diag) = middle_level_clusters(
            g,
            &hierarchy,
            &params,
            &pivot_table.pivots,
            hop_diameter,
            &mut builder,
        );
        ledger.absorb(middle_ledger);
        merge_diagnostics(&mut diagnostics, middle_diag);
    }
    if let Some(pre) = &pre {
        let _s = en_obs::span("clusters_large");
        let (large_ledger, large_diag) = large_scale_clusters(
            g,
            &hierarchy,
            &params,
            &pivot_table.pivots,
            pre,
            hop_diameter,
            &mut builder,
        );
        ledger.absorb(large_ledger);
        merge_diagnostics(&mut diagnostics, large_diag);
    }

    let family = {
        let _s = en_obs::span("forest_finish");
        ClusterFamily::new(hierarchy, builder.finish(), pivot_table.pivots)
    };

    // 5. Tree-routing schemes for every cluster tree, charged as Remark 3's
    // parallel construction.
    let overlap = family.max_overlap().max(1);
    ledger.charge(
        "tree-routing schemes for all cluster trees (Theorem 7 / Remark 3)",
        remark3_rounds(g.num_nodes(), overlap, hop_diameter),
        format!(
            "O~(sqrt(n * s) + D) with measured overlap s = {overlap} (Claim 2 bounds it by O~(n^{{1/{}}}))",
            params.k
        ),
    );
    let scheme = {
        let _s = en_obs::span("assemble");
        RoutingScheme::assemble(&family, g, config.seed ^ 0x7EE5_0FF1CE)
    };

    // 6. Distance-estimation sketches (assembled from information every vertex
    // already holds: 0 extra rounds).
    let sketches = {
        let _s = en_obs::span("sketches");
        DistanceEstimation::build(&family)
    };

    // Republish the round charges into the observability plane (no-ops
    // unless a recorder is installed).
    ledger.publish_rounds_gauge();
    if en_obs::active() {
        en_obs::event(
            en_obs::Level::Info,
            "build.complete",
            &[
                ("n", g.num_nodes().into()),
                ("k", config.k.into()),
                ("rounds", ledger.total_rounds().into()),
                ("hop_diameter", hop_diameter.into()),
            ],
        );
    }

    Ok(BuiltScheme {
        params,
        family,
        scheme,
        sketches,
        ledger,
        diagnostics,
        hop_diameter,
        hopset_beta,
    })
}

fn merge_diagnostics(into: &mut ClusterDiagnostics, from: ClusterDiagnostics) {
    into.parent_fixups += from.parent_fixups;
    into.round_limit_hits += from.round_limit_hits;
    for (level, count) in from.clusters_per_level {
        *into.clusters_per_level.entry(level).or_insert(0) += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::generators::{
        erdos_renyi_connected, random_geometric_connected, GeneratorConfig,
    };

    #[test]
    fn construction_succeeds_and_routes_on_random_graphs() {
        for (k, seed) in [(2usize, 1u64), (3, 2), (4, 3)] {
            let g =
                erdos_renyi_connected(&GeneratorConfig::new(70, seed).with_weights(1, 40), 0.09);
            let built = build_routing_scheme(&g, &ConstructionConfig::new(k, seed)).unwrap();
            let bound = built.params.stretch_bound();
            for u in (0..70).step_by(7) {
                for v in (0..70).step_by(5) {
                    if u == v {
                        continue;
                    }
                    let out = built
                        .scheme
                        .route(&g, u, v)
                        .unwrap_or_else(|e| panic!("k={k} seed={seed} route {u}->{v} failed: {e}"));
                    assert!(
                        out.stretch <= bound + 1e-9,
                        "k={k} stretch {} exceeds {bound} for {u}->{v}",
                        out.stretch
                    );
                }
            }
            assert!(built.total_rounds() > 0);
        }
    }

    #[test]
    fn construction_on_geometric_graph_with_odd_k() {
        let g = random_geometric_connected(&GeneratorConfig::new(60, 11), 0.22);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(3, 11)).unwrap();
        // The approximate clusters are subsets of the exact clusters, so the
        // overlap bound of Claim 2 applies.
        assert!(built.family.max_overlap() <= built.params.overlap_bound());
        assert!(built.family.trees_are_valid_in(&g));
        // Root estimates respect Lemma 5's (1+eps)^4 sandwich.
        let slack = (1.0 + built.params.epsilon()).powi(4);
        assert!(built.family.root_estimates_within(&g, slack));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(20, 1), 0.2);
        assert!(matches!(
            build_routing_scheme(&g, &ConstructionConfig::new(0, 1)),
            Err(RoutingError::InvalidK { .. })
        ));
        let empty = WeightedGraph::new(0);
        assert!(matches!(
            build_routing_scheme(&empty, &ConstructionConfig::new(2, 1)),
            Err(RoutingError::EmptyGraph)
        ));
        let disconnected = WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(matches!(
            build_routing_scheme(&disconnected, &ConstructionConfig::new(2, 1)),
            Err(RoutingError::DisconnectedGraph)
        ));
    }

    #[test]
    fn ledger_reports_all_major_phases() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(80, 5).with_weights(1, 30), 0.08);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(4, 5)).unwrap();
        let text = built.ledger.to_string();
        assert!(text.contains("Theorem 1"));
        assert!(text.contains("hopset"));
        assert!(text.contains("pivots"));
        assert!(text.contains("tree-routing"));
        assert!(built.hop_diameter > 0);
    }

    #[test]
    fn explicit_hop_diameter_is_respected() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(30, 7), 0.15);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 7).with_hop_diameter(123))
            .unwrap();
        assert_eq!(built.hop_diameter, 123);
    }

    #[test]
    fn sketches_are_produced_and_answer_queries() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(50, 9).with_weights(1, 20), 0.1);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(3, 9)).unwrap();
        let est = built.sketches.query(3, 40).unwrap();
        let exact = en_graph::dijkstra::dijkstra(&g, 3).dist[40];
        assert!(est.estimate >= exact);
        assert!(est.estimate as f64 <= built.params.sketch_stretch_bound() * exact as f64 + 1e-9);
    }
}
