//! The sequential Thorup–Zwick baseline \[TZ01, TZ05\].
//!
//! Exact pivots, exact clusters, the same tree-routing machinery, Algorithm 1
//! with the `4k−5` refinement, and the `2k−1` distance oracle. The only thing
//! that differs from the paper's scheme is *how* the clusters are computed
//! (sequentially and exactly, versus distributively and approximately), which
//! is precisely the comparison Table 1 makes.

use en_congest::RoundLedger;
use en_graph::bfs::is_connected;
use en_graph::WeightedGraph;

use crate::distance_estimation::DistanceEstimation;
use crate::error::RoutingError;
use crate::exact::exact_cluster_family;
use crate::family::ClusterFamily;
use crate::hierarchy::Hierarchy;
use crate::params::SchemeParams;
use crate::scheme::RoutingScheme;

/// The output of the Thorup–Zwick baseline construction.
#[derive(Debug, Clone)]
pub struct TzBaseline {
    /// The parameters used.
    pub params: SchemeParams,
    /// The exact cluster family.
    pub family: ClusterFamily,
    /// The assembled routing scheme.
    pub scheme: RoutingScheme,
    /// The exact distance oracle (stretch `2k − 1`).
    pub oracle: DistanceEstimation,
    /// The round charge of the natural distributed implementation of the
    /// sequential algorithm (`O(m)` rounds: every vertex must learn enough of
    /// the graph to run the global computation, cf. Table 1's `O(m)` row).
    pub ledger: RoundLedger,
}

/// Builds the Thorup–Zwick baseline.
///
/// # Errors
///
/// Returns an error if `k == 0`, the graph is empty or disconnected.
pub fn build_tz_baseline(
    g: &WeightedGraph,
    k: usize,
    seed: u64,
) -> Result<TzBaseline, RoutingError> {
    if k == 0 {
        return Err(RoutingError::InvalidK { k });
    }
    if g.num_nodes() == 0 {
        return Err(RoutingError::EmptyGraph);
    }
    if !is_connected(g) {
        return Err(RoutingError::DisconnectedGraph);
    }
    let params = SchemeParams::new(k, g.num_nodes(), seed);
    let hierarchy = Hierarchy::sample(&params);
    let family = exact_cluster_family(g, &hierarchy);
    let scheme = RoutingScheme::assemble(&family, g, seed ^ 0xBA5E_11AE);
    let oracle = DistanceEstimation::build(&family);
    let mut ledger = RoundLedger::new();
    ledger.charge(
        "sequential Thorup-Zwick construction, run centrally",
        g.num_edges(),
        "Table 1 charges O(m) rounds: gathering the whole topology at one vertex costs Omega(m) in CONGEST",
    );
    Ok(TzBaseline {
        params,
        family,
        scheme,
        oracle,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::measure_stretch_all_pairs;
    use en_graph::dijkstra::all_pairs_dijkstra;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    #[test]
    fn tz_baseline_routes_with_4k_minus_5_stretch() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(50, 3).with_weights(1, 25), 0.1);
        let baseline = build_tz_baseline(&g, 3, 3).unwrap();
        let report = measure_stretch_all_pairs(&g, &baseline.scheme);
        assert_eq!(report.failures, 0);
        assert!(report.max_stretch <= baseline.params.stretch_bound() + 1e-9);
    }

    #[test]
    fn tz_oracle_respects_2k_minus_1() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(45, 5).with_weights(1, 25), 0.1);
        let baseline = build_tz_baseline(&g, 2, 5).unwrap();
        let truth = all_pairs_dijkstra(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let est = baseline.oracle.query(u, v).unwrap().estimate;
                assert!(est >= truth[u][v]);
                assert!(est as f64 <= 3.0 * truth[u][v] as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn tz_round_charge_is_m() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(40, 7), 0.15);
        let baseline = build_tz_baseline(&g, 2, 7).unwrap();
        assert_eq!(baseline.ledger.total_rounds(), g.num_edges());
    }

    #[test]
    fn tz_rejects_bad_inputs() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(10, 1), 0.3);
        assert!(build_tz_baseline(&g, 0, 1).is_err());
        assert!(build_tz_baseline(&WeightedGraph::new(0), 2, 1).is_err());
    }
}
