//! Property-based equivalence suite for the batched restricted multi-source
//! kernel (`en_graph::restricted`), mirroring the naive-vs-batched oracle
//! pattern of the Theorem-1 kernel tests: across random Erdős–Rényi graphs,
//! levels, and threshold vectors (both genuine Thorup–Zwick thresholds
//! `d_G(·, A_{i+1})` and adversarially random ones), the batched kernel must
//! agree with the retained per-centre restricted Dijkstra
//! (`grow_exact_cluster_csr`) — same member sets, same `root_estimate`
//! distances, and tree parents that form valid shortest-path trees inside
//! the member set.

use proptest::prelude::*;

use en_graph::dijkstra::multi_source_dijkstra;
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{
    restricted_multi_source_csr, ClusterForestBuilder, CsrGraph, Dist, NodeId, WeightedGraph,
    INFINITY,
};
use en_routing::exact::{
    exact_cluster_family, grow_exact_cluster_csr, grow_exact_clusters, membership_thresholds,
};
use en_routing::{Hierarchy, SchemeParams};

fn arb_connected_graph() -> impl Strategy<Value = WeightedGraph> {
    (8usize..60, 0u64..10_000, 1u64..100).prop_map(|(n, seed, max_w)| {
        erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, max_w), 0.12)
    })
}

/// Checks one batched forest cluster against the per-centre oracle (which
/// still materialises the dense per-centre representation), including tree
/// validity (real edges, root distances reproducing the recorded estimates).
fn assert_cluster_matches_oracle(
    g: &WeightedGraph,
    csr: &CsrGraph,
    cluster: en_graph::ClusterView<'_>,
    threshold: &[Dist],
) {
    let oracle = grow_exact_cluster_csr(csr, cluster.center(), cluster.level(), threshold);
    assert_eq!(
        cluster.members().collect::<Vec<_>>(),
        oracle.members(),
        "centre {}: member sets differ",
        cluster.center()
    );
    for (v, &est) in cluster.members().zip(cluster.root_dists()) {
        assert_eq!(
            Some(&est),
            oracle.root_estimate.get(&v),
            "centre {}: root estimates differ at {v}",
            cluster.center()
        );
    }
    let tree = cluster.tree();
    assert!(tree.is_subgraph_of(g), "tree uses non-graph edges");
    let tree_dist = tree.root_distances();
    for v in cluster.members() {
        assert_eq!(
            tree_dist[v],
            cluster.root_dist(v),
            "centre {}: tree path to {v} does not realise the estimate",
            cluster.center()
        );
    }
}

/// Checks the batched kernel against the per-centre oracle cell for cell:
/// member sets, raw restricted distances, and parents on restricted
/// shortest paths inside the member set.
fn assert_kernel_matches_oracle(g: &WeightedGraph, sources: &[NodeId], threshold: &[Dist]) {
    let csr = CsrGraph::from_graph(g);
    let res = restricted_multi_source_csr(&csr, sources, threshold, None);
    for (s, &src) in sources.iter().enumerate() {
        let oracle = grow_exact_cluster_csr(&csr, src, 0, threshold);
        let members: Vec<NodeId> = res.members_of(s).collect();
        assert_eq!(members, oracle.members(), "source {src}");
        for &v in &members {
            assert_eq!(
                res.dist_row(s)[v],
                oracle.root_estimate[&v],
                "source {src} vertex {v}"
            );
            if v != src {
                let (p, w) = res.parent_of(s, v).expect("member has parent");
                assert!(res.is_member(s, p));
                assert_eq!(g.edge_weight(v, p), Some(w));
                assert_eq!(res.dist_row(s)[p] + w, res.dist_row(s)[v]);
            }
        }
    }
}

/// The construction rejects disconnected graphs, but the kernel does not:
/// every source's cluster stays inside its own component.
#[test]
fn batched_matches_oracle_on_a_disconnected_host() {
    let g = WeightedGraph::from_edges(
        8,
        [
            (0, 1, 2),
            (1, 2, 3),
            (2, 3, 1),
            // 4..8 is a separate component.
            (4, 5, 1),
            (5, 6, 2),
            (6, 7, 1),
        ],
    )
    .unwrap();
    let sources: Vec<NodeId> = (0..8).collect();
    assert_kernel_matches_oracle(&g, &sources, &[INFINITY; 8]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Genuine TZ thresholds: a random "next level" `A` induces
    /// `threshold[v] = d_G(v, A)`; every vertex outside `A` is a centre.
    #[test]
    fn batched_matches_oracle_on_tz_thresholds(
        g in arb_connected_graph(),
        level_mod in 2usize..8,
        level_shift in 0usize..8,
    ) {
        let n = g.num_nodes();
        let level: Vec<NodeId> = (0..n).filter(|v| v % level_mod == level_shift % level_mod).collect();
        let (threshold, nearest) = if level.is_empty() {
            (vec![INFINITY; n], vec![None; n])
        } else {
            multi_source_dijkstra(&g, &level)
        };
        // Level-1 pivots: each vertex's nearest vertex of `A`.
        let pivots: Vec<Vec<Option<(NodeId, Dist)>>> = (0..n)
            .map(|v| vec![None, nearest[v].map(|z| (z, threshold[v]))])
            .collect();
        let centers: Vec<NodeId> = (0..n).filter(|v| !level.contains(v)).collect();
        let csr = CsrGraph::from_graph(&g);
        let mut builder = ClusterForestBuilder::new(n);
        grow_exact_clusters(&csr, &centers, 0, &threshold, &pivots, &mut builder);
        let forest = builder.finish();
        prop_assert_eq!(forest.num_clusters(), centers.len());
        for cluster in forest.clusters() {
            assert_cluster_matches_oracle(&g, &csr, cluster, &threshold);
        }
    }

    /// Adversarially random threshold vectors (not realisable as distances to
    /// any level): the kernel contract must still match the oracle cell for
    /// cell — member sets and raw restricted distances.
    #[test]
    fn batched_matches_oracle_on_random_thresholds(
        g in arb_connected_graph(),
        thresholds_seed in proptest::collection::vec(0u64..200, 60..61),
        sources_mod in 3usize..9,
    ) {
        let n = g.num_nodes();
        let threshold: Vec<Dist> = (0..n)
            .map(|v| {
                // Mix of zeros, small finite values, and infinities.
                match thresholds_seed[v % thresholds_seed.len()] {
                    t if t < 10 => 0,
                    t if t >= 180 => INFINITY,
                    t => t,
                }
            })
            .collect();
        let sources: Vec<NodeId> = (0..n).filter(|v| v % sources_mod == 0).collect();
        assert_kernel_matches_oracle(&g, &sources, &threshold);
    }

    /// The whole-family build (all levels of a sampled hierarchy) agrees with
    /// growing every cluster individually through the oracle.
    #[test]
    fn exact_family_matches_per_centre_oracle(
        g in arb_connected_graph(),
        k in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let n = g.num_nodes();
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let csr = CsrGraph::from_graph(&g);
        for i in 0..hierarchy.k() {
            let threshold = membership_thresholds(&family.pivots, i);
            for center in hierarchy.centers_at(i) {
                assert_cluster_matches_oracle(&g, &csr, family.cluster(center).unwrap(), &threshold);
            }
        }
    }
}
