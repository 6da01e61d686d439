//! Property-based determinism suite for the parallel construction pipeline:
//! across random connected graphs, `k`, and seeds, a build sharded over 2 or
//! 8 worker threads must be *bit-identical* to the sequential (1-thread)
//! oracle — same wire snapshot bytes, same cluster forest, same pivots — and
//! its per-thread work accounting must sum to the sequential totals. The
//! kernels are additionally exercised in isolation, with the adversarial
//! threshold vectors of `property_restricted_clusters.rs` (zeros, small
//! finite values, infinities) that stress the tie-breaking paths.

use proptest::prelude::*;

use en_congest_algos::multi_source_hop_bounded;
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{
    restricted_multi_source_csr, BuildOptions, CsrGraph, Dist, NodeId, WeightedGraph, INFINITY,
};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_wire::serialize;

fn arb_connected_graph() -> impl Strategy<Value = WeightedGraph> {
    (8usize..60, 0u64..10_000, 1u64..100).prop_map(|(n, seed, max_w)| {
        erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, max_w), 0.12)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The full pipeline — preprocessing, cluster growing, forest pushes,
    /// scheme assembly — is bit-identical for threads ∈ {1, 2, 8}, for both
    /// the even-`k` (exact + large scales) and odd-`k` (middle level)
    /// families.
    #[test]
    fn full_build_matches_sequential_oracle(
        g in arb_connected_graph(),
        k in 2usize..4,
        seed in 0u64..1_000,
    ) {
        let config = ConstructionConfig::new(k, seed);
        let sequential =
            build_routing_scheme(&g, &config.clone().with_threads(1)).expect("builds");
        let oracle_bytes = serialize(&sequential.scheme);
        for threads in [2usize, 8] {
            let parallel = build_routing_scheme(&g, &config.clone().with_threads(threads))
                .expect("builds");
            prop_assert_eq!(
                &oracle_bytes,
                &serialize(&parallel.scheme),
                "wire bytes differ at {} threads",
                threads
            );
            prop_assert_eq!(&sequential.family.forest, &parallel.family.forest);
            prop_assert_eq!(&sequential.family.pivots, &parallel.family.pivots);
            prop_assert_eq!(
                sequential.build_stats.total_sources(),
                parallel.build_stats.total_sources(),
                "source totals differ at {} threads",
                threads
            );
            prop_assert_eq!(
                sequential.build_stats.total_members(),
                parallel.build_stats.total_members(),
                "member totals differ at {} threads",
                threads
            );
        }
    }

    /// The restricted cluster-growing kernel under adversarial thresholds:
    /// sharding over any thread count reproduces the sequential output cell
    /// for cell (the kernel result type is `Eq`), with invariant work totals.
    #[test]
    fn restricted_kernel_matches_sequential_oracle(
        g in arb_connected_graph(),
        thresholds_seed in proptest::collection::vec(0u64..200, 60..61),
        sources_mod in 2usize..9,
        threads in 2usize..9,
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
        let csr = CsrGraph::from_graph(&g);
        let (oracle, oracle_stats) =
            restricted_multi_source_csr(&csr, &sources, &threshold, None, &BuildOptions::new(1));
        let (sharded, stats) = restricted_multi_source_csr(
            &csr,
            &sources,
            &threshold,
            None,
            &BuildOptions::new(threads),
        );
        prop_assert_eq!(&oracle, &sharded, "{} threads", threads);
        prop_assert_eq!(oracle_stats.total_sources(), stats.total_sources());
        prop_assert_eq!(oracle_stats.total_members(), stats.total_members());
        prop_assert_eq!(oracle_stats.total_sources(), sources.len());
    }

    /// The Theorem-1 hop-bounded kernel: per-source distance rows and
    /// parents are identical however the source set is sharded.
    #[test]
    fn theorem1_kernel_matches_sequential_oracle(
        g in arb_connected_graph(),
        sources_mod in 1usize..5,
        hop_bound in 1usize..6,
        threads in 2usize..9,
    ) {
        let n = g.num_nodes();
        let sources: Vec<NodeId> = (0..n).filter(|v| v % sources_mod == 0).collect();
        let (oracle, oracle_stats) =
            multi_source_hop_bounded(&g, &sources, hop_bound, 0.01, 4, &BuildOptions::new(1));
        let (sharded, stats) =
            multi_source_hop_bounded(&g, &sources, hop_bound, 0.01, 4, &BuildOptions::new(threads));
        for s in 0..sources.len() {
            prop_assert_eq!(oracle.dist_row(s), sharded.dist_row(s), "row {}", s);
            for u in 0..n {
                prop_assert_eq!(
                    oracle.parent_towards(u, sources[s]),
                    sharded.parent_towards(u, sources[s]),
                    "parent of {} towards {}",
                    u,
                    sources[s]
                );
            }
        }
        prop_assert_eq!(oracle_stats.total_sources(), stats.total_sources());
        prop_assert_eq!(oracle_stats.total_members(), stats.total_members());
    }
}
