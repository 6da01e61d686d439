//! Property-based equivalence tests: the batched frontier/CSR Theorem-1
//! kernel against the retained naive reference implementation.
//!
//! The batched kernel is an aggressive rewrite (vertex-major chunks, i32
//! cells, branchless min sweeps, post-hoc parents), so every random instance
//! here doubles as an equivalence oracle: `dist` must match the naive
//! levelled Bellman–Ford bit for bit, and the parents must satisfy the
//! Remark-1 inequality (3) against those exact distances.

use proptest::prelude::*;

use en_congest_algos::theorem1::{multi_source_hop_bounded, multi_source_hop_bounded_reference};
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{is_finite, WeightedGraph};

fn arb_instance() -> impl Strategy<Value = (WeightedGraph, Vec<usize>, usize)> {
    (5usize..50, 0u64..10_000, 1u64..200, 1usize..12, 1usize..12).prop_map(
        |(n, seed, max_w, num_sources, hop_bound)| {
            let g =
                erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, max_w), 0.15);
            let sources: Vec<usize> = (0..num_sources.min(n))
                .map(|i| (i * 7 + seed as usize) % n)
                .collect();
            (g, sources, hop_bound)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn batched_dist_is_bit_identical_to_naive_reference(instance in arb_instance()) {
        let (g, sources, b) = instance;
        let batched = multi_source_hop_bounded(&g, &sources, b, 0.25, 4);
        let (ref_dist, _) = multi_source_hop_bounded_reference(&g, &sources, b);
        for si in 0..sources.len() {
            prop_assert_eq!(batched.dist_row(si), ref_dist[si].as_slice(), "source row {}", si);
        }
    }

    #[test]
    fn batched_parents_are_remark1_consistent(instance in arb_instance()) {
        let (g, sources, b) = instance;
        let batched = multi_source_hop_bounded(&g, &sources, b, 0.25, 4);
        for si in 0..sources.len() {
            let dist = batched.dist_row(si);
            let parent = batched.parent_row(si);
            for v in g.nodes() {
                match parent[v] {
                    Some(p) => {
                        // A parent is a real neighbour satisfying inequality
                        // (3): d_uv >= w(u, p) + d_pv.
                        let w = g.edge_weight(v, p).expect("parent must be a neighbour");
                        prop_assert!(is_finite(dist[v]));
                        prop_assert!(
                            dist[v] >= w + dist[p],
                            "source row {} vertex {}: {} < {} + {}",
                            si, v, dist[v], w, dist[p]
                        );
                    }
                    None => {
                        // Only the source itself and unreachable vertices may
                        // lack a parent.
                        prop_assert!(
                            v == sources[si] || !is_finite(dist[v]),
                            "source row {} vertex {} has no parent", si, v
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_kernel_is_deterministic(instance in arb_instance()) {
        let (g, sources, b) = instance;
        let a = multi_source_hop_bounded(&g, &sources, b, 0.25, 4);
        let c = multi_source_hop_bounded(&g, &sources, b, 0.25, 4);
        for si in 0..sources.len() {
            prop_assert_eq!(a.dist_row(si), c.dist_row(si));
            prop_assert_eq!(a.parent_row(si), c.parent_row(si));
        }
    }
}
