//! Bit-identical determinism of the parallel construction pipeline: the same
//! graph built with 1, 2, and 8 worker threads yields byte-identical wire
//! snapshots, identical cluster forests, pivots, and route outcomes (down to
//! the stretch bits), while the per-thread work accounting always sums to
//! the sequential totals. Degenerate shardings — more threads than work
//! items, single-vertex hosts, disconnected kernel inputs — are exercised
//! explicitly.

use en_graph::generators::{erdos_renyi_connected, random_geometric_connected, GeneratorConfig};
use en_graph::{restricted_multi_source_csr, BuildOptions, CsrGraph, NodeId, INFINITY};
use en_routing::construction::{build_routing_scheme, BuiltScheme, ConstructionConfig};
use en_wire::serialize;

fn build(g: &en_graph::WeightedGraph, k: usize, seed: u64, threads: usize) -> BuiltScheme {
    build_routing_scheme(g, &ConstructionConfig::new(k, seed).with_threads(threads))
        .expect("construction succeeds")
}

/// Asserts every observable artefact of `b` equals the sequential oracle
/// `a`: wire bytes, forest, pivots, and per-pair route outcomes.
fn assert_builds_identical(g: &en_graph::WeightedGraph, a: &BuiltScheme, b: &BuiltScheme) {
    assert_eq!(
        serialize(&a.scheme),
        serialize(&b.scheme),
        "wire snapshots must be byte-identical"
    );
    assert_eq!(a.family.forest, b.family.forest, "cluster forests differ");
    assert_eq!(a.family.pivots, b.family.pivots, "pivot tables differ");
    assert_eq!(
        a.ledger.total_rounds(),
        b.ledger.total_rounds(),
        "round charges differ"
    );
    let n = g.num_nodes();
    for u in (0..n).step_by(7) {
        for v in (0..n).step_by(11) {
            if u == v {
                continue;
            }
            let x = a.scheme.route(g, u, v).expect("oracle route delivers");
            let y = b.scheme.route(g, u, v).expect("parallel route delivers");
            assert_eq!(x.tree_root, y.tree_root, "{u}->{v}");
            assert_eq!(x.level, y.level, "{u}->{v}");
            assert_eq!(x.path, y.path, "{u}->{v}");
            assert_eq!(x.length, y.length, "{u}->{v}");
            assert_eq!(x.exact, y.exact, "{u}->{v}");
            assert_eq!(x.stretch.to_bits(), y.stretch.to_bits(), "{u}->{v}");
        }
    }
}

#[test]
fn full_build_is_bit_identical_across_thread_counts() {
    for (k, seed) in [(2usize, 21u64), (3, 22), (4, 23)] {
        let g = erdos_renyi_connected(&GeneratorConfig::new(140, seed).with_weights(1, 50), 0.06);
        let sequential = build(&g, k, seed, 1);
        assert!(sequential.build_stats.total_sources() > 0);
        assert!(sequential.build_stats.total_members() > 0);
        for threads in [2usize, 8] {
            let parallel = build(&g, k, seed, threads);
            assert_builds_identical(&g, &sequential, &parallel);
            // The work accounting is the one artefact allowed to differ in
            // shape — but never in total.
            assert_eq!(
                sequential.build_stats.total_sources(),
                parallel.build_stats.total_sources(),
                "k={k} threads={threads}"
            );
            assert_eq!(
                sequential.build_stats.total_members(),
                parallel.build_stats.total_members(),
                "k={k} threads={threads}"
            );
            assert!(
                parallel.build_stats.threads_used() > 1,
                "k={k} threads={threads}: expected sharded work, got {:?}",
                parallel.build_stats
            );
        }
    }
}

#[test]
fn default_build_matches_the_sequential_oracle() {
    // `ConstructionConfig::new` defaults to the host's available parallelism;
    // whatever that is, the output must be the sequential one.
    let g = random_geometric_connected(&GeneratorConfig::new(90, 31).with_weights(1, 9), 0.18);
    let defaulted = build_routing_scheme(&g, &ConstructionConfig::new(3, 31)).unwrap();
    let sequential = build(&g, 3, 31, 1);
    assert_builds_identical(&g, &sequential, &defaulted);
    assert_eq!(
        sequential.build_stats.total_members(),
        defaulted.build_stats.total_members()
    );
}

#[test]
fn more_threads_than_work_items_degenerates_gracefully() {
    // 10 vertices, 64 requested workers: every phase has (far) fewer work
    // items than threads, so most worker slots get empty shards.
    let g = erdos_renyi_connected(&GeneratorConfig::new(10, 41).with_weights(1, 5), 0.4);
    let sequential = build(&g, 2, 41, 1);
    let oversubscribed = build(&g, 2, 41, 64);
    assert_builds_identical(&g, &sequential, &oversubscribed);
    assert_eq!(
        sequential.build_stats.total_sources(),
        oversubscribed.build_stats.total_sources()
    );
}

#[test]
fn single_vertex_host_builds_at_any_thread_count() {
    let g = en_graph::WeightedGraph::new(1);
    for threads in [1usize, 2, 8] {
        let built = build(&g, 1, 7, threads);
        assert_eq!(built.scheme.n(), 1);
        let bytes = serialize(&built.scheme);
        assert_eq!(bytes, serialize(&build(&g, 1, 7, 1).scheme), "{threads}");
    }
}

#[test]
fn spanning_single_cluster_family_is_thread_invariant() {
    // k = 1: every vertex is a level-0 centre and one cluster (its own)
    // spans all of its strict-inequality ball — including the whole-host
    // cluster of the minimum-eccentricity centre on a star graph.
    let star = en_graph::WeightedGraph::from_edges(
        6,
        [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)],
    )
    .unwrap();
    let sequential = build(&star, 1, 5, 1);
    let spans_all = sequential
        .family
        .forest
        .clusters()
        .any(|c| c.len() == star.num_nodes());
    assert!(spans_all, "star centre's cluster must span the host");
    for threads in [2usize, 8, 16] {
        let parallel = build(&star, 1, 5, threads);
        assert_builds_identical(&star, &sequential, &parallel);
    }
}

#[test]
fn restricted_kernel_is_thread_invariant_on_disconnected_hosts() {
    // The full construction rejects disconnected graphs, but the kernel
    // must still shard them deterministically (unreachable components stay
    // unreachable in every shard).
    let g = en_graph::WeightedGraph::from_edges(
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
    let csr = CsrGraph::from_graph(&g);
    let sources: Vec<NodeId> = (0..8).collect();
    let threshold = vec![INFINITY; 8];
    let (oracle, seq_stats) =
        restricted_multi_source_csr(&csr, &sources, &threshold, None, &BuildOptions::new(1));
    for threads in [2usize, 8, 32] {
        let (sharded, stats) = restricted_multi_source_csr(
            &csr,
            &sources,
            &threshold,
            None,
            &BuildOptions::new(threads),
        );
        assert_eq!(oracle, sharded, "{threads} threads");
        assert_eq!(seq_stats.total_sources(), stats.total_sources());
        assert_eq!(seq_stats.total_members(), stats.total_members());
    }
}
