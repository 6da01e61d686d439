//! End-to-end integration tests: the full distributed construction followed by
//! hop-by-hop packet forwarding, across workloads, parameters and seeds.

use en_graph::bfs::hop_diameter;
use en_graph::generators::{
    caterpillar, erdos_renyi_connected, grid, random_geometric_connected, ring, two_tier_isp,
    GeneratorConfig,
};
use en_graph::WeightedGraph;
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::stretch::{measure_stretch_all_pairs, measure_stretch_sampled};

fn assert_scheme_sound(g: &WeightedGraph, k: usize, seed: u64, all_pairs: bool) {
    let built = build_routing_scheme(g, &ConstructionConfig::new(k, seed))
        .unwrap_or_else(|e| panic!("construction failed (k={k}, seed={seed}): {e}"));
    // Structural invariants.
    assert!(built.family.trees_are_valid_in(g));
    assert!(built.family.max_overlap() <= built.params.overlap_bound());
    let slack = (1.0 + built.params.epsilon()).powi(4);
    assert!(built.family.root_estimates_within(g, slack));
    // Routing invariants.
    let report = if all_pairs {
        measure_stretch_all_pairs(g, &built.scheme)
    } else {
        measure_stretch_sampled(g, &built.scheme, 300, seed ^ 0xF00D)
    };
    assert_eq!(
        report.failures, 0,
        "k={k} seed={seed}: some pairs failed to route"
    );
    assert!(
        report.max_stretch <= built.params.stretch_bound() + 1e-9,
        "k={k} seed={seed}: stretch {} exceeds bound {}",
        report.max_stretch,
        built.params.stretch_bound()
    );
}

#[test]
fn erdos_renyi_all_pairs_small() {
    for k in [1, 2, 3] {
        let g = erdos_renyi_connected(
            &GeneratorConfig::new(48, 3 + k as u64).with_weights(1, 50),
            0.12,
        );
        assert_scheme_sound(&g, k, 3 + k as u64, true);
    }
}

#[test]
fn erdos_renyi_sampled_medium_even_and_odd_k() {
    for (k, seed) in [(4usize, 10u64), (5, 11)] {
        let g = erdos_renyi_connected(&GeneratorConfig::new(150, seed).with_weights(1, 100), 0.05);
        assert_scheme_sound(&g, k, seed, false);
    }
}

#[test]
fn geometric_graph_routing() {
    let g = random_geometric_connected(&GeneratorConfig::new(120, 21).with_weights(1, 100), 0.16);
    assert_scheme_sound(&g, 3, 21, false);
}

#[test]
fn isp_topology_routing() {
    let g = two_tier_isp(&GeneratorConfig::new(140, 31).with_weights(1, 60), 0.12);
    assert_scheme_sound(&g, 4, 31, false);
}

#[test]
fn grid_topology_routing() {
    let g = grid(&GeneratorConfig::new(100, 41).with_weights(1, 20), 10, 10);
    assert_scheme_sound(&g, 2, 41, false);
}

#[test]
fn ring_topology_routing_large_diameter() {
    // A ring has hop-diameter n/2: the D-dependent terms dominate.
    let g = ring(&GeneratorConfig::new(60, 51).with_weights(1, 10));
    assert_eq!(hop_diameter(&g), 30);
    assert_scheme_sound(&g, 2, 51, true);
}

#[test]
fn caterpillar_topology_routing() {
    let g = caterpillar(&GeneratorConfig::new(80, 61).with_weights(1, 30));
    assert_scheme_sound(&g, 3, 61, false);
}

#[test]
fn unweighted_graph_routing() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(70, 71).unweighted(), 0.08);
    assert_scheme_sound(&g, 3, 71, false);
}

#[test]
fn repeated_seeds_give_identical_schemes() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(60, 81).with_weights(1, 40), 0.1);
    let a = build_routing_scheme(&g, &ConstructionConfig::new(3, 7)).unwrap();
    let b = build_routing_scheme(&g, &ConstructionConfig::new(3, 7)).unwrap();
    assert_eq!(a.total_rounds(), b.total_rounds());
    assert_eq!(a.scheme.max_table_words(), b.scheme.max_table_words());
    assert_eq!(a.scheme.max_label_words(), b.scheme.max_label_words());
    let ra = a.scheme.route(&g, 5, 50).unwrap();
    let rb = b.scheme.route(&g, 5, 50).unwrap();
    assert_eq!(ra.path, rb.path);
}

#[test]
fn label_and_table_sizes_match_theorem_5_shape() {
    let n = 160;
    let g = erdos_renyi_connected(&GeneratorConfig::new(n, 91).with_weights(1, 80), 0.05);
    let log2n = (n as f64).log2();
    for k in [2usize, 4] {
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, 91)).unwrap();
        // Labels: O(k log^2 n) words.
        assert!(
            (built.scheme.max_label_words() as f64) <= 8.0 * k as f64 * log2n * log2n,
            "k={k}: label {} too large",
            built.scheme.max_label_words()
        );
        // Tables: O~(n^{1/k}) tree tables, each O(log n) words, plus the
        // level-0 member labels of the 4k-5 refinement.
        let per_vertex_trees: usize = (0..n)
            .map(|v| built.scheme.trees_containing(v))
            .max()
            .unwrap();
        assert!(
            per_vertex_trees <= built.params.overlap_bound(),
            "k={k}: vertex participates in {per_vertex_trees} trees"
        );
    }
}

#[test]
fn every_vertex_can_reach_every_other_on_a_fixed_instance() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(40, 101).with_weights(1, 30), 0.15);
    let built = build_routing_scheme(&g, &ConstructionConfig::new(3, 101)).unwrap();
    for u in g.nodes() {
        for v in g.nodes() {
            if u == v {
                continue;
            }
            let out = built.scheme.route(&g, u, v).unwrap();
            assert_eq!(out.path.nodes().first(), Some(&u));
            assert_eq!(out.path.nodes().last(), Some(&v));
            assert!(out.path.is_valid_in(&g));
        }
    }
}

#[test]
fn single_vertex_host_builds_and_serializes_at_k1() {
    let g = WeightedGraph::new(1);
    let built = build_routing_scheme(&g, &ConstructionConfig::new(1, 7)).unwrap();
    assert_eq!(built.scheme.n(), 1);
    let bytes = en_wire::serialize(&built.scheme);
    let flat = en_wire::FlatScheme::from_bytes(&bytes).expect("snapshot validates");
    assert_eq!(flat.n(), 1);
}

#[test]
fn star_centre_cluster_spans_the_host_at_k1() {
    // k = 1: every vertex is a level-0 centre and no level follows, so the
    // centre's cluster is all of the host.
    let star = WeightedGraph::from_edges(6, (1..6).map(|v| (0, v, 1))).unwrap();
    let built = build_routing_scheme(&star, &ConstructionConfig::new(1, 5)).unwrap();
    let centre = built
        .family
        .cluster(0)
        .expect("the star centre is a level-0 centre");
    assert_eq!(centre.len(), star.num_nodes());
    assert_scheme_sound(&star, 1, 5, true);
}
