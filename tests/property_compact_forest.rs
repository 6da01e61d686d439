//! Property-based equivalence suite for the arena-backed compact cluster
//! forest: the forest-backed family must be indistinguishable from the old
//! dense one-host-sized-tree-per-centre representation.
//!
//! Three layers of equivalence, across random graphs, `k ∈ {2, 3}`, and both
//! the exact and the approximate (end-to-end distributed) constructions:
//!
//! * **Representation**: every forest cluster materialises
//!   ([`ClusterView::tree`]) to a [`RootedTree`] with identical member sets,
//!   identical parent arcs, and root distances consistent with the recorded
//!   estimates; for the exact family, members and root estimates also match
//!   the retained per-centre restricted-Dijkstra oracle.
//! * **Tree routing**: building the Theorem-7 scheme from the zero-copy
//!   forest slice and from the materialised dense tree yields bit-identical
//!   tables and labels for every member.
//! * **Routing outcomes**: `RoutingScheme::assemble` (membership-CSR sweep
//!   over forest slices) and `RoutingScheme::assemble_reference` (the
//!   retained pre-forest assembly over materialised trees) produce
//!   bit-identical [`RouteOutcome`]s — same tree, same path, same lengths,
//!   same stretch bits — for sampled vertex pairs, and identical table and
//!   label sizes everywhere.

use proptest::prelude::*;

use en_graph::forest::TreeView;
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::WeightedGraph;
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::exact::{exact_cluster_family, grow_exact_cluster_csr, membership_thresholds};
use en_routing::scheme::RoutingScheme;
use en_routing::{ClusterFamily, Hierarchy, SchemeParams};
use en_tree_routing::{TreeRoutingConfig, TreeRoutingScheme};

fn arb_graph() -> impl Strategy<Value = (WeightedGraph, u64)> {
    (16usize..56, 0u64..10_000, 1u64..60).prop_map(|(n, seed, max_w)| {
        (
            erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, max_w), 0.12),
            seed,
        )
    })
}

/// Representation equivalence: each forest slice and its materialised dense
/// tree describe the same rooted tree, and the root estimates are coherent.
fn check_forest_matches_dense(g: &WeightedGraph, family: &ClusterFamily) {
    for view in family.clusters() {
        let tree = view.tree();
        assert_eq!(tree.root(), view.center());
        assert_eq!(tree.len(), view.len());
        assert_eq!(tree.members(), view.members().collect::<Vec<_>>());
        for v in view.members() {
            assert_eq!(
                tree.parent(v),
                view.parent(v),
                "centre {}: parent arc of {v} differs",
                view.center()
            );
        }
        assert!(tree.is_subgraph_of(g), "centre {}", view.center());
        // The local topology of the slice and of the dense tree agree.
        let a = view.topology();
        let b = tree.topology();
        assert_eq!(a.members, b.members);
        assert_eq!(a.parent_idx, b.parent_idx);
        assert_eq!(a.parent_weight, b.parent_weight);
        assert_eq!(a.root_pos, b.root_pos);
    }
}

/// Tree-routing equivalence: the Theorem-7 scheme built from the zero-copy
/// slice equals the one built from the materialised dense tree, table for
/// table and label for label.
fn check_tree_schemes_match(family: &ClusterFamily, tree_seed: u64) {
    for view in family.clusters() {
        let config =
            TreeRoutingConfig::new(tree_seed ^ (view.center() as u64).wrapping_mul(0x9E37_79B9));
        let from_slice = TreeRoutingScheme::build(&view, &config);
        let from_dense = TreeRoutingScheme::build(&view.tree(), &config);
        assert_eq!(from_slice.portals(), from_dense.portals());
        for v in view.members() {
            assert_eq!(
                from_slice.table(v),
                from_dense.table(v),
                "centre {}: table of {v} differs",
                view.center()
            );
            assert_eq!(
                from_slice.label(v),
                from_dense.label(v),
                "centre {}: label of {v} differs",
                view.center()
            );
        }
    }
}

/// Routing-outcome equivalence: the membership-CSR assembly and the retained
/// pre-forest reference assembly are bit-identical in everything a user can
/// observe.
fn check_assemblies_match(g: &WeightedGraph, family: &ClusterFamily, tree_seed: u64) {
    let fast = RoutingScheme::assemble(family, g, tree_seed);
    let reference = RoutingScheme::assemble_reference(family, g, tree_seed);
    let n = g.num_nodes();
    for v in 0..n {
        assert_eq!(fast.trees_containing(v), reference.trees_containing(v));
        assert_eq!(fast.table_words(v), reference.table_words(v));
        assert_eq!(fast.label_words(v), reference.label_words(v));
    }
    for u in (0..n).step_by(3) {
        for v in (0..n).step_by(5) {
            if u == v {
                continue;
            }
            let a = fast.route(g, u, v).expect("fast route succeeds");
            let b = reference.route(g, u, v).expect("reference route succeeds");
            assert_eq!(a.tree_root, b.tree_root, "{u}->{v}: tree choice differs");
            assert_eq!(a.level, b.level, "{u}->{v}");
            assert_eq!(a.path, b.path, "{u}->{v}: paths differ");
            assert_eq!(a.length, b.length, "{u}->{v}");
            assert_eq!(a.exact, b.exact, "{u}->{v}");
            assert_eq!(
                a.stretch.to_bits(),
                b.stretch.to_bits(),
                "{u}->{v}: stretch bits differ"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// The exact construction: forest ≡ dense representation ≡ per-centre
    /// oracle, and routing outcomes are bit-identical.
    #[test]
    fn exact_family_forest_is_equivalent_to_dense(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let n = g.num_nodes();
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        check_forest_matches_dense(&g, &family);
        // Members and root estimates also match the per-centre oracle (the
        // pre-forest ground truth).
        let csr = en_graph::CsrGraph::from_graph(&g);
        for view in family.clusters() {
            let threshold = membership_thresholds(&family.pivots, view.level());
            let oracle = grow_exact_cluster_csr(&csr, view.center(), view.level(), &threshold);
            prop_assert_eq!(view.members().collect::<Vec<_>>(), oracle.members());
            for (v, &est) in view.members().zip(view.root_dists()) {
                prop_assert_eq!(Some(&est), oracle.root_estimate.get(&v));
            }
        }
        check_tree_schemes_match(&family, seed);
        check_assemblies_match(&g, &family, seed);
    }

    /// The approximate (end-to-end distributed) construction: the family the
    /// pipeline produces is representation- and routing-equivalent too.
    #[test]
    fn approx_family_forest_is_equivalent_to_dense(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, seed)).unwrap();
        check_forest_matches_dense(&g, &built.family);
        check_tree_schemes_match(&built.family, seed);
        check_assemblies_match(&g, &built.family, seed);
    }
}
