//! Exact Thorup–Zwick pivots and clusters (sequential construction).
//!
//! This is the `[TZ01]/[TZ05]` baseline of Table 1 *and* the ground truth the
//! approximate construction is validated against: the paper requires
//! `C_{6ε}(u) ⊆ C̃(u) ⊆ C(u)` (inequality (9)), where `C(u)` is the exact
//! cluster defined by
//!
//! ```text
//! C(u) = { v ∈ V : d_G(u, v) < d_G(v, A_{i+1}) }        (u ∈ A_i \ A_{i+1})
//! ```
//!
//! Note the *strict* inequality: a vertex whose distance from the centre ties
//! its threshold `d_G(v, A_{i+1})` is **not** a member (and, by the
//! containment argument of Section 3.2, genuine thresholds make everything
//! behind such a vertex unreachable for the centre too). Both the per-centre
//! growth and the batched kernel implement the tie case this way; see the
//! `tie_with_threshold_is_excluded` regression test.
//!
//! The whole family is grown by the batched restricted multi-source kernel
//! ([`en_graph::restricted`]): all centres of a level share one threshold
//! vector `d_G(·, A_{i+1})`, so one vertex-major batched pass grows every
//! cluster of the level at once over a single shared [`CsrGraph`] — and the
//! kernel's compact member records are appended *directly* to the family's
//! [`ClusterForest`](en_graph::forest::ClusterForest) arena, with no
//! intermediate per-cluster host-sized tree. The per-centre restricted
//! Dijkstra ([`grow_exact_cluster_csr`]) is retained as the oracle the
//! property tests validate the batched kernel against; it still materialises
//! the dense [`Cluster`] representation the comparisons need.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use en_graph::dijkstra::multi_source_dijkstra_csr;
use en_graph::forest::{ClusterForestBuilder, ClusterId, ForestMember};
use en_graph::restricted::restricted_multi_source_csr_grouped;
use en_graph::tree::RootedTree;
use en_graph::{
    dist_add, is_finite, CsrGraph, Dist, NodeId, NodeMap, Weight, WeightedGraph, INFINITY,
};

use crate::family::{Cluster, ClusterFamily};
use crate::hierarchy::Hierarchy;

/// Computes the exact pivots `z_i(v)` and distances `d_G(v, A_i)` for every
/// vertex and every level `0 ≤ i < k`, over a prebuilt [`CsrGraph`] view of
/// the graph ([`exact_cluster_family`] threads one shared view through the
/// pivot and cluster computations).
///
/// `pivots[v][i]` is `None` when `A_i` is empty or unreachable from `v`.
pub fn exact_pivots(csr: &CsrGraph, hierarchy: &Hierarchy) -> Vec<Vec<Option<(NodeId, Dist)>>> {
    let n = csr.num_nodes();
    let k = hierarchy.k();
    let mut pivots = vec![vec![None; k]; n];
    for i in 0..k {
        let level = hierarchy.level(i);
        if level.is_empty() {
            continue;
        }
        let (dist, nearest) = multi_source_dijkstra_csr(csr, level);
        for v in 0..n {
            if let (true, Some(z)) = (is_finite(dist[v]), nearest[v]) {
                pivots[v][i] = Some((z, dist[v]));
            }
        }
    }
    pivots
}

/// The exact distance from every vertex to `A_{i+1}` (the cluster-membership
/// threshold at level `i`); [`INFINITY`] when `A_{i+1}` is empty.
pub fn membership_thresholds(pivots: &[Vec<Option<(NodeId, Dist)>>], level: usize) -> Vec<Dist> {
    pivots
        .iter()
        .map(|per_v| {
            if level + 1 < per_v.len() {
                per_v[level + 1].map_or(INFINITY, |(_, d)| d)
            } else {
                INFINITY
            }
        })
        .collect()
}

/// Grows one exact cluster by restricted Dijkstra over a prebuilt
/// [`CsrGraph`] view: a search from `center` that only admits (and only
/// relaxes through) vertices satisfying `d(center, v) < threshold[v]`.
///
/// Because every vertex on a shortest path from the centre to a cluster member
/// is itself a member (the containment argument of Section 3.2), restricting
/// the search this way still yields exact distances for every member.
///
/// This is the retained per-centre oracle for the batched kernel
/// ([`grow_exact_clusters`]): the property suite asserts the two
/// produce identical member sets, distances and valid trees. The relaxed arc
/// weight is recorded alongside each parent during the search, so the tree is
/// assembled without any adjacency re-lookup (and without the possibility of
/// disagreeing with the relaxed arc).
pub fn grow_exact_cluster_csr(
    csr: &CsrGraph,
    center: NodeId,
    level: usize,
    threshold: &[Dist],
) -> Cluster {
    let n = csr.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut parent: Vec<Option<(NodeId, Weight)>> = vec![None; n];
    let mut joined = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
    dist[center] = 0;
    heap.push(Reverse((0, center)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] || joined[v] {
            continue;
        }
        // Membership test: strict inequality per definition (6); a tie
        // d(center, v) == threshold[v] excludes v. The centre itself is
        // exempt.
        if v != center && d >= threshold[v] {
            continue;
        }
        joined[v] = true;
        let (targets, weights) = csr.arcs(v);
        for (&t, &w) in targets.iter().zip(weights) {
            let nd = dist_add(d, w);
            if nd < dist[t] {
                dist[t] = nd;
                parent[t] = Some((v, w));
                heap.push(Reverse((nd, t)));
            }
        }
    }
    let mut tree = RootedTree::new(n, center);
    let mut root_estimate = NodeMap::default();
    root_estimate.insert(center, 0);
    // Attach members in order of distance so parents are always attached first.
    let mut order: Vec<NodeId> = (0..n).filter(|&v| joined[v] && v != center).collect();
    order.sort_by_key(|&v| (dist[v], v));
    for v in order {
        let (p, w) = parent[v].expect("non-centre member has a Dijkstra parent");
        tree.attach(v, p, w);
        root_estimate.insert(v, dist[v]);
    }
    Cluster {
        center,
        level,
        tree,
        root_estimate,
    }
}

/// Grows the exact clusters of *every* centre of one level in a single
/// batched restricted multi-source pass and appends them, in `centers`
/// order, to a caller-owned builder (whole-family construction pushes every
/// level into one shared arena). All centres share the level's threshold
/// vector `d_G(·, A_{i+1})`, so the per-centre heap searches collapse into
/// chunked vertex-major relaxation sweeps (see [`en_graph::restricted`]).
///
/// Each centre's level-`i+1` pivot is its Voronoi cell around `A_{i+1}` —
/// exactly the locality grouping the kernel wants — so the kernel's own
/// grouping Dijkstra is skipped. Each cluster is pushed straight off the
/// kernel's compact member records: ascending member ids, recorded parents,
/// relaxed arc weights and exact distances map one-to-one onto the forest
/// arena's columns. Returns the range of [`ClusterId`]s pushed (one per
/// centre, in `centers` order).
pub fn grow_exact_clusters(
    csr: &CsrGraph,
    centers: &[NodeId],
    level: usize,
    threshold: &[Dist],
    pivots: &[Vec<Option<(NodeId, Dist)>>],
    builder: &mut ClusterForestBuilder,
) -> std::ops::Range<ClusterId> {
    let groups: Vec<(NodeId, Dist)> = centers
        .iter()
        .map(|&c| {
            if level + 1 < pivots[c].len() {
                pivots[c][level + 1].unwrap_or((usize::MAX, INFINITY))
            } else {
                (usize::MAX, INFINITY)
            }
        })
        .collect();
    let res = restricted_multi_source_csr_grouped(csr, centers, threshold, None, &groups);
    let start = builder.num_clusters();
    for (s, &center) in centers.iter().enumerate() {
        builder.push_cluster(
            center,
            level,
            res.member_cells(s).iter().map(|c| {
                let (parent, weight) = c
                    .tree_arc()
                    .expect("non-centre member has a recorded parent");
                ForestMember {
                    v: c.v as NodeId,
                    parent,
                    weight,
                    root_dist: c.dist,
                }
            }),
        );
    }
    start..builder.num_clusters()
}

/// Builds the complete exact cluster family (all centres, all levels) plus the
/// exact pivot table, over one shared [`CsrGraph`] view: the pivot
/// multi-source Dijkstras and every level's batched cluster growth all reuse
/// the same flat adjacency, and every level appends into one shared forest
/// arena.
pub fn exact_cluster_family(g: &WeightedGraph, hierarchy: &Hierarchy) -> ClusterFamily {
    let csr = CsrGraph::from_graph(g);
    let pivots = exact_pivots(&csr, hierarchy);
    let mut builder = ClusterForestBuilder::new(g.num_nodes());
    for i in 0..hierarchy.k() {
        let threshold = membership_thresholds(&pivots, i);
        let centers = hierarchy.centers_at(i);
        grow_exact_clusters(&csr, &centers, i, &threshold, &pivots, &mut builder);
    }
    ClusterFamily::new(hierarchy.clone(), builder.finish(), pivots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SchemeParams;
    use en_graph::dijkstra::{dijkstra, multi_source_dijkstra};
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn setup(n: usize, k: usize, seed: u64) -> (WeightedGraph, Hierarchy, ClusterFamily) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 30), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        (g, hierarchy, family)
    }

    #[test]
    fn pivots_are_nearest_level_vertices() {
        let (g, hierarchy, family) = setup(60, 3, 1);
        for v in g.nodes() {
            for i in 0..3 {
                match family.pivots[v][i] {
                    Some((z, d)) => {
                        assert!(hierarchy.level(i).contains(&z));
                        let (dist, _) = multi_source_dijkstra(&g, hierarchy.level(i));
                        assert_eq!(d, dist[v]);
                        assert_eq!(d, dijkstra(&g, z).dist[v]);
                    }
                    None => assert!(hierarchy.level(i).is_empty()),
                }
            }
            assert_eq!(family.pivots[v][0], Some((v, 0)));
        }
    }

    #[test]
    fn cluster_membership_matches_definition_6() {
        let (g, hierarchy, family) = setup(50, 3, 2);
        let pivots = &family.pivots;
        for cluster in family.clusters() {
            let sp = dijkstra(&g, cluster.center());
            let i = cluster.level();
            for v in g.nodes() {
                let threshold = if i + 1 < hierarchy.k() {
                    pivots[v][i + 1].map_or(INFINITY, |(_, d)| d)
                } else {
                    INFINITY
                };
                let should_be_member = sp.dist[v] < threshold || v == cluster.center();
                assert_eq!(
                    cluster.contains(v),
                    should_be_member,
                    "center {} level {} vertex {}",
                    cluster.center(),
                    i,
                    v
                );
            }
        }
    }

    #[test]
    fn cluster_trees_are_shortest_path_trees() {
        let (g, _, family) = setup(50, 3, 3);
        assert!(family.trees_are_valid_in(&g));
        assert!(family.root_estimates_within(&g, 1.0));
    }

    #[test]
    fn top_level_clusters_cover_everything() {
        let (g, hierarchy, family) = setup(40, 2, 4);
        // Centres at the last non-empty level have threshold ∞, so their
        // clusters contain every vertex.
        let last = hierarchy.k() - 1;
        if !hierarchy.level(last).is_empty() {
            let c = hierarchy.centers_at(last)[0];
            assert_eq!(family.cluster(c).unwrap().len(), g.num_nodes());
        }
    }

    #[test]
    fn overlap_respects_claim_2_bound() {
        let (_, _, family) = setup(80, 3, 5);
        let params = SchemeParams::new(3, 80, 5);
        assert!(
            family.max_overlap() <= params.overlap_bound(),
            "{} > {}",
            family.max_overlap(),
            params.overlap_bound()
        );
    }

    #[test]
    fn k_equals_one_gives_spanning_clusters_for_every_vertex() {
        let (g, _, family) = setup(25, 1, 6);
        assert_eq!(family.num_clusters(), 25);
        for c in family.clusters() {
            assert_eq!(c.len(), g.num_nodes());
        }
    }

    #[test]
    fn thresholds_helper_handles_top_level() {
        let (_, _, family) = setup(30, 2, 7);
        let t = membership_thresholds(&family.pivots, 1);
        assert!(t.iter().all(|&x| x == INFINITY));
        let t0 = membership_thresholds(&family.pivots, 0);
        assert!(t0.iter().any(|&x| x < INFINITY));
    }

    #[test]
    fn batched_family_matches_per_centre_oracle() {
        let (g, hierarchy, family) = setup(70, 3, 8);
        let csr = CsrGraph::from_graph(&g);
        for i in 0..hierarchy.k() {
            let threshold = membership_thresholds(&family.pivots, i);
            for center in hierarchy.centers_at(i) {
                let oracle = grow_exact_cluster_csr(&csr, center, i, &threshold);
                let batched = family.cluster(center).expect("centre has a cluster");
                assert_eq!(
                    batched.members().collect::<Vec<_>>(),
                    oracle.members(),
                    "centre {center}"
                );
                for v in batched.members() {
                    assert_eq!(
                        batched.root_dist(v),
                        oracle.root_estimate.get(&v).copied(),
                        "centre {center} vertex {v}"
                    );
                }
                assert!(batched.tree().is_subgraph_of(&g));
            }
        }
    }

    /// Regression for the definition-(6) tie case: `d(center, v) ==
    /// threshold[v]` excludes `v` — the inequality is strict — and with
    /// genuine thresholds everything whose shortest path runs through the
    /// tied vertex is excluded with it. Verdict of the audit: the per-centre
    /// oracle's `v != center && d >= threshold[v]` test was already correct,
    /// and the batched kernel's strict `dist < threshold` mask agrees.
    #[test]
    fn tie_with_threshold_is_excluded() {
        // Path 0 -2- 1 -2- 2 with A_1 = {2}: thresholds d(·, A_1) are
        // [4, 2, 0] and d(0, 1) = 2 ties threshold[1].
        let g = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 2, 2)]).unwrap();
        let hierarchy = Hierarchy::from_levels(3, vec![vec![0, 1, 2], vec![2]]);
        let family = exact_cluster_family(&g, &hierarchy);
        let c0 = family.cluster(0).unwrap();
        assert_eq!(
            c0.members().collect::<Vec<_>>(),
            vec![0],
            "tied vertex 1 must be excluded"
        );
        // The oracle agrees on the same threshold vector.
        let csr = CsrGraph::from_graph(&g);
        let threshold = membership_thresholds(&family.pivots, 0);
        assert_eq!(threshold, vec![4, 2, 0]);
        let oracle = grow_exact_cluster_csr(&csr, 0, 0, &threshold);
        assert_eq!(oracle.members(), vec![0]);
        // Breaking the tie by one admits vertex 1 in both implementations.
        let relaxed = vec![4, 3, 0];
        let oracle = grow_exact_cluster_csr(&csr, 0, 0, &relaxed);
        let mut builder = ClusterForestBuilder::new(3);
        grow_exact_clusters(&csr, &[0], 0, &relaxed, &family.pivots, &mut builder);
        let forest = builder.finish();
        let batched = forest.cluster(0);
        assert_eq!(oracle.members(), vec![0, 1]);
        assert_eq!(batched.members().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(batched.root_dist(1), Some(2)); // d(0, 1), exact
    }
}
