//! Approximate clusters (Section 3 of the paper).
//!
//! For a centre `u ∈ A_i \ A_{i+1}` the *approximate cluster* `C̃(u)` is any
//! set with `C_{6ε}(u) ⊆ C̃(u) ⊆ C(u)` (inequality (9)), stored as a tree
//! rooted at `u` whose root distances satisfy
//! `d_G(u,v) ≤ d_{C̃(u)}(u,v) ≤ (1+ε)⁴ d_G(u,v)` (inequality (10)).
//!
//! Three constructions are used depending on the level:
//!
//! * **Small scales** `i < ⌈k/2⌉` (§3.2): exact clusters by depth-bounded
//!   Bellman–Ford with join condition `b_v(u) < d_G(v, A_{i+1})`.
//! * **Middle level** `i = (k−1)/2` for odd `k` (§3.2): Theorem 1 from the
//!   centres with `B = 4 n^{(i+1)/k} ln n`, join condition
//!   `b_v(u) < d_G(v, A_{i+1})`, parents from Remark 1.
//! * **Large scales** `i ≥ ⌈k/2⌉` (§3.3): three phases on the virtual graph:
//!   Phase 1 runs `β` iterations of depth-bounded Bellman–Ford on
//!   `G'' = G' ∪ F` with join condition (14); Phase 1.5 pulls the realising
//!   path of every used hopset edge into the virtual tree so that every
//!   member's virtual parent is a `G'` edge; Phase 2 extends the virtual tree
//!   to all of `V` via the Theorem-1 values with join condition (15), and
//!   real parents come from Remark 1.

use std::collections::HashMap;

use en_congest::broadcast::lemma1_rounds;
use en_congest::RoundLedger;
use en_congest_algos::theorem1::multi_source_hop_bounded;
use en_graph::forest::{ClusterForestBuilder, ForestMember};
use en_graph::restricted::restricted_multi_source_csr;
use en_graph::{is_finite, Dist, NodeId, NodeMap, Weight, WeightedGraph, INFINITY};

use crate::exact::{grow_exact_clusters, membership_thresholds};
use crate::hierarchy::Hierarchy;
use crate::params::SchemeParams;
use crate::preprocess::Preprocessing;

/// Diagnostics of the approximate-cluster construction.
#[derive(Debug, Clone, Default)]
pub struct ClusterDiagnostics {
    /// Number of members whose recorded parent was missing or not itself a
    /// member, a low-probability event. The private tree assembly
    /// `assemble_cluster_tree_into` repairs each one: it attaches the member
    /// through its best neighbour already in the tree, or drops it.
    pub parent_fixups: usize,
    /// Number of cluster trees built per level.
    pub clusters_per_level: HashMap<usize, usize>,
    /// Number of simulated CONGEST runs that were cut off by the simulator's
    /// round limit before quiescence (should be 0; the harness bins warn when
    /// it is not, because the reported round counts would be truncated).
    pub round_limit_hits: usize,
}

/// Builds the small-scale clusters (levels `i < ⌈k/2⌉`, excluding the odd-`k`
/// middle level, which has its own routine) into a caller-owned builder, so
/// the end-to-end construction pays for the membership CSR once at the
/// family's final `finish()` instead of once per phase. Every level is grown
/// by one batched restricted multi-source pass over a shared CSR view (all
/// centres of the level share the threshold vector `d̂_{i+1}(·)`).
pub fn small_scale_clusters(
    g: &WeightedGraph,
    hierarchy: &Hierarchy,
    params: &SchemeParams,
    pivots: &[Vec<Option<(NodeId, Dist)>>],
    builder: &mut ClusterForestBuilder,
) -> (RoundLedger, ClusterDiagnostics) {
    let mut ledger = RoundLedger::new();
    let mut diagnostics = ClusterDiagnostics::default();
    let half = params.half_k();
    let middle = params.middle_level();
    let csr = en_graph::CsrGraph::from_graph(g);
    for i in 0..half.min(params.k) {
        if Some(i) == middle {
            continue;
        }
        let centers = hierarchy.centers_at(i);
        if centers.is_empty() {
            continue;
        }
        let threshold = membership_thresholds(pivots, i);
        let pushed = grow_exact_clusters(&csr, &centers, i, &threshold, pivots, builder);
        let mut level_overlap = vec![0usize; g.num_nodes()];
        for id in pushed {
            for &v in builder.members_of(id) {
                level_overlap[v as usize] += 1;
            }
        }
        diagnostics.clusters_per_level.insert(i, centers.len());
        let congestion = level_overlap.into_iter().max().unwrap_or(1).max(1);
        let iterations = params.exploration_depth(i + 1);
        ledger.charge(
            format!("small-scale clusters, level {i}: depth-bounded Bellman-Ford"),
            iterations * congestion,
            format!(
                "4 n^{{({i}+1)/{k}}} ln n = {iterations} iterations x measured congestion {congestion} (Claim 2 bounds it by O~(n^{{1/{k}}}))",
                k = params.k
            ),
        );
    }
    (ledger, diagnostics)
}

/// Builds the odd-`k` middle-level clusters via Theorem 1 (§3.2, "The
/// middle level") into a caller-owned builder.
pub fn middle_level_clusters(
    g: &WeightedGraph,
    hierarchy: &Hierarchy,
    params: &SchemeParams,
    pivots: &[Vec<Option<(NodeId, Dist)>>],
    hop_diameter: usize,
    builder: &mut ClusterForestBuilder,
) -> (RoundLedger, ClusterDiagnostics) {
    let mut ledger = RoundLedger::new();
    let mut diagnostics = ClusterDiagnostics::default();
    let Some(i) = params.middle_level() else {
        return (ledger, diagnostics);
    };
    let centers = hierarchy.centers_at(i);
    if centers.is_empty() {
        return (ledger, diagnostics);
    }
    let b = params.exploration_depth(i + 1);
    let eps = params.epsilon();
    let t1 = multi_source_hop_bounded(g, &centers, b, eps.max(1e-9), hop_diameter);
    ledger.absorb(t1.ledger.clone());
    let threshold = membership_thresholds(pivots, i);
    for (ci, &center) in centers.iter().enumerate() {
        let mut estimate: NodeMap<Dist> = NodeMap::default();
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        estimate.insert(center, 0);
        let dist_row = t1.dist_row(ci);
        let parent_row = t1.parent_row(ci);
        for v in g.nodes() {
            if v == center {
                continue;
            }
            let bv = dist_row[v];
            if is_finite(bv) && bv < threshold[v] {
                estimate.insert(v, bv);
                if let Some(p) = parent_row[v] {
                    parent.insert(v, p);
                }
            }
        }
        diagnostics.parent_fixups +=
            assemble_cluster_tree_into(builder, g, center, i, estimate, parent);
    }
    diagnostics.clusters_per_level.insert(i, centers.len());
    (ledger, diagnostics)
}

/// Builds the large-scale clusters (levels `i ≥ ⌈k/2⌉`) with the three-phase
/// virtual-graph construction of §3.3.2, into a caller-owned builder. Each
/// level's Phase-1 depth-bounded exploration on `G''` is one batched pass
/// over all of the level's centres; the per-centre Phase 1.5 and Phase 2
/// passes read its results.
pub fn large_scale_clusters(
    g: &WeightedGraph,
    hierarchy: &Hierarchy,
    params: &SchemeParams,
    pivots: &[Vec<Option<(NodeId, Dist)>>],
    pre: &Preprocessing,
    hop_diameter: usize,
    builder: &mut ClusterForestBuilder,
) -> (RoundLedger, ClusterDiagnostics) {
    let mut ledger = RoundLedger::new();
    let mut diagnostics = ClusterDiagnostics::default();
    let eps = params.epsilon();
    let half = params.half_k();
    let m = pre.m();
    let one_plus_eps = 1.0 + eps;

    // Precompute, for every hopset edge, the prefix distances along its
    // realising path in G' (needed by Phase 1.5).
    let hopset_paths: Vec<(Vec<usize>, Vec<Dist>)> = pre
        .hopset
        .edges()
        .iter()
        .map(|e| {
            let nodes: Vec<usize> = e.path.nodes().to_vec();
            let mut prefix = vec![0; nodes.len()];
            for idx in 1..nodes.len() {
                let w = pre
                    .gprime
                    .edge_weight(nodes[idx - 1], nodes[idx])
                    .expect("realising path uses G' edges");
                prefix[idx] = prefix[idx - 1] + w;
            }
            (nodes, prefix)
        })
        .collect();

    // The restricted kernel runs on a plain CSR view of G''; edge provenance
    // (original vs hopset) is recovered per recovered parent arc, which is
    // unambiguous because G'' holds no parallel edges.
    let aug_csr = pre.augmented.to_csr();
    let mut total_virtual_members = 0usize;
    for i in half..params.k {
        let centers = hierarchy.centers_at(i);
        if centers.is_empty() {
            continue;
        }
        let threshold = membership_thresholds(pivots, i);
        // ---- Phase 1: β iterations of depth-bounded Bellman-Ford on G'',
        // ---- batched over every centre of the level at once. The join test
        // ---- (14), `b_v(u) < d̂_{i+1}(v) / (1+ε)^3`, is integerised into the
        // ---- kernel's strict threshold: an integer b satisfies `b < T` for
        // ---- real `T = thr / (1+ε)^3` iff `b < ⌈T⌉`.
        let vthreshold: Vec<Dist> = (0..m)
            .map(|xi| {
                let thr = threshold[pre.original(xi)];
                if thr == INFINITY {
                    INFINITY
                } else {
                    (thr as f64 / one_plus_eps.powi(3)).ceil() as Dist
                }
            })
            .collect();
        let cus: Vec<usize> = centers
            .iter()
            .map(|&c| {
                pre.virtual_index(c)
                    .expect("large-scale centre is in A_i ⊆ A_{⌈k/2⌉} = V'")
            })
            .collect();
        let phase1 = restricted_multi_source_csr(&aug_csr, &cus, &vthreshold, Some(pre.beta));
        for (s, &center) in centers.iter().enumerate() {
            let cu = cus[s];
            // Per-centre Phase-1 state, read off the batched result: levelled
            // β-sweep distances, the joined set, and virtual parents with
            // hopset provenance for Phase 1.5.
            let mut vdist: Vec<Dist> = phase1.dist_row(s);
            let mut vparent: Vec<Option<(usize, Option<usize>)>> = vec![None; m];
            let mut joined = vec![false; m];
            for y in phase1.members_of(s) {
                joined[y] = true;
                if y == cu {
                    continue;
                }
                if let Some((x, _)) = phase1.parent_of(s, y) {
                    vparent[y] = Some((x, pre.augmented.provenance(x, y)));
                }
            }

            // ---- Phase 1.5: pull realising paths of used hopset edges. ----
            for y in 0..m {
                if !joined[y] {
                    continue;
                }
                let Some((x, Some(hidx))) = vparent[y] else {
                    continue;
                };
                let (nodes, prefix) = &hopset_paths[hidx];
                // Orient the path from x to y.
                let forward = nodes.first() == Some(&x);
                let len = nodes.len();
                for (pos_raw, &z) in nodes.iter().enumerate() {
                    let neighbor_towards_x = if forward {
                        pos_raw.checked_sub(1).map(|p| nodes[p])
                    } else {
                        nodes.get(pos_raw + 1).copied()
                    };
                    if z == x {
                        continue;
                    }
                    let d_xz = if forward {
                        prefix[pos_raw]
                    } else {
                        prefix[len - 1] - prefix[pos_raw]
                    };
                    let cand = vdist[x].saturating_add(d_xz).min(INFINITY);
                    // Paper uses "at least" (>=) so that even the endpoint y
                    // re-parents onto a G' edge along the path.
                    if is_finite(cand) && vdist[z] >= cand {
                        vdist[z] = cand;
                        joined[z] = true;
                        if let Some(towards_x) = neighbor_towards_x {
                            vparent[z] = Some((towards_x, None));
                        }
                    }
                }
            }

            // ---- Real parents for the virtual members (Remark 1). ----
            let mut estimate: NodeMap<Dist> = NodeMap::default();
            let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
            estimate.insert(center, 0);
            let mut virtual_members = Vec::new();
            for v in 0..m {
                if !joined[v] || v == cu {
                    continue;
                }
                virtual_members.push(v);
                let orig = pre.original(v);
                estimate.insert(orig, vdist[v]);
                if let Some((vp, _)) = vparent[v] {
                    let vp_orig = pre.original(vp);
                    if let Some(p) = pre.parent_towards(orig, vp_orig) {
                        parent.insert(orig, p);
                    }
                }
            }
            total_virtual_members += virtual_members.len() + 1;

            // ---- Phase 2: extend to all of V through the Theorem-1 values,
            // ---- reading each virtual member's flat distance row once. ----
            let centre_row = pre.theorem1.dist_row(cu);
            let member_rows: Vec<(&[Dist], Dist, NodeId)> = virtual_members
                .iter()
                .map(|&v| (pre.theorem1.dist_row(v), vdist[v], pre.original(v)))
                .collect();
            for y in g.nodes() {
                if estimate.contains_key(&y) {
                    continue;
                }
                let mut best: Option<(Dist, NodeId)> = None;
                // The centre itself broadcasts b_u(u) = 0 as well.
                let centre_d = centre_row[y];
                if is_finite(centre_d) {
                    best = Some((centre_d, center));
                }
                for &(row, dv, x) in &member_rows {
                    let dyx = row[y];
                    if !is_finite(dyx) {
                        continue;
                    }
                    let cand = dyx.saturating_add(dv).min(INFINITY);
                    if best.is_none_or(|(bd, _)| cand < bd) {
                        best = Some((cand, x));
                    }
                }
                if let Some((val, via)) = best {
                    let thr = threshold[y];
                    let joins = thr == INFINITY || (val as f64) < thr as f64 / one_plus_eps;
                    if joins {
                        estimate.insert(y, val);
                        if let Some(p) = pre.parent_towards(y, via) {
                            parent.insert(y, p);
                        }
                    }
                }
            }

            diagnostics.parent_fixups +=
                assemble_cluster_tree_into(builder, g, center, i, estimate, parent);
        }
        diagnostics.clusters_per_level.insert(i, centers.len());
    }

    // Round charges: β Bellman-Ford iterations on G'' where every virtual
    // vertex announces at most Õ(n^{1/k}) estimates per iteration (Claim 2),
    // collected and re-broadcast over a BFS tree (Lemma 1), plus one broadcast
    // each for Phases 1.5 and 2.
    let per_iteration_messages = total_virtual_members.max(1);
    ledger.charge(
        "large-scale clusters, phase 1",
        pre.beta * lemma1_rounds(per_iteration_messages, hop_diameter),
        format!(
            "beta = {} iterations x Lemma 1 with M = sum_u |C~'(u)| = {}",
            pre.beta, per_iteration_messages
        ),
    );
    ledger.charge(
        "large-scale clusters, phases 1.5 + 2",
        2 * lemma1_rounds(per_iteration_messages, hop_diameter),
        format!("2 broadcasts of {per_iteration_messages} estimates (Lemma 1)"),
    );

    (ledger, diagnostics)
}

/// Turns a membership/estimate/parent assignment into a cluster of the forest
/// arena, repairing the (low-probability) cases where a member's recorded
/// parent is missing or would create an inconsistency. Works entirely on the
/// member set — no host-sized tree is materialised. Returns the number of
/// repairs.
fn assemble_cluster_tree_into(
    builder: &mut ClusterForestBuilder,
    g: &WeightedGraph,
    center: NodeId,
    level: usize,
    mut estimate: NodeMap<Dist>,
    parent: HashMap<NodeId, NodeId>,
) -> usize {
    // `attached[v] = (parent, weight)` is the final tree arc of `v`; the
    // centre is attached implicitly.
    let mut attached: NodeMap<(NodeId, Weight)> = NodeMap::default();
    let mut fixups = 0;
    // Attach members whose parent is already attached, in rounds; this mirrors
    // the fact that b-values strictly decrease towards the root.
    let mut pending: Vec<NodeId> = estimate.keys().copied().filter(|&v| v != center).collect();
    pending.sort_by_key(|&v| (estimate[&v], v));
    loop {
        let mut progressed = false;
        let mut still_pending = Vec::new();
        for &v in &pending {
            match parent.get(&v) {
                Some(&p) if p == center || attached.contains_key(&p) => {
                    let w = g
                        .edge_weight(v, p)
                        .expect("recorded parent must be a graph neighbour");
                    attached.insert(v, (p, w));
                    progressed = true;
                }
                _ => still_pending.push(v),
            }
        }
        pending = still_pending;
        if pending.is_empty() {
            break;
        }
        if !progressed {
            // Repair: attach each remaining member through its best neighbour
            // that is already in the tree (there is always one with positive
            // probability of never needing this; count it either way).
            let mut repaired_any = false;
            let snapshot = pending.clone();
            for &v in &snapshot {
                let best = g
                    .neighbors(v)
                    .iter()
                    .filter(|nb| nb.node == center || attached.contains_key(&nb.node))
                    .min_by_key(|nb| {
                        estimate
                            .get(&nb.node)
                            .copied()
                            .unwrap_or(INFINITY)
                            .saturating_add(nb.weight)
                    });
                if let Some(nb) = best {
                    let via = estimate.get(&nb.node).copied().unwrap_or(INFINITY);
                    attached.insert(v, (nb.node, nb.weight));
                    let repaired_estimate = via.saturating_add(nb.weight).min(INFINITY);
                    let e = estimate.get_mut(&v).expect("v is a member");
                    if *e < repaired_estimate {
                        *e = repaired_estimate;
                    }
                    fixups += 1;
                    repaired_any = true;
                    pending.retain(|&x| x != v);
                }
            }
            if !repaired_any {
                // The remaining members are not connected to the tree through
                // members at all; drop them (they cannot be routed through this
                // tree). This preserves C̃(u) ⊆ C(u).
                for v in pending.drain(..) {
                    estimate.remove(&v);
                    fixups += 1;
                }
            }
        }
    }
    let mut members: Vec<NodeId> = attached.keys().copied().collect();
    members.sort_unstable();
    builder.push_cluster(
        center,
        level,
        members.iter().map(|&v| {
            let (p, w) = attached[&v];
            ForestMember {
                v,
                parent: p,
                weight: w,
                root_dist: estimate[&v],
            }
        }),
    );
    fixups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_cluster_family;
    use crate::pivots::compute_pivots;
    use en_graph::dijkstra::dijkstra;
    use en_graph::forest::ClusterForest;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    struct Setup {
        g: WeightedGraph,
        hierarchy: Hierarchy,
        params: SchemeParams,
        pivots: Vec<Vec<Option<(NodeId, Dist)>>>,
        pre: Option<Preprocessing>,
    }

    fn setup(n: usize, k: usize, seed: u64) -> Setup {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 25), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let pre = Preprocessing::run(&g, &hierarchy, &params, 6);
        let table = compute_pivots(&g, &hierarchy, &params, pre.as_ref(), 6);
        Setup {
            g,
            hierarchy,
            params,
            pivots: table.pivots,
            pre,
        }
    }

    /// What one construction phase built into a fresh builder.
    struct Built {
        forest: ClusterForest,
        ledger: RoundLedger,
        diagnostics: ClusterDiagnostics,
    }

    fn build(
        n: usize,
        phase: impl FnOnce(&mut ClusterForestBuilder) -> (RoundLedger, ClusterDiagnostics),
    ) -> Built {
        let mut builder = ClusterForestBuilder::new(n);
        let (ledger, diagnostics) = phase(&mut builder);
        Built {
            forest: builder.finish(),
            ledger,
            diagnostics,
        }
    }

    fn check_contained_in_exact(s: &Setup, built: &Built) {
        let exact = exact_cluster_family(&s.g, &s.hierarchy);
        for cluster in built.forest.clusters() {
            let center = cluster.center();
            let exact_cluster = exact.cluster(center).expect("centre has an exact cluster");
            for v in cluster.members() {
                assert!(
                    exact_cluster.contains(v),
                    "centre {center}: vertex {v} in C~ but not in C"
                );
            }
        }
    }

    fn check_root_estimates(s: &Setup, built: &Built, slack: f64) {
        for cluster in built.forest.clusters() {
            let sp = dijkstra(&s.g, cluster.center());
            for (v, &est) in cluster.members().zip(cluster.root_dists()) {
                assert!(est >= sp.dist[v], "estimate undercuts the true distance");
                assert!(
                    (est as f64) <= slack * sp.dist[v] as f64 + 1e-6,
                    "centre {} vertex {v}: {est} vs {}",
                    cluster.center(),
                    sp.dist[v]
                );
            }
        }
    }

    #[test]
    fn small_scale_clusters_are_exact_clusters() {
        let s = setup(60, 4, 1);
        let built = build(s.g.num_nodes(), |b| {
            small_scale_clusters(&s.g, &s.hierarchy, &s.params, &s.pivots, b)
        });
        check_contained_in_exact(&s, &built);
        check_root_estimates(&s, &built, 1.0);
        assert!(built.ledger.total_rounds() > 0);
        assert_eq!(built.diagnostics.parent_fixups, 0);
        // Small scales cover levels 0 and 1 for k = 4.
        assert!(built.forest.clusters().all(|c| c.level() < 2));
    }

    #[test]
    fn middle_level_clusters_for_odd_k() {
        let s = setup(60, 3, 2);
        let built = build(s.g.num_nodes(), |b| {
            middle_level_clusters(&s.g, &s.hierarchy, &s.params, &s.pivots, 6, b)
        });
        // Middle level of k = 3 is level 1.
        assert!(built.forest.clusters().all(|c| c.level() == 1));
        check_contained_in_exact(&s, &built);
        check_root_estimates(&s, &built, 1.0 + s.params.epsilon());
        for c in built.forest.clusters() {
            assert!(c.tree().is_subgraph_of(&s.g));
        }
    }

    #[test]
    fn middle_level_empty_for_even_k() {
        let s = setup(40, 4, 3);
        let built = build(s.g.num_nodes(), |b| {
            middle_level_clusters(&s.g, &s.hierarchy, &s.params, &s.pivots, 6, b)
        });
        assert!(built.forest.is_empty());
    }

    #[test]
    fn large_scale_clusters_are_valid_trees_with_good_estimates() {
        let s = setup(80, 3, 4);
        let Some(pre) = &s.pre else {
            return;
        };
        let built = build(s.g.num_nodes(), |b| {
            large_scale_clusters(&s.g, &s.hierarchy, &s.params, &s.pivots, pre, 6, b)
        });
        let eps = s.params.epsilon();
        for c in built.forest.clusters() {
            assert!(c.tree().is_subgraph_of(&s.g), "centre {}", c.center());
            assert!(c.level() >= s.params.half_k());
        }
        check_root_estimates(&s, &built, (1.0 + eps).powi(4));
        check_contained_in_exact(&s, &built);
        assert!(built.ledger.total_rounds() > 0);
    }

    #[test]
    fn large_scale_top_level_clusters_cover_every_vertex() {
        let s = setup(70, 2, 5);
        let Some(pre) = &s.pre else {
            return;
        };
        let built = build(s.g.num_nodes(), |b| {
            large_scale_clusters(&s.g, &s.hierarchy, &s.params, &s.pivots, pre, 6, b)
        });
        // For k = 2 the only large level is 1 = k-1, whose threshold is ∞, so
        // every cluster contains every vertex (this is what guarantees that
        // Find-tree always terminates).
        for c in built.forest.clusters() {
            assert_eq!(c.len(), s.g.num_nodes(), "centre {}", c.center());
        }
    }

    #[test]
    fn large_scale_contains_c6eps_superset_property() {
        // C_{6eps}(u) ⊆ C̃(u): every vertex far from the boundary must be a member.
        let s = setup(60, 2, 7);
        let Some(pre) = &s.pre else {
            return;
        };
        let built = build(s.g.num_nodes(), |b| {
            large_scale_clusters(&s.g, &s.hierarchy, &s.params, &s.pivots, pre, 6, b)
        });
        let eps = s.params.epsilon();
        for cluster in built.forest.clusters() {
            let center = cluster.center();
            let sp = dijkstra(&s.g, center);
            let i = cluster.level();
            for v in s.g.nodes() {
                let thr = if i + 1 < s.params.k {
                    s.pivots[v][i + 1].map_or(INFINITY, |(_, d)| d)
                } else {
                    INFINITY
                };
                let in_c6eps =
                    thr == INFINITY || (sp.dist[v] as f64) < thr as f64 / (1.0 + 6.0 * eps);
                if in_c6eps {
                    assert!(
                        cluster.contains(v),
                        "centre {center}: vertex {v} in C_6eps but excluded from C~"
                    );
                }
            }
        }
    }

    /// Exercises Phase 1.5 explicitly: at the small sizes the end-to-end tests
    /// run at, the hop bound `B` caps at `n`, the virtual graph is complete and
    /// the hopset is empty, so the realising-path logic never fires naturally.
    /// Here a preprocessing object is hand-crafted with a sparse virtual graph
    /// and a genuine hopset edge, so the Phase 1 exploration must cross that
    /// edge and Phase 1.5 must pull its realising path into the virtual tree
    /// and re-parent its endpoint onto a `G'` edge.
    #[test]
    fn phase_1_5_pulls_hopset_paths_into_the_tree() {
        use en_graph::Path;
        use en_hopset::{AugmentedGraph, Hopset, HopsetEdge};
        use std::collections::HashMap as Map;

        // Path graph 0-1-2-3-4-5, unit weights; k = 2, A_1 = {0, 2, 5}.
        let g = WeightedGraph::from_edges(6, (0..5).map(|i| (i, i + 1, 1))).unwrap();
        let params = SchemeParams::new(2, 6, 0);
        let hierarchy = Hierarchy::from_levels(6, vec![(0..6).collect(), vec![0, 2, 5]]);
        let pivot_table = compute_pivots(&g, &hierarchy, &params, None, 5);

        // Virtual graph on {0, 2, 5} (virtual indices 0, 1, 2) WITHOUT the
        // direct 0-5 edge, plus a hopset edge realising it via vertex 2.
        let vprime = vec![0, 2, 5];
        let mut gprime = WeightedGraph::new(3);
        gprime.add_edge(0, 1, 2).unwrap(); // d(0,2) = 2
        gprime.add_edge(1, 2, 3).unwrap(); // d(2,5) = 3
        let hopset = Hopset::new(
            vec![HopsetEdge {
                u: 0,
                v: 2,
                weight: 5,
                path: Path::new(vec![0, 1, 2]),
            }],
            2,
            0.0,
        );
        let augmented = AugmentedGraph::new(&gprime, &hopset);
        let theorem1 = multi_source_hop_bounded(&g, &vprime, 6, 0.01, 5);
        let pre = Preprocessing {
            index_of: vprime
                .iter()
                .copied()
                .enumerate()
                .map(|(i, v)| (v, i))
                .collect::<Map<_, _>>(),
            vprime,
            theorem1,
            gprime,
            hopset,
            beta: 2,
            augmented,
            hop_bound: 6,
            ledger: RoundLedger::new(),
        };

        let pivots = &pivot_table.pivots;
        let built = build(6, |b| {
            large_scale_clusters(&g, &hierarchy, &params, pivots, &pre, 5, b)
        });
        // Level 1 is the top level (k = 2), so every centre's cluster spans V.
        for &center in &[0usize, 2, 5] {
            let cluster = built.forest.cluster_by_center(center).unwrap();
            assert_eq!(cluster.len(), 6, "centre {center} must span the whole path");
            assert!(cluster.tree().is_subgraph_of(&g));
            let sp = dijkstra(&g, center);
            for (v, &est) in cluster.members().zip(cluster.root_dists()) {
                assert!(est >= sp.dist[v]);
                assert!(est as f64 <= (1.0 + params.epsilon()).powi(4) * sp.dist[v] as f64 + 1e-6);
            }
        }
        // The far endpoint 5 must have been reached from centre 0 through the
        // hopset edge and still be attached through real graph edges.
        let c0 = built.forest.cluster_by_center(0).unwrap();
        assert_eq!(c0.root_dist(5), Some(5));
        assert_eq!(built.diagnostics.parent_fixups, 0);
    }

    #[test]
    fn assemble_tree_repairs_missing_parents() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let estimate = NodeMap::from_iter([(0, 0), (1, 1), (3, 3)]);
        // Vertex 3's parent (2) is not a member: the repair path must attach 3
        // through a member neighbour or drop it.
        let parent = HashMap::from([(1, 0), (3, 2)]);
        let mut builder = ClusterForestBuilder::new(4);
        let fixups = assemble_cluster_tree_into(&mut builder, &g, 0, 0, estimate, parent);
        let forest = builder.finish();
        assert!(fixups > 0);
        let cluster = forest.cluster(0);
        assert!(cluster.tree().is_subgraph_of(&g));
        assert!(cluster.contains(1));
    }
}
