//! Pivot computation (Section 3.1, "Computing Pivots").
//!
//! * Levels `1 ≤ i ≤ ⌈k/2⌉`: *exact* pivots, by `4 n^{i/k} ln n` iterations of
//!   Bellman–Ford rooted at `A_i`, executed as a real message-passing
//!   exploration on the CONGEST simulator.
//! * Levels `⌈k/2⌉ < i ≤ k−1`: *approximate* pivots (inequality (7)), by a
//!   `(1+ε)`-approximate SPT rooted at `A_i` (Theorem 3): `β` iterations of
//!   Bellman–Ford on the augmented virtual graph `G''`, then extension to all
//!   of `V` through the Theorem-1 values.
//!
//! If a low-probability sampling event leaves some vertex without a pivot
//! (its exploration did not reach `A_i`), the implementation falls back to the
//! exact value for that vertex and records how often that happened.

use en_congest::broadcast::lemma1_rounds;
use en_congest::RoundLedger;
use en_congest_algos::explore::distributed_exploration;
use en_graph::dijkstra::multi_source_dijkstra;
use en_graph::{is_finite, Dist, NodeId, WeightedGraph, INFINITY};
use en_hopset::AugmentedGraph;

use crate::hierarchy::Hierarchy;
use crate::params::SchemeParams;
use crate::preprocess::Preprocessing;

/// The pivot table plus construction diagnostics.
#[derive(Debug, Clone)]
pub struct PivotTable {
    /// `pivots[v][i] = Some((ẑ_i(v), d̂_i(v)))`, `None` if `A_i` is empty or unreachable.
    pub pivots: Vec<Vec<Option<(NodeId, Dist)>>>,
    /// Round charges.
    pub ledger: RoundLedger,
    /// Number of (vertex, level) entries where the whp guarantee failed and the
    /// exact fallback value was used instead.
    pub fallbacks: usize,
    /// Number of simulated explorations that were cut off by the simulator's
    /// round limit before reaching quiescence (should be 0; surfaced so the
    /// harness can warn instead of silently reporting truncated rounds).
    pub round_limit_hits: usize,
}

/// Multi-source hop-bounded Bellman–Ford on the augmented virtual graph,
/// returning for every virtual vertex its distance to the nearest source and
/// that source's identity (both in virtual-index space).
pub fn multi_source_on_augmented(
    aug: &AugmentedGraph,
    sources: &[usize],
    beta: usize,
) -> (Vec<Dist>, Vec<Option<usize>>) {
    let m = aug.num_nodes();
    let mut dist = vec![INFINITY; m];
    let mut origin: Vec<Option<usize>> = vec![None; m];
    // Frontier-based levelled Bellman-Ford over the CSR adjacency of G'':
    // each sweep relaxes only the vertices whose value changed in the
    // previous sweep, carrying the (value, origin) pair each one had at the
    // start of the sweep — no per-sweep snapshot clones.
    let mut frontier: Vec<(usize, Dist, Option<usize>)> = Vec::with_capacity(sources.len());
    for &s in sources {
        dist[s] = 0;
        origin[s] = Some(s);
        frontier.push((s, 0, Some(s)));
    }
    let mut touched: Vec<usize> = Vec::new();
    let mut in_touched = vec![false; m];
    for _ in 0..beta {
        if frontier.is_empty() {
            break;
        }
        for &(x, dx, ox) in &frontier {
            for nb in aug.neighbors(x) {
                let cand = dx.saturating_add(nb.weight).min(INFINITY);
                if cand < dist[nb.node] {
                    dist[nb.node] = cand;
                    origin[nb.node] = ox;
                    if !in_touched[nb.node] {
                        in_touched[nb.node] = true;
                        touched.push(nb.node);
                    }
                }
            }
        }
        frontier.clear();
        for &v in &touched {
            in_touched[v] = false;
            frontier.push((v, dist[v], origin[v]));
        }
        touched.clear();
    }
    (dist, origin)
}

/// Computes the full pivot table for every vertex and every level `0..k`.
pub fn compute_pivots(
    g: &WeightedGraph,
    hierarchy: &Hierarchy,
    params: &SchemeParams,
    pre: Option<&Preprocessing>,
    hop_diameter: usize,
) -> PivotTable {
    let n = g.num_nodes();
    let k = params.k;
    let half = params.half_k();
    let mut pivots: Vec<Vec<Option<(NodeId, Dist)>>> = vec![vec![None; k]; n];
    let mut ledger = RoundLedger::new();
    let mut fallbacks = 0;
    let mut round_limit_hits = 0;

    // Level 0: every vertex is its own pivot at distance 0.
    for v in 0..n {
        pivots[v][0] = Some((v, 0));
    }

    // Exact levels 1..=min(half, k-1): distributed Bellman-Ford exploration.
    for i in 1..k.min(half + 1) {
        let level = hierarchy.level(i);
        if level.is_empty() {
            continue;
        }
        let depth = params.exploration_depth(i);
        let res = distributed_exploration(g, level, depth);
        if res.stats.hit_round_limit {
            round_limit_hits += 1;
        }
        ledger.charge(
            format!("exact pivots, level {i}: Bellman-Ford rooted at A_{i}"),
            res.stats.rounds,
            format!("4 n^{{{i}/{k}}} ln n = {depth} iterations (simulated rounds reported)"),
        );
        // Fallback for the (whp impossible) case that the bounded exploration
        // missed some vertex.
        let fallback = if res.dist.iter().any(|&d| !is_finite(d)) {
            Some(multi_source_dijkstra(g, level))
        } else {
            None
        };
        for v in 0..n {
            if is_finite(res.dist[v]) {
                pivots[v][i] = res.pivot[v].map(|z| (z, res.dist[v]));
            } else if let Some((dist, nearest)) = &fallback {
                if is_finite(dist[v]) {
                    pivots[v][i] = nearest[v].map(|z| (z, dist[v]));
                    fallbacks += 1;
                }
            }
        }
    }

    // Approximate levels half+1..k-1 (only exist when a preprocessing exists).
    if let Some(pre) = pre {
        for i in (half + 1)..k {
            let level = hierarchy.level(i);
            if level.is_empty() {
                continue;
            }
            let sources: Vec<usize> = level.iter().filter_map(|&v| pre.virtual_index(v)).collect();
            if sources.is_empty() {
                continue;
            }
            let (vdist, vorigin) = multi_source_on_augmented(&pre.augmented, &sources, pre.beta);
            ledger.charge(
                format!(
                    "approximate pivots, level {i}: {} Bellman-Ford iterations on G''",
                    pre.beta
                ),
                pre.beta * lemma1_rounds(pre.m(), hop_diameter) / pre.beta.max(1)
                    + lemma1_rounds(pre.m() * pre.beta, hop_diameter),
                format!(
                    "Theorem 3: broadcast |V'| = {} values for beta = {} iterations (Lemma 1)",
                    pre.m(),
                    pre.beta
                ),
            );
            // Extend from V' to all of V through the Theorem-1 values,
            // reading each virtual vertex's flat distance row once.
            let reachable: Vec<(usize, Dist, NodeId)> = (0..pre.m())
                .filter(|&xi| is_finite(vdist[xi]))
                .filter_map(|xi| vorigin[xi].map(|o| (xi, vdist[xi], pre.original(o))))
                .collect();
            let mut fallback: Option<(Vec<Dist>, Vec<Option<NodeId>>)> = None;
            for u in 0..n {
                let mut best: Option<(Dist, NodeId)> = None;
                for &(xi, dxv, z) in &reachable {
                    let dux = pre.theorem1.dist_row(xi)[u];
                    if !is_finite(dux) {
                        continue;
                    }
                    let cand = dux.saturating_add(dxv);
                    if best.is_none_or(|(bd, _)| cand < bd) {
                        best = Some((cand, z));
                    }
                }
                match best {
                    Some((d, z)) => pivots[u][i] = Some((z, d)),
                    None => {
                        // Exact fallback for this level (computed lazily, once).
                        if fallback.is_none() {
                            fallback = Some(multi_source_dijkstra(g, level));
                        }
                        let (dist, nearest) = fallback.as_ref().expect("just set");
                        if is_finite(dist[u]) {
                            pivots[u][i] = nearest[u].map(|z| (z, dist[u]));
                            fallbacks += 1;
                        }
                    }
                }
            }
        }
    }

    PivotTable {
        pivots,
        ledger,
        fallbacks,
        round_limit_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_graph::CsrGraph;

    type Setup = (
        WeightedGraph,
        Hierarchy,
        SchemeParams,
        usize,
        Option<Preprocessing>,
    );

    fn setup(n: usize, k: usize, seed: u64) -> Setup {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 25), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let pre = Preprocessing::run(&g, &hierarchy, &params, 6);
        (g, hierarchy, params, 6, pre)
    }

    fn exact_reference(
        g: &WeightedGraph,
        hierarchy: &Hierarchy,
    ) -> Vec<Vec<Option<(NodeId, Dist)>>> {
        crate::exact::exact_pivots(&CsrGraph::from_graph(g), hierarchy)
    }

    #[test]
    fn level_zero_pivot_is_self() {
        let (g, hierarchy, params, d, pre) = setup(40, 3, 1);
        let table = compute_pivots(&g, &hierarchy, &params, pre.as_ref(), d);
        for v in g.nodes() {
            assert_eq!(table.pivots[v][0], Some((v, 0)));
        }
    }

    #[test]
    fn exact_levels_match_reference_distances() {
        let (g, hierarchy, params, d, pre) = setup(60, 4, 2);
        let table = compute_pivots(&g, &hierarchy, &params, pre.as_ref(), d);
        let exact = exact_reference(&g, &hierarchy);
        let half = params.half_k();
        for v in g.nodes() {
            for i in 1..=half.min(3) {
                match (table.pivots[v][i], exact[v][i]) {
                    (Some((_, d_approx)), Some((_, d_exact))) => {
                        assert_eq!(d_approx, d_exact, "vertex {v} level {i}")
                    }
                    (None, None) => {}
                    other => panic!("vertex {v} level {i}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn approximate_levels_satisfy_inequality_7() {
        let (g, hierarchy, params, d, pre) = setup(80, 4, 3);
        let table = compute_pivots(&g, &hierarchy, &params, pre.as_ref(), d);
        let exact = exact_reference(&g, &hierarchy);
        let eps = params.epsilon();
        let half = params.half_k();
        for v in g.nodes() {
            for i in (half + 1)..4 {
                match (table.pivots[v][i], exact[v][i]) {
                    (Some((z, d_approx)), Some((_, d_exact))) => {
                        assert!(hierarchy.level(i).contains(&z));
                        assert!(d_approx >= d_exact, "vertex {v} level {i}");
                        assert!(
                            d_approx as f64 <= (1.0 + eps) * d_exact as f64 + 1e-6,
                            "vertex {v} level {i}: {d_approx} vs {d_exact}"
                        );
                    }
                    (None, None) => {}
                    (Some(_), None) => panic!("vertex {v} level {i}: pivot where none exists"),
                    (None, Some(_)) => panic!("vertex {v} level {i}: missing pivot"),
                }
            }
        }
    }

    #[test]
    fn empty_levels_have_no_pivots() {
        // With n = 20 and k = 6, the deep levels are essentially always empty.
        let (g, hierarchy, params, d, pre) = setup(20, 6, 4);
        let table = compute_pivots(&g, &hierarchy, &params, pre.as_ref(), d);
        for i in 1..6 {
            if hierarchy.level(i).is_empty() {
                assert!(g.nodes().all(|v| table.pivots[v][i].is_none()));
            }
        }
    }

    #[test]
    fn ledger_has_a_charge_per_nonempty_level() {
        let (g, hierarchy, params, d, pre) = setup(60, 3, 5);
        let table = compute_pivots(&g, &hierarchy, &params, pre.as_ref(), d);
        let nonempty = (1..3).filter(|&i| !hierarchy.level(i).is_empty()).count();
        assert!(table.ledger.len() >= nonempty);
        assert!(table.ledger.total_rounds() > 0);
    }

    #[test]
    fn multi_source_on_augmented_with_no_sources() {
        if let (.., Some(pre)) = setup(40, 2, 6) {
            let (dist, origin) = multi_source_on_augmented(&pre.augmented, &[], 5);
            assert!(dist.iter().all(|&x| x == INFINITY));
            assert!(origin.iter().all(Option::is_none));
        }
    }
}
