//! Theorem 1 (\[Nan14\]): multi-source approximate hop-bounded distances.
//!
//! Given a source set `V' ⊆ V`, a hop bound `B ≥ 1` and `0 < ε < 1`, every
//! vertex `u` learns values `d_uv` for all `v ∈ V'` with
//!
//! ```text
//! d^{(B)}_G(u, v) ≤ d_uv ≤ (1 + ε) d^{(B)}_G(u, v)          (2)
//! ```
//!
//! and, per Remark 1, a neighbour `p = p_v(u)` with
//!
//! ```text
//! d_uv ≥ w(u, p) + d_pv                                      (3)
//! ```
//!
//! The original distributed algorithm runs in `Õ(|V'| + B + D)/ε` rounds.
//! Reproduction note: we compute the values source-parallel at graph level —
//! which yields the *exact* `B`-hop distances, trivially satisfying (2) — and
//! charge the paper's round bound on a [`RoundLedger`]. The exactness also
//! makes (3) hold with the hop-bounded parent (proof:
//! `d^{(B)}(u,v) = w(u,p) + d^{(B-1)}(p,v) ≥ w(u,p) + d^{(B)}(p,v)`).
//!
//! # Implementation
//!
//! The computation is batched over a single [`CsrGraph`] view built once.
//! Sources are processed in chunks of up to 64; within a chunk the distance
//! state is *vertex-major* (one contiguous row of per-source values per
//! vertex), and every sweep walks the adjacency once for the **union
//! frontier** — the vertices whose value changed for *any* chunk source in
//! the previous sweep — relaxing all chunk sources of an edge in one
//! contiguous, branchless min loop that the compiler can vectorise. The cell
//! width comes from the shared [`en_graph::cell`] machinery (also used by the
//! restricted cluster kernel in `en_graph::restricted`): `i32` when the
//! largest possible finite distance fits (twice the SIMD width, half the
//! memory traffic), `u64` otherwise. Start-of-sweep values live in a swap-buffered `prev` array whose
//! rows are refreshed only for frontier vertices, so the levelled semantics
//! (`dist[v] = d^{(t)}(v)` after sweep `t`) are preserved with no per-sweep
//! snapshot clone. Remark-1 parents are recovered after the sweeps in one
//! argmin pass over the adjacency (the neighbour `p` minimising
//! `d_pv + w(u, p)` satisfies inequality (3) by the levelled-path argument),
//! keeping the hot loop free of conditional stores. The finished chunk is
//! transposed into the flat source-major output. The retained naive
//! implementation ([`multi_source_hop_bounded_reference`]) is the oracle the
//! property tests validate the batched kernel against, bit for bit on
//! `dist`.

use std::collections::HashMap;

use en_graph::cell::{fits_i32, DistCell};
use en_graph::{dist_add, CsrGraph, Dist, NodeId, WeightedGraph, INFINITY};

use en_congest::RoundLedger;

/// The output of the Theorem 1 computation.
///
/// Distances and parents are stored flat, source-major (`|V'|` rows of `n`
/// entries); use [`MultiSourceHopBounded::dist_row`] /
/// [`MultiSourceHopBounded::parent_row`] for bulk access, or
/// [`MultiSourceHopBounded::value`] / [`MultiSourceHopBounded::parent_towards`]
/// for point lookups by source id.
#[derive(Debug, Clone)]
pub struct MultiSourceHopBounded {
    /// The source set `V'`, in the order used by the row indices below.
    pub sources: Vec<NodeId>,
    /// `dist[s * n + u]` is `d_{u, sources[s]}` (satisfying inequality (2)).
    dist: Vec<Dist>,
    /// `parent[s * n + u]` is the neighbour `p_{sources[s]}(u)` of `u`
    /// (Remark 1), or `None` when `u` is the source itself or unreachable
    /// within `B` hops.
    parent: Vec<Option<NodeId>>,
    /// Number of vertices `n` (the row stride).
    n: usize,
    /// Maps a source id back to its row index in `dist` / `parent`.
    pub source_index: HashMap<NodeId, usize>,
    /// The hop bound `B` used.
    pub hop_bound: usize,
    /// Round charge for the computation (`Õ(|V'| + B + D)/ε`).
    pub ledger: RoundLedger,
}

impl MultiSourceHopBounded {
    /// Number of vertices `n` (the stride of each row).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The distance row of source index `s`: `dist_row(s)[u] = d_{u, sources[s]}`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= sources.len()`.
    pub fn dist_row(&self, s: usize) -> &[Dist] {
        &self.dist[s * self.n..(s + 1) * self.n]
    }

    /// The parent row of source index `s` (Remark 1 parents).
    ///
    /// # Panics
    ///
    /// Panics if `s >= sources.len()`.
    pub fn parent_row(&self, s: usize) -> &[Option<NodeId>] {
        &self.parent[s * self.n..(s + 1) * self.n]
    }

    /// The value `d_uv` for source `v` and vertex `u`, or [`INFINITY`] if `v`
    /// is not a source or `u` is unreachable within `B` hops.
    pub fn value(&self, u: NodeId, v: NodeId) -> Dist {
        match self.source_index.get(&v) {
            Some(&s) => self.dist[s * self.n + u],
            None => INFINITY,
        }
    }

    /// The parent `p_v(u)` of Remark 1, if defined.
    pub fn parent_towards(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        self.source_index
            .get(&v)
            .and_then(|&s| self.parent[s * self.n + u])
    }
}

/// Runs the Theorem 1 computation for source set `sources`, hop bound `B`,
/// approximation parameter `eps`, on a graph of hop-diameter `hop_diameter`
/// (used only for the round charge).
///
/// # Panics
///
/// Panics if a source is out of range, `B == 0`, or `eps` is not in `(0, 1)`.
pub fn multi_source_hop_bounded(
    g: &WeightedGraph,
    sources: &[NodeId],
    hop_bound: usize,
    eps: f64,
    hop_diameter: usize,
) -> MultiSourceHopBounded {
    assert!(hop_bound >= 1, "hop bound B must be at least 1");
    assert!(eps > 0.0 && eps < 1.0, "epsilon must be in (0, 1)");
    for &s in sources {
        assert!(s < g.num_nodes(), "source {s} out of range");
    }
    let _span = en_obs::span("theorem1_kernel");
    en_obs::counter_add("kernel.theorem1.sources", sources.len() as u64);
    let n = g.num_nodes();
    let csr = CsrGraph::from_graph(g);
    let mut dist = vec![INFINITY; sources.len() * n];
    let mut parent: Vec<Option<NodeId>> = vec![None; sources.len() * n];
    // The i32 kernel is exact whenever every finite levelled distance fits
    // below its sentinel: a B-hop path has at most n - 1 edges of weight at
    // most max_weight.
    if fits_i32(n, g.max_weight()) {
        batched_chunks::<i32>(&csr, sources, hop_bound, &mut dist, &mut parent);
    } else {
        batched_chunks::<u64>(&csr, sources, hop_bound, &mut dist, &mut parent);
    }
    let source_index = sources
        .iter()
        .copied()
        .enumerate()
        .map(|(i, s)| (s, i))
        .collect();
    let mut ledger = RoundLedger::new();
    let charged = ((sources.len() + hop_bound + hop_diameter) as f64 / eps).ceil() as usize;
    ledger.charge(
        format!(
            "Theorem 1: multi-source {}-hop distances from {} sources",
            hop_bound,
            sources.len()
        ),
        charged,
        format!(
            "O(|V'| + B + D)/eps = ({} + {} + {}) / {:.4}",
            sources.len(),
            hop_bound,
            hop_diameter,
            eps
        ),
    );
    MultiSourceHopBounded {
        sources: sources.to_vec(),
        dist,
        parent,
        n,
        source_index,
        hop_bound,
        ledger,
    }
}

/// The batched vertex-major kernel: processes `sources` in chunks of up to
/// 64, writing levelled `B`-hop distances and Remark-1 parents into the flat
/// source-major `dist` / `parent` output arrays.
fn batched_chunks<T: DistCell>(
    csr: &CsrGraph,
    sources: &[NodeId],
    hop_bound: usize,
    dist: &mut [Dist],
    parent: &mut [Option<NodeId>],
) {
    let n = csr.num_nodes();
    // Local packed adjacency: u32 targets and cell-width weights halve the
    // per-sweep memory traffic relative to the usize/u64 CSR arrays.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets: Vec<u32> = Vec::with_capacity(2 * csr.num_edges());
    let mut weights: Vec<T> = Vec::with_capacity(2 * csr.num_edges());
    offsets.push(0usize);
    for v in 0..n {
        let (ts, ws) = csr.arcs(v);
        targets.extend(ts.iter().map(|&t| t as u32));
        weights.extend(ws.iter().map(|&w| T::from_weight(w)));
        offsets.push(targets.len());
    }
    // Union-frontier worklist plus the dense changed-flag array it is
    // rebuilt from after every sweep.
    let mut frontier: Vec<u32> = Vec::new();
    let mut changed = vec![0u8; n];
    const CHUNK: usize = 64;
    for (chunk_index, chunk) in sources.chunks(CHUNK).enumerate() {
        let sc = chunk.len();
        // Vertex-major state: `cur[v * sc + j]` is the current best value of
        // vertex `v` for chunk source `j`; `prev` holds the start-of-sweep
        // values, refreshed lazily for frontier vertices only.
        let mut cur = vec![T::INF; n * sc];
        let mut prev = vec![T::INF; n * sc];
        frontier.clear();
        for (j, &src) in chunk.iter().enumerate() {
            cur[src * sc + j] = T::ZERO;
            if changed[src] == 0 {
                changed[src] = 1;
                frontier.push(src as u32);
            }
        }
        for &src in &frontier {
            changed[src as usize] = 0;
        }
        for _ in 0..hop_bound {
            if frontier.is_empty() {
                break;
            }
            // Refresh the start-of-sweep rows of the vertices that will relay
            // this sweep; no other `prev` row is read.
            for &u in &frontier {
                let urow = u as usize * sc;
                prev[urow..urow + sc].copy_from_slice(&cur[urow..urow + sc]);
            }
            for &u in &frontier {
                let urow = u as usize * sc;
                let lo = offsets[u as usize];
                let hi = offsets[u as usize + 1];
                for (&v, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                    let vrow = v as usize * sc;
                    // Relaxing every chunk source here (including ones whose
                    // value at `u` did not change last sweep) only re-offers
                    // candidates that were already applied — a no-op — so
                    // the inner loop is a contiguous branchless min that the
                    // compiler vectorises; INF saturates and never wins. The
                    // XOR accumulator detects any change without a branch.
                    let urows = &prev[urow..urow + sc];
                    let vrows = &mut cur[vrow..vrow + sc];
                    let mut delta = T::ZERO;
                    for (vd, &ud) in vrows.iter_mut().zip(urows) {
                        let cand = ud.add_capped(w);
                        let old = *vd;
                        let new = if cand < old { cand } else { old };
                        delta = delta | (old ^ new);
                        *vd = new;
                    }
                    changed[v as usize] |= u8::from(delta != T::ZERO);
                }
            }
            // Rebuild the frontier from the dense changed flags (an O(n)
            // scan, negligible next to the relaxation work).
            frontier.clear();
            for (v, flag) in changed.iter_mut().enumerate() {
                if *flag != 0 {
                    *flag = 0;
                    frontier.push(v as u32);
                }
            }
        }
        // Remark-1 parents, recovered post hoc: for every reachable
        // non-source vertex, the neighbour `p` minimising `d_pv + w(u, p)`
        // (ties to the smallest id) satisfies `d_uv ≥ w(u, p) + d_pv`,
        // because the final edge (p*, u) of a levelled B-hop path gives
        // `d_uv = w + d^{(B-1)}(p*) ≥ w + d_p*v ≥ min_p (w + d_pv)`.
        // The argmin runs branchlessly over packed `(cand << 32) | p` keys.
        let mut best_key: Vec<T::Key> = vec![T::KEY_MAX; sc];
        for v in 0..n {
            let vrow = v * sc;
            let lo = offsets[v];
            let hi = offsets[v + 1];
            for key in best_key.iter_mut() {
                *key = T::KEY_MAX;
            }
            for (&p, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                let prow = p as usize * sc;
                for (key, &pd) in best_key.iter_mut().zip(&cur[prow..prow + sc]) {
                    let cand = pd.add_capped(w).pack(p);
                    *key = (*key).min(cand);
                }
            }
            for j in 0..sc {
                let si = chunk_index * CHUNK + j;
                let d = cur[vrow + j];
                dist[si * n + v] = d.into_dist();
                parent[si * n + v] = if d < T::INF && d > T::ZERO && T::key_value(best_key[j]) <= d
                {
                    Some(T::key_neighbor(best_key[j]) as NodeId)
                } else {
                    None
                };
            }
        }
    }
}

/// The retained naive reference for [`multi_source_hop_bounded`]: one
/// levelled Bellman–Ford per source, each sweep a full `O(n + m)` pass over a
/// per-sweep snapshot — exactly the seed implementation this repository
/// started from.
///
/// Returns `(dist, parent)` in the nested per-source layout. Kept as the
/// equivalence oracle for the property tests and the perf-comparison bench;
/// not for production use.
///
/// # Panics
///
/// Panics if a source is out of range.
#[allow(clippy::type_complexity)]
pub fn multi_source_hop_bounded_reference(
    g: &WeightedGraph,
    sources: &[NodeId],
    hop_bound: usize,
) -> (Vec<Vec<Dist>>, Vec<Vec<Option<NodeId>>>) {
    for &s in sources {
        assert!(s < g.num_nodes(), "source {s} out of range");
    }
    let n = g.num_nodes();
    let mut dist = Vec::with_capacity(sources.len());
    let mut parent = Vec::with_capacity(sources.len());
    let mut snapshot = vec![INFINITY; n];
    for &src in sources {
        // Levelled Bellman-Ford: after t sweeps, cur[u] = d^{(t)}(src, u).
        let mut cur = vec![INFINITY; n];
        let mut par: Vec<Option<NodeId>> = vec![None; n];
        cur[src] = 0;
        for _ in 0..hop_bound {
            snapshot.copy_from_slice(&cur);
            let mut any = false;
            for u in 0..n {
                if snapshot[u] >= INFINITY {
                    continue;
                }
                for nb in g.neighbors(u) {
                    let cand = dist_add(snapshot[u], nb.weight);
                    if cand < cur[nb.node] {
                        cur[nb.node] = cand;
                        par[nb.node] = Some(u);
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        dist.push(cur);
        parent.push(par);
    }
    (dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::bellman_ford::hop_bounded_distances;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn setup() -> (WeightedGraph, Vec<NodeId>, MultiSourceHopBounded) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(60, 41).with_weights(1, 30), 0.07);
        let sources = vec![0, 7, 23, 42];
        let res = multi_source_hop_bounded(&g, &sources, 6, 0.25, 10);
        (g, sources, res)
    }

    #[test]
    fn inequality_2_holds_with_exact_values() {
        let (g, sources, res) = setup();
        for (si, &src) in sources.iter().enumerate() {
            let reference = hop_bounded_distances(&g, src, 6);
            for u in g.nodes() {
                assert_eq!(
                    res.dist_row(si)[u],
                    reference.dist[u],
                    "source {src}, vertex {u}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_reference_bit_for_bit() {
        let (g, sources, res) = setup();
        let (ref_dist, _) = multi_source_hop_bounded_reference(&g, &sources, 6);
        for si in 0..sources.len() {
            assert_eq!(res.dist_row(si), ref_dist[si].as_slice(), "source row {si}");
        }
    }

    #[test]
    fn inequality_3_holds_for_parents() {
        let (g, sources, res) = setup();
        for (si, &src) in sources.iter().enumerate() {
            for u in g.nodes() {
                if let Some(p) = res.parent_row(si)[u] {
                    let w = g.edge_weight(u, p).expect("parent is a neighbour");
                    assert!(
                        res.dist_row(si)[u] >= w + res.dist_row(si)[p],
                        "source {src}, vertex {u}: {} < {} + {}",
                        res.dist_row(si)[u],
                        w,
                        res.dist_row(si)[p]
                    );
                }
            }
        }
    }

    #[test]
    fn value_and_parent_accessors() {
        let (g, _sources, res) = setup();
        assert_eq!(res.value(0, 0), 0);
        assert_eq!(res.value(5, 999), INFINITY);
        assert_eq!(res.parent_towards(0, 0), None);
        assert_eq!(res.num_vertices(), g.num_nodes());
        // A neighbour of source 0 should have 0 recorded as its parent when the
        // direct edge is its best 6-hop path.
        let nb = g.neighbors(0)[0];
        let direct_best = res.value(nb.node, 0) == nb.weight;
        if direct_best {
            assert_eq!(res.parent_towards(nb.node, 0), Some(0));
        }
    }

    #[test]
    fn symmetric_between_source_pairs() {
        // The paper notes the computed values are symmetric for u, v both in V'.
        let (_g, sources, res) = setup();
        for &a in &sources {
            for &b in &sources {
                assert_eq!(res.value(a, b), res.value(b, a));
            }
        }
    }

    #[test]
    fn ledger_charges_expected_formula() {
        let (_g, sources, res) = setup();
        let expected = ((sources.len() + 6 + 10) as f64 / 0.25).ceil() as usize;
        assert_eq!(res.ledger.total_rounds(), expected);
        assert_eq!(res.ledger.len(), 1);
    }

    #[test]
    #[should_panic(expected = "hop bound")]
    fn rejects_zero_hop_bound() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(10, 1), 0.3);
        let _ = multi_source_hop_bounded(&g, &[0], 0, 0.1, 3);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(10, 1), 0.3);
        let _ = multi_source_hop_bounded(&g, &[0], 2, 1.5, 3);
    }
}
