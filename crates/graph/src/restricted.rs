//! Batched threshold-restricted multi-source shortest paths — the kernel
//! behind Thorup–Zwick cluster growing.
//!
//! The exact cluster of a centre `u` at level `i` is
//! `C(u) = { v : d_G(u, v) < d_G(v, A_{i+1}) }` (definition (6) of the paper),
//! grown as a restricted Dijkstra that only admits (and only relaxes through)
//! vertices `v` with `d(u, v) < threshold[v]`, where
//! `threshold[v] = d_G(v, A_{i+1})` is *shared by every centre of the level*.
//! Because every vertex on a shortest path from the centre to a cluster
//! member is itself a member (the containment argument of Section 3.2), the
//! restriction still yields exact distances for every member — and it makes
//! the per-centre searches embarrassingly batchable: one relaxation sweep can
//! serve many centres at once, exactly like the Theorem-1 multi-source kernel
//! in `en_congest_algos`.
//!
//! # Implementation
//!
//! Sources are locality-ordered (grouped by their Voronoi cell around the
//! zero-threshold set, which for genuine TZ thresholds is exactly `A_{i+1}`,
//! so chunk-mates' clusters overlap) and processed in chunks — 32 wide for
//! restricted growth, 64 for spanning growth — over a local packed adjacency
//! (`u32` targets, cell-width weights). Within a chunk the state is
//! *vertex-major* (one contiguous row of per-source values per vertex) and
//! every sweep walks the adjacency once for the **union frontier** — the
//! vertices whose value changed for *any* chunk source in the previous
//! sweep, pruned of vertices with no admitted cell. The membership
//! restriction is applied branchlessly when a relay row is refreshed: a cell
//! relays its value only while it is *admitted* (`value <
//! threshold[vertex]`, strict per definition (6)); the sources themselves
//! relay their zero exactly once, as an explicit seeding sweep, so a source
//! is exempt from its own threshold. The relaxation cell is `i32` when every
//! finite distance fits (`u64` otherwise) via the shared [`DistCell`]
//! machinery. Run to convergence (`max_sweeps = None`) the sweeps relax
//! Gauss–Seidel style — values improved earlier in a sweep propagate within
//! it — and compute exactly the restricted-Dijkstra fixed point; with
//! `max_sweeps = Some(β)` they relax Jacobi style from a start-of-sweep
//! snapshot and compute the levelled `β`-sweep values of the depth-bounded
//! Bellman–Ford explorations of Section 3.3.2 (the seeding counts as sweep
//! 1, matching a frontier initialised to the source alone).
//!
//! Parents — and the *relaxed edge weights* leading to them, so cluster trees
//! can be assembled without any `edge_weight` lookups — are recovered after
//! the sweeps in one branchless argmin pass over the adjacency, restricted to
//! admitted neighbours: for every member `v` of source `s` the neighbour `p`
//! minimising `d_ps + w(v, p)` is itself a member and satisfies
//! `d_ps + w(v, p) ≤ d_vs` with equality at convergence, so parent pointers
//! always form a tree rooted at the source with strictly decreasing
//! distances. The per-centre restricted Dijkstra
//! (`grow_exact_cluster_csr` in `en_routing::exact`) is the retained oracle
//! the property tests validate this kernel against, member set for member
//! set and distance for distance.

use crate::cell::{fits_i32, DistCell};
use crate::csr::CsrGraph;
use crate::types::{Dist, NodeId, Weight, INFINITY};

/// `parent` sentinel meaning "no parent recorded".
const NO_PARENT: u32 = u32::MAX;

/// The output of [`restricted_multi_source_csr`]: distances, membership and
/// tree parents (with relaxed edge weights) for every source, stored
/// compactly per source: restricted growth reaches a small neighbourhood,
/// so the output holds the *reached* cells (and member records) instead of
/// `|sources| × n` flat rows — a full distance row can be materialised on
/// demand with [`RestrictedMultiSource::dist_row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestrictedMultiSource {
    sources: Vec<NodeId>,
    threshold: Vec<Dist>,
    n: usize,
    /// `(v, dist)` of every vertex reached by source `s`, ascending `v`. Raw
    /// values are kept even for non-members (a vertex can be reached at a
    /// distance at or above its threshold without joining).
    reached: Vec<Vec<(u32, Dist)>>,
    /// One record per non-source member of `s`, ascending `v`.
    member_rows: Vec<Vec<MemberCell>>,
    /// Per-source member lists (ascending vertex id, source included).
    members: Vec<Vec<NodeId>>,
}

/// One member of a restricted cluster: its vertex, exact restricted distance
/// from the source, and the relaxed tree arc attaching it (everything the
/// cluster-tree assembly needs, with no adjacency or row lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberCell {
    /// The member vertex.
    pub v: u32,
    /// Its tree parent (`NO_PARENT` in the degenerate case where no
    /// admitted neighbour realised the distance; never the case at
    /// convergence).
    pub parent: u32,
    /// The restricted distance from the source.
    pub dist: Dist,
    /// The weight of the relaxed arc `(parent, v)`.
    pub weight: Weight,
}

impl MemberCell {
    /// The tree arc attaching this member: `(parent, weight)`, or `None` in
    /// the degenerate no-admitted-parent case (never at convergence).
    pub fn tree_arc(&self) -> Option<(NodeId, Weight)> {
        if self.parent == NO_PARENT {
            None
        } else {
            Some((self.parent as NodeId, self.weight))
        }
    }
}

impl RestrictedMultiSource {
    /// The source set, in row order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Number of vertices `n` (the stride of each row).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The shared membership-threshold vector the kernel ran with.
    pub fn threshold(&self) -> &[Dist] {
        &self.threshold
    }

    /// Materialises the distance row of source index `s`: `dist_row(s)[v]`
    /// is the restricted distance from `sources[s]` to `v`, [`INFINITY`]
    /// where unreached.
    ///
    /// # Panics
    ///
    /// Panics if `s >= sources().len()`.
    pub fn dist_row(&self, s: usize) -> Vec<Dist> {
        let mut row = vec![INFINITY; self.n];
        for &(v, d) in &self.reached[s] {
            row[v as usize] = d;
        }
        row
    }

    /// The restricted distance from `sources[s]` to `v` ([`INFINITY`] when
    /// unreached), by binary search of the compact reached list.
    pub fn dist(&self, s: usize, v: NodeId) -> Dist {
        match self.reached[s].binary_search_by_key(&(v as u32), |&(x, _)| x) {
            Ok(i) => self.reached[s][i].1,
            Err(_) => INFINITY,
        }
    }

    /// Whether `v` is a member of source `s`'s cluster: the source itself, or
    /// any vertex with `dist < threshold[v]` (strict, per definition (6)).
    pub fn is_member(&self, s: usize, v: NodeId) -> bool {
        v == self.sources[s] || self.dist(s, v) < self.threshold[v]
    }

    /// The compact member records of source `s` (every member except the
    /// source itself, ascending vertex id) — the shape cluster-tree assembly
    /// consumes directly.
    pub fn member_cells(&self, s: usize) -> &[MemberCell] {
        &self.member_rows[s]
    }

    /// The members of source `s`'s cluster, in increasing id order (collected
    /// by the kernel; no row scan).
    pub fn members(&self, s: usize) -> &[NodeId] {
        &self.members[s]
    }

    /// Iterator over the members of source `s`'s cluster, in increasing id
    /// order.
    pub fn members_of(&self, s: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.members[s].iter().copied()
    }

    /// The tree parent of member `v` towards source `s`, together with the
    /// relaxed weight of the connecting arc; `None` for the source itself and
    /// for non-members.
    pub fn parent_of(&self, s: usize, v: NodeId) -> Option<(NodeId, Weight)> {
        let row = &self.member_rows[s];
        match row.binary_search_by_key(&(v as u32), |c| c.v) {
            Ok(i) if row[i].parent != NO_PARENT => Some((row[i].parent as NodeId, row[i].weight)),
            _ => None,
        }
    }
}

/// Runs the batched threshold-restricted multi-source exploration on `csr`.
///
/// Every source grows its restricted shortest-path region against the shared
/// `threshold` vector: vertex `v` is admitted (joins, and relays onward)
/// exactly while `dist < threshold[v]`, strict, with the source itself always
/// admitted. `max_sweeps = None` runs each source to convergence (the
/// restricted-Dijkstra fixed point, exact distances); `max_sweeps = Some(β)`
/// stops after `β` levelled sweeps (the depth-bounded Bellman–Ford semantics
/// of Section 3.3.2, the seeding sweep included).
///
/// # Panics
///
/// Panics if a source is out of range or `threshold.len() != csr.num_nodes()`.
pub fn restricted_multi_source_csr(
    csr: &CsrGraph,
    sources: &[NodeId],
    threshold: &[Dist],
    max_sweeps: Option<usize>,
) -> RestrictedMultiSource {
    validate_inputs(csr, sources, threshold);
    let order = locality_order(csr, sources, threshold);
    restricted_multi_source_ordered(csr, sources, threshold, max_sweeps, order)
}

/// [`restricted_multi_source_csr`] with a caller-supplied locality grouping:
/// `groups[i]` is a `(group key, distance within the group)` pair for
/// `sources[i]`, and sources are chunked in `(group, distance, id)` order.
///
/// Thorup–Zwick callers already hold the ideal grouping — the pivot table
/// gives every centre its nearest `A_{i+1}` vertex (its Voronoi cell, inside
/// which its whole cluster lives) and the threshold its distance — so
/// passing it here spares the kernel the multi-source Dijkstra it would
/// otherwise run to reconstruct exactly that information.
///
/// # Panics
///
/// Panics if a source is out of range, `threshold.len() != csr.num_nodes()`,
/// or `groups.len() != sources.len()`.
pub fn restricted_multi_source_csr_grouped(
    csr: &CsrGraph,
    sources: &[NodeId],
    threshold: &[Dist],
    max_sweeps: Option<usize>,
    groups: &[(NodeId, Dist)],
) -> RestrictedMultiSource {
    validate_inputs(csr, sources, threshold);
    assert_eq!(
        groups.len(),
        sources.len(),
        "one group entry per source required"
    );
    let mut order: Vec<usize> = (0..sources.len()).collect();
    order.sort_by_key(|&i| (groups[i], sources[i]));
    restricted_multi_source_ordered(csr, sources, threshold, max_sweeps, order)
}

/// The input contract shared by both entry points, checked before any work.
fn validate_inputs(csr: &CsrGraph, sources: &[NodeId], threshold: &[Dist]) {
    let n = csr.num_nodes();
    assert_eq!(
        threshold.len(),
        n,
        "threshold vector must have one entry per vertex"
    );
    assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
    for &s in sources {
        assert!(s < n, "source {s} out of range");
    }
}

/// Shared body of the two entry points: runs the kernel over `sources`
/// permuted into `order`, mapping output rows back to caller order.
fn restricted_multi_source_ordered(
    csr: &CsrGraph,
    sources: &[NodeId],
    threshold: &[Dist],
    max_sweeps: Option<usize>,
    order: Vec<usize>,
) -> RestrictedMultiSource {
    let _span = en_obs::span("restricted_kernel");
    en_obs::counter_add("kernel.restricted.sources", sources.len() as u64);
    let n = csr.num_nodes();
    let budget = max_sweeps.unwrap_or(usize::MAX);
    let mut out = Outputs {
        reached: vec![Vec::new(); sources.len()],
        member_rows: vec![Vec::new(); sources.len()],
        members: vec![Vec::new(); sources.len()],
    };
    // Sources are processed in locality order — chunk-mates' restricted
    // regions overlap, so the batched rows carry many live cells instead of
    // one or two. Output rows stay in caller order via the position map, and
    // the results themselves are order-independent.
    let permuted: Vec<NodeId> = order.iter().map(|&i| sources[i]).collect();
    // Mostly-finite thresholds mean restricted (small, mostly disjoint)
    // growth, where narrow rows keep the branchless sweeps from grinding
    // dead cells; mostly-infinite thresholds mean spanning growth, where the
    // full 64-cell rows amortise best.
    let finite_thresholds = threshold.iter().filter(|&&t| t < INFINITY).count();
    let chunk_cap = if 2 * finite_thresholds > n { 32 } else { 64 };
    if fits_i32(n, csr.max_weight()) {
        restricted_chunks::<i32>(
            csr, &permuted, &order, threshold, budget, chunk_cap, &mut out,
        );
    } else {
        restricted_chunks::<u64>(
            csr, &permuted, &order, threshold, budget, chunk_cap, &mut out,
        );
    }
    let Outputs {
        reached,
        member_rows,
        members,
    } = out;
    RestrictedMultiSource {
        sources: sources.to_vec(),
        // Clamp to the saturation point of the Dist domain so the membership
        // test agrees with the kernel's cell-domain mask even for degenerate
        // above-INFINITY inputs (an unreached vertex is never a member).
        threshold: threshold.iter().map(|&t| t.min(INFINITY)).collect(),
        n,
        reached,
        member_rows,
        members,
    }
}

/// The compact per-source output the kernel fills, bundled to keep call
/// sites tidy.
struct Outputs {
    reached: Vec<Vec<(u32, Dist)>>,
    member_rows: Vec<Vec<MemberCell>>,
    members: Vec<Vec<NodeId>>,
}

/// Positions of `sources` ordered so that sources with overlapping
/// restricted regions land in the same chunk, derived from the graph alone
/// (callers that already know the grouping use
/// [`restricted_multi_source_csr_grouped`] instead and skip this work).
///
/// With zero-threshold vertices present (for genuine TZ thresholds these are
/// exactly `A_{i+1}`), sources sort by `(nearest zero vertex, distance to
/// it)` — the Voronoi grouping under which same-cell clusters coincide
/// almost entirely. Otherwise sources sort by BFS discovery order, a weaker
/// but generic locality proxy.
fn locality_order(csr: &CsrGraph, sources: &[NodeId], threshold: &[Dist]) -> Vec<usize> {
    let n = csr.num_nodes();
    let boundary: Vec<NodeId> = (0..n).filter(|&v| threshold[v] == 0).collect();
    let mut order: Vec<usize> = (0..sources.len()).collect();
    if !boundary.is_empty() {
        let (dist, nearest) = crate::dijkstra::multi_source_dijkstra_csr(csr, &boundary);
        order.sort_by_key(|&i| {
            let s = sources[i];
            (nearest[s].unwrap_or(usize::MAX), dist[s], s)
        });
        return order;
    }
    let mut rank = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if rank[start] != u32::MAX {
            continue;
        }
        rank[start] = next;
        next += 1;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in csr.targets(u) {
                if rank[v] == u32::MAX {
                    rank[v] = next;
                    next += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    order.sort_by_key(|&i| rank[sources[i]]);
    order
}

/// The batched vertex-major kernel: processes the (locality-ordered)
/// `sources` in chunks of `chunk_cap`, appending restricted distances,
/// member parents and relaxed parent weights to the compact per-source
/// outputs — `rows[p]` maps processing position `p` back to the caller's
/// row index.
///
/// Restricted growth is *sparse* — a level-0 cluster touches a small
/// neighbourhood, not the whole graph — so unlike the Theorem-1 kernel every
/// per-vertex cost here is proportional to what the chunk actually touched:
/// the state buffers are allocated once and reset via a touched-vertex list,
/// worklists are maintained as push-on-first-change lists rather than dense
/// `O(n)` scans, vertices with no admitted cell are pruned from the frontier
/// (they have nothing to relay — this drops the non-member boundary, which
/// for small clusters outnumbers the members), and the chunk width narrows
/// for restricted growth (mostly finite thresholds) where only a few of a
/// row's cells are ever live. The parent pass walks the adjacency once per
/// *member cell* (falling back to the vectorised whole-row argmin when most
/// of a row's cells are members, as in spanning clusters), and the flush
/// streams the chunk state over the sorted touched list into append-only
/// per-source lists, so nothing ever scatters across an `|sources| × n`
/// array.
#[allow(clippy::too_many_arguments)]
fn restricted_chunks<T: DistCell>(
    csr: &CsrGraph,
    sources: &[NodeId],
    rows: &[usize],
    threshold: &[Dist],
    sweep_budget: usize,
    chunk_cap: usize,
    out: &mut Outputs,
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
    let thr: Vec<T> = threshold.iter().map(|&t| T::from_threshold(t)).collect();
    // Vertex-major state, allocated once: `cur[v * chunk_cap + j]` is the current
    // best value of vertex `v` for chunk source `j`; `prev` holds the
    // *admitted* start-of-sweep values (the membership mask is applied when a
    // frontier row is refreshed), and doubles as the masked-relay buffer of
    // the parent pass; `keys` stages the packed argmin parents until the
    // flush. Only rows on the touched list are ever dirty, and they are
    // re-initialised when a chunk finishes; a ragged final chunk simply
    // leaves its trailing cells at INF, which relax as no-ops.
    let mut cur = vec![T::INF; n * chunk_cap];
    let mut prev = vec![T::INF; n * chunk_cap];
    let mut keys: Vec<T::Key> = vec![T::KEY_MAX; n * chunk_cap];
    let mut frontier: Vec<u32> = Vec::new();
    let mut changed: Vec<u32> = Vec::new();
    let mut changed_flag = vec![0u8; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut touched_flag = vec![0u8; n];
    for (chunk_index, chunk) in sources.chunks(chunk_cap).enumerate() {
        let sc = chunk.len();
        for (j, &src) in chunk.iter().enumerate() {
            cur[src * chunk_cap + j] = T::ZERO;
            if touched_flag[src] == 0 {
                touched_flag[src] = 1;
                touched.push(src as u32);
            }
        }
        // Seeding sweep: every source relays its zero once, unconditionally —
        // this is where the source's exemption from its own threshold lives,
        // so the per-sweep mask below can stay branchless.
        if sweep_budget > 0 {
            for (j, &src) in chunk.iter().enumerate() {
                let lo = offsets[src];
                let hi = offsets[src + 1];
                for (&v, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                    let cell = &mut cur[v as usize * chunk_cap + j];
                    if w < *cell {
                        *cell = w;
                        let v = v as usize;
                        if changed_flag[v] == 0 {
                            changed_flag[v] = 1;
                            changed.push(v as u32);
                        }
                        if touched_flag[v] == 0 {
                            touched_flag[v] = 1;
                            touched.push(v as u32);
                        }
                    }
                }
            }
        }
        let gauss_seidel = sweep_budget == usize::MAX;
        let mut remaining = sweep_budget.saturating_sub(1);
        loop {
            // Rebuild the union frontier from the changed list, pruning
            // vertices with no admitted cell: they have nothing to relay, and
            // they re-enter the changed list if a later sweep improves them.
            frontier.clear();
            for &v in &changed {
                changed_flag[v as usize] = 0;
                let vrow = v as usize * chunk_cap;
                let t = thr[v as usize];
                if cur[vrow..vrow + chunk_cap].iter().any(|&c| c < t) {
                    frontier.push(v);
                }
            }
            changed.clear();
            if remaining == 0 || frontier.is_empty() {
                break;
            }
            remaining -= 1;
            // Refresh the relay rows of the vertices that will spread values
            // this sweep, masking out non-admitted cells: a value relays only
            // while it is strictly below the vertex's threshold. Under a
            // sweep budget the refresh happens for the whole frontier up
            // front, giving the levelled (Jacobi) semantics of depth-bounded
            // Bellman–Ford; at convergence the refresh happens per relaying
            // vertex instead (Gauss–Seidel), so values improved earlier in
            // the same sweep propagate immediately — same fixed point, fewer
            // sweeps.
            if !gauss_seidel {
                for &u in &frontier {
                    let urow = u as usize * chunk_cap;
                    let t = thr[u as usize];
                    for (pd, &cd) in prev[urow..urow + chunk_cap]
                        .iter_mut()
                        .zip(&cur[urow..urow + chunk_cap])
                    {
                        *pd = if cd < t { cd } else { T::INF };
                    }
                }
            }
            for &u in &frontier {
                let urow = u as usize * chunk_cap;
                if gauss_seidel {
                    let t = thr[u as usize];
                    for (pd, &cd) in prev[urow..urow + chunk_cap]
                        .iter_mut()
                        .zip(&cur[urow..urow + chunk_cap])
                    {
                        *pd = if cd < t { cd } else { T::INF };
                    }
                }
                let lo = offsets[u as usize];
                let hi = offsets[u as usize + 1];
                for (&v, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                    let vrow = v as usize * chunk_cap;
                    // Fixed-width branchless min over all chunk sources; the
                    // masked INF cells saturate and never win, and the XOR
                    // accumulator detects any change without a branch.
                    let urows = &prev[urow..urow + chunk_cap];
                    let vrows = &mut cur[vrow..vrow + chunk_cap];
                    let mut delta = T::ZERO;
                    for (vd, &ud) in vrows.iter_mut().zip(urows) {
                        let cand = ud.add_capped(w);
                        let old = *vd;
                        let new = if cand < old { cand } else { old };
                        delta = delta | (old ^ new);
                        *vd = new;
                    }
                    if delta != T::ZERO {
                        let v = v as usize;
                        if changed_flag[v] == 0 {
                            changed_flag[v] = 1;
                            changed.push(v as u32);
                        }
                        if touched_flag[v] == 0 {
                            touched_flag[v] = 1;
                            touched.push(v as u32);
                        }
                    }
                }
            }
        }
        // Sort the touched list so the flush below writes each output row in
        // ascending vertex order (sequential streaming) and the member lists
        // come out sorted.
        touched.sort_unstable();
        // Masked relay values for the parent pass: reuse `prev` to hold, for
        // every touched vertex, the value it is allowed to offer — its
        // current value if admitted, INF otherwise, and ZERO for each
        // source's own cell. Untouched rows are INF already.
        for &v in &touched {
            let vrow = v as usize * chunk_cap;
            let t = thr[v as usize];
            for (pd, &cd) in prev[vrow..vrow + chunk_cap]
                .iter_mut()
                .zip(&cur[vrow..vrow + chunk_cap])
            {
                *pd = if cd < t { cd } else { T::INF };
            }
        }
        for (j, &src) in chunk.iter().enumerate() {
            prev[src * chunk_cap + j] = T::ZERO;
        }
        // Parent pass over the touched vertices, staged into `keys`: for
        // every member cell `(v, j)`, the admitted neighbour `p` minimising
        // `relay(p) + w(v, p)` (ties to the smallest id). At convergence the
        // minimum equals `dist[v]` exactly; under a sweep budget it may still
        // undercut it, so the flush accepts with `≤`. Rows that are mostly
        // members (dense spanning clusters) use the vectorised whole-row
        // argmin; sparse rows walk the adjacency once per member cell,
        // keeping the cost proportional to the actual member count.
        for &v in &touched {
            let v = v as usize;
            let vrow = v * chunk_cap;
            let t = thr[v];
            let lo = offsets[v];
            let hi = offsets[v + 1];
            let members_in_row = cur[vrow..vrow + chunk_cap]
                .iter()
                .filter(|&&d| d < t)
                .count();
            if members_in_row == 0 {
                continue;
            }
            if members_in_row * 8 >= chunk_cap {
                // Dense row: one branchless argmin sweep over the adjacency
                // serves every cell.
                keys[vrow..vrow + chunk_cap].fill(T::KEY_MAX);
                for (&p, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                    let prow = p as usize * chunk_cap;
                    for (key, &pd) in keys[vrow..vrow + chunk_cap]
                        .iter_mut()
                        .zip(&prev[prow..prow + chunk_cap])
                    {
                        let cand = pd.add_capped(w).pack(p);
                        *key = (*key).min(cand);
                    }
                }
            } else {
                // Sparse row: walk the adjacency once per member cell.
                for j in 0..sc {
                    if cur[vrow + j] >= t {
                        continue;
                    }
                    let mut best = T::KEY_MAX;
                    for (&p, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                        let pd = prev[p as usize * chunk_cap + j];
                        let cand = pd.add_capped(w).pack(p);
                        best = best.min(cand);
                    }
                    keys[vrow + j] = best;
                }
            }
        }
        // Flush: stream the chunk state row-major over the sorted touched
        // list into the compact per-source outputs — sequential reads of
        // `cur`, append-only writes — so no `|sources| × n` array is ever
        // allocated or scattered into. The member lists come out sorted
        // because the touched list is.
        for (j, &src) in chunk.iter().enumerate() {
            let si = rows[chunk_index * chunk_cap + j];
            let reached = &mut out.reached[si];
            let member_rows = &mut out.member_rows[si];
            let mlist = &mut out.members[si];
            reached.reserve(touched.len());
            for &vu in &touched {
                let v = vu as usize;
                let d = cur[v * chunk_cap + j];
                if d >= T::INF {
                    continue;
                }
                reached.push((vu, d.into_dist()));
                if v == src {
                    mlist.push(v);
                    continue;
                }
                if d < thr[v] {
                    mlist.push(v);
                    let key = keys[v * chunk_cap + j];
                    let kv = T::key_value(key);
                    let (parent, weight) = if key != T::KEY_MAX && kv <= d {
                        let p = T::key_neighbor(key);
                        (
                            p,
                            kv.into_dist() - prev[p as usize * chunk_cap + j].into_dist(),
                        )
                    } else {
                        (NO_PARENT, 0)
                    };
                    member_rows.push(MemberCell {
                        v: vu,
                        parent,
                        dist: d.into_dist(),
                        weight,
                    });
                }
            }
        }
        // Reset the dirty rows for the next chunk and clear the bookkeeping.
        for &v in &touched {
            let vrow = v as usize * chunk_cap;
            touched_flag[v as usize] = 0;
            cur[vrow..vrow + chunk_cap].fill(T::INF);
            prev[vrow..vrow + chunk_cap].fill(T::INF);
        }
        touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_connected, GeneratorConfig};
    use crate::graph::WeightedGraph;

    /// The unbatched reference: one restricted Dijkstra per source (the same
    /// algorithm as `grow_exact_cluster_csr` in `en_routing`).
    fn reference(
        csr: &CsrGraph,
        source: NodeId,
        threshold: &[Dist],
    ) -> (Vec<Dist>, Vec<bool>, Vec<Option<NodeId>>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = csr.num_nodes();
        let mut dist = vec![INFINITY; n];
        let mut parent = vec![None; n];
        let mut joined = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source] = 0;
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] || joined[v] {
                continue;
            }
            if v != source && d >= threshold[v] {
                continue;
            }
            joined[v] = true;
            let (ts, ws) = csr.arcs(v);
            for (&t, &w) in ts.iter().zip(ws) {
                let nd = d + w;
                if nd < dist[t] {
                    dist[t] = nd;
                    parent[t] = Some(v);
                    heap.push(Reverse((nd, t)));
                }
            }
        }
        (dist, joined, parent)
    }

    fn check_against_reference(g: &WeightedGraph, sources: &[NodeId], threshold: &[Dist]) {
        let csr = CsrGraph::from_graph(g);
        let res = restricted_multi_source_csr(&csr, sources, threshold, None);
        for (s, &src) in sources.iter().enumerate() {
            let (dist, joined, _) = reference(&csr, src, threshold);
            let members: Vec<NodeId> = res.members_of(s).collect();
            let expected: Vec<NodeId> = (0..g.num_nodes()).filter(|&v| joined[v]).collect();
            assert_eq!(members, expected, "source {src}: member sets differ");
            for &v in &members {
                assert_eq!(res.dist_row(s)[v], dist[v], "source {src} vertex {v}");
                if v == src {
                    assert!(res.parent_of(s, v).is_none());
                } else {
                    let (p, w) = res.parent_of(s, v).expect("member has a parent");
                    assert!(res.is_member(s, p), "parent {p} must be a member");
                    assert_eq!(g.edge_weight(v, p), Some(w), "recorded weight is the arc's");
                    assert_eq!(
                        res.dist_row(s)[p] + w,
                        res.dist_row(s)[v],
                        "parent lies on a restricted shortest path"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_restricted_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi_connected(&GeneratorConfig::new(50, seed).with_weights(1, 30), 0.1);
            let sources: Vec<NodeId> = (0..10).map(|i| i * 5).collect();
            // Genuine TZ-style thresholds: distance to a sampled "next level".
            let level: Vec<NodeId> = (0..50).filter(|v| v % 7 == 3).collect();
            let (threshold, _) = crate::dijkstra::multi_source_dijkstra(&g, &level);
            check_against_reference(&g, &sources, &threshold);
        }
    }

    #[test]
    fn infinite_thresholds_grow_full_shortest_path_trees() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(40, 9).with_weights(1, 20), 0.12);
        let threshold = vec![INFINITY; 40];
        let csr = CsrGraph::from_graph(&g);
        let res = restricted_multi_source_csr(&csr, &[0, 17], &threshold, None);
        for (s, &src) in [0usize, 17].iter().enumerate() {
            let sp = crate::dijkstra::dijkstra(&g, src);
            assert_eq!(res.dist_row(s), sp.dist.as_slice());
            assert_eq!(res.members_of(s).count(), 40);
        }
    }

    /// Definition (6) is strict: a vertex whose distance from the centre
    /// *ties* its threshold is excluded — and everything behind it stays out.
    #[test]
    fn membership_tie_is_excluded_strictly() {
        // Path 0 -2- 1 -2- 2 with A_{i+1} = {2}: thresholds d(·, {2}) are
        // [4, 2, 0], and d(0, 1) = 2 == threshold[1] — a genuine tie.
        let g = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 2, 2)]).unwrap();
        let threshold = vec![4, 2, 0];
        let csr = CsrGraph::from_graph(&g);
        let res = restricted_multi_source_csr(&csr, &[0], &threshold, None);
        assert_eq!(res.members_of(0).collect::<Vec<_>>(), vec![0]);
        // Break the tie and vertex 1 joins (2 < 3), vertex 2 still not.
        let res = restricted_multi_source_csr(&csr, &[0], &[4, 3, 0], None);
        assert_eq!(res.members_of(0).collect::<Vec<_>>(), vec![0, 1]);
        check_against_reference(&g, &[0], &threshold);
        check_against_reference(&g, &[0], &[4, 3, 0]);
    }

    /// The source is exempt from its own threshold: even `threshold = 0` at
    /// the source must not stop it from relaying its zero.
    #[test]
    fn source_relays_despite_zero_threshold() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let res = restricted_multi_source_csr(&csr, &[0], &[0, 5], None);
        assert_eq!(res.members_of(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(res.dist_row(0)[1], 1);
        assert_eq!(res.parent_of(0, 1), Some((0, 1)));
        check_against_reference(&g, &[0], &[0, 5]);
    }

    #[test]
    fn sweep_budget_gives_levelled_depth_bounded_values() {
        // Path 0 -1- 1 -1- 2 -1- 3, unbounded thresholds: after β sweeps a
        // vertex β hops out is reached, β + 1 hops is not.
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let threshold = vec![INFINITY; 4];
        let res = restricted_multi_source_csr(&csr, &[0], &threshold, Some(2));
        assert_eq!(res.dist_row(0), &[0, 1, 2, INFINITY]);
        let res = restricted_multi_source_csr(&csr, &[0], &threshold, Some(0));
        assert_eq!(res.dist_row(0), &[0, INFINITY, INFINITY, INFINITY]);
        assert_eq!(res.members_of(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn u64_fallback_matches_on_huge_weights() {
        // A weight large enough that n * max_weight overflows the i32 cells.
        let big = (i32::MAX / 4) as u64;
        let g = WeightedGraph::from_edges(3, [(0, 1, big), (1, 2, 1)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let res = restricted_multi_source_csr(&csr, &[0], &[INFINITY; 3], None);
        assert_eq!(res.dist_row(0), &[0, big, big + 1]);
        check_against_reference(&g, &[0], &[INFINITY; 3]);
    }

    #[test]
    fn empty_source_set_is_a_no_op() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let res = restricted_multi_source_csr(&csr, &[], &[INFINITY; 2], None);
        assert!(res.sources().is_empty());
        assert_eq!(res.num_vertices(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_source() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        let _ = restricted_multi_source_csr(&CsrGraph::from_graph(&g), &[5], &[0, 0], None);
    }

    #[test]
    #[should_panic(expected = "one entry per vertex")]
    fn rejects_short_threshold_vector() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        let _ = restricted_multi_source_csr(&CsrGraph::from_graph(&g), &[0], &[0], None);
    }
}
