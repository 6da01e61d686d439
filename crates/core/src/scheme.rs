//! The compact routing scheme (Section 4).
//!
//! Given a [`ClusterFamily`] (exact or approximate), every cluster tree gets a
//! tree-routing scheme (Theorem 7). The routing table of a vertex `v` is the
//! collection of its tree tables for every tree containing it; the label of
//! `v` consists of, for every level `i`, its (approximate) `i`-pivot
//! `ẑ_i(v)`, the (approximate) distance to it, and — when `v` belongs to the
//! tree `C̃(ẑ_i(v))` — `v`'s tree label in that tree.
//!
//! To route from `u` to `v`, Algorithm 1 (`Find-tree`) scans the levels
//! `i = 0, 1, …` until it finds a tree `C̃(ẑ_i(v))` containing **both**
//! endpoints (decidable from `u`'s table plus `v`'s label alone); the packet
//! then carries `(root, tree label of v)` in its header and is forwarded by
//! the tree scheme, consulting only each intermediate vertex's local table.
//!
//! The `4k−5` refinement of \[TZ01\] is implemented as well: every centre
//! `u ∈ A_0 \ A_1` stores the tree labels of all members of its own cluster,
//! so packets *from* `u` to a member of `C̃(u)` are routed directly in `C̃(u)`.

use std::ops::Range;
use std::sync::Arc;

use en_graph::dijkstra::dijkstra;
use en_graph::{shard_spans, BuildOptions, BuildStats, Dist, NodeId, NodeMap, Path, WeightedGraph};
use en_tree_routing::{TreeLabel, TreeLabelRef, TreeRoutingConfig, TreeRoutingScheme, TreeTable};

use crate::access::{self, RouteAccess};
use crate::error::RoutingError;
use crate::family::ClusterFamily;

/// One entry of a vertex label: the pivot at some level and, if the vertex
/// belongs to that pivot's cluster tree, its tree label there.
///
/// The tree label is the *same allocation* the per-tree scheme built (and,
/// for level-0 members, the same one the centre's own-cluster table holds):
/// labels are `Arc`-pooled, so assembling a scheme never deep-copies an
/// exception vector.
#[derive(Debug, Clone)]
pub struct LabelEntry {
    /// The level `i`.
    pub level: usize,
    /// The (approximate) `i`-pivot `ẑ_i(v)`.
    pub pivot: NodeId,
    /// The (approximate) distance `d̂_i(v)`.
    pub dist: Dist,
    /// The tree label of `v` in `C̃(ẑ_i(v))`, if `v` belongs to it.
    pub tree_label: Option<Arc<TreeLabel>>,
}

impl LabelEntry {
    /// Size in `O(log n)` words.
    pub fn words(&self) -> usize {
        3 + self.tree_label.as_ref().map_or(0, |l| l.words())
    }
}

/// The complete label of a vertex: one entry per level (missing levels — empty
/// `A_i` — are skipped).
#[derive(Debug, Clone)]
pub struct NodeLabel {
    /// The labelled vertex.
    pub vertex: NodeId,
    /// Entries for the levels `0 ≤ i < k` that have a pivot.
    pub entries: Vec<LabelEntry>,
}

impl NodeLabel {
    /// The entry for level `i`, if present.
    pub fn entry(&self, level: usize) -> Option<&LabelEntry> {
        self.entries.iter().find(|e| e.level == level)
    }

    /// Size in `O(log n)` words.
    pub fn words(&self) -> usize {
        1 + self.entries.iter().map(LabelEntry::words).sum::<usize>()
    }
}

/// The routing table of a vertex.
#[derive(Debug, Clone, Default)]
pub struct NodeTable {
    /// Tree tables for every cluster tree containing this vertex, keyed by the
    /// tree's centre. (The word size is measured through the underlying
    /// [`TreeRoutingScheme`]; only membership is recorded here.)
    pub trees: Vec<NodeId>,
    /// The \[TZ01\] `4k−5` refinement: if this vertex is a level-0 centre, the
    /// tree labels of every member of its own cluster (shared, via `Arc`,
    /// with the members' [`LabelEntry::tree_label`]s and the tree scheme).
    pub own_cluster_labels: NodeMap<Arc<TreeLabel>>,
}

/// The assembled routing scheme.
#[derive(Debug, Clone)]
pub struct RoutingScheme {
    k: usize,
    n: usize,
    /// Per-centre tree routing schemes.
    tree_schemes: NodeMap<TreeRoutingScheme>,
    /// Per-vertex tables.
    tables: Vec<NodeTable>,
    /// Per-vertex labels.
    labels: Vec<NodeLabel>,
    /// The level of each centre (used for reporting).
    center_level: NodeMap<usize>,
}

/// Runs one independent closure per span, on scoped worker threads when
/// there is more than one span, and returns the results in span order — the
/// fixed merge order that keeps the parallel assembly bit-identical to the
/// sequential one (see [`en_graph::parallel`]).
fn run_sharded<T: Send>(spans: &[Range<usize>], work: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    if spans.len() <= 1 {
        return spans.iter().map(|span| work(span.clone())).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = spans
            .iter()
            .map(|span| {
                let span = span.clone();
                let work = &work;
                scope.spawn(move || work(span))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheme assembly worker panicked"))
            .collect()
    })
}

/// The outcome of routing one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// The tree (centre) the packet was routed through.
    pub tree_root: NodeId,
    /// The level of that tree's centre.
    pub level: usize,
    /// The traversed path (starts at the source, ends at the destination).
    pub path: Path,
    /// Weighted length of the traversed path.
    pub length: Dist,
    /// Exact shortest-path distance between the endpoints.
    pub exact: Dist,
    /// `length / exact` (1.0 when the endpoints coincide).
    pub stretch: f64,
}

impl RouteOutcome {
    /// The outcome of a route the kernel forwarded and weighed
    /// ([`forward_via`](crate::access::forward_via)), with its stretch
    /// measured against `exact` (1.0 when `exact` is 0). Every storage of
    /// the scheme builds its outcomes here, so they agree bit for bit.
    pub fn new(tree_root: NodeId, level: usize, path: Path, length: Dist, exact: Dist) -> Self {
        let stretch = if exact == 0 {
            1.0
        } else {
            length as f64 / exact as f64
        };
        RouteOutcome {
            tree_root,
            level,
            path,
            length,
            exact,
            stretch,
        }
    }
}

impl RoutingScheme {
    /// Assembles the routing scheme from a cluster family grown in `g`.
    ///
    /// `tree_seed` seeds the portal sampling of the per-tree schemes. Every
    /// tree table gets the port of its parent edge in `g`, through which
    /// routes weigh their hops.
    ///
    /// The per-tree schemes are built zero-copy from the family's forest
    /// slices (each costs `O(|C|)` working memory, not `O(n)`), and the
    /// per-vertex tables — including the \[TZ01\] `4k−5` refinement's member
    /// labels at level-0 centres — are filled in a single sweep of the
    /// forest's inverted membership CSR instead of one `members()` loop per
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics if a cluster member is not a vertex of `g`.
    pub fn assemble(family: &ClusterFamily, g: &WeightedGraph, tree_seed: u64) -> Self {
        Self::assemble_opts(family, g, tree_seed, &BuildOptions::sequential()).0
    }

    /// [`Self::assemble`] with a thread-count knob, also returning the
    /// per-thread work accounting.
    ///
    /// Two phases shard over `std::thread::scope` workers: the per-tree
    /// scheme builds with their parent-port resolution (contiguous
    /// cluster-id spans — each tree's portal sampling is seeded from its own
    /// centre, so the processing order is immaterial) and the per-vertex
    /// table/label sweep (contiguous vertex spans). Per-worker outputs are
    /// concatenated in span order, so the assembled scheme is bit-identical
    /// to the sequential one for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a cluster member is not a vertex of `g`.
    pub fn assemble_opts(
        family: &ClusterFamily,
        g: &WeightedGraph,
        tree_seed: u64,
        opts: &BuildOptions,
    ) -> (Self, BuildStats) {
        let n = family.n();
        let k = family.k();
        let forest = &family.forest;
        let num_clusters = forest.num_clusters();
        let mut stats = BuildStats::default();
        // Phase A: per-tree schemes, sharded over contiguous cluster-id
        // spans and concatenated back in span (= dense id) order.
        let build_trees = |span: Range<usize>| -> (Vec<TreeRoutingScheme>, usize) {
            let mut members = 0usize;
            let schemes = span
                .map(|id| {
                    let cluster = forest.cluster(id);
                    members += cluster.len();
                    let config = TreeRoutingConfig::new(
                        tree_seed ^ (cluster.center() as u64).wrapping_mul(0x9E37_79B9),
                    );
                    let mut scheme = TreeRoutingScheme::build(&cluster, &config);
                    scheme.resolve_parent_ports(g);
                    scheme
                })
                .collect();
            (schemes, members)
        };
        let tree_spans = shard_spans(num_clusters, opts.threads, 1);
        let mut schemes_by_id = Vec::with_capacity(num_clusters);
        let mut tree_stats = BuildStats::default();
        for (span, (schemes, members)) in
            tree_spans.iter().zip(run_sharded(&tree_spans, build_trees))
        {
            tree_stats.record(span.len(), members);
            schemes_by_id.extend(schemes);
        }
        stats.absorb(&tree_stats);
        // Per-cluster data addressable by dense id during the sweeps below.
        let mut center_level = NodeMap::default();
        center_level.reserve(num_clusters);
        let mut centers = Vec::with_capacity(num_clusters);
        let mut is_level0 = Vec::with_capacity(num_clusters);
        for cluster in forest.clusters() {
            centers.push(cluster.center());
            is_level0.push(cluster.level() == 0);
            center_level.insert(cluster.center(), cluster.level());
        }
        // Centre-keyed scheme lookup for the label sweep (the map itself is
        // only moved into the result after `schemes_by_id` is done serving
        // the own-cluster fill, so the sweep reads through dense ids).
        let mut id_of_center = NodeMap::default();
        id_of_center.reserve(num_clusters);
        for (id, &center) in centers.iter().enumerate() {
            id_of_center.insert(center, id);
        }
        // Phase B: the per-vertex sweep — tree memberships (sorted by
        // centre) and pivot label entries — sharded over contiguous vertex
        // spans. Workers only read the forest CSR and the finished schemes;
        // outputs land at fixed per-vertex slots.
        let schemes_ref = &schemes_by_id;
        let centers_ref = &centers;
        let id_of_center_ref = &id_of_center;
        let sweep = |span: Range<usize>| -> (Vec<(Vec<NodeId>, NodeLabel)>, usize) {
            let mut produced = 0usize;
            let rows = span
                .map(|v| {
                    let mut trees = Vec::with_capacity(forest.overlap_of(v));
                    for (id, _) in forest.membership(v) {
                        trees.push(centers_ref[id]);
                    }
                    trees.sort_unstable();
                    let mut entries = Vec::new();
                    for i in 0..k {
                        if let Some((pivot, dist)) = family.pivots[v][i] {
                            let tree_label = id_of_center_ref
                                .get(&pivot)
                                .and_then(|&id| schemes_ref[id].label_arc(v))
                                .cloned();
                            entries.push(LabelEntry {
                                level: i,
                                pivot,
                                dist,
                                tree_label,
                            });
                        }
                    }
                    produced += trees.len() + entries.len();
                    (trees, NodeLabel { vertex: v, entries })
                })
                .collect();
            (rows, produced)
        };
        let vertex_spans = shard_spans(n, opts.threads, 1);
        let mut tables: Vec<NodeTable> = (0..n).map(|_| NodeTable::default()).collect();
        let mut labels: Vec<NodeLabel> = Vec::with_capacity(n);
        let mut sweep_stats = BuildStats::default();
        for (span, (rows, produced)) in vertex_spans.iter().zip(run_sharded(&vertex_spans, sweep)) {
            sweep_stats.record(span.len(), produced);
            for (j, (trees, label)) in rows.into_iter().enumerate() {
                tables[span.start + j].trees = trees;
                labels.push(label);
            }
        }
        stats.absorb(&sweep_stats);
        // The [TZ01] 4k−5 refinement: every level-0 centre stores the tree
        // labels of its own cluster's members. The fill walks the member
        // slice, whose positions index the scheme's labels directly; each
        // insert shares the scheme's allocation (Arc bump).
        for (id, scheme) in schemes_by_id.iter().enumerate() {
            if !is_level0[id] {
                continue;
            }
            let cluster = forest.cluster(id);
            let own = &mut tables[centers[id]].own_cluster_labels;
            own.reserve(cluster.len());
            for (pos, v) in cluster.members().enumerate() {
                let label = scheme
                    .label_arc_by_index(pos)
                    .expect("member position is within the tree scheme");
                debug_assert_eq!(label.vertex, v);
                own.insert(v, Arc::clone(label));
            }
        }
        let mut tree_schemes = NodeMap::default();
        tree_schemes.reserve(num_clusters);
        for (center, scheme) in centers.iter().zip(schemes_by_id) {
            tree_schemes.insert(*center, scheme);
        }
        let scheme = RoutingScheme {
            k,
            n,
            tree_schemes,
            tables,
            labels,
            center_level,
        };
        (scheme, stats)
    }

    /// The pre-forest reference assembly, retained as the oracle the property
    /// suite compares [`Self::assemble`] against (the same pattern as the
    /// per-centre cluster-growth oracle): every cluster is first materialised
    /// as a dense host-sized [`RootedTree`](en_graph::tree::RootedTree) via
    /// [`en_graph::forest::ClusterView::tree`], per-tree schemes are built
    /// from those trees, and tables are filled by one `members()` loop per
    /// cluster. Same inputs must yield bit-identical routing behaviour.
    ///
    /// # Panics
    ///
    /// Panics if a cluster member is not a vertex of `g`.
    pub fn assemble_reference(family: &ClusterFamily, g: &WeightedGraph, tree_seed: u64) -> Self {
        let n = family.n();
        let k = family.k();
        let mut tree_schemes = NodeMap::default();
        tree_schemes.reserve(family.num_clusters());
        let mut center_level = NodeMap::default();
        center_level.reserve(family.num_clusters());
        for cluster in family.clusters() {
            let center = cluster.center();
            let config =
                TreeRoutingConfig::new(tree_seed ^ (center as u64).wrapping_mul(0x9E37_79B9));
            let tree = cluster.tree();
            let mut scheme = TreeRoutingScheme::build(&tree, &config);
            scheme.resolve_parent_ports(g);
            tree_schemes.insert(center, scheme);
            center_level.insert(center, cluster.level());
        }
        // Tables: which trees contain each vertex.
        let mut tables: Vec<NodeTable> = (0..n).map(|_| NodeTable::default()).collect();
        for (&center, scheme) in &tree_schemes {
            for v in scheme.members() {
                tables[v].trees.push(center);
            }
        }
        for table in &mut tables {
            table.trees.sort_unstable();
        }
        // Labels: pivot entries per level.
        let mut labels: Vec<NodeLabel> = Vec::with_capacity(n);
        for v in 0..n {
            let mut entries = Vec::new();
            for i in 0..k {
                if let Some((pivot, dist)) = family.pivots[v][i] {
                    let tree_label = tree_schemes
                        .get(&pivot)
                        .and_then(|s| s.label_arc(v))
                        .cloned();
                    entries.push(LabelEntry {
                        level: i,
                        pivot,
                        dist,
                        tree_label,
                    });
                }
            }
            labels.push(NodeLabel { vertex: v, entries });
        }
        // The 4k−5 refinement: level-0 centres store their members' labels.
        for cluster in family.clusters() {
            if cluster.level() != 0 {
                continue;
            }
            let center = cluster.center();
            let scheme = &tree_schemes[&center];
            let mut own = NodeMap::default();
            for v in scheme.members() {
                if let Some(label) = scheme.label_arc(v) {
                    own.insert(v, Arc::clone(label));
                }
            }
            tables[center].own_cluster_labels = own;
        }
        RoutingScheme {
            k,
            n,
            tree_schemes,
            tables,
            labels,
            center_level,
        }
    }

    /// The parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The label of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: NodeId) -> &NodeLabel {
        &self.labels[v]
    }

    /// The routing table of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn table(&self, v: NodeId) -> &NodeTable {
        &self.tables[v]
    }

    /// The number of cluster trees containing `v`.
    pub fn trees_containing(&self, v: NodeId) -> usize {
        self.tables[v].trees.len()
    }

    /// All cluster centres with a tree scheme, in ascending id order (the
    /// deterministic cluster order of the wire snapshot).
    pub fn centers(&self) -> Vec<NodeId> {
        let mut centers: Vec<NodeId> = self.tree_schemes.keys().copied().collect();
        centers.sort_unstable();
        centers
    }

    /// The per-tree routing scheme rooted at `center`, if any.
    pub fn tree_scheme(&self, center: NodeId) -> Option<&TreeRoutingScheme> {
        self.tree_schemes.get(&center)
    }

    /// The hierarchy level of `center`, if it roots a cluster tree.
    pub fn center_level(&self, center: NodeId) -> Option<usize> {
        self.center_level.get(&center).copied()
    }

    /// Size of `v`'s routing table in `O(log n)` words: the sum of its tree
    /// tables plus (for level-0 centres) the stored member labels.
    pub fn table_words(&self, v: NodeId) -> usize {
        let tree_words: usize = self.tables[v]
            .trees
            .iter()
            .map(|center| self.tree_schemes[center].table_words(v))
            .sum();
        let own_words: usize = self.tables[v]
            .own_cluster_labels
            .values()
            .map(|l| 1 + l.words())
            .sum();
        tree_words + own_words
    }

    /// Size of `v`'s label in `O(log n)` words.
    pub fn label_words(&self, v: NodeId) -> usize {
        self.labels[v].words()
    }

    /// Maximum table size over all vertices, in words.
    pub fn max_table_words(&self) -> usize {
        (0..self.n).map(|v| self.table_words(v)).max().unwrap_or(0)
    }

    /// Average table size over all vertices, in words.
    pub fn avg_table_words(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n).map(|v| self.table_words(v)).sum::<usize>() as f64 / self.n as f64
    }

    /// Maximum label size over all vertices, in words.
    pub fn max_label_words(&self) -> usize {
        (0..self.n).map(|v| self.label_words(v)).max().unwrap_or(0)
    }

    /// Average label size over all vertices, in words.
    pub fn avg_label_words(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n).map(|v| self.label_words(v)).sum::<usize>() as f64 / self.n as f64
    }

    /// Algorithm 1 (`Find-tree`) plus the \[TZ01\] `4k−5` refinement: returns
    /// the centre of the tree the packet from `from` to `to` will use, and the
    /// destination's tree label there — using only `from`'s table and `to`'s
    /// label, exactly as a real node would.
    ///
    /// The scan itself is the storage-generic
    /// [`find_tree_via`](crate::access::find_tree_via) kernel; this wrapper
    /// only re-resolves the chosen label as a shared handle into the
    /// scheme's pooled label storage (an `Arc` bump, not a deep copy of the
    /// exception vectors).
    pub fn find_tree(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(NodeId, Arc<TreeLabel>), RoutingError> {
        let (root, _) = access::find_tree_via(&self, from, to)?;
        // The kernel checks the own-cluster refinement first, so when the
        // entry exists it is exactly the hit the kernel returned.
        if let Some(label) = self.tables[from].own_cluster_labels.get(&to) {
            return Ok((from, Arc::clone(label)));
        }
        let label = self.labels[to]
            .entries
            .iter()
            .find(|e| e.pivot == root && e.tree_label.is_some())
            .and_then(|e| e.tree_label.as_ref())
            .expect("the kernel's pivot comes from one of to's label entries");
        Ok((root, Arc::clone(label)))
    }

    /// Routes a packet from `from` to `to`, forwarding hop by hop through the
    /// chosen cluster tree and weighing each hop in `g` as it goes (the
    /// shared [`forward_via`](crate::access::forward_via) kernel), and
    /// measures the stretch against the exact shortest-path distance in `g`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is invalid, no common tree exists
    /// (a low-probability sampling failure), forwarding fails, or a hop of
    /// the forwarded path is not an edge of `g`
    /// ([`RoutingError::NonEdgeHop`]).
    pub fn route(
        &self,
        g: &WeightedGraph,
        from: NodeId,
        to: NodeId,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path, length) = access::forward_via(&self, g, from, to)?;
        let exact = dijkstra(g, from).dist[to];
        Ok(RouteOutcome::new(root, level, path, length, exact))
    }

    /// Routes between the endpoints using a precomputed all-pairs distance
    /// matrix for the stretch denominator (used by the benchmark harness to
    /// avoid re-running Dijkstra per query).
    ///
    /// # Errors
    ///
    /// Exactly what [`Self::route`] reports.
    pub fn route_with_exact(
        &self,
        g: &WeightedGraph,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path, length) = access::forward_via(&self, g, from, to)?;
        Ok(RouteOutcome::new(root, level, path, length, exact))
    }
}

/// The in-memory instantiation of the forwarding kernel: lookups go through
/// the owned tables, labels, and per-centre tree schemes.
impl<'a> RouteAccess for &'a RoutingScheme {
    type Label = TreeLabelRef<'a>;
    type Table = &'a TreeTable;
    type Tree = &'a TreeRoutingScheme;

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn own_label(&self, center: NodeId, member: NodeId) -> Option<TreeLabelRef<'a>> {
        let this: &'a RoutingScheme = self;
        this.tables[center]
            .own_cluster_labels
            .get(&member)
            .map(|l| l.as_view())
    }

    #[inline]
    fn label_entry_count(&self, to: NodeId) -> usize {
        self.labels[to].entries.len()
    }

    #[inline]
    fn label_entry(&self, to: NodeId, i: usize) -> (NodeId, Option<TreeLabelRef<'a>>) {
        let this: &'a RoutingScheme = self;
        let entry = &this.labels[to].entries[i];
        (entry.pivot, entry.tree_label.as_ref().map(|l| l.as_view()))
    }

    #[inline]
    fn in_tree(&self, v: NodeId, root: NodeId) -> bool {
        self.tables[v].trees.binary_search(&root).is_ok()
    }

    #[inline]
    fn tree(&self, root: NodeId) -> Option<(&'a TreeRoutingScheme, usize)> {
        let this: &'a RoutingScheme = self;
        this.tree_schemes
            .get(&root)
            .map(|ts| (ts, this.center_level.get(&root).copied().unwrap_or(0)))
    }

    #[inline]
    fn table(&self, tree: &&'a TreeRoutingScheme, v: NodeId) -> Option<&'a TreeTable> {
        tree.table(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_cluster_family;
    use crate::hierarchy::Hierarchy;
    use crate::params::SchemeParams;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn exact_scheme(n: usize, k: usize, seed: u64) -> (WeightedGraph, RoutingScheme, SchemeParams) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 30), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, &g, seed);
        (g, scheme, params)
    }

    #[test]
    fn every_pair_is_routable_with_bounded_stretch() {
        let (g, scheme, params) = exact_scheme(50, 3, 1);
        let bound = params.stretch_bound();
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let out = scheme
                    .route(&g, u, v)
                    .unwrap_or_else(|e| panic!("{u}->{v}: {e}"));
                assert_eq!(out.path.nodes().first(), Some(&u));
                assert_eq!(out.path.nodes().last(), Some(&v));
                assert!(out.path.is_valid_in(&g));
                assert!(
                    out.stretch <= bound + 1e-9,
                    "stretch {} exceeds bound {} for {u}->{v}",
                    out.stretch,
                    bound
                );
            }
        }
    }

    #[test]
    fn k_equals_one_routes_with_stretch_one() {
        let (g, scheme, _) = exact_scheme(30, 1, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let out = scheme.route(&g, u, v).unwrap();
                assert!(
                    (out.stretch - 1.0).abs() < 1e-9,
                    "k=1 must route on shortest paths, got {}",
                    out.stretch
                );
            }
        }
    }

    #[test]
    fn find_tree_uses_local_information_consistently() {
        let (g, scheme, _) = exact_scheme(40, 2, 3);
        for u in g.nodes().step_by(5) {
            for v in g.nodes().step_by(7) {
                if u == v {
                    continue;
                }
                let (root, label) = scheme.find_tree(u, v).unwrap();
                // The chosen tree really does contain both endpoints.
                assert!(scheme.tables[u].trees.binary_search(&root).is_ok() || root == u);
                assert_eq!(label.vertex, v);
            }
        }
    }

    #[test]
    fn label_sizes_are_o_k_polylog() {
        let (g, scheme, _) = exact_scheme(100, 4, 4);
        let n = g.num_nodes() as f64;
        let bound = 4.0 * 4.0 * n.log2() * n.log2() + 64.0;
        assert!(
            (scheme.max_label_words() as f64) <= bound,
            "label {} exceeds O(k log^2 n) = {}",
            scheme.max_label_words(),
            bound
        );
    }

    #[test]
    fn table_sizes_shrink_as_k_grows() {
        // Larger k means fewer clusters per vertex (Õ(n^{1/k})): compare k=1 vs k=3
        // average tree-table contributions (excluding the level-0 member labels,
        // which are the 4k−5 refinement's extra storage).
        let (_, s1, _) = exact_scheme(80, 1, 5);
        let (_, s3, _) = exact_scheme(80, 3, 5);
        let avg_trees_1: f64 = (0..80).map(|v| s1.trees_containing(v)).sum::<usize>() as f64 / 80.0;
        let avg_trees_3: f64 = (0..80).map(|v| s3.trees_containing(v)).sum::<usize>() as f64 / 80.0;
        assert!(
            avg_trees_3 < avg_trees_1,
            "k=3 should store fewer trees per vertex ({avg_trees_3} vs {avg_trees_1})"
        );
    }

    #[test]
    fn out_of_range_vertices_are_rejected() {
        let (g, scheme, _) = exact_scheme(20, 2, 6);
        assert!(matches!(
            scheme.route(&g, 0, 99),
            Err(RoutingError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            scheme.find_tree(99, 0),
            Err(RoutingError::NodeOutOfRange { .. })
        ));
    }

    /// Forwarding does not read the graph, so a route in a graph missing
    /// some edges takes the path it takes in the built graph, and the
    /// kernel, which weighs hops at either end, names the path's first
    /// missing edge.
    #[test]
    fn non_edge_hop_names_the_first_missing_edge_of_the_path() {
        let (g, scheme, _) = exact_scheme(50, 3, 9);
        let thinned =
            WeightedGraph::from_edges(50, g.edges().step_by(2).map(|e| (e.u, e.v, e.weight)))
                .unwrap();
        let mut with_two_missing = 0;
        for u in g.nodes() {
            for v in g.nodes() {
                let path = scheme.route(&g, u, v).unwrap().path;
                let mut missing = path
                    .nodes()
                    .windows(2)
                    .filter(|hop| !thinned.has_edge(hop[0], hop[1]));
                let res = scheme.route_with_exact(&thinned, u, v, 1);
                match missing.next() {
                    None => assert_eq!(res.unwrap().path, path),
                    Some(hop) => {
                        let first = RoutingError::NonEdgeHop {
                            from: hop[0],
                            to: hop[1],
                        };
                        assert_eq!(res.unwrap_err(), first, "{u}->{v}");
                        with_two_missing += missing.next().is_some() as usize;
                    }
                }
            }
        }
        assert!(with_two_missing > 0, "some route misses two edges");
    }

    #[test]
    fn route_with_exact_matches_route() {
        let (g, scheme, _) = exact_scheme(30, 2, 7);
        let exact = dijkstra(&g, 3).dist[17];
        let a = scheme.route(&g, 3, 17).unwrap();
        let b = scheme.route_with_exact(&g, 3, 17, exact).unwrap();
        assert_eq!(a.length, b.length);
        assert_eq!(a.path, b.path);
        assert!((a.stretch - b.stretch).abs() < 1e-12);
    }

    #[test]
    fn size_accessors_are_consistent() {
        let (_, scheme, _) = exact_scheme(40, 2, 8);
        assert!(scheme.max_table_words() >= scheme.avg_table_words() as usize);
        assert!(scheme.max_label_words() >= scheme.avg_label_words() as usize);
        assert!(scheme.avg_table_words() > 0.0);
        assert!(scheme.avg_label_words() > 0.0);
        assert_eq!(scheme.k(), 2);
        assert_eq!(scheme.n(), 40);
    }
}
