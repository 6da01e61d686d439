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
//!
//! Each tree label is stored once, in the tree scheme of its cluster. A
//! label entry names its tree label by (pivot, vertex), and the `4k−5`
//! lookup by (centre, member); both read it from that tree's scheme
//! ([`RoutingScheme::tree_label`], [`RoutingScheme::own_cluster`]).

use en_graph::dijkstra::dijkstra;
use en_graph::{Dist, NodeId, NodeMap, Path, WeightedGraph};
use en_tree_routing::{TreeLabel, TreeLabelRef, TreeRoutingConfig, TreeRoutingScheme, TreeTable};

use crate::access::{self, RouteAccess};
use crate::error::RoutingError;
use crate::family::ClusterFamily;

/// One entry of a vertex label: the pivot at some level and the distance
/// to it. The entry's tree label — `v`'s label in `C̃(ẑ_i(v))`, if `v`
/// belongs to it — is the one the pivot's tree scheme holds
/// ([`RoutingScheme::tree_label`]).
#[derive(Debug, Clone)]
pub struct LabelEntry {
    /// The level `i`.
    pub level: usize,
    /// The (approximate) `i`-pivot `ẑ_i(v)`.
    pub pivot: NodeId,
    /// The (approximate) distance `d̂_i(v)`.
    pub dist: Dist,
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
    /// `v`'s label in `family`: one entry per level that has a pivot.
    fn of(family: &ClusterFamily, v: NodeId) -> Self {
        let entries = (0..family.k())
            .filter_map(|i| {
                family.pivots[v][i].map(|(pivot, dist)| LabelEntry {
                    level: i,
                    pivot,
                    dist,
                })
            })
            .collect();
        NodeLabel { vertex: v, entries }
    }

    /// The entry for level `i`, if present.
    pub fn entry(&self, level: usize) -> Option<&LabelEntry> {
        self.entries.iter().find(|e| e.level == level)
    }
}

/// The assembled routing scheme.
#[derive(Debug, Clone)]
pub struct RoutingScheme {
    k: usize,
    n: usize,
    /// Per-centre tree routing schemes: the only home of every tree table
    /// and tree label.
    tree_schemes: NodeMap<TreeRoutingScheme>,
    /// Per vertex, the ascending centres of the cluster trees containing it
    /// (its routing table's tree list; the tree tables themselves are read
    /// from those trees' schemes).
    trees: Vec<Vec<NodeId>>,
    /// Per-vertex labels.
    labels: Vec<NodeLabel>,
    /// The level of each centre: it is reported with every route, and
    /// level-0 centres make the `4k−5` lookup.
    center_level: NodeMap<usize>,
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
    /// per-vertex tree lists and label entries are filled in a single sweep
    /// of the forest's inverted membership CSR instead of one `members()`
    /// loop per cluster. The tree labels, the \[TZ01\] `4k−5` refinement's
    /// included, stay in the tree schemes.
    ///
    /// # Panics
    ///
    /// Panics if a cluster member is not a vertex of `g`.
    pub fn assemble(family: &ClusterFamily, g: &WeightedGraph, tree_seed: u64) -> Self {
        let n = family.n();
        let k = family.k();
        let forest = &family.forest;
        let num_clusters = forest.num_clusters();
        let mut tree_schemes = NodeMap::default();
        tree_schemes.reserve(num_clusters);
        let mut center_level = NodeMap::default();
        center_level.reserve(num_clusters);
        // Centres by dense cluster id, for the sweep below.
        let mut centers = Vec::with_capacity(num_clusters);
        for cluster in forest.clusters() {
            let center = cluster.center();
            let config =
                TreeRoutingConfig::new(tree_seed ^ (center as u64).wrapping_mul(0x9E37_79B9));
            let mut scheme = TreeRoutingScheme::build(&cluster, &config);
            scheme.resolve_parent_ports(g);
            tree_schemes.insert(center, scheme);
            center_level.insert(center, cluster.level());
            centers.push(center);
        }
        // The per-vertex sweep: tree memberships (sorted by centre) and
        // pivot label entries.
        let mut trees: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        let mut labels: Vec<NodeLabel> = Vec::with_capacity(n);
        for v in 0..n {
            let mut tree_list = Vec::with_capacity(forest.overlap_of(v));
            for (id, _) in forest.membership(v) {
                tree_list.push(centers[id]);
            }
            tree_list.sort_unstable();
            trees.push(tree_list);
            labels.push(NodeLabel::of(family, v));
        }
        RoutingScheme {
            k,
            n,
            tree_schemes,
            trees,
            labels,
            center_level,
        }
    }

    /// The pre-forest reference assembly, retained as the oracle the property
    /// suite compares [`Self::assemble`] against (the same pattern as the
    /// per-centre cluster-growth oracle): every cluster is first materialised
    /// as a dense host-sized [`RootedTree`](en_graph::tree::RootedTree) via
    /// [`en_graph::forest::ClusterView::tree`], per-tree schemes are built
    /// from those trees, and tree lists are filled by one `members()` loop
    /// per cluster. Same inputs must yield bit-identical routing behaviour.
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
        // Tree lists: which trees contain each vertex.
        let mut trees: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (&center, scheme) in &tree_schemes {
            for v in scheme.members() {
                trees[v].push(center);
            }
        }
        for tree_list in &mut trees {
            tree_list.sort_unstable();
        }
        RoutingScheme {
            k,
            n,
            tree_schemes,
            trees,
            labels: (0..n).map(|v| NodeLabel::of(family, v)).collect(),
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

    /// The ascending centres of the cluster trees containing `v`: the tree
    /// list of `v`'s routing table, whose tree tables the trees' schemes
    /// hold.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn trees_of(&self, v: NodeId) -> &[NodeId] {
        &self.trees[v]
    }

    /// The number of cluster trees containing `v`.
    pub fn trees_containing(&self, v: NodeId) -> usize {
        self.trees[v].len()
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

    /// `v`'s tree label in the cluster tree rooted at `center`, if `v`
    /// belongs to it — the label a label entry with pivot `center` names.
    pub fn tree_label(&self, center: NodeId, v: NodeId) -> Option<&TreeLabel> {
        self.tree_schemes.get(&center)?.label(v)
    }

    /// The \[TZ01\] `4k−5` refinement: a level-0 centre stores the tree
    /// labels of its own cluster's members, which are exactly the labels of
    /// its own tree scheme. Returns that scheme when `center` is a level-0
    /// centre, and `None` otherwise.
    pub fn own_cluster(&self, center: NodeId) -> Option<&TreeRoutingScheme> {
        match self.center_level.get(&center) {
            Some(0) => self.tree_schemes.get(&center),
            _ => None,
        }
    }

    /// Size of `v`'s routing table in `O(log n)` words: the sum of its tree
    /// tables plus (for level-0 centres) one member id and label per member
    /// of its own cluster.
    pub fn table_words(&self, v: NodeId) -> usize {
        let tree_words: usize = self.trees[v]
            .iter()
            .map(|center| self.tree_schemes[center].table_words(v))
            .sum();
        let own_words: usize = self
            .own_cluster(v)
            .map_or(0, |own| own.labels().iter().map(|l| 1 + l.words()).sum());
        tree_words + own_words
    }

    /// Size of `v`'s label in `O(log n)` words: the vertex id, and per entry
    /// its level, pivot and distance plus the tree label it names.
    pub fn label_words(&self, v: NodeId) -> usize {
        let entry_words: usize = self.labels[v]
            .entries
            .iter()
            .map(|e| 3 + self.tree_label(e.pivot, v).map_or(0, TreeLabel::words))
            .sum();
        1 + entry_words
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
    /// destination's tree label there, borrowed from that tree's scheme —
    /// using only `from`'s table and `to`'s label, exactly as a real node
    /// would. The scan is the storage-generic
    /// [`find_tree_via`](crate::access::find_tree_via) kernel.
    ///
    /// # Errors
    ///
    /// Out-of-range vertices and the (low-probability) no-common-tree case.
    pub fn find_tree(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(NodeId, &TreeLabel), RoutingError> {
        let (root, label) = access::find_tree_via(&self, from, to)?;
        Ok((root, label.0))
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
/// the per-vertex tree lists and labels, and read every tree table and tree
/// label from the per-centre tree schemes.
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
        this.own_cluster(center)?
            .label(member)
            .map(TreeLabel::as_view)
    }

    #[inline]
    fn label_entry_count(&self, to: NodeId) -> usize {
        self.labels[to].entries.len()
    }

    #[inline]
    fn label_entry(&self, to: NodeId, i: usize) -> (NodeId, Option<TreeLabelRef<'a>>) {
        let this: &'a RoutingScheme = self;
        let pivot = this.labels[to].entries[i].pivot;
        (pivot, this.tree_label(pivot, to).map(TreeLabel::as_view))
    }

    #[inline]
    fn in_tree(&self, v: NodeId, root: NodeId) -> bool {
        self.trees[v].binary_search(&root).is_ok()
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
                assert!(scheme.trees_of(u).binary_search(&root).is_ok() || root == u);
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
