//! Construction of the two-level tree-routing scheme and the forwarding logic.
//!
//! Forwarding is written once, generically over the
//! [`TableView`]/[`LabelView`] traits ([`next_hop_view`]): the owned
//! [`TreeTable`]/[`TreeLabel`] structs and any flat serialized representation
//! (e.g. the `en_wire` snapshot columns) share the exact same step logic, so
//! they cannot drift apart.

use std::cmp::Reverse;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use en_graph::forest::{LocalTopology, TreeView, NO_LOCAL_PARENT};
use en_graph::{NodeId, Path, WeightedGraph};

use crate::cost::theorem7_rounds;
use crate::label::{GlobalException, LabelView, LocalLabel, LocalLabelView, TreeLabel};
use crate::table::{GlobalHeavyEntry, TableView, TreeTable};

/// Configuration of the tree-routing construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRoutingConfig {
    /// Seed for the portal sampling.
    pub seed: u64,
    /// Expected number of portal vertices `γ`. `None` uses the paper's choice
    /// `γ = √|T|`; `Some(0)` disables sampling entirely, which degenerates the
    /// scheme to the classic single-level Thorup–Zwick tree routing.
    pub gamma: Option<usize>,
}

impl TreeRoutingConfig {
    /// The default configuration (`γ = √|T|`) with the given seed.
    pub fn new(seed: u64) -> Self {
        TreeRoutingConfig { seed, gamma: None }
    }

    /// Overrides the expected portal count.
    pub fn with_gamma(mut self, gamma: usize) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// The classic single-level scheme (no portals besides the root).
    pub fn single_level() -> Self {
        TreeRoutingConfig {
            seed: 0,
            gamma: Some(0),
        }
    }
}

/// Errors that can occur while forwarding a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeRoutingError {
    /// The queried vertex is not part of the tree.
    NotInTree {
        /// The offending vertex.
        vertex: NodeId,
    },
    /// A routing table invariant was violated (e.g. a missing parent when one
    /// is required); indicates a construction bug.
    CorruptTable {
        /// The vertex whose table was inconsistent.
        vertex: NodeId,
    },
    /// Forwarding did not reach the destination within `n` hops.
    RoutingLoop {
        /// The source of the failed route.
        from: NodeId,
        /// The destination of the failed route.
        to: NodeId,
    },
}

impl std::fmt::Display for TreeRoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeRoutingError::NotInTree { vertex } => {
                write!(f, "vertex {vertex} is not in the tree")
            }
            TreeRoutingError::CorruptTable { vertex } => {
                write!(f, "routing table of vertex {vertex} is inconsistent")
            }
            TreeRoutingError::RoutingLoop { from, to } => {
                write!(f, "routing from {from} to {to} did not terminate")
            }
        }
    }
}

impl std::error::Error for TreeRoutingError {}

/// The complete routing scheme for one tree: a table and a label per member.
///
/// Tables and labels are stored per member vertex (not per host vertex), so a
/// scheme over a small cluster tree of a huge host graph stays proportional to
/// the cluster size — the routing scheme of Section 4 builds one of these per
/// cluster centre. Members are kept as a sorted id array with the tables and
/// labels aligned to it: lookups are a binary search and construction is a
/// straight append in member order, with no hashing anywhere — a cluster
/// family builds one scheme per centre and then queries a table or label per
/// member, so both sides of this trade are on the Section-4 assembly hot
/// path.
#[derive(Debug, Clone)]
pub struct TreeRoutingScheme {
    root: NodeId,
    host_size: usize,
    /// Member vertex ids, ascending; `tables` and `labels` are aligned.
    member_ids: Vec<u32>,
    tables: Vec<TreeTable>,
    /// The only copy of each member's label: the Section-4 scheme names a
    /// label by (centre, vertex) and reads it here. The lists inside a
    /// label are shared (see [`crate::label`]): one global exception list
    /// per subtree and one local exception list per non-heavy edge, so
    /// building a scheme copies no list per member.
    labels: Vec<TreeLabel>,
    portals: Vec<NodeId>,
}

/// Outcome of one local TZ routing step.
enum LocalStep {
    Arrived,
    Hop(NodeId),
}

/// One local TZ routing step towards `target`, generic over the storage.
fn local_step_view<T: TableView, L: LocalLabelView>(
    table: T,
    target: L,
) -> Result<LocalStep, TreeRoutingError> {
    if table.a_local() == target.a() {
        return Ok(LocalStep::Arrived);
    }
    if !table.local_interval_contains(target.a()) {
        let parent = table.parent().ok_or(TreeRoutingError::CorruptTable {
            vertex: table.vertex(),
        })?;
        return Ok(LocalStep::Hop(parent));
    }
    if let Some(child) = target.exception_at(table.vertex()) {
        return Ok(LocalStep::Hop(child));
    }
    let heavy = table.heavy_child().ok_or(TreeRoutingError::CorruptTable {
        vertex: table.vertex(),
    })?;
    Ok(LocalStep::Hop(heavy))
}

/// Computes the next hop from the vertex owning `table` towards the vertex
/// described by `label`, using only that table and the label — the single
/// forwarding implementation every representation routes through.
///
/// Returns `Ok(None)` when the owning vertex *is* the destination.
///
/// # Errors
///
/// Returns [`TreeRoutingError::CorruptTable`] if a table invariant is
/// violated (e.g. a missing parent where one is required).
pub fn next_hop_view<T: TableView, L: LabelView>(
    table: T,
    label: L,
) -> Result<Option<NodeId>, TreeRoutingError> {
    // Same subtree: pure local TZ routing on the destination's local label.
    if table.subtree_root() == label.subtree_root() {
        return match local_step_view(table, label.local())? {
            LocalStep::Arrived => Ok(None),
            LocalStep::Hop(next) => Ok(Some(next)),
        };
    }
    // Destination's subtree is *not* a T'-descendant of ours: climb.
    if !table.global_interval_contains(label.a_global()) {
        let parent = table.parent().ok_or(TreeRoutingError::CorruptTable {
            vertex: table.vertex(),
        })?;
        return Ok(Some(parent));
    }
    // Destination's subtree is a strict T'-descendant of ours: route to the
    // portal of the correct T' child, then cross into that child subtree.
    let (step, child_subtree) = match label.global_exception_at(table.subtree_root()) {
        Some((child, portal_label)) => (local_step_view(table, portal_label)?, child),
        None => {
            let (child, portal_label) =
                table.global_heavy().ok_or(TreeRoutingError::CorruptTable {
                    vertex: table.vertex(),
                })?;
            (local_step_view(table, portal_label)?, child)
        }
    };
    match step {
        LocalStep::Arrived => Ok(Some(child_subtree)),
        LocalStep::Hop(next) => Ok(Some(next)),
    }
}

impl TreeRoutingScheme {
    /// Builds the scheme for any [`TreeView`] — a dense
    /// [`RootedTree`](en_graph::tree::RootedTree) or a zero-copy cluster
    /// slice of an [`en_graph::forest::ClusterForest`].
    ///
    /// All working state lives in *local member-index space*, so building the
    /// scheme for a tree of `m` members costs `O(m)` memory regardless of the
    /// host-graph size — a cluster family assembles one scheme per centre, so
    /// this is squarely on the Section-4 assembly hot path.
    ///
    /// # Panics
    ///
    /// Panics only if the view violates the [`TreeView`] topology contract
    /// (which [`RootedTree`](en_graph::tree::RootedTree) and
    /// [`ClusterForest`](en_graph::forest::ClusterForest) construction
    /// prevent).
    pub fn build<T: TreeView>(tree: &T, config: &TreeRoutingConfig) -> Self {
        en_obs::counter_add("tree_routing.schemes_built", 1);
        Self::build_topology(&tree.topology(), config)
    }

    fn build_topology(topo: &LocalTopology<'_>, config: &TreeRoutingConfig) -> Self {
        let n_host = topo.host_size;
        let members = topo.members.as_ref();
        let parent_idx = topo.parent_idx.as_ref();
        let m = members.len();
        let root_local = topo.root_pos;
        let root = members[root_local] as NodeId;
        // Local index -> host vertex id (members are ascending, so local
        // order and vertex order agree — tie-breaks below rely on this).
        let vid = |i: usize| members[i] as NodeId;
        let parent = |i: usize| parent_idx[i] as usize;

        // --- Portal sampling -------------------------------------------------
        // The RNG stream is one draw per non-root member in ascending vertex
        // order, identical to the dense-representation code this replaced.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let gamma = config
            .gamma
            .unwrap_or_else(|| (m as f64).sqrt().ceil() as usize);
        let p = if m == 0 {
            0.0
        } else {
            (gamma as f64 / m as f64).clamp(0.0, 1.0)
        };
        let mut is_portal = vec![false; m];
        for (i, portal) in is_portal.iter_mut().enumerate() {
            if i != root_local && p > 0.0 && rng.gen_bool(p) {
                *portal = true;
            }
        }
        is_portal[root_local] = true;

        // --- Children (CSR, ascending per parent) and preorder of T -----------
        let mut child_off = vec![0u32; m + 1];
        for &p in parent_idx {
            if p != NO_LOCAL_PARENT {
                child_off[p as usize + 1] += 1;
            }
        }
        for i in 0..m {
            child_off[i + 1] += child_off[i];
        }
        let mut children = vec![0u32; child_off[m] as usize];
        let mut cursor = child_off[..m].to_vec();
        for (i, &p) in parent_idx.iter().enumerate() {
            if p != NO_LOCAL_PARENT {
                children[cursor[p as usize] as usize] = i as u32;
                cursor[p as usize] += 1;
            }
        }
        // The portals, in T-preorder, are the subtree roots; a portal's rank
        // in that order is its subtree's index, and `sub[v]` is the index of
        // the subtree containing `v`. T-preorder restricted to the portals is
        // also the preorder of the virtual tree T' (each portal's T'-subtree
        // is a contiguous run of it), so the rank is `T_w`'s DFS entry time
        // in T'.
        let mut preorder = Vec::with_capacity(m);
        let mut portals: Vec<usize> = Vec::new();
        let mut sub = vec![0u32; m];
        let mut stack = vec![root_local];
        while let Some(v) = stack.pop() {
            preorder.push(v);
            sub[v] = if is_portal[v] {
                portals.push(v);
                (portals.len() - 1) as u32
            } else {
                sub[parent(v)]
            };
            let kids = &children[child_off[v] as usize..child_off[v + 1] as usize];
            stack.extend(kids.iter().rev().map(|&c| c as usize));
        }
        let num_subtrees = portals.len();

        // --- Sizes and heavy children of the subtrees and of T' ---------------
        // One reverse-preorder sweep: a non-portal is a local child of its
        // parent, a portal is a T'-child of its parent's subtree. The heavy
        // child is the largest, ties to the smallest local index.
        let mut local_size = vec![1u64; m];
        let mut heavy_child: Vec<Option<usize>> = vec![None; m];
        let mut tprime_size = vec![1u64; num_subtrees];
        let mut tprime_heavy: Vec<Option<usize>> = vec![None; num_subtrees];
        for &v in preorder.iter().skip(1).rev() {
            let p = parent(v);
            if is_portal[v] {
                let (w, t) = (sub[p] as usize, sub[v] as usize);
                tprime_size[w] += tprime_size[t];
                if tprime_heavy[w].is_none_or(|h| {
                    (tprime_size[t], Reverse(portals[t])) > (tprime_size[h], Reverse(portals[h]))
                }) {
                    tprime_heavy[w] = Some(t);
                }
            } else {
                local_size[p] += local_size[v];
                if heavy_child[p]
                    .is_none_or(|h| (local_size[v], Reverse(v)) > (local_size[h], Reverse(h)))
                {
                    heavy_child[p] = Some(v);
                }
            }
        }

        // --- Labels and T'-level entries, in one preorder sweep ----------------
        // A subtree's local DFS order is T-preorder restricted to it (its
        // local children are the non-portal children, visited in the same
        // ascending order), so the local entry time is a per-subtree counter.
        // Lists are shared, not copied: a heavy child's local exception list
        // *is* its parent's, a T'-heavy child subtree's global exception list
        // *is* its T'-parent's, and any other child gets its parent's list
        // plus one entry. Each subtree's global list and global-heavy entry
        // is built once and held by every member. Exceptions are stored as
        // host vertex ids (the labels travel in packet headers), so the
        // conversion happens as they are recorded.
        let no_local: Arc<[(NodeId, NodeId)]> = Arc::from([]);
        let mut local_label = vec![
            LocalLabel {
                a: 0,
                exceptions: Arc::clone(&no_local),
            };
            m
        ];
        let mut next_a = vec![0u64; num_subtrees];
        let mut global_exceptions: Vec<Arc<[GlobalException]>> = Vec::with_capacity(num_subtrees);
        let mut global_heavy: Vec<Option<Arc<GlobalHeavyEntry>>> = vec![None; num_subtrees];
        for &x in &preorder {
            let t = sub[x] as usize;
            let a = next_a[t];
            next_a[t] += 1;
            if x == root_local {
                global_exceptions.push(Arc::from([]));
                local_label[x].a = a;
                continue;
            }
            let p = parent(x);
            if !is_portal[x] {
                let inherited = &local_label[p].exceptions;
                let exceptions = if heavy_child[p] == Some(x) {
                    Arc::clone(inherited)
                } else {
                    inherited
                        .iter()
                        .copied()
                        .chain(std::iter::once((vid(p), vid(x))))
                        .collect()
                };
                local_label[x] = LocalLabel { a, exceptions };
                continue;
            }
            local_label[x].a = a;
            // A portal roots T_x; its T'-parent is the subtree of its parent
            // `p`, and `p` (already labelled) is the portal that reaches it.
            let w = sub[p] as usize;
            let portal_label = local_label[p].clone();
            let inherited = &global_exceptions[w];
            let list = if tprime_heavy[w] == Some(t) {
                global_heavy[w] = Some(Arc::new(GlobalHeavyEntry {
                    child_subtree: vid(x),
                    portal: vid(p),
                    portal_label,
                }));
                Arc::clone(inherited)
            } else {
                let exception = GlobalException {
                    parent_subtree: vid(portals[w]),
                    child_subtree: vid(x),
                    portal: vid(p),
                    portal_label,
                };
                inherited
                    .iter()
                    .cloned()
                    .chain(std::iter::once(exception))
                    .collect()
            };
            global_exceptions.push(list);
        }

        // --- Assemble tables and labels -----------------------------------------
        // Members are ascending, so pushing in local order keeps the arrays
        // binary-searchable by vertex id.
        let mut tables: Vec<TreeTable> = Vec::with_capacity(m);
        let mut labels: Vec<TreeLabel> = Vec::with_capacity(m);
        for (i, local) in local_label.into_iter().enumerate() {
            let v = vid(i);
            let t = sub[i] as usize;
            let w = vid(portals[t]);
            let a_global = t as u64;
            tables.push(TreeTable {
                vertex: v,
                tree_root: root,
                subtree_root: w,
                parent: (parent_idx[i] != NO_LOCAL_PARENT).then(|| vid(parent(i))),
                parent_port: None,
                heavy_child: heavy_child[i].map(vid),
                a_local: local.a,
                b_local: local.a + local_size[i],
                a_global,
                b_global: a_global + tprime_size[t],
                global_heavy: global_heavy[t].clone(),
            });
            labels.push(TreeLabel {
                vertex: v,
                subtree_root: w,
                local,
                a_global,
                global_exceptions: Arc::clone(&global_exceptions[t]),
            });
        }

        TreeRoutingScheme {
            root,
            host_size: n_host,
            member_ids: members.to_vec(),
            tables,
            labels,
            portals: portals.into_iter().map(vid).collect(),
        }
    }

    /// Resolves every table's [`TreeTable::parent_port`] in `g`, the host
    /// graph the tree was built in: one scan of each member's adjacency
    /// list, so a route can later weigh an edge through its port instead
    /// of scanning again. A parent that is not adjacent keeps `None`.
    ///
    /// # Panics
    ///
    /// Panics if a member is not a vertex of `g`.
    pub fn resolve_parent_ports(&mut self, g: &WeightedGraph) {
        for t in &mut self.tables {
            t.parent_port = t
                .parent
                .and_then(|p| g.port_towards(t.vertex, p))
                .and_then(|port| u32::try_from(port).ok());
        }
    }

    /// Position of `v` in the sorted member array, if it is a member.
    #[inline]
    fn index_of(&self, v: NodeId) -> Option<usize> {
        if v > u32::MAX as usize {
            return None;
        }
        self.member_ids.binary_search(&(v as u32)).ok()
    }

    /// The root of the routed tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of vertices in the tree.
    pub fn tree_size(&self) -> usize {
        self.member_ids.len()
    }

    /// The portal set `U(T)` (always contains the root).
    pub fn portals(&self) -> &[NodeId] {
        &self.portals
    }

    /// The routing table of `v`, if `v` is in the tree.
    pub fn table(&self, v: NodeId) -> Option<&TreeTable> {
        self.index_of(v).map(|i| &self.tables[i])
    }

    /// Every member's table, in ascending member order (aligned with
    /// [`Self::members`]).
    pub fn tables(&self) -> &[TreeTable] {
        &self.tables
    }

    /// The label of `v`, if `v` is in the tree.
    pub fn label(&self, v: NodeId) -> Option<&TreeLabel> {
        self.index_of(v).map(|i| &self.labels[i])
    }

    /// Every member's label, in ascending member order (aligned with
    /// [`Self::members`]).
    pub fn labels(&self) -> &[TreeLabel] {
        &self.labels
    }

    /// The member vertices of the routed tree, in increasing id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member_ids.iter().map(|&v| v as NodeId)
    }

    /// Table size of `v` in words (0 if not a member).
    pub fn table_words(&self, v: NodeId) -> usize {
        self.table(v).map_or(0, TreeTable::words)
    }

    /// Label size of `v` in words (0 if not a member).
    pub fn label_words(&self, v: NodeId) -> usize {
        self.label(v).map_or(0, TreeLabel::words)
    }

    /// The largest table over all members, in words.
    pub fn max_table_words(&self) -> usize {
        self.tables.iter().map(TreeTable::words).max().unwrap_or(0)
    }

    /// The largest label over all members, in words.
    pub fn max_label_words(&self) -> usize {
        self.labels.iter().map(TreeLabel::words).max().unwrap_or(0)
    }

    /// Round charge of building this scheme on a host with hop-diameter `d`
    /// (Theorem 7).
    pub fn construction_rounds(&self, d: usize) -> usize {
        theorem7_rounds(self.tree_size(), d)
    }

    /// Computes the next hop from `current` towards the vertex described by
    /// `label`, using only `current`'s table and the label (the information a
    /// real node would have). Delegates to [`next_hop_view`].
    ///
    /// Returns `Ok(None)` when `current` *is* the destination.
    ///
    /// # Errors
    ///
    /// Returns an error if `current` is not in the tree or a table invariant
    /// is violated.
    pub fn next_hop(
        &self,
        current: NodeId,
        label: &TreeLabel,
    ) -> Result<Option<NodeId>, TreeRoutingError> {
        let table = self
            .table(current)
            .ok_or(TreeRoutingError::NotInTree { vertex: current })?;
        next_hop_view(table, label.as_view())
    }

    /// Routes a packet from `from` to `to`, returning the traversed path.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is not in the tree, or forwarding
    /// fails to terminate within `host_size` hops (which would indicate a bug).
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Path, TreeRoutingError> {
        let label = self
            .label(to)
            .ok_or(TreeRoutingError::NotInTree { vertex: to })?;
        if self.table(from).is_none() {
            return Err(TreeRoutingError::NotInTree { vertex: from });
        }
        let mut path = Path::trivial(from);
        let mut current = from;
        for _ in 0..=self.host_size {
            match self.next_hop(current, label)? {
                None => return Ok(path),
                Some(next) => {
                    path.push(next);
                    current = next;
                }
            }
        }
        Err(TreeRoutingError::RoutingLoop { from, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::dijkstra::dijkstra;
    use en_graph::generators::{erdos_renyi_connected, path, random_tree, star, GeneratorConfig};
    use en_graph::tree::RootedTree;
    use en_graph::WeightedGraph;

    fn spt_of(g: &WeightedGraph, root: NodeId) -> RootedTree {
        RootedTree::from_shortest_paths(g, &dijkstra(g, root))
    }

    fn assert_exact_routing(tree: &RootedTree, scheme: &TreeRoutingScheme) {
        let members = tree.members();
        for &u in &members {
            for &v in &members {
                let route = scheme.route(u, v).unwrap_or_else(|e| {
                    panic!("route {u} -> {v} failed: {e}");
                });
                let expected = tree.tree_path(u, v).expect("both are members");
                assert_eq!(
                    route.nodes(),
                    expected.nodes(),
                    "route {u} -> {v} deviates from the tree path"
                );
            }
        }
    }

    #[test]
    fn single_level_scheme_routes_exactly_on_random_trees() {
        for seed in 0..3 {
            let g = random_tree(&GeneratorConfig::new(40, seed));
            let tree = spt_of(&g, 0);
            let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::single_level());
            assert_eq!(scheme.portals(), &[0]);
            assert_exact_routing(&tree, &scheme);
        }
    }

    #[test]
    fn two_level_scheme_routes_exactly_on_random_trees() {
        for seed in 0..3 {
            let g = random_tree(&GeneratorConfig::new(60, seed + 100));
            let tree = spt_of(&g, 5);
            let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(seed));
            assert!(!scheme.portals().is_empty());
            assert_exact_routing(&tree, &scheme);
        }
    }

    #[test]
    fn two_level_scheme_routes_exactly_on_spt_of_random_graph() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(70, 9).with_weights(1, 50), 0.06);
        let tree = spt_of(&g, 3);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(4));
        assert_exact_routing(&tree, &scheme);
    }

    #[test]
    fn many_portals_still_route_exactly() {
        // Force every other vertex to be a portal (gamma = tree size).
        let g = random_tree(&GeneratorConfig::new(50, 77));
        let tree = spt_of(&g, 0);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(1).with_gamma(50));
        assert!(scheme.portals().len() > 10);
        assert_exact_routing(&tree, &scheme);
    }

    #[test]
    fn subtree_invariant_lists_are_shared_not_copied() {
        // Many portals (gamma = |T|/8), so there are dozens of multi-member
        // subtrees, T' exceptions and global-heavy entries at every depth.
        let g = random_tree(&GeneratorConfig::new(400, 77));
        let tree = spt_of(&g, 0);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(1).with_gamma(50));
        assert!(scheme.portals().len() > 30);
        let (mut global_lists, mut heavy_entries, mut local_lists) = (0, 0, 0);
        for v in scheme.members() {
            let (label, table) = (scheme.label(v).unwrap(), scheme.table(v).unwrap());
            let w = label.subtree_root;
            let (root_label, root_table) = (scheme.label(w).unwrap(), scheme.table(w).unwrap());
            // One global exception list and one global-heavy entry per
            // subtree, held by every member.
            assert!(Arc::ptr_eq(
                &label.global_exceptions,
                &root_label.global_exceptions
            ));
            if v != w && !label.global_exceptions.is_empty() {
                global_lists += 1;
            }
            match (&table.global_heavy, &root_table.global_heavy) {
                (Some(gh), Some(root_gh)) => {
                    assert!(Arc::ptr_eq(gh, root_gh));
                    // The portal label is the portal's own exception list.
                    let portal = scheme.label(gh.portal).unwrap();
                    assert!(Arc::ptr_eq(
                        &gh.portal_label.exceptions,
                        &portal.local.exceptions
                    ));
                    if v != w {
                        heavy_entries += 1;
                    }
                }
                (None, None) => {}
                _ => panic!("{v} and its subtree root {w} disagree on the global-heavy entry"),
            }
            for e in label.global_exceptions.iter() {
                let portal = scheme.label(e.portal).unwrap();
                assert!(Arc::ptr_eq(
                    &e.portal_label.exceptions,
                    &portal.local.exceptions
                ));
            }
            // A heavy child adds no exception, so it holds its parent's list.
            if let Some(h) = table.heavy_child {
                let child = scheme.label(h).unwrap();
                assert!(Arc::ptr_eq(
                    &child.local.exceptions,
                    &label.local.exceptions
                ));
                if !label.local.exceptions.is_empty() {
                    local_lists += 1;
                }
            }
        }
        // The fixture exercises each kind of sharing on non-empty lists.
        assert!(global_lists > 0 && heavy_entries > 0 && local_lists > 0);
    }

    #[test]
    fn resolved_parent_ports_lead_to_the_parent() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(70, 9).with_weights(1, 50), 0.06);
        let tree = spt_of(&g, 3);
        let mut scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(4));
        assert!(scheme.tables.iter().all(|t| t.parent_port.is_none()));
        scheme.resolve_parent_ports(&g);
        for t in &scheme.tables {
            match t.parent {
                Some(p) => {
                    let port = t.parent_port.expect("a tree edge is an edge of g") as usize;
                    assert_eq!(g.neighbors(t.vertex)[port].node, p, "vertex {}", t.vertex);
                }
                None => assert_eq!(t.parent_port, None),
            }
        }
        // A parent that is not adjacent in the graph has no port.
        let edgeless = WeightedGraph::new(g.num_nodes());
        scheme.resolve_parent_ports(&edgeless);
        assert!(scheme.tables.iter().all(|t| t.parent_port.is_none()));
    }

    #[test]
    fn path_tree_is_the_hard_case_for_depth_but_still_exact() {
        let g = path(&GeneratorConfig::new(60, 8));
        let tree = spt_of(&g, 0);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(2));
        assert_exact_routing(&tree, &scheme);
    }

    #[test]
    fn star_tree_routes_exactly() {
        let g = star(&GeneratorConfig::new(30, 4));
        let tree = spt_of(&g, 0);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(3));
        assert_exact_routing(&tree, &scheme);
    }

    #[test]
    fn partial_tree_over_host_graph() {
        // Tree covering only part of the host: routing between members works,
        // non-members are rejected.
        let mut tree = RootedTree::new(10, 0);
        tree.attach(1, 0, 3);
        tree.attach(2, 0, 1);
        tree.attach(3, 1, 2);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(0));
        assert!(scheme.route(3, 2).is_ok());
        assert!(matches!(
            scheme.route(3, 7),
            Err(TreeRoutingError::NotInTree { vertex: 7 })
        ));
        assert!(matches!(
            scheme.route(8, 3),
            Err(TreeRoutingError::NotInTree { vertex: 8 })
        ));
        assert_eq!(scheme.table_words(7), 0);
    }

    #[test]
    fn table_and_label_sizes_are_polylogarithmic() {
        let n = 200;
        let g = random_tree(&GeneratorConfig::new(n, 21));
        let tree = spt_of(&g, 0);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(5));
        let log2n = (n as f64).log2();
        // Theorem 7: tables O(log n) words, labels O(log^2 n) words. Generous
        // explicit constants keep the test robust across seeds.
        assert!(
            scheme.max_table_words() <= (8.0 * log2n) as usize + 16,
            "table too large: {}",
            scheme.max_table_words()
        );
        assert!(
            scheme.max_label_words() <= (8.0 * log2n * log2n) as usize + 32,
            "label too large: {}",
            scheme.max_label_words()
        );
    }

    #[test]
    fn construction_round_charge_is_positive_and_monotone_in_d() {
        let g = random_tree(&GeneratorConfig::new(64, 2));
        let tree = spt_of(&g, 0);
        let scheme = TreeRoutingScheme::build(&tree, &TreeRoutingConfig::new(5));
        assert!(scheme.construction_rounds(0) > 0);
        assert!(scheme.construction_rounds(100) > scheme.construction_rounds(0));
    }

    #[test]
    fn error_display_messages() {
        let e = TreeRoutingError::NotInTree { vertex: 4 };
        assert!(e.to_string().contains('4'));
        let e = TreeRoutingError::RoutingLoop { from: 1, to: 2 };
        assert!(e.to_string().contains("did not terminate"));
        let e = TreeRoutingError::CorruptTable { vertex: 3 };
        assert!(e.to_string().contains("inconsistent"));
    }
}
