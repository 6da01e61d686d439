//! The storage-generic forwarding kernel: one `Find-tree` + one hop loop
//! shared by every representation of a routing scheme.
//!
//! The paper's forwarding decision is a pure function of `from`'s table and
//! `to`'s label, whatever those are stored in. [`next_hop_view`] already
//! makes the *per-hop step* storage-generic; this module does the same for
//! the *query*: [`RouteAccess`] abstracts the handful of lookups a query
//! needs (the `4k−5` own-cluster refinement, the destination's level-ordered
//! label entries, tree membership, and per-tree table resolution), and
//! [`find_tree_via`] / [`forward_via`] run Algorithm 1 and the forwarding
//! loop over any implementation.
//!
//! Two accessors instantiate the kernel: the in-memory
//! [`RoutingScheme`](crate::scheme::RoutingScheme) (via `&RoutingScheme`)
//! and, in `en_wire`, the validated flat snapshot. Because both share this
//! single loop, their outcomes are bit-identical by construction, not by
//! convention.
//!
//! The loop also weighs the route in the host graph as it goes, the way a
//! node knows the port it forwards through: every tree table carries the
//! port of its parent edge, so each hop's weight is one adjacency-list
//! read at a vertex whose table the loop has already resolved (see
//! [`forward_via`]).

use en_graph::{dist_add, Dist, NodeId, Path, Weight, WeightedGraph};
use en_tree_routing::{next_hop_view, scheme::TreeRoutingError, LabelView, TableView};

use crate::error::RoutingError;

/// Storage-generic access to one routing scheme, as consumed by the
/// forwarding kernel.
///
/// Implementors are cheap `Copy` handles over storage that is consistent by
/// construction (an assembled scheme, or a snapshot that passed full
/// validation), so no lookup can fail: a miss is `None`/`false`, and the
/// kernel turns misses into [`RoutingError`]s.
pub trait RouteAccess: Copy {
    /// The packet-header label view forwarding consumes.
    type Label: LabelView;
    /// The per-vertex table view forwarding consumes.
    type Table: TableView;
    /// A resolved handle to one cluster tree.
    type Tree: Copy;

    /// Number of host vertices.
    fn n(&self) -> usize;

    /// The `4k−5` refinement lookup: `member`'s label in `center`'s own
    /// cluster, if `center` is a level-0 centre storing it.
    fn own_label(&self, center: NodeId, member: NodeId) -> Option<Self::Label>;

    /// Number of label entries `to` carries (its per-level pivots).
    fn label_entry_count(&self, to: NodeId) -> usize;

    /// `to`'s `i`-th label entry (`i` below [`Self::label_entry_count`]), in
    /// ascending level order: the pivot, and `to`'s tree label in the
    /// pivot's tree when `to` belongs to it.
    fn label_entry(&self, to: NodeId, i: usize) -> (NodeId, Option<Self::Label>);

    /// Whether `v` belongs to the cluster tree rooted at `root` (answered
    /// from `v`'s own table, as a real node would).
    fn in_tree(&self, v: NodeId, root: NodeId) -> bool;

    /// Resolves the cluster tree rooted at `root`, with its hierarchy level.
    fn tree(&self, root: NodeId) -> Option<(Self::Tree, usize)>;

    /// The routing table of `v` inside `tree`, if `v` is a member.
    fn table(&self, tree: &Self::Tree, v: NodeId) -> Option<Self::Table>;
}

fn check_node(n: usize, v: NodeId) -> Result<(), RoutingError> {
    if v < n {
        Ok(())
    } else {
        Err(RoutingError::NodeOutOfRange { node: v, n })
    }
}

/// Algorithm 1 (`Find-tree`) plus the \[TZ01\] `4k−5` refinement, over any
/// [`RouteAccess`]: the centre of the tree a packet from `from` to `to` will
/// use, and the destination's tree label there.
///
/// # Errors
///
/// Out-of-range vertices and the (low-probability) no-common-tree case.
pub fn find_tree_via<A: RouteAccess>(
    access: &A,
    from: NodeId,
    to: NodeId,
) -> Result<(NodeId, A::Label), RoutingError> {
    check_node(access.n(), from)?;
    check_node(access.n(), to)?;
    // The 4k−5 refinement: `from` is a level-0 centre storing `to`'s label
    // in its own-cluster table.
    if let Some(label) = access.own_label(from, to) {
        return Ok((from, label));
    }
    // Level scan: entries are stored in ascending level order.
    for i in 0..access.label_entry_count(to) {
        let (pivot, tree_label) = access.label_entry(to, i);
        let Some(tree_label) = tree_label else {
            continue; // `to` itself is not in this pivot's tree.
        };
        if access.in_tree(from, pivot) {
            return Ok((pivot, tree_label));
        }
    }
    Err(RoutingError::NoCommonTree { from, to })
}

/// The weight of the edge between `at` and `towards`, read through `port`
/// at `at` when that port leads to `towards`, and otherwise found by
/// scanning `at`'s adjacency list (a port resolved in another graph, or
/// none at all); `None` when there is no such edge.
#[inline]
fn weigh(g: &WeightedGraph, at: NodeId, port: Option<u32>, towards: NodeId) -> Option<Weight> {
    match port.and_then(|p| g.neighbors(at).get(p as usize)) {
        Some(nb) if nb.node == towards => Some(nb.weight),
        _ => g.edge_weight(at, towards),
    }
}

/// THE forwarding loop: [`find_tree_via`], then hop-by-hop
/// [`next_hop_view`] steps through the chosen tree until arrival, bounded
/// by `n + 1` hops. Returns the tree root, its level, the traversed path,
/// and the path's weighted length in `g`.
///
/// Each hop is weighed through a parent port the loop reads anyway. A hop
/// up to the sender's parent is weighed at the sender, through its own
/// [`TableView::parent_port`]. Any other hop goes down to a child, so it is
/// weighed at the receiver, through the child's parent port, once the
/// child's table has resolved. The graph is indexed only by vertices whose
/// table resolved.
///
/// # Errors
///
/// Everything [`find_tree_via`] reports, plus a vertex falling out of the
/// tree mid-route and a hop budget overrun (both impossible on a consistent
/// scheme). When forwarding succeeds but a hop is not an edge of `g` (the
/// scheme was built for another graph), [`RoutingError::NonEdgeHop`] names
/// the first such hop; forwarding errors take precedence over it.
///
/// # Panics
///
/// Panics if a vertex of the route is not a vertex of `g` (a graph with
/// fewer vertices than the scheme).
pub fn forward_via<A: RouteAccess>(
    access: &A,
    g: &WeightedGraph,
    from: NodeId,
    to: NodeId,
) -> Result<(NodeId, usize, Path, Dist), RoutingError> {
    let (root, header_label) = find_tree_via(access, from, to)?;
    let (tree, level) = access
        .tree(root)
        .ok_or_else(|| RoutingError::TreeRouting(format!("no cluster for centre {root}")))?;
    // Tree routes are short (≤ 2·depth of a cluster tree); reserve enough
    // that typical routes never reallocate mid-loop.
    let mut path = Path::trivial_with_capacity(from, 16);
    // The length so far, or the first hop that is not an edge of `g` —
    // reported only if forwarding itself succeeds.
    let mut length: Result<Dist, (NodeId, NodeId)> = Ok(0);
    let mut add_hop = |hop: (NodeId, NodeId), weight: Option<Weight>| {
        if let Ok(total) = length {
            length = weight.map(|w| dist_add(total, w)).ok_or(hop);
        }
    };
    // The sender of a down-hop into `current`, still to be weighed there.
    let mut down_from: Option<NodeId> = None;
    let mut current = from;
    for _ in 0..=access.n() {
        let table = access
            .table(&tree, current)
            .ok_or(TreeRoutingError::NotInTree { vertex: current })?;
        if let Some(sender) = down_from.take() {
            add_hop(
                (sender, current),
                weigh(g, current, table.parent_port(), sender),
            );
        }
        match next_hop_view(table, header_label)? {
            None => {
                return length
                    .map(|length| (root, level, path, length))
                    .map_err(|(from, to)| RoutingError::NonEdgeHop { from, to })
            }
            Some(next) => {
                if table.parent() == Some(next) {
                    add_hop(
                        (current, next),
                        weigh(g, current, table.parent_port(), next),
                    );
                } else {
                    down_from = Some(current);
                }
                path.push(next);
                current = next;
            }
        }
    }
    Err(RoutingError::TreeRouting(format!(
        "forwarding from {from} to {to} through tree {root} did not terminate"
    )))
}
