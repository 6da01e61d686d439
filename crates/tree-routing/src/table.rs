//! Tree-routing tables: the local state each vertex stores for one tree.

use std::sync::Arc;

use en_graph::NodeId;

use crate::label::{LocalLabel, LocalLabelView};

/// Information a vertex in subtree `T_w` keeps about the heavy child of `w` in
/// the virtual tree `T'` (the one `T'`-child whose identity is *not* carried
/// in packet labels).
///
/// The entry depends only on `w`, so the owned scheme builds it once per
/// subtree and every member's [`TreeTable`] shares it behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHeavyEntry {
    /// The heavy child `h'(w)` of `w` in `T'` (a subtree root).
    pub child_subtree: NodeId,
    /// The portal `y ∈ T_w`: the parent of `h'(w)` in the real tree `T`.
    pub portal: NodeId,
    /// The local label of the portal inside `T_w` (routes packets to it).
    pub portal_label: LocalLabel,
}

impl GlobalHeavyEntry {
    /// Size in words.
    pub fn words(&self) -> usize {
        2 + self.portal_label.words()
    }
}

/// The routing table a single vertex stores for a single tree.
///
/// Per the paper this is `O(log n)` words: the local TZ table
/// (parent, heavy child, DFS interval) for the vertex's subtree, plus the
/// `T'`-level information of its subtree root (which the subtree root
/// propagates to all vertices of its subtree during the construction).
///
/// That `T'`-level part is subtree-invariant, so the owned scheme shares it
/// instead of copying it: [`Self::global_heavy`] is one allocation per
/// subtree, and the portal label inside it shares its exception list with
/// the portal's own label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTable {
    /// This vertex.
    pub vertex: NodeId,
    /// The root of the whole tree.
    pub tree_root: NodeId,
    /// The root `w` of the subtree `T_w` containing this vertex.
    pub subtree_root: NodeId,
    /// The parent of this vertex in the real tree `T` (None only at the tree root).
    pub parent: Option<NodeId>,
    /// The port of the edge to [`Self::parent`]: the parent's position in
    /// this vertex's adjacency list of the host graph (see
    /// [`TreeRoutingScheme::resolve_parent_ports`](crate::TreeRoutingScheme::resolve_parent_ports)).
    /// `None` until resolved, at the root, and when the parent is not
    /// adjacent. It is part of the parent entry, as a node forwards up
    /// through a port of its own.
    pub parent_port: Option<u32>,
    /// The heavy child of this vertex *within its subtree*, if it has children there.
    pub heavy_child: Option<NodeId>,
    /// DFS entry time of this vertex within its subtree.
    pub a_local: u64,
    /// DFS exit time (entry + local subtree size) within its subtree.
    pub b_local: u64,
    /// DFS entry time of `T_w` within the virtual tree `T'`.
    pub a_global: u64,
    /// DFS exit time of `T_w` within `T'`.
    pub b_global: u64,
    /// The heavy `T'`-child of `w`, with the portal information needed to
    /// reach it; shared by every member of `T_w`.
    pub global_heavy: Option<Arc<GlobalHeavyEntry>>,
}

impl TreeTable {
    /// Returns `true` if the local DFS interval of this vertex contains `a`
    /// (i.e. the target lies in this vertex's local subtree).
    pub fn local_interval_contains(&self, a: u64) -> bool {
        self.a_local <= a && a < self.b_local
    }

    /// Returns `true` if the global DFS interval of this vertex's subtree
    /// contains `a_global` (the target's subtree is a `T'`-descendant).
    pub fn global_interval_contains(&self, a_global: u64) -> bool {
        self.a_global <= a_global && a_global < self.b_global
    }

    /// Size of the table in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        // vertex, tree root, subtree root, parent (with its port), heavy
        // child, 4 interval endpoints, plus the global heavy entry.
        9 + self
            .global_heavy
            .as_deref()
            .map_or(0, GlobalHeavyEntry::words)
    }
}

/// Read access to one tree-routing table, abstracted over the storage.
///
/// Forwarding ([`next_hop_view`](crate::scheme::next_hop_view)) consumes
/// tables exclusively through this trait, so the owned [`TreeTable`] and any
/// flat serialized representation route identically — there is only one
/// forwarding implementation. Implementors are cheap `Copy` handles.
pub trait TableView: Copy {
    /// The local-label view type of the embedded portal labels.
    type Local: LocalLabelView;

    /// The vertex this table belongs to.
    fn vertex(&self) -> NodeId;
    /// The root `w` of the subtree `T_w` containing this vertex.
    fn subtree_root(&self) -> NodeId;
    /// The parent of this vertex in the real tree (None only at the root).
    fn parent(&self) -> Option<NodeId>;
    /// The port of the edge to [`Self::parent`] in this vertex's adjacency
    /// list of the host graph, if known. Forwarding does not read it; the
    /// route kernel weighs hops through it, and checks that it leads to the
    /// expected neighbour before trusting it.
    fn parent_port(&self) -> Option<u32>;
    /// The heavy child of this vertex within its subtree, if any.
    fn heavy_child(&self) -> Option<NodeId>;
    /// DFS entry time of this vertex within its subtree.
    fn a_local(&self) -> u64;
    /// Whether the local DFS interval of this vertex contains `a`.
    fn local_interval_contains(&self, a: u64) -> bool;
    /// Whether the global DFS interval of this vertex's subtree contains
    /// `a_global`.
    fn global_interval_contains(&self, a_global: u64) -> bool;
    /// The heavy `T'`-child of `w`, if any, as `(child_subtree, portal label)`.
    fn global_heavy(&self) -> Option<(NodeId, Self::Local)>;
}

impl<'a> TableView for &'a TreeTable {
    type Local = &'a LocalLabel;

    #[inline]
    fn vertex(&self) -> NodeId {
        self.vertex
    }

    #[inline]
    fn subtree_root(&self) -> NodeId {
        self.subtree_root
    }

    #[inline]
    fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    #[inline]
    fn parent_port(&self) -> Option<u32> {
        self.parent_port
    }

    #[inline]
    fn heavy_child(&self) -> Option<NodeId> {
        self.heavy_child
    }

    #[inline]
    fn a_local(&self) -> u64 {
        self.a_local
    }

    #[inline]
    fn local_interval_contains(&self, a: u64) -> bool {
        TreeTable::local_interval_contains(self, a)
    }

    #[inline]
    fn global_interval_contains(&self, a_global: u64) -> bool {
        TreeTable::global_interval_contains(self, a_global)
    }

    #[inline]
    fn global_heavy(&self) -> Option<(NodeId, &'a LocalLabel)> {
        self.global_heavy
            .as_deref()
            .map(|gh| (gh.child_subtree, &gh.portal_label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TreeTable {
        TreeTable {
            vertex: 5,
            tree_root: 0,
            subtree_root: 2,
            parent: Some(2),
            parent_port: None,
            heavy_child: Some(7),
            a_local: 3,
            b_local: 6,
            a_global: 1,
            b_global: 4,
            global_heavy: Some(Arc::new(GlobalHeavyEntry {
                child_subtree: 9,
                portal: 7,
                portal_label: LocalLabel {
                    a: 4,
                    exceptions: Arc::from([]),
                },
            })),
        }
    }

    #[test]
    fn interval_tests() {
        let t = table();
        assert!(t.local_interval_contains(3));
        assert!(t.local_interval_contains(5));
        assert!(!t.local_interval_contains(6));
        assert!(!t.local_interval_contains(2));
        assert!(t.global_interval_contains(1));
        assert!(!t.global_interval_contains(4));
    }

    #[test]
    fn word_count_includes_heavy_entry() {
        let t = table();
        assert_eq!(t.words(), 9 + 3);
        let mut t2 = t;
        t2.global_heavy = None;
        assert_eq!(t2.words(), 9);
    }
}
