//! Tree-routing labels.
//!
//! A label must contain everything a *remote* vertex needs, beyond its own
//! routing table, to forward a packet towards the labelled vertex. In the
//! two-level scheme a label has a local part (the TZ label inside the
//! destination's subtree) and a global part (the TZ label of the destination's
//! subtree inside the virtual portal tree `T'`, with each non-heavy virtual
//! edge annotated by the local label of the portal that realises it).
//!
//! # Shared storage
//!
//! Most of a label is the same for many vertices, and the owned types share
//! that part behind `Arc` instead of copying it per vertex:
//!
//! - [`LocalLabel::exceptions`] only grows at non-heavy edges, so a heavy
//!   child holds its parent's list (the same allocation) and a non-heavy
//!   child holds a new list of its parent's plus one edge.
//! - [`TreeLabel::global_exceptions`] depends only on the vertex's subtree
//!   `T_w` (it describes the `T'` path from the root's subtree to `T_w`), so
//!   every member of `T_w` holds the one list built for `w`; a `T'`-heavy
//!   child subtree holds its `T'`-parent's list.
//!
//! Sharing is sound because these lists are immutable once built and equal,
//! element for element, to what a per-vertex copy would hold: equality,
//! word counts and forwarding see no difference.

use std::sync::Arc;

use en_graph::NodeId;

/// The classic Thorup–Zwick label of a vertex inside one (sub)tree:
/// its DFS entry time plus the list of non-heavy edges on the path from the
/// subtree root to the vertex.
///
/// Cloning is cheap: the exception list is shared (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocalLabel {
    /// DFS entry time of the vertex within its subtree.
    pub a: u64,
    /// Non-heavy edges `(x, x')` on the root-to-vertex path: at vertex `x` the
    /// path continues to child `x'`, and `x'` is not the heavy child of `x`.
    /// Shared with the vertex's heavy child, whose path adds no exception.
    pub exceptions: Arc<[(NodeId, NodeId)]>,
}

impl LocalLabel {
    /// The child recorded for `x`, if the path through `x` deviates from the
    /// heavy child.
    pub fn exception_at(&self, x: NodeId) -> Option<NodeId> {
        self.exceptions
            .iter()
            .find(|(p, _)| *p == x)
            .map(|&(_, c)| c)
    }

    /// Size of the label in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        1 + 2 * self.exceptions.len()
    }
}

/// One entry of the global part of a label: a non-heavy edge of the virtual
/// tree `T'` on the path from the root's subtree to the destination's subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalException {
    /// The parent subtree root `v_i` in `T'`.
    pub parent_subtree: NodeId,
    /// The child subtree root `w_i` in `T'` (a non-heavy child of `v_i`).
    pub child_subtree: NodeId,
    /// The portal `x_i`: the parent of `w_i` in the real tree `T`; it lies in
    /// the subtree rooted at `v_i`.
    pub portal: NodeId,
    /// The local label of the portal inside the subtree of `v_i`, used to
    /// route to it locally (its exception list is the portal's own).
    pub portal_label: LocalLabel,
}

impl GlobalException {
    /// Size in words: the two subtree roots, the portal id, and its local label.
    pub fn words(&self) -> usize {
        3 + self.portal_label.words()
    }
}

/// The complete routing label of a vertex for one tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLabel {
    /// The labelled vertex (carried for convenience; the scheme never needs to
    /// inspect it during forwarding).
    pub vertex: NodeId,
    /// The subtree root `w` such that the vertex lies in `T_w`.
    pub subtree_root: NodeId,
    /// Local TZ label of the vertex inside `T_w`.
    pub local: LocalLabel,
    /// DFS entry time of `T_w` in the virtual tree `T'`.
    pub a_global: u64,
    /// Non-heavy virtual edges on the `T'` path from the root's subtree to
    /// `T_w`: a function of `T_w` alone, so every member of `T_w` shares one
    /// list.
    pub global_exceptions: Arc<[GlobalException]>,
}

impl TreeLabel {
    /// The global exception whose parent subtree is `w`, if any.
    pub fn global_exception_at(&self, w: NodeId) -> Option<&GlobalException> {
        self.global_exceptions
            .iter()
            .find(|e| e.parent_subtree == w)
    }

    /// The borrowed view of this label — what forwarding actually consumes.
    pub fn as_view(&self) -> TreeLabelRef<'_> {
        TreeLabelRef(self)
    }

    /// Size of the label in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        // vertex + subtree_root + a_global + local + exceptions
        3 + self.local.words()
            + self
                .global_exceptions
                .iter()
                .map(GlobalException::words)
                .sum::<usize>()
    }
}

/// Read access to one local TZ label, abstracted over the storage.
///
/// Forwarding ([`next_hop_view`](crate::scheme::next_hop_view)) consumes
/// labels exclusively through this trait and [`LabelView`], so the owned
/// heap representation ([`LocalLabel`] / [`TreeLabel`]) and any flat
/// serialized representation (e.g. a zero-copy snapshot column) are
/// guaranteed to route identically: there is only one forwarding
/// implementation.
///
/// Implementors are cheap `Copy` handles (a reference or a slice-plus-offset
/// view), so taking them by value allocates nothing.
pub trait LocalLabelView: Copy {
    /// DFS entry time of the labelled vertex within its subtree.
    fn a(&self) -> u64;
    /// The child recorded for `x`, if the root-to-vertex path deviates from
    /// `x`'s heavy child.
    fn exception_at(&self, x: NodeId) -> Option<NodeId>;
}

impl LocalLabelView for &LocalLabel {
    #[inline]
    fn a(&self) -> u64 {
        self.a
    }

    #[inline]
    fn exception_at(&self, x: NodeId) -> Option<NodeId> {
        LocalLabel::exception_at(self, x)
    }
}

/// Read access to one tree-routing label, abstracted over the storage.
///
/// See [`LocalLabelView`] for the rationale.
pub trait LabelView: Copy {
    /// The local-label view type this label hands out.
    type Local: LocalLabelView;

    /// The subtree root `w` such that the labelled vertex lies in `T_w`.
    fn subtree_root(&self) -> NodeId;
    /// DFS entry time of `T_w` in the virtual tree `T'`.
    fn a_global(&self) -> u64;
    /// Local TZ label of the vertex inside `T_w`.
    fn local(&self) -> Self::Local;
    /// The global exception whose parent subtree is `w`, if any, as
    /// `(child_subtree, portal label)`.
    fn global_exception_at(&self, w: NodeId) -> Option<(NodeId, Self::Local)>;
}

/// The borrowed view of an owned [`TreeLabel`].
///
/// This is the type forwarding consumes: `RoutingScheme`-level code borrows
/// a label from the tree scheme that holds it and hands out this view
/// without cloning any exception list.
#[derive(Debug, Clone, Copy)]
pub struct TreeLabelRef<'a>(pub &'a TreeLabel);

impl<'a> LabelView for TreeLabelRef<'a> {
    type Local = &'a LocalLabel;

    #[inline]
    fn subtree_root(&self) -> NodeId {
        self.0.subtree_root
    }

    #[inline]
    fn a_global(&self) -> u64 {
        self.0.a_global
    }

    #[inline]
    fn local(&self) -> &'a LocalLabel {
        &self.0.local
    }

    #[inline]
    fn global_exception_at(&self, w: NodeId) -> Option<(NodeId, &'a LocalLabel)> {
        self.0
            .global_exception_at(w)
            .map(|e| (e.child_subtree, &e.portal_label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_label_lookup_and_size() {
        let l = LocalLabel {
            a: 4,
            exceptions: vec![(1, 2), (5, 7)].into(),
        };
        assert_eq!(l.exception_at(1), Some(2));
        assert_eq!(l.exception_at(5), Some(7));
        assert_eq!(l.exception_at(9), None);
        assert_eq!(l.words(), 5);
        assert_eq!(LocalLabel::default().words(), 1);
    }

    #[test]
    fn tree_label_lookup_and_size() {
        let label = TreeLabel {
            vertex: 9,
            subtree_root: 3,
            local: LocalLabel {
                a: 1,
                exceptions: vec![(3, 9)].into(),
            },
            a_global: 2,
            global_exceptions: vec![GlobalException {
                parent_subtree: 0,
                child_subtree: 3,
                portal: 4,
                portal_label: LocalLabel {
                    a: 5,
                    exceptions: Arc::from([]),
                },
            }]
            .into(),
        };
        assert!(label.global_exception_at(0).is_some());
        assert!(label.global_exception_at(3).is_none());
        assert_eq!(label.words(), 3 + 3 + 4);
    }
}
