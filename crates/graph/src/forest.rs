//! Arena-backed compact cluster forest.
//!
//! A cluster family materialises one rooted tree per centre. Storing each of
//! those trees as a host-sized parent array (the [`RootedTree`]
//! representation) costs `O(n)` memory *per cluster* — `O(n · #clusters)`
//! overall — even though the paper bounds the total membership by
//! `O(n^{1+1/k} log n)` (Claim 2). The [`ClusterForest`] stores every cluster
//! of a family in shared CSR-style arrays instead, keyed by a dense
//! [`ClusterId`]:
//!
//! * `cluster_offsets[c] .. cluster_offsets[c + 1]` delimits cluster `c`'s
//!   slice of the member arrays;
//! * `member_ids` holds the member vertices, ascending within each slice
//!   (so membership tests are a binary search of the slice);
//! * `member_parent_idx` holds each member's parent as a *local index into
//!   the same slice* ([`NO_LOCAL_PARENT`] for the root), so a slice is a
//!   self-contained tree that [`TreeView`] consumers read zero-copy;
//! * `member_parent_weight` and `member_root_dist` carry the tree-arc weight
//!   and the construction's root-distance estimate `b_v(u)` per member.
//!
//! Total memory is `O(Σ|C|)` — linear in membership, matching how Elkin-style
//! deterministic spanner constructions keep cluster state linear — and a
//! whole forest is a handful of flat allocations instead of thousands.
//!
//! The forest also carries an inverted **membership CSR** built in one
//! counting-sort pass at [`ClusterForestBuilder::finish`]: for every vertex
//! `v`, the list of `(cluster, local index)` pairs of the clusters containing
//! `v`. Overlap queries (`|{C : v ∈ C}|`, Claim 2's quantity) become `O(1)`,
//! and the Section-4 routing-scheme assembly sweeps it once instead of
//! re-walking every cluster's members.
//!
//! Finally, the [`TreeView`] trait abstracts "a rooted tree presented in
//! local member-index space". Forest slices ([`ClusterView`]) implement it
//! zero-copy; [`RootedTree`] implements it by materialising its topology
//! once, so consumers (the tree-routing construction of Theorem 7) work
//! off either representation.

use std::borrow::Cow;

use crate::tree::RootedTree;
use crate::types::{Dist, NodeId, Weight};

/// Dense identifier of a cluster within a [`ClusterForest`].
pub type ClusterId = usize;

/// `member_parent_idx` sentinel meaning "no parent" (the root of a cluster).
pub const NO_LOCAL_PARENT: u32 = u32::MAX;

/// A rooted tree presented in *local member-index space*: `m` members with
/// dense indices `0..m`, each knowing its vertex id and the local index of
/// its parent. This is the shape the tree-routing construction consumes —
/// all of its working state is `O(m)`, never `O(host)`.
#[derive(Debug, Clone)]
pub struct LocalTopology<'a> {
    /// Number of vertices in the host graph.
    pub host_size: usize,
    /// Member vertex ids, ascending.
    pub members: Cow<'a, [u32]>,
    /// `parent_idx[i]` is the local index of member `i`'s parent,
    /// [`NO_LOCAL_PARENT`] for the root.
    pub parent_idx: Cow<'a, [u32]>,
    /// `parent_weight[i]` is the weight of the arc to member `i`'s parent
    /// (0 for the root).
    pub parent_weight: Cow<'a, [Weight]>,
    /// Local index of the root.
    pub root_pos: usize,
}

impl LocalTopology<'_> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the topology has no members (never the case for a
    /// well-formed tree, which contains at least its root).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The root vertex id.
    pub fn root(&self) -> NodeId {
        self.members[self.root_pos] as NodeId
    }
}

/// A rooted tree over a subset of a host graph's vertices, viewable in local
/// member-index space. Implemented zero-copy by forest slices
/// ([`ClusterView`]) and by materialisation by [`RootedTree`].
pub trait TreeView {
    /// The tree's local-index topology. Forest slices return borrowed
    /// slices; [`RootedTree`] materialises owned arrays once per call.
    fn topology(&self) -> LocalTopology<'_>;
}

impl TreeView for RootedTree {
    fn topology(&self) -> LocalTopology<'_> {
        let n = self.host_size();
        let members: Vec<u32> = self.members().iter().map(|&v| v as u32).collect();
        // Host-vertex -> local-index map for parent resolution.
        let mut pos = vec![NO_LOCAL_PARENT; n];
        for (i, &v) in members.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        let mut parent_idx = vec![NO_LOCAL_PARENT; members.len()];
        let mut parent_weight = vec![0; members.len()];
        for (i, &v) in members.iter().enumerate() {
            if let Some((p, w)) = self.parent(v as NodeId) {
                parent_idx[i] = pos[p];
                parent_weight[i] = w;
            }
        }
        let root_pos = pos[self.root()] as usize;
        LocalTopology {
            host_size: n,
            members: Cow::Owned(members),
            parent_idx: Cow::Owned(parent_idx),
            parent_weight: Cow::Owned(parent_weight),
            root_pos,
        }
    }
}

/// One member record handed to [`ClusterForestBuilder::push_cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestMember {
    /// The member vertex.
    pub v: NodeId,
    /// Its tree parent (a vertex id; must itself be a member or the centre).
    pub parent: NodeId,
    /// Weight of the arc `(parent, v)`.
    pub weight: Weight,
    /// The construction's root-distance estimate `b_v(u)` for this member.
    pub root_dist: Dist,
}

/// All clusters of a family in shared flat arrays; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterForest {
    n: usize,
    centers: Vec<NodeId>,
    levels: Vec<u32>,
    root_pos: Vec<u32>,
    cluster_offsets: Vec<usize>,
    member_ids: Vec<u32>,
    member_parent_idx: Vec<u32>,
    member_parent_weight: Vec<Weight>,
    member_root_dist: Vec<Dist>,
    /// Inverted membership CSR: `vertex_offsets[v] .. vertex_offsets[v + 1]`
    /// delimits `v`'s `(cluster, local index)` pairs.
    vertex_offsets: Vec<usize>,
    vertex_cluster: Vec<u32>,
    vertex_member_pos: Vec<u32>,
}

impl ClusterForest {
    /// An empty forest over a host of `n` vertices.
    pub fn empty(n: usize) -> Self {
        ClusterForestBuilder::new(n).finish()
    }

    /// Number of vertices in the host graph.
    pub fn host_size(&self) -> usize {
        self.n
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// `true` when the forest holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Sum of all cluster sizes (the length of the member arrays).
    pub fn total_members(&self) -> usize {
        self.member_ids.len()
    }

    /// The view of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_clusters()`.
    pub fn cluster(&self, c: ClusterId) -> ClusterView<'_> {
        assert!(c < self.num_clusters(), "cluster {c} out of range");
        ClusterView {
            forest: self,
            id: c,
        }
    }

    /// Iterates over all clusters in id order.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterView<'_>> {
        (0..self.num_clusters()).map(move |id| ClusterView { forest: self, id })
    }

    /// The first cluster rooted at `center`, by linear scan (family-level
    /// callers that need many lookups keep their own centre index).
    pub fn cluster_by_center(&self, center: NodeId) -> Option<ClusterView<'_>> {
        let id = self.centers.iter().position(|&c| c == center)?;
        Some(ClusterView { forest: self, id })
    }

    /// The number of clusters containing `v` — Claim 2's overlap, answered
    /// in `O(1)` from the membership CSR.
    ///
    /// # Panics
    ///
    /// Panics if `v >= host_size()`.
    pub fn overlap_of(&self, v: NodeId) -> usize {
        self.vertex_offsets[v + 1] - self.vertex_offsets[v]
    }

    /// The `(cluster, local member index)` pairs of the clusters containing
    /// `v`, in increasing cluster-id order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= host_size()`.
    pub fn membership(&self, v: NodeId) -> impl Iterator<Item = (ClusterId, usize)> + '_ {
        let lo = self.vertex_offsets[v];
        let hi = self.vertex_offsets[v + 1];
        self.vertex_cluster[lo..hi]
            .iter()
            .zip(&self.vertex_member_pos[lo..hi])
            .map(|(&c, &i)| (c as ClusterId, i as usize))
    }

    /// The maximum of [`Self::overlap_of`] over all vertices.
    pub fn max_overlap(&self) -> usize {
        (0..self.n).map(|v| self.overlap_of(v)).max().unwrap_or(0)
    }

    /// Bytes occupied by the forest's arrays (the family's memory footprint
    /// gauge reported by the perf harness).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.centers.capacity() * size_of::<NodeId>()
            + self.levels.capacity() * size_of::<u32>()
            + self.root_pos.capacity() * size_of::<u32>()
            + self.cluster_offsets.capacity() * size_of::<usize>()
            + self.member_ids.capacity() * size_of::<u32>()
            + self.member_parent_idx.capacity() * size_of::<u32>()
            + self.member_parent_weight.capacity() * size_of::<Weight>()
            + self.member_root_dist.capacity() * size_of::<Dist>()
            + self.vertex_offsets.capacity() * size_of::<usize>()
            + self.vertex_cluster.capacity() * size_of::<u32>()
            + self.vertex_member_pos.capacity() * size_of::<u32>()
    }
}

/// A zero-copy view of one cluster of a [`ClusterForest`]: the tree rooted at
/// the cluster's centre, plus the per-member root-distance estimates.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    forest: &'a ClusterForest,
    id: ClusterId,
}

impl<'a> ClusterView<'a> {
    #[inline]
    fn span(&self) -> std::ops::Range<usize> {
        self.forest.cluster_offsets[self.id]..self.forest.cluster_offsets[self.id + 1]
    }

    /// The cluster's dense id within its forest.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The cluster centre (the root of the tree).
    pub fn center(&self) -> NodeId {
        self.forest.centers[self.id]
    }

    /// The level `i` such that the centre is in `A_i \ A_{i+1}`.
    pub fn level(&self) -> usize {
        self.forest.levels[self.id] as usize
    }

    /// Number of members (including the centre).
    pub fn len(&self) -> usize {
        self.span().len()
    }

    /// Always `false`: a cluster contains at least its centre.
    pub fn is_empty(&self) -> bool {
        self.span().is_empty()
    }

    /// The member vertices as the raw ascending `u32` slice.
    pub fn member_ids(&self) -> &'a [u32] {
        &self.forest.member_ids[self.span()]
    }

    /// The members in increasing vertex-id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.member_ids().iter().map(|&v| v as NodeId)
    }

    /// The per-member root-distance estimates, aligned with
    /// [`Self::member_ids`].
    pub fn root_dists(&self) -> &'a [Dist] {
        &self.forest.member_root_dist[self.span()]
    }

    /// The local index of `v` within the cluster, if `v` is a member.
    pub fn local_index_of(&self, v: NodeId) -> Option<usize> {
        self.member_ids().binary_search(&(v as u32)).ok()
    }

    /// Whether `v` belongs to the cluster.
    pub fn contains(&self, v: NodeId) -> bool {
        v < self.forest.n && self.local_index_of(v).is_some()
    }

    /// The root-distance estimate `b_v(center)` of member `v`.
    pub fn root_dist(&self, v: NodeId) -> Option<Dist> {
        self.local_index_of(v).map(|i| self.root_dists()[i])
    }

    /// The tree parent of member `v` with the connecting arc weight; `None`
    /// for the centre and for non-members.
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, Weight)> {
        let i = self.local_index_of(v)?;
        let span = self.span();
        let p = self.forest.member_parent_idx[span.start + i];
        if p == NO_LOCAL_PARENT {
            return None;
        }
        Some((
            self.forest.member_ids[span.start + p as usize] as NodeId,
            self.forest.member_parent_weight[span.start + i],
        ))
    }

    /// The tree arcs `(member, parent, weight)` of every non-root member.
    pub fn parent_arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + 'a {
        let span = self.span();
        let ids = &self.forest.member_ids[span.clone()];
        let parents = &self.forest.member_parent_idx[span.clone()];
        let weights = &self.forest.member_parent_weight[span];
        ids.iter()
            .zip(parents)
            .zip(weights)
            .filter(|((_, &p), _)| p != NO_LOCAL_PARENT)
            .map(move |((&v, &p), &w)| (v as NodeId, ids[p as usize] as NodeId, w))
    }

    /// Materialises the cluster tree as a host-sized [`RootedTree`] — the
    /// compatibility accessor for consumers that still want the dense
    /// per-cluster representation (the congest layer's oracle comparisons,
    /// Section-6 virtual-tree manipulation).
    pub fn tree(&self) -> RootedTree {
        RootedTree::from_compact_members(self.forest.n, self.center(), self.parent_arcs())
    }
}

impl TreeView for ClusterView<'_> {
    fn topology(&self) -> LocalTopology<'_> {
        let span = self.span();
        LocalTopology {
            host_size: self.forest.n,
            members: Cow::Borrowed(&self.forest.member_ids[span.clone()]),
            parent_idx: Cow::Borrowed(&self.forest.member_parent_idx[span.clone()]),
            parent_weight: Cow::Borrowed(&self.forest.member_parent_weight[span]),
            root_pos: self.forest.root_pos[self.id] as usize,
        }
    }
}

/// Incrementally builds a [`ClusterForest`]; see
/// [`Self::push_cluster`] and [`Self::finish`].
#[derive(Debug, Clone)]
pub struct ClusterForestBuilder {
    n: usize,
    centers: Vec<NodeId>,
    levels: Vec<u32>,
    root_pos: Vec<u32>,
    cluster_offsets: Vec<usize>,
    member_ids: Vec<u32>,
    member_parent_idx: Vec<u32>,
    member_parent_weight: Vec<Weight>,
    member_root_dist: Vec<Dist>,
}

impl ClusterForestBuilder {
    /// A builder for a forest over a host of `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the `u32` member representation.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "host size must fit in u32");
        ClusterForestBuilder {
            n,
            centers: Vec::new(),
            levels: Vec::new(),
            root_pos: Vec::new(),
            cluster_offsets: vec![0],
            member_ids: Vec::new(),
            member_parent_idx: Vec::new(),
            member_parent_weight: Vec::new(),
            member_root_dist: Vec::new(),
        }
    }

    /// Number of vertices in the host graph.
    pub fn host_size(&self) -> usize {
        self.n
    }

    /// Number of clusters pushed so far (the id the next push will get).
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// The member ids of an already-pushed cluster (ascending) — lets
    /// callers account per-level overlap without waiting for
    /// [`Self::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `c` has not been pushed yet.
    pub fn members_of(&self, c: ClusterId) -> &[u32] {
        &self.member_ids[self.cluster_offsets[c]..self.cluster_offsets[c + 1]]
    }

    /// Appends one cluster: the centre (root, `root_dist = 0`) plus the
    /// non-centre `members`, which must arrive in strictly ascending vertex
    /// order — exactly the shape the batched cluster kernel emits — with
    /// every parent either the centre or another member. Returns the new
    /// cluster's id.
    ///
    /// # Panics
    ///
    /// Panics if a member repeats or equals the centre, if any id is out of
    /// range, or if a recorded parent is not itself in the cluster.
    pub fn push_cluster(
        &mut self,
        center: NodeId,
        level: usize,
        members: impl IntoIterator<Item = ForestMember>,
    ) -> ClusterId {
        assert!(center < self.n, "centre {center} out of range");
        let start = self.member_ids.len();
        let mut last: Option<NodeId> = None;
        let mut root_seen = false;
        for m in members {
            assert!(m.v < self.n && m.parent < self.n, "member out of range");
            assert_ne!(m.v, center, "centre must not appear among the members");
            assert!(
                last.is_none_or(|prev| prev < m.v),
                "members must be strictly ascending"
            );
            if !root_seen && m.v > center {
                self.push_root(center);
                root_seen = true;
            }
            last = Some(m.v);
            self.member_ids.push(m.v as u32);
            // Stage the parent *vertex id*; resolved to a local index below,
            // once the whole slice is present.
            self.member_parent_idx.push(m.parent as u32);
            self.member_parent_weight.push(m.weight);
            self.member_root_dist.push(m.root_dist);
        }
        if !root_seen {
            self.push_root(center);
        }
        let end = self.member_ids.len();
        let root_local = self.member_ids[start..end]
            .binary_search(&(center as u32))
            .expect("centre is in its own slice") as u32;
        // Resolve staged parent vertices to local indices.
        for i in start..end {
            if self.member_parent_idx[i] == NO_LOCAL_PARENT {
                continue;
            }
            let p = self.member_parent_idx[i];
            let local = self.member_ids[start..end]
                .binary_search(&p)
                .unwrap_or_else(|_| {
                    panic!(
                        "parent {p} of member {} is not in the cluster of centre {center}",
                        self.member_ids[i]
                    )
                });
            self.member_parent_idx[i] = local as u32;
        }
        self.centers.push(center);
        self.levels.push(level as u32);
        self.root_pos.push(root_local);
        self.cluster_offsets.push(end);
        let id = self.centers.len() - 1;
        #[cfg(debug_assertions)]
        self.debug_check_tree(id);
        id
    }

    fn push_root(&mut self, center: NodeId) {
        self.member_ids.push(center as u32);
        self.member_parent_idx.push(NO_LOCAL_PARENT);
        self.member_parent_weight.push(0);
        self.member_root_dist.push(0);
    }

    /// Builds the membership CSR in one counting-sort pass and returns the
    /// finished forest.
    pub fn finish(self) -> ClusterForest {
        let ClusterForestBuilder {
            n,
            centers,
            levels,
            root_pos,
            cluster_offsets,
            member_ids,
            member_parent_idx,
            member_parent_weight,
            member_root_dist,
        } = self;
        // Counting sort of (vertex -> (cluster, local idx)): one histogram
        // pass over member_ids, a prefix sum, and one scatter pass. Because
        // clusters are scanned in id order, each vertex's membership list
        // comes out sorted by cluster id.
        let mut vertex_offsets = vec![0usize; n + 1];
        for &v in &member_ids {
            vertex_offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            vertex_offsets[v + 1] += vertex_offsets[v];
        }
        let total = member_ids.len();
        let mut vertex_cluster = vec![0u32; total];
        let mut vertex_member_pos = vec![0u32; total];
        let mut cursor = vertex_offsets.clone();
        for c in 0..centers.len() {
            let span = cluster_offsets[c]..cluster_offsets[c + 1];
            for (i, &v) in member_ids[span].iter().enumerate() {
                let slot = cursor[v as usize];
                vertex_cluster[slot] = c as u32;
                vertex_member_pos[slot] = i as u32;
                cursor[v as usize] += 1;
            }
        }
        ClusterForest {
            n,
            centers,
            levels,
            root_pos,
            cluster_offsets,
            member_ids,
            member_parent_idx,
            member_parent_weight,
            member_root_dist,
            vertex_offsets,
            vertex_cluster,
            vertex_member_pos,
        }
    }

    /// Debug-only validation: the freshly pushed cluster's parent pointers
    /// form a tree rooted at the centre.
    #[cfg(debug_assertions)]
    fn debug_check_tree(&self, id: ClusterId) {
        let start = self.cluster_offsets[id];
        let end = self.cluster_offsets[id + 1];
        let m = end - start;
        let root = self.root_pos[id] as usize;
        for i in 0..m {
            let mut cur = i;
            let mut steps = 0;
            while self.member_parent_idx[start + cur] != NO_LOCAL_PARENT {
                cur = self.member_parent_idx[start + cur] as usize;
                steps += 1;
                assert!(steps <= m, "cycle in cluster {id} at local index {i}");
            }
            assert_eq!(
                cur, root,
                "member {i} of cluster {id} does not reach the root"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clusters over a 5-vertex host:
    /// * centre 1 at level 0 with members {0, 1, 2} (0 and 2 hang off 1);
    /// * centre 3 at level 1 spanning {1, 2, 3, 4} as a path 3-2-1, 3-4.
    fn sample_forest() -> ClusterForest {
        let mut b = ClusterForestBuilder::new(5);
        b.push_cluster(
            1,
            0,
            [
                ForestMember {
                    v: 0,
                    parent: 1,
                    weight: 2,
                    root_dist: 2,
                },
                ForestMember {
                    v: 2,
                    parent: 1,
                    weight: 3,
                    root_dist: 3,
                },
            ],
        );
        b.push_cluster(
            3,
            1,
            [
                ForestMember {
                    v: 1,
                    parent: 2,
                    weight: 1,
                    root_dist: 5,
                },
                ForestMember {
                    v: 2,
                    parent: 3,
                    weight: 4,
                    root_dist: 4,
                },
                ForestMember {
                    v: 4,
                    parent: 3,
                    weight: 1,
                    root_dist: 1,
                },
            ],
        );
        b.finish()
    }

    #[test]
    fn cluster_views_expose_members_parents_and_dists() {
        let f = sample_forest();
        assert_eq!(f.num_clusters(), 2);
        assert_eq!(f.host_size(), 5);
        assert_eq!(f.total_members(), 7);
        let c0 = f.cluster(0);
        assert_eq!(c0.center(), 1);
        assert_eq!(c0.level(), 0);
        assert_eq!(c0.len(), 3);
        assert!(!c0.is_empty());
        assert_eq!(c0.members().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(c0.parent(0), Some((1, 2)));
        assert_eq!(c0.parent(1), None);
        assert_eq!(c0.root_dist(2), Some(3));
        assert_eq!(c0.root_dist(4), None);
        assert!(c0.contains(2) && !c0.contains(4));
        let c1 = f.cluster(1);
        assert_eq!(c1.center(), 3);
        assert_eq!(c1.parent(1), Some((2, 1)));
        assert_eq!(c1.parent(4), Some((3, 1)));
        let arcs: Vec<_> = c1.parent_arcs().collect();
        assert_eq!(arcs, vec![(1, 2, 1), (2, 3, 4), (4, 3, 1)]);
    }

    #[test]
    fn membership_csr_answers_overlap_queries() {
        let f = sample_forest();
        assert_eq!(f.overlap_of(0), 1);
        assert_eq!(f.overlap_of(1), 2);
        assert_eq!(f.overlap_of(2), 2);
        assert_eq!(f.overlap_of(4), 1);
        assert_eq!(f.max_overlap(), 2);
        let mem: Vec<_> = f.membership(2).collect();
        // Vertex 2 is local index 2 of cluster 0 and local index 1 of cluster 1.
        assert_eq!(mem, vec![(0, 2), (1, 1)]);
        assert_eq!(f.membership(3).count(), 1);
        assert!(f.memory_bytes() > 0);
    }

    #[test]
    fn materialised_tree_matches_the_view() {
        let f = sample_forest();
        let view = f.cluster(1);
        let tree = view.tree();
        assert_eq!(tree.root(), 3);
        assert_eq!(tree.members(), vec![1, 2, 3, 4]);
        for v in view.members() {
            assert_eq!(tree.parent(v), view.parent(v));
        }
        assert_eq!(tree.root_distances()[1], Some(5));
    }

    #[test]
    fn topology_agrees_between_view_and_materialised_tree() {
        let f = sample_forest();
        for view in f.clusters() {
            let tree = view.tree();
            let a = view.topology();
            let b = tree.topology();
            assert_eq!(a.members, b.members);
            assert_eq!(a.parent_idx, b.parent_idx);
            assert_eq!(a.parent_weight, b.parent_weight);
            assert_eq!(a.root_pos, b.root_pos);
            assert_eq!(a.root(), view.center());
            assert_eq!(a.len(), view.len());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn shared_builder_concatenates_phases() {
        // Phases of a construction push into one shared builder; ids stay in
        // push order and the membership CSR spans all of them.
        let mut b = ClusterForestBuilder::new(5);
        b.push_cluster(
            4,
            0,
            [ForestMember {
                v: 0,
                parent: 4,
                weight: 9,
                root_dist: 9,
            }],
        );
        assert_eq!(b.members_of(0), &[0, 4]);
        b.push_cluster(
            1,
            0,
            [ForestMember {
                v: 0,
                parent: 1,
                weight: 2,
                root_dist: 2,
            }],
        );
        let merged = b.finish();
        assert_eq!(merged.num_clusters(), 2);
        assert_eq!(merged.cluster(0).center(), 4);
        assert_eq!(merged.cluster(1).center(), 1);
        assert_eq!(merged.overlap_of(0), 2);
        assert_eq!(merged.cluster_by_center(1).map(|c| c.id()), Some(1));
        assert!(merged.cluster_by_center(2).is_none());
    }

    #[test]
    fn spanning_cluster_rooted_mid_range_finishes() {
        // One cluster over every host vertex, its centre in the middle of
        // the ascending member column: the root is spliced in mid-push.
        let mut b = ClusterForestBuilder::new(5);
        b.push_cluster(
            2,
            0,
            [0, 1, 3, 4].map(|v| ForestMember {
                v,
                parent: 2,
                weight: 1,
                root_dist: 1,
            }),
        );
        let f = b.finish();
        assert_eq!(f.num_clusters(), 1);
        assert_eq!(f.total_members(), 5);
        let c = f.cluster(0);
        assert_eq!(c.center(), 2);
        assert_eq!(c.members().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(c.topology().root_pos, 2);
        assert_eq!(c.parent(2), None);
        for v in [0, 1, 3, 4] {
            assert_eq!(c.parent(v), Some((2, 1)));
        }
        for v in 0..5 {
            assert_eq!(f.overlap_of(v), 1);
        }
    }

    #[test]
    fn empty_forest_is_queryable() {
        let f = ClusterForest::empty(4);
        assert!(f.is_empty());
        assert_eq!(f.num_clusters(), 0);
        assert_eq!(f.overlap_of(3), 0);
        assert_eq!(f.max_overlap(), 0);
        assert_eq!(f.clusters().count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_members() {
        let mut b = ClusterForestBuilder::new(5);
        let m = |v| ForestMember {
            v,
            parent: 0,
            weight: 1,
            root_dist: 1,
        };
        b.push_cluster(0, 0, [m(2), m(1)]);
    }

    #[test]
    #[should_panic(expected = "is not in the cluster")]
    fn rejects_foreign_parents() {
        let mut b = ClusterForestBuilder::new(5);
        b.push_cluster(
            0,
            0,
            [ForestMember {
                v: 1,
                parent: 3,
                weight: 1,
                root_dist: 1,
            }],
        );
    }

    #[test]
    fn rooted_tree_topology_handles_partial_hosts() {
        let mut t = RootedTree::new(10, 7);
        t.attach(2, 7, 5);
        t.attach(9, 2, 1);
        let topo = t.topology();
        assert_eq!(topo.members.as_ref(), &[2, 7, 9]);
        assert_eq!(topo.root_pos, 1);
        assert_eq!(topo.parent_idx.as_ref(), &[1, NO_LOCAL_PARENT, 0]);
        assert_eq!(topo.parent_weight.as_ref(), &[5, 0, 1]);
        assert_eq!(topo.host_size, 10);
        assert_eq!(topo.root(), 7);
    }
}
