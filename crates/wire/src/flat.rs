//! The zero-copy snapshot reader: validate once, then borrow.
//!
//! [`FlatScheme::from_bytes`] is the only way to obtain a [`FlatScheme`]
//! outside this crate. It checks the header and section bounds, verifies
//! every section checksum in one pass, then proves the structure in one
//! walk that reads each section's columns front to back: centre index
//! and cluster descriptors agree, member columns are strictly ascending
//! ids below `n` that tile their section, CSR offsets are monotone inside
//! their value columns, the table and label records tile their pools in
//! the order the serializer writes them (so every offset starts the record
//! it names, and a label record names the vertex it is referenced for),
//! each level-0 centre's own-label run is aligned with its member column
//! (one offset per member, naming that member's record) while every other
//! run is empty, the member-slot rank index is a bijection onto the member
//! columns, and every section's pad field is zero. Anything inconsistent
//! is rejected, checksums or not, so a buffer that opens is one the
//! accessors can read without re-checking: there is one accessor set,
//! plain arithmetic over the borrowed bytes, and the views it hands out
//! ([`FlatTreeTable`], [`FlatTreeLabel`], [`FlatLocalLabel`],
//! [`FlatU32s`]) are `Copy` slice-plus-offset handles that never allocate.
//!
//! The epoch store re-opens bytes it validated at publish time with the
//! crate-private shape-only pass (`FlatScheme::from_bytes_unvalidated`),
//! so pinning an epoch costs O(header), not another walk.

use en_graph::NodeId;
use en_tree_routing::{LabelView, LocalLabelView, TableView};

use crate::checksum::{fnv1a_bytes, fnv1a_lanes_bytes};
use crate::error::WireError;
use crate::format::{
    section_words, Fields, Section, CLUSTER_RECORD_FIELDS, FIELDS_PER_WORD, HEADER_WORDS,
    H_HEADER_SUM, H_K, H_MAX_LABEL_WORDS, H_MAX_TABLE_WORDS, H_N, H_NUM_CLUSTERS, H_SECTIONS,
    H_SECTION_SUMS, H_TOTAL_LABEL_WORDS, H_TOTAL_MEMBERS, H_TOTAL_TABLE_WORDS, H_TOTAL_WORDS,
    LABEL_ENTRY_FIELDS, MAGIC, MAX_N, NULL, NUM_SECTIONS, TABLE_FIXED_FIELDS, VERSION,
};

/// A complete routing scheme served directly from a snapshot buffer.
///
/// Construction ([`Self::from_bytes`]) validates the buffer once; every
/// subsequent access borrows from it without allocating.
#[derive(Debug, Clone, Copy)]
pub struct FlatScheme<'a> {
    fields: Fields<'a>,
    n: usize,
    k: usize,
    num_clusters: usize,
    /// Absolute field offset of each section, plus the buffer end.
    secs: [usize; NUM_SECTIONS + 1],
}

/// A borrowed run of fields viewed as a `u32` column slice.
#[derive(Debug, Clone, Copy)]
pub struct FlatU32s<'a> {
    fields: Fields<'a>,
    start: usize,
    len: usize,
}

impl FlatU32s<'_> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i` (`i < len()`; validation keeps every column inside the
    /// buffer).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        self.fields.get(self.start + i)
    }

    /// Binary search for `x` over an ascending column.
    pub fn binary_search(&self, x: u32) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(&x) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Iterates the elements.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// One cluster of the snapshot: descriptor plus the member/table columns.
#[derive(Debug, Clone, Copy)]
pub struct FlatCluster<'a> {
    scheme: FlatScheme<'a>,
    /// Dense cluster id (position in the clusters section).
    pub id: usize,
    /// The cluster centre (also the root of its tree scheme).
    pub center: NodeId,
    /// The hierarchy level of the centre.
    pub level: usize,
    members_start: usize,
    members_len: usize,
}

impl<'a> FlatCluster<'a> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members_len
    }

    /// Whether the cluster has no members (never true in a valid snapshot).
    pub fn is_empty(&self) -> bool {
        self.members_len == 0
    }

    /// The ascending member vertex ids.
    pub fn members(&self) -> FlatU32s<'a> {
        FlatU32s {
            fields: self.scheme.fields,
            start: self.scheme.secs[Section::MemberIds as usize] + self.members_start,
            len: self.members_len,
        }
    }

    /// The member-order rank of `v` in this cluster.
    ///
    /// A *full* cluster (`n` members — every top-level cluster, since
    /// `A_k = ∅`) answers `v` itself in O(1): validation proves each member
    /// column strictly ascending below `n`, so a column of length `n` is
    /// the identity. Any other cluster resolves through the
    /// [`Section::MemberSlots`] rank index: a forward scan of `v`'s *own*
    /// short tree list for the centre, then one field read — never a search
    /// over the member column.
    pub fn slot_of(&self, v: NodeId) -> Option<usize> {
        if self.members_len == self.scheme.n {
            return (v < self.members_len).then_some(v);
        }
        let trees = self.scheme.trees_of(v);
        // A vertex's tree row is short (its cluster memberships, not a
        // member column), so a forward scan with an ascending-order early
        // exit beats binary search on the per-hop path.
        let mut i = 0usize;
        loop {
            if i >= trees.len() {
                return None;
            }
            let c = trees.get(i) as NodeId;
            if c >= self.center {
                if c > self.center {
                    return None;
                }
                break;
            }
            i += 1;
        }
        // MEMBER_SLOTS is field-aligned with VTREES_VALS, so the tree
        // slice's position inside its column addresses the slot directly.
        let rel = trees.start - self.scheme.secs[Section::VtreesVals as usize];
        let slot = self
            .scheme
            .fields
            .get(self.scheme.secs[Section::MemberSlots as usize] + rel + i)
            as usize;
        (slot < self.members_len).then_some(slot)
    }

    /// The routing table stored at member-order rank `slot`: one
    /// offset-column read plus the pool offset — O(1) on any slot source.
    pub fn table_at(&self, slot: usize) -> Option<FlatTreeTable<'a>> {
        if slot >= self.members_len {
            return None;
        }
        let vertex = self.members().get(slot) as NodeId;
        Some(self.table_at_slot(slot, vertex))
    }

    /// [`Self::table_at`] when the caller already knows the vertex stored at
    /// `slot` (skips re-reading the member column).
    fn table_at_slot(&self, slot: usize, vertex: NodeId) -> FlatTreeTable<'a> {
        let rel = self
            .scheme
            .fields
            .get(self.scheme.secs[Section::MemberTableOffs as usize] + self.members_start + slot);
        FlatTreeTable {
            fields: self.scheme.fields,
            off: self.scheme.secs[Section::TablePool as usize] + rel as usize,
            vertex,
        }
    }

    /// The routing table of member `v`, if `v` is in this cluster:
    /// [`Self::slot_of`] (the identity on a full cluster, the rank index
    /// otherwise), then O(1) column arithmetic.
    pub fn table_of(&self, v: NodeId) -> Option<FlatTreeTable<'a>> {
        let slot = self.slot_of(v)?;
        Some(self.table_at_slot(slot, v))
    }

    /// `v`'s member-order rank by binary search over the member column.
    fn search(&self, v: NodeId) -> Option<usize> {
        self.members().binary_search(u32::try_from(v).ok()?).ok()
    }

    /// The pre-v3 lookup — a binary search over the full member column —
    /// kept as the test oracle the rank-index path is checked against.
    #[cfg(test)]
    pub(crate) fn table_of_by_search(&self, v: NodeId) -> Option<FlatTreeTable<'a>> {
        let pos = self.search(v)?;
        Some(self.table_at_slot(pos, v))
    }
}

/// A borrowed local TZ label (a DFS time plus `(x, x')` exception pairs).
#[derive(Debug, Clone, Copy)]
pub struct FlatLocalLabel<'a> {
    fields: Fields<'a>,
    a: u64,
    exc_start: usize,
    exc_count: usize,
}

impl LocalLabelView for FlatLocalLabel<'_> {
    #[inline]
    fn a(&self) -> u64 {
        self.a
    }

    #[inline]
    fn exception_at(&self, x: NodeId) -> Option<NodeId> {
        for i in 0..self.exc_count {
            if self.fields.get(self.exc_start + 2 * i) as NodeId == x {
                return Some(self.fields.get(self.exc_start + 2 * i + 1) as NodeId);
            }
        }
        None
    }
}

/// A borrowed tree-routing table record.
#[derive(Debug, Clone, Copy)]
pub struct FlatTreeTable<'a> {
    fields: Fields<'a>,
    /// Absolute field offset of the record.
    off: usize,
    vertex: NodeId,
}

fn opt(f: u32) -> Option<NodeId> {
    (f != NULL).then_some(f as NodeId)
}

impl FlatTreeTable<'_> {
    /// Field `i` of the record.
    #[inline]
    fn at(&self, i: usize) -> u32 {
        self.fields.get(self.off + i)
    }
}

impl<'a> TableView for FlatTreeTable<'a> {
    type Local = FlatLocalLabel<'a>;

    #[inline]
    fn vertex(&self) -> NodeId {
        self.vertex
    }

    #[inline]
    fn subtree_root(&self) -> NodeId {
        self.at(0) as NodeId
    }

    #[inline]
    fn parent(&self) -> Option<NodeId> {
        opt(self.at(1))
    }

    #[inline]
    fn parent_port(&self) -> Option<u32> {
        let port = self.at(2);
        (port != NULL).then_some(port)
    }

    #[inline]
    fn heavy_child(&self) -> Option<NodeId> {
        opt(self.at(3))
    }

    #[inline]
    fn a_local(&self) -> u64 {
        u64::from(self.at(4))
    }

    #[inline]
    fn local_interval_contains(&self, a: u64) -> bool {
        u64::from(self.at(4)) <= a && a < u64::from(self.at(5))
    }

    #[inline]
    fn global_interval_contains(&self, a_global: u64) -> bool {
        u64::from(self.at(6)) <= a_global && a_global < u64::from(self.at(7))
    }

    #[inline]
    fn global_heavy(&self) -> Option<(NodeId, FlatLocalLabel<'a>)> {
        let child = opt(self.at(8))?;
        Some((
            child,
            FlatLocalLabel {
                fields: self.fields,
                a: u64::from(self.at(10)),
                exc_start: self.off + 12,
                exc_count: self.at(11) as usize,
            },
        ))
    }
}

/// A borrowed tree-label record — the packet-header view forwarding consumes.
#[derive(Debug, Clone, Copy)]
pub struct FlatTreeLabel<'a> {
    fields: Fields<'a>,
    /// Absolute field offset of the record.
    off: usize,
}

impl<'a> FlatTreeLabel<'a> {
    /// The labelled vertex.
    pub fn vertex(&self) -> NodeId {
        self.fields.get(self.off) as NodeId
    }

    fn local_exc_count(&self) -> usize {
        self.fields.get(self.off + 4) as usize
    }

    /// Field offset of the global-exception count.
    fn gexc_base(&self) -> usize {
        self.off + 5 + 2 * self.local_exc_count()
    }
}

impl<'a> LabelView for FlatTreeLabel<'a> {
    type Local = FlatLocalLabel<'a>;

    #[inline]
    fn subtree_root(&self) -> NodeId {
        self.fields.get(self.off + 1) as NodeId
    }

    #[inline]
    fn a_global(&self) -> u64 {
        u64::from(self.fields.get(self.off + 2))
    }

    #[inline]
    fn local(&self) -> FlatLocalLabel<'a> {
        FlatLocalLabel {
            fields: self.fields,
            a: u64::from(self.fields.get(self.off + 3)),
            exc_start: self.off + 5,
            exc_count: self.local_exc_count(),
        }
    }

    fn global_exception_at(&self, w: NodeId) -> Option<(NodeId, FlatLocalLabel<'a>)> {
        let base = self.gexc_base();
        let count = self.fields.get(base) as usize;
        let mut at = base + 1;
        for _ in 0..count {
            let parent_subtree = self.fields.get(at) as NodeId;
            let exc_count = self.fields.get(at + 4) as usize;
            if parent_subtree == w {
                return Some((
                    self.fields.get(at + 1) as NodeId,
                    FlatLocalLabel {
                        fields: self.fields,
                        a: u64::from(self.fields.get(at + 3)),
                        exc_start: at + 5,
                        exc_count,
                    },
                ));
            }
            at += 5 + 2 * exc_count;
        }
        None
    }
}

/// One node-label entry decoded from the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct FlatLabelEntry<'a> {
    /// The level `i`.
    pub level: usize,
    /// The (approximate) `i`-pivot.
    pub pivot: NodeId,
    /// The (approximate) distance to the pivot.
    pub dist: u64,
    /// The vertex's tree label in the pivot's tree, when it belongs to it.
    pub tree_label: Option<FlatTreeLabel<'a>>,
}

/// The sections whose field counts the header fixes, with what a wrong
/// span means.
fn fixed_sections(
    n: usize,
    num_clusters: usize,
    total_members: usize,
) -> [(Section, usize, &'static str); 9] {
    [
        (Section::CenterIndex, n, "centre index length"),
        (
            Section::Clusters,
            num_clusters.saturating_mul(CLUSTER_RECORD_FIELDS),
            "cluster table length",
        ),
        (Section::MemberIds, total_members, "member column length"),
        (
            Section::MemberTableOffs,
            total_members,
            "table-offset column length",
        ),
        (Section::VtreesOff, n + 1, "vertex-trees CSR length"),
        (
            Section::VtreesVals,
            total_members,
            "tree column length disagrees with the member count",
        ),
        (
            Section::MemberSlots,
            total_members,
            "member-slot index length disagrees with the member count",
        ),
        (Section::OwnOff, n + 1, "own-label CSR length"),
        (Section::LabelEntriesOff, n + 1, "label-entry CSR length"),
    ]
}

impl<'a> FlatScheme<'a> {
    /// Validates `bytes` as a snapshot and wraps it for zero-copy access —
    /// the one way to open a snapshot.
    ///
    /// The validation is exhaustive — header magic/version/size, the header
    /// checksum, every per-section checksum, section bounds, and the
    /// structural proof of the module docs, which holds even for bytes
    /// whose checksums were recomputed after tampering — so the accessors
    /// never have to re-check and simply borrow. It runs here, once per
    /// load, single-threaded: one checksum pass over the sections, then one
    /// structural walk. Integrity costs those two linear passes at
    /// publish/load time and nothing on the per-query hot path.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first inconsistency found;
    /// truncated buffers, foreign magic, flipped bits anywhere in the
    /// header or a section, and corrupted offsets are all rejected rather
    /// than risking a panic at query time. Of several damaged sections, the
    /// first in section order is the one reported.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, WireError> {
        // Timed only when a recorder is installed; the uninstrumented load
        // path never reads the clock.
        let t0 = en_obs::active().then(std::time::Instant::now);
        let flat = Self::parse_header(bytes, true)?;
        flat.verify_section_checksums()?;
        flat.prove_structure()?;
        if let Some(t0) = t0 {
            let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            en_obs::histogram_record("wire.validate_ns", dur_ns);
            en_obs::counter_add("wire.validate.runs", 1);
            let section_words = (flat.secs[NUM_SECTIONS] - flat.secs[0]) / FIELDS_PER_WORD;
            en_obs::counter_add("wire.validate.words_total", section_words as u64);
        }
        Ok(flat)
    }

    /// Re-opens `bytes` that already passed [`Self::from_bytes`], after
    /// shape checks only: header geometry, section bounds, and fixed column
    /// lengths — **no checksums, no structural validation of section
    /// contents**.
    ///
    /// The epoch store calls it on bytes it validated at publish time, where
    /// re-walking hundreds of megabytes per reader would defeat
    /// validate-once; in-crate tests call it to poison bytes past
    /// validation. Over bytes that never passed [`Self::from_bytes`] the
    /// accessors may panic (never read out of bounds: they are checked
    /// Rust), which is why it is not public.
    ///
    /// # Errors
    ///
    /// Rejects buffers whose header geometry is unusable (misalignment,
    /// truncation, foreign magic/version, out-of-order section offsets,
    /// wrong fixed-column lengths); everything deeper is trusted.
    pub(crate) fn from_bytes_unvalidated(bytes: &'a [u8]) -> Result<Self, WireError> {
        Self::parse_header(bytes, false)
    }

    /// The shared shape pass: cheap O(header) checks that make the section
    /// arithmetic well-defined. `verify_header_sum` additionally pins every
    /// header bit under the trailing header checksum.
    fn parse_header(bytes: &'a [u8], verify_header_sum: bool) -> Result<Self, WireError> {
        if bytes.len() % 8 != 0 {
            return Err(WireError::Misaligned { len: bytes.len() });
        }
        if bytes.len() < HEADER_WORDS * 8 {
            return Err(WireError::Truncated {
                expected: HEADER_WORDS * 8,
                actual: bytes.len(),
            });
        }
        let fields = Fields::new(bytes);
        if fields.word(0) != MAGIC {
            return Err(WireError::BadMagic {
                found: fields.word(0),
            });
        }
        if fields.word(1) != VERSION {
            return Err(WireError::UnsupportedVersion {
                found: fields.word(1),
            });
        }
        if verify_header_sum {
            // Covers every header word but itself — verified before any
            // other header word is trusted.
            let expected = fields.word(H_HEADER_SUM);
            let actual = fnv1a_bytes(&bytes[..H_HEADER_SUM * 8]);
            if expected != actual {
                return Err(WireError::ChecksumMismatch {
                    region: "header",
                    expected,
                    actual,
                });
            }
        }
        let total_words = fields.word(H_TOTAL_WORDS) as usize;
        if total_words != bytes.len() / 8 {
            return Err(WireError::Truncated {
                expected: total_words.saturating_mul(8),
                actual: bytes.len(),
            });
        }
        let n = fields.word(H_N) as usize;
        let k = fields.word(H_K) as usize;
        let num_clusters = fields.word(H_NUM_CLUSTERS) as usize;
        let total_members = fields.word(H_TOTAL_MEMBERS) as usize;
        if k == 0 {
            return Err(WireError::Corrupt { what: "k is zero" });
        }
        if n > MAX_N {
            return Err(WireError::Corrupt {
                what: "n exceeds the 32-bit vertex ids of the format",
            });
        }

        // Section table, in words: contiguous, in order, inside the buffer.
        let mut secs = [0usize; NUM_SECTIONS + 1];
        for (i, sec) in secs.iter_mut().take(NUM_SECTIONS).enumerate() {
            *sec = fields.word(H_SECTIONS + i) as usize;
        }
        secs[NUM_SECTIONS] = total_words;
        if secs[0] != HEADER_WORDS {
            return Err(WireError::Corrupt {
                what: "first section does not follow the header",
            });
        }
        for i in 0..NUM_SECTIONS {
            if secs[i] > secs[i + 1] || secs[i + 1] > total_words {
                return Err(WireError::Corrupt {
                    what: "section offsets out of order or out of bounds",
                });
            }
        }

        // Fixed-size sections — the byte-budget manifest check: every
        // fixed column's span must match the header's own n / cluster /
        // member counts before any of it is indexed.
        for (s, len, what) in fixed_sections(n, num_clusters, total_members) {
            if secs[s as usize + 1] - secs[s as usize] != section_words(len) {
                return Err(WireError::Corrupt { what });
            }
        }

        Ok(FlatScheme {
            fields,
            n,
            k,
            num_clusters,
            secs: secs.map(|w| FIELDS_PER_WORD * w),
        })
    }

    /// Verifies each section's stored checksum against its bytes, in
    /// section order, so the first damaged section is the one reported.
    fn verify_section_checksums(&self) -> Result<(), WireError> {
        let bytes = self.fields.bytes();
        for (i, sec) in Section::ALL.iter().enumerate() {
            let expected = self.fields.word(H_SECTION_SUMS + i);
            let actual = fnv1a_lanes_bytes(&bytes[self.secs[i] * 4..self.secs[i + 1] * 4]);
            if expected != actual {
                return Err(WireError::ChecksumMismatch {
                    region: sec.name(),
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// The span of section `s` in fields, its pad field included.
    fn span(&self, s: Section) -> usize {
        self.secs[s as usize + 1] - self.secs[s as usize]
    }

    /// Whether section `s` holds exactly `len` fields: its span is `len`
    /// rounded up to whole words, and the pad field, if any, is zero.
    fn holds(&self, s: Section, len: usize) -> bool {
        self.span(s) == FIELDS_PER_WORD * section_words(len)
            && (len % 2 == 0 || self.fields.get(self.secs[s as usize] + len) == 0)
    }

    /// The structural proof of the module docs, in one walk: each section
    /// is sliced once and its columns are read front to back, side by side
    /// where they are aligned (a cluster's member ids with its table
    /// offsets, a vertex's tree row with its rank-index row). Checks run in
    /// the order the columns are read, so the first inconsistency is the one
    /// reported.
    fn prove_structure(&self) -> Result<(), WireError> {
        let (n, k, total_members) = (self.n, self.k, self.total_members());
        let corrupt = |what| WireError::Corrupt { what };
        // The header fixed these spans; what is left is their pad fields.
        for (s, len, _) in fixed_sections(n, self.num_clusters, total_members) {
            if !self.holds(s, len) {
                return Err(corrupt("section pad field is not zero"));
            }
        }
        let column = |s: Section| {
            self.fields
                .slice(self.secs[s as usize], self.secs[s as usize + 1])
        };
        let centres = column(Section::CenterIndex);
        let clusters = column(Section::Clusters);
        let members = column(Section::MemberIds);

        // Centre index entries point at clusters whose centre points back.
        for (v, id) in centres.iter().take(n).enumerate() {
            if id == NULL {
                continue;
            }
            if id as usize >= self.num_clusters {
                return Err(corrupt("centre index points past the cluster table"));
            }
            if clusters.record::<CLUSTER_RECORD_FIELDS>(id as usize)[0] as usize != v {
                return Err(corrupt("centre index disagrees with the cluster table"));
            }
        }

        // Descriptors cover the member column in id order; each member
        // column ascends below n and holds its centre. Member order is the
        // serializer's write order: each member's table record starts where
        // the previous one ends.
        let table_offs = column(Section::MemberTableOffs);
        let table_pool = column(Section::TablePool);
        let overruns = corrupt("table record overruns the table pool");
        let not_tiled = corrupt("table records do not tile the table pool in member order");
        let (mut covered, mut table_end) = (0usize, 0usize);
        for (id, [center, level, start, len]) in clusters.records().enumerate() {
            let (center, start) = (center as usize, start as usize);
            if center >= n
                || centres.get(center) as usize != id
                || level as usize >= k
                || start != covered
                || len == 0
            {
                return Err(corrupt("cluster descriptor inconsistent"));
            }
            covered = match covered.checked_add(len as usize) {
                Some(end) if end <= total_members => end,
                _ => return Err(corrupt("cluster members overrun the member column")),
            };
            let (mut least, mut has_center) = (0, false);
            for i in start..covered {
                let (v, rel) = (members.get(i), table_offs.get(i));
                if v < least || v as usize >= n {
                    return Err(corrupt("cluster members not ascending vertex ids"));
                }
                least = v + 1;
                has_center |= v as usize == center;
                // Nine fixed fields; a global-heavy child (field 8) adds its
                // portal, portal DFS time and exception count, then the
                // pairs. No branch depends on the child: without one, the
                // count read is field 8 itself and no pairs are added.
                let rel = rel as usize;
                let fixed = rel
                    .checked_add(TABLE_FIXED_FIELDS)
                    .filter(|&end| end <= table_pool.len())
                    .ok_or(overruns)?;
                let heavy = usize::from(table_pool.get(rel + 8) != NULL);
                let count_end = fixed + 3 * heavy;
                if count_end > table_pool.len() {
                    return Err(overruns);
                }
                let pairs = 2 * heavy as u64 * u64::from(table_pool.get(count_end - 1));
                let end = count_end as u64 + pairs;
                if end > table_pool.len() as u64 {
                    return Err(overruns);
                }
                if rel != table_end {
                    return Err(not_tiled);
                }
                table_end = end as usize;
            }
            if !has_center {
                return Err(corrupt("cluster centre is not a member"));
            }
        }
        if covered != total_members {
            return Err(corrupt("member column not fully covered by clusters"));
        }
        if !self.holds(Section::TablePool, table_end) {
            return Err(not_tiled);
        }

        // Each CSR starts at 0 and ascends within its value column, and
        // covers that column whole. A padded span also holds one field less
        // than it was sized for, so the tree CSR's end is pinned to the
        // member count itself.
        let not_covered = corrupt("CSR does not cover its value column");
        let csr = |s: Section, unit: usize, vals: Section| {
            let (offsets, vals_len) = (column(s), self.span(vals) / unit);
            let mut prev = 0u32;
            for (v, o) in offsets.iter().take(n + 1).enumerate() {
                if (v == 0 && o != 0) || o < prev || o as usize > vals_len {
                    return Err(corrupt("CSR offsets not monotone within bounds"));
                }
                prev = o;
            }
            if !self.holds(vals, prev as usize * unit) {
                return Err(not_covered);
            }
            Ok(offsets)
        };
        let tree_offs = csr(Section::VtreesOff, 1, Section::VtreesVals)?;
        if tree_offs.get(n) as usize != total_members {
            return Err(not_covered);
        }
        let own_offs = csr(Section::OwnOff, 1, Section::OwnEntries)?;
        let entry_offs = csr(
            Section::LabelEntriesOff,
            LABEL_ENTRY_FIELDS,
            Section::LabelEntries,
        )?;

        let mut labels = LabelRecords::new(column(Section::LabelPool));
        let tree_vals = column(Section::VtreesVals);
        let slots = column(Section::MemberSlots);
        let entries = column(Section::LabelEntries);
        for v in 0..n {
            // Tree memberships: ascending centre ids, each with a rank-index
            // slot that resolves back to `v` in that cluster's member column.
            let (lo, hi) = (tree_offs.get(v) as usize, tree_offs.get(v + 1) as usize);
            let mut least = 0;
            for i in lo..hi {
                let (c, slot) = (tree_vals.get(i), slots.get(i));
                if c < least || c as usize >= n {
                    return Err(corrupt("vertex tree list not ascending centre ids"));
                }
                least = c + 1;
                let id = centres.get(c as usize);
                if id == NULL {
                    return Err(corrupt("vertex tree list names a centre without a cluster"));
                }
                let [_, _, start, len] = clusters.record(id as usize);
                if slot >= len || members.get(start as usize + slot as usize) as usize != v {
                    return Err(corrupt(
                        "member-slot index disagrees with the member column",
                    ));
                }
            }
            // Node-label entries: levels within range, `v`'s label records.
            let (lo, hi) = (entry_offs.get(v) as usize, entry_offs.get(v + 1) as usize);
            let records = entries.slice(LABEL_ENTRY_FIELDS * lo, LABEL_ENTRY_FIELDS * hi);
            for [level, pivot, _, _, off] in records.records() {
                if level as usize >= k || pivot as usize >= n {
                    return Err(corrupt("label entry level or pivot out of range"));
                }
                if off != NULL {
                    labels.reference(off, v as u32)?;
                }
            }
        }

        // Own-cluster runs: a level-0 centre's run is exactly as long as its
        // member column and names each member's record at that member's
        // slot; every other vertex's run is empty. The runs tile
        // OWN_ENTRIES, so a moved boundary breaks some run's length.
        let own_entries = column(Section::OwnEntries);
        for v in 0..n {
            let (start, len) = match centres.get(v) {
                NULL => (0, 0),
                id => match clusters.record(id as usize) {
                    [_, 0, start, len] => (start as usize, len as usize),
                    _ => (0, 0),
                },
            };
            let (lo, hi) = (own_offs.get(v) as usize, own_offs.get(v + 1) as usize);
            if hi - lo != len {
                return Err(corrupt(
                    "own-label run is not its level-0 cluster's member column",
                ));
            }
            for slot in 0..len {
                labels.reference(own_entries.get(lo + slot), members.get(start + slot))?;
            }
        }
        if !self.holds(Section::LabelPool, labels.end) {
            return Err(corrupt("label records do not tile the label pool"));
        }
        Ok(())
    }

    // --- Header accessors ----------------------------------------------------

    /// Number of host vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The trade-off parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cluster trees.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Total snapshot size in bytes.
    pub fn snapshot_bytes(&self) -> usize {
        self.fields.bytes().len()
    }

    /// Sum of all cluster sizes.
    pub fn total_members(&self) -> usize {
        self.fields.word(H_TOTAL_MEMBERS) as usize
    }

    /// Largest routing table in `O(log n)` words (the Table-1 accounting the
    /// in-memory scheme measured at serialization time).
    pub fn max_table_words(&self) -> usize {
        self.fields.word(H_MAX_TABLE_WORDS) as usize
    }

    /// Summed routing-table words over all vertices.
    pub fn total_table_words(&self) -> usize {
        self.fields.word(H_TOTAL_TABLE_WORDS) as usize
    }

    /// Largest label in `O(log n)` words.
    pub fn max_label_words(&self) -> usize {
        self.fields.word(H_MAX_LABEL_WORDS) as usize
    }

    /// Summed label words over all vertices.
    pub fn total_label_words(&self) -> usize {
        self.fields.word(H_TOTAL_LABEL_WORDS) as usize
    }

    // --- Column accessors ----------------------------------------------------

    /// The ascending centres of the cluster trees containing `v` (empty for
    /// a vertex id outside the snapshot).
    pub fn trees_of(&self, v: NodeId) -> FlatU32s<'a> {
        let (start, len) = self.csr_range(Section::VtreesOff, v);
        FlatU32s {
            fields: self.fields,
            start: self.secs[Section::VtreesVals as usize] + start,
            len,
        }
    }

    /// `(start entry, entry count)` of `v`'s slice of an offset CSR; empty
    /// for a vertex id outside the snapshot.
    fn csr_range(&self, offsets: Section, v: NodeId) -> (usize, usize) {
        if v >= self.n {
            return (0, 0);
        }
        let base = self.secs[offsets as usize];
        let start = self.fields.get(base + v) as usize;
        let end = self.fields.get(base + v + 1) as usize;
        (start, end - start)
    }

    fn own_range(&self, v: NodeId) -> (usize, usize) {
        self.csr_range(Section::OwnOff, v)
    }

    /// The `4k−5` refinement lookup: if `center` stores an own-cluster label
    /// for `member`, return it (`None` for out-of-range ids).
    ///
    /// Only a level-0 centre has a run, aligned slot for slot with its
    /// cluster's member column, so the lookup binary-searches that column
    /// and reads the run at the member's slot.
    pub fn own_label(&self, center: NodeId, member: NodeId) -> Option<FlatTreeLabel<'a>> {
        let (start, count) = self.own_range(center);
        if count == 0 {
            return None;
        }
        let slot = self.cluster_of_center(center)?.search(member)?;
        let off = self
            .fields
            .get(self.secs[Section::OwnEntries as usize] + start + slot);
        Some(FlatTreeLabel {
            fields: self.fields,
            off: self.secs[Section::LabelPool as usize] + off as usize,
        })
    }

    /// Number of own-cluster labels stored at `center` (0 unless `center` is
    /// a level-0 centre).
    pub fn own_label_count(&self, center: NodeId) -> usize {
        self.own_range(center).1
    }

    fn label_entry_range(&self, v: NodeId) -> (usize, usize) {
        self.csr_range(Section::LabelEntriesOff, v)
    }

    /// Number of node-label entries `v` carries (0 for a vertex id outside
    /// the snapshot).
    pub fn label_entry_count(&self, v: NodeId) -> usize {
        self.label_entry_range(v).1
    }

    /// `v`'s `i`-th node-label entry, in ascending level order, or `None`
    /// when `i` is past the entry count.
    pub fn label_entry_at(&self, v: NodeId, i: usize) -> Option<FlatLabelEntry<'a>> {
        let (start, count) = self.label_entry_range(v);
        (i < count).then(|| self.decode_label_entry(start + i))
    }

    fn decode_label_entry(&self, entry: usize) -> FlatLabelEntry<'a> {
        let at = self.secs[Section::LabelEntries as usize] + entry * LABEL_ENTRY_FIELDS;
        let off = self.fields.get(at + 4);
        FlatLabelEntry {
            level: self.fields.get(at) as usize,
            pivot: self.fields.get(at + 1) as NodeId,
            dist: self.fields.get_u64(at + 2),
            tree_label: (off != NULL).then(|| FlatTreeLabel {
                fields: self.fields,
                off: self.secs[Section::LabelPool as usize] + off as usize,
            }),
        }
    }

    /// The node-label entries of `v`, in ascending level order (empty for a
    /// vertex id outside the snapshot).
    pub fn label_entries_of(&self, v: NodeId) -> impl Iterator<Item = FlatLabelEntry<'a>> + '_ {
        let (start, count) = self.label_entry_range(v);
        (0..count).map(move |e| self.decode_label_entry(start + e))
    }

    /// The cluster with dense id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clusters()`.
    pub fn cluster(&self, id: usize) -> FlatCluster<'a> {
        assert!(id < self.num_clusters, "cluster id out of range");
        let at = self.secs[Section::Clusters as usize] + id * CLUSTER_RECORD_FIELDS;
        FlatCluster {
            scheme: *self,
            id,
            center: self.fields.get(at) as NodeId,
            level: self.fields.get(at + 1) as usize,
            members_start: self.fields.get(at + 2) as usize,
            members_len: self.fields.get(at + 3) as usize,
        }
    }

    /// The cluster rooted at `center`, if any.
    pub fn cluster_of_center(&self, center: NodeId) -> Option<FlatCluster<'a>> {
        if center >= self.n {
            return None;
        }
        let id = self
            .fields
            .get(self.secs[Section::CenterIndex as usize] + center);
        (id != NULL).then(|| self.cluster(id as usize))
    }

    /// Iterates all clusters in dense id order.
    pub fn clusters(&self) -> impl Iterator<Item = FlatCluster<'a>> + '_ {
        (0..self.num_clusters).map(move |id| self.cluster(id))
    }

    /// The snapshot's byte-budget manifest: each section's span and stored
    /// checksum, straight from the (already shape-checked) header. Fault
    /// tooling uses it to aim truncations and flips at exact boundaries.
    pub fn manifest(&self) -> SnapshotManifest {
        let mut sections = [SectionSpan {
            section: Section::CenterIndex,
            start_word: 0,
            words: 0,
            checksum: 0,
        }; NUM_SECTIONS];
        for (i, sec) in Section::ALL.iter().enumerate() {
            sections[i] = SectionSpan {
                section: *sec,
                start_word: self.secs[i] / FIELDS_PER_WORD,
                words: (self.secs[i + 1] - self.secs[i]) / FIELDS_PER_WORD,
                checksum: self.fields.word(H_SECTION_SUMS + i),
            };
        }
        SnapshotManifest {
            total_words: self.fields.len() / FIELDS_PER_WORD,
            header_checksum: self.fields.word(H_HEADER_SUM),
            sections,
        }
    }
}

/// The label-pool side of [`FlatScheme::prove_structure`]. Label records
/// tile LABEL_POOL in first-reference order — every node-label entry by
/// vertex, then every own-cluster entry — which is the order the
/// serializer interns them in. A first reference points at the end of the
/// records walked so far and walks its record once; a repeated one must
/// name a record start seen before. Either way the record's first field
/// must be the vertex the entry is for.
struct LabelRecords<'a> {
    pool: Fields<'a>,
    /// Where the records walked so far end.
    end: usize,
    /// One bit per pool field: whether a walked record starts there.
    starts: Vec<u64>,
}

impl<'a> LabelRecords<'a> {
    fn new(pool: Fields<'a>) -> Self {
        let starts = vec![0; pool.len().div_ceil(64)];
        LabelRecords {
            pool,
            end: 0,
            starts,
        }
    }

    /// Checks one reference to the record at `off` for `vertex`.
    #[inline]
    fn reference(&mut self, off: u32, vertex: u32) -> Result<(), WireError> {
        let off = off as usize;
        if off == self.end {
            self.end = self.walk(off)?;
            self.starts[off / 64] |= 1 << (off % 64);
        } else if off >= self.pool.len() {
            return Err(WireError::Corrupt {
                what: "label record overruns the label pool",
            });
        } else if off > self.end || self.starts[off / 64] & (1 << (off % 64)) == 0 {
            return Err(WireError::Corrupt {
                what: "label offset does not start a label record",
            });
        }
        if self.pool.get(off) != vertex {
            return Err(WireError::Corrupt {
                what: "label record names another vertex",
            });
        }
        Ok(())
    }

    /// Walks the record at `off` and returns where it ends: vertex, subtree
    /// root, `a_global`, local DFS time, the local exception count and
    /// pairs, the global exception count, then per global exception four
    /// fields, a count and the pairs.
    #[inline]
    fn walk(&self, off: usize) -> Result<usize, WireError> {
        let len = self.pool.len() as u64;
        // Where the fields that `count_at` counts end: past the count and its
        // pairs.
        let pairs_end =
            |count_at: u64| count_at + 1 + 2 * u64::from(self.pool.get(count_at as usize));
        let overruns = Err(WireError::Corrupt {
            what: "label record overruns the label pool",
        });
        let mut at = off as u64 + 5;
        if at > len {
            return overruns;
        }
        at = pairs_end(at - 1);
        if at + 1 > len {
            return overruns;
        }
        let global = self.pool.get(at as usize);
        at += 1;
        for _ in 0..global {
            if at + 5 > len {
                return overruns;
            }
            at = pairs_end(at + 4);
            if at > len {
                return overruns;
            }
        }
        Ok(at as usize)
    }
}

/// One section's span inside a snapshot, as declared by the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpan {
    /// Which section.
    pub section: Section,
    /// Absolute start, in words from the buffer start.
    pub start_word: usize,
    /// Length in words, the pad field included.
    pub words: usize,
    /// The checksum the header stores for this section.
    pub checksum: u64,
}

impl SectionSpan {
    /// Absolute start, in 4-byte fields from the buffer start.
    pub fn start_field(&self) -> usize {
        self.start_word * FIELDS_PER_WORD
    }

    /// Length in 4-byte fields, the pad field included.
    pub fn fields(&self) -> usize {
        self.words * FIELDS_PER_WORD
    }
}

/// The header's byte-budget manifest: every section span plus the stored
/// checksums (see [`FlatScheme::manifest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Total buffer size in words.
    pub total_words: usize,
    /// The stored header checksum.
    pub header_checksum: u64,
    /// Per-section spans, in buffer order.
    pub sections: [SectionSpan; NUM_SECTIONS],
}

impl SnapshotManifest {
    /// Total buffer size in 4-byte fields.
    pub fn total_fields(&self) -> usize {
        self.total_words * FIELDS_PER_WORD
    }

    /// The word offsets of every section boundary, ascending: the start of
    /// each section plus the end of the buffer — the exact places where a
    /// torn transfer truncates cleanly.
    pub fn boundaries(&self) -> Vec<usize> {
        let mut b: Vec<usize> = self.sections.iter().map(|s| s.start_word).collect();
        b.push(self.total_words);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_pairs, serialize, PairWorkload, QueryEngine};
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_graph::WeightedGraph;
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};
    use en_routing::scheme::RoutingScheme;

    fn built() -> (WeightedGraph, RoutingScheme) {
        built_seeded(9)
    }

    fn built_seeded(seed: u64) -> (WeightedGraph, RoutingScheme) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(64, seed).with_weights(1, 15), 0.12);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, seed)).unwrap();
        (g, built.scheme)
    }

    fn snapshot() -> Vec<u8> {
        serialize(&built().1)
    }

    fn field_at(bytes: &[u8], f: usize) -> u32 {
        u32::from_le_bytes(bytes[f * 4..f * 4 + 4].try_into().unwrap())
    }

    /// A copy of `bytes` with each `(field, value)` edit applied.
    fn poke(bytes: &[u8], edits: &[(usize, u32)]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &(f, value) in edits {
            out[f * 4..f * 4 + 4].copy_from_slice(&value.to_le_bytes());
        }
        out
    }

    /// [`poke`], then the checksums re-sealed, so the forged buffer passes
    /// the integrity layer and only the structural validation can reject
    /// it.
    fn forge(bytes: &[u8], edits: &[(usize, u32)]) -> Vec<u8> {
        let mut out = poke(bytes, edits);
        crate::snapshot::seal(&mut out);
        out
    }

    /// The first field of section `s`.
    fn start(m: &SnapshotManifest, s: Section) -> usize {
        m.sections[s as usize].start_field()
    }

    /// Asserts `from_bytes` refuses the poisoned fields twice over: as plain
    /// corruption by the section checksum, and — with the checksums
    /// re-sealed around them — by the structural proof, naming `what`.
    #[track_caller]
    fn assert_rejected(bytes: &[u8], edits: &[(usize, u32)], what: &'static str) {
        assert!(
            matches!(
                FlatScheme::from_bytes(&poke(bytes, edits)),
                Err(WireError::ChecksumMismatch { .. })
            ),
            "the section checksum must catch the poisoned field"
        );
        assert_eq!(
            FlatScheme::from_bytes(&forge(bytes, edits)).unwrap_err(),
            WireError::Corrupt { what },
            "re-sealed checksums must not let it through"
        );
    }

    // The `try_<accessor>_reports_*` drills each poison a field that
    // `<accessor>` reads without a bounds check. `from_bytes` is the only
    // gate before those reads, so it must refuse every one of them.

    #[test]
    fn try_cluster_of_center_reports_poisoned_centre_index() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let ci = start(&flat.manifest(), Section::CenterIndex);
        let center = (0..flat.n())
            .find(|&v| field_at(&bytes, ci + v) != NULL)
            .expect("some vertex is a centre");
        assert_rejected(
            &bytes,
            &[(ci + center, flat.num_clusters() as u32 + 7)],
            "centre index points past the cluster table",
        );
    }

    #[test]
    fn try_members_reports_member_span_overrun() {
        let bytes = snapshot();
        let m = FlatScheme::from_bytes(&bytes).unwrap().manifest();
        // Cluster 0's descriptor: [center, level, members_start, members_len].
        let cl = start(&m, Section::Clusters);
        assert_rejected(
            &bytes,
            &[(cl + 3, 1 << 30)],
            "cluster members overrun the member column",
        );
    }

    #[test]
    fn try_table_of_reports_poisoned_table_offset() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let table_off =
            start(&flat.manifest(), Section::MemberTableOffs) + flat.cluster(0).members_start;
        assert_rejected(
            &bytes,
            &[(table_off, u32::MAX)],
            "table record overruns the table pool",
        );
    }

    #[test]
    fn table_offset_shifted_by_one_record_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let offs = start(&flat.manifest(), Section::MemberTableOffs);
        // The second member's offset names the third member's record: a
        // whole record, in the pool, that is not the one this member owns.
        assert_rejected(
            &bytes,
            &[(offs + 1, field_at(&bytes, offs + 2))],
            "table records do not tile the table pool in member order",
        );
    }

    /// The field of the first node-label entry of a vertex other than
    /// vertex 0 that names a label record, and that vertex.
    fn later_label_entry(flat: &FlatScheme<'_>) -> (usize, NodeId) {
        let m = flat.manifest();
        (1..flat.n())
            .find_map(|v| {
                let (first, count) = flat.label_entry_range(v);
                (first..first + count)
                    .map(|e| start(&m, Section::LabelEntries) + e * LABEL_ENTRY_FIELDS + 4)
                    .find(|&at| flat.fields.get(at) != NULL)
                    .map(|at| (at, v))
            })
            .expect("some vertex past 0 carries a tree label")
    }

    #[test]
    fn label_entry_offset_naming_another_vertex_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let (at, v) = later_label_entry(&flat);
        // The pool's first record is vertex 0's, from its first entry.
        let pool = start(&flat.manifest(), Section::LabelPool);
        assert_eq!(field_at(&bytes, pool), 0);
        assert_ne!(v, 0);
        assert_rejected(&bytes, &[(at, 0)], "label record names another vertex");
    }

    #[test]
    fn label_entry_offset_into_a_record_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let (at, _) = later_label_entry(&flat);
        // Field 1 of the pool is inside vertex 0's record.
        assert_rejected(
            &bytes,
            &[(at, 1)],
            "label offset does not start a label record",
        );
    }

    #[test]
    fn label_entry_distances_keep_both_halves() {
        let (_, scheme) = built();
        let bytes = serialize(&scheme);
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let mut entries = 0;
        for v in 0..scheme.n() {
            let expect: Vec<_> = scheme
                .label(v)
                .entries
                .iter()
                .map(|e| (e.level, e.pivot, e.dist))
                .collect();
            let got: Vec<_> = flat
                .label_entries_of(v)
                .map(|e| (e.level, e.pivot, e.dist))
                .collect();
            assert_eq!(got, expect, "vertex {v}");
            entries += got.len();
        }
        assert!(entries > 0);
        // A distance past 32 bits reads back whole: forge one entry's high
        // half (distances are not validated, so the forgery opens).
        let (at, v) = later_label_entry(&flat);
        let forged = forge(&bytes, &[(at - 1, 7)]);
        let forged = FlatScheme::from_bytes(&forged).unwrap();
        let e = forged
            .label_entries_of(v)
            .find(|e| e.tree_label.is_some())
            .unwrap();
        assert_eq!(e.dist >> 32, 7);
    }

    #[test]
    fn parent_ports_lead_to_the_parent_in_memory_and_in_the_snapshot() {
        let (g, scheme) = built();
        let bytes = serialize(&scheme);
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let leads_to_parent = |v: NodeId, parent: Option<NodeId>, port: Option<u32>| match parent {
            Some(p) => {
                let port = port.expect("a tree edge is an edge of the graph") as usize;
                assert_eq!(g.neighbors(v)[port].node, p, "vertex {v}");
            }
            None => assert_eq!(port, None, "the root {v} has no parent edge"),
        };
        let mut tables = 0;
        for c in scheme.centers() {
            let ts = scheme.tree_scheme(c).unwrap();
            for v in ts.members() {
                let t = ts.table(v).unwrap();
                leads_to_parent(v, t.parent, t.parent_port);
                tables += 1;
            }
        }
        for cluster in flat.clusters() {
            for slot in 0..cluster.len() {
                let t = cluster.table_at(slot).unwrap();
                leads_to_parent(t.vertex(), t.parent(), t.parent_port());
                tables -= 1;
            }
        }
        assert_eq!(tables, 0, "the snapshot holds every table");
    }

    /// The ports are only a shortcut: with every port field of a re-sealed
    /// snapshot pointing at the wrong neighbour, past the adjacency list,
    /// or nowhere, each hop is weighed by the adjacency scan instead and
    /// every outcome is the pristine snapshot's.
    #[test]
    fn scrambled_parent_ports_serve_the_pristine_outcomes() {
        let (g, scheme) = built();
        let bytes = serialize(&scheme);
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let mut edits = Vec::new();
        for cluster in flat.clusters() {
            for slot in 0..cluster.len() {
                let t = cluster.table_at(slot).unwrap();
                let Some(port) = t.parent_port() else {
                    continue;
                };
                let degree = g.degree(t.vertex()) as u32;
                let scrambled = match edits.len() % 3 {
                    0 if degree > 1 => (port + 1) % degree,
                    1 => degree,
                    _ => NULL,
                };
                edits.push((t.off + 2, scrambled));
            }
        }
        assert!(edits.len() > 100, "the drill rewrites many parent ports");
        let forged = forge(&bytes, &edits);
        let scrambled = FlatScheme::from_bytes(&forged).expect("ports are not validated");
        let pristine = QueryEngine::new(flat, &g).unwrap();
        let served = QueryEngine::new(scrambled, &g).unwrap();
        let pairs = generate_pairs(&g, &PairWorkload::Uniform, 400, 5);
        let expect = pristine.route_batch(&pairs, None, 1);
        assert_eq!(expect.stats.failed, 0);
        for threads in [1usize, 2, 8] {
            let batch = served.route_batch(&pairs, None, threads);
            assert_eq!(batch.stats.shard_panics, 0, "{threads} threads");
            assert_eq!(batch.outcomes, expect.outcomes, "{threads} threads");
        }
    }

    #[test]
    fn try_trees_of_reports_corrupt_csr_offsets() {
        let bytes = snapshot();
        let m = FlatScheme::from_bytes(&bytes).unwrap().manifest();
        // Poisoning off[1] breaks vertex 0 (end past the column) and vertex 1
        // (non-monotone start > end) at once.
        let vo = start(&m, Section::VtreesOff);
        assert_rejected(
            &bytes,
            &[(vo + 1, u32::MAX)],
            "CSR offsets not monotone within bounds",
        );
    }

    #[test]
    fn try_own_label_reports_poisoned_label_offset() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let oo = start(&m, Section::OwnOff);
        let v = (0..flat.n())
            .find(|&v| field_at(&bytes, oo + v + 1) > field_at(&bytes, oo + v))
            .expect("some centre stores own-cluster labels (4k-5 refinement)");
        let entry = start(&m, Section::OwnEntries) + field_at(&bytes, oo + v) as usize;
        // Sanity: the pristine lookup resolves, at the member in slot 0.
        let member = flat.cluster_of_center(v).unwrap().members().get(0) as NodeId;
        assert!(flat.own_label(v, member).is_some());
        assert_rejected(
            &bytes,
            &[(entry, u32::MAX)],
            "label record overruns the label pool",
        );
    }

    /// Moving the boundary between two own-label runs hands one run a field
    /// of its neighbour's (or loses one), so some run stops matching its
    /// cluster's member column.
    #[test]
    fn forged_own_run_boundary_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let oo = start(&flat.manifest(), Section::OwnOff);
        // A boundary strictly inside OWN_ENTRIES with a run on each side.
        let v = (1..flat.n())
            .find(|&v| {
                let (lo, at, hi) = (
                    field_at(&bytes, oo + v - 1),
                    field_at(&bytes, oo + v),
                    field_at(&bytes, oo + flat.n()),
                );
                lo < at && at < hi && flat.own_label_count(v) > 0
            })
            .expect("two adjacent vertices with own-label runs");
        let at = field_at(&bytes, oo + v);
        for moved in [at - 1, at + 1] {
            assert_rejected(
                &bytes,
                &[(oo + v, moved)],
                "own-label run is not its level-0 cluster's member column",
            );
        }
    }

    #[test]
    fn own_run_naming_another_members_record_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let c = flat
            .clusters()
            .find(|c| c.level == 0 && c.len() >= 2)
            .expect("a level-0 cluster with two members");
        let run = start(&m, Section::OwnEntries)
            + field_at(&bytes, start(&m, Section::OwnOff) + c.center) as usize;
        // Swap the first two members' label offsets: both are records that
        // exist, each at the other member's slot.
        let (a, b) = (field_at(&bytes, run), field_at(&bytes, run + 1));
        let what = FlatScheme::from_bytes(&forge(&bytes, &[(run, b), (run + 1, a)])).unwrap_err();
        assert!(
            matches!(
                what,
                WireError::Corrupt {
                    what: "label record names another vertex"
                        | "label offset does not start a label record"
                }
            ),
            "{what:?}"
        );
    }

    #[test]
    fn nonzero_pad_field_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        // OWN_OFF holds n + 1 fields, so an even n leaves it one pad field.
        assert_eq!(flat.n() % 2, 0);
        let pad = start(&m, Section::OwnOff) + flat.n() + 1;
        assert_eq!(pad, start(&m, Section::OwnEntries) - 1);
        assert_eq!(field_at(&bytes, pad), 0);
        assert_rejected(&bytes, &[(pad, 1)], "section pad field is not zero");
    }

    /// A padded span also fits one field less than it was sized for. Ending
    /// the tree CSR one incidence early, with the freed field zeroed as if
    /// it were the pad, would drop the last vertex's last tree from the
    /// rank index's bijection, so the CSR must end at the member count.
    #[test]
    fn tree_csr_ending_short_of_the_member_count_is_rejected() {
        // This build's member count is even, which leaves VTREES_VALS no
        // pad field, so one field less spans the same words.
        let bytes = serialize(&built_seeded(2).1);
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let total = flat.total_members();
        assert_eq!(total % 2, 0);
        let end = start(&m, Section::VtreesOff) + flat.n();
        assert_eq!(field_at(&bytes, end) as usize, total);
        assert!(!flat.trees_of(flat.n() - 1).is_empty());
        let last = start(&m, Section::VtreesVals) + total - 1;
        assert_rejected(
            &bytes,
            &[(end, total as u32 - 1), (last, 0)],
            "CSR does not cover its value column",
        );
    }

    #[test]
    fn cluster_level_past_the_top_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        // Cluster 0's descriptor: [center, level, members_start, members_len].
        let level = start(&flat.manifest(), Section::Clusters) + 1;
        assert_rejected(
            &bytes,
            &[(level, flat.k() as u32)],
            "cluster descriptor inconsistent",
        );
    }

    #[test]
    fn centre_index_naming_another_cluster_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let ci = start(&flat.manifest(), Section::CenterIndex);
        // Vertex 0's entry names the cluster vertex 1 is the centre of.
        let other = field_at(&bytes, ci + 1);
        assert_ne!(other, NULL);
        assert_rejected(
            &bytes,
            &[(ci, other)],
            "centre index disagrees with the cluster table",
        );
    }

    #[test]
    fn cluster_without_its_centre_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let mi = start(&flat.manifest(), Section::MemberIds);
        // A centre whose predecessor id is not a member: writing that id
        // over the centre keeps the column ascending but drops the centre.
        let (at, id) = flat
            .clusters()
            .find_map(|c| {
                let members = c.members();
                let p = members.binary_search(c.center as u32).unwrap();
                let below = c.center.checked_sub(1)? as u32;
                (p == 0 || members.get(p - 1) < below).then_some((mi + c.members_start + p, below))
            })
            .expect("a centre with a free id below it");
        assert_rejected(&bytes, &[(at, id)], "cluster centre is not a member");
    }

    #[test]
    fn vertex_tree_list_out_of_order_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let v = (0..flat.n())
            .find(|&v| flat.trees_of(v).len() >= 2)
            .expect("a vertex in two trees");
        let rel = flat.trees_of(v).start - start(&m, Section::VtreesVals);
        let (t, s) = (
            start(&m, Section::VtreesVals) + rel,
            start(&m, Section::MemberSlots) + rel,
        );
        // The first two trees swapped with their slots: every slot still
        // resolves, only the order is wrong.
        let swapped = [
            (t, field_at(&bytes, t + 1)),
            (t + 1, field_at(&bytes, t)),
            (s, field_at(&bytes, s + 1)),
            (s + 1, field_at(&bytes, s)),
        ];
        assert_rejected(
            &bytes,
            &swapped,
            "vertex tree list not ascending centre ids",
        );
        // A centre id past n.
        assert_rejected(
            &bytes,
            &[(t, flat.n() as u32)],
            "vertex tree list not ascending centre ids",
        );
    }

    /// A sealed snapshot assembled from its section columns, with zero
    /// size counters in the header.
    fn assemble(n: usize, k: usize, cols: [&[u32]; NUM_SECTIONS]) -> Vec<u8> {
        let words = cols.map(|c| section_words(c.len()));
        let total = HEADER_WORDS + words.iter().sum::<usize>();
        let word = |w: usize, x: u64| [(2 * w, x as u32), (2 * w + 1, (x >> 32) as u32)];
        let mut edits: Vec<(usize, u32)> = [
            (0, MAGIC),
            (1, VERSION),
            (H_N, n as u64),
            (H_K, k as u64),
            (
                H_NUM_CLUSTERS,
                (cols[1].len() / CLUSTER_RECORD_FIELDS) as u64,
            ),
            (H_TOTAL_WORDS, total as u64),
            (H_TOTAL_MEMBERS, cols[2].len() as u64),
        ]
        .into_iter()
        .flat_map(|(w, x)| word(w, x))
        .collect();
        let mut at = HEADER_WORDS;
        for (i, col) in cols.iter().enumerate() {
            edits.extend(word(H_SECTIONS + i, at as u64));
            edits.extend(col.iter().enumerate().map(|(j, &f)| (2 * at + j, f)));
            at += words[i];
        }
        forge(&vec![0u8; total * 8], &edits)
    }

    /// A valid two-vertex snapshot with one cluster, centred at 0: bytes
    /// no serializer writes. A built scheme has a cluster for every vertex
    /// (level 0 holds them all), so no tree list can name a non-centre, and
    /// its last cluster is centred at the largest id, its last member, so
    /// that cluster cannot give up a member and keep its centre.
    fn two_vertex_snapshot() -> Vec<u8> {
        let table = [0, NULL, NULL, NULL, 0, 2, 0, 2, NULL];
        let pool = [table, table].concat();
        let bytes = assemble(
            2,
            1,
            [
                &[0, NULL],
                &[0, 0, 0, 2],
                &[0, 1],
                &[0, 9],
                &pool,
                &[0, 1, 2],
                &[0, 0],
                &[0, 1],
                &[0, 2, 2],
                &[0, 6],
                &[0, 0, 0],
                &[],
                &[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
            ],
        );
        let flat = FlatScheme::from_bytes(&bytes).expect("the assembled snapshot opens");
        assert_eq!(flat.cluster_of_center(1).map(|c| c.id), None);
        bytes
    }

    #[test]
    fn clusters_short_of_the_member_count_are_rejected() {
        let bytes = two_vertex_snapshot();
        let count = start(
            &FlatScheme::from_bytes(&bytes).unwrap().manifest(),
            Section::Clusters,
        ) + 3;
        // The one cluster keeps its centre and gives up its second member.
        assert_rejected(
            &bytes,
            &[(count, 1)],
            "member column not fully covered by clusters",
        );
    }

    #[test]
    fn vertex_tree_list_naming_a_non_centre_is_rejected() {
        let bytes = two_vertex_snapshot();
        let vv = start(
            &FlatScheme::from_bytes(&bytes).unwrap().manifest(),
            Section::VtreesVals,
        );
        // Vertex 1's one tree names vertex 1 instead of centre 0.
        assert_rejected(
            &bytes,
            &[(vv + 1, 1)],
            "vertex tree list names a centre without a cluster",
        );
    }

    #[test]
    fn label_pool_with_an_unreferenced_record_is_rejected() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        // Every label reference: (field, record offset, vertex).
        let mut refs = Vec::new();
        for v in 0..flat.n() {
            let (first, count) = flat.label_entry_range(v);
            for e in first..first + count {
                let at = start(&m, Section::LabelEntries) + e * LABEL_ENTRY_FIELDS + 4;
                refs.push((at, field_at(&bytes, at), v as u32));
            }
        }
        for c in flat.clusters().filter(|c| c.level == 0) {
            let (first, _) = flat.own_range(c.center);
            for slot in 0..c.len() {
                let at = start(&m, Section::OwnEntries) + first + slot;
                refs.push((at, field_at(&bytes, at), c.members().get(slot)));
            }
        }
        refs.retain(|r| r.1 != NULL);
        // The pool's last record, named once, is redirected to an earlier
        // record of the same vertex, so nothing names the last one.
        let &(at, last, v) = refs.iter().max_by_key(|r| r.1).unwrap();
        assert_eq!(refs.iter().filter(|r| r.1 == last).count(), 1);
        let other = refs
            .iter()
            .find(|r| r.2 == v && r.1 != last)
            .expect("the vertex has a second record")
            .1;
        assert_rejected(
            &bytes,
            &[(at, other)],
            "label records do not tile the label pool",
        );
    }

    #[test]
    fn try_label_entries_of_reports_out_of_range_fields() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let lo = start(&m, Section::LabelEntriesOff);
        let v = (0..flat.n())
            .find(|&v| field_at(&bytes, lo + v + 1) > field_at(&bytes, lo + v))
            .expect("some vertex has label entries");
        let entry = start(&m, Section::LabelEntries)
            + field_at(&bytes, lo + v) as usize * LABEL_ENTRY_FIELDS;
        // Level past k.
        assert_rejected(
            &bytes,
            &[(entry, flat.k() as u32 + 100)],
            "label entry level or pivot out of range",
        );
        // Pivot past n.
        assert_rejected(
            &bytes,
            &[(entry + 1, flat.n() as u32 + 100)],
            "label entry level or pivot out of range",
        );
        // Label-pool offset past the pool.
        assert_rejected(
            &bytes,
            &[(entry + 4, u32::MAX - 1)],
            "label record overruns the label pool",
        );
    }

    #[test]
    fn scrambled_member_column_never_panics_the_checked_paths() {
        // A descending run breaks the invariant the member search and the
        // rank index lean on: the open must report it, not panic.
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        assert!(flat.cluster(0).len() >= 2, "cluster 0 needs two members");
        let mi = start(&flat.manifest(), Section::MemberIds) + flat.cluster(0).members_start;
        let (a, b) = (field_at(&bytes, mi), field_at(&bytes, mi + 1));
        assert_rejected(
            &bytes,
            &[(mi, b), (mi + 1, a)],
            "cluster members not ascending vertex ids",
        );
    }

    #[test]
    fn try_table_of_reports_poisoned_rank_index() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        // Pick an incidence whose cluster has a second member to point at.
        let (v, i, c) = (0..flat.n())
            .flat_map(|v| {
                let trees = flat.trees_of(v);
                (0..trees.len()).map(move |i| (v, i, trees.get(i) as NodeId))
            })
            .find(|&(_, _, c)| flat.cluster_of_center(c).unwrap().len() >= 2)
            .expect("some cluster has at least two members");
        let slot_field = start(&m, Section::MemberSlots)
            + (flat.trees_of(v).start - start(&m, Section::VtreesVals))
            + i;
        let good = field_at(&bytes, slot_field);
        let len = flat.cluster_of_center(c).unwrap().len() as u32;
        // A slot naming a *different* member: in range, so only the
        // member-column agreement check can catch it.
        assert_rejected(
            &bytes,
            &[(slot_field, (good + 1) % len)],
            "member-slot index disagrees with the member column",
        );
        // A slot far past every column.
        assert_rejected(
            &bytes,
            &[(slot_field, u32::MAX)],
            "member-slot index disagrees with the member column",
        );
    }

    #[test]
    fn forged_member_count_overflow_is_rejected_not_wrapped() {
        // A descriptor past the first has `members_start > 0`, so a member
        // count of u32::MAX runs the running total past the member column:
        // it must be reported, not panic (overflow checks) or wrap.
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let id = (0..flat.num_clusters())
            .find(|&id| flat.cluster(id).members_start > 0)
            .expect("a second cluster starts past the first");
        let count = start(&flat.manifest(), Section::Clusters) + id * CLUSTER_RECORD_FIELDS + 3;
        assert_eq!(
            FlatScheme::from_bytes(&forge(&bytes, &[(count, u32::MAX)])).unwrap_err(),
            WireError::Corrupt {
                what: "cluster members overrun the member column"
            }
        );
    }

    #[test]
    fn rank_index_agrees_with_the_member_search_oracle() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let mut lookups = 0usize;
        let (mut full, mut partial) = (0usize, 0usize);
        for cluster in flat.clusters() {
            if cluster.len() == flat.n() {
                // The identity branch: every vertex is its own slot, and
                // ids past n miss.
                full += 1;
                for v in 0..flat.n() {
                    assert_eq!(cluster.slot_of(v), Some(v));
                }
                assert_eq!(cluster.slot_of(flat.n()), None);
            } else {
                partial += 1;
            }
            for slot in 0..cluster.len() {
                let v = cluster.members().get(slot) as NodeId;
                assert_eq!(cluster.slot_of(v), Some(slot));
                let fast = cluster.table_of(v).expect("member resolves via the index");
                let oracle = cluster
                    .table_of_by_search(v)
                    .expect("member resolves via search");
                assert_eq!(fast.off, oracle.off, "index and search disagree on {v}");
                assert_eq!(fast.vertex(), oracle.vertex());
                // table_at addresses the same record by slot alone.
                assert_eq!(cluster.table_at(slot).unwrap().off, fast.off);
                lookups += 1;
            }
            // Non-members miss on both paths (a cluster may span all of V,
            // in which case there is no outsider to probe).
            if let Some(outsider) =
                (0..flat.n()).find(|&v| cluster.members().binary_search(v as u32).is_err())
            {
                assert!(cluster.table_of(outsider).is_none());
                assert!(cluster.table_of_by_search(outsider).is_none());
            }
        }
        assert!(lookups > 0, "the drill must exercise real lookups");
        assert!(full > 0, "the identity branch must be exercised");
        assert!(partial > 0, "the rank-index branch must be exercised");
    }

    #[test]
    fn forged_non_identity_full_cluster_fails_structural_validation() {
        // The full-cluster fast path answers slot_of(v) = v. That is sound
        // only because validation proves every member column strictly
        // ascending below n; a forger who re-seals the checksums must
        // still be stopped by that proof.
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let cluster = flat
            .clusters()
            .find(|c| c.len() == flat.n())
            .expect("the top level's clusters span V");
        let col = start(&flat.manifest(), Section::MemberIds) + cluster.members_start;
        let swapped = [(col, 1), (col + 1, 0)];
        let duplicated = [(col + 1, 0)];
        for (name, edits) in [("swap", &swapped[..]), ("duplicate", &duplicated[..])] {
            let forged = forge(&bytes, edits);
            assert_eq!(
                FlatScheme::from_bytes(&forged).unwrap_err(),
                WireError::Corrupt {
                    what: "cluster members not ascending vertex ids"
                },
                "{name}: the re-sealed checksums must not let it through"
            );
        }
    }

    #[test]
    fn manifest_boundaries_cover_the_whole_buffer() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let b = m.boundaries();
        assert_eq!(b.len(), NUM_SECTIONS + 1);
        assert_eq!(b[0], HEADER_WORDS, "first section starts after the header");
        assert_eq!(*b.last().unwrap(), bytes.len() / 8);
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "boundaries ascend");
        let spanned: usize = m.sections.iter().map(|s| s.words).sum();
        assert_eq!(
            spanned + HEADER_WORDS,
            m.total_words,
            "sections tile the buffer"
        );
    }

    #[test]
    fn checksum_errors_name_the_first_damaged_section() {
        let bytes = snapshot();
        let m = FlatScheme::from_bytes(&bytes).unwrap().manifest();
        // Poison one word in each of two sections: the single pass reports
        // the first failing section in section order.
        let mut bad = bytes.clone();
        for s in [Section::MemberIds, Section::LabelPool] {
            let w = m.sections[s as usize].start_word;
            bad[w * 8] ^= 0x10;
        }
        assert!(matches!(
            FlatScheme::from_bytes(&bad).unwrap_err(),
            WireError::ChecksumMismatch {
                region: "member_ids",
                ..
            }
        ));
    }
}
