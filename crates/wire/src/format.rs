//! The on-the-wire layout shared by the serializer and the zero-copy reader.
//!
//! A snapshot is a single relocatable little-endian byte buffer: a header of
//! 8-byte words, then sections made of 4-byte (`u32`) fields. Every section
//! starts at a word boundary — a section with an odd number of fields ends
//! in one zero pad field — so the whole buffer is 8-byte aligned internally
//! and can be memory-mapped or embedded at any aligned offset, and section
//! offsets, spans and checksums all count 8-byte words. Layout:
//!
//! ```text
//! header (HEADER_WORDS u64 words)
//!   0  magic "ENWIRE01"
//!   1  format version (6)
//!   2  n                      (host vertices)
//!   3  k                      (levels)
//!   4  number of clusters
//!   5  total buffer size in words (truncation check)
//!   6  total cluster members
//!   7  max routing-table size in words   (Table-1 accounting, from the
//!   8  total routing-table words          in-memory scheme's own word
//!   9  max label size in words            counters)
//!   10 total label words
//!   11..=23  the 13 section offsets below, in words from buffer start
//!            (together with word 5 this is the byte-budget manifest:
//!            every section's word span is pinned by the header before a
//!            single section field is trusted)
//!   24..=36  per-section checksums: the 16-lane word-wise FNV-1a over
//!            each section's words, pad included — word i of a section
//!            feeds lane i mod 16, and the lane digests are folded by one
//!            more word-wise FNV-1a (see the `checksum` module)
//!   37..=46  reserved (0)
//!   47 header checksum: single-chain word-wise FNV-1a over header words
//!      0..=46 — the last header word, so every other header bit is
//!      covered
//! sections (u32 fields), contiguous and in this order
//!   CENTER_INDEX        n fields: vertex -> cluster id, NULL if not a centre
//!   CLUSTERS            4 fields per cluster: centre, level, members start,
//!                       member count (members start indexes MEMBER_IDS)
//!   MEMBER_IDS          member vertex ids, ascending within each cluster
//!   MEMBER_TABLE_OFFS   per member: field offset of its table record,
//!                       relative to TABLE_POOL
//!   TABLE_POOL          variable-length table records (layout below)
//!   VTREES_OFF          n+1 CSR offsets into VTREES_VALS
//!   VTREES_VALS         per vertex: ascending centre ids of its trees
//!   MEMBER_SLOTS        aligned with VTREES_VALS: for the vertex's i-th
//!                       tree, its rank (slot) in that cluster's member
//!                       column — the rank index that turns the hot-path
//!                       member binary search into one field read
//!   OWN_OFF             n+1 CSR offsets into OWN_ENTRIES: a level-0
//!                       centre's run is as long as its cluster, every
//!                       other vertex's run is empty
//!   OWN_ENTRIES         per level-0 centre, aligned slot for slot with its
//!                       cluster's member column: that member's label
//!                       record offset into LABEL_POOL
//!   LABEL_ENTRIES_OFF   n+1 CSR offsets into LABEL_ENTRIES (in entries)
//!   LABEL_ENTRIES       5 fields per entry: level, pivot, distance (low
//!                       half, then high half), label record offset into
//!                       LABEL_POOL or NULL
//!   LABEL_POOL          variable-length tree-label records (layout below)
//! ```
//!
//! **Table record** (vertex and tree root are implicit — the member column
//! and the cluster centre): subtree root, parent or NULL, parent port or
//! NULL, heavy child or NULL, `a_local`, `b_local`, `a_global`, `b_global`,
//! global-heavy child subtree or NULL; when present, the global-heavy entry
//! continues with portal, portal-label DFS time, exception count, and that
//! many `(x, x')` field pairs. The parent port is the position of the
//! parent edge in the vertex's adjacency list; it is NULL at the tree root
//! and when the parent is not adjacent.
//!
//! **Label record**: vertex, subtree root, `a_global`, local DFS time, local
//! exception count, the `(x, x')` pairs, global exception count, then per
//! global exception: parent subtree, child subtree, portal, portal-label DFS
//! time, portal exception count, and its `(x, x')` pairs.
//!
//! **Field widths.** A snapshot holds at most [`MAX_N`] vertices, so every
//! vertex id stays below [`NULL`], and DFS times, levels and counts are at
//! most `n`. The serializer keeps every section below `NULL` fields, so
//! every in-section offset fits a field and none reads as `NULL`. Only the
//! label-entry distances need 64 bits, and they are stored as two fields.
//!
//! Each tree label is written to LABEL_POOL once, at its first reference,
//! and every later reference shares that record by offset. Few records are
//! named twice. A vertex's level-0 entry names its label in its own cluster
//! (its level-0 pivot is itself), while a centre's own-cluster entry for
//! member `m` names `m`'s label in the centre's cluster, so the two meet
//! only at each level-0 centre's own label. The other repeats are a
//! vertex's entries at levels whose pivots coincide.

/// First header word: `"ENWIRE01"` as a little-endian `u64`.
pub const MAGIC: u64 = u64::from_le_bytes(*b"ENWIRE01");

/// Current format version. Version 2 added the integrity layer: per-section
/// checksums and the trailing header checksum (readers reject version-1
/// snapshots, which carried no checksums at all). Version 3 added the
/// [`Section::MemberSlots`] rank index (vertex → local member slot per
/// tree), growing the header to 48 words. Version 4 kept the v3 layout
/// and size but computed each section checksum with the 16-lane
/// [`fnv1a_lanes_bytes`](crate::checksum::fnv1a_lanes_bytes) instead of
/// the single chain; the header checksum is unchanged. Version 5 packed
/// the port of the parent edge into the high half of each table record's
/// parent word, which capped `n` below `u32::MAX`. Version 6 keeps the
/// 48-word header, the 13 sections in their order and the checksums, but
/// stores every section as 32-bit fields (see the module docs): label-entry
/// distances take two fields, the parent port takes a field of its own,
/// and OWN_ENTRIES holds only label offsets, aligned with each level-0
/// centre's member column instead of repeating its member ids. v2 to v5
/// snapshots are rejected with a structured unsupported-version error,
/// never a checksum mismatch.
pub const VERSION: u64 = 6;

/// Sentinel field standing for "absent" (`None` parents, ports and heavy
/// children, missing global-heavy entries, label entries whose vertex is
/// outside the pivot's tree, vertices that are not centres).
pub const NULL: u32 = u32::MAX;

/// The largest vertex count a snapshot holds: every vertex id stays below
/// [`NULL`].
pub const MAX_N: usize = u32::MAX as usize - 1;

/// Number of header words before the first section (40 in v2, 48 since v3 —
/// one more section offset and checksum, re-padded to a power-of-two size).
pub const HEADER_WORDS: usize = 48;

/// Word index of `n` in the header.
pub const H_N: usize = 2;
/// Word index of `k`.
pub const H_K: usize = 3;
/// Word index of the cluster count.
pub const H_NUM_CLUSTERS: usize = 4;
/// Word index of the total buffer size in words.
pub const H_TOTAL_WORDS: usize = 5;
/// Word index of the total member count.
pub const H_TOTAL_MEMBERS: usize = 6;
/// Word index of the maximum routing-table size in words.
pub const H_MAX_TABLE_WORDS: usize = 7;
/// Word index of the summed routing-table sizes in words.
pub const H_TOTAL_TABLE_WORDS: usize = 8;
/// Word index of the maximum label size in words.
pub const H_MAX_LABEL_WORDS: usize = 9;
/// Word index of the summed label sizes in words.
pub const H_TOTAL_LABEL_WORDS: usize = 10;
/// Word index of the first section offset.
pub const H_SECTIONS: usize = 11;
/// Word index of the first per-section checksum.
pub const H_SECTION_SUMS: usize = 24;
/// Word index of the header checksum (the last header word, so it covers
/// every other header bit).
pub const H_HEADER_SUM: usize = HEADER_WORDS - 1;

/// Number of sections.
pub const NUM_SECTIONS: usize = 13;

/// Section ids, in buffer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Section {
    /// Vertex → cluster id (or [`NULL`]).
    CenterIndex = 0,
    /// Fixed 4-field cluster descriptors.
    Clusters = 1,
    /// Concatenated per-cluster member vertex ids.
    MemberIds = 2,
    /// Per-member table-record offsets (relative to [`Section::TablePool`]).
    MemberTableOffs = 3,
    /// Variable-length table records.
    TablePool = 4,
    /// CSR offsets of [`Section::VtreesVals`].
    VtreesOff = 5,
    /// Per-vertex ascending centre ids.
    VtreesVals = 6,
    /// The rank index, aligned field for field with
    /// [`Section::VtreesVals`]: the vertex's slot in that cluster's member
    /// column.
    MemberSlots = 7,
    /// CSR offsets of [`Section::OwnEntries`], one run per vertex.
    OwnOff = 8,
    /// Own-cluster label offsets, aligned with each level-0 centre's member
    /// column.
    OwnEntries = 9,
    /// CSR offsets of [`Section::LabelEntries`] (counted in entries).
    LabelEntriesOff = 10,
    /// Node-label entries (5 fields each).
    LabelEntries = 11,
    /// Variable-length tree-label records.
    LabelPool = 12,
}

impl Section {
    /// All sections, in buffer order.
    pub const ALL: [Section; NUM_SECTIONS] = [
        Section::CenterIndex,
        Section::Clusters,
        Section::MemberIds,
        Section::MemberTableOffs,
        Section::TablePool,
        Section::VtreesOff,
        Section::VtreesVals,
        Section::MemberSlots,
        Section::OwnOff,
        Section::OwnEntries,
        Section::LabelEntriesOff,
        Section::LabelEntries,
        Section::LabelPool,
    ];

    /// Stable lower-case name, for error messages, fault reports and the
    /// per-section byte metrics.
    pub fn name(self) -> &'static str {
        match self {
            Section::CenterIndex => "center_index",
            Section::Clusters => "clusters",
            Section::MemberIds => "member_ids",
            Section::MemberTableOffs => "member_table_offs",
            Section::TablePool => "table_pool",
            Section::VtreesOff => "vtrees_off",
            Section::VtreesVals => "vtrees_vals",
            Section::MemberSlots => "member_slots",
            Section::OwnOff => "own_off",
            Section::OwnEntries => "own_entries",
            Section::LabelEntriesOff => "label_entries_off",
            Section::LabelEntries => "label_entries",
            Section::LabelPool => "label_pool",
        }
    }
}

/// Fields per [`Section::Clusters`] record.
pub const CLUSTER_RECORD_FIELDS: usize = 4;
/// Fields per [`Section::LabelEntries`] record.
pub const LABEL_ENTRY_FIELDS: usize = 5;
/// Fixed fields of a table record before the optional global-heavy tail.
pub const TABLE_FIXED_FIELDS: usize = 9;

/// Fields per 8-byte word: the one place the format fixes the ratio
/// between the header's and the sections' units.
pub(crate) const FIELDS_PER_WORD: usize = 2;

/// The words a section of `fields` fields spans, its pad field included.
pub(crate) const fn section_words(fields: usize) -> usize {
    fields.div_ceil(FIELDS_PER_WORD)
}

/// A borrowed little-endian field array over a byte buffer.
///
/// Every read decodes with `from_le_bytes` — no allocation, no alignment
/// requirement on the underlying bytes, and the compiler lowers it to a
/// single unaligned load. Field `i` is bytes `4i..4i + 4`, so header word
/// `w` is fields `2w` and `2w + 1` ([`Self::word`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fields<'a> {
    bytes: &'a [u8],
}

impl<'a> Fields<'a> {
    /// Wraps a byte buffer. The length must be a multiple of 4 (snapshot
    /// buffers are checked to be whole words before any `Fields` is handed
    /// out).
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len() % 4, 0);
        Fields { bytes }
    }

    /// Number of whole fields.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// Reads field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds — the snapshot validator guarantees
    /// in-bounds access for every offset it accepted.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        let b = &self.bytes[i * 4..i * 4 + 4];
        u32::from_le_bytes(b.try_into().expect("4-byte slice"))
    }

    /// Fields `start..end` as a column of their own.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub(crate) fn slice(&self, start: usize, end: usize) -> Fields<'a> {
        Fields {
            bytes: &self.bytes[start * 4..end * 4],
        }
    }

    /// The fields, front to back.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.records().map(|[f]| f)
    }

    /// Record `i` of a column of `N`-field records.
    ///
    /// # Panics
    ///
    /// Panics if the record is out of bounds.
    #[inline]
    pub(crate) fn record<const N: usize>(&self, i: usize) -> [u32; N] {
        decode(&self.bytes[4 * N * i..4 * N * (i + 1)])
    }

    /// The whole `N`-field records, front to back.
    #[inline]
    pub(crate) fn records<const N: usize>(&self) -> impl Iterator<Item = [u32; N]> + 'a {
        self.bytes.chunks_exact(4 * N).map(decode)
    }

    /// Reads the `u64` stored in fields `i` (low half) and `i + 1` (high
    /// half).
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` is out of bounds.
    #[inline]
    pub(crate) fn get_u64(&self, i: usize) -> u64 {
        let b = &self.bytes[i * 4..i * 4 + 8];
        u64::from_le_bytes(b.try_into().expect("8-byte slice"))
    }

    /// Reads 8-byte word `w` (a header word).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.get_u64(FIELDS_PER_WORD * w)
    }

    /// The raw underlying bytes.
    #[inline]
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// The `N` little-endian fields of a `4N`-byte record.
#[inline]
fn decode<const N: usize>(record: &[u8]) -> [u32; N] {
    std::array::from_fn(|j| {
        u32::from_le_bytes(record[4 * j..4 * j + 4].try_into().expect("4-byte slice"))
    })
}

/// The writing side of [`Fields`]: little-endian fields into a byte buffer
/// sized up front, appended front to back ([`Self::push`]) or placed at a
/// field index ([`Self::set`]).
#[derive(Debug)]
pub(crate) struct FieldsMut<'a> {
    bytes: &'a mut [u8],
    pushed: usize,
}

impl<'a> FieldsMut<'a> {
    /// Wraps a byte buffer whose length is a multiple of 4.
    pub(crate) fn new(bytes: &'a mut [u8]) -> Self {
        debug_assert_eq!(bytes.len() % 4, 0);
        FieldsMut { bytes, pushed: 0 }
    }

    /// Writes field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, f: u32) {
        self.bytes[i * 4..i * 4 + 4].copy_from_slice(&f.to_le_bytes());
    }

    /// Writes the field after the last pushed one.
    ///
    /// # Panics
    ///
    /// Panics if every field has been pushed already.
    #[inline]
    pub(crate) fn push(&mut self, f: u32) {
        self.set(self.pushed, f);
        self.pushed += 1;
    }

    /// Pushes `x` as two fields, low half first — the layout
    /// [`Fields::get_u64`] and [`Fields::word`] read.
    #[inline]
    pub(crate) fn push_u64(&mut self, x: u64) {
        self.push(x as u32);
        self.push((x >> 32) as u32);
    }

    /// [`Self::push`] for each field of `fs`, in order.
    #[inline]
    pub(crate) fn extend(&mut self, fs: &[u32]) {
        for &f in fs {
            self.push(f);
        }
    }

    /// Number of fields [`Self::push`] has written.
    #[inline]
    pub(crate) fn pushed(&self) -> usize {
        self.pushed
    }

    /// Whether [`Self::push`] has filled the whole buffer.
    pub(crate) fn is_full(&self) -> bool {
        self.pushed * 4 == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_roundtrip() {
        let mut buf = vec![0u8; 8 * 4];
        let mut out = FieldsMut::new(&mut buf);
        out.extend(&[0, 1, NULL]);
        out.push_u64(MAGIC);
        assert!(!out.is_full());
        out.push_u64(0x0123_4567_89AB_CDEF);
        out.push(7);
        assert_eq!(out.pushed(), 8);
        assert!(out.is_full());
        out.set(0, 9);
        let fields = Fields::new(&buf);
        assert_eq!(fields.len(), 8);
        assert_eq!(fields.get(0), 9);
        assert_eq!(fields.get(2), NULL);
        assert_eq!(fields.get_u64(3), MAGIC);
        assert_eq!(fields.get(5), 0x89AB_CDEF, "the low half comes first");
        assert_eq!(fields.get(6), 0x0123_4567);
        assert_eq!(fields.word(0), 9 | 1 << 32, "word 0 is fields 0 and 1");
        assert_eq!(fields.word(3), 0x0123_4567 | 7 << 32);
    }

    #[test]
    fn magic_is_ascii_tag() {
        assert_eq!(&MAGIC.to_le_bytes(), b"ENWIRE01");
    }

    #[test]
    fn section_names_are_distinct_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in Section::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "Section::ALL must be in buffer order");
            assert!(seen.insert(s.name()), "duplicate section name {}", s.name());
        }
    }

    #[test]
    fn header_checksum_is_the_last_header_word() {
        assert_eq!(H_HEADER_SUM, HEADER_WORDS - 1);
        // The section checksums (and any reserved padding) must fit strictly
        // before the header checksum word.
        const { assert!(H_SECTION_SUMS + NUM_SECTIONS <= H_HEADER_SUM) }
    }
}
