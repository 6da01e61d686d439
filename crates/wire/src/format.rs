//! The on-the-wire layout shared by the serializer and the zero-copy reader.
//!
//! A snapshot is a single relocatable little-endian byte buffer made of
//! 8-byte words; every column starts at a word boundary, so the whole buffer
//! is 8-byte aligned internally and can be memory-mapped or embedded at any
//! aligned offset. Layout, in word offsets:
//!
//! ```text
//! header (HEADER_WORDS words)
//!   0  magic "ENWIRE01"
//!   1  format version (5)
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
//!            single section word is trusted)
//!   24..=36  per-section checksums: the 16-lane word-wise FNV-1a over
//!            each section's words — word i of a section feeds lane
//!            i mod 16, and the lane digests are folded by one more
//!            word-wise FNV-1a (see the `checksum` module)
//!   37..=46  reserved (0)
//!   47 header checksum: single-chain word-wise FNV-1a over header words
//!      0..=46 — the last header word, so every other header bit is
//!      covered
//! sections, contiguous and in this order
//!   CENTER_INDEX        n words: vertex -> cluster id, NULL if not a centre
//!   CLUSTERS            4 words per cluster: centre, level, members start,
//!                       member count (members start indexes MEMBER_IDS)
//!   MEMBER_IDS          member vertex ids, ascending within each cluster
//!   MEMBER_TABLE_OFFS   per member: word offset of its table record,
//!                       relative to TABLE_POOL
//!   TABLE_POOL          variable-length table records (layout below)
//!   VTREES_OFF          n+1 CSR offsets into VTREES_VALS
//!   VTREES_VALS         per vertex: ascending centre ids of its trees
//!   MEMBER_SLOTS        aligned with VTREES_VALS: for the vertex's i-th
//!                       tree, its rank (slot) in that cluster's member
//!                       column — the v3 rank index that turns the hot-path
//!                       member binary search into one word read
//!   OWN_OFF             n+1 CSR offsets into OWN_ENTRIES (in entries)
//!   OWN_ENTRIES         2 words per entry: member vertex (ascending per
//!                       centre), label record offset into LABEL_POOL
//!   LABEL_ENTRIES_OFF   n+1 CSR offsets into LABEL_ENTRIES (in entries)
//!   LABEL_ENTRIES       4 words per entry: level, pivot, distance,
//!                       label record offset into LABEL_POOL or NULL
//!   LABEL_POOL          variable-length tree-label records (layout below)
//! ```
//!
//! **Table record** (vertex and tree root are implicit — the member column
//! and the cluster centre): subtree root, parent word, heavy child or
//! NULL, `a_local`, `b_local`, `a_global`, `b_global`, global-heavy child
//! subtree or NULL; when present, the global-heavy entry continues with
//! portal, portal-label DFS time, exception count, and that many `(x, x')`
//! word pairs. The parent word is NULL at the tree root and otherwise
//! `parent | port << 32`: the parent's id in the low half and, in the high
//! half, the port of the parent edge in the vertex's adjacency list, or
//! [`NO_PORT`] when the parent is not adjacent. Vertex ids therefore fit
//! 32 bits: a snapshot holds fewer than `u32::MAX` vertices ([`MAX_N`]),
//! so no parent word but the root's is NULL.
//!
//! **Label record**: vertex, subtree root, `a_global`, local DFS time, local
//! exception count, the `(x, x')` pairs, global exception count, then per
//! global exception: parent subtree, child subtree, portal, portal-label DFS
//! time, portal exception count, and its `(x, x')` pairs.
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
/// tree), growing the header to 48 words. Version 4 keeps the v3 layout
/// and size but computes each section checksum with the 16-lane
/// [`fnv1a_lanes_bytes`](crate::checksum::fnv1a_lanes_bytes) instead of
/// the single chain; the header checksum is unchanged. Version 5 keeps the
/// v4 layout, size and checksums but packs the port of the parent edge
/// into the high half of each table record's parent word (see the module
/// docs), which caps `n` below `u32::MAX`. v2, v3 and v4 snapshots are
/// rejected with a structured unsupported-version error, never a checksum
/// mismatch.
pub const VERSION: u64 = 5;

/// Sentinel standing for "absent" (`None` parents, missing global-heavy
/// entries, label entries whose vertex is outside the pivot's tree).
pub const NULL: u64 = u64::MAX;

/// The port half of a table record's parent word when the parent is not
/// adjacent in the graph the scheme was assembled in.
pub const NO_PORT: u32 = u32::MAX;

/// The largest vertex count a snapshot holds: every vertex id, and so
/// every parent in the low half of a parent word, stays below `u32::MAX`.
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
    /// Fixed 4-word cluster descriptors.
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
    /// The v3 rank index, aligned word-for-word with
    /// [`Section::VtreesVals`]: the vertex's slot in that cluster's member
    /// column.
    MemberSlots = 7,
    /// CSR offsets of [`Section::OwnEntries`] (counted in entries).
    OwnOff = 8,
    /// Own-cluster label entries (2 words each).
    OwnEntries = 9,
    /// CSR offsets of [`Section::LabelEntries`] (counted in entries).
    LabelEntriesOff = 10,
    /// Node-label entries (4 words each).
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

    /// Stable lower-case name, for error messages and fault reports.
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

/// Words per [`Section::Clusters`] record.
pub const CLUSTER_RECORD_WORDS: usize = 4;
/// Words per [`Section::OwnEntries`] record.
pub const OWN_ENTRY_WORDS: usize = 2;
/// Words per [`Section::LabelEntries`] record.
pub const LABEL_ENTRY_WORDS: usize = 4;
/// Fixed words of a table record before the optional global-heavy tail.
pub const TABLE_FIXED_WORDS: usize = 8;

/// A borrowed little-endian word array over a byte buffer.
///
/// Every read decodes one `u64` with `from_le_bytes` — no allocation, no
/// alignment requirement on the underlying bytes, and the compiler lowers it
/// to a single unaligned load.
#[derive(Debug, Clone, Copy)]
pub struct Words<'a> {
    bytes: &'a [u8],
}

impl<'a> Words<'a> {
    /// Wraps a byte buffer. The length must be a multiple of 8 (checked by
    /// the snapshot validator before any `Words` is handed out).
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len() % 8, 0);
        Words { bytes }
    }

    /// Number of whole words.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the buffer holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds — the snapshot validator guarantees
    /// in-bounds access for every offset it accepted.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        let b = &self.bytes[i * 8..i * 8 + 8];
        u64::from_le_bytes(b.try_into().expect("8-byte slice"))
    }

    /// The raw underlying bytes.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// The writing side of [`Words`]: little-endian words into a byte buffer
/// sized up front, appended front to back ([`Self::push`]) or placed at a
/// word index ([`Self::set`]).
#[derive(Debug)]
pub(crate) struct WordsMut<'a> {
    bytes: &'a mut [u8],
    pushed: usize,
}

impl<'a> WordsMut<'a> {
    /// Wraps a byte buffer whose length is a multiple of 8.
    pub(crate) fn new(bytes: &'a mut [u8]) -> Self {
        debug_assert_eq!(bytes.len() % 8, 0);
        WordsMut { bytes, pushed: 0 }
    }

    /// Writes word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, w: u64) {
        self.bytes[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }

    /// Writes the word after the last pushed one.
    ///
    /// # Panics
    ///
    /// Panics if every word has been pushed already.
    #[inline]
    pub(crate) fn push(&mut self, w: u64) {
        self.set(self.pushed, w);
        self.pushed += 1;
    }

    /// [`Self::push`] for each word of `ws`, in order.
    #[inline]
    pub(crate) fn extend(&mut self, ws: &[u64]) {
        for &w in ws {
            self.push(w);
        }
    }

    /// Number of words [`Self::push`] has written.
    #[inline]
    pub(crate) fn pushed(&self) -> usize {
        self.pushed
    }

    /// Whether [`Self::push`] has filled the whole buffer.
    pub(crate) fn is_full(&self) -> bool {
        self.pushed * 8 == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_roundtrip() {
        let mut buf = vec![0u8; 5 * 8];
        let mut out = WordsMut::new(&mut buf);
        out.extend(&[0, 1, MAGIC, NULL]);
        assert!(!out.is_full());
        out.push(0x0123_4567_89AB_CDEF);
        assert!(out.is_full());
        let words = Words::new(&buf);
        assert_eq!(words.len(), 5);
        assert!(!words.is_empty());
        assert_eq!(words.get(2), MAGIC);
        assert_eq!(words.get(3), NULL);
        assert_eq!(words.get(4), 0x0123_4567_89AB_CDEF);
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
