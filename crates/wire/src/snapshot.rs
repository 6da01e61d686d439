//! Serializing a [`RoutingScheme`] into the flat snapshot buffer.
//!
//! The serializer sizes every section first, allocates the buffer once,
//! and then writes each section straight into its place: no intermediate
//! pools, no reallocation, no second copy.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use en_graph::{NodeId, NodeIdHasher};
use en_routing::scheme::RoutingScheme;
use en_tree_routing::{LocalLabel, TreeLabel, TreeTable};

use crate::checksum::{fnv1a_bytes, fnv1a_lanes_bytes};
use crate::format::{
    section_words, Fields, FieldsMut, Section, CLUSTER_RECORD_FIELDS, HEADER_WORDS, H_HEADER_SUM,
    H_SECTIONS, H_SECTION_SUMS, LABEL_ENTRY_FIELDS, MAGIC, MAX_N, NULL, NUM_SECTIONS,
    TABLE_FIXED_FIELDS, VERSION,
};

/// A vertex id as a field: ids are below `n ≤ MAX_N`, so below [`NULL`].
fn id(v: NodeId) -> u32 {
    v as u32
}

fn opt(v: Option<NodeId>) -> u32 {
    v.map_or(NULL, id)
}

/// A DFS time as a field: DFS times count tree vertices, so they are at
/// most `n`.
fn time(t: u64) -> u32 {
    u32::try_from(t).expect("a DFS time is at most n")
}

/// Fields of a local label's record tail: DFS time, exception count, pairs.
fn local_label_fields(l: &LocalLabel) -> usize {
    2 + 2 * l.exceptions.len()
}

/// Writes a local label's record tail (see [`local_label_fields`]).
fn write_local_label(out: &mut FieldsMut<'_>, l: &LocalLabel) {
    out.extend(&[time(l.a), l.exceptions.len() as u32]);
    for &(x, c) in l.exceptions.iter() {
        out.extend(&[id(x), id(c)]);
    }
}

/// Fields of one table record: the fixed part plus the global-heavy tail.
fn table_record_fields(t: &TreeTable) -> usize {
    TABLE_FIXED_FIELDS
        + t.global_heavy
            .as_deref()
            .map_or(0, |gh| 1 + local_label_fields(&gh.portal_label))
}

/// Writes one table record. The vertex and tree root are implicit (member
/// column / cluster centre); the parent edge's port follows the parent.
fn write_table(out: &mut FieldsMut<'_>, t: &TreeTable) {
    let gh = t.global_heavy.as_deref();
    out.extend(&[
        id(t.subtree_root),
        opt(t.parent),
        t.parent_port.unwrap_or(NULL),
        opt(t.heavy_child),
        time(t.a_local),
        time(t.b_local),
        time(t.a_global),
        time(t.b_global),
        opt(gh.map(|gh| gh.child_subtree)),
    ]);
    if let Some(gh) = gh {
        out.push(id(gh.portal));
        write_local_label(out, &gh.portal_label);
    }
}

/// Fields of one tree-label record.
fn label_record_fields(l: &TreeLabel) -> usize {
    3 + local_label_fields(&l.local)
        + 1
        + l.global_exceptions
            .iter()
            .map(|e| 3 + local_label_fields(&e.portal_label))
            .sum::<usize>()
}

/// Writes one tree-label record.
fn write_label(out: &mut FieldsMut<'_>, l: &TreeLabel) {
    out.extend(&[id(l.vertex), id(l.subtree_root), time(l.a_global)]);
    write_local_label(out, &l.local);
    out.push(l.global_exceptions.len() as u32);
    for e in l.global_exceptions.iter() {
        out.extend(&[id(e.parent_subtree), id(e.child_subtree), id(e.portal)]);
        write_local_label(out, &e.portal_label);
    }
}

/// The label pool's layout, decided before any of it is written.
///
/// Every tree label lives once, in its tree scheme, so a label's address
/// names it: interning by address writes each label once, however many
/// entries name it (see the `format` module docs for which do). Addresses
/// are hashed with the multiply-fold [`NodeIdHasher`], not SipHash.
#[derive(Default)]
struct LabelPool<'a> {
    /// Pool-relative field offset of each interned label's record.
    offsets: HashMap<*const TreeLabel, u32, BuildHasherDefault<NodeIdHasher>>,
    /// The interned labels, in pool order.
    records: Vec<&'a TreeLabel>,
    /// Pool length in fields.
    fields: usize,
}

impl<'a> LabelPool<'a> {
    /// Assigns `label` the next pool offset, unless it already has one.
    /// (An offset past 32 bits would leave the pool longer than that too,
    /// which the sizing pass refuses.)
    fn intern(&mut self, label: &'a TreeLabel) {
        if let Entry::Vacant(slot) = self.offsets.entry(label) {
            slot.insert(self.fields as u32);
            self.records.push(label);
            self.fields += label_record_fields(label);
        }
    }

    /// The pool offset of an interned label.
    fn offset(&self, label: &TreeLabel) -> u32 {
        self.offsets[&(label as *const TreeLabel)]
    }
}

/// Serializes `scheme` into a self-contained snapshot buffer.
///
/// The result is little-endian, internally 8-byte aligned, and relocatable:
/// [`FlatScheme::from_bytes`](crate::FlatScheme::from_bytes) validates it
/// once and then serves every query by borrowing directly from the buffer.
///
/// # Panics
///
/// Panics if the scheme has more than [`MAX_N`] vertices or a column too
/// long for 32-bit offsets (every id and offset must fit a field below
/// [`NULL`]), or if a vertex's tree list and the clusters listing it as a
/// member disagree (the assembled schemes never do).
pub fn serialize(scheme: &RoutingScheme) -> Vec<u8> {
    let n = scheme.n();
    assert!(
        n <= MAX_N,
        "a snapshot holds at most {MAX_N} vertices, the scheme has {n}"
    );
    let centers = scheme.centers();
    let trees: Vec<_> = centers
        .iter()
        .map(|&c| {
            let ts = scheme
                .tree_scheme(c)
                .expect("centers() lists only centres with a scheme");
            (c, scheme.center_level(c).unwrap_or(0), ts)
        })
        .collect();

    // --- Sizing --------------------------------------------------------------
    let mut members = 0;
    let mut table_pool_fields = 0;
    for (_, _, ts) in &trees {
        members += ts.tree_size();
        table_pool_fields += ts.tables().iter().map(table_record_fields).sum::<usize>();
    }
    // Where each vertex's tree list starts in VTREES_VALS (and MEMBER_SLOTS).
    let mut vtrees_start = Vec::with_capacity(n + 1);
    vtrees_start.push(0);
    for v in 0..n {
        vtrees_start.push(vtrees_start[v] + scheme.trees_of(v).len());
    }
    // The label pool is interned in emission order: every node-label entry
    // of every vertex, then every level-0 centre's own-cluster labels in
    // its member order. Each entry's tree label is looked up once, here,
    // and the emission pass reuses it.
    let mut pool = LabelPool::default();
    let mut entry_labels: Vec<Option<&TreeLabel>> = Vec::new();
    for v in 0..n {
        for entry in &scheme.label(v).entries {
            let l = scheme.tree_label(entry.pivot, v);
            if let Some(l) = l {
                pool.intern(l);
            }
            entry_labels.push(l);
        }
    }
    let mut own_entries = 0;
    for v in 0..n {
        if let Some(own) = scheme.own_cluster(v) {
            own_entries += own.tree_size();
            for l in own.labels() {
                pool.intern(l);
            }
        }
    }
    // Every in-section offset is at most the length of the column it
    // indexes: keeping those columns below NULL entries makes each offset
    // fit a field and never read as NULL.
    for (column, len) in [
        ("cluster members", members),
        ("table-pool fields", table_pool_fields),
        ("tree incidences", vtrees_start[n]),
        ("own-cluster entries", own_entries),
        ("label entries", entry_labels.len()),
        ("label-pool fields", pool.fields),
    ] {
        assert!(
            len < NULL as usize,
            "32-bit offsets address fewer than {NULL} {column}, the scheme has {len}"
        );
    }
    let lens = Section::ALL.map(|section| match section {
        Section::CenterIndex => n,
        Section::Clusters => CLUSTER_RECORD_FIELDS * trees.len(),
        Section::MemberIds | Section::MemberTableOffs => members,
        Section::TablePool => table_pool_fields,
        Section::VtreesOff | Section::OwnOff | Section::LabelEntriesOff => n + 1,
        Section::VtreesVals | Section::MemberSlots => vtrees_start[n],
        Section::OwnEntries => own_entries,
        Section::LabelEntries => LABEL_ENTRY_FIELDS * entry_labels.len(),
        Section::LabelPool => pool.fields,
    });
    let total_words = HEADER_WORDS + lens.iter().map(|&len| section_words(len)).sum::<usize>();

    // --- Emission, each section straight into its place -----------------------
    let mut out = vec![0u8; total_words * 8];
    let (header, mut body) = out.split_at_mut(HEADER_WORDS * 8);
    let mut sections = lens.map(|len| {
        let (section, rest) = std::mem::take(&mut body).split_at_mut(section_words(len) * 8);
        body = rest;
        // A section's pad field, if it has one, stays zero.
        FieldsMut::new(&mut section[..len * 4])
    });
    let [center_index, clusters, member_ids, member_table_offs, table_pool, vtrees_off, vtrees_vals, member_slots, own_off, own_entries, label_entries_off, label_entries, label_pool] =
        &mut sections;

    for _ in 0..n {
        center_index.push(NULL);
    }
    for (ci, &(center, _, _)) in trees.iter().enumerate() {
        center_index.set(center, ci as u32);
    }
    // The cluster walk: CLUSTERS, MEMBER_IDS, MEMBER_TABLE_OFFS and
    // TABLE_POOL front to back, and MEMBER_SLOTS through one cursor per
    // vertex — clusters are walked in ascending centre order and each
    // vertex's tree list is ascending, so a vertex's next slot field belongs
    // to exactly this cluster. Table words are summed per vertex on the way.
    let mut filled = vec![0usize; n];
    let mut table_words = vec![0usize; n];
    for &(center, level, ts) in &trees {
        clusters.extend(&[
            id(center),
            level as u32,
            member_ids.pushed() as u32,
            ts.tree_size() as u32,
        ]);
        for (slot, (v, table)) in ts.members().zip(ts.tables()).enumerate() {
            member_ids.push(id(v));
            member_table_offs.push(table_pool.pushed() as u32);
            write_table(table_pool, table);
            table_words[v] += table.words();
            let at = vtrees_start[v] + filled[v];
            assert!(
                at < vtrees_start[v + 1] && scheme.trees_of(v)[filled[v]] == center,
                "vertex {v} is a member of cluster {center} but does not list it as a tree"
            );
            member_slots.set(at, slot as u32);
            filled[v] += 1;
        }
    }
    // The per-vertex walk: tree lists, node labels, own-cluster labels.
    // Label words are summed here as they are written: the vertex id, and
    // per entry its level, pivot and distance plus the label it names.
    let (mut max_label_words, mut total_label_words) = (0, 0);
    for v in 0..n {
        let tree_list = scheme.trees_of(v);
        assert_eq!(
            filled[v],
            tree_list.len(),
            "vertex {v} lists a tree that does not have it as a member"
        );
        vtrees_off.push(vtrees_start[v] as u32);
        for &c in tree_list {
            vtrees_vals.push(id(c));
        }
        let entries = &scheme.label(v).entries;
        let first = label_entries.pushed() / LABEL_ENTRY_FIELDS;
        label_entries_off.push(first as u32);
        let mut label_words = 1;
        for (entry, &l) in entries
            .iter()
            .zip(&entry_labels[first..first + entries.len()])
        {
            label_entries.extend(&[entry.level as u32, id(entry.pivot)]);
            label_entries.push_u64(entry.dist);
            label_entries.push(l.map_or(NULL, |l| pool.offset(l)));
            label_words += 3 + l.map_or(0, TreeLabel::words);
        }
        max_label_words = max_label_words.max(label_words);
        total_label_words += label_words;
        // A level-0 centre's run is aligned with its member column: the
        // tree scheme lists its labels in member order.
        own_off.push(own_entries.pushed() as u32);
        if let Some(own) = scheme.own_cluster(v) {
            for l in own.labels() {
                own_entries.push(pool.offset(l));
                table_words[v] += 1 + l.words();
            }
        }
    }
    vtrees_off.push(vtrees_start[n] as u32);
    label_entries_off.push((label_entries.pushed() / LABEL_ENTRY_FIELDS) as u32);
    own_off.push(own_entries.pushed() as u32);
    for l in &pool.records {
        write_label(label_pool, l);
    }
    // MEMBER_SLOTS is written through the cursors, whose ends the
    // per-vertex walk checked; every other section front to back.
    assert!(
        Section::ALL
            .iter()
            .zip(&sections)
            .all(|(&section, s)| section == Section::MemberSlots || s.is_full()),
        "every section is written to exactly the length it was sized to"
    );

    let mut head = FieldsMut::new(header);
    for word in [
        MAGIC,
        VERSION,
        n as u64,
        scheme.k() as u64,
        trees.len() as u64,
        total_words as u64,
        members as u64,
        table_words.iter().copied().max().unwrap_or(0) as u64,
        table_words.iter().sum::<usize>() as u64,
        max_label_words as u64,
        total_label_words as u64,
    ] {
        head.push_u64(word);
    }
    let mut off = HEADER_WORDS;
    for len in lens {
        head.push_u64(off as u64);
        off += section_words(len);
    }
    debug_assert_eq!(off, total_words);
    // The checksum words stay zero until `seal` fills them in over the
    // laid-out buffer; the reserved words stay zero.
    seal(&mut out);
    out
}

/// Writes the integrity layer into a laid-out snapshot buffer: each
/// section's lane checksum ([`fnv1a_lanes_bytes`]) into header words
/// 24..=36, then — as the very last header word — the single-chain
/// [`fnv1a_bytes`] over header words 0..=46, so no header or section bit
/// can flip undetected.
///
/// The section offsets (header words 11..=23) must already be in place and
/// ascending, with the buffer's end closing the last section; whatever the
/// checksum words held before is overwritten.
pub(crate) fn seal(buf: &mut [u8]) {
    let total_words = buf.len() / 8;
    let header = Fields::new(&buf[..HEADER_WORDS * 8]);
    let mut bounds = [total_words; NUM_SECTIONS + 1];
    for (i, b) in bounds.iter_mut().take(NUM_SECTIONS).enumerate() {
        *b = header.word(H_SECTIONS + i) as usize;
    }
    for i in 0..NUM_SECTIONS {
        let sum = fnv1a_lanes_bytes(&buf[bounds[i] * 8..bounds[i + 1] * 8]);
        let at = (H_SECTION_SUMS + i) * 8;
        buf[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    }
    let header_sum = fnv1a_bytes(&buf[..H_HEADER_SUM * 8]);
    buf[H_HEADER_SUM * 8..HEADER_WORDS * 8].copy_from_slice(&header_sum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};

    /// `(byte length, header checksum)` of the snapshot of a fixed build.
    fn pin(n: usize, graph_seed: u64, p: f64, k: usize, build_seed: u64) -> (usize, u64) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, graph_seed).with_weights(1, 15), p);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, build_seed)).unwrap();
        let bytes = serialize(&built.scheme);
        let header_sum = u64::from_le_bytes(
            bytes[H_HEADER_SUM * 8..HEADER_WORDS * 8]
                .try_into()
                .expect("8-byte word"),
        );
        (bytes.len(), header_sum)
    }

    /// The serialized bytes of two fixed builds, both of which run the
    /// large-scale cluster phases, are pinned by length and header checksum
    /// (which covers every section checksum): any change to what the
    /// serializer emits, or to the scheme it is handed, shows up here.
    #[test]
    fn snapshot_bytes_of_fixed_builds_are_pinned() {
        assert_eq!(pin(64, 9, 0.12, 2, 9), (70_224, 0x568e_a486_0c6d_77a6));
        assert_eq!(pin(300, 5, 0.03, 3, 5), (438_792, 0x5121_47ac_854e_43da));
    }
}
