//! Serializing a [`RoutingScheme`] into the flat snapshot buffer.
//!
//! The serializer sizes every section first, allocates the buffer once,
//! and then writes each section straight into its place: no intermediate
//! pools, no reallocation, no second copy.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use en_graph::NodeIdHasher;
use en_routing::scheme::RoutingScheme;
use en_tree_routing::{LocalLabel, TreeLabel, TreeTable};

use crate::checksum::{fnv1a_bytes, fnv1a_lanes_bytes};
use crate::format::{
    Section, Words, WordsMut, CLUSTER_RECORD_WORDS, HEADER_WORDS, H_HEADER_SUM, H_SECTIONS,
    H_SECTION_SUMS, LABEL_ENTRY_WORDS, MAGIC, MAX_N, NO_PORT, NULL, NUM_SECTIONS, OWN_ENTRY_WORDS,
    TABLE_FIXED_WORDS, VERSION,
};

fn opt(v: Option<usize>) -> u64 {
    v.map_or(NULL, |x| x as u64)
}

/// Words of a local label's record tail: DFS time, exception count, pairs.
fn local_label_words(l: &LocalLabel) -> usize {
    2 + 2 * l.exceptions.len()
}

/// Writes a local label's record tail (see [`local_label_words`]).
fn write_local_label(out: &mut WordsMut<'_>, l: &LocalLabel) {
    out.extend(&[l.a, l.exceptions.len() as u64]);
    for &(x, c) in l.exceptions.iter() {
        out.extend(&[x as u64, c as u64]);
    }
}

/// Words of one table record: the fixed part plus the global-heavy tail.
fn table_record_words(t: &TreeTable) -> usize {
    TABLE_FIXED_WORDS
        + t.global_heavy
            .as_deref()
            .map_or(0, |gh| 1 + local_label_words(&gh.portal_label))
}

/// Writes one table record. The vertex and tree root are implicit (member
/// column / cluster centre); the parent word packs the parent edge's port
/// above the parent's id.
fn write_table(out: &mut WordsMut<'_>, t: &TreeTable) {
    let gh = t.global_heavy.as_deref();
    let port = u64::from(t.parent_port.unwrap_or(NO_PORT));
    out.extend(&[
        t.subtree_root as u64,
        t.parent.map_or(NULL, |p| p as u64 | port << 32),
        opt(t.heavy_child),
        t.a_local,
        t.b_local,
        t.a_global,
        t.b_global,
        opt(gh.map(|gh| gh.child_subtree)),
    ]);
    if let Some(gh) = gh {
        out.push(gh.portal as u64);
        write_local_label(out, &gh.portal_label);
    }
}

/// Words of one tree-label record.
fn label_record_words(l: &TreeLabel) -> usize {
    3 + local_label_words(&l.local)
        + 1
        + l.global_exceptions
            .iter()
            .map(|e| 3 + local_label_words(&e.portal_label))
            .sum::<usize>()
}

/// Writes one tree-label record.
fn write_label(out: &mut WordsMut<'_>, l: &TreeLabel) {
    out.extend(&[l.vertex as u64, l.subtree_root as u64, l.a_global]);
    write_local_label(out, &l.local);
    out.push(l.global_exceptions.len() as u64);
    for e in l.global_exceptions.iter() {
        out.extend(&[
            e.parent_subtree as u64,
            e.child_subtree as u64,
            e.portal as u64,
        ]);
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
    /// Pool-relative word offset of each interned label's record.
    offsets: HashMap<*const TreeLabel, u64, BuildHasherDefault<NodeIdHasher>>,
    /// The interned labels, in pool order.
    records: Vec<&'a TreeLabel>,
    /// Pool length in words.
    words: usize,
}

impl<'a> LabelPool<'a> {
    /// Assigns `label` the next pool offset, unless it already has one.
    fn intern(&mut self, label: &'a TreeLabel) {
        if let Entry::Vacant(slot) = self.offsets.entry(label) {
            slot.insert(self.words as u64);
            self.records.push(label);
            self.words += label_record_words(label);
        }
    }

    /// The pool offset of an interned label.
    fn offset(&self, label: &TreeLabel) -> u64 {
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
/// Panics if the scheme has more than [`MAX_N`] vertices (ids must fit the
/// 32-bit halves of a table record's parent word), or if a vertex's tree
/// list and the clusters listing it as a member disagree (the assembled
/// schemes never do).
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
    let mut table_pool_words = 0;
    for (_, _, ts) in &trees {
        members += ts.tree_size();
        table_pool_words += ts.tables().iter().map(table_record_words).sum::<usize>();
    }
    // Where each vertex's tree list starts in VTREES_VALS (and MEMBER_SLOTS).
    let mut vtrees_start = Vec::with_capacity(n + 1);
    vtrees_start.push(0);
    for v in 0..n {
        vtrees_start.push(vtrees_start[v] + scheme.trees_of(v).len());
    }
    // The label pool is interned in emission order: every node-label entry
    // of every vertex, then every level-0 centre's own-cluster entries,
    // ascending by member — its tree scheme's member order.
    let mut pool = LabelPool::default();
    let mut label_entries = 0;
    for v in 0..n {
        for entry in &scheme.label(v).entries {
            label_entries += 1;
            if let Some(l) = scheme.tree_label(entry.pivot, v) {
                pool.intern(l);
            }
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
    let lens = Section::ALL.map(|section| match section {
        Section::CenterIndex => n,
        Section::Clusters => CLUSTER_RECORD_WORDS * trees.len(),
        Section::MemberIds | Section::MemberTableOffs => members,
        Section::TablePool => table_pool_words,
        Section::VtreesOff | Section::OwnOff | Section::LabelEntriesOff => n + 1,
        Section::VtreesVals | Section::MemberSlots => vtrees_start[n],
        Section::OwnEntries => OWN_ENTRY_WORDS * own_entries,
        Section::LabelEntries => LABEL_ENTRY_WORDS * label_entries,
        Section::LabelPool => pool.words,
    });
    let total_words = HEADER_WORDS + lens.iter().sum::<usize>();

    // --- Emission, each section straight into its place -----------------------
    let mut out = vec![0u8; total_words * 8];
    let (header, mut body) = out.split_at_mut(HEADER_WORDS * 8);
    let mut sections = lens.map(|len| {
        let (section, rest) = std::mem::take(&mut body).split_at_mut(len * 8);
        body = rest;
        WordsMut::new(section)
    });
    let [center_index, clusters, member_ids, member_table_offs, table_pool, vtrees_off, vtrees_vals, member_slots, own_off, own_entries, label_entries_off, label_entries, label_pool] =
        &mut sections;

    for _ in 0..n {
        center_index.push(NULL);
    }
    for (ci, &(center, _, _)) in trees.iter().enumerate() {
        center_index.set(center, ci as u64);
    }
    // The cluster walk: CLUSTERS, MEMBER_IDS, MEMBER_TABLE_OFFS and
    // TABLE_POOL front to back, and MEMBER_SLOTS through one cursor per
    // vertex — clusters are walked in ascending centre order and each
    // vertex's tree list is ascending, so a vertex's next slot word belongs
    // to exactly this cluster. Table words are summed per vertex on the way.
    let mut filled = vec![0usize; n];
    let mut table_words = vec![0usize; n];
    for &(center, level, ts) in &trees {
        clusters.extend(&[
            center as u64,
            level as u64,
            member_ids.pushed() as u64,
            ts.tree_size() as u64,
        ]);
        for (slot, (v, table)) in ts.members().zip(ts.tables()).enumerate() {
            member_ids.push(v as u64);
            member_table_offs.push(table_pool.pushed() as u64);
            write_table(table_pool, table);
            table_words[v] += table.words();
            let at = vtrees_start[v] + filled[v];
            assert!(
                at < vtrees_start[v + 1] && scheme.trees_of(v)[filled[v]] == center,
                "vertex {v} is a member of cluster {center} but does not list it as a tree"
            );
            member_slots.set(at, slot as u64);
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
        vtrees_off.push(vtrees_start[v] as u64);
        for &c in tree_list {
            vtrees_vals.push(c as u64);
        }
        label_entries_off.push((label_entries.pushed() / LABEL_ENTRY_WORDS) as u64);
        let mut label_words = 1;
        for entry in &scheme.label(v).entries {
            let l = scheme.tree_label(entry.pivot, v);
            label_entries.extend(&[
                entry.level as u64,
                entry.pivot as u64,
                entry.dist,
                l.map_or(NULL, |l| pool.offset(l)),
            ]);
            label_words += 3 + l.map_or(0, TreeLabel::words);
        }
        max_label_words = max_label_words.max(label_words);
        total_label_words += label_words;
        own_off.push((own_entries.pushed() / OWN_ENTRY_WORDS) as u64);
        if let Some(own) = scheme.own_cluster(v) {
            for (m, l) in own.members().zip(own.labels()) {
                own_entries.extend(&[m as u64, pool.offset(l)]);
                table_words[v] += 1 + l.words();
            }
        }
    }
    vtrees_off.push(vtrees_start[n] as u64);
    label_entries_off.push((label_entries.pushed() / LABEL_ENTRY_WORDS) as u64);
    own_off.push((own_entries.pushed() / OWN_ENTRY_WORDS) as u64);
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

    let mut head = WordsMut::new(header);
    head.extend(&[
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
    ]);
    let mut off = HEADER_WORDS;
    for len in lens {
        head.push(off as u64);
        off += len;
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
    let header = Words::new(&buf[..HEADER_WORDS * 8]);
    let mut bounds = [total_words; NUM_SECTIONS + 1];
    for (i, b) in bounds.iter_mut().take(NUM_SECTIONS).enumerate() {
        *b = header.get(H_SECTIONS + i) as usize;
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
        assert_eq!(pin(64, 9, 0.12, 2, 9), (132_824, 0xc068_179d_2f1f_d402));
        assert_eq!(pin(300, 5, 0.03, 3, 5), (845_352, 0xb3c9_1b48_07ff_14f0));
    }
}
