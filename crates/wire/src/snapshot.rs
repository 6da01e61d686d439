//! Serializing a [`RoutingScheme`] into the flat snapshot buffer.

use std::collections::HashMap;
use std::sync::Arc;

use en_routing::scheme::RoutingScheme;
use en_tree_routing::{TreeLabel, TreeTable};

use crate::checksum::{fnv1a_bytes, fnv1a_lanes_bytes};
use crate::format::{
    push_word, Section, Words, CLUSTER_RECORD_WORDS, HEADER_WORDS, H_HEADER_SUM, H_SECTIONS,
    H_SECTION_SUMS, LABEL_ENTRY_WORDS, MAGIC, NULL, NUM_SECTIONS, OWN_ENTRY_WORDS, VERSION,
};

fn opt(v: Option<usize>) -> u64 {
    v.map_or(NULL, |x| x as u64)
}

/// Appends one table record to the table pool, returning its pool-relative
/// word offset. The vertex and tree root are implicit (member column /
/// cluster centre).
fn write_table(pool: &mut Vec<u64>, t: &TreeTable) -> u64 {
    let off = pool.len() as u64;
    pool.extend_from_slice(&[
        t.subtree_root as u64,
        opt(t.parent),
        opt(t.heavy_child),
        t.a_local,
        t.b_local,
        t.a_global,
        t.b_global,
        opt(t.global_heavy.as_ref().map(|gh| gh.child_subtree)),
    ]);
    if let Some(gh) = &t.global_heavy {
        pool.extend_from_slice(&[
            gh.portal as u64,
            gh.portal_label.a,
            gh.portal_label.exceptions.len() as u64,
        ]);
        for &(x, c) in &gh.portal_label.exceptions {
            pool.extend_from_slice(&[x as u64, c as u64]);
        }
    }
    off
}

/// Appends one tree-label record to the label pool, returning its
/// pool-relative word offset.
fn write_label(pool: &mut Vec<u64>, l: &TreeLabel) -> u64 {
    let off = pool.len() as u64;
    pool.extend_from_slice(&[
        l.vertex as u64,
        l.subtree_root as u64,
        l.a_global,
        l.local.a,
        l.local.exceptions.len() as u64,
    ]);
    for &(x, c) in &l.local.exceptions {
        pool.extend_from_slice(&[x as u64, c as u64]);
    }
    pool.push(l.global_exceptions.len() as u64);
    for e in &l.global_exceptions {
        pool.extend_from_slice(&[
            e.parent_subtree as u64,
            e.child_subtree as u64,
            e.portal as u64,
            e.portal_label.a,
            e.portal_label.exceptions.len() as u64,
        ]);
        for &(x, c) in &e.portal_label.exceptions {
            pool.extend_from_slice(&[x as u64, c as u64]);
        }
    }
    off
}

/// Interns `label` into the pool, writing it only on first sight.
///
/// Labels are `Arc`-pooled by the assemble path — the same allocation backs
/// a member's node-label entry and the centre's own-cluster table — so
/// interning by allocation identity writes each shared label once and the
/// snapshot inherits the in-memory sharing.
fn intern_label(
    pool: &mut Vec<u64>,
    seen: &mut HashMap<*const TreeLabel, u64>,
    label: &Arc<TreeLabel>,
) -> u64 {
    *seen
        .entry(Arc::as_ptr(label))
        .or_insert_with(|| write_label(pool, label))
}

/// Serializes `scheme` into a self-contained snapshot buffer.
///
/// The result is little-endian, internally 8-byte aligned, and relocatable:
/// [`FlatScheme::from_bytes`](crate::FlatScheme::from_bytes) validates it
/// once and then serves every query by borrowing directly from the buffer.
pub fn serialize(scheme: &RoutingScheme) -> Vec<u8> {
    let n = scheme.n();
    let k = scheme.k();
    let centers = scheme.centers();

    // --- Cluster columns -----------------------------------------------------
    let mut center_index = vec![NULL; n];
    let mut clusters = Vec::with_capacity(centers.len() * CLUSTER_RECORD_WORDS);
    let mut member_ids: Vec<u64> = Vec::new();
    let mut member_table_offs: Vec<u64> = Vec::new();
    let mut table_pool: Vec<u64> = Vec::new();
    // Per-vertex (centre, slot) pairs harvested during the cluster walk —
    // the raw material of the v3 rank index emitted below.
    let mut slots_by_vertex: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for (ci, &center) in centers.iter().enumerate() {
        center_index[center] = ci as u64;
        let ts = scheme
            .tree_scheme(center)
            .expect("centers() lists only centres with a scheme");
        let level = scheme.center_level(center).unwrap_or(0);
        let start = member_ids.len();
        for (i, v) in ts.members().enumerate() {
            member_ids.push(v as u64);
            slots_by_vertex[v].push((center as u64, i as u64));
            let table = ts.table_by_index(i).expect("tables align with members");
            member_table_offs.push(write_table(&mut table_pool, table));
        }
        clusters.extend_from_slice(&[
            center as u64,
            level as u64,
            start as u64,
            (member_ids.len() - start) as u64,
        ]);
    }
    for s in &mut slots_by_vertex {
        s.sort_unstable();
    }

    // --- Per-vertex columns --------------------------------------------------
    let mut label_pool: Vec<u64> = Vec::new();
    let mut seen: HashMap<*const TreeLabel, u64> = HashMap::new();

    let mut vtrees_off: Vec<u64> = Vec::with_capacity(n + 1);
    let mut vtrees_vals: Vec<u64> = Vec::new();
    let mut member_slots: Vec<u64> = Vec::new();
    let mut label_entries_off: Vec<u64> = Vec::with_capacity(n + 1);
    let mut label_entries: Vec<u64> = Vec::new();
    vtrees_off.push(0);
    label_entries_off.push(0);
    for v in 0..n {
        let table = scheme.table(v);
        vtrees_vals.extend(table.trees.iter().map(|&c| c as u64));
        // The rank index stays word-aligned with VTREES_VALS: for the i-th
        // tree entry, the vertex's slot in that cluster's member column.
        let slots = &slots_by_vertex[v];
        for &c in &table.trees {
            let at = slots
                .binary_search_by_key(&(c as u64), |&(center, _)| center)
                .expect("every tree of a vertex lists it as a cluster member");
            member_slots.push(slots[at].1);
        }
        vtrees_off.push(vtrees_vals.len() as u64);
        for entry in &scheme.label(v).entries {
            let label_off = entry
                .tree_label
                .as_ref()
                .map_or(NULL, |l| intern_label(&mut label_pool, &mut seen, l));
            label_entries.extend_from_slice(&[
                entry.level as u64,
                entry.pivot as u64,
                entry.dist,
                label_off,
            ]);
        }
        label_entries_off.push((label_entries.len() / LABEL_ENTRY_WORDS) as u64);
    }

    let mut own_off: Vec<u64> = Vec::with_capacity(n + 1);
    let mut own_entries: Vec<u64> = Vec::new();
    own_off.push(0);
    for v in 0..n {
        let own = &scheme.table(v).own_cluster_labels;
        let mut members: Vec<usize> = own.keys().copied().collect();
        members.sort_unstable();
        for m in members {
            let label_off = intern_label(&mut label_pool, &mut seen, &own[&m]);
            own_entries.extend_from_slice(&[m as u64, label_off]);
        }
        own_off.push((own_entries.len() / OWN_ENTRY_WORDS) as u64);
    }

    // --- Header + emission ---------------------------------------------------
    let sections: [&[u64]; NUM_SECTIONS] = [
        &center_index,
        &clusters,
        &member_ids,
        &member_table_offs,
        &table_pool,
        &vtrees_off,
        &vtrees_vals,
        &member_slots,
        &own_off,
        &own_entries,
        &label_entries_off,
        &label_entries,
        &label_pool,
    ];
    let total_words = HEADER_WORDS + sections.iter().map(|s| s.len()).sum::<usize>();

    let total_table_words: usize = (0..n).map(|v| scheme.table_words(v)).sum();
    let total_label_words: usize = (0..n).map(|v| scheme.label_words(v)).sum();

    let mut out = Vec::with_capacity(total_words * 8);
    push_word(&mut out, MAGIC);
    push_word(&mut out, VERSION);
    push_word(&mut out, n as u64);
    push_word(&mut out, k as u64);
    push_word(&mut out, centers.len() as u64);
    push_word(&mut out, total_words as u64);
    push_word(&mut out, member_ids.len() as u64);
    push_word(&mut out, scheme.max_table_words() as u64);
    push_word(&mut out, total_table_words as u64);
    push_word(&mut out, scheme.max_label_words() as u64);
    push_word(&mut out, total_label_words as u64);
    let mut off = HEADER_WORDS as u64;
    for s in &sections {
        push_word(&mut out, off);
        off += s.len() as u64;
    }
    debug_assert_eq!(out.len(), H_SECTION_SUMS * 8);
    // The checksum words stay zero until `seal` fills them in over the
    // laid-out buffer; the reserved words stay zero.
    while out.len() < HEADER_WORDS * 8 {
        push_word(&mut out, 0);
    }
    for s in &sections {
        for &w in *s {
            push_word(&mut out, w);
        }
    }
    debug_assert_eq!(out.len(), total_words * 8);
    debug_assert_eq!(Section::LabelPool as usize, NUM_SECTIONS - 1);
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
