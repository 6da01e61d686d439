//! Property suite for the `en_wire` serving subsystem: a snapshot
//! round-trip must be observationally *perfect*.
//!
//! Across random graphs, `k ∈ {2, 3}`, and both the exact and the
//! approximate (end-to-end distributed) constructions:
//!
//! * **Bit-identical outcomes**: for every sampled pair, the
//!   [`QueryEngine`] answer off the flat columns equals the in-memory
//!   [`RoutingScheme::route`] answer — same tree, same level, same path,
//!   same length, same exact distance, same stretch *bits* — and
//!   `find_tree` picks the same tree with the same label vertex.
//! * **Header accounting**: the snapshot header's Table-1 word stats —
//!   maxima and totals — equal the in-memory scheme's own counters, and
//!   serialization is deterministic (same scheme → same bytes).
//! * **`4k−5` lookups**: every centre stores the same own-cluster labels in
//!   both storages — all of its cluster's members at a level-0 centre, none
//!   anywhere else.
//! * **Rejection**: truncated buffers — including cuts at every section
//!   boundary — flipped magic/version words, and a corrupted section offset
//!   are rejected by [`FlatScheme::from_bytes`] rather than risking a panic
//!   at query time.
//! * **Integrity**: the per-section + header checksums detect *any*
//!   single-bit flip anywhere in the buffer — including the v3 member-slot
//!   rank index — so the accepted set is exactly the pristine snapshot
//!   (which routes bit-identically by the round-trip properties).
//! * **Version negotiation**: v2 to v5 bytes presented to the v6 reader
//!   fail with a structured `UnsupportedVersion`, not a checksum mismatch —
//!   also when the file arrives through the mapped open and the epoch
//!   store.
//! * **Byte manifest**: the sections keep the names the benchmark of record
//!   reports their bytes under, and the header plus the section spans is
//!   the whole snapshot.

use proptest::prelude::*;

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::WeightedGraph;
use en_routing::access::RouteAccess;
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::exact::exact_cluster_family;
use en_routing::scheme::RoutingScheme;
use en_routing::{Hierarchy, SchemeParams};
use en_tree_routing::LabelView;
use en_wire::format::{Section, HEADER_WORDS};
use en_wire::{serialize, FlatScheme, MappedSnapshot, QueryEngine, SchemeStore, WireError};

fn arb_graph() -> impl Strategy<Value = (WeightedGraph, u64)> {
    (16usize..56, 0u64..10_000, 1u64..60).prop_map(|(n, seed, max_w)| {
        (
            erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, max_w), 0.12),
            seed,
        )
    })
}

/// The flat engine and the in-memory scheme agree bit for bit on every
/// sampled pair, on both the `route` and the `find_tree` surface.
fn check_engine_matches_scheme(g: &WeightedGraph, scheme: &RoutingScheme) {
    let bytes = serialize(scheme);
    // Determinism: serializing the same scheme twice yields the same buffer.
    assert_eq!(
        bytes,
        serialize(scheme),
        "serialization must be deterministic"
    );
    let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
    assert_eq!(flat.n(), scheme.n());
    assert_eq!(flat.k(), scheme.k());
    assert_eq!(flat.num_clusters(), scheme.centers().len());
    assert_eq!(flat.max_table_words(), scheme.max_table_words());
    assert_eq!(flat.max_label_words(), scheme.max_label_words());
    let engine = QueryEngine::new(flat, g).expect("graph matches snapshot");
    let n = g.num_nodes();
    // The serializer sums the header totals in its own walk.
    let total_table_words: usize = (0..n).map(|v| scheme.table_words(v)).sum();
    let total_label_words: usize = (0..n).map(|v| scheme.label_words(v)).sum();
    assert_eq!(flat.total_table_words(), total_table_words);
    assert_eq!(flat.total_label_words(), total_label_words);
    // The 4k−5 lookups agree: a level-0 centre stores its whole cluster,
    // every other vertex nothing, in memory and in the snapshot alike.
    for c in 0..n {
        let own_size = match scheme.center_level(c) {
            Some(0) => scheme
                .tree_scheme(c)
                .expect("centres have a scheme")
                .tree_size(),
            _ => 0,
        };
        assert_eq!(flat.own_label_count(c), own_size, "centre {c}");
        for m in 0..n {
            match (RouteAccess::own_label(&scheme, c, m), flat.own_label(c, m)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!((a.0.vertex, b.vertex()), (m, m), "centre {c}");
                    assert_eq!(a.subtree_root(), b.subtree_root(), "centre {c}, member {m}");
                    assert_eq!(a.a_global(), b.a_global(), "centre {c}, member {m}");
                }
                (a, b) => panic!(
                    "centre {c}, member {m}: in memory {}, in the snapshot {}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }
    // Routes through full clusters resolve tables by identity, the rest
    // through the rank index: the comparison must cover both.
    let (mut via_full, mut via_partial) = (0usize, 0usize);
    for u in (0..n).step_by(3) {
        for v in (0..n).step_by(5) {
            if u == v {
                continue;
            }
            let (root_m, label_m) = scheme.find_tree(u, v).expect("in-memory find_tree");
            let (root_f, label_f) = engine.find_tree(u, v).expect("flat find_tree");
            assert_eq!(root_m, root_f, "{u}->{v}: tree choice differs");
            assert_eq!(label_m.vertex, label_f.vertex(), "{u}->{v}");

            let a = scheme.route(g, u, v).expect("in-memory route succeeds");
            let b = engine.route(u, v).expect("flat route succeeds");
            assert_eq!(a.tree_root, b.tree_root, "{u}->{v}: tree differs");
            assert_eq!(a.level, b.level, "{u}->{v}");
            assert_eq!(a.path, b.path, "{u}->{v}: paths differ");
            assert_eq!(a.length, b.length, "{u}->{v}");
            assert_eq!(a.exact, b.exact, "{u}->{v}");
            assert_eq!(
                a.stretch.to_bits(),
                b.stretch.to_bits(),
                "{u}->{v}: stretch bits differ"
            );
            if flat.cluster_of_center(b.tree_root).unwrap().len() == n {
                via_full += 1;
            } else {
                via_partial += 1;
            }
        }
    }
    assert!(via_full > 0, "no sampled route used a full cluster");
    assert!(via_partial > 0, "no sampled route used a partial cluster");
    // Out-of-range queries fail identically.
    assert!(engine.route(0, n + 7).is_err());
    assert!(scheme.route(g, 0, n + 7).is_err());
}

/// A copy of `bytes` with header word 1, the format version, set to
/// `version`.
fn stamp_version(bytes: &[u8], version: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..16].copy_from_slice(&version.to_le_bytes());
    out
}

/// A snapshot file stamped with a retired `version` is refused on the
/// mapped path too: the pre-map shape check reads the version word, so the
/// file is copied rather than mapped, and the store refuses it with the
/// version error.
fn assert_retired_file_is_refused(version: u64) {
    let g = erdos_renyi_connected(&GeneratorConfig::new(40, 3).with_weights(1, 20), 0.12);
    let scheme = build_routing_scheme(&g, &ConstructionConfig::new(2, 3))
        .unwrap()
        .scheme;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(format!(
        "v{version}_snapshot_file_is_refused_by_the_mapped_open.enwire"
    ));
    std::fs::write(&path, stamp_version(&serialize(&scheme), version)).unwrap();
    let opened = MappedSnapshot::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        !opened.is_mapped(),
        "the shape check must refuse the version"
    );
    assert_eq!(
        SchemeStore::new_source(opened.into()).unwrap_err(),
        WireError::UnsupportedVersion { found: version }
    );
}

#[test]
fn v3_snapshot_file_is_refused_by_the_mapped_open_and_the_store() {
    assert_retired_file_is_refused(3);
}

/// v4 has v5's layout and checksums, without the parent-edge ports in the
/// table records' parent words: serving it would misread every parent.
#[test]
fn v4_snapshot_file_is_refused_by_the_mapped_open_and_the_store() {
    assert_retired_file_is_refused(4);
}

/// v5 stores every section field in 64 bits: read as v6's 32-bit fields,
/// every offset would be misread.
#[test]
fn v5_snapshot_file_is_refused_by_the_mapped_open_and_the_store() {
    assert_retired_file_is_refused(5);
}

/// The names of the benchmark of record's `per_layer` metrics that report
/// one section's bytes each, in `BENCHMARK.json` order.
fn benchmarked_section_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = en_obs::parse_json(&text).expect("BENCHMARK.json parses");
    let per_layer = json.as_object().and_then(|o| o.get("per_layer"));
    per_layer
        .and_then(|p| p.as_array())
        .expect("BENCHMARK.json lists per_layer metrics")
        .iter()
        .filter_map(|m| m.as_object()?.get("name")?.as_str())
        .filter_map(|name| name.strip_prefix("snapshot.section_bytes."))
        .map(str::to_owned)
        .collect()
}

/// The benchmark reports one `snapshot.section_bytes.<name>` metric per
/// manifest section, as `SectionSpan::words × 8`: the format's sections
/// must keep exactly the benchmarked names, in order, and those spans plus
/// the header must add up to the whole snapshot.
#[test]
fn section_names_and_spans_match_the_benchmarked_section_bytes() {
    let names: Vec<&str> = Section::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, benchmarked_section_names());

    let g = erdos_renyi_connected(&GeneratorConfig::new(60, 8).with_weights(1, 20), 0.1);
    let scheme = build_routing_scheme(&g, &ConstructionConfig::new(3, 8))
        .unwrap()
        .scheme;
    let bytes = serialize(&scheme);
    let flat = FlatScheme::from_bytes(&bytes).unwrap();
    assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 6);
    let manifest = flat.manifest();
    let spanned: usize = manifest.sections.iter().map(|s| s.words * 8).sum();
    assert_eq!(HEADER_WORDS * 8 + spanned, flat.snapshot_bytes());
    assert_eq!(flat.snapshot_bytes(), bytes.len());
    for (span, section) in manifest.sections.iter().zip(Section::ALL) {
        assert_eq!(span.section, section);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Exact families: snapshot round-trip preserves every outcome.
    #[test]
    fn exact_scheme_roundtrips_bit_identically(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let params = SchemeParams::new(k, g.num_nodes(), seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, &g, seed);
        check_engine_matches_scheme(&g, &scheme);
    }

    /// Approximate (end-to-end distributed) schemes round-trip too.
    #[test]
    fn approx_scheme_roundtrips_bit_identically(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, seed)).unwrap();
        check_engine_matches_scheme(&g, &built.scheme);
    }

    /// Corruption: every truncation of the buffer — including at every
    /// section boundary — and targeted header edits are rejected with an
    /// error, never a panic.
    #[test]
    fn corrupted_snapshots_are_rejected(gs in arb_graph()) {
        let (g, seed) = gs;
        let params = SchemeParams::new(2, g.num_nodes(), seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, &g, seed);
        let bytes = serialize(&scheme);

        // Truncations at word and sub-word granularity.
        for cut in [1, 7, 8, 64, bytes.len() / 2, bytes.len() - 8, bytes.len() - 1] {
            let truncated = &bytes[..bytes.len() - cut];
            prop_assert!(
                FlatScheme::from_bytes(truncated).is_err(),
                "truncating {cut} bytes must be rejected"
            );
        }
        prop_assert_eq!(
            FlatScheme::from_bytes(&[]).unwrap_err(),
            WireError::Truncated { expected: 48 * 8, actual: 0 }
        );

        // Exhaustive boundary sweep: cut the buffer exactly at every section
        // start (losing that section and everything after it), one word
        // before, and one byte past each boundary.
        let manifest = FlatScheme::from_bytes(&bytes).expect("pristine validates").manifest();
        for span in &manifest.sections {
            let at = span.start_word * 8;
            for cut in [at, at.saturating_sub(8), at + 1] {
                if cut >= bytes.len() {
                    continue;
                }
                prop_assert!(
                    FlatScheme::from_bytes(&bytes[..cut]).is_err(),
                    "cut at {cut} ({:?} boundary {at}) must be rejected",
                    span.section
                );
            }
        }

        // The v3 member-slot rank index is protected like every other
        // section: bit flips anywhere in its span fail its checksum, and a
        // truncation landing inside it is rejected by the size check.
        let ms = manifest
            .sections
            .iter()
            .find(|s| s.section.name() == "member_slots")
            .expect("v3 snapshots carry the rank index");
        prop_assert!(ms.words > 0, "every scheme has cluster members to index");
        for i in [0, ms.words / 2, ms.words - 1] {
            let mut flipped = bytes.clone();
            flipped[(ms.start_word + i) * 8] ^= 1;
            prop_assert!(
                FlatScheme::from_bytes(&flipped).is_err(),
                "flip in member_slots word {i} must be rejected"
            );
        }
        let cut = (ms.start_word + ms.words / 2) * 8;
        prop_assert!(FlatScheme::from_bytes(&bytes[..cut]).is_err());

        // Flipped magic / unsupported version.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            FlatScheme::from_bytes(&bad_magic),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        prop_assert!(matches!(
            FlatScheme::from_bytes(&bad_version),
            Err(WireError::UnsupportedVersion { found: 99 })
        ));

        // Version negotiation: a buffer declaring a retired format (v2, v3
        // with its single-chain section checksums, v4 without ports in its
        // parent words, or v5 with 64-bit fields) is refused with the
        // structured version error — the version word is examined before
        // any checksum, so the caller learns "old format", never a
        // misleading checksum mismatch.
        for old in [2u64, 3, 4, 5] {
            let stamped = stamp_version(&bytes, old);
            prop_assert_eq!(
                FlatScheme::from_bytes(&stamped).unwrap_err(),
                WireError::UnsupportedVersion { found: old }
            );
        }

        // A corrupted section offset (point the cluster table past the end).
        let mut bad_section = bytes.clone();
        let off = (11 + 1) * 8; // header word 12: second section offset
        bad_section[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        prop_assert!(FlatScheme::from_bytes(&bad_section).is_err());

        // A corrupted label-pool offset inside a label entry column: zero out
        // the label pool section length by shrinking the total… simpler and
        // still structural: declare fewer clusters than the centre index
        // references.
        let mut bad_clusters = bytes.clone();
        bad_clusters[4 * 8..4 * 8 + 8].copy_from_slice(&0u64.to_le_bytes());
        prop_assert!(FlatScheme::from_bytes(&bad_clusters).is_err());
    }

    /// Integrity sweep: flipping any single bit of any header field — and
    /// any sampled bit anywhere in the buffer — is detected at load.
    /// Checksums cover every byte, so the accepted set is exactly the
    /// pristine buffer; whatever validates routes bit-identically because
    /// it *is* the original snapshot.
    #[test]
    fn any_single_bit_flip_is_detected(
        word in 0usize..48,
        bit in 0usize..64,
        permille in 0usize..1000,
        body_bit in 0usize..8,
    ) {
        // One snapshot for the whole sweep (proptest re-enters per case, so
        // keep the build small and deterministic).
        let g = erdos_renyi_connected(
            &GeneratorConfig::new(48, 77).with_weights(1, 20),
            0.12,
        );
        let params = SchemeParams::new(2, g.num_nodes(), 77);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, &g, 77);
        let bytes = serialize(&scheme);

        // Header flip: one bit of the proptest-chosen header field.
        let mut header_flipped = bytes.clone();
        header_flipped[word * 8 + bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            FlatScheme::from_bytes(&header_flipped).is_err(),
            "header word {word} bit {bit} flip must be rejected"
        );

        // Body flip: one bit at a proptest-sampled byte anywhere at all.
        let at = (bytes.len() - 1) * permille / 999;
        let mut body_flipped = bytes.clone();
        body_flipped[at] ^= 1 << body_bit;
        prop_assert!(
            FlatScheme::from_bytes(&body_flipped).is_err(),
            "byte {at} bit {body_bit} flip must be rejected"
        );

        // And the untouched buffer still validates and routes: the accepted
        // set is the pristine snapshot, whose outcomes the round-trip
        // properties above prove bit-identical.
        let flat = FlatScheme::from_bytes(&bytes).expect("pristine validates");
        let engine = QueryEngine::new(flat, &g).expect("graph matches");
        let a = engine.route(1, 40).expect("routes");
        let b = scheme.route(&g, 1, 40).expect("routes");
        prop_assert_eq!(a.path, b.path);
        prop_assert_eq!(a.length, b.length);
    }

    /// A mapped open serves the snapshot byte-identically to the owned
    /// read — the flat reader validates the same buffer and every routing
    /// outcome matches bit for bit — for both the exact and the
    /// approximate construction and `k ∈ {2, 3}`.
    #[test]
    fn mapped_snapshots_round_trip_bit_identically(
        gs in arb_graph(),
        k in 2usize..4,
        use_exact in 0usize..2,
    ) {
        let (g, seed) = gs;
        let use_exact = use_exact == 1;
        let scheme = if use_exact {
            let params = SchemeParams::new(k, g.num_nodes(), seed);
            let hierarchy = Hierarchy::sample(&params);
            let family = exact_cluster_family(&g, &hierarchy);
            RoutingScheme::assemble(&family, &g, seed)
        } else {
            build_routing_scheme(&g, &ConstructionConfig::new(k, seed))
                .unwrap()
                .scheme
        };
        let bytes = serialize(&scheme);

        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("mmap_roundtrip_{seed}_{k}_{use_exact}.enwire"));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedSnapshot::open(&path).unwrap();
        prop_assert_eq!(mapped.bytes(), &bytes[..]);
        // On this target a shape-valid snapshot takes the mapped fast path.
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        prop_assert!(mapped.is_mapped(), "shape-valid snapshot must map");

        let flat_mapped = FlatScheme::from_bytes(mapped.bytes()).expect("mapped validates");
        let flat_owned = FlatScheme::from_bytes(&bytes).expect("owned validates");
        let em = QueryEngine::new(flat_mapped, &g).expect("sizes match");
        let eo = QueryEngine::new(flat_owned, &g).expect("sizes match");
        let n = g.num_nodes();
        for u in (0..n).step_by(5) {
            for v in (0..n).step_by(9) {
                if u == v {
                    continue;
                }
                let a = eo.route_with_exact(u, v, 0).unwrap();
                let b = em.route_with_exact(u, v, 0).unwrap();
                assert_eq!(a.tree_root, b.tree_root, "{u}->{v}");
                assert_eq!(a.path, b.path, "{u}->{v}");
                assert_eq!(a.length, b.length, "{u}->{v}");
                assert_eq!(a.stretch.to_bits(), b.stretch.to_bits(), "{u}->{v}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
