//! Deterministic fault injection against snapshot bytes.
//!
//! The serving stack claims *error-not-crash* for arbitrary snapshot
//! corruption. This module makes that claim drillable: seeded, fully
//! deterministic fault **plans** (truncations at every section boundary,
//! single-bit flips over the header and each section, scrambled offset
//! columns, near-value rewrites of every section field) plus two runners
//! that apply each fault to a pristine buffer and classify what the stack
//! did about it:
//!
//! * [`drill_loads`] — plain corruption (bit rot, torn or tampered bytes):
//!   every fault must be **detected**, i.e. [`FlatScheme::from_bytes`]
//!   rejects the bytes with a structured [`WireError`](crate::WireError).
//! * [`drill_forged`] — the same section damage with the checksums
//!   re-sealed around it, as a forger would, so only the structural proof
//!   in `from_bytes` stands between the bytes and the server. A forged
//!   fault is either **detected**, or validates and is served at 1, 2 and
//!   8 threads with zero shard panics and identical outcomes: **degraded**
//!   when some queries fail with structured errors, **survived** when every
//!   query delivers.
//! * **undetected** — the failure mode: corrupt bytes that validated clean
//!   in a load drill, or forged bytes whose serving panicked a shard or
//!   varied with the thread count. The drills assert this count is zero.
//!
//! Plans are pure data (`Vec<FaultCase>`), so tests, the `fault_drill`
//! harness bin, and CI all execute byte-identical fault sequences for a
//! given seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use en_graph::{NodeId, WeightedGraph};

use crate::engine::QueryEngine;
use crate::flat::{FlatScheme, SnapshotManifest};
use crate::format::{Fields, Section, HEADER_WORDS, NULL};

/// One way to damage a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Keep only the first `len` bytes.
    Truncate {
        /// Bytes to keep.
        len: usize,
    },
    /// Flip a single bit.
    BitFlip {
        /// Byte offset.
        byte: usize,
        /// Bit index within the byte (0..8).
        bit: u8,
    },
    /// Overwrite one 4-byte section field with an arbitrary value.
    FieldWrite {
        /// Field offset (in 4-byte fields from the buffer start).
        field: usize,
        /// The value written.
        value: u32,
    },
}

/// A named fault: what to do to the bytes, and a label for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCase {
    /// Human-readable label (`"truncate@member_ids"`, `"flip header 3:17"`).
    pub name: String,
    /// The damage to apply.
    pub kind: FaultKind,
}

impl FaultCase {
    /// Applies the fault to a copy of `bytes`.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match self.kind {
            FaultKind::Truncate { len } => bytes[..len.min(bytes.len())].to_vec(),
            FaultKind::BitFlip { byte, bit } => {
                let mut out = bytes.to_vec();
                if let Some(b) = out.get_mut(byte) {
                    *b ^= 1 << (bit % 8);
                }
                out
            }
            FaultKind::FieldWrite { field, value } => {
                let mut out = bytes.to_vec();
                if let Some(dst) = out.get_mut(field * 4..field * 4 + 4) {
                    dst.copy_from_slice(&value.to_le_bytes());
                }
                out
            }
        }
    }
}

/// Truncations at every section boundary, one word before each boundary,
/// and two sub-word cuts — the shapes a torn transfer produces.
pub fn truncation_plan(manifest: &SnapshotManifest) -> Vec<FaultCase> {
    let total = manifest.total_words * 8;
    let mut plan = Vec::new();
    let mut push = |name: String, len: usize| {
        if len < total {
            plan.push(FaultCase {
                name,
                kind: FaultKind::Truncate { len },
            });
        }
    };
    for span in &manifest.sections {
        let name = span.section.name();
        push(format!("truncate@{name}"), span.start_word * 8);
        if span.start_word > 0 {
            push(format!("truncate@{name}-1w"), (span.start_word - 1) * 8);
        }
    }
    push("truncate@end-1w".into(), total.saturating_sub(8));
    // Sub-word cuts: misaligned buffers.
    push("truncate@end-1b".into(), total.saturating_sub(1));
    push("truncate@mid+3b".into(), total / 2 / 8 * 8 + 3);
    push("truncate@empty".into(), 0);
    plan
}

/// A single-bit flip in every bit of every header word — the header is
/// small enough to sweep exhaustively.
pub fn header_flip_plan() -> Vec<FaultCase> {
    let mut plan = Vec::with_capacity(HEADER_WORDS * 64);
    for word in 0..HEADER_WORDS {
        for bit in 0..64u32 {
            plan.push(FaultCase {
                name: format!("flip header {word}:{bit}"),
                kind: FaultKind::BitFlip {
                    byte: word * 8 + (bit / 8) as usize,
                    bit: (bit % 8) as u8,
                },
            });
        }
    }
    plan
}

/// `per_section` seeded single-bit flips inside every non-empty section.
pub fn section_flip_plan(
    manifest: &SnapshotManifest,
    seed: u64,
    per_section: usize,
) -> Vec<FaultCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Vec::new();
    for span in &manifest.sections {
        if span.words == 0 {
            continue;
        }
        let (start, len) = (span.start_word * 8, span.words * 8);
        for i in 0..per_section {
            let byte = start + rng.gen_range(0..len);
            let bit = rng.gen_range(0..8u32) as u8;
            plan.push(FaultCase {
                name: format!("flip {} #{i} @{byte}:{bit}", span.section.name()),
                kind: FaultKind::BitFlip { byte, bit },
            });
        }
    }
    plan
}

/// Seeded scrambles of the offset columns — the fields the reader indexes
/// with: cluster descriptors, the member-table offset column, the
/// member-slot rank index, all three per-vertex CSRs, the own-cluster and
/// node-label entries, and the centre index. Each case overwrites one
/// 32-bit field (pad fields included) with a huge or adversarial value
/// (NULL, past-the-end offsets, reversed monotonicity, slots naming the
/// wrong member).
pub fn offset_scramble_plan(
    manifest: &SnapshotManifest,
    seed: u64,
    cases: usize,
) -> Vec<FaultCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let targets = [
        Section::Clusters,
        Section::MemberTableOffs,
        Section::VtreesOff,
        Section::MemberSlots,
        Section::OwnOff,
        Section::LabelEntriesOff,
        Section::OwnEntries,
        Section::LabelEntries,
        Section::CenterIndex,
    ];
    let mut plan = Vec::new();
    for i in 0..cases {
        let span = manifest.sections[targets[i % targets.len()] as usize];
        if span.words == 0 {
            continue;
        }
        let field = span.start_field() + rng.gen_range(0..span.fields());
        let value = match rng.gen_range(0..3u32) {
            0 => u32::MAX,
            1 => u32::try_from(manifest.total_fields())
                .unwrap_or(u32::MAX)
                .saturating_add(rng.gen_range(1..1_000_000u32)),
            _ => rng.gen_range(0..u32::MAX / 2) | (1 << 30),
        };
        plan.push(FaultCase {
            name: format!("scramble {} f{field}={value:#x}", span.section.name()),
            kind: FaultKind::FieldWrite { field, value },
        });
    }
    plan
}

/// Near-value forgeries: every field of every section, pad fields
/// included, rewritten to `v − 1`, `v + 1`, 0, 1, `n − 1`, `n`, NULL and the
/// value of each neighbouring field in its section, one case per distinct
/// value other than `v` (the field's own value; `n` is the vertex count).
/// These are the values a structural check compares against, so a check
/// that is off by one, or a column that can borrow its neighbour's value,
/// shows up here rather than in random scrambles.
///
/// # Panics
///
/// Panics if `bytes` is not a valid snapshot.
pub fn near_value_plan(bytes: &[u8]) -> Vec<FaultCase> {
    let flat = FlatScheme::from_bytes(bytes).expect("near_value_plan needs a valid snapshot");
    let n = flat.n() as u32;
    let field = |f: usize| Fields::new(bytes).get(f);
    let mut plan = Vec::new();
    for span in &flat.manifest().sections {
        let fields = span.start_field()..span.start_field() + span.fields();
        for f in fields.clone() {
            let v = field(f);
            let neighbours = [f.wrapping_sub(1), f + 1]
                .into_iter()
                .filter(|g| fields.contains(g))
                .map(field);
            let mut values: Vec<u32> = Vec::with_capacity(9);
            for x in [
                v.wrapping_sub(1),
                v.wrapping_add(1),
                0,
                1,
                n.wrapping_sub(1),
                n,
                NULL,
            ]
            .into_iter()
            .chain(neighbours)
            {
                if x != v && !values.contains(&x) {
                    values.push(x);
                }
            }
            plan.extend(values.into_iter().map(|value| FaultCase {
                name: format!("near {} f{f}={value:#x}", span.section.name()),
                kind: FaultKind::FieldWrite { field: f, value },
            }));
        }
    }
    plan
}

/// Aggregated drill results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults injected.
    pub injected: usize,
    /// Faults [`FlatScheme::from_bytes`] rejected.
    pub detected: usize,
    /// Forged faults that validated and were served panic-free with
    /// identical outcomes at every thread count, some queries failing with
    /// structured errors.
    pub degraded: usize,
    /// Forged faults that validated and were served panic-free with
    /// identical outcomes at every thread count, every query delivered.
    pub survived: usize,
    /// Labels of faults the stack mishandled — must stay empty: corrupt
    /// bytes that validated clean in a load drill, or forged bytes whose
    /// serving panicked a shard or varied with the thread count.
    pub undetected: Vec<String>,
}

impl FaultReport {
    /// Whether every injected fault was detected, or served as a degraded
    /// or surviving forged fault.
    pub fn all_handled(&self) -> bool {
        self.undetected.is_empty() && self.detected + self.degraded + self.survived == self.injected
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: FaultReport) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.degraded += other.degraded;
        self.survived += other.survived;
        self.undetected.extend(other.undetected);
    }

    /// One-line summary for harness stdout.
    pub fn summary(&self) -> String {
        format!(
            "injected={} detected={} degraded={} survived={} undetected={}",
            self.injected,
            self.detected,
            self.degraded,
            self.survived,
            self.undetected.len()
        )
    }
}

/// Runs a load-time drill: every fault in `plan` must make
/// [`FlatScheme::from_bytes`] return an error (the faults all really
/// change covered bytes, so an `Ok` is recorded as undetected).
pub fn drill_loads(bytes: &[u8], plan: &[FaultCase]) -> FaultReport {
    let mut report = FaultReport::default();
    for case in plan {
        let corrupt = case.apply(bytes);
        if corrupt.len() == bytes.len() && corrupt == bytes {
            continue; // the fault was a no-op (e.g. writing the same word)
        }
        report.injected += 1;
        match FlatScheme::from_bytes(&corrupt) {
            Err(_) => report.detected += 1,
            Ok(_) => report.undetected.push(case.name.clone()),
        }
    }
    report
}

/// Runs a forged-checksum drill over the valid snapshot `bytes` of
/// `graph`: each fault in `plan` is applied and the checksums are re-sealed
/// around it, so only the structural proof in [`FlatScheme::from_bytes`]
/// can reject the result. A forged snapshot that validates must route
/// `pairs` at 1, 2 and 8 threads with zero shard panics and identical
/// outcomes; otherwise the fault is recorded as undetected. Faults that
/// reach the header or change the length leave no section table to seal
/// against and are skipped, as are no-ops.
///
/// # Panics
///
/// Panics if `bytes` is not a valid snapshot for `graph`.
pub fn drill_forged(
    bytes: &[u8],
    graph: &WeightedGraph,
    pairs: &[(NodeId, NodeId)],
    plan: &[FaultCase],
) -> FaultReport {
    let manifest = FlatScheme::from_bytes(bytes)
        .expect("drill_forged needs a valid snapshot")
        .manifest();
    let header_bytes = HEADER_WORDS * 8;
    let section_fields = manifest.sections[0].start_field()..manifest.total_fields();
    let mut report = FaultReport::default();
    for case in plan {
        let in_sections = match case.kind {
            FaultKind::Truncate { .. } => false,
            FaultKind::BitFlip { byte, .. } => (header_bytes..bytes.len()).contains(&byte),
            FaultKind::FieldWrite { field, .. } => section_fields.contains(&field),
        };
        if !in_sections {
            continue;
        }
        let mut forged = case.apply(bytes);
        if forged == bytes {
            continue;
        }
        crate::snapshot::seal(&mut forged);
        report.injected += 1;
        let Ok(flat) = FlatScheme::from_bytes(&forged) else {
            report.detected += 1;
            continue;
        };
        // Forging leaves the header alone, so only a wrong `graph` fails here.
        let engine =
            QueryEngine::new(flat, graph).expect("drill_forged needs the snapshot's graph");
        let batches: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| engine.route_batch(pairs, None, threads))
            .collect();
        let clean = batches.iter().all(|b| {
            b.stats.shard_panics == 0
                && b.stats == batches[0].stats
                && b.outcomes == batches[0].outcomes
        });
        if !clean {
            report.undetected.push(case.name.clone());
        } else if batches[0].stats.failed > 0 {
            report.degraded += 1;
        } else {
            report.survived += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_pairs, serialize, PairWorkload};
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};

    fn built(n: usize, p: f64) -> (WeightedGraph, Vec<u8>) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, 5).with_weights(1, 9), p);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 5)).unwrap();
        let bytes = serialize(&built.scheme);
        (g, bytes)
    }

    fn snapshot() -> Vec<u8> {
        built(36, 0.15).1
    }

    #[test]
    fn plans_are_deterministic() {
        let bytes = snapshot();
        let manifest = FlatScheme::from_bytes(&bytes).unwrap().manifest();
        assert_eq!(truncation_plan(&manifest), truncation_plan(&manifest));
        assert_eq!(
            section_flip_plan(&manifest, 7, 4),
            section_flip_plan(&manifest, 7, 4)
        );
        assert_ne!(
            section_flip_plan(&manifest, 7, 4),
            section_flip_plan(&manifest, 8, 4)
        );
        assert_eq!(
            offset_scramble_plan(&manifest, 3, 16),
            offset_scramble_plan(&manifest, 3, 16)
        );
    }

    #[test]
    fn apply_shapes_are_right() {
        let bytes = vec![0u8; 64];
        let t = FaultCase {
            name: "t".into(),
            kind: FaultKind::Truncate { len: 10 },
        };
        assert_eq!(t.apply(&bytes).len(), 10);
        let f = FaultCase {
            name: "f".into(),
            kind: FaultKind::BitFlip { byte: 3, bit: 2 },
        };
        let flipped = f.apply(&bytes);
        assert_eq!(flipped[3], 4);
        assert_eq!(f.apply(&flipped), bytes, "a bit flip is an involution");
        let f = FaultCase {
            name: "f32".into(),
            kind: FaultKind::FieldWrite {
                field: 3,
                value: u32::MAX,
            },
        };
        let written = f.apply(&bytes);
        assert_eq!(&written[12..16], &[0xFF; 4], "one field is written");
        assert_eq!(
            written.iter().filter(|&&b| b != 0).count(),
            4,
            "and nothing else"
        );
        // Out-of-range damage degrades to a no-op instead of panicking.
        let oob = FaultCase {
            name: "oob".into(),
            kind: FaultKind::FieldWrite {
                field: 16,
                value: 1,
            },
        };
        assert_eq!(oob.apply(&bytes), bytes);
    }

    #[test]
    fn every_planned_fault_is_detected_at_load() {
        let bytes = snapshot();
        let manifest = FlatScheme::from_bytes(&bytes).unwrap().manifest();
        let mut report = drill_loads(&bytes, &truncation_plan(&manifest));
        report.merge(drill_loads(&bytes, &section_flip_plan(&manifest, 11, 3)));
        report.merge(drill_loads(
            &bytes,
            &offset_scramble_plan(&manifest, 13, 24),
        ));
        assert!(report.all_handled(), "undetected: {:?}", report.undetected);
        assert_eq!(report.detected, report.injected, "all load faults detect");
        assert!(report.injected > 30);
    }

    #[test]
    fn near_value_plan_rewrites_every_section_field() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let (m, n) = (flat.manifest(), flat.n() as u32);
        let plan = near_value_plan(&bytes);
        assert_eq!(plan, near_value_plan(&bytes));
        let sections = m.sections[0].start_field()..m.total_fields();
        let mut values = vec![Vec::new(); m.total_fields()];
        for case in &plan {
            let FaultKind::FieldWrite { field, value } = case.kind else {
                panic!("{}: not a field write", case.name);
            };
            assert!(sections.contains(&field), "{}", case.name);
            values[field].push(value);
        }
        for f in sections {
            let v = Fields::new(&bytes).get(f);
            let got = &values[f];
            assert!(!got.contains(&v), "field {f} is rewritten to its own value");
            let mut distinct = got.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), got.len(), "field {f} repeats a value");
            for want in [v.wrapping_add(1), 0, n, NULL] {
                assert!(want == v || got.contains(&want), "field {f} misses {want}");
            }
        }
    }

    #[test]
    fn sampled_near_value_forgeries_are_rejected_or_served_panic_free() {
        let (g, bytes) = built(24, 0.3);
        let mut rng = StdRng::seed_from_u64(0x4E56);
        let sample: Vec<_> = near_value_plan(&bytes)
            .into_iter()
            .filter(|_| rng.gen_range(0..16u32) == 0)
            .collect();
        let pairs = generate_pairs(&g, &PairWorkload::Uniform, 60, 3);
        let report = drill_forged(&bytes, &g, &pairs, &sample);
        assert!(report.undetected.is_empty(), "{:?}", report.undetected);
        assert!(report.all_handled());
        // Both outcomes occur: the pools' values are not proven, only
        // their offsets.
        assert!(report.injected > 1_000, "{}", report.summary());
        assert!(
            report.detected > 0 && report.survived > 0,
            "{}",
            report.summary()
        );
    }
}
