//! Serving subsystem: flat zero-copy routing-scheme snapshots and a
//! multi-threaded batched query engine.
//!
//! The paper's whole point is that *after* preprocessing, routing decisions
//! are made from compact local tables and `o(n)`-size labels (Table 1,
//! Theorem 7, the `4k−5` refinement of \[TZ01\]). This crate gives that
//! serving side a production shape:
//!
//! * [`snapshot::serialize`] flattens a complete
//!   [`RoutingScheme`](en_routing::scheme::RoutingScheme) — per-vertex
//!   tables (each tree table with the port of its parent edge), node
//!   labels, pivots, and the `4k−5` own-cluster labels — into
//!   one relocatable little-endian buffer of 32-bit CSR-style columns with
//!   pooled variable-length records (shared tree labels are written once),
//!   plus a versioned header carrying `n`, `k`, and the Table-1 word-size
//!   stats.
//! * [`FlatScheme::from_bytes`] — the only way to open a snapshot —
//!   validates that buffer **once**, checksums and a structural proof of
//!   every offset alike, and then serves every access zero-copy through
//!   one accessor set: the views it hands out are `Copy`
//!   slice-plus-offset handles, no per-label or per-table allocation. Since
//!   format v3 the snapshot also carries a member-slot rank index (one field
//!   per tree incidence, checksummed like every section), so resolving a
//!   vertex's table inside a cluster is a single indexed read instead of a
//!   binary search over the member column. A full cluster (all `n`
//!   vertices, as at the top level) needs no read at all: its validated
//!   member column is the identity.
//! * [`QueryEngine`] answers `find_tree` / `route` batches directly off the
//!   flat columns, sharding batches over `std::thread::scope` workers.
//!   There is no forwarding loop in this crate: the validated
//!   [`FlatScheme`] instantiates the storage-generic kernel in
//!   [`en_routing::access`] — the same `Find-tree` + hop loop the in-memory
//!   scheme runs — so outcomes are bit-identical by construction (and
//!   property-proven in `tests/property_wire_roundtrip.rs`).
//! * [`mmap::MappedSnapshot`] opens a committed snapshot file straight out
//!   of the kernel page cache — an O(header) length check, then `mmap` —
//!   instead of copying hundreds of megabytes per open, with a
//!   read-into-heap fallback for non-Linux targets and shape-invalid files
//!   (see that module's SIGBUS-safety argument); [`SnapshotSource`] lets
//!   [`SchemeStore`] epochs serve owned and mapped buffers alike.
//! * [`workload::generate_pairs`] produces uniform, Zipf-hotspot, and
//!   near-vs-far query workloads for the tests, the `perf_baseline` and
//!   `fault_drill` harness bins, and `examples/snapshot_roundtrip.rs`.
//!
//! # Fault tolerance
//!
//! Serving is hardened end to end (see `tests/integration_fault_tolerance.rs`
//! and the `fault_drill` harness bin):
//!
//! * **Snapshot integrity** — the header carries a per-section 16-lane
//!   FNV-1a checksum plus a whole-header checksum ([`checksum`]);
//!   [`FlatScheme::from_bytes`] verifies them once at load, so corruption is
//!   a structured [`WireError::ChecksumMismatch`], never a wrong answer, and
//!   the per-query hot path stays checksum-free.
//! * **Structural proof** — after the checksums, one walk over the sections
//!   proves every offset, CSR, record and vertex id in bounds, and every
//!   pool offset at the start of the record it names, so bytes forged with
//!   recomputed checksums are rejected with [`WireError::Corrupt`] or, when
//!   they are consistent, are served without a panic.
//! * **Epoch hot swap** — [`SchemeStore`] validates candidate snapshots
//!   *before* atomically swapping them in; a failed publish leaves the
//!   current epoch serving (rollback by default) and readers pin whole
//!   epochs, so a swap never tears a batch.
//! * **Panic-isolated shards** — [`QueryEngine::route_batch`] runs each
//!   shard under `catch_unwind` as the last barrier against a latent bug; a
//!   panicking shard is retried one query at a time on the same path, each
//!   query under its own guard, so only the queries that panic again
//!   degrade, and [`BatchStats`] / [`ShardStats`] report exactly what
//!   happened.
//! * **Deterministic fault injection** — [`faultsim`] builds seeded fault
//!   plans (boundary truncations, bit flips, offset scrambles), applies them
//!   plain and with forged checksums, and drills the whole stack, asserting
//!   error-not-crash everywhere.
//!
//! # Example
//!
//! ```
//! use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
//! use en_routing::construction::{build_routing_scheme, ConstructionConfig};
//! use en_wire::{FlatScheme, QueryEngine};
//!
//! let g = erdos_renyi_connected(&GeneratorConfig::new(64, 5), 0.1);
//! let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 42)).unwrap();
//!
//! // Snapshot the scheme, then serve it zero-copy from the bytes.
//! let bytes = en_wire::snapshot::serialize(&built.scheme);
//! let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
//! let engine = QueryEngine::new(flat, &g).expect("sizes match");
//!
//! let outcome = engine.route(3, 60).expect("delivery succeeds");
//! let reference = built.scheme.route(&g, 3, 60).expect("delivery succeeds");
//! assert_eq!(outcome.path, reference.path);
//! ```

// `deny`, not `forbid`: the `mmap` module carries the crate's single
// scoped `allow` for its raw-syscall wrapper; every other module is
// checked Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod engine;
pub mod error;
pub mod faultsim;
pub mod flat;
pub mod format;
pub mod mmap;
pub mod snapshot;
pub mod store;
pub mod workload;

pub use engine::{BatchOutcome, BatchStats, QueryEngine, ShardStats};
pub use error::WireError;
pub use flat::{
    FlatCluster, FlatLabelEntry, FlatScheme, FlatTreeLabel, FlatTreeTable, FlatU32s, SectionSpan,
    SnapshotManifest,
};
pub use mmap::MappedSnapshot;
pub use snapshot::serialize;
pub use store::{SchemeStore, SnapshotEpoch, SnapshotSource, StoreStats};
pub use workload::{generate_pairs, PairWorkload};
