//! Epoch-based hot swap of validated snapshots under live traffic.
//!
//! [`SchemeStore`] owns the serving snapshot behind an `Arc` epoch:
//! [`SchemeStore::publish`] **validates first** (the full
//! [`FlatScheme::from_bytes`] pass — checksums and structure), and only an
//! accepted buffer is atomically swapped in as the next epoch. Readers pin
//! an epoch with [`SchemeStore::current`] and keep routing on it for as
//! long as they hold the `Arc` — a publish mid-batch never tears a reader's
//! view, and the old epoch's memory is freed when its last reader drops it.
//!
//! **Rollback is the default**: a publish whose bytes fail validation
//! returns the error, bumps the rejected counter, and leaves the current
//! epoch serving untouched. This is the epoch/swap half of the delta-
//! snapshot roadmap item — producers can hand the store candidate buffers
//! as fast as they like; traffic only ever sees complete, validated
//! schemes.
//!
//! ```
//! use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
//! use en_routing::construction::{build_routing_scheme, ConstructionConfig};
//! use en_wire::{QueryEngine, SchemeStore};
//!
//! let g = erdos_renyi_connected(&GeneratorConfig::new(48, 9), 0.15);
//! let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 9)).unwrap();
//! let store = SchemeStore::new(en_wire::serialize(&built.scheme)).unwrap();
//!
//! // A reader pins the current epoch and serves off it.
//! let epoch = store.current();
//! let engine = QueryEngine::new(epoch.scheme(), &g).unwrap();
//! assert!(engine.route(0, 47).is_ok());
//!
//! // Garbage never makes it in; the pinned epoch keeps serving.
//! assert!(store.publish(vec![0u8; 64]).is_err());
//! assert_eq!(store.rejected(), 1);
//! assert!(engine.route(0, 47).is_ok());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::error::WireError;
use crate::flat::FlatScheme;
use crate::mmap::MappedSnapshot;

/// Where an epoch's snapshot bytes live: an owned heap buffer, or a
/// page-cache-backed [`MappedSnapshot`].
///
/// Publish, pin, and rollback are storage-agnostic: the store validates
/// [`Self::bytes`] the same way for both variants, readers borrow the same
/// `&[u8]`, and dropping the last pin frees the heap buffer or unmaps the
/// file respectively.
#[derive(Debug)]
pub enum SnapshotSource {
    /// An owned in-memory snapshot buffer.
    Owned(Box<[u8]>),
    /// A snapshot served straight from the kernel page cache.
    Mapped(MappedSnapshot),
}

impl SnapshotSource {
    /// The snapshot bytes, whatever the storage.
    pub fn bytes(&self) -> &[u8] {
        match self {
            SnapshotSource::Owned(bytes) => bytes,
            SnapshotSource::Mapped(mapped) => mapped.bytes(),
        }
    }

    /// Whether the bytes are memory-mapped rather than owned.
    pub fn is_mapped(&self) -> bool {
        matches!(self, SnapshotSource::Mapped(m) if m.is_mapped())
    }
}

impl From<Vec<u8>> for SnapshotSource {
    fn from(bytes: Vec<u8>) -> Self {
        SnapshotSource::Owned(bytes.into_boxed_slice())
    }
}

impl From<MappedSnapshot> for SnapshotSource {
    fn from(mapped: MappedSnapshot) -> Self {
        SnapshotSource::Mapped(mapped)
    }
}

/// One validated, immutable snapshot generation.
///
/// The bytes passed [`FlatScheme::from_bytes`] when the epoch was
/// published, so [`Self::scheme`] re-opens them with the crate's cheap
/// shape-only pass — readers pay O(header), not O(snapshot), to borrow a
/// [`FlatScheme`].
#[derive(Debug)]
pub struct SnapshotEpoch {
    id: u64,
    source: SnapshotSource,
}

impl SnapshotEpoch {
    /// The epoch id: 0 for the store's initial snapshot, then one per
    /// accepted publish, strictly increasing.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The raw snapshot bytes (already validated).
    pub fn bytes(&self) -> &[u8] {
        self.source.bytes()
    }

    /// The storage backing this epoch.
    pub fn source(&self) -> &SnapshotSource {
        &self.source
    }

    /// Borrows the epoch's scheme for zero-copy serving.
    pub fn scheme(&self) -> FlatScheme<'_> {
        FlatScheme::from_bytes_unvalidated(self.bytes())
            .expect("epoch bytes were validated at publish time")
    }
}

/// Counters describing a store's publish history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// The id of the epoch currently serving.
    pub current_epoch: u64,
    /// Accepted publishes (excluding the initial snapshot).
    pub published: u64,
    /// Rejected publishes (validation failures; the prior epoch kept
    /// serving through every one of them).
    pub rejected: u64,
}

/// The epoch hot-swap store: validate-then-swap snapshot publication with
/// readers pinned to whole epochs. See the module docs.
#[derive(Debug)]
pub struct SchemeStore {
    current: RwLock<Arc<SnapshotEpoch>>,
    published: AtomicU64,
    rejected: AtomicU64,
}

impl SchemeStore {
    /// Creates a store serving `bytes` as epoch 0.
    ///
    /// # Errors
    ///
    /// Returns the validation error when `bytes` is not a valid snapshot —
    /// a store never exists in an unserviceable state.
    pub fn new(bytes: Vec<u8>) -> Result<Self, WireError> {
        Self::new_source(bytes.into())
    }

    /// [`Self::new`] over any [`SnapshotSource`] — the mapped equivalent
    /// of the owned constructor (pair with [`MappedSnapshot::open`]).
    ///
    /// # Errors
    ///
    /// As [`Self::new`]: the source's bytes must validate in full.
    pub fn new_source(source: SnapshotSource) -> Result<Self, WireError> {
        FlatScheme::from_bytes(source.bytes())?;
        Ok(SchemeStore {
            current: RwLock::new(Arc::new(SnapshotEpoch { id: 0, source })),
            published: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// Validates `bytes` and, on success, atomically swaps it in as the
    /// new current epoch, returning the new epoch id. In-flight readers
    /// holding an older epoch keep serving it unchanged.
    ///
    /// # Errors
    ///
    /// On validation failure the candidate is dropped, the rejected
    /// counter is bumped, and the current epoch is left serving — rollback
    /// by default; there is no partially-applied state to undo.
    pub fn publish(&self, bytes: Vec<u8>) -> Result<u64, WireError> {
        self.publish_source(bytes.into())
    }

    /// [`Self::publish`] over any [`SnapshotSource`]: a mapped candidate
    /// is validated through its mapping (one page-cache-warm read instead
    /// of a buffer copy plus a read) and swapped in under the identical
    /// rollback-by-default contract — readers cannot tell the storages
    /// apart.
    ///
    /// # Errors
    ///
    /// As [`Self::publish`].
    pub fn publish_source(&self, source: SnapshotSource) -> Result<u64, WireError> {
        if let Err(e) = FlatScheme::from_bytes(source.bytes()) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            en_obs::counter_add("store.rejected", 1);
            if en_obs::active() {
                en_obs::event(
                    en_obs::Level::Warn,
                    "store.publish_rejected",
                    &[
                        ("epoch_serving", self.current_id().into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
            return Err(e);
        }
        let mapped = source.is_mapped();
        let mut guard = self.current.write().expect("store lock poisoned");
        let id = guard.id + 1;
        let retired = std::mem::replace(&mut *guard, Arc::new(SnapshotEpoch { id, source }));
        drop(guard);
        // When no reader pins the old epoch this frees it (for a mapped one,
        // an munmap): done after the lock is released, so `current()` never
        // waits on it.
        drop(retired);
        self.published.fetch_add(1, Ordering::Relaxed);
        en_obs::counter_add("store.published", 1);
        en_obs::gauge_set("store.current_epoch", id);
        if en_obs::active() {
            en_obs::event(
                en_obs::Level::Info,
                "store.epoch_swapped",
                &[("epoch", id.into()), ("mapped", mapped.into())],
            );
        }
        Ok(id)
    }

    /// Pins and returns the current epoch. The returned `Arc` keeps that
    /// whole snapshot generation alive until dropped, so a reader's view
    /// can never change (or be freed) mid-batch.
    pub fn current(&self) -> Arc<SnapshotEpoch> {
        Arc::clone(&self.current.read().expect("store lock poisoned"))
    }

    /// The id of the epoch currently serving.
    pub fn current_id(&self) -> u64 {
        self.current.read().expect("store lock poisoned").id
    }

    /// Rejected publishes so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Publish counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            current_epoch: self.current_id(),
            published: self.published.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};

    fn snapshot(seed: u64) -> Vec<u8> {
        let g = erdos_renyi_connected(&GeneratorConfig::new(40, seed).with_weights(1, 9), 0.15);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, seed)).unwrap();
        serialize(&built.scheme)
    }

    #[test]
    fn new_rejects_garbage() {
        assert!(SchemeStore::new(vec![0u8; 128]).is_err());
        assert!(SchemeStore::new(Vec::new()).is_err());
    }

    #[test]
    fn publish_swaps_epochs_and_readers_keep_pins() {
        let a = snapshot(1);
        let b = snapshot(2);
        let store = SchemeStore::new(a.clone()).unwrap();
        assert_eq!(store.current_id(), 0);

        let pinned = store.current();
        assert_eq!(pinned.id(), 0);
        assert_eq!(pinned.bytes(), &a[..]);

        let id = store.publish(b.clone()).unwrap();
        assert_eq!(id, 1);
        assert_eq!(store.current_id(), 1);
        // The pinned epoch is untouched by the swap.
        assert_eq!(pinned.id(), 0);
        assert_eq!(pinned.bytes(), &a[..]);
        assert_eq!(store.current().bytes(), &b[..]);
        assert_eq!(
            store.stats(),
            StoreStats {
                current_epoch: 1,
                published: 1,
                rejected: 0
            }
        );
    }

    #[test]
    fn failed_publish_rolls_back_by_default() {
        let a = snapshot(3);
        let store = SchemeStore::new(a.clone()).unwrap();

        // Corrupt candidate: flip one byte mid-buffer.
        let mut bad = a.clone();
        let at = bad.len() / 2;
        bad[at] ^= 0x40;
        assert!(store.publish(bad).is_err());

        // Truncated candidate.
        assert!(store.publish(a[..a.len() - 8].to_vec()).is_err());

        assert_eq!(store.current_id(), 0, "failed publishes must not swap");
        assert_eq!(store.rejected(), 2);
        assert_eq!(store.current().bytes(), &a[..]);
        // And the epoch still opens.
        assert_eq!(store.current().scheme().n(), 40);

        // A good publish still works afterwards.
        assert_eq!(store.publish(snapshot(4)).unwrap(), 1);
    }

    #[test]
    fn mapped_and_owned_sources_serve_identically() {
        let a = snapshot(6);
        let b = snapshot(7);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path_a = dir.join("store_epoch_a.enwire");
        let path_b = dir.join("store_epoch_b.enwire");
        std::fs::write(&path_a, &a).unwrap();
        std::fs::write(&path_b, &b).unwrap();

        // Epoch 0 mapped, epoch 1 owned, epoch 2 mapped again: pins,
        // swaps, and rollback are storage-agnostic.
        let mapped_a = crate::mmap::MappedSnapshot::open(&path_a).unwrap();
        let store = SchemeStore::new_source(mapped_a.into()).unwrap();
        let pinned = store.current();
        assert_eq!(pinned.bytes(), &a[..]);
        assert_eq!(
            pinned.source().is_mapped(),
            cfg!(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))
        );
        assert_eq!(pinned.scheme().n(), 40);

        assert_eq!(store.publish(b.clone()).unwrap(), 1);
        let mapped_b = crate::mmap::MappedSnapshot::open(&path_b).unwrap();
        assert_eq!(store.publish_source(mapped_b.into()).unwrap(), 2);
        assert_eq!(store.current().bytes(), &b[..]);

        // A corrupt mapped candidate is rejected like a corrupt owned one.
        let mut junk = a.clone();
        junk[a.len() / 2] ^= 0x20;
        let path_junk = dir.join("store_epoch_junk.enwire");
        std::fs::write(&path_junk, &junk).unwrap();
        let mapped_junk = crate::mmap::MappedSnapshot::open(&path_junk).unwrap();
        assert!(store.publish_source(mapped_junk.into()).is_err());
        assert_eq!(store.current_id(), 2, "failed publish must not swap");
        assert_eq!(store.rejected(), 1);

        // The mapped epoch-0 pin outlived both swaps.
        assert_eq!(pinned.bytes(), &a[..]);
        for p in [path_a, path_b, path_junk] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn epoch_scheme_reopens_cheaply_and_correctly() {
        let a = snapshot(5);
        let store = SchemeStore::new(a.clone()).unwrap();
        let epoch = store.current();
        let direct = FlatScheme::from_bytes(&a).unwrap();
        let reopened = epoch.scheme();
        assert_eq!(reopened.n(), direct.n());
        assert_eq!(reopened.k(), direct.k());
        assert_eq!(reopened.num_clusters(), direct.num_clusters());
        assert_eq!(reopened.manifest(), direct.manifest());
    }
}
