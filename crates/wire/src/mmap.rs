//! Page-cache-backed snapshot buffers: open a snapshot file at page-fault
//! speed instead of copying it.
//!
//! A committed snapshot of real size (hundreds of megabytes at `n = 10⁴`)
//! costs a full buffer copy per open when read the ordinary way. This
//! module maps the file instead: [`MappedSnapshot::open`] hands out a
//! read-only, `MAP_PRIVATE` view whose pages are faulted in (and shared
//! with every other open of the same file) by the kernel page cache, so an
//! open costs O(header) work regardless of snapshot size.
//!
//! # SIGBUS safety
//!
//! Reading a mapped page past the end of the backing file raises `SIGBUS`,
//! which no in-process validation can catch. The open path therefore
//! orders its work so that can never happen to a well-behaved caller:
//!
//! 1. **Validate the length first.** The file's size is checked against
//!    the O(header) shape rules (8-byte multiple, at least a header,
//!    `total_words · 8 == file length`) using an ordinary `read` of the
//!    header prefix — *before any mapping syscall*.
//! 2. **Then map.** Only a file whose header agrees with its physical
//!    length is mapped, so every in-bounds word of the mapping is backed
//!    by real file bytes. A truncated or misaligned file is never mapped
//!    at all — it falls back to a heap read, where
//!    [`FlatScheme::from_bytes`](crate::FlatScheme::from_bytes) reports
//!    the structured error.
//! 3. **Then checksum.** Callers run the usual full validation over
//!    [`MappedSnapshot::bytes`]; corruption *within* a correctly-sized
//!    file is caught exactly as for owned buffers.
//!
//! The residual hazard — another process truncating the file *after* the
//! length check — is outside any userspace reader's control; snapshot
//! files are written once and replaced whole (publish-by-rename), never
//! shrunk in place.
//!
//! The raw-syscall wrapper below exists because the build environment is
//! offline: no `libc`, no `memmap2`. It is gated to Linux on x86-64 /
//! aarch64; every other target (and any mapping failure) takes the
//! read-into-heap fallback, which behaves identically apart from the copy.

// The one place in the crate where `unsafe` is permitted (the crate-level
// lint is `deny`, not `forbid`, exactly for this module); everything else
// stays checked Rust.
#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Deref;
use std::path::Path;

use crate::format::{HEADER_WORDS, H_TOTAL_WORDS, MAGIC, VERSION};

/// Linux raw syscalls for the three mapping operations, gated to the
/// architectures whose syscall ABI is spelled out here.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    pub const PROT_READ: usize = 1;
    pub const MAP_PRIVATE: usize = 2;
    pub const MADV_WILLNEED: usize = 3;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const MMAP: usize = 9;
        pub const MUNMAP: usize = 11;
        pub const MADVISE: usize = 28;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const MMAP: usize = 222;
        pub const MUNMAP: usize = 215;
        pub const MADVISE: usize = 233;
    }

    /// One six-argument Linux syscall, returning the raw (negative-errno)
    /// result.
    ///
    /// # Safety
    ///
    /// The caller must uphold the invoked syscall's own contract; the
    /// wrapper only encodes the calling convention.
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        #[cfg(target_arch = "aarch64")]
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            in("x8") nr,
            options(nostack)
        );
        ret
    }

    /// Whether a raw syscall return encodes `-errno`.
    fn is_err(ret: isize) -> bool {
        // Linux returns -4095..=-1 for errors; everything else is a result.
        (-4095..0).contains(&(ret as i64 as isize))
    }

    /// Maps `len` bytes of `fd` read-only and private, returning the
    /// page-aligned base address, or `None` when the kernel refuses.
    ///
    /// # Safety
    ///
    /// `fd` must be an open, readable file descriptor and `len` must not
    /// exceed the file's length (the module's pre-map length check).
    pub unsafe fn mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
        let ret = syscall6(nr::MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0);
        if is_err(ret) {
            return None;
        }
        Some(ret as *const u8)
    }

    /// Unmaps a region previously returned by [`mmap_readonly`].
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must name exactly one live mapping, never used again.
    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        let _ = syscall6(nr::MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }

    /// Advises the kernel the whole mapping will be read soon
    /// (best-effort; failure is ignored).
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must name a live mapping.
    pub unsafe fn madvise_willneed(ptr: *const u8, len: usize) {
        let _ = syscall6(nr::MADVISE, ptr as usize, len, MADV_WILLNEED, 0, 0, 0);
    }
}

/// How the snapshot bytes are held.
#[derive(Debug)]
enum Buffer {
    /// A live read-only file mapping (Linux fast path).
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped {
        ptr: *const u8,
        /// Mapping length in bytes (a whole number of words by the pre-map
        /// shape check).
        len: usize,
    },
    /// The read-into-heap fallback: the file bytes copied into an
    /// 8-byte-aligned word buffer. `byte_len` may be shorter than the word
    /// buffer's span when the file length was not word-aligned (the
    /// trailing partial word is zero padding that [`MappedSnapshot::bytes`]
    /// never exposes).
    Owned { words: Vec<u64>, byte_len: usize },
}

/// A snapshot buffer opened from a file: memory-mapped on the Linux fast
/// path, read into an aligned heap buffer everywhere else (and for any
/// file failing the pre-map shape check — see the module docs for why
/// shape-invalid files must never be mapped).
///
/// Derefs to the buffer's whole 8-byte words; [`Self::bytes`] is the exact
/// byte image of the file and is what feeds
/// [`FlatScheme::from_bytes`](crate::FlatScheme::from_bytes).
#[derive(Debug)]
pub struct MappedSnapshot {
    buf: Buffer,
}

// SAFETY: the mapped variant is a private, read-only mapping that only this
// value can unmap, so sharing references (or moving the handle) across
// threads is no different from an owned immutable buffer.
unsafe impl Send for MappedSnapshot {}
// SAFETY: as above — the mapping is immutable for the handle's lifetime.
unsafe impl Sync for MappedSnapshot {}

impl MappedSnapshot {
    /// Opens `path`, mapping it when the O(header) shape check passes and
    /// falling back to a heap read otherwise (see the module docs).
    ///
    /// # Errors
    ///
    /// I/O errors only (open/stat/read failures). A file with *snapshot*
    /// problems — truncation, bad magic, corruption — still opens (via the
    /// heap fallback when its length is shape-invalid) so that validation
    /// over [`Self::bytes`] reports the structured [`crate::WireError`].
    pub fn open(path: &Path) -> io::Result<MappedSnapshot> {
        // Timed only when a recorder is installed; the histogram separates
        // mapped opens from heap-fallback opens so a fleet silently losing
        // its page-cache serving shows up as a counter shift.
        let t0 = en_obs::active().then(std::time::Instant::now);
        let snapshot = Self::open_untimed(path)?;
        if let Some(t0) = t0 {
            let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if snapshot.is_mapped() {
                en_obs::histogram_record("wire.mmap_open_ns", dur_ns);
                en_obs::counter_add("wire.open.mapped", 1);
            } else {
                en_obs::histogram_record("wire.fallback_open_ns", dur_ns);
                en_obs::counter_add("wire.open.fallback", 1);
            }
        }
        Ok(snapshot)
    }

    fn open_untimed(path: &Path) -> io::Result<MappedSnapshot> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if Self::shape_ok(&mut file, len)? {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            {
                use std::os::fd::AsRawFd;
                let len = len as usize;
                // SAFETY: `file` is open and readable, and `len` is its
                // exact current length per the shape check above.
                if let Some(ptr) = unsafe { sys::mmap_readonly(file.as_raw_fd(), len) } {
                    // SAFETY: `ptr`/`len` is the mapping just created.
                    unsafe { sys::madvise_willneed(ptr, len) };
                    return Ok(MappedSnapshot {
                        buf: Buffer::Mapped { ptr, len },
                    });
                }
                // The kernel refused (resource limits); fall through to the
                // copying path, which serves the same bytes.
            }
        }
        Self::read_owned(&mut file, len)
    }

    /// The O(header) pre-map check: physical length word-aligned, at least
    /// a header, magic and version in place, and the header's declared
    /// `total_words` equal to the physical length — the invariant that
    /// makes every in-bounds read of a subsequent mapping file-backed.
    fn shape_ok(file: &mut File, len: u64) -> io::Result<bool> {
        if len % 8 != 0 || len < (HEADER_WORDS * 8) as u64 || len > usize::MAX as u64 {
            return Ok(false);
        }
        let mut header = [0u8; HEADER_WORDS * 8];
        file.read_exact(&mut header)?;
        let word = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8"));
        Ok(word(0) == MAGIC
            && word(1) == VERSION
            && word(H_TOTAL_WORDS).checked_mul(8) == Some(len))
    }

    /// The fallback: copy the whole file into an aligned word buffer.
    fn read_owned(file: &mut File, len: u64) -> io::Result<MappedSnapshot> {
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::with_capacity(len as usize);
        file.read_to_end(&mut bytes)?;
        let byte_len = bytes.len();
        let mut words = vec![0u64; byte_len.div_ceil(8)];
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            // Native-endian on purpose: `words` is a raw byte image (the
            // aligned analogue of the mapping), not decoded snapshot words —
            // decoding is `format::Words`'s job, off `Self::bytes`.
            words[i] = u64::from_ne_bytes(w);
        }
        Ok(MappedSnapshot {
            buf: Buffer::Owned { words, byte_len },
        })
    }

    /// The exact byte image of the opened file — what snapshot validation
    /// and serving read.
    pub fn bytes(&self) -> &[u8] {
        match &self.buf {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Buffer::Mapped { ptr, len } => {
                // SAFETY: the mapping is live for `self`'s lifetime, `len`
                // bytes long, and never written through.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Buffer::Owned { words, byte_len } => {
                // SAFETY: any initialised `u64` buffer is a valid `[u8]` of
                // 8× the length; we then trim the zero padding past the
                // file's real length.
                let all = unsafe {
                    std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8)
                };
                &all[..*byte_len]
            }
        }
    }

    /// Whether this open took the mapping fast path (false on non-Linux
    /// targets, for shape-invalid files, and when the kernel refused the
    /// mapping).
    pub fn is_mapped(&self) -> bool {
        match &self.buf {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Buffer::Mapped { .. } => true,
            Buffer::Owned { .. } => false,
        }
    }
}

impl Deref for MappedSnapshot {
    type Target = [u64];

    /// The buffer's whole 8-byte words, aligned (page-aligned when mapped,
    /// heap-aligned otherwise). A shape-invalid fallback buffer's trailing
    /// partial word is not included; [`Self::bytes`] is authoritative.
    fn deref(&self) -> &[u64] {
        match &self.buf {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Buffer::Mapped { ptr, len } => {
                // SAFETY: the mapping is live, `len` is a whole number of
                // words (pre-map shape check), and mmap bases are
                // page-aligned, hence u64-aligned.
                unsafe { std::slice::from_raw_parts(ptr.cast::<u64>(), len / 8) }
            }
            Buffer::Owned { words, byte_len } => &words[..byte_len / 8],
        }
    }
}

impl Drop for MappedSnapshot {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Buffer::Mapped { ptr, len } = self.buf {
            // SAFETY: `ptr`/`len` is the single mapping this value owns;
            // after drop nothing can read it again.
            unsafe { sys::munmap(ptr, len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatScheme;
    use crate::serialize;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};
    use std::path::PathBuf;

    fn snapshot(seed: u64) -> Vec<u8> {
        let g = erdos_renyi_connected(&GeneratorConfig::new(48, seed).with_weights(1, 9), 0.15);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, seed)).unwrap();
        serialize(&built.scheme)
    }

    /// The scratch directory under the workspace target dir (kept inside
    /// the checkout the tests run in).
    fn scratch_dir() -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A scratch file in [`scratch_dir`].
    fn scratch(name: &str, bytes: &[u8]) -> PathBuf {
        let path = scratch_dir().join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_bytes_equal_file_bytes() {
        let bytes = snapshot(1);
        let path = scratch("mmap_roundtrip.enwire", &bytes);
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.bytes(), &bytes[..]);
        assert_eq!(mapped.len(), bytes.len() / 8);
        // Deref words are the same raw image.
        assert_eq!(mapped[0].to_ne_bytes(), bytes[..8]);
        // And the snapshot validates off the mapping exactly as off the heap.
        let flat = FlatScheme::from_bytes(mapped.bytes()).unwrap();
        assert_eq!(flat.n(), FlatScheme::from_bytes(&bytes).unwrap().n());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fast_path_maps_on_linux() {
        let bytes = snapshot(2);
        let path = scratch("mmap_fastpath.enwire", &bytes);
        let mapped = MappedSnapshot::open(&path).unwrap();
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(
                mapped.is_mapped(),
                "shape-valid file must take the fast path"
            );
        } else {
            assert!(!mapped.is_mapped());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_invalid_files_are_never_mapped() {
        let bytes = snapshot(3);
        // Word-misaligned truncation, word-aligned truncation (header
        // total_words disagrees), header-only prefix, and foreign magic:
        // all must fall back to the heap and then fail validation with a
        // structured error.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("misaligned", bytes[..bytes.len() - 3].to_vec()),
            ("truncated", bytes[..bytes.len() - 8].to_vec()),
            (
                "header_only",
                bytes[..crate::format::HEADER_WORDS * 8].to_vec(),
            ),
            ("tiny", bytes[..16].to_vec()),
            ("bad_magic", {
                let mut b = bytes.clone();
                b[0] ^= 0xFF;
                b
            }),
        ];
        for (name, corrupt) in cases {
            let path = scratch(&format!("mmap_{name}.enwire"), &corrupt);
            let mapped = MappedSnapshot::open(&path).unwrap();
            assert!(!mapped.is_mapped(), "{name} must not be mapped");
            assert_eq!(mapped.bytes(), &corrupt[..], "{name} bytes must round-trip");
            assert!(
                FlatScheme::from_bytes(mapped.bytes()).is_err(),
                "{name} must fail validation"
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = scratch_dir().join("definitely_missing.enwire");
        std::fs::remove_file(&path).ok();
        assert!(MappedSnapshot::open(&path).is_err());
    }
}
