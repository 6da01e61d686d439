//! Error type for snapshot loading.

use std::error::Error;
use std::fmt;

/// Why a byte buffer was rejected as a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer length is not a multiple of the 8-byte word size.
    Misaligned {
        /// The offending length.
        len: usize,
    },
    /// The buffer is shorter than its header claims (or than a header at all).
    Truncated {
        /// Bytes the buffer should hold.
        expected: usize,
        /// Bytes it actually holds.
        actual: usize,
    },
    /// The first word is not the snapshot magic.
    BadMagic {
        /// The word found instead.
        found: u64,
    },
    /// The format version is not one this reader understands.
    UnsupportedVersion {
        /// The version found.
        found: u64,
    },
    /// A stored checksum does not match the bytes it covers: the buffer was
    /// corrupted in transit (bit rot, torn write, truncated-then-padded).
    ChecksumMismatch {
        /// Which covered range failed (`"header"` or a section name).
        region: &'static str,
        /// The checksum the header claims.
        expected: u64,
        /// The checksum the bytes actually hash to.
        actual: u64,
    },
    /// A structural invariant does not hold (offsets, CSRs, record bounds).
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
    /// The snapshot was built for a different graph size.
    GraphMismatch {
        /// Vertices in the supplied graph.
        graph_n: usize,
        /// Vertices the snapshot was built for.
        snapshot_n: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Misaligned { len } => {
                write!(f, "snapshot length {len} is not a multiple of 8 bytes")
            }
            WireError::Truncated { expected, actual } => {
                write!(
                    f,
                    "snapshot truncated: expected {expected} bytes, got {actual}"
                )
            }
            WireError::BadMagic { found } => {
                write!(f, "not a routing-scheme snapshot (magic {found:#018x})")
            }
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot format version {found}")
            }
            WireError::ChecksumMismatch {
                region,
                expected,
                actual,
            } => write!(
                f,
                "snapshot {region} checksum mismatch: header claims {expected:#018x}, \
                 bytes hash to {actual:#018x}"
            ),
            WireError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            WireError::GraphMismatch {
                graph_n,
                snapshot_n,
            } => write!(
                f,
                "snapshot built for {snapshot_n} vertices, graph has {graph_n}"
            ),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(WireError::Misaligned { len: 7 }.to_string().contains('7'));
        assert!(WireError::Truncated {
            expected: 100,
            actual: 10
        }
        .to_string()
        .contains("100"));
        assert!(WireError::BadMagic { found: 0 }
            .to_string()
            .contains("magic"));
        assert!(WireError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(WireError::ChecksumMismatch {
            region: "label_pool",
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("label_pool"));
        assert!(WireError::Corrupt { what: "x" }.to_string().contains('x'));
        assert!(WireError::GraphMismatch {
            graph_n: 3,
            snapshot_n: 4
        }
        .to_string()
        .contains('4'));
    }
}
