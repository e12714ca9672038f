//! Resource limits and the one decode error.
//!
//! Every payload decoder in the workspace accepts a [`Limits`] and refuses
//! to trust wire-derived lengths beyond it: a hostile stream can declare a
//! four-billion-point frame in a dozen bytes, and without a ceiling the
//! decoder would happily `Vec::with_capacity` its way to an OOM kill. The
//! limits are generous enough that every legitimate bitstream produced by
//! this workspace decodes unchanged; they exist to bound the *adversarial*
//! case.
//!
//! [`DecodeError`] is what every decode, parse and demux entry point in
//! the workspace returns. The parsers read through one
//! [`Cursor`](crate::wire::Cursor), so a kind that names a byte offset
//! names it in the buffer the failing parser was handed.

use crate::Error;
use std::fmt;

/// A limit a hostile stream tried to exceed.
///
/// Carried by [`DecodeError::Limit`] everywhere a decoder enforces
/// [`Limits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitExceeded {
    /// What the stream asked for (e.g. `"points"`, `"alloc bytes"`).
    pub what: &'static str,
    /// The quantity the stream declared.
    pub requested: u64,
    /// The configured ceiling it crossed.
    pub limit: u64,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream declares {} {} but the limit is {}",
            self.requested, self.what, self.limit
        )
    }
}

impl std::error::Error for LimitExceeded {}

/// Resource ceilings enforced while decoding untrusted bytes.
///
/// Thread a `Limits` through any decode entry point (`decode_*_with` /
/// `with_limits` variants) to bound what a hostile stream can make the
/// decoder allocate or traverse. The [`Default`] values accept every
/// bitstream this workspace produces at dataset scale while capping
/// adversarial allocation at ~1 GiB.
///
/// ```
/// use pcc_types::Limits;
///
/// // An edge receiver that refuses frames beyond 2^20 points and 64 MiB
/// // of decode-side allocation:
/// let limits = Limits {
///     max_points: 1 << 20,
///     max_alloc_bytes: 64 << 20,
///     ..Limits::default()
/// };
/// assert!(limits.check_points(1_000_000).is_ok());
/// assert!(limits.check_points(2_000_000).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum points/voxels a single payload may declare or expand to.
    pub max_points: u64,
    /// Maximum blocks/segments a partitioned attribute payload may declare.
    pub max_blocks: u64,
    /// Maximum octree depth a geometry stream may declare.
    pub max_depth: u8,
    /// Maximum bytes any single wire-derived allocation may reserve.
    pub max_alloc_bytes: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_points: 1 << 26,          // 67M points — far past dataset scale
            max_blocks: 1 << 22,          // 4M attribute blocks
            max_depth: 21,                // the Morton coordinate ceiling
            max_alloc_bytes: 1 << 30,     // 1 GiB per wire-derived allocation
        }
    }
}

impl Limits {
    /// A deliberately tight configuration for tests and fuzzing: small
    /// enough that limit enforcement actually fires, large enough to
    /// decode the workspace's miniature fixtures.
    pub fn strict() -> Self {
        Limits {
            max_points: 1 << 16,
            max_blocks: 1 << 12,
            max_depth: 16,
            max_alloc_bytes: 1 << 20,
        }
    }

    /// Checks a declared point/voxel count against [`Limits::max_points`].
    pub fn check_points(&self, requested: u64) -> Result<(), LimitExceeded> {
        check(requested, self.max_points, "points")
    }

    /// Checks a declared block/segment count against [`Limits::max_blocks`].
    pub fn check_blocks(&self, requested: u64) -> Result<(), LimitExceeded> {
        check(requested, self.max_blocks, "blocks")
    }

    /// Checks a declared octree depth against [`Limits::max_depth`].
    pub fn check_depth(&self, requested: u8) -> Result<(), LimitExceeded> {
        check(u64::from(requested), u64::from(self.max_depth), "octree depth")
    }

    /// Checks a wire-derived allocation size (in bytes) against
    /// [`Limits::max_alloc_bytes`].
    pub fn check_alloc(&self, requested: u64) -> Result<(), LimitExceeded> {
        check(requested, self.max_alloc_bytes, "alloc bytes")
    }
}

fn check(requested: u64, limit: u64, what: &'static str) -> Result<(), LimitExceeded> {
    if requested > limit {
        Err(LimitExceeded { what, requested, limit })
    } else {
        Ok(())
    }
}

/// Why untrusted bytes did not decode.
///
/// The one error of every wire-facing parser: the entropy, octree,
/// intra, inter, container, frame-codec and baseline decoders all return
/// it. Offsets are byte positions in the buffer the failing parser was
/// handed, plus the stream base its caller supplied (the container
/// demuxer takes one, so a chunked receiver reports wire positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ended before the structure it declared.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// A magic number or sync marker did not match.
    BadMagic {
        /// Byte offset of the bad marker.
        offset: usize,
    },
    /// A version byte names a format this decoder does not speak.
    BadVersion {
        /// The version the stream declared.
        version: u8,
    },
    /// A tag byte names no known record or design.
    BadTag {
        /// The unrecognized tag value.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A varint ran past 64 bits.
    VarintOverflow {
        /// Byte offset of the overlong varint.
        offset: usize,
    },
    /// The input is structurally inconsistent.
    Corrupt {
        /// Short description of the inconsistency.
        what: &'static str,
        /// Byte offset at which the parser found the inconsistency (0
        /// for a decoded cloud the data model rejects, which has no
        /// position).
        offset: usize,
    },
    /// Two parts of a frame disagree on how many items it holds.
    Mismatch {
        /// What was counted (`"leaves"`, `"colors"`, …).
        what: &'static str,
        /// The count a header, an index entry or the geometry declares.
        declared: usize,
        /// The count the payload decoded to.
        decoded: usize,
    },
    /// A brick's payload failed its CRC. The only repairable kind: a
    /// NACK fetches the brick again.
    Crc {
        /// Position of the brick in its frame's index.
        brick: usize,
    },
    /// The stream demanded more resources than [`Limits`] allow.
    Limit(LimitExceeded),
    /// A predicted frame referenced a frame that was never decoded.
    MissingReference {
        /// Index of the frame whose reference is missing.
        frame: usize,
    },
    /// A predicted frame arrived but the codec has no inter-frame
    /// configuration (e.g. a P-frame record inside an intra-only
    /// container).
    MissingInterConfig {
        /// Index of the offending frame.
        frame: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "input truncated at byte {offset}")
            }
            DecodeError::BadMagic { offset } => {
                write!(f, "bad magic at byte {offset}")
            }
            DecodeError::BadVersion { version } => {
                write!(f, "unsupported format version {version}")
            }
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown tag {tag:#04x} at byte {offset}")
            }
            DecodeError::VarintOverflow { offset } => {
                write!(f, "varint overflows 64 bits at byte {offset}")
            }
            DecodeError::Corrupt { what, offset } => {
                write!(f, "corrupt stream ({what}) at byte {offset}")
            }
            DecodeError::Mismatch { what, declared, decoded } => {
                write!(f, "{what}: {declared} declared but {decoded} decoded")
            }
            DecodeError::Crc { brick } => write!(f, "brick {brick} failed its CRC"),
            DecodeError::Limit(e) => write!(f, "{e}"),
            DecodeError::MissingReference { frame } => {
                write!(f, "frame {frame} references a frame that was never decoded")
            }
            DecodeError::MissingInterConfig { frame } => {
                write!(f, "frame {frame} is inter-coded but the codec has no inter config")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<LimitExceeded> for DecodeError {
    fn from(e: LimitExceeded) -> Self {
        DecodeError::Limit(e)
    }
}

/// A decoded grid the data model refuses: a world frame that is NaN,
/// infinite or has a non-positive voxel size, or a depth out of range.
impl From<Error> for DecodeError {
    fn from(e: Error) -> Self {
        let what = match e {
            Error::InvalidWorldFrame => "world frame",
            Error::InvalidDepth { .. } => "grid depth",
            _ => "decoded cloud",
        };
        DecodeError::Corrupt { what, offset: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_admit_dataset_scale() {
        let limits = Limits::default();
        // An 8iVFB frame is ~800k points at depth 10.
        assert!(limits.check_points(800_000).is_ok());
        assert!(limits.check_depth(10).is_ok());
        assert!(limits.check_alloc(800_000 * 15).is_ok());
    }

    #[test]
    fn checks_report_what_was_requested() {
        let limits = Limits::strict();
        let err = limits.check_points(u64::MAX).unwrap_err();
        assert_eq!(err.what, "points");
        assert_eq!(err.requested, u64::MAX);
        assert_eq!(err.limit, limits.max_points);
        let msg = DecodeError::from(err).to_string();
        assert!(msg.contains("points"), "{msg}");
    }

    #[test]
    fn display_covers_offsets() {
        let e = DecodeError::Truncated { offset: 42 };
        assert_eq!(e.to_string(), "input truncated at byte 42");
        let e = DecodeError::BadTag { tag: 0xff, offset: 7 };
        assert!(e.to_string().contains("0xff"));
        let e = DecodeError::Mismatch { what: "leaves", declared: 9, decoded: 1 };
        assert_eq!(e.to_string(), "leaves: 9 declared but 1 decoded");
    }

    #[test]
    fn rejected_world_frames_have_one_kind() {
        assert_eq!(
            DecodeError::from(Error::InvalidWorldFrame),
            DecodeError::Corrupt { what: "world frame", offset: 0 }
        );
    }
}
