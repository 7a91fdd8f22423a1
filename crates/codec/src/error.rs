//! Structured decode errors.
//!
//! The seed codec used `assert!`/`Option` at its trust boundaries, which
//! is fine while every input comes from our own encoder — but packets
//! now cross a lossy, corrupting network, and a malformed buffer must
//! never abort the client. Fallible `try_*` entry points return these;
//! the original panicking wrappers remain and delegate (the same
//! convention as `nerve_net::error`).

use std::fmt;

/// Errors from bitstream decoding, packetization, and frame decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream ended (or a varint was malformed) at `pos`.
    Truncated { pos: usize },
    /// A (run, level) pair at `pos` walked past the 64-coefficient
    /// block boundary (`scan` is where it landed).
    RunPastEob { pos: usize, scan: usize },
    /// A coded level of zero at `pos` (the format forbids it: zeros
    /// travel in run counts).
    ZeroLevel { pos: usize },
    /// A motion vector starting at `pos` has a component outside
    /// ±[`MV_RANGE`](crate::block::MV_RANGE), which the encoder never
    /// writes.
    MotionVectorOutOfRange { pos: usize, dx: i64, dy: i64 },
    /// `packetize` called with a zero MTU.
    ZeroMtu,
    /// `decode_partial` called with a presence mask of the wrong length.
    PresenceMaskMismatch { slices: usize, mask: usize },
    /// Frame dimensions do not match the decoder's.
    DimensionMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { pos } => {
                write!(f, "bitstream truncated or malformed at byte {pos}")
            }
            DecodeError::RunPastEob { pos, scan } => {
                write!(f, "zero-run at byte {pos} escapes the block (scan {scan})")
            }
            DecodeError::ZeroLevel { pos } => {
                write!(f, "zero coefficient level at byte {pos}")
            }
            DecodeError::MotionVectorOutOfRange { pos, dx, dy } => {
                write!(
                    f,
                    "motion vector ({dx}, {dy}) at byte {pos} is outside ±{}",
                    crate::block::MV_RANGE
                )
            }
            DecodeError::ZeroMtu => write!(f, "mtu must be at least 1 byte"),
            DecodeError::PresenceMaskMismatch { slices, mask } => {
                write!(
                    f,
                    "presence mask must cover all slices ({slices}), got {mask}"
                )
            }
            DecodeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "frame is {}x{}, decoder expects {}x{}",
                    got.0, got.1, expected.0, expected.1
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}
