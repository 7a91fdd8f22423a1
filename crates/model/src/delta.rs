//! The `"NRVM"` delta weight update codec.
//!
//! Mid-session, the server refreshes a client's enhancement head by
//! shipping per-channel weight deltas over the reliable channel — small
//! (one `f32` per channel), CRC-framed, and versioned, so a client can
//! refuse anything it cannot prove it should apply.
//!
//! Wire layout, inside the workspace's one sealed frame
//! ([`nerve_net::bytes::Frame`], which writes the magic and version and
//! appends the CRC32 trailer):
//!
//! ```text
//! magic  u32  "NRVM" (0x4E52_564D)
//! ver    u16  1
//! head   u8   HeadId code (0 generic, 1+category)
//! from   u32  weight version this delta applies on top of
//! to     u32  from + 1 (deltas are adjacent steps; `apply` refuses others)
//! n      u32  channel count
//! n × f32     per-channel additive deltas
//! ```
//!
//! The body is [`WeightDelta`]'s hand-written [`Wire`] impl: the `u32`
//! channel count is not the `usize` length of a generic `Vec`. Like the
//! `"NRVT"` handoff ticket and the `"NRVC"` checkpoint, decode failures
//! are **typed errors, never panics** — the codec sits on a trust
//! boundary and is fuzzed by `tests/fuzz_mutation.rs`.

use crate::fingerprint::HeadId;
use nerve_net::bytes::{ByteReader, ByteWriter, Frame, FrameError, Wire};
use nerve_net::integrity::crc32;
use nerve_rng::{DetRng, Rng};
use nerve_video::rng::{seed_for, StreamComponent};

/// The delta frame: magic `"NRVM"`, version 1.
pub const DELTA_FRAME: Frame = Frame {
    magic: 0x4E52_564D,
    version: 1,
};
/// Channel count of the shipped heads (one delta scale per channel).
pub const DELTA_CHANNELS: usize = 64;

/// Why a delta was refused: its frame, or its fit to the weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The frame itself was refused.
    Frame(FrameError),
    /// Delta must advance the version by exactly one.
    NonAdjacent { from: u32, to: u32 },
    /// Channel count does not match the target weights.
    BadShape { expected: usize, got: usize },
    /// Delta's base version does not match the weights it is applied to.
    VersionSkew { have: u32, delta_from: u32 },
    /// Delta targets a different head than the weights.
    HeadMismatch { have: u8, delta_head: u8 },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Frame(e) => write!(f, "delta frame refused: {e}"),
            DeltaError::NonAdjacent { from, to } => {
                write!(f, "non-adjacent delta {from} -> {to}")
            }
            DeltaError::BadShape { expected, got } => {
                write!(f, "delta shape {got} does not match weights {expected}")
            }
            DeltaError::VersionSkew { have, delta_from } => {
                write!(f, "weights at v{have}, delta applies on v{delta_from}")
            }
            DeltaError::HeadMismatch { have, delta_head } => {
                write!(
                    f,
                    "weights are head {have}, delta targets head {delta_head}"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<FrameError> for DeltaError {
    fn from(e: FrameError) -> Self {
        DeltaError::Frame(e)
    }
}
/// One decoded delta update.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightDelta {
    pub head: HeadId,
    /// Weight version this delta applies on top of.
    pub from_version: u32,
    /// Resulting version (always `from_version + 1`).
    pub to_version: u32,
    /// Per-channel additive deltas.
    pub scales: Vec<f32>,
}

impl WeightDelta {
    /// Serialize into the sealed `"NRVM"` wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        DELTA_FRAME.encode(self)
    }

    /// Decode a sealed `"NRVM"` frame. Whether the delta fits the
    /// weights, adjacency included, is [`WeightDelta::apply`]'s check.
    pub fn from_bytes(bytes: &[u8]) -> Result<WeightDelta, FrameError> {
        DELTA_FRAME.decode(bytes)
    }

    /// CRC of the wire frame — the value checkpoints and digests pin.
    pub fn digest(&self) -> u32 {
        crc32(&self.to_bytes())
    }

    /// Apply onto `weights`, enforcing adjacency, head, version, and
    /// shape.
    pub fn apply(&self, weights: &mut ModelWeights) -> Result<(), DeltaError> {
        if self.to_version != self.from_version.wrapping_add(1) {
            return Err(DeltaError::NonAdjacent {
                from: self.from_version,
                to: self.to_version,
            });
        }
        if weights.head != self.head {
            return Err(DeltaError::HeadMismatch {
                have: weights.head.code(),
                delta_head: self.head.code(),
            });
        }
        if weights.version != self.from_version {
            return Err(DeltaError::VersionSkew {
                have: weights.version,
                delta_from: self.from_version,
            });
        }
        if weights.channels.len() != self.scales.len() {
            return Err(DeltaError::BadShape {
                expected: weights.channels.len(),
                got: self.scales.len(),
            });
        }
        for (w, d) in weights.channels.iter_mut().zip(&self.scales) {
            *w += d;
        }
        weights.version = self.to_version;
        Ok(())
    }
}

/// Written by hand because the channel count is a `u32`, not the
/// `usize` length of a generic `Vec`.
impl Wire for WeightDelta {
    fn put(&self, w: &mut ByteWriter) {
        self.head.put(w);
        w.u32(self.from_version);
        w.u32(self.to_version);
        w.u32(self.scales.len() as u32);
        for s in &self.scales {
            w.f32(*s);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        let head = HeadId::get(r)?;
        let from_version = r.u32()?;
        let to_version = r.u32()?;
        let n = r.u32()?;
        // Reads stop at the first short field, so a mutated count can
        // neither overrun the body nor inflate the vector.
        let scales = (0..n).map(|_| r.f32()).collect::<Result<Vec<_>, _>>()?;
        Ok(WeightDelta {
            head,
            from_version,
            to_version,
            scales,
        })
    }
}

/// A client-held per-channel weight vector with a version.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    pub head: HeadId,
    pub version: u32,
    pub channels: Vec<f32>,
}

impl ModelWeights {
    /// Deterministic version-0 weights for a head: what a freshly loaded
    /// artifact contains. Pure function of the head identity.
    pub fn base(head: HeadId) -> ModelWeights {
        let mut rng = DetRng::new(seed_for(
            0x5EED_4EAD_0000_0001,
            head.code() as u64,
            StreamComponent::WeightCache,
        ));
        let channels = (0..DELTA_CHANNELS)
            .map(|_| {
                let raw = rng.next_u64() >> 40;
                raw as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
            })
            .collect();
        ModelWeights {
            head,
            version: 0,
            channels,
        }
    }

    /// Content CRC over `(head, version, channels)` — cheap equality for
    /// digests and resume checks.
    pub fn crc(&self) -> u32 {
        let mut w = ByteWriter::new();
        w.u8(self.head.code());
        w.u32(self.version);
        for c in &self.channels {
            w.f32(*c);
        }
        crc32(&w.into_bytes())
    }
}

/// Rebuild the weights a client holds at `version` by replaying every
/// delta from the base artifact. Pure function of its arguments — the
/// server, a resumed checkpoint, and the client all converge on the
/// same bits without shipping full weight tensors.
pub fn weights_at(base_seed: u64, head: HeadId, version: u32) -> ModelWeights {
    let mut w = ModelWeights::base(head);
    for v in 0..version {
        delta_for(base_seed, head, v)
            .apply(&mut w)
            .expect("replayed deltas are adjacent by construction");
    }
    w
}

/// The deterministic server-side delta generator: the delta that moves
/// `head` from `from_version` to `from_version + 1` under `base_seed`.
/// Pure function of its arguments — both ends of the wire (and a resumed
/// checkpoint) regenerate byte-identical payloads.
pub fn delta_for(base_seed: u64, head: HeadId, from_version: u32) -> WeightDelta {
    let salt = ((head.code() as u64) << 32) | from_version as u64;
    let mut rng = DetRng::new(seed_for(base_seed, salt, StreamComponent::DeltaUpdate));
    let scales = (0..DELTA_CHANNELS)
        .map(|_| {
            let raw = rng.next_u64() >> 40;
            (raw as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * 0.02
        })
        .collect();
    WeightDelta {
        head,
        from_version,
        to_version: from_version + 1,
        scales,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_video::synth::Category;

    fn sample() -> WeightDelta {
        delta_for(2024, HeadId::Specialist(Category::GamePlay), 3)
    }

    #[test]
    fn round_trips_byte_identically() {
        let d = sample();
        let bytes = d.to_bytes();
        let back = WeightDelta::from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
    }

    /// The CRC32 of the sample frame, pinned: the wire bytes must not
    /// drift under a refactor of the codec.
    #[test]
    fn sample_frame_crc_is_pinned() {
        assert_eq!(sample().digest(), 0xEAB2_2AAB);
    }

    #[test]
    fn generator_is_deterministic_and_version_sensitive() {
        assert_eq!(sample(), sample());
        let other = delta_for(2024, HeadId::Specialist(Category::GamePlay), 4);
        assert_ne!(sample().scales, other.scales);
        assert_eq!(sample().scales.len(), DELTA_CHANNELS);
        assert!(sample().scales.iter().all(|s| s.abs() <= 0.02));
    }

    #[test]
    fn apply_advances_version_and_checks_everything() {
        let head = HeadId::Specialist(Category::Vlogs);
        let mut w = ModelWeights::base(head);
        let crc0 = w.crc();
        let d0 = delta_for(7, head, 0);
        d0.apply(&mut w).unwrap();
        assert_eq!(w.version, 1);
        assert_ne!(w.crc(), crc0);

        // Replaying the same delta is refused (version skew).
        assert_eq!(
            d0.apply(&mut w),
            Err(DeltaError::VersionSkew {
                have: 1,
                delta_from: 0
            })
        );
        // Wrong head is refused.
        let mut g = ModelWeights::base(HeadId::Generic);
        assert!(matches!(
            d0.apply(&mut g),
            Err(DeltaError::HeadMismatch { .. })
        ));
        // Wrong shape is refused.
        let mut short = ModelWeights::base(head);
        short.channels.truncate(10);
        assert!(matches!(
            d0.apply(&mut short),
            Err(DeltaError::BadShape { .. })
        ));
    }

    #[test]
    fn resumed_replay_reaches_identical_weights() {
        // Apply 5 deltas straight through…
        let head = HeadId::Specialist(Category::Haul);
        let mut a = ModelWeights::base(head);
        for v in 0..5 {
            delta_for(99, head, v).apply(&mut a).unwrap();
        }
        // …or rebuild from scratch at version 3 and continue: identical.
        let mut b = ModelWeights::base(head);
        for v in 0..3 {
            delta_for(99, head, v).apply(&mut b).unwrap();
        }
        for v in 3..5 {
            delta_for(99, head, v).apply(&mut b).unwrap();
        }
        assert_eq!(a, b);
        assert_eq!(a.crc(), b.crc());
    }

    #[test]
    fn corrupted_frames_yield_typed_errors() {
        let bytes = sample().to_bytes();
        // CRC trips first on a payload flip.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(WeightDelta::from_bytes(&flipped).is_err());
        // Truncation at any point is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(WeightDelta::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(WeightDelta::from_bytes(&[]).is_err());
    }

    #[test]
    fn non_adjacent_and_trailing_are_refused() {
        let mut d = sample();
        d.to_version = d.from_version + 2;
        let back = WeightDelta::from_bytes(&d.to_bytes()).unwrap();
        let mut w = weights_at(2024, d.head, d.from_version);
        let crc_before = w.crc();
        assert_eq!(
            back.apply(&mut w),
            Err(DeltaError::NonAdjacent {
                from: d.from_version,
                to: d.to_version
            })
        );
        assert_eq!(
            w.crc(),
            crc_before,
            "a refused apply must not touch weights"
        );

        // Declare fewer channels than shipped: trailing bytes.
        let good = sample();
        let mut w = DELTA_FRAME.writer();
        w.u8(good.head.code());
        w.u32(good.from_version);
        w.u32(good.to_version);
        w.u32((good.scales.len() - 1) as u32);
        for s in &good.scales {
            w.f32(*s);
        }
        assert_eq!(
            WeightDelta::from_bytes(&w.seal()),
            Err(FrameError::TrailingBytes(4))
        );
    }
}
