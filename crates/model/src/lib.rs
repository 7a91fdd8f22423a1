//! # nerve-model
//!
//! The content-aware **model plane**: everything a server needs to pick,
//! hold, and refresh per-category specialist enhancement heads.
//!
//! NERVE trains content-specific recovery/SR networks; the synthetic
//! generator ships the paper's ten YouTube category presets with very
//! different motion/texture/novelty statistics. This crate closes the
//! serving-side loop:
//!
//! * [`fingerprint`] — a compact content **fingerprint** computed from
//!   binary point-code statistics (density ≈ texture, consecutive-code
//!   Hamming distance ≈ motion, its spread ≈ novelty) and a nearest-
//!   centroid [`fingerprint::Classifier`] mapping a fingerprint to the
//!   best specialist head, with a confidence that gates the generic
//!   fallback.
//! * [`cache`] — a deterministic, byte-accounted LRU [`cache::WeightCache`]
//!   for specialist weight artifacts, with hit/miss/eviction statistics
//!   that the fleet meters and charges through admission control.
//! * [`delta`] — the CRC-framed, versioned `"NRVM"` wire codec for
//!   per-channel **delta weight updates** shipped to clients mid-session
//!   over the reliable channel, plus the deterministic generator and
//!   apply path used by the simulators.
//!
//! Everything here is a pure function of explicit seeds: fingerprints,
//! cache decisions, and delta payloads replay bit-identically at any
//! worker count and across kill/resume cycles.

pub mod cache;
pub mod delta;
pub mod fingerprint;

pub use cache::{CacheOutcome, CacheStats, WeightCache};
pub use delta::{
    delta_for, weights_at, DeltaError, ModelWeights, WeightDelta, DELTA_CHANNELS, DELTA_FRAME,
};
pub use fingerprint::{Classifier, Fingerprint, HeadId};

use nerve_video::synth::Category;

/// Serialized size of one specialist weight artifact, in bytes. Sized
/// from the category statistics: busier content (more texture, more
/// motion) needs a larger head — GamePlay's specialist is roughly twice
/// Education's. Deterministic so cache occupancy digests are stable.
pub fn artifact_bytes(head: HeadId) -> u64 {
    match head {
        // The generic head ships with the server image; it is modelled as
        // pinned (never competes for cache capacity) but still has a size
        // for accounting.
        HeadId::Generic => 96 * 1024,
        HeadId::Specialist(cat) => {
            let (motion, texture, novelty, _) = cat.stats();
            let units = 48.0 + 6.0 * texture + 4.0 * motion + 8.0 * novelty;
            (units as u64) * 1024
        }
    }
}

/// Peak PSNR uplift (dB) of a category's specialist head over the generic
/// head, once fully delta-refreshed. Calibrated against the in-repo
/// specialist-vs-generic training runs (`nerve-core::train`): busier
/// categories leave more quality on the table for a content-specific
/// head to reclaim.
pub fn specialist_uplift_db(cat: Category) -> f64 {
    let (motion, texture, novelty, _) = cat.stats();
    0.25 + 0.045 * texture as f64 + 0.06 * motion as f64 + 0.05 * novelty as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_bytes_are_stable_and_positive() {
        assert_eq!(artifact_bytes(HeadId::Generic), 96 * 1024);
        for cat in Category::ALL {
            let b = artifact_bytes(HeadId::Specialist(cat));
            assert!(b > 0, "{cat:?}");
            assert_eq!(b, artifact_bytes(HeadId::Specialist(cat)));
        }
        // GamePlay (busiest) outweighs Education (calmest).
        assert!(
            artifact_bytes(HeadId::Specialist(Category::GamePlay))
                > artifact_bytes(HeadId::Specialist(Category::Education))
        );
    }

    #[test]
    fn uplift_orders_by_content_business() {
        assert!(
            specialist_uplift_db(Category::GamePlay) > specialist_uplift_db(Category::Education)
        );
        for cat in Category::ALL {
            let u = specialist_uplift_db(cat);
            assert!((0.0..3.0).contains(&u), "{cat:?} uplift {u}");
        }
    }
}
