//! Content fingerprints and the specialist-head classifier.
//!
//! The fingerprint summarizes a short probe clip with point-code and
//! residual statistics — the two artifact streams the system already
//! computes for recovery:
//!
//! * **motion** — mean temporal-residual energy (mean |frame − previous|),
//!   the same residual the recovery model conceals;
//! * **texture** — mean spatial-gradient energy, what the point code's
//!   difference convolution responds to;
//! * **churn** — mean Hamming fraction between consecutive binary point
//!   codes (how fast the contour map moves);
//! * **novelty** — 90th-percentile over mean residual ratio; new objects
//!   and cuts land as residual spikes above the steady motion floor.
//!
//! A nearest-centroid classifier over these features maps a session to
//! its best specialist head. Centroids are calibrated once from the
//! category presets themselves with a fixed seed, and each feature is
//! weighted by its between-category vs. within-category spread (diagonal
//! LDA), so a noisy feature cannot drown out a discriminative one. The
//! calibration is deterministic: every server on every worker derives
//! byte-identical decisions. Confidence is the relative margin between
//! the best and runner-up centroid; below the caller's floor the session
//! is served by the generic head instead.

use nerve_core::point_code::{PointCodeConfig, PointCodeEncoder};
use nerve_net::bytes::{ByteReader, ByteWriter, FrameError, Wire};
use nerve_video::frame::Frame;
use nerve_video::rng::{seed_for, StreamComponent};
use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};
use std::sync::OnceLock;

/// Which weight artifact serves a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadId {
    /// The always-available category-agnostic head.
    Generic,
    /// A per-category specialist head.
    Specialist(Category),
}

impl HeadId {
    /// Stable wire/digest code: 0 is generic, `1 + category index` for
    /// specialists.
    pub fn code(self) -> u8 {
        match self {
            HeadId::Generic => 0,
            HeadId::Specialist(cat) => 1 + cat as u8,
        }
    }

    /// Inverse of [`HeadId::code`]; `None` for out-of-range codes.
    pub fn from_code(code: u8) -> Option<HeadId> {
        match code {
            0 => Some(HeadId::Generic),
            c if (c as usize) <= Category::ALL.len() => {
                Some(HeadId::Specialist(Category::ALL[c as usize - 1]))
            }
            _ => None,
        }
    }
}

/// The [`HeadId::code`] byte; an unknown code is
/// `BadField { field: "head" }`.
impl Wire for HeadId {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(self.code())
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        let code = r.u8()?;
        HeadId::from_code(code).ok_or(FrameError::bad_field("head", code))
    }
}

/// Probe clip geometry. 360p keeps the presets' motion spread above the
/// generator's minimum-motion clamp for every category except Education
/// (whose texture is unique anyway); the code is taken at 1/4 of the
/// paper shape (32×16 bits).
pub const PROBE_HEIGHT: usize = 360;
/// Probe clip width (16:9 at [`PROBE_HEIGHT`]).
pub const PROBE_WIDTH: usize = 640;
/// Frames per probe clip.
pub const PROBE_FRAMES: usize = 16;

/// Fixed calibration seed for [`Classifier::calibrated`]. Changing it
/// changes every fingerprint-driven digest; bump deliberately.
const CALIBRATION_SEED: u64 = 0xCA11_0B5E_55ED_0001;
/// Clips averaged per category centroid.
const CALIBRATION_CLIPS: u64 = 4;

fn probe_encoder() -> PointCodeEncoder {
    PointCodeEncoder::new(PointCodeConfig::scaled(4))
}

/// The point-code/residual statistics that summarize a clip's content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Mean temporal-residual energy (motion proxy).
    pub motion: f64,
    /// Mean spatial-gradient energy (texture proxy).
    pub texture: f64,
    /// Mean consecutive point-code Hamming fraction (contour churn).
    pub churn: f64,
    /// 90th-percentile / mean temporal-residual ratio (novelty/cut
    /// spike proxy).
    pub novelty: f64,
}

impl Fingerprint {
    fn features(&self) -> [f64; 4] {
        [self.motion, self.texture, self.churn, self.novelty]
    }

    /// Compute the fingerprint of a clip. Needs at least two frames.
    pub fn of_frames(frames: &[Frame]) -> Fingerprint {
        assert!(frames.len() >= 2, "fingerprint needs at least two frames");
        let enc = probe_encoder();
        let codes: Vec<_> = frames.iter().map(|f| enc.encode(f)).collect();
        let churn = codes
            .windows(2)
            .map(|w| w[0].hamming_fraction(&w[1]))
            .sum::<f64>()
            / (codes.len() - 1) as f64;

        let texture = frames.iter().map(spatial_gradient).sum::<f64>() / frames.len() as f64;

        let mut residuals: Vec<f64> = frames
            .windows(2)
            .map(|w| temporal_residual(&w[0], &w[1]))
            .collect();
        let motion = residuals.iter().sum::<f64>() / residuals.len() as f64;
        residuals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p90 = residuals[(residuals.len() - 1) * 9 / 10];
        let novelty = p90 / motion.max(1e-9);

        Fingerprint {
            motion,
            texture,
            churn,
            novelty,
        }
    }

    /// Fingerprint of one session's probe clip: a pure function of
    /// `(base_seed, session_id, category)`, so every server and every
    /// worker count derives the same value. The clip seed comes from the
    /// dedicated [`StreamComponent::Fingerprint`] stream.
    pub fn probe(base_seed: u64, session_id: u64, category: Category) -> Fingerprint {
        let seed = seed_for(base_seed, session_id, StreamComponent::Fingerprint);
        Self::of_clip(category, seed)
    }

    /// Fingerprint of one seeded preset clip.
    pub fn of_clip(category: Category, seed: u64) -> Fingerprint {
        let cfg = SceneConfig::preset(category, PROBE_HEIGHT, PROBE_WIDTH);
        let mut video = SyntheticVideo::new(cfg, seed);
        Self::of_frames(&video.take_frames(PROBE_FRAMES))
    }

    /// [`Fingerprint::probe`] through a process-wide memo table. The
    /// probe renders [`PROBE_FRAMES`] frames of synthetic video — far
    /// too slow to repeat for every fleet run in a test binary — and is
    /// a pure function of its arguments, so memoization cannot change
    /// any result. Thread-safe: sharded fleet workers share the table.
    pub fn probe_memo(base_seed: u64, session_id: u64, category: Category) -> Fingerprint {
        use std::collections::HashMap;
        use std::sync::Mutex;
        type MemoTable = Mutex<HashMap<(u64, u64, u8), Fingerprint>>;
        static MEMO: OnceLock<MemoTable> = OnceLock::new();
        let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (base_seed, session_id, category as u8);
        if let Some(fp) = memo.lock().unwrap().get(&key) {
            return *fp;
        }
        let fp = Self::probe(base_seed, session_id, category);
        memo.lock().unwrap().insert(key, fp);
        fp
    }
}

/// Mean absolute horizontal+vertical gradient, subsampled 2× for speed.
fn spatial_gradient(f: &Frame) -> f64 {
    let (w, h) = (f.width(), f.height());
    let d = f.data();
    let mut acc = 0.0f64;
    let mut n = 0u64;
    let mut y = 0;
    while y + 1 < h {
        let mut x = 0;
        while x + 1 < w {
            let i = y * w + x;
            acc += (d[i + 1] - d[i]).abs() as f64 + (d[i + w] - d[i]).abs() as f64;
            n += 1;
            x += 2;
        }
        y += 2;
    }
    acc / n.max(1) as f64
}

/// Mean absolute frame-to-frame difference, subsampled 2× for speed.
fn temporal_residual(a: &Frame, b: &Frame) -> f64 {
    let (w, h) = (a.width(), a.height());
    let (da, db) = (a.data(), b.data());
    let mut acc = 0.0f64;
    let mut n = 0u64;
    let mut y = 0;
    while y < h {
        let mut x = 0;
        while x < w {
            let i = y * w + x;
            acc += (db[i] - da[i]).abs() as f64;
            n += 1;
            x += 2;
        }
        y += 2;
    }
    acc / n.max(1) as f64
}

/// Nearest-centroid specialist selector.
#[derive(Debug, Clone)]
pub struct Classifier {
    /// One centroid per category, in [`Category::ALL`] order.
    centroids: [[f64; 4]; 10],
    /// Per-dimension distance weights: between-category spread over
    /// within-category spread (diagonal LDA).
    weights: [f64; 4],
}

/// One classification decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The winning specialist head.
    pub category: Category,
    /// Relative margin over the runner-up centroid, in `[0, 1]`.
    pub confidence: f64,
}

impl Decision {
    /// The head to serve given a generic-fallback confidence floor.
    pub fn head(&self, confidence_floor: f64) -> HeadId {
        if self.confidence >= confidence_floor {
            HeadId::Specialist(self.category)
        } else {
            HeadId::Generic
        }
    }
}

impl Classifier {
    /// Calibrate centroids from the presets themselves under a fixed
    /// seed. Deterministic and parameter-free: every call site gets the
    /// same classifier. Prefer [`Classifier::shared`] — calibration
    /// renders `10 × 4` probe clips.
    pub fn calibrated() -> Classifier {
        let mut clips = [[[0.0f64; 4]; CALIBRATION_CLIPS as usize]; 10];
        for (i, cat) in Category::ALL.iter().enumerate() {
            for clip in 0..CALIBRATION_CLIPS {
                let fp = Fingerprint::of_clip(
                    *cat,
                    seed_for(CALIBRATION_SEED, clip, StreamComponent::Fingerprint),
                );
                clips[i][clip as usize] = fp.features();
            }
        }
        let mut centroids = [[0.0f64; 4]; 10];
        for (i, cat_clips) in clips.iter().enumerate() {
            for d in 0..4 {
                centroids[i][d] =
                    cat_clips.iter().map(|c| c[d]).sum::<f64>() / CALIBRATION_CLIPS as f64;
            }
        }
        // Diagonal LDA weights: a feature earns distance weight in
        // proportion to how far categories sit apart relative to how much
        // one category's clips scatter.
        let mut weights = [0.0f64; 4];
        for d in 0..4 {
            let grand = centroids.iter().map(|c| c[d]).sum::<f64>() / 10.0;
            let between = (centroids
                .iter()
                .map(|c| (c[d] - grand).powi(2))
                .sum::<f64>()
                / 10.0)
                .sqrt();
            let within = (clips
                .iter()
                .enumerate()
                .map(|(i, cat_clips)| {
                    cat_clips
                        .iter()
                        .map(|c| (c[d] - centroids[i][d]).powi(2))
                        .sum::<f64>()
                        / CALIBRATION_CLIPS as f64
                })
                .sum::<f64>()
                / 10.0)
                .sqrt();
            weights[d] = between / within.max(between * 1e-3).max(1e-12);
        }
        Classifier { centroids, weights }
    }

    /// The process-wide calibrated classifier (calibration runs once).
    pub fn shared() -> &'static Classifier {
        static SHARED: OnceLock<Classifier> = OnceLock::new();
        SHARED.get_or_init(Classifier::calibrated)
    }

    fn distance(&self, a: &[f64; 4], b: &[f64; 4]) -> f64 {
        let mut acc = 0.0;
        for d in 0..4 {
            let v = (a[d] - b[d]) * self.weights[d];
            acc += v * v;
        }
        acc.sqrt()
    }

    /// Classify a fingerprint: nearest centroid wins (ties break to the
    /// earliest category in [`Category::ALL`], deterministically), with
    /// the relative margin over the runner-up as confidence.
    pub fn classify(&self, fp: &Fingerprint) -> Decision {
        let f = fp.features();
        let mut best = (f64::INFINITY, 0usize);
        let mut second = f64::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let d = self.distance(&f, c);
            if d < best.0 {
                second = best.0;
                best = (d, i);
            } else if d < second {
                second = d;
            }
        }
        let confidence = if second.is_finite() && second > 0.0 {
            ((second - best.0) / second).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Decision {
            category: Category::ALL[best.1],
            confidence,
        }
    }

    /// The centroid for one category (inspection/tests).
    pub fn centroid(&self, cat: Category) -> Fingerprint {
        let c = self.centroids[cat as usize];
        Fingerprint {
            motion: c[0],
            texture: c[1],
            churn: c[2],
            novelty: c[3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_net::integrity::crc32;

    #[test]
    fn head_codes_round_trip() {
        assert_eq!(HeadId::from_code(0), Some(HeadId::Generic));
        for cat in Category::ALL {
            let h = HeadId::Specialist(cat);
            assert_eq!(HeadId::from_code(h.code()), Some(h));
        }
        assert_eq!(HeadId::from_code(11), None);
        assert_eq!(HeadId::from_code(200), None);
    }

    #[test]
    fn fingerprint_is_a_pure_function() {
        let a = Fingerprint::probe(2024, 5, Category::GamePlay);
        let b = Fingerprint::probe(2024, 5, Category::GamePlay);
        assert_eq!(a, b);
        let c = Fingerprint::probe(2024, 6, Category::GamePlay);
        assert_ne!(a, c, "different sessions probe different clips");
    }

    #[test]
    fn fingerprint_tracks_preset_statistics() {
        let busy = Fingerprint::of_clip(Category::GamePlay, 7);
        let calm = Fingerprint::of_clip(Category::Education, 7);
        assert!(
            busy.motion > calm.motion,
            "GamePlay residual {:.5} must beat Education {:.5}",
            busy.motion,
            calm.motion
        );
        assert!(
            busy.texture > calm.texture,
            "GamePlay gradient {:.5} must beat Education {:.5}",
            busy.texture,
            calm.texture
        );
        assert!(
            busy.churn > calm.churn,
            "GamePlay code churn {:.5} must beat Education {:.5}",
            busy.churn,
            calm.churn
        );
    }

    /// Satellite: per-category probe clips are pinned by digest — the
    /// fingerprint feature extractor sits upstream of every model-plane
    /// digest, so silent generator drift must fail loudly here.
    #[test]
    fn category_probe_clip_digests_are_pinned() {
        let clip_digest = |cat: Category| {
            let cfg = SceneConfig::preset(cat, PROBE_HEIGHT, PROBE_WIDTH);
            let mut video = SyntheticVideo::new(cfg, 2024);
            let mut bytes = Vec::new();
            for f in video.take_frames(3) {
                for v in f.data() {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            crc32(&bytes)
        };
        let digests: Vec<u32> = Category::ALL.iter().map(|&c| clip_digest(c)).collect();
        // Every category renders distinct content…
        let mut uniq = digests.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), digests.len(), "category clips must differ");
        // …and bit-identically across runs.
        for (cat, d) in Category::ALL.iter().zip(&digests) {
            assert_eq!(clip_digest(*cat), *d, "{cat:?} clip digest drifted");
        }
    }

    /// Satellite: the classifier recovers the true category on at least
    /// 8 of the 10 presets for held-out (non-calibration) clips.
    #[test]
    fn classifier_recovers_true_category_on_most_presets() {
        let clf = Classifier::shared();
        let mut hits = 0;
        let mut report = String::new();
        for cat in Category::ALL {
            let fp = Fingerprint::probe(2024, cat as u64, cat);
            let d = clf.classify(&fp);
            if d.category == cat {
                hits += 1;
            }
            report.push_str(&format!(
                "{cat:?} -> {:?} (conf {:.3})\n",
                d.category, d.confidence
            ));
        }
        assert!(hits >= 8, "only {hits}/10 presets recovered:\n{report}");
    }

    #[test]
    fn confidence_gates_generic_fallback() {
        let clf = Classifier::shared();
        let fp = Fingerprint::probe(2024, 3, Category::GamePlay);
        let d = clf.classify(&fp);
        assert!((0.0..=1.0).contains(&d.confidence));
        assert_eq!(
            d.head(1.1),
            HeadId::Generic,
            "floor above 1 always falls back"
        );
        assert_eq!(
            d.head(0.0),
            HeadId::Specialist(d.category),
            "floor 0 always specializes"
        );
    }
}
