//! Rate control: hitting a chunk bitrate by steering the quantizer.
//!
//! A proportional controller in log-quantizer space: after each frame,
//! scale `qscale` by `(actual_bytes / budget_bytes)^gain`. I-frames get a
//! larger share of the chunk budget (they cost several times a P-frame).
//! The first frame of a stream probes with a short binary search so the
//! controller starts near the right operating point.

use crate::encoder::{EncodedFrame, Encoder};
use crate::quant::{QSCALE_MAX, QSCALE_MIN};
use nerve_video::frame::Frame;

/// Fraction of a chunk's byte budget reserved for its I-frame.
const INTRA_BUDGET_SHARE: f64 = 0.25;

/// Proportional gain of the log-space controller.
const GAIN: f64 = 0.7;

/// Closed-loop quantizer controller.
#[derive(Debug, Clone)]
pub struct RateController {
    qscale: f64,
}

impl Default for RateController {
    fn default() -> Self {
        Self::new()
    }
}

impl RateController {
    pub fn new() -> Self {
        Self { qscale: 4.0 }
    }

    pub fn qscale(&self) -> f32 {
        self.qscale as f32
    }

    /// Update after encoding a frame that used `actual` bytes against a
    /// `budget`.
    pub fn update(&mut self, actual: usize, budget: usize) {
        if budget == 0 {
            return;
        }
        let ratio = (actual.max(1)) as f64 / budget as f64;
        self.qscale = (self.qscale * ratio.powf(GAIN)).clamp(QSCALE_MIN as f64, QSCALE_MAX as f64);
    }
}

/// Per-frame byte budgets for a chunk of `n` frames whose first frame is
/// an I-frame.
pub fn frame_budgets(total_bytes: usize, n_frames: usize) -> Vec<usize> {
    assert!(n_frames > 0);
    if n_frames == 1 {
        return vec![total_bytes];
    }
    let intra = (total_bytes as f64 * INTRA_BUDGET_SHARE) as usize;
    let per_p = (total_bytes - intra) / (n_frames - 1);
    let mut budgets = vec![per_p; n_frames];
    budgets[0] = intra;
    budgets
}

/// Encode a chunk of frames to approximately `target_bytes` total.
///
/// The encoder is forced to start the chunk with a keyframe (chunks are
/// independently decodable, as in DASH). Returns the encoded frames and
/// the realized byte count.
pub fn encode_chunk_at_bytes(
    encoder: &mut Encoder,
    controller: &mut RateController,
    frames: &[Frame],
    target_bytes: usize,
) -> (Vec<EncodedFrame>, usize) {
    assert!(!frames.is_empty());
    encoder.force_keyframe();
    let budgets = frame_budgets(target_bytes, frames.len());

    // Probe the first (intra) frame with a 3-step bisection so a cold
    // controller lands near the budget.
    let probe = |enc: &mut Encoder, q: f32| -> usize {
        let mut trial = Encoder::new(enc.config().clone());
        trial.encode_next(&frames[0], q).total_bytes()
    };
    let (mut lo, mut hi) = (QSCALE_MIN, QSCALE_MAX);
    let mut q = controller.qscale();
    for _ in 0..3 {
        let bytes = probe(encoder, q);
        if bytes > budgets[0] {
            lo = q;
        } else {
            hi = q;
        }
        q = (lo * hi).sqrt();
    }
    controller.qscale = q as f64;

    let mut out = Vec::with_capacity(frames.len());
    let mut total = 0usize;
    for (frame, &budget) in frames.iter().zip(budgets.iter()) {
        let encoded = encoder.encode_next(frame, controller.qscale());
        let bytes = encoded.total_bytes();
        controller.update(bytes, budget.max(1));
        total += bytes;
        out.push(encoded);
    }
    (out, total)
}

/// Encode a chunk at a target bitrate in kbps, given the chunk duration.
pub fn encode_chunk_at_kbps(
    encoder: &mut Encoder,
    controller: &mut RateController,
    frames: &[Frame],
    kbps: u32,
    chunk_seconds: f64,
) -> (Vec<EncodedFrame>, usize) {
    let target_bytes = (kbps as f64 * 1000.0 / 8.0 * chunk_seconds) as usize;
    encode_chunk_at_bytes(encoder, controller, frames, target_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, FrameKind};
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn clip(n: usize) -> Vec<Frame> {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, 48, 64), 44);
        v.take_frames(n)
    }

    #[test]
    fn budgets_sum_to_total_and_favor_intra() {
        let b = frame_budgets(10_000, 10);
        assert_eq!(b.len(), 10);
        assert!(b[0] > b[1], "intra budget {} <= P budget {}", b[0], b[1]);
        let sum: usize = b.iter().sum();
        assert!(sum <= 10_000 && sum > 9_000);
    }

    #[test]
    fn controller_raises_qscale_when_over_budget() {
        let mut rc = RateController::new();
        let q0 = rc.qscale();
        rc.update(2_000, 1_000); // spent double the budget
        assert!(rc.qscale() > q0);
        rc.update(100, 1_000); // far under budget
        assert!(rc.qscale() < q0 * 2.0);
    }

    #[test]
    fn chunk_hits_byte_target_within_factor_two() {
        let frames = clip(8);
        let mut enc = Encoder::new(EncoderConfig::new(64, 48));
        let mut rc = RateController::new();
        let target = 6_000;
        let (encoded, total) = encode_chunk_at_bytes(&mut enc, &mut rc, &frames, target);
        assert_eq!(encoded.len(), 8);
        assert!(
            total as f64 > target as f64 * 0.4 && (total as f64) < target as f64 * 2.0,
            "total {total} vs target {target}"
        );
        assert_eq!(encoded[0].kind, FrameKind::Intra);
    }

    #[test]
    fn higher_bitrate_yields_more_bytes_and_better_quality() {
        use nerve_video::metrics::psnr;
        let frames = clip(6);
        let run = |kbps: u32| {
            let mut enc = Encoder::new(EncoderConfig::new(64, 48));
            let mut rc = RateController::new();
            let (encoded, total) = encode_chunk_at_kbps(&mut enc, &mut rc, &frames, kbps, 0.2);
            let mut dec = crate::decoder::Decoder::new(64, 48);
            let q: f64 = frames
                .iter()
                .zip(encoded.iter())
                .map(|(f, e)| psnr(&dec.decode(e), f))
                .sum::<f64>()
                / frames.len() as f64;
            (total, q)
        };
        let (bytes_lo, q_lo) = run(100);
        let (bytes_hi, q_hi) = run(800);
        assert!(bytes_hi > bytes_lo, "{bytes_hi} <= {bytes_lo}");
        assert!(q_hi > q_lo, "{q_hi} <= {q_lo}");
    }

    #[test]
    fn single_frame_chunk_gets_whole_budget() {
        assert_eq!(frame_budgets(5_000, 1), vec![5_000]);
    }

    /// Folds `bytes` into a 64-bit FNV-1a hash.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The 64-bit FNV-1a of every frame's kind, `qscale` bits and slice
    /// bytes from `encode_chunk_at_kbps`, on synthetic clips at the five
    /// scale-8 ladder sizes (none a multiple of 16, so every frame has
    /// partial edge macroblocks) and at one size smaller than a
    /// macroblock. Any change to motion search, transform, quantizer or
    /// rate control moves it.
    #[test]
    fn chunk_bytes_are_pinned() {
        use nerve_video::resolution::Resolution;
        let mut cases: Vec<(usize, usize, u32)> = Resolution::LADDER
            .iter()
            .map(|r| (r.dims().0 / 8, r.dims().1 / 8, r.bitrate_kbps() / 8))
            .collect();
        cases.push((12, 9, 40));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (i, &(w, ht, kbps)) in cases.iter().enumerate() {
            let category = Category::ALL[i * 3 % Category::ALL.len()];
            let mut video = SyntheticVideo::new(SceneConfig::preset(category, ht, w), 7 + i as u64);
            let frames = video.take_frames(6);
            let mut enc = Encoder::new(EncoderConfig::new(w, ht));
            let mut rc = RateController::new();
            let (encoded, _) = encode_chunk_at_kbps(&mut enc, &mut rc, &frames, kbps, 0.2);
            for e in &encoded {
                h = fnv1a(h, &[matches!(e.kind, FrameKind::Inter) as u8]);
                h = fnv1a(h, &e.qscale.to_bits().to_le_bytes());
                for s in &e.slices {
                    h = fnv1a(h, &s.data);
                }
            }
        }
        assert_eq!(h, 0xb63e_4f0c_ac34_8135, "chunk bytes fnv {h:#018x}");
    }
}
