//! The binary point code (§4, "Extracting binary point code").
//!
//! The paper adopts PidiNet — a *pixel-difference* edge network — and
//! binarizes its output at 64x128, observing that the learned code
//! "captures the motion and contour information of the current video
//! frame" within 1 KB. Our substitution keeps the pixel-difference
//! structure: a multi-direction difference convolution (Sobel pair plus
//! diagonal differences) over the downsampled frame, followed by
//! percentile binarization. The binarization threshold is the trainable
//! parameter (tuned in [`crate::train`] against recovery quality,
//! standing in for the paper's straight-through-estimator end-to-end
//! training).

use nerve_video::frame::Frame;

/// Configuration of the point-code encoder.
#[derive(Debug, Clone)]
pub struct PointCodeConfig {
    /// Code width in bits (paper: 128).
    pub width: usize,
    /// Code height in bits (paper: 64).
    pub height: usize,
    /// Fraction of pixels classified as non-edge; the `1 - p` strongest
    /// gradients become 1-bits. Trainable (see `train::tune_point_code`).
    pub threshold_percentile: f32,
}

impl Default for PointCodeConfig {
    fn default() -> Self {
        Self {
            width: 128,
            height: 64,
            threshold_percentile: 0.80,
        }
    }
}

impl PointCodeConfig {
    /// Paper-shape code scaled down alongside an evaluation-scale frame
    /// (keeps the code-to-frame resolution ratio of the paper: 64x128
    /// against 1080x1920, i.e. ~1/15 linear).
    pub fn scaled(divisor: usize) -> Self {
        let d = divisor.max(1);
        Self {
            width: (128 / d).max(16),
            height: (64 / d).max(8),
            ..Self::default()
        }
    }

    /// Size of the serialized code in bytes.
    pub fn byte_len(&self) -> usize {
        (self.width * self.height).div_ceil(8)
    }
}

/// A binarized edge/contour code for one video frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointCode {
    width: usize,
    height: usize,
    /// Row-major bitmap, one bit per cell, packed LSB-first.
    bits: Vec<u8>,
}

impl PointCode {
    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Wire size in bytes (the paper's "within 1 KB").
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        let i = y * self.width + x;
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    fn set(&mut self, x: usize, y: usize, v: bool) {
        let i = y * self.width + x;
        if v {
            self.bits[i / 8] |= 1 << (i % 8);
        } else {
            self.bits[i / 8] &= !(1 << (i % 8));
        }
    }

    /// Fraction of 1-bits.
    pub fn density(&self) -> f64 {
        let ones: u32 = self.bits.iter().map(|b| b.count_ones()).sum();
        ones as f64 / (self.width * self.height) as f64
    }

    /// The code as a 0/1 luma frame (input to the flow estimator).
    pub fn to_frame(&self) -> Frame {
        Frame::from_fn(self.width, self.height, |x, y| {
            if self.get(x, y) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Serialize: 4-byte header (width, height as u16 LE) + packed bits.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.bits.len());
        out.extend_from_slice(&(self.width as u16).to_le_bytes());
        out.extend_from_slice(&(self.height as u16).to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Deserialize a code produced by [`PointCode::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Option<PointCode> {
        if data.len() < 4 {
            return None;
        }
        let width = u16::from_le_bytes([data[0], data[1]]) as usize;
        let height = u16::from_le_bytes([data[2], data[3]]) as usize;
        let need = (width * height).div_ceil(8);
        if data.len() < 4 + need || width == 0 || height == 0 {
            return None;
        }
        Some(PointCode {
            width,
            height,
            bits: data[4..4 + need].to_vec(),
        })
    }

    /// Fraction of bits that differ from another code — a cheap motion
    /// proxy used in diagnostics.
    pub fn hamming_fraction(&self, other: &PointCode) -> f64 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let diff: u32 = self
            .bits
            .iter()
            .zip(other.bits.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        diff as f64 / (self.width * self.height) as f64
    }
}

/// The server-side point-code extractor.
#[derive(Debug, Clone)]
pub struct PointCodeEncoder {
    config: PointCodeConfig,
}

impl PointCodeEncoder {
    pub fn new(config: PointCodeConfig) -> Self {
        assert!(config.width >= 4 && config.height >= 4, "code too small");
        assert!((0.0..1.0).contains(&config.threshold_percentile));
        Self { config }
    }

    pub fn config(&self) -> &PointCodeConfig {
        &self.config
    }

    /// Extract the binary point code of a frame.
    pub fn encode(&self, frame: &Frame) -> PointCode {
        // Work at 2x the code resolution so gradients see structure finer
        // than one code cell, then pool down.
        let (cw, ch) = (self.config.width, self.config.height);
        let work = frame.resize(cw * 2, ch * 2);
        let mag = difference_magnitude(&work);

        // 2x2 max-pool down to code resolution.
        let mut pooled = vec![0.0f32; cw * ch];
        for y in 0..ch {
            for x in 0..cw {
                let m = mag
                    .get(2 * x, 2 * y)
                    .max(mag.get(2 * x + 1, 2 * y))
                    .max(mag.get(2 * x, 2 * y + 1))
                    .max(mag.get(2 * x + 1, 2 * y + 1));
                pooled[y * cw + x] = m;
            }
        }

        // Percentile threshold.
        let mut sorted = pooled.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((sorted.len() as f32 - 1.0) * self.config.threshold_percentile) as usize;
        let threshold = sorted[idx].max(1e-4);

        let mut code = PointCode {
            width: cw,
            height: ch,
            bits: vec![0; (cw * ch).div_ceil(8)],
        };
        for y in 0..ch {
            for x in 0..cw {
                if pooled[y * cw + x] > threshold {
                    code.set(x, y, true);
                }
            }
        }
        code
    }
}

/// Multi-direction pixel-difference magnitude (PidiNet-style): Sobel
/// horizontal/vertical plus the two diagonal central differences.
fn difference_magnitude(frame: &Frame) -> Frame {
    Frame::from_fn(frame.width(), frame.height(), |x, y| {
        let (xi, yi) = (x as isize, y as isize);
        let g = |dx: isize, dy: isize| frame.get_clamped(xi + dx, yi + dy);
        // Sobel.
        let gx = (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1));
        let gy = (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1));
        // Diagonal central differences.
        let gd1 = g(1, 1) - g(-1, -1);
        let gd2 = g(1, -1) - g(-1, 1);
        (gx * gx + gy * gy + 0.5 * (gd1 * gd1 + gd2 * gd2)).sqrt()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    #[test]
    fn paper_default_code_fits_in_one_kilobyte() {
        let cfg = PointCodeConfig::default();
        assert_eq!((cfg.width, cfg.height), (128, 64));
        assert_eq!(cfg.byte_len(), 1024);
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Vlogs, 64, 112), 3);
        let code = PointCodeEncoder::new(cfg).encode(&v.next_frame());
        assert_eq!(code.to_bytes().len(), 4 + 1024);
        assert!(code.to_bytes().len() <= 1100, "paper: within 1 KB");
    }

    #[test]
    fn density_tracks_threshold_percentile() {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::GamePlay, 64, 112), 9);
        let f = v.next_frame();
        let dense = PointCodeEncoder::new(PointCodeConfig {
            threshold_percentile: 0.5,
            ..Default::default()
        })
        .encode(&f);
        let sparse = PointCodeEncoder::new(PointCodeConfig {
            threshold_percentile: 0.9,
            ..Default::default()
        })
        .encode(&f);
        assert!(dense.density() > sparse.density());
        assert!(
            (sparse.density() - 0.1).abs() < 0.06,
            "density {}",
            sparse.density()
        );
    }

    #[test]
    fn edges_land_on_object_boundaries() {
        // A frame with one bright square on flat background: edge bits
        // should concentrate on the square's boundary.
        let mut f = Frame::filled(112, 64, 0.2);
        for y in 20..44 {
            for x in 30..70 {
                f.set(x, y, 0.9);
            }
        }
        let code = PointCodeEncoder::new(PointCodeConfig {
            width: 112,
            height: 64,
            threshold_percentile: 0.9,
        })
        .encode(&f);
        // Boundary cells set, interior mostly empty.
        assert!(code.get(30, 32) || code.get(29, 32) || code.get(31, 32));
        let interior: usize = (25..40)
            .flat_map(|y| (40..60).map(move |x| (x, y)))
            .filter(|&(x, y)| code.get(x, y))
            .count();
        assert!(interior < 12, "interior edges {interior}");
    }

    #[test]
    fn serialization_round_trips() {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Skit, 64, 112), 17);
        let code = PointCodeEncoder::new(PointCodeConfig::default()).encode(&v.next_frame());
        let bytes = code.to_bytes();
        let back = PointCode::from_bytes(&bytes).unwrap();
        assert_eq!(back, code);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(PointCode::from_bytes(&[]).is_none());
        assert!(PointCode::from_bytes(&[1, 0, 1, 0]).is_none()); // no payload
        let mut ok = PointCode::from_bytes(
            &PointCodeEncoder::new(PointCodeConfig::default())
                .encode(&Frame::filled(64, 36, 0.5))
                .to_bytes(),
        );
        assert!(ok.take().is_some());
    }

    #[test]
    fn consecutive_codes_differ_with_motion() {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::GamePlay, 64, 112), 23);
        let enc = PointCodeEncoder::new(PointCodeConfig::default());
        let a = enc.encode(&v.next_frame());
        let frames = v.take_frames(5);
        let b = enc.encode(frames.last().unwrap());
        assert!(
            a.hamming_fraction(&b) > 0.01,
            "codes should move with content"
        );
        assert_eq!(a.hamming_fraction(&a), 0.0);
    }

    #[test]
    fn scaled_config_shrinks_with_divisor() {
        let c = PointCodeConfig::scaled(2);
        assert_eq!((c.width, c.height), (64, 32));
        let floor = PointCodeConfig::scaled(100);
        assert_eq!((floor.width, floor.height), (16, 8));
    }

    #[test]
    fn to_frame_is_binary_and_matches_bits() {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, 64, 112), 29);
        let code = PointCodeEncoder::new(PointCodeConfig::scaled(2)).encode(&v.next_frame());
        let f = code.to_frame();
        for y in 0..code.height() {
            for x in 0..code.width() {
                let expect = if code.get(x, y) { 1.0 } else { 0.0 };
                assert_eq!(f.get(x, y), expect);
            }
        }
    }
}
