//! The paper's bitrate ladder and the evaluation-scale mechanism.
//!
//! §8.1: "we transcode them into multiple bitrate versions using the VP9
//! codec as per Wowza's recommendation: {512, 1024, 1600, 2640, 4400} kbps
//! at {240, 360, 480, 720, 1080}p resolutions. The GOP size is 120 (4 sec)."
//!
//! Full-resolution pixel processing is too slow for a CPU-only test suite,
//! so every experiment takes an *evaluation scale divisor*: dimensions are
//! divided by it while all rate/time bookkeeping stays at full scale.
//! FLOPs/params for Table 1 are always reported at full scale.

/// Frames per second used throughout the paper (all videos are 30 fps).
pub const FPS: f64 = 30.0;

/// GOP length in frames (120 frames = 4 s at 30 fps).
pub const GOP_FRAMES: usize = 120;

/// Video chunk duration in seconds (one GOP).
pub const CHUNK_SECONDS: f64 = GOP_FRAMES as f64 / FPS;

/// A rung of the paper's encoding ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resolution {
    R240,
    R360,
    R480,
    R720,
    R1080,
}

impl Resolution {
    /// All ladder rungs, lowest to highest.
    pub const LADDER: [Resolution; 5] = [
        Resolution::R240,
        Resolution::R360,
        Resolution::R480,
        Resolution::R720,
        Resolution::R1080,
    ];

    /// Full-scale pixel dimensions `(width, height)` (16:9).
    pub fn dims(self) -> (usize, usize) {
        match self {
            Resolution::R240 => (426, 240),
            Resolution::R360 => (640, 360),
            Resolution::R480 => (854, 480),
            Resolution::R720 => (1280, 720),
            Resolution::R1080 => (1920, 1080),
        }
    }

    /// Dimensions divided by the evaluation scale (min 16x16, even).
    pub fn dims_scaled(self, scale_divisor: usize) -> (usize, usize) {
        assert!(scale_divisor > 0, "scale divisor must be positive");
        let (w, h) = self.dims();
        let w = ((w / scale_divisor).max(16) / 2) * 2;
        let h = ((h / scale_divisor).max(16) / 2) * 2;
        (w, h)
    }

    /// Ladder bitrate in kbps (Wowza's VP9 recommendation).
    pub fn bitrate_kbps(self) -> u32 {
        match self {
            Resolution::R240 => 512,
            Resolution::R360 => 1024,
            Resolution::R480 => 1600,
            Resolution::R720 => 2640,
            Resolution::R1080 => 4400,
        }
    }

    /// Upscaling factor to reach 1080p height (1080 / own height,
    /// rounded): 240p -> 4x (4.5 truncated to the paper's "4x up-scale"),
    /// 360p -> 3x, 480p -> 2x, 720p -> 1.5x (handled as resize), 1080p -> 1x.
    pub fn sr_scale_to_1080(self) -> f32 {
        1080.0 / self.dims().1 as f32
    }

    /// Index of this rung in [`Self::LADDER`].
    pub fn ladder_index(self) -> usize {
        Resolution::LADDER.iter().position(|&r| r == self).unwrap()
    }

    /// The rung whose bitrate is the largest not exceeding
    /// `available_kbps`; the lowest rung if none fits.
    pub fn best_for_bitrate(available_kbps: u32) -> Resolution {
        let mut best = Resolution::R240;
        for &r in &Resolution::LADDER {
            if r.bitrate_kbps() <= available_kbps {
                best = r;
            }
        }
        best
    }

    /// Bytes of encoded video per chunk at the ladder bitrate.
    pub fn chunk_bytes(self) -> usize {
        (self.bitrate_kbps() as f64 * 1000.0 / 8.0 * CHUNK_SECONDS) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_paper_table() {
        let rates: Vec<u32> = Resolution::LADDER
            .iter()
            .map(|r| r.bitrate_kbps())
            .collect();
        assert_eq!(rates, vec![512, 1024, 1600, 2640, 4400]);
        let heights: Vec<usize> = Resolution::LADDER.iter().map(|r| r.dims().1).collect();
        assert_eq!(heights, vec![240, 360, 480, 720, 1080]);
    }

    #[test]
    fn dims_are_16_9ish() {
        for &r in &Resolution::LADDER {
            let (w, h) = r.dims();
            let ratio = w as f64 / h as f64;
            assert!((ratio - 16.0 / 9.0).abs() < 0.01, "{r:?}: {ratio}");
        }
    }

    #[test]
    fn scaled_dims_are_even_and_bounded() {
        for &r in &Resolution::LADDER {
            for div in [1usize, 2, 4, 8] {
                let (w, h) = r.dims_scaled(div);
                assert_eq!(w % 2, 0);
                assert_eq!(h % 2, 0);
                assert!(w >= 16 && h >= 16);
            }
        }
        // 1080p at divisor 4 is the "270p" scale the paper warps at.
        assert_eq!(Resolution::R1080.dims_scaled(4), (480, 270));
    }

    #[test]
    fn best_for_bitrate_picks_highest_affordable() {
        assert_eq!(Resolution::best_for_bitrate(400), Resolution::R240);
        assert_eq!(Resolution::best_for_bitrate(1100), Resolution::R360);
        assert_eq!(Resolution::best_for_bitrate(99999), Resolution::R1080);
    }

    #[test]
    fn chunk_bytes_matches_bitrate_times_duration() {
        // 512 kbps * 4 s = 2048 kbit = 256 KB.
        assert_eq!(Resolution::R240.chunk_bytes(), 256_000);
    }

    #[test]
    fn sr_scale_follows_height_ratio() {
        assert!((Resolution::R240.sr_scale_to_1080() - 4.5).abs() < 1e-6);
        assert!((Resolution::R360.sr_scale_to_1080() - 3.0).abs() < 1e-6);
        assert!((Resolution::R1080.sr_scale_to_1080() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ladder_index_is_consistent() {
        for (i, &r) in Resolution::LADDER.iter().enumerate() {
            assert_eq!(r.ladder_index(), i);
        }
    }
}
