//! Video quality metrics: PSNR and SSIM (§8.1 of the paper).
//!
//! Both operate on luma frames in `[0, 1]`. PSNR uses `MAX = 1`; SSIM is
//! the standard windowed formulation (8x8 sliding window, K1 = 0.01,
//! K2 = 0.03), which tracks the Wang et al. reference implementation
//! closely enough for ordering experiments.

use crate::frame::Frame;

/// PSNR value reported for identical frames (instead of infinity).
pub const PSNR_CAP_DB: f64 = 99.0;

/// Mean squared error between two frames.
pub fn mse(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "metric dimension mismatch"
    );
    let sum: f64 = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    sum / a.data().len() as f64
}

/// Peak signal-to-noise ratio in dB (higher is better).
pub fn psnr(a: &Frame, b: &Frame) -> f64 {
    let m = mse(a, b);
    if m <= 1e-12 {
        PSNR_CAP_DB
    } else {
        (10.0 * (1.0 / m).log10()).min(PSNR_CAP_DB)
    }
}

/// Structural similarity index in `[-1, 1]` (higher is better).
///
/// 8x8 sliding window with stride 4 — dense enough to be stable, sparse
/// enough to stay fast at evaluation scale.
pub fn ssim(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "metric dimension mismatch"
    );
    const WIN: usize = 8;
    const STRIDE: usize = 4;
    const K1: f64 = 0.01;
    const K2: f64 = 0.03;
    let c1 = (K1 * 1.0f64).powi(2);
    let c2 = (K2 * 1.0f64).powi(2);

    let w = a.width();
    let h = a.height();
    if w < WIN || h < WIN {
        // Degenerate tiny frames: single global window.
        return ssim_window(a, b, 0, 0, w, h, c1, c2);
    }

    let mut total = 0.0;
    let mut count = 0usize;
    let mut y = 0;
    while y + WIN <= h {
        let mut x = 0;
        while x + WIN <= w {
            total += ssim_window(a, b, x, y, WIN, WIN, c1, c2);
            count += 1;
            x += STRIDE;
        }
        y += STRIDE;
    }
    total / count as f64
}

#[allow(clippy::too_many_arguments)]
fn ssim_window(
    a: &Frame,
    b: &Frame,
    x0: usize,
    y0: usize,
    ww: usize,
    wh: usize,
    c1: f64,
    c2: f64,
) -> f64 {
    let n = (ww * wh) as f64;
    let (mut ma, mut mb) = (0.0f64, 0.0f64);
    for y in y0..y0 + wh {
        for x in x0..x0 + ww {
            ma += a.get(x, y) as f64;
            mb += b.get(x, y) as f64;
        }
    }
    ma /= n;
    mb /= n;
    let (mut va, mut vb, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    for y in y0..y0 + wh {
        for x in x0..x0 + ww {
            let da = a.get(x, y) as f64 - ma;
            let db = b.get(x, y) as f64 - mb;
            va += da * da;
            vb += db * db;
            cov += da * db;
        }
    }
    va /= n - 1.0;
    vb /= n - 1.0;
    cov /= n - 1.0;
    ((2.0 * ma * mb + c1) * (2.0 * cov + c2)) / ((ma * ma + mb * mb + c1) * (va + vb + c2))
}

/// PSNR averaged over a sequence of frame pairs.
pub fn mean_psnr(pairs: &[(Frame, Frame)]) -> f64 {
    assert!(!pairs.is_empty());
    pairs.iter().map(|(a, b)| psnr(a, b)).sum::<f64>() / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SceneConfig, SyntheticVideo};

    #[test]
    fn identical_frames_have_capped_psnr_and_unit_ssim() {
        let f = Frame::filled(16, 16, 0.5);
        assert_eq!(psnr(&f, &f), PSNR_CAP_DB);
        assert!((ssim(&f, &f) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_matches_known_mse() {
        // Uniform error of 0.1 -> MSE 0.01 -> PSNR 20 dB.
        let a = Frame::filled(8, 8, 0.5);
        let b = Frame::filled(8, 8, 0.6);
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-4);
    }

    #[test]
    fn psnr_orders_by_error_magnitude() {
        let gt = Frame::filled(8, 8, 0.5);
        let close = Frame::filled(8, 8, 0.52);
        let far = Frame::filled(8, 8, 0.7);
        assert!(psnr(&gt, &close) > psnr(&gt, &far));
    }

    #[test]
    fn ssim_penalizes_structure_loss_more_than_bias() {
        let mut v = SyntheticVideo::new(SceneConfig::test_small(), 17);
        let f = v.next_frame();
        // Constant luma shift keeps structure.
        let shifted = Frame::from_data(
            f.width(),
            f.height(),
            f.data().iter().map(|&x| (x + 0.05).min(1.0)).collect(),
        );
        // Blurring destroys structure.
        let blurred = f.downsample_half().resize(f.width(), f.height());
        assert!(ssim(&f, &shifted) > ssim(&f, &blurred));
    }

    #[test]
    fn ssim_is_symmetric() {
        let mut v = SyntheticVideo::new(SceneConfig::test_small(), 23);
        let a = v.next_frame();
        let b = v.next_frame();
        assert!((ssim(&a, &b) - ssim(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn ssim_in_valid_range_for_random_frames() {
        let mut v = SyntheticVideo::new(SceneConfig::test_small(), 31);
        let a = v.next_frame();
        let b = v.take_frames(10).pop().unwrap();
        let s = ssim(&a, &b);
        assert!((-1.0..=1.0).contains(&s), "ssim {s}");
    }

    #[test]
    fn mean_metrics_average() {
        let a = Frame::filled(8, 8, 0.5);
        let b = Frame::filled(8, 8, 0.6);
        let pairs = vec![(a.clone(), a.clone()), (a, b)];
        let m = mean_psnr(&pairs);
        assert!((m - (99.0 + 20.0) / 2.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_sizes_panic() {
        let a = Frame::new(4, 4);
        let b = Frame::new(5, 4);
        let _ = psnr(&a, &b);
    }

    #[test]
    fn tiny_frames_use_global_window() {
        let a = Frame::filled(4, 4, 0.5);
        let b = Frame::filled(4, 4, 0.5);
        assert!((ssim(&a, &b) - 1.0).abs() < 1e-9);
    }
}
