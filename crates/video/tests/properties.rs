//! Property tests for the video substrate, run as seeded grids (see
//! [`nerve_rng::check_cases`]).

use nerve_rng::{check_cases, DetRng, Rng};
use nerve_video::frame::{resize_add_clamp01, resize_plane, sample_plane, Frame};
use nerve_video::metrics::{psnr, ssim, PSNR_CAP_DB};
use nerve_video::resolution::Resolution;
use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

const CASES: u64 = 256;

/// A `w × h` frame of uniform samples in `[0, 1]`.
fn random_frame(rng: &mut DetRng, w: usize, h: usize) -> Frame {
    Frame::from_data(
        w,
        h,
        (0..w * h).map(|_| rng.random_range(0.0f32..=1.0)).collect(),
    )
}

/// A random frame of 4..24 × 4..24 pixels.
fn frame(rng: &mut DetRng) -> Frame {
    let (w, h) = (rng.random_range(4..24usize), rng.random_range(4..24usize));
    random_frame(rng, w, h)
}

/// Two random frames sharing one shape.
fn frame_pair(rng: &mut DetRng) -> (Frame, Frame) {
    let (w, h) = (rng.random_range(4..24usize), rng.random_range(4..24usize));
    (random_frame(rng, w, h), random_frame(rng, w, h))
}

#[test]
fn resize_preserves_value_bounds() {
    check_cases("resize_preserves_value_bounds", CASES, |rng| {
        let f = frame(rng);
        let (nw, nh) = (rng.random_range(2..40usize), rng.random_range(2..40usize));
        let r = f.resize(nw, nh);
        assert_eq!((r.width(), r.height()), (nw, nh));
        for &v in r.data() {
            assert!((-1e-6..=1.0 + 1e-6).contains(&v));
        }
    });
}

#[test]
fn resize_plane_is_bitwise_the_per_sample_sampler() {
    // Shapes 1..200 each way, so both down- and upscaling, 1-pixel axes
    // and non-integer ratios all occur.
    check_cases(
        "resize_plane_is_bitwise_the_per_sample_sampler",
        64,
        |rng| {
            let mut dim = || rng.random_range(1..200usize);
            let (w, h, nw, nh) = (dim(), dim(), dim(), dim());
            let f = random_frame(rng, w, h);
            let (sx, sy) = (w as f32 / nw as f32, h as f32 / nh as f32);
            let got = resize_plane(f.data(), w, h, nw, nh);
            assert_eq!(got.len(), nw * nh);
            for y in 0..nh {
                let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
                for x in 0..nw {
                    let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
                    let want = sample_plane(f.data(), w, h, fx, fy);
                    assert_eq!(
                        got[y * nw + x].to_bits(),
                        want.to_bits(),
                        "{w}x{h} -> {nw}x{nh} at ({x}, {y})"
                    );
                }
            }
        },
    );
}

/// A sample in `[-0.5, 1.5]` or, one time in sixteen, one of ±inf, NaN
/// and −0.0.
fn edgy_sample(rng: &mut DetRng) -> f32 {
    match rng.random_range(0..64u32) {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        2 => f32::NAN,
        3 => -0.0,
        _ => rng.random_range(-0.5f32..=1.5),
    }
}

#[test]
fn resize_add_clamp01_is_bitwise_two_resizes_added_and_clamped() {
    // Output axes of 1..12 pixels; each input axis is as long as the
    // output's one time in three (the resize copies when both are),
    // else 1..12, so up, down and equal axes and 1×N and N×1 planes all
    // occur. The counts below check that they do.
    let (mut up, mut down, mut equal, mut copies, mut thin) = (0, 0, 0, 0, 0);
    check_cases(
        "resize_add_clamp01_is_bitwise_two_resizes_added_and_clamped",
        256,
        |rng| {
            let (w, h) = (rng.random_range(1..12usize), rng.random_range(1..12usize));
            let mut axis = |rng: &mut DetRng, out: usize| {
                let len = if rng.random_range(0..3u32) == 0 {
                    out
                } else {
                    rng.random_range(1..12usize)
                };
                match len.cmp(&out) {
                    std::cmp::Ordering::Less => up += 1,
                    std::cmp::Ordering::Greater => down += 1,
                    std::cmp::Ordering::Equal => equal += 1,
                }
                len
            };
            let a_size = (axis(rng, w), axis(rng, h));
            let b_size = (axis(rng, w), axis(rng, h));
            for size in [a_size, b_size] {
                copies += usize::from(size == (w, h));
                thin += usize::from(size.0 == 1 || size.1 == 1);
            }
            let a: Vec<f32> = (0..a_size.0 * a_size.1).map(|_| edgy_sample(rng)).collect();
            let b: Vec<f32> = (0..b_size.0 * b_size.1).map(|_| edgy_sample(rng)).collect();

            let got = resize_add_clamp01(&a, a_size, &b, b_size, (w, h));
            let want: Vec<f32> = resize_plane(&a, a_size.0, a_size.1, w, h)
                .iter()
                .zip(resize_plane(&b, b_size.0, b_size.1, w, h))
                .map(|(&va, vb)| (va + vb).clamp(0.0, 1.0))
                .collect();
            assert_eq!(got.len(), w * h);
            for (i, (g, v)) in got.iter().zip(&want).enumerate() {
                assert!(
                    if v.is_nan() {
                        g.is_nan()
                    } else {
                        g.to_bits() == v.to_bits()
                    },
                    "{a_size:?} + {b_size:?} -> {w}x{h} at {i}: {g} != {v}"
                );
            }
        },
    );
    for (what, count) in [
        ("up", up),
        ("down", down),
        ("equal", equal),
        ("copied", copies),
        ("1-pixel", thin),
    ] {
        assert!(count > 0, "no {what} axis or plane drawn");
    }
}

#[test]
fn u8_round_trip_error_is_half_lsb() {
    check_cases("u8_round_trip_error_is_half_lsb", CASES, |rng| {
        let f = frame(rng);
        let back = Frame::from_u8(f.width(), f.height(), &f.to_u8());
        for (a, b) in f.data().iter().zip(back.data().iter()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    });
}

#[test]
fn psnr_is_symmetric_and_capped() {
    check_cases("psnr_is_symmetric_and_capped", CASES, |rng| {
        let (a, b) = frame_pair(rng);
        assert!((psnr(&a, &b) - psnr(&b, &a)).abs() < 1e-9);
        assert!(psnr(&a, &b) <= PSNR_CAP_DB);
        assert_eq!(psnr(&a, &a.clone()), PSNR_CAP_DB);
    });
}

#[test]
fn ssim_is_bounded_and_reflexive() {
    check_cases("ssim_is_bounded_and_reflexive", CASES, |rng| {
        let (a, b) = frame_pair(rng);
        let s = ssim(&a, &b);
        assert!((-1.0..=1.0 + 1e-9).contains(&s), "ssim {s}");
        assert!((ssim(&a, &a.clone()) - 1.0).abs() < 1e-9);
    });
}

#[test]
fn sampling_interpolates_within_neighbours() {
    check_cases("sampling_interpolates_within_neighbours", CASES, |rng| {
        let f = frame(rng);
        let x = rng.random_range(0.0f32..1.0) * (f.width() - 1) as f32;
        let y = rng.random_range(0.0f32..1.0) * (f.height() - 1) as f32;
        let v = f.sample(x, y);
        // Value lies within the min/max of the 4 surrounding pixels.
        let x0 = x.floor() as isize;
        let y0 = y.floor() as isize;
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for dy in 0..2 {
            for dx in 0..2 {
                let p = f.get_clamped(x0 + dx, y0 + dy);
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
    });
}

#[test]
fn overlay_rows_only_touches_requested_band() {
    for y0 in 0..12usize {
        for y1 in 0..14usize {
            let mut dst = Frame::filled(6, 12, 0.25);
            let src = Frame::filled(6, 12, 0.75);
            dst.overlay_rows(&src, y0, y1);
            for y in 0..12 {
                let expect = if y >= y0 && y < y1.min(12) {
                    0.75
                } else {
                    0.25
                };
                for x in 0..6 {
                    assert_eq!(dst.get(x, y), expect, "band {y0}..{y1}, row {y}");
                }
            }
        }
    }
}

#[test]
fn synthetic_video_is_deterministic_and_bounded() {
    check_cases(
        "synthetic_video_is_deterministic_and_bounded",
        CASES,
        |rng| {
            let seed = rng.random_range(0..1000u64);
            let n = rng.random_range(1..6usize);
            let cfg = SceneConfig::preset(Category::Vlogs, 24, 40);
            let a: Vec<Frame> = SyntheticVideo::new(cfg.clone(), seed).take_frames(n);
            let b: Vec<Frame> = SyntheticVideo::new(cfg, seed).take_frames(n);
            assert_eq!(&a, &b);
            for f in &a {
                for &v in f.data() {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        },
    );
}

#[test]
fn ladder_utility_monotone() {
    // best_for_bitrate never picks a rung above the budget (except the
    // floor rung when nothing fits).
    for kbps in 0..10_000u32 {
        let rung = Resolution::best_for_bitrate(kbps);
        if kbps >= 512 {
            assert!(rung.bitrate_kbps() <= kbps, "{kbps} kbps -> {rung:?}");
        } else {
            assert_eq!(rung, Resolution::R240);
        }
    }
}
