//! Property tests for the optical-flow substrate, run as seeded grids
//! (see [`nerve_rng::check_cases`]).

use nerve_flow::field::FlowField;
use nerve_flow::lk::{estimate, FlowConfig};
use nerve_flow::pyramid::Pyramid;
use nerve_flow::warp::{warp_frame, warp_resized, warp_validity};
use nerve_rng::{check_cases, Rng};
use nerve_video::frame::Frame;

const CASES: u64 = 256;

fn textured_frame(w: usize, h: usize, phase: f32) -> Frame {
    Frame::from_fn(w, h, move |x, y| {
        0.5 + 0.3 * ((x as f32) * 0.35 + phase).sin() * ((y as f32) * 0.27).cos()
    })
}

#[test]
fn warp_preserves_value_bounds() {
    check_cases("warp_preserves_value_bounds", CASES, |rng| {
        let f = textured_frame(24, 18, rng.random_range(0.0f32..6.0));
        let (dx, dy) = (
            rng.random_range(-3.0f32..3.0),
            rng.random_range(-3.0f32..3.0),
        );
        let flow = FlowField::constant(24, 18, dx, dy);
        let out = warp_frame(&f, &flow);
        let (lo, hi) = (
            f.data().iter().cloned().fold(f32::INFINITY, f32::min),
            f.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max),
        );
        for &v in out.data() {
            assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        }
    });
}

/// Flow components `Frame::sample` must survive: NaNs of both signs,
/// infinities, magnitudes past `i32` and `isize`, `-0.0`, and the
/// neighbours of 2^31.
const EXTREME: [f32; 11] = [
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    3e9,
    -3e9,
    1e19,
    -0.0,
    2_147_483_648.0,
    -2_147_483_648.0,
    2_147_483_520.0,
];

#[test]
fn warp_is_bitwise_the_per_pixel_sampler() {
    check_cases("warp_is_bitwise_the_per_pixel_sampler", CASES, |rng| {
        let (w, h) = (rng.random_range(1..40usize), rng.random_range(1..12usize));
        let f = textured_frame(w, h, rng.random_range(0.0f32..6.0));
        let reach = w.max(h) as f32 + 3.0;
        let mut flow = FlowField::zero(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut component = || {
                    if rng.random_bool(0.15) {
                        EXTREME[rng.random_range(0..EXTREME.len())]
                    } else {
                        rng.random_range(-reach..reach)
                    }
                };
                let (dx, dy) = (component(), component());
                flow.set(x, y, dx, dy);
            }
        }
        let got = warp_frame(&f, &flow);
        for y in 0..h {
            for x in 0..w {
                let (dx, dy) = flow.get(x, y);
                let want = f.sample(x as f32 + dx, y as f32 + dy);
                assert_eq!(
                    got.get(x, y).to_bits(),
                    want.to_bits(),
                    "{w}x{h} at ({x}, {y}), flow ({dx:e}, {dy:e})"
                );
            }
        }
    });
}

/// `warp_resized` against the eager warp at the source's size followed
/// by the resize, bit for bit: seeded down-scales, up-scales, equal sizes
/// (the resize copies) and 1-pixel outputs, from flows smaller than,
/// larger than or as large as the source, holding the extreme components
/// above.
#[test]
fn resized_warp_is_bitwise_the_eager_warp_then_resize() {
    check_cases(
        "resized_warp_is_bitwise_the_eager_warp_then_resize",
        CASES,
        |rng| {
            let (sw, sh) = (rng.random_range(1..48usize), rng.random_range(1..32usize));
            let source = textured_frame(sw, sh, rng.random_range(0.0f32..6.0));
            // Some flows share the source's size: their upsample copies.
            let (fw, fh) = if rng.random_bool(0.2) {
                (sw, sh)
            } else {
                (rng.random_range(1..24usize), rng.random_range(1..24usize))
            };
            let reach = sw.max(sh) as f32 / 2.0;
            let mut flow = FlowField::zero(fw, fh);
            for y in 0..fh {
                for x in 0..fw {
                    let mut component = || {
                        if rng.random_bool(0.1) {
                            EXTREME[rng.random_range(0..EXTREME.len())]
                        } else {
                            rng.random_range(-reach..reach)
                        }
                    };
                    let (dx, dy) = (component(), component());
                    flow.set(x, y, dx, dy);
                }
            }
            let (width, height) = match rng.random_range(0..4) {
                0 => (rng.random_range(1..=sw), rng.random_range(1..=sh)),
                1 => (
                    rng.random_range(sw..2 * sw + 2),
                    rng.random_range(sh..2 * sh + 2),
                ),
                2 => (sw, sh),
                _ => (1, 1),
            };
            let want = warp_frame(&source, &flow.upsample(sw, sh)).resize(width, height);
            let got = warp_resized(&source, &flow, width, height);
            assert_eq!((got.width(), got.height()), (width, height));
            let bits = |f: &Frame| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&got) == bits(&want),
                "{sw}x{sh} source, {fw}x{fh} flow, {width}x{height} output"
            );
        },
    );
}

#[test]
fn validity_matches_geometry() {
    check_cases("validity_matches_geometry", CASES, |rng| {
        let (dx, dy) = (
            rng.random_range(-40.0f32..40.0),
            rng.random_range(-40.0f32..40.0),
        );
        let flow = FlowField::constant(16, 12, dx, dy);
        let v = warp_validity(&flow);
        for y in 0..12usize {
            for x in 0..16usize {
                let sx = x as f32 + dx;
                let sy = y as f32 + dy;
                let inside = sx >= 0.0 && sy >= 0.0 && sx <= 15.0 && sy <= 11.0;
                assert_eq!(v.get(x, y) > 0.5, inside, "({x}, {y}) d=({dx}, {dy})");
            }
        }
    });
}

#[test]
fn upsample_scales_magnitudes_linearly() {
    check_cases("upsample_scales_magnitudes_linearly", CASES, |rng| {
        let (dx, dy) = (
            rng.random_range(-4.0f32..4.0),
            rng.random_range(-4.0f32..4.0),
        );
        let s = rng.random_range(2..4usize);
        let f = FlowField::constant(8, 8, dx, dy);
        let up = f.upsample(8 * s, 8 * s);
        let (ux, uy) = up.get(4 * s, 4 * s);
        assert!((ux - dx * s as f32).abs() < 0.2 + 0.05 * dx.abs());
        assert!((uy - dy * s as f32).abs() < 0.2 + 0.05 * dy.abs());
    });
}

#[test]
fn smoothing_is_a_contraction() {
    // Box smoothing never increases the max magnitude.
    for seed in 0..200u64 {
        let mut f = FlowField::zero(10, 10);
        let mut s = seed;
        for y in 0..10 {
            for x in 0..10 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dx = ((s >> 16) as i32 % 9 - 4) as f32;
                let dy = ((s >> 32) as i32 % 9 - 4) as f32;
                f.set(x, y, dx, dy);
            }
        }
        let sm = f.smooth3();
        assert!(
            sm.mean_magnitude() <= f.mean_magnitude() * 1.25 + 1e-6,
            "seed {seed}"
        );
        // Max component magnitude never grows.
        let max_mag = |ff: &FlowField| {
            let mut m = 0.0f32;
            for y in 0..10 {
                for x in 0..10 {
                    let (a, b) = ff.get(x, y);
                    m = m.max(a.abs()).max(b.abs());
                }
            }
            m
        };
        assert!(max_mag(&sm) <= max_mag(&f) + 1e-6, "seed {seed}");
    }
}

#[test]
fn pyramid_levels_halve_until_floor() {
    check_cases("pyramid_levels_halve_until_floor", CASES, |rng| {
        let (w, h) = (rng.random_range(8..64usize), rng.random_range(8..64usize));
        let levels = rng.random_range(1..6usize);
        let f = Frame::new(w, h);
        let p = Pyramid::build(&f, levels, 4);
        for i in 1..p.num_levels() {
            assert_eq!(p.level(i).width(), p.level(i - 1).width() / 2);
            assert_eq!(p.level(i).height(), p.level(i - 1).height() / 2);
            assert!(p.level(i).width() >= 4 && p.level(i).height() >= 4);
        }
    });
}

#[test]
fn estimated_flow_is_finite_and_bounded() {
    check_cases("estimated_flow_is_finite_and_bounded", CASES, |rng| {
        let src = textured_frame(32, 24, rng.random_range(0.0f32..6.0));
        let shift = rng.random_range(0..4isize);
        let tgt = Frame::from_fn(32, 24, |x, y| {
            src.get_clamped(x as isize - shift, y as isize)
        });
        let flow = estimate(&src, &tgt, &FlowConfig::fast());
        for y in 0..24usize {
            for x in 0..32usize {
                let (dx, dy) = flow.get(x, y);
                assert!(dx.is_finite() && dy.is_finite());
                assert!(dx.abs() < 32.0 && dy.abs() < 24.0);
            }
        }
    });
}
