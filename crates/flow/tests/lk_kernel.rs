//! Bit-identity of the LK kernel against the scalar estimator it replaced.
//!
//! `oracle` below is the estimator as it was before the padded kernel:
//! per-tap `Frame::sample` calls built on `f32::floor`, a fresh
//! `FlowField` per iteration, and the clone-and-resize upsample. The only
//! edits are that sampling and resizing go through local copies of the
//! old `Frame::sample`/`Frame::resize` (the library's now use
//! `floor_exact`), and that the LK pass counts the taps whose bilinear
//! footprint leaves the kernel's padded border, so the grid provably
//! reaches the kernel's clamped fallback.
//!
//! Every case must match bit for bit at 1 and at 4 workers, and at the
//! worker count the environment sets (`NERVE_JOBS`), if another. The
//! kernel runs on the calling thread, so the worker count must not move
//! a bit. Single LK passes (`refine`) are checked against the oracle's
//! pass on the shapes and flows that steer the eight-lane groups: frames
//! too narrow for any group, every group tail, and one lane of an
//! interior group pushed past the pad.

use nerve_flow::field::FlowField;
use nerve_flow::lk::{estimate, refine, FlowConfig, PAD};
use nerve_flow::pyramid::Pyramid;
use nerve_rng::{DetRng, Rng};
use nerve_tensor::par;
use nerve_video::frame::Frame;
use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

mod oracle {
    use super::*;

    /// The pre-change `Frame::sample`.
    pub fn sample(frame: &Frame, x: f32, y: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let xi = x0 as isize;
        let yi = y0 as isize;
        let v00 = frame.get_clamped(xi, yi);
        let v01 = frame.get_clamped(xi + 1, yi);
        let v10 = frame.get_clamped(xi, yi + 1);
        let v11 = frame.get_clamped(xi + 1, yi + 1);
        v00 * (1.0 - fx) * (1.0 - fy)
            + v01 * fx * (1.0 - fy)
            + v10 * (1.0 - fx) * fy
            + v11 * fx * fy
    }

    /// The pre-change `Frame::resize`.
    fn resize(frame: &Frame, new_width: usize, new_height: usize) -> Frame {
        if (new_width, new_height) == (frame.width(), frame.height()) {
            return frame.clone();
        }
        let sx = frame.width() as f32 / new_width as f32;
        let sy = frame.height() as f32 / new_height as f32;
        Frame::from_fn(new_width, new_height, |x, y| {
            let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
            let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
            sample(frame, fx, fy)
        })
    }

    /// The pre-change `FlowField::upsample`.
    fn upsample(flow: &FlowField, new_width: usize, new_height: usize) -> FlowField {
        let (w, h) = (flow.width(), flow.height());
        let sx = new_width as f32 / w as f32;
        let sy = new_height as f32 / h as f32;
        let fx = resize(
            &Frame::from_fn(w, h, |x, y| flow.get(x, y).0),
            new_width,
            new_height,
        );
        let fy = resize(
            &Frame::from_fn(w, h, |x, y| flow.get(x, y).1),
            new_width,
            new_height,
        );
        let mut out = FlowField::zero(new_width, new_height);
        for y in 0..new_height {
            for x in 0..new_width {
                out.set(x, y, fx.get(x, y) * sx, fy.get(x, y) * sy);
            }
        }
        out
    }

    /// The pre-change `FlowField::smooth3`.
    fn smooth3(flow: &FlowField) -> FlowField {
        let mut out = FlowField::zero(flow.width(), flow.height());
        for y in 0..flow.height() {
            for x in 0..flow.width() {
                let (mut sx, mut sy, mut n) = (0.0f32, 0.0f32, 0.0f32);
                for oy in -1..=1isize {
                    for ox in -1..=1isize {
                        let xx = x as isize + ox;
                        let yy = y as isize + oy;
                        if xx >= 0
                            && yy >= 0
                            && (xx as usize) < flow.width()
                            && (yy as usize) < flow.height()
                        {
                            let (dx, dy) = flow.get(xx as usize, yy as usize);
                            sx += dx;
                            sy += dy;
                            n += 1.0;
                        }
                    }
                }
                out.set(x, y, sx / n, sy / n);
            }
        }
        out
    }

    /// The pre-change `estimate`; also returns how many taps sampled
    /// beyond the kernel's padded border.
    pub fn estimate(source: &Frame, target: &Frame, config: &FlowConfig) -> (FlowField, usize) {
        let src_pyr = Pyramid::build(source, config.levels, config.min_size);
        let tgt_pyr = Pyramid::build(target, config.levels, config.min_size);
        let levels = src_pyr.num_levels().min(tgt_pyr.num_levels());

        let coarsest = src_pyr.level(levels - 1);
        let mut flow = FlowField::zero(coarsest.width(), coarsest.height());
        let mut beyond = 0;

        for li in (0..levels).rev() {
            let src = src_pyr.level(li);
            let tgt = tgt_pyr.level(li);
            if (flow.width(), flow.height()) != (src.width(), src.height()) {
                flow = upsample(&flow, src.width(), src.height());
            }
            for _ in 0..config.iterations {
                flow = lk_iteration(src, tgt, &flow, config, &mut beyond);
                flow = smooth3(&flow);
            }
        }
        (flow, beyond)
    }

    /// True when a bilinear sample at `s ± 1` on an axis of `len` pixels
    /// reads outside a `PAD`-pixel border.
    fn beyond_pad(s: f32, len: usize) -> bool {
        let pad = PAD as isize;
        ((s - 1.0).floor() as isize) < -pad || (s + 1.0).floor() as isize + 1 >= len as isize + pad
    }

    /// The pre-change `lk_iteration`.
    pub fn lk_iteration(
        source: &Frame,
        target: &Frame,
        flow: &FlowField,
        config: &FlowConfig,
        beyond: &mut usize,
    ) -> FlowField {
        let w = source.width();
        let h = source.height();
        let r = config.window_radius as isize;
        let mut out = FlowField::zero(w, h);

        for y in 0..h {
            for x in 0..w {
                let (fx, fy) = flow.get(x, y);
                let (mut gxx, mut gxy, mut gyy) = (0.0f32, 0.0f32, 0.0f32);
                let (mut bx, mut by) = (0.0f32, 0.0f32);
                for oy in -r..=r {
                    for ox in -r..=r {
                        let tx = x as isize + ox;
                        let ty = y as isize + oy;
                        if tx < 0 || ty < 0 || tx >= w as isize || ty >= h as isize {
                            continue;
                        }
                        let sxf = tx as f32 + fx;
                        let syf = ty as f32 + fy;
                        if beyond_pad(sxf, w) || beyond_pad(syf, h) {
                            *beyond += 1;
                        }
                        let ix =
                            0.5 * (sample(source, sxf + 1.0, syf) - sample(source, sxf - 1.0, syf));
                        let iy =
                            0.5 * (sample(source, sxf, syf + 1.0) - sample(source, sxf, syf - 1.0));
                        let it = sample(source, sxf, syf) - target.get(tx as usize, ty as usize);
                        gxx += ix * ix;
                        gxy += ix * iy;
                        gyy += iy * iy;
                        bx += ix * it;
                        by += iy * it;
                    }
                }
                let lambda = 1e-4;
                let det = (gxx + lambda) * (gyy + lambda) - gxy * gxy;
                let (mut dx, mut dy) = (0.0f32, 0.0f32);
                if det > 1e-9 {
                    dx = -((gyy + lambda) * bx - gxy * by) / det;
                    dy = -(-gxy * bx + (gxx + lambda) * by) / det;
                }
                let m = config.max_step;
                out.set(x, y, fx + dx.clamp(-m, m), fy + dy.clamp(-m, m));
            }
        }
        out
    }
}

/// Bit patterns of both planes, so `-0.0`/`0.0` and NaN payloads count.
fn bits(flow: &FlowField) -> Vec<(u32, u32)> {
    (0..flow.height())
        .flat_map(|y| (0..flow.width()).map(move |x| (x, y)))
        .map(|(x, y)| {
            let (dx, dy) = flow.get(x, y);
            (dx.to_bits(), dy.to_bits())
        })
        .collect()
}

/// Asserts the kernel matches the oracle at each of `workers`; returns
/// the oracle's count of taps beyond the pad.
fn assert_bit_identical(
    name: &str,
    workers: &[usize],
    source: &Frame,
    target: &Frame,
    config: &FlowConfig,
) -> usize {
    let (want, beyond) = oracle::estimate(source, target, config);
    let want = bits(&want);
    for &workers in workers {
        par::set_workers(workers);
        let got = bits(&estimate(source, target, config));
        assert!(
            got == want,
            "{name}: kernel differs from the oracle at {workers} worker(s)"
        );
    }
    beyond
}

const SHAPES: [(usize, usize); 5] = [(53, 30), (80, 45), (106, 60), (160, 90), (64, 32)];

fn configs() -> [(&'static str, FlowConfig); 3] {
    [
        ("fast", FlowConfig::fast()),
        ("default", FlowConfig::default()),
        ("code", FlowConfig::for_point_codes()),
    ]
}

/// Content moves right/down by `(dx, dy)` pixels.
fn shift(frame: &Frame, dx: isize, dy: isize) -> Frame {
    Frame::from_fn(frame.width(), frame.height(), |x, y| {
        frame.get_clamped(x as isize - dx, y as isize - dy)
    })
}

/// One test walks the whole grid: the worker count is process-wide.
#[test]
fn estimate_is_bit_identical_to_the_scalar_oracle() {
    let ambient = par::workers();
    let workers: &[usize] = if [1, 4].contains(&ambient) {
        &[1, 4]
    } else {
        &[1, 4, ambient]
    };
    // Every category in both directions; shapes and configs cycle so the
    // 20 pairs cover all 15 shape × config combinations.
    let configs = configs();
    let mut case = 0;
    for (ci, &category) in Category::ALL.iter().enumerate() {
        for backward in [false, true] {
            let (w, h) = SHAPES[case % SHAPES.len()];
            let (cname, config) = &configs[case % configs.len()];
            let mut video =
                SyntheticVideo::new(SceneConfig::preset(category, h, w), 11 + ci as u64);
            let a = video.next_frame();
            let b = video.take_frames(2).pop().unwrap();
            let (src, tgt) = if backward { (&b, &a) } else { (&a, &b) };
            let name = format!("{category:?} {w}x{h} {cname} backward={backward}");
            assert_bit_identical(&name, workers, src, tgt, config);
            case += 1;
        }
    }

    // A binary point-code pair: thresholded consecutive frames at the
    // 128x64 code shape.
    let mut video = SyntheticVideo::new(SceneConfig::preset(Category::GamePlay, 64, 128), 5);
    let binarize = |f: &Frame| {
        let mean = f.mean();
        Frame::from_fn(f.width(), f.height(), |x, y| f32::from(f.get(x, y) > mean))
    };
    let a = binarize(&video.next_frame());
    let b = binarize(&video.next_frame());
    assert_bit_identical(
        "point codes",
        workers,
        &a,
        &b,
        &FlowConfig::for_point_codes(),
    );

    // Large translations drive border taps past the pad, onto the
    // clamped fallback.
    let texture = Frame::from_fn(106, 60, |x, y| {
        0.5 + 0.3 * ((x as f32) * 0.35).sin() * ((y as f32) * 0.28).cos()
            + 0.15 * ((x as f32 + 2.0 * y as f32) * 0.12).sin()
    });
    let mut beyond = 0;
    for (dx, dy) in [(20, 0), (-16, 12), (0, -24)] {
        for (cname, config) in &configs {
            let name = format!("shift ({dx}, {dy}) {cname}");
            beyond +=
                assert_bit_identical(&name, workers, &texture, &shift(&texture, dx, dy), config);
        }
    }
    assert!(beyond > 0, "no tap sampled beyond the {PAD}-pixel pad");
}

/// A `w × h` frame of seeded uniform samples.
fn noise(rng: &mut DetRng, w: usize, h: usize) -> Frame {
    Frame::from_data(
        w,
        h,
        (0..w * h).map(|_| rng.random_range(0.0f32..=1.0)).collect(),
    )
}

/// Asserts one `refine` pass matches the oracle's pass from `flow`;
/// returns the oracle's count of taps beyond the pad.
fn assert_refine_identical(
    name: &str,
    source: &Frame,
    target: &Frame,
    flow: &FlowField,
    config: &FlowConfig,
) -> usize {
    let mut beyond = 0;
    let want = bits(&oracle::lk_iteration(
        source,
        target,
        flow,
        config,
        &mut beyond,
    ));
    let got = bits(&refine(source, target, flow, config));
    assert!(got == want, "{name}: refine differs from the oracle's pass");
    beyond
}

/// Widths below `8 + 2r` leave no full group of eight; widths 32..=39
/// end every row on each group tail length. Each shape runs a single
/// pass from a seeded flow within the pad and a whole `estimate`.
#[test]
fn narrow_frames_and_group_tails_are_bit_identical() {
    let mut rng = DetRng::new(0x4c4b);
    for (cname, config) in configs() {
        let r = config.window_radius;
        for w in (1..8 + 2 * r).chain(32..40) {
            let h = 9;
            let (src, tgt) = (noise(&mut rng, w, h), noise(&mut rng, w, h));
            let mut flow = FlowField::zero(w, h);
            for y in 0..h {
                for x in 0..w {
                    let (dx, dy) = (
                        rng.random_range(-3.0f32..3.0),
                        rng.random_range(-3.0f32..3.0),
                    );
                    flow.set(x, y, dx, dy);
                }
            }
            assert_refine_identical(&format!("{cname} {w}x{h}"), &src, &tgt, &flow, &config);
            let want = bits(&oracle::estimate(&src, &tgt, &config).0);
            let got = bits(&estimate(&src, &tgt, &config));
            assert!(got == want, "{cname} {w}x{h}: estimate differs");
        }
    }
}

/// One lane of an interior group (lane 3 of the second group, which
/// starts at column `r + 8`) samples past the pad, on each axis and in
/// each direction; every other pixel's flow stays inside it.
#[test]
fn one_lane_past_the_pad_is_bit_identical() {
    let mut rng = DetRng::new(0x9ad);
    let (w, h) = (48, 24);
    for (cname, config) in configs() {
        let r = config.window_radius;
        let (x, y) = (r + 8 + 3, h / 2);
        let far = (w + PAD) as f32;
        for (dx, dy) in [(far, 0.0), (-far, 0.0), (0.0, far), (0.0, -far)] {
            let (src, tgt) = (noise(&mut rng, w, h), noise(&mut rng, w, h));
            let mut flow = FlowField::constant(w, h, 0.25, -0.5);
            flow.set(x, y, dx, dy);
            let name = format!("{cname} lane ({x}, {y}) flow ({dx}, {dy})");
            let beyond = assert_refine_identical(&name, &src, &tgt, &flow, &config);
            assert!(beyond > 0, "{name}: no tap sampled beyond the pad");
        }
    }
}
