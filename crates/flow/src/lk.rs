//! Coarse-to-fine iterative Lucas–Kanade.
//!
//! At each pyramid level, every pixel refines its displacement by solving
//! the 2x2 normal equations over a local window, using the current
//! estimate as the linearization point (iterative/warped LK). The flow is
//! box-smoothed between iterations for regularity, then upsampled to seed
//! the next finer level — the classical structure SpyNet mimics with
//! learned per-level CNNs.

use crate::field::FlowField;
use crate::pyramid::Pyramid;
use crate::simd::{Lanes, LANES};
use nerve_video::frame::{floor_exact, sample_plane, Frame};

/// Tuning knobs for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Pyramid levels (SpyNet uses 5 at 1080p; point codes need fewer).
    pub levels: usize,
    /// LK refinement iterations per level.
    pub iterations: usize,
    /// Window radius (window is `(2r+1)^2` pixels).
    pub window_radius: usize,
    /// Smallest pyramid dimension.
    pub min_size: usize,
    /// Clamp per-iteration updates to this many pixels (stability).
    pub max_step: f32,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            levels: 4,
            iterations: 3,
            window_radius: 2,
            min_size: 8,
            max_step: 2.0,
        }
    }
}

impl FlowConfig {
    /// Configuration tuned for 64x128 binary point codes: fewer levels
    /// (the input is already coarse), more iterations (binary inputs are
    /// noisy), wider window.
    pub fn for_point_codes() -> Self {
        Self {
            levels: 3,
            iterations: 4,
            window_radius: 3,
            min_size: 8,
            max_step: 1.5,
        }
    }

    /// A cheap configuration for latency-sensitive paths (ablation axis).
    pub fn fast() -> Self {
        Self {
            levels: 2,
            iterations: 1,
            window_radius: 1,
            min_size: 8,
            max_step: 2.0,
        }
    }

    /// Analytic FLOP count of estimating flow at `(w, h)` with this
    /// configuration. Per pixel, per iteration, each window tap costs a
    /// bilinear sample of source and two gradient samples plus the tensor
    /// accumulation — ~40 FLOPs — and the 3x3 smoothing adds ~20; summed
    /// over the pyramid (each level a quarter of the previous).
    pub fn flops(&self, w: usize, h: usize) -> u64 {
        let window = (2 * self.window_radius + 1).pow(2) as u64;
        let per_pixel = self.iterations as u64 * (window * 40 + 20);
        let mut total = 0u64;
        let (mut lw, mut lh) = (w as u64, h as u64);
        for _ in 0..self.levels {
            total += lw * lh * per_pixel;
            lw = (lw / 2).max(1);
            lh = (lh / 2).max(1);
            if lw < self.min_size as u64 || lh < self.min_size as u64 {
                break;
            }
        }
        total
    }
}

/// Replicated-border margin, in pixels, around the padded copy of each
/// source level that the kernel samples. A window tap whose bilinear
/// footprint reaches farther outside the frame takes the clamped path.
pub const PAD: usize = 8;

/// Smallest window radius whose passes use the eight-lane groups. At
/// radius 1 (`FlowConfig::fast`, the SR trunk) the groups ran the pass
/// 3.8× faster, but under co-tenant load their time rose more steeply
/// than the scalar kernel's, and the benchmark's frame rate spread from
/// run to run past its bound. Radius 2 and 3 groups rose no more than
/// the scalar kernel. Radius 1 runs the scalar pixel code, whose uncut
/// windows share their samples among their taps ([`shared_sums`]).
const MIN_GROUP_RADIUS: usize = 2;

pub use crate::simd::floor_lanes;

/// Estimate the dense flow aligning `source` to `target`:
/// `target(p) ≈ source(p + flow(p))`.
pub fn estimate(source: &Frame, target: &Frame, config: &FlowConfig) -> FlowField {
    estimate_with(source, target, config, Lanes::detect())
}

/// [`estimate`] with the vector groups on (`Some`) or off.
fn estimate_with(
    source: &Frame,
    target: &Frame,
    config: &FlowConfig,
    lanes: Option<Lanes>,
) -> FlowField {
    assert_eq!(
        (source.width(), source.height()),
        (target.width(), target.height()),
        "flow inputs must share dimensions"
    );
    let src_pyr = Pyramid::build(source, config.levels, config.min_size);
    let tgt_pyr = Pyramid::build(target, config.levels, config.min_size);
    let levels = src_pyr.num_levels().min(tgt_pyr.num_levels());

    let coarsest = src_pyr.level(levels - 1);
    let mut flow = FlowField::zero(coarsest.width(), coarsest.height());

    for li in (0..levels).rev() {
        let src = src_pyr.level(li);
        let tgt = tgt_pyr.level(li);
        if (flow.width(), flow.height()) != (src.width(), src.height()) {
            flow = flow.upsample(src.width(), src.height());
        }
        let level = Level::new(src, tgt);
        let mut updated = FlowField::zero(src.width(), src.height());
        for i in 0..config.iterations {
            if li == levels - 1 && i == 0 {
                // `flow` is still the zero field.
                lk_zero_pass(&level, &mut updated, config);
            } else {
                lk_iteration(&level, &flow, &mut updated, config, lanes);
            }
            updated.smooth3_into(&mut flow);
        }
    }
    flow
}

/// One warped-LK update of `flow` on `source`/`target` at their own
/// resolution, with no pyramid and no smoothing: the step [`estimate`]
/// repeats `config.iterations` times per level (`config.levels` and
/// `config.min_size` are unused).
pub fn refine(source: &Frame, target: &Frame, flow: &FlowField, config: &FlowConfig) -> FlowField {
    let shape = (source.width(), source.height());
    assert!(
        (target.width(), target.height()) == shape && (flow.width(), flow.height()) == shape,
        "flow inputs must share dimensions"
    );
    let mut out = FlowField::zero(shape.0, shape.1);
    lk_iteration(
        &Level::new(source, target),
        flow,
        &mut out,
        config,
        Lanes::detect(),
    );
    out
}

/// One pyramid level as the kernel reads it.
struct Level<'a> {
    width: usize,
    height: usize,
    source: &'a [f32],
    /// `source` with a [`PAD`]-pixel replicated border on every side,
    /// row stride `width + 2 * PAD`.
    padded: Vec<f32>,
    target: &'a [f32],
}

impl<'a> Level<'a> {
    fn new(source: &'a Frame, target: &'a Frame) -> Self {
        let (w, h) = (source.width(), source.height());
        let mut padded = Vec::with_capacity((w + 2 * PAD) * (h + 2 * PAD));
        if w * h > 0 {
            for py in 0..h + 2 * PAD {
                let y = py.saturating_sub(PAD).min(h - 1);
                let row = &source.data()[y * w..(y + 1) * w];
                padded.extend(std::iter::repeat_n(row[0], PAD));
                padded.extend_from_slice(row);
                padded.extend(std::iter::repeat_n(row[w - 1], PAD));
            }
        }
        Level {
            width: w,
            height: h,
            source: source.data(),
            padded,
            target: target.data(),
        }
    }
}

/// One warped-LK update over the whole field, written into `out`. It runs
/// on the calling thread: split across threads, the pass's time would
/// depend on whether another core happens to be free. With `lanes` and a
/// radius of at least [`MIN_GROUP_RADIUS`], each row's interior runs in
/// groups of eight pixels (see [`lk_row`]).
fn lk_iteration(
    level: &Level,
    flow: &FlowField,
    out: &mut FlowField,
    config: &FlowConfig,
    lanes: Option<Lanes>,
) {
    let w = level.width;
    if w == 0 {
        return;
    }
    let lanes = lanes.filter(|_| config.window_radius >= MIN_GROUP_RADIUS);
    let (flow_dx, flow_dy) = flow.planes();
    let (out_dx, out_dy) = out.planes_mut();
    let mut xs = Vec::with_capacity(2 * config.window_radius + 1);
    for (y, (row_dx, row_dy)) in out_dx.chunks_mut(w).zip(out_dy.chunks_mut(w)).enumerate() {
        let flow_row = (&flow_dx[y * w..][..w], &flow_dy[y * w..][..w]);
        lk_row(level, flow_row, y, config, lanes, &mut xs, row_dx, row_dy);
    }
}

/// One bilinear sample along an axis of the padded plane: the offset of
/// its first pixel, its fractional weight and one minus it.
type Sample = (usize, f32, f32);

/// The [`Sample`] at coordinate `v` on an axis whose padded stride is
/// `stride`; `v`'s footprint must lie inside the padded plane.
#[inline(always)]
fn padded_sample(v: f32, stride: usize) -> Sample {
    let floor = floor_exact(v);
    let frac = v - floor;
    (
        (floor as isize + PAD as isize) as usize * stride,
        frac,
        1.0 - frac,
    )
}

/// Whether the footprints of samples from `first` to `last` along an axis
/// of `len` pixels lie inside the padded plane. Each footprint spans
/// `floor(v)..=floor(v) + 1`. For an integer n, `floor(v) >= n` iff
/// `v >= n`, and the samples are ordered, so the outer two decide; NaN
/// fails and takes the clamped path.
#[inline(always)]
fn in_pad(first: f32, last: f32, len: usize) -> bool {
    first >= -(PAD as f32) && last < (len + PAD - 1) as f32
}

/// The three bilinear samples one window tap takes along one axis, at
/// `s - 1`, `s` and `s + 1`. Only `s` is set unless the samples'
/// footprint lies inside the padded plane (`in_pad`).
#[derive(Clone, Copy, Default)]
struct Axis {
    s: f32,
    in_pad: bool,
    at: [Sample; 3],
}

impl Axis {
    /// Samples along an axis of `len` pixels whose padded stride is
    /// `stride` (1 for columns, the padded row length for rows).
    #[inline]
    fn new(s: f32, len: usize, stride: usize) -> Axis {
        let at = [s - 1.0, s, s + 1.0];
        if !in_pad(at[0], at[2], len) {
            return Axis {
                s,
                ..Axis::default()
            };
        }
        Axis {
            s,
            in_pad: true,
            at: at.map(|v| padded_sample(v, stride)),
        }
    }
}

/// [`Frame::sample`]'s interpolation over the padded plane at the column
/// sample `(xi, fx, gx)` and row sample `(yi, fy, gy)`: `yi + xi` indexes
/// the top-left neighbour, `stride` is the padded row length.
#[inline(always)]
fn bilerp(padded: &[f32], stride: usize, (xi, fx, gx): Sample, (yi, fy, gy): Sample) -> f32 {
    let i = yi + xi;
    let (v00, v01) = (padded[i], padded[i + 1]);
    let (v10, v11) = (padded[i + stride], padded[i + stride + 1]);
    v00 * gx * gy + v01 * fx * gy + v10 * gx * fy + v11 * fx * fy
}

/// Row `y` of one warped-LK update; `flow` is the row's flow. With
/// `lanes`, every pixel whose window is not cut at the left or right
/// edge goes through [`Lanes::lk_group`] in a group of eight: from column
/// `r` on, and with the row's last group shifted left to end at column
/// `w - 1 - r`, overlapping the one before it. A pixel whose group breaks
/// the group rule, and every pixel with a cut window, goes through
/// [`lk_pixel`] alone, and the next group starts after it. `xs` is
/// [`lk_pixel`]'s scratch.
#[allow(clippy::too_many_arguments)]
fn lk_row(
    level: &Level,
    (flow_dx, flow_dy): (&[f32], &[f32]),
    y: usize,
    config: &FlowConfig,
    lanes: Option<Lanes>,
    xs: &mut Vec<Axis>,
    out_dx: &mut [f32],
    out_dy: &mut [f32],
) {
    let (w, h) = (level.width, level.height);
    let r = config.window_radius;
    let mut x = 0;
    while x < w {
        // The group holding `x`: it starts at `x`, except near the right
        // edge, where it ends at the last pixel whose window is not cut.
        let start = x.min(w.saturating_sub(r + LANES));
        if let Some(lanes) = lanes.filter(|_| start >= r && x + r < w) {
            let group = start..start + LANES;
            let fx: &[f32; LANES] = flow_dx[group.clone()].try_into().expect("eight pixels");
            let fy: &[f32; LANES] = flow_dy[group.clone()].try_into().expect("eight pixels");
            if let Some(sums) =
                lanes.lk_group(&level.padded, level.target, w, h, fx, fy, start, y, r)
            {
                // Lanes left of `x` overlap the previous group: done.
                for i in x - start..LANES {
                    let window = sums.map(|sum| sum[i]);
                    (out_dx[start + i], out_dy[start + i]) = solve(fx[i], fy[i], window, config);
                }
                x = group.end;
                continue;
            }
        }
        (out_dx[x], out_dy[x]) = lk_pixel(level, x, y, flow_dx[x], flow_dy[x], config, xs);
        x += 1;
    }
}

/// One warped-LK update of the zero flow, written into `out`: the first
/// pass of every [`estimate`]. Each tap then samples at its own pixel, so
/// its gradients, and the five products it adds to a window's sums, are
/// the same in every window that holds it. They are taken once per
/// pixel, and each window sums its taps' products in [`lk_pixel`]'s
/// row-major order, cut windows included: bit for bit the pass that
/// [`lk_iteration`] makes from a zero flow.
fn lk_zero_pass(level: &Level, out: &mut FlowField, config: &FlowConfig) {
    let (w, h) = (level.width, level.height);
    if w == 0 {
        return;
    }
    let stride = w + 2 * PAD;
    // `tx as f32 + 0.0` is `tx as f32`: the taps' positions at zero flow.
    let xs: Vec<Axis> = (0..w).map(|tx| Axis::new(tx as f32, w, 1)).collect();
    let mut products = Vec::with_capacity(w * h);
    for (ty, target) in level.target.chunks(w).enumerate() {
        let ya = Axis::new(ty as f32, h, stride);
        for (xa, &t) in xs.iter().zip(target) {
            products.push(tap_products(level, xa, &ya, t));
        }
    }
    let r = config.window_radius;
    let (out_dx, out_dy) = out.planes_mut();
    for y in 0..h {
        for x in 0..w {
            let cols = x.saturating_sub(r)..=(x + r).min(w - 1);
            let mut sums = [0.0f32; 5];
            for ty in y.saturating_sub(r)..=(y + r).min(h - 1) {
                for tap in &products[ty * w..][cols.clone()] {
                    accumulate(&mut sums, tap);
                }
            }
            (out_dx[y * w + x], out_dy[y * w + x]) = solve(0.0, 0.0, sums, config);
        }
    }
}

/// Pixel `(x, y)` of one warped-LK update from its flow `(fx, fy)`: the
/// scalar kernel, and the whole kernel on a CPU without AVX2. A radius-1
/// window that is not cut takes its samples once for all nine taps
/// ([`shared_sums`]) where its axes allow it.
fn lk_pixel(
    level: &Level,
    x: usize,
    y: usize,
    fx: f32,
    fy: f32,
    config: &FlowConfig,
    xs: &mut Vec<Axis>,
) -> (f32, f32) {
    let (w, h) = (level.width, level.height);
    let r = config.window_radius;
    if r == 1 && (1..w - 1).contains(&x) && (1..h - 1).contains(&y) {
        let sx = [x - 1, x, x + 1].map(|tx| tx as f32 + fx);
        let sy = [y - 1, y, y + 1].map(|ty| ty as f32 + fy);
        let sums = shared_sums(level, sx, sy, x - 1, y - 1).unwrap_or_else(|| {
            let xs = sx.map(|s| Axis::new(s, w, 1));
            tap_sums(level, &xs, x - 1, y - 1..=y + 1, fy)
        });
        return solve(fx, fy, sums, config);
    }
    xs.clear();
    xs.extend((x.saturating_sub(r)..=(x + r).min(w - 1)).map(|tx| Axis::new(tx as f32 + fx, w, 1)));
    let rows = y.saturating_sub(r)..=(y + r).min(h - 1);
    solve(
        fx,
        fy,
        tap_sums(level, xs, x.saturating_sub(r), rows, fy),
        config,
    )
}

/// A window's sums `[gxx, gxy, gyy, bx, by]`, one tap at a time: `xs`
/// holds the column samples of the window's columns from `tx0` on,
/// `rows` its rows and `fy` its pixel's vertical flow. Accumulate the
/// structure tensor G and mismatch vector b over the window, sampling
/// the source at the warped location. Out-of-frame taps are skipped: the
/// window is cut to the frame.
fn tap_sums(
    level: &Level,
    xs: &[Axis],
    tx0: usize,
    rows: std::ops::RangeInclusive<usize>,
    fy: f32,
) -> [f32; 5] {
    let (w, h) = (level.width, level.height);
    let mut sums = [0.0f32; 5];
    for ty in rows {
        let ya = Axis::new(ty as f32 + fy, h, w + 2 * PAD);
        let target = &level.target[ty * w + tx0..];
        for (xa, &t) in xs.iter().zip(target) {
            accumulate(&mut sums, &tap_products(level, xa, &ya, t));
        }
    }
    sums
}

/// A radius-1 window's sums from its 21 distinct samples, or `None` when
/// its taps' samples do not chain ([`chained`]); `sx` and `sy` are the
/// taps' columns and rows plus the pixel's flow, and `(tx0, ty0)` is the
/// window's top-left pixel. The nine taps take 45 samples at the points
/// of a 5×5 grid without its corners; each tap reads its five off the
/// grid, so the sums are [`tap_sums`]' bit for bit.
fn shared_sums(
    level: &Level,
    sx: [f32; 3],
    sy: [f32; 3],
    tx0: usize,
    ty0: usize,
) -> Option<[f32; 5]> {
    let stride = level.width + 2 * PAD;
    let cols = chained(sx, level.width, 1)?;
    let rows = chained(sy, level.height, stride)?;
    let mut grid = [[0.0f32; 5]; 5];
    for (j, (row, &ys)) in grid.iter_mut().zip(&rows).enumerate() {
        for (i, (v, &xs)) in row.iter_mut().zip(&cols).enumerate() {
            // No tap reads the corners.
            if (i == 0 || i == 4) && (j == 0 || j == 4) {
                continue;
            }
            *v = bilerp(&level.padded, stride, xs, ys);
        }
    }
    let mut sums = [0.0f32; 5];
    for l in 0..3 {
        let target = &level.target[(ty0 + l) * level.width + tx0..][..3];
        for (k, &t) in target.iter().enumerate() {
            let (i, j) = (k + 1, l + 1);
            let ix = 0.5 * (grid[j][i + 1] - grid[j][i - 1]);
            let iy = 0.5 * (grid[j + 1][i] - grid[j - 1][i]);
            let it = grid[j][i] - t;
            accumulate(&mut sums, &products(ix, iy, it));
        }
    }
    Some(sums)
}

/// The five distinct samples three consecutive radius-1 taps at `s` take
/// along an axis of `len` pixels and padded stride `stride`, in order, or
/// `None` unless their samples chain and lie inside the pad. The taps
/// sample at `s[k] - 1`, `s[k]` and `s[k] + 1`; they chain when each
/// tap's `s + 1` and `s` equal the next tap's `s` and `s - 1`, so the
/// nine samples are five with the same offsets and fractions. That fails
/// only where `tx + fx` crosses a power of two, so `(tx + fx) + 1` rounds
/// apart from `(tx + 1) + fx`.
#[inline(always)]
fn chained(s: [f32; 3], len: usize, stride: usize) -> Option<[Sample; 5]> {
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits();
    let chain = (0..2).all(|k| same(s[k] + 1.0, s[k + 1]) && same(s[k], s[k + 1] - 1.0));
    let at = [s[0] - 1.0, s[0], s[1], s[2], s[2] + 1.0];
    (chain && in_pad(at[0], at[4], len)).then(|| at.map(|v| padded_sample(v, stride)))
}

/// The five products one tap adds to its window's sums, from its
/// central-difference gradients of the warped source (`xa`, `ya`) and its
/// target pixel `t`.
#[inline(always)]
fn tap_products(level: &Level, xa: &Axis, ya: &Axis, t: f32) -> [f32; 5] {
    let (w, h) = (level.width, level.height);
    let (ix, iy, it) = if xa.in_pad && ya.in_pad {
        let at = |k: usize, l: usize| bilerp(&level.padded, w + 2 * PAD, xa.at[k], ya.at[l]);
        (
            0.5 * (at(2, 1) - at(0, 1)),
            0.5 * (at(1, 2) - at(1, 0)),
            at(1, 1) - t,
        )
    } else {
        let sample = |x: f32, y: f32| sample_plane(level.source, w, h, x, y);
        let (sxf, syf) = (xa.s, ya.s);
        (
            0.5 * (sample(sxf + 1.0, syf) - sample(sxf - 1.0, syf)),
            0.5 * (sample(sxf, syf + 1.0) - sample(sxf, syf - 1.0)),
            sample(sxf, syf) - t,
        )
    };
    products(ix, iy, it)
}

/// `[ix·ix, ix·iy, iy·iy, ix·it, iy·it]`.
#[inline(always)]
fn products(ix: f32, iy: f32, it: f32) -> [f32; 5] {
    [ix * ix, ix * iy, iy * iy, ix * it, iy * it]
}

/// Adds one tap's products to a window's sums.
#[inline(always)]
fn accumulate(sums: &mut [f32; 5], tap: &[f32; 5]) {
    for (sum, v) in sums.iter_mut().zip(tap) {
        *sum += v;
    }
}

/// The updated flow of a pixel with flow `(fx, fy)` and window sums
/// `[gxx, gxy, gyy, bx, by]`: solve `G d = -b` with Tikhonov damping for
/// flat regions, clamp the step, add it.
#[inline]
fn solve(fx: f32, fy: f32, [gxx, gxy, gyy, bx, by]: [f32; 5], config: &FlowConfig) -> (f32, f32) {
    let lambda = 1e-4;
    let det = (gxx + lambda) * (gyy + lambda) - gxy * gxy;
    let (mut dx, mut dy) = (0.0f32, 0.0f32);
    if det > 1e-9 {
        dx = -((gyy + lambda) * bx - gxy * by) / det;
        dy = -(-gxy * bx + (gxx + lambda) * by) / det;
    }
    let m = config.max_step;
    (fx + dx.clamp(-m, m), fy + dy.clamp(-m, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    /// Shift a frame by integer pixels (content moves right/down by +d).
    fn shift(frame: &Frame, dx: isize, dy: isize) -> Frame {
        Frame::from_fn(frame.width(), frame.height(), |x, y| {
            frame.get_clamped(x as isize - dx, y as isize - dy)
        })
    }

    fn textured(w: usize, h: usize) -> Frame {
        Frame::from_fn(w, h, |x, y| {
            0.5 + 0.3 * ((x as f32) * 0.35).sin() * ((y as f32) * 0.28).cos()
                + 0.15 * ((x as f32 + 2.0 * y as f32) * 0.12).sin()
        })
    }

    /// Bit patterns of both planes.
    fn bits(flow: &FlowField) -> Vec<(u32, u32)> {
        let (dx, dy) = flow.planes();
        dx.iter()
            .zip(dy)
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect()
    }

    /// The scalar pixel code on every pixel, as a CPU without AVX2 runs
    /// it, against the dispatched kernel, bit for bit: whole estimates,
    /// and single passes from seeded flows that reach past the pad and
    /// from a flow that splits a tap's samples.
    #[test]
    fn scalar_pixels_match_the_dispatched_kernel() {
        use nerve_rng::{DetRng, Rng};
        let mut rng = DetRng::new(0x1a2e5);
        let configs = [
            FlowConfig::fast(),
            FlowConfig::default(),
            FlowConfig::for_point_codes(),
        ];
        for config in &configs {
            for (w, h) in [(5, 7), (13, 9), (21, 16), (37, 11), (64, 32), (106, 60)] {
                let src = textured(w, h);
                let tgt = shift(&src, 2, -1);
                let scalar = estimate_with(&src, &tgt, config, None);
                let dispatched = estimate(&src, &tgt, config);
                assert!(bits(&scalar) == bits(&dispatched), "estimate {w}x{h}");

                let mut flow = FlowField::zero(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let reach = if rng.random_bool(0.05) { 20.0 } else { 2.0 };
                        let (dx, dy) = (
                            rng.random_range(-reach..reach),
                            rng.random_range(-reach..reach),
                        );
                        flow.set(x, y, dx, dy);
                    }
                }
                let level = Level::new(&src, &tgt);
                // A tiny negative flow makes the taps in column and row 0
                // sample at `-1e-9`, where `s - 1` rounds to `-1.0` and
                // the three samples stop being a pixel apart.
                let tiny = FlowField::constant(w, h, -1e-9, -1e-9);
                for flow in [&flow, &tiny] {
                    let mut scalar = FlowField::zero(w, h);
                    let mut dispatched = FlowField::zero(w, h);
                    lk_iteration(&level, flow, &mut scalar, config, None);
                    lk_iteration(&level, flow, &mut dispatched, config, Lanes::detect());
                    assert!(bits(&scalar) == bits(&dispatched), "pass {w}x{h}");
                }
            }
        }
    }

    /// Shared-sample radius-1 windows against the per-tap code on the
    /// same windows, bit for bit, over seeded fractional flows on a frame
    /// wide enough that some windows straddle x = 64 and x = 128, where
    /// the axes stop chaining; both outcomes must occur.
    #[test]
    fn shared_samples_match_the_per_tap_code() {
        use nerve_rng::{DetRng, Rng};
        let mut rng = DetRng::new(0x5a3e);
        let (w, h) = (150, 12);
        let src = textured(w, h);
        let tgt = shift(&src, 1, 1);
        let level = Level::new(&src, &tgt);
        let (mut shared, mut fallback) = (0, 0);
        for _ in 0..20_000 {
            let (x, y) = (rng.random_range(1..w - 1), rng.random_range(1..h - 1));
            let (fx, fy) = (
                rng.random_range(-3.0f32..3.0),
                rng.random_range(-3.0f32..3.0),
            );
            let sx = [x - 1, x, x + 1].map(|tx| tx as f32 + fx);
            let sy = [y - 1, y, y + 1].map(|ty| ty as f32 + fy);
            let xs = sx.map(|s| Axis::new(s, w, 1));
            let want = tap_sums(&level, &xs, x - 1, y - 1..=y + 1, fy).map(f32::to_bits);
            match shared_sums(&level, sx, sy, x - 1, y - 1) {
                Some(got) => {
                    assert_eq!(got.map(f32::to_bits), want, "({x}, {y}) flow ({fx}, {fy})");
                    shared += 1;
                }
                None => fallback += 1,
            }
        }
        assert!(
            shared > 0 && fallback > 0,
            "{shared} shared, {fallback} fallback"
        );
    }

    #[test]
    fn zero_motion_yields_near_zero_flow() {
        let f = textured(48, 32);
        let flow = estimate(&f, &f, &FlowConfig::default());
        assert!(
            flow.mean_magnitude() < 0.05,
            "mag {}",
            flow.mean_magnitude()
        );
    }

    #[test]
    fn recovers_global_translation() {
        let src = textured(64, 48);
        let tgt = shift(&src, 3, 1); // content moves +3,+1
        let flow = estimate(&src, &tgt, &FlowConfig::default());
        // target(p) = source(p + flow) => flow ≈ (-3, -1) in the interior.
        let truth = FlowField::constant(64, 48, -3.0, -1.0);
        let epe = flow.epe(&truth);
        assert!(epe < 1.2, "epe {epe}");
    }

    #[test]
    fn warping_with_estimated_flow_reduces_error() {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Vlogs, 48, 80), 5);
        let a = v.next_frame();
        let b = v.take_frames(2).pop().unwrap();
        let flow = estimate(&a, &b, &FlowConfig::default());
        let warped = crate::warp::warp_frame(&a, &flow);
        assert!(
            warped.mad(&b) < a.mad(&b),
            "warped MAD {} should beat reuse MAD {}",
            warped.mad(&b),
            a.mad(&b)
        );
    }

    #[test]
    fn more_iterations_do_not_hurt_translation_accuracy() {
        let src = textured(48, 48);
        let tgt = shift(&src, 2, 2);
        let mut cheap = FlowConfig::fast();
        cheap.levels = 3;
        let rich = FlowConfig::default();
        let truth = FlowField::constant(48, 48, -2.0, -2.0);
        let e_cheap = estimate(&src, &tgt, &cheap).epe(&truth);
        let e_rich = estimate(&src, &tgt, &rich).epe(&truth);
        assert!(e_rich <= e_cheap + 0.1, "rich {e_rich} vs cheap {e_cheap}");
    }

    #[test]
    fn flat_frames_produce_no_spurious_flow() {
        let a = Frame::filled(32, 32, 0.5);
        let b = Frame::filled(32, 32, 0.5);
        let flow = estimate(&a, &b, &FlowConfig::default());
        assert!(flow.mean_magnitude() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn mismatched_inputs_panic() {
        let a = Frame::new(16, 16);
        let b = Frame::new(16, 18);
        let _ = estimate(&a, &b, &FlowConfig::default());
    }

    #[test]
    fn point_code_config_handles_binary_inputs() {
        // Binary edge-like pattern shifted by 2 px.
        let src = Frame::from_fn(
            64,
            32,
            |x, y| {
                if (x / 6 + y / 5) % 2 == 0 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let tgt = shift(&src, 2, 0);
        let flow = estimate(&src, &tgt, &FlowConfig::for_point_codes());
        let truth = FlowField::constant(64, 32, -2.0, 0.0);
        assert!(flow.epe(&truth) < 1.6, "epe {}", flow.epe(&truth));
    }
}
