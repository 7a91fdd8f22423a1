//! Eight pixels per step: the AVX2 path of the LK window.
//!
//! This module holds the crate's only `unsafe` code. It computes, lane by
//! lane, exactly what the scalar code computes for one pixel: the same
//! `floor`, `mul`, `add` and `sub` in the same order. It never uses a
//! fused multiply-add, which rounds once where the scalar code rounds
//! twice. A [`Lanes`] exists only on a CPU with AVX2; elsewhere the
//! scalar code is the whole kernel.

/// Pixels per vector step.
pub(crate) const LANES: usize = 8;

/// Proof that the running CPU has AVX2: only [`Lanes::detect`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct Lanes(Proof);

#[cfg(target_arch = "x86_64")]
type Proof = ();
#[cfg(not(target_arch = "x86_64"))]
type Proof = std::convert::Infallible;

/// The LK window sums `[gxx, gxy, gyy, bx, by]` of eight pixels, one
/// array of eight lanes per sum.
pub(crate) type WindowSums = [[f32; LANES]; 5];

impl Lanes {
    /// `Some` when the running CPU has AVX2.
    pub(crate) fn detect() -> Option<Lanes> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Lanes(()));
        }
        None
    }

    /// The LK window sums of pixels `x0..x0 + 8` of row `y`, each lane
    /// accumulated over its window in the scalar kernel's row-major order.
    ///
    /// `padded` is the source level with a [`PAD`](crate::lk::PAD)-pixel
    /// replicated border, `target` the target level, both `width ×
    /// height`; `flow_dx`/`flow_dy` hold the eight pixels' flow. Returns
    /// `None` unless the group rule holds: no lane's window is cut at the
    /// left or right edge (rows are cut alike for every lane), and every
    /// tap's bilinear footprint lies inside the padded plane.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lk_group(
        self,
        padded: &[f32],
        target: &[f32],
        width: usize,
        height: usize,
        flow_dx: &[f32; LANES],
        flow_dy: &[f32; LANES],
        x0: usize,
        y: usize,
        radius: usize,
    ) -> Option<WindowSums> {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: a `Lanes` exists only where `detect` found AVX2.
            unsafe {
                avx2::lk_group(
                    padded, target, width, height, flow_dx, flow_dy, x0, y, radius,
                )
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }
}

/// Eight-lane `floor`, as the LK groups compute it; exposed so tests can
/// check it against [`f32::floor`] on every boundary class. `None` on a
/// CPU without AVX2.
pub fn floor_lanes(x: [f32; LANES]) -> Option<[f32; LANES]> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `detect` found AVX2.
        Lanes::detect().map(|_| unsafe { avx2::floor_lanes(x) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = x;
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{WindowSums, LANES};
    use crate::lk::PAD;
    use std::arch::x86_64::*;

    /// Widest window the LK groups take (`radius` 7); wider ones run
    /// scalar.
    const MAX_TAPS: usize = 15;

    #[target_feature(enable = "avx2")]
    fn load(v: &[f32]) -> __m256 {
        let v: &[f32; LANES] = v.try_into().expect("a lane group is eight floats");
        // SAFETY: `v` is eight readable floats; the load is unaligned.
        unsafe { _mm256_loadu_ps(v.as_ptr()) }
    }

    #[target_feature(enable = "avx2")]
    fn store(v: __m256, out: &mut [f32]) {
        let out: &mut [f32; LANES] = out.try_into().expect("a lane group is eight floats");
        // SAFETY: `out` is eight writable floats; the store is unaligned.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) }
    }

    /// `x as f32` for the eight integers `x0..x0 + 8`.
    #[target_feature(enable = "avx2")]
    fn columns(x0: usize) -> __m256 {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(x0 as i32), iota))
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn floor_lanes(x: [f32; LANES]) -> [f32; LANES] {
        let mut out = [0.0; LANES];
        store(_mm256_floor_ps(load(&x)), &mut out);
        out
    }

    /// `lk::Axis` for eight lanes: the padded-plane offset, fractional
    /// weight and one minus it of the samples at `s - 1`, `s` and `s + 1`.
    #[derive(Clone, Copy)]
    struct Axis {
        index: [__m256i; 3],
        frac: [__m256; 3],
        rest: [__m256; 3],
    }

    impl Axis {
        /// Offsets are `(floor + PAD) · stride`; every lane's footprint
        /// must lie inside the padded plane, as the group rule checks.
        #[target_feature(enable = "avx2")]
        fn new(s: __m256, stride: usize) -> Axis {
            let one = _mm256_set1_ps(1.0);
            let at = [_mm256_sub_ps(s, one), s, _mm256_add_ps(s, one)];
            let (pad, stride) = (
                _mm256_set1_epi32(PAD as i32),
                _mm256_set1_epi32(stride as i32),
            );
            let mut axis = Axis {
                index: [_mm256_setzero_si256(); 3],
                frac: [_mm256_setzero_ps(); 3],
                rest: [_mm256_setzero_ps(); 3],
            };
            for (j, &v) in at.iter().enumerate() {
                let floor = _mm256_floor_ps(v);
                let frac = _mm256_sub_ps(v, floor);
                axis.frac[j] = frac;
                axis.rest[j] = _mm256_sub_ps(one, frac);
                let padded = _mm256_add_epi32(_mm256_cvttps_epi32(floor), pad);
                axis.index[j] = _mm256_mullo_epi32(padded, stride);
            }
            axis
        }
    }

    /// Whether every lane's three samples along `axis` lie one pixel
    /// apart (offsets `step` apart), so the tap's footprints share pixels.
    /// Almost always true; rounding near an integer can break it.
    #[target_feature(enable = "avx2")]
    fn adjacent(axis: &Axis, step: usize) -> bool {
        let step = _mm256_set1_epi32(step as i32);
        let near = _mm256_cmpeq_epi32(_mm256_add_epi32(axis.index[0], step), axis.index[1]);
        let far = _mm256_cmpeq_epi32(_mm256_add_epi32(axis.index[1], step), axis.index[2]);
        _mm256_movemask_epi8(_mm256_and_si256(near, far)) == -1
    }

    /// `padded[i + offset]` for every lane `i` of `index`.
    ///
    /// # Safety
    /// The CPU must have AVX2, and every lane's `i + offset` must index
    /// `padded`.
    #[target_feature(enable = "avx2")]
    unsafe fn gather(padded: &[f32], index: __m256i, offset: usize) -> __m256 {
        let index = _mm256_add_epi32(index, _mm256_set1_epi32(offset as i32));
        // SAFETY: the caller bounds every lane's index inside `padded`.
        unsafe { _mm256_i32gather_ps::<4>(padded.as_ptr(), index) }
    }

    /// `lk::bilerp`'s weighting of one footprint `[v00, v01, v10, v11]`
    /// for the tap's sample `(k, l)`.
    #[target_feature(enable = "avx2")]
    fn weigh(
        [v00, v01, v10, v11]: [__m256; 4],
        xa: &Axis,
        k: usize,
        ya: &Axis,
        l: usize,
    ) -> __m256 {
        let (fx, gx, fy, gy) = (xa.frac[k], xa.rest[k], ya.frac[l], ya.rest[l]);
        let a = _mm256_mul_ps(_mm256_mul_ps(v00, gx), gy);
        let b = _mm256_mul_ps(_mm256_mul_ps(v01, fx), gy);
        let c = _mm256_mul_ps(_mm256_mul_ps(v10, gx), fy);
        let d = _mm256_mul_ps(_mm256_mul_ps(v11, fx), fy);
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(a, b), c), d)
    }

    /// `lk::bilerp` of one tap's five samples `(2, 1)`, `(0, 1)`, `(1, 2)`,
    /// `(1, 0)` and `(1, 1)`, for eight lanes. With `shared` (both axes
    /// [`adjacent`]) the five footprints cover twelve pixels, gathered
    /// once each; otherwise each footprint takes four gathers.
    ///
    /// # Safety
    /// The CPU must have AVX2, and for each sample `(k, l)` and every lane
    /// `i` of `ya.index[l] + xa.index[k]`, `i + stride + 1 < padded.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn samples(
        padded: &[f32],
        stride: usize,
        xa: &Axis,
        ya: &Axis,
        shared: bool,
    ) -> [__m256; 5] {
        let s = stride;
        if shared {
            // Offsets from the centre sample's top-left pixel `i`: the
            // left and right footprints start at `i ∓ 1`, the upper and
            // lower at `i ∓ s`.
            let i = _mm256_sub_epi32(
                _mm256_add_epi32(ya.index[1], xa.index[1]),
                _mm256_set1_epi32(s as i32),
            );
            // SAFETY: each gather reads a pixel of one of the five
            // footprints, which the caller bounds inside `padded`; `i`
            // is shifted up one row so every offset is non-negative.
            let [up0, up1, l0, c0, c1, r1, l1, c2, c3, r3, dn0, dn1] = unsafe {
                [
                    gather(padded, i, 0),
                    gather(padded, i, 1),
                    gather(padded, i, s - 1),
                    gather(padded, i, s),
                    gather(padded, i, s + 1),
                    gather(padded, i, s + 2),
                    gather(padded, i, 2 * s - 1),
                    gather(padded, i, 2 * s),
                    gather(padded, i, 2 * s + 1),
                    gather(padded, i, 2 * s + 2),
                    gather(padded, i, 3 * s),
                    gather(padded, i, 3 * s + 1),
                ]
            };
            return [
                weigh([c1, r1, c3, r3], xa, 2, ya, 1),
                weigh([l0, c0, l1, c2], xa, 0, ya, 1),
                weigh([c2, c3, dn0, dn1], xa, 1, ya, 2),
                weigh([up0, up1, c0, c1], xa, 1, ya, 0),
                weigh([c0, c1, c2, c3], xa, 1, ya, 1),
            ];
        }
        let mut out = [_mm256_setzero_ps(); 5];
        for (v, (k, l)) in out.iter_mut().zip([(2, 1), (0, 1), (1, 2), (1, 0), (1, 1)]) {
            let i = _mm256_add_epi32(ya.index[l], xa.index[k]);
            // SAFETY: the caller bounds every lane's `i + stride + 1`
            // inside `padded`, so all four pixels of the footprint are.
            let footprint = unsafe {
                [
                    gather(padded, i, 0),
                    gather(padded, i, 1),
                    gather(padded, i, s),
                    gather(padded, i, s + 1),
                ]
            };
            *v = weigh(footprint, xa, k, ya, l);
        }
        out
    }

    /// [`super::Lanes::lk_group`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn lk_group(
        padded: &[f32],
        target: &[f32],
        w: usize,
        h: usize,
        flow_dx: &[f32; LANES],
        flow_dy: &[f32; LANES],
        x0: usize,
        y: usize,
        r: usize,
    ) -> Option<WindowSums> {
        let stride = w + 2 * PAD;
        assert_eq!(padded.len(), stride * (h + 2 * PAD), "padded plane shape");
        assert!(padded.len() <= i32::MAX as usize, "padded plane too large");
        assert_eq!(target.len(), w * h, "target plane shape");
        assert!(y < h, "row {y} outside a {h}-row level");
        let taps = 2 * r + 1;
        if x0 < r || x0 + LANES + r > w || taps > MAX_TAPS {
            return None;
        }
        let rows = y.saturating_sub(r)..=(y + r).min(h - 1);
        let (fx, fy) = (load(flow_dx), load(flow_dy));

        // The group rule. Tap coordinates grow with the tap index, and
        // rounded `+`/`-` are monotone, so a lane's lowest `s - 1` and
        // highest `s + 1` bound all its samples: checking them puts every
        // sample's floor in `-PAD..=len + PAD - 2`, and so every
        // footprint in the padded plane. NaN fails the ordered compares.
        let one = _mm256_set1_ps(1.0);
        let floor_min = _mm256_set1_ps(-(PAD as f32));
        let x_lo = _mm256_sub_ps(_mm256_add_ps(columns(x0 - r), fx), one);
        let x_hi = _mm256_add_ps(_mm256_add_ps(columns(x0 + r), fx), one);
        let y_lo = _mm256_sub_ps(_mm256_add_ps(_mm256_set1_ps(*rows.start() as f32), fy), one);
        let y_hi = _mm256_add_ps(_mm256_add_ps(_mm256_set1_ps(*rows.end() as f32), fy), one);
        let inside = _mm256_and_ps(
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(x_lo, floor_min),
                _mm256_cmp_ps::<_CMP_LT_OQ>(x_hi, _mm256_set1_ps((w + PAD - 1) as f32)),
            ),
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(y_lo, floor_min),
                _mm256_cmp_ps::<_CMP_LT_OQ>(y_hi, _mm256_set1_ps((h + PAD - 1) as f32)),
            ),
        );
        if _mm256_movemask_ps(inside) != 0xFF {
            return None;
        }

        // The first `taps` entries are the window's columns; the rest
        // only fill the arrays.
        let mut xs = [Axis::new(fx, 1); MAX_TAPS];
        let mut x_adjacent = [false; MAX_TAPS];
        for k in 0..taps {
            xs[k] = Axis::new(_mm256_add_ps(columns(x0 - r + k), fx), 1);
            x_adjacent[k] = adjacent(&xs[k], 1);
        }
        let half = _mm256_set1_ps(0.5);
        let mut sums = [_mm256_setzero_ps(); 5];
        for ty in rows {
            let ya = Axis::new(_mm256_add_ps(_mm256_set1_ps(ty as f32), fy), stride);
            let y_adjacent = adjacent(&ya, stride);
            let t_row = &target[ty * w + x0 - r..][..taps - 1 + LANES];
            for (k, xa) in xs[..taps].iter().enumerate() {
                let t = load(&t_row[k..k + LANES]);
                // SAFETY: the group rule above puts each sample's floor
                // in `-PAD..=len + PAD - 2` on both axes, so every lane's
                // offset `i` has `i + stride + 1 < padded.len()`, and
                // `padded.len() <= i32::MAX` keeps the offsets exact.
                let [a21, a01, a12, a10, a11] =
                    unsafe { samples(padded, stride, xa, &ya, x_adjacent[k] && y_adjacent) };
                let ix = _mm256_mul_ps(half, _mm256_sub_ps(a21, a01));
                let iy = _mm256_mul_ps(half, _mm256_sub_ps(a12, a10));
                let it = _mm256_sub_ps(a11, t);
                sums[0] = _mm256_add_ps(sums[0], _mm256_mul_ps(ix, ix));
                sums[1] = _mm256_add_ps(sums[1], _mm256_mul_ps(ix, iy));
                sums[2] = _mm256_add_ps(sums[2], _mm256_mul_ps(iy, iy));
                sums[3] = _mm256_add_ps(sums[3], _mm256_mul_ps(ix, it));
                sums[4] = _mm256_add_ps(sums[4], _mm256_mul_ps(iy, it));
            }
        }
        let mut out = [[0.0; LANES]; 5];
        for (sum, lanes) in sums.iter().zip(&mut out) {
            store(*sum, lanes);
        }
        Some(out)
    }
}
