//! Planar luma frames.
//!
//! The whole pipeline — codec, flow, recovery, SR — operates on the luma
//! plane, which is where PSNR/SSIM are conventionally measured and where
//! all of the paper's quality numbers live. Values are `f32` in `[0, 1]`.

/// `x.floor()`, bit for bit, without a libm call.
///
/// Baseline x86-64 has no rounding instruction, so `f32::floor` compiles
/// to an out-of-line `floorf`. Below `2^23` every `f32` with a fraction
/// truncates exactly through `i32`; stepping down for negatives and
/// copying the sign back (so `-0.0` stays `-0.0`) gives `floor`. Larger
/// magnitudes are already integers and go, with infinities and NaN, to
/// `f32::floor`.
#[inline]
pub fn floor_exact(x: f32) -> f32 {
    if x.abs() < 8_388_608.0 {
        let t = x as i32 as f32;
        let f = if t > x { t - 1.0 } else { t };
        f.copysign(x)
    } else {
        x.floor()
    }
}

/// The two pixels a bilinear sample reads along one axis, border-clamped,
/// and the weight of the second.
pub type Taps = (usize, usize, f32);

/// The [`Taps`] of a bilinear sample at `x` along an axis of `len`
/// pixels: the per-axis half of [`sample_plane`].
#[inline(always)]
fn bilinear_taps(x: f32, len: usize) -> Taps {
    let x0 = floor_exact(x);
    let xi = x0 as isize;
    let last = len as isize - 1;
    // Saturating: `+inf` floors to `isize::MAX`. Such a sample is NaN
    // whichever pixels it reads, since its fraction is `inf - inf`.
    (
        xi.clamp(0, last) as usize,
        xi.saturating_add(1).clamp(0, last) as usize,
        x - x0,
    )
}

/// Bilinear sample with border clamping of a row-major `width × height`
/// plane — [`Frame::sample`] over a borrowed buffer. A NaN result is
/// always [`f32::NAN`].
#[inline]
pub fn sample_plane(data: &[f32], width: usize, height: usize, x: f32, y: f32) -> f32 {
    sample_taps(
        data,
        width,
        bilinear_taps(x, width),
        bilinear_taps(y, height),
    )
}

/// [`sample_plane`] from the column and row taps of its coordinates,
/// such as a resize's ([`Resize::taps_x`], [`Resize::taps_y`]).
#[inline(always)]
pub fn sample_taps(data: &[f32], width: usize, (x0, x1, fx): Taps, (y0, y1, fy): Taps) -> f32 {
    let v00 = data[y0 * width + x0];
    let v01 = data[y0 * width + x1];
    let v10 = data[y1 * width + x0];
    let v11 = data[y1 * width + x1];
    let v = v00 * (1.0 - fx) * (1.0 - fy)
        + v01 * fx * (1.0 - fy)
        + v10 * (1.0 - fx) * fy
        + v11 * fx * fy;
    // Rust leaves the sign and payload of a NaN that arithmetic makes
    // unspecified: two inlined copies of this function may disagree on
    // them. One NaN for every NaN keeps every copy bit-identical.
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

/// A bilinear resize of a `width × height` plane to `new_width ×
/// new_height` (align-corners=false): where each output sample reads.
/// [`resize_plane`] runs it over a whole plane. [`Resize::reads`] gives
/// the source pixels the whole resize reads, so code that computes a
/// plane only to resize it can compute just those, and
/// [`Resize::taps_x`]/[`Resize::taps_y`] give one output sample's taps.
#[derive(Debug, Clone, Copy)]
pub struct Resize {
    width: usize,
    height: usize,
    new_width: usize,
    new_height: usize,
    sx: f32,
    sy: f32,
}

impl Resize {
    /// Panics when the plane is empty and the new size is not: such a
    /// resize has no pixel to sample.
    pub fn new(width: usize, height: usize, new_width: usize, new_height: usize) -> Self {
        assert!(
            (width > 0 && height > 0) || new_width == 0 || new_height == 0,
            "cannot resize an empty plane to {new_width}×{new_height}"
        );
        Self {
            width,
            height,
            new_width,
            new_height,
            sx: width as f32 / new_width as f32,
            sy: height as f32 / new_height as f32,
        }
    }

    /// Equal sizes: the resize copies the plane instead of sampling it.
    #[inline]
    pub fn copies(&self) -> bool {
        (self.new_width, self.new_height) == (self.width, self.height)
    }

    #[inline]
    fn source_x(&self, x: usize) -> f32 {
        ((x as f32 + 0.5) * self.sx - 0.5).max(0.0)
    }

    #[inline]
    fn source_y(&self, y: usize) -> f32 {
        ((y as f32 + 0.5) * self.sy - 0.5).max(0.0)
    }

    /// The column taps of output column `x` when the resize samples:
    /// [`sample_taps`] with them and [`Resize::taps_y`]'s is the output
    /// pixel, bit for bit.
    #[inline]
    pub fn taps_x(&self, x: usize) -> Taps {
        bilinear_taps(self.source_x(x), self.width)
    }

    /// The row taps of output row `y` when the resize samples.
    #[inline]
    pub fn taps_y(&self, y: usize) -> Taps {
        bilinear_taps(self.source_y(y), self.height)
    }

    /// The source columns and the source rows the resize reads, each
    /// ascending and without repeats: every pixel when it copies, else
    /// both taps of every output column and row, zero-weight taps
    /// included (they still carry a NaN or infinity through).
    pub fn reads(&self) -> (Vec<usize>, Vec<usize>) {
        if self.copies() {
            return ((0..self.width).collect(), (0..self.height).collect());
        }
        fn read(len: usize, taps: impl Iterator<Item = Taps>) -> Vec<usize> {
            let mut read = vec![false; len];
            for (a, b, _) in taps {
                read[a] = true;
                read[b] = true;
            }
            (0..len).filter(|&i| read[i]).collect()
        }
        (
            read(self.width, (0..self.new_width).map(|x| self.taps_x(x))),
            read(self.height, (0..self.new_height).map(|y| self.taps_y(y))),
        )
    }
}

/// Bilinear resize of a row-major `width × height` plane —
/// [`Frame::resize`] over a borrowed buffer.
pub fn resize_plane(
    data: &[f32],
    width: usize,
    height: usize,
    new_width: usize,
    new_height: usize,
) -> Vec<f32> {
    let resize = Resize::new(width, height, new_width, new_height);
    if resize.copies() {
        return data.to_vec();
    }
    let mut out = Vec::with_capacity(new_width * new_height);
    for y in 0..new_height {
        let fy = resize.source_y(y);
        for x in 0..new_width {
            out.push(sample_plane(data, width, height, resize.source_x(x), fy));
        }
    }
    out
}

/// `resize_plane(a, …)` and `resize_plane(b, …)` to `width × height`,
/// added and clamped to `[0, 1]` sample by sample, bit for bit, in one
/// pass with neither resized plane built: each output column's taps are
/// taken once per resize, and a plane already `width × height` is read
/// directly. `a` and `b` are row-major planes of `a_size` and `b_size`
/// (width, height).
pub fn resize_add_clamp01(
    a: &[f32],
    a_size: (usize, usize),
    b: &[f32],
    b_size: (usize, usize),
    (width, height): (usize, usize),
) -> Vec<f32> {
    let (ra, rb) = (
        Resize::new(a_size.0, a_size.1, width, height),
        Resize::new(b_size.0, b_size.1, width, height),
    );
    let (a_copies, b_copies) = (ra.copies(), rb.copies());
    let a_cols: Vec<Taps> = (0..width).map(|x| ra.taps_x(x)).collect();
    let b_cols: Vec<Taps> = (0..width).map(|x| rb.taps_x(x)).collect();
    let mut out = Vec::with_capacity(width * height);
    for y in 0..height {
        let (a_row, b_row) = (ra.taps_y(y), rb.taps_y(y));
        for x in 0..width {
            let va = if a_copies {
                a[y * width + x]
            } else {
                sample_taps(a, a_size.0, a_cols[x], a_row)
            };
            let vb = if b_copies {
                b[y * width + x]
            } else {
                sample_taps(b, b_size.0, b_cols[x], b_row)
            };
            out.push((va + vb).clamp(0.0, 1.0));
        }
    }
    out
}

/// A single-channel (luma) video frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Frame {
    /// A black frame.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// A frame filled with a constant luma value.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wrap an existing buffer (row-major). Panics on length mismatch.
    pub fn from_data(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "frame buffer length mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Build a frame from a generator over `(x, y)` pixel coordinates.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Border-replicated read.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.get(x, y)
    }

    /// Bilinear sample with border clamping.
    #[inline]
    pub fn sample(&self, x: f32, y: f32) -> f32 {
        sample_plane(&self.data, self.width, self.height, x, y)
    }

    /// Bilinear resize to a new size (align-corners=false convention).
    pub fn resize(&self, new_width: usize, new_height: usize) -> Frame {
        Frame {
            width: new_width,
            height: new_height,
            data: resize_plane(&self.data, self.width, self.height, new_width, new_height),
        }
    }

    /// 2x downsample by box filtering — used to build image pyramids.
    pub fn downsample_half(&self) -> Frame {
        let nw = (self.width / 2).max(1);
        let nh = (self.height / 2).max(1);
        Frame::from_fn(nw, nh, |x, y| {
            let x2 = (x * 2).min(self.width - 1);
            let y2 = (y * 2).min(self.height - 1);
            let a = self.get(x2, y2);
            let b = self.get_clamped(x2 as isize + 1, y2 as isize);
            let c = self.get_clamped(x2 as isize, y2 as isize + 1);
            let d = self.get_clamped(x2 as isize + 1, y2 as isize + 1);
            (a + b + c + d) * 0.25
        })
    }

    /// Clamp all values into `[0, 1]`.
    pub fn clamp01(&self) -> Frame {
        Frame {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|v| v.clamp(0.0, 1.0)).collect(),
        }
    }

    /// Quantize to 8-bit (round-to-nearest) — models the precision of a
    /// decoded video frame.
    pub fn to_u8(&self) -> Vec<u8> {
        self.data
            .iter()
            .map(|v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect()
    }

    /// Reconstruct from 8-bit data.
    pub fn from_u8(width: usize, height: usize, data: &[u8]) -> Frame {
        assert_eq!(data.len(), width * height, "u8 buffer length mismatch");
        Frame {
            width,
            height,
            data: data.iter().map(|&v| v as f32 / 255.0).collect(),
        }
    }

    /// Copy rows `[y0, y1)` from `src` into `self` (same dimensions).
    /// Used to overlay the correctly received part of a partially decoded
    /// frame (`I_part`) onto a recovered prediction.
    pub fn overlay_rows(&mut self, src: &Frame, y0: usize, y1: usize) {
        assert_eq!(
            (self.width, self.height),
            (src.width, src.height),
            "overlay dimension mismatch"
        );
        let y1 = y1.min(self.height);
        for y in y0..y1 {
            let row = y * self.width;
            self.data[row..row + self.width].copy_from_slice(&src.data[row..row + self.width]);
        }
    }

    /// Mean absolute difference to another frame.
    pub fn mad(&self, other: &Frame) -> f32 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let sum: f32 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        sum / self.data.len() as f32
    }

    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut f = Frame::new(4, 3);
        assert_eq!((f.width(), f.height()), (4, 3));
        f.set(3, 2, 0.5);
        assert_eq!(f.get(3, 2), 0.5);
        assert_eq!(f.data().len(), 12);
    }

    #[test]
    fn from_fn_is_row_major() {
        let f = Frame::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(f.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_data_rejects_bad_length() {
        let _ = Frame::from_data(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn sampling_interpolates_between_pixels() {
        let f = Frame::from_data(2, 1, vec![0.0, 1.0]);
        assert!((f.sample(0.5, 0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn resize_round_trip_preserves_constant() {
        let f = Frame::filled(8, 6, 0.3);
        let up = f.resize(16, 12);
        let down = up.resize(8, 6);
        assert!(down.data().iter().all(|&v| (v - 0.3).abs() < 1e-5));
    }

    #[test]
    #[should_panic(expected = "cannot resize an empty plane to 4×4")]
    fn resizing_an_empty_plane_panics_by_name() {
        let _ = Frame::new(0, 3).resize(4, 4);
    }

    #[test]
    fn empty_resizes_to_empty() {
        assert!(resize_plane(&[], 0, 0, 0, 5).is_empty());
        assert!(Frame::new(3, 2).resize(0, 0).data().is_empty());
    }

    #[test]
    fn downsample_half_averages_quads() {
        let f = Frame::from_data(2, 2, vec![0.0, 1.0, 1.0, 2.0]);
        let d = f.downsample_half();
        assert_eq!((d.width(), d.height()), (1, 1));
        assert!((d.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn u8_round_trip_error_is_within_half_step() {
        let f = Frame::from_data(1, 3, vec![0.1, 0.5, 0.9]);
        let back = Frame::from_u8(1, 3, &f.to_u8());
        for (a, b) in f.data().iter().zip(back.data().iter()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn overlay_rows_copies_only_requested_band() {
        let mut dst = Frame::filled(2, 3, 0.0);
        let src = Frame::filled(2, 3, 1.0);
        dst.overlay_rows(&src, 1, 2);
        assert_eq!(dst.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn overlay_rows_clamps_end() {
        let mut dst = Frame::filled(1, 2, 0.0);
        let src = Frame::filled(1, 2, 1.0);
        dst.overlay_rows(&src, 0, 99);
        assert_eq!(dst.data(), &[1.0, 1.0]);
    }

    #[test]
    fn mad_measures_mean_abs_difference() {
        let a = Frame::filled(2, 2, 0.5);
        let b = Frame::filled(2, 2, 0.25);
        assert!((a.mad(&b) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn clamp01_bounds_values() {
        let f = Frame::from_data(1, 3, vec![-0.5, 0.5, 1.5]);
        assert_eq!(f.clamp01().data(), &[0.0, 0.5, 1.0]);
    }
}
