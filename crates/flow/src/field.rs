//! Dense displacement fields.

use nerve_video::frame::{resize_plane, sample_plane};

/// A dense per-pixel displacement field `(dx, dy)` in pixels.
///
/// `flow(p)` maps a pixel in the field's own grid to an offset into some
/// source image (see the crate docs for the warping convention).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowField {
    width: usize,
    height: usize,
    dx: Vec<f32>,
    dy: Vec<f32>,
}

impl FlowField {
    /// The zero (identity) flow.
    pub fn zero(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            dx: vec![0.0; width * height],
            dy: vec![0.0; width * height],
        }
    }

    /// A constant (global translation) flow.
    pub fn constant(width: usize, height: usize, dx: f32, dy: f32) -> Self {
        Self {
            width,
            height,
            dx: vec![dx; width * height],
            dy: vec![dy; width * height],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> (f32, f32) {
        let i = y * self.width + x;
        (self.dx[i], self.dy[i])
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, dx: f32, dy: f32) {
        let i = y * self.width + x;
        self.dx[i] = dx;
        self.dy[i] = dy;
    }

    /// The `dx` and `dy` planes, row-major.
    pub(crate) fn planes(&self) -> (&[f32], &[f32]) {
        (&self.dx, &self.dy)
    }

    pub(crate) fn planes_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.dx, &mut self.dy)
    }

    /// Bilinear sample of the field at fractional coordinates.
    pub fn sample(&self, x: f32, y: f32) -> (f32, f32) {
        let (w, h) = (self.width, self.height);
        (
            sample_plane(&self.dx, w, h, x, y),
            sample_plane(&self.dy, w, h, x, y),
        )
    }

    /// Upsample to a new grid, scaling displacement magnitudes by the
    /// size ratio (a half-resolution flow of 1 px is a 2 px flow at full
    /// resolution).
    pub fn upsample(&self, new_width: usize, new_height: usize) -> FlowField {
        let sx = new_width as f32 / self.width as f32;
        let sy = new_height as f32 / self.height as f32;
        let scaled = |plane: &[f32], s: f32| {
            let mut out = resize_plane(plane, self.width, self.height, new_width, new_height);
            out.iter_mut().for_each(|v| *v *= s);
            out
        };
        FlowField {
            width: new_width,
            height: new_height,
            dx: scaled(&self.dx, sx),
            dy: scaled(&self.dy, sy),
        }
    }

    /// 3x3 box smoothing — the regularizer between LK iterations.
    pub fn smooth3(&self) -> FlowField {
        let mut out = FlowField::zero(self.width, self.height);
        self.smooth3_into(&mut out);
        out
    }

    /// [`FlowField::smooth3`] into a field of the same shape.
    pub(crate) fn smooth3_into(&self, out: &mut FlowField) {
        assert_eq!((self.width, self.height), (out.width, out.height));
        for y in 0..self.height {
            for x in 0..self.width {
                let (mut sx, mut sy, mut n) = (0.0f32, 0.0f32, 0.0f32);
                for oy in -1..=1isize {
                    for ox in -1..=1isize {
                        let xx = x as isize + ox;
                        let yy = y as isize + oy;
                        if xx >= 0
                            && yy >= 0
                            && (xx as usize) < self.width
                            && (yy as usize) < self.height
                        {
                            let (dx, dy) = self.get(xx as usize, yy as usize);
                            sx += dx;
                            sy += dy;
                            n += 1.0;
                        }
                    }
                }
                out.set(x, y, sx / n, sy / n);
            }
        }
    }

    /// Mean endpoint error against another field (for tests with known
    /// ground truth).
    pub fn epe(&self, other: &FlowField) -> f32 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let mut total = 0.0f32;
        for i in 0..self.dx.len() {
            let ex = self.dx[i] - other.dx[i];
            let ey = self.dy[i] - other.dy[i];
            total += (ex * ex + ey * ey).sqrt();
        }
        total / self.dx.len() as f32
    }

    /// Mean displacement magnitude.
    pub fn mean_magnitude(&self) -> f32 {
        let mut total = 0.0f32;
        for i in 0..self.dx.len() {
            total += (self.dx[i] * self.dx[i] + self.dy[i] * self.dy[i]).sqrt();
        }
        total / self.dx.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_rng::{check_cases, Rng};
    use nerve_video::frame::Frame;

    #[test]
    fn sample_is_bitwise_the_frame_sampler_on_each_plane() {
        check_cases("flow_field_sample", 64, |rng| {
            let (w, h) = (rng.random_range(1..12usize), rng.random_range(1..12usize));
            let mut f = FlowField::zero(w, h);
            for y in 0..h {
                for x in 0..w {
                    f.set(
                        x,
                        y,
                        rng.random_range(-4.0f32..4.0),
                        rng.random_range(-4.0f32..4.0),
                    );
                }
            }
            let dx = Frame::from_data(w, h, f.dx.clone());
            let dy = Frame::from_data(w, h, f.dy.clone());
            // Coordinates reach well past every border.
            for _ in 0..32 {
                let x = rng.random_range(-8.0f32..w as f32 + 8.0);
                let y = rng.random_range(-8.0f32..h as f32 + 8.0);
                let (sx, sy) = f.sample(x, y);
                assert_eq!(sx.to_bits(), dx.sample(x, y).to_bits(), "dx at ({x}, {y})");
                assert_eq!(sy.to_bits(), dy.sample(x, y).to_bits(), "dy at ({x}, {y})");
            }
        });
    }

    #[test]
    fn zero_flow_has_zero_magnitude() {
        let f = FlowField::zero(4, 4);
        assert_eq!(f.mean_magnitude(), 0.0);
    }

    #[test]
    fn constant_flow_reports_value() {
        let f = FlowField::constant(3, 3, 2.0, -1.0);
        assert_eq!(f.get(1, 1), (2.0, -1.0));
        assert!((f.mean_magnitude() - (5.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn upsample_doubles_magnitude() {
        let f = FlowField::constant(4, 4, 1.0, 0.5);
        let up = f.upsample(8, 8);
        let (dx, dy) = up.get(4, 4);
        assert!((dx - 2.0).abs() < 1e-5);
        assert!((dy - 1.0).abs() < 1e-5);
    }

    #[test]
    fn smooth_preserves_constant_field() {
        let f = FlowField::constant(5, 5, 1.5, -0.5);
        let s = f.smooth3();
        for y in 0..5 {
            for x in 0..5 {
                let (dx, dy) = s.get(x, y);
                assert!((dx - 1.5).abs() < 1e-6);
                assert!((dy + 0.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn smooth_reduces_isolated_spike() {
        let mut f = FlowField::zero(5, 5);
        f.set(2, 2, 9.0, 0.0);
        let s = f.smooth3();
        let (dx, _) = s.get(2, 2);
        assert!(dx < 9.0 / 8.0 + 1e-5);
    }

    #[test]
    fn epe_zero_for_identical() {
        let f = FlowField::constant(4, 4, 1.0, 1.0);
        assert_eq!(f.epe(&f.clone()), 0.0);
    }

    #[test]
    fn epe_measures_difference() {
        let a = FlowField::zero(2, 2);
        let b = FlowField::constant(2, 2, 3.0, 4.0);
        assert!((a.epe(&b) - 5.0).abs() < 1e-6);
    }
}
