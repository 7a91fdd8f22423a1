//! Dense NCHW tensors.
//!
//! The layout is always `[n, c, h, w]` with `w` fastest-varying. Single
//! images are tensors with `n == 1`; single-channel planes additionally
//! have `c == 1`. Keeping one concrete layout (instead of strides or
//! generic dimensionality) keeps every kernel in this crate simple and
//! predictable, which is what the rest of the system needs.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense 4-D `f32` tensor in NCHW layout.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: [usize; 4],
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor[{}x{}x{}x{}; mean={:.4}]",
            self.shape[0],
            self.shape[1],
            self.shape[2],
            self.shape[3],
            self.mean()
        )
    }
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self {
            shape: [n, c, h, w],
            data: vec![0.0; n * c * h * w],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(n: usize, c: usize, h: usize, w: usize, value: f32) -> Self {
        Self {
            shape: [n, c, h, w],
            data: vec![value; n * c * h * w],
        }
    }

    /// Wrap an existing buffer. Panics if the length does not match the shape.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            n * c * h * w,
            "buffer length {} does not match shape {}x{}x{}x{}",
            data.len(),
            n,
            c,
            h,
            w
        );
        Self {
            shape: [n, c, h, w],
            data,
        }
    }

    /// A single-channel image tensor (`1 x 1 x h x w`).
    pub fn from_plane(h: usize, w: usize, data: Vec<f32>) -> Self {
        Self::from_vec(1, 1, h, w, data)
    }

    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    pub fn n(&self) -> usize {
        self.shape[0]
    }

    pub fn c(&self) -> usize {
        self.shape[1]
    }

    pub fn h(&self) -> usize {
        self.shape[2]
    }

    pub fn w(&self) -> usize {
        self.shape[3]
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn idx(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(
            n < self.shape[0] && c < self.shape[1] && y < self.shape[2] && x < self.shape[3]
        );
        ((n * self.shape[1] + c) * self.shape[2] + y) * self.shape[3] + x
    }

    #[inline]
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.idx(n, c, y, x)]
    }

    #[inline]
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f32) {
        let i = self.idx(n, c, y, x);
        self.data[i] = v;
    }

    /// Read with zero padding outside the spatial extent.
    #[inline]
    pub fn get_padded(&self, n: usize, c: usize, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y as usize >= self.shape[2] || x as usize >= self.shape[3] {
            0.0
        } else {
            self.get(n, c, y as usize, x as usize)
        }
    }

    /// Read with border replication outside the spatial extent.
    #[inline]
    pub fn get_clamped(&self, n: usize, c: usize, y: isize, x: isize) -> f32 {
        let y = y.clamp(0, self.shape[2] as isize - 1) as usize;
        let x = x.clamp(0, self.shape[3] as isize - 1) as usize;
        self.get(n, c, y, x)
    }

    /// Bilinear sample at fractional coordinates with border clamping.
    pub fn sample_bilinear(&self, n: usize, c: usize, y: f32, x: f32) -> f32 {
        let y0 = y.floor();
        let x0 = x.floor();
        let fy = y - y0;
        let fx = x - x0;
        let y0i = y0 as isize;
        let x0i = x0 as isize;
        let v00 = self.get_clamped(n, c, y0i, x0i);
        let v01 = self.get_clamped(n, c, y0i, x0i + 1);
        let v10 = self.get_clamped(n, c, y0i + 1, x0i);
        let v11 = self.get_clamped(n, c, y0i + 1, x0i + 1);
        v00 * (1.0 - fy) * (1.0 - fx)
            + v01 * (1.0 - fy) * fx
            + v10 * fy * (1.0 - fx)
            + v11 * fy * fx
    }

    /// Extract one `1 x 1 x h x w` channel plane.
    pub fn channel(&self, n: usize, c: usize) -> Tensor {
        let hw = self.shape[2] * self.shape[3];
        let start = (n * self.shape[1] + c) * hw;
        Tensor::from_vec(
            1,
            1,
            self.shape[2],
            self.shape[3],
            self.data[start..start + hw].to_vec(),
        )
    }

    /// Concatenate tensors along the channel axis. All inputs must share
    /// `n`, `h`, `w`.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let [n, _, h, w] = parts[0].shape;
        let total_c: usize = parts.iter().map(|t| t.c()).sum();
        for t in parts {
            assert_eq!([t.n(), t.h(), t.w()], [n, h, w], "concat shape mismatch");
        }
        let mut out = Tensor::zeros(n, total_c, h, w);
        let hw = h * w;
        for ni in 0..n {
            let mut co = 0;
            for t in parts {
                for ci in 0..t.c() {
                    let src = (ni * t.c() + ci) * hw;
                    let dst = (ni * total_c + co) * hw;
                    out.data[dst..dst + hw].copy_from_slice(&t.data[src..src + hw]);
                    co += 1;
                }
            }
        }
        out
    }

    /// Stack tensors along the batch axis. All inputs must share
    /// `c`, `h`, `w`; the output batch is the sum of input batches.
    ///
    /// This is how the edge server's cross-session batcher coalesces
    /// per-session inference inputs into one `conv2d` call: the batched
    /// forward pass runs eight images per vector on the direct kernel
    /// and splits the batch across the worker pool, so stacking is what
    /// converts "N sessions, N small convs" into "one conv wide enough to
    /// vectorize and parallelize".
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack needs at least one tensor");
        let [_, c, h, w] = parts[0].shape;
        let total_n: usize = parts.iter().map(|t| t.n()).sum();
        for t in parts {
            assert_eq!([t.c(), t.h(), t.w()], [c, h, w], "stack shape mismatch");
        }
        let mut data = Vec::with_capacity(total_n * c * h * w);
        for t in parts {
            data.extend_from_slice(&t.data);
        }
        Tensor {
            shape: [total_n, c, h, w],
            data,
        }
    }

    /// Split a tensor's channels back into equal-width chunks.
    pub fn split_channels(&self, widths: &[usize]) -> Vec<Tensor> {
        assert_eq!(
            widths.iter().sum::<usize>(),
            self.c(),
            "split widths must cover all channels"
        );
        let mut out = Vec::with_capacity(widths.len());
        let mut c0 = 0;
        for &cw in widths {
            let mut part = Tensor::zeros(self.n(), cw, self.h(), self.w());
            let hw = self.h() * self.w();
            for n in 0..self.n() {
                for c in 0..cw {
                    let src = (n * self.c() + c0 + c) * hw;
                    let dst = (n * cw + c) * hw;
                    part.data[dst..dst + hw].copy_from_slice(&self.data[src..src + hw]);
                }
            }
            c0 += cw;
            out.push(part);
        }
        out
    }

    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise binary combination; shapes must match exactly.
    pub fn zip(&self, other: &Tensor, mut f: impl FnMut(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += alpha * other`
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Sum of absolute values (L1 norm of the flattened tensor).
    pub fn l1(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape_and_length() {
        let t = Tensor::zeros(2, 3, 4, 5);
        assert_eq!(t.shape(), [2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_wrong_length() {
        let _ = Tensor::from_vec(1, 1, 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn indexing_is_row_major_w_fastest() {
        let mut t = Tensor::zeros(1, 2, 2, 3);
        t.set(0, 1, 1, 2, 7.0);
        // offset = ((0*2+1)*2+1)*3+2 = 11
        assert_eq!(t.data()[11], 7.0);
        assert_eq!(t.get(0, 1, 1, 2), 7.0);
    }

    #[test]
    fn padded_reads_are_zero_outside() {
        let t = Tensor::full(1, 1, 2, 2, 3.0);
        assert_eq!(t.get_padded(0, 0, -1, 0), 0.0);
        assert_eq!(t.get_padded(0, 0, 0, 2), 0.0);
        assert_eq!(t.get_padded(0, 0, 1, 1), 3.0);
    }

    #[test]
    fn clamped_reads_replicate_border() {
        let t = Tensor::from_plane(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get_clamped(0, 0, -5, 0), 1.0);
        assert_eq!(t.get_clamped(0, 0, 9, 9), 4.0);
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let t = Tensor::from_plane(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        assert!((t.sample_bilinear(0, 0, 0.5, 0.5) - 1.5).abs() < 1e-6);
        assert!((t.sample_bilinear(0, 0, 0.0, 0.5) - 0.5).abs() < 1e-6);
        // Exactly on a grid point returns the value there.
        assert_eq!(t.sample_bilinear(0, 0, 1.0, 1.0), 3.0);
    }

    #[test]
    fn concat_and_split_channels_round_trip() {
        let a = Tensor::full(1, 2, 3, 3, 1.0);
        let b = Tensor::full(1, 1, 3, 3, 2.0);
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), [1, 3, 3, 3]);
        let parts = cat.split_channels(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn stack_concatenates_batches_in_order() {
        let a = Tensor::full(1, 2, 2, 2, 1.0);
        let b = Tensor::full(2, 2, 2, 2, 2.0);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), [3, 2, 2, 2]);
        assert_eq!(s.get(0, 0, 0, 0), 1.0);
        assert_eq!(s.get(1, 1, 1, 1), 2.0);
        assert_eq!(s.get(2, 0, 0, 0), 2.0);
        // Batch n of the stack is byte-identical to its source tensor.
        let hw = 2 * 2 * 2;
        assert_eq!(&s.data()[..hw], a.data());
        assert_eq!(&s.data()[hw..], b.data());
    }

    #[test]
    #[should_panic(expected = "stack shape mismatch")]
    fn stack_rejects_mismatched_planes() {
        let a = Tensor::zeros(1, 1, 2, 2);
        let b = Tensor::zeros(1, 1, 3, 2);
        let _ = Tensor::stack(&[&a, &b]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(1, 1, 1, 3, 1.0);
        let b = Tensor::from_plane(1, 3, vec![1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn channel_extraction_matches_concat_inverse() {
        let a = Tensor::from_vec(1, 2, 1, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let c1 = a.channel(0, 1);
        assert_eq!(c1.data(), &[3.0, 4.0]);
    }

    #[test]
    fn elementwise_operators() {
        let a = Tensor::from_plane(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_plane(1, 2, vec![3.0, 4.0]);
        assert_eq!((&a + &b).data(), &[4.0, 6.0]);
        assert_eq!((&b - &a).data(), &[2.0, 2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 8.0]);
    }

    #[test]
    fn norms_and_stats() {
        let t = Tensor::from_plane(1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(t.l1(), 10.0);
        assert!((t.l2() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.clamp(0.0, 2.0).data(), &[0.0, 2.0, 0.0, 2.0]);
    }
}
