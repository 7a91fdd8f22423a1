//! im2col + cache-blocked GEMM convolution kernel.
//!
//! The head-sized convolutions (SR and enhancement heads, the batcher's
//! stacked inference conv) spend their lives in `conv2d`; the direct
//! loop pays index arithmetic and bounds branches per tap. This module
//! lowers the convolution to a matrix product: the weight tensor
//! `[oc, ic, k, k]` is already a row-major `oc x K` matrix
//! (`K = ic*k*k`), and [`im2col_planes`] unfolds the input into a
//! `K x P` column panel (`P = oh*ow`) with explicit zeros for padding.
//! [`gemm_rows`] then multiplies with a blocked microkernel: fixed
//! [`NR`]-wide f32 accumulator arrays over contiguous columns that LLVM
//! autovectorizes on every target, [`MR`] output rows per pass to reuse
//! each loaded column block, and [`COL_BLOCK`]-column panels to stay
//! cache-resident.
//!
//! # Bit-identity contract
//!
//! Every output element is accumulated exactly like the direct kernel:
//! start from the bias, add taps in ascending `(ic, ky, kx)` order, and
//! never split the K dimension (blocking applies to rows and columns
//! only — each element's serial sum is preserved). The padding zeros the
//! panel introduces add `±0.0` terms the direct path skips; IEEE-754
//! addition leaves every accumulator bit-unchanged under those except
//! for a literal `-0.0` bias with all-zero preceding taps, which no
//! real head produces (biases initialize to `+0.0` and SGD cannot
//! produce `-0.0` from it). The property suite in `tests/` pins
//! GEMM-vs-direct equality over a seeded shape grid, and the fleet
//! digests pin it end-to-end.
//!
//! The meter charge happens in [`crate::conv::conv2d`] before dispatch,
//! so this path is cost-invisible: same analytic MACs/bytes as direct.

use crate::conv::{image_planes, ConvSpec, PAR_MIN_MACS};
use crate::Tensor;

/// Lane width of the microkernel: one weight value broadcast against
/// `NR` contiguous output columns per step. Plain indexed f32 math over
/// a fixed-size array — autovectorizes without explicit intrinsics.
const NR: usize = 8;
/// Output-channel rows computed together, reusing each loaded column
/// block across rows.
const MR: usize = 4;
/// Columns per cache panel: `K x COL_BLOCK` floats is ~72 KiB at the
/// SR-head K of 72 — L2-resident on anything this runs on.
const COL_BLOCK: usize = 256;

/// Taps (K) below this the packing overhead beats the GEMM win — the
/// tiny-channel convs (the batcher's 2-channel probe model, 1x1
/// kernels) keep the direct path.
const MIN_K: usize = 24;
/// Minimum output positions per plane worth packing a panel for.
const MIN_PLANE: usize = 64;

/// Dispatch rule used by [`crate::conv::conv2d`]: `true` when a conv
/// with this spec and `oh x ow` output planes runs the GEMM kernel,
/// `false` when it runs the direct one.
pub fn eligible(spec: ConvSpec, oh: usize, ow: usize) -> bool {
    spec.in_channels * spec.kernel * spec.kernel >= MIN_K && oh * ow >= MIN_PLANE
}

/// Forward convolution pinned to the GEMM kernel. Charges the same
/// analytic cost as [`crate::conv::conv2d`]; used by benches and the
/// GEMM-vs-direct bit-identity tests.
pub fn conv2d_gemm(input: &Tensor, weight: &Tensor, bias: &[f32], spec: ConvSpec) -> Tensor {
    assert_eq!(input.c(), spec.in_channels, "input channels mismatch");
    assert_eq!(
        weight.shape(),
        [
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel
        ],
        "weight shape mismatch"
    );
    assert_eq!(bias.len(), spec.out_channels, "bias length mismatch");
    let (oh, ow) = spec.out_size(input.h(), input.w());
    let mut out = Tensor::zeros(input.n(), spec.out_channels, oh, ow);
    if out.data().is_empty() {
        return out;
    }
    let (macs, bytes) = spec.forward_work(input.n(), input.h(), input.w());
    crate::meter::add_work(macs, bytes);
    conv2d_gemm_into(input, weight, bias, spec, &mut out, macs);
    out
}

/// GEMM kernel over a pre-validated, pre-charged output tensor.
///
/// Parallel split mirrors the direct path's determinism argument: each
/// output value is computed independently by exactly one worker, so any
/// partitioning yields identical bits. A single image shares one column
/// panel and splits output-channel rows; a batch splits whole images so
/// each worker packs its own panel.
pub(crate) fn conv2d_gemm_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: ConvSpec,
    out: &mut Tensor,
    macs: u64,
) {
    let (oh, ow) = (out.h(), out.w());
    let n = input.n();
    let oc = spec.out_channels;
    let k_len = spec.in_channels * spec.kernel * spec.kernel;
    let plane_len = oh * ow;
    let workers = crate::par::workers();
    let par = workers > 1 && !crate::par::in_pool() && macs >= PAR_MIN_MACS;

    if par && n == 1 {
        let mut col = vec![0.0f32; k_len * plane_len];
        im2col_image(input, 0, spec, oh, ow, &mut col);
        let per = oc.div_ceil(workers.min(oc));
        let col = &col;
        std::thread::scope(|s| {
            for (i, chunk) in out.data_mut().chunks_mut(per * plane_len).enumerate() {
                s.spawn(move || {
                    let _in_pool = crate::par::PoolGuard::new();
                    let rows = chunk.len() / plane_len;
                    gemm_rows(weight, bias, col, k_len, plane_len, i * per, rows, chunk);
                });
            }
        });
    } else if par {
        let per = n.div_ceil(workers.min(n));
        std::thread::scope(|s| {
            for (i, chunk) in out.data_mut().chunks_mut(per * oc * plane_len).enumerate() {
                s.spawn(move || {
                    let _in_pool = crate::par::PoolGuard::new();
                    let mut col = vec![0.0f32; k_len * plane_len];
                    for (j, img) in chunk.chunks_mut(oc * plane_len).enumerate() {
                        im2col_image(input, i * per + j, spec, oh, ow, &mut col);
                        gemm_rows(weight, bias, &col, k_len, plane_len, 0, oc, img);
                    }
                });
            }
        });
    } else {
        let mut col = vec![0.0f32; k_len * plane_len];
        for (ni, img) in out.data_mut().chunks_mut(oc * plane_len).enumerate() {
            im2col_image(input, ni, spec, oh, ow, &mut col);
            gemm_rows(weight, bias, &col, k_len, plane_len, 0, oc, img);
        }
    }
}

/// Unfold image `n` of a tensor into the `K x P` column panel.
fn im2col_image(input: &Tensor, n: usize, spec: ConvSpec, oh: usize, ow: usize, col: &mut [f32]) {
    let planes = image_planes(input, n);
    im2col_planes(&planes, input.h(), input.w(), spec, oh, ow, col);
}

/// Unfold a set of `h x w` channel planes into the `K x P` column panel:
/// row `(ic*k + ky)*k + kx`, column `oy*ow + ox`, value
/// `plane[ic][oy*stride - pad + ky][ox*stride - pad + kx]` with explicit
/// zeros where the window leaves the input. Stride-1 rows reduce to one
/// `copy_from_slice` of the valid span. Shared with
/// `conv::conv_image`, which takes borrowed planes rather than a
/// `Tensor` (the fused head's input and hidden planes).
pub(crate) fn im2col_planes(
    planes: &[&[f32]],
    h: usize,
    w: usize,
    spec: ConvSpec,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    let plane_len = oh * ow;
    let pad = spec.pad as isize;
    let stride = spec.stride;
    let mut row = 0usize;
    for plane in planes {
        for ky in 0..spec.kernel {
            for kx in 0..spec.kernel {
                let dst = &mut col[row * plane_len..(row + 1) * plane_len];
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad;
                    let drow = &mut dst[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        drow.fill(0.0);
                        continue;
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    if stride == 1 {
                        // ix = ox + kx - pad: a single contiguous valid
                        // span, zeros on both flanks.
                        let shift = kx as isize - pad;
                        let lo = (-shift).clamp(0, ow as isize) as usize;
                        let hi = ((w as isize - shift).clamp(0, ow as isize) as usize).max(lo);
                        drow[..lo].fill(0.0);
                        drow[hi..].fill(0.0);
                        if lo < hi {
                            let s0 = (lo as isize + shift) as usize;
                            drow[lo..hi].copy_from_slice(&src[s0..s0 + (hi - lo)]);
                        }
                    } else {
                        for (ox, d) in drow.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad;
                            *d = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                src[ix as usize]
                            };
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Multiply weight rows `[oc0, oc0+rows)` against a column panel,
/// writing `rows` contiguous output planes into `out`. Blocked over
/// [`COL_BLOCK`]-column panels and [`MR`]-row strips; the K loop of
/// every element stays whole and ordered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows(
    weight: &Tensor,
    bias: &[f32],
    col: &[f32],
    k_len: usize,
    plane_len: usize,
    oc0: usize,
    rows: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), rows * plane_len);
    let wdata = weight.data();
    let mut pb = 0;
    while pb < plane_len {
        let pe = (pb + COL_BLOCK).min(plane_len);
        let mut r = 0;
        while r < rows {
            let rn = (rows - r).min(MR);
            micro_panel(
                wdata,
                bias,
                col,
                k_len,
                plane_len,
                oc0 + r,
                rn,
                pb,
                pe,
                &mut out[r * plane_len..(r + rn) * plane_len],
            );
            r += rn;
        }
        pb = pe;
    }
}

/// Compute `rn <= MR` output rows over columns `[pb, pe)`. `out` holds
/// the `rn` planes contiguously (row-local indexing).
#[allow(clippy::too_many_arguments)]
fn micro_panel(
    wdata: &[f32],
    bias: &[f32],
    col: &[f32],
    k_len: usize,
    plane_len: usize,
    oc: usize,
    rn: usize,
    pb: usize,
    pe: usize,
    out: &mut [f32],
) {
    let mut wrows: [&[f32]; MR] = [&[]; MR];
    for (i, wr) in wrows.iter_mut().enumerate().take(rn) {
        *wr = &wdata[(oc + i) * k_len..(oc + i + 1) * k_len];
    }
    let mut p = pb;
    while p + NR <= pe {
        let mut acc = [[0.0f32; NR]; MR];
        for (i, a) in acc.iter_mut().enumerate().take(rn) {
            *a = [bias[oc + i]; NR];
        }
        for k in 0..k_len {
            let c: &[f32; NR] = col[k * plane_len + p..k * plane_len + p + NR]
                .try_into()
                .unwrap();
            for i in 0..rn {
                let a = wrows[i][k];
                for (l, cv) in acc[i].iter_mut().zip(c) {
                    *l += a * cv;
                }
            }
        }
        for (i, lane) in acc.iter().enumerate().take(rn) {
            out[i * plane_len + p..i * plane_len + p + NR].copy_from_slice(lane);
        }
        p += NR;
    }
    // Column tail: scalar, same per-element K order.
    for p in p..pe {
        for i in 0..rn {
            let mut a = bias[oc + i];
            for (k, wv) in wrows[i].iter().enumerate() {
                a += col[k * plane_len + p] * wv;
            }
            out[i * plane_len + p] = a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_direct;

    fn fill(seed: u32, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn gemm_matches_direct_bitwise_on_head_shape() {
        // The SR-head second conv: 8 -> 16 channels, 3x3 same.
        let spec = ConvSpec::same(8, 16, 3);
        let input = Tensor::from_vec(1, 8, 24, 40, fill(7, 8 * 24 * 40));
        let weight = Tensor::from_vec(16, 8, 3, 3, fill(11, 16 * 8 * 9));
        let bias = fill(13, 16);
        let direct = conv2d_direct(&input, &weight, &bias, spec);
        let gemm = conv2d_gemm(&input, &weight, &bias, spec);
        assert_eq!(direct.data(), gemm.data());
    }

    #[test]
    fn gemm_matches_direct_with_stride_and_batch() {
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input = Tensor::from_vec(3, 3, 17, 23, fill(17, 3 * 3 * 17 * 23));
        let weight = Tensor::from_vec(5, 3, 3, 3, fill(19, 5 * 3 * 9));
        let bias = fill(23, 5);
        let direct = conv2d_direct(&input, &weight, &bias, spec);
        let gemm = conv2d_gemm(&input, &weight, &bias, spec);
        assert_eq!(direct.shape(), gemm.shape());
        assert_eq!(direct.data(), gemm.data());
    }

    #[test]
    fn parallel_gemm_is_bit_identical_to_serial() {
        let _guard = crate::par::test_lock();
        let spec = ConvSpec::same(8, 4, 3);
        // Crosses PAR_MIN_MACS both as single image (row split) and as a
        // batch (image split).
        for n in [1usize, 3] {
            let input = Tensor::from_vec(n, 8, 64, 64, fill(29, n * 8 * 64 * 64));
            let weight = Tensor::from_vec(4, 8, 3, 3, fill(31, 4 * 8 * 9));
            let bias = vec![0.05, -0.1, 0.2, 0.0];
            let prev = crate::par::workers();
            crate::par::set_workers(1);
            let serial = conv2d_gemm(&input, &weight, &bias, spec);
            crate::par::set_workers(4);
            let parallel = conv2d_gemm(&input, &weight, &bias, spec);
            crate::par::set_workers(prev);
            assert_eq!(serial.data(), parallel.data(), "n={n}");
        }
    }

    #[test]
    fn dispatch_keeps_tiny_channels_direct() {
        // The batcher's 2-channel probe model: K = 18 < MIN_K.
        assert!(!eligible(ConvSpec::same(2, 4, 3), 8, 16));
        // Head shapes go through GEMM.
        assert!(eligible(ConvSpec::same(3, 8, 3), 24, 40));
        assert!(eligible(ConvSpec::same(8, 16, 3), 24, 40));
        // Big plane but single-tap probe stays direct.
        assert!(!eligible(ConvSpec::same(1, 1, 1), 64, 64));
        // Head taps but a sub-minimum plane stays direct.
        assert!(!eligible(ConvSpec::same(8, 16, 3), 4, 8));
    }
}
