//! 2-D convolution with full backpropagation.
//!
//! This is the workhorse of both the recovery and SR heads. One direct
//! kernel streams every output as the bias followed by its in-frame taps
//! in ascending `(ic, ky, kx)` order, each a separate multiply and add,
//! with padded taps skipped rather than added as zeros. [`conv2d`] runs
//! it in one layout for every input, the **output-channel lanes**: the
//! weights are transposed to `[ic][ky][kx][lane]` and eight output
//! channels (then a block of four) fill the lanes of a vector, with a few
//! pixels of accumulators held in registers across every tap. Leftover
//! channels, fewer than four, run on the **plane** loop, one (image,
//! out-channel) plane at a time. [`conv2d_with`] can also run the plane
//! loop alone ([`Kernel::Plane`]): the reference that the bench and the
//! bit-identity suites compare the lanes against.
//!
//! Both layouts give each output the same float ops in the same order,
//! so they are bit-identical, and [`conv2d`] reports the same analytic
//! cost to the meter on the caller thread *before* any worker split —
//! traces and fleet digests stay byte-identical at any `--jobs` count.
//!
//! Padding is symmetric zero padding ("same" output size when
//! `stride == 1` and `pad == k/2`).

use crate::Tensor;
use std::ops::Range;

/// Immutable description of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvSpec {
    /// A `k x k`, stride-1, same-padding convolution.
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            pad: kernel / 2,
        }
    }

    /// Output spatial size for a given input size.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when the spec cannot produce any
    /// output for this input — `kernel > h + 2*pad` (or the same for `w`),
    /// or `stride == 0`. Use [`ConvSpec::checked_out_size`] to handle
    /// these cases without panicking. (The unchecked subtraction this
    /// replaces underflowed: panic in debug, a wrapped huge size in
    /// release.)
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        self.checked_out_size(h, w).unwrap_or_else(|| {
            panic!(
                "ConvSpec::out_size: no valid output for {h}x{w} input \
                 (kernel {} stride {} pad {}): kernel must not exceed the \
                 padded input and stride must be nonzero",
                self.kernel, self.stride, self.pad
            )
        })
    }

    /// [`ConvSpec::out_size`] with checked arithmetic: `None` when the
    /// kernel exceeds the padded input in either dimension or the stride
    /// is zero.
    pub fn checked_out_size(&self, h: usize, w: usize) -> Option<(usize, usize)> {
        if self.stride == 0 {
            return None;
        }
        let oh = (h.checked_add(2 * self.pad)?).checked_sub(self.kernel)? / self.stride + 1;
        let ow = (w.checked_add(2 * self.pad)?).checked_sub(self.kernel)? / self.stride + 1;
        Some((oh, ow))
    }

    /// Number of learnable parameters (weights + biases). Computed in
    /// `u64` so 32-bit targets cannot overflow the product.
    pub fn params(&self) -> u64 {
        self.out_channels as u64 * self.in_channels as u64 * self.kernel as u64 * self.kernel as u64
            + self.out_channels as u64
    }

    /// Multiply-accumulate count for an input of the given spatial size
    /// (the convention used by the paper's Table 1 FLOPS column: one MAC
    /// = two FLOPs, and we report MACs * 2).
    ///
    /// A degenerate spec (zero stride, kernel exceeding the padded
    /// input) reports 0 instead of panicking, so cost reporting can run
    /// over arbitrary configurations mid-flight.
    pub fn flops(&self, h: usize, w: usize) -> u64 {
        let Some((oh, ow)) = self.checked_out_size(h, w) else {
            return 0;
        };
        2 * self.out_channels as u64
            * oh as u64
            * ow as u64
            * self.in_channels as u64
            * self.kernel as u64
            * self.kernel as u64
    }

    /// Analytic forward-pass cost — `(MACs, bytes moved)` — for an
    /// `[n, in_c, h, w]` input. These are the exact values every forward
    /// path (every layout, fused) reports to the cost meter on the
    /// caller thread, which is what keeps traces byte-identical across
    /// kernels and worker counts. Computed in `u64`: the old `usize`
    /// arithmetic overflowed on 32-bit targets for large shapes,
    /// silently flipping the parallel-split decision and mis-charging
    /// the meter. Degenerate specs report `(0, 0)`.
    pub fn forward_work(&self, n: usize, h: usize, w: usize) -> (u64, u64) {
        let Some((oh, ow)) = self.checked_out_size(h, w) else {
            return (0, 0);
        };
        let planes = n as u64 * self.out_channels as u64;
        let plane_len = oh as u64 * ow as u64;
        let taps = self.in_channels as u64 * self.kernel as u64 * self.kernel as u64;
        let macs = planes * plane_len * taps;
        let input_len = n as u64 * self.in_channels as u64 * h as u64 * w as u64;
        let weight_len = self.out_channels as u64 * taps;
        let bytes = 4 * (input_len + weight_len + self.out_channels as u64 + planes * plane_len);
        (macs, bytes)
    }

    /// Analytic backward-pass cost — `(MACs, bytes moved)` — for an
    /// `[n, in_c, h, w]` input: two MACs per tap (weight-gradient and
    /// input-gradient accumulation) plus one add per output position for
    /// the bias gradient, and the six buffers touched. Data-independent
    /// by construction (the sparse zero-gradient skip in the kernel is a
    /// wall-clock optimization only), so the charge is jobs-invariant.
    pub fn backward_work(&self, n: usize, h: usize, w: usize) -> (u64, u64) {
        let Some((oh, ow)) = self.checked_out_size(h, w) else {
            return (0, 0);
        };
        let planes = n as u64 * self.out_channels as u64;
        let plane_len = oh as u64 * ow as u64;
        let taps = self.in_channels as u64 * self.kernel as u64 * self.kernel as u64;
        let macs = planes * plane_len * (2 * taps + 1);
        let input_len = n as u64 * self.in_channels as u64 * h as u64 * w as u64;
        let weight_len = self.out_channels as u64 * taps;
        let bytes = 4
            * (planes * plane_len // grad_output read
                + 2 * input_len // input read + grad_input written
                + 2 * weight_len // weight read + grad_weight written
                + self.out_channels as u64); // grad_bias written
        (macs, bytes)
    }
}

/// Below this many multiply-accumulates the scoped-thread split costs
/// more than it saves and the forward pass stays serial.
pub(crate) const PAR_MIN_MACS: u64 = 1 << 20;

/// Validate shapes and allocate the output tensor. Shared by every
/// forward entry point.
fn prepare_forward(input: &Tensor, weight: &Tensor, bias: &[f32], spec: ConvSpec) -> Tensor {
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
    Tensor::zeros(input.n(), spec.out_channels, oh, ow)
}

/// Forward convolution.
///
/// `input` is `[n, in_c, h, w]`, `weight` is `[out_c, in_c, k, k]`, `bias`
/// has `out_c` elements. Returns `[n, out_c, oh, ow]`.
///
/// Runs the output-channel lanes ([`Kernel::ChannelLanes`]) on every
/// input, one image at a time, whatever the batch or plane size. The
/// analytic cost is charged here, on the caller thread, before any runs.
///
/// Large inputs are split across the shared worker pool ([`crate::par`]).
/// Every output value is computed independently by exactly one worker,
/// so the output is bit-identical at every worker count; nested calls
/// from inside a pool worker stay serial.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &[f32], spec: ConvSpec) -> Tensor {
    conv2d_with(Kernel::ChannelLanes, input, weight, bias, spec)
}

/// Lanes per vector: an output-channel block holds this many channels
/// (then one block of half as many).
pub const LANES: usize = 8;

/// The layouts of the direct kernel. Each gives every output the same
/// float ops in the same order, so both are bit-identical; they differ
/// in what fills a vector's lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One (image, out-channel) plane at a time ([`conv_plane`]): the
    /// reference the lanes are checked and timed against.
    Plane,
    /// One image at a time, [`LANES`] (then four) output channels per
    /// vector ([`conv_channel_block`]); leftover channels run as planes.
    /// What [`conv2d`] runs.
    ChannelLanes,
}

/// Forward convolution pinned to one layout. Charges the same analytic
/// cost as [`conv2d`] and returns the same bits; used by benches and the
/// layout bit-identity tests.
///
/// Each layout cuts the output into units: (image, out-channel) planes
/// or (image, channel block) pairs. The units split across the worker
/// pool in contiguous ranges.
pub fn conv2d_with(
    kernel: Kernel,
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: ConvSpec,
) -> Tensor {
    let mut out = prepare_forward(input, weight, bias, spec);
    if out.data().is_empty() {
        return out;
    }
    // Meter hook: report the analytic cost on the caller's thread,
    // before the worker split, so attribution is jobs-invariant.
    let (macs, bytes) = spec.forward_work(input.n(), input.h(), input.w());
    crate::meter::add_work(macs, bytes);
    let (h, w) = (input.h(), input.w());
    let n = input.n();
    let oc_n = spec.out_channels;
    let plane_len = out.h() * out.w();
    // Each image's channel planes, borrowed once rather than per unit.
    let images: Vec<Vec<&[f32]>> = (0..n).map(|n| image_planes(input, n)).collect();
    match kernel {
        Kernel::Plane => {
            for_unit_ranges(
                out.data_mut(),
                n * oc_n,
                |_| plane_len,
                macs,
                |units, out| {
                    for (p, out) in units.zip(out.chunks_mut(plane_len)) {
                        conv_plane(&images[p / oc_n], h, w, weight, bias, spec, p % oc_n, out);
                    }
                },
            );
        }
        Kernel::ChannelLanes => {
            let blocks = channel_blocks(oc_n);
            let wt = lane_weights(weight, &blocks);
            let nb = blocks.len();
            let unit_len = |u: usize| blocks[u % nb].len() * plane_len;
            for_unit_ranges(out.data_mut(), n * nb, unit_len, macs, |units, mut out| {
                for u in units {
                    let block = blocks[u % nb].clone();
                    let (dst, rest) = out.split_at_mut(unit_len(u));
                    let planes = &images[u / nb];
                    run_channel_block(planes, h, w, weight, &wt, bias, spec, block, dst);
                    out = rest;
                }
            });
        }
    }
    out
}

/// Run `f(units, chunk)` over `out` cut into `units` consecutive units,
/// unit `u` being `unit_len(u)` floats, where `chunk` holds the units of
/// the range `units`. Large calls from outside the pool run one
/// contiguous range of units per scoped thread; the rest run serially
/// as one range. Each unit is written by exactly one thread, so the
/// output is the same at every worker count.
fn for_unit_ranges(
    out: &mut [f32],
    units: usize,
    unit_len: impl Fn(usize) -> usize,
    macs: u64,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let workers = crate::par::workers().min(units);
    if workers > 1 && !crate::par::in_pool() && macs >= PAR_MIN_MACS {
        let per = units.div_ceil(workers);
        let f = &f;
        std::thread::scope(|s| {
            let mut rest = out;
            for first in (0..units).step_by(per) {
                let range = first..(first + per).min(units);
                let (chunk, tail) = rest.split_at_mut(range.clone().map(&unit_len).sum());
                rest = tail;
                s.spawn(move || {
                    let _in_pool = crate::par::PoolGuard::new();
                    f(range, chunk);
                });
            }
        });
    } else {
        f(0..units, out);
    }
}

/// Image `n` of `input` as borrowed `h x w` channel planes.
fn image_planes(input: &Tensor, n: usize) -> Vec<&[f32]> {
    let hw = input.h() * input.w();
    let base = n * input.c() * hw;
    (0..input.c())
        .map(|ic| &input.data()[base + ic * hw..base + (ic + 1) * hw])
        .collect()
}

/// Forward convolution of one image, given as borrowed `h x w` channel
/// planes, into `out` (`out_channels` contiguous output planes), in the
/// output-channel-lane layout `conv2d` runs. Serial and
/// uncharged: the caller charges the meter. The fused head
/// ([`crate::fused`]) runs both of its convs through here.
pub(crate) fn conv_image(
    planes: &[&[f32]],
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: &[f32],
    spec: ConvSpec,
    mut out: &mut [f32],
) {
    let (oh, ow) = spec.out_size(h, w);
    let blocks = channel_blocks(spec.out_channels);
    let wt = lane_weights(weight, &blocks);
    for block in blocks {
        let (dst, rest) = out.split_at_mut(block.len() * oh * ow);
        run_channel_block(planes, h, w, weight, &wt, bias, spec, block, dst);
        out = rest;
    }
}

/// The channel blocks of the output-channel-lane layout: blocks of
/// [`LANES`] channels, then one of four, then the rest (fewer than four
/// channels, so every 8→1 conv), which run as planes.
fn channel_blocks(out_c: usize) -> Vec<Range<usize>> {
    let mut oc = out_c / LANES * LANES;
    let mut blocks: Vec<_> = (0..oc).step_by(LANES).map(|c| c..c + LANES).collect();
    if out_c - oc >= LANES / 2 {
        blocks.push(oc..oc + LANES / 2);
        oc += LANES / 2;
    }
    if oc < out_c {
        blocks.push(oc..out_c);
    }
    blocks
}

/// `weight` (`[oc][ic][ky][kx]`) with the channels of each lane block
/// interleaved as `[ic][ky][kx][lane]`, in the block's own rows. The
/// rows of the rest block stay as they are, unused.
fn lane_weights(weight: &Tensor, blocks: &[Range<usize>]) -> Vec<f32> {
    let mut wt = weight.data().to_vec();
    let taps = weight.c() * weight.h() * weight.w();
    for block in blocks.iter().filter(|b| b.len() >= LANES / 2) {
        let rows = block.start * taps..block.end * taps;
        let lanes = block.len();
        for (lane, row) in weight.data()[rows.clone()].chunks_exact(taps).enumerate() {
            for (t, &v) in wt[rows.clone()][lane..].iter_mut().step_by(lanes).zip(row) {
                *t = v;
            }
        }
    }
    wt
}

/// Output channels `block` of one image into `out`, the block's planes:
/// a block of [`LANES`] channels with four pixels of accumulators, a
/// block of four with eight, and the rest on [`conv_plane`]. `wt` is
/// [`lane_weights`]' output.
#[allow(clippy::too_many_arguments)]
fn run_channel_block(
    planes: &[&[f32]],
    h: usize,
    w: usize,
    weight: &Tensor,
    wt: &[f32],
    bias: &[f32],
    spec: ConvSpec,
    block: Range<usize>,
    out: &mut [f32],
) {
    let taps = spec.in_channels * spec.kernel * spec.kernel;
    let wt = &wt[block.start * taps..block.end * taps];
    match block.len() {
        LANES => conv_channel_block::<LANES, 4>(planes, h, w, wt, &bias[block], spec, out),
        4 => conv_channel_block::<4, 8>(planes, h, w, wt, &bias[block], spec, out),
        lanes => {
            for (oc, out) in block.zip(out.chunks_mut(out.len() / lanes)) {
                conv_plane(planes, h, w, weight, bias, spec, oc, out);
            }
        }
    }
}

/// `L` output channels of one image into `out` (`L` planes), one vector
/// lane each, from their taps `wt` as `[ic][ky][kx][lane]`.
///
/// At stride 1, the columns whose every tap reads inside the input run
/// `P` adjacent pixels at a time, on every row, with `L x P` accumulators
/// kept across the row's in-frame taps. When those columns are not a
/// multiple of `P`, the last block overlaps the one before it and
/// writes the same values again. The other columns, rows narrower than
/// `P` and strided convs run one pixel at a time. Either way each output
/// gets the bias and then its in-frame taps in ascending `(ic, ky, kx)`
/// order, each a separate multiply and add: [`conv_plane`]'s ops, bit
/// for bit.
fn conv_channel_block<const L: usize, const P: usize>(
    planes: &[&[f32]],
    h: usize,
    w: usize,
    wt: &[f32],
    bias: &[f32],
    spec: ConvSpec,
    out: &mut [f32],
) {
    let (oh, ow) = spec.out_size(h, w);
    let bias: [f32; L] = bias.try_into().expect("one bias per lane");
    let plane_len = oh * ow;
    // The columns whose first and last taps are in frame.
    let lo = in_frame(0, spec.pad, spec.stride, w, ow).start;
    let cols = lo..in_frame(spec.kernel - 1, spec.pad, spec.stride, w, ow)
        .end
        .max(lo);
    let (blocked, starts) = if spec.stride == 1 && cols.len() >= P {
        let last = cols.end - P;
        let starts: Vec<_> = (cols.start..last).step_by(P).chain([last]).collect();
        (cols, starts)
    } else {
        (0..0, Vec::new())
    };
    for oy in 0..oh {
        let ys = taps_in_frame(oy, spec, h);
        for &ox in &starts {
            let acc = pixel_block::<L, P>(planes, w, wt, bias, spec, oy, ox, ys.clone());
            store(out, plane_len, oy * ow + ox, &acc);
        }
        for ox in (0..blocked.start).chain(blocked.end..ow) {
            let xs = taps_in_frame(ox, spec, w);
            let acc = pixel::<L>(planes, w, wt, bias, spec, oy, ox, ys.clone(), xs);
            store(out, plane_len, oy * ow + ox, &acc);
        }
    }
}

/// Write `P` adjacent outputs of each of `L` lanes, at offset `at` of
/// each lane's plane.
fn store<const L: usize, const P: usize>(
    out: &mut [f32],
    plane_len: usize,
    at: usize,
    acc: &[[f32; P]; L],
) {
    for (l, acc) in acc.iter().enumerate() {
        out[l * plane_len + at..][..P].copy_from_slice(acc);
    }
}

/// The `P` adjacent outputs from `(oy, ox)` on, at stride 1, in `L`
/// lanes, where every `kx` tap of all of them reads inside the input:
/// the bias, then the taps `(ic, ky, kx)` with `ky` in `ys`, in
/// ascending order, each a separate multiply and add. Each tap's `P`
/// inputs are one contiguous window of an input row, so the accumulators
/// run across pixels and every tap adds one weight per lane.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pixel_block<const L: usize, const P: usize>(
    planes: &[&[f32]],
    w: usize,
    wt: &[f32],
    bias: [f32; L],
    spec: ConvSpec,
    oy: usize,
    ox: usize,
    ys: Range<usize>,
) -> [[f32; P]; L] {
    let (k, pad) = (spec.kernel, spec.pad);
    let mut acc = bias.map(|b| [b; P]);
    for (plane, w_ic) in planes.iter().zip(wt.chunks_exact(k * k * L)) {
        for ky in ys.clone() {
            let row = &plane[(oy + ky - pad) * w + ox - pad..][..k + P - 1];
            let w_row = &w_ic[ky * k * L..][..k * L];
            for (x, wv) in row.windows(P).zip(w_row.chunks_exact(L)) {
                for l in 0..L {
                    for p in 0..P {
                        acc[l][p] += x[p] * wv[l];
                    }
                }
            }
        }
    }
    acc
}

/// Output `(oy, ox)` in `L` lanes: the bias, then the taps `(ic, ky, kx)`
/// with `ky` in `ys` and `kx` in `xs` — the ones that read inside the
/// input — in ascending order, each a separate multiply and add.
#[allow(clippy::too_many_arguments)]
fn pixel<const L: usize>(
    planes: &[&[f32]],
    w: usize,
    wt: &[f32],
    bias: [f32; L],
    spec: ConvSpec,
    oy: usize,
    ox: usize,
    ys: Range<usize>,
    xs: Range<usize>,
) -> [[f32; 1]; L] {
    let (k, stride, pad) = (spec.kernel, spec.stride, spec.pad);
    let mut acc = bias;
    for (plane, w_ic) in planes.iter().zip(wt.chunks_exact(k * k * L)) {
        for ky in ys.clone() {
            let row = &plane[(oy * stride + ky - pad) * w..];
            for kx in xs.clone() {
                let x = row[ox * stride + kx - pad];
                let wv = &w_ic[(ky * k + kx) * L..][..L];
                for (a, &wl) in acc.iter_mut().zip(wv) {
                    *a += x * wl;
                }
            }
        }
    }
    acc.map(|a| [a])
}

/// The taps `t < k` along one axis that output `o` reads inside the
/// input, i.e. `0 <= o * stride + t - pad < len`.
fn taps_in_frame(o: usize, spec: ConvSpec, len: usize) -> Range<usize> {
    let at = o * spec.stride;
    let lo = spec.pad.saturating_sub(at);
    lo..(len + spec.pad).saturating_sub(at).min(spec.kernel).max(lo)
}

/// Compute output channel `oc` of one image, given as its borrowed
/// `h x w` input channel planes, into `out`: the plane layout, and the
/// channels the output-channel-lane layout leaves after its blocks.
///
/// Streamed by tap: the plane is filled with the bias, then every tap,
/// in ascending `(ic, ky, kx)` order, adds `x * w` along each output row
/// over the contiguous run of outputs whose input lies inside the plane
/// ([`in_frame`]). Rows and columns whose input falls in the padding
/// are skipped, so border and interior outputs take the same loop. Each
/// output still receives the bias and then its in-range taps in
/// `(ic, ky, kx)` order, each as a separate multiply and add (the order
/// every layout keeps), and with no per-pixel accumulation chain
/// the inner loop runs across pixels and vectorizes. Tap-major order
/// beats row-major on the batcher's 8×16 planes, where a row is only
/// four vectors long.
#[allow(clippy::too_many_arguments)]
fn conv_plane(
    planes: &[&[f32]],
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: &[f32],
    spec: ConvSpec,
    oc: usize,
    out: &mut [f32],
) {
    let (oh, ow) = spec.out_size(h, w);
    let (k, stride, pad) = (spec.kernel, spec.stride, spec.pad);
    let taps = k * k;
    let wdata = &weight.data()[oc * spec.in_channels * taps..(oc + 1) * spec.in_channels * taps];
    out.fill(bias[oc]);
    for (plane, w_ic) in planes.iter().zip(wdata.chunks_exact(taps)) {
        for (ky, w_ky) in w_ic.chunks_exact(k).enumerate() {
            let rows = in_frame(ky, pad, stride, h, oh);
            for (kx, &wv) in w_ky.iter().enumerate() {
                let run = in_frame(kx, pad, stride, w, ow);
                if run.is_empty() {
                    continue;
                }
                let ix = run.start * stride + kx - pad;
                for oy in rows.clone() {
                    let src = &plane[(oy * stride + ky - pad) * w + ix..];
                    let dst = &mut out[oy * ow + run.start..oy * ow + run.end];
                    if stride == 1 {
                        add_scaled(dst, src, wv);
                    } else {
                        for (o, x) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *o += x * wv;
                        }
                    }
                }
            }
        }
    }
}

/// `dst[i] += src[i] * wv` for every `i < dst.len()`, four lanes at a
/// time. On the 15- and 16-output runs of an 8×16 plane, fixed 4-lane
/// blocks measured faster than one plain zipped loop.
fn add_scaled(dst: &mut [f32], src: &[f32], wv: f32) {
    let src = &src[..dst.len()];
    let mut dst4 = dst.chunks_exact_mut(4);
    let mut src4 = src.chunks_exact(4);
    for (o, x) in (&mut dst4).zip(&mut src4) {
        for (o, x) in o.iter_mut().zip(x) {
            *o += x * wv;
        }
    }
    for (o, x) in dst4.into_remainder().iter_mut().zip(src4.remainder()) {
        *o += x * wv;
    }
}

/// The output positions `o < olen` along one axis whose tap `t` reads
/// inside the input, i.e. `0 <= o * stride + t - pad < len`.
fn in_frame(t: usize, pad: usize, stride: usize, len: usize, olen: usize) -> Range<usize> {
    // `len + pad - t` positions from the top of the padded axis reach
    // the input; stride 1 skips the divisions.
    let reach = (len + pad).saturating_sub(t);
    let (lo, hi) = if stride == 1 {
        (pad.saturating_sub(t), reach)
    } else {
        (
            pad.saturating_sub(t).div_ceil(stride),
            reach.div_ceil(stride),
        )
    };
    lo.min(olen)..hi.min(olen).max(lo.min(olen))
}

/// Gradients produced by [`conv2d_backward`].
pub struct ConvGrads {
    pub grad_input: Tensor,
    pub grad_weight: Tensor,
    pub grad_bias: Vec<f32>,
}

/// Backward convolution: given `grad_output` (`dL/dout`), compute
/// gradients with respect to the input, weights, and bias.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: ConvSpec,
) -> ConvGrads {
    let (oh, ow) = spec.out_size(input.h(), input.w());
    assert_eq!(
        grad_output.shape(),
        [input.n(), spec.out_channels, oh, ow],
        "grad_output shape mismatch"
    );
    // Meter hook (regression: training and fine-tune MACs used to be
    // invisible to the cost meter). The charge is analytic and
    // data-independent — the `g == 0.0` skip below only saves
    // wall-clock — so it is jobs-invariant like the forward charge.
    let (macs, bytes) = spec.backward_work(input.n(), input.h(), input.w());
    crate::meter::add_work(macs, bytes);

    let mut grad_input = Tensor::zeros(input.n(), input.c(), input.h(), input.w());
    let mut grad_weight = Tensor::zeros(
        spec.out_channels,
        spec.in_channels,
        spec.kernel,
        spec.kernel,
    );
    let mut grad_bias = vec![0.0f32; spec.out_channels];
    let k = spec.kernel as isize;
    let pad = spec.pad as isize;

    for n in 0..input.n() {
        for oc in 0..spec.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_output.get(n, oc, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    grad_bias[oc] += g;
                    let iy0 = (oy * spec.stride) as isize - pad;
                    let ix0 = (ox * spec.stride) as isize - pad;
                    for ic in 0..spec.in_channels {
                        for ky in 0..k {
                            let iy = iy0 + ky;
                            if iy < 0 || iy >= input.h() as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ix0 + kx;
                                if ix < 0 || ix >= input.w() as isize {
                                    continue;
                                }
                                let (iyu, ixu) = (iy as usize, ix as usize);
                                let wi = grad_weight.idx(oc, ic, ky as usize, kx as usize);
                                grad_weight.data_mut()[wi] += g * input.get(n, ic, iyu, ixu);
                                let ii = grad_input.idx(n, ic, iyu, ixu);
                                grad_input.data_mut()[ii] +=
                                    g * weight.get(oc, ic, ky as usize, kx as usize);
                            }
                        }
                    }
                }
            }
        }
    }

    ConvGrads {
        grad_input,
        grad_weight,
        grad_bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_kernel(c: usize, k: usize) -> Tensor {
        // One output channel that copies input channel 0.
        let mut w = Tensor::zeros(1, c, k, k);
        w.set(0, 0, k / 2, k / 2, 1.0);
        w
    }

    #[test]
    fn identity_convolution_preserves_input() {
        let spec = ConvSpec::same(1, 1, 3);
        let input = Tensor::from_plane(3, 3, (0..9).map(|v| v as f32).collect());
        let w = identity_kernel(1, 3);
        let out = conv2d(&input, &w, &[0.0], spec);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn bias_is_added_everywhere() {
        let spec = ConvSpec::same(1, 1, 1);
        let input = Tensor::zeros(1, 1, 2, 2);
        let w = Tensor::from_vec(1, 1, 1, 1, vec![1.0]);
        let out = conv2d(&input, &w, &[0.25], spec);
        assert!(out.data().iter().all(|&v| v == 0.25));
    }

    #[test]
    fn box_filter_averages_with_zero_padding() {
        let spec = ConvSpec::same(1, 1, 3);
        let input = Tensor::full(1, 1, 3, 3, 1.0);
        let w = Tensor::from_vec(1, 1, 3, 3, vec![1.0 / 9.0; 9]);
        let out = conv2d(&input, &w, &[0.0], spec);
        // Center sees all nine ones; corner sees four.
        assert!((out.get(0, 0, 1, 1) - 1.0).abs() < 1e-6);
        assert!((out.get(0, 0, 0, 0) - 4.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn strided_convolution_shrinks_output() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(spec.out_size(8, 8), (4, 4));
        let input = Tensor::full(1, 1, 8, 8, 1.0);
        let w = identity_kernel(1, 3);
        let out = conv2d(&input, &w, &[0.0], spec);
        assert_eq!(out.shape(), [1, 1, 4, 4]);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        let spec = ConvSpec::same(2, 1, 1);
        let input = Tensor::from_vec(1, 2, 1, 1, vec![2.0, 3.0]);
        let w = Tensor::from_vec(1, 2, 1, 1, vec![10.0, 100.0]);
        let out = conv2d(&input, &w, &[0.0], spec);
        assert_eq!(out.data(), &[320.0]);
    }

    #[test]
    fn params_and_flops_accounting() {
        let spec = ConvSpec::same(8, 16, 3);
        assert_eq!(spec.params(), (16 * 8 * 9 + 16) as u64);
        // 2 * out_c*oh*ow*in_c*k*k at 4x4.
        assert_eq!(spec.flops(4, 4), 2 * 16 * 16 * 8 * 9);
    }

    #[test]
    fn checked_out_size_rejects_oversized_kernel_and_zero_stride() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 9,
            stride: 1,
            pad: 1,
        };
        // 4 + 2*1 < 9 in either dimension: no valid output.
        assert_eq!(spec.checked_out_size(4, 16), None);
        assert_eq!(spec.checked_out_size(16, 4), None);
        // Exactly covering the padded input yields a single position.
        assert_eq!(spec.checked_out_size(7, 7), Some((1, 1)));
        let degenerate = ConvSpec { stride: 0, ..spec };
        assert_eq!(degenerate.checked_out_size(16, 16), None);
    }

    #[test]
    fn degenerate_specs_report_zero_cost_without_panicking() {
        // Regression: flops()/params() used to call out_size() and
        // could panic mid-report on a degenerate spec.
        let oversized = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 9,
            stride: 1,
            pad: 1,
        };
        assert_eq!(oversized.flops(4, 4), 0);
        assert_eq!(oversized.forward_work(1, 4, 4), (0, 0));
        assert_eq!(oversized.backward_work(1, 4, 4), (0, 0));
        let zero_stride = ConvSpec {
            stride: 0,
            ..oversized
        };
        assert_eq!(zero_stride.flops(16, 16), 0);
        assert_eq!(zero_stride.params(), 82); // params never needs out_size
    }

    #[test]
    fn work_estimates_use_u64_beyond_32_bit_range() {
        // Regression: macs was computed in usize and overflowed on
        // 32-bit targets for large shapes, silently flipping the
        // parallel-split decision and mis-charging the meter.
        let spec = ConvSpec::same(64, 64, 3);
        let (macs, bytes) = spec.forward_work(4, 2048, 2048);
        assert_eq!(
            macs,
            4u64 * 64 * 2048 * 2048 * 64 * 9,
            "must not wrap at 2^32"
        );
        assert!(macs > u32::MAX as u64 && bytes > u32::MAX as u64);
        let (bmacs, _) = spec.backward_work(4, 2048, 2048);
        assert_eq!(bmacs, 4u64 * 64 * 2048 * 2048 * (2 * 64 * 9 + 1));
    }

    #[test]
    #[should_panic(expected = "kernel must not exceed the padded input")]
    fn out_size_panics_with_clear_message_on_underflow() {
        // Regression: this underflowed (debug panic on the subtraction,
        // wrapped huge size in release) before checked arithmetic.
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 9,
            stride: 1,
            pad: 1,
        };
        let _ = spec.out_size(4, 4);
    }

    #[test]
    fn parallel_forward_is_bit_identical_to_serial() {
        let _guard = crate::par::test_lock();
        let spec = ConvSpec::same(8, 4, 3);
        let fill = |seed: u32, len: usize| -> Vec<f32> {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
                })
                .collect()
        };
        // 2*4 planes x 64*64 x 8*9 MACs ≈ 2.4M: crosses PAR_MIN_MACS.
        let input = Tensor::from_vec(2, 8, 64, 64, fill(3, 2 * 8 * 64 * 64));
        let weight = Tensor::from_vec(4, 8, 3, 3, fill(4, 4 * 8 * 9));
        let bias = vec![0.05, -0.1, 0.2, 0.0];
        let prev = crate::par::workers();
        crate::par::set_workers(1);
        let serial = conv2d(&input, &weight, &bias, spec);
        crate::par::set_workers(4);
        let parallel = conv2d(&input, &weight, &bias, spec);
        crate::par::set_workers(prev);
        assert_eq!(serial.data(), parallel.data());
    }

    /// Numerical gradient check: perturb each weight, compare analytic
    /// gradient to finite differences of a scalar loss (sum of outputs).
    #[test]
    fn backward_matches_finite_differences() {
        let spec = ConvSpec::same(2, 2, 3);
        // Deterministic pseudo-random fill (an LCG).
        let fill = |seed: u32, len: usize| -> Vec<f32> {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
                })
                .collect()
        };
        let input = Tensor::from_vec(1, 2, 4, 4, fill(1, 32));
        let weight = Tensor::from_vec(2, 2, 3, 3, fill(2, 36));
        let bias = vec![0.1, -0.2];

        // Loss = sum(out) => grad_output = ones.
        let out = conv2d(&input, &weight, &bias, spec);
        let grad_out = Tensor::full(out.n(), out.c(), out.h(), out.w(), 1.0);
        let grads = conv2d_backward(&input, &weight, &grad_out, spec);

        let eps = 1e-3;
        // Check a sample of weight gradients.
        for &wi in &[0usize, 5, 17, 35] {
            let mut wp = weight.clone();
            wp.data_mut()[wi] += eps;
            let lp: f32 = conv2d(&input, &wp, &bias, spec).data().iter().sum();
            let mut wm = weight.clone();
            wm.data_mut()[wi] -= eps;
            let lm: f32 = conv2d(&input, &wm, &bias, spec).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_weight.data()[wi];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "weight grad {wi}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a sample of input gradients.
        for &ii in &[0usize, 7, 15, 31] {
            let mut ip = input.clone();
            ip.data_mut()[ii] += eps;
            let lp: f32 = conv2d(&ip, &weight, &bias, spec).data().iter().sum();
            let mut im = input.clone();
            im.data_mut()[ii] -= eps;
            let lm: f32 = conv2d(&im, &weight, &bias, spec).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_input.data()[ii];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad {ii}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient of sum-loss is the number of output positions.
        let positions = (out.h() * out.w()) as f32;
        assert!((grads.grad_bias[0] - positions).abs() < 1e-3);
        assert!((grads.grad_bias[1] - positions).abs() < 1e-3);
    }
}
