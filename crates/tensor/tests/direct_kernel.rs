//! Every layout of the direct kernel against a copy of the per-pixel
//! kernel it replaced, bit for bit.
//!
//! `oracle_plane` is the former `conv::conv_plane`: a per-pixel interior
//! loop over row slices plus a per-tap bounds-checked `edge` closure for
//! the border. It and every layout add, to each output, the bias and
//! then its in-range taps in ascending `(ic, ky, kx)` order with no FMA,
//! so their outputs must agree in every bit. The grid walks kernels
//! 1/3/5, strides 1/2, pads `0`, `k/2` and `k - 1`, 1–4 input and output
//! channels, batches of 1–5 and planes from 1×1 to 17×33 (including
//! planes narrower or shorter than the kernel). Half of the cases put
//! ±inf and NaN on the input's border rows and columns: a kernel that
//! multiplies a padded tap by zero instead of skipping it turns a finite
//! output into NaN there. NaN compares as NaN; every other value
//! compares by its bits, so `-0.0` differs from `+0.0`.
//!
//! Each case runs both layouts and `conv2d`, at 1 and 4 workers.
//! Output-channel lanes, what `conv2d` runs, take one image at a time in
//! blocks of 8 channels with 4 pixels in registers, a block of 4 with 8
//! pixels, and leave the last `out_c mod 4` channels to the plane loop;
//! the channel suite walks out_c 1–17 on planes narrower and shorter
//! than those pixel blocks. The batch suites walk the grid and the
//! every-tap-clipped cases at batches 7, 8, 9, 16 and 17, the sizes that
//! stacked fleet flushes reach, and run shapes large enough that 4
//! workers split the (image, channel block) units between them.

use nerve_rng::{check_cases, DetRng, Rng};
use nerve_tensor::conv::{conv2d, conv2d_with, ConvSpec, Kernel};
use nerve_tensor::{par, Tensor};
use std::sync::Mutex;

/// The worker count is process-global; tests that set it take this.
static WORKERS: Mutex<()> = Mutex::new(());

/// The per-pixel direct kernel that `conv_plane` replaced, kept verbatim
/// (apart from taking the weight as a slice) as the oracle.
#[allow(clippy::too_many_arguments)]
fn oracle_plane(
    planes: &[&[f32]],
    h: usize,
    w: usize,
    wdata: &[f32],
    bias: &[f32],
    spec: ConvSpec,
    oc: usize,
    out: &mut [f32],
) {
    let (oh, ow) = spec.out_size(h, w);
    let (k, stride, pad) = (spec.kernel, spec.stride, spec.pad);
    let wbase = |ic: usize| (oc * spec.in_channels + ic) * k * k;
    let bias_v = bias[oc];

    let edge = |oy: usize, ox: usize| -> f32 {
        let mut acc = bias_v;
        let iy0 = (oy * stride) as isize - pad as isize;
        let ix0 = (ox * stride) as isize - pad as isize;
        for (ic, p) in planes.iter().enumerate() {
            let wb = wbase(ic);
            for ky in 0..k as isize {
                let iy = iy0 + ky;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..k as isize {
                    let ix = ix0 + kx;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    acc += p[iy as usize * w + ix as usize]
                        * wdata[wb + (ky * k as isize + kx) as usize];
                }
            }
        }
        acc
    };

    let interior = |len: usize, olen: usize| -> (usize, usize) {
        let lo = pad.div_ceil(stride).min(olen);
        let hi = if len + pad >= k {
            ((len + pad - k) / stride + 1).min(olen)
        } else {
            0
        };
        (lo, hi.max(lo))
    };
    let (y_lo, y_hi) = interior(h, oh);
    let (x_lo, x_hi) = interior(w, ow);

    for oy in 0..oh {
        let row_out = &mut out[oy * ow..(oy + 1) * ow];
        if oy < y_lo || oy >= y_hi {
            for (ox, v) in row_out.iter_mut().enumerate() {
                *v = edge(oy, ox);
            }
            continue;
        }
        let iy0 = oy * stride - pad;
        for (ox, v) in row_out.iter_mut().enumerate().take(x_lo) {
            *v = edge(oy, ox);
        }
        for (ox, v) in row_out.iter_mut().enumerate().take(x_hi).skip(x_lo) {
            let ibase = iy0 * w + ox * stride - pad;
            let mut acc = bias_v;
            for (ic, p) in planes.iter().enumerate() {
                let wb = wbase(ic);
                for ky in 0..k {
                    let irow = &p[ibase + ky * w..ibase + ky * w + k];
                    let wrow = &wdata[wb + ky * k..wb + (ky + 1) * k];
                    for (x, wv) in irow.iter().zip(wrow) {
                        acc += x * wv;
                    }
                }
            }
            *v = acc;
        }
        for (ox, v) in row_out.iter_mut().enumerate().skip(x_hi) {
            *v = edge(oy, ox);
        }
    }
}

/// The oracle over a whole batch: every image's every output channel.
fn oracle(input: &Tensor, weight: &Tensor, bias: &[f32], spec: ConvSpec) -> Vec<f32> {
    let (h, w) = (input.h(), input.w());
    let (oh, ow) = spec.out_size(h, w);
    let mut out = vec![0.0f32; input.n() * spec.out_channels * oh * ow];
    let image_len = input.c() * h * w;
    for (n, img) in out.chunks_mut(spec.out_channels * oh * ow).enumerate() {
        let data = &input.data()[n * image_len..(n + 1) * image_len];
        let planes: Vec<&[f32]> = data.chunks(h * w).collect();
        for (oc, plane) in img.chunks_mut(oh * ow).enumerate() {
            oracle_plane(&planes, h, w, weight.data(), bias, spec, oc, plane);
        }
    }
    out
}

/// Bit equality, except that any NaN matches any NaN.
fn same(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

fn assert_same(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    if let Some(i) = (0..got.len()).find(|&i| !same(got[i], want[i])) {
        panic!(
            "{label}: element {i} is {} ({:#010x}), oracle {} ({:#010x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        );
    }
}

/// Every layout and `conv2d`, each at 1 and 4 workers, against the
/// oracle.
fn check_against_oracle(
    label: &str,
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: ConvSpec,
) {
    let want = oracle(input, weight, bias, spec);
    let _lock = WORKERS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = par::workers();
    for workers in [1, 4] {
        par::set_workers(workers);
        for kernel in [Kernel::Plane, Kernel::ChannelLanes] {
            let out = conv2d_with(kernel, input, weight, bias, spec);
            assert_same(&format!("{label} {kernel:?}@{workers}"), out.data(), &want);
        }
        let dispatched = conv2d(input, weight, bias, spec);
        assert_same(
            &format!("{label} conv2d@{workers}"),
            dispatched.data(),
            &want,
        );
    }
    par::set_workers(prev);
}

fn uniform(rng: &mut DetRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

/// Overwrite about a third of each plane's border with ±inf and NaN.
fn poison_border(rng: &mut DetRng, data: &mut [f32], h: usize, w: usize) {
    const SPECIALS: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for plane in data.chunks_mut(h * w) {
        for y in 0..h {
            for x in 0..w {
                let border = y == 0 || x == 0 || y + 1 == h || x + 1 == w;
                if border && rng.random_range(0..3u32) == 0 {
                    plane[y * w + x] = SPECIALS[rng.random_range(0..3usize)];
                }
            }
        }
    }
}

/// The plane shapes of the grid for kernel `k`: 1×1, 2×2, one plane
/// shorter and one narrower than the kernel, 8×16 (the batcher's
/// backbone) and 17×33 (odd sizes, multi-vector rows).
fn planes_for(k: usize) -> [(usize, usize); 6] {
    let short = k.saturating_sub(1).max(1);
    [
        (1, 1),
        (2, 2),
        (short, 2 * k + 3),
        (2 * k + 3, short),
        (8, 16),
        (17, 33),
    ]
}

/// One seeded case of the grid: a random spec of kernel `k` on an
/// `h x w` plane, with `out_c` output channels, at a batch drawn by
/// `batch`, with ±inf/NaN borders in half the cases and a `-0.0` first
/// bias in a quarter.
#[allow(clippy::too_many_arguments)]
fn grid_case(
    rng: &mut DetRng,
    name: &str,
    k: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    out_c: impl Fn(&mut DetRng) -> usize,
    batch: impl Fn(&mut DetRng) -> usize,
) {
    let spec = ConvSpec {
        in_channels: rng.random_range(1..5usize),
        out_channels: out_c(rng),
        kernel: k,
        stride,
        pad,
    };
    if spec.checked_out_size(h, w).is_none() {
        return;
    }
    let n = batch(rng);
    let mut data = uniform(rng, n * spec.in_channels * h * w);
    if rng.random_range(0..2u32) == 0 {
        poison_border(rng, &mut data, h, w);
    }
    let input = Tensor::from_vec(n, spec.in_channels, h, w, data);
    let weight = Tensor::from_vec(
        spec.out_channels,
        spec.in_channels,
        k,
        k,
        uniform(rng, spec.out_channels * spec.in_channels * k * k),
    );
    let mut bias = uniform(rng, spec.out_channels);
    if rng.random_range(0..4u32) == 0 {
        bias[0] = -0.0;
    }
    check_against_oracle(name, &input, &weight, &bias, spec);
}

/// The grid's output channels: 1–4, one block of four lanes at most.
fn few_channels(rng: &mut DetRng) -> usize {
    rng.random_range(1..5usize)
}

#[test]
fn direct_kernel_matches_the_per_pixel_oracle_over_the_grid() {
    let mut cases = 0;
    for k in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            let mut pads = vec![0, k / 2, k - 1];
            pads.dedup();
            for pad in pads {
                for (h, w) in planes_for(k) {
                    let name = format!("k{k} s{stride} p{pad} {h}x{w}");
                    check_cases(&name, 2, |rng| {
                        grid_case(rng, &name, k, stride, pad, h, w, few_channels, |rng| {
                            rng.random_range(1..6usize)
                        })
                    });
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 80, "the grid shrank to {cases} cells");
}

/// Every out_c from 1 to 17 — blocks of 8 and 4 channels and 1–3 left
/// over — on the grid's planes plus two around the pixel blocks: 7×5
/// (every interior row shorter than 4 pixels at k 3) and `6 x (2k + 9)`
/// (interior rows of `2k + 9 - (k - 1)` pixels at pad `k/2`, a tail past
/// both the 4- and the 8-pixel blocks), at batches of 1–2.
#[test]
fn channel_lanes_match_the_per_pixel_oracle_for_out_c_1_to_17() {
    let mut cases = 0;
    for out_c in 1..=17usize {
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                let mut pads = vec![0, k / 2, k - 1];
                pads.dedup();
                for pad in pads {
                    let planes = planes_for(k).into_iter().chain([(7, 5), (6, 2 * k + 9)]);
                    for (h, w) in planes {
                        let name = format!("oc{out_c} k{k} s{stride} p{pad} {h}x{w}");
                        check_cases(&name, 1, |rng| {
                            grid_case(
                                rng,
                                &name,
                                k,
                                stride,
                                pad,
                                h,
                                w,
                                |_| out_c,
                                |rng| rng.random_range(1..3usize),
                            )
                        });
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 1800, "the channel grid shrank to {cases} cells");
}

/// Batch sizes around multiples of 8, the stacked flushes of a fleet:
/// one short of 8, 8, one more, 16 and one more. Each image is its own
/// run of channel-block units, so no image may leak into the next.
const LANE_BATCHES: [usize; 5] = [7, 8, 9, 16, 17];

/// The grid again at every batch of [`LANE_BATCHES`].
#[test]
fn lane_blocks_match_the_per_pixel_oracle_over_the_grid() {
    let mut cases = 0;
    for k in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            let mut pads = vec![0, k / 2, k - 1];
            pads.dedup();
            for pad in pads {
                for (h, w) in planes_for(k) {
                    for n in LANE_BATCHES {
                        let name = format!("n{n} k{k} s{stride} p{pad} {h}x{w}");
                        check_cases(&name, 1, |rng| {
                            grid_case(rng, &name, k, stride, pad, h, w, few_channels, |_| n)
                        });
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 400, "the lane grid shrank to {cases} cells");
}

/// Shapes whose MACs cross the conv's parallel-split threshold (2^20),
/// so at 4 workers the units split across threads: the batcher's
/// backbone at 121 jobs (121 units of one 4-channel block, 31 per worker
/// and 28 in the last), a 5×5 stride-2 conv on 17×33 planes at 25
/// images, and 6 → 13 channels on two 40×48 images, whose six (image,
/// channel block) units — blocks of 8, 4 and 1 channels — split two per
/// worker, across an image.
#[test]
fn lane_blocks_split_across_workers_match_the_per_pixel_oracle() {
    let backbone = ConvSpec::same(2, 4, 3);
    let strided = ConvSpec {
        in_channels: 4,
        out_channels: 4,
        kernel: 5,
        stride: 2,
        pad: 2,
    };
    let blocks = ConvSpec::same(6, 13, 3);
    for (n, spec, h, w) in [
        (121usize, backbone, 8usize, 16usize),
        (25, strided, 17, 33),
        (2, blocks, 40, 48),
    ] {
        let name = format!("split n{n} k{} s{}", spec.kernel, spec.stride);
        assert!(
            spec.forward_work(n, h, w).0 >= 1 << 20,
            "{name} no longer splits"
        );
        check_cases(&name, 2, |rng| {
            let mut data = uniform(rng, n * spec.in_channels * h * w);
            poison_border(rng, &mut data, h, w);
            let input = Tensor::from_vec(n, spec.in_channels, h, w, data);
            let taps = spec.in_channels * spec.kernel * spec.kernel;
            let weight = Tensor::from_vec(
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
                uniform(rng, spec.out_channels * taps),
            );
            let mut bias = uniform(rng, spec.out_channels);
            bias[0] = -0.0;
            check_against_oracle(&name, &input, &weight, &bias, spec);
        });
    }
}

/// With `pad >= k` the outer outputs read no input at all: every layout
/// must leave the bias there untouched, `-0.0` included. No layout adds
/// padding as `+0.0` products, so the cases run up to `in_channels * k
/// * k` of 100 and out_c 17, across every channel block.
fn every_tap_clipped_case(rng: &mut DetRng, batch: impl Fn(&mut DetRng) -> usize) {
    let k = [1usize, 3, 5][rng.random_range(0..3usize)];
    let spec = ConvSpec {
        in_channels: rng.random_range(1..5usize),
        out_channels: rng.random_range(1..18usize),
        kernel: k,
        stride: rng.random_range(1..3usize),
        pad: k + rng.random_range(0..2usize),
    };
    let (h, w) = (rng.random_range(1..10usize), rng.random_range(1..20usize));
    let n = batch(rng);
    let mut data = uniform(rng, n * spec.in_channels * h * w);
    poison_border(rng, &mut data, h, w);
    let input = Tensor::from_vec(n, spec.in_channels, h, w, data);
    let weight = Tensor::from_vec(
        spec.out_channels,
        spec.in_channels,
        k,
        k,
        uniform(rng, spec.out_channels * spec.in_channels * k * k),
    );
    let bias = vec![-0.0f32; spec.out_channels];
    check_against_oracle("every tap clipped", &input, &weight, &bias, spec);
    // Every image's top-left output window lies wholly in the padding.
    let out = conv2d(&input, &weight, &bias, spec);
    for image in out.data().chunks(out.c() * out.h() * out.w()) {
        assert_eq!(image[0].to_bits(), (-0.0f32).to_bits());
    }
}

#[test]
fn outputs_with_every_tap_clipped_keep_a_negative_zero_bias() {
    check_cases("every_tap_clipped", 16, |rng| {
        every_tap_clipped_case(rng, |rng| rng.random_range(1..4usize))
    });
}

/// The same at every batch of [`LANE_BATCHES`].
#[test]
fn lane_blocks_keep_a_negative_zero_bias_where_every_tap_is_clipped() {
    for n in LANE_BATCHES {
        check_cases(&format!("every_tap_clipped n{n}"), 8, |rng| {
            every_tap_clipped_case(rng, |_| n)
        });
    }
}
