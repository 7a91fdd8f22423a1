//! Fused head forward: conv+ReLU → conv → PixelShuffle in one call
//! over borrowed channel planes.
//!
//! The SR and enhancement heads are two 3x3 same-convs with a ReLU
//! between and (for SR) a PixelShuffle after. Run through
//! [`crate::net::Sequential`], one frame costs eight intermediate
//! `Tensor` allocations: the channel concat, a cached clone of every
//! layer input (training bookkeeping the inference path never uses),
//! and each layer's output. [`head_forward`] takes the input as borrowed
//! channel planes — no concat — runs both convs through `conv.rs`'s
//! per-image entry (the output-channel-lane layout `conv2d` runs on
//! single images), and writes the shuffled output directly. It has no
//! kernel of its own and runs on the calling thread.
//!
//! # Bit-identity contract
//!
//! The staged pipeline (`concat_channels` → `Sequential::forward`) and
//! this fused pass produce identical bits: the convs are `conv2d`'s
//! kernel with its ordered accumulation, ReLU is the same
//! `max(0.0)` applied after each element's full sum, and PixelShuffle
//! is a pure permutation. The property suite pins this over a seeded
//! grid.
//!
//! # Meter contract
//!
//! Charges exactly what the staged path would: two conv charges
//! ([`crate::conv::ConvSpec::forward_work`]) on the caller thread,
//! nothing for the shuffle. Traces and digests cannot tell the paths
//! apart.

use crate::conv::conv_image;
use crate::net::Conv2d;
use crate::Tensor;

/// One input channel for [`head_forward`].
pub enum PlaneSource<'a> {
    /// A ready `h*w` channel plane (row-major).
    Slice(&'a [f32]),
}

/// Fused `conv1+ReLU → conv2 → PixelShuffle(r)` forward for a
/// single-image head. `srcs` are the `conv1.spec.in_channels` input
/// planes at `h x w`; both convs must be stride-1 "same" geometry and
/// `conv2.spec.out_channels` divisible by `r*r`. Returns
/// `[1, out_c/(r*r), h*r, w*r]`; `r == 1` degenerates to plain
/// conv → ReLU → conv (the enhancement head).
pub fn head_forward(
    srcs: &[PlaneSource<'_>],
    h: usize,
    w: usize,
    conv1: &Conv2d,
    conv2: &Conv2d,
    r: usize,
) -> Tensor {
    let (s1, s2) = (conv1.spec, conv2.spec);
    assert_eq!(srcs.len(), s1.in_channels, "input plane count mismatch");
    assert_eq!(s2.in_channels, s1.out_channels, "conv chain mismatch");
    for s in [s1, s2] {
        assert!(
            s.stride == 1 && s.kernel == 2 * s.pad + 1,
            "fused head requires stride-1 same-padding convs"
        );
    }
    assert!(
        r >= 1 && s2.out_channels.is_multiple_of(r * r),
        "conv2 channels {} not divisible by r^2 ({r})",
        s2.out_channels
    );
    let plane = h * w;
    assert!(plane > 0, "empty input plane");

    // Same analytic charge as the two staged conv2d calls, on the
    // caller thread.
    let (m1, b1) = s1.forward_work(1, h, w);
    let (m2, b2) = s2.forward_work(1, h, w);
    crate::meter::add_work(m1 + m2, b1 + b2);

    let planes: Vec<&[f32]> = srcs
        .iter()
        .map(|PlaneSource::Slice(p)| {
            assert_eq!(p.len(), plane, "plane length mismatch");
            *p
        })
        .collect();
    let mut hidden = vec![0.0f32; s1.out_channels * plane];
    conv_image(&planes, h, w, &conv1.weight, &conv1.bias, s1, &mut hidden);
    for v in hidden.iter_mut() {
        *v = v.max(0.0);
    }
    let hidden: Vec<&[f32]> = hidden.chunks(plane).collect();
    let mut conv_out = vec![0.0f32; s2.out_channels * plane];
    conv_image(&hidden, h, w, &conv2.weight, &conv2.bias, s2, &mut conv_out);

    // Scatter through the PixelShuffle permutation.
    let c_out = s2.out_channels / (r * r);
    let mut out = Tensor::zeros(1, c_out, h * r, w * r);
    let wr = w * r;
    let od = out.data_mut();
    for (ci, src) in conv_out.chunks(plane).enumerate() {
        let co = ci / (r * r);
        let dy = (ci % (r * r)) / r;
        let dx = ci % r;
        for y in 0..h {
            let orow = (co * h * r + y * r + dy) * wr + dx;
            for x in 0..w {
                od[orow + x * r] = src[y * w + x];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvSpec;
    use crate::net::{Layer, PixelShuffle, Relu, Sequential};
    use crate::ops;

    fn fill(seed: u32, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn seeded_conv(seed: u32, spec: ConvSpec) -> Conv2d {
        let mut c = Conv2d::zeroed(spec);
        let wl = c.weight.data().len();
        c.weight.data_mut().copy_from_slice(&fill(seed, wl));
        let bl = c.bias.len();
        c.bias.copy_from_slice(&fill(seed ^ 0xABCD, bl));
        c
    }

    #[test]
    fn fused_matches_staged_sequential_bitwise() {
        for (cin, hid, r, h, w) in [
            (3, 8, 4, 12, 20),
            (4, 8, 1, 9, 15),
            (3, 6, 2, 16, 16),
            // Three hidden channels, below a lane block, run as planes;
            // the second conv's four as one block of four lanes.
            (2, 3, 2, 5, 9),
        ] {
            let conv1 = seeded_conv(101, ConvSpec::same(cin, hid, 3));
            let conv2 = seeded_conv(202, ConvSpec::same(hid, r * r, 3));
            let data = fill(303, cin * h * w);
            let planes: Vec<PlaneSource> = data.chunks(h * w).map(PlaneSource::Slice).collect();
            let fused = head_forward(&planes, h, w, &conv1, &conv2, r);

            let mut staged = Sequential::new(
                vec![
                    Box::new(seeded_conv(101, ConvSpec::same(cin, hid, 3))) as Box<dyn Layer>,
                    Box::new(Relu::new()),
                    Box::new(seeded_conv(202, ConvSpec::same(hid, r * r, 3))),
                    Box::new(PixelShuffle::new(r)),
                ],
                1e-3,
            );
            let input = Tensor::from_vec(1, cin, h, w, data.clone());
            let expect = staged.forward(&input);
            assert_eq!(fused.shape(), expect.shape(), "r={r}");
            assert_eq!(fused.data(), expect.data(), "r={r}");
        }
    }

    #[test]
    fn fused_charges_exactly_the_staged_conv_costs() {
        let (h, w) = (10, 14);
        let conv1 = seeded_conv(7, ConvSpec::same(3, 8, 3));
        let conv2 = seeded_conv(9, ConvSpec::same(8, 4, 3));
        let data = fill(11, 3 * h * w);
        let planes: Vec<PlaneSource> = data.chunks(h * w).map(PlaneSource::Slice).collect();

        crate::meter::start();
        crate::meter::stage("sr", || {
            let _ = head_forward(&planes, h, w, &conv1, &conv2, 2);
        });
        let fused = crate::meter::stop();

        crate::meter::start();
        crate::meter::stage("sr", || {
            let input = Tensor::from_vec(1, 3, h, w, data.clone());
            let h1 = ops::relu(&crate::conv::conv2d(
                &input,
                &conv1.weight,
                &conv1.bias,
                conv1.spec,
            ));
            let c2 = crate::conv::conv2d(&h1, &conv2.weight, &conv2.bias, conv2.spec);
            let _ = ops::pixel_shuffle(&c2, 2);
        });
        let staged = crate::meter::stop();
        assert_eq!(fused, staged, "fused path must be cost-invisible");
    }
}
