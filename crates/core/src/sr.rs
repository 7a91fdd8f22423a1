//! Multi-resolution real-time super-resolution (§5, Figure 3b).
//!
//! One model serves every ladder rung (240/360/480/720p → 1080p):
//!
//! * a **shared flow estimator** aligns the previous low-resolution frame
//!   with the current one (the paper shares its optical-flow trunk across
//!   up-scaling factors to save memory);
//! * the previous *high-resolution output* is warped forward with that
//!   flow (recurrent propagation, as in the Figure 3b feedback path);
//! * an **independent per-resolution head** — learned because each input
//!   resolution has its own degradation pattern — computes residual
//!   detail at LR resolution and upsamples it via PixelShuffle (the
//!   paper's upsampling primitive), with the integer shuffle factor
//!   floored per rung and a final resize to the exact output geometry;
//! * the learning target is the gap between the bilinear-upsampled input
//!   and the ground truth (§5), optimized with Charbonnier loss.

use nerve_flow::lk::{estimate, FlowConfig};
use nerve_flow::warp::warp_resized;
use nerve_rng::StdRng;
use nerve_tensor::conv::ConvSpec;
use nerve_tensor::fused::{head_forward, PlaneSource};
use nerve_tensor::net::{Conv2d, Layer, PixelShuffle, Relu, Sequential};
use nerve_tensor::{CostReport, Tensor};
use nerve_video::frame::{resize_add_clamp01, resize_plane, sample_taps, Frame, Resize, Taps};
use nerve_video::resolution::Resolution;
use std::collections::HashMap;

/// Super-resolution configuration.
#[derive(Debug, Clone)]
pub struct SrConfig {
    /// Output (1080p-equivalent) dimensions.
    pub out_width: usize,
    pub out_height: usize,
    /// Evaluation scale divisor used to derive each rung's LR dimensions.
    pub scale_divisor: usize,
    /// Shared flow estimator settings.
    pub flow: FlowConfig,
}

impl SrConfig {
    /// Configuration at a given evaluation scale divisor (1 = the paper's
    /// full 1920x1080).
    pub fn at_scale(scale_divisor: usize) -> Self {
        let (w, h) = Resolution::R1080.dims_scaled(scale_divisor);
        Self {
            out_width: w,
            out_height: h,
            scale_divisor,
            flow: FlowConfig::fast(),
        }
    }

    /// LR input dimensions for a ladder rung at this evaluation scale.
    pub fn lr_dims(&self, rung: Resolution) -> (usize, usize) {
        rung.dims_scaled(self.scale_divisor)
    }

    /// Integer PixelShuffle factor for a rung. Floored, not rounded: a
    /// factor above the true scale would force a downscaling resize after
    /// the shuffle, misaligning the trained residual (720p's 1.5x scale
    /// gets a 1x head whose residual is bilinearly upscaled instead).
    pub fn shuffle_factor(&self, rung: Resolution) -> usize {
        (rung.sr_scale_to_1080().floor() as usize).clamp(1, 4)
    }
}

/// The head's base channel `lr.resize(ow, oh).resize(lw, lh)`, bit for
/// bit, with the upsample computed only at the pixels the downsample
/// reads ([`Resize::reads`]), as `warp_resized` does for the warp.
fn base_lr(lr: &Frame, ow: usize, oh: usize) -> Frame {
    let (lw, lh) = (lr.width(), lr.height());
    let up = Resize::new(lw, lh, ow, oh);
    if up.copies() {
        return lr.clone();
    }
    let (cols, rows) = Resize::new(ow, oh, lw, lh).reads();
    let col_taps: Vec<Taps> = cols.iter().map(|&x| up.taps_x(x)).collect();
    // Pixels the downsample never reads stay zero.
    let mut base = vec![0.0f32; ow * oh];
    for &y in &rows {
        let row_taps = up.taps_y(y);
        for (&x, &col_taps) in cols.iter().zip(&col_taps) {
            base[y * ow + x] = sample_taps(lr.data(), lw, col_taps, row_taps);
        }
    }
    Frame::from_data(lw, lh, resize_plane(&base, ow, oh, lw, lh))
}

/// Channels fed to each head: bilinear base (at LR), warped previous HR
/// (downsampled to LR), and the raw LR frame.
const HEAD_IN: usize = 3;
/// Hidden channels of each per-resolution head.
const HEAD_CHANNELS: usize = 8;

/// The multi-resolution super-resolver.
pub struct SuperResolver {
    config: SrConfig,
    heads: HashMap<Resolution, Sequential>,
    /// Previous LR input (per rung continuity is enforced by reset on
    /// rung switch — the ABR changes rungs only at chunk boundaries).
    prev_lr: Option<(Resolution, Frame)>,
    prev_hr: Option<Frame>,
}

impl SuperResolver {
    pub fn new(config: SrConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(0x5352_4E45); // "SRNE"
        let mut heads = HashMap::new();
        for &rung in &[
            Resolution::R240,
            Resolution::R360,
            Resolution::R480,
            Resolution::R720,
        ] {
            let r = config.shuffle_factor(rung);
            let head = Sequential::new(
                vec![
                    Box::new(Conv2d::new(
                        &mut rng,
                        ConvSpec::same(HEAD_IN, HEAD_CHANNELS, 3),
                    )) as Box<dyn Layer>,
                    Box::new(Relu::new()),
                    Box::new(Conv2d::zeroed(ConvSpec::same(HEAD_CHANNELS, r * r, 3))),
                    Box::new(PixelShuffle::new(r)),
                ],
                2e-3,
            );
            heads.insert(rung, head);
        }
        Self {
            config,
            heads,
            prev_lr: None,
            prev_hr: None,
        }
    }

    pub fn config(&self) -> &SrConfig {
        &self.config
    }

    /// Reset temporal state (chunk boundary / rung switch).
    pub fn reset(&mut self) {
        self.prev_lr = None;
        self.prev_hr = None;
    }

    /// Mutable access to one rung's head (training).
    pub fn head_mut(&mut self, rung: Resolution) -> &mut Sequential {
        self.heads.get_mut(&rung).expect("1080p needs no SR head")
    }

    /// Reset a rung's head to the identity mapping (zeroed residual
    /// output). Used by the training gate: a head whose validation shows
    /// it *hurts* is never shipped — its rung falls back to bilinear
    /// upsampling, which is always safe.
    pub fn reset_head(&mut self, rung: Resolution) {
        let r = self.config.shuffle_factor(rung);
        let mut rng = StdRng::seed_from_u64(0x5352_4E45 ^ rung.ladder_index() as u64);
        let head = Sequential::new(
            vec![
                Box::new(Conv2d::new(
                    &mut rng,
                    ConvSpec::same(HEAD_IN, HEAD_CHANNELS, 3),
                )) as Box<dyn Layer>,
                Box::new(Relu::new()),
                Box::new(Conv2d::zeroed(ConvSpec::same(HEAD_CHANNELS, r * r, 3))),
                Box::new(PixelShuffle::new(r)),
            ],
            2e-3,
        );
        self.heads.insert(rung, head);
    }

    /// Analytic cost of super-resolving one frame from `rung`.
    pub fn cost(&self, rung: Resolution) -> CostReport {
        let (lw, lh) = self.config.lr_dims(rung);
        match self.heads.get(&rung) {
            Some(head) => head.cost(lh, lw),
            None => CostReport::default(),
        }
    }

    /// Total parameters across all heads (the shared-flow design's memory
    /// footprint — Table 1's params column).
    pub fn total_params(&self) -> u64 {
        [
            Resolution::R240,
            Resolution::R360,
            Resolution::R480,
            Resolution::R720,
        ]
        .iter()
        .map(|&r| self.cost(r).params)
        .sum()
    }

    /// Super-resolve one LR frame to the output resolution.
    pub fn upscale(&mut self, lr: &Frame, rung: Resolution) -> Frame {
        let (lw, lh) = self.config.lr_dims(rung);
        assert_eq!(
            (lr.width(), lr.height()),
            (lw, lh),
            "LR frame does not match rung {rung:?} at this scale"
        );
        let (ow, oh) = (self.config.out_width, self.config.out_height);

        if rung == Resolution::R1080 {
            // Native resolution: nothing to do (paper applies SR to
            // sub-1080p rungs only).
            let out = lr.resize(ow, oh);
            self.remember(rung, lr.clone(), out.clone());
            return out;
        }

        let base_lr = base_lr(lr, ow, oh);

        // Shared flow trunk: align previous LR to current, reuse the
        // motion to warp the previous HR output forward. The head reads
        // the warp at LR resolution only, so the warp is computed only
        // where that resize samples it. With no state for this rung the
        // warped input is the LR base itself.
        let warped_lr = match (&self.prev_lr, &self.prev_hr) {
            (Some((prev_rung, prev_lr)), Some(prev_hr)) if *prev_rung == rung => {
                let flow = estimate(prev_lr, lr, &self.config.flow);
                Some(warp_resized(prev_hr, &flow, lw, lh))
            }
            _ => None,
        };
        let warped_lr = warped_lr.as_ref().unwrap_or(&base_lr);

        // Head input at LR resolution, fed as borrowed planes: the fused
        // kernel runs conv→ReLU→conv→PixelShuffle in one pass with no
        // channel concat, no per-layer input clones, and no intermediate
        // tensors — bit- and cost-identical to `Sequential::forward`
        // (the training path keeps using the container).
        let head = self
            .heads
            .get(&rung)
            .expect("head exists for sub-1080p rung");
        let convs = head.conv_layers();
        let shuffle = self.config.shuffle_factor(rung);
        let residual = nerve_tensor::meter::stage("sr", || {
            head_forward(
                &[
                    PlaneSource::Slice(base_lr.data()),
                    PlaneSource::Slice(warped_lr.data()),
                    PlaneSource::Slice(lr.data()),
                ],
                lh,
                lw,
                convs[0],
                convs[1],
                shuffle,
            )
        }); // [1,1,lh*r,lw*r]

        // The bilinear base plus the residual, both resized to the output
        // and clamped, in one pass that builds neither full-size plane.
        let r = residual.shape();
        let out = Frame::from_data(
            ow,
            oh,
            resize_add_clamp01(lr.data(), (lw, lh), residual.data(), (r[3], r[2]), (ow, oh)),
        );
        self.remember(rung, lr.clone(), out.clone());
        out
    }

    fn remember(&mut self, rung: Resolution, lr: Frame, hr: Frame) {
        self.prev_lr = Some((rung, lr));
        self.prev_hr = Some(hr);
    }

    /// Build one `(input, target_residual)` training sample for a rung
    /// from a ground-truth HR frame. The target is the paper's: the gap
    /// between the bilinear-upsampled LR and the ground truth, expressed
    /// at the head's (shuffled) output geometry.
    pub(crate) fn sr_sample(&self, gt_hr: &Frame, rung: Resolution) -> (Tensor, Tensor) {
        let (lw, lh) = self.config.lr_dims(rung);
        let r = self.config.shuffle_factor(rung);
        let lr = gt_hr.resize(lw, lh);
        let base_hr = lr.resize(self.config.out_width, self.config.out_height);
        let base_lr = base_hr.resize(lw, lh);
        // Cold-start input (no temporal state): warped prev = base.
        let input = Tensor::concat_channels(&[
            &Tensor::from_plane(lh, lw, base_lr.data().to_vec()),
            &Tensor::from_plane(lh, lw, base_lr.data().to_vec()),
            &Tensor::from_plane(lh, lw, lr.data().to_vec()),
        ]);
        // Residual target at the shuffled geometry (lh*r x lw*r).
        let gt_shuf = gt_hr.resize(lw * r, lh * r);
        let base_shuf = base_hr.resize(lw * r, lh * r);
        let target = Tensor::from_plane(
            lh * r,
            lw * r,
            gt_shuf
                .data()
                .iter()
                .zip(base_shuf.data().iter())
                .map(|(&g, &b)| g - b)
                .collect(),
        );
        (input, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_video::metrics::psnr;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn sr_at_scale8() -> (SuperResolver, SyntheticVideo) {
        let config = SrConfig::at_scale(8);
        let (w, h) = (config.out_width, config.out_height);
        let video = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, h, w), 31);
        (SuperResolver::new(config), video)
    }

    #[test]
    fn untrained_model_equals_bilinear_base() {
        // Zero-initialized heads: output must be exactly the bilinear
        // upsample on the first (stateless) frame.
        let (mut sr, mut video) = sr_at_scale8();
        let gt = video.next_frame();
        let (lw, lh) = sr.config().lr_dims(Resolution::R240);
        let lr = gt.resize(lw, lh);
        let out = sr.upscale(&lr, Resolution::R240);
        let base = lr
            .resize(sr.config().out_width, sr.config().out_height)
            .clamp01();
        assert!(out.mad(&base) < 1e-6);
    }

    #[test]
    fn base_lr_is_bitwise_the_two_resizes() {
        // Every rung's geometry at scale 8. 1080p's LR size is the
        // output's, so there the upsample copies (as every rung's does at
        // scales where all clamp to 16×16). The LR frame carries ±inf,
        // NaN and −0.0, which only exact reads keep.
        let edgy = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        let (ow, oh) = Resolution::R1080.dims_scaled(8);
        for rung in Resolution::LADDER {
            let (lw, lh) = rung.dims_scaled(8);
            let lr = Frame::from_fn(lw, lh, |x, y| match (x * 7 + y * 13) % 97 {
                i @ 0..=3 => edgy[i],
                i => i as f32 / 96.0,
            });
            let want = lr.resize(ow, oh).resize(lw, lh);
            let got = base_lr(&lr, ow, oh);
            let bits = |f: &Frame| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&want), "{rung:?}");
        }
    }

    #[test]
    fn output_dimensions_match_config_for_all_rungs() {
        let (mut sr, mut video) = sr_at_scale8();
        let gt = video.next_frame();
        for &rung in &Resolution::LADDER {
            sr.reset();
            let (lw, lh) = sr.config().lr_dims(rung);
            let out = sr.upscale(&gt.resize(lw, lh), rung);
            assert_eq!(
                (out.width(), out.height()),
                (sr.config().out_width, sr.config().out_height),
                "{rung:?}"
            );
        }
    }

    #[test]
    fn native_1080p_passes_through() {
        let (mut sr, mut video) = sr_at_scale8();
        let gt = video.next_frame();
        let out = sr.upscale(&gt, Resolution::R1080);
        assert!(psnr(&out, &gt) > 50.0);
    }

    #[test]
    fn lower_rungs_cost_fewer_flops() {
        let (sr, _) = sr_at_scale8();
        let c240 = sr.cost(Resolution::R240).flops;
        let c720 = sr.cost(Resolution::R720).flops;
        assert!(
            c240 < c720,
            "240p head ({c240}) should be cheaper than 720p ({c720})"
        );
    }

    #[test]
    fn params_are_shared_flow_plus_per_rung_heads() {
        let (sr, _) = sr_at_scale8();
        // Four heads, each with nonzero params; flow adds none (classical).
        assert!(sr.total_params() > 0);
        for &rung in &[Resolution::R240, Resolution::R720] {
            assert!(sr.cost(rung).params > 0);
        }
        assert_eq!(sr.cost(Resolution::R1080).params, 0);
    }

    #[test]
    #[should_panic(expected = "does not match rung")]
    fn wrong_lr_dimensions_panic() {
        let (mut sr, _) = sr_at_scale8();
        let bad = Frame::new(10, 10);
        sr.upscale(&bad, Resolution::R240);
    }

    #[test]
    fn temporal_state_used_on_second_frame() {
        // A few training steps make the R360 head's residual depend on
        // its warped-previous-output channel; with a zero-init head the
        // two outputs would coincide.
        let (mut sr, mut video) = sr_at_scale8();
        let rung = Resolution::R360;
        for _ in 0..5 {
            let gt = video.next_frame();
            let (input, target) = sr.sr_sample(&gt, rung);
            sr.head_mut(rung).train_step(&input, &target, |p, t| {
                nerve_tensor::loss::charbonnier(p, t, 1e-3)
            });
        }
        let a = video.next_frame();
        let b = video.next_frame();
        let (lw, lh) = sr.config().lr_dims(rung);
        sr.upscale(&a.resize(lw, lh), rung);
        let with_state = sr.upscale(&b.resize(lw, lh), rung);
        sr.reset();
        let without_state = sr.upscale(&b.resize(lw, lh), rung);
        assert_eq!(
            (with_state.width(), with_state.height()),
            (without_state.width(), without_state.height())
        );
        assert!(
            with_state != without_state,
            "the warped previous output does not reach the head"
        );
    }

    #[test]
    fn training_sample_shapes_are_consistent() {
        let (sr, mut video) = sr_at_scale8();
        let gt = video.next_frame();
        let (input, target) = sr.sr_sample(&gt, Resolution::R240);
        let (lw, lh) = sr.config().lr_dims(Resolution::R240);
        let r = sr.config().shuffle_factor(Resolution::R240);
        assert_eq!(input.shape(), [1, HEAD_IN, lh, lw]);
        assert_eq!(target.shape(), [1, 1, lh * r, lw * r]);
    }
}
