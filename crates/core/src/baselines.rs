//! Baselines the paper compares against.
//!
//! Recovery baselines (Figures 7 and 8):
//! * **Reuse** — display the previous frame again (what players without
//!   recovery do, and what NEMO falls back to on loss).
//! * **No-code recovery** ([`NoCodeRecovery`]) — warp-based prediction
//!   from the previous *frames only* (constant-velocity extrapolation),
//!   i.e. the paper's "predicting the video frame without the binary
//!   point code".
//!
//! Super-resolution baselines (Table 1, Figure 10):
//! * **Upsample** — plain bilinear interpolation.
//! * **[`HeavySr`]** — structural stand-ins for RLSP, BasicVSR, and CKBG:
//!   the same warp-then-refine skeleton as [`crate::sr::SuperResolver`],
//!   but with the design choices that make each reference model slow on
//!   a phone — RLSP processes at full output resolution with recurrent
//!   state, BasicVSR is bidirectional (needs future frames — incompatible
//!   with live streaming), CKBG runs dual branches at LR. Their analytic
//!   FLOPs reproduce Table 1's ordering; latency comes from the device
//!   model's optimized-vs-unoptimized throughput split.

use nerve_flow::lk::{estimate, FlowConfig};
use nerve_flow::warp::warp_frame;
use nerve_rng::StdRng;
use nerve_tensor::conv::ConvSpec;
use nerve_tensor::net::{Conv2d, Layer, Relu, Sequential};
use nerve_tensor::{CostReport, Tensor};
use nerve_video::frame::Frame;
use std::collections::VecDeque;

/// The trivial recovery baseline: show the previous frame again.
pub fn reuse_previous(prev: &Frame) -> Frame {
    prev.clone()
}

/// Warp-based prediction *without* the binary point code: estimate flow
/// between the last two observed frames and extrapolate one step under a
/// constant-velocity assumption. This is the strongest thing a client
/// can do from history alone — and the thing the point code beats.
pub struct NoCodeRecovery {
    flow: FlowConfig,
    history: VecDeque<Frame>,
}

impl NoCodeRecovery {
    pub fn new(flow: FlowConfig) -> Self {
        Self {
            flow,
            history: VecDeque::with_capacity(2),
        }
    }

    /// Record a displayed frame (decoded or previously predicted).
    pub fn observe(&mut self, frame: Frame) {
        if self.history.len() == 2 {
            self.history.pop_front();
        }
        self.history.push_back(frame);
    }

    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// Predict the next frame. With fewer than two observations this
    /// degenerates to frame reuse.
    pub fn predict(&mut self) -> Option<Frame> {
        match self.history.len() {
            0 => None,
            1 => Some(self.history[0].clone()),
            _ => {
                let prev2 = &self.history[0];
                let prev1 = &self.history[1];
                // flow aligns prev2 -> prev1: prev1(p) ≈ prev2(p + flow(p)).
                // Constant velocity: next(p) ≈ prev1(p + flow(p)).
                let flow = estimate(prev2, prev1, &self.flow);
                let predicted = warp_frame(prev1, &flow);
                Some(predicted)
            }
        }
    }

    /// Convenience: predict and feed the prediction back as an
    /// observation (for consecutive-loss chains).
    pub fn predict_and_advance(&mut self) -> Option<Frame> {
        let p = self.predict()?;
        self.observe(p.clone());
        Some(p)
    }
}

/// Plain bilinear upsampling (the "Upsample" curve in Figure 10).
pub fn upsample(lr: &Frame, out_width: usize, out_height: usize) -> Frame {
    lr.resize(out_width, out_height)
}

/// Which published heavy SR model a [`HeavySr`] instance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeavyKind {
    /// Recurrent latent-space propagation: full-resolution processing,
    /// modest parameter count, enormous FLOPs.
    Rlsp,
    /// Bidirectional propagation: needs future frames (offline only),
    /// wide features.
    BasicVsr,
    /// Convolutional kernel bypass grafts: dual-branch at LR.
    Ckbg,
}

impl HeavyKind {
    pub fn name(self) -> &'static str {
        match self {
            HeavyKind::Rlsp => "RLSP",
            HeavyKind::BasicVsr => "BasicVSR",
            HeavyKind::Ckbg => "CKBG",
        }
    }

    /// (hidden channels, hidden conv layers, processes at output
    /// resolution, bidirectional)
    fn arch(self) -> (usize, usize, bool, bool) {
        match self {
            HeavyKind::Rlsp => (12, 3, true, false),
            HeavyKind::BasicVsr => (48, 4, false, true),
            HeavyKind::Ckbg => (28, 3, false, false),
        }
    }

    /// Whether the model needs the *next* frame (offline/on-demand only).
    pub fn needs_future(self) -> bool {
        self.arch().3
    }
}

/// A heavy reference-class super-resolver.
pub struct HeavySr {
    kind: HeavyKind,
    out_width: usize,
    out_height: usize,
    lr_width: usize,
    lr_height: usize,
    flow: FlowConfig,
    net: Sequential,
    prev: Option<Frame>,
}

impl HeavySr {
    pub fn new(kind: HeavyKind, lr_dims: (usize, usize), out_dims: (usize, usize)) -> Self {
        let (c, layers, _, bidir) = kind.arch();
        let in_ch = if bidir { 3 } else { 2 }; // base + warped prev (+ warped next)
        let mut rng = StdRng::seed_from_u64(0xBA5E ^ kind as u64);
        let mut stack: Vec<Box<dyn Layer>> =
            vec![Box::new(Conv2d::new(&mut rng, ConvSpec::same(in_ch, c, 3)))];
        for _ in 0..layers {
            stack.push(Box::new(Relu::new()));
            stack.push(Box::new(Conv2d::new(&mut rng, ConvSpec::same(c, c, 3))));
        }
        stack.push(Box::new(Relu::new()));
        stack.push(Box::new(Conv2d::zeroed(ConvSpec::same(c, 1, 3))));
        Self {
            kind,
            out_width: out_dims.0,
            out_height: out_dims.1,
            lr_width: lr_dims.0,
            lr_height: lr_dims.1,
            flow: FlowConfig::default(), // richer flow than our fast config
            net: Sequential::new(stack, 2e-3),
            prev: None,
        }
    }

    pub fn kind(&self) -> HeavyKind {
        self.kind
    }

    /// Working resolution of the conv stack.
    fn working_dims(&self) -> (usize, usize) {
        if self.kind.arch().2 {
            (self.out_width, self.out_height)
        } else {
            (self.lr_width, self.lr_height)
        }
    }

    /// Analytic cost: conv stack at its working resolution, plus the
    /// (rich) flow trunk at the same resolution.
    pub fn cost(&self) -> CostReport {
        let (w, h) = self.working_dims();
        let mut report = self.net.cost(h, w);
        let mut flow_flops = self.flow.flops(w, h);
        if self.kind.needs_future() {
            flow_flops *= 2; // forward and backward passes
        }
        report.flops += flow_flops;
        report
    }

    /// Super-resolve one frame. `next_lr` is consumed only by the
    /// bidirectional (BasicVSR-class) model.
    pub fn upscale(&mut self, lr: &Frame, next_lr: Option<&Frame>) -> Frame {
        assert_eq!((lr.width(), lr.height()), (self.lr_width, self.lr_height));
        let base = lr.resize(self.out_width, self.out_height);
        let (ww, wh) = self.working_dims();

        let warped_prev = match &self.prev {
            Some(prev) => {
                let flow = estimate(prev, lr, &self.flow);
                warp_frame(prev, &flow).resize(ww, wh)
            }
            None => base.resize(ww, wh),
        };

        let base_w = base.resize(ww, wh);
        let mut channels: Vec<Tensor> = vec![
            Tensor::from_plane(wh, ww, base_w.data().to_vec()),
            Tensor::from_plane(wh, ww, warped_prev.data().to_vec()),
        ];
        if self.kind.needs_future() {
            let next = next_lr.unwrap_or(lr);
            let flow_b = estimate(next, lr, &self.flow);
            let warped_next = warp_frame(next, &flow_b).resize(ww, wh);
            channels.push(Tensor::from_plane(wh, ww, warped_next.data().to_vec()));
        }
        let refs: Vec<&Tensor> = channels.iter().collect();
        let input = Tensor::concat_channels(&refs);
        let residual = self.net.forward(&input);
        let res_frame = Frame::from_data(ww, wh, residual.data().to_vec())
            .resize(self.out_width, self.out_height);

        let out = Frame::from_data(
            self.out_width,
            self.out_height,
            base.data()
                .iter()
                .zip(res_frame.data().iter())
                .map(|(&b, &r)| (b + r).clamp(0.0, 1.0))
                .collect(),
        );
        self.prev = Some(lr.clone());
        out
    }

    /// One Charbonnier training step on a ground-truth HR frame (cold
    /// start input, residual target at the working resolution).
    pub fn train_on(&mut self, gt_hr: &Frame, eps: f32) -> f32 {
        let lr = gt_hr.resize(self.lr_width, self.lr_height);
        let base = lr.resize(self.out_width, self.out_height);
        let (ww, wh) = self.working_dims();
        let base_w = base.resize(ww, wh);
        let mut channels: Vec<Tensor> = vec![
            Tensor::from_plane(wh, ww, base_w.data().to_vec()),
            Tensor::from_plane(wh, ww, base_w.data().to_vec()),
        ];
        if self.kind.needs_future() {
            channels.push(Tensor::from_plane(wh, ww, base_w.data().to_vec()));
        }
        let refs: Vec<&Tensor> = channels.iter().collect();
        let input = Tensor::concat_channels(&refs);
        let gt_w = gt_hr.resize(ww, wh);
        let target = Tensor::from_plane(
            wh,
            ww,
            gt_w.data()
                .iter()
                .zip(base_w.data().iter())
                .map(|(&g, &b)| g - b)
                .collect(),
        );
        self.net.train_step(&input, &target, |p, t| {
            nerve_tensor::loss::charbonnier(p, t, eps)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_video::metrics::psnr;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn clip(n: usize) -> Vec<Frame> {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Vlogs, 48, 80), 61);
        v.take_frames(n)
    }

    #[test]
    fn reuse_returns_identical_frame() {
        let f = clip(1).pop().unwrap();
        assert_eq!(reuse_previous(&f), f);
    }

    #[test]
    fn no_code_recovery_beats_reuse_on_steady_motion() {
        // A pure global pan with constant velocity is the best case for
        // constant-velocity extrapolation.
        let base = Frame::from_fn(96, 64, |x, y| {
            0.5 + 0.3 * ((x as f32) * 0.25).sin() * ((y as f32) * 0.2).cos()
        });
        let shift = |d: isize| {
            Frame::from_fn(96, 64, |x, y| {
                base.get_clamped(x as isize - 2 * d, y as isize)
            })
        };
        let (f0, f1, f2) = (shift(0), shift(1), shift(2));
        let mut rec = NoCodeRecovery::new(FlowConfig::default());
        rec.observe(f0);
        rec.observe(f1.clone());
        let pred = rec.predict().unwrap();
        assert!(
            psnr(&pred, &f2) > psnr(&f1, &f2),
            "extrapolation {:.2} should beat reuse {:.2}",
            psnr(&pred, &f2),
            psnr(&f1, &f2)
        );
    }

    #[test]
    fn no_code_recovery_degenerates_gracefully() {
        let mut rec = NoCodeRecovery::new(FlowConfig::fast());
        assert!(rec.predict().is_none());
        let f = clip(1).pop().unwrap();
        rec.observe(f.clone());
        assert_eq!(rec.predict().unwrap(), f); // single-frame = reuse
    }

    #[test]
    fn predict_and_advance_supports_chains() {
        let frames = clip(3);
        let mut rec = NoCodeRecovery::new(FlowConfig::fast());
        rec.observe(frames[0].clone());
        rec.observe(frames[1].clone());
        let p1 = rec.predict_and_advance().unwrap();
        let p2 = rec.predict_and_advance().unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn heavy_sr_cost_ordering_matches_table1() {
        let lr = (80, 44);
        let out = (320, 176); // 4x
        let rlsp = HeavySr::new(HeavyKind::Rlsp, lr, out).cost();
        let basic = HeavySr::new(HeavyKind::BasicVsr, lr, out).cost();
        let ckbg = HeavySr::new(HeavyKind::Ckbg, lr, out).cost();
        assert!(
            rlsp.flops > basic.flops && basic.flops > ckbg.flops,
            "Table 1 FLOPs ordering: RLSP {} > BasicVSR {} > CKBG {}",
            rlsp.flops,
            basic.flops,
            ckbg.flops
        );
        // Params ordering: BasicVSR > CKBG > RLSP (Table 1).
        assert!(basic.params > ckbg.params && ckbg.params > rlsp.params);
    }

    #[test]
    fn heavy_sr_zero_init_equals_bilinear() {
        let frames = clip(1);
        let lr = frames[0].resize(40, 24);
        let mut sr = HeavySr::new(HeavyKind::Ckbg, (40, 24), (80, 48));
        let out = sr.upscale(&lr, None);
        let base = lr.resize(80, 48).clamp01();
        assert!(out.mad(&base) < 1e-6);
    }

    #[test]
    fn bidirectional_model_declares_future_need() {
        assert!(HeavyKind::BasicVsr.needs_future());
        assert!(!HeavyKind::Rlsp.needs_future());
        assert!(!HeavyKind::Ckbg.needs_future());
    }

    #[test]
    fn heavy_sr_accepts_future_frame() {
        let frames = clip(2);
        let lr0 = frames[0].resize(40, 24);
        let lr1 = frames[1].resize(40, 24);
        let mut sr = HeavySr::new(HeavyKind::BasicVsr, (40, 24), (80, 48));
        let out = sr.upscale(&lr0, Some(&lr1));
        assert_eq!((out.width(), out.height()), (80, 48));
    }
}
