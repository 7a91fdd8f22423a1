//! The video recovery model (§4, Figure 3a).
//!
//! On the loss (or lateness) of frame `t`, the client holds: the previous
//! displayed frame `I_{t-1}`, the previous point code `C_{t-1}`, the
//! current point code `C_t` (delivered reliably over TCP), and possibly a
//! partially decoded `I_part`. Recovery proceeds exactly as the paper
//! describes:
//!
//! 1. **Flow on codes** — dense optical flow between `C_{t-1}` and `C_t`
//!    at code resolution (64x128), the cheap trick that makes real-time
//!    possible: the flow network never sees full-resolution pixels.
//! 2. **Warp at reduced scale** — the flow is upsampled to the working
//!    resolution (1080p/4 = 270p, the paper's 29 ms → 5 ms optimization)
//!    and `I_{t-1}` is backward-warped there.
//! 3. **Enhance** — a small trained convolution head sees the warped
//!    frame, the previous frame, the upsampled current code, and the
//!    recurrent hidden state `H`, and predicts a residual correction
//!    (`Î_enhance`), compensating both warp error and the detail lost to
//!    the downsampled warp.
//! 4. **Inpaint** — regions that warping could not source (out-of-bounds
//!    samples, and cells where `C_t` shows edges that the warped
//!    `C_{t-1}` cannot explain — *new content*) are filled by diffusion
//!    from valid pixels, with contrast re-injected along the current
//!    code's edges (`Î_inpaint`).
//! 5. **Partial override** — rows of `I_part` that decoded correctly
//!    overwrite the prediction (§4: "partial content is also used to
//!    override the predicted Î_pred in the corresponding region").
//!
//! The hidden state `H` is an exponential moving average of recent
//! correction magnitude, giving the enhancement head the temporal memory
//! the paper implements with RNN-style state propagation.

use crate::error::RecoveryError;
use crate::point_code::{PointCode, PointCodeConfig, PointCodeEncoder};
use nerve_flow::lk::{estimate, FlowConfig};
use nerve_flow::warp::{warp_frame, warp_validity};
use nerve_rng::StdRng;
use nerve_tensor::conv::ConvSpec;
use nerve_tensor::meter;
use nerve_tensor::net::{Conv2d, Layer, Relu, Sequential};
use nerve_tensor::Tensor;
use nerve_video::frame::Frame;

/// A partially decoded frame (`I_part`).
#[derive(Debug, Clone)]
pub struct PartialFrame {
    pub frame: Frame,
    /// Per pixel row: true where the row decoded correctly.
    pub row_valid: Vec<bool>,
}

impl PartialFrame {
    pub fn new(frame: Frame, row_valid: Vec<bool>) -> Self {
        match Self::try_new(frame, row_valid) {
            Ok(p) => p,
            Err(e) => panic!("row mask must cover frame: {e}"),
        }
    }

    /// Fallible constructor: the mask must have one entry per pixel row.
    pub fn try_new(frame: Frame, row_valid: Vec<bool>) -> Result<Self, RecoveryError> {
        if frame.height() != row_valid.len() {
            return Err(RecoveryError::RowMaskMismatch {
                rows: frame.height(),
                mask: row_valid.len(),
            });
        }
        Ok(Self { frame, row_valid })
    }

    /// Fraction of valid rows.
    pub fn coverage(&self) -> f64 {
        self.row_valid.iter().filter(|&&v| v).count() as f64 / self.row_valid.len().max(1) as f64
    }
}

/// How much of the recovery pipeline runs for one late/lost frame.
///
/// The paper's budget argument (§6: recovery must fit inside
/// `min(ΣSᵢ/tput − T_play, T_RC)`) is all-or-nothing: either the full
/// pipeline fits or the player stalls. Real devices degrade instead —
/// when the per-frame budget shrinks (thermal throttling, a blackout
/// that ate the slack), cheaper approximations still beat freezing, and
/// freezing still beats stalling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationRung {
    /// Full pipeline: code flow + warp + enhance + inpaint + override.
    Full,
    /// Flow + warp + partial override only; the enhancement head,
    /// inpainting, and hidden-state update are skipped.
    WarpOnly,
    /// Display the previous frame again (plus any partial rows).
    Freeze,
    /// Nothing displayable in budget: the player stalls this frame.
    Stall,
}

impl DegradationRung {
    /// Rungs from most to least expensive.
    pub const LADDER: [DegradationRung; 4] = [
        DegradationRung::Full,
        DegradationRung::WarpOnly,
        DegradationRung::Freeze,
        DegradationRung::Stall,
    ];
}

/// A per-frame time-budget → [`DegradationRung`] policy.
///
/// Each displayable rung carries the wall-clock cost of running it
/// (`None` = the rung is disabled for this scheme). `select` returns the
/// highest-quality affordable rung, falling through to `Stall` when even
/// the free rungs are disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationLadder {
    /// Cost of a full recovery, seconds.
    pub full_secs: Option<f64>,
    /// Cost of warp-only recovery, seconds.
    pub warp_secs: Option<f64>,
    /// Cost of freezing (essentially free, but `None` disables it).
    pub freeze_secs: Option<f64>,
}

/// Fraction of the full recovery cost spent by the warp-only rung: the
/// paper's stage budget (§8.4) attributes ~5 ms of the 22 ms pipeline to
/// flow+warp at 270p.
pub const WARP_ONLY_COST_FRACTION: f64 = 5.0 / 22.0;

impl DegradationLadder {
    /// The NERVE ladder for a full recovery costing `full_secs`:
    /// warp-only at the paper's stage fraction, freeze free.
    pub fn recovery(full_secs: f64) -> Self {
        Self {
            full_secs: Some(full_secs),
            warp_secs: Some(full_secs * WARP_ONLY_COST_FRACTION),
            freeze_secs: Some(0.0),
        }
    }

    /// No displayable fallback: any late frame stalls the player
    /// (players without recovery under normal operation).
    pub fn stall_only() -> Self {
        Self {
            full_secs: None,
            warp_secs: None,
            freeze_secs: None,
        }
    }

    /// Freeze-only: late frames re-display the previous frame (the
    /// paper's no-recovery baseline in the lossy-network experiments,
    /// §8.3).
    pub fn reuse_only() -> Self {
        Self {
            full_secs: None,
            warp_secs: None,
            freeze_secs: Some(0.0),
        }
    }

    /// The cheapest-but-best rung affordable within `budget_secs`.
    pub fn select(&self, budget_secs: f64) -> DegradationRung {
        let fits = |cost: Option<f64>| cost.is_some_and(|c| c <= budget_secs);
        if fits(self.full_secs) {
            DegradationRung::Full
        } else if fits(self.warp_secs) {
            DegradationRung::WarpOnly
        } else if fits(self.freeze_secs) {
            DegradationRung::Freeze
        } else {
            DegradationRung::Stall
        }
    }

    /// Cost of the selected rung (0.0 for `Stall`: nothing runs).
    pub fn cost_of(&self, rung: DegradationRung) -> f64 {
        match rung {
            DegradationRung::Full => self.full_secs.unwrap_or(0.0),
            DegradationRung::WarpOnly => self.warp_secs.unwrap_or(0.0),
            DegradationRung::Freeze => self.freeze_secs.unwrap_or(0.0),
            DegradationRung::Stall => 0.0,
        }
    }
}

/// Recovery model configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Output frame dimensions.
    pub width: usize,
    pub height: usize,
    /// Warp-scale divisor (paper: 4, i.e. 1080p warped at 270p).
    pub warp_divisor: usize,
    /// Flow estimator settings (applied to point codes).
    pub flow: FlowConfig,
    /// Point-code geometry/threshold this model works against. The
    /// client re-encodes its *own displayed frame* with the same encoder
    /// to measure accumulated drift against the received current code —
    /// the anchor that keeps consecutive recoveries from running away.
    pub code: PointCodeConfig,
}

impl RecoveryConfig {
    /// Sensible defaults for a given output resolution.
    ///
    /// `warp_divisor` defaults to 1 (full-resolution warping). The paper
    /// warps at 270p and relies on its learned PixelShuffle enhancement
    /// to restore full-resolution quality; our substitution achieves the
    /// same *output quality* by warping at full resolution, while the
    /// device cost model still charges the 270p warp latency the paper
    /// measured. The divisor remains configurable as the warp-scale
    /// ablation axis (see `nerve-experiments ablations`).
    pub fn for_resolution(height: usize, width: usize) -> Self {
        Self {
            width,
            height,
            warp_divisor: 1,
            flow: FlowConfig::for_point_codes(),
            code: PointCodeConfig::default(),
        }
    }

    /// Same defaults with an explicit point-code configuration.
    pub fn with_code(height: usize, width: usize, code: PointCodeConfig) -> Self {
        Self {
            code,
            ..Self::for_resolution(height, width)
        }
    }

    /// Working (warp-scale) dimensions.
    pub fn working_dims(&self) -> (usize, usize) {
        (
            (self.width / self.warp_divisor).max(16),
            (self.height / self.warp_divisor).max(16),
        )
    }
}

/// Number of input channels of the enhancement head:
/// warped, previous, upsampled code, hidden state.
const ENHANCE_IN: usize = 4;

/// Diffusion iterations of the inpainting branch.
const INPAINT_ITERATIONS: usize = 12;
/// Strength of code-edge detail injection during inpainting.
const CODE_DETAIL_GAIN: f32 = 0.05;
/// EMA decay of the hidden state `H`.
const HIDDEN_DECAY: f32 = 0.8;

/// Intermediate products of the working-resolution prediction.
struct WorkingPrediction {
    /// The enhanced + inpainted prediction.
    pred: Frame,
    /// Correction magnitude (feeds the hidden state `H`).
    correction: Frame,
}

/// The client-side recovery model.
pub struct RecoveryModel {
    config: RecoveryConfig,
    /// Trained enhancement head (residual, zero-initialized output layer
    /// so the untrained model degenerates to pure warping).
    enhance: Sequential,
    /// Recurrent hidden state `H` at working resolution.
    hidden: Option<Frame>,
    /// Client-side copy of the point-code encoder (drift measurement).
    encoder: PointCodeEncoder,
    /// The most recently displayed frame (see [`RecoveryModel::observe`]).
    prev1: Option<Frame>,
    /// The frame displayed before that — the anchor of the history flow.
    prev2: Option<Frame>,
    /// Consecutive recoveries since the last decoded frame.
    chain_depth: u32,
}

impl RecoveryModel {
    pub fn new(config: RecoveryConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(0x4E52_5645); // "NERV"
        let enhance = Sequential::new(
            vec![
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(ENHANCE_IN, 8, 3))) as Box<dyn Layer>,
                Box::new(Relu::new()),
                Box::new(Conv2d::zeroed(ConvSpec::same(8, 1, 3))),
            ],
            2e-3,
        );
        let encoder = PointCodeEncoder::new(config.code.clone());
        Self {
            config,
            enhance,
            encoder,
            hidden: None,
            prev1: None,
            prev2: None,
            chain_depth: 0,
        }
    }

    /// Record a displayed frame (decoded or recovered). The model keeps
    /// the last two to estimate the *history flow* — the paper's decoder
    /// maintains exactly this kind of temporal state (`H`); feeding every
    /// displayed frame lets consecutive recoveries track accelerating
    /// content. Call this once per displayed frame, `prev_frame` included,
    /// before calling [`RecoveryModel::recover`] for the frame after it.
    pub fn observe(&mut self, frame: &Frame) {
        self.prev2 = self.prev1.take();
        self.prev1 = Some(frame.clone());
        self.chain_depth = 0;
    }

    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Reset the recurrent state (e.g. at a scene cut or chunk boundary).
    pub fn reset(&mut self) {
        self.hidden = None;
        self.prev1 = None;
        self.prev2 = None;
        self.chain_depth = 0;
    }

    /// Mutable access to the enhancement head for training.
    pub fn enhance_net_mut(&mut self) -> &mut Sequential {
        &mut self.enhance
    }

    /// Analytic cost of one recovery at the configured resolution.
    pub fn cost(&self) -> nerve_tensor::CostReport {
        let (ww, wh) = self.config.working_dims();
        self.enhance.cost(wh, ww)
    }

    /// Recover the current frame (§4). See the module docs for the
    /// pipeline; `partial` is the optional `I_part`. Panics on geometry
    /// mismatches; [`RecoveryModel::try_recover`] is the fallible form.
    pub fn recover(
        &mut self,
        prev_frame: &Frame,
        cur_code: &PointCode,
        partial: Option<&PartialFrame>,
    ) -> Frame {
        match self.try_recover(prev_frame, cur_code, partial) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible full recovery: validates the code geometry and partial
    /// frame dimensions instead of asserting, so a session fed corrupt
    /// or mismatched data degrades rather than aborts.
    pub fn try_recover(
        &mut self,
        prev_frame: &Frame,
        cur_code: &PointCode,
        partial: Option<&PartialFrame>,
    ) -> Result<Frame, RecoveryError> {
        self.validate_inputs(cur_code, partial)?;
        let wp = self.predict_working(prev_frame, cur_code);

        // Update hidden state with the correction magnitude map.
        let decayed = match self.hidden.take() {
            Some(h)
                if (h.width(), h.height()) == (wp.correction.width(), wp.correction.height()) =>
            {
                Frame::from_data(
                    h.width(),
                    h.height(),
                    h.data()
                        .iter()
                        .zip(wp.correction.data().iter())
                        .map(|(&old, &new)| HIDDEN_DECAY * old + (1.0 - HIDDEN_DECAY) * new)
                        .collect(),
                )
            }
            _ => wp.correction,
        };
        self.hidden = Some(decayed);

        let (fw, fh) = (self.config.width, self.config.height);
        let out = wp.pred.resize(fw, fh).clamp01();
        Ok(self.finish_displayed(out, partial))
    }

    /// Degraded recovery: run only as much of the pipeline as `rung`
    /// allows. `Full` is [`RecoveryModel::try_recover`]; `WarpOnly` stops
    /// after motion fusion + warp (no enhancement, inpainting, or hidden
    /// state update); `Freeze` — and `Stall`, whose display policy is the
    /// caller's — re-displays the previous frame. Partial rows override
    /// the output on every rung (they are received ground truth and cost
    /// nothing).
    pub fn recover_degraded(
        &mut self,
        prev_frame: &Frame,
        cur_code: &PointCode,
        partial: Option<&PartialFrame>,
        rung: DegradationRung,
    ) -> Result<Frame, RecoveryError> {
        match rung {
            DegradationRung::Full => self.try_recover(prev_frame, cur_code, partial),
            DegradationRung::WarpOnly => {
                self.validate_inputs(cur_code, partial)?;
                let (ww, wh) = self.config.working_dims();
                let (flow_w, _pc, _cc) = self.fused_working_flow(prev_frame, cur_code);
                let prev_small = prev_frame.resize(ww, wh);
                let warped = meter::stage("warp", || {
                    meter::add_work(4 * (ww * wh) as u64, 4 * (4 * ww * wh) as u64);
                    warp_frame(&prev_small, &flow_w)
                });
                let (fw, fh) = (self.config.width, self.config.height);
                let out = warped.resize(fw, fh).clamp01();
                Ok(self.finish_displayed(out, partial))
            }
            DegradationRung::Freeze | DegradationRung::Stall => {
                self.validate_inputs(cur_code, partial)?;
                let out = prev_frame.clone();
                Ok(self.finish_displayed(out, partial))
            }
        }
    }

    /// Check received inputs against the model's configured geometry.
    fn validate_inputs(
        &self,
        cur_code: &PointCode,
        partial: Option<&PartialFrame>,
    ) -> Result<(), RecoveryError> {
        let expected = (self.config.code.width, self.config.code.height);
        let got = (cur_code.width(), cur_code.height());
        if got != expected {
            return Err(RecoveryError::CodeShapeMismatch { expected, got });
        }
        if let Some(p) = partial {
            let expected = (self.config.width, self.config.height);
            let got = (p.frame.width(), p.frame.height());
            if got != expected {
                return Err(RecoveryError::PartialDimensionMismatch { expected, got });
            }
        }
        Ok(())
    }

    /// Apply the partial-row override and advance the displayed-frame
    /// history (shared tail of every displayable rung).
    fn finish_displayed(&mut self, mut out: Frame, partial: Option<&PartialFrame>) -> Frame {
        // Partial override: correctly received rows are ground truth.
        if let Some(p) = partial {
            for (y, &ok) in p.row_valid.iter().enumerate() {
                if ok {
                    out.overlay_rows(&p.frame, y, y + 1);
                }
            }
        }

        // The recovered frame is what the viewer sees: it becomes the
        // history anchor for the next step, and the chain deepens.
        self.prev2 = self.prev1.take();
        self.prev1 = Some(out.clone());
        self.chain_depth += 1;
        out
    }

    /// Stage 1+2 of the pipeline (motion fusion and warp), shared by the
    /// full pipeline and the warp-only degradation rung. Returns the
    /// fused working-resolution flow plus the previous/current code
    /// frames the later stages need.
    fn fused_working_flow(
        &self,
        prev_frame: &Frame,
        cur_code: &PointCode,
    ) -> (nerve_flow::FlowField, Frame, Frame) {
        meter::stage("flow", || {
            self.fused_working_flow_inner(prev_frame, cur_code)
        })
    }

    fn fused_working_flow_inner(
        &self,
        prev_frame: &Frame,
        cur_code: &PointCode,
    ) -> (nerve_flow::FlowField, Frame, Frame) {
        let (ww, wh) = self.config.working_dims();
        // (1a) Flow between the code of *our previous displayed frame*
        // (re-encoded locally) and the received current code, at code
        // resolution. Encoding the displayed frame — rather than reusing
        // the server's code for the true previous frame — measures the
        // *total* displacement between what the viewer sees and the true
        // current frame, so accumulated prediction drift shows up in this
        // flow and gets corrected. LK on binary maps is noisy where no
        // edges anchor it, so the flow is damped toward zero wherever the
        // two codes show no local change evidence.
        let pc = self.encoder.encode(prev_frame).to_frame();
        let cc = cur_code.to_frame();
        let code_flow = damp_flow(estimate(&pc, &cc, &self.config.flow), &pc, &cc);
        let (cw, ch) = (pc.width(), pc.height());

        // (1b) History flow: constant-velocity extrapolation from the two
        // most recently displayed frames (full grayscale — far more
        // precise than code flow). The *current* point code arbitrates:
        // where warping the previous code by the history flow fails to
        // reproduce the received current code, the history is stale
        // (acceleration, new content) and the code flow — fresh,
        // current-frame evidence — takes over. This fusion is why code-
        // assisted recovery beats pure extrapolation, and why the gap
        // grows over consecutive recovered frames (Figure 7):
        // extrapolation drifts, the code re-anchors every frame.
        let (hist_flow, has_history) = match &self.prev2 {
            Some(p2) if (p2.width(), p2.height()) == (prev_frame.width(), prev_frame.height()) => {
                (estimate(p2, prev_frame, &FlowConfig::default()), true)
            }
            _ => (
                // No history: the damped code flow is the only motion
                // evidence available (upscaled from code space).
                code_flow.upsample(prev_frame.width(), prev_frame.height()),
                false,
            ),
        };
        // Meter accounting (analytic, not timed): LK cost from
        // `FlowConfig::flops` (1 MAC = 2 FLOPs) for each estimate that
        // ran, plus ~4 MACs per pixel for the code-space warp /
        // block-match fusion below. Bytes: the code frames, the fused
        // working-scale fields, and the full-resolution history reads.
        let (fw, fh) = (prev_frame.width(), prev_frame.height());
        let flow_macs = self.config.flow.flops(cw, ch) / 2
            + if has_history {
                FlowConfig::default().flops(fw, fh) / 2
            } else {
                0
            }
            + 4 * (cw * ch + ww * wh) as u64;
        meter::add_work(
            flow_macs,
            4 * (3 * cw * ch + 4 * ww * wh + 2 * fw * fh) as u64,
        );
        // Project the history hypothesis into code space to measure the
        // residual misalignment the code can correct.
        let hist_flow_code = hist_flow.upsample(cw, ch);
        let warped_pc_hist = warp_frame(&pc, &hist_flow_code);
        // Correct the history hypothesis with the code: per coarse block,
        // find the integer shift (in code cells) that best re-aligns the
        // history-warped previous code with the received current code.
        // Block matching on binary maps is far more robust than
        // differential flow, and this is precisely the drift-correction
        // role the code plays: after several consecutive recoveries the
        // history hypothesis slides off the truth, and the code — exact,
        // current-frame information — pulls it back.
        let correction_code = code_drift_correction(&warped_pc_hist, &cc);
        let hist_flow_w = hist_flow.upsample(ww, wh);
        let correction_w = correction_code.upsample(ww, wh);
        let fused_flow = {
            let mut fused = nerve_flow::FlowField::zero(ww, wh);
            for y in 0..wh {
                for x in 0..ww {
                    let (hx, hy) = hist_flow_w.get(x, y);
                    let (cx_, cy_) = correction_w.get(x, y);
                    fused.set(x, y, hx + cx_, hy + cy_);
                }
            }
            fused
        };
        (fused_flow, pc, cc)
    }

    /// The working-resolution prediction and its composition masks.
    /// Split out so training can reuse it.
    fn predict_working(&mut self, prev_frame: &Frame, cur_code: &PointCode) -> WorkingPrediction {
        let (ww, wh) = self.config.working_dims();
        let (flow_w, pc, cc) = self.fused_working_flow(prev_frame, cur_code);
        let (cw, ch) = (pc.width(), pc.height());

        // (2) Warp previous frame at working scale.
        let prev_small = prev_frame.resize(ww, wh);
        let (warped, validity) = meter::stage("warp", || {
            // ~4 MACs per output pixel (bilinear taps) for the frame
            // warp plus the validity pass; bytes: source + two flow
            // planes read, frame + validity written.
            meter::add_work(8 * (ww * wh) as u64, 4 * (5 * ww * wh) as u64);
            (warp_frame(&prev_small, &flow_w), warp_validity(&flow_w))
        });

        // New-content evidence: current-code edges that even the fused
        // flow cannot source from the previous code, blurred so only
        // coherent regions (an object entering, a reveal) trigger
        // inpainting — not every moving edge.
        let warped_pc_fused = warp_frame(&pc, &flow_w.upsample(cw, ch));
        // New-content detection by per-block normalized correlation: a
        // block where the warped previous code and the current code are
        // uncorrelated contains content that history cannot source —
        // an entering object, a reveal, or (when every block decorrelates
        // at once) a scene cut. Binary edge maps correlate strongly under
        // correct alignment and near zero across unrelated content, so
        // this is a far cleaner signal than counting mismatched bits.
        let unexplained = {
            const GX: usize = 4;
            const GY: usize = 2;
            let bw = cw.div_ceil(GX);
            let bh = ch.div_ceil(GY);
            let mut low_blocks = 0usize;
            let mut mask = Frame::new(cw, ch);
            for gy in 0..GY {
                for gx in 0..GX {
                    let x0 = gx * bw;
                    let y0 = gy * bh;
                    let corr = block_correlation(&cc, &warped_pc_fused, x0, y0, bw, bh);
                    if corr < 0.10 {
                        low_blocks += 1;
                        for y in y0..(y0 + bh).min(ch) {
                            for x in x0..(x0 + bw).min(cw) {
                                mask.set(x, y, 1.0);
                            }
                        }
                    }
                }
            }
            // Scene cut: when (almost) every block decorrelates at once,
            // history is worthless everywhere — mark the whole frame so
            // the inpainting fallback produces a clean wash+sketch
            // instead of smearing surviving blocks across the frame.
            if low_blocks >= GX * GY - 2 {
                mask = Frame::filled(cw, ch, 1.0);
            }
            mask
        };
        let cur_code_up = cc.resize(ww, wh);

        // (3) Enhancement head (residual; zero-initialized until trained).
        let hidden = match &self.hidden {
            Some(h) if (h.width(), h.height()) == (ww, wh) => h.clone(),
            _ => Frame::new(ww, wh),
        };
        // Fused conv→ReLU→conv over borrowed planes: no channel-concat
        // tensor, no per-layer clones — bit- and cost-identical to
        // `Sequential::forward` (training still goes through the
        // container via `stack_input`).
        let convs = self.enhance.conv_layers();
        let residual = meter::stage("enhance", || {
            nerve_tensor::fused::head_forward(
                &[
                    nerve_tensor::fused::PlaneSource::Slice(warped.data()),
                    nerve_tensor::fused::PlaneSource::Slice(prev_small.data()),
                    nerve_tensor::fused::PlaneSource::Slice(cur_code_up.data()),
                    nerve_tensor::fused::PlaneSource::Slice(hidden.data()),
                ],
                wh,
                ww,
                convs[0],
                convs[1],
                1,
            )
        });
        let enhanced = Frame::from_data(
            ww,
            wh,
            warped
                .data()
                .iter()
                .zip(residual.data().iter())
                .map(|(&w, &r)| (w + r).clamp(0.0, 1.0))
                .collect(),
        );

        // (4) Inpaint: out-of-bounds warps and coherent new content.
        let unexplained_up = unexplained.resize(ww, wh);
        let invalid = Frame::from_fn(ww, wh, |x, y| {
            if validity.get(x, y) < 0.5 || unexplained_up.get(x, y) > 0.5 {
                1.0
            } else {
                0.0
            }
        });
        let inpainted = meter::stage("inpaint", || {
            // ~4 MACs per pixel per diffusion iteration (4-neighbor
            // average), reading and writing the working frame each pass.
            meter::add_work(
                (4 * ww * wh * INPAINT_ITERATIONS) as u64,
                4 * (ww * wh * (2 * INPAINT_ITERATIONS + 3)) as u64,
            );
            inpaint(
                &enhanced,
                &invalid,
                &cur_code_up,
                INPAINT_ITERATIONS,
                CODE_DETAIL_GAIN,
            )
        });

        // Correction magnitude (drives H).
        let correction = Frame::from_data(
            ww,
            wh,
            inpainted
                .data()
                .iter()
                .zip(warped.data().iter())
                .map(|(&a, &b)| (a - b).abs())
                .collect(),
        );

        WorkingPrediction {
            pred: inpainted,
            correction,
        }
    }

    /// Build the 4-channel enhancement input tensor.
    pub(crate) fn stack_input(
        warped: &Frame,
        prev_small: &Frame,
        code_up: &Frame,
        hidden: &Frame,
    ) -> Tensor {
        let (w, h) = (warped.width(), warped.height());
        let plane = |f: &Frame| Tensor::from_plane(h, w, f.data().to_vec());
        Tensor::concat_channels(&[
            &plane(warped),
            &plane(prev_small),
            &plane(code_up),
            &plane(hidden),
        ])
    }

    /// Produce one `(input, target_residual)` training sample for the
    /// enhancement head from a ground-truth frame pair.
    pub(crate) fn enhance_sample(
        &mut self,
        prev_frame: &Frame,
        cur_frame: &Frame,
        cur_code: &PointCode,
    ) -> (Tensor, Tensor) {
        let (ww, wh) = self.config.working_dims();
        let pc = self.encoder.encode(prev_frame).to_frame();
        let cc = cur_code.to_frame();
        let code_flow = estimate(&pc, &cc, &self.config.flow);
        let flow_w = code_flow.upsample(ww, wh);
        let prev_small = prev_frame.resize(ww, wh);
        let warped = warp_frame(&prev_small, &flow_w);
        let cur_code_up = cc.resize(ww, wh);
        let hidden = Frame::new(ww, wh);
        let input = Self::stack_input(&warped, &prev_small, &cur_code_up, &hidden);
        let cur_small = cur_frame.resize(ww, wh);
        let target = Tensor::from_plane(
            wh,
            ww,
            cur_small
                .data()
                .iter()
                .zip(warped.data().iter())
                .map(|(&c, &w)| c - w)
                .collect(),
        );
        (input, target)
    }
}

/// Block-wise binary drift correction: for each coarse block of the
/// (history-warped) previous code, find the integer shift in code cells
/// that minimizes the mismatch against the received current code, then
/// bilinearly interpolate block shifts into a dense correction field.
/// Blocks whose zero-shift mismatch is already negligible contribute no
/// correction (don't chase noise).
fn code_drift_correction(warped_pc: &Frame, cc: &Frame) -> nerve_flow::FlowField {
    let (cw, ch) = (cc.width(), cc.height());
    const GRID_X: usize = 4;
    const GRID_Y: usize = 2;
    const SEARCH: isize = 3;
    let bw = cw.div_ceil(GRID_X);
    let bh = ch.div_ceil(GRID_Y);

    // Per-block best shift.
    let mut shifts = [[(0.0f32, 0.0f32); GRID_X]; GRID_Y];
    for gy in 0..GRID_Y {
        for gx in 0..GRID_X {
            let x0 = (gx * bw) as isize;
            let y0 = (gy * bh) as isize;
            let mismatch = |dx: isize, dy: isize| -> f32 {
                let mut m = 0.0f32;
                for y in 0..bh as isize {
                    for x in 0..bw as isize {
                        m += (cc.get_clamped(x0 + x, y0 + y)
                            - warped_pc.get_clamped(x0 + x + dx, y0 + y + dy))
                        .abs();
                    }
                }
                m / (bw * bh) as f32
            };
            let zero = mismatch(0, 0);
            if zero < 0.12 {
                continue; // aligned well enough — no correction
            }
            let (mut best, mut bdx, mut bdy) = (zero, 0isize, 0isize);
            for dy in -SEARCH..=SEARCH {
                for dx in -SEARCH..=SEARCH {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let m = mismatch(dx, dy) + 0.004 * ((dx * dx + dy * dy) as f32).sqrt();
                    if m < best {
                        best = m;
                        bdx = dx;
                        bdy = dy;
                    }
                }
            }
            // Only correct when the improvement is decisive; binary edge
            // jitter produces shallow, misleading minima.
            if best > 0.55 * zero {
                continue;
            }
            // The correction moves the *sampling* location: target(p) =
            // source(p + flow), and mismatch(dx,dy) compared cc(p) with
            // warped_pc(p + d), so the correction is +d.
            shifts[gy][gx] = (bdx as f32, bdy as f32);
        }
    }

    // Bilinear interpolation of block shifts to a dense field.
    let mut field = nerve_flow::FlowField::zero(cw, ch);
    for y in 0..ch {
        for x in 0..cw {
            let fx = (x as f32 + 0.5) / bw as f32 - 0.5;
            let fy = (y as f32 + 0.5) / bh as f32 - 0.5;
            let gx0 = fx.floor().clamp(0.0, (GRID_X - 1) as f32) as usize;
            let gy0 = fy.floor().clamp(0.0, (GRID_Y - 1) as f32) as usize;
            let gx1 = (gx0 + 1).min(GRID_X - 1);
            let gy1 = (gy0 + 1).min(GRID_Y - 1);
            let tx = (fx - gx0 as f32).clamp(0.0, 1.0);
            let ty = (fy - gy0 as f32).clamp(0.0, 1.0);
            let lerp = |a: (f32, f32), b: (f32, f32), t: f32| {
                (a.0 + (b.0 - a.0) * t, a.1 + (b.1 - a.1) * t)
            };
            let top = lerp(shifts[gy0][gx0], shifts[gy0][gx1], tx);
            let bot = lerp(shifts[gy1][gx0], shifts[gy1][gx1], tx);
            let (dx, dy) = lerp(top, bot, ty);
            field.set(x, y, dx, dy);
        }
    }
    field
}

/// Pearson correlation of two frames over a block window. Returns 0 for
/// degenerate (zero-variance) blocks.
fn block_correlation(a: &Frame, b: &Frame, x0: usize, y0: usize, bw: usize, bh: usize) -> f32 {
    let x1 = (x0 + bw).min(a.width());
    let y1 = (y0 + bh).min(a.height());
    let n = ((x1 - x0) * (y1 - y0)) as f32;
    if n < 4.0 {
        return 0.0;
    }
    let (mut ma, mut mb) = (0.0f32, 0.0f32);
    for y in y0..y1 {
        for x in x0..x1 {
            ma += a.get(x, y);
            mb += b.get(x, y);
        }
    }
    ma /= n;
    mb /= n;
    let (mut va, mut vb, mut cov) = (0.0f32, 0.0f32, 0.0f32);
    for y in y0..y1 {
        for x in x0..x1 {
            let da = a.get(x, y) - ma;
            let db = b.get(x, y) - mb;
            va += da * da;
            vb += db * db;
            cov += da * db;
        }
    }
    if va <= 1e-6 || vb <= 1e-6 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Scale flow by local change evidence between the two codes: where a
/// blurred window around a cell contains no code difference, the flow is
/// forced to zero (no motion evidence → predict "static").
fn damp_flow(flow: nerve_flow::FlowField, pc: &Frame, cc: &Frame) -> nerve_flow::FlowField {
    let (w, h) = (flow.width(), flow.height());
    const R: isize = 3;
    let mut out = nerve_flow::FlowField::zero(w, h);
    for y in 0..h {
        for x in 0..w {
            let (mut diff, mut n) = (0.0f32, 0.0f32);
            for dy in -R..=R {
                for dx in -R..=R {
                    let sx = x as isize + dx;
                    let sy = y as isize + dy;
                    diff += (cc.get_clamped(sx, sy) - pc.get_clamped(sx, sy)).abs();
                    n += 1.0;
                }
            }
            let evidence = (diff / n / 0.04).clamp(0.0, 1.0);
            let (fx, fy) = flow.get(x, y);
            out.set(x, y, fx * evidence, fy * evidence);
        }
    }
    out
}

/// Diffusion inpainting with code-guided detail injection.
///
/// Invalid pixels are iteratively replaced by the average of their
/// neighbours (weighted toward valid ones), pulling surrounding content
/// into the hole; afterwards the current code's edges modulate local
/// contrast so synthesized regions don't look uniformly flat — the
/// "generate new content from the binary point code" role of the paper's
/// inpainting module.
fn inpaint(
    frame: &Frame,
    invalid: &Frame,
    code: &Frame,
    iterations: usize,
    detail_gain: f32,
) -> Frame {
    let (w, h) = (frame.width(), frame.height());
    let mut cur = frame.clone();
    let mut valid: Vec<bool> = invalid.data().iter().map(|&v| v < 0.5).collect();

    // Scene-cut degenerate case: (almost) nothing valid to peel from.
    // Fall back to a luminance wash at the frame's mean with the current
    // code's edges sketched in — given only an edge map of a brand-new
    // scene, that is the least-wrong frame constructible.
    let valid_fraction = valid.iter().filter(|&&v| v).count() as f32 / valid.len().max(1) as f32;
    if valid_fraction < 0.05 {
        let mean = frame.mean();
        // Center the sketch on the code's own mean — edges are sparse, so
        // centering on 0.5 would bias the wash darker every application.
        let code_mean = code.mean();
        return Frame::from_fn(w, h, |x, y| {
            if invalid.get(x, y) > 0.5 {
                (mean + detail_gain * 2.0 * (code.get(x, y) - code_mean)).clamp(0.0, 1.0)
            } else {
                frame.get(x, y)
            }
        });
    }

    // Onion-peel fill: each pass, every invalid pixel touching at least
    // one valid pixel takes the mean of its valid 8-neighbours and
    // becomes valid — the hole shrinks one ring per pass.
    for _ in 0..iterations {
        let mut changed = false;
        let mut next = cur.clone();
        let mut next_valid = valid.clone();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if valid[i] {
                    continue;
                }
                let (mut sum, mut count) = (0.0f32, 0u32);
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nx = x as i32 + dx;
                        let ny = y as i32 + dy;
                        if nx < 0 || ny < 0 || nx >= w as i32 || ny >= h as i32 {
                            continue;
                        }
                        if valid[ny as usize * w + nx as usize] {
                            sum += cur.get(nx as usize, ny as usize);
                            count += 1;
                        }
                    }
                }
                if count > 0 {
                    next.set(x, y, sum / count as f32);
                    next_valid[i] = true;
                    changed = true;
                }
            }
        }
        cur = next;
        valid = next_valid;
        if !changed {
            break;
        }
    }

    // Re-inject structure along the code's edges inside filled regions,
    // centered on the code's mean so sparse edges don't bias luminance.
    let code_mean = code.mean();
    Frame::from_fn(w, h, |x, y| {
        let v = cur.get(x, y);
        if invalid.get(x, y) > 0.5 {
            let edge = code.get(x, y) - code_mean;
            (v + detail_gain * edge).clamp(0.0, 1.0)
        } else {
            v
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point_code::{PointCodeConfig, PointCodeEncoder};
    use nerve_video::metrics::psnr;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn setup(seed: u64) -> (SyntheticVideo, PointCodeEncoder, RecoveryModel) {
        let (w, h) = (112, 64);
        // Moderate-motion scene: the regime recovery targets (sub-pixel
        // motion is reuse's home turf and the model falls back to it).
        let mut cfg = SceneConfig::preset(Category::Vlogs, h, w);
        cfg.motion = 1.5;
        cfg.pan_speed = 0.6;
        let video = SyntheticVideo::new(cfg, seed);
        let code = PointCodeConfig {
            width: 56,
            height: 32,
            threshold_percentile: 0.8,
        };
        let encoder = PointCodeEncoder::new(code.clone());
        let model = RecoveryModel::new(RecoveryConfig::with_code(h, w, code));
        (video, encoder, model)
    }

    #[test]
    fn recovery_beats_frame_reuse() {
        let (mut video, encoder, mut model) = setup(5);
        // Skip a few frames so objects are in motion.
        video.take_frames(3);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let recovered = model.recover(&prev, &encoder.encode(&cur), None);
        let reuse_psnr = psnr(&prev, &cur);
        let rec_psnr = psnr(&recovered, &cur);
        assert!(
            rec_psnr > reuse_psnr,
            "recovery {rec_psnr:.2} dB must beat reuse {reuse_psnr:.2} dB"
        );
    }

    #[test]
    fn output_has_configured_dimensions_and_range() {
        let (mut video, encoder, mut model) = setup(7);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let out = model.recover(&prev, &encoder.encode(&cur), None);
        assert_eq!((out.width(), out.height()), (112, 64));
        assert!(out.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn partial_rows_pass_through_verbatim() {
        let (mut video, encoder, mut model) = setup(11);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let mut row_valid = vec![false; 64];
        for r in row_valid.iter_mut().take(32) {
            *r = true;
        }
        let partial = PartialFrame::new(cur.clone(), row_valid);
        let out = model.recover(&prev, &encoder.encode(&cur), Some(&partial));
        for y in 0..32 {
            for x in 0..112 {
                assert_eq!(out.get(x, y), cur.get(x, y), "({x},{y})");
            }
        }
    }

    #[test]
    fn partial_input_improves_overall_quality() {
        let (mut video, encoder, mut model) = setup(13);
        video.take_frames(2);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let cc = encoder.encode(&cur);
        let whole = model.recover(&prev, &cc, None);
        model.reset();
        let mut row_valid = vec![false; 64];
        for r in row_valid.iter_mut().take(32) {
            *r = true;
        }
        let partial = PartialFrame::new(cur.clone(), row_valid);
        let with_part = model.recover(&prev, &cc, Some(&partial));
        assert!(psnr(&with_part, &cur) > psnr(&whole, &cur));
    }

    #[test]
    fn consecutive_recovery_degrades_gracefully() {
        let (mut video, encoder, mut model) = setup(17);
        video.take_frames(2);
        let mut prev = video.next_frame();
        model.observe(&prev);
        let truth = video.take_frames(8);
        let mut psnrs = Vec::new();
        for gt in &truth {
            let code = encoder.encode(gt);
            let rec = model.recover(&prev, &code, None);
            psnrs.push(psnr(&rec, gt));
            prev = rec;
        }
        // Quality after 8 consecutive recoveries is lower than after 1,
        // but still finite/positive — graceful, not catastrophic.
        assert!(psnrs[7] <= psnrs[0] + 1.0);
        assert!(psnrs[7] > 10.0, "chain collapsed: {psnrs:?}");
    }

    #[test]
    fn reset_clears_hidden_state() {
        let (mut video, encoder, mut model) = setup(19);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let cc = encoder.encode(&cur);
        let first = model.recover(&prev, &cc, None);
        model.reset();
        let second = model.recover(&prev, &cc, None);
        assert_eq!(first, second, "reset must restore initial behaviour");
    }

    /// The 64-bit FNV-1a of the third frame of a recovery chain, over its
    /// pixels' bits, pinned. The head is trained a few steps first, so
    /// the hidden state it reads (and `HIDDEN_DECAY`, which blends it)
    /// moves the output, as do the inpainting iterations and detail gain.
    #[test]
    fn recover_output_is_pinned() {
        let (mut video, encoder, mut model) = setup(23);
        crate::train::train_recovery(&mut model, &encoder, &mut video, 4);
        model.reset();
        let mut prev = video.next_frame();
        model.observe(&prev);
        for gt in video.take_frames(3) {
            prev = model.recover(&prev, &encoder.encode(&gt), None);
        }
        let fnv = prev.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        });
        assert_eq!(
            fnv, 0xad6e_a811_69c1_b8e3,
            "recovered frame fnv {fnv:#018x}"
        );
    }

    #[test]
    fn inpaint_fills_holes_from_surroundings() {
        let mut frame = Frame::filled(32, 32, 0.6);
        let mut invalid = Frame::new(32, 32);
        for y in 12..20 {
            for x in 12..20 {
                frame.set(x, y, 0.0);
                invalid.set(x, y, 1.0);
            }
        }
        let code = Frame::new(32, 32);
        let filled = inpaint(&frame, &invalid, &code, 20, 0.0);
        // Hole center pulled toward surrounding value.
        assert!(filled.get(15, 15) > 0.3, "center {}", filled.get(15, 15));
        // Valid pixels untouched.
        assert_eq!(filled.get(0, 0), 0.6);
    }

    #[test]
    fn inpaint_code_edges_add_structure() {
        let frame = Frame::filled(16, 16, 0.5);
        let invalid = Frame::filled(16, 16, 1.0);
        let mut code = Frame::new(16, 16);
        for x in 0..16 {
            code.set(x, 8, 1.0);
        }
        let filled = inpaint(&frame, &invalid, &code, 4, 0.2);
        assert!(
            filled.get(8, 8) > filled.get(8, 4),
            "edge row should stand out"
        );
    }

    #[test]
    fn cost_reports_nonzero_flops() {
        let (_, _, model) = setup(23);
        let c = model.cost();
        assert!(c.flops > 0 && c.params > 0);
    }

    #[test]
    fn ladder_selects_full_with_ample_budget() {
        let ladder = DegradationLadder::recovery(0.022);
        assert_eq!(ladder.select(0.033), DegradationRung::Full);
        assert_eq!(ladder.select(0.022), DegradationRung::Full);
    }

    #[test]
    fn ladder_falls_back_to_warp_only_when_budget_shrinks() {
        let ladder = DegradationLadder::recovery(0.022);
        // Below the full cost but above the warp cost (~5 ms).
        assert_eq!(ladder.select(0.021), DegradationRung::WarpOnly);
        assert_eq!(ladder.select(0.006), DegradationRung::WarpOnly);
    }

    #[test]
    fn ladder_freezes_when_even_warp_does_not_fit() {
        let ladder = DegradationLadder::recovery(0.022);
        assert_eq!(ladder.select(0.004), DegradationRung::Freeze);
        assert_eq!(ladder.select(0.0), DegradationRung::Freeze);
    }

    #[test]
    fn ladder_stalls_only_when_every_rung_is_disabled() {
        assert_eq!(
            DegradationLadder::stall_only().select(1.0),
            DegradationRung::Stall
        );
        assert_eq!(
            DegradationLadder::stall_only().select(0.0),
            DegradationRung::Stall
        );
        // Reuse-only: any budget freezes, never stalls.
        assert_eq!(
            DegradationLadder::reuse_only().select(0.0),
            DegradationRung::Freeze
        );
        assert_eq!(
            DegradationLadder::reuse_only().select(1.0),
            DegradationRung::Freeze
        );
    }

    #[test]
    fn ladder_selection_is_monotone_in_budget() {
        // Growing the budget never selects a cheaper rung.
        let ladder = DegradationLadder::recovery(0.022);
        let quality = |r: DegradationRung| match r {
            DegradationRung::Full => 3,
            DegradationRung::WarpOnly => 2,
            DegradationRung::Freeze => 1,
            DegradationRung::Stall => 0,
        };
        let mut last = 0;
        for i in 0..100 {
            let q = quality(ladder.select(i as f64 * 0.0005));
            assert!(q >= last, "quality dropped as budget grew at step {i}");
            last = q;
        }
    }

    #[test]
    fn warp_only_beats_freeze_on_moving_content() {
        // Same synthetic scene recovery_beats_frame_reuse uses: motion is
        // strong enough that warping toward the current code beats
        // re-displaying the stale frame.
        let (mut video, encoder, mut model) = setup(5);
        video.take_frames(3);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let code = encoder.encode(&cur);
        let warp_only = model
            .recover_degraded(&prev, &code, None, DegradationRung::WarpOnly)
            .unwrap();
        model.reset();
        let frozen = model
            .recover_degraded(&prev, &code, None, DegradationRung::Freeze)
            .unwrap();
        let warp_psnr = psnr(&warp_only, &cur);
        let freeze_psnr = psnr(&frozen, &cur);
        assert!(
            warp_psnr >= freeze_psnr,
            "warp-only {warp_psnr:.2} dB must not lose to freeze {freeze_psnr:.2} dB"
        );
    }

    #[test]
    fn full_recovery_beats_warp_only_on_moving_content() {
        let (mut video, encoder, mut model) = setup(5);
        video.take_frames(3);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let code = encoder.encode(&cur);
        let full = model
            .recover_degraded(&prev, &code, None, DegradationRung::Full)
            .unwrap();
        model.reset();
        let warp_only = model
            .recover_degraded(&prev, &code, None, DegradationRung::WarpOnly)
            .unwrap();
        // The untrained enhancement head is zero-initialized, so Full's
        // margin over WarpOnly comes from inpainting/hidden state; allow
        // equality but never a collapse.
        assert!(psnr(&full, &cur) + 0.5 >= psnr(&warp_only, &cur));
    }

    #[test]
    fn freeze_rung_passes_partial_rows_through() {
        let (mut video, encoder, mut model) = setup(11);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let mut row_valid = vec![false; 64];
        for r in row_valid.iter_mut().take(16) {
            *r = true;
        }
        let partial = PartialFrame::new(cur.clone(), row_valid);
        let out = model
            .recover_degraded(
                &prev,
                &encoder.encode(&cur),
                Some(&partial),
                DegradationRung::Freeze,
            )
            .unwrap();
        for x in 0..112 {
            assert_eq!(out.get(x, 0), cur.get(x, 0));
            assert_eq!(out.get(x, 40), prev.get(x, 40));
        }
    }

    #[test]
    fn try_recover_rejects_mismatched_code_geometry() {
        use crate::error::RecoveryError;
        let (mut video, _, mut model) = setup(3);
        let prev = video.next_frame();
        let cur = video.next_frame();
        let wrong = PointCodeEncoder::new(PointCodeConfig {
            width: 24,
            height: 16,
            threshold_percentile: 0.8,
        })
        .encode(&cur);
        match model.try_recover(&prev, &wrong, None) {
            Err(RecoveryError::CodeShapeMismatch { expected, got }) => {
                assert_eq!(expected, (56, 32));
                assert_eq!(got, (24, 16));
            }
            other => panic!("expected CodeShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn try_new_rejects_short_row_mask() {
        use crate::error::RecoveryError;
        let frame = Frame::new(8, 8);
        match PartialFrame::try_new(frame, vec![true; 4]) {
            Err(RecoveryError::RowMaskMismatch { rows: 8, mask: 4 }) => {}
            other => panic!("expected RowMaskMismatch, got {other:?}"),
        }
    }
}

/// Formerly ignored diagnostic printouts, now assertion-bearing: each
/// test records its per-stage mean PSNRs into a [`nerve_obs::Registry`]
/// and asserts the paper-shaped orderings from the snapshot (the same
/// read path the fleet trace log uses). Everything here is fully
/// deterministic — synthetic video, fixed model init — so the pinned
/// margins are regression fences, not statistical bounds.
#[cfg(test)]
mod diag {
    use super::*;
    use crate::point_code::{PointCodeConfig, PointCodeEncoder};
    use nerve_obs::Registry;
    use nerve_video::metrics::psnr;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn code_cfg() -> PointCodeConfig {
        PointCodeConfig {
            width: 56,
            height: 32,
            threshold_percentile: 0.8,
        }
    }

    /// Per-stage PSNR breakdown: frame reuse / historical-flow warp /
    /// full pipeline / oracle warp (true flow). Pins the stage ordering:
    /// the oracle upper-bounds the pipeline at every motion level, the
    /// pipeline tracks it within ~1.5 dB, and once motion is fast enough
    /// that reuse collapses the pipeline clears reuse by several dB.
    #[test]
    fn stage_isolation() {
        use nerve_flow::lk::estimate;
        use nerve_flow::warp::warp_frame;
        let reg = Registry::new();
        for motion in [0.5f32, 2.0] {
            let (w, h) = (112usize, 64usize);
            let mut cfg = SceneConfig::preset(Category::GamePlay, h, w);
            cfg.motion = motion;
            cfg.pan_speed = motion * 0.4;
            let mut video = SyntheticVideo::new(cfg, 5);
            let encoder = PointCodeEncoder::new(code_cfg());
            video.take_frames(3);
            let mut p2 = video.next_frame();
            let mut prev = video.next_frame();
            let mut model = RecoveryModel::new(RecoveryConfig::with_code(h, w, code_cfg()));
            model.observe(&p2);
            model.observe(&prev);
            let (mut s_reuse, mut s_hist, mut s_pipe, mut s_oracle) = (0.0, 0.0, 0.0, 0.0);
            for _ in 0..5 {
                let cur = video.next_frame();
                let hist_flow = estimate(&p2, &prev, &nerve_flow::lk::FlowConfig::default());
                let warp_hist = warp_frame(&prev, &hist_flow);
                let oracle = warp_frame(
                    &prev,
                    &estimate(&prev, &cur, &nerve_flow::lk::FlowConfig::default()),
                );
                model.observe(&p2);
                model.observe(&prev);
                let rec = model.recover(&prev, &encoder.encode(&cur), None);
                s_reuse += psnr(&prev, &cur);
                s_hist += psnr(&warp_hist, &cur);
                s_pipe += psnr(&rec, &cur);
                s_oracle += psnr(&oracle, &cur);
                model.observe(&cur);
                p2 = prev;
                prev = cur;
            }
            for (stage, sum) in [
                ("reuse", s_reuse),
                ("hist", s_hist),
                ("pipeline", s_pipe),
                ("oracle", s_oracle),
            ] {
                reg.gauge(&format!("diag.stage.m{motion}.{stage}"))
                    .set(sum / 5.0);
            }
        }
        let snap = reg.snapshot();
        println!("{}", snap.render_table());
        let g = |name: String| snap.gauge(&name).expect("stage gauge recorded");
        for m in ["0.5", "2"] {
            let pipe = g(format!("diag.stage.m{m}.pipeline"));
            let oracle = g(format!("diag.stage.m{m}.oracle"));
            assert!(
                oracle + 0.05 >= pipe,
                "oracle warp must upper-bound the pipeline at motion {m}: oracle {oracle:.2} < pipeline {pipe:.2}"
            );
            assert!(
                pipe >= oracle - 1.5,
                "pipeline should track the oracle warp at motion {m}: pipeline {pipe:.2} vs oracle {oracle:.2}"
            );
        }
        let pipe = g("diag.stage.m2.pipeline".into());
        let reuse = g("diag.stage.m2.reuse".into());
        assert!(
            pipe > reuse + 2.0,
            "at high motion the pipeline must clear frame reuse: pipeline {pipe:.2} vs reuse {reuse:.2}"
        );
    }

    /// Figure 7 shape: mean recovery PSNR vs. recovery-chain depth.
    /// Quality decays monotonically with depth, recovery clears frame
    /// reuse at every depth, and by depth 20 the point code's
    /// re-anchoring beats pure flow extrapolation (which drifts).
    #[test]
    fn fig7_chain_shape() {
        use crate::baselines::NoCodeRecovery;
        let (w, h) = (112usize, 64usize);
        let mut cfg = SceneConfig::preset(Category::Vlogs, h, w);
        cfg.motion = 1.5;
        cfg.pan_speed = 0.6;
        cfg.cut_interval = 15; // scene cuts land inside longer chains
        let chains = [5usize, 10, 20];
        let reg = Registry::new();
        for chain in chains {
            let mut video = SyntheticVideo::new(cfg.clone(), 5);
            let encoder = PointCodeEncoder::new(code_cfg());
            let mut model = RecoveryModel::new(RecoveryConfig::with_code(h, w, code_cfg()));
            let mut nocode = NoCodeRecovery::new(nerve_flow::lk::FlowConfig::default());
            video.take_frames(3);
            let f0 = video.next_frame();
            let last_good = video.next_frame();
            model.observe(&f0);
            model.observe(&last_good);
            nocode.observe(f0.clone());
            nocode.observe(last_good.clone());
            let mut prev = last_good.clone();
            let (mut s_reuse, mut s_nc, mut s_ours) = (0.0, 0.0, 0.0);
            for _ in 0..chain {
                let gt = video.next_frame();
                let code = encoder.encode(&gt);
                let rec = model.recover(&prev, &code, None);
                let nc = nocode.predict_and_advance().unwrap();
                s_reuse += psnr(&last_good, &gt);
                s_nc += psnr(&nc, &gt);
                s_ours += psnr(&rec, &gt);
                prev = rec;
            }
            let n = chain as f64;
            for (stage, sum) in [("reuse", s_reuse), ("nocode", s_nc), ("ours", s_ours)] {
                reg.gauge(&format!("diag.fig7.c{chain}.{stage}"))
                    .set(sum / n);
            }
        }
        let snap = reg.snapshot();
        println!("{}", snap.render_table());
        let g = |name: String| snap.gauge(&name).expect("chain gauge recorded");
        let ours: Vec<f64> = chains
            .iter()
            .map(|c| g(format!("diag.fig7.c{c}.ours")))
            .collect();
        for (i, pair) in ours.windows(2).enumerate() {
            assert!(
                pair[1] < pair[0],
                "recovery PSNR must decay with chain depth: c{} {:.2} -> c{} {:.2}",
                chains[i],
                pair[0],
                chains[i + 1],
                pair[1]
            );
        }
        for c in chains {
            let ours = g(format!("diag.fig7.c{c}.ours"));
            let reuse = g(format!("diag.fig7.c{c}.reuse"));
            assert!(
                ours > reuse + 2.0,
                "recovery must clear frame reuse at depth {c}: ours {ours:.2} vs reuse {reuse:.2}"
            );
        }
        let ours20 = g("diag.fig7.c20.ours".into());
        let nc20 = g("diag.fig7.c20.nocode".into());
        assert!(
            ours20 > nc20,
            "code re-anchoring must beat flow extrapolation once drift accumulates: ours {ours20:.2} vs nocode {nc20:.2}"
        );
    }

    /// Per-frame PSNR around a scene cut (the cut lands at step 10).
    /// Before the cut both schemes track the scene; after it the point
    /// code re-anchors recovery while the no-code baseline keeps warping
    /// stale content, so ours wins the post-cut window by over a dB.
    #[test]
    fn cut_timeseries() {
        use crate::baselines::NoCodeRecovery;
        let (w, h) = (112usize, 64usize);
        let mut cfg = SceneConfig::preset(Category::Vlogs, h, w);
        cfg.motion = 1.5;
        cfg.pan_speed = 0.6;
        cfg.cut_interval = 15;
        let mut video = SyntheticVideo::new(cfg, 5);
        let encoder = PointCodeEncoder::new(code_cfg());
        let mut model = RecoveryModel::new(RecoveryConfig::with_code(h, w, code_cfg()));
        let mut nocode = NoCodeRecovery::new(nerve_flow::lk::FlowConfig::default());
        video.take_frames(3);
        let f0 = video.next_frame();
        let last_good = video.next_frame();
        model.observe(&f0);
        model.observe(&last_good);
        nocode.observe(f0.clone());
        nocode.observe(last_good.clone());
        let mut prev = last_good.clone();
        const CUT_STEP: usize = 10;
        const STEPS: usize = 18;
        let reg = Registry::new();
        let (mut pre_ours, mut pre_nc, mut post_ours, mut post_nc) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..STEPS {
            let gt = video.next_frame();
            let code = encoder.encode(&gt);
            let rec = model.recover(&prev, &code, None);
            let nc = nocode.predict_and_advance().unwrap();
            let mn = rec.data().iter().cloned().fold(f32::INFINITY, f32::min);
            let mx = rec.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(
                mn.is_finite() && mx.is_finite(),
                "recovered frame must stay finite at step {i}"
            );
            let (p_ours, p_nc) = (psnr(&rec, &gt), psnr(&nc, &gt));
            println!(
                "step {i}: ours {p_ours:.2} nocode {p_nc:.2} mean {:.3} min {mn:.3} max {mx:.3} gtmean {:.3}",
                rec.mean(),
                gt.mean()
            );
            if i < CUT_STEP {
                pre_ours += p_ours;
                pre_nc += p_nc;
            } else {
                post_ours += p_ours;
                post_nc += p_nc;
            }
            prev = rec;
        }
        reg.gauge("diag.cut.pre.ours")
            .set(pre_ours / CUT_STEP as f64);
        reg.gauge("diag.cut.pre.nocode")
            .set(pre_nc / CUT_STEP as f64);
        let post_n = (STEPS - CUT_STEP) as f64;
        reg.gauge("diag.cut.post.ours").set(post_ours / post_n);
        reg.gauge("diag.cut.post.nocode").set(post_nc / post_n);
        let snap = reg.snapshot();
        println!("{}", snap.render_table());
        let g = |name: &str| snap.gauge(name).expect("cut gauge recorded");
        assert!(
            g("diag.cut.pre.ours") >= g("diag.cut.pre.nocode") - 1.0,
            "pre-cut, recovery should track the no-code baseline: {:.2} vs {:.2}",
            g("diag.cut.pre.ours"),
            g("diag.cut.pre.nocode")
        );
        assert!(
            g("diag.cut.post.ours") > g("diag.cut.post.nocode") + 1.0,
            "post-cut, code re-anchoring must beat stale warping by over a dB: {:.2} vs {:.2}",
            g("diag.cut.post.ours"),
            g("diag.cut.post.nocode")
        );
    }

    /// Recovery PSNR across motion magnitudes. Recovery quality decays
    /// monotonically with motion, beats frame reuse once motion reaches
    /// 1.0, and its advantage over reuse widens as motion grows.
    #[test]
    fn motion_sweep() {
        let motions = [0.5f32, 1.0, 2.0, 4.0];
        let reg = Registry::new();
        for motion in motions {
            let (w, h) = (112usize, 64usize);
            let mut cfg = SceneConfig::preset(Category::GamePlay, h, w);
            cfg.motion = motion;
            cfg.pan_speed = motion * 0.4;
            let mut video = SyntheticVideo::new(cfg, 5);
            let encoder = PointCodeEncoder::new(code_cfg());
            let mut model = RecoveryModel::new(RecoveryConfig::with_code(h, w, code_cfg()));
            video.take_frames(3);
            let mut reuse_sum = 0.0;
            let mut rec_sum = 0.0;
            let mut p2 = video.next_frame();
            let mut prev = video.next_frame();
            for _ in 0..5 {
                let cur = video.next_frame();
                model.observe(&p2);
                model.observe(&prev);
                let rec = model.recover(&prev, &encoder.encode(&cur), None);
                reuse_sum += psnr(&prev, &cur);
                rec_sum += psnr(&rec, &cur);
                p2 = prev;
                prev = cur;
            }
            reg.gauge(&format!("diag.motion.m{motion}.reuse"))
                .set(reuse_sum / 5.0);
            reg.gauge(&format!("diag.motion.m{motion}.recovery"))
                .set(rec_sum / 5.0);
        }
        let snap = reg.snapshot();
        println!("{}", snap.render_table());
        let g = |name: String| snap.gauge(&name).expect("motion gauge recorded");
        let labels = ["0.5", "1", "2", "4"];
        let rec: Vec<f64> = labels
            .iter()
            .map(|m| g(format!("diag.motion.m{m}.recovery")))
            .collect();
        let adv: Vec<f64> = labels
            .iter()
            .map(|m| g(format!("diag.motion.m{m}.recovery")) - g(format!("diag.motion.m{m}.reuse")))
            .collect();
        for (i, pair) in rec.windows(2).enumerate() {
            assert!(
                pair[1] < pair[0],
                "recovery PSNR must decay with motion: m{} {:.2} -> m{} {:.2}",
                labels[i],
                pair[0],
                labels[i + 1],
                pair[1]
            );
        }
        for (m, a) in labels.iter().zip(&adv).skip(1) {
            assert!(
                *a > 1.0,
                "recovery must clear frame reuse at motion {m}: advantage {a:.2} dB"
            );
        }
        for (i, pair) in adv.windows(2).enumerate() {
            assert!(
                pair[1] > pair[0] - 0.25,
                "recovery advantage over reuse should widen with motion: m{} {:.2} -> m{} {:.2}",
                labels[i],
                pair[0],
                labels[i + 1],
                pair[1]
            );
        }
    }
}
