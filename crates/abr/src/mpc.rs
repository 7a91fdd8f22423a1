//! The enhancement-aware model-predictive ABR (§6).
//!
//! For every candidate bitrate the controller simulates the next chunk's
//! playout with the paper's frame-level accounting:
//!
//! * expected play time of frame `i`: `T_play(i) = buffer + i·Δ`;
//! * expected arrival: `T_arr(i) = Σ_j≤i S_j / tput_pred` (uniform frame
//!   sizes within the chunk);
//! * frames with `T_arr > T_play` are late, and a predicted fraction are
//!   lost outright (residual loss after QUIC retransmission) — both go
//!   through **recovery**;
//! * frames that arrive with at least `T_SR` of slack get **SR** (§6:
//!   "we skip SR if SR can cause rebuffering", so SR never stalls);
//! * the blended frame quality (plain / recovered-at-depth / SR'd PSNR
//!   from the calibrated [`QualityMaps`]) is mapped back through the
//!   PSNR↔bitrate curve into an *effective utility*;
//! * rebuffering: without recovery a late frame stalls until it arrives;
//!   with recovery it costs `min(wait, T_RC)` (§6's formula) — recovery
//!   converts stalls into the 22 ms model run.
//!
//! The rung maximizing `utility − μ·rebuffer − |Δutility|` wins. With
//! both awareness flags off this degenerates to a plain throughput-MPC,
//! which serves as the "without recovery-aware / SR-aware ABR" baseline
//! in Figures 12 and 17.

use crate::predict::{Ewma, HoltWinters, Predictor};
use crate::qoe::{chunk_qoe, QoeParams, QualityMaps};
use crate::{Abr, AbrContext};

/// Per-frame runtime of the recovery model and of the SR model, seconds
/// (paper: 22 ms each; §6's `T_RC` and `T_SR`).
pub const MODEL_SECS: f64 = 0.022;

/// Nominal transport packet payload, bytes.
pub const PACKET_BYTES: usize = 1200;

/// What the controller knows about client-side enhancement.
#[derive(Debug, Clone)]
pub struct EnhancementConfig {
    /// Model the QoE benefit/cost of video recovery.
    pub recovery_aware: bool,
    /// Model the QoE benefit of super-resolution.
    pub sr_aware: bool,
    /// Fraction of predicted packet loss that survives transport
    /// retransmission (QUIC fast retransmit leaves ~p² residual; the
    /// paper measures 1.6% residual on 5G).
    pub residual_loss_factor: f64,
}

impl Default for EnhancementConfig {
    fn default() -> Self {
        Self {
            recovery_aware: true,
            sr_aware: true,
            residual_loss_factor: 0.35,
        }
    }
}

/// Which predictor drives the throughput estimate (ablation axis; §6
/// names both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    Ewma,
    HoltWinters,
}

/// The enhancement-aware ABR.
pub struct EnhancementAwareAbr {
    maps: QualityMaps,
    params: QoeParams,
    config: EnhancementConfig,
    predictor: PredictorKind,
}

impl EnhancementAwareAbr {
    pub fn new(maps: QualityMaps, params: QoeParams, config: EnhancementConfig) -> Self {
        Self {
            maps,
            params,
            config,
            predictor: PredictorKind::HoltWinters,
        }
    }

    /// Steady-state utility of a rung under this controller's own quality
    /// model: what the previous chunk at that rung was worth to the
    /// viewer. Serves as the smoothness reference — without it, a
    /// smoothness weight of 1 exactly cancels every upgrade in one-step
    /// lookahead and the controller never climbs.
    fn steady_utility(&self, rung: usize) -> f64 {
        if self.config.sr_aware {
            self.maps.utility_for_psnr(self.maps.sr_psnr[rung])
        } else if self.config.recovery_aware {
            self.maps.utility_for_psnr(self.maps.plain_psnr[rung])
        } else {
            self.maps.ladder_kbps[rung] as f64 / 1000.0
        }
    }

    /// The enhancement-blind variant ("w/o RC-aware" / "w/o SR-aware"
    /// ABR in the paper's figures): same controller, no enhancement
    /// modelling.
    pub fn enhancement_blind(maps: QualityMaps, params: QoeParams) -> Self {
        Self::new(
            maps,
            params,
            EnhancementConfig {
                recovery_aware: false,
                sr_aware: false,
                ..EnhancementConfig::default()
            },
        )
    }

    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = kind;
        self
    }

    pub fn config(&self) -> &EnhancementConfig {
        &self.config
    }

    fn predict_throughput_kbps(&self, ctx: &AbrContext) -> f64 {
        let mut p: Box<dyn Predictor> = match self.predictor {
            PredictorKind::Ewma => Box::new(Ewma::new(0.35)),
            PredictorKind::HoltWinters => Box::new(HoltWinters::new(0.5, 0.3)),
        };
        for &s in &ctx.throughput_kbps {
            p.update(s);
        }
        let pred = p.predict();
        if pred <= 0.0 {
            // Cold start: be conservative, assume the lowest rung drains.
            ctx.ladder_kbps[0] as f64
        } else {
            pred
        }
    }

    fn predict_loss(&self, ctx: &AbrContext) -> f64 {
        let mut e = Ewma::new(0.3);
        for &s in &ctx.loss_rates {
            e.update(s);
        }
        e.predict().clamp(0.0, 0.5)
    }

    /// Evaluate the expected QoE contribution of streaming the next chunk
    /// at ladder index `rung`. Public so experiments can introspect the
    /// controller's view (Figure 14's per-decision traces).
    pub fn evaluate_rung(&self, ctx: &AbrContext, rung: usize) -> f64 {
        let (utility, rebuffer) = self.evaluate_rung_detail(ctx, rung);
        let prev_utility = self.steady_utility(ctx.last_choice.min(ctx.ladder_kbps.len() - 1));
        chunk_qoe(utility, rebuffer, prev_utility, &self.params)
    }

    /// The expected (utility, rebuffer) of the next chunk at a rung.
    fn evaluate_rung_detail(&self, ctx: &AbrContext, rung: usize) -> (f64, f64) {
        let kbps = ctx.ladder_kbps[rung] as f64;
        let tput = self.predict_throughput_kbps(ctx);
        let loss = self.predict_loss(ctx);
        let frames = ctx.frames_per_chunk.max(1);
        let delta = ctx.chunk_seconds / frames as f64;
        let download_secs = kbps * ctx.chunk_seconds / tput.max(1e-9);

        // Residual per-packet loss after transport retransmission, then
        // per-frame loss (any packet missing kills the frame's slice(s)).
        let residual = loss * self.config.residual_loss_factor;
        let bytes_per_frame = kbps * 1000.0 / 8.0 * ctx.chunk_seconds / frames as f64;
        let pkts_per_frame = (bytes_per_frame / PACKET_BYTES as f64).max(1.0);
        let p_frame_lost = 1.0 - (1.0 - residual).powf(pkts_per_frame);

        // Frame classification (§6): late, lost, SR-able, plain.
        let mut n_late = 0usize;
        let mut n_sr = 0usize;
        let mut stall_wait = 0.0f64; // total wait if late frames stall
        let mut recovery_rebuffer = 0.0f64; // min(wait, T_RC) if recovered
        for i in 1..=frames {
            let t_play = ctx.buffer_secs + i as f64 * delta;
            let t_arr = download_secs * i as f64 / frames as f64;
            if t_arr > t_play {
                n_late += 1;
                let wait = t_arr - t_play;
                stall_wait += wait;
                recovery_rebuffer += wait.min(MODEL_SECS);
            } else if t_play > t_arr + MODEL_SECS {
                n_sr += 1;
            }
        }
        let n_lost = ((frames - n_late) as f64 * p_frame_lost).round() as usize;
        let n_recovered = n_late + n_lost;
        let n_sr = n_sr
            .saturating_sub(n_lost)
            .min(frames - n_recovered.min(frames));
        let n_plain = frames - n_recovered.min(frames) - n_sr;

        // Quality and rebuffering under the configured awareness.
        let (utility, rebuffer) = if self.config.recovery_aware || self.config.sr_aware {
            let q_plain = self.maps.plain_psnr[rung];
            let q_sr = self.maps.sr_psnr[rung];
            let mut psnr_acc = q_plain * n_plain as f64;
            let mut rebuffer = 0.0;
            if self.config.recovery_aware {
                // Two recovered-frame populations with very different
                // chain shapes. *Late* frames bunch contiguously at the
                // chunk tail (arrival falls behind playout and stays
                // behind), so they form one chain whose depth runs
                // 1..n_late — their quality decays with the predicted
                // chain length, exactly as the player will experience it.
                // *Lost* frames scatter; chains reset at every good frame
                // and the expected run length under per-frame loss q is
                // 1/(1-q), clamped short. (A fixed short clamp applied to
                // the late population too — an earlier version — hides
                // the cost of holding a rung the link can no longer
                // sustain, which is precisely when the controller must
                // downgrade.)
                for d in 1..=n_late {
                    psnr_acc += self.maps.recovered_psnr_at_depth(rung, d);
                }
                let depth_lost =
                    (1.0 / (1.0 - p_frame_lost.min(0.8))).ceil().clamp(1.0, 6.0) as usize;
                psnr_acc += self.maps.recovered_psnr_at_depth(rung, depth_lost) * n_lost as f64;
                // Recovery runs within the 33 ms frame budget (§8.4): a
                // recovered frame costs at most min(wait, T_RC) of stall.
                rebuffer += recovery_rebuffer;
            } else {
                // Recovery still happens at the client, but this
                // controller doesn't know: treat recovered frames as
                // plain and count the stall it expects.
                psnr_acc += q_plain * n_recovered as f64;
                rebuffer += stall_wait;
            }
            if self.config.sr_aware {
                psnr_acc += q_sr * n_sr as f64;
            } else {
                psnr_acc += q_plain * n_sr as f64;
            }
            let mean_psnr = psnr_acc / frames as f64;
            (self.maps.utility_for_psnr(mean_psnr), rebuffer)
        } else {
            (kbps / 1000.0, stall_wait)
        };

        (utility, rebuffer)
    }
}

impl Abr for EnhancementAwareAbr {
    fn choose(&mut self, ctx: &AbrContext) -> usize {
        // Constant-rung lookahead over a short horizon: the first chunk
        // pays the smoothness cost of switching; the remaining chunks
        // reap the rung's steady utility minus its expected rebuffering.
        // (One-step lookahead with smoothness weight 1 makes every
        // upgrade a wash — the gain only materializes over the horizon.)
        const HORIZON: f64 = 3.0;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for rung in 0..ctx.ladder_kbps.len() {
            let (utility, rebuffer) = self.evaluate_rung_detail(ctx, rung);
            let prev = self.steady_utility(ctx.last_choice.min(ctx.ladder_kbps.len() - 1));
            let first = chunk_qoe(utility, rebuffer, prev, &self.params);
            let steady = utility - self.params.rebuffer_penalty * rebuffer;
            let score = first + (HORIZON - 1.0) * steady;
            if score >= best_score - 1e-9 {
                best_score = score.max(best_score);
                best = rung;
            }
        }
        // Hysteresis: staying put is worth a small margin — jitter between
        // adjacent rungs erodes QoE through the smoothness term.
        let stay = ctx.last_choice.min(ctx.ladder_kbps.len() - 1);
        if best != stay {
            let (u, r) = self.evaluate_rung_detail(ctx, stay);
            let prev = self.steady_utility(stay);
            let stay_score = chunk_qoe(u, r, prev, &self.params)
                + (HORIZON - 1.0) * (u - self.params.rebuffer_penalty * r);
            if stay_score >= best_score - 0.05 {
                return stay;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        match (self.config.recovery_aware, self.config.sr_aware) {
            (true, true) => "NERVE (RC+SR aware)",
            (true, false) => "RC-aware",
            (false, true) => "SR-aware",
            (false, false) => "MPC (blind)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [u32; 5] = [512, 1024, 1600, 2640, 4400];

    fn ctx_with_tput(kbps: f64, buffer: f64) -> AbrContext {
        AbrContext {
            buffer_secs: buffer,
            last_choice: 0,
            throughput_kbps: vec![kbps; 6],
            loss_rates: vec![0.0; 6],
            chunk_seconds: 4.0,
            ladder_kbps: LADDER.to_vec(),
            frames_per_chunk: 120,
        }
    }

    fn aware() -> EnhancementAwareAbr {
        EnhancementAwareAbr::new(
            QualityMaps::placeholder(&LADDER),
            QoeParams::default(),
            EnhancementConfig::default(),
        )
    }

    fn blind() -> EnhancementAwareAbr {
        EnhancementAwareAbr::enhancement_blind(
            QualityMaps::placeholder(&LADDER),
            QoeParams::default(),
        )
    }

    #[test]
    fn high_throughput_selects_high_rung() {
        let ctx = ctx_with_tput(8000.0, 8.0);
        assert_eq!(blind().choose(&ctx), LADDER.len() - 1);
        assert_eq!(aware().choose(&ctx), LADDER.len() - 1);
    }

    #[test]
    fn low_throughput_selects_low_rung() {
        let ctx = ctx_with_tput(450.0, 1.0);
        assert_eq!(blind().choose(&ctx), 0);
    }

    #[test]
    fn empty_history_is_conservative() {
        let ctx = AbrContext::bootstrap(LADDER.to_vec(), 4.0, 120);
        let choice = aware().choose(&ctx);
        assert_eq!(choice, 0, "cold start must not gamble");
    }

    #[test]
    fn aware_controller_downgrades_less_under_marginal_throughput() {
        // Throughput barely below a rung: the blind controller must drop
        // to avoid stalls; the aware one knows recovery caps the cost of
        // the occasional late frame at 22 ms and can hold the rung.
        let ctx = ctx_with_tput(1500.0, 2.0);
        let blind_choice = blind().choose(&ctx);
        let aware_choice = aware().choose(&ctx);
        assert!(
            aware_choice >= blind_choice,
            "aware {aware_choice} < blind {blind_choice}"
        );
    }

    #[test]
    fn sr_awareness_raises_low_rung_value() {
        // With SR, the lowest rung plays back at better-than-native
        // quality; its evaluated QoE must exceed the blind evaluation.
        let ctx = ctx_with_tput(600.0, 6.0);
        let a = aware();
        let b = blind();
        assert!(a.evaluate_rung(&ctx, 0) > b.evaluate_rung(&ctx, 0));
    }

    #[test]
    fn loss_awareness_accounts_recovery_cost() {
        let mut lossy = ctx_with_tput(3000.0, 6.0);
        lossy.loss_rates = vec![0.05; 6];
        let clean = ctx_with_tput(3000.0, 6.0);
        let a = aware();
        // Same rung evaluates worse under loss (recovered frames have
        // lower PSNR and cost recovery time).
        assert!(a.evaluate_rung(&lossy, 3) < a.evaluate_rung(&clean, 3));
    }

    #[test]
    fn deep_buffer_tolerates_slow_download() {
        // With 20 s buffered, even a rung above current throughput plays
        // without stalls; with 0 buffer it must stall.
        let deep = ctx_with_tput(1200.0, 20.0);
        let shallow = ctx_with_tput(1200.0, 0.0);
        let b = blind();
        assert!(b.evaluate_rung(&deep, 3) > b.evaluate_rung(&shallow, 3));
    }

    #[test]
    fn predictor_kinds_both_work() {
        for kind in [PredictorKind::Ewma, PredictorKind::HoltWinters] {
            let mut abr = aware().with_predictor(kind);
            let ctx = ctx_with_tput(2000.0, 5.0);
            let choice = abr.choose(&ctx);
            assert!(choice < LADDER.len());
        }
    }

    #[test]
    fn name_reflects_awareness() {
        assert_eq!(aware().name(), "NERVE (RC+SR aware)");
        assert_eq!(blind().name(), "MPC (blind)");
    }
}
