//! The NEMO-style baseline (Yeo et al., MobiCom 2020).
//!
//! NEMO enables neural-enhanced streaming on phones by super-resolving
//! only *anchor* frames with a content-specific DNN prepared offline, and
//! propagating enhancement between anchors via codec motion vectors. The
//! paper positions it as the closest prior system and calls out its
//! limits (§2, §8.3): on-demand only (offline anchor selection + training
//! per video), *no loss recovery* (late/lost frames reuse the previous
//! frame), and rate adaptation that considers enhancement only coarsely.
//!
//! This module models exactly that behaviour profile:
//!
//! * SR quality applies to the anchor fraction of frames, with a reduced
//!   propagated gain for non-anchors;
//! * lost/late frames earn the *reuse* quality penalty instead of
//!   recovery;
//! * the rate controller knows its own (anchor-limited) SR gain but has
//!   no recovery term.

use crate::predict::{Ewma, Predictor};
use crate::qoe::{chunk_qoe, QoeParams, QualityMaps};
use crate::{Abr, AbrContext};

/// Fraction of frames that are anchors (fully SR'd).
const ANCHOR_FRACTION: f64 = 0.15;
/// Fraction of the full SR PSNR gain that propagation preserves on
/// non-anchor frames.
const PROPAGATION_EFFICIENCY: f64 = 0.6;
/// Quality penalty (dB) of showing a reused frame for a late/lost one.
const REUSE_PENALTY_DB: f64 = 6.0;

/// Effective SR PSNR at a rung under anchor-limited enhancement: anchors
/// get the full SR gain, the frames between them the propagated share.
pub fn effective_sr_psnr(maps: &QualityMaps, rung: usize) -> f64 {
    let plain = maps.plain_psnr[rung];
    let full_gain = maps.sr_psnr[rung] - plain;
    let effective_gain =
        full_gain * (ANCHOR_FRACTION + (1.0 - ANCHOR_FRACTION) * PROPAGATION_EFFICIENCY);
    plain + effective_gain
}

/// The NEMO-style ABR + quality model.
pub struct NemoAbr {
    maps: QualityMaps,
    params: QoeParams,
}

impl NemoAbr {
    pub fn new(maps: QualityMaps, params: QoeParams) -> Self {
        Self { maps, params }
    }

    /// Quality of a late/lost frame under NEMO (frame reuse).
    pub fn reuse_psnr(&self, rung: usize) -> f64 {
        (self.maps.plain_psnr[rung] - REUSE_PENALTY_DB).max(8.0)
    }

    /// Expected QoE of the next chunk at a rung (the controller's view).
    pub fn evaluate_rung(&self, ctx: &AbrContext, rung: usize) -> f64 {
        let kbps = ctx.ladder_kbps[rung] as f64;
        let mut tput = Ewma::new(0.35);
        for &s in &ctx.throughput_kbps {
            tput.update(s);
        }
        let tput = if tput.predict() > 0.0 {
            tput.predict()
        } else {
            ctx.ladder_kbps[0] as f64
        };
        let frames = ctx.frames_per_chunk.max(1);
        let delta = ctx.chunk_seconds / frames as f64;
        let download = kbps * ctx.chunk_seconds / tput.max(1e-9);

        // Late frames: NEMO has no recovery — they stall (rebuffer) and
        // then display; the enhancement-unaware part of its controller
        // simply eats the stall.
        let mut stall = 0.0;
        let mut n_late = 0usize;
        for i in 1..=frames {
            let t_play = ctx.buffer_secs + i as f64 * delta;
            let t_arr = download * i as f64 / frames as f64;
            if t_arr > t_play {
                stall += t_arr - t_play;
                n_late += 1;
            }
        }
        let n_good = frames - n_late;
        let mean_psnr = (effective_sr_psnr(&self.maps, rung) * n_good as f64
            + self.reuse_psnr(rung) * n_late as f64)
            / frames as f64;
        let utility = self.maps.utility_for_psnr(mean_psnr);
        let prev = self.maps.utility_for_psnr(effective_sr_psnr(
            &self.maps,
            ctx.last_choice.min(ctx.ladder_kbps.len() - 1),
        ));
        chunk_qoe(utility, stall, prev, &self.params)
    }
}

impl Abr for NemoAbr {
    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let mut best = 0;
        let mut best_q = f64::NEG_INFINITY;
        for rung in 0..ctx.ladder_kbps.len() {
            let q = self.evaluate_rung(ctx, rung);
            if q >= best_q - 1e-9 {
                best_q = q.max(best_q);
                best = rung;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [u32; 5] = [512, 1024, 1600, 2640, 4400];

    fn nemo() -> NemoAbr {
        NemoAbr::new(QualityMaps::placeholder(&LADDER), QoeParams::default())
    }

    fn ctx(tput: f64, buffer: f64) -> AbrContext {
        AbrContext {
            buffer_secs: buffer,
            last_choice: 0,
            throughput_kbps: vec![tput; 5],
            loss_rates: vec![0.01; 5],
            chunk_seconds: 4.0,
            ladder_kbps: LADDER.to_vec(),
            frames_per_chunk: 120,
        }
    }

    #[test]
    fn anchor_limited_sr_gains_less_than_full_sr() {
        let maps = QualityMaps::placeholder(&LADDER);
        for rung in 0..4 {
            let eff = effective_sr_psnr(&maps, rung);
            assert!(eff > maps.plain_psnr[rung], "rung {rung} gains something");
            assert!(
                eff < maps.sr_psnr[rung],
                "rung {rung} gains less than full SR"
            );
        }
    }

    #[test]
    fn reuse_penalty_applies() {
        let n = nemo();
        let maps = QualityMaps::placeholder(&LADDER);
        assert!(n.reuse_psnr(2) < maps.plain_psnr[2]);
    }

    #[test]
    fn chooses_sensible_rungs() {
        let mut n = nemo();
        assert_eq!(n.choose(&ctx(8000.0, 10.0)), LADDER.len() - 1);
        let low = n.choose(&ctx(500.0, 1.0));
        assert!(low <= 1);
    }

    #[test]
    fn late_frames_reduce_evaluated_qoe() {
        let n = nemo();
        // Tight buffer + slow link: rung 4 has many late frames.
        let strained = ctx(1000.0, 0.5);
        let relaxed = ctx(8000.0, 10.0);
        assert!(n.evaluate_rung(&strained, 4) < n.evaluate_rung(&relaxed, 4));
    }
}
