//! # nerve-abr
//!
//! Adaptive bitrate algorithms for the NERVE reproduction.
//!
//! The paper's ABR contribution (§6) is *enhancement awareness*: instead
//! of optimizing the QoE of the bits that arrive, optimize the QoE of
//! what the viewer actually sees after client-side recovery and
//! super-resolution. This crate implements:
//!
//! * [`qoe`] — the standard QoE objective
//!   `(Σ Rₙ − μ Σ Tₙ − Σ|Rₙ₊₁ − Rₙ|)/N` and the calibrated quality maps
//!   (PSNR↔bitrate, recovered-frame PSNR, SR PSNR — Figure 4);
//! * [`predict`] — EWMA and Holt–Winters throughput/loss predictors (§6);
//! * [`mpc`] — the enhancement-aware model-predictive ABR: per candidate
//!   bitrate it classifies the chunk's frames into recovered / SR'd /
//!   plain using the paper's `T_play` vs `T_arr` accounting, maps the
//!   blended quality back to an effective bitrate utility, estimates
//!   rebuffering including recovery cost, and picks the argmax. With
//!   both awareness flags off it is the enhancement-blind MPC baseline;
//! * [`nemo`] — the NEMO-style SR-only baseline (anchor-limited SR, no
//!   recovery, frame reuse on loss);
//! * [`fec_table`] — the offline loss-rate → FEC-redundancy lookup table
//!   (§4 "Joint FEC and video recovery").
//!
//! The crate is deliberately substrate-free: it sees only an
//! [`AbrContext`] snapshot, so the same algorithms run inside the full
//! pixel-accurate simulator and in fast analytic sweeps.

pub mod fec_table;
pub mod mpc;
pub mod nemo;
pub mod predict;
pub mod qoe;

/// Everything an ABR may look at when choosing the next chunk's rung.
#[derive(Debug, Clone)]
pub struct AbrContext {
    /// Seconds of video currently buffered at the client.
    pub buffer_secs: f64,
    /// Ladder index selected for the previous chunk.
    pub last_choice: usize,
    /// Recent observed chunk throughputs in kbps (oldest first).
    pub throughput_kbps: Vec<f64>,
    /// Recent observed packet loss rates (oldest first).
    pub loss_rates: Vec<f64>,
    /// Chunk duration in seconds.
    pub chunk_seconds: f64,
    /// Available bitrates in kbps, ascending.
    pub ladder_kbps: Vec<u32>,
    /// Frames per chunk.
    pub frames_per_chunk: usize,
}

impl AbrContext {
    /// A reasonable starting context for tests and session bootstrap.
    pub fn bootstrap(ladder_kbps: Vec<u32>, chunk_seconds: f64, frames_per_chunk: usize) -> Self {
        Self {
            buffer_secs: 0.0,
            last_choice: 0,
            throughput_kbps: Vec::new(),
            loss_rates: Vec::new(),
            chunk_seconds,
            ladder_kbps,
            frames_per_chunk,
        }
    }
}

/// An adaptive-bitrate policy.
///
/// `Send` because controllers are plain data (maps + parameters): the
/// sharded fleet moves per-session state — including its boxed policy —
/// between shard workers at handoff.
pub trait Abr: Send {
    /// Pick the ladder index for the next chunk.
    fn choose(&mut self, ctx: &AbrContext) -> usize;
}

/// An [`Abr`] clamped to a maximum ladder rung.
///
/// Edge-server admission control downgrades a session by capping the
/// rungs its controller may pick (BONES-style: shared bandwidth and
/// shared enhancement compute are rationed by bounding each client's
/// demand, not by rewriting its policy). The inner ABR still sees the
/// full context — only its decision is clamped, so lifting the cap later
/// restores full-quality behaviour with no controller state loss.
pub struct CappedAbr {
    inner: Box<dyn Abr>,
    cap: usize,
}

impl CappedAbr {
    /// Clamp `inner` to ladder indices `0..=cap`.
    pub fn new(inner: Box<dyn Abr>, cap: usize) -> Self {
        Self { inner, cap }
    }

    /// The active rung cap.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

impl Abr for CappedAbr {
    fn choose(&mut self, ctx: &AbrContext) -> usize {
        self.inner.choose(ctx).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Greedy;
    impl Abr for Greedy {
        fn choose(&mut self, ctx: &AbrContext) -> usize {
            ctx.ladder_kbps.len() - 1
        }
    }

    #[test]
    fn capped_abr_clamps_greedy_choice() {
        let ctx = AbrContext::bootstrap(vec![512, 1024, 1600, 2640, 4400], 4.0, 120);
        let mut capped = CappedAbr::new(Box::new(Greedy), 2);
        assert_eq!(capped.choose(&ctx), 2);
        assert_eq!(capped.cap(), 2);
        let mut uncapped = CappedAbr::new(Box::new(Greedy), 4);
        assert_eq!(uncapped.choose(&ctx), 4);
    }
}
