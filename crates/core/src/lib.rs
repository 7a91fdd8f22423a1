//! # nerve-core
//!
//! The paper's primary contribution, as a library:
//!
//! * [`point_code`] — the server-side *binary point code* extractor: a
//!   difference-convolution edge encoder binarized to a 64x128 bitmap
//!   (≤ 1 KB) that carries contour and, across consecutive codes, motion
//!   hints. Shipped reliably over the TCP-like channel.
//! * [`recovery`] — the client-side video recovery model (§4): optical
//!   flow between consecutive point codes, warp of the previous frame at
//!   reduced resolution (the 270p trick), a trained enhancement head, a
//!   code-guided inpainting branch for new content, and partial-frame
//!   (`I_part`) override for error concealment.
//! * [`sr`] — the real-time multi-resolution super-resolution model (§5):
//!   one shared flow estimator plus independent per-resolution residual
//!   heads with PixelShuffle upsampling, trained with Charbonnier loss.
//! * [`baselines`] — frame reuse, recovery-without-code, plain upsampling,
//!   and the RLSP/BasicVSR/CKBG-class heavy SR stacks Table 1 compares
//!   against.
//! * [`device`] — the iPhone 12 cost model calibrated to every latency,
//!   CPU, and energy number in §8.4 and Table 1.
//! * [`train`] — small, deterministic training loops used to fit the
//!   enhancement/SR heads on synthetic data.

#![allow(clippy::needless_range_loop)] // index loops mirror the math

pub mod baselines;
pub mod breaker;
pub mod device;
pub mod error;
pub mod live;
pub mod point_code;
pub mod recovery;
pub mod sr;
pub mod train;

pub use breaker::{BreakerConfig, BreakerCounters, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use error::RecoveryError;
pub use live::{choose_repair, LivePolicy, RepairAction, RepairContext, RepairCosts};
pub use point_code::{PointCode, PointCodeConfig, PointCodeEncoder};
pub use recovery::{DegradationLadder, DegradationRung, RecoveryConfig, RecoveryModel};
pub use sr::{SrConfig, SuperResolver};
