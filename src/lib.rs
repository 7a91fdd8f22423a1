//! # NERVE — Real-Time Neural Video Recovery and Enhancement
//!
//! This crate is the facade of a full-system reproduction of
//! *"Real-Time Neural Video Recovery and Enhancement on Mobile Devices"*
//! (He, Yang, Qiu, Park — CoNEXT 2024, arXiv 2307.12152).
//!
//! The system has three coupled contributions, each exposed through a
//! re-exported subcrate:
//!
//! * **Video recovery** ([`core::point_code`], [`core::recovery`]) — the
//!   server extracts a ≤1 KB *binary point code* per frame; on frame loss
//!   the client estimates optical flow between consecutive codes, warps
//!   the previous frame, enhances it, and inpaints new content.
//! * **Super-resolution** ([`core::sr`]) — one shared flow network plus
//!   per-resolution heads upscales 240/360/480/720p to 1080p in real time.
//! * **Enhancement-aware ABR** ([`abr`]) — rate adaptation that optimizes
//!   the QoE *after* recovery and SR are applied, plus joint FEC tuning.
//!
//! Substrates built from scratch for the reproduction: a CPU tensor/NN
//! library ([`tensor`]), a synthetic video source and metrics ([`video`]),
//! a block-based motion-compensated codec ([`codec`]), Reed–Solomon FEC
//! ([`fec`]), pyramidal Lucas–Kanade optical flow ([`flow`]), and a
//! discrete-event network simulator with TCP-like and QUIC-like
//! transports ([`net`]), and a deterministic virtual-time observability
//! plane ([`obs`]). The end-to-end streaming system and the per-figure
//! experiment runners live in [`sim`].
//!
//! ## Quickstart
//!
//! ```
//! use nerve::prelude::*;
//!
//! // Generate a short synthetic clip with visible motion, lose a frame,
//! // recover it from the previous frame plus the current binary point code.
//! let mut scene = SceneConfig::preset(Category::GamePlay, 64, 112);
//! scene.motion = 2.0;
//! scene.pan_speed = 0.8;
//! let mut source = SyntheticVideo::new(scene, 7);
//! let f0 = source.next_frame();
//! let f1 = source.next_frame();
//! let f2 = source.next_frame(); // this frame is "lost" in transit
//!
//! let code = PointCodeConfig::default();
//! let encoder = PointCodeEncoder::new(code.clone());
//!
//! let mut recovery = RecoveryModel::new(RecoveryConfig::with_code(64, 112, code));
//! recovery.observe(&f0);
//! recovery.observe(&f1);
//! let recovered = recovery.recover(&f1, &encoder.encode(&f2), None);
//!
//! let reuse_psnr = psnr(&f1, &f2);
//! let recovered_psnr = psnr(&recovered, &f2);
//! assert!(recovered_psnr > reuse_psnr, "recovery must beat frame reuse");
//! ```

pub use nerve_abr as abr;
pub use nerve_codec as codec;
pub use nerve_core as core;
pub use nerve_fec as fec;
pub use nerve_flow as flow;
pub use nerve_model as model;
pub use nerve_net as net;
pub use nerve_obs as obs;
pub use nerve_serve as serve;
pub use nerve_sim as sim;
pub use nerve_tensor as tensor;
pub use nerve_video as video;

/// Commonly used items across the whole system.
pub mod prelude {
    pub use nerve_abr::{
        mpc::EnhancementAwareAbr,
        qoe::{QoeParams, QualityMaps},
        Abr,
    };
    pub use nerve_codec::{Decoder, Encoder, EncoderConfig};
    pub use nerve_core::{
        point_code::{PointCode, PointCodeConfig, PointCodeEncoder},
        recovery::{PartialFrame, RecoveryConfig, RecoveryModel},
        sr::{SrConfig, SuperResolver},
    };
    pub use nerve_fec::rs::ReedSolomon;
    pub use nerve_net::trace::{NetworkKind, NetworkTrace};
    pub use nerve_obs::{Obs, Registry};
    pub use nerve_serve::{run_fleet, run_fleet_obs, FleetConfig, FleetResult};
    pub use nerve_sim::session::{SessionConfig, SessionRunner};
    pub use nerve_video::{
        frame::Frame,
        metrics::{psnr, ssim},
        synth::{Category, SceneConfig, SyntheticVideo},
    };
}
