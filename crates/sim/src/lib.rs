//! # nerve-sim
//!
//! The end-to-end NERVE streaming system and the experiment runners that
//! regenerate every table and figure in the paper's evaluation (§8).
//!
//! Two layers, mirroring the paper's own methodology:
//!
//! * [`calibrate`] — runs the *pixel-accurate* pipeline (synthetic video →
//!   codec → recovery / SR → PSNR) to measure the quality maps of §6 /
//!   Figure 4: PSNR vs bitrate, recovered-frame PSNR and its decay with
//!   consecutive recoveries, SR PSNR per rung.
//! * [`session`] — the *calibrated* streaming simulator: trace-driven
//!   link, QUIC-like media transport with retransmission and bursty
//!   loss, TCP-like point-code channel, FEC, chunked playback with
//!   frame-level lateness accounting, pluggable ABR, and per-scheme
//!   client behaviour (recovery on/off, SR on/off, NEMO semantics).
//!   The paper does the same: §6 "for each bit rate, we compute the
//!   average PSNR of these video frames after applying video recovery.
//!   We use this value as the estimate."
//!
//! [`experiments`] contains one runner per table/figure; `nerve-experiments`
//! (the binary) prints any or all of them.

pub mod calibrate;
pub mod checkpoint;
pub mod experiments;
pub mod live;
pub mod pixel_session;
pub mod report;
pub mod scenarios;
pub mod session;
pub mod sweep;

pub use live::{
    fir_storm_config, run_live_fleet, run_live_matrix, scenario_config, LiveCheckpoint,
    LiveFleetConfig, LiveFleetResult, LiveFleetRunner, LiveScenario,
};
