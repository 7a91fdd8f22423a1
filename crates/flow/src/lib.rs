//! # nerve-flow
//!
//! Dense optical flow via coarse-to-fine pyramidal Lucas–Kanade.
//!
//! NERVE uses SpyNet — a learned pyramidal flow network — fine-tuned
//! end-to-end, both for recovery (flow *between consecutive binary point
//! codes*) and super-resolution (flow between low-resolution frames).
//! This crate is the substitution (see DESIGN.md): same functional
//! contract (dense flow between two small images, quality/latency
//! tradeoff via pyramid depth and iteration count), classical estimator.
//!
//! Conventions: [`estimate`] returns a [`FlowField`] aligned with the
//! *target* frame, mapping each target pixel back into the source frame:
//! `target(p) ≈ source(p + flow(p))`. That is exactly the field
//! [`warp::warp_frame`] consumes to pull the source forward — in NERVE's
//! terms, to warp the previous frame into the current one.

pub mod field;
pub mod lk;
pub mod occlusion;
pub mod pyramid;
mod simd;
pub mod warp;

pub use field::FlowField;
pub use lk::{estimate, FlowConfig};
