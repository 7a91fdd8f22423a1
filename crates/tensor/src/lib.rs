//! # nerve-tensor
//!
//! A minimal, dependency-light CPU tensor and neural-network substrate.
//!
//! The NERVE paper runs its recovery and super-resolution models through
//! CoreML on an iPhone 12. Rust has no comparable deep-learning runtime in
//! this build environment, so this crate provides exactly the operator set
//! those models need, implemented from scratch:
//!
//! * [`Tensor`] — dense NCHW `f32` tensors with shape-checked construction.
//! * [`conv`] — 2-D convolution with full backpropagation (input, weight,
//!   and bias gradients), "same" padding, arbitrary stride. Forward passes
//!   run one direct kernel in two lane layouts, chosen by shape: output
//!   channels per vector for single images and large planes, images per
//!   vector for batches of small planes; both are bit-identical.
//! * [`fused`] — single-pass `conv → ReLU → conv → PixelShuffle` head
//!   forward over borrowed channel planes, on [`conv`]'s kernels, that
//!   skips the intermediate tensor allocations on the SR/recovery hot
//!   path while staying bit- and cost-identical to the staged ops.
//! * [`ops`] — ReLU / leaky-ReLU, [`ops::pixel_shuffle`] (the paper's
//!   upsampling primitive, from Shi et al.), bilinear resize, and
//!   [`ops::grid_sample`] warping (the paper implements this as a custom
//!   Metal kernel; here it is a plain CPU kernel).
//! * [`loss`] — the Charbonnier loss the paper trains with, plus MSE.
//! * [`optim`] — SGD with momentum and Adam.
//! * [`net`] — a small `Sequential` container with a [`net::Layer`] trait,
//!   enough to express and *train* the paper's convolutional heads.
//! * [`flops`] — analytic FLOP/parameter counting used to regenerate the
//!   paper's Table 1 columns.
//!
//! Everything is deterministic given a seed; no unsafe. The only
//! threading is [`conv::conv2d`]'s scoped split of the output: each
//! worker gets a contiguous range of units — (image, channel block)
//! pairs, or blocks of eight images, one vector lane each. Each output
//! is written by one worker, so the result is bit-identical at every
//! worker count (see [`par`]).

#![allow(clippy::needless_range_loop)] // index loops mirror the math

pub mod conv;
pub mod flops;
pub mod fused;
pub mod init;
pub mod loss;
pub mod meter;
pub mod net;
pub mod ops;
pub mod optim;
pub mod par;
pub mod tensor;

pub use flops::CostReport;
pub use tensor::Tensor;
