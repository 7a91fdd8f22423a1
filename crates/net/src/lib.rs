//! # nerve-net
//!
//! A deterministic, discrete-event network substrate standing in for the
//! paper's live WiFi/3G/4G/5G measurements (DESIGN.md, substitution
//! table). Everything is poll/compute based — no threads, no async
//! runtime — in the spirit of sans-IO stacks like smoltcp: the caller
//! owns time.
//!
//! * [`clock`] — microsecond simulation time and an event queue.
//! * [`loss`] — Bernoulli and Gilbert–Elliott (bursty) packet loss.
//! * [`trace`] — throughput/loss traces; generators whose population
//!   statistics match the paper's Table 2, plus the §8.3 downscaling.
//! * [`link`] — a fluid trace-driven link: byte-accurate transfer-time
//!   integration over the time-varying capacity.
//! * [`rtt`] — RFC 6298 smoothed RTT / RTO estimation.
//! * [`reliable`] — the TCP-like channel that carries binary point codes
//!   (reliable, in-order; retransmits on loss; ~1 RTT for 1 KB).
//! * [`quicish`] — the QUIC-like media channel: packet numbers, one fast
//!   retransmission, residual loss (the paper measures 1.6% residual
//!   loss for QUIC on 5G).
//! * [`faults`] — composable, seed-deterministic fault injection
//!   (blackouts, flaps, delay spikes, jitter, collapse, reorder,
//!   duplication, corruption, disconnects, directional uplink/downlink
//!   impairment) layered over all of the above.
//! * [`feedback`] — the RTCP-style uplink feedback channel (NACK with
//!   retry caps + backoff, PLI/FIR keyframe-on-demand), itself subject
//!   to the fault plan's uplink impairment.
//! * [`jitter`] — the live-mode adaptive jitter buffer (RFC 3550
//!   interarrival-jitter EWMA driving playout-delay adaptation).
//! * [`integrity`] — dependency-free CRC32 payload framing shared by
//!   every wire format in the workspace; detected corruption becomes an
//!   erasure instead of rendered garbage.
//! * [`bytes`] — the sealed state frame, the little-endian field codec
//!   under it, and the [`bytes::Wire`] trait with which every state
//!   record declares its layout once (checkpoints, handoff tickets,
//!   weight deltas).
//! * [`error`] — structured validation errors replacing hot-path asserts.

pub mod bytes;
pub mod clock;
pub mod error;
pub mod faults;
pub mod feedback;
pub mod integrity;
pub mod jitter;
pub mod link;
pub mod loss;
pub mod queue;
pub mod quicish;
pub mod reliable;
pub mod rtt;
pub mod trace;

pub use bytes::{ByteReader, ByteWriter, Frame, FrameError};
pub use clock::SimTime;
pub use error::NetError;
pub use faults::{Corruption, Direction, Fault, FaultPlan, FaultWindow, FaultyLoss};
pub use feedback::{FeedbackChannel, FeedbackKind, FeedbackState, NackOutcome};
pub use jitter::{JitterBuffer, JitterConfig, JitterState};
pub use loss::LossState;
pub use trace::{NetworkKind, NetworkTrace};
