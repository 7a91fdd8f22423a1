//! Byte-exact session checkpoints for crash recovery.
//!
//! A [`SessionCheckpoint`] captures everything mutable about a running
//! [`crate::session::SessionRunner`] — playout buffer, ABR context and
//! loss-prediction state, both transports (sequence numbers, RTT
//! estimator, loss-RNG stream positions), and every result accumulator —
//! so a session killed mid-stream can be rebuilt in a fresh process and
//! finish with results bit-identical to an uninterrupted run.
//!
//! The wire format is deliberately dependency-free: little-endian
//! integers, `f64::to_bits` for floats (exact round trip, no text
//! formatting), sealed in the workspace's one wire frame
//! ([`nerve_net::bytes::Frame`]: magic/version header, CRC32 trailer).
//! The body is the checkpoint's one `wire_record!` field list; each
//! field travels by its own type's [`nerve_net::bytes::Wire`] layout,
//! declared next to that type (`QuicState`, `ChannelState` and
//! `LossState` in `nerve-net`, `ChunkRecord` in [`crate::session`]).
//! Reconnects funnel through this serialization *in-process* too: the
//! session layer's only teardown/resume path is checkpoint → bytes →
//! restore, so the codec is exercised by every chaos test, not just by
//! the kill-resume ones.

use nerve_net::bytes::{Frame, FrameError};
use nerve_net::clock::SimTime;
use nerve_net::integrity::crc32;
use nerve_net::loss::LossState;
use nerve_net::quicish::QuicState;
use nerve_net::reliable::ChannelState;

use crate::session::ChunkRecord;

/// The checkpoint frame: magic "NRVC", version 2 (version 2 added the
/// delta weight-update cursor of the model plane).
pub const SESSION_FRAME: Frame = Frame {
    magic: 0x4E52_5643,
    version: 2,
};

/// Everything mutable about a mid-stream session.
///
/// Immutable configuration (trace, scheme, quality maps, seed) is *not*
/// here: the resuming process supplies the same `SessionConfig` it
/// started with, and the checkpoint layers the dynamic state on top.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    // Progress and crash-plane accounting.
    pub chunk_index: u64,
    pub epoch: u64,
    pub reconnects: u64,
    pub downtime_secs: f64,
    pub pending_rebuffer: f64,
    // Playback clock and buffer.
    pub now: SimTime,
    pub buffer_secs: f64,
    pub reuse_chain: u64,
    // ABR state (the controllers themselves are pure).
    pub loss_pred: Option<f64>,
    pub last_choice: u64,
    pub throughput_kbps: Vec<f64>,
    pub loss_rates: Vec<f64>,
    // Media transport.
    pub media: QuicState,
    pub media_loss: LossState,
    pub media_fault_packets: u64,
    // Point-code channel.
    pub code: ChannelState,
    pub code_loss: LossState,
    pub code_fault_packets: u64,
    // Result accumulators: (full, warp_only, freeze, stall).
    pub degradation: [u64; 4],
    pub recovered_frames_total: u64,
    pub frames_total: u64,
    pub recovered_qoe_acc: f64,
    pub recovered_qoe_n: u64,
    /// Per-chunk (utility_mbps, rebuffer_secs) QoE outcomes so far.
    pub outcomes: Vec<(f64, f64)>,
    pub records: Vec<ChunkRecord>,
    // Delta weight-update cursor (format version 2). Only the transfer
    // position is carried — the weight tensor itself is rebuilt on
    // resume by replaying `nerve_model::delta::weights_at`.
    pub delta_version: u32,
    pub delta_bytes_sent: u64,
    pub delta_applied: u64,
    pub delta_rejected: u64,
}

nerve_net::wire_record!(SessionCheckpoint {
    chunk_index,
    epoch,
    reconnects,
    downtime_secs,
    pending_rebuffer,
    now,
    buffer_secs,
    reuse_chain,
    loss_pred,
    last_choice,
    throughput_kbps,
    loss_rates,
    media,
    media_loss,
    media_fault_packets,
    code,
    code_loss,
    code_fault_packets,
    degradation,
    recovered_frames_total,
    frames_total,
    recovered_qoe_acc,
    recovered_qoe_n,
    outcomes,
    records,
    delta_version,
    delta_bytes_sent,
    delta_applied,
    delta_rejected
});

impl SessionCheckpoint {
    /// Serialize to the sealed [`SESSION_FRAME`].
    pub fn to_bytes(&self) -> Vec<u8> {
        SESSION_FRAME.encode(self)
    }

    /// CRC32 over the serialized body — a compact fingerprint two runs
    /// can compare without shipping the whole checkpoint.
    pub fn digest(&self) -> u32 {
        crc32(&self.to_bytes())
    }

    /// Parse bytes produced by [`SessionCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        SESSION_FRAME.decode(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_net::quicish::StreamStats;
    use nerve_net::reliable::ChannelStats;
    use nerve_net::rtt::RttState;

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            chunk_index: 12,
            epoch: 1,
            reconnects: 1,
            downtime_secs: 2.75,
            pending_rebuffer: 0.4,
            now: SimTime::from_micros(48_250_001),
            buffer_secs: 11.328_125,
            reuse_chain: 2,
            loss_pred: Some(0.031_25),
            last_choice: 3,
            throughput_kbps: vec![4_400.0, 2_640.0, 1_600.5],
            loss_rates: vec![0.0, 0.062_5],
            media: QuicState {
                cursor: SimTime::from_micros(48_000_000),
                seq: 5_120,
                stats: StreamStats {
                    packets_sent: 5_120,
                    packets_lost_first_tx: 31,
                    retransmissions: 29,
                    residual_losses: 2,
                    reordered: 1,
                    duplicates: 0,
                    crc_dropped: 3,
                    residual_corrupted: 1,
                },
            },
            media_loss: LossState {
                seed: 7,
                draws: 5_149,
                bad: true,
            },
            media_fault_packets: 5_152,
            code: ChannelState {
                last_delivery: SimTime::from_micros(47_990_000),
                seq: 360,
                stats: ChannelStats {
                    messages: 360,
                    retransmissions: 12,
                    expired: 4,
                    corrupted: 1,
                    crc_detected: 2,
                },
                retransmissions: 12,
                rtt: RttState {
                    srtt: Some(0.041_503_906_25),
                    rttvar: 0.003_1,
                },
            },
            code_loss: LossState {
                seed: 99,
                draws: 374,
                bad: false,
            },
            code_fault_packets: 374,
            degradation: [40, 9, 3, 0],
            recovered_frames_total: 52,
            frames_total: 1_440,
            recovered_qoe_acc: 83.25,
            recovered_qoe_n: 52,
            outcomes: vec![(4.4, 0.0), (2.64, 0.125)],
            records: vec![ChunkRecord {
                start_secs: 4.0,
                rung: 3,
                throughput_kbps: 5_210.7,
                qoe: 0.0,
                utility_mbps: 4.4,
                rebuffer_secs: 0.125,
                recovered_frames: 5,
                total_frames: 120,
            }],
            delta_version: 1,
            delta_bytes_sent: 96,
            delta_applied: 1,
            delta_rejected: 0,
        }
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let back = SessionCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
        // Re-serialization is byte-identical (the digest is stable).
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.digest(), cp.digest());
    }

    #[test]
    fn tampered_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert_eq!(
            SessionCheckpoint::from_bytes(&bytes),
            Err(FrameError::Corrupt)
        );
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = sample().to_bytes();
        // Any truncation breaks the CRC before it can break the parser.
        assert!(SessionCheckpoint::from_bytes(&bytes[..bytes.len() - 5]).is_err());
        assert!(SessionCheckpoint::from_bytes(&[]).is_err());
    }

    #[test]
    fn distinct_states_have_distinct_digests() {
        let a = sample();
        let mut b = sample();
        b.buffer_secs += 1.0 / 1024.0;
        assert_ne!(a.digest(), b.digest());
    }

    /// The CRC32 of the sample frame, pinned: the wire bytes must not
    /// drift under a refactor of the codec.
    #[test]
    fn sample_frame_crc_is_pinned() {
        assert_eq!(sample().digest(), 0x5BDF_728D);
    }
}
