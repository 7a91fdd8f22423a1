//! The fleet checkpoint codec (`NRVF`): kill-and-resume for fleet runs
//! at any worker count.
//!
//! [`crate::fleet::checkpoint_fleet`] quiesces the whole fleet at a
//! virtual instant and serializes every server's mutable state (the
//! resident sessions ride the NRVT ticket codec, the calendar queue
//! travels as its sorted event list) plus the failover orchestrator's
//! own state — ownership, liveness, in-transit evacuations, health
//! machines, and the transfer log. Checkpoint and resume run on the
//! fleet's one driver, so they shard like any other run: each shard
//! snapshots or restores its own servers, and the frame is the same
//! bytes at every worker count. It travels in the workspace's one
//! sealed frame ([`nerve_net::bytes::Frame`]) like a session ticket,
//! so a truncated or bit-flipped checkpoint is refused rather than
//! resumed. The body is `FleetCkpt`'s `wire_record!` field list; each
//! server is a `ServerCkpt` record and every record inside it declares
//! its layout next to its own type (the batcher's jobs and stats, the
//! admission buckets, the breaker, the weight cache, the queued events).
//!
//! The contract, asserted by `tests/scale_stability.rs` and pinned by
//! `tests/fleet_digests.rs`: resuming a checkpoint taken anywhere in the
//! run — including mid-evacuation, with tickets in transit — produces a
//! [`crate::fleet::FleetResult`] whose digest is byte-identical to the
//! uninterrupted run.

use crate::failure::HealthCounters;
use crate::server::ServerCkpt;
use nerve_net::bytes::{Frame, FrameError};
use nerve_net::clock::SimTime;

/// The fleet checkpoint frame: magic `"NRVF"`, version 1. Bump the
/// version on any layout change: a resume across versions must fail
/// loudly, never misread state.
pub const FLEET_CKPT_FRAME: Frame = Frame {
    magic: 0x4E52_5646,
    version: 1,
};

/// Plain-data snapshot of one whole fleet run at a quiesced instant.
pub(crate) struct FleetCkpt {
    /// The quiesce instant (every server ran exactly to here).
    pub at: SimTime,
    /// Next unexecuted barrier-plan entry.
    pub idx: usize,
    /// `owner[session]` = responsible server.
    pub owner: Vec<usize>,
    pub alive: Vec<bool>,
    /// In-transit evacuations: `(session, land_secs)`.
    pub arriving_until: Vec<(usize, f64)>,
    /// Failover log so far.
    pub latencies: Vec<f64>,
    pub retries: u64,
    pub transfers_lost: usize,
    pub redirected: usize,
    /// Health prober: probes fed and per-machine
    /// `(state code, streak, counters)`.
    pub health_fed: u64,
    pub health: Vec<(u8, u32, HealthCounters)>,
    pub servers: Vec<ServerCkpt>,
}

nerve_net::wire_record!(FleetCkpt {
    at,
    idx,
    owner,
    alive,
    arriving_until,
    latencies,
    retries,
    transfers_lost,
    redirected,
    health_fed,
    health,
    servers
});

pub(crate) fn encode(fc: &FleetCkpt) -> Vec<u8> {
    FLEET_CKPT_FRAME.encode(fc)
}

pub(crate) fn decode(frame: &[u8]) -> Result<FleetCkpt, FrameError> {
    FLEET_CKPT_FRAME.decode(frame)
}

/// Decode a fleet checkpoint frame and re-encode it, for mutation
/// fuzzing: every frame the decoder accepts must come back as the same
/// bytes, and everything else as a typed [`FrameError`].
pub fn verify_fleet_checkpoint(frame: &[u8]) -> Result<Vec<u8>, FrameError> {
    decode(frame).map(|fc| encode(&fc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ckpt() -> FleetCkpt {
        FleetCkpt {
            at: SimTime::from_secs_f64(3.25),
            idx: 2,
            owner: vec![1, 0, 1],
            alive: vec![true, false],
            arriving_until: vec![(2, 3.4)],
            latencies: vec![0.05, 0.25],
            retries: 3,
            transfers_lost: 1,
            redirected: 2,
            health_fed: 13,
            health: vec![
                (0, 0, HealthCounters::default()),
                (
                    2,
                    4,
                    HealthCounters {
                        suspected: 1,
                        died: 1,
                        probations: 0,
                        recovered: 0,
                    },
                ),
            ],
            servers: Vec::new(),
        }
    }

    #[test]
    fn frame_round_trips() {
        let fc = tiny_ckpt();
        let frame = encode(&fc);
        let back = decode(&frame).expect("round trip");
        assert_eq!(back.at, fc.at);
        assert_eq!(back.idx, fc.idx);
        assert_eq!(back.owner, fc.owner);
        assert_eq!(back.alive, fc.alive);
        assert_eq!(back.arriving_until, fc.arriving_until);
        assert_eq!(back.latencies, fc.latencies);
        assert_eq!(back.retries, fc.retries);
        assert_eq!(back.transfers_lost, fc.transfers_lost);
        assert_eq!(back.redirected, fc.redirected);
        assert_eq!(back.health_fed, fc.health_fed);
        assert_eq!(back.health, fc.health);
    }

    #[test]
    fn corrupt_frames_are_refused_with_typed_errors() {
        let frame = encode(&tiny_ckpt());
        // CRC catches any single bit flip.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert_eq!(decode(&bad).err(), Some(FrameError::Corrupt), "flip at {i}");
        }
        assert_eq!(decode(&[]).err(), Some(FrameError::Corrupt));
        // A CRC-valid frame with a byte past the last field.
        let mut body = nerve_net::integrity::open(&frame).unwrap().to_vec();
        body.push(0);
        let resealed = nerve_net::integrity::seal(&body);
        assert_eq!(decode(&resealed).err(), Some(FrameError::TrailingBytes(1)));
    }
}
