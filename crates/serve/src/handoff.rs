//! The server-to-server session handoff ticket.
//!
//! A ticket is the complete serialized state of one resident session,
//! sealed like the sim-side session checkpoint (`nerve-sim::checkpoint`)
//! in [`nerve_net::bytes::Frame`]: magic/version header, little-endian
//! body, CRC32 trailer. The body is a sequence of
//! [`nerve_net::bytes::Wire`] values read back in the same order, not a
//! record of its own, because `SessionState` also holds derived state
//! that never travels (below). The fleet's digest-identity contract
//! rests on two properties enforced here:
//!
//! * **Round-trip identity.** `decode(encode(s))` reproduces `s` exactly
//!   (floats travel as bit patterns, the loss chain as a replayable
//!   `(seed, draws)` cursor), and the installer re-encodes the decoded
//!   session and asserts byte equality before accepting it.
//! * **No derived state on the wire.** The ABR controller, fault plans,
//!   and fair-share weight are pure functions of `(config, session id,
//!   class)`; the ticket carries only the session's dynamic state and
//!   the destination reconstructs the rest, so a ticket cannot smuggle
//!   in state that disagrees with the fleet configuration.

use crate::fleet::{ClientClass, FleetConfig, SessionModel, CHUNK_SECS};
use crate::server::{make_abr, session_fault_plans, ChunkAcc, Phase, SessionState};
use nerve_abr::qoe::QualityMaps;
use nerve_abr::{AbrContext, CappedAbr};
use nerve_net::bytes::{Frame, FrameError, Wire};
use nerve_net::loss::{GilbertElliott, LossModel, LossState};

/// The handoff ticket frame: magic `"NRVT"` (NERVE ticket), version 3.
/// Bump the version on any wire-format change. Version 2 added the
/// model-plane block (head assignment, classifier confidence,
/// delta-update cursor); version 3 added the failure-domain counters
/// (`failed_in_flight`, `evacuations`).
pub const TICKET_FRAME: Frame = Frame {
    magic: 0x4E52_5654,
    version: 3,
};

/// Serialize one session into a sealed ticket. Each field is one
/// [`Wire`] value, in the order [`decode_session`] reads them back.
pub(crate) fn encode_session(id: usize, s: &SessionState) -> Vec<u8> {
    let mut w = TICKET_FRAME.writer();
    id.put(&mut w);
    s.cap.put(&mut w);
    s.rejected.put(&mut w);
    s.admitted.put(&mut w);
    s.phase.put(&mut w);
    s.buffer_secs.put(&mut w);
    s.buffer_asof.put(&mut w);
    s.chunk_idx.put(&mut w);
    s.loss.state().put(&mut w);
    s.chain.put(&mut w);
    s.rung_sum.put(&mut w);
    s.counters.put(&mut w);
    s.checksum.put(&mut w);
    s.rebuffer_total.put(&mut w);
    s.ctx.last_choice.put(&mut w);
    s.ctx.buffer_secs.put(&mut w);
    s.ctx.throughput_kbps.put(&mut w);
    s.ctx.loss_rates.put(&mut w);
    s.chunks.put(&mut w);
    s.crashes.put(&mut w);
    // Model-plane block: dynamic state (which head, how many deltas
    // landed), so it travels — re-probing at the destination would both
    // repeat the fingerprint cost and risk a divergent assignment.
    s.model.put(&mut w);
    w.seal()
}

/// Verify and deserialize a ticket, reconstructing the derived state
/// (controller, fault plans, weight) from `(cfg, maps, id)`.
pub(crate) fn decode_session(
    cfg: &FleetConfig,
    maps: &QualityMaps,
    ticket: &[u8],
) -> Result<(usize, SessionState), FrameError> {
    let mut r = TICKET_FRAME.open(ticket)?;
    let id = usize::get(&mut r)?;
    let cap = Wire::get(&mut r)?;
    let rejected = Wire::get(&mut r)?;
    let admitted = Wire::get(&mut r)?;
    let phase = Wire::get(&mut r)?;
    let buffer_secs = Wire::get(&mut r)?;
    let buffer_asof = Wire::get(&mut r)?;
    let chunk_idx = Wire::get(&mut r)?;
    let loss_state = LossState::get(&mut r)?;
    let chain = Wire::get(&mut r)?;
    let rung_sum = Wire::get(&mut r)?;
    let counters = Wire::get(&mut r)?;
    let checksum = Wire::get(&mut r)?;
    let rebuffer_total = Wire::get(&mut r)?;
    let last_choice = Wire::get(&mut r)?;
    let ctx_buffer = Wire::get(&mut r)?;
    let throughput_kbps = Wire::get(&mut r)?;
    let loss_rates = Wire::get(&mut r)?;
    let chunks = Wire::get(&mut r)?;
    let crashes = Wire::get(&mut r)?;
    let model = Wire::get(&mut r)?;
    r.finish()?;

    // Derived state: rebuilt, never transported.
    let class = ClientClass::of(id);
    let (own_faults, overlay) = session_fault_plans(cfg, id);
    let mut abr = make_abr(maps, class);
    if let Some(c) = cap {
        abr = Box::new(CappedAbr::new(abr, c));
    }
    let mut ctx = AbrContext::bootstrap(cfg.ladder_kbps.clone(), CHUNK_SECS, cfg.frames_per_chunk);
    ctx.last_choice = last_choice;
    ctx.buffer_secs = ctx_buffer;
    ctx.throughput_kbps = throughput_kbps;
    ctx.loss_rates = loss_rates;
    let mut loss = GilbertElliott::with_rate(cfg.avg_loss, cfg.mean_burst, loss_state.seed);
    loss.restore(loss_state)?;

    Ok((
        id,
        SessionState {
            class,
            weight: class.weight(),
            cap,
            rejected,
            admitted,
            abr,
            ctx,
            phase,
            buffer_secs,
            buffer_asof,
            chunk_idx,
            loss,
            own_faults,
            overlay,
            chunks,
            chain,
            rung_sum,
            counters,
            checksum,
            rebuffer_total,
            crashes,
            model,
        },
    ))
}

/// Build a deterministic *dirty* mid-run ticket for session `id`: the
/// fuzz corpus seed. `salt` perturbs every dynamic field so mutation
/// fuzzing explores many wire shapes (phase variants, vector lengths,
/// model block presence) without touching the simulator.
pub fn sample_ticket(cfg: &FleetConfig, maps: &QualityMaps, id: usize, salt: u64) -> Vec<u8> {
    use nerve_net::clock::SimTime;

    let mut s = SessionState::fresh(cfg, maps, id);
    s.admitted = !salt.is_multiple_of(3);
    s.rejected = salt.is_multiple_of(17);
    if salt % 4 == 1 {
        s.cap = Some((salt % cfg.ladder_kbps.len() as u64) as usize);
    }
    s.chunk_idx = (salt % 5) as usize;
    s.chain = (salt % 7) as usize;
    s.rung_sum = (salt % 11) as usize;
    s.counters.jobs = (salt % 97) as usize;
    s.counters.full = s.counters.jobs / 2;
    s.counters.degraded = s.counters.jobs / 4;
    s.counters.sr_skipped = s.counters.jobs - s.counters.full - s.counters.degraded;
    s.counters.freezes = (salt % 5) as usize;
    s.counters.crashes = (salt % 3) as usize;
    s.counters.failed_in_flight = (salt % 4) as usize;
    s.counters.evacuations = (salt % 2) as usize;
    s.checksum = (salt % 1000) as f32 / 8.0;
    s.rebuffer_total = (salt % 100) as f64 / 16.0;
    s.buffer_secs = (salt % 64) as f64 / 8.0;
    s.buffer_asof = SimTime::from_secs_f64((salt % 900) as f64 / 100.0);
    s.ctx.last_choice = (salt % cfg.ladder_kbps.len() as u64) as usize;
    s.ctx.buffer_secs = s.buffer_secs;
    for k in 0..(salt % 6) {
        s.ctx
            .throughput_kbps
            .push(500.0 + (salt ^ k) as f64 % 4000.0);
        s.ctx
            .loss_rates
            .push(((salt >> 3) ^ k) as f64 % 97.0 / 970.0);
    }
    if !s.chunks.is_empty() {
        s.chunks[0] = ChunkAcc {
            started: true,
            rung: (salt % 4) as usize,
            frames: 30,
            resolved: (salt % 31) as usize,
            psnr_sum: 33.0 * (salt % 31) as f64,
            rebuffer_secs: (salt % 10) as f64 / 20.0,
        };
    }
    match salt % 3 {
        0 => {
            s.phase = Phase::Waiting {
                until: SimTime::from_secs_f64((salt % 120) as f64 / 10.0),
            }
        }
        1 => {
            s.phase = Phase::Downloading {
                rung: (salt % 4) as usize,
                bytes_left: (salt % 500_000) as f64,
                bytes_total: 600_000.0,
                started: SimTime::from_secs_f64((salt % 110) as f64 / 10.0),
                buffer_at_start: s.buffer_secs,
            };
        }
        _ => s.phase = Phase::Done,
    }
    for _ in 0..(salt % 40) {
        s.loss.lose();
    }
    if salt % 6 == 2 {
        s.crashes = vec![((salt % 20) as f64, 1.0 + (salt % 4) as f64 / 4.0)];
    }
    if salt.is_multiple_of(2) {
        s.model = Some(SessionModel {
            head: (salt % 6) as u8,
            confidence: (salt % 100) as f64 / 100.0,
            category: (salt % 5) as u8,
            version: (salt % 3) as u32,
            applied: (salt % 7) as usize,
            rejected: (salt % 2) as usize,
        });
    }
    encode_session(id, &s)
}

/// The install-side acceptance check, exposed for mutation fuzzing:
/// decode the ticket and re-encode the decoded session. `Ok` returns
/// the re-encoded bytes (the caller asserts byte identity with the
/// input — the same invariant `ServerSim::install_ticket` enforces);
/// any corruption must surface as a typed [`FrameError`], never a
/// panic and never a silently installed corrupt session.
pub fn verify_ticket(
    cfg: &FleetConfig,
    maps: &QualityMaps,
    ticket: &[u8],
) -> Result<Vec<u8>, FrameError> {
    let (id, s) = decode_session(cfg, maps, ticket)?;
    Ok(encode_session(id, &s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_abr::qoe::QualityMaps;
    use nerve_net::clock::SimTime;
    use nerve_net::loss::LossModel;

    fn fixture() -> (FleetConfig, QualityMaps) {
        let cfg = FleetConfig::small(8, 0xA11CE);
        let maps = QualityMaps::placeholder(&cfg.ladder_kbps);
        (cfg, maps)
    }

    /// A mid-run session (dirty counters, in-flight download, pending
    /// crashes, replayed loss chain) must round-trip byte-identically —
    /// the contract `ServerSim::install_ticket` asserts at runtime.
    #[test]
    fn dirty_session_round_trips_byte_identically() {
        let (cfg, maps) = fixture();
        let mut s = SessionState::fresh(&cfg, &maps, 5);
        s.admitted = true;
        s.cap = Some(2);
        s.chunk_idx = 2;
        s.chain = 3;
        s.rung_sum = 4;
        s.counters.jobs = 7;
        s.counters.full = 5;
        s.counters.degraded = 2;
        s.checksum = 1.25;
        s.rebuffer_total = 0.75;
        s.buffer_secs = 3.5;
        s.buffer_asof = SimTime::from_secs_f64(9.0);
        s.ctx.last_choice = 2;
        s.ctx.buffer_secs = 3.5;
        s.ctx.throughput_kbps = vec![1800.0, 2100.5];
        s.ctx.loss_rates = vec![0.0, 0.1];
        s.chunks[0] = ChunkAcc {
            started: true,
            rung: 2,
            frames: 30,
            resolved: 30,
            psnr_sum: 1000.0,
            rebuffer_secs: 0.0,
        };
        s.phase = Phase::Downloading {
            rung: 3,
            bytes_left: 123_456.0,
            bytes_total: 660_000.0,
            started: SimTime::from_secs_f64(9.5),
            buffer_at_start: 3.5,
        };
        for _ in 0..37 {
            s.loss.lose();
        }
        s.crashes = vec![(12.0, 1.5)];
        s.model = Some(SessionModel {
            head: 3,
            confidence: 0.42,
            category: 2,
            version: 1,
            applied: 1,
            rejected: 0,
        });

        let ticket = encode_session(5, &s);
        let (id, restored) = decode_session(&cfg, &maps, &ticket).unwrap();
        assert_eq!(id, 5);
        assert_eq!(restored.phase, s.phase);
        assert_eq!(restored.loss.state(), s.loss.state());
        assert_eq!(restored.cap, Some(2));
        assert!(restored.admitted);
        assert_eq!(restored.model, s.model, "model block must travel");
        assert_eq!(
            encode_session(5, &restored),
            ticket,
            "re-encode must be byte-identical"
        );
    }

    /// The restored loss chain continues with the same draws the source
    /// would have produced — loss is position-exact across a handoff.
    #[test]
    fn loss_chain_continues_identically_after_handoff() {
        let (cfg, maps) = fixture();
        let mut s = SessionState::fresh(&cfg, &maps, 3);
        for _ in 0..100 {
            s.loss.lose();
        }
        let ticket = encode_session(3, &s);
        let (_, mut restored) = decode_session(&cfg, &maps, &ticket).unwrap();
        let a: Vec<bool> = (0..50).map(|_| s.loss.lose()).collect();
        let b: Vec<bool> = (0..50).map(|_| restored.loss.lose()).collect();
        assert_eq!(a, b);
    }

    /// The fuzz corpus seeds are pristine: every `(id, salt)` sample
    /// decodes and re-encodes byte-identically.
    #[test]
    fn sample_tickets_verify_cleanly_across_salts() {
        let (cfg, maps) = fixture();
        for salt in 0..64u64 {
            let t = sample_ticket(&cfg, &maps, (salt % 8) as usize, salt);
            let re = verify_ticket(&cfg, &maps, &t).expect("pristine ticket verifies");
            assert_eq!(re, t, "salt {salt} re-encode must be byte-identical");
        }
    }

    /// The CRC32 of one sample ticket, pinned: the wire bytes must not
    /// drift under a refactor of the codec.
    #[test]
    fn sample_ticket_crc_is_pinned() {
        let (cfg, maps) = fixture();
        let t = sample_ticket(&cfg, &maps, 5, 0x9E37);
        assert_eq!(nerve_net::integrity::crc32(&t), 0x8F1B_6BF9);
    }

    #[test]
    fn corrupted_ticket_is_refused() {
        let (cfg, maps) = fixture();
        let s = SessionState::fresh(&cfg, &maps, 0);
        let mut ticket = encode_session(0, &s);
        let mid = ticket.len() / 2;
        ticket[mid] ^= 0x40;
        assert!(matches!(
            decode_session(&cfg, &maps, &ticket),
            Err(FrameError::Corrupt)
        ));
        assert!(matches!(
            decode_session(&cfg, &maps, &ticket[..4]),
            Err(FrameError::Corrupt)
        ));
    }

    /// A CRC-valid ticket with a byte past its last field is refused,
    /// so an install can never re-encode to bytes other than its input.
    #[test]
    fn ticket_with_trailing_body_bytes_is_refused() {
        let (cfg, maps) = fixture();
        let ticket = sample_ticket(&cfg, &maps, 5, 0x9E37);
        let mut body = nerve_net::integrity::open(&ticket).unwrap().to_vec();
        body.push(0);
        let resealed = nerve_net::integrity::seal(&body);
        assert_eq!(
            verify_ticket(&cfg, &maps, &resealed),
            Err(FrameError::TrailingBytes(1))
        );
    }
}
