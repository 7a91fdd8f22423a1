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
//! resumed.
//!
//! The contract, asserted by `tests/scale_stability.rs` and pinned by
//! `tests/fleet_digests.rs`: resuming a checkpoint taken anywhere in the
//! run — including mid-evacuation, with tickets in transit — produces a
//! [`crate::fleet::FleetResult`] whose digest is byte-identical to the
//! uninterrupted run.

use crate::batcher::{InferenceJob, JobKind, OCCUPANCY_BUCKETS};
use crate::event_queue::{Event, EventKind};
use crate::failure::{HealthCounters, InvariantReport, ServerFailureCounters};
use crate::server::ServerCkpt;
use crate::{AdmissionState, BatcherStats, TokenBucketState};
use nerve_core::{BreakerCounters, BreakerSnapshot, BreakerState};
use nerve_model::cache::WeightCacheState;
use nerve_model::{CacheStats, HeadId};
use nerve_net::bytes::{ByteReader, ByteWriter, Frame, FrameError};
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

pub(crate) fn encode(fc: &FleetCkpt) -> Vec<u8> {
    let mut w = FLEET_CKPT_FRAME.writer();
    w.time(fc.at);
    w.usize(fc.idx);
    w.usize(fc.owner.len());
    for &o in &fc.owner {
        w.usize(o);
    }
    w.usize(fc.alive.len());
    for &a in &fc.alive {
        w.bool(a);
    }
    w.usize(fc.arriving_until.len());
    for &(s, land) in &fc.arriving_until {
        w.usize(s);
        w.f64(land);
    }
    w.usize(fc.latencies.len());
    for &l in &fc.latencies {
        w.f64(l);
    }
    w.u64(fc.retries);
    w.usize(fc.transfers_lost);
    w.usize(fc.redirected);
    w.u64(fc.health_fed);
    w.usize(fc.health.len());
    for &(code, streak, c) in &fc.health {
        w.u8(code);
        w.u32(streak);
        write_health_counters(&mut w, c);
    }
    w.usize(fc.servers.len());
    for sc in &fc.servers {
        write_server(&mut w, sc);
    }
    w.seal()
}

pub(crate) fn decode(frame: &[u8]) -> Result<FleetCkpt, FrameError> {
    let mut r = FLEET_CKPT_FRAME.open(frame)?;
    let at = r.time()?;
    let idx = r.usize()?;
    let owner = (0..r.usize()?)
        .map(|_| r.usize())
        .collect::<Result<Vec<_>, _>>()?;
    let alive = (0..r.usize()?)
        .map(|_| r.bool())
        .collect::<Result<Vec<_>, _>>()?;
    let mut arriving_until = Vec::new();
    for _ in 0..r.usize()? {
        arriving_until.push((r.usize()?, r.f64()?));
    }
    let latencies = (0..r.usize()?)
        .map(|_| r.f64())
        .collect::<Result<Vec<_>, _>>()?;
    let retries = r.u64()?;
    let transfers_lost = r.usize()?;
    let redirected = r.usize()?;
    let health_fed = r.u64()?;
    let mut health = Vec::new();
    for _ in 0..r.usize()? {
        let code = r.u8()?;
        let streak = r.u32()?;
        health.push((code, streak, read_health_counters(&mut r)?));
    }
    let mut servers = Vec::new();
    for _ in 0..r.usize()? {
        servers.push(read_server(&mut r)?);
    }
    r.finish()?;
    Ok(FleetCkpt {
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
        servers,
    })
}

/// Decode a fleet checkpoint frame and re-encode it, for mutation
/// fuzzing: every frame the decoder accepts must come back as the same
/// bytes, and everything else as a typed [`FrameError`].
pub fn verify_fleet_checkpoint(frame: &[u8]) -> Result<Vec<u8>, FrameError> {
    decode(frame).map(|fc| encode(&fc))
}

fn write_health_counters(w: &mut ByteWriter, c: HealthCounters) {
    w.u64(c.suspected);
    w.u64(c.died);
    w.u64(c.probations);
    w.u64(c.recovered);
}

fn read_health_counters(r: &mut ByteReader) -> Result<HealthCounters, FrameError> {
    Ok(HealthCounters {
        suspected: r.u64()?,
        died: r.u64()?,
        probations: r.u64()?,
        recovered: r.u64()?,
    })
}

fn write_breaker_counters(w: &mut ByteWriter, c: BreakerCounters) {
    w.u64(c.opened);
    w.u64(c.half_opened);
    w.u64(c.closed);
    w.u64(c.watchdog_trips);
    w.u64(c.fast_shed);
}

fn read_breaker_counters(r: &mut ByteReader) -> Result<BreakerCounters, FrameError> {
    Ok(BreakerCounters {
        opened: r.u64()?,
        half_opened: r.u64()?,
        closed: r.u64()?,
        watchdog_trips: r.u64()?,
        fast_shed: r.u64()?,
    })
}

/// A breaker's position as it sits in every state frame that carries
/// one (NRVF's servers, NRVL's live server): state tag, streak,
/// opened-at, probes issued, then its counters.
pub fn write_breaker(w: &mut ByteWriter, s: &BreakerSnapshot) {
    w.u8(match s.state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    });
    w.usize(s.streak);
    w.f64(s.opened_at_secs);
    w.usize(s.probes_issued);
    write_breaker_counters(w, s.counters);
}

/// Read a breaker written by [`write_breaker`]; an unknown state tag is
/// `BadField { field: "breaker_state" }`.
pub fn read_breaker(r: &mut ByteReader) -> Result<BreakerSnapshot, FrameError> {
    Ok(BreakerSnapshot {
        state: match r.u8()? {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            v => return Err(FrameError::bad_field("breaker_state", v)),
        },
        streak: r.usize()?,
        opened_at_secs: r.f64()?,
        probes_issued: r.usize()?,
        counters: read_breaker_counters(r)?,
    })
}

fn write_opt_time(w: &mut ByteWriter, t: Option<SimTime>) {
    match t {
        None => w.bool(false),
        Some(t) => {
            w.bool(true);
            w.time(t);
        }
    }
}

fn read_opt_time(r: &mut ByteReader) -> Result<Option<SimTime>, FrameError> {
    Ok(if r.bool()? { Some(r.time()?) } else { None })
}

fn write_server(w: &mut ByteWriter, sc: &ServerCkpt) {
    w.time(sc.now);
    w.u64(sc.gen);
    w.u64(sc.events);
    write_opt_time(w, sc.last_tick);
    write_opt_time(w, sc.down_until);
    w.bool(sc.dead);
    w.bool(sc.done);
    w.usize(sc.restarts);
    w.usize(sc.handoffs_in);
    w.usize(sc.handoffs_out);
    w.u64(sc.flush_idx);
    let f = sc.failc;
    w.usize(f.failures);
    w.usize(f.rejoins);
    w.usize(f.evac_out);
    w.usize(f.evac_in);
    w.usize(f.evac_warp);
    w.usize(f.evac_freeze);
    w.usize(f.evac_stall);
    w.usize(f.jobs_failed);
    w.u64(sc.inv.checks);
    w.u64(sc.inv.violations);
    w.usize(sc.slacks.len());
    for &s in &sc.slacks {
        w.f64(s);
    }
    write_bucket(w, sc.admission.bw);
    write_bucket(w, sc.admission.macs);
    w.usize(sc.admission.accepted);
    w.usize(sc.admission.downgraded);
    w.usize(sc.admission.rejected);
    w.usize(sc.batcher_jobs.len());
    for j in &sc.batcher_jobs {
        w.usize(j.session);
        w.usize(j.chunk);
        w.usize(j.frame);
        w.u8(match j.kind {
            JobKind::Recovery => 0,
            JobKind::Sr => 1,
        });
        w.usize(j.rung);
        w.usize(j.chain);
        w.time(j.deadline);
    }
    let b = &sc.batcher_stats;
    w.usize(b.batches);
    w.usize(b.full);
    w.usize(b.warp_only);
    w.usize(b.shed);
    for &o in &b.occupancy {
        w.usize(o);
    }
    write_breaker_counters(w, b.breaker);
    match &sc.breaker {
        None => w.bool(false),
        Some(s) => {
            w.bool(true);
            write_breaker(w, s);
        }
    }
    match &sc.cache {
        None => w.bool(false),
        Some(c) => {
            w.bool(true);
            w.usize(c.entries.len());
            for &(head, bytes, last_used) in &c.entries {
                w.u8(head.code());
                w.u64(bytes);
                w.u64(last_used);
            }
            w.u64(c.tick);
            w.u64(c.stats.hits);
            w.u64(c.stats.misses);
            w.u64(c.stats.evictions);
            w.u64(c.stats.bytes_loaded);
            w.u64(c.stats.resident_bytes);
        }
    }
    w.usize(sc.sessions.len());
    for t in &sc.sessions {
        w.blob(t);
    }
    w.usize(sc.arriving.len());
    for (fail_us, readmit, t) in &sc.arriving {
        w.u64(*fail_us);
        w.bool(*readmit);
        w.blob(t);
    }
    w.usize(sc.queue.len());
    for ev in &sc.queue {
        w.time(ev.at);
        match ev.kind {
            EventKind::Restart => w.u8(0),
            EventKind::Arrive { session } => {
                w.u8(1);
                w.usize(session);
            }
            EventKind::Crash { session } => {
                w.u8(2);
                w.usize(session);
            }
            EventKind::Wake { session } => {
                w.u8(3);
                w.usize(session);
            }
            EventKind::Completion { gen } => {
                w.u8(4);
                w.u64(gen);
            }
            EventKind::Tick => w.u8(5),
        }
    }
}

fn read_server(r: &mut ByteReader) -> Result<ServerCkpt, FrameError> {
    let now = r.time()?;
    let gen = r.u64()?;
    let events = r.u64()?;
    let last_tick = read_opt_time(r)?;
    let down_until = read_opt_time(r)?;
    let dead = r.bool()?;
    let done = r.bool()?;
    let restarts = r.usize()?;
    let handoffs_in = r.usize()?;
    let handoffs_out = r.usize()?;
    let flush_idx = r.u64()?;
    let failc = ServerFailureCounters {
        failures: r.usize()?,
        rejoins: r.usize()?,
        evac_out: r.usize()?,
        evac_in: r.usize()?,
        evac_warp: r.usize()?,
        evac_freeze: r.usize()?,
        evac_stall: r.usize()?,
        jobs_failed: r.usize()?,
    };
    let inv = InvariantReport {
        checks: r.u64()?,
        violations: r.u64()?,
    };
    let slacks = (0..r.usize()?)
        .map(|_| r.f64())
        .collect::<Result<Vec<_>, _>>()?;
    let admission = AdmissionState {
        bw: read_bucket(r)?,
        macs: read_bucket(r)?,
        accepted: r.usize()?,
        downgraded: r.usize()?,
        rejected: r.usize()?,
    };
    let mut batcher_jobs = Vec::new();
    for _ in 0..r.usize()? {
        batcher_jobs.push(InferenceJob {
            session: r.usize()?,
            chunk: r.usize()?,
            frame: r.usize()?,
            kind: match r.u8()? {
                0 => JobKind::Recovery,
                1 => JobKind::Sr,
                v => return Err(FrameError::bad_field("job_kind", v)),
            },
            rung: r.usize()?,
            chain: r.usize()?,
            deadline: r.time()?,
        });
    }
    let mut batcher_stats = BatcherStats {
        batches: r.usize()?,
        full: r.usize()?,
        warp_only: r.usize()?,
        shed: r.usize()?,
        occupancy: [0; OCCUPANCY_BUCKETS],
        breaker: BreakerCounters::default(),
    };
    for o in batcher_stats.occupancy.iter_mut() {
        *o = r.usize()?;
    }
    batcher_stats.breaker = read_breaker_counters(r)?;
    let breaker = if r.bool()? {
        Some(read_breaker(r)?)
    } else {
        None
    };
    let cache = if r.bool()? {
        let mut entries = Vec::new();
        for _ in 0..r.usize()? {
            let code = r.u8()?;
            let head = HeadId::from_code(code).ok_or(FrameError::bad_field("cache_head", code))?;
            entries.push((head, r.u64()?, r.u64()?));
        }
        Some(WeightCacheState {
            entries,
            tick: r.u64()?,
            stats: CacheStats {
                hits: r.u64()?,
                misses: r.u64()?,
                evictions: r.u64()?,
                bytes_loaded: r.u64()?,
                resident_bytes: r.u64()?,
            },
        })
    } else {
        None
    };
    let sessions = (0..r.usize()?)
        .map(|_| r.blob().map(<[u8]>::to_vec))
        .collect::<Result<Vec<_>, _>>()?;
    let mut arriving = Vec::new();
    for _ in 0..r.usize()? {
        let fail_us = r.u64()?;
        let readmit = r.bool()?;
        arriving.push((fail_us, readmit, r.blob()?.to_vec()));
    }
    let mut queue = Vec::new();
    for _ in 0..r.usize()? {
        let at = r.time()?;
        let kind = match r.u8()? {
            0 => EventKind::Restart,
            1 => EventKind::Arrive {
                session: r.usize()?,
            },
            2 => EventKind::Crash {
                session: r.usize()?,
            },
            3 => EventKind::Wake {
                session: r.usize()?,
            },
            4 => EventKind::Completion { gen: r.u64()? },
            5 => EventKind::Tick,
            v => return Err(FrameError::bad_field("event_kind", v)),
        };
        queue.push(Event { at, kind });
    }
    Ok(ServerCkpt {
        now,
        gen,
        events,
        last_tick,
        down_until,
        dead,
        done,
        restarts,
        handoffs_in,
        handoffs_out,
        flush_idx,
        failc,
        inv,
        slacks,
        admission,
        batcher_jobs,
        batcher_stats,
        breaker,
        cache,
        sessions,
        arriving,
        queue,
    })
}

fn write_bucket(w: &mut ByteWriter, b: TokenBucketState) {
    w.f64(b.tokens);
    w.time(b.last_refill);
}

fn read_bucket(r: &mut ByteReader) -> Result<TokenBucketState, FrameError> {
    Ok(TokenBucketState {
        tokens: r.f64()?,
        last_refill: r.time()?,
    })
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
