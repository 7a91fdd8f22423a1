//! Live-mode fleet: per-frame deadlines, RTCP feedback, FIR storms.
//!
//! The VOD fleet (`nerve-serve::fleet`) hides network variance behind a
//! chunk buffer; this runner removes it. Every session produces one
//! frame per tick, due `playout_delay` after capture (the adaptive
//! jitter buffer, `nerve-net::jitter`), and every impaired frame forces
//! the budgeted repair decision of `nerve-core::live`:
//!
//! * **Conceal** — client-side neural recovery; free on the network,
//!   decays with chain depth, collapses into decoder desync past
//!   [`MAX_CONCEAL_CHAIN`].
//! * **NACK** — the analytic retransmission loop of
//!   [`nerve_net::feedback::FeedbackChannel::nack_loop`]: uplink draw,
//!   server shed decision, downlink draw, deadline check — one RTT of
//!   budget if it works.
//! * **FIR** — keyframe on demand through the server's rate-limited
//!   grant path ([`nerve_serve::LiveServer`]); the only repair that
//!   clears desync, and the one a correlated failure turns into a storm.
//!
//! When no repair fits the budget the frame degrades through the PR-1
//! ladder (warp-only → freeze) and is *accounted*: per session the six
//! outcome buckets (on-time, concealed, NACK-repaired, keyframe-restored,
//! warp-only, frozen) sum to the run's tick count, and every miss shows
//! up as degradation, a NACK expiry, or a FIR grant/denial — no silent
//! starvation.
//!
//! Determinism: the tick loop is serial in canonical session order, all
//! draws are stateless hashes or checkpointed RNG streams keyed by
//! [`seed_for`] component tags, and the only parallel compute — the
//! server's coalesced keyframe `conv2d` — is bit-identical at any worker
//! count. The whole fleet snapshots into a [`LiveCheckpoint`] (magic
//! "NRVL") so a mid-storm kill resumes to a byte-identical digest. Its
//! body is the `wire_record!` field lists of [`LiveCheckpoint`] and
//! [`LiveSessionCheckpoint`] over the live server's own records
//! (`LiveServerState` in `nerve-serve`); only [`KeyTick`] writes its
//! layout by hand.

use nerve_core::live::MAX_CONCEAL_CHAIN;
use nerve_core::{
    choose_repair, BreakerCounters, DegradationLadder, DegradationRung, LivePolicy, RepairAction,
    RepairContext, RepairCosts,
};
use nerve_net::bytes::{ByteReader, ByteWriter, Frame, FrameError, Wire};
use nerve_net::clock::SimTime;
use nerve_net::faults::FaultPlan;
use nerve_net::feedback::{FeedbackChannel, FeedbackKind, FeedbackStats, OWD_UP};
use nerve_net::jitter::{JitterBuffer, JitterConfig, JitterState};
use nerve_net::loss::{GilbertElliott, LossModel, LossState};
use nerve_net::Direction;
use nerve_obs::{FieldValue, Obs};
use nerve_rng::{DetRng, Rng};
use nerve_serve::{LiveServer, LiveServerConfig, LiveServerCounters, LiveServerState};
use nerve_video::rng::{seed_for, StreamComponent};
use std::fmt::Write as _;

/// The live checkpoint frame: magic "NRVL", version 1.
pub const LIVE_FRAME: Frame = Frame {
    magic: 0x4E52_564C,
    version: 1,
};

/// Frame cadence (40 ms = 25 fps).
const FRAME_INTERVAL: SimTime = SimTime::from_millis(40);
/// GOP length in frames (periodic keyframe cadence).
const GOP_TICKS: u64 = 25;
/// Extra transfer time of an intra frame vs a delta frame.
const KEY_EXTRA_SECS: f64 = 0.020;
/// Client loss-detection margin past the nominal arrival.
const DETECT_MARGIN: SimTime = SimTime::from_millis(10);
/// Client-side concealment compute cost.
const RECOVER_COST_SECS: f64 = 0.008;
/// Ticks a denied FIR waits before re-requesting.
const FIR_RETRY_TICKS: u32 = 4;

/// Configuration of one live fleet run.
#[derive(Debug, Clone)]
pub struct LiveFleetConfig {
    pub sessions: usize,
    /// Frames per session (the run length).
    pub ticks: u64,
    pub seed: u64,
    pub policy: LivePolicy,
    /// Fleet-wide fault plan (directional faults drive the scenarios).
    pub plan: FaultPlan,
    pub jitter: JitterConfig,
    pub server: LiveServerConfig,
    /// Per-session Gilbert–Elliott base loss on the downlink media path.
    pub base_loss: f64,
    pub mean_burst: f64,
}

impl LiveFleetConfig {
    /// A small live fleet with no injected faults beyond base loss.
    pub fn small(sessions: usize, ticks: u64, seed: u64, policy: LivePolicy) -> Self {
        Self {
            sessions,
            ticks,
            seed,
            policy,
            plan: FaultPlan::new(seed),
            jitter: JitterConfig::default(),
            server: LiveServerConfig::default(),
            base_loss: 0.03,
            mean_burst: 3.0,
        }
    }
}

/// Per-session frame-outcome counters. The six outcome buckets
/// partition the session's frames; the rest are diagnostic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSessionCounters {
    // Hits (frame displayed on schedule at full or recovered quality).
    pub on_time: u64,
    pub concealed: u64,
    pub nack_repaired: u64,
    pub keyframe_restored: u64,
    // Misses (degraded service; never a stall).
    pub warp_only: u64,
    pub frozen: u64,
    /// Total deadline misses — must equal `warp_only + frozen`.
    pub deadline_misses: u64,
    /// NACK loops that ended unrepaired.
    pub nack_expired: u64,
    /// FIR requests denied by the server's rate limiter.
    pub fir_denied: u64,
    /// FIR requests lost on the uplink before reaching the server.
    pub fir_lost: u64,
}

nerve_net::wire_record!(LiveSessionCounters {
    on_time,
    concealed,
    nack_repaired,
    keyframe_restored,
    warp_only,
    frozen,
    deadline_misses,
    nack_expired,
    fir_denied,
    fir_lost
});

impl LiveSessionCounters {
    /// Frames in the six outcome buckets (must equal the run's ticks).
    pub fn frames_accounted(&self) -> u64 {
        self.on_time
            + self.concealed
            + self.nack_repaired
            + self.keyframe_restored
            + self.warp_only
            + self.frozen
    }

    pub fn hits(&self) -> u64 {
        self.on_time + self.concealed + self.nack_repaired + self.keyframe_restored
    }
}

/// One session's mutable live state.
#[derive(Debug)]
struct LiveSession {
    /// Immutable nominal one-way downlink delay, drawn once per session
    /// from the `Jitter` component stream.
    owd_down_secs: f64,
    jitter: JitterBuffer,
    feedback: FeedbackChannel,
    loss: GilbertElliott,
    conceal_chain: u32,
    desynced: bool,
    nack_fail_streak: u32,
    /// Ticks remaining before the next FIR retry is allowed.
    fir_backoff: u32,
    /// Tick at which a granted keyframe becomes displayable.
    pending_key_tick: Option<u64>,
    counters: LiveSessionCounters,
}

/// Final per-session summary (digest surface).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSessionSummary {
    pub id: usize,
    pub counters: LiveSessionCounters,
    pub feedback: FeedbackStats,
    pub playout_delay_secs: f64,
}

/// Aggregate result of one live fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveFleetResult {
    pub sessions: Vec<LiveSessionSummary>,
    pub ticks: u64,
    pub server: LiveServerCounters,
    /// (requested, granted, ratelimited) from the FIR limiter.
    pub fir: (u64, u64, u64),
    pub breaker: BreakerCounters,
    /// Sum of keyframe-encode checksums (conv determinism witness).
    pub checksum_acc: f64,
}

impl LiveFleetResult {
    /// Fraction of all frames that hit their playout deadline at full or
    /// recovered quality.
    pub fn deadline_hit_rate(&self) -> f64 {
        let total = self.ticks * self.sessions.len() as u64;
        if total == 0 {
            return 1.0;
        }
        let hits: u64 = self.sessions.iter().map(|s| s.counters.hits()).sum();
        hits as f64 / total as f64
    }

    /// Canonical digest: every counter and every float (as raw bits) in
    /// fixed order. Byte-identical across worker counts and across
    /// kill-and-resume.
    pub fn digest(&self) -> String {
        let mut d = String::new();
        for s in &self.sessions {
            let c = &s.counters;
            let _ = write!(
                d,
                "s{:03} ot={} co={} nr={} kr={} wo={} fz={} dm={} ne={} fd={} fl={} \
                 fs={}/{}/{}/{} pd={:016x};",
                s.id,
                c.on_time,
                c.concealed,
                c.nack_repaired,
                c.keyframe_restored,
                c.warp_only,
                c.frozen,
                c.deadline_misses,
                c.nack_expired,
                c.fir_denied,
                c.fir_lost,
                s.feedback.nack_sent,
                s.feedback.fir_sent,
                s.feedback.lost,
                s.feedback.delivered,
                s.playout_delay_secs.to_bits(),
            );
        }
        let _ = write!(
            d,
            "srv ns={} nx={} fb={} ke={} fir={}/{}/{} brk={}/{}/{}/{}/{} ck={:016x}",
            self.server.nack_served,
            self.server.nack_shed,
            self.server.fir_batches,
            self.server.keyframes_encoded,
            self.fir.0,
            self.fir.1,
            self.fir.2,
            self.breaker.opened,
            self.breaker.half_opened,
            self.breaker.closed,
            self.breaker.watchdog_trips,
            self.breaker.fast_shed,
            self.checksum_acc.to_bits(),
        );
        d
    }
}

/// Serializable mid-run state of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSessionCheckpoint {
    pub jitter: JitterState,
    pub feedback_sent: u64,
    pub feedback_stats: FeedbackStats,
    pub loss: LossState,
    pub conceal_chain: u32,
    pub desynced: bool,
    pub nack_fail_streak: u32,
    pub fir_backoff: u32,
    pub pending_key_tick: KeyTick,
    pub counters: LiveSessionCounters,
}

nerve_net::wire_record!(LiveSessionCheckpoint {
    jitter,
    feedback_sent,
    feedback_stats,
    loss,
    conceal_chain,
    desynced,
    nack_fail_streak,
    fir_backoff,
    pending_key_tick,
    counters
});

/// A granted keyframe's display tick as NRVL carries it: a flag, then a
/// `u64` written even when absent (as 0). A cleared flag with a nonzero
/// tick would not re-encode to the same bytes, so it is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyTick(pub Option<u64>);

impl Wire for KeyTick {
    fn put(&self, w: &mut ByteWriter) {
        w.bool(self.0.is_some());
        w.u64(self.0.unwrap_or(0));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        let set = r.bool()?;
        let tick = r.u64()?;
        if !set && tick != 0 {
            return Err(FrameError::bad_field("pending_key_tick", tick));
        }
        Ok(KeyTick(set.then_some(tick)))
    }
}

/// Whole-fleet checkpoint: tick cursor, every session, the server.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveCheckpoint {
    pub tick: u64,
    pub sessions: Vec<LiveSessionCheckpoint>,
    pub server: LiveServerState,
}

nerve_net::wire_record!(LiveCheckpoint {
    tick,
    sessions,
    server
});

impl LiveCheckpoint {
    /// Serialize to the sealed [`LIVE_FRAME`].
    pub fn to_bytes(&self) -> Vec<u8> {
        LIVE_FRAME.encode(self)
    }

    /// Parse bytes produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        LIVE_FRAME.decode(bytes)
    }
}

/// The live fleet event loop.
pub struct LiveFleetRunner {
    cfg: LiveFleetConfig,
    tick: u64,
    sessions: Vec<LiveSession>,
    server: LiveServer,
}

impl LiveFleetRunner {
    pub fn new(cfg: LiveFleetConfig) -> Self {
        let sessions = (0..cfg.sessions)
            .map(|s| {
                let sid = s as u64;
                let mut path_rng = DetRng::new(seed_for(cfg.seed, sid, StreamComponent::Jitter));
                let owd_down_secs = 0.015 + 0.030 * path_rng.random_range(0.0f64..1.0);
                LiveSession {
                    owd_down_secs,
                    jitter: JitterBuffer::new(cfg.jitter),
                    feedback: FeedbackChannel::new(
                        cfg.plan.clone(),
                        seed_for(cfg.seed, sid, StreamComponent::Feedback),
                    ),
                    loss: GilbertElliott::with_rate(
                        cfg.base_loss,
                        cfg.mean_burst,
                        seed_for(cfg.seed, sid, StreamComponent::MediaLoss),
                    ),
                    conceal_chain: 0,
                    desynced: false,
                    nack_fail_streak: 0,
                    fir_backoff: 0,
                    pending_key_tick: None,
                    counters: LiveSessionCounters::default(),
                }
            })
            .collect();
        let input_seeds = (0..cfg.sessions as u64)
            .map(|sid| seed_for(cfg.seed, sid, StreamComponent::FirLimiter))
            .collect();
        let server = LiveServer::new(&cfg.server, input_seeds);
        Self {
            cfg,
            tick: 0,
            sessions,
            server,
        }
    }

    pub fn is_done(&self) -> bool {
        self.tick >= self.cfg.ticks
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advance one frame interval for every session, in canonical
    /// session order, then run the server's coalesced keyframe encode.
    pub fn step(&mut self, obs: Option<&mut Obs>) {
        let Self {
            cfg,
            tick,
            sessions,
            server,
        } = self;
        let k = *tick;
        let now = SimTime::from_micros(k * FRAME_INTERVAL.as_micros());
        let now_secs = now.as_secs_f64();
        server.begin_tick(now);

        let mut granted: Vec<usize> = Vec::new();
        let mut fir_asked_this_tick = 0u64;
        for (s, sess) in sessions.iter_mut().enumerate() {
            let sid = s as u64;
            let salt = seed_for(cfg.seed, sid, StreamComponent::Faults) ^ k;

            // A granted keyframe due now (or earlier) restores the GOP:
            // it rides the reliable path, so delivery is not re-drawn.
            if sess.pending_key_tick.is_some_and(|kt| kt <= k) {
                sess.pending_key_tick = None;
                sess.desynced = false;
                sess.conceal_chain = 0;
                sess.counters.keyframe_restored += 1;
                let arr = now_secs + sess.owd_down_secs + KEY_EXTRA_SECS;
                sess.jitter.on_arrival(now_secs, arr);
                continue;
            }

            let is_key = k.is_multiple_of(GOP_TICKS);
            let deadline_secs = sess.jitter.deadline_secs(now_secs);
            let deadline = SimTime::from_secs_f64(deadline_secs);
            let lost = sess.loss.lose() || cfg.plan.dir_lose_at(Direction::Downlink, now, salt);
            let arr_secs = now_secs
                + sess.owd_down_secs
                + cfg
                    .plan
                    .dir_extra_delay(Direction::Downlink, now, salt)
                    .as_secs_f64()
                + if is_key { KEY_EXTRA_SECS } else { 0.0 };
            let on_time = !lost && arr_secs <= deadline_secs;
            // Every physical arrival feeds the jitter estimate, even when
            // the decoder cannot use the frame.
            if !lost {
                sess.jitter.on_arrival(now_secs, arr_secs);
            }

            if sess.desynced {
                if is_key && on_time {
                    // The periodic keyframe restores sync for free.
                    sess.desynced = false;
                    sess.conceal_chain = 0;
                    sess.counters.keyframe_restored += 1;
                } else {
                    sess.counters.frozen += 1;
                    sess.counters.deadline_misses += 1;
                    // FIR retry with backoff, if the policy ever FIRs.
                    let wants_fir =
                        matches!(cfg.policy, LivePolicy::Budget | LivePolicy::AlwaysFir);
                    if wants_fir && sess.pending_key_tick.is_none() {
                        if sess.fir_backoff > 0 {
                            sess.fir_backoff -= 1;
                        } else if let Some(at_server) = sess.feedback.send(FeedbackKind::Fir, now) {
                            fir_asked_this_tick += 1;
                            if server.request_fir(at_server) {
                                granted.push(s);
                            } else {
                                sess.counters.fir_denied += 1;
                                sess.fir_backoff = FIR_RETRY_TICKS;
                            }
                        } else {
                            // Lost on the uplink: retry next tick. FIR
                            // packets are cheap and the client cannot
                            // tell a blackout from a drop — this is the
                            // hammering that builds the lift-time front.
                            sess.counters.fir_lost += 1;
                        }
                    }
                }
                continue;
            }

            if on_time {
                sess.counters.on_time += 1;
                sess.conceal_chain = 0;
                sess.nack_fail_streak = 0;
                continue;
            }

            // Lost or late: detect, budget, choose a repair.
            let detect_secs = now_secs + sess.owd_down_secs + DETECT_MARGIN.as_secs_f64();
            let detect = SimTime::from_secs_f64(detect_secs);
            let budget_secs = deadline_secs - detect_secs;
            let costs = RepairCosts {
                conceal_secs: RECOVER_COST_SECS,
                nack_secs: OWD_UP.as_secs_f64() + sess.owd_down_secs,
                fir_secs: 0.2,
            };
            let ctx = RepairContext {
                budget_secs,
                conceal_chain: sess.conceal_chain,
                desynced: false,
                nack_fail_streak: sess.nack_fail_streak,
            };
            let action = choose_repair(cfg.policy, &ctx, &costs);
            match action {
                Some(RepairAction::Conceal) => {
                    if sess.conceal_chain < MAX_CONCEAL_CHAIN {
                        sess.conceal_chain += 1;
                        sess.counters.concealed += 1;
                    } else {
                        // Chain bankruptcy: the reference is synthetic
                        // all the way down — decoder desyncs.
                        sess.desynced = true;
                        sess.counters.frozen += 1;
                        sess.counters.deadline_misses += 1;
                    }
                }
                Some(RepairAction::Nack) => {
                    let out = sess.feedback.nack_loop(
                        detect,
                        deadline,
                        SimTime::from_secs_f64(sess.owd_down_secs),
                        |_at| server.nack_allowed(),
                    );
                    if out.repaired() {
                        sess.counters.nack_repaired += 1;
                        sess.conceal_chain = 0;
                        sess.nack_fail_streak = 0;
                    } else {
                        sess.counters.nack_expired += 1;
                        sess.nack_fail_streak += 1;
                        degrade(sess, budget_secs, is_key && lost);
                    }
                }
                Some(RepairAction::Fir) => {
                    // GOP restart: the current frame is unserviceable and
                    // the decoder marks itself desynced until a keyframe
                    // lands (the FIR goes out on the next tick's pass).
                    sess.desynced = true;
                    sess.counters.frozen += 1;
                    sess.counters.deadline_misses += 1;
                }
                None => degrade(sess, budget_secs, is_key && lost),
            }
        }

        // Coalesce this tick's granted FIRs into one batched encode and
        // schedule each keyframe's client-side availability.
        if !granted.is_empty() {
            let encodes = server.encode_keyframes(now, &granted);
            let interval_secs = FRAME_INTERVAL.as_secs_f64();
            for e in &encodes {
                let sess = &mut sessions[e.session];
                let avail = e.ready_at.as_secs_f64() + sess.owd_down_secs;
                let due = (avail / interval_secs).ceil() as u64;
                sess.pending_key_tick = Some(due.max(k + 1));
            }
        }
        server.end_tick(now, FRAME_INTERVAL.as_secs_f64());

        if let Some(o) = obs {
            if fir_asked_this_tick > 0 {
                o.event(
                    "fir_wave",
                    k,
                    now.as_micros(),
                    &[
                        ("requested", FieldValue::U64(fir_asked_this_tick)),
                        ("granted", FieldValue::U64(granted.len() as u64)),
                    ],
                );
            }
        }
        *tick += 1;
    }

    /// Run to completion.
    pub fn run(&mut self, mut obs: Option<&mut Obs>) {
        while !self.is_done() {
            self.step(obs.as_deref_mut());
        }
    }

    /// Snapshot the whole fleet mid-run.
    pub fn checkpoint(&self) -> LiveCheckpoint {
        LiveCheckpoint {
            tick: self.tick,
            sessions: self
                .sessions
                .iter()
                .map(|s| LiveSessionCheckpoint {
                    jitter: s.jitter.state(),
                    feedback_sent: s.feedback.state().sent,
                    feedback_stats: s.feedback.state().stats,
                    loss: s.loss.state(),
                    conceal_chain: s.conceal_chain,
                    desynced: s.desynced,
                    nack_fail_streak: s.nack_fail_streak,
                    fir_backoff: s.fir_backoff,
                    pending_key_tick: KeyTick(s.pending_key_tick),
                    counters: s.counters,
                })
                .collect(),
            server: self.server.state(),
        }
    }

    /// Rebuild a runner from the same config plus a checkpoint. Refuses
    /// a checkpoint whose session count disagrees with the config, or
    /// whose loss cursor does not replay.
    pub fn resume(cfg: LiveFleetConfig, ckpt: &LiveCheckpoint) -> Result<Self, FrameError> {
        if ckpt.sessions.len() != cfg.sessions {
            return Err(FrameError::bad_field(
                "sessions",
                ckpt.sessions.len() as u64,
            ));
        }
        let mut runner = Self::new(cfg);
        runner.tick = ckpt.tick;
        for (sess, c) in runner.sessions.iter_mut().zip(&ckpt.sessions) {
            sess.jitter.restore(c.jitter);
            sess.feedback.restore(nerve_net::FeedbackState {
                sent: c.feedback_sent,
                stats: c.feedback_stats,
            });
            sess.loss.restore(c.loss)?;
            sess.conceal_chain = c.conceal_chain;
            sess.desynced = c.desynced;
            sess.nack_fail_streak = c.nack_fail_streak;
            sess.fir_backoff = c.fir_backoff;
            sess.pending_key_tick = c.pending_key_tick.0;
            sess.counters = c.counters;
        }
        runner.server.restore(ckpt.server);
        Ok(runner)
    }

    /// Final result (callable once the run is done, or mid-run for a
    /// progress view).
    pub fn finish(&self) -> LiveFleetResult {
        let limiter = self.server.limiter();
        LiveFleetResult {
            sessions: self
                .sessions
                .iter()
                .enumerate()
                .map(|(i, s)| LiveSessionSummary {
                    id: i,
                    counters: s.counters,
                    feedback: s.feedback.state().stats,
                    playout_delay_secs: s.jitter.playout_delay_secs(),
                })
                .collect(),
            ticks: self.tick,
            server: self.server.counters,
            fir: (limiter.requested, limiter.granted, limiter.ratelimited),
            breaker: self.server.breaker_counters(),
            checksum_acc: self.server.checksum_acc(),
        }
    }
}

/// A miss with no affordable repair: the degradation ladder decides
/// between warp-only and freeze; a lost GOP keyframe desyncs either way.
fn degrade(sess: &mut LiveSession, budget_secs: f64, lost_key: bool) {
    let ladder = DegradationLadder::recovery(RECOVER_COST_SECS);
    match ladder.select(budget_secs.max(0.0)) {
        DegradationRung::Full | DegradationRung::WarpOnly => {
            sess.counters.warp_only += 1;
            sess.conceal_chain += 1;
        }
        DegradationRung::Freeze | DegradationRung::Stall => {
            sess.counters.frozen += 1;
        }
    }
    sess.counters.deadline_misses += 1;
    if lost_key {
        sess.desynced = true;
    }
}

/// Run one live fleet, optionally tracing. Attaching the plane never
/// changes the result (passivity); at the end the live counters are
/// exported into the obs registry:
/// `nack.sent / nack.served / nack.expired`,
/// `fir.requested / fir.granted / fir.ratelimited`, and the
/// `jitter.playout_delay` gauge (fleet mean, seconds).
pub fn run_live_fleet(cfg: &LiveFleetConfig, mut obs: Option<&mut Obs>) -> LiveFleetResult {
    let mut runner = LiveFleetRunner::new(cfg.clone());
    runner.run(obs.as_deref_mut());
    let result = runner.finish();
    if let Some(o) = obs {
        let reg = &o.registry;
        let nack_sent: u64 = result.sessions.iter().map(|s| s.feedback.nack_sent).sum();
        let nack_expired: u64 = result
            .sessions
            .iter()
            .map(|s| s.counters.nack_expired)
            .sum();
        reg.counter("nack.sent").add(nack_sent);
        reg.counter("nack.served").add(result.server.nack_served);
        reg.counter("nack.expired").add(nack_expired);
        reg.counter("fir.requested").add(result.fir.0);
        reg.counter("fir.granted").add(result.fir.1);
        reg.counter("fir.ratelimited").add(result.fir.2);
        let mean_delay = result
            .sessions
            .iter()
            .map(|s| s.playout_delay_secs)
            .sum::<f64>()
            / result.sessions.len().max(1) as f64;
        reg.gauge("jitter.playout_delay").set(mean_delay);
    }
    result
}

/// The live chaos matrix scenarios. Each stresses one repair's blind
/// spot, so no static single policy can win them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveScenario {
    /// Bursty downlink loss, generous playout budget: NACKs affordable.
    LossBurst,
    /// Uplink blackout mid-run: feedback silenced, concealment carries.
    UplinkCollapse,
    /// Playout delay tighter than one RTT: NACKs never fit.
    TightBudget,
    /// Heavy loss windows that keep killing GOP keyframes: desync storm.
    DesyncStorm,
}

impl LiveScenario {
    pub const ALL: [LiveScenario; 4] = [
        LiveScenario::LossBurst,
        LiveScenario::UplinkCollapse,
        LiveScenario::TightBudget,
        LiveScenario::DesyncStorm,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            LiveScenario::LossBurst => "loss-burst",
            LiveScenario::UplinkCollapse => "uplink-collapse",
            LiveScenario::TightBudget => "tight-budget",
            LiveScenario::DesyncStorm => "desync-storm",
        }
    }
}

/// Build the fleet config for one (scenario, policy) matrix cell.
pub fn scenario_config(
    sc: LiveScenario,
    policy: LivePolicy,
    sessions: usize,
    ticks: u64,
    seed: u64,
) -> LiveFleetConfig {
    let mut cfg = LiveFleetConfig::small(sessions, ticks, seed, policy);
    let secs = |t: f64| SimTime::from_secs_f64(t);
    match sc {
        LiveScenario::LossBurst => {
            cfg.base_loss = 0.08;
            cfg.mean_burst = 4.0;
            cfg.plan = cfg.plan.downlink_loss(secs(2.0), secs(2.0), 0.30);
        }
        LiveScenario::UplinkCollapse => {
            cfg.base_loss = 0.08;
            cfg.plan = cfg.plan.uplink_loss(secs(2.0), secs(3.0), 1.0);
        }
        LiveScenario::TightBudget => {
            cfg.base_loss = 0.08;
            cfg.jitter = JitterConfig {
                base_delay_secs: 0.050,
                gain: 1.0,
                min_delay_secs: 0.045,
                max_delay_secs: 0.055,
            };
        }
        LiveScenario::DesyncStorm => {
            cfg.base_loss = 0.05;
            cfg.plan = cfg
                .plan
                .downlink_loss(secs(1.0), secs(1.5), 0.55)
                .downlink_loss(secs(4.0), secs(1.5), 0.55);
        }
    }
    cfg
}

/// The 32-session FIR-storm scenario: heavy downlink loss desyncs a
/// large slice of the fleet *during* an uplink blackout (their FIRs die
/// on the wire), and when the blackout lifts every desynced session
/// FIRs at once. The limiter, the coalesced encoder, and the breaker
/// absorb the front.
pub fn fir_storm_config(
    policy: LivePolicy,
    sessions: usize,
    ticks: u64,
    seed: u64,
) -> LiveFleetConfig {
    let mut cfg = LiveFleetConfig::small(sessions, ticks, seed, policy);
    let secs = |t: f64| SimTime::from_secs_f64(t);
    cfg.base_loss = 0.06;
    cfg.mean_burst = 4.0;
    // The downlink stays lossy PAST the uplink blackout: periodic GOP
    // keyframes keep dying (desyncs persist), while the feedback path
    // suddenly works — every desynced session FIRs into the same front.
    cfg.plan = cfg
        .plan
        .downlink_loss(secs(2.0), secs(4.5), 0.55)
        .uplink_loss(secs(2.0), secs(3.0), 1.0);
    // Size the absorber below the worst-case front: a storm is defined
    // relative to the limiter, and this fleet's lift-time FIR wave must
    // overrun the bucket so the denial/backoff path is exercised.
    cfg.server.limiter = nerve_serve::FirLimiterConfig {
        grants_per_sec: 2.0,
        burst_secs: 1.0,
    };
    cfg
}

/// One matrix cell's outcome.
#[derive(Debug, Clone)]
pub struct LiveCell {
    pub scenario: LiveScenario,
    pub policy: LivePolicy,
    pub hit_rate: f64,
    pub digest: String,
}

pub fn policy_label(p: LivePolicy) -> &'static str {
    match p {
        LivePolicy::Budget => "budget",
        LivePolicy::AlwaysConceal => "always-conceal",
        LivePolicy::AlwaysNack => "always-nack",
        LivePolicy::AlwaysFir => "always-fir",
    }
}

pub const ALL_POLICIES: [LivePolicy; 4] = [
    LivePolicy::Budget,
    LivePolicy::AlwaysConceal,
    LivePolicy::AlwaysNack,
    LivePolicy::AlwaysFir,
];

/// Run the full scenario × policy matrix; cells fan out across the
/// sweep pool and come back in canonical order.
pub fn run_live_matrix(sessions: usize, ticks: u64, seed: u64) -> Vec<LiveCell> {
    let cells: Vec<(LiveScenario, LivePolicy)> = LiveScenario::ALL
        .iter()
        .flat_map(|&sc| ALL_POLICIES.iter().map(move |&p| (sc, p)))
        .collect();
    crate::sweep::map(&cells, |_, &(sc, policy)| {
        let cfg = scenario_config(sc, policy, sessions, ticks, seed);
        let result = run_live_fleet(&cfg, None);
        LiveCell {
            scenario: sc,
            policy,
            hit_rate: result.deadline_hit_rate(),
            digest: result.digest(),
        }
    })
}

/// Mean deadline-hit-rate per policy across the matrix.
pub fn policy_hit_rates(cells: &[LiveCell]) -> Vec<(LivePolicy, f64)> {
    ALL_POLICIES
        .iter()
        .map(|&p| {
            let rates: Vec<f64> = cells
                .iter()
                .filter(|c| c.policy == p)
                .map(|c| c.hit_rate)
                .collect();
            (p, rates.iter().sum::<f64>() / rates.len().max(1) as f64)
        })
        .collect()
}

/// The `live` experiment report: the policy × scenario hit-rate matrix
/// plus the FIR-storm digest (the line CI compares across `--jobs`).
pub fn live_report(sessions: usize, ticks: u64, seed: u64) -> String {
    use crate::report::{fmt_f, Table};
    let cells = run_live_matrix(sessions.min(8), ticks, seed);
    let mut table = Table::new(
        "Live mode: deadline-hit-rate by scenario and repair policy",
        &[
            "scenario",
            "budget",
            "always-conceal",
            "always-nack",
            "always-fir",
        ],
    );
    for sc in LiveScenario::ALL {
        let mut row = vec![sc.label().to_string()];
        for p in ALL_POLICIES {
            let cell = cells
                .iter()
                .find(|c| c.scenario == sc && c.policy == p)
                .expect("matrix is complete");
            row.push(fmt_f(cell.hit_rate));
        }
        table.row(row);
    }
    let mut out = format!("{table}\n");
    let aggregates = policy_hit_rates(&cells);
    for (p, rate) in &aggregates {
        let _ = writeln!(
            out,
            "# {}: aggregate hit rate {:.4}",
            policy_label(*p),
            rate
        );
    }
    let storm = run_live_fleet(
        &fir_storm_config(LivePolicy::Budget, sessions, ticks, seed),
        None,
    );
    let _ = writeln!(
        out,
        "# fir-storm: sessions={} hit_rate={:.4} fir={}/{}/{} digest_crc={:08x}",
        sessions,
        storm.deadline_hit_rate(),
        storm.fir.0,
        storm.fir.1,
        storm.fir.2,
        nerve_net::integrity::crc32(storm.digest().as_bytes()),
    );
    out
}

/// The live `--trace-out` payload: the FIR-storm fleet re-run with the
/// observability plane attached, one JSONL stream. Stamped from virtual
/// time only — byte-identical at any `--jobs` value.
pub fn live_trace(sessions: usize, ticks: u64, seed: u64) -> String {
    let points = [sessions.min(8), sessions];
    let mut deduped: Vec<usize> = points.to_vec();
    deduped.dedup();
    let traced = crate::sweep::map(&deduped, |_, &n| {
        let cfg = fir_storm_config(LivePolicy::Budget, n, ticks, seed);
        let mut obs = Obs::trace();
        let result = run_live_fleet(&cfg, Some(&mut obs));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"live_point\":{n},\"digest_len\":{}}}",
            result.digest().len()
        );
        if let Some(lines) = obs.trace_lines() {
            out.push_str(lines);
        }
        out.push_str(&obs.registry.snapshot().render_jsonl());
        out
    });
    traced.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(policy: LivePolicy) -> LiveFleetConfig {
        fir_storm_config(policy, 6, 150, 42)
    }

    #[test]
    fn every_frame_is_accounted() {
        let r = run_live_fleet(&small_cfg(LivePolicy::Budget), None);
        for s in &r.sessions {
            assert_eq!(
                s.counters.frames_accounted(),
                r.ticks,
                "session {} leaked frames",
                s.id
            );
            assert_eq!(
                s.counters.deadline_misses,
                s.counters.warp_only + s.counters.frozen,
                "session {} misses unaccounted",
                s.id
            );
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_live_fleet(&small_cfg(LivePolicy::Budget), None);
        let b = run_live_fleet(&small_cfg(LivePolicy::Budget), None);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn obs_is_passive() {
        let plain = run_live_fleet(&small_cfg(LivePolicy::Budget), None);
        let mut obs = Obs::trace();
        let traced = run_live_fleet(&small_cfg(LivePolicy::Budget), Some(&mut obs));
        assert_eq!(plain.digest(), traced.digest());
    }

    #[test]
    fn checkpoint_round_trips_bytes() {
        let mut runner = LiveFleetRunner::new(small_cfg(LivePolicy::Budget));
        for _ in 0..80 {
            runner.step(None);
        }
        let ckpt = runner.checkpoint();
        let bytes = ckpt.to_bytes();
        let back = LiveCheckpoint::from_bytes(&bytes).expect("decodes");
        assert_eq!(ckpt, back);
        // Corruption is detected, not decoded.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert_eq!(LiveCheckpoint::from_bytes(&bad), Err(FrameError::Corrupt));
        // An unknown breaker-state tag (the body's last 13 eight-byte
        // fields follow it) is refused by name.
        let mut body = nerve_net::integrity::open(&bytes).unwrap().to_vec();
        let tag = body.len() - 13 * 8 - 1;
        assert!(body[tag] <= 2, "offset must land on the breaker tag");
        body[tag] = 7;
        assert_eq!(
            LiveCheckpoint::from_bytes(&nerve_net::integrity::seal(&body)),
            Err(FrameError::bad_field("breaker_state", 7u8))
        );
    }

    /// The CRC32 of a mid-storm frame, pinned: the wire bytes must not
    /// drift under a refactor of the codec.
    #[test]
    fn mid_storm_frame_crc_is_pinned() {
        let mut runner = LiveFleetRunner::new(small_cfg(LivePolicy::Budget));
        for _ in 0..70 {
            runner.step(None);
        }
        let bytes = runner.checkpoint().to_bytes();
        assert_eq!(nerve_net::integrity::crc32(&bytes), 0xD424_69E4);
    }

    /// The 64-bit FNV-1a of every scenario's digest under every policy
    /// (rows in `LiveScenario::ALL` order, columns in `ALL_POLICIES`
    /// order) and of the FIR storm's, pinned: the repair thresholds, the
    /// feedback timings and the fleet's frame cadence all enter them.
    #[test]
    fn every_scenario_digest_is_pinned() {
        const MATRIX: [[u64; 4]; 4] = [
            [
                0xb163_6839_a9d5_7e0d,
                0x2716_2244_d4c1_734d,
                0x4f81_c7b2_4e5e_522e,
                0x4f6e_0286_ffed_6df4,
            ],
            [
                0x34f0_f503_ba3b_6d57,
                0x69b6_0f8a_3bd1_320e,
                0x0a94_4821_9ccb_9886,
                0x4cb0_e483_8c17_3e0d,
            ],
            [
                0x8c25_1e34_2db6_a210,
                0x1326_2c38_c2b6_746f,
                0xf02a_53ab_b606_88fb,
                0xff99_e832_ba22_67b3,
            ],
            [
                0x6228_a79e_5e3c_5bfa,
                0x06d1_9d4c_f4bc_b987,
                0x3a0e_88ac_a4fb_97d8,
                0x8966_7842_b402_158e,
            ],
        ];
        const STORM: u64 = 0xe873_efec_c59f_4568;
        let fnv1a = |s: String| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut moved = Vec::new();
        for (sc, pins) in LiveScenario::ALL.into_iter().zip(MATRIX) {
            for (policy, pin) in ALL_POLICIES.into_iter().zip(pins) {
                let cfg = scenario_config(sc, policy, 6, 150, 42);
                let got = fnv1a(run_live_fleet(&cfg, None).digest());
                if got != pin {
                    moved.push(format!(
                        "{} {}: {got:#018x}",
                        sc.label(),
                        policy_label(policy)
                    ));
                }
            }
        }
        let storm = fir_storm_config(LivePolicy::Budget, 16, 200, 42);
        let got = fnv1a(run_live_fleet(&storm, None).digest());
        if got != STORM {
            moved.push(format!("fir-storm: {got:#018x}"));
        }
        assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted() {
        let cfg = small_cfg(LivePolicy::Budget);
        let mut whole = LiveFleetRunner::new(cfg.clone());
        whole.run(None);
        let reference = whole.finish().digest();

        // Kill mid-storm (tick 70 of 150 is inside the blackout).
        let mut pre = LiveFleetRunner::new(cfg.clone());
        for _ in 0..70 {
            pre.step(None);
        }
        let bytes = pre.checkpoint().to_bytes();
        drop(pre);
        let ckpt = LiveCheckpoint::from_bytes(&bytes).expect("decodes");
        let mut post = LiveFleetRunner::resume(cfg, &ckpt).expect("resumes");
        post.run(None);
        assert_eq!(post.finish().digest(), reference);
    }

    /// A sealed checkpoint whose loss cursor does not replay, or whose
    /// session count disagrees with the config, decodes (its CRC holds)
    /// but is refused at resume.
    #[test]
    fn resume_refuses_a_checkpoint_that_does_not_fit_the_config() {
        let cfg = small_cfg(LivePolicy::Budget);
        let mut pre = LiveFleetRunner::new(cfg.clone());
        for _ in 0..70 {
            pre.step(None);
        }
        let reseal = |c: LiveCheckpoint| LiveCheckpoint::from_bytes(&c.to_bytes()).unwrap();
        let mut flipped = pre.checkpoint();
        flipped.sessions[0].loss.bad = !flipped.sessions[0].loss.bad;
        let flipped = reseal(flipped);
        assert_eq!(
            LiveFleetRunner::resume(cfg.clone(), &flipped).err(),
            Some(FrameError::bad_field(
                "loss_bad",
                flipped.sessions[0].loss.bad
            ))
        );
        let mut long = pre.checkpoint();
        long.sessions[5].loss.draws = nerve_net::loss::MAX_REPLAY_DRAWS + 1;
        assert_eq!(
            LiveFleetRunner::resume(cfg.clone(), &reseal(long)).err(),
            Some(FrameError::bad_field(
                "loss_draws",
                nerve_net::loss::MAX_REPLAY_DRAWS + 1
            ))
        );
        let mut short = pre.checkpoint();
        short.sessions.pop();
        assert_eq!(
            LiveFleetRunner::resume(cfg, &reseal(short)).err(),
            Some(FrameError::bad_field("sessions", 5u64))
        );
    }

    #[test]
    fn storm_actually_storms() {
        let r = run_live_fleet(&fir_storm_config(LivePolicy::Budget, 16, 200, 42), None);
        assert!(r.fir.0 > 0, "no FIR requests reached the server");
        assert!(r.fir.2 > 0, "the limiter never engaged: not a storm");
        assert!(
            r.server.keyframes_encoded > 0,
            "no keyframes were ever granted"
        );
        assert!(
            r.server.fir_batches < r.server.keyframes_encoded,
            "grants were never coalesced into a batch"
        );
    }
}
