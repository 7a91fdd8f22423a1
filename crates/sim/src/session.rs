//! The calibrated streaming session (Figure 5's architecture, end to end).
//!
//! One session = one network trace + one scheme. Per chunk:
//!
//! 1. the ABR picks a ladder rung from its context (buffer, throughput
//!    and loss history);
//! 2. FEC parity is added per the scheme (fixed ratio or the §4 lookup
//!    table driven by an EWMA loss prediction);
//! 3. the chunk's packets cross the QUIC-like transport over the fluid
//!    trace-driven link: bursty (Gilbert–Elliott) loss, one fast
//!    retransmission (+1 RTT) when the scheme allows it;
//! 4. per-frame: FEC reconstruction, arrival-vs-playout classification
//!    (`T_play` vs `T_arr`, §6), then the scheme's client behaviour —
//!    recovery (bounded by the point code's TCP delivery), frame reuse,
//!    stalls, SR when slack allows;
//! 5. frame PSNRs come from the calibrated [`QualityMaps`]; the chunk's
//!    mean PSNR maps back through the PSNR↔bitrate curve into the
//!    utility entering the §6 QoE.
//!
//! The session reports everything the figures need: per-chunk outcomes,
//! session QoE, recovered-frame fraction and recovered-frame-only QoE
//! (Table 3), and time series (Figure 14).

use nerve_abr::fec_table::FecTable;
use nerve_abr::mpc::{EnhancementAwareAbr, EnhancementConfig, MODEL_SECS, PACKET_BYTES};
use nerve_abr::nemo::{effective_sr_psnr, NemoAbr};
use nerve_abr::predict::{Ewma, Predictor};
use nerve_abr::qoe::{session_qoe, ChunkOutcome, QoeParams, QualityMaps};
use nerve_abr::{Abr, AbrContext};
use nerve_core::{DegradationLadder, DegradationRung};
use nerve_model::delta::{delta_for, weights_at, DeltaError, ModelWeights, WeightDelta};
use nerve_model::fingerprint::HeadId;
use nerve_net::bytes::{ByteWriter, FrameError};
use nerve_net::clock::SimTime;
use nerve_net::faults::{FaultPlan, FaultWindow, FaultyLoss};
use nerve_net::integrity::crc32;
use nerve_net::link::Link;
use nerve_net::loss::{GilbertElliott, LossState};
use nerve_net::quicish::QuicStream;
use nerve_net::reliable::{ChannelStats, ReliableChannel, SendOutcome};
use nerve_net::trace::NetworkTrace;
use nerve_obs::{FieldValue, Obs, Registry};
use nerve_video::resolution::{CHUNK_SECONDS, GOP_FRAMES};
use nerve_video::rng::{seed_for, StreamComponent};
use nerve_video::synth::Category;

use crate::checkpoint::SessionCheckpoint;

/// FEC policy of a scheme.
#[derive(Debug, Clone)]
pub enum FecMode {
    /// No forward error correction.
    Off,
    /// Fixed redundancy ratio.
    Fixed(f64),
    /// The §4 lookup table indexed by predicted loss.
    Table(FecTable),
}

/// Which ABR controls the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrKind {
    /// Enhancement-aware MPC with the given awareness flags.
    Aware { recovery: bool, sr: bool },
    /// Enhancement-blind MPC.
    Blind,
    /// NEMO's controller.
    Nemo,
}

/// Full description of one evaluated scheme.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Client runs video recovery for lost/late frames.
    pub recovery: bool,
    /// Client runs super-resolution.
    pub sr: bool,
    /// [`AbrKind::Nemo`] also brings NEMO's quality accounting
    /// (anchor-limited SR, reuse on loss) in place of `recovery`/`sr`.
    pub abr: AbrKind,
    pub fec: FecMode,
    /// Fallback ladder for frames that miss their deadline when the
    /// scheme has **no** recovery: [`DegradationLadder::stall_only`]
    /// (the default) or [`DegradationLadder::reuse_only`], the paper's
    /// no-recovery baseline in the lossy-network experiments (§8.3).
    /// Recovery schemes override this with [`DegradationLadder::recovery`]
    /// sized from the 22 ms model run ([`MODEL_SECS`]).
    pub ladder: DegradationLadder,
    /// QUIC fast retransmission enabled.
    pub retransmission: bool,
}

impl Scheme {
    /// The paper's full system: recovery + SR + enhancement-aware ABR.
    pub fn nerve() -> Self {
        Self {
            recovery: true,
            sr: true,
            abr: AbrKind::Aware {
                recovery: true,
                sr: true,
            },
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    /// "w/o RC": no recovery, blind ABR.
    pub fn without_recovery() -> Self {
        Self {
            recovery: false,
            sr: false,
            abr: AbrKind::Blind,
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    /// "RC alone": recovery at the client, enhancement-blind ABR.
    pub fn recovery_alone() -> Self {
        Self {
            recovery: true,
            sr: false,
            abr: AbrKind::Blind,
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    /// "Our" recovery-only scheme: recovery + recovery-aware ABR.
    pub fn recovery_aware() -> Self {
        Self {
            recovery: true,
            sr: false,
            abr: AbrKind::Aware {
                recovery: true,
                sr: false,
            },
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    /// "w/o SR" for the SR experiments.
    pub fn without_sr() -> Self {
        Self::without_recovery()
    }

    /// "SR alone": SR at the client, enhancement-blind ABR.
    pub fn sr_alone() -> Self {
        Self {
            recovery: false,
            sr: true,
            abr: AbrKind::Blind,
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    /// "Our" SR-only scheme: SR + SR-aware ABR.
    pub fn sr_aware() -> Self {
        Self {
            recovery: false,
            sr: true,
            abr: AbrKind::Aware {
                recovery: false,
                sr: true,
            },
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    /// NEMO baseline.
    pub fn nemo_baseline() -> Self {
        Self {
            recovery: false,
            sr: true,
            abr: AbrKind::Nemo,
            fec: FecMode::Off,
            ladder: DegradationLadder::stall_only(),
            retransmission: true,
        }
    }

    pub fn with_fec(mut self, fec: FecMode) -> Self {
        self.fec = fec;
        self
    }

    pub fn with_ladder(mut self, ladder: DegradationLadder) -> Self {
        self.ladder = ladder;
        self
    }
}

/// A blackout at least this long is treated as a dead bearer and
/// promoted to a teardown (explicit [`nerve_net::faults::Fault::Disconnect`]
/// events always tear down).
const BLACKOUT_THRESHOLD_SECS: f64 = 1.5;
/// Transport re-establishment time charged after an outage ends (DNS +
/// handshakes + the point-code resync round trip).
const HANDSHAKE_SECS: f64 = 0.3;

/// The specialist head the delta plane refreshes.
const DELTA_HEAD: HeadId = HeadId::Specialist(Category::ProductReview);
/// Delta updates the server pushes over the session.
const DELTA_UPDATES: u32 = 2;
/// Delta bytes shipped per streamed chunk. One `"NRVM"` frame is a few
/// hundred bytes, so each update spreads across several chunks, which
/// is what makes mid-transfer kills interesting.
const DELTA_CHUNK_BYTES: u64 = 96;

/// Maximum client buffer, seconds.
pub const MAX_BUFFER_SECS: f64 = 30.0;

/// Session configuration.
#[derive(Clone)]
pub struct SessionConfig {
    pub trace: NetworkTrace,
    pub maps: QualityMaps,
    pub scheme: Scheme,
    /// Chunks to stream (paper traces are ~300 s = 75 chunks).
    pub chunks: usize,
    /// RNG seed for the loss processes.
    pub seed: u64,
    /// Fault scenario injected into both the media and the point-code
    /// transports (empty by default). The plan is data: one clone feeds
    /// the link (capacity/delay effects) and one the loss wrappers
    /// (blackout drops, loss bursts, corruption).
    pub faults: FaultPlan,
    /// Crash/reconnect plane: `true` makes the session tear down on
    /// [`nerve_net::faults::Fault::Disconnect`] events (and blackouts
    /// past 1.5 s) and resume from a serialized [`SessionCheckpoint`]
    /// after a 0.3 s handshake. `false` (the default) keeps the legacy
    /// ride-it-out behaviour bit-identical.
    pub reconnect: bool,
    /// Model plane: `true` streams delta weight updates alongside the
    /// session, paced at a fixed byte budget per chunk, and applies each
    /// `"NRVM"` frame through the real [`nerve_model::delta`] codec once
    /// all of its bytes are in. The transfer cursor is checkpointed, so
    /// a session killed mid-frame resumes the transfer exactly where it
    /// stopped; the weight tensor is rebuilt by replay, never
    /// serialized. `false` (the default) keeps legacy results and
    /// digests bit-identical.
    pub delta: bool,
}

impl SessionConfig {
    pub fn new(trace: NetworkTrace, maps: QualityMaps, scheme: Scheme) -> Self {
        Self {
            trace,
            maps,
            scheme,
            chunks: 40,
            seed: 7,
            faults: FaultPlan::default(),
            reconnect: false,
            delta: false,
        }
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub fn with_reconnect(mut self) -> Self {
        self.reconnect = true;
        self
    }

    pub fn with_delta(mut self) -> Self {
        self.delta = true;
        self
    }
}

/// Per-chunk record kept for time-series figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRecord {
    pub start_secs: f64,
    pub rung: usize,
    pub throughput_kbps: f64,
    pub qoe: f64,
    pub utility_mbps: f64,
    pub rebuffer_secs: f64,
    pub recovered_frames: usize,
    pub total_frames: usize,
}

nerve_net::wire_record!(ChunkRecord {
    start_secs,
    rung,
    throughput_kbps,
    qoe,
    utility_mbps,
    rebuffer_secs,
    recovered_frames,
    total_frames
});

/// How many deadline-missing frames each degradation-ladder rung
/// absorbed over the session (non-NEMO schemes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationCounts {
    /// Full recovery pipeline ran within budget.
    pub full: usize,
    /// Budget only allowed flow + warp.
    pub warp_only: usize,
    /// Previous frame re-displayed (freeze / reuse).
    pub freeze: usize,
    /// Playback stalled waiting for the frame.
    pub stall: usize,
}

impl DegradationCounts {
    /// Frames that missed their deadline, over all rungs.
    pub fn total(&self) -> usize {
        self.full + self.warp_only + self.freeze + self.stall
    }

    /// Frames that got *less* than a full recovery.
    pub fn degraded(&self) -> usize {
        self.warp_only + self.freeze + self.stall
    }
}

/// Outcome of the mid-session delta weight updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaPlaneSummary {
    /// Weight version reached by session end.
    pub version: u32,
    /// `"NRVM"` frames applied cleanly through the codec.
    pub applied: u64,
    /// Frames the codec rejected (zero in a healthy run).
    pub rejected: u64,
    /// CRC of the final weight tensor — a resumed run that reached the
    /// same version must agree exactly.
    pub weights_crc: u32,
}

/// Session results.
#[derive(Debug, Clone)]
pub struct SessionResult {
    pub qoe: f64,
    pub chunks: Vec<ChunkRecord>,
    /// Fraction of frames that went through recovery (or would have
    /// needed it under schemes without recovery).
    pub recovered_fraction: f64,
    /// Mean per-frame QoE of recovered (or reused-in-place-of-recovered)
    /// frames only — Table 3's metric.
    pub recovered_frame_qoe: f64,
    /// Total rebuffering time.
    pub total_rebuffer_secs: f64,
    /// Per-rung counts of deadline-missing frames.
    pub degradation: DegradationCounts,
    /// Point-code channel counters (retransmissions, deadline expiries,
    /// corrupted deliveries) — how hard the fault plan hit the codes.
    pub code_stats: ChannelStats,
    /// Teardown/reconnect cycles the crash plane performed.
    pub reconnects: usize,
    /// Wall time spent disconnected (outage remainder plus handshakes).
    pub downtime_secs: f64,
    /// Delta weight-update summary when [`SessionConfig::delta`] is
    /// set; `None` keeps legacy digests unchanged.
    pub delta: Option<DeltaPlaneSummary>,
}

impl SessionResult {
    /// Order-independent fingerprint of everything schedule-sensitive:
    /// two runs of the same configuration must agree bit-for-bit, so a
    /// resumed-from-checkpoint session can be compared against an
    /// uninterrupted one with a single integer.
    pub fn invariant_digest(&self) -> u32 {
        let mut w = ByteWriter::new();
        w.f64(self.qoe);
        w.f64(self.recovered_fraction);
        w.f64(self.recovered_frame_qoe);
        w.f64(self.total_rebuffer_secs);
        w.usize(self.reconnects);
        w.f64(self.downtime_secs);
        for d in [
            self.degradation.full,
            self.degradation.warp_only,
            self.degradation.freeze,
            self.degradation.stall,
        ] {
            w.usize(d);
        }
        for c in [
            self.code_stats.messages,
            self.code_stats.retransmissions,
            self.code_stats.expired,
            self.code_stats.corrupted,
            self.code_stats.crc_detected,
        ] {
            w.u64(c);
        }
        w.usize(self.chunks.len());
        for r in &self.chunks {
            w.f64(r.start_secs);
            w.usize(r.rung);
            w.f64(r.throughput_kbps);
            w.f64(r.qoe);
            w.f64(r.utility_mbps);
            w.f64(r.rebuffer_secs);
            w.usize(r.recovered_frames);
            w.usize(r.total_frames);
        }
        if let Some(d) = &self.delta {
            w.u32(d.version);
            w.u64(d.applied);
            w.u64(d.rejected);
            w.u32(d.weights_crc);
        }
        crc32(&w.into_bytes())
    }

    /// Export this result into a metrics registry. Degradation rungs and
    /// point-code channel counters land as counters (so several sessions
    /// can accumulate into one registry); scalar quality metrics land as
    /// gauges.
    pub fn export_metrics(&self, registry: &Registry) {
        registry.gauge("session.qoe").set(self.qoe);
        registry
            .gauge("session.recovered_fraction")
            .set(self.recovered_fraction);
        registry
            .gauge("session.recovered_frame_qoe")
            .set(self.recovered_frame_qoe);
        registry
            .gauge("session.rebuffer_secs")
            .set(self.total_rebuffer_secs);
        registry
            .gauge("session.downtime_secs")
            .set(self.downtime_secs);
        registry
            .counter("session.chunks")
            .add(self.chunks.len() as u64);
        registry
            .counter("session.reconnects")
            .add(self.reconnects as u64);
        registry
            .counter("session.degradation.full")
            .add(self.degradation.full as u64);
        registry
            .counter("session.degradation.warp_only")
            .add(self.degradation.warp_only as u64);
        registry
            .counter("session.degradation.freeze")
            .add(self.degradation.freeze as u64);
        registry
            .counter("session.degradation.stall")
            .add(self.degradation.stall as u64);
        registry
            .counter("code.messages")
            .add(self.code_stats.messages);
        registry
            .counter("code.retransmissions")
            .add(self.code_stats.retransmissions);
        registry
            .counter("code.expired")
            .add(self.code_stats.expired);
        registry
            .counter("code.corrupted")
            .add(self.code_stats.corrupted);
        registry
            .counter("code.crc_detected")
            .add(self.code_stats.crc_detected);
        if let Some(d) = &self.delta {
            registry.counter("session.delta.applied").add(d.applied);
            registry.counter("session.delta.rejected").add(d.rejected);
            registry
                .gauge("session.delta.version")
                .set(d.version as f64);
        }
    }
}

/// The resumable streaming session: one [`SessionRunner::step`] streams
/// one chunk and then services any pending teardown/reconnect event.
///
/// Every piece of cross-chunk state lives on this struct so that
/// [`SessionRunner::checkpoint`] can capture it exactly and
/// [`SessionRunner::resume`] can rebuild it in a fresh process. The
/// in-process reconnect path goes through the *serialized* checkpoint
/// too — there is no shortcut that could let the byte format rot.
pub struct SessionRunner {
    config: SessionConfig,
    /// Teardown events (disconnects plus over-threshold blackouts),
    /// sorted; `epoch` indexes the next unserviced one.
    events: Vec<FaultWindow>,
    abr: Box<dyn Abr>,
    link: Link,
    media: QuicStream<FaultyLoss<GilbertElliott>>,
    code_channel: ReliableChannel<FaultyLoss<GilbertElliott>>,
    deg_ladder: DegradationLadder,
    ladder: Vec<u32>,
    /// Current weight tensor under delta refresh (`None` unless
    /// [`SessionConfig::delta`] is set). Derived state: rebuilt on resume by
    /// replaying [`weights_at`] to the checkpointed version.
    weights: Option<ModelWeights>,
    // ---- checkpointed state ----
    chunk_index: usize,
    now: SimTime,
    buffer_secs: f64,
    loss_tracker: Ewma,
    ctx: AbrContext,
    outcomes: Vec<ChunkOutcome>,
    records: Vec<ChunkRecord>,
    degradation: DegradationCounts,
    recovered_frames_total: usize,
    frames_total: usize,
    recovered_qoe_acc: f64,
    recovered_qoe_n: usize,
    reuse_chain: usize,
    epoch: u64,
    reconnects: usize,
    downtime_secs: f64,
    pending_rebuffer: f64,
    delta_version: u32,
    delta_bytes_sent: u64,
    delta_applied: u64,
    delta_rejected: u64,
}

impl SessionRunner {
    pub fn new(config: SessionConfig) -> Self {
        let cfg = &config;
        let frames = GOP_FRAMES;
        let ladder: Vec<u32> = cfg.maps.ladder_kbps.clone();
        let abr: Box<dyn Abr> = match cfg.scheme.abr {
            AbrKind::Aware { recovery, sr } => Box::new(EnhancementAwareAbr::new(
                cfg.maps.clone(),
                QoeParams::default(),
                EnhancementConfig {
                    recovery_aware: recovery,
                    sr_aware: sr,
                    // Without transport retransmission every first-tx loss
                    // is residual; with it only ~p² survives.
                    residual_loss_factor: if cfg.scheme.retransmission { 0.1 } else { 1.0 },
                },
            )),
            AbrKind::Blind => Box::new(EnhancementAwareAbr::enhancement_blind(
                cfg.maps.clone(),
                QoeParams::default(),
            )),
            AbrKind::Nemo => Box::new(NemoAbr::new(cfg.maps.clone(), QoeParams::default())),
        };

        let link = Link::new(cfg.trace.clone()).with_faults(cfg.faults.clone());
        // A single session is session 0 of its own fleet; the fleet
        // runner derives sibling streams with other session ids. The
        // media stream keeps `cfg.seed` itself so single-session results
        // are unchanged by the splitter's introduction.
        let loss_model = FaultyLoss::new(
            GilbertElliott::with_rate(
                cfg.trace.loss_rate.min(0.49),
                cfg.trace.kind.mean_burst(),
                cfg.seed,
            ),
            cfg.faults.clone(),
        );
        let attempts = if cfg.scheme.retransmission { 2 } else { 1 };
        let media = QuicStream::new(link.clone(), loss_model).with_max_attempts(attempts);
        // Point codes ride a separate reliable channel; its link shares
        // the trace (bandwidth effect of 1 KB/frame is negligible) and
        // the fault plan (a blackout takes out both transports). Its loss
        // stream is split off with [`seed_for`] rather than an ad-hoc
        // XOR constant.
        let code_channel = ReliableChannel::new(
            Link::new(cfg.trace.clone()).with_faults(cfg.faults.clone()),
            FaultyLoss::new(
                GilbertElliott::with_rate(
                    cfg.trace.loss_rate.min(0.49),
                    cfg.trace.kind.mean_burst(),
                    seed_for(cfg.seed, 0, StreamComponent::CodeLoss),
                ),
                cfg.faults.clone(),
            ),
        );
        // Recovery schemes degrade along the paper's ladder; schemes
        // without recovery keep their configured stall/freeze fallback.
        let deg_ladder = if cfg.scheme.recovery {
            DegradationLadder::recovery(MODEL_SECS)
        } else {
            cfg.scheme.ladder
        };
        let events = if cfg.reconnect {
            cfg.faults
                .reconnect_events(Some(SimTime::from_secs_f64(BLACKOUT_THRESHOLD_SECS)))
        } else {
            Vec::new()
        };
        let ctx = AbrContext::bootstrap(ladder.clone(), CHUNK_SECONDS, frames);
        let weights = cfg.delta.then(|| ModelWeights::base(DELTA_HEAD));
        Self {
            config,
            events,
            abr,
            link,
            media,
            code_channel,
            deg_ladder,
            ladder,
            weights,
            chunk_index: 0,
            now: SimTime::ZERO,
            buffer_secs: 0.0,
            loss_tracker: Ewma::new(0.3),
            ctx,
            outcomes: Vec::new(),
            records: Vec::new(),
            degradation: DegradationCounts::default(),
            recovered_frames_total: 0,
            frames_total: 0,
            recovered_qoe_acc: 0.0,
            recovered_qoe_n: 0,
            reuse_chain: 0,
            epoch: 0,
            reconnects: 0,
            downtime_secs: 0.0,
            pending_rebuffer: 0.0,
            delta_version: 0,
            delta_bytes_sent: 0,
            delta_applied: 0,
            delta_rejected: 0,
        }
    }

    /// Rebuild a runner from `config` plus a [`SessionCheckpoint`]. The
    /// config must be the one the checkpointed session started with; the
    /// checkpoint layers all dynamic state on top. Refuses a checkpoint
    /// whose loss cursors do not replay.
    pub fn resume(config: SessionConfig, cp: &SessionCheckpoint) -> Result<Self, FrameError> {
        let mut r = Self::new(config);
        r.chunk_index = cp.chunk_index as usize;
        r.epoch = cp.epoch;
        r.reconnects = cp.reconnects as usize;
        r.downtime_secs = cp.downtime_secs;
        r.pending_rebuffer = cp.pending_rebuffer;
        r.now = cp.now;
        r.buffer_secs = cp.buffer_secs;
        r.reuse_chain = cp.reuse_chain as usize;
        r.loss_tracker.restore_value(cp.loss_pred);
        r.ctx.buffer_secs = cp.buffer_secs;
        r.ctx.last_choice = cp.last_choice as usize;
        r.ctx.throughput_kbps = cp.throughput_kbps.clone();
        r.ctx.loss_rates = cp.loss_rates.clone();
        r.media.restore_state(&cp.media);
        r.media.loss_mut().set_packets(cp.media_fault_packets);
        r.media.loss_mut().inner_mut().restore(cp.media_loss)?;
        r.code_channel.restore_state(&cp.code);
        r.code_channel.loss_mut().set_packets(cp.code_fault_packets);
        r.code_channel
            .loss_mut()
            .inner_mut()
            .restore(cp.code_loss)?;
        r.degradation = DegradationCounts {
            full: cp.degradation[0] as usize,
            warp_only: cp.degradation[1] as usize,
            freeze: cp.degradation[2] as usize,
            stall: cp.degradation[3] as usize,
        };
        r.recovered_frames_total = cp.recovered_frames_total as usize;
        r.frames_total = cp.frames_total as usize;
        r.recovered_qoe_acc = cp.recovered_qoe_acc;
        r.recovered_qoe_n = cp.recovered_qoe_n as usize;
        r.outcomes = cp
            .outcomes
            .iter()
            .map(|&(utility_mbps, rebuffer_secs)| ChunkOutcome {
                utility_mbps,
                rebuffer_secs,
            })
            .collect();
        r.records = cp.records.clone();
        r.delta_version = cp.delta_version;
        r.delta_bytes_sent = cp.delta_bytes_sent;
        r.delta_applied = cp.delta_applied;
        r.delta_rejected = cp.delta_rejected;
        // The checkpoint carries only the cursor; the tensor is the
        // pure replay of the deltas applied so far.
        if r.config.delta {
            r.weights = Some(weights_at(r.config.seed, DELTA_HEAD, cp.delta_version));
        }
        Ok(r)
    }

    /// Capture every piece of dynamic state as a checkpoint.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            chunk_index: self.chunk_index as u64,
            epoch: self.epoch,
            reconnects: self.reconnects as u64,
            downtime_secs: self.downtime_secs,
            pending_rebuffer: self.pending_rebuffer,
            now: self.now,
            buffer_secs: self.buffer_secs,
            reuse_chain: self.reuse_chain as u64,
            loss_pred: self.loss_tracker.value(),
            last_choice: self.ctx.last_choice as u64,
            throughput_kbps: self.ctx.throughput_kbps.clone(),
            loss_rates: self.ctx.loss_rates.clone(),
            media: self.media.state(),
            media_loss: self.media.loss().inner().state(),
            media_fault_packets: self.media.loss().packets(),
            code: self.code_channel.state(),
            code_loss: self.code_channel.loss().inner().state(),
            code_fault_packets: self.code_channel.loss().packets(),
            degradation: [
                self.degradation.full as u64,
                self.degradation.warp_only as u64,
                self.degradation.freeze as u64,
                self.degradation.stall as u64,
            ],
            recovered_frames_total: self.recovered_frames_total as u64,
            frames_total: self.frames_total as u64,
            recovered_qoe_acc: self.recovered_qoe_acc,
            recovered_qoe_n: self.recovered_qoe_n as u64,
            outcomes: self
                .outcomes
                .iter()
                .map(|o| (o.utility_mbps, o.rebuffer_secs))
                .collect(),
            records: self.records.clone(),
            delta_version: self.delta_version,
            delta_bytes_sent: self.delta_bytes_sent,
            delta_applied: self.delta_applied,
            delta_rejected: self.delta_rejected,
        }
    }

    /// All requested chunks streamed.
    pub fn is_done(&self) -> bool {
        self.chunk_index >= self.config.chunks
    }

    /// Chunks streamed so far.
    pub fn chunk_index(&self) -> usize {
        self.chunk_index
    }

    /// Stream one chunk, then service any teardown event it crossed.
    /// With an observability plane attached, each step emits one balanced
    /// `session.chunk` span keyed by the chunk index and stamped with
    /// virtual time, plus a `session.reconnect` event per teardown — both
    /// are pure functions of simulation state, so a run resumed from a
    /// checkpoint continues the trace exactly where the killed run's
    /// prefix stopped (concatenation is byte-identical to an
    /// uninterrupted trace).
    pub fn step(&mut self, mut obs: Option<&mut Obs>) {
        let idx = self.chunk_index as u64;
        if let Some(o) = obs.as_deref_mut() {
            o.open("session.chunk", idx, self.now.0);
        }
        self.step_chunk();
        if let Some(o) = obs.as_deref_mut() {
            o.close(self.now.0);
        }
        self.service_reconnects(obs);
    }

    /// Crash plane: when the chunk just streamed ran into a pending
    /// outage window, tear the transports down and resume from a
    /// serialized checkpoint — the byte round trip IS the reconnect
    /// path. The fresh connection's loss processes are reseeded from the
    /// epoch-salted [`StreamComponent::Reconnect`] stream (a new bearer
    /// does not continue the old one's fade pattern), which keeps
    /// kill-and-resume runs bit-identical: the reseed is a pure function
    /// of (seed, epoch), both of which the checkpoint carries.
    fn service_reconnects(&mut self, mut obs: Option<&mut Obs>) {
        if !self.config.reconnect {
            return;
        }
        while let Some(window) = self.events.get(self.epoch as usize).copied() {
            if self.now < window.start {
                break;
            }
            if let Some(o) = obs.as_deref_mut() {
                o.event(
                    "session.reconnect",
                    self.epoch,
                    self.now.0,
                    &[
                        ("outage_start_us", FieldValue::U64(window.start.0)),
                        ("chunk", FieldValue::U64(self.chunk_index as u64)),
                    ],
                );
            }
            self.reconnects += 1;
            self.epoch += 1;
            let resume_at = self.now.max(window.end()) + SimTime::from_secs_f64(HANDSHAKE_SECS);
            let gap = resume_at.saturating_sub(self.now).as_secs_f64();
            self.downtime_secs += gap;
            // The player keeps draining its buffer while disconnected;
            // the shortfall is a stall charged to the next chunk's QoE.
            if self.buffer_secs < gap {
                self.pending_rebuffer += gap - self.buffer_secs;
                self.buffer_secs = 0.0;
            } else {
                self.buffer_secs -= gap;
            }
            self.now = resume_at;

            // Teardown and resume THROUGH the serialized form, with both
            // loss chains re-seeded for the new epoch.
            let bytes = self.checkpoint().to_bytes();
            let mut cp = SessionCheckpoint::from_bytes(&bytes)
                .expect("a checkpoint this session just wrote must parse");
            let epoch_seed = seed_for(self.config.seed, self.epoch, StreamComponent::Reconnect);
            cp.media_loss = LossState {
                seed: epoch_seed,
                ..LossState::default()
            };
            cp.code_loss = LossState {
                seed: seed_for(epoch_seed, 0, StreamComponent::CodeLoss),
                ..LossState::default()
            };
            *self = SessionRunner::resume(self.config.clone(), &cp)
                .expect("a checkpoint this session just wrote must resume");
        }
    }

    /// Stream one chunk (the paper's 4-second GOP).
    fn step_chunk(&mut self) {
        let frames = GOP_FRAMES;
        self.ctx.buffer_secs = self.buffer_secs;
        let rung = self.abr.choose(&self.ctx).min(self.ladder.len() - 1);
        self.ctx.last_choice = rung;

        // Chunk payload with FEC overhead.
        let media_bytes = (self.ladder[rung] as f64 * 1000.0 / 8.0 * CHUNK_SECONDS) as usize;
        let predicted_loss = self.loss_tracker.predict();
        let fec_ratio = match &self.config.scheme.fec {
            FecMode::Off => 0.0,
            FecMode::Fixed(r) => *r,
            FecMode::Table(t) => t.lookup(predicted_loss),
        };

        // Packetize: FEC parity is interleaved over blocks of frames
        // (per-frame parity with 2–4 packets per frame would quantize
        // the redundancy ratio to 25–50% steps; block interleaving is
        // how streaming FEC is actually deployed).
        const FEC_BLOCK_FRAMES: usize = 8;
        let bytes_per_frame = media_bytes / frames;
        let pkts_per_frame = bytes_per_frame.div_ceil(PACKET_BYTES).max(1);

        let chunk_start = self.now;
        let mut frame_arrivals: Vec<Option<SimTime>> = Vec::with_capacity(frames);
        let mut first_tx_lost = 0usize;
        let mut pkts_sent = 0usize;
        let mut fi = 0usize;
        while fi < frames {
            let block_frames = FEC_BLOCK_FRAMES.min(frames - fi);
            let data_pkts = pkts_per_frame * block_frames;
            let parity_pkts = (fec_ratio * data_pkts as f64).ceil() as usize;
            let sizes = vec![PACKET_BYTES; data_pkts + parity_pkts];
            // A packet delivered with residual corruption fails the codec
            // CRC at the client: `intact_arrival` demotes it to a loss.
            let burst = self.media.send_burst(&sizes, chunk_start);
            pkts_sent += data_pkts;
            first_tx_lost += burst
                .iter()
                .take(data_pkts)
                .filter(|o| o.retransmits > 0 || o.intact_arrival().is_none())
                .count();

            let total_lost = burst
                .iter()
                .filter(|o| o.intact_arrival().is_none())
                .count();
            let block_recoverable = total_lost <= parity_pkts;
            let block_last_arrival = burst
                .iter()
                .filter_map(|o| o.intact_arrival())
                .max()
                .unwrap_or(chunk_start);
            for bf in 0..block_frames {
                let start = bf * pkts_per_frame;
                let frame_outcomes = &burst[start..start + pkts_per_frame];
                let frame_lost = frame_outcomes.iter().any(|o| o.intact_arrival().is_none());
                if !frame_lost {
                    let arr = frame_outcomes
                        .iter()
                        .filter_map(|o| o.intact_arrival())
                        .max();
                    frame_arrivals.push(arr);
                } else if block_recoverable && parity_pkts > 0 {
                    // Erasure-decoded from parity: available once the
                    // whole block (incl. parity) is in.
                    frame_arrivals.push(Some(block_last_arrival));
                } else {
                    frame_arrivals.push(None);
                }
            }
            fi += block_frames;
        }
        let download_end = frame_arrivals
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or_else(|| self.link.deliver(media_bytes, chunk_start));
        let download_secs = download_end.saturating_sub(chunk_start).as_secs_f64();

        // Point codes: one 1 KB message per frame, sent as the frame
        // is produced (paced across the chunk). Retransmissions stop
        // at the frame's playout deadline — a code that cannot make
        // its frame is not worth the bandwidth, and under a blackout
        // the channel reports `Expired` instead of spinning forever.
        let delta = CHUNK_SECONDS / frames as f64;
        let code_outcomes: Vec<SendOutcome> = if self.config.scheme.recovery {
            (0..frames)
                .map(|i| {
                    let send_at = chunk_start
                        + SimTime::from_secs_f64(
                            i as f64 / frames as f64 * download_secs.min(CHUNK_SECONDS),
                        );
                    let deadline = chunk_start
                        + SimTime::from_secs_f64(self.buffer_secs + (i + 1) as f64 * delta);
                    self.code_channel
                        .send_with_deadline(1024, send_at, deadline)
                })
                .collect()
        } else {
            Vec::new()
        };

        // ---- Playback accounting -------------------------------
        let mut shift = 0.0f64; // accumulated stall time inside chunk
        let mut rebuffer = 0.0f64;
        let mut psnr_acc = 0.0f64;
        let mut n_recovered = 0usize;
        let mut rec_chain = 0usize;
        let nemo = matches!(self.config.scheme.abr, AbrKind::Nemo);
        for (i, arrival) in frame_arrivals.iter().enumerate() {
            let t_play = self.buffer_secs + (i + 1) as f64 * delta + shift;
            let (arr, lost) = match arrival {
                Some(t) => (t.saturating_sub(chunk_start).as_secs_f64(), false),
                None => (f64::INFINITY, true),
            };
            let late = arr > t_play;
            let frame_psnr;
            if lost || late {
                if nemo {
                    if lost {
                        // No recovery: the viewer sees the previous
                        // frame again.
                        self.reuse_chain += 1;
                        frame_psnr = self.config.maps.reuse_psnr_at_depth(rung, self.reuse_chain);
                    } else {
                        // Late frame: stall until it arrives, then
                        // display it at NEMO's enhanced quality.
                        let wait = arr - t_play;
                        rebuffer += wait;
                        shift += wait;
                        self.reuse_chain = 0;
                        frame_psnr = effective_sr_psnr(&self.config.maps, rung);
                    }
                    n_recovered += 1;
                } else if self.config.scheme.recovery {
                    // Recovery path: the client picks the best ladder
                    // rung that fits the time left in the frame slot
                    // (§8.4). Recovery may start once the point code
                    // is in (at earliest the slot start) and must
                    // finish by the playout deadline — a code that
                    // lands mid-slot leaves only enough budget for a
                    // warp, and a missing/late/corrupted code leaves
                    // only the codeless freeze rung. No rung stalls:
                    // that is how recovery converts rebuffering into
                    // a bounded quality cost.
                    let slot_start = t_play - delta;
                    let budget = code_outcomes
                        .get(i)
                        .and_then(|o| o.delivery_time())
                        .map(|t| t.saturating_sub(chunk_start).as_secs_f64())
                        .filter(|arr| *arr <= t_play)
                        .map(|arr| (t_play - arr.max(slot_start)).min(delta))
                        .unwrap_or(0.0);
                    rec_chain += 1;
                    self.reuse_chain = 0;
                    frame_psnr = match self.deg_ladder.select(budget) {
                        DegradationRung::Full => {
                            self.degradation.full += 1;
                            self.config.maps.recovered_psnr_at_depth(rung, rec_chain)
                        }
                        DegradationRung::WarpOnly => {
                            self.degradation.warp_only += 1;
                            self.config.maps.warp_only_psnr_at_depth(rung, rec_chain)
                        }
                        DegradationRung::Freeze | DegradationRung::Stall => {
                            self.degradation.freeze += 1;
                            self.config.maps.reuse_psnr_at_depth(rung, rec_chain)
                        }
                    };
                    n_recovered += 1;
                    // Recovered-frame QoE (Table 3).
                    let u = self.config.maps.utility_for_psnr(frame_psnr);
                    self.recovered_qoe_acc += u;
                    self.recovered_qoe_n += 1;
                } else {
                    // No recovery: the scheme's fallback ladder only
                    // has the stall and freeze rungs. A lost frame
                    // can never be waited out, so it freezes even
                    // under a stall-only ladder.
                    match self.deg_ladder.select(delta) {
                        DegradationRung::Stall if !lost => {
                            let wait = arr - t_play;
                            rebuffer += wait;
                            shift += wait;
                            self.reuse_chain = 0;
                            self.degradation.stall += 1;
                            frame_psnr = self.config.maps.plain_psnr[rung];
                        }
                        _ => {
                            self.reuse_chain += 1;
                            self.degradation.freeze += 1;
                            frame_psnr =
                                self.config.maps.reuse_psnr_at_depth(rung, self.reuse_chain);
                        }
                    }
                    n_recovered += 1; // "needed recovery"
                    let u = self.config.maps.utility_for_psnr(frame_psnr);
                    self.recovered_qoe_acc += u - QoeParams::default().rebuffer_penalty
                        * if lost { 0.0 } else { (arr - t_play).max(0.0) };
                    self.recovered_qoe_n += 1;
                }
            } else {
                rec_chain = 0;
                self.reuse_chain = 0;
                // On time: SR if slack allows (§6: skip SR if it would
                // cause rebuffering).
                let slack = t_play - arr;
                frame_psnr = if nemo {
                    effective_sr_psnr(&self.config.maps, rung)
                } else if self.config.scheme.sr && slack >= MODEL_SECS {
                    self.config.maps.sr_psnr[rung]
                } else {
                    self.config.maps.plain_psnr[rung]
                };
            }
            psnr_acc += frame_psnr;
        }

        // A blackout that outlasted the buffer left a stall behind; it is
        // charged to this chunk's QoE (the wall time was already spent
        // during the reconnect, so the buffer math below must not see it).
        let carried_rebuffer = self.pending_rebuffer;
        self.pending_rebuffer = 0.0;

        let mean_psnr = psnr_acc / frames as f64;
        let utility = self.config.maps.utility_for_psnr(mean_psnr);
        self.outcomes.push(ChunkOutcome {
            utility_mbps: utility,
            rebuffer_secs: rebuffer + carried_rebuffer,
        });

        // Observed network feedback for the ABR.
        let observed_kbps = media_bytes as f64 * 8.0 / 1000.0 / download_secs.max(1e-6);
        let observed_loss = first_tx_lost as f64 / pkts_sent.max(1) as f64;
        self.loss_tracker.update(observed_loss);
        self.ctx.throughput_kbps.push(observed_kbps);
        self.ctx.loss_rates.push(observed_loss);
        if self.ctx.throughput_kbps.len() > 10 {
            self.ctx.throughput_kbps.remove(0);
            self.ctx.loss_rates.remove(0);
        }

        // Buffer dynamics: download consumed `download_secs` of wall
        // time while the buffer drained; the chunk adds CHUNK_SECONDS.
        self.buffer_secs = (self.buffer_secs - download_secs - rebuffer).max(0.0) + CHUNK_SECONDS;
        self.now = download_end;
        if self.buffer_secs > MAX_BUFFER_SECS {
            let idle = self.buffer_secs - MAX_BUFFER_SECS;
            self.now += SimTime::from_secs_f64(idle);
            self.buffer_secs = MAX_BUFFER_SECS;
        }

        self.recovered_frames_total += n_recovered;
        self.frames_total += frames;
        self.records.push(ChunkRecord {
            start_secs: chunk_start.as_secs_f64(),
            rung,
            throughput_kbps: observed_kbps,
            qoe: 0.0, // filled at finish() once smoothness is known
            utility_mbps: utility,
            rebuffer_secs: rebuffer + carried_rebuffer,
            recovered_frames: n_recovered,
            total_frames: frames,
        });
        self.chunk_index += 1;
        self.advance_delta_plane();
    }

    /// Advance the delta weight-update transfer by one chunk's byte
    /// budget, applying the in-flight `"NRVM"` frame through the real
    /// codec once all of its bytes are in. Purely a function of
    /// (seed, head, version, chunks streamed), so a resumed session
    /// picks the transfer up mid-frame from the checkpointed cursor.
    fn advance_delta_plane(&mut self) {
        let Some(weights) = self.weights.as_mut() else {
            return;
        };
        if self.delta_version >= DELTA_UPDATES {
            return;
        }
        let frame = delta_for(self.config.seed, DELTA_HEAD, self.delta_version).to_bytes();
        self.delta_bytes_sent += DELTA_CHUNK_BYTES;
        if (self.delta_bytes_sent as usize) < frame.len() {
            return; // mid-transfer: the cursor rides the next checkpoint
        }
        self.delta_bytes_sent = 0;
        match WeightDelta::from_bytes(&frame)
            .map_err(DeltaError::from)
            .and_then(|d| d.apply(weights))
        {
            Ok(()) => {
                self.delta_version += 1;
                self.delta_applied += 1;
            }
            Err(_) => self.delta_rejected += 1,
        }
    }

    /// Stream the whole session and report. Equivalent to driving the
    /// runner chunk by chunk with [`SessionRunner::step`]. With an
    /// observability plane attached, per-chunk spans and reconnect events
    /// go to the recorder and the final [`SessionResult`] is exported into
    /// the registry. Purely passive: the result is bit-identical with or
    /// without it.
    pub fn run(mut self, mut obs: Option<&mut Obs>) -> SessionResult {
        while !self.is_done() {
            self.step(obs.as_deref_mut());
        }
        let result = self.finish();
        if let Some(o) = obs {
            result.export_metrics(&o.registry);
        }
        result
    }

    /// Close out the session and report.
    pub fn finish(mut self) -> SessionResult {
        let qoe = QoeParams::default();
        // Per-chunk QoE including the smoothness term.
        for i in 0..self.records.len() {
            let prev_u = if i == 0 {
                self.records[0].utility_mbps
            } else {
                self.records[i - 1].utility_mbps
            };
            self.records[i].qoe = self.records[i].utility_mbps
                - qoe.rebuffer_penalty * self.records[i].rebuffer_secs
                - qoe.smoothness_weight * (self.records[i].utility_mbps - prev_u).abs();
        }

        SessionResult {
            qoe: session_qoe(&self.outcomes, &qoe),
            recovered_fraction: self.recovered_frames_total as f64
                / self.frames_total.max(1) as f64,
            recovered_frame_qoe: if self.recovered_qoe_n > 0 {
                self.recovered_qoe_acc / self.recovered_qoe_n as f64
            } else {
                0.0
            },
            total_rebuffer_secs: self.records.iter().map(|r| r.rebuffer_secs).sum(),
            chunks: self.records,
            degradation: self.degradation,
            code_stats: self.code_channel.stats,
            reconnects: self.reconnects,
            downtime_secs: self.downtime_secs,
            delta: self.weights.as_ref().map(|w| DeltaPlaneSummary {
                version: self.delta_version,
                applied: self.delta_applied,
                rejected: self.delta_rejected,
                weights_crc: w.crc(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_net::trace::NetworkKind;

    fn maps() -> QualityMaps {
        QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400])
    }

    fn trace(kind: NetworkKind, seed: u64) -> NetworkTrace {
        NetworkTrace::generate(kind, seed).downscaled(1.5)
    }

    fn run(scheme: Scheme, seed: u64) -> SessionResult {
        let mut cfg = SessionConfig::new(trace(NetworkKind::FiveG, seed), maps(), scheme);
        cfg.chunks = 20;
        cfg.seed = seed;
        SessionRunner::new(cfg).run(None)
    }

    #[test]
    fn session_produces_requested_chunks() {
        let r = run(Scheme::nerve(), 1);
        assert_eq!(r.chunks.len(), 20);
        assert!(r.qoe.is_finite());
    }

    #[test]
    fn full_scheme_beats_no_enhancement() {
        // The paper's headline ordering (Figure 18): ours > w/o both.
        let mut ours = 0.0;
        let mut without = 0.0;
        for seed in 1..=3 {
            ours += run(Scheme::nerve(), seed).qoe;
            without += run(Scheme::without_recovery(), seed).qoe;
        }
        assert!(
            ours > without,
            "NERVE {ours:.3} must beat no-enhancement {without:.3}"
        );
    }

    #[test]
    fn recovery_reduces_rebuffering() {
        // Figure 12's mechanism: recovery converts stalls into 22 ms
        // recoveries.
        let mut with_rc = 0.0;
        let mut without_rc = 0.0;
        for seed in 1..=3 {
            with_rc += run(Scheme::recovery_alone(), seed).total_rebuffer_secs;
            without_rc += run(Scheme::without_recovery(), seed).total_rebuffer_secs;
        }
        assert!(
            with_rc < without_rc,
            "recovery rebuffer {with_rc:.2}s must be under no-recovery {without_rc:.2}s"
        );
    }

    #[test]
    fn recovery_aware_beats_recovery_alone_on_average() {
        let mut aware = 0.0;
        let mut alone = 0.0;
        for seed in 1..=4 {
            aware += run(Scheme::recovery_aware(), seed).qoe;
            alone += run(Scheme::recovery_alone(), seed).qoe;
        }
        assert!(
            aware >= alone - 0.05,
            "aware {aware:.3} should not lose to alone {alone:.3}"
        );
    }

    #[test]
    fn sr_scheme_beats_no_sr() {
        let mut with_sr = 0.0;
        let mut without = 0.0;
        for seed in 1..=3 {
            with_sr += run(Scheme::sr_aware(), seed).qoe;
            without += run(Scheme::without_sr(), seed).qoe;
        }
        assert!(with_sr > without, "SR {with_sr:.3} vs no-SR {without:.3}");
    }

    #[test]
    fn recovered_fraction_is_sane() {
        let r = run(Scheme::nerve(), 5);
        assert!((0.0..=1.0).contains(&r.recovered_fraction));
    }

    #[test]
    fn fec_reduces_unrecoverable_losses_on_lossy_link() {
        let lossy_trace = {
            let mut t = trace(NetworkKind::FiveG, 9);
            t.loss_rate = 0.05;
            t
        };
        let run_with = |fec: FecMode, seed: u64| {
            let scheme = Scheme::without_recovery()
                .with_fec(fec)
                .with_ladder(DegradationLadder::reuse_only());
            let mut cfg = SessionConfig::new(lossy_trace.clone(), maps(), scheme);
            cfg.chunks = 15;
            cfg.seed = seed;
            SessionRunner::new(cfg).run(None)
        };
        let mut no_fec = 0.0;
        let mut with_fec = 0.0;
        for seed in 1..=3 {
            no_fec += run_with(FecMode::Off, seed).recovered_fraction;
            with_fec += run_with(FecMode::Fixed(0.35), seed).recovered_fraction;
        }
        assert!(
            with_fec < no_fec,
            "FEC should reduce frames needing concealment: {with_fec:.3} vs {no_fec:.3}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(Scheme::nerve(), 11);
        let b = run(Scheme::nerve(), 11);
        assert_eq!(a.qoe.to_bits(), b.qoe.to_bits());
    }

    /// A session config with a mid-stream outage long enough to trip the
    /// blackout threshold and force a teardown/reconnect cycle.
    fn disconnect_cfg(seed: u64) -> SessionConfig {
        let faults = FaultPlan::default()
            .disconnect(SimTime::from_secs_f64(18.0), SimTime::from_secs_f64(3.0));
        let mut cfg = SessionConfig::new(trace(NetworkKind::FiveG, seed), maps(), Scheme::nerve());
        cfg.chunks = 20;
        cfg.seed = seed;
        cfg.with_faults(faults).with_reconnect()
    }

    #[test]
    fn blackout_past_threshold_tears_down_and_reconnects() {
        let r = SessionRunner::new(disconnect_cfg(22)).run(None);
        assert_eq!(r.reconnects, 1, "one outage window → one teardown");
        assert!(
            r.downtime_secs >= HANDSHAKE_SECS,
            "downtime {:.3}s must cover at least the handshake",
            r.downtime_secs
        );
        let again = SessionRunner::new(disconnect_cfg(22)).run(None);
        assert_eq!(r.invariant_digest(), again.invariant_digest());
    }

    #[test]
    fn without_reconnect_policy_no_teardown_happens() {
        let mut cfg = disconnect_cfg(23);
        cfg.reconnect = false;
        let r = SessionRunner::new(cfg).run(None);
        assert_eq!(r.reconnects, 0);
        assert_eq!(r.downtime_secs, 0.0);
    }

    #[test]
    fn killed_session_resumes_to_the_uninterrupted_digest() {
        let cfg = disconnect_cfg(21);
        let uninterrupted = SessionRunner::new(cfg.clone()).run(None);

        // Stream part of the session, checkpoint, and "crash" by dropping
        // the runner. The serialized bytes are all that survives.
        let mut runner = SessionRunner::new(cfg.clone());
        while runner.chunk_index() < 7 {
            runner.step(None);
        }
        let bytes = runner.checkpoint().to_bytes();
        drop(runner);

        let cp = SessionCheckpoint::from_bytes(&bytes).expect("own checkpoint must parse");
        let mut resumed = SessionRunner::resume(cfg, &cp).expect("resumes");
        while !resumed.is_done() {
            resumed.step(None);
        }
        let r = resumed.finish();
        assert_eq!(
            r.invariant_digest(),
            uninterrupted.invariant_digest(),
            "resumed run must be bit-identical to the uninterrupted one"
        );
        assert_eq!(r.reconnects, uninterrupted.reconnects);
    }

    #[test]
    fn traced_session_matches_untraced_and_exports_metrics() {
        let cfg = disconnect_cfg(22);
        let plain = SessionRunner::new(cfg.clone()).run(None);
        let mut obs = Obs::trace();
        let traced = SessionRunner::new(cfg).run(Some(&mut obs));
        assert_eq!(
            plain.invariant_digest(),
            traced.invariant_digest(),
            "tracing must never change a result"
        );
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("session.chunks"), Some(20));
        assert_eq!(snap.counter("session.reconnects"), Some(1));
        assert_eq!(snap.gauge("session.qoe"), Some(traced.qoe));
        assert_eq!(
            snap.counter("code.messages"),
            Some(traced.code_stats.messages)
        );
        let lines = obs.trace_lines().unwrap();
        assert_eq!(
            lines.matches("\"name\":\"session.chunk\"").count(),
            2 * 20,
            "one open + one close per chunk"
        );
        assert_eq!(lines.matches("\"name\":\"session.reconnect\"").count(), 1);
    }

    /// The disconnect fixture plus an active delta plan: the default
    /// plan spreads each few-hundred-byte `"NRVM"` frame over several
    /// 96-byte chunk budgets, so mid-transfer chunk boundaries exist.
    fn delta_cfg(seed: u64) -> SessionConfig {
        disconnect_cfg(seed).with_delta()
    }

    #[test]
    fn delta_plan_applies_all_updates_deterministically() {
        let r = SessionRunner::new(delta_cfg(25)).run(None);
        let d = r.delta.expect("delta plan was configured");
        assert_eq!(d.version, DELTA_UPDATES, "all updates must land");
        assert_eq!(d.applied, DELTA_UPDATES as u64);
        assert_eq!(d.rejected, 0, "self-generated frames never fail the codec");
        // The final tensor is exactly the pure replay to that version.
        assert_eq!(d.weights_crc, weights_at(25, DELTA_HEAD, d.version).crc());
        let again = SessionRunner::new(delta_cfg(25)).run(None);
        assert_eq!(r.invariant_digest(), again.invariant_digest());
        // Sessions without a plan keep their legacy delta-free results.
        assert!(SessionRunner::new(disconnect_cfg(25))
            .run(None)
            .delta
            .is_none());
    }

    #[test]
    fn killed_mid_delta_transfer_resumes_to_the_uninterrupted_digest() {
        let cfg = delta_cfg(26);
        let uninterrupted = SessionRunner::new(cfg.clone()).run(None);
        let mut cut_mid_transfer = 0usize;
        for cut in [1usize, 2, 4, 9] {
            let mut runner = SessionRunner::new(cfg.clone());
            while runner.chunk_index() < cut {
                runner.step(None);
            }
            let bytes = runner.checkpoint().to_bytes();
            drop(runner);
            let cp = SessionCheckpoint::from_bytes(&bytes).unwrap();
            if cp.delta_bytes_sent > 0 {
                cut_mid_transfer += 1;
            }
            let mut resumed = SessionRunner::resume(cfg.clone(), &cp).expect("resumes");
            while !resumed.is_done() {
                resumed.step(None);
            }
            let r = resumed.finish();
            assert_eq!(
                r.invariant_digest(),
                uninterrupted.invariant_digest(),
                "cut at chunk {cut} diverged"
            );
        }
        assert!(
            cut_mid_transfer >= 2,
            "the cuts must land inside an in-flight frame transfer \
             ({cut_mid_transfer} did) or the test proves nothing"
        );
    }

    /// `invariant_digest()` of four sessions, pinned: NERVE, the NEMO
    /// baseline, no recovery on the reuse ladder over a lossy link, and
    /// a reconnecting session with the delta plane. The ABR's enhancement
    /// timings, NEMO's anchor model, the buffer cap, the reconnect
    /// handshake and the delta pacing all enter them.
    #[test]
    fn session_invariant_digest_is_pinned() {
        let mut lossy = SessionConfig::new(
            trace(NetworkKind::FiveG, 9),
            maps(),
            Scheme::without_recovery().with_ladder(DegradationLadder::reuse_only()),
        );
        lossy.trace.loss_rate = 0.05;
        lossy.chunks = 15;
        lossy.seed = 3;
        let got = [
            run(Scheme::nerve(), 3).invariant_digest(),
            run(Scheme::nemo_baseline(), 3).invariant_digest(),
            SessionRunner::new(lossy).run(None).invariant_digest(),
            SessionRunner::new(delta_cfg(25))
                .run(None)
                .invariant_digest(),
        ];
        assert_eq!(
            got,
            [0x2ea4_8b77, 0xa6e2_d21f, 0x979e_2cd8, 0x9e88_5100],
            "{got:#010x?}"
        );
    }

    #[test]
    fn checkpoint_can_be_taken_at_any_chunk_boundary() {
        let cfg = disconnect_cfg(24);
        let reference = SessionRunner::new(cfg.clone()).run(None).invariant_digest();
        for cut in [1usize, 10, 19] {
            let mut runner = SessionRunner::new(cfg.clone());
            while runner.chunk_index() < cut {
                runner.step(None);
            }
            let bytes = runner.checkpoint().to_bytes();
            let cp = SessionCheckpoint::from_bytes(&bytes).unwrap();
            let mut resumed = SessionRunner::resume(cfg.clone(), &cp).expect("resumes");
            while !resumed.is_done() {
                resumed.step(None);
            }
            assert_eq!(
                resumed.finish().invariant_digest(),
                reference,
                "cut at chunk {cut} diverged"
            );
        }
    }

    /// A sealed checkpoint whose loss cursor does not replay decodes
    /// (its CRC holds) but is refused at resume, not replayed or
    /// asserted on.
    #[test]
    fn resume_refuses_a_loss_cursor_that_does_not_replay() {
        let cfg = disconnect_cfg(24);
        let mut runner = SessionRunner::new(cfg.clone());
        while runner.chunk_index() < 3 {
            runner.step(None);
        }
        let mut cp = runner.checkpoint();
        cp.media_loss.draws = nerve_net::loss::MAX_REPLAY_DRAWS + 1;
        let cp = SessionCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(
            SessionRunner::resume(cfg.clone(), &cp).err(),
            Some(FrameError::bad_field("loss_draws", cp.media_loss.draws))
        );
        let mut cp = runner.checkpoint();
        cp.code_loss.bad = !cp.code_loss.bad;
        let cp = SessionCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(
            SessionRunner::resume(cfg, &cp).err(),
            Some(FrameError::bad_field("loss_bad", cp.code_loss.bad))
        );
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use nerve_net::trace::NetworkKind;

    /// Breakdown of the lossy-link schemes (once a diagnostics-only
    /// printout, now assertion-bearing): concealment schemes never wait
    /// on late frames, so only the stall baseline rebuffers, and the
    /// recovery schemes clear the reuse baseline on QoE.
    #[test]
    fn lossy_scheme_breakdown() {
        let maps = QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400]);
        for loss in [0.01, 0.05] {
            let run = |scheme: Scheme, seed: u64| {
                let mut trace = NetworkTrace::generate(NetworkKind::WiFi, seed).downscaled(1.5);
                trace.loss_rate = loss;
                let mut cfg = SessionConfig::new(trace, maps.clone(), scheme);
                cfg.chunks = 15;
                cfg.seed = seed;
                SessionRunner::new(cfg).run(None)
            };
            let mut agg = [0.0; 4];
            let mut reb = [0.0; 4];
            let mut rungs = [0.0; 4];
            for seed in 1..=3 {
                let mut norc =
                    Scheme::without_recovery().with_ladder(DegradationLadder::reuse_only());
                norc.retransmission = false;
                let mut alone = Scheme::recovery_alone();
                alone.retransmission = false;
                let mut aware = Scheme::recovery_aware();
                aware.retransmission = false;
                let mut norc_stall = Scheme::without_recovery();
                norc_stall.retransmission = false;
                for (i, s) in [norc, norc_stall, alone, aware].into_iter().enumerate() {
                    let r = run(s, seed);
                    agg[i] += r.qoe / 3.0;
                    reb[i] += r.total_rebuffer_secs / 3.0;
                    rungs[i] += r.chunks.iter().map(|c| c.rung as f64).sum::<f64>()
                        / r.chunks.len() as f64
                        / 3.0;
                }
            }
            println!(
                "loss {loss}: qoe norc-reuse {:.3} norc-stall {:.3} alone {:.3} aware {:.3}",
                agg[0], agg[1], agg[2], agg[3]
            );
            println!(
                "          reb {:.2} {:.2} {:.2} {:.2}  rung {:.2} {:.2} {:.2} {:.2}",
                reb[0], reb[1], reb[2], reb[3], rungs[0], rungs[1], rungs[2], rungs[3]
            );
            // Waiting for late frames without retransmission stalls for
            // seconds per session; every concealment path stays fluid.
            assert!(
                reb[1] > 1.0,
                "stall baseline should rebuffer at loss {loss}: {:.2}s",
                reb[1]
            );
            for (i, r) in [(0, reb[0]), (2, reb[2]), (3, reb[3])] {
                assert!(
                    r < reb[1] * 0.1,
                    "concealment scheme {i} should not stall at loss {loss}: \
                     {r:.2}s vs baseline {:.2}s",
                    reb[1]
                );
            }
            // Recovery (alone or ABR-aware) must beat both no-recovery
            // baselines on QoE — that is the point of the system.
            for (name, qoe) in [("alone", agg[2]), ("aware", agg[3])] {
                assert!(
                    qoe > agg[0],
                    "{name} {qoe:.3} should beat norc-reuse {:.3} at loss {loss}",
                    agg[0]
                );
                assert!(
                    qoe > agg[1],
                    "{name} {qoe:.3} should beat norc-stall {:.3} at loss {loss}",
                    agg[1]
                );
            }
        }
    }
}
