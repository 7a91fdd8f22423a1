//! The deterministic multi-server fleet: a discrete-event simulator over
//! N edge servers behind a load balancer.
//!
//! Each server (`ServerSim`, in `server.rs`) is an event-driven state
//! machine over a calendar queue ([`crate::event_queue`]): session
//! wake-ups, crash instants, completion probes, restart windows, and
//! batcher ticks are *events*, so per-step cost scales with the number
//! of active events, not the total session count. Sessions are placed
//! across servers by a deterministic placement function
//! ([`crate::topology::place_sessions`]) and can migrate mid-run through
//! the handoff plan: at each handoff barrier the session's state
//! round-trips through a CRC-framed ticket ([`crate::handoff`]) that is
//! verified byte-identical before the destination accepts it.
//!
//! Determinism is by construction, not by locking. Within one server,
//! events at the same instant process in a canonical order (restart →
//! crashes → wakes → completions → tick flush — the same phase order as
//! the old serial loop); across servers, the only coupling points are
//! the handoff barriers, whose tickets are pure data.
//!
//! One driver runs every fleet: [`run_fleet_obs`], [`checkpoint_fleet`]
//! and [`resume_fleet`] all build one plan from the config and start
//! their servers either fresh or from a checkpoint. Servers live in
//! shards (contiguous server blocks), and a shard's `exec` is the only
//! dispatch of server ops. The failover orchestrator reaches the shards
//! through one link: a single shard run inline on the calling thread, or
//! one shard per long-lived worker of the `--jobs` pool
//! ([`nerve_tensor::par`]) behind a command channel. Workers pin the
//! tensor pool to inline mode and partials merge in server order, so the
//! entire [`FleetResult::digest`] — down to activation checksums — and
//! every checkpoint frame are byte-identical at any worker count.
//! `--jobs` changes wall-clock time only.

use crate::admission::AdmissionConfig;
use crate::batcher::{BatcherStats, ServerModel};
use crate::ckpt::FleetCkpt;
use crate::failure::{
    percentile_nearest_rank, plan_transfer, FailoverConfig, FailoverStats, HealthState,
    HealthTracker, InvariantReport, ServerFailure, ServerFailureCounters, ServerHealth,
};
use crate::server::{FleetMetrics, ServerCkpt, ServerPartial, ServerSim, SessionDone};
use crate::topology::{place_evacuee, place_sessions, PlacementPolicy, SessionHandoff};
use nerve_abr::qoe::{session_qoe, ChunkOutcome, QoeParams, QualityMaps};
use nerve_core::BreakerConfig;
use nerve_model::cache::CacheStats;
use nerve_net::bytes::FrameError;
use nerve_net::clock::SimTime;
use nerve_net::faults::FaultPlan;
use nerve_net::trace::NetworkTrace;
use nerve_obs::{FieldValue, Obs};
use nerve_video::synth::Category;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::mpsc;

/// Client heterogeneity: what a session pays for and how it is weighted
/// on the shared uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientClass {
    /// 2× uplink weight, recovery + SR.
    Premium,
    /// 1× weight, recovery only.
    Standard,
    /// 1× weight, no enhancement: damaged frames freeze client-side.
    Basic,
}

impl ClientClass {
    /// Deterministic class assignment by session id (round-robin).
    pub fn of(session: usize) -> Self {
        match session % 3 {
            0 => ClientClass::Premium,
            1 => ClientClass::Standard,
            _ => ClientClass::Basic,
        }
    }

    pub fn weight(self) -> f64 {
        match self {
            ClientClass::Premium => 2.0,
            _ => 1.0,
        }
    }

    pub fn recovery(self) -> bool {
        !matches!(self, ClientClass::Basic)
    }

    pub fn sr(self) -> bool {
        matches!(self, ClientClass::Premium)
    }

    pub fn label(self) -> &'static str {
        match self {
            ClientClass::Premium => "premium",
            ClientClass::Standard => "standard",
            ClientClass::Basic => "basic",
        }
    }
}

/// The content-aware model plane: per-category specialist heads behind
/// a per-server weight cache, delta-updated mid-session. `None` on
/// [`FleetConfig::model_plane`] keeps the legacy generic-only behaviour
/// — and the legacy digests — byte-for-byte.
#[derive(Debug, Clone)]
pub struct ModelPlaneConfig {
    /// Per-server weight-cache capacity, bytes.
    pub cache_bytes: u64,
    /// Cold-load latency per megabyte of artifact: a cache miss delays
    /// the session's first chunk request by `bytes/MB × this`.
    pub load_secs_per_mb: f64,
    /// Compute charged to the admission controller per byte loaded on a
    /// cache miss (MACs) — a cold cache visibly throttles admission.
    pub load_macs_per_byte: f64,
    /// Serve every session the generic head — the control arm the bench
    /// diffs against to measure per-category uplift.
    pub force_generic: bool,
}

impl Default for ModelPlaneConfig {
    fn default() -> Self {
        Self {
            // Holds roughly four specialist artifacts: enough for real
            // hits under a mixed-category fleet, small enough to evict.
            cache_bytes: 512 * 1024,
            load_secs_per_mb: 0.25,
            load_macs_per_byte: 2.0e4,
            force_generic: false,
        }
    }
}

/// The content category streamed by one fleet session: a deterministic
/// round-robin over the presets, so any N ≥ 10 sessions form a mixed
/// fleet covering every category.
pub fn session_category(session: usize) -> Category {
    Category::ALL[session % Category::ALL.len()]
}

/// One session's model-plane state (and its slice of the digest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionModel {
    /// [`nerve_model::HeadId`] wire code serving this session.
    pub head: u8,
    /// Classifier confidence at admission.
    pub confidence: f64,
    /// [`Category`] discriminant the session streams.
    pub category: u8,
    /// Weight version after applied delta updates.
    pub version: u32,
    /// Delta updates applied / rejected on the session's channel.
    pub applied: usize,
    pub rejected: usize,
}

nerve_net::wire_record!(SessionModel {
    head,
    confidence,
    category,
    version,
    applied,
    rejected
});

/// Fleet-wide model-plane aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetModelStats {
    /// Cache counters summed across servers.
    pub cache: CacheStats,
    /// Sessions served a specialist / the generic head.
    pub specialist_sessions: usize,
    pub generic_sessions: usize,
    /// Mean classifier confidence over model-assigned sessions.
    pub mean_confidence: f64,
    /// Delta updates applied / rejected across all sessions.
    pub delta_applied: usize,
    pub delta_rejected: usize,
}

/// Seconds of video in one fleet chunk.
pub(crate) const CHUNK_SECS: f64 = 2.0;

/// Everything that defines one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of client sessions.
    pub sessions: usize,
    /// Chunks each session plays before leaving.
    pub chunks_per_session: usize,
    /// Root seed; every per-session stream is derived with
    /// `seed_for`, so results are stable under session reordering.
    pub seed: u64,
    /// Bitrate ladder, kbps ascending.
    pub ladder_kbps: Vec<u32>,
    pub frames_per_chunk: usize,
    /// Every `anchor_stride`-th frame is an SR anchor (NEMO-style:
    /// super-resolve anchors, reuse between them).
    pub anchor_stride: usize,
    /// Session `i` arrives at `i * stagger_secs`.
    pub stagger_secs: f64,
    /// Mean packet loss and mean burst length of each session's
    /// Gilbert–Elliott channel.
    pub avg_loss: f64,
    pub mean_burst: f64,
    /// Server front door (each server gets its own controller with this
    /// budget).
    pub admission: AdmissionConfig,
    /// Shared enhancement backbone + compute model (per server).
    pub model: ServerModel,
    /// Faults hitting the shared uplink (every session sees these).
    pub fleet_faults: FaultPlan,
    /// Every `overlay_every`-th session gets a per-session fault overlay
    /// merged onto the fleet plan (0 disables overlays).
    pub overlay_every: usize,
    /// Hard stop for the virtual clock (guards against a dead uplink).
    pub max_virtual_secs: f64,
    /// Per-session crash events: at `at_secs` the session's in-flight
    /// download is aborted (its bookkeeping reverted) and the client is
    /// offline for `down_secs` before re-requesting the same chunk.
    pub crash_plan: Vec<SessionCrash>,
    /// One whole-server restart: pending work on that server is drained
    /// (every accounted job settles), then the server takes no flushes
    /// while down — jobs queue up and settle after it returns.
    pub server_restart: Option<ServerRestart>,
    /// Arm each batcher's overload circuit breaker.
    pub breaker: Option<BreakerConfig>,
    /// Edge servers behind the load balancer (min 1).
    pub servers: usize,
    /// How sessions spread across servers at arrival.
    pub placement: PlacementPolicy,
    /// Planned server-to-server session moves; each distinct `at_secs`
    /// is a fleet-wide barrier.
    pub handoffs: Vec<SessionHandoff>,
    /// Content-aware model plane (`None` = legacy generic-only serving).
    pub model_plane: Option<ModelPlaneConfig>,
    /// Unplanned fail-stop events (empty = no failure domain: legacy
    /// digests stay byte-identical).
    pub failures: Vec<ServerFailure>,
    /// Evacuation transfer + health-check policy (read only when
    /// `failures` is non-empty).
    pub failover: FailoverConfig,
}

/// One client crash in the fleet's crash plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionCrash {
    pub session: usize,
    /// Virtual time of the crash.
    pub at_secs: f64,
    /// Offline time before the client reconnects and retries.
    pub down_secs: f64,
}

/// One edge-server restart window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerRestart {
    /// Which server restarts.
    pub server: usize,
    pub at_secs: f64,
    pub down_secs: f64,
}

impl FleetConfig {
    /// A debug-speed fleet: small model, short chunks, few frames.
    pub fn small(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            chunks_per_session: 4,
            seed,
            ladder_kbps: vec![512, 1024, 1600, 2640, 4400],
            frames_per_chunk: 30,
            anchor_stride: 10,
            stagger_secs: 0.25,
            avg_loss: 0.02,
            mean_burst: 4.0,
            admission: AdmissionConfig::default(),
            model: ServerModel::small(),
            fleet_faults: FaultPlan::new(0),
            overlay_every: 4,
            max_virtual_secs: 600.0,
            crash_plan: Vec::new(),
            server_restart: None,
            breaker: None,
            servers: 1,
            placement: PlacementPolicy::RoundRobin,
            handoffs: Vec::new(),
            model_plane: None,
            failures: Vec::new(),
            failover: FailoverConfig::default(),
        }
    }

    /// The mixed-category model-plane fleet: [`FleetConfig::small`] plus
    /// the default [`ModelPlaneConfig`]. With `sessions ≥ 10` the
    /// round-robin category assignment covers every preset, so this is
    /// the canonical content-aware serving scenario (experiments and the
    /// model bench both build on it).
    pub fn mixed_model(sessions: usize, seed: u64) -> Self {
        let mut cfg = Self::small(sessions, seed);
        cfg.model_plane = Some(ModelPlaneConfig::default());
        cfg
    }
}

/// Per-session counters the fleet report surfaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCounters {
    /// Enhancement jobs this session enqueued.
    pub jobs: usize,
    /// Jobs served with a full forward pass.
    pub full: usize,
    /// Recovery jobs degraded (warp-only or shed): the "starvation has a
    /// counter" guarantee — any recovery job that misses its budget
    /// increments this.
    pub degraded: usize,
    /// SR anchors skipped for lack of budget (plain quality, §6's normal
    /// non-SR path — not a degradation).
    pub sr_skipped: usize,
    /// Damaged frames frozen client-side (no recovery available).
    pub freezes: usize,
    /// Crash events this session absorbed (aborted download + retry).
    pub crashes: usize,
    /// Jobs dropped in-flight by an unplanned server failure — these
    /// never settle, so the accounting identity widens to
    /// `jobs == full + degraded + sr_skipped + failed_in_flight`.
    pub failed_in_flight: usize,
    /// Evacuations this session rode (fail-stop → ticket → new server).
    pub evacuations: usize,
}

nerve_net::wire_record!(SessionCounters {
    jobs,
    full,
    degraded,
    sr_skipped,
    freezes,
    crashes,
    failed_in_flight,
    evacuations
});

/// One session's slice of the fleet outcome.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    pub id: usize,
    pub class: ClientClass,
    /// Rung cap from admission (`None` = admitted at full ladder).
    pub cap: Option<usize>,
    pub rejected: bool,
    /// The server the session finished on (after any handoffs).
    pub server: usize,
    pub qoe: f64,
    pub mean_utility_mbps: f64,
    pub rebuffer_secs: f64,
    pub stall_ratio: f64,
    pub mean_rung: f64,
    pub chunks_played: usize,
    pub counters: SessionCounters,
    /// Sum of this session's job activation checksums, settled in
    /// canonical flush order — a determinism witness.
    pub checksum: f32,
    /// Mean frame PSNR over completed chunks (dB; 0 when none played).
    pub mean_psnr: f64,
    /// Model-plane state (`None` when the plane is off or the session
    /// runs no enhancement).
    pub model: Option<SessionModel>,
}

/// One server's slice of the fleet outcome.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    pub id: usize,
    /// Sessions resident at the end of the run.
    pub sessions: usize,
    pub accepted: usize,
    pub downgraded: usize,
    pub rejected: usize,
    pub restarts: usize,
    pub handoffs_in: usize,
    pub handoffs_out: usize,
    /// Calendar-queue events this server processed.
    pub events: u64,
    pub batcher: BatcherStats,
    /// Virtual time at which this server drained.
    pub virtual_secs: f64,
    /// This server's weight-cache counters (model plane only).
    pub cache: Option<CacheStats>,
    /// Failure-domain counters (all zero without a failure plan).
    pub failc: ServerFailureCounters,
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    pub sessions: Vec<SessionSummary>,
    /// Per-server breakdown, ascending server id.
    pub servers: Vec<ServerSummary>,
    /// Mean QoE over admitted sessions.
    pub mean_qoe: f64,
    /// Jain fairness index over admitted sessions' mean utility.
    pub fairness: f64,
    /// Aggregate stall ratio: rebuffer time over play+rebuffer time.
    pub stall_ratio: f64,
    pub accepted: usize,
    pub downgraded: usize,
    pub rejected: usize,
    /// Batcher stats summed across servers.
    pub batcher: BatcherStats,
    /// p95 of deadline slack over full-served jobs, seconds.
    pub p95_slack_secs: f64,
    /// Virtual time at which the slowest server drained.
    pub virtual_secs: f64,
    /// Total client crash events absorbed across sessions.
    pub crashes: usize,
    /// Server restarts performed (across all servers).
    pub server_restarts: usize,
    /// Session handoffs executed.
    pub handoffs: usize,
    /// Calendar-queue events processed across all servers.
    pub events: u64,
    /// Model-plane aggregate (`None` when the plane is off).
    pub model: Option<FleetModelStats>,
    /// Failure-domain aggregate (`Some` iff the failure plan is
    /// non-empty after validation).
    pub failover: Option<FailoverStats>,
    /// Fleet-wide invariant checker verdict (session conservation, no
    /// dead-server settles, monotone virtual time). `violations` must be
    /// zero; debug builds assert it at the violation site.
    pub invariants: InvariantReport,
}

impl FleetResult {
    /// Canonical full-precision rendering for byte-identity checks:
    /// every float is emitted as raw bits, so two runs agree on this
    /// string iff they agree bit-for-bit on every number that matters.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fleet qoe={:016x} fair={:016x} stall={:016x} adm={}/{}/{} p95={:016x} batches={} full={} warp={} shed={}",
            self.mean_qoe.to_bits(),
            self.fairness.to_bits(),
            self.stall_ratio.to_bits(),
            self.accepted,
            self.downgraded,
            self.rejected,
            self.p95_slack_secs.to_bits(),
            self.batcher.batches,
            self.batcher.full,
            self.batcher.warp_only,
            self.batcher.shed,
        );
        let _ = writeln!(s, "occupancy={:?}", self.batcher.occupancy);
        let b = &self.batcher.breaker;
        let _ = writeln!(
            s,
            "crashes={} restarts={} breaker=o{}h{}c{}w{}f{}",
            self.crashes,
            self.server_restarts,
            b.opened,
            b.half_opened,
            b.closed,
            b.watchdog_trips,
            b.fast_shed,
        );
        let _ = writeln!(
            s,
            "topology servers={} handoffs={} events={}",
            self.servers.len(),
            self.handoffs,
            self.events,
        );
        for sv in &self.servers {
            let _ = writeln!(
                s,
                "srv{} sessions={} adm={}/{}/{} restarts={} ho={}/{} ev={} batches={} full={} occ={:?}",
                sv.id,
                sv.sessions,
                sv.accepted,
                sv.downgraded,
                sv.rejected,
                sv.restarts,
                sv.handoffs_in,
                sv.handoffs_out,
                sv.events,
                sv.batcher.batches,
                sv.batcher.full,
                sv.batcher.occupancy,
            );
        }
        for sess in &self.sessions {
            let _ = writeln!(
                s,
                "s{} {} srv={} cap={:?} rej={} qoe={:016x} util={:016x} rebuf={:016x} rung={:016x} jobs={} deg={} srskip={} frz={} crash={} sum={:08x}",
                sess.id,
                sess.class.label(),
                sess.server,
                sess.cap,
                sess.rejected,
                sess.qoe.to_bits(),
                sess.mean_utility_mbps.to_bits(),
                sess.rebuffer_secs.to_bits(),
                sess.mean_rung.to_bits(),
                sess.counters.jobs,
                sess.counters.degraded,
                sess.counters.sr_skipped,
                sess.counters.freezes,
                sess.counters.crashes,
                sess.checksum.to_bits(),
            );
        }
        // Model-plane lines are appended only when the plane ran, so
        // every legacy digest stays byte-identical.
        if let Some(m) = &self.model {
            let _ = writeln!(
                s,
                "model cache h={} m={} ev={} loaded={} res={} spec={} gen={} conf={:016x} delta={}/{}",
                m.cache.hits,
                m.cache.misses,
                m.cache.evictions,
                m.cache.bytes_loaded,
                m.cache.resident_bytes,
                m.specialist_sessions,
                m.generic_sessions,
                m.mean_confidence.to_bits(),
                m.delta_applied,
                m.delta_rejected,
            );
            for sv in &self.servers {
                if let Some(c) = &sv.cache {
                    let _ = writeln!(
                        s,
                        "srv{} cache h={} m={} ev={} loaded={} res={}",
                        sv.id, c.hits, c.misses, c.evictions, c.bytes_loaded, c.resident_bytes,
                    );
                }
            }
            for sess in &self.sessions {
                if let Some(sm) = &sess.model {
                    let _ = writeln!(
                        s,
                        "s{} model head={} cat={} conf={:016x} v={} a={} r={} psnr={:016x}",
                        sess.id,
                        sm.head,
                        sm.category,
                        sm.confidence.to_bits(),
                        sm.version,
                        sm.applied,
                        sm.rejected,
                        sess.mean_psnr.to_bits(),
                    );
                }
            }
        }
        // Failure-domain lines are appended only when a failure plan
        // ran, so every legacy digest stays byte-identical.
        if let Some(fo) = &self.failover {
            let _ = writeln!(
                s,
                "failover evac={} landed={} lost_xfer={} warp={} freeze={} stall={} retries={} redirect={} p50={:016x} p95={:016x}",
                fo.evacuated,
                fo.landed,
                fo.lost_transfers,
                fo.warp,
                fo.freeze,
                fo.stall,
                fo.retries,
                fo.redirected_handoffs,
                fo.latency_p50_secs.to_bits(),
                fo.latency_p95_secs.to_bits(),
            );
            let _ = writeln!(
                s,
                "failover jobs_failed={} lost={} recovered={} fails={} rejoins={}",
                fo.jobs_failed_in_flight,
                fo.sessions_lost,
                fo.sessions_recovered,
                fo.server_failures,
                fo.rejoins,
            );
            let _ = writeln!(
                s,
                "health suspected={} died={} probation={} recovered={}",
                fo.health.suspected, fo.health.died, fo.health.probations, fo.health.recovered,
            );
            let _ = writeln!(
                s,
                "invariants checks={} violations={}",
                self.invariants.checks, self.invariants.violations,
            );
            for sv in &self.servers {
                let c = &sv.failc;
                let _ = writeln!(
                    s,
                    "srv{} fail={} rejoin={} evac={}/{} warp={} freeze={} stall={} jobs_failed={}",
                    sv.id,
                    c.failures,
                    c.rejoins,
                    c.evac_out,
                    c.evac_in,
                    c.evac_warp,
                    c.evac_freeze,
                    c.evac_stall,
                    c.jobs_failed,
                );
            }
            for sess in &self.sessions {
                if sess.counters.failed_in_flight > 0 || sess.counters.evacuations > 0 {
                    let _ = writeln!(
                        s,
                        "s{} fif={} evac={}",
                        sess.id, sess.counters.failed_in_flight, sess.counters.evacuations,
                    );
                }
            }
        }
        s
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// Sum two batcher stats (occupancy elementwise, breaker counters
/// saturating-summed) for the fleet-level aggregate.
fn merge_stats(into: &mut BatcherStats, from: &BatcherStats) {
    into.batches += from.batches;
    into.full += from.full;
    into.warp_only += from.warp_only;
    into.shed += from.shed;
    for (a, b) in into.occupancy.iter_mut().zip(from.occupancy.iter()) {
        *a += b;
    }
    into.breaker.opened += from.breaker.opened;
    into.breaker.half_opened += from.breaker.half_opened;
    into.breaker.closed += from.breaker.closed;
    into.breaker.watchdog_trips += from.breaker.watchdog_trips;
    into.breaker.fast_shed += from.breaker.fast_shed;
}

/// The failure plan in execution order: entries naming an unknown
/// server or an instant outside `(0, max_virtual_secs)` are dropped; a
/// rejoin instant that is not strictly inside `(at_secs,
/// max_virtual_secs)` is treated as "never rejoins during the run".
/// Sorted by `(at_secs, server)`.
fn failure_plan(cfg: &FleetConfig, servers: usize) -> Vec<ServerFailure> {
    let mut plan: Vec<ServerFailure> = cfg
        .failures
        .iter()
        .copied()
        .filter(|f| f.server < servers && f.at_secs > 0.0 && f.at_secs < cfg.max_virtual_secs)
        .map(|mut f| {
            f.rejoin_secs = f
                .rejoin_secs
                .filter(|&r| r > f.at_secs && r < cfg.max_virtual_secs);
            f
        })
        .collect();
    plan.sort_by(|a, b| {
        a.at_secs
            .total_cmp(&b.at_secs)
            .then(a.server.cmp(&b.server))
    });
    plan
}

/// One barrier-instant operation. Within an instant, fail-stops execute
/// first (they evacuate state other ops would touch), then rejoins,
/// then planned handoffs — see [`BarrierOp::rank`].
#[derive(Debug, Clone, Copy)]
enum BarrierOp {
    Fail { server: usize },
    Rejoin { server: usize },
    Handoff(SessionHandoff),
}

impl BarrierOp {
    fn rank(&self) -> (u8, usize) {
        match *self {
            BarrierOp::Fail { server } => (0, server),
            BarrierOp::Rejoin { server } => (1, server),
            BarrierOp::Handoff(h) => (2, h.session),
        }
    }
}

/// One entry of the merged barrier schedule.
#[derive(Debug, Clone, Copy)]
struct BarrierEntry {
    at_secs: f64,
    op: BarrierOp,
}

/// The barrier schedule: the valid planned handoffs (known session and
/// server, an instant inside `(0, max_virtual_secs)`) and the validated
/// failure plan's fail-stops and rejoins, sorted by `(at_secs, op rank)`
/// — the canonical execution order at every worker count.
fn barrier_plan(
    cfg: &FleetConfig,
    servers: usize,
    failures: &[ServerFailure],
) -> Vec<BarrierEntry> {
    let mut plan: Vec<BarrierEntry> = cfg
        .handoffs
        .iter()
        .filter(|h| {
            h.session < cfg.sessions
                && h.to < servers
                && h.at_secs > 0.0
                && h.at_secs < cfg.max_virtual_secs
        })
        .map(|&h| BarrierEntry {
            at_secs: h.at_secs,
            op: BarrierOp::Handoff(h),
        })
        .collect();
    for f in failures {
        plan.push(BarrierEntry {
            at_secs: f.at_secs,
            op: BarrierOp::Fail { server: f.server },
        });
        if let Some(r) = f.rejoin_secs {
            plan.push(BarrierEntry {
                at_secs: r,
                op: BarrierOp::Rejoin { server: f.server },
            });
        }
    }
    plan.sort_by(|a, b| {
        a.at_secs
            .total_cmp(&b.at_secs)
            .then(a.op.rank().cmp(&b.op.rank()))
    });
    plan
}

/// What the orchestrator learns while executing the failure plan —
/// everything the per-server partials cannot see (transfer outcomes are
/// decided fleet-side, before any server is involved).
#[derive(Debug, Clone, Default)]
struct FailoverLog {
    /// Fail-stop → landing latency, one per landed ticket.
    latencies: Vec<f64>,
    /// Transfer attempts beyond the first, summed.
    retries: u64,
    /// Tickets that burned the full deadline.
    transfers_lost: usize,
    /// Planned handoffs redirected or skipped on health/transit grounds.
    redirected: usize,
}

/// Everything a run reads from `cfg` apart from the servers' own state,
/// computed once: the quality maps, the initial placement, and the
/// validated failure and barrier plans.
struct FleetPlan {
    servers: usize,
    maps: QualityMaps,
    /// `assignment[session]` = server the session is placed on at start.
    assignment: Vec<usize>,
    failures: Vec<ServerFailure>,
    barriers: Vec<BarrierEntry>,
}

impl FleetPlan {
    fn new(cfg: &FleetConfig) -> Self {
        assert!(cfg.sessions > 0, "fleet needs at least one session");
        let servers = cfg.servers.max(1);
        if let Some(r) = cfg.server_restart {
            assert!(r.server < servers, "restart names an unknown server");
        }
        let weights: Vec<f64> = (0..cfg.sessions)
            .map(|id| ClientClass::of(id).weight())
            .collect();
        let failures = failure_plan(cfg, servers);
        Self {
            servers,
            maps: QualityMaps::placeholder(&cfg.ladder_kbps),
            assignment: place_sessions(cfg.placement, servers, &weights),
            barriers: barrier_plan(cfg, servers, &failures),
            failures,
        }
    }
}

/// Fleet-side failover brain: session ownership, server liveness, the
/// health prober, and in-transit evacuations. Runs on the orchestrating
/// thread whether the shards run inline or on workers, so every
/// placement decision is a pure function of the plan — never of worker
/// timing.
struct Orchestrator {
    /// `owner[session]` = server currently responsible for it.
    owner: Vec<usize>,
    alive: Vec<bool>,
    health: HealthTracker,
    /// Sessions whose evacuation ticket is still in transit, by landing
    /// instant (seconds).
    arriving_until: BTreeMap<usize, f64>,
    log: FailoverLog,
    /// Next unexecuted barrier-plan entry (the checkpoint cursor).
    idx: usize,
}

impl Orchestrator {
    fn new(cfg: &FleetConfig, plan: &FleetPlan) -> Self {
        Self {
            owner: plan.assignment.clone(),
            alive: vec![true; plan.servers],
            health: HealthTracker::new(cfg.failover.health, plan.servers),
            arriving_until: BTreeMap::new(),
            log: FailoverLog::default(),
            idx: 0,
        }
    }

    /// Servers a placement may target: alive and health-checked
    /// `Healthy`. When the prober trusts nobody (a burst just suspected
    /// every survivor), fall back to plain liveness — degraded-capacity
    /// operation still beats dropping sessions.
    fn eligible(&self) -> Vec<usize> {
        let healthy: Vec<usize> = (0..self.alive.len())
            .filter(|&s| self.alive[s] && self.health.machines()[s].placeable())
            .collect();
        if !healthy.is_empty() {
            return healthy;
        }
        (0..self.alive.len()).filter(|&s| self.alive[s]).collect()
    }

    /// Current owner count per server (the load view placement reads).
    fn loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.alive.len()];
        for &o in &self.owner {
            loads[o] += 1;
        }
        loads
    }

    /// Execute barrier-plan entries until the plan is exhausted or the
    /// next barrier lands at or past `stop_before` (the checkpoint
    /// cursor). Servers advance only to executed barriers.
    fn run(
        &mut self,
        link: &mut Link,
        cfg: &FleetConfig,
        plan: &FleetPlan,
        stop_before: Option<f64>,
    ) {
        let barriers = &plan.barriers;
        while self.idx < barriers.len() {
            let barrier_secs = barriers[self.idx].at_secs;
            if stop_before.is_some_and(|s| barrier_secs >= s) {
                return;
            }
            let barrier = SimTime::from_secs_f64(barrier_secs);
            link.all(ShardCmd::RunUntil(barrier));
            self.health.advance(barrier_secs, &plan.failures);
            self.arriving_until.retain(|_, land| *land > barrier_secs);
            while self.idx < barriers.len() && barriers[self.idx].at_secs == barrier_secs {
                let op = barriers[self.idx].op;
                self.idx += 1;
                match op {
                    BarrierOp::Fail { server } => {
                        self.fail_server(link, cfg, server, barrier_secs, barrier);
                    }
                    BarrierOp::Rejoin { server } => {
                        if !self.alive[server] {
                            self.alive[server] = true;
                            link.to(server, ServerOp::Rejoin(barrier));
                        }
                    }
                    BarrierOp::Handoff(h) => self.handoff(link, cfg, h, barrier),
                }
            }
        }
    }

    /// Fail-stop one server and evacuate everything it held: each
    /// ticket rides the retry/backoff transfer ([`plan_transfer`]) to a
    /// health-checked target; a ticket that cannot land inside the
    /// deadline still arrives — stalled, marked for cold re-admission.
    fn fail_server(
        &mut self,
        link: &mut Link,
        cfg: &FleetConfig,
        server: usize,
        barrier_secs: f64,
        barrier: SimTime,
    ) {
        if !self.alive[server] {
            return; // failed twice before a rejoin — a no-op
        }
        self.alive[server] = false;
        let Some(ShardReply::Evacuated(tickets)) = link.to(server, ServerOp::Fail(barrier)) else {
            unreachable!("a fail-stop replies with its evacuees")
        };
        let eligible = self.eligible();
        assert!(
            !eligible.is_empty(),
            "the whole fleet is down — nowhere to evacuate"
        );
        let mut loads = self.loads();
        for (session, ticket) in tickets {
            let xfer = plan_transfer(&cfg.failover, barrier_secs, session);
            self.log.retries += u64::from(xfer.retries);
            let target = place_evacuee(cfg.placement, &eligible, &loads, session, server);
            let (land_secs, readmit) = match xfer.land_secs {
                Some(l) => {
                    self.log.latencies.push(l - barrier_secs);
                    (l, false)
                }
                None => {
                    self.log.transfers_lost += 1;
                    (barrier_secs + cfg.failover.deadline_secs, true)
                }
            };
            link.to(
                target,
                ServerOp::InstallEvac {
                    at: barrier,
                    land: SimTime::from_secs_f64(land_secs),
                    fail_at: barrier,
                    readmit,
                    ticket,
                },
            );
            loads[self.owner[session]] -= 1;
            loads[target] += 1;
            self.owner[session] = target;
            self.arriving_until.insert(session, land_secs);
        }
    }

    /// Execute one planned handoff, health-checked: a session still in
    /// evacuation transit is skipped (its placement already re-homed
    /// it), and a suspect/dead destination is redirected to a healthy
    /// server by the same deterministic placement the evacuees use.
    fn handoff(&mut self, link: &mut Link, cfg: &FleetConfig, h: SessionHandoff, barrier: SimTime) {
        if self.arriving_until.contains_key(&h.session) {
            self.log.redirected += 1;
            return;
        }
        let from = self.owner[h.session];
        let mut to = h.to;
        if !self.alive[to] || !self.health.machines()[to].placeable() {
            let eligible = self.eligible();
            let loads = self.loads();
            to = place_evacuee(cfg.placement, &eligible, &loads, h.session, to);
            self.log.redirected += 1;
        }
        if from == to {
            return;
        }
        let extract = ServerOp::Extract {
            session: h.session,
            at: barrier,
        };
        let Some(ShardReply::Ticket(ticket)) = link.to(from, extract) else {
            unreachable!("an extract replies with its ticket")
        };
        link.to(
            to,
            ServerOp::Install {
                from,
                session: h.session,
                at: barrier,
                ticket,
            },
        );
        self.owner[h.session] = to;
    }
}

/// One op on one server; [`Link::to`] routes it to the owning shard.
#[derive(Clone)]
enum ServerOp {
    Extract {
        session: usize,
        at: SimTime,
    },
    Install {
        from: usize,
        session: usize,
        at: SimTime,
        ticket: Vec<u8>,
    },
    Fail(SimTime),
    Rejoin(SimTime),
    InstallEvac {
        at: SimTime,
        land: SimTime,
        fail_at: SimTime,
        readmit: bool,
        ticket: Vec<u8>,
    },
}

/// A command to one shard: an op on one of its servers, or a step every
/// shard takes.
#[derive(Clone)]
enum ShardCmd {
    /// Run every server to the barrier.
    RunUntil(SimTime),
    /// An op on the server with this id.
    Op(usize, ServerOp),
    /// Run every server to the instant and snapshot it.
    Checkpoint(SimTime),
    /// Run every server to the hard stop and fold it into a partial.
    Finish(SimTime),
}

impl ShardCmd {
    /// Whether the shard answers; the link then waits for the reply.
    fn replies(&self) -> bool {
        matches!(
            self,
            ShardCmd::Op(_, ServerOp::Extract { .. } | ServerOp::Fail(_))
                | ShardCmd::Checkpoint(_)
                | ShardCmd::Finish(_)
        )
    }
}

enum ShardReply {
    Ticket(Vec<u8>),
    Evacuated(Vec<(usize, Vec<u8>)>),
    Ckpt(Vec<ServerCkpt>),
    Done(Vec<ServerPartial>),
}

/// Servers `lo..lo + sims.len()`, built by the thread that owns them:
/// `ServerSim` is not `Send` (the batcher's metric registry is
/// thread-local by design), so only plain-data commands, tickets,
/// snapshots and partials cross threads.
struct Shard<'a> {
    lo: usize,
    sims: Vec<ServerSim<'a>>,
    /// Fleet-level counters (observed runs only).
    fm: Option<FleetMetrics>,
}

impl<'a> Shard<'a> {
    /// Build servers `range`, either restored from their snapshots (in
    /// server order) or fresh with their initially placed sessions.
    fn new(
        range: Range<usize>,
        restored: Option<Vec<ServerCkpt>>,
        cfg: &'a FleetConfig,
        trace: &'a NetworkTrace,
        plan: &'a FleetPlan,
        obs: Option<&Obs>,
    ) -> Self {
        let fm = obs.map(|o| FleetMetrics::bind(&o.registry));
        // Single-server observed runs share the plane's registry
        // (pre-topology behaviour); with several servers each batcher
        // keeps private counters so per-server stats stay exact.
        let reg = obs
            .filter(|_| plan.servers == 1)
            .map(|o| o.registry.clone());
        let mut sims: Vec<ServerSim> = range
            .clone()
            .map(|sid| ServerSim::new(sid, cfg, trace, &plan.maps, reg.clone(), fm.clone()))
            .collect();
        match restored {
            // No spawn_session: restore_state rebuilds residency (and
            // derived state) from the snapshot's tickets.
            Some(ckpts) => {
                for (sim, c) in sims.iter_mut().zip(ckpts) {
                    sim.restore_state(c);
                }
            }
            None => {
                for (id, &srv) in plan.assignment.iter().enumerate() {
                    if range.contains(&srv) {
                        sims[srv - range.start].spawn_session(id);
                    }
                }
            }
        }
        Self {
            lo: range.start,
            sims,
            fm,
        }
    }

    /// Execute one command; its `Op` arm is the only dispatch of server
    /// ops.
    fn exec(&mut self, cmd: ShardCmd, obs: &mut Option<&mut Obs>) -> Option<ShardReply> {
        match cmd {
            ShardCmd::RunUntil(stop) => {
                for sim in &mut self.sims {
                    sim.run_until(stop, obs);
                }
                None
            }
            ShardCmd::Op(server, op) => {
                let sim = &mut self.sims[server - self.lo];
                match op {
                    ServerOp::Extract { session, at } => {
                        Some(ShardReply::Ticket(sim.extract_session(session, at, obs)))
                    }
                    ServerOp::Install {
                        from,
                        session,
                        at,
                        ticket,
                    } => {
                        if let Some(o) = obs.as_deref_mut() {
                            o.event(
                                "handoff",
                                session as u64,
                                at.0,
                                &[
                                    ("from", FieldValue::U64(from as u64)),
                                    ("to", FieldValue::U64(server as u64)),
                                    ("bytes", FieldValue::U64(ticket.len() as u64)),
                                ],
                            );
                        }
                        sim.install_ticket(&ticket, at, obs);
                        if let Some(m) = &self.fm {
                            m.handoffs.inc();
                        }
                        None
                    }
                    ServerOp::Fail(at) => Some(ShardReply::Evacuated(sim.fail(at, obs))),
                    ServerOp::Rejoin(at) => {
                        sim.rejoin(at, obs);
                        None
                    }
                    ServerOp::InstallEvac {
                        at,
                        land,
                        fail_at,
                        readmit,
                        ticket,
                    } => {
                        sim.install_evacuation(&ticket, at, land, fail_at, readmit, obs);
                        None
                    }
                }
            }
            ShardCmd::Checkpoint(at) => Some(ShardReply::Ckpt(
                self.sims
                    .iter_mut()
                    .map(|sim| {
                        sim.run_until(at, obs);
                        sim.checkpoint_state()
                    })
                    .collect(),
            )),
            ShardCmd::Finish(stop) => Some(ShardReply::Done(
                self.sims
                    .iter_mut()
                    .map(|sim| {
                        sim.run_until(stop, obs);
                        sim.finish(stop, obs)
                    })
                    .collect(),
            )),
        }
    }
}

/// How the orchestrator reaches its shards: one shard over every server
/// run inline on the calling thread, or one shard per worker thread
/// behind a command channel. Per-worker FIFO is the only ordering the
/// protocol needs: a worker always reaches a barrier (`RunUntil`) before
/// any op issued at it. Commands that need no reply are fire-and-forget,
/// so a fail-stop's evacuee installs never wait on a round trip.
enum Link<'a, 's, 'o> {
    Inline(Shard<'a>, &'s mut Option<&'o mut Obs>),
    Threads {
        /// `worker_of[server]` = the worker whose shard owns it.
        worker_of: Vec<usize>,
        txs: Vec<mpsc::Sender<ShardCmd>>,
        rxs: Vec<mpsc::Receiver<ShardReply>>,
    },
}

impl Link<'_, '_, '_> {
    /// Send `op` to the shard that owns `server`, and wait for the reply
    /// if the op has one.
    fn to(&mut self, server: usize, op: ServerOp) -> Option<ShardReply> {
        let cmd = ShardCmd::Op(server, op);
        match self {
            Link::Inline(shard, obs) => shard.exec(cmd, obs),
            Link::Threads {
                worker_of,
                txs,
                rxs,
            } => {
                let j = worker_of[server];
                let replies = cmd.replies();
                let _ = txs[j].send(cmd);
                replies.then(|| rxs[j].recv().expect("shard worker died"))
            }
        }
    }

    /// Send `cmd` to every shard; replies come back in server order.
    fn all(&mut self, cmd: ShardCmd) -> Vec<ShardReply> {
        match self {
            Link::Inline(shard, obs) => shard.exec(cmd, obs).into_iter().collect(),
            Link::Threads { txs, rxs, .. } => {
                let replies = cmd.replies();
                for tx in txs.iter() {
                    let _ = tx.send(cmd.clone());
                }
                if !replies {
                    return Vec::new();
                }
                rxs.iter()
                    .map(|rx| rx.recv().expect("shard worker died"))
                    .collect()
            }
        }
    }
}

/// The one fleet driver. Builds the shards from `restored` snapshots or
/// from the plan's placement, lets `orch` execute the barrier plan, and
/// ends every shard with `Checkpoint(checkpoint_at)` or, without one,
/// `Finish` at the hard stop; returns the shards' final replies.
///
/// Threads only when workers > 1, servers > 1, no `Obs` is attached and
/// the caller is not itself a pool worker. Then worker k owns the
/// contiguous server block `[k·S/W, (k+1)·S/W)` and pins the tensor pool
/// to inline mode, so every conv2d is bit-identical to the inline path.
/// Otherwise one shard runs inline and the tensor pool stays free.
fn drive(
    cfg: &FleetConfig,
    trace: &NetworkTrace,
    plan: &FleetPlan,
    orch: &mut Orchestrator,
    restored: Option<Vec<ServerCkpt>>,
    checkpoint_at: Option<f64>,
    obs: &mut Option<&mut Obs>,
) -> Vec<ShardReply> {
    let end = match checkpoint_at {
        Some(at) => ShardCmd::Checkpoint(SimTime::from_secs_f64(at)),
        None => ShardCmd::Finish(SimTime::from_secs_f64(cfg.max_virtual_secs)),
    };
    let servers = plan.servers;
    let workers = nerve_tensor::par::workers().min(servers);
    let threaded = workers > 1 && servers > 1 && obs.is_none() && !nerve_tensor::par::in_pool();
    if !threaded {
        let shard = Shard::new(0..servers, restored, cfg, trace, plan, obs.as_deref());
        let mut link = Link::Inline(shard, obs);
        orch.run(&mut link, cfg, plan, checkpoint_at);
        return link.all(end);
    }
    let mut restored = restored.map(Vec::into_iter);
    std::thread::scope(|scope| {
        let mut worker_of = vec![0usize; servers];
        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        for k in 0..workers {
            let range = k * servers / workers..(k + 1) * servers / workers;
            worker_of[range.clone()].fill(k);
            let start: Option<Vec<ServerCkpt>> = restored
                .as_mut()
                .map(|r| r.by_ref().take(range.len()).collect());
            let (cmd_tx, cmd_rx) = mpsc::channel::<ShardCmd>();
            let (reply_tx, reply_rx) = mpsc::channel::<ShardReply>();
            txs.push(cmd_tx);
            rxs.push(reply_rx);
            scope.spawn(move || {
                let _pin = nerve_tensor::par::PoolGuard::new();
                let mut shard = Shard::new(range, start, cfg, trace, plan, None);
                let mut obs = None;
                while let Ok(cmd) = cmd_rx.recv() {
                    if let Some(reply) = shard.exec(cmd, &mut obs) {
                        let _ = reply_tx.send(reply);
                    }
                }
            });
        }
        let mut link = Link::Threads {
            worker_of,
            txs,
            rxs,
        };
        orch.run(&mut link, cfg, plan, checkpoint_at);
        link.all(end)
    })
}

/// Run one fleet to completion. Deterministic: the same `(cfg, trace)`
/// always yields a byte-identical [`FleetResult::digest`], at any
/// tensor worker count and any server count × worker partition.
pub fn run_fleet(cfg: &FleetConfig, trace: &NetworkTrace) -> FleetResult {
    run_fleet_obs(cfg, trace, None)
}

/// [`run_fleet`] with an observability plane attached. `obs` is purely
/// passive: it observes virtual-time spans, point events, and registry
/// metrics, but never influences control flow, so the returned
/// [`FleetResult::digest`] is byte-identical with `Some` and `None`.
/// The run goes through the one driver (`drive`); an observed run
/// keeps every server in one inline shard (one OS thread) because the
/// metric registry is single-threaded, and the digest is unaffected. On
/// a single-server fleet the batcher shares the plane's registry (its
/// `batcher.*` metrics land next to the `fleet.*` ones, matching the
/// pre-topology behaviour); multi-server fleets keep per-server
/// batchers private and fold the aggregate in at the end.
pub fn run_fleet_obs(
    cfg: &FleetConfig,
    trace: &NetworkTrace,
    obs: Option<&mut Obs>,
) -> FleetResult {
    let plan = FleetPlan::new(cfg);
    let orch = Orchestrator::new(cfg, &plan);
    finish(cfg, trace, &plan, orch, None, obs)
}

/// Quiesce a fleet run at virtual instant `at_secs` and serialize the
/// whole fleet — every server plus the failover orchestrator — into a
/// sealed `NRVF` frame ([`crate::ckpt`]). The frame is byte-identical at
/// any worker count.
///
/// The run executes barrier-plan entries strictly *before* `at_secs`,
/// then drives every server exactly to `at_secs`. Feeding the frame to
/// [`resume_fleet`] with the same config and trace yields a
/// [`FleetResult`] whose digest is byte-identical to the uninterrupted
/// [`run_fleet`] — including mid-evacuation checkpoints with tickets
/// still in transit.
pub fn checkpoint_fleet(cfg: &FleetConfig, trace: &NetworkTrace, at_secs: f64) -> Vec<u8> {
    let plan = FleetPlan::new(cfg);
    assert!(
        at_secs > 0.0 && at_secs < cfg.max_virtual_secs,
        "checkpoint instant must fall inside the run"
    );
    let mut orch = Orchestrator::new(cfg, &plan);
    let servers = drive(cfg, trace, &plan, &mut orch, None, Some(at_secs), &mut None)
        .into_iter()
        .flat_map(|reply| match reply {
            ShardReply::Ckpt(c) => c,
            _ => unreachable!("a checkpointing shard replies with its snapshots"),
        })
        .collect();
    crate::ckpt::encode(&FleetCkpt {
        at: SimTime::from_secs_f64(at_secs),
        idx: orch.idx,
        owner: orch.owner,
        alive: orch.alive,
        arriving_until: orch.arriving_until.into_iter().collect(),
        latencies: orch.log.latencies,
        retries: orch.log.retries,
        transfers_lost: orch.log.transfers_lost,
        redirected: orch.log.redirected,
        health_fed: orch.health.fed(),
        health: orch
            .health
            .machines()
            .iter()
            .map(|m| (m.state().code(), m.streak(), m.counters()))
            .collect(),
        servers,
    })
}

/// Resume a [`checkpoint_fleet`] frame to completion: the same driver
/// as [`run_fleet`], started from the restored servers and
/// orchestrator, at any worker count. `cfg` and `trace` must match the
/// checkpointing run — the frame carries only mutable state, and a
/// frame whose shape disagrees with `cfg` is refused.
pub fn resume_fleet(
    cfg: &FleetConfig,
    trace: &NetworkTrace,
    frame: &[u8],
) -> Result<FleetResult, FrameError> {
    let fc = crate::ckpt::decode(frame)?;
    let plan = FleetPlan::new(cfg);
    for (field, len, want) in [
        ("servers", fc.servers.len(), plan.servers),
        ("owner", fc.owner.len(), cfg.sessions),
        ("alive", fc.alive.len(), plan.servers),
        ("health", fc.health.len(), plan.servers),
    ] {
        if len != want {
            return Err(FrameError::bad_field(field, len as u64));
        }
    }
    if let Some(&o) = fc.owner.iter().find(|&&o| o >= plan.servers) {
        return Err(FrameError::bad_field("owner", o as u64));
    }
    // The shards install every embedded ticket when they restore; decode
    // each one here first, so a damaged ticket is refused, not a panic.
    for sc in &fc.servers {
        for t in sc
            .sessions
            .iter()
            .chain(sc.arriving.iter().map(|(_, _, t)| t))
        {
            crate::handoff::decode_session(cfg, &plan.maps, t)?;
        }
    }
    let mut health = HealthTracker::new(cfg.failover.health, plan.servers);
    health.set_fed(fc.health_fed);
    for (m, &(code, streak, counters)) in health.machines_mut().iter_mut().zip(&fc.health) {
        let state =
            HealthState::from_code(code).ok_or(FrameError::bad_field("health_state", code))?;
        *m = ServerHealth::restore(cfg.failover.health, state, streak, counters);
    }
    let orch = Orchestrator {
        owner: fc.owner,
        alive: fc.alive,
        health,
        arriving_until: fc.arriving_until.into_iter().collect(),
        log: FailoverLog {
            latencies: fc.latencies,
            retries: fc.retries,
            transfers_lost: fc.transfers_lost,
            redirected: fc.redirected,
        },
        idx: fc.idx,
    };
    Ok(finish(cfg, trace, &plan, orch, Some(fc.servers), None))
}

/// Drive the fleet to the hard stop and fold the shards' partials into
/// the result.
fn finish(
    cfg: &FleetConfig,
    trace: &NetworkTrace,
    plan: &FleetPlan,
    mut orch: Orchestrator,
    restored: Option<Vec<ServerCkpt>>,
    mut obs: Option<&mut Obs>,
) -> FleetResult {
    let partials = drive(cfg, trace, plan, &mut orch, restored, None, &mut obs)
        .into_iter()
        .flat_map(|reply| match reply {
            ShardReply::Done(p) => p,
            _ => unreachable!("a finishing shard replies with its partials"),
        })
        .collect();
    assemble(cfg, plan, partials, orch, obs)
}

/// Fold server partials into the fleet result (the in-order merge: same
/// math regardless of how the partials were produced).
fn assemble(
    cfg: &FleetConfig,
    plan: &FleetPlan,
    mut partials: Vec<ServerPartial>,
    mut orch: Orchestrator,
    obs: Option<&mut Obs>,
) -> FleetResult {
    partials.sort_by_key(|p| p.id);
    let mut invariants = InvariantReport::default();

    let mut server_summaries = Vec::with_capacity(partials.len());
    let mut dones: Vec<SessionDone> = Vec::with_capacity(cfg.sessions);
    let mut batcher = BatcherStats::default();
    let mut slacks: Vec<f64> = Vec::new();
    let mut accepted = 0;
    let mut downgraded = 0;
    let mut rejected = 0;
    let mut restarts = 0;
    let mut handoffs = 0;
    let mut events = 0u64;
    let mut virtual_secs = 0.0f64;
    for p in partials.iter_mut() {
        merge_stats(&mut batcher, &p.batcher);
        accepted += p.accepted;
        downgraded += p.downgraded;
        rejected += p.rejected;
        restarts += p.restarts;
        handoffs += p.handoffs_out;
        events += p.events;
        virtual_secs = virtual_secs.max(p.virtual_secs);
        slacks.extend(p.slacks.iter().copied());
        invariants.absorb(p.inv);
        server_summaries.push(ServerSummary {
            id: p.id,
            sessions: p.sessions.len(),
            accepted: p.accepted,
            downgraded: p.downgraded,
            rejected: p.rejected,
            restarts: p.restarts,
            handoffs_in: p.handoffs_in,
            handoffs_out: p.handoffs_out,
            events: p.events,
            batcher: p.batcher.clone(),
            virtual_secs: p.virtual_secs,
            cache: p.cache,
            failc: p.failc,
        });
        dones.append(&mut p.sessions);
    }
    dones.sort_by_key(|d| d.id);
    // Fleet-wide session conservation: whatever failed, flapped, or was
    // mid-transfer when the clock stopped, every spawned session must
    // surface exactly once at assembly.
    invariants.checks += 1;
    let conserved = dones.len() == cfg.sessions && dones.iter().enumerate().all(|(i, d)| d.id == i);
    if !conserved {
        invariants.violations += 1;
        debug_assert!(
            conserved,
            "session conservation violated: {} of {} sessions surfaced",
            dones.len(),
            cfg.sessions
        );
    }

    let summaries: Vec<SessionSummary> = dones
        .into_iter()
        .map(|d| {
            let outcomes: Vec<ChunkOutcome> = d
                .chunks
                .iter()
                .filter(|c| c.started && c.resolved == c.frames && c.frames > 0)
                .map(|c| ChunkOutcome {
                    utility_mbps: plan.maps.utility_for_psnr(c.psnr_sum / c.frames as f64),
                    rebuffer_secs: c.rebuffer_secs,
                })
                .collect();
            let qoe = session_qoe(&outcomes, &QoeParams::default());
            let mean_utility = if outcomes.is_empty() {
                0.0
            } else {
                outcomes.iter().map(|c| c.utility_mbps).sum::<f64>() / outcomes.len() as f64
            };
            let played = outcomes.len() as f64 * CHUNK_SECS;
            let stall_ratio = if played + d.rebuffer_total > 0.0 {
                d.rebuffer_total / (played + d.rebuffer_total)
            } else {
                0.0
            };
            let chunks_played = outcomes.len();
            let (psnr_sum, frames): (f64, usize) = d
                .chunks
                .iter()
                .filter(|c| c.started && c.resolved == c.frames && c.frames > 0)
                .fold((0.0, 0), |(p, n), c| (p + c.psnr_sum, n + c.frames));
            SessionSummary {
                id: d.id,
                class: d.class,
                cap: d.cap,
                rejected: d.rejected,
                server: d.server,
                qoe,
                mean_utility_mbps: mean_utility,
                rebuffer_secs: d.rebuffer_total,
                stall_ratio,
                mean_rung: if chunks_played > 0 {
                    d.rung_sum as f64 / d.chunk_idx.max(1) as f64
                } else {
                    0.0
                },
                chunks_played,
                counters: d.counters,
                checksum: d.checksum,
                mean_psnr: if frames > 0 {
                    psnr_sum / frames as f64
                } else {
                    0.0
                },
                model: d.model,
            }
        })
        .collect();

    let admitted: Vec<&SessionSummary> = summaries.iter().filter(|s| !s.rejected).collect();
    let mean_qoe = if admitted.is_empty() {
        0.0
    } else {
        admitted.iter().map(|s| s.qoe).sum::<f64>() / admitted.len() as f64
    };
    let utilities: Vec<f64> = admitted.iter().map(|s| s.mean_utility_mbps).collect();
    let total_rebuffer: f64 = admitted.iter().map(|s| s.rebuffer_secs).sum();
    let total_played: f64 = admitted
        .iter()
        .map(|s| s.chunks_played as f64 * CHUNK_SECS)
        .sum();
    slacks.sort_by(f64::total_cmp);
    let p95 = nerve_obs::percentile_nearest_rank(&slacks, 0.95).unwrap_or(0.0);
    let model = cfg.model_plane.as_ref().map(|_| {
        let mut m = FleetModelStats::default();
        for sv in &server_summaries {
            if let Some(c) = &sv.cache {
                m.cache.hits += c.hits;
                m.cache.misses += c.misses;
                m.cache.evictions += c.evictions;
                m.cache.bytes_loaded += c.bytes_loaded;
                m.cache.resident_bytes += c.resident_bytes;
            }
        }
        let mut conf_sum = 0.0;
        let mut assigned = 0usize;
        for s in &summaries {
            if let Some(sm) = &s.model {
                assigned += 1;
                conf_sum += sm.confidence;
                if sm.head == 0 {
                    m.generic_sessions += 1;
                } else {
                    m.specialist_sessions += 1;
                }
                m.delta_applied += sm.applied;
                m.delta_rejected += sm.rejected;
            }
        }
        m.mean_confidence = if assigned > 0 {
            conf_sum / assigned as f64
        } else {
            0.0
        };
        m
    });
    // Per-session accounting identity — the widened form that charges
    // in-flight drops: jobs == full + degraded + sr_skipped +
    // failed_in_flight (legacy runs hold it with failed_in_flight = 0).
    for s in &summaries {
        invariants.checks += 1;
        let ok = s.counters.jobs
            == s.counters.full
                + s.counters.degraded
                + s.counters.sr_skipped
                + s.counters.failed_in_flight;
        if !ok {
            invariants.violations += 1;
            debug_assert!(ok, "job accounting identity violated for session {}", s.id);
        }
    }
    let failover = if plan.failures.is_empty() {
        None
    } else {
        // Run the prober over the tail of the run (past the last
        // barrier) so late dead declarations and probations count.
        orch.health.advance(cfg.max_virtual_secs, &plan.failures);
        let log = &orch.log;
        let mut fo = FailoverStats {
            retries: log.retries,
            lost_transfers: log.transfers_lost,
            redirected_handoffs: log.redirected,
            landed: log.latencies.len(),
            latency_p50_secs: percentile_nearest_rank(&log.latencies, 50.0),
            latency_p95_secs: percentile_nearest_rank(&log.latencies, 95.0),
            health: orch.health.totals(),
            ..FailoverStats::default()
        };
        for sv in &server_summaries {
            fo.server_failures += sv.failc.failures;
            fo.rejoins += sv.failc.rejoins;
            fo.evacuated += sv.failc.evac_out;
            fo.warp += sv.failc.evac_warp;
            fo.freeze += sv.failc.evac_freeze;
            fo.stall += sv.failc.evac_stall;
            fo.jobs_failed_in_flight += sv.failc.jobs_failed;
        }
        for s in &summaries {
            if s.counters.evacuations > 0 {
                if s.rejected {
                    fo.sessions_lost += 1;
                } else {
                    fo.sessions_recovered += 1;
                }
            }
        }
        Some(fo)
    };
    let result = FleetResult {
        mean_qoe,
        fairness: jain_fairness(&utilities),
        stall_ratio: if total_played + total_rebuffer > 0.0 {
            total_rebuffer / (total_played + total_rebuffer)
        } else {
            0.0
        },
        accepted,
        downgraded,
        rejected,
        batcher,
        p95_slack_secs: p95,
        virtual_secs,
        crashes: summaries.iter().map(|s| s.counters.crashes).sum(),
        server_restarts: restarts,
        handoffs,
        events,
        model,
        failover,
        invariants,
        sessions: summaries,
        servers: server_summaries,
    };
    if let Some(o) = obs {
        let g = &o.registry;
        g.gauge("fleet.mean_qoe").set(result.mean_qoe);
        g.gauge("fleet.fairness").set(result.fairness);
        g.gauge("fleet.stall_ratio").set(result.stall_ratio);
        g.gauge("fleet.p95_slack_secs").set(result.p95_slack_secs);
        g.gauge("fleet.virtual_secs").set(result.virtual_secs);
        g.gauge("fleet.servers").set(result.servers.len() as f64);
        if result.servers.len() > 1 {
            // Multi-server batchers run with private registries; fold the
            // aggregate so `batcher.*` counters stay meaningful.
            g.counter("batcher.batches")
                .add(result.batcher.batches as u64);
            g.counter("batcher.jobs.full")
                .add(result.batcher.full as u64);
            g.counter("batcher.jobs.warp_only")
                .add(result.batcher.warp_only as u64);
            g.counter("batcher.jobs.shed")
                .add(result.batcher.shed as u64);
        }
        if let Some(m) = &result.model {
            g.counter("model.cache.hits").add(m.cache.hits);
            g.counter("model.cache.misses").add(m.cache.misses);
            g.counter("model.cache.evictions").add(m.cache.evictions);
            g.counter("model.cache.bytes").add(m.cache.bytes_loaded);
            g.counter("model.delta.applied").add(m.delta_applied as u64);
            g.counter("model.delta.rejected")
                .add(m.delta_rejected as u64);
            g.gauge("model.fingerprint.confidence")
                .set(m.mean_confidence);
            g.gauge("model.sessions.specialist")
                .set(m.specialist_sessions as f64);
            g.gauge("model.sessions.generic")
                .set(m.generic_sessions as f64);
        }
        if let Some(fo) = &result.failover {
            g.gauge("failover.evacuated").set(fo.evacuated as f64);
            g.gauge("failover.landed").set(fo.landed as f64);
            g.gauge("failover.lost_transfers")
                .set(fo.lost_transfers as f64);
            g.gauge("failover.latency_p50_secs")
                .set(fo.latency_p50_secs);
            g.gauge("failover.latency_p95_secs")
                .set(fo.latency_p95_secs);
            g.gauge("failover.sessions_recovered")
                .set(fo.sessions_recovered as f64);
            g.gauge("failover.sessions_lost")
                .set(fo.sessions_lost as f64);
            g.counter("failover.retries").add(fo.retries);
            g.counter("failover.health.suspected")
                .add(fo.health.suspected);
            g.counter("failover.health.died").add(fo.health.died);
            g.counter("failover.health.probations")
                .add(fo.health.probations);
            g.counter("failover.health.recovered")
                .add(fo.health.recovered);
        }
        for sv in &result.servers {
            g.counter(&format!("fleet.server.{}.events", sv.id))
                .add(sv.events);
            g.counter(&format!("fleet.server.{}.handoffs_in", sv.id))
                .add(sv.handoffs_in as u64);
            g.counter(&format!("fleet.server.{}.handoffs_out", sv.id))
                .add(sv.handoffs_out as u64);
            g.gauge(&format!("fleet.server.{}.sessions", sv.id))
                .set(sv.sessions as f64);
            g.gauge(&format!("fleet.server.{}.virtual_secs", sv.id))
                .set(sv.virtual_secs);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_net::trace::{NetworkKind, NetworkTrace};
    use nerve_tensor::par;

    fn trace(seed: u64) -> NetworkTrace {
        NetworkTrace::generate(NetworkKind::WiFi, seed).downscaled(12.0)
    }

    #[test]
    fn fleet_runs_to_completion_and_settles_every_frame() {
        let cfg = FleetConfig::small(4, 7);
        let r = run_fleet(&cfg, &trace(7));
        assert_eq!(r.sessions.len(), 4);
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.chunks_played, cfg.chunks_per_session,
                "session {} must finish all chunks",
                s.id
            );
        }
        assert!(
            r.virtual_secs < cfg.max_virtual_secs,
            "must drain, not time out"
        );
        assert!(r.fairness > 0.0 && r.fairness <= 1.0 + 1e-12);
        assert!(r.events > 0, "the event loop must report its event count");
    }

    #[test]
    fn digest_is_identical_across_repeat_runs() {
        let cfg = FleetConfig::small(6, 21);
        let a = run_fleet(&cfg, &trace(21)).digest();
        let b = run_fleet(&cfg, &trace(21)).digest();
        assert_eq!(a, b);
    }

    #[test]
    fn tight_admission_budget_downgrades_or_rejects_sessions() {
        let mut cfg = FleetConfig::small(8, 3);
        // Budget fits roughly two top-rung sessions.
        cfg.admission.bandwidth_kbps = 9_000.0;
        let r = run_fleet(&cfg, &trace(3));
        assert!(
            r.downgraded + r.rejected >= 1,
            "admission must shed load: {}/{}/{}",
            r.accepted,
            r.downgraded,
            r.rejected
        );
        let capped = r.sessions.iter().find(|s| s.cap.is_some());
        if let Some(s) = capped {
            assert!(
                s.mean_rung <= s.cap.unwrap() as f64 + 1e-9,
                "capped session must respect its rung cap"
            );
        }
    }

    #[test]
    fn slow_server_degrades_with_counters_not_silent_starvation() {
        let mut cfg = FleetConfig::small(6, 11);
        // A server ~1000× too slow: most recovery jobs cannot fit their
        // playout budget and must land on the ladder's lower rungs.
        cfg.model.macs_per_sec = 2.0e4;
        cfg.admission.macs_per_sec = f64::INFINITY;
        let r = run_fleet(&cfg, &trace(11));
        let degraded: usize = r.sessions.iter().map(|s| s.counters.degraded).sum();
        assert!(
            degraded > 0,
            "overload must surface as degradation counters"
        );
        // Every enqueued job is accounted for: full + degraded + skipped.
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.counters.jobs,
                s.counters.full + s.counters.degraded + s.counters.sr_skipped,
                "no silent job loss for session {}",
                s.id
            );
        }
    }

    #[test]
    fn batcher_coalesces_across_sessions() {
        let cfg = FleetConfig::small(8, 5);
        let r = run_fleet(&cfg, &trace(5));
        let multi: usize = r.batcher.occupancy[1..].iter().sum();
        assert!(
            multi > 0,
            "at least one flush must batch >1 job: occupancy {:?}",
            r.batcher.occupancy
        );
    }

    #[test]
    fn crash_plan_aborts_and_retries_without_losing_chunks() {
        let mut cfg = FleetConfig::small(4, 13);
        cfg.crash_plan = vec![
            SessionCrash {
                session: 1,
                at_secs: 1.0,
                down_secs: 1.5,
            },
            SessionCrash {
                session: 2,
                at_secs: 2.0,
                down_secs: 0.5,
            },
        ];
        let r = run_fleet(&cfg, &trace(13));
        assert_eq!(r.crashes, 2, "both crash events must be absorbed");
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.chunks_played, cfg.chunks_per_session,
                "session {} must still finish every chunk after crashing",
                s.id
            );
            assert_eq!(
                s.counters.jobs,
                s.counters.full + s.counters.degraded + s.counters.sr_skipped,
                "no silent job loss for session {}",
                s.id
            );
        }
        let a = run_fleet(&cfg, &trace(13)).digest();
        let b = run_fleet(&cfg, &trace(13)).digest();
        assert_eq!(a, b, "crash plans must stay deterministic");
    }

    #[test]
    fn server_restart_drains_without_losing_accounted_jobs() {
        let mut cfg = FleetConfig::small(6, 17);
        cfg.server_restart = Some(ServerRestart {
            server: 0,
            at_secs: 2.0,
            down_secs: 1.0,
        });
        let r = run_fleet(&cfg, &trace(17));
        assert_eq!(r.server_restarts, 1);
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.chunks_played, cfg.chunks_per_session,
                "session {} must finish despite the restart",
                s.id
            );
            assert_eq!(
                s.counters.jobs,
                s.counters.full + s.counters.degraded + s.counters.sr_skipped,
                "every job must settle for session {}",
                s.id
            );
        }
    }

    #[test]
    fn overloaded_fleet_with_breaker_surfaces_transitions_in_result() {
        let mut cfg = FleetConfig::small(6, 11);
        // Same ~1000×-too-slow server as the starvation test, now with a
        // breaker armed: sustained misses must open it at least once.
        cfg.model.macs_per_sec = 2.0e4;
        cfg.admission.macs_per_sec = f64::INFINITY;
        cfg.breaker = Some(nerve_core::BreakerConfig {
            open_after_misses: 4,
            cooldown_secs: 0.5,
            probe_jobs: 2,
            watchdog_budget_secs: 10.0,
        });
        let r = run_fleet(&cfg, &trace(11));
        assert!(
            r.batcher.breaker.opened >= 1,
            "sustained overload must open the breaker: {:?}",
            r.batcher.breaker
        );
        assert!(
            r.batcher.breaker.fast_shed >= 1,
            "an open breaker must fast-shed at least one job"
        );
        assert!(
            r.digest().contains("breaker=o"),
            "breaker counters must be part of the digest"
        );
        // Accounting still holds under the breaker.
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.counters.jobs,
                s.counters.full + s.counters.degraded + s.counters.sr_skipped,
                "breaker must not cause silent job loss for session {}",
                s.id
            );
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[1.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
    }

    /// A fleet where every admitted session earned zero utility is
    /// "equally poor", not maximally unfair: all-zero utilities map to a
    /// fairness of 1.0 (the `sq <= 0` branch), never NaN from 0/0.
    #[test]
    fn jain_all_zero_utilities_is_neutral_fairness() {
        assert_eq!(jain_fairness(&[0.0, 0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[0.0]), 1.0);
        assert!(jain_fairness(&[0.0, 0.0, 1e-12]).is_finite());
    }

    /// Zero admission budget rejects every session at its first request.
    /// The aggregates must stay neutral — rejected sessions never play,
    /// never rebuffer, and never reach the batcher — rather than
    /// polluting stall/fairness with 0/0 artifacts.
    #[test]
    fn fully_rejected_fleet_reports_neutral_aggregates() {
        let mut cfg = FleetConfig::small(5, 9);
        cfg.admission.bandwidth_kbps = 0.0;
        cfg.admission.macs_per_sec = 0.0;
        let r = run_fleet(&cfg, &trace(9));
        assert_eq!(r.rejected, cfg.sessions);
        assert_eq!(r.accepted, 0);
        assert_eq!(r.mean_qoe, 0.0);
        assert_eq!(r.fairness, 1.0);
        assert_eq!(r.stall_ratio, 0.0, "rejected sessions cannot stall");
        assert_eq!(r.p95_slack_secs, 0.0, "no jobs were ever served");
        assert_eq!(r.batcher.batches, 0);
        for s in &r.sessions {
            assert!(s.rejected);
            assert_eq!(s.rebuffer_secs, 0.0);
            assert_eq!(s.counters.jobs, 0);
            assert_eq!(s.mean_rung, 0.0);
        }
    }

    /// The observability plane is passive: a traced run yields the same
    /// digest as an untraced one, its registry mirrors the result's own
    /// accounting, and every span closes.
    #[test]
    fn traced_run_is_digest_identical_and_registry_consistent() {
        let mut cfg = FleetConfig::small(6, 17);
        cfg.crash_plan = vec![SessionCrash {
            session: 1,
            at_secs: 1.0,
            down_secs: 1.5,
        }];
        cfg.server_restart = Some(ServerRestart {
            server: 0,
            at_secs: 2.0,
            down_secs: 1.0,
        });
        let plain = run_fleet(&cfg, &trace(17));
        let mut obs = Obs::trace();
        let traced = run_fleet_obs(&cfg, &trace(17), Some(&mut obs));
        assert_eq!(
            plain.digest(),
            traced.digest(),
            "tracing must never change a result"
        );

        let snap = obs.registry.snapshot();
        let jobs: usize = traced.sessions.iter().map(|s| s.counters.jobs).sum();
        assert_eq!(snap.counter("fleet.jobs.enqueued"), Some(jobs as u64));
        assert_eq!(snap.counter("fleet.crashes"), Some(traced.crashes as u64));
        assert_eq!(snap.counter("fleet.server_restarts"), Some(1));
        assert_eq!(
            snap.counter("fleet.sessions.accepted"),
            Some(traced.accepted as u64)
        );
        assert_eq!(
            snap.counter("batcher.jobs.full"),
            Some(traced.batcher.full as u64),
            "the batcher must share the fleet registry"
        );
        assert_eq!(snap.gauge("fleet.mean_qoe"), Some(traced.mean_qoe));
        assert_eq!(
            snap.gauge("fleet.p95_slack_secs"),
            Some(traced.p95_slack_secs)
        );

        let lines = obs.trace_lines().unwrap();
        let opens = lines.matches("\"ev\":\"open\"").count();
        let closes = lines.matches("\"ev\":\"close\"").count();
        assert_eq!(opens, closes, "every span must close");
        assert!(opens > 0, "flushes must emit spans");
        assert!(lines.contains("\"name\":\"session.crash\""));
        assert!(lines.contains("\"name\":\"server.restart\""));
        assert!(lines.contains("\"name\":\"job.settle\""));
    }

    /// Hard-stopping the clock mid-download must not leak the in-flight
    /// chunk's rung into `mean_rung`: the rung is charged at request
    /// time, but the chunk never completes, so averaging it over
    /// completed chunks alone can report a mean above the top ladder
    /// rung.
    #[test]
    fn hard_stop_mid_download_keeps_mean_rung_within_ladder() {
        // Pinpoint case: one session on a fast link bootstraps at rung 0,
        // then rides the top rung. Hard-stopped mid-download, the true
        // mean over completed chunks is strictly below the top rung
        // (chunk 0 completed at rung 0), so a reported mean AT the top is
        // exactly the in-flight leak.
        let mut cfg = FleetConfig::small(1, 3);
        cfg.chunks_per_session = 50;
        cfg.max_virtual_secs = 3.0;
        let r = run_fleet(&cfg, &trace(3));
        let top = (cfg.ladder_kbps.len() - 1) as f64;
        let s = &r.sessions[0];
        assert!(s.chunks_played > 0, "the stop must land mid-stream");
        assert!(
            s.mean_rung < top,
            "session 0 mean_rung {} must stay strictly below top rung \
             {top}: chunk 0 completed at the bootstrap rung",
            s.mean_rung
        );

        // Broader invariant: no hard stop may ever push a mean above the
        // ladder.
        for stop_secs in [3.0, 4.5, 6.0, 7.5, 9.0, 10.5] {
            for sessions in [1, 2, 3] {
                let mut cfg = FleetConfig::small(sessions, 11);
                cfg.chunks_per_session = 50; // plenty left at the stop
                cfg.max_virtual_secs = stop_secs;
                let r = run_fleet(&cfg, &trace(11));
                for s in &r.sessions {
                    assert!(
                        s.mean_rung <= top + 1e-9,
                        "stop {stop_secs}s, {sessions} sessions: session {} \
                         mean_rung {} exceeds top rung {top}",
                        s.id,
                        s.mean_rung
                    );
                }
            }
        }
    }

    /// Satellite-1 regression: a fleet-wide throughput collapse must hit
    /// every session exactly once — through the shared pool — never
    /// squared through the per-session overlay merge. A run with a
    /// fleet-wide 0.5 collapse on a 12 Mbps trace is byte-identical to a
    /// faultless run on the same trace pre-scaled to 6 Mbps: losses,
    /// deadlines, ABR inputs, and checksums all agree bit-for-bit.
    #[test]
    fn fleet_wide_fault_applies_exactly_once_not_squared() {
        let base = NetworkTrace::generate(NetworkKind::WiFi, 41);
        let mut faulted = FleetConfig::small(3, 41);
        faulted.overlay_every = 0; // isolate the fleet-plan path
        faulted.fleet_faults =
            FaultPlan::new(0).throughput_collapse(SimTime::ZERO, SimTime::from_secs_f64(1e6), 0.5);
        let a = run_fleet(&faulted, &base.downscaled(12.0));

        let mut clean = FleetConfig::small(3, 41);
        clean.overlay_every = 0;
        let b = run_fleet(&clean, &base.downscaled(6.0));

        assert_eq!(
            a.digest(),
            b.digest(),
            "a fleet-wide ×0.5 collapse must equal a ×0.5 pool, exactly"
        );
    }

    /// Satellite-1 regression: a fleet blackout throttles sessions
    /// through the (zero) pool, it does not mark them dead — the moment
    /// the blackout lifts, every session resumes and finishes.
    #[test]
    fn fleet_blackout_throttles_then_recovers_without_starvation() {
        let mut cfg = FleetConfig::small(4, 19);
        cfg.fleet_faults =
            FaultPlan::new(0).blackout(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(2.5));
        let r = run_fleet(&cfg, &trace(19));
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.chunks_played, cfg.chunks_per_session,
                "session {} must finish once the blackout lifts",
                s.id
            );
        }
        let again = run_fleet(&cfg, &trace(19));
        assert_eq!(r.digest(), again.digest());
    }

    /// Satellite-2 regression: with every session's rate pinned to zero
    /// forever (permanent fleet blackout), the event loop must advance
    /// monotonically to the hard stop — no zero-progress instant can
    /// recur. The run ends exactly at `max_virtual_secs` with nothing
    /// played, at every worker count.
    #[test]
    fn starved_fleet_terminates_at_hard_stop() {
        let mut cfg = FleetConfig::small(3, 31);
        cfg.servers = 2;
        cfg.fleet_faults = FaultPlan::new(0).blackout(SimTime::ZERO, SimTime::from_secs_f64(1e6));
        cfg.max_virtual_secs = 20.0;
        let tr = trace(31);
        let mut digests = Vec::new();
        for jobs in [1, 2, 4] {
            par::set_workers(jobs);
            let r = run_fleet(&cfg, &tr);
            assert_eq!(
                r.virtual_secs, 20.0,
                "a starved fleet must stop exactly at the hard stop"
            );
            for s in r.sessions.iter().filter(|s| !s.rejected) {
                assert_eq!(s.chunks_played, 0, "nothing can complete at rate 0");
            }
            digests.push(r.digest());
        }
        par::set_workers(1);
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    /// Multi-server topology: sessions spread across servers, every
    /// server does work, and the fleet digest is byte-identical at any
    /// worker count (serial vs sharded execution).
    #[test]
    fn multi_server_digest_is_jobs_invariant() {
        let mut cfg = FleetConfig::small(8, 23);
        cfg.servers = 4;
        let tr = trace(23);
        let mut digests = Vec::new();
        for jobs in [1, 2, 4] {
            par::set_workers(jobs);
            let r = run_fleet(&cfg, &tr);
            assert_eq!(r.servers.len(), 4);
            for sv in &r.servers {
                assert_eq!(sv.sessions, 2, "round-robin spreads 8 over 4");
            }
            for s in r.sessions.iter().filter(|s| !s.rejected) {
                assert_eq!(s.chunks_played, cfg.chunks_per_session);
            }
            digests.push(r.digest());
        }
        par::set_workers(1);
        assert_eq!(digests[0], digests[1], "1 vs 2 workers");
        assert_eq!(digests[1], digests[2], "2 vs 4 workers");
    }

    /// Handoffs move sessions between servers through the CRC ticket:
    /// accounting survives the move, the handoff is visible in per-server
    /// counters, and the digest stays worker-count invariant (the ticket
    /// round-trip is asserted byte-identical inside `install_ticket`).
    #[test]
    fn handoff_preserves_accounting_and_digest() {
        let mut cfg = FleetConfig::small(6, 29);
        cfg.servers = 2;
        cfg.handoffs = vec![
            SessionHandoff {
                session: 0,
                to: 1,
                at_secs: 3.0,
            },
            SessionHandoff {
                session: 3,
                to: 0,
                at_secs: 5.0,
            },
        ];
        let tr = trace(29);
        par::set_workers(1);
        let serial = run_fleet(&cfg, &tr);
        assert_eq!(serial.handoffs, 2);
        assert_eq!(serial.servers[0].handoffs_out, 1);
        assert_eq!(serial.servers[1].handoffs_in, 1);
        assert_eq!(serial.servers[1].handoffs_out, 1);
        assert_eq!(serial.servers[0].handoffs_in, 1);
        let s0 = &serial.sessions[0];
        assert_eq!(s0.server, 1, "session 0 must end on server 1");
        for s in serial.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.chunks_played, cfg.chunks_per_session,
                "session {} must finish after its handoff",
                s.id
            );
            assert_eq!(
                s.counters.jobs,
                s.counters.full + s.counters.degraded + s.counters.sr_skipped,
                "no silent job loss across the handoff for session {}",
                s.id
            );
        }
        par::set_workers(2);
        let sharded = run_fleet(&cfg, &tr);
        par::set_workers(1);
        assert_eq!(
            serial.digest(),
            sharded.digest(),
            "handoffs must be digest-identical under sharded execution"
        );
    }

    /// A handoff wave to one hot server concentrates load there; the
    /// fleet still drains and the placement policies all produce valid,
    /// covering assignments.
    #[test]
    fn placement_policies_cover_servers_and_finish() {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::Locality,
        ] {
            let mut cfg = FleetConfig::small(6, 37);
            cfg.servers = 3;
            cfg.placement = placement;
            let r = run_fleet(&cfg, &trace(37));
            assert_eq!(
                r.servers.iter().map(|s| s.sessions).sum::<usize>(),
                6,
                "{placement}: every session must be resident somewhere"
            );
            for s in r.sessions.iter().filter(|s| !s.rejected) {
                assert_eq!(s.chunks_played, cfg.chunks_per_session, "{placement}");
            }
        }
    }

    /// Tentpole acceptance: the 64-session mixed-category model-plane
    /// fleet is digest-identical at any worker count, at one and four
    /// servers, and across repeat runs — fingerprinting, cache LRU
    /// decisions, cold-load charging, and delta updates are all part of
    /// the deterministic replay.
    #[test]
    fn model_plane_fleet_digest_is_jobs_invariant_across_topologies() {
        let tr = NetworkTrace::generate(NetworkKind::WiFi, 64);
        for servers in [1usize, 4] {
            let mut cfg = FleetConfig::mixed_model(64, 0x40DE1);
            cfg.servers = servers;
            let mut digests = Vec::new();
            for jobs in [1usize, 2, 4] {
                par::set_workers(jobs);
                let r = run_fleet(&cfg, &tr);
                assert!(r.model.is_some(), "model plane must report its stats");
                digests.push(r.digest());
            }
            par::set_workers(1);
            assert_eq!(digests[0], digests[1], "{servers} servers: 1 vs 2 workers");
            assert_eq!(digests[1], digests[2], "{servers} servers: 2 vs 4 workers");
            assert_eq!(
                digests[0],
                run_fleet(&cfg, &tr).digest(),
                "{servers} servers: repeat run"
            );
        }
    }

    /// The model plane's accounting: specialists are assigned, the cache
    /// misses cold and hits warm (and evicts — 512 KiB cannot hold ten
    /// specialists), delta updates land, Basic clients skip the plane,
    /// and — with load costs zeroed so both arms replay frame-for-frame
    /// identically — specialist sessions strictly beat the force-generic
    /// control arm on mean PSNR.
    #[test]
    fn model_plane_assigns_specialists_meters_cache_and_beats_generic() {
        let tr = NetworkTrace::generate(NetworkKind::WiFi, 64);
        let mut cfg = FleetConfig::mixed_model(64, 0x40DE1);
        {
            let mp = cfg.model_plane.as_mut().unwrap();
            mp.load_secs_per_mb = 0.0;
            mp.load_macs_per_byte = 0.0;
        }
        let r = run_fleet(&cfg, &tr);
        let m = r.model.expect("model plane on");
        assert!(m.cache.misses > 0, "cold caches must miss");
        assert!(m.cache.hits > 0, "repeat categories must hit");
        assert!(m.cache.evictions > 0, "ten specialists thrash 512 KiB");
        assert!(m.specialist_sessions >= 8, "most sessions get specialists");
        assert!(m.delta_applied > 0, "delta updates must land");
        assert_eq!(m.delta_rejected, 0, "well-formed deltas are never refused");
        assert!(m.mean_confidence > 0.0);
        for s in &r.sessions {
            if s.class == ClientClass::Basic {
                assert!(s.model.is_none(), "basic sessions skip the plane");
            } else if !s.rejected {
                let sm = s.model.expect("enhancement sessions get a head");
                if sm.head != 0 {
                    assert_eq!(
                        sm.version,
                        crate::server::DELTA_UPDATES,
                        "session {} must reach the target weight version",
                        s.id
                    );
                }
            }
        }

        // Control arm: identical timing (load costs are zero), generic
        // heads everywhere — the only difference is the uplift term.
        let mut gcfg = cfg.clone();
        gcfg.model_plane.as_mut().unwrap().force_generic = true;
        let g = run_fleet(&gcfg, &tr);
        assert_eq!(g.model.expect("plane on").specialist_sessions, 0);
        let mut lifted = 0usize;
        let mut compared = 0usize;
        for (a, b) in r.sessions.iter().zip(&g.sessions) {
            assert_eq!(a.id, b.id);
            if a.model.is_some_and(|sm| sm.head != 0) && a.chunks_played > 0 {
                if a.counters.full > 0 {
                    compared += 1;
                    if a.mean_psnr > b.mean_psnr {
                        lifted += 1;
                    }
                } else {
                    // The uplift rides fully served enhancement frames;
                    // a session that never got one ties exactly — any
                    // other difference means the arms' timing diverged.
                    assert_eq!(
                        a.mean_psnr.to_bits(),
                        b.mean_psnr.to_bits(),
                        "session {} diverged without a full-served frame",
                        a.id
                    );
                }
            }
        }
        assert!(compared >= 8, "need a real specialist population");
        assert_eq!(
            lifted, compared,
            "every full-served specialist session must beat its control"
        );
    }

    /// The canonical failure-domain scenario: 4 servers, server 1
    /// fail-stops for good mid-run, server 2 flaps (dies later, rejoins
    /// and walks probation).
    fn failure_cfg(sessions: usize, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::small(sessions, seed);
        cfg.servers = 4;
        cfg.failures = vec![
            ServerFailure {
                server: 1,
                at_secs: 4.0,
                rejoin_secs: None,
            },
            ServerFailure {
                server: 2,
                at_secs: 5.0,
                rejoin_secs: Some(7.0),
            },
        ];
        cfg
    }

    /// Failure-domain acceptance: an unplanned fail-stop plus a flap
    /// stay digest-identical at any worker count, conserve every
    /// session, and pass the fleet invariant checker after every event.
    #[test]
    fn failover_digest_is_jobs_invariant_and_conserves_sessions() {
        let cfg = failure_cfg(8, 41);
        let tr = trace(41);
        let mut digests = Vec::new();
        for jobs in [1, 2, 4] {
            par::set_workers(jobs);
            let r = run_fleet(&cfg, &tr);
            let fo = r.failover.as_ref().expect("failure plan must report");
            assert_eq!(fo.server_failures, 2);
            assert_eq!(fo.rejoins, 1);
            assert!(fo.evacuated > 0, "the dead servers held sessions");
            assert_eq!(
                fo.landed + fo.lost_transfers,
                fo.evacuated,
                "every evacuation ticket lands or is declared lost"
            );
            assert_eq!(r.sessions.len(), cfg.sessions, "session conservation");
            assert_eq!(
                r.invariants.violations, 0,
                "zero invariant violations over {} checks",
                r.invariants.checks
            );
            assert!(r.invariants.checks > 0, "the checker must actually run");
            digests.push(r.digest());
        }
        par::set_workers(1);
        assert_eq!(digests[0], digests[1], "1 vs 2 workers");
        assert_eq!(digests[1], digests[2], "2 vs 4 workers");
    }

    /// A fail-stop drops in-flight batcher jobs; they are charged as
    /// `failed_in_flight`, never silently settled, and the per-session
    /// accounting identity widens to absorb them exactly.
    #[test]
    fn failover_widens_accounting_identity_without_silent_loss() {
        let cfg = failure_cfg(8, 43);
        let r = run_fleet(&cfg, &trace(43));
        let fo = r.failover.as_ref().expect("failure plan must report");
        let evacs: usize = r.sessions.iter().map(|s| s.counters.evacuations).sum();
        assert!(evacs > 0, "evacuations must be session-visible");
        for s in r.sessions.iter().filter(|s| !s.rejected) {
            assert_eq!(
                s.counters.jobs,
                s.counters.full
                    + s.counters.degraded
                    + s.counters.sr_skipped
                    + s.counters.failed_in_flight,
                "widened identity must hold for session {}",
                s.id
            );
        }
        assert_eq!(
            fo.jobs_failed_in_flight,
            r.sessions
                .iter()
                .map(|s| s.counters.failed_in_flight)
                .sum::<usize>(),
            "fleet failed-in-flight total must match the session sum"
        );
        assert_eq!(
            fo.sessions_recovered + fo.sessions_lost,
            r.sessions
                .iter()
                .filter(|s| s.counters.evacuations > 0)
                .count(),
            "every evacuated session is exactly recovered or lost"
        );
    }

    /// Sever the inter-server control link entirely: every transfer
    /// burns its retries and deadline, arrives stalled, and re-enters
    /// through normal admission — degraded-capacity operation, with
    /// nothing unaccounted.
    #[test]
    fn severed_control_link_burns_deadline_stalls_and_readmits() {
        let mut cfg = failure_cfg(8, 47);
        cfg.failover.ctl_faults =
            FaultPlan::new(1).downlink_loss(SimTime::ZERO, SimTime::from_secs_f64(1e6), 1.0);
        let r = run_fleet(&cfg, &trace(47));
        let fo = r.failover.as_ref().expect("failure plan must report");
        assert_eq!(fo.landed, 0, "no ticket can cross a severed link");
        assert_eq!(fo.lost_transfers, fo.evacuated);
        assert!(
            fo.retries >= 4 * fo.evacuated as u64,
            "every ticket must exhaust its retry budget"
        );
        assert!(fo.stall > 0, "a lost ticket arrives stalled");
        assert_eq!(r.sessions.len(), cfg.sessions, "session conservation");
        assert_eq!(r.invariants.violations, 0);
        assert_eq!(
            fo.sessions_recovered + fo.sessions_lost,
            r.sessions
                .iter()
                .filter(|s| s.counters.evacuations > 0)
                .count()
        );
    }

    /// The health prober walks the full breaker cycle on a flap:
    /// Healthy → Suspect → Dead while down, then Probation (half-open)
    /// → Healthy after the rejoin.
    #[test]
    fn flapping_server_walks_suspect_dead_probation_healthy() {
        let cfg = failure_cfg(8, 53);
        let r = run_fleet(&cfg, &trace(53));
        let h = r
            .failover
            .as_ref()
            .expect("failure plan must report")
            .health;
        assert!(h.suspected >= 2, "both downed servers get suspected");
        assert!(h.died >= 2, "both stay down past the dead threshold");
        assert!(
            h.probations >= 1,
            "the rejoining server goes through half-open probation"
        );
        assert!(h.recovered >= 1, "and returns to Healthy");
    }

    /// Kill-and-resume: a fleet checkpointed before the failure, *mid
    /// evacuation* (tickets in transit, 4.0 < t < first landing), and
    /// after the flap resumes to a byte-identical digest; a frame whose
    /// shape disagrees with the config is refused, not misapplied.
    #[test]
    fn checkpoint_resume_mid_evacuation_is_byte_identical() {
        let cfg = failure_cfg(8, 59);
        let tr = trace(59);
        par::set_workers(1);
        let straight = run_fleet(&cfg, &tr).digest();
        for at in [2.0, 4.02, 6.5] {
            for jobs in [1, 2, 4] {
                par::set_workers(jobs);
                let frame = checkpoint_fleet(&cfg, &tr, at);
                let resumed = resume_fleet(&cfg, &tr, &frame).expect("frame must decode");
                assert_eq!(
                    resumed.digest(),
                    straight,
                    "resume from t={at} at {jobs} workers must replay byte-identically"
                );
            }
        }
        par::set_workers(1);
        let frame = checkpoint_fleet(&cfg, &tr, 2.0);
        let mut other = cfg.clone();
        other.sessions = 7;
        assert!(
            resume_fleet(&other, &tr, &frame).err() == Some(FrameError::bad_field("owner", 8u64)),
            "a mismatched config must refuse the frame"
        );
    }

    /// A fleet frame whose own CRC holds but whose embedded ticket is
    /// damaged is refused, not resumed into a panic.
    #[test]
    fn resume_refuses_a_damaged_embedded_ticket() {
        let cfg = failure_cfg(8, 59);
        let tr = trace(59);
        par::set_workers(1);
        let frame = checkpoint_fleet(&cfg, &tr, 2.0);
        let mut body = nerve_net::integrity::open(&frame).unwrap().to_vec();
        let magic = crate::handoff::TICKET_FRAME.magic.to_le_bytes();
        let at = body.windows(4).position(|w| w == magic).expect("a ticket");
        body[at + 10] ^= 0x40;
        let resealed = nerve_net::integrity::seal(&body);
        assert_eq!(
            resume_fleet(&cfg, &tr, &resealed).err(),
            Some(FrameError::Corrupt)
        );
    }

    /// A sealed frame that names a session owner past the fleet's
    /// servers is refused, not indexed.
    #[test]
    fn resume_refuses_an_owner_past_the_servers() {
        let cfg = failure_cfg(8, 59);
        let tr = trace(59);
        par::set_workers(1);
        let mut fc = crate::ckpt::decode(&checkpoint_fleet(&cfg, &tr, 2.0)).unwrap();
        fc.owner[3] = cfg.servers;
        assert_eq!(
            resume_fleet(&cfg, &tr, &crate::ckpt::encode(&fc)).err(),
            Some(FrameError::bad_field("owner", cfg.servers as u64))
        );
    }

    /// The CRC32 of a mid-evacuation frame, pinned: the wire bytes must
    /// not drift under a refactor of the codec.
    #[test]
    fn mid_evacuation_frame_crc_is_pinned() {
        par::set_workers(1);
        let frame = checkpoint_fleet(&failure_cfg(8, 59), &trace(59), 4.02);
        assert_eq!(nerve_net::integrity::crc32(&frame), 0xD090_9F10);
    }
}
