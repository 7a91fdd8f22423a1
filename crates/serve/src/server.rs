//! One edge server as a discrete-event state machine.
//!
//! [`ServerSim`] owns everything that used to live inline in the old
//! serial fleet loop — the resident sessions, the per-server
//! [`AdmissionController`], the cross-session [`InferenceBatcher`], and
//! now a calendar [`EventQueue`] — and exposes exactly the operations
//! the fleet orchestrator needs:
//!
//! * [`ServerSim::run_until`] — process events up to a barrier; per-step
//!   cost scales with the server's *active* sessions (downloading set +
//!   due events), not the fleet's total session count.
//! * [`ServerSim::extract_session`] / [`ServerSim::install_ticket`] —
//!   the handoff path: session state round-trips through the CRC-framed
//!   ticket codec in [`crate::handoff`] and is verified digest-identical
//!   before it moves.
//! * [`ServerSim::finish`] — drain and fold into a plain-data
//!   [`ServerPartial`] that can cross the shard-worker channel.
//!
//! The event loop replays the old loop's within-instant phase order
//! (restart → crashes → wakes → completions → tick flush) through
//! [`EventKind`]'s ordering, so the DES refactor preserves the serial
//! loop's semantics while dropping its O(total sessions)-per-step scan.
//!
//! ## Fair share (the satellite-1 fix)
//!
//! The old rate formula divided the *merged* overlay factor by the
//! fleet factor (`merged / fleet_factor`, clamped by `.min(1.0)`) to
//! undo double-application of fleet faults, and zeroed sessions outright
//! while `fleet_factor == 0`. Both constructs were artifacts of storing
//! only the merged plan: the division is exact only up to float
//! rounding, the clamp silently capped sessions whose overlay was *less*
//! impaired than the fleet, and a fleet-throttled-but-clean session
//! could be starved by the zero branch. Sessions now carry their own
//! (unmerged) plan; [`fair_share_rates`] applies the fleet factor once
//! through the pool and each session's own factor directly — no
//! division, no clamp, no special case — and *excludes dead sessions*
//! (own factor zero) from the live weight so their share redistributes
//! to sessions that can still make progress (work conservation).

use crate::admission::{Admission, AdmissionController, AdmissionState, SessionDemand};
use crate::batcher::{BatcherStats, InferenceBatcher, InferenceJob, JobKind, Service};
use crate::event_queue::{Event, EventKind, EventQueue};
use crate::failure::{InvariantReport, ServerFailureCounters};
use crate::fleet::{
    session_category, ClientClass, FleetConfig, SessionCounters, SessionModel, CHUNK_SECS,
};
use nerve_abr::mpc::{EnhancementAwareAbr, EnhancementConfig, PACKET_BYTES};
use nerve_abr::qoe::{QoeParams, QualityMaps};
use nerve_abr::{Abr, AbrContext, CappedAbr};
use nerve_model::cache::{CacheStats, WeightCache, WeightCacheState};
use nerve_model::delta::{delta_for, weights_at, DeltaError, WeightDelta};
use nerve_model::fingerprint::{Classifier, Fingerprint, HeadId};
use nerve_model::{artifact_bytes, specialist_uplift_db};
use nerve_net::bytes::{ByteReader, ByteWriter, FrameError, Wire};
use nerve_net::clock::SimTime;
use nerve_net::faults::FaultPlan;
use nerve_net::loss::{GilbertElliott, LossModel};
use nerve_obs::{Counter, FieldValue, Obs, Registry};
use nerve_video::rng::{seed_for, StreamComponent};
use nerve_video::synth::Category;
use std::collections::{BTreeMap, BTreeSet};

/// Where one session is in its chunk cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Phase {
    /// Not yet arrived, or draining an over-full buffer.
    Waiting {
        until: SimTime,
    },
    Downloading {
        rung: usize,
        bytes_left: f64,
        bytes_total: f64,
        started: SimTime,
        buffer_at_start: f64,
    },
    Done,
}

/// A tag byte, then the variant's fields.
impl Wire for Phase {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            Phase::Waiting { until } => {
                w.u8(0);
                until.put(w);
            }
            Phase::Downloading {
                rung,
                bytes_left,
                bytes_total,
                started,
                buffer_at_start,
            } => {
                w.u8(1);
                w.usize(rung);
                w.f64(bytes_left);
                w.f64(bytes_total);
                started.put(w);
                w.f64(buffer_at_start);
            }
            Phase::Done => w.u8(2),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        Ok(match r.u8()? {
            0 => Phase::Waiting {
                until: SimTime::get(r)?,
            },
            1 => Phase::Downloading {
                rung: r.usize()?,
                bytes_left: r.f64()?,
                bytes_total: r.f64()?,
                started: SimTime::get(r)?,
                buffer_at_start: r.f64()?,
            },
            2 => Phase::Done,
            tag => return Err(FrameError::bad_field("phase", tag)),
        })
    }
}

/// Accumulates one chunk's frames until every enhancement job settles.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ChunkAcc {
    pub started: bool,
    pub rung: usize,
    pub frames: usize,
    pub resolved: usize,
    pub psnr_sum: f64,
    pub rebuffer_secs: f64,
}

nerve_net::wire_record!(ChunkAcc {
    started,
    rung,
    frames,
    resolved,
    psnr_sum,
    rebuffer_secs
});

/// Everything mutable about one resident session. Plain data plus the
/// boxed ABR policy (itself `Send`), so a session can move between
/// shard workers through the handoff ticket.
pub(crate) struct SessionState {
    pub class: ClientClass,
    pub weight: f64,
    pub cap: Option<usize>,
    pub rejected: bool,
    /// Admission ran (accept or downgrade). Guards the front door so a
    /// crash-retry of chunk 0 cannot re-draw admission tokens, and a
    /// handed-off session is not re-admitted at its destination.
    pub admitted: bool,
    pub abr: Box<dyn Abr>,
    pub ctx: AbrContext,
    pub phase: Phase,
    pub buffer_secs: f64,
    /// When `buffer_secs` was last brought up to date (the buffer drains
    /// in real time between chunk requests too).
    pub buffer_asof: SimTime,
    pub chunk_idx: usize,
    pub loss: GilbertElliott,
    /// This session's own fault plan — the capacity-share input.
    pub own_faults: FaultPlan,
    /// Own plan merged with the fleet plan — the frame-damage input.
    pub overlay: FaultPlan,
    pub chunks: Vec<ChunkAcc>,
    pub chain: usize,
    pub rung_sum: usize,
    pub counters: SessionCounters,
    pub checksum: f32,
    pub rebuffer_total: f64,
    /// Remaining crash instants `(at_secs, down_secs)`, ascending; the
    /// head is the session's next scheduled [`EventKind::Crash`].
    pub crashes: Vec<(f64, f64)>,
    /// Model-plane state (`None` until the plane assigns a head, or
    /// forever when the plane is off / the class runs no enhancement).
    pub model: Option<SessionModel>,
}

impl SessionState {
    /// A fresh (never-run) session as the fleet spawns it at placement.
    pub(crate) fn fresh(cfg: &FleetConfig, maps: &QualityMaps, id: usize) -> Self {
        let class = ClientClass::of(id);
        let (own_faults, overlay) = session_fault_plans(cfg, id);
        let mut crashes: Vec<(f64, f64)> = cfg
            .crash_plan
            .iter()
            .filter(|c| c.session == id)
            .map(|c| (c.at_secs, c.down_secs))
            .collect();
        crashes.sort_by(|a, b| a.0.total_cmp(&b.0));
        SessionState {
            class,
            weight: class.weight(),
            cap: None,
            rejected: false,
            admitted: false,
            abr: make_abr(maps, class),
            ctx: AbrContext::bootstrap(cfg.ladder_kbps.clone(), CHUNK_SECS, cfg.frames_per_chunk),
            phase: Phase::Waiting {
                until: SimTime::from_secs_f64(id as f64 * cfg.stagger_secs),
            },
            buffer_secs: 0.0,
            buffer_asof: SimTime::ZERO,
            chunk_idx: 0,
            loss: GilbertElliott::with_rate(
                cfg.avg_loss,
                cfg.mean_burst,
                seed_for(cfg.seed, id as u64, StreamComponent::MediaLoss),
            ),
            own_faults,
            overlay,
            chunks: vec![ChunkAcc::default(); cfg.chunks_per_session],
            chain: 0,
            rung_sum: 0,
            counters: SessionCounters::default(),
            checksum: 0.0,
            rebuffer_total: 0.0,
            crashes,
            model: None,
        }
    }
}

/// Expected steady-state demand of one session capped at `cap`, used by
/// admission: the rung's bitrate, plus enhancement compute for SR
/// anchors and the expected damaged-frame recovery load.
pub(crate) fn demand_at(cfg: &FleetConfig, cap: usize) -> SessionDemand {
    let anchors = (cfg.frames_per_chunk / cfg.anchor_stride.max(1)) as f64;
    let expected_damaged = cfg.frames_per_chunk as f64 * cfg.avg_loss;
    let jobs_per_sec = (anchors + expected_damaged) / CHUNK_SECS;
    let macs_per_job =
        cfg.model.macs_per_job() * crate::batcher::ServerModel::rung_scale(&cfg.ladder_kbps, cap);
    SessionDemand {
        bandwidth_kbps: f64::from(cfg.ladder_kbps[cap]),
        macs_per_sec: jobs_per_sec * macs_per_job,
    }
}

/// The class's enhancement-aware controller (rebuilt, not serialized, at
/// handoff: the controllers are pure functions of maps + parameters).
pub(crate) fn make_abr(maps: &QualityMaps, class: ClientClass) -> Box<dyn Abr> {
    Box::new(EnhancementAwareAbr::new(
        maps.clone(),
        QoeParams::default(),
        EnhancementConfig {
            recovery_aware: class.recovery(),
            sr_aware: class.sr(),
            ..EnhancementConfig::default()
        },
    ))
}

/// A session's fault plans: `(own, merged)`. The own plan (a mid-run
/// throughput collapse on every `overlay_every`-th session) drives the
/// session's capacity share; the merge with the fleet plan drives frame
/// damage. Pure function of `(cfg, id)`, so handoff tickets never carry
/// fault plans — the destination reconstructs them.
pub(crate) fn session_fault_plans(cfg: &FleetConfig, id: usize) -> (FaultPlan, FaultPlan) {
    let base = FaultPlan::new(seed_for(cfg.seed, id as u64, StreamComponent::Faults));
    let own = if cfg.overlay_every > 0 && id % cfg.overlay_every == cfg.overlay_every - 1 {
        base.throughput_collapse(
            SimTime::from_secs_f64(6.0),
            SimTime::from_secs_f64(4.0),
            0.4,
        )
    } else {
        base
    };
    let merged = own.merged(&cfg.fleet_faults);
    (own, merged)
}

/// Capacity factor a session's *own* plan applies at `t`: zero inside
/// its own blackout/disconnect windows, the product of its collapse
/// factors otherwise. The fleet plan is deliberately absent — it scales
/// the shared pool exactly once, upstream.
pub(crate) fn session_capacity_factor(own: &FaultPlan, t: SimTime) -> f64 {
    if own.blackout_at(t) {
        0.0
    } else {
        own.capacity_factor(t)
    }
}

/// Weighted fair share of `pool` bytes/sec over `(weight, own_factor)`
/// entries. Sessions whose own factor is zero are dead for this
/// interval: they receive nothing *and* their weight is excluded from
/// the denominator, so the capacity they cannot use redistributes to
/// live sessions instead of evaporating.
pub(crate) fn fair_share_rates(pool: f64, entries: &[(f64, f64)]) -> Vec<f64> {
    let live_weight: f64 = entries
        .iter()
        .filter(|(_, f)| *f > 0.0)
        .map(|(w, _)| *w)
        .sum();
    entries
        .iter()
        .map(|&(w, f)| {
            if f > 0.0 && live_weight > 0.0 && pool > 0.0 {
                pool * (w / live_weight) * f
            } else {
                0.0
            }
        })
        .collect()
}

/// Classifier confidence below this floor serves the generic head.
const CONFIDENCE_FLOOR: f64 = 0.1;
/// Delta weight updates shipped per specialist session, one per
/// completed chunk.
pub(crate) const DELTA_UPDATES: u32 = 2;
/// Fraction of the specialist PSNR uplift held back until the delta
/// updates land.
const UPLIFT_HOLDBACK: f64 = 0.25;
/// Client buffer cap, seconds.
const MAX_BUFFER_SECS: f64 = 12.0;
/// Batcher flush cadence (also the event loop's coarsest step), µs.
const FLUSH_TICK_US: u64 = 250_000;

/// PSNR uplift (dB) a specialist session enjoys with `version` delta
/// updates applied: the head ships at `1 − holdback` of its calibrated
/// uplift and each update closes an equal share of the held-back gap.
pub(crate) fn effective_uplift(cat: Category, version: u32) -> f64 {
    let progress = version.min(DELTA_UPDATES) as f64 / DELTA_UPDATES as f64;
    specialist_uplift_db(cat) * (1.0 - UPLIFT_HOLDBACK + UPLIFT_HOLDBACK * progress)
}

/// Fleet-level registry counters, bound once per run when an
/// observability plane is attached and shared by every server (handles
/// are `Rc`-backed, so cloning shares the cells).
#[derive(Clone)]
pub(crate) struct FleetMetrics {
    pub jobs_enqueued: Counter,
    pub crashes: Counter,
    pub server_restarts: Counter,
    pub accepted: Counter,
    pub downgraded: Counter,
    pub rejected: Counter,
    pub handoffs: Counter,
    pub server_failures: Counter,
    pub evacuations: Counter,
}

impl FleetMetrics {
    pub(crate) fn bind(registry: &Registry) -> Self {
        Self {
            jobs_enqueued: registry.counter("fleet.jobs.enqueued"),
            crashes: registry.counter("fleet.crashes"),
            server_restarts: registry.counter("fleet.server_restarts"),
            accepted: registry.counter("fleet.sessions.accepted"),
            downgraded: registry.counter("fleet.sessions.downgraded"),
            rejected: registry.counter("fleet.sessions.rejected"),
            handoffs: registry.counter("fleet.handoffs"),
            server_failures: registry.counter("failover.server_failures"),
            evacuations: registry.counter("failover.evacuations"),
        }
    }
}

/// One finished session's raw accumulators, as plain data that can cross
/// the shard-worker channel; the orchestrator turns these into
/// [`crate::fleet::SessionSummary`] rows.
pub(crate) struct SessionDone {
    pub id: usize,
    pub class: ClientClass,
    pub cap: Option<usize>,
    pub rejected: bool,
    pub server: usize,
    pub chunks: Vec<ChunkAcc>,
    pub chunk_idx: usize,
    pub rung_sum: usize,
    pub counters: SessionCounters,
    pub checksum: f32,
    pub rebuffer_total: f64,
    pub model: Option<SessionModel>,
}

/// One server's slice of the run, folded at [`ServerSim::finish`].
pub(crate) struct ServerPartial {
    pub id: usize,
    pub accepted: usize,
    pub downgraded: usize,
    pub rejected: usize,
    pub batcher: crate::batcher::BatcherStats,
    /// Deadline slack of full-served jobs, in this server's canonical
    /// settle order (the orchestrator concatenates in server order and
    /// sorts once).
    pub slacks: Vec<f64>,
    pub restarts: usize,
    pub handoffs_in: usize,
    pub handoffs_out: usize,
    /// Events processed by this server's calendar queue.
    pub events: u64,
    pub virtual_secs: f64,
    pub sessions: Vec<SessionDone>,
    /// Weight-cache counters (`None` when the model plane is off).
    pub cache: Option<CacheStats>,
    /// Failure-domain counters (all zero when no failure plan ran).
    pub failc: ServerFailureCounters,
    /// Per-event invariant checks run on this server.
    pub inv: InvariantReport,
}

/// A session whose evacuation ticket has landed on this server but whose
/// re-arrival instant has not been processed yet. Held outside
/// `sessions` so the normal event machinery never sees a half-arrived
/// session; materialized by [`EventKind::Arrive`] (or at
/// [`ServerSim::finish`] when the run's hard stop lands first — the
/// conservation invariant requires every admitted session to surface
/// exactly once).
pub(crate) struct ArrivingSession {
    pub s: SessionState,
    /// When the origin server failed (start of the outage this session
    /// rode through).
    pub fail_at: SimTime,
    /// True when the transfer lost the ticket: the session burned its
    /// playout budget and re-enters through normal admission.
    pub readmit: bool,
}

/// One edge server of the fleet topology, driven event-by-event.
pub(crate) struct ServerSim<'a> {
    pub id: usize,
    cfg: &'a FleetConfig,
    trace: &'a nerve_net::trace::NetworkTrace,
    maps: &'a QualityMaps,
    admission: AdmissionController,
    batcher: InferenceBatcher,
    sessions: BTreeMap<usize, SessionState>,
    /// Sessions currently in [`Phase::Downloading`], ascending id.
    active: BTreeSet<usize>,
    /// Fair-share rates for `active` (same order), from the last refresh.
    rates: Vec<(usize, f64)>,
    queue: EventQueue,
    now: SimTime,
    /// Sessions not yet [`Phase::Done`]; the all-done test is O(1).
    undone: usize,
    done: bool,
    last_tick: Option<SimTime>,
    /// Rate generation; completion probes from older generations are
    /// stale and ignored.
    gen: u64,
    down_until: Option<SimTime>,
    pub restarts: usize,
    pub handoffs_in: usize,
    pub handoffs_out: usize,
    pub events: u64,
    slacks: Vec<f64>,
    flush_idx: u64,
    fm: Option<FleetMetrics>,
    /// Per-server specialist weight cache (model plane only).
    cache: Option<WeightCache>,
    /// Fail-stopped: the server serves nothing and holds no sessions
    /// until [`ServerSim::rejoin`]. Unlike a planned restart
    /// (`down_until`), a failure drops in-flight work and evacuates.
    dead: bool,
    /// Evacuated sessions whose tickets landed here but have not yet
    /// arrived (keyed by session id).
    arriving: BTreeMap<usize, ArrivingSession>,
    failc: ServerFailureCounters,
    inv: InvariantReport,
    /// Set by [`restore_state`](Self::restore_state): the checkpoint was
    /// taken mid-`run_until`, after the last processed instant's refresh
    /// — the resumed `run_until` must not refresh again at entry or the
    /// extra generation bump would fork the event stream from the
    /// uncheckpointed run.
    skip_entry_refresh: bool,
}

impl<'a> ServerSim<'a> {
    /// Build an empty server. `shared_registry` (observability runs
    /// only) redirects the batcher's accounting into the fleet's
    /// registry; `fm` shares the fleet-level counters.
    pub(crate) fn new(
        id: usize,
        cfg: &'a FleetConfig,
        trace: &'a nerve_net::trace::NetworkTrace,
        maps: &'a QualityMaps,
        shared_registry: Option<Registry>,
        fm: Option<FleetMetrics>,
    ) -> Self {
        let mut batcher = InferenceBatcher::new(
            cfg.model.clone(),
            cfg.ladder_kbps.clone(),
            (0..cfg.sessions)
                .map(|s| seed_for(cfg.seed, s as u64, StreamComponent::Inference))
                .collect(),
        );
        if let Some(breaker) = cfg.breaker {
            batcher = batcher.with_breaker(breaker);
        }
        if let Some(reg) = shared_registry {
            batcher = batcher.with_registry(reg);
        }
        let mut sim = Self {
            id,
            cfg,
            trace,
            maps,
            admission: AdmissionController::new(&cfg.admission),
            batcher,
            sessions: BTreeMap::new(),
            active: BTreeSet::new(),
            rates: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            undone: 0,
            done: false,
            last_tick: None,
            gen: 0,
            down_until: None,
            restarts: 0,
            handoffs_in: 0,
            handoffs_out: 0,
            events: 0,
            slacks: Vec::new(),
            flush_idx: 0,
            fm,
            cache: cfg
                .model_plane
                .as_ref()
                .map(|mp| WeightCache::new(mp.cache_bytes)),
            dead: false,
            arriving: BTreeMap::new(),
            failc: ServerFailureCounters::default(),
            inv: InvariantReport::default(),
            skip_entry_refresh: false,
        };
        if let Some(r) = cfg.server_restart {
            if r.server == id {
                sim.queue.schedule(
                    SimTime::ZERO,
                    SimTime::from_secs_f64(r.at_secs),
                    EventKind::Restart,
                );
            }
        }
        sim
    }

    /// Spawn session `id` fresh on this server (initial placement).
    pub(crate) fn spawn_session(&mut self, id: usize) {
        let s = SessionState::fresh(self.cfg, self.maps, id);
        if let Phase::Waiting { until } = s.phase {
            self.queue
                .schedule(self.now, until, EventKind::Wake { session: id });
        }
        if let Some(&(at, _)) = s.crashes.first() {
            self.queue.schedule(
                self.now,
                SimTime::from_secs_f64(at),
                EventKind::Crash { session: id },
            );
        }
        self.undone += 1;
        self.done = false;
        self.sessions.insert(id, s);
    }

    fn server_up(&self) -> bool {
        !self.dead && self.down_until.is_none_or(|d| self.now >= d)
    }

    /// Fair-share rates at `now` — a pure function of (active set,
    /// session fault plans, trace, config), shared by [`refresh`] and
    /// checkpoint restore (which must rebuild the exact rates the
    /// original run held without bumping the rate generation).
    fn recompute_rates(&mut self) {
        let t = self.now;
        let fleet_factor = if self.cfg.fleet_faults.blackout_at(t) {
            0.0
        } else {
            self.cfg.fleet_faults.capacity_factor(t)
        };
        let pool = self.trace.bytes_per_sec_at(t) * fleet_factor;
        let entries: Vec<(f64, f64)> = self
            .active
            .iter()
            .map(|id| {
                let s = &self.sessions[id];
                (s.weight, session_capacity_factor(&s.own_faults, t))
            })
            .collect();
        let shares = fair_share_rates(pool, &entries);
        self.rates = self.active.iter().copied().zip(shares).collect();
    }

    /// Advance in-flight downloads by their cached rates over
    /// `[now, to)` and move the clock.
    fn advance_to(&mut self, to: SimTime) {
        let dt = to.saturating_sub(self.now).as_secs_f64();
        if dt > 0.0 {
            for &(id, r) in &self.rates {
                if r <= 0.0 {
                    continue;
                }
                if let Some(s) = self.sessions.get_mut(&id) {
                    if let Phase::Downloading { bytes_left, .. } = &mut s.phase {
                        *bytes_left = (*bytes_left - r * dt).max(0.0);
                    }
                }
            }
        }
        self.now = to;
    }

    /// Recompute fair-share rates at `now`, re-arm the completion probe,
    /// and keep the tick cadence alive while there is anything to tick
    /// for. Runs after every processed instant.
    fn refresh(&mut self) {
        self.gen += 1;
        self.recompute_rates();
        let t = self.now;

        // Earliest completion at current rates. `schedule_after` is the
        // monotone-advance guard: even a sub-microsecond estimate lands
        // strictly after `now`, so a (near-)zero-rate session can never
        // stall the clock.
        let mut soonest: Option<f64> = None;
        for &(id, r) in &self.rates {
            if r <= 0.0 {
                continue;
            }
            if let Phase::Downloading { bytes_left, .. } = self.sessions[&id].phase {
                let secs = bytes_left / r;
                soonest = Some(soonest.map_or(secs, |b: f64| b.min(secs)));
            }
        }
        if let Some(secs) = soonest {
            self.queue.schedule_after(
                t,
                t + SimTime::from_secs_f64(secs + 1e-9),
                EventKind::Completion { gen: self.gen },
            );
        }

        // Ticks run while downloads are in flight (rates are re-sampled
        // at every boundary — this is also what walks the clock through
        // an all-rates-zero blackout) or while jobs wait on a flush.
        if !self.active.is_empty() || self.batcher.pending() > 0 {
            let next_tick = SimTime(((t.0 / FLUSH_TICK_US) + 1) * FLUSH_TICK_US);
            if self.last_tick != Some(next_tick) {
                self.queue.schedule(t, next_tick, EventKind::Tick);
                self.last_tick = Some(next_tick);
            }
        }
    }

    /// Map batcher outcomes back onto session accumulators (canonical
    /// settle order = the batcher's EDF order).
    fn settle(&mut self, outcomes: &[crate::batcher::JobOutcome], obs: &mut Option<&mut Obs>) {
        for o in outcomes {
            // Invariant: a dead server settles no jobs — a failure drains
            // the batcher by *dropping* (charging `failed_in_flight`),
            // never by serving.
            self.inv.checks += 1;
            if self.dead {
                self.inv.violations += 1;
                debug_assert!(!self.dead, "dead server settled a job");
            }
            if let Some(ob) = obs.as_deref_mut() {
                ob.event(
                    "job.settle",
                    o.job.frame as u64,
                    self.now.0,
                    &[
                        ("server", FieldValue::U64(self.id as u64)),
                        ("session", FieldValue::U64(o.job.session as u64)),
                        ("chunk", FieldValue::U64(o.job.chunk as u64)),
                        (
                            "kind",
                            FieldValue::Str(match o.job.kind {
                                JobKind::Recovery => "recovery",
                                JobKind::Sr => "sr",
                            }),
                        ),
                        (
                            "service",
                            FieldValue::Str(match o.service {
                                Service::Full => "full",
                                Service::WarpOnly => "warp_only",
                                Service::Shed => "shed",
                            }),
                        ),
                        ("slack_secs", FieldValue::F64(o.slack_secs)),
                    ],
                );
            }
            let s = self
                .sessions
                .get_mut(&o.job.session)
                .expect("job outcome for a session not resident on this server");
            let acc = &mut s.chunks[o.job.chunk];
            let mut psnr = match (o.job.kind, o.service) {
                (JobKind::Recovery, Service::Full) => {
                    self.maps.recovered_psnr_at_depth(o.job.rung, o.job.chain)
                }
                (JobKind::Recovery, Service::WarpOnly) => {
                    s.counters.degraded += 1;
                    self.maps.warp_only_psnr_at_depth(o.job.rung, o.job.chain)
                }
                (JobKind::Recovery, Service::Shed) => {
                    s.counters.degraded += 1;
                    self.maps.reuse_psnr_at_depth(o.job.rung, o.job.chain)
                }
                (JobKind::Sr, Service::Full) => self.maps.sr_psnr[o.job.rung],
                (JobKind::Sr, _) => {
                    s.counters.sr_skipped += 1;
                    self.maps.plain_psnr[o.job.rung]
                }
            };
            if o.service == Service::Full {
                s.counters.full += 1;
                self.slacks.push(o.slack_secs);
                // A specialist head lifts every fully served frame; the
                // uplift ramps in as delta updates land.
                if let Some(m) = s.model.as_ref().filter(|_| self.cfg.model_plane.is_some()) {
                    if let Some(HeadId::Specialist(cat)) = HeadId::from_code(m.head) {
                        psnr += effective_uplift(cat, m.version);
                    }
                }
            }
            s.checksum += o.checksum;
            acc.psnr_sum += psnr;
            acc.resolved += 1;
        }
    }

    /// Flush the batcher now (tick, restart drain, handoff drain, or
    /// final drain) and settle the outcomes.
    fn flush_batcher(&mut self, obs: &mut Option<&mut Obs>) {
        if self.batcher.pending() == 0 {
            return;
        }
        let span_idx = self.id as u64 * 1_000_000 + self.flush_idx;
        if let Some(o) = obs.as_deref_mut() {
            o.open("fleet.flush", span_idx, self.now.0);
        }
        let outcomes = self.batcher.flush(self.now);
        self.settle(&outcomes, obs);
        if let Some(o) = obs.as_deref_mut() {
            o.close(self.now.0);
        }
        self.flush_idx += 1;
    }

    fn handle_restart(&mut self, obs: &mut Option<&mut Obs>) {
        let Some(r) = self.cfg.server_restart else {
            return;
        };
        // Drain everything already accounted (every pending job settles
        // through the normal path — nothing is dropped), then go dark;
        // ticks meanwhile skip the flush and jobs queue up.
        self.flush_batcher(obs);
        self.down_until = Some(SimTime::from_secs_f64(r.at_secs + r.down_secs));
        self.restarts += 1;
        if let Some(m) = &self.fm {
            m.server_restarts.inc();
        }
        if let Some(o) = obs.as_deref_mut() {
            o.event(
                "server.restart",
                self.id as u64,
                self.now.0,
                &[
                    ("server", FieldValue::U64(self.id as u64)),
                    ("down_secs", FieldValue::F64(r.down_secs)),
                ],
            );
        }
    }

    /// Apply every crash due for `session` (abort the in-flight download
    /// and hold the client offline), then arm the next one.
    fn handle_crash(&mut self, session: usize, obs: &mut Option<&mut Obs>) {
        let Some(mut s) = self.sessions.remove(&session) else {
            return; // handed off; its new server carries the crash plan
        };
        while let Some(&(at, down)) = s.crashes.first() {
            if SimTime::from_secs_f64(at) > self.now {
                break;
            }
            s.crashes.remove(0);
            let until = SimTime::from_secs_f64(at + down);
            let mut absorbed = true;
            match s.phase {
                Phase::Done => absorbed = false,
                Phase::Waiting { until: w } => {
                    s.counters.crashes += 1;
                    let wake = w.max(until);
                    s.phase = Phase::Waiting { until: wake };
                    self.queue
                        .schedule(self.now, wake, EventKind::Wake { session });
                }
                Phase::Downloading { rung, .. } => {
                    s.counters.crashes += 1;
                    s.rung_sum -= rung;
                    s.chunks[s.chunk_idx] = ChunkAcc::default();
                    s.phase = Phase::Waiting { until };
                    self.active.remove(&session);
                    self.queue
                        .schedule(self.now, until, EventKind::Wake { session });
                }
            }
            if absorbed {
                if let Some(m) = &self.fm {
                    m.crashes.inc();
                }
                if let Some(o) = obs.as_deref_mut() {
                    o.event(
                        "session.crash",
                        session as u64,
                        self.now.0,
                        &[
                            ("server", FieldValue::U64(self.id as u64)),
                            ("down_secs", FieldValue::F64(down)),
                        ],
                    );
                }
            }
        }
        if let Some(&(at, _)) = s.crashes.first() {
            self.queue.schedule(
                self.now,
                SimTime::from_secs_f64(at),
                EventKind::Crash { session },
            );
        }
        self.sessions.insert(session, s);
    }

    /// Wake a waiting session: run admission on its first request, then
    /// start its next chunk.
    fn handle_wake(&mut self, session: usize, obs: &mut Option<&mut Obs>) {
        let Some(s) = self.sessions.get(&session) else {
            return; // handed off
        };
        match s.phase {
            Phase::Waiting { until } if until <= self.now => {}
            _ => return, // stale wake (deadline moved) or already active
        }
        let mut s = self.sessions.remove(&session).unwrap();
        let top_rung = self.cfg.ladder_kbps.len() - 1;
        if !s.admitted && !s.rejected {
            let cfg = self.cfg;
            match self
                .admission
                .admit(self.now, top_rung, |cap| demand_at(cfg, cap))
            {
                Admission::Accept => {
                    s.admitted = true;
                    if let Some(m) = &self.fm {
                        m.accepted.inc();
                    }
                    if let Some(o) = obs.as_deref_mut() {
                        o.event(
                            "admission",
                            session as u64,
                            self.now.0,
                            &[
                                ("server", FieldValue::U64(self.id as u64)),
                                ("decision", FieldValue::Str("accept")),
                            ],
                        );
                    }
                }
                Admission::Downgrade { cap } => {
                    let inner = make_abr(self.maps, s.class);
                    s.abr = Box::new(CappedAbr::new(inner, cap));
                    s.cap = Some(cap);
                    s.admitted = true;
                    if let Some(m) = &self.fm {
                        m.downgraded.inc();
                    }
                    if let Some(o) = obs.as_deref_mut() {
                        o.event(
                            "admission",
                            session as u64,
                            self.now.0,
                            &[
                                ("server", FieldValue::U64(self.id as u64)),
                                ("decision", FieldValue::Str("downgrade")),
                                ("cap", FieldValue::U64(cap as u64)),
                            ],
                        );
                    }
                }
                Admission::Reject => {
                    s.rejected = true;
                    s.phase = Phase::Done;
                    self.undone -= 1;
                    if let Some(m) = &self.fm {
                        m.rejected.inc();
                    }
                    if let Some(o) = obs.as_deref_mut() {
                        o.event(
                            "admission",
                            session as u64,
                            self.now.0,
                            &[
                                ("server", FieldValue::U64(self.id as u64)),
                                ("decision", FieldValue::Str("reject")),
                            ],
                        );
                    }
                    self.sessions.insert(session, s);
                    return;
                }
            }
        }
        // Model-plane head assignment: once per session, at its first
        // admitted wake. Basic clients run no enhancement and skip the
        // plane entirely; a handed-off session arrives with its model in
        // the ticket and is never re-fingerprinted.
        if s.model.is_none() && s.class.recovery() {
            if let Some(mp) = self.cfg.model_plane.as_ref() {
                let cache = self.cache.as_mut().expect("model plane implies a cache");
                let category = session_category(session);
                let (head, confidence) = if mp.force_generic {
                    (HeadId::Generic, 1.0)
                } else {
                    let fp = Fingerprint::probe_memo(self.cfg.seed, session as u64, category);
                    let d = Classifier::shared().classify(&fp);
                    (d.head(CONFIDENCE_FLOOR), d.confidence)
                };
                let bytes = artifact_bytes(head);
                let outcome = cache.request(head, bytes);
                s.model = Some(SessionModel {
                    head: head.code(),
                    confidence,
                    category: category as u8,
                    version: 0,
                    applied: 0,
                    rejected: 0,
                });
                if let Some(o) = obs.as_deref_mut() {
                    o.event(
                        "model.assign",
                        session as u64,
                        self.now.0,
                        &[
                            ("server", FieldValue::U64(self.id as u64)),
                            ("head", FieldValue::U64(head.code() as u64)),
                            ("category", FieldValue::U64(category as u64)),
                            ("confidence", FieldValue::F64(confidence)),
                            ("hit", FieldValue::U64(outcome.is_hit() as u64)),
                        ],
                    );
                }
                if !outcome.is_hit() {
                    // Cold load: charge the compute budget and push the
                    // first chunk request out by the load latency.
                    self.admission
                        .charge_load(self.now, bytes as f64 * mp.load_macs_per_byte);
                    let delay = bytes as f64 / (1024.0 * 1024.0) * mp.load_secs_per_mb;
                    if delay > 0.0 {
                        let until = self.now + SimTime::from_secs_f64(delay);
                        s.phase = Phase::Waiting { until };
                        self.queue
                            .schedule(self.now, until, EventKind::Wake { session });
                        self.sessions.insert(session, s);
                        return;
                    }
                }
            }
        }
        if s.chunk_idx >= self.cfg.chunks_per_session {
            s.phase = Phase::Done;
            self.undone -= 1;
            self.sessions.insert(session, s);
            return;
        }
        // Drain the buffer for the idle time since it was last updated
        // (completion or drain-wait end to now).
        let idle = self.now.saturating_sub(s.buffer_asof).as_secs_f64();
        s.buffer_secs = (s.buffer_secs - idle).max(0.0);
        s.buffer_asof = self.now;
        s.ctx.buffer_secs = s.buffer_secs;
        let rung = s.abr.choose(&s.ctx).min(top_rung);
        s.ctx.last_choice = rung;
        let bytes = f64::from(self.cfg.ladder_kbps[rung]) * 1000.0 / 8.0 * CHUNK_SECS;
        s.rung_sum += rung;
        s.chunks[s.chunk_idx].started = true;
        s.chunks[s.chunk_idx].rung = rung;
        s.chunks[s.chunk_idx].frames = self.cfg.frames_per_chunk;
        s.phase = Phase::Downloading {
            rung,
            bytes_left: bytes,
            bytes_total: bytes,
            started: self.now,
            buffer_at_start: s.buffer_secs,
        };
        self.active.insert(session);
        self.sessions.insert(session, s);
    }

    /// Classify a finished chunk's frames, enqueue enhancement work, and
    /// move the session to its next phase.
    fn handle_completion(&mut self, session: usize, obs: &mut Option<&mut Obs>) {
        let mut s = self.sessions.remove(&session).unwrap();
        let (rung, bytes_total, started, buffer_at_start) = match s.phase {
            Phase::Downloading {
                rung,
                bytes_total,
                started,
                buffer_at_start,
                ..
            } => (rung, bytes_total, started, buffer_at_start),
            _ => unreachable!("completion scan found a non-downloading session"),
        };
        let cfg = self.cfg;
        let delta = CHUNK_SECS / cfg.frames_per_chunk as f64;
        let dl_secs = self.now.saturating_sub(started).as_secs_f64().max(1e-6);
        let rebuffer = (dl_secs - buffer_at_start).max(0.0);
        s.rebuffer_total += rebuffer;
        let chunk = s.chunk_idx;
        s.chunks[chunk].rebuffer_secs = rebuffer;

        // Frame classification. Playback of this chunk begins once the
        // buffer (plus any stall) allows: frame i plays at
        // `started + buffer_at_start + rebuffer + i·delta` — by
        // construction at or after its own (fluid) arrival, so damage
        // comes from the loss processes and deadline pressure comes from
        // the *server*, which is the contended resource this subsystem
        // models.
        let play_base = buffer_at_start + rebuffer;
        let pkts_per_frame =
            ((bytes_total / cfg.frames_per_chunk as f64) / PACKET_BYTES as f64).ceil() as usize;
        let mut damaged_frames = 0usize;
        for frame in 0..cfg.frames_per_chunk {
            let arr = started
                + SimTime::from_secs_f64(
                    dl_secs * (frame + 1) as f64 / cfg.frames_per_chunk as f64,
                );
            let deadline = started + SimTime::from_secs_f64(play_base + frame as f64 * delta);
            let mut damaged = false;
            for _ in 0..pkts_per_frame.max(1) {
                damaged |= s.loss.lose();
            }
            damaged |= s.overlay.lose_at(arr, (chunk * 1000 + frame) as u64);
            if damaged {
                damaged_frames += 1;
                s.chain += 1;
                if s.class.recovery() {
                    s.counters.jobs += 1;
                    if let Some(m) = &self.fm {
                        m.jobs_enqueued.inc();
                    }
                    self.batcher.enqueue(InferenceJob {
                        session,
                        chunk,
                        frame,
                        kind: JobKind::Recovery,
                        rung,
                        chain: s.chain,
                        deadline,
                    });
                } else {
                    s.counters.freezes += 1;
                    s.chunks[chunk].psnr_sum += self.maps.reuse_psnr_at_depth(rung, s.chain);
                    s.chunks[chunk].resolved += 1;
                }
            } else {
                s.chain = 0;
                if s.class.sr() && frame % cfg.anchor_stride == 0 {
                    s.counters.jobs += 1;
                    if let Some(m) = &self.fm {
                        m.jobs_enqueued.inc();
                    }
                    self.batcher.enqueue(InferenceJob {
                        session,
                        chunk,
                        frame,
                        kind: JobKind::Sr,
                        rung,
                        chain: 0,
                        deadline,
                    });
                } else {
                    s.chunks[chunk].psnr_sum += self.maps.plain_psnr[rung];
                    s.chunks[chunk].resolved += 1;
                }
            }
        }

        // ABR observations and buffer update.
        let tput_kbps = bytes_total * 8.0 / 1000.0 / dl_secs;
        s.ctx.throughput_kbps.push(tput_kbps);
        s.ctx
            .loss_rates
            .push(damaged_frames as f64 / cfg.frames_per_chunk as f64);
        if s.ctx.throughput_kbps.len() > 8 {
            s.ctx.throughput_kbps.remove(0);
            s.ctx.loss_rates.remove(0);
        }
        s.buffer_secs = (buffer_at_start - dl_secs).max(0.0) + CHUNK_SECS;
        s.buffer_asof = self.now;
        s.chunk_idx += 1;

        // Delta weight updates: after every chunk, ship the next
        // `"NRVM"` frame to a specialist session until it reaches the
        // target version. The update round-trips through the real codec
        // against replayed weights — a refusal is counted on the
        // session, never fatal.
        if let Some(m) = s.model.as_mut().filter(|_| cfg.model_plane.is_some()) {
            if m.version < DELTA_UPDATES {
                if let Some(head @ HeadId::Specialist(_)) = HeadId::from_code(m.head) {
                    let frame = delta_for(cfg.seed, head, m.version).to_bytes();
                    let mut w = weights_at(cfg.seed, head, m.version);
                    let outcome = WeightDelta::from_bytes(&frame)
                        .map_err(DeltaError::from)
                        .and_then(|d| d.apply(&mut w));
                    let ok = outcome.is_ok();
                    if ok {
                        m.version += 1;
                        m.applied += 1;
                    } else {
                        m.rejected += 1;
                    }
                    if let Some(o) = obs.as_deref_mut() {
                        o.event(
                            "model.delta",
                            session as u64,
                            self.now.0,
                            &[
                                ("server", FieldValue::U64(self.id as u64)),
                                ("head", FieldValue::U64(m.head as u64)),
                                ("version", FieldValue::U64(m.version as u64)),
                                ("ok", FieldValue::U64(ok as u64)),
                            ],
                        );
                    }
                }
            }
        }

        if s.chunk_idx >= cfg.chunks_per_session {
            s.phase = Phase::Done;
            self.undone -= 1;
        } else if s.buffer_secs > MAX_BUFFER_SECS {
            // Hold the next request until the buffer drains back to the
            // cap (the wake-up path drains it by the idle time).
            let wait = s.buffer_secs - MAX_BUFFER_SECS;
            let until = self.now + SimTime::from_secs_f64(wait);
            s.phase = Phase::Waiting { until };
            self.queue
                .schedule(self.now, until, EventKind::Wake { session });
        } else {
            s.phase = Phase::Waiting { until: self.now };
            self.queue
                .schedule(self.now, self.now, EventKind::Wake { session });
        }
        self.active.remove(&session);
        self.sessions.insert(session, s);
    }

    /// Completions detected at this instant (fluid downloads that ran
    /// out of bytes), in ascending session id — the canonical order.
    fn scan_completions(&mut self, obs: &mut Option<&mut Obs>) {
        let done: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|id| {
                matches!(
                    self.sessions[id].phase,
                    Phase::Downloading { bytes_left, .. } if bytes_left <= 1e-6
                )
            })
            .collect();
        for id in done {
            self.handle_completion(id, obs);
        }
    }

    /// Everything that happens at the tail of a processed instant:
    /// completion scan, then the tick flush if this instant sits on a
    /// flush boundary and the server is up.
    fn settle_instant(&mut self, obs: &mut Option<&mut Obs>) {
        self.scan_completions(obs);
        if self.server_up() && self.now.0.is_multiple_of(FLUSH_TICK_US) {
            self.flush_batcher(obs);
        }
        // Session-conservation census (debug builds): every resident
        // non-Done session is counted by `undone`, and a dead server
        // holds no sessions at all. It only asserts and never counts
        // into `inv`, so digests and checkpoint frames are the same in
        // every build profile.
        #[cfg(debug_assertions)]
        {
            let live = self
                .sessions
                .values()
                .filter(|s| !matches!(s.phase, Phase::Done))
                .count();
            debug_assert_eq!(live, self.undone, "undone counter out of sync");
            debug_assert!(
                !self.dead || self.sessions.is_empty(),
                "dead server still holds sessions"
            );
        }
        if self.undone == 0 && self.arriving.is_empty() {
            self.done = true;
        }
    }

    /// Process every event due at or before `stop`. Returns with
    /// `now <= stop`; events beyond the barrier stay queued.
    pub(crate) fn run_until(&mut self, stop: SimTime, obs: &mut Option<&mut Obs>) {
        if self.done {
            return;
        }
        if self.skip_entry_refresh {
            // First call after a checkpoint restore: the serialized
            // state already reflects the refresh that followed the last
            // processed instant.
            self.skip_entry_refresh = false;
        } else {
            self.refresh();
        }
        while !self.done {
            let Some(ev) = self.queue.peek() else {
                break;
            };
            if ev.at > stop {
                break;
            }
            let at = ev.at;
            debug_assert!(at >= self.now, "event queue proposed time travel");
            self.advance_to(at);
            while let Some(e) = self.queue.pop_due(at) {
                self.events += 1;
                match e.kind {
                    EventKind::Restart => self.handle_restart(obs),
                    EventKind::Arrive { session } => self.handle_arrive(session, obs),
                    EventKind::Crash { session } => self.handle_crash(session, obs),
                    EventKind::Wake { session } => self.handle_wake(session, obs),
                    // Completion probes and ticks only materialize the
                    // instant; the scan/flush below does the work.
                    EventKind::Completion { .. } | EventKind::Tick => {}
                }
            }
            self.settle_instant(obs);
            if self.done {
                break;
            }
            self.refresh();
        }
    }

    /// Advance the fluid state to the barrier instant `at` (no events
    /// may remain due before it) and re-evaluate rates there. Handoffs
    /// call this on both endpoints so extraction and installation see a
    /// consistent clock.
    pub(crate) fn sync_to(&mut self, at: SimTime, obs: &mut Option<&mut Obs>) {
        debug_assert!(self.queue.peek().is_none_or(|e| e.at >= at) || self.done);
        if at > self.now {
            self.advance_to(at);
            self.scan_completions(obs);
        }
        self.refresh();
    }

    /// Serialize `session` out of this server for a handoff. The
    /// batcher is drained first (an off-tick flush, exactly like the
    /// restart path) so no in-flight job references a departed session.
    pub(crate) fn extract_session(
        &mut self,
        session: usize,
        at: SimTime,
        obs: &mut Option<&mut Obs>,
    ) -> Vec<u8> {
        self.sync_to(at, obs);
        self.flush_batcher(obs);
        let s = self
            .sessions
            .remove(&session)
            .expect("handoff source does not hold the session");
        self.active.remove(&session);
        if !matches!(s.phase, Phase::Done) {
            self.undone -= 1;
        }
        self.handoffs_out += 1;
        let ticket = crate::handoff::encode_session(session, &s);
        self.refresh();
        ticket
    }

    /// Install a handoff ticket. The ticket is decoded, re-encoded, and
    /// verified byte-identical — the digest-identity contract of the
    /// handoff checkpoint.
    pub(crate) fn install_ticket(
        &mut self,
        ticket: &[u8],
        at: SimTime,
        obs: &mut Option<&mut Obs>,
    ) {
        self.sync_to(at, obs);
        let (session, s) = crate::handoff::decode_session(self.cfg, self.maps, ticket)
            .expect("handoff ticket failed to decode");
        let reencoded = crate::handoff::encode_session(session, &s);
        assert_eq!(
            reencoded, ticket,
            "handoff ticket must round-trip byte-identically"
        );
        // A migrating session's head must be resident here too: the
        // arrival counts against this server's cache, and a miss charges
        // its compute budget. No start delay is modelled — the artifact
        // transfer overlaps the handoff itself.
        if let (Some(mp), Some(m)) = (self.cfg.model_plane.as_ref(), s.model.as_ref()) {
            if let Some(head) = HeadId::from_code(m.head) {
                let cache = self.cache.as_mut().expect("model plane implies a cache");
                let bytes = artifact_bytes(head);
                if !cache.request(head, bytes).is_hit() {
                    self.admission
                        .charge_load(self.now, bytes as f64 * mp.load_macs_per_byte);
                }
            }
        }
        match s.phase {
            Phase::Done => {}
            Phase::Waiting { until } => {
                self.undone += 1;
                self.done = false;
                self.queue
                    .schedule(self.now, until, EventKind::Wake { session });
            }
            Phase::Downloading { .. } => {
                self.undone += 1;
                self.done = false;
                self.active.insert(session);
            }
        }
        if let Some(&(crash_at, _)) = s.crashes.first() {
            self.queue.schedule(
                self.now,
                SimTime::from_secs_f64(crash_at),
                EventKind::Crash { session },
            );
        }
        self.handoffs_in += 1;
        self.sessions.insert(session, s);
        self.refresh();
    }

    /// Fail-stop this server at `at`: every in-flight batcher job is
    /// *dropped* (charged to its session as `failed_in_flight`, never
    /// served), every resident session — plus any evacuation still
    /// pending arrival here — is serialized into an NRVT ticket, and the
    /// server goes dark until [`rejoin`](Self::rejoin). Returns the
    /// evacuation tickets in ascending session id; the orchestrator owns
    /// re-placement and the retry/backoff transfer.
    pub(crate) fn fail(
        &mut self,
        at: SimTime,
        obs: &mut Option<&mut Obs>,
    ) -> Vec<(usize, Vec<u8>)> {
        self.sync_to(at, obs);
        let mut dropped = 0u64;
        for job in self.batcher.take_pending() {
            // Invariant: every in-flight job belongs to a resident
            // session — otherwise its drop would vanish from the
            // accounting identity.
            self.inv.checks += 1;
            let Some(s) = self.sessions.get_mut(&job.session) else {
                self.inv.violations += 1;
                debug_assert!(false, "in-flight job for a non-resident session");
                continue;
            };
            s.counters.failed_in_flight += 1;
            self.failc.jobs_failed += 1;
            dropped += 1;
        }
        // Evacuate everything — Done sessions included, their results
        // must still surface exactly once — in ascending id.
        let mut out: Vec<(usize, Vec<u8>)> = Vec::new();
        for (id, s) in std::mem::take(&mut self.sessions) {
            if !matches!(s.phase, Phase::Done) {
                self.undone -= 1;
            }
            self.failc.evac_out += 1;
            out.push((id, crate::handoff::encode_session(id, &s)));
        }
        for (id, a) in std::mem::take(&mut self.arriving) {
            self.failc.evac_out += 1;
            out.push((id, crate::handoff::encode_session(id, &a.s)));
        }
        out.sort_by_key(|&(id, _)| id);
        debug_assert_eq!(self.undone, 0, "evacuation must drain the undone count");
        self.dead = true;
        self.done = true;
        self.down_until = None;
        self.active.clear();
        self.rates.clear();
        self.queue.clear();
        self.last_tick = None;
        self.failc.failures += 1;
        if let Some(m) = &self.fm {
            m.server_failures.inc();
        }
        if let Some(o) = obs.as_deref_mut() {
            o.event(
                "failover.server_fail",
                self.id as u64,
                self.now.0,
                &[
                    ("server", FieldValue::U64(self.id as u64)),
                    ("evacuated", FieldValue::U64(out.len() as u64)),
                    ("jobs_failed", FieldValue::U64(dropped)),
                ],
            );
        }
        out
    }

    /// Bring a failed server back at `at`. Models a fast process restart
    /// on the same box: the weight cache stays warm, the admission
    /// buckets resume where they were. The server re-enters placement
    /// only after the health machine walks it through probation — rejoin
    /// itself installs nothing.
    pub(crate) fn rejoin(&mut self, at: SimTime, obs: &mut Option<&mut Obs>) {
        self.sync_to(at, obs);
        self.dead = false;
        self.failc.rejoins += 1;
        if let Some(o) = obs.as_deref_mut() {
            o.event(
                "failover.rejoin",
                self.id as u64,
                self.now.0,
                &[("server", FieldValue::U64(self.id as u64))],
            );
        }
        self.refresh();
    }

    /// Land an evacuation ticket on this server. The ticket is verified
    /// byte-identical under re-encode (the same contract as a planned
    /// handoff), then parked in the arrival bay until its
    /// [`EventKind::Arrive`] fires at `land` — the instant the
    /// retry/backoff transfer actually delivered it. `readmit` marks a
    /// session whose ticket could not land before its playout deadline:
    /// it stalls and re-enters through normal admission.
    pub(crate) fn install_evacuation(
        &mut self,
        ticket: &[u8],
        at: SimTime,
        land: SimTime,
        fail_at: SimTime,
        readmit: bool,
        obs: &mut Option<&mut Obs>,
    ) {
        self.sync_to(at, obs);
        // A server that drained to `done` parks its event loop with
        // moot calendar entries still queued (a tick instant that never
        // ran). Reviving it makes those entries past-due — drop them,
        // or the next run_until would replay history.
        if self.done {
            while self.queue.pop_due(self.now).is_some() {}
        }
        let (session, s) = crate::handoff::decode_session(self.cfg, self.maps, ticket)
            .expect("evacuation ticket failed to decode");
        let reencoded = crate::handoff::encode_session(session, &s);
        assert_eq!(
            reencoded, ticket,
            "evacuation ticket must round-trip byte-identically"
        );
        self.arriving.insert(
            session,
            ArrivingSession {
                s,
                fail_at,
                readmit,
            },
        );
        self.done = false;
        self.queue
            .schedule(self.now, land, EventKind::Arrive { session });
        self.refresh();
    }

    /// An evacuated session's ticket finishes its transfer and the
    /// session resumes here. Walks the degradation ladder: **warp** when
    /// the playout buffer covered the outage, **freeze** when it partly
    /// did (the uncovered seconds are charged as rebuffer), **stall**
    /// when the freeze exceeds a chunk duration or the ticket was lost
    /// and the session must re-enter through admission (cold weight
    /// cache and all — degraded-capacity operation means it may now be
    /// downgraded or rejected).
    fn handle_arrive(&mut self, session: usize, obs: &mut Option<&mut Obs>) {
        let Some(ArrivingSession {
            mut s,
            fail_at,
            readmit,
        }) = self.arriving.remove(&session)
        else {
            return; // re-evacuated while pending (this server failed too)
        };
        let land = self.now;
        self.failc.evac_in += 1;
        if let Some(m) = &self.fm {
            m.evacuations.inc();
        }
        // The artifact residency cost of landing here: same as a planned
        // handoff, except nothing was prefetched — failover pays the
        // cold-cache miss through the compute budget.
        if !matches!(s.phase, Phase::Done) {
            if let (Some(mp), Some(m)) = (self.cfg.model_plane.as_ref(), s.model.as_ref()) {
                if let Some(head) = HeadId::from_code(m.head) {
                    let cache = self.cache.as_mut().expect("model plane implies a cache");
                    let bytes = artifact_bytes(head);
                    if !cache.request(head, bytes).is_hit() {
                        self.admission
                            .charge_load(self.now, bytes as f64 * mp.load_macs_per_byte);
                    }
                }
            }
        }
        let label = if matches!(s.phase, Phase::Done) {
            "done"
        } else {
            s.counters.evacuations += 1;
            if readmit {
                // Lost-ticket path: the budget burned end to end. Abort
                // the in-flight chunk exactly as a client crash does,
                // zero the buffer, and strip admission so the session
                // re-enters through the front door.
                if let Phase::Downloading { rung, .. } = s.phase {
                    s.rung_sum -= rung;
                    s.chunks[s.chunk_idx] = ChunkAcc::default();
                }
                if s.chunk_idx > 0 {
                    s.rebuffer_total += land.saturating_sub(fail_at).as_secs_f64();
                }
                s.admitted = false;
                s.cap = None;
                s.abr = make_abr(self.maps, s.class);
                s.ctx = AbrContext::bootstrap(
                    self.cfg.ladder_kbps.clone(),
                    CHUNK_SECS,
                    self.cfg.frames_per_chunk,
                );
                s.buffer_secs = 0.0;
                s.buffer_asof = land;
                s.phase = Phase::Waiting { until: land };
                self.failc.evac_stall += 1;
                "stall"
            } else {
                let freeze = match s.phase {
                    Phase::Waiting { until } => {
                        // The session would have resumed at
                        // `max(until, fail)`; lateness beyond that eats
                        // the buffer cushion first, the rest freezes.
                        let resume = until.max(fail_at);
                        let late = land.saturating_sub(resume).as_secs_f64();
                        let drained = resume.saturating_sub(s.buffer_asof).as_secs_f64();
                        let cushion = (s.buffer_secs - drained).max(0.0);
                        let freeze = (late - cushion).max(0.0);
                        if freeze > 0.0 && s.chunk_idx > 0 {
                            s.rebuffer_total += freeze;
                        }
                        s.phase = Phase::Waiting {
                            until: until.max(land),
                        };
                        freeze
                    }
                    Phase::Downloading {
                        started,
                        buffer_at_start,
                        ..
                    } => {
                        // Classification-only estimate: the download's
                        // clock kept running through the outage, so the
                        // completion path charges the rebuffer — an
                        // explicit charge here would double-count.
                        let late = land.saturating_sub(fail_at).as_secs_f64();
                        let spent = fail_at.saturating_sub(started).as_secs_f64();
                        let cushion = (buffer_at_start - spent).max(0.0);
                        (late - cushion).max(0.0)
                    }
                    Phase::Done => unreachable!(),
                };
                if freeze <= 0.0 {
                    self.failc.evac_warp += 1;
                    "warp"
                } else if freeze < CHUNK_SECS {
                    self.failc.evac_freeze += 1;
                    "freeze"
                } else {
                    self.failc.evac_stall += 1;
                    "stall"
                }
            }
        };
        match s.phase {
            Phase::Done => {}
            Phase::Waiting { until } => {
                self.undone += 1;
                self.done = false;
                self.queue
                    .schedule(self.now, until, EventKind::Wake { session });
            }
            Phase::Downloading { .. } => {
                self.undone += 1;
                self.done = false;
                self.active.insert(session);
            }
        }
        if let Some(&(crash_at, _)) = s.crashes.first() {
            self.queue.schedule(
                self.now,
                SimTime::from_secs_f64(crash_at),
                EventKind::Crash { session },
            );
        }
        if let Some(o) = obs.as_deref_mut() {
            o.event(
                "failover.arrive",
                session as u64,
                self.now.0,
                &[
                    ("server", FieldValue::U64(self.id as u64)),
                    ("outcome", FieldValue::Str(label)),
                    (
                        "latency_secs",
                        FieldValue::F64(land.saturating_sub(fail_at).as_secs_f64()),
                    ),
                    ("readmit", FieldValue::U64(readmit as u64)),
                ],
            );
        }
        self.sessions.insert(session, s);
    }

    /// Drain and fold the server into a plain-data partial result.
    pub(crate) fn finish(
        &mut self,
        hard_stop: SimTime,
        obs: &mut Option<&mut Obs>,
    ) -> ServerPartial {
        // Evacuations whose landing instant fell past the hard stop
        // never saw their Arrive event: materialize them as residents so
        // the conservation invariant (every admitted session surfaces
        // exactly once) holds at assembly.
        let pending: Vec<usize> = self.arriving.keys().copied().collect();
        for id in pending {
            let a = self.arriving.remove(&id).expect("key just listed");
            self.sessions.insert(id, a.s);
        }
        if self.undone > 0 && self.now < hard_stop {
            // Timed out mid-flight: advance the fluid state to the stop
            // and run one last completion scan there, as the old loop's
            // final iteration did.
            self.advance_to(hard_stop);
            self.scan_completions(obs);
        }
        // A hard stop can leave sessions mid-download: the in-flight
        // chunk's rung was charged at request time but never completed,
        // so leaving the charge would inflate `mean_rung` past the
        // ladder. Revert it, exactly as the crash-abort path does.
        for s in self.sessions.values_mut() {
            if let Phase::Downloading { rung, .. } = s.phase {
                s.rung_sum -= rung;
            }
        }
        // Drain whatever is still queued (sessions that finished between
        // ticks, or the hard-stop path).
        self.flush_batcher(obs);
        let sessions = std::mem::take(&mut self.sessions)
            .into_iter()
            .map(|(id, s)| SessionDone {
                id,
                class: s.class,
                cap: s.cap,
                rejected: s.rejected,
                server: self.id,
                chunks: s.chunks,
                chunk_idx: s.chunk_idx,
                rung_sum: s.rung_sum,
                counters: s.counters,
                checksum: s.checksum,
                rebuffer_total: s.rebuffer_total,
                model: s.model,
            })
            .collect();
        ServerPartial {
            id: self.id,
            accepted: self.admission.accepted,
            downgraded: self.admission.downgraded,
            rejected: self.admission.rejected,
            batcher: self.batcher.stats(),
            slacks: std::mem::take(&mut self.slacks),
            restarts: self.restarts,
            handoffs_in: self.handoffs_in,
            handoffs_out: self.handoffs_out,
            events: self.events,
            virtual_secs: self.now.as_secs_f64(),
            sessions,
            cache: self.cache.as_ref().map(|c| c.stats()),
            failc: self.failc,
            inv: self.inv,
        }
    }

    /// Snapshot everything mutable about this server at a barrier
    /// instant (the fleet driver first runs the server to that instant).
    /// Sessions ride the NRVT ticket codec; the calendar queue travels
    /// as its sorted event list (the heap's total order makes pop order
    /// a pure function of the set).
    pub(crate) fn checkpoint_state(&self) -> ServerCkpt {
        ServerCkpt {
            now: self.now,
            gen: self.gen,
            events: self.events,
            last_tick: self.last_tick,
            down_until: self.down_until,
            dead: self.dead,
            done: self.done,
            restarts: self.restarts,
            handoffs_in: self.handoffs_in,
            handoffs_out: self.handoffs_out,
            flush_idx: self.flush_idx,
            failc: self.failc,
            inv: self.inv,
            slacks: self.slacks.clone(),
            admission: self.admission.state(),
            batcher_jobs: self.batcher.pending_jobs().to_vec(),
            batcher_stats: self.batcher.stats(),
            breaker: self.batcher.breaker_snapshot(),
            cache: self.cache.as_ref().map(|c| c.state()),
            sessions: self
                .sessions
                .iter()
                .map(|(id, s)| crate::handoff::encode_session(*id, s))
                .collect(),
            arriving: self
                .arriving
                .iter()
                .map(|(id, a)| {
                    (
                        a.fail_at.0,
                        a.readmit,
                        crate::handoff::encode_session(*id, &a.s),
                    )
                })
                .collect(),
            queue: self.queue.sorted_events(),
        }
    }

    /// Restore a [`checkpoint_state`](Self::checkpoint_state) snapshot
    /// onto a freshly built server. Derived state (`undone`, `active`,
    /// fair-share rates) is recomputed; the next `run_until` entry
    /// refreshes rates exactly as the original run did at this barrier,
    /// so the resumed run replays byte-identically.
    pub(crate) fn restore_state(&mut self, ckpt: ServerCkpt) {
        // A fresh server auto-schedules its planned Restart event; the
        // checkpoint queue already carries it (or it already fired).
        self.queue.clear();
        self.now = ckpt.now;
        self.gen = ckpt.gen;
        self.events = ckpt.events;
        self.last_tick = ckpt.last_tick;
        self.down_until = ckpt.down_until;
        self.dead = ckpt.dead;
        self.done = ckpt.done;
        self.restarts = ckpt.restarts;
        self.handoffs_in = ckpt.handoffs_in;
        self.handoffs_out = ckpt.handoffs_out;
        self.flush_idx = ckpt.flush_idx;
        self.failc = ckpt.failc;
        self.inv = ckpt.inv;
        self.slacks = ckpt.slacks;
        self.admission.restore(ckpt.admission);
        self.batcher
            .restore_state(ckpt.batcher_jobs, &ckpt.batcher_stats, ckpt.breaker);
        if let (Some(c), Some(st)) = (self.cache.as_mut(), ckpt.cache) {
            c.restore(st);
        }
        self.undone = 0;
        self.active.clear();
        for t in &ckpt.sessions {
            let (id, s) = crate::handoff::decode_session(self.cfg, self.maps, t)
                .expect("checkpoint ticket failed to decode");
            match s.phase {
                Phase::Done => {}
                Phase::Waiting { .. } => self.undone += 1,
                Phase::Downloading { .. } => {
                    self.undone += 1;
                    self.active.insert(id);
                }
            }
            self.sessions.insert(id, s);
        }
        for (fail_us, readmit, t) in ckpt.arriving {
            let (id, s) = crate::handoff::decode_session(self.cfg, self.maps, &t)
                .expect("checkpoint arrival ticket failed to decode");
            self.arriving.insert(
                id,
                ArrivingSession {
                    s,
                    fail_at: SimTime(fail_us),
                    readmit,
                },
            );
        }
        for ev in ckpt.queue {
            self.queue.schedule(SimTime::ZERO, ev.at, ev.kind);
        }
        // Rebuild the exact fair-share rates the checkpointed run held
        // (without a generation bump) and arm the entry-refresh skip so
        // the resumed run_until replays the identical event stream.
        self.recompute_rates();
        self.skip_entry_refresh = true;
    }
}

/// Plain-data snapshot of one server for the fleet checkpoint codec.
pub(crate) struct ServerCkpt {
    pub now: SimTime,
    pub gen: u64,
    pub events: u64,
    pub last_tick: Option<SimTime>,
    pub down_until: Option<SimTime>,
    pub dead: bool,
    pub done: bool,
    pub restarts: usize,
    pub handoffs_in: usize,
    pub handoffs_out: usize,
    pub flush_idx: u64,
    pub failc: ServerFailureCounters,
    pub inv: InvariantReport,
    pub slacks: Vec<f64>,
    pub admission: AdmissionState,
    pub batcher_jobs: Vec<InferenceJob>,
    pub batcher_stats: BatcherStats,
    pub breaker: Option<nerve_core::BreakerSnapshot>,
    pub cache: Option<WeightCacheState>,
    /// Resident sessions as NRVT tickets, ascending id.
    pub sessions: Vec<Vec<u8>>,
    /// Pending arrivals: `(fail_at_micros, readmit, ticket)`.
    pub arriving: Vec<(u64, bool, Vec<u8>)>,
    /// The calendar queue in pop order.
    pub queue: Vec<Event>,
}

nerve_net::wire_record!(ServerCkpt {
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
    queue
});

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite-1 semantics, pinned: a session whose overlay is *less*
    /// impaired than the fleet keeps its full fair share of the
    /// (already fleet-scaled) pool — no `.min(1.0)` cap, no division.
    #[test]
    fn overlay_better_than_fleet_is_not_capped() {
        // Pool already carries the fleet's 0.3 collapse; a clean session
        // (own factor 1.0) must get its exact weighted share of it.
        let rates = fair_share_rates(300.0, &[(2.0, 1.0), (1.0, 1.0)]);
        assert_eq!(rates, vec![200.0, 100.0]);
    }

    /// Satellite-1 semantics, pinned: during a fleet blackout the pool
    /// is zero, and a clean overlay session simply gets zero — the
    /// formula must not need a `fleet_factor == 0` special case, and
    /// must recover the full share the instant the pool returns.
    #[test]
    fn fleet_blackout_zeroes_rates_through_the_pool_only() {
        let entries = [(1.0, 1.0), (1.0, 0.7)];
        assert_eq!(fair_share_rates(0.0, &entries), vec![0.0, 0.0]);
        let after = fair_share_rates(100.0, &entries);
        assert_eq!(after[0], 50.0, "clean session resumes at full share");
        assert!((after[1] - 35.0).abs() < 1e-12);
    }

    /// Dead sessions (own blackout) release their weight: the live
    /// session's denominator shrinks, so capacity redistributes instead
    /// of evaporating. This is the work-conservation half of the fix —
    /// the old formula kept the dead session's weight in the
    /// denominator.
    #[test]
    fn dead_session_weight_redistributes_to_live_sessions() {
        let rates = fair_share_rates(120.0, &[(2.0, 0.0), (1.0, 1.0), (1.0, 1.0)]);
        assert_eq!(rates, vec![0.0, 60.0, 60.0]);
    }

    #[test]
    fn all_dead_yields_all_zero_without_nan() {
        let rates = fair_share_rates(120.0, &[(2.0, 0.0), (1.0, 0.0)]);
        assert_eq!(rates, vec![0.0, 0.0]);
    }

    /// A partially collapsed session keeps its own factor applied to its
    /// own share only; the released remainder is *not* redistributed
    /// (only fully dead sessions release weight) — pinning the
    /// boundary of the redistribution rule.
    #[test]
    fn partial_collapse_scales_own_share_only() {
        let rates = fair_share_rates(100.0, &[(1.0, 0.5), (1.0, 1.0)]);
        assert_eq!(rates, vec![25.0, 50.0]);
    }
}
