//! `nerve-serve`: a deterministic multi-session edge server.
//!
//! The client-side crates model one phone recovering one stream. This
//! crate models the other end of the deployment story: an edge server
//! terminating N concurrent sessions that share an uplink and a single
//! enhancement backbone. Three pieces compose:
//!
//! * [`fleet`] — a virtual-time event loop interleaving per-session
//!   chunk downloads over a shared [`nerve_net::trace::NetworkTrace`]
//!   capacity pool (weighted fair share, per-session
//!   [`nerve_net::faults::FaultPlan`] overlays merged onto the fleet
//!   plan).
//! * [`batcher`] — a cross-session inference batcher that coalesces
//!   pending SR/recovery work into single batched `conv2d` calls on the
//!   `nerve-tensor` worker pool, with an earliest-deadline-first queue
//!   and the PR-1 degradation ladder as the shed path.
//! * [`admission`] — token-bucket admission control over aggregate
//!   bandwidth and inference MACs: arriving sessions are accepted,
//!   downgraded to a rung cap ([`nerve_abr::CappedAbr`]), or rejected.
//! * [`live`] — the live-mode server plane: FIR grant rate limiting,
//!   coalesced keyframe encodes, and breaker-gated NACK shedding (the
//!   FIR-storm absorber).
//! * [`topology`] + [`event_queue`] + [`handoff`] — the multi-server
//!   plane: N edge servers behind a deterministic placement function,
//!   each driven as a discrete-event state machine over a calendar
//!   queue, with mid-run session handoffs round-tripping through a
//!   CRC-framed ticket codec.
//!
//! Everything is deterministic by construction: all randomness flows
//! through [`nerve_video::rng::seed_for`] per-session streams, the
//! batched convolution is bit-identical at every worker count, and
//! sharded multi-server execution merges per-server partials in server
//! order — so a fleet's [`fleet::FleetResult::digest`] is byte-identical
//! at `--jobs 1` and `--jobs 16`, at any server count.

pub mod admission;
pub mod batcher;
pub mod ckpt;
pub mod event_queue;
pub mod failure;
pub mod fleet;
pub mod handoff;
pub mod live;
mod server;
pub mod topology;

pub use admission::{
    Admission, AdmissionConfig, AdmissionController, AdmissionState, SessionDemand, TokenBucket,
    TokenBucketState,
};
pub use batcher::{
    occupancy_label, BatcherStats, InferenceBatcher, InferenceJob, JobKind, JobOutcome,
    ServerModel, Service, OCCUPANCY_BUCKETS, OCCUPANCY_EDGES, SLACK_EDGES,
};
pub use ckpt::{verify_fleet_checkpoint, FLEET_CKPT_FRAME};
pub use event_queue::{Event, EventKind, EventQueue};
pub use failure::{
    percentile_nearest_rank, plan_transfer, server_up_at, FailoverConfig, FailoverStats,
    HealthConfig, HealthCounters, HealthState, HealthTracker, InvariantReport, ServerFailure,
    ServerFailureCounters, ServerHealth, TicketTransfer,
};
pub use fleet::{
    checkpoint_fleet, jain_fairness, resume_fleet, run_fleet, run_fleet_obs, session_category,
    ClientClass, FleetConfig, FleetModelStats, FleetResult, ModelPlaneConfig, ServerRestart,
    ServerSummary, SessionCounters, SessionCrash, SessionModel, SessionSummary,
};
pub use handoff::TICKET_FRAME;
pub use live::{
    FirLimiter, FirLimiterConfig, FirLimiterState, KeyframeEncode, LiveServer, LiveServerConfig,
    LiveServerCounters, LiveServerState,
};
pub use topology::{place_evacuee, place_sessions, PlacementPolicy, SessionHandoff};
