//! Cross-session inference batching with a deadline-aware queue.
//!
//! NEMO-style per-client enhancement runs one small model per stream —
//! fine for one phone, ruinous for an edge server with dozens of
//! sessions: the per-call fixed cost (weight traversal, cache warmup,
//! dispatch) dominates and the worker pool starves on tiny kernels. The
//! batcher coalesces every session's pending SR/recovery head into **one
//! stacked `conv2d` call** (one `[jobs, c, h, w]` batch tensor), which
//! [`nerve_tensor::conv::conv2d`] runs one job at a time with output
//! channels in the vector lanes, and can split across the
//! [`nerve_tensor::par`] pool.
//!
//! Scheduling is earliest-deadline-first over *playout* deadlines, with
//! the PR-1 degradation ladder as the shed path: a job whose remaining
//! budget no longer covers a full forward pass is degraded to warp-only,
//! and past that to a freeze — it never occupies server compute that
//! urgent jobs need, and it never silently starves: every degraded job
//! increments a per-session counter the fleet report surfaces. A slow
//! session therefore cannot push other sessions past their playout
//! budget; it can only consume its own.
//!
//! Everything is deterministic: the queue orders by
//! `(deadline, session, chunk, frame)` — a total order — service times
//! are a pure function of the job and the server model, and the batched
//! forward pass is bit-identical at every worker count.

use nerve_core::{
    BreakerConfig, BreakerCounters, BreakerState, CircuitBreaker, DegradationLadder,
    DegradationRung,
};
use nerve_net::bytes::{ByteReader, ByteWriter, FrameError, Wire};
use nerve_net::clock::SimTime;
use nerve_obs::{Counter, Histogram, Registry};
use nerve_rng::{DetRng, Rng};
use nerve_tensor::conv::{conv2d, ConvSpec};
use nerve_tensor::meter;
use nerve_tensor::Tensor;

/// Which enhancement a job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Lost/late frame: point-code flow + warp + enhancement head.
    Recovery,
    /// On-time frame with slack: super-resolution head.
    Sr,
}

impl Wire for JobKind {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(match self {
            JobKind::Recovery => 0,
            JobKind::Sr => 1,
        })
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(JobKind::Recovery),
            1 => Ok(JobKind::Sr),
            v => Err(FrameError::bad_field("job_kind", v)),
        }
    }
}

/// One frame's worth of enhancement work, queued by a session.
#[derive(Debug, Clone, Copy)]
pub struct InferenceJob {
    pub session: usize,
    pub chunk: usize,
    pub frame: usize,
    pub kind: JobKind,
    /// Ladder rung of the chunk (scales input size, hence MACs).
    pub rung: usize,
    /// Consecutive-enhancement chain depth at enqueue time (recovery
    /// quality decays with depth; see `QualityMaps::*_at_depth`).
    pub chain: usize,
    /// Absolute playout deadline.
    pub deadline: SimTime,
}

nerve_net::wire_record!(InferenceJob {
    session,
    chunk,
    frame,
    kind,
    rung,
    chain,
    deadline
});

/// What the server did with one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Full forward pass ran in the batch.
    Full,
    /// Budget covered only flow + warp (recovery jobs).
    WarpOnly,
    /// Shed: no compute spent; the client freezes (recovery) or shows
    /// the plain frame (SR).
    Shed,
}

/// A resolved job, reported back to the fleet loop.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    pub job: InferenceJob,
    pub service: Service,
    /// When the server finished this job (equals flush time for shed).
    pub completion: SimTime,
    /// `deadline - completion` for served jobs, in seconds.
    pub slack_secs: f64,
    /// Mean activation of the job's output planes (0 when no forward
    /// pass ran). Pure function of the job identity and fleet seed, so
    /// it doubles as a determinism witness across worker counts.
    pub checksum: f32,
}

/// The shared enhancement backbone and the server's compute model.
#[derive(Debug, Clone)]
pub struct ServerModel {
    /// Per-job input feature map: channels × height × width.
    pub in_channels: usize,
    pub out_channels: usize,
    pub height: usize,
    pub width: usize,
    pub kernel: usize,
    /// Server inference throughput, multiply-accumulates per second.
    pub macs_per_sec: f64,
    /// Fixed per-flush cost (dispatch, weight traversal) that batching
    /// amortizes across every job in the batch.
    pub batch_overhead_secs: f64,
}

impl ServerModel {
    /// A small backbone that keeps debug-mode fleet tests fast.
    pub fn small() -> Self {
        Self {
            in_channels: 2,
            out_channels: 4,
            height: 8,
            width: 16,
            kernel: 3,
            macs_per_sec: 2.0e9,
            batch_overhead_secs: 0.002,
        }
    }

    /// A backbone sized so batched calls cross the conv parallelization
    /// threshold — what the fleet bench exercises (`nerve-tensor-bench`'s
    /// `batch32` row).
    pub fn bench() -> Self {
        Self {
            in_channels: 8,
            out_channels: 16,
            height: 32,
            width: 64,
            kernel: 3,
            macs_per_sec: 2.0e10,
            batch_overhead_secs: 0.002,
        }
    }

    /// The backbone's convolution spec (shared with the live plane's
    /// keyframe encoder).
    pub fn spec(&self) -> ConvSpec {
        ConvSpec::same(self.in_channels, self.out_channels, self.kernel)
    }

    /// The backbone's weights, He-scaled uniform draws from the stream
    /// `seed`: deterministic, so every run and every resume of a server
    /// holds the same bits.
    pub fn backbone_weight(&self, seed: u64) -> Tensor {
        let spec = self.spec();
        let mut rng = DetRng::new(seed);
        let wlen = spec.out_channels * spec.in_channels * spec.kernel * spec.kernel;
        let scale = (2.0 / (spec.in_channels * spec.kernel * spec.kernel) as f32).sqrt();
        Tensor::from_vec(
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
            (0..wlen)
                .map(|_| rng.random_range(-1.0f32..1.0) * scale)
                .collect(),
        )
    }

    /// MACs of one full forward pass at the top rung.
    pub fn macs_per_job(&self) -> f64 {
        // flops counts 2 ops per MAC.
        (self.spec().flops(self.height, self.width) / 2) as f64
    }

    /// Rung scaling of compute: enhancement input size tracks the rung's
    /// bitrate (higher rungs carry larger frames into the models).
    pub fn rung_scale(ladder_kbps: &[u32], rung: usize) -> f64 {
        let top = *ladder_kbps.last().expect("non-empty ladder") as f64;
        f64::from(ladder_kbps[rung.min(ladder_kbps.len() - 1)]) / top
    }
}

/// Batch-size histogram buckets: 1, 2, 3–4, 5–8, …, 65+.
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Bucket label for the occupancy histogram.
pub fn occupancy_label(bucket: usize) -> &'static str {
    match bucket {
        0 => "1",
        1 => "2",
        2 => "3-4",
        3 => "5-8",
        4 => "9-16",
        5 => "17-32",
        6 => "33-64",
        _ => "65+",
    }
}

pub(crate) fn occupancy_bucket(batch: usize) -> usize {
    debug_assert!(batch >= 1);
    ((batch.max(1) as f64).log2().ceil() as usize).min(OCCUPANCY_BUCKETS - 1)
}

/// Upper bucket edges of the `batcher.occupancy` histogram. Chosen so
/// the upper-inclusive histogram convention reproduces
/// `occupancy_bucket` / [`occupancy_label`] exactly: a batch of `b`
/// lands in the first bucket with `b <= edge`, overflow is "65+".
pub const OCCUPANCY_EDGES: [f64; OCCUPANCY_BUCKETS - 1] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Upper bucket edges of the `batcher.slack_secs` histogram (deadline
/// slack of full-served jobs, seconds). Fixed here so traces from
/// different runs are comparable bucket-for-bucket.
pub const SLACK_EDGES: [f64; 9] = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0];

/// Point-in-time batcher statistics, snapshotted from the metrics
/// registry by [`InferenceBatcher::stats`]. This struct is part of the
/// [`crate::fleet::FleetResult`] digest surface, so its shape is
/// stable; the registry is the source of truth backing it.
#[derive(Debug, Clone, Default)]
pub struct BatcherStats {
    /// Batched forward passes executed.
    pub batches: usize,
    /// Jobs served with a full forward pass.
    pub full: usize,
    /// Recovery jobs degraded to warp-only.
    pub warp_only: usize,
    /// Jobs shed entirely.
    pub shed: usize,
    /// Histogram of batch sizes (see [`occupancy_label`]).
    pub occupancy: [usize; OCCUPANCY_BUCKETS],
    /// Circuit-breaker transition/action counters (all zero when the
    /// batcher runs without a breaker).
    pub breaker: BreakerCounters,
}

nerve_net::wire_record!(BatcherStats {
    batches,
    full,
    warp_only,
    shed,
    occupancy,
    breaker
});

/// Registry handles for every metric the batcher maintains. Bound once
/// at construction (or re-bound by
/// [`InferenceBatcher::with_registry`]); incrementing is a `Cell` write.
struct BatcherMetrics {
    batches: Counter,
    full: Counter,
    warp_only: Counter,
    shed: Counter,
    occupancy: Histogram,
    slack_secs: Histogram,
    breaker_opened: Counter,
    breaker_half_opened: Counter,
    breaker_closed: Counter,
    breaker_watchdog_trips: Counter,
    breaker_fast_shed: Counter,
}

impl BatcherMetrics {
    fn bind(registry: &Registry) -> Self {
        Self {
            batches: registry.counter("batcher.batches"),
            full: registry.counter("batcher.jobs.full"),
            warp_only: registry.counter("batcher.jobs.warp_only"),
            shed: registry.counter("batcher.jobs.shed"),
            occupancy: registry.histogram("batcher.occupancy", &OCCUPANCY_EDGES),
            slack_secs: registry.histogram("batcher.slack_secs", &SLACK_EDGES),
            breaker_opened: registry.counter("batcher.breaker.opened"),
            breaker_half_opened: registry.counter("batcher.breaker.half_opened"),
            breaker_closed: registry.counter("batcher.breaker.closed"),
            breaker_watchdog_trips: registry.counter("batcher.breaker.watchdog_trips"),
            breaker_fast_shed: registry.counter("batcher.breaker.fast_shed"),
        }
    }

    /// Fold the breaker's monotone counters forward: add the delta
    /// since the last export so registry counters track transitions
    /// exactly once.
    fn export_breaker(&self, prev: &BreakerCounters, cur: &BreakerCounters) {
        self.breaker_opened.add(cur.opened - prev.opened);
        self.breaker_half_opened
            .add(cur.half_opened - prev.half_opened);
        self.breaker_closed.add(cur.closed - prev.closed);
        self.breaker_watchdog_trips
            .add(cur.watchdog_trips - prev.watchdog_trips);
        self.breaker_fast_shed.add(cur.fast_shed - prev.fast_shed);
    }
}

/// The cross-session inference batcher.
pub struct InferenceBatcher {
    model: ServerModel,
    ladder_kbps: Vec<u32>,
    weight: Tensor,
    bias: Vec<f32>,
    queue: Vec<InferenceJob>,
    /// Per-session seeds for synthetic input features (index = session).
    input_seeds: Vec<u64>,
    /// Optional overload breaker (see [`nerve_core::breaker`]).
    breaker: Option<CircuitBreaker>,
    registry: Registry,
    metrics: BatcherMetrics,
    /// Breaker counters as of the last registry export (delta base).
    breaker_exported: BreakerCounters,
}

impl InferenceBatcher {
    /// `input_seeds[s]` seeds session `s`'s synthetic input features
    /// (derive them with `rng::seed_for(fleet_seed, s, Inference)`).
    pub fn new(model: ServerModel, ladder_kbps: Vec<u32>, input_seeds: Vec<u64>) -> Self {
        // The same fleet seed everywhere would also work, but weights are
        // part of the *server*, not of any session, so a fixed stream
        // keeps them stable across fleet configurations.
        let weight = model.backbone_weight(0x5EED_BA7C_4E55_0001);
        let bias = vec![0.0; model.out_channels];
        let registry = Registry::new();
        let metrics = BatcherMetrics::bind(&registry);
        Self {
            model,
            ladder_kbps,
            weight,
            bias,
            queue: Vec::new(),
            input_seeds,
            breaker: None,
            registry,
            metrics,
            breaker_exported: BreakerCounters::default(),
        }
    }

    /// Arm the overload circuit breaker.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(CircuitBreaker::new(config));
        self
    }

    /// Account into a shared registry (e.g. the fleet's observability
    /// context) instead of the batcher's private one. Call before any
    /// jobs are flushed; the target registry must not already hold
    /// `batcher.*` counts or they will be continued, not replaced.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.metrics = BatcherMetrics::bind(&registry);
        self.registry = registry;
        self
    }

    /// The registry backing this batcher's statistics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot the cumulative statistics from the registry.
    pub fn stats(&self) -> BatcherStats {
        let mut occupancy = [0usize; OCCUPANCY_BUCKETS];
        for (slot, (_, n)) in occupancy.iter_mut().zip(self.metrics.occupancy.buckets()) {
            *slot = n as usize;
        }
        BatcherStats {
            batches: self.metrics.batches.get() as usize,
            full: self.metrics.full.get() as usize,
            warp_only: self.metrics.warp_only.get() as usize,
            shed: self.metrics.shed.get() as usize,
            occupancy,
            breaker: self
                .breaker
                .as_ref()
                .map(|b| b.counters)
                .unwrap_or_default(),
        }
    }

    /// Current breaker state (`None` when no breaker is armed).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    /// Queue one job. Order of enqueue does not matter: flushing imposes
    /// the canonical `(deadline, session, chunk, frame)` order.
    pub fn enqueue(&mut self, job: InferenceJob) {
        self.queue.push(job);
    }

    /// Jobs currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The queued jobs themselves (checkpoint payload; enqueue order).
    pub fn pending_jobs(&self) -> &[InferenceJob] {
        &self.queue
    }

    /// Fail-stop: drop every queued job on the floor and return them so
    /// the caller can charge each owning session a `failed_in_flight`.
    /// Unlike [`flush`](Self::flush), nothing is served, shed-counted,
    /// or batched — a dead server settles nothing.
    pub fn take_pending(&mut self) -> Vec<InferenceJob> {
        std::mem::take(&mut self.queue)
    }

    /// Rebuild the batcher's mutable position from a checkpoint: queued
    /// jobs, cumulative registry counters, and the breaker snapshot.
    /// Only meaningful on a freshly constructed batcher whose registry
    /// is still zero.
    pub fn restore_state(
        &mut self,
        jobs: Vec<InferenceJob>,
        stats: &BatcherStats,
        breaker: Option<nerve_core::BreakerSnapshot>,
    ) {
        self.queue = jobs;
        self.metrics.batches.add(stats.batches as u64);
        self.metrics.full.add(stats.full as u64);
        self.metrics.warp_only.add(stats.warp_only as u64);
        self.metrics.shed.add(stats.shed as u64);
        // Re-observe one representative value per occupancy bucket so
        // the histogram's bucket counts reproduce exactly. Bucket `i`
        // covers `(EDGES[i-1], EDGES[i]]`, with a catch-all above the
        // last edge.
        for (b, &n) in stats.occupancy.iter().enumerate() {
            let value = if b < OCCUPANCY_EDGES.len() {
                OCCUPANCY_EDGES[b]
            } else {
                OCCUPANCY_EDGES[OCCUPANCY_EDGES.len() - 1] + 1.0
            };
            for _ in 0..n {
                self.metrics.occupancy.observe(value);
            }
        }
        if let (Some(b), Some(snap)) = (self.breaker.as_mut(), breaker) {
            b.restore(snap);
            self.breaker_exported = snap.counters;
        }
    }

    /// Snapshot the armed breaker for a checkpoint.
    pub fn breaker_snapshot(&self) -> Option<nerve_core::BreakerSnapshot> {
        self.breaker.as_ref().map(|b| b.snapshot())
    }

    /// Service time of one full forward pass at `rung`.
    pub fn full_service_secs(&self, rung: usize) -> f64 {
        self.model.macs_per_job() * ServerModel::rung_scale(&self.ladder_kbps, rung)
            / self.model.macs_per_sec
    }

    /// Drain the queue: EDF service with ladder-based shedding, then one
    /// batched forward pass over every full-served job.
    pub fn flush(&mut self, now: SimTime) -> Vec<JobOutcome> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let mut jobs = std::mem::take(&mut self.queue);
        jobs.sort_by_key(|j| (j.deadline, j.session, j.chunk, j.frame));

        // EDF pass over the service timeline: the cursor starts after
        // the fixed batch overhead and advances by each served job's
        // cost. A job's budget is what remains of its deadline when the
        // cursor reaches it — the degradation ladder picks the best rung
        // that still fits, exactly as the client-side session does for
        // late frames.
        if let Some(b) = self.breaker.as_mut() {
            b.begin_flush(now.as_secs_f64());
        }
        let mut cursor = now + SimTime::from_secs_f64(self.model.batch_overhead_secs);
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut batch_members: Vec<usize> = Vec::new();
        for (idx, job) in jobs.iter().enumerate() {
            let full_cost = self.full_service_secs(job.rung);
            let budget = job.deadline.saturating_sub(cursor).as_secs_f64();
            let allowed = match self.breaker.as_mut() {
                Some(b) => b.allow_full(),
                None => true,
            };
            let (service, cost) = if !allowed {
                // Breaker open (or probe allowance spent): fast-shed to
                // the cheap rung without attempting a full pass.
                match job.kind {
                    JobKind::Recovery => {
                        let ladder = DegradationLadder::recovery(full_cost);
                        let warp = ladder.cost_of(DegradationRung::WarpOnly);
                        if budget >= warp {
                            (Service::WarpOnly, warp)
                        } else {
                            (Service::Shed, 0.0)
                        }
                    }
                    JobKind::Sr => (Service::Shed, 0.0),
                }
            } else {
                match job.kind {
                    JobKind::Recovery => {
                        let ladder = DegradationLadder::recovery(full_cost);
                        match ladder.select(budget) {
                            DegradationRung::Full => (Service::Full, full_cost),
                            DegradationRung::WarpOnly => {
                                (Service::WarpOnly, ladder.cost_of(DegradationRung::WarpOnly))
                            }
                            DegradationRung::Freeze | DegradationRung::Stall => {
                                (Service::Shed, 0.0)
                            }
                        }
                    }
                    JobKind::Sr => {
                        if budget >= full_cost {
                            (Service::Full, full_cost)
                        } else {
                            (Service::Shed, 0.0)
                        }
                    }
                }
            };
            let completion = cursor + SimTime::from_secs_f64(cost);
            if allowed {
                if let Some(b) = self.breaker.as_mut() {
                    // "Met the deadline" at the server = a full pass fit
                    // the budget; anything less is a service miss.
                    b.record(service == Service::Full, completion.as_secs_f64());
                }
            }
            let slack_secs = job.deadline.saturating_sub(completion).as_secs_f64();
            match service {
                Service::Full => {
                    self.metrics.full.inc();
                    self.metrics.slack_secs.observe(slack_secs);
                    batch_members.push(idx);
                }
                Service::WarpOnly => self.metrics.warp_only.inc(),
                Service::Shed => self.metrics.shed.inc(),
            }
            if cost > 0.0 {
                cursor = completion;
            }
            outcomes.push(JobOutcome {
                job: *job,
                service,
                completion,
                slack_secs,
                checksum: 0.0,
            });
        }

        // One stacked forward pass for every full-served job. `conv2d`
        // runs it one job at a time, output channels in the vector lanes
        // (a block of four for `small()`, two of eight for `bench()`),
        // and charges the meter analytically before any worker split. A
        // sharded fleet's workers run the call inline, under `PoolGuard`;
        // only the one inline shard of a one-server or traced fleet lets
        // `conv2d` split it across the worker pool.
        if !batch_members.is_empty() {
            // Each job's input is drawn straight into its slot of the
            // stacked batch.
            let m = &self.model;
            let mut stacked = Tensor::zeros(batch_members.len(), m.in_channels, m.height, m.width);
            let job_len = m.in_channels * m.height * m.width;
            for (&idx, slot) in batch_members
                .iter()
                .zip(stacked.data_mut().chunks_exact_mut(job_len))
            {
                self.job_input(&jobs[idx], slot);
            }
            // The "batch" meter scope: server-side backbone compute,
            // distinct from any client-side pipeline stage.
            let out = meter::stage("batch", || {
                conv2d(&stacked, &self.weight, &self.bias, self.model.spec())
            });
            let plane = out.h() * out.w() * out.c();
            for (bi, &idx) in batch_members.iter().enumerate() {
                let start = bi * plane;
                let mean: f32 = out.data()[start..start + plane].iter().sum::<f32>() / plane as f32;
                outcomes[idx].checksum = mean;
            }
            self.metrics.batches.inc();
            // The histogram edges are constructed to reproduce
            // `occupancy_bucket` exactly; keep the two in lockstep.
            debug_assert_eq!(
                OCCUPANCY_EDGES.partition_point(|&e| e < batch_members.len() as f64),
                occupancy_bucket(batch_members.len()),
            );
            self.metrics.occupancy.observe(batch_members.len() as f64);
        }

        // Watchdog: a flush that overran its compute budget trips the
        // breaker open so the *next* flush fast-sheds instead of piling
        // more full-pass attempts onto a server already behind.
        if let Some(b) = self.breaker.as_mut() {
            let spent = cursor.saturating_sub(now).as_secs_f64();
            if spent > b.config().watchdog_budget_secs {
                b.trip_watchdog(cursor.as_secs_f64());
            }
            let cur = b.counters;
            self.metrics.export_breaker(&self.breaker_exported, &cur);
            self.breaker_exported = cur;
        }
        outcomes
    }

    /// Synthetic input features for one job, written into `out` (its
    /// `in_channels x height x width` slot of the stacked batch): a pure
    /// function of `(session seed, chunk, frame)`, independent of
    /// enqueue order.
    fn job_input(&self, job: &InferenceJob, out: &mut [f32]) {
        let seed = self.input_seeds[job.session]
            ^ (job.chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (job.frame as u64).rotate_left(32);
        let mut rng = DetRng::new(seed);
        for v in out {
            *v = rng.random_range(-1.0f32..1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(session: usize, frame: usize, deadline_secs: f64, kind: JobKind) -> InferenceJob {
        InferenceJob {
            session,
            chunk: 0,
            frame,
            kind,
            rung: 4,
            chain: 1,
            deadline: SimTime::from_secs_f64(deadline_secs),
        }
    }

    fn batcher(sessions: usize) -> InferenceBatcher {
        InferenceBatcher::new(
            ServerModel::small(),
            vec![512, 1024, 1600, 2640, 4400],
            (0..sessions as u64)
                .map(|s| s.wrapping_mul(0x1234_5678_9ABC_DEF1))
                .collect(),
        )
    }

    #[test]
    fn flush_serves_jobs_with_headroom_in_one_batch() {
        let mut b = batcher(4);
        for s in 0..4 {
            b.enqueue(job(s, 0, 10.0, JobKind::Recovery));
        }
        let out = b.flush(SimTime::ZERO);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|o| o.service == Service::Full));
        assert!(out.iter().all(|o| o.slack_secs > 0.0));
        assert_eq!(b.stats().batches, 1, "one stacked conv for all sessions");
        assert_eq!(b.stats().occupancy[occupancy_bucket(4)], 1);
    }

    #[test]
    fn expired_jobs_are_shed_not_served() {
        let mut b = batcher(2);
        b.enqueue(job(0, 0, 10.0, JobKind::Recovery));
        b.enqueue(job(1, 0, 0.0, JobKind::Recovery)); // already past deadline
        let out = b.flush(SimTime::from_secs_f64(1.0));
        let by_session: Vec<Service> = out.iter().map(|o| o.service).collect();
        // Session 1's job expired → shed; session 0's still has 9 s.
        assert!(by_session.contains(&Service::Full));
        assert!(by_session.contains(&Service::Shed));
        assert_eq!(b.stats().shed, 1);
    }

    #[test]
    fn tight_budget_degrades_to_warp_only() {
        let mut b = batcher(1);
        let full = b.full_service_secs(4);
        // Deadline covers the overhead plus half a full pass: the ladder
        // falls to warp-only (cost fraction < 1/2 of full).
        let deadline = b.model.batch_overhead_secs + full * 0.5;
        b.enqueue(job(0, 0, deadline, JobKind::Recovery));
        let out = b.flush(SimTime::ZERO);
        assert_eq!(out[0].service, Service::WarpOnly);
        assert_eq!(b.stats().warp_only, 1);
    }

    #[test]
    fn sr_jobs_skip_instead_of_degrading() {
        let mut b = batcher(1);
        b.enqueue(job(0, 0, 1e-9, JobKind::Sr));
        let out = b.flush(SimTime::ZERO);
        assert_eq!(out[0].service, Service::Shed);
    }

    #[test]
    fn slow_session_backlog_cannot_starve_urgent_jobs() {
        let mut b = batcher(2);
        // Session 0 floods 50 far-deadline jobs; session 1 has one
        // urgent job. EDF puts the urgent job first regardless of
        // enqueue order.
        for f in 0..50 {
            b.enqueue(job(0, f, 100.0, JobKind::Recovery));
        }
        let urgent_deadline = b.model.batch_overhead_secs + b.full_service_secs(4) * 1.5;
        b.enqueue(job(1, 0, urgent_deadline, JobKind::Recovery));
        let out = b.flush(SimTime::ZERO);
        let urgent = out.iter().find(|o| o.job.session == 1).unwrap();
        assert_eq!(
            urgent.service,
            Service::Full,
            "urgent job must be served before the backlog"
        );
    }

    #[test]
    fn outcomes_and_checksums_are_deterministic_and_order_free() {
        let run = |order: &[usize]| {
            let mut b = batcher(3);
            for &s in order {
                b.enqueue(job(s, s, 10.0 + s as f64, JobKind::Recovery));
            }
            b.flush(SimTime::ZERO)
                .iter()
                .map(|o| (o.job.session, o.checksum.to_bits(), o.completion))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(&[0, 1, 2]),
            run(&[2, 0, 1]),
            "enqueue order must not matter"
        );
    }

    fn breaker_cfg() -> BreakerConfig {
        BreakerConfig {
            open_after_misses: 2,
            cooldown_secs: 1.0,
            probe_jobs: 2,
            watchdog_budget_secs: 10.0,
        }
    }

    #[test]
    fn sustained_misses_open_the_breaker_and_probes_reclose_it() {
        let mut b = batcher(1).with_breaker(breaker_cfg());
        assert_eq!(b.breaker_state(), Some(BreakerState::Closed));

        // Two already-expired jobs: consecutive service misses → open.
        b.enqueue(job(0, 0, 0.0, JobKind::Recovery));
        b.enqueue(job(0, 1, 0.0, JobKind::Recovery));
        b.flush(SimTime::from_secs_f64(1.0));
        assert_eq!(b.breaker_state(), Some(BreakerState::Open));
        assert_eq!(b.stats().breaker.opened, 1);

        // Before the cooldown even a healthy job is fast-shed to
        // warp-only — no full-pass attempt, no batch.
        b.enqueue(job(0, 2, 100.0, JobKind::Recovery));
        let out = b.flush(SimTime::from_secs_f64(1.5));
        assert_eq!(out[0].service, Service::WarpOnly);
        assert!(b.stats().breaker.fast_shed >= 1);
        assert_eq!(b.breaker_state(), Some(BreakerState::Open));

        // Past the cooldown the flush goes half-open, both probes fit
        // their deadlines, and the breaker closes again.
        b.enqueue(job(0, 3, 100.0, JobKind::Recovery));
        b.enqueue(job(0, 4, 100.0, JobKind::Recovery));
        let out = b.flush(SimTime::from_secs_f64(3.0));
        assert!(out.iter().all(|o| o.service == Service::Full));
        assert_eq!(b.breaker_state(), Some(BreakerState::Closed));
        assert_eq!(b.stats().breaker.half_opened, 1);
        assert_eq!(b.stats().breaker.closed, 1);
    }

    #[test]
    fn watchdog_trips_on_an_oversized_flush() {
        let mut b = batcher(1).with_breaker(BreakerConfig {
            watchdog_budget_secs: 1e-6,
            open_after_misses: 100,
            ..BreakerConfig::default()
        });
        b.enqueue(job(0, 0, 10.0, JobKind::Recovery));
        let out = b.flush(SimTime::ZERO);
        assert_eq!(out[0].service, Service::Full, "the job itself is served");
        assert_eq!(b.breaker_state(), Some(BreakerState::Open));
        assert_eq!(b.stats().breaker.watchdog_trips, 1);
        assert_eq!(b.stats().breaker.opened, 1);
    }

    #[test]
    fn breakerless_batcher_reports_zero_breaker_counters() {
        let mut b = batcher(1);
        b.enqueue(job(0, 0, 10.0, JobKind::Recovery));
        b.flush(SimTime::ZERO);
        assert_eq!(b.stats().breaker, BreakerCounters::default());
        assert_eq!(b.breaker_state(), None);
    }

    #[test]
    fn occupancy_buckets_are_monotone() {
        assert_eq!(occupancy_bucket(1), 0);
        assert_eq!(occupancy_bucket(2), 1);
        assert_eq!(occupancy_bucket(4), 2);
        assert_eq!(occupancy_bucket(8), 3);
        assert_eq!(occupancy_bucket(64), 6);
        assert_eq!(occupancy_bucket(1000), OCCUPANCY_BUCKETS - 1);
    }

    /// Satellite audit: every boundary value around each power-of-two
    /// edge lands in the bucket its label promises. `log2` is exact for
    /// powers of two, so `ceil` cannot wobble at the edges.
    #[test]
    fn occupancy_bucket_boundary_values_match_labels() {
        let cases = [
            (1, "1"),
            (2, "2"),
            (3, "3-4"),
            (4, "3-4"),
            (5, "5-8"),
            (8, "5-8"),
            (9, "9-16"),
            (16, "9-16"),
            (17, "17-32"),
            (32, "17-32"),
            (33, "33-64"),
            (64, "33-64"),
            (65, "65+"),
            (1 << 20, "65+"),
        ];
        for (batch, label) in cases {
            assert_eq!(
                occupancy_label(occupancy_bucket(batch)),
                label,
                "batch size {batch}"
            );
        }
    }

    /// The registry histogram's upper-inclusive edges reproduce
    /// `occupancy_bucket` for every realistic batch size, so the
    /// BatcherStats array snapshot and the registry histogram can never
    /// disagree.
    #[test]
    fn occupancy_histogram_edges_match_bucket_function() {
        for batch in 1usize..=200 {
            let i = OCCUPANCY_EDGES.partition_point(|&e| e < batch as f64);
            assert_eq!(
                i,
                occupancy_bucket(batch),
                "batch size {batch}: histogram bucket vs occupancy_bucket"
            );
        }
    }

    /// The stats snapshot is registry-backed: the same counts are
    /// visible through the registry and through `stats()`, and a shared
    /// registry observes the batcher's work.
    #[test]
    fn stats_snapshot_mirrors_registry() {
        let reg = nerve_obs::Registry::new();
        let mut b = batcher(4).with_registry(reg.clone());
        for s in 0..4 {
            b.enqueue(job(s, 0, 10.0, JobKind::Recovery));
        }
        b.enqueue(job(0, 1, 0.0, JobKind::Recovery)); // expired → shed
        b.flush(SimTime::from_secs_f64(1.0));

        let stats = b.stats();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("batcher.batches"), Some(stats.batches as u64));
        assert_eq!(snap.counter("batcher.jobs.full"), Some(stats.full as u64));
        assert_eq!(snap.counter("batcher.jobs.shed"), Some(stats.shed as u64));
        assert_eq!(stats.full, 4);
        assert_eq!(stats.shed, 1);
        let (buckets, _, count) = snap.histogram("batcher.occupancy").unwrap();
        assert_eq!(count, 1, "one batch was executed");
        let array_total: usize = stats.occupancy.iter().sum();
        assert_eq!(array_total as u64, count);
        assert_eq!(buckets[occupancy_bucket(4)].1, 1);
        // Full-served slack observations match the full counter.
        let (_, _, slack_count) = snap.histogram("batcher.slack_secs").unwrap();
        assert_eq!(slack_count, stats.full as u64);
    }
}
