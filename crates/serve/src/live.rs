//! Server-side live plane: FIR-storm absorption and NACK shedding.
//!
//! A correlated client-side event — one uplink collapse lifting, a
//! shared bearer blackout — desyncs many decoders at once, and every one
//! of them asks for a keyframe in the same instant: the **FIR storm**.
//! Granting all of them individually would serialize a fleet's worth of
//! I-frame encodes behind one another and take the whole server down
//! precisely when it is most needed. The plane absorbs the storm with
//! three mechanisms, outermost first:
//!
//! 1. **Token-bucket rate limiting** ([`FirLimiter`]): FIR grants drain
//!    a deterministic virtual-time bucket. Denied requesters back off
//!    client-side and retry; the bucket turns an impulse of N requests
//!    into a drizzle the encoder can absorb.
//! 2. **Coalesced encodes** ([`LiveServer::encode_keyframes`]): all FIRs
//!    granted within one tick become a single stacked `conv2d` batch —
//!    the same amortization the VOD batcher applies to enhancement
//!    heads, applied to keyframe synthesis.
//! 3. **NACK shedding** ([`LiveServer::nack_allowed`]): the PR-4 circuit
//!    breaker watches per-tick encode load; sustained overload opens it,
//!    and an open breaker refuses *retransmit* service while keyframe
//!    and live-frame service continue. Retransmits are the right load to
//!    shed first: a lost NACK degrades one frame of one session, a
//!    dropped keyframe strands a desynced session indefinitely.
//!
//! Everything is deterministic in virtual time, and the full mutable
//! state (bucket level, breaker position, counters, encode checksum
//! accumulator) snapshots through [`LiveServerState`] for the checkpoint
//! plane.

use crate::admission::{TokenBucket, TokenBucketState};
use crate::batcher::ServerModel;
use nerve_core::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
use nerve_net::clock::SimTime;
use nerve_rng::{DetRng, Rng};
use nerve_tensor::conv::conv2d;
use nerve_tensor::meter;
use nerve_tensor::Tensor;

/// FIR grant rate-limiter tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirLimiterConfig {
    /// Sustained FIR grants per simulated second, fleet-wide.
    pub grants_per_sec: f64,
    /// Bucket depth in seconds of the grant rate: the largest storm
    /// front absorbed without denials.
    pub burst_secs: f64,
}

impl Default for FirLimiterConfig {
    fn default() -> Self {
        Self {
            grants_per_sec: 4.0,
            burst_secs: 2.0,
        }
    }
}

/// Token-bucket limiter for FIR grants, with grant accounting.
#[derive(Debug, Clone)]
pub struct FirLimiter {
    bucket: TokenBucket,
    /// FIR requests received.
    pub requested: u64,
    /// Requests granted a keyframe.
    pub granted: u64,
    /// Requests denied by the bucket (client retries with backoff).
    pub ratelimited: u64,
}

/// Serializable position of a [`FirLimiter`] (checkpoint payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirLimiterState {
    pub bucket: TokenBucketState,
    pub requested: u64,
    pub granted: u64,
    pub ratelimited: u64,
}

nerve_net::wire_record!(FirLimiterState {
    bucket,
    requested,
    granted,
    ratelimited
});

impl FirLimiter {
    pub fn new(cfg: FirLimiterConfig) -> Self {
        Self {
            bucket: TokenBucket::new(cfg.grants_per_sec, cfg.burst_secs),
            requested: 0,
            granted: 0,
            ratelimited: 0,
        }
    }

    /// One FIR request at `now`: grant iff the bucket covers it.
    pub fn request(&mut self, now: SimTime) -> bool {
        self.requested += 1;
        self.bucket.refill(now);
        if self.bucket.try_take(1.0) {
            self.granted += 1;
            true
        } else {
            self.ratelimited += 1;
            false
        }
    }

    pub fn state(&self) -> FirLimiterState {
        FirLimiterState {
            bucket: self.bucket.state(),
            requested: self.requested,
            granted: self.granted,
            ratelimited: self.ratelimited,
        }
    }

    pub fn restore(&mut self, state: FirLimiterState) {
        self.bucket.restore(state.bucket);
        self.requested = state.requested;
        self.granted = state.granted;
        self.ratelimited = state.ratelimited;
    }
}

/// Live-server tuning.
#[derive(Debug, Clone)]
pub struct LiveServerConfig {
    /// Encoder backbone standing in for keyframe synthesis compute.
    pub model: ServerModel,
    /// FIR grant rate limiting.
    pub limiter: FirLimiterConfig,
    /// Overload breaker gating NACK service.
    pub breaker: BreakerConfig,
}

/// I-frame encode cost as a multiple of one backbone forward pass
/// (keyframes are intra-coded: no reference to lean on).
const KEYFRAME_COST_FACTOR: f64 = 3.0;

impl Default for LiveServerConfig {
    fn default() -> Self {
        Self {
            model: ServerModel::small(),
            limiter: FirLimiterConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Cumulative live-server counters (digest surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveServerCounters {
    /// NACK retransmits the server agreed to serve.
    pub nack_served: u64,
    /// NACK retransmits refused because the breaker was open.
    pub nack_shed: u64,
    /// Coalesced keyframe-encode batches executed.
    pub fir_batches: u64,
    /// Keyframes encoded across all batches.
    pub keyframes_encoded: u64,
}

nerve_net::wire_record!(LiveServerCounters {
    nack_served,
    nack_shed,
    fir_batches,
    keyframes_encoded
});

/// One granted keyframe, produced by a coalesced encode.
#[derive(Debug, Clone, Copy)]
pub struct KeyframeEncode {
    pub session: usize,
    /// When the batch that carried this keyframe finished encoding.
    pub ready_at: SimTime,
    /// Mean activation of the session's output plane — pure function of
    /// (session seed, model), a determinism witness across worker counts.
    pub checksum: f32,
}

/// Serializable position of a [`LiveServer`] (checkpoint payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveServerState {
    pub limiter: FirLimiterState,
    pub breaker: BreakerSnapshot,
    pub counters: LiveServerCounters,
    /// Running sum of encode checksums (f64 so accumulation order —
    /// which is canonical anyway — has headroom).
    pub checksum_acc: f64,
}

nerve_net::wire_record!(LiveServerState {
    limiter,
    breaker,
    counters,
    checksum_acc
});

/// The live edge server: FIR limiter + coalesced keyframe encoder +
/// breaker-gated NACK service.
#[derive(Debug, Clone)]
pub struct LiveServer {
    model: ServerModel,
    weight: Tensor,
    bias: Vec<f32>,
    /// Per-session input seeds (index = session id).
    input_seeds: Vec<u64>,
    limiter: FirLimiter,
    breaker: CircuitBreaker,
    pub counters: LiveServerCounters,
    checksum_acc: f64,
    /// Encode seconds spent in the current tick (feeds the breaker).
    tick_encode_secs: f64,
    tick_encoded: usize,
}

impl LiveServer {
    pub fn new(cfg: &LiveServerConfig, input_seeds: Vec<u64>) -> Self {
        Self {
            bias: vec![0.0; cfg.model.out_channels],
            model: cfg.model.clone(),
            weight: cfg.model.backbone_weight(0x5EED_11FE_0001),
            input_seeds,
            limiter: FirLimiter::new(cfg.limiter),
            breaker: CircuitBreaker::new(cfg.breaker),
            counters: LiveServerCounters::default(),
            checksum_acc: 0.0,
            tick_encode_secs: 0.0,
            tick_encoded: 0,
        }
    }

    /// Start one fleet tick (advances the breaker's cooldown clock).
    pub fn begin_tick(&mut self, now: SimTime) {
        self.breaker.begin_flush(now.as_secs_f64());
        self.tick_encode_secs = 0.0;
        self.tick_encoded = 0;
    }

    /// May a NACK retransmit be served right now? An open breaker sheds
    /// retransmit service while keyframe/live service continues.
    pub fn nack_allowed(&mut self) -> bool {
        if self.breaker.state() == BreakerState::Open {
            self.counters.nack_shed += 1;
            false
        } else {
            self.counters.nack_served += 1;
            true
        }
    }

    /// One session's FIR request at `now`: rate-limited grant.
    pub fn request_fir(&mut self, now: SimTime) -> bool {
        self.limiter.request(now)
    }

    /// Coalesce this tick's granted FIRs into one stacked keyframe
    /// encode. `sessions` must be in canonical (ascending) order — the
    /// caller's serial loop guarantees it — so the batch layout, the
    /// conv output, and the checksum accumulation order are all
    /// reproducible at any worker count.
    pub fn encode_keyframes(&mut self, now: SimTime, sessions: &[usize]) -> Vec<KeyframeEncode> {
        if sessions.is_empty() {
            return Vec::new();
        }
        let spec = self.model.spec();
        let inputs: Vec<Tensor> = sessions
            .iter()
            .map(|&s| {
                let mut rng = DetRng::new(self.input_seeds[s]);
                let len = spec.in_channels * self.model.height * self.model.width;
                Tensor::from_vec(
                    1,
                    spec.in_channels,
                    self.model.height,
                    self.model.width,
                    (0..len).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
                )
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let stacked = Tensor::stack(&refs);
        // Same meter scope as the VOD batcher: server backbone compute.
        let out = meter::stage("batch", || conv2d(&stacked, &self.weight, &self.bias, spec));
        let spent = self.model.batch_overhead_secs
            + sessions.len() as f64 * KEYFRAME_COST_FACTOR * self.model.macs_per_job()
                / self.model.macs_per_sec;
        let ready_at = now + SimTime::from_secs_f64(spent);
        self.tick_encode_secs += spent;
        self.tick_encoded += sessions.len();
        self.counters.fir_batches += 1;
        self.counters.keyframes_encoded += sessions.len() as u64;

        let plane = out.h() * out.w() * out.c();
        sessions
            .iter()
            .enumerate()
            .map(|(bi, &session)| {
                let start = bi * plane;
                let mean: f32 = out.data()[start..start + plane].iter().sum::<f32>() / plane as f32;
                self.checksum_acc += f64::from(mean);
                KeyframeEncode {
                    session,
                    ready_at,
                    checksum: mean,
                }
            })
            .collect()
    }

    /// Close one tick: feed this tick's encode load to the breaker.
    /// `tick_budget_secs` is the compute the tick affords (the frame
    /// interval); a tick whose encodes overran it is a service miss, and
    /// a gross overrun trips the watchdog immediately.
    pub fn end_tick(&mut self, now: SimTime, tick_budget_secs: f64) {
        if self.tick_encoded == 0 {
            return;
        }
        let spent = self.tick_encode_secs;
        let now_secs = now.as_secs_f64();
        // Only closed/half-open breakers take evidence; an open breaker
        // is already shedding and new encodes are the protected service.
        if self.breaker.state() != BreakerState::Open && self.breaker.allow_full() {
            self.breaker.record(spent <= tick_budget_secs, now_secs);
        }
        if spent > self.breaker.config().watchdog_budget_secs {
            self.breaker.trip_watchdog(now_secs);
        }
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    pub fn breaker_counters(&self) -> nerve_core::BreakerCounters {
        self.breaker.counters
    }

    pub fn limiter(&self) -> &FirLimiter {
        &self.limiter
    }

    /// Running checksum over every keyframe encoded so far.
    pub fn checksum_acc(&self) -> f64 {
        self.checksum_acc
    }

    /// Snapshot everything mutable for a checkpoint.
    pub fn state(&self) -> LiveServerState {
        LiveServerState {
            limiter: self.limiter.state(),
            breaker: self.breaker.snapshot(),
            counters: self.counters,
            checksum_acc: self.checksum_acc,
        }
    }

    /// Restore a snapshot taken by [`state`](Self::state).
    pub fn restore(&mut self, state: LiveServerState) {
        self.limiter.restore(state.limiter);
        self.breaker.restore(state.breaker);
        self.counters = state.counters;
        self.checksum_acc = state.checksum_acc;
        self.tick_encode_secs = 0.0;
        self.tick_encoded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn server(sessions: usize) -> LiveServer {
        let cfg = LiveServerConfig::default();
        LiveServer::new(&cfg, (0..sessions as u64).map(|s| 0xF1F0 ^ s).collect())
    }

    #[test]
    fn limiter_absorbs_a_burst_then_ratelimits() {
        let mut lim = FirLimiter::new(FirLimiterConfig {
            grants_per_sec: 2.0,
            burst_secs: 2.0, // 4 tokens
        });
        let granted = (0..10).filter(|_| lim.request(secs(1.0))).count();
        assert_eq!(granted, 4, "burst capacity bounds the storm front");
        assert_eq!(lim.requested, 10);
        assert_eq!(lim.granted, 4);
        assert_eq!(lim.ratelimited, 6);
        // Refill restores service at the sustained rate.
        assert!(lim.request(secs(2.0)));
    }

    #[test]
    fn limiter_state_round_trips() {
        let cfg = FirLimiterConfig::default();
        let mut whole = FirLimiter::new(cfg);
        let mut pre = FirLimiter::new(cfg);
        for k in 0..12 {
            let t = secs(0.1 * k as f64);
            whole.request(t);
            pre.request(t);
        }
        let mut resumed = FirLimiter::new(cfg);
        resumed.restore(pre.state());
        for k in 12..24 {
            let t = secs(0.1 * k as f64);
            assert_eq!(whole.request(t), resumed.request(t));
        }
        assert_eq!(whole.state(), resumed.state());
    }

    #[test]
    fn coalesced_encode_is_deterministic_and_counts_sessions() {
        let mut a = server(8);
        let mut b = server(8);
        let ka = a.encode_keyframes(secs(1.0), &[0, 2, 5, 7]);
        let kb = b.encode_keyframes(secs(1.0), &[0, 2, 5, 7]);
        assert_eq!(ka.len(), 4);
        for (x, y) in ka.iter().zip(&kb) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
            assert_eq!(x.ready_at, y.ready_at);
        }
        assert_eq!(a.counters.fir_batches, 1);
        assert_eq!(a.counters.keyframes_encoded, 4);
        // Per-session checksums are session-specific (distinct seeds).
        assert_ne!(ka[0].checksum.to_bits(), ka[1].checksum.to_bits());
    }

    #[test]
    fn overload_opens_the_breaker_and_sheds_nacks_first() {
        let cfg = LiveServerConfig {
            breaker: BreakerConfig {
                open_after_misses: 2,
                cooldown_secs: 5.0,
                probe_jobs: 2,
                watchdog_budget_secs: 10.0, // via misses, not the watchdog
            },
            ..LiveServerConfig::default()
        };
        let mut srv = LiveServer::new(&cfg, (0..32).map(|s| 0xF1F0 ^ s).collect());
        assert!(srv.nack_allowed(), "healthy server serves NACKs");
        // Two ticks whose encode load dwarfs a 0-second budget.
        for k in 0..2 {
            let t = secs(k as f64 * 0.04);
            srv.begin_tick(t);
            srv.encode_keyframes(t, &[0, 1, 2, 3, 4, 5, 6, 7]);
            srv.end_tick(t, 0.0);
        }
        assert_eq!(srv.breaker_state(), BreakerState::Open);
        assert!(!srv.nack_allowed(), "open breaker sheds retransmits");
        assert_eq!(srv.counters.nack_shed, 1);
        assert_eq!(srv.counters.nack_served, 1);
    }

    #[test]
    fn watchdog_trips_on_a_single_gross_overrun() {
        let cfg = LiveServerConfig {
            breaker: BreakerConfig {
                watchdog_budget_secs: 1e-6,
                ..BreakerConfig::default()
            },
            ..LiveServerConfig::default()
        };
        let mut srv = LiveServer::new(&cfg, (0..4).map(|s| 0xF1F0 ^ s).collect());
        srv.begin_tick(secs(0.0));
        srv.encode_keyframes(secs(0.0), &[0, 1, 2, 3]);
        srv.end_tick(secs(0.0), 1.0);
        assert_eq!(srv.breaker_state(), BreakerState::Open);
        assert_eq!(srv.breaker_counters().watchdog_trips, 1);
    }

    #[test]
    fn server_state_round_trips_through_a_storm() {
        let mk = || server(16);
        let drive = |srv: &mut LiveServer, ticks: std::ops::Range<usize>| {
            for k in ticks {
                let t = secs(k as f64 * 0.04);
                srv.begin_tick(t);
                let granted: Vec<usize> = (0..16).filter(|_| srv.request_fir(t)).collect();
                if !granted.is_empty() {
                    srv.encode_keyframes(t, &granted);
                }
                srv.nack_allowed();
                srv.end_tick(t, 0.04);
            }
        };
        let mut whole = mk();
        drive(&mut whole, 0..40);

        let mut pre = mk();
        drive(&mut pre, 0..17);
        let snap = pre.state();
        let mut post = mk();
        post.restore(snap);
        drive(&mut post, 17..40);

        assert_eq!(whole.state(), post.state());
        assert_eq!(
            whole.checksum_acc().to_bits(),
            post.checksum_acc().to_bits()
        );
    }
}
