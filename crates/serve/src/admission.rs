//! Admission control and backpressure for the edge server.
//!
//! The server rations two contended resources: uplink **bandwidth** and
//! inference **compute** (multiply-accumulates per second across the
//! shared SR/recovery backbone). Each is guarded by a deterministic
//! token bucket that refills in *virtual* time — admission is part of
//! the simulation, so replaying a fleet under the same seed replays
//! every admit/downgrade/reject decision bit-identically.
//!
//! A session arriving at time `t` asks for a reservation sized by its
//! ladder rung: higher rungs stream more bits and feed the enhancement
//! models larger inputs (more MACs). If the buckets cannot cover the top
//! rung, the controller walks the ladder downward until the demand fits
//! (**downgrade** — the session runs with a [`nerve_abr::CappedAbr`]
//! rung cap and a degradation counter), and rejects the session outright
//! if even the bottom rung does not fit (**backpressure**). This is the
//! BONES-style picture: near-optimal sharing of enhancement compute
//! across streams starts with bounding each stream's demand at the door.

use nerve_net::clock::SimTime;

/// A deterministic token bucket over virtual time.
///
/// `rate` tokens accrue per simulated second up to `capacity`. Draws
/// either succeed atomically or leave the bucket untouched, so admission
/// decisions never partially consume a reservation.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    rate: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A bucket holding at most `burst_secs` seconds of `rate`, starting
    /// full.
    pub fn new(rate: f64, burst_secs: f64) -> Self {
        let capacity = (rate * burst_secs).max(0.0);
        Self {
            capacity,
            tokens: capacity,
            rate: rate.max(0.0),
            last_refill: SimTime::ZERO,
        }
    }

    /// Accrue tokens up to `now`. Virtual time never rewinds in the
    /// fleet loop; stale calls are ignored.
    pub fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        let dt = now.saturating_sub(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.capacity);
        self.last_refill = now;
    }

    /// Draw `amount` tokens, or return false and leave the bucket as-is.
    pub fn try_take(&mut self, amount: f64) -> bool {
        if amount <= self.tokens {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Drain up to `amount` tokens unconditionally (best effort, floors
    /// at empty) and return what was actually taken. Unlike
    /// [`try_take`](Self::try_take), this is a *charge*, not a
    /// reservation: the caller has already incurred the cost (e.g. a
    /// weight-cache miss loading an artifact) and the bucket merely
    /// records it so later arrivals feel the pressure.
    pub fn drain(&mut self, amount: f64) -> f64 {
        let taken = amount.clamp(0.0, self.tokens);
        self.tokens -= taken;
        taken
    }

    /// Snapshot the mutable state for a checkpoint (rate and capacity
    /// travel with the reconstructing config).
    pub fn state(&self) -> TokenBucketState {
        TokenBucketState {
            tokens: self.tokens,
            last_refill: self.last_refill,
        }
    }

    /// Restore a snapshot taken by [`state`](Self::state).
    pub fn restore(&mut self, state: TokenBucketState) {
        self.tokens = state.tokens.clamp(0.0, self.capacity);
        self.last_refill = state.last_refill;
    }
}

/// Serializable position of a [`TokenBucket`] (checkpoint payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketState {
    pub tokens: f64,
    pub last_refill: SimTime,
}

nerve_net::wire_record!(TokenBucketState {
    tokens,
    last_refill
});

/// Resource budgets for the admission controller.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Aggregate media bandwidth budget, kbps.
    pub bandwidth_kbps: f64,
    /// Aggregate inference budget, multiply-accumulates per second.
    pub macs_per_sec: f64,
    /// Bucket depth, in seconds of the budget rate. Also the horizon a
    /// reservation is sized for: an arriving session draws
    /// `demand × burst_secs` tokens.
    pub burst_secs: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            bandwidth_kbps: 20_000.0,
            macs_per_sec: 2.0e9,
            burst_secs: 8.0,
        }
    }
}

/// What the controller decided for one arriving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted at the full ladder.
    Accept,
    /// Admitted, but clamped to ladder rungs `0..=cap` (`cap` is below
    /// the top rung).
    Downgrade { cap: usize },
    /// No rung fits the remaining budget.
    Reject,
}

/// Steady-state demand of one session at a given rung cap.
#[derive(Debug, Clone, Copy)]
pub struct SessionDemand {
    /// Media bitrate at the rung, kbps.
    pub bandwidth_kbps: f64,
    /// Worst-case enhancement compute at the rung, MACs/s.
    pub macs_per_sec: f64,
}

/// The edge server's front door.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    bw: TokenBucket,
    macs: TokenBucket,
    burst_secs: f64,
    /// Sessions admitted at full quality / downgraded / rejected.
    pub accepted: usize,
    pub downgraded: usize,
    pub rejected: usize,
}

impl AdmissionController {
    pub fn new(cfg: &AdmissionConfig) -> Self {
        Self {
            bw: TokenBucket::new(cfg.bandwidth_kbps, cfg.burst_secs),
            macs: TokenBucket::new(cfg.macs_per_sec, cfg.burst_secs),
            burst_secs: cfg.burst_secs,
            accepted: 0,
            downgraded: 0,
            rejected: 0,
        }
    }

    /// Admit one session arriving at `now`. `demand_at(cap)` reports the
    /// session's steady-state demand when clamped to rung `cap`;
    /// `top_rung` is the highest ladder index. The controller walks caps
    /// from `top_rung` downward and reserves the first that fits both
    /// buckets.
    pub fn admit(
        &mut self,
        now: SimTime,
        top_rung: usize,
        demand_at: impl Fn(usize) -> SessionDemand,
    ) -> Admission {
        self.bw.refill(now);
        self.macs.refill(now);
        for cap in (0..=top_rung).rev() {
            let d = demand_at(cap);
            let bw_tokens = d.bandwidth_kbps * self.burst_secs;
            let mac_tokens = d.macs_per_sec * self.burst_secs;
            if self.bw.available() >= bw_tokens && self.macs.available() >= mac_tokens {
                assert!(self.bw.try_take(bw_tokens) && self.macs.try_take(mac_tokens));
                return if cap == top_rung {
                    self.accepted += 1;
                    Admission::Accept
                } else {
                    self.downgraded += 1;
                    Admission::Downgrade { cap }
                };
            }
        }
        self.rejected += 1;
        Admission::Reject
    }

    /// Charge a weight-cache miss against the compute budget: loading
    /// and warming a specialist head costs `macs` multiply-accumulates
    /// that the enhancement backbone cannot spend on sessions. The
    /// charge drains best-effort (a huge artifact empties the bucket
    /// rather than going negative), so a cold cache visibly throttles
    /// the sessions that arrive behind it. Returns the MACs actually
    /// drained.
    pub fn charge_load(&mut self, now: SimTime, macs: f64) -> f64 {
        self.macs.refill(now);
        self.macs.drain(macs)
    }

    /// Snapshot the controller's mutable state for a fleet checkpoint
    /// (budgets and burst travel with the reconstructing config).
    pub fn state(&self) -> AdmissionState {
        AdmissionState {
            bw: self.bw.state(),
            macs: self.macs.state(),
            accepted: self.accepted,
            downgraded: self.downgraded,
            rejected: self.rejected,
        }
    }

    /// Restore a snapshot taken by [`state`](Self::state).
    pub fn restore(&mut self, state: AdmissionState) {
        self.bw.restore(state.bw);
        self.macs.restore(state.macs);
        self.accepted = state.accepted;
        self.downgraded = state.downgraded;
        self.rejected = state.rejected;
    }
}

/// Serializable position of an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionState {
    pub bw: TokenBucketState,
    pub macs: TokenBucketState,
    pub accepted: usize,
    pub downgraded: usize,
    pub rejected: usize,
}

nerve_net::wire_record!(AdmissionState {
    bw,
    macs,
    accepted,
    downgraded,
    rejected
});

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn bucket_refills_at_rate_and_caps_at_capacity() {
        let mut b = TokenBucket::new(10.0, 2.0); // capacity 20, starts full
        assert!(b.try_take(20.0));
        assert!(!b.try_take(1.0));
        b.refill(secs(1.0));
        assert!((b.available() - 10.0).abs() < 1e-9);
        b.refill(secs(100.0));
        assert!((b.available() - 20.0).abs() < 1e-9, "capped at capacity");
        // Time never rewinds the bucket.
        b.refill(secs(50.0));
        assert!((b.available() - 20.0).abs() < 1e-9);
    }

    fn ladder_demand(ladder: &'static [f64]) -> impl Fn(usize) -> SessionDemand {
        move |cap| SessionDemand {
            bandwidth_kbps: ladder[cap],
            macs_per_sec: 1e6 * (cap + 1) as f64,
        }
    }

    #[test]
    fn controller_accepts_then_downgrades_then_rejects() {
        static LADDER: [f64; 3] = [500.0, 1000.0, 2000.0];
        let cfg = AdmissionConfig {
            // Budget covers 3500 kbps of steady demand (capacity and
            // draws both scale by burst_secs, so the rate is what
            // reservations subtract from).
            bandwidth_kbps: 3500.0,
            macs_per_sec: 1e12,
            burst_secs: 8.0,
        };
        let mut ctl = AdmissionController::new(&cfg);
        // First session takes the top rung (2000 kbps × 8 s).
        assert_eq!(
            ctl.admit(SimTime::ZERO, 2, ladder_demand(&LADDER)),
            Admission::Accept
        );
        // 1500 kbit·8 left: the second fits only rung 1.
        assert_eq!(
            ctl.admit(SimTime::ZERO, 2, ladder_demand(&LADDER)),
            Admission::Downgrade { cap: 1 }
        );
        // 500 kbit·8 left: third is clamped to the bottom rung.
        assert_eq!(
            ctl.admit(SimTime::ZERO, 2, ladder_demand(&LADDER)),
            Admission::Downgrade { cap: 0 }
        );
        // Nothing left: reject.
        assert_eq!(
            ctl.admit(SimTime::ZERO, 2, ladder_demand(&LADDER)),
            Admission::Reject
        );
        assert_eq!((ctl.accepted, ctl.downgraded, ctl.rejected), (1, 2, 1));
    }

    #[test]
    fn mac_budget_downgrades_independently_of_bandwidth() {
        static LADDER: [f64; 3] = [500.0, 1000.0, 2000.0];
        let cfg = AdmissionConfig {
            bandwidth_kbps: 1e9,
            macs_per_sec: 2.5e6, // fits 2 MAC-units of the 3-unit top rung
            burst_secs: 4.0,
        };
        let mut ctl = AdmissionController::new(&cfg);
        assert_eq!(
            ctl.admit(SimTime::ZERO, 2, ladder_demand(&LADDER)),
            Admission::Downgrade { cap: 1 }
        );
    }

    #[test]
    fn staggered_arrivals_are_absorbed_by_refill() {
        static LADDER: [f64; 2] = [500.0, 1000.0];
        let cfg = AdmissionConfig {
            bandwidth_kbps: 1000.0,
            macs_per_sec: 1e12,
            burst_secs: 8.0,
        };
        let mut ctl = AdmissionController::new(&cfg);
        assert_eq!(
            ctl.admit(SimTime::ZERO, 1, ladder_demand(&LADDER)),
            Admission::Accept
        );
        // Immediately after, the bucket is empty — but 8 seconds of
        // refill covers a second full-rate session.
        assert_eq!(
            ctl.admit(secs(8.0), 1, ladder_demand(&LADDER)),
            Admission::Accept
        );
    }
}
