//! Circuit breaker + watchdog for the inference service path.
//!
//! The PR-1 degradation ladder handles *per-job* overload: a job whose
//! remaining budget cannot cover a full pass degrades individually. What
//! it cannot handle is *sustained* overload — a server that misses
//! deadline after deadline keeps paying the full-pass attempt cost on
//! every new job, which is exactly the regime where shedding early is
//! cheaper than failing late. The breaker adds that memory:
//!
//! * **Closed** — normal service. `open_after_misses` *consecutive*
//!   deadline misses trip it open (one success resets the count, so
//!   isolated misses under bursty arrivals never trip).
//! * **Open** — every job is fast-shed to its cheap rung (warp-only for
//!   recovery, skip for SR) without attempting a full pass. After
//!   `cooldown_secs` the next flush moves to half-open.
//! * **Half-open** — up to `probe_jobs` jobs per flush are allowed a full
//!   pass. `probe_jobs` consecutive successes re-close the breaker; a
//!   single probe miss re-opens it and restarts the cooldown.
//!
//! Independently, a **watchdog** bounds one flush's compute: if the
//! service cursor overruns `watchdog_budget_secs`, the breaker is forced
//! open on the spot (a hung or pathologically oversized batch must not
//! take the next flush down with it).
//!
//! Time is plain `f64` seconds: the breaker only ever compares durations
//! it was handed. A [`BreakerSnapshot`] travels in the NRVF and NRVL
//! state frames through its [`Wire`] layout.

use nerve_net::bytes::{ByteReader, ByteWriter, FrameError, Wire};

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive full-service deadline misses that trip the breaker.
    pub open_after_misses: usize,
    /// Time the breaker stays open before probing again.
    pub cooldown_secs: f64,
    /// Probes allowed per half-open flush; the same number of consecutive
    /// probe successes re-closes the breaker.
    pub probe_jobs: usize,
    /// Max service-cursor advance one flush may consume before the
    /// watchdog force-opens the breaker.
    pub watchdog_budget_secs: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            open_after_misses: 8,
            cooldown_secs: 2.0,
            probe_jobs: 4,
            watchdog_budget_secs: 0.25,
        }
    }
}

/// The classic three states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// One tag byte; an unknown tag is `BadField { field: "breaker_state" }`.
impl Wire for BreakerState {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        })
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(BreakerState::Closed),
            1 => Ok(BreakerState::Open),
            2 => Ok(BreakerState::HalfOpen),
            v => Err(FrameError::bad_field("breaker_state", v)),
        }
    }
}

/// Cumulative transition/action counters, surfaced through batcher and
/// fleet reports (and folded into their determinism digests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerCounters {
    /// Closed/half-open → open transitions (includes watchdog trips).
    pub opened: u64,
    /// Open → half-open transitions (cooldown expiry).
    pub half_opened: u64,
    /// Half-open → closed transitions (probe successes).
    pub closed: u64,
    /// Watchdog force-opens (also counted in `opened`).
    pub watchdog_trips: u64,
    /// Jobs denied a full pass because the breaker was open (or past the
    /// half-open probe allowance).
    pub fast_shed: u64,
}

nerve_net::wire_record!(BreakerCounters {
    opened,
    half_opened,
    closed,
    watchdog_trips,
    fast_shed
});

/// Serializable position of a breaker (checkpoint payload): everything
/// mutable, nothing from the config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSnapshot {
    pub state: BreakerState,
    pub streak: usize,
    pub opened_at_secs: f64,
    pub probes_issued: usize,
    pub counters: BreakerCounters,
}

nerve_net::wire_record!(BreakerSnapshot {
    state,
    streak,
    opened_at_secs,
    probes_issued,
    counters
});

/// The breaker itself. Drive it with [`begin_flush`](Self::begin_flush) /
/// [`allow_full`](Self::allow_full) / [`record`](Self::record); all
/// methods are O(1) and deterministic.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Consecutive misses while closed, or consecutive probe successes
    /// while half-open (the two counts are never live at once).
    streak: usize,
    /// When the breaker last opened, in the caller's clock.
    opened_at_secs: f64,
    /// Probes issued during the current half-open flush.
    probes_issued: usize,
    pub counters: BreakerCounters,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        assert!(config.open_after_misses >= 1, "breaker needs a threshold");
        assert!(config.probe_jobs >= 1, "breaker needs at least one probe");
        Self {
            config,
            state: BreakerState::Closed,
            streak: 0,
            opened_at_secs: 0.0,
            probes_issued: 0,
            counters: BreakerCounters::default(),
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Start a flush at `now_secs`: an open breaker whose cooldown has
    /// elapsed moves to half-open and re-arms its probe allowance.
    pub fn begin_flush(&mut self, now_secs: f64) {
        if self.state == BreakerState::Open
            && now_secs >= self.opened_at_secs + self.config.cooldown_secs
        {
            self.state = BreakerState::HalfOpen;
            self.streak = 0;
            self.counters.half_opened += 1;
        }
        self.probes_issued = 0;
    }

    /// May the next job attempt a full pass? `false` means fast-shed it
    /// to the cheap rung and do **not** call [`record`](Self::record).
    pub fn allow_full(&mut self) -> bool {
        let allowed = match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => self.probes_issued < self.config.probe_jobs,
        };
        if allowed {
            if self.state == BreakerState::HalfOpen {
                self.probes_issued += 1;
            }
        } else {
            self.counters.fast_shed += 1;
        }
        allowed
    }

    /// Report one allowed job's outcome: `met_deadline` is "served with a
    /// full pass, on time". Only call for jobs [`allow_full`](Self::allow_full)
    /// admitted — fast-shed jobs are not evidence about server health.
    pub fn record(&mut self, met_deadline: bool, now_secs: f64) {
        match self.state {
            BreakerState::Closed => {
                if met_deadline {
                    self.streak = 0;
                } else {
                    self.streak += 1;
                    if self.streak >= self.config.open_after_misses {
                        self.open(now_secs);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if met_deadline {
                    self.streak += 1;
                    if self.streak >= self.config.probe_jobs {
                        self.state = BreakerState::Closed;
                        self.streak = 0;
                        self.counters.closed += 1;
                    }
                } else {
                    // One failed probe re-opens and restarts the cooldown.
                    self.open(now_secs);
                }
            }
            // Open: record() is never reached (allow_full refused), but a
            // stray call must not corrupt state.
            BreakerState::Open => {}
        }
    }

    /// Snapshot the full mutable state for a checkpoint. The config does
    /// not travel — the resuming caller reconstructs it.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            streak: self.streak,
            opened_at_secs: self.opened_at_secs,
            probes_issued: self.probes_issued,
            counters: self.counters,
        }
    }

    /// Restore a snapshot taken by [`snapshot`](Self::snapshot): the
    /// breaker continues mid-cooldown / mid-probe exactly where the
    /// killed instance stopped.
    pub fn restore(&mut self, snap: BreakerSnapshot) {
        self.state = snap.state;
        self.streak = snap.streak;
        self.opened_at_secs = snap.opened_at_secs;
        self.probes_issued = snap.probes_issued;
        self.counters = snap.counters;
    }

    /// Force-open after a flush overran its compute budget.
    pub fn trip_watchdog(&mut self, now_secs: f64) {
        self.counters.watchdog_trips += 1;
        self.open(now_secs);
    }

    fn open(&mut self, now_secs: f64) {
        self.state = BreakerState::Open;
        self.streak = 0;
        self.opened_at_secs = now_secs;
        self.counters.opened += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            open_after_misses: 3,
            cooldown_secs: 1.0,
            probe_jobs: 2,
            watchdog_budget_secs: 0.25,
        }
    }

    #[test]
    fn consecutive_misses_trip_it_but_a_success_resets_the_streak() {
        let mut b = CircuitBreaker::new(cfg());
        b.begin_flush(0.0);
        b.record(false, 0.0);
        b.record(false, 0.0);
        b.record(true, 0.0); // resets
        b.record(false, 0.0);
        b.record(false, 0.0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, 0.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters.opened, 1);
    }

    #[test]
    fn open_breaker_fast_sheds_until_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        b.trip_watchdog(0.0);
        b.begin_flush(0.5); // cooldown not elapsed
        assert!(!b.allow_full());
        assert!(!b.allow_full());
        assert_eq!(b.counters.fast_shed, 2);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn full_open_probe_close_cycle() {
        let mut b = CircuitBreaker::new(cfg());
        // Trip it.
        b.begin_flush(0.0);
        for _ in 0..3 {
            assert!(b.allow_full());
            b.record(false, 0.0);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown elapsed → half-open with a bounded probe allowance.
        b.begin_flush(1.5);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.counters.half_opened, 1);
        assert!(b.allow_full());
        assert!(b.allow_full());
        assert!(!b.allow_full(), "probe allowance is bounded per flush");
        // Both probes succeed → closed again.
        b.record(true, 1.5);
        b.record(true, 1.5);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.counters.closed, 1);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        b.trip_watchdog(0.0);
        b.begin_flush(1.5);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow_full());
        b.record(false, 1.5);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters.opened, 2);
        // The cooldown restarts from the re-open time.
        b.begin_flush(2.0);
        assert_eq!(b.state(), BreakerState::Open);
        b.begin_flush(2.6);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn snapshot_round_trips_mid_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        b.begin_flush(0.0);
        for _ in 0..3 {
            b.record(false, 0.4);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let snap = b.snapshot();

        let mut resumed = CircuitBreaker::new(cfg());
        resumed.restore(snap);
        // Both instances see the cooldown expire at the same flush and
        // walk the identical probe cycle afterwards.
        for inst in [&mut b, &mut resumed] {
            inst.begin_flush(1.5);
            assert_eq!(inst.state(), BreakerState::HalfOpen);
            assert!(inst.allow_full());
            inst.record(true, 1.5);
        }
        assert_eq!(b.snapshot(), resumed.snapshot());
    }

    #[test]
    fn watchdog_trip_is_counted_separately_and_in_opened() {
        let mut b = CircuitBreaker::new(cfg());
        b.trip_watchdog(0.3);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters.watchdog_trips, 1);
        assert_eq!(b.counters.opened, 1);
    }
}
