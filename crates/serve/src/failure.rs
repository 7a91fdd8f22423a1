//! The failure-domain plane: unplanned fail-stop servers, health-checked
//! placement, and the deterministic evacuation transfer model.
//!
//! A [`ServerFailure`] is the *unplanned* counterpart of the planned
//! [`crate::ServerRestart`]: where a restart drains its batcher first
//! (nothing lost), a fail-stop drops every in-flight job on the floor
//! (charged per session as `failed_in_flight`, never silently settled)
//! and forces the resident sessions into *evacuation*. Evacuation rides
//! the NRVT ticket codec over a faulty inter-server control link — a
//! directional [`FaultPlan`] — with capped retries, exponential backoff,
//! and a hard deadline, so failover has a latency distribution rather
//! than being a free barrier teleport.
//!
//! Everything in this module is a pure function of the configuration:
//! transfer outcomes, probe results, and health transitions never read
//! execution state, which is what keeps the fleet digest byte-identical
//! at any `--jobs` value.

use nerve_net::clock::SimTime;
use nerve_net::faults::{Direction, FaultPlan};

/// One unplanned fail-stop in the fleet plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFailure {
    /// The server that dies.
    pub server: usize,
    /// Virtual instant of the fail-stop.
    pub at_secs: f64,
    /// If set, the server rejoins (empty, cold) at this instant and goes
    /// through half-open probation before taking new placements.
    pub rejoin_secs: Option<f64>,
}

impl ServerFailure {
    /// Is the server scheduled to be up at `t` under this entry alone?
    fn up_at(&self, t: f64) -> bool {
        if t < self.at_secs {
            return true;
        }
        match self.rejoin_secs {
            Some(r) => t >= r,
            None => false,
        }
    }
}

/// Is server `s` scheduled up at `t` under the whole failure plan?
/// Pure: this is the oracle the health prober samples.
pub fn server_up_at(plan: &[ServerFailure], s: usize, t: f64) -> bool {
    plan.iter().filter(|f| f.server == s).all(|f| f.up_at(t))
}

/// Health-check parameters for the fleet's placement layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Probe period in virtual seconds.
    pub probe_secs: f64,
    /// Consecutive missed probes before a server turns Suspect.
    pub suspect_after: u32,
    /// Consecutive missed probes before a Suspect is declared Dead.
    pub dead_after: u32,
    /// Consecutive successful probes a rejoined (Probation) server must
    /// answer before it is Healthy again and takes new placements.
    pub probation_probes: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            probe_secs: 0.25,
            suspect_after: 2,
            dead_after: 4,
            probation_probes: 2,
        }
    }
}

/// The breaker-style three-state (plus probation) health machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Answering probes; eligible for placement.
    Healthy,
    /// Missed `suspect_after` consecutive probes; skipped by placement.
    Suspect,
    /// Missed `dead_after` consecutive probes; skipped by placement.
    Dead,
    /// Back from the dead (half-open): answering probes again but not
    /// yet trusted with new placements.
    Probation,
}

impl HealthState {
    pub fn label(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Suspect => "suspect",
            Self::Dead => "dead",
            Self::Probation => "probation",
        }
    }

    /// Stable wire code for the checkpoint codec.
    pub fn code(self) -> u8 {
        match self {
            Self::Healthy => 0,
            Self::Suspect => 1,
            Self::Dead => 2,
            Self::Probation => 3,
        }
    }

    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Healthy),
            1 => Some(Self::Suspect),
            2 => Some(Self::Dead),
            3 => Some(Self::Probation),
            _ => None,
        }
    }
}

/// Transition counters of one health machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Healthy → Suspect transitions.
    pub suspected: u64,
    /// → Dead transitions (from Suspect or Probation).
    pub died: u64,
    /// Dead → Probation transitions.
    pub probations: u64,
    /// Probation → Healthy transitions.
    pub recovered: u64,
}

nerve_net::wire_record!(HealthCounters {
    suspected,
    died,
    probations,
    recovered
});

/// Per-server probe-driven health machine.
///
/// Legal transitions (asserted by the model-based tests):
/// `Healthy → Suspect → Dead → Probation → Healthy`, plus the short
/// recoveries `Suspect → Healthy` (a probe lands before the dead
/// threshold) and `Probation → Dead` (a probe misses during probation).
#[derive(Debug, Clone, Copy)]
pub struct ServerHealth {
    cfg: HealthConfig,
    state: HealthState,
    /// Consecutive misses while Healthy/Suspect, consecutive successes
    /// while in Probation.
    streak: u32,
    counters: HealthCounters,
}

impl ServerHealth {
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            state: HealthState::Healthy,
            streak: 0,
            counters: HealthCounters::default(),
        }
    }

    pub fn state(&self) -> HealthState {
        self.state
    }

    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// Current streak (misses toward death, or probe successes toward
    /// recovery while in probation). Exposed for checkpointing.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Rebuild a machine from checkpointed state.
    pub fn restore(
        cfg: HealthConfig,
        state: HealthState,
        streak: u32,
        counters: HealthCounters,
    ) -> Self {
        Self {
            cfg,
            state,
            streak,
            counters,
        }
    }

    /// May the placement layer hand this server new sessions?
    pub fn placeable(&self) -> bool {
        self.state == HealthState::Healthy
    }

    /// Feed one probe result.
    pub fn probe(&mut self, ok: bool) {
        match (self.state, ok) {
            (HealthState::Healthy, true) => self.streak = 0,
            (HealthState::Healthy | HealthState::Suspect, false) => {
                self.streak += 1;
                if self.streak >= self.cfg.dead_after {
                    if self.state == HealthState::Suspect {
                        self.state = HealthState::Dead;
                        self.counters.died += 1;
                    } else {
                        // dead_after <= suspect_after: pass through
                        // Suspect so the transition stays legal.
                        self.counters.suspected += 1;
                        self.state = HealthState::Dead;
                        self.counters.died += 1;
                    }
                } else if self.state == HealthState::Healthy
                    && self.streak >= self.cfg.suspect_after
                {
                    self.state = HealthState::Suspect;
                    self.counters.suspected += 1;
                }
            }
            (HealthState::Suspect, true) => {
                self.state = HealthState::Healthy;
                self.streak = 0;
            }
            (HealthState::Dead, true) => {
                self.state = HealthState::Probation;
                self.counters.probations += 1;
                self.streak = 1;
                if self.streak >= self.cfg.probation_probes {
                    self.state = HealthState::Healthy;
                    self.counters.recovered += 1;
                    self.streak = 0;
                }
            }
            (HealthState::Dead, false) => self.streak = 0,
            (HealthState::Probation, true) => {
                self.streak += 1;
                if self.streak >= self.cfg.probation_probes {
                    self.state = HealthState::Healthy;
                    self.counters.recovered += 1;
                    self.streak = 0;
                }
            }
            (HealthState::Probation, false) => {
                self.state = HealthState::Dead;
                self.counters.died += 1;
                self.streak = 0;
            }
        }
    }
}

/// The fleet-wide prober: one machine per server, probes fired at fixed
/// multiples of `probe_secs` against the pure scheduled-uptime oracle.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: HealthConfig,
    machines: Vec<ServerHealth>,
    /// Index of the last probe instant already fed (probe `k` fires at
    /// `k * probe_secs`, `k >= 1`).
    fed: u64,
}

impl HealthTracker {
    pub fn new(cfg: HealthConfig, servers: usize) -> Self {
        Self {
            cfg,
            machines: vec![ServerHealth::new(cfg); servers],
            fed: 0,
        }
    }

    pub fn machines(&self) -> &[ServerHealth] {
        &self.machines
    }

    pub fn machines_mut(&mut self) -> &mut [ServerHealth] {
        &mut self.machines
    }

    pub fn fed(&self) -> u64 {
        self.fed
    }

    pub fn set_fed(&mut self, fed: u64) {
        self.fed = fed;
    }

    pub fn state(&self, server: usize) -> HealthState {
        self.machines[server].state()
    }

    /// Feed every probe instant in `(fed * probe_secs, to_secs]`, in
    /// order, sampling scheduled uptime from the failure plan.
    pub fn advance(&mut self, to_secs: f64, plan: &[ServerFailure]) {
        if self.cfg.probe_secs <= 0.0 {
            return;
        }
        loop {
            let next = (self.fed + 1) as f64 * self.cfg.probe_secs;
            if next > to_secs + 1e-12 {
                break;
            }
            self.fed += 1;
            for (s, m) in self.machines.iter_mut().enumerate() {
                m.probe(server_up_at(plan, s, next));
            }
        }
    }

    /// Summed transition counters across the fleet.
    pub fn totals(&self) -> HealthCounters {
        let mut t = HealthCounters::default();
        for m in &self.machines {
            t.suspected += m.counters.suspected;
            t.died += m.counters.died;
            t.probations += m.counters.probations;
            t.recovered += m.counters.recovered;
        }
        t
    }
}

/// The evacuation transfer policy: retries, backoff, deadline, and the
/// control-link fault plan the NRVT tickets ride over.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Faults on the inter-server control link. Ticket sends are
    /// downlink draws (server → server transfer direction).
    pub ctl_faults: FaultPlan,
    /// One-way ticket transfer latency, seconds.
    pub transfer_secs: f64,
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// First backoff; doubles each retry.
    pub base_backoff_secs: f64,
    /// Hard budget from fail-stop to ticket landing. A session whose
    /// ticket cannot land inside the deadline burns through the full
    /// degradation ladder and is *re-admitted* on the target instead.
    pub deadline_secs: f64,
    /// Health-check parameters for placement.
    pub health: HealthConfig,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        Self {
            ctl_faults: FaultPlan::new(0x4E52_5646),
            transfer_secs: 0.05,
            max_retries: 4,
            base_backoff_secs: 0.1,
            deadline_secs: 2.0,
            health: HealthConfig::default(),
        }
    }
}

/// The planned outcome of one session's ticket transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicketTransfer {
    /// Landing instant, if any attempt succeeded inside the deadline.
    pub land_secs: Option<f64>,
    /// Attempts beyond the first.
    pub retries: u32,
}

/// Plan one session's evacuation transfer from a fail-stop at
/// `fail_secs`. Attempt `k` completes at
/// `fail + transfer + Σ_{j<k} base_backoff · 2^j` and succeeds iff the
/// control link does not lose it; the salt folds in the session id and
/// attempt number so draws are independent per (session, attempt) and
/// independent of execution order.
pub fn plan_transfer(fo: &FailoverConfig, fail_secs: f64, session: usize) -> TicketTransfer {
    let mut offset = fo.transfer_secs;
    for attempt in 0..=fo.max_retries {
        let t = fail_secs + offset;
        if t - fail_secs > fo.deadline_secs + 1e-12 {
            return TicketTransfer {
                land_secs: None,
                retries: attempt,
            };
        }
        let salt = (session as u64) << 8 | attempt as u64;
        let lost = fo
            .ctl_faults
            .dir_lose_at(Direction::Downlink, SimTime::from_secs_f64(t), salt);
        if !lost {
            return TicketTransfer {
                land_secs: Some(t),
                retries: attempt,
            };
        }
        offset += fo.base_backoff_secs * (1u64 << attempt.min(20)) as f64;
    }
    TicketTransfer {
        land_secs: None,
        retries: fo.max_retries,
    }
}

/// Fleet-wide failover statistics (present on [`crate::FleetResult`]
/// whenever the failure plan is non-empty).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailoverStats {
    /// Fail-stop events executed.
    pub server_failures: usize,
    /// Rejoin events executed.
    pub rejoins: usize,
    /// Sessions forced into evacuation.
    pub evacuated: usize,
    /// Tickets that landed inside the deadline.
    pub landed: usize,
    /// Tickets that burned the full deadline (stall + re-admission).
    pub lost_transfers: usize,
    /// Evacuations absorbed entirely by playout buffer (warp-only).
    pub warp: usize,
    /// Evacuations that drained the buffer (visible freeze).
    pub freeze: usize,
    /// Evacuations that stalled out and re-admitted cold.
    pub stall: usize,
    /// Transfer retries summed over all evacuations.
    pub retries: u64,
    /// Planned handoffs redirected or skipped because of health state.
    pub redirected_handoffs: usize,
    /// In-flight batcher jobs dropped by fail-stops.
    pub jobs_failed_in_flight: usize,
    /// Evacuated sessions that finished admitted on the target.
    pub sessions_recovered: usize,
    /// Evacuated sessions rejected at re-admission (lost).
    pub sessions_lost: usize,
    /// Failover latency (fail-stop → ticket landing), nearest-rank p50.
    pub latency_p50_secs: f64,
    /// Failover latency, nearest-rank p95.
    pub latency_p95_secs: f64,
    /// Health transitions summed over the fleet.
    pub health: HealthCounters,
}

/// Per-server failure-domain counters (part of
/// [`crate::fleet::ServerSummary`] and the gated digest block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerFailureCounters {
    /// Fail-stop events executed on this server.
    pub failures: usize,
    /// Rejoin events executed on this server.
    pub rejoins: usize,
    /// Sessions evacuated out at fail-stops.
    pub evac_out: usize,
    /// Evacuated sessions that landed here.
    pub evac_in: usize,
    /// Landings absorbed by playout buffer.
    pub evac_warp: usize,
    /// Landings that drained the buffer (visible freeze).
    pub evac_freeze: usize,
    /// Deadline-burned landings (stall + cold re-admission).
    pub evac_stall: usize,
    /// In-flight batcher jobs dropped by fail-stops here.
    pub jobs_failed: usize,
}

nerve_net::wire_record!(ServerFailureCounters {
    failures,
    rejoins,
    evac_out,
    evac_in,
    evac_warp,
    evac_freeze,
    evac_stall,
    jobs_failed
});

/// The invariant checker's verdict, accumulated over the run. It counts
/// only checks that every build runs (per-event settle and evacuation
/// checks, and the fleet's conservation and job-accounting checks at
/// assembly), so it is the same in debug and release and may enter
/// digests. Debug builds also assert a conservation census at every
/// instant, which is not counted. `violations` must be zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Individual invariant checks evaluated.
    pub checks: u64,
    /// Checks that failed (a bug: asserted zero in debug builds).
    pub violations: u64,
}

nerve_net::wire_record!(InvariantReport { checks, violations });

impl InvariantReport {
    pub fn absorb(&mut self, other: InvariantReport) {
        self.checks += other.checks;
        self.violations += other.violations;
    }
}

/// Nearest-rank percentile (`p` in percent) of an unsorted sample, 0
/// when empty: [`nerve_obs::percentile_nearest_rank`] on a sorted copy.
pub fn percentile_nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nerve_obs::percentile_nearest_rank(&v, p / 100.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_uptime_tracks_fail_and_rejoin() {
        let plan = vec![
            ServerFailure {
                server: 1,
                at_secs: 2.0,
                rejoin_secs: Some(4.0),
            },
            ServerFailure {
                server: 2,
                at_secs: 3.0,
                rejoin_secs: None,
            },
        ];
        assert!(server_up_at(&plan, 0, 10.0));
        assert!(server_up_at(&plan, 1, 1.9));
        assert!(!server_up_at(&plan, 1, 2.0));
        assert!(!server_up_at(&plan, 1, 3.9));
        assert!(server_up_at(&plan, 1, 4.0));
        assert!(!server_up_at(&plan, 2, 100.0));
    }

    #[test]
    fn health_machine_walks_suspect_dead_probation_healthy() {
        let cfg = HealthConfig {
            probe_secs: 1.0,
            suspect_after: 2,
            dead_after: 3,
            probation_probes: 2,
        };
        let mut h = ServerHealth::new(cfg);
        assert_eq!(h.state(), HealthState::Healthy);
        h.probe(false);
        assert_eq!(h.state(), HealthState::Healthy);
        h.probe(false);
        assert_eq!(h.state(), HealthState::Suspect);
        assert!(!h.placeable());
        h.probe(false);
        assert_eq!(h.state(), HealthState::Dead);
        h.probe(true);
        assert_eq!(h.state(), HealthState::Probation);
        assert!(!h.placeable(), "probation must not take new sessions");
        h.probe(true);
        assert_eq!(h.state(), HealthState::Healthy);
        let c = h.counters();
        assert_eq!(
            (c.suspected, c.died, c.probations, c.recovered),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn suspect_recovers_on_a_good_probe() {
        let mut h = ServerHealth::new(HealthConfig::default());
        h.probe(false);
        h.probe(false);
        assert_eq!(h.state(), HealthState::Suspect);
        h.probe(true);
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.counters().died, 0);
    }

    #[test]
    fn probation_miss_falls_back_to_dead() {
        let cfg = HealthConfig {
            probation_probes: 3,
            ..HealthConfig::default()
        };
        let mut h = ServerHealth::new(cfg);
        for _ in 0..cfg.dead_after {
            h.probe(false);
        }
        assert_eq!(h.state(), HealthState::Dead);
        h.probe(true);
        assert_eq!(h.state(), HealthState::Probation);
        h.probe(false);
        assert_eq!(h.state(), HealthState::Dead);
        assert_eq!(h.counters().died, 2);
    }

    #[test]
    fn tracker_advance_is_cut_point_invariant() {
        let plan = vec![ServerFailure {
            server: 0,
            at_secs: 1.0,
            rejoin_secs: Some(3.0),
        }];
        let cfg = HealthConfig::default();
        let mut a = HealthTracker::new(cfg, 2);
        a.advance(5.0, &plan);
        let mut b = HealthTracker::new(cfg, 2);
        for cut in [0.3, 1.1, 1.9, 2.6, 4.0, 5.0] {
            b.advance(cut, &plan);
        }
        for s in 0..2 {
            assert_eq!(a.state(s), b.state(s), "server {s} diverged on cut points");
        }
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.fed(), b.fed());
    }

    #[test]
    fn clean_link_lands_on_first_attempt() {
        let fo = FailoverConfig::default();
        let t = plan_transfer(&fo, 2.0, 7);
        assert_eq!(t.retries, 0);
        let land = t.land_secs.expect("clean link must land");
        assert!((land - 2.05).abs() < 1e-9);
    }

    #[test]
    fn lossy_link_retries_deterministically_and_deadline_caps() {
        let fo = FailoverConfig {
            ctl_faults: FaultPlan::new(7).loss_burst(
                SimTime::from_secs_f64(0.0),
                SimTime::from_secs_f64(60.0),
                1.0,
            ),
            ..FailoverConfig::default()
        };
        // Total loss: every session exhausts the deadline.
        for s in [0usize, 3, 11] {
            let t = plan_transfer(&fo, 1.0, s);
            assert_eq!(t.land_secs, None, "session {s} cannot land on a dead link");
            assert!(t.retries >= 1);
            assert_eq!(t, plan_transfer(&fo, 1.0, s), "transfer plan must be pure");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_nearest_rank(&v, 50.0), 50.0);
        assert_eq!(percentile_nearest_rank(&v, 95.0), 95.0);
        assert_eq!(percentile_nearest_rank(&[], 50.0), 0.0);
        assert_eq!(percentile_nearest_rank(&[2.5], 95.0), 2.5);
    }
}
