//! RTCP-style receiver feedback over the uplink.
//!
//! Live mode inverts the flow the rest of this crate models: the client
//! *talks back*. Three message kinds, mirroring RTP/AVPF semantics:
//!
//! * **NACK** — "frame `seq` didn't make it, retransmit it". Selective,
//!   per-sequence, retried with exponential backoff up to a cap of three
//!   transmissions; a repair is only useful if it lands before the
//!   frame's playout deadline.
//! * **PLI** — picture loss indication: "my decoder lost reference
//!   state, send something decodable".
//! * **FIR** — full intra request: "force a keyframe / GOP restart now".
//!   The server side (nerve-serve) rate-limits grants, because a fleet
//!   of desynced clients all FIRing at once is a bitrate storm.
//!
//! Feedback is traffic like any other: every send draws loss and delay
//! from the session's [`FaultPlan`] on the [`Direction::Uplink`] path,
//! so an uplink collapse silences NACKs and FIRs while media keeps
//! flowing down — exactly the failure mode that turns one lost frame
//! into a frozen session. The channel is stateless-hash deterministic
//! (a monotone message counter is the only mutable state), so a run
//! replays bit-identically and checkpoints as two integers plus
//! counters ([`FeedbackState`]).

use crate::clock::SimTime;
use crate::faults::{Direction, FaultPlan};

/// One feedback message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackKind {
    /// Selective retransmit request for one media sequence number.
    Nack { seq: u64 },
    /// Picture loss indication (decoder desync, any refresh will do).
    Pli,
    /// Full intra request (force a keyframe on demand).
    Fir,
}

/// Nominal one-way uplink propagation delay.
pub const OWD_UP: SimTime = SimTime::from_millis(30);
/// Maximum NACK transmissions for one lost frame.
const NACK_RETRY_CAP: u32 = 3;
/// Initial NACK retransmission timeout (time to wait for the repair
/// before re-asking); roughly one RTT plus scheduling margin.
const NACK_RTO: SimTime = SimTime::from_millis(80);
/// Exponential backoff factor between NACK retries.
const NACK_BACKOFF: f64 = 2.0;

/// Cumulative feedback-channel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackStats {
    /// NACK messages put on the wire.
    pub nack_sent: u64,
    /// PLI/FIR messages put on the wire.
    pub fir_sent: u64,
    /// Feedback messages lost on the uplink.
    pub lost: u64,
    /// Feedback messages that reached the server.
    pub delivered: u64,
}

crate::wire_record!(FeedbackStats {
    nack_sent,
    fir_sent,
    lost,
    delivered
});

/// Serializable position of a feedback channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackState {
    /// Wire events drawn so far (the hash-salt counter).
    pub sent: u64,
    pub stats: FeedbackStats,
}

/// How one NACK repair loop ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NackOutcome {
    /// When the retransmitted frame reached the client, if it did in
    /// time. `None` means the loop expired: retries exhausted, deadline
    /// passed, or the repair arrived late.
    pub repaired_at: Option<SimTime>,
    /// NACK transmissions attempted.
    pub attempts: u32,
    /// Attempts that reached the server but were refused service (the
    /// overloaded server shedding NACKs before live frames).
    pub shed: u32,
}

impl NackOutcome {
    pub fn repaired(&self) -> bool {
        self.repaired_at.is_some()
    }
}

/// The deterministic uplink feedback channel of one session.
#[derive(Debug, Clone)]
pub struct FeedbackChannel {
    plan: FaultPlan,
    /// Per-session salt namespace (derive with `seed_for(seed, session,
    /// StreamComponent::Feedback)`), so two sessions' feedback draws
    /// never collide in the shared plan's hash streams.
    salt_base: u64,
    sent: u64,
    pub stats: FeedbackStats,
}

impl FeedbackChannel {
    pub fn new(plan: FaultPlan, salt_base: u64) -> Self {
        Self {
            plan,
            salt_base,
            sent: 0,
            stats: FeedbackStats::default(),
        }
    }

    /// Put one feedback message on the uplink at `now`. Returns the
    /// server-side arrival time, or `None` if the uplink lost it.
    pub fn send(&mut self, kind: FeedbackKind, now: SimTime) -> Option<SimTime> {
        self.sent += 1;
        let salt = self.salt_base ^ self.sent;
        match kind {
            FeedbackKind::Nack { .. } => self.stats.nack_sent += 1,
            FeedbackKind::Pli | FeedbackKind::Fir => self.stats.fir_sent += 1,
        }
        if self.plan.dir_lose_at(Direction::Uplink, now, salt) {
            self.stats.lost += 1;
            return None;
        }
        self.stats.delivered += 1;
        Some(now + OWD_UP + self.plan.dir_extra_delay(Direction::Uplink, now, salt))
    }

    /// Run the full NACK repair loop for one lost frame, walking virtual
    /// time forward deterministically:
    ///
    /// 1. send a NACK at `detect` (then at backoff intervals);
    /// 2. if it survives the uplink, ask `server_serves(arrival)` —
    ///    `false` models the server shedding NACK service under load;
    /// 3. a served NACK elicits a retransmit that must survive the
    ///    downlink and land before `deadline`.
    ///
    /// Every wire event draws from the fault plan with a fresh salt, so
    /// the loop is a pure function of the channel position. A repair
    /// that arrives *after* the deadline ends the loop (a later retry
    /// would only be later still).
    pub fn nack_loop(
        &mut self,
        detect: SimTime,
        deadline: SimTime,
        owd_down: SimTime,
        mut server_serves: impl FnMut(SimTime) -> bool,
    ) -> NackOutcome {
        let mut attempts = 0u32;
        let mut shed = 0u32;
        let mut send_at = detect;
        let mut rto_secs = NACK_RTO.as_secs_f64();
        while attempts < NACK_RETRY_CAP && send_at < deadline {
            attempts += 1;
            if let Some(at_server) = self.send(FeedbackKind::Nack { seq: 0 }, send_at) {
                if server_serves(at_server) {
                    // The elicited retransmit is one more wire event.
                    self.sent += 1;
                    let salt = self.salt_base ^ self.sent;
                    if !self.plan.dir_lose_at(Direction::Downlink, at_server, salt) {
                        let arrival = at_server
                            + owd_down
                            + self
                                .plan
                                .dir_extra_delay(Direction::Downlink, at_server, salt);
                        if arrival <= deadline {
                            return NackOutcome {
                                repaired_at: Some(arrival),
                                attempts,
                                shed,
                            };
                        }
                        break;
                    }
                } else {
                    shed += 1;
                }
            }
            send_at += SimTime::from_secs_f64(rto_secs);
            rto_secs *= NACK_BACKOFF;
        }
        NackOutcome {
            repaired_at: None,
            attempts,
            shed,
        }
    }

    /// Snapshot for the checkpoint plane.
    pub fn state(&self) -> FeedbackState {
        FeedbackState {
            sent: self.sent,
            stats: self.stats,
        }
    }

    /// Restore a snapshot (the plan travels with the caller).
    pub fn restore(&mut self, state: FeedbackState) {
        self.sent = state.sent;
        self.stats = state.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn channel(plan: FaultPlan) -> FeedbackChannel {
        FeedbackChannel::new(plan, 0xFEED)
    }

    #[test]
    fn clean_uplink_delivers_after_owd() {
        let mut ch = channel(FaultPlan::new(1));
        let at = ch.send(FeedbackKind::Fir, secs(1.0)).expect("clean path");
        assert_eq!(at, secs(1.0) + SimTime::from_millis(30));
        assert_eq!(ch.stats.fir_sent, 1);
        assert_eq!(ch.stats.delivered, 1);
        assert_eq!(ch.stats.lost, 0);
    }

    #[test]
    fn uplink_collapse_silences_feedback_while_downlink_flows() {
        let plan = FaultPlan::new(2).uplink_loss(secs(0.0), secs(10.0), 1.0);
        let mut ch = channel(plan.clone());
        assert!(ch.send(FeedbackKind::Nack { seq: 7 }, secs(1.0)).is_none());
        assert_eq!(ch.stats.lost, 1);
        // The same plan leaves the media direction untouched.
        assert!(!plan.dir_lose_at(Direction::Downlink, secs(1.0), 99));
    }

    #[test]
    fn nack_loop_repairs_in_one_rtt_on_a_clean_path() {
        let mut ch = channel(FaultPlan::new(3));
        let out = ch.nack_loop(secs(1.0), secs(2.0), SimTime::from_millis(25), |_| true);
        assert!(out.repaired());
        assert_eq!(out.attempts, 1);
        assert_eq!(out.shed, 0);
        // detect + owd_up + owd_down = 1.0 + 0.030 + 0.025.
        assert_eq!(
            out.repaired_at.unwrap(),
            secs(1.0) + SimTime::from_millis(55)
        );
    }

    #[test]
    fn nack_loop_expires_under_total_uplink_loss_with_capped_retries() {
        let plan = FaultPlan::new(4).uplink_loss(secs(0.0), secs(100.0), 1.0);
        let mut ch = channel(plan);
        let out = ch.nack_loop(secs(1.0), secs(10.0), SimTime::from_millis(25), |_| true);
        assert!(!out.repaired());
        assert_eq!(out.attempts, 3, "retry cap must bound the loop");
        assert_eq!(ch.stats.lost, 3);
    }

    #[test]
    fn nack_loop_respects_the_deadline() {
        // Deadline tighter than one uplink trip: a repair can never land.
        let mut ch = channel(FaultPlan::new(5));
        let out = ch.nack_loop(secs(1.0), secs(1.010), SimTime::from_millis(25), |_| true);
        assert!(!out.repaired());
        // The loop stops at the first too-late arrival rather than
        // burning the full retry cap on hopeless sends.
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn shed_nacks_are_counted_and_retried() {
        let mut ch = channel(FaultPlan::new(6));
        let mut calls = 0;
        let out = ch.nack_loop(secs(1.0), secs(3.0), SimTime::from_millis(25), |_| {
            calls += 1;
            calls > 1 // first attempt shed, second served
        });
        assert!(out.repaired());
        assert_eq!(out.attempts, 2);
        assert_eq!(out.shed, 1);
    }

    #[test]
    fn loops_are_deterministic_and_state_round_trips() {
        let plan = FaultPlan::new(7).uplink_loss(secs(0.0), secs(100.0), 0.8);
        let run = || {
            let mut ch = channel(plan.clone());
            let outs: Vec<NackOutcome> = (0..20)
                .map(|k| {
                    ch.nack_loop(
                        secs(1.0 + k as f64),
                        secs(1.8 + k as f64),
                        SimTime::from_millis(25),
                        |_| true,
                    )
                })
                .collect();
            (outs, ch.state())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // Both verdicts occur under 50% uplink loss.
        assert!(a.iter().any(|o| o.repaired()));
        assert!(a.iter().any(|o| !o.repaired()));

        // Restore mid-stream: a fresh channel resumed from a snapshot
        // continues the draw sequence exactly.
        let mut whole = channel(plan.clone());
        let mut first = channel(plan.clone());
        for k in 0..10 {
            whole.send(FeedbackKind::Fir, secs(k as f64));
            first.send(FeedbackKind::Fir, secs(k as f64));
        }
        let snap = first.state();
        let mut resumed = channel(plan.clone());
        resumed.restore(snap);
        for k in 10..20 {
            assert_eq!(
                whole.send(FeedbackKind::Fir, secs(k as f64)),
                resumed.send(FeedbackKind::Fir, secs(k as f64))
            );
        }
        assert_eq!(whole.state(), resumed.state());
    }

    #[test]
    fn sessions_with_distinct_salt_bases_draw_independently() {
        let plan = FaultPlan::new(8).uplink_loss(secs(0.0), secs(100.0), 0.5);
        let mut a = FeedbackChannel::new(plan.clone(), 0x1111);
        let mut b = FeedbackChannel::new(plan, 0x2222);
        let mut diverged = false;
        for k in 0..200 {
            let t = secs(0.01 * k as f64);
            if a.send(FeedbackKind::Fir, t).is_some() != b.send(FeedbackKind::Fir, t).is_some() {
                diverged = true;
            }
        }
        assert!(diverged, "distinct sessions must not share a loss fate");
    }
}
