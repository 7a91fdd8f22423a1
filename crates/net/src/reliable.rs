//! The reliable, in-order channel that carries binary point codes.
//!
//! §4/§8.4 of the paper: the 1 KB point code is sent over TCP and fits in
//! a single packet, so its delivery latency is ~one-way delay in the
//! common case, plus RTO-spaced retransmissions when lost. This module
//! models exactly that: per-packet Bernoulli/GE loss, RFC 6298 RTO
//! backoff, delivery time = serialization + propagation + retransmission
//! delays. In-order delivery is enforced across messages (head-of-line
//! blocking, the price of TCP the paper accepts for this tiny stream).
//!
//! Retransmission is *bounded*: a point code that misses its playback
//! deadline is worthless, so `send` gives up after `max_attempts` tries
//! per segment — or as soon as the next retransmission could not start
//! before an explicit deadline — and reports [`SendOutcome::Expired`]
//! instead of spinning forever (the seed implementation looped
//! unconditionally, which under a blackout meant an unbounded stall).

use crate::clock::SimTime;
use crate::error::NetError;
use crate::faults::Corruption;
use crate::link::Link;
use crate::loss::LossModel;
use crate::rtt::{RttEstimator, RttState};

/// Maximum payload carried per segment.
pub const MSS: usize = 1460;

/// Default per-segment retransmission budget. Ten RTO-spaced attempts on
/// a 200 ms-floor RTO give several seconds of persistence — enough to
/// ride out ordinary loss bursts, finite under a dead link.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 10;

/// Result of a reliable send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The complete message arrived.
    Delivered {
        /// Arrival time of the last byte (in-order floor applied).
        at: SimTime,
        /// The payload arrived with *residual* corruption — flipped
        /// bits the CRC32 framing could not catch. Detected corruption
        /// never surfaces here: the receiver demotes it to an erasure
        /// and the channel retransmits. Consumers must discard a
        /// corrupted payload (or feed it to a hardened decoder).
        corrupted: bool,
        /// Retransmissions spent on this message.
        retransmissions: u32,
    },
    /// The channel gave up: the attempt budget ran out, or the next
    /// retransmission could not start before the deadline.
    Expired {
        /// Time at which the sender stopped trying.
        at: SimTime,
        /// Transmission attempts made across all segments.
        attempts: u32,
    },
}

impl SendOutcome {
    /// Delivery time if the message arrived intact.
    pub fn delivery_time(&self) -> Option<SimTime> {
        match self {
            SendOutcome::Delivered {
                at,
                corrupted: false,
                ..
            } => Some(*at),
            _ => None,
        }
    }

    pub fn is_delivered(&self) -> bool {
        matches!(self, SendOutcome::Delivered { .. })
    }

    pub fn is_expired(&self) -> bool {
        matches!(self, SendOutcome::Expired { .. })
    }
}

/// Aggregate channel counters (mirrors `StreamStats` on the QUIC side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages submitted to `send`.
    pub messages: u64,
    /// Segment retransmissions performed.
    pub retransmissions: u64,
    /// Messages abandoned (attempt budget or deadline exhausted).
    pub expired: u64,
    /// Messages delivered with *residual* corruption (beat the CRC).
    pub corrupted: u64,
    /// Deliveries whose CRC check failed: demoted to erasures and
    /// retransmitted (each also counts one retransmission).
    pub crc_detected: u64,
}

crate::wire_record!(ChannelStats {
    messages,
    retransmissions,
    expired,
    corrupted,
    crc_detected
});

/// A reliable in-order message channel over a lossy link.
pub struct ReliableChannel<L: LossModel> {
    link: Link,
    loss: L,
    rtt: RttEstimator,
    /// Delivery time of the previously sent message (in-order floor).
    last_delivery: SimTime,
    /// Per-segment retransmission budget.
    max_attempts: u32,
    /// Monotone message counter, used as the corruption hash salt.
    seq: u64,
    /// Aggregate counters.
    pub stats: ChannelStats,
    /// Retransmissions performed so far (back-compat alias of
    /// `stats.retransmissions`).
    pub retransmissions: u64,
}

impl<L: LossModel> ReliableChannel<L> {
    pub fn new(link: Link, loss: L) -> Self {
        Self {
            link,
            loss,
            rtt: RttEstimator::new(),
            last_delivery: SimTime::ZERO,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            seq: 0,
            stats: ChannelStats::default(),
            retransmissions: 0,
        }
    }

    /// Override the per-segment attempt budget (must be at least 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        match self.try_set_max_attempts(max_attempts) {
            Ok(()) => self,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible setter for data-driven configuration.
    pub fn try_set_max_attempts(&mut self, max_attempts: u32) -> Result<(), NetError> {
        if max_attempts == 0 {
            return Err(NetError::ZeroAttempts);
        }
        self.max_attempts = max_attempts;
        Ok(())
    }

    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Send a message of `bytes` at time `now` with no explicit deadline;
    /// retransmission is still bounded by the attempt budget.
    pub fn send(&mut self, bytes: usize, now: SimTime) -> SendOutcome {
        self.send_inner(bytes, now, None)
    }

    /// Send a message of `bytes` at `now`, giving up as soon as a
    /// retransmission would start at or after `deadline`. A message whose
    /// final attempt *arrives* after the deadline is still `Delivered` —
    /// lateness is the caller's policy, wasted retransmissions are ours.
    pub fn send_with_deadline(
        &mut self,
        bytes: usize,
        now: SimTime,
        deadline: SimTime,
    ) -> SendOutcome {
        self.send_inner(bytes, now, Some(deadline))
    }

    fn send_inner(&mut self, bytes: usize, now: SimTime, deadline: Option<SimTime>) -> SendOutcome {
        self.stats.messages += 1;
        self.seq += 1;
        let segments = bytes.div_ceil(MSS).max(1);
        let segment_bytes = MSS.min(bytes).max(1);
        let mut message_retransmissions = 0u32;
        let mut attempts = 0u32;
        // Outer loop: whole-message passes. A pass whose CRC check fails
        // at the receiver is demoted to an erasure and the message is
        // retransmitted one RTO later, sharing the same bounded budget.
        let mut pass_start = now;
        for crc_round in 0..self.max_attempts as u64 {
            let mut t = pass_start;
            let mut last_arrival = pass_start;
            for _ in 0..segments {
                let mut attempt_start = t;
                let mut delivered = false;
                for attempt in 0..self.max_attempts {
                    if let Some(d) = deadline {
                        if attempt > 0 && attempt_start >= d {
                            break;
                        }
                    }
                    attempts += 1;
                    let arrival = self.link.deliver(segment_bytes, attempt_start);
                    if !self.loss.lose_at(attempt_start) {
                        // ACK returns one-way later; sample the full RTT.
                        self.rtt.observe(
                            (arrival + self.link.one_way_delay()).saturating_sub(attempt_start),
                        );
                        last_arrival = arrival;
                        delivered = true;
                        break;
                    }
                    message_retransmissions += 1;
                    self.stats.retransmissions += 1;
                    self.retransmissions += 1;
                    attempt_start += self.rtt.rto();
                }
                if !delivered {
                    self.stats.expired += 1;
                    // Clamp to the deadline, but never report giving up
                    // before the send itself began (a send issued past its
                    // deadline still gives up "now", not in the past).
                    let gave_up_at = match deadline {
                        Some(d) if attempt_start > d => d.max(now),
                        _ => attempt_start,
                    };
                    return SendOutcome::Expired {
                        at: gave_up_at,
                        attempts,
                    };
                }
                // Next segment can be pipelined right behind this one.
                t = self.link.transmit_end(segment_bytes, t);
            }
            // In-order delivery: never before a previously sent message.
            let delivery = if last_arrival > self.last_delivery {
                last_arrival
            } else {
                self.last_delivery
            };
            self.last_delivery = delivery;
            // Receiver-side CRC verification. Round 0 salts with the bare
            // sequence number (same draw identity as before CRC framing);
            // retransmitted passes draw independently.
            let salt = self.seq ^ crc_round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match self.link.faults().corruption_at(delivery, salt) {
                Corruption::Clean => {
                    return SendOutcome::Delivered {
                        at: delivery,
                        corrupted: false,
                        retransmissions: message_retransmissions,
                    };
                }
                Corruption::Residual => {
                    self.stats.corrupted += 1;
                    return SendOutcome::Delivered {
                        at: delivery,
                        corrupted: true,
                        retransmissions: message_retransmissions,
                    };
                }
                Corruption::Detected => {
                    self.stats.crc_detected += 1;
                    message_retransmissions += 1;
                    self.stats.retransmissions += 1;
                    self.retransmissions += 1;
                    let restart = delivery + self.rtt.rto();
                    if crc_round + 1 >= self.max_attempts as u64 {
                        self.stats.expired += 1;
                        return SendOutcome::Expired {
                            at: delivery,
                            attempts,
                        };
                    }
                    if let Some(d) = deadline {
                        if restart >= d {
                            self.stats.expired += 1;
                            return SendOutcome::Expired {
                                at: d.max(now),
                                attempts,
                            };
                        }
                    }
                    pass_start = restart;
                }
            }
        }
        unreachable!("corruption retry loop always returns within the attempt budget")
    }

    /// Current RTO (exposed for tests/diagnostics).
    pub fn rto(&self) -> SimTime {
        self.rtt.rto()
    }

    /// The wrapped loss model (for checkpointing its RNG position).
    pub fn loss(&self) -> &L {
        &self.loss
    }

    pub fn loss_mut(&mut self) -> &mut L {
        &mut self.loss
    }

    /// Capture the channel's mutable state (everything except the link
    /// and loss model, which the caller checkpoints separately).
    pub fn state(&self) -> ChannelState {
        ChannelState {
            last_delivery: self.last_delivery,
            seq: self.seq,
            stats: self.stats,
            retransmissions: self.retransmissions,
            rtt: self.rtt.state(),
        }
    }

    /// Restore state captured by [`ReliableChannel::state`].
    pub fn restore_state(&mut self, state: &ChannelState) {
        self.last_delivery = state.last_delivery;
        self.seq = state.seq;
        self.stats = state.stats;
        self.retransmissions = state.retransmissions;
        self.rtt.restore(state.rtt);
    }
}

/// Checkpointable snapshot of a [`ReliableChannel`]'s mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelState {
    pub last_delivery: SimTime,
    pub seq: u64,
    pub stats: ChannelStats,
    pub retransmissions: u64,
    pub rtt: RttState,
}

crate::wire_record!(ChannelState {
    last_delivery,
    seq,
    stats,
    retransmissions,
    rtt
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::loss::{Bernoulli, NoLoss};
    use crate::trace::{NetworkKind, NetworkTrace};

    fn flat_link(mbps: f64, rtt_ms: u64) -> Link {
        Link::new(NetworkTrace {
            kind: NetworkKind::WiFi,
            mbps: vec![mbps; 10_000],
            loss_rate: 0.0,
            rtt: SimTime::from_millis(rtt_ms),
        })
    }

    fn delivery(outcome: SendOutcome) -> SimTime {
        outcome
            .delivery_time()
            .expect("message should be delivered")
    }

    #[test]
    fn lossless_point_code_arrives_in_about_owd() {
        // 1 KB at 10 Mbps: serialization 0.8 ms + OWD 10 ms.
        let mut ch = ReliableChannel::new(flat_link(10.0, 20), NoLoss);
        let arrival = delivery(ch.send(1024, SimTime::ZERO));
        let ms = arrival.as_millis_f64();
        assert!((ms - 10.82).abs() < 0.3, "arrival {ms} ms");
        assert_eq!(ch.retransmissions, 0);
        assert_eq!(ch.stats.messages, 1);
        assert_eq!(ch.stats.expired, 0);
    }

    #[test]
    fn loss_adds_rto_delays() {
        // Deterministic all-lose-then-all-pass: use p=1 then p=0 is not
        // expressible; instead use a high loss rate and check retransmits
        // happened and delivery is later than lossless.
        let mut lossy = ReliableChannel::new(flat_link(10.0, 20), Bernoulli::new(0.5, 3));
        let mut clean = ReliableChannel::new(flat_link(10.0, 20), NoLoss);
        let mut lossy_total = 0.0;
        let mut clean_total = 0.0;
        for i in 0..50 {
            let t = SimTime::from_secs_f64(i as f64);
            lossy_total += delivery(lossy.send(1024, t))
                .saturating_sub(t)
                .as_millis_f64();
            clean_total += delivery(clean.send(1024, t))
                .saturating_sub(t)
                .as_millis_f64();
        }
        assert!(lossy.retransmissions > 0);
        assert_eq!(lossy.stats.retransmissions, lossy.retransmissions);
        assert!(lossy_total > clean_total);
    }

    #[test]
    fn multi_segment_messages_pipeline() {
        // 10 KB = 7 segments at 1 Mbps: ~80 ms serialization + 10 ms OWD.
        let mut ch = ReliableChannel::new(flat_link(1.0, 20), NoLoss);
        let arrival = delivery(ch.send(10_240, SimTime::ZERO));
        let ms = arrival.as_millis_f64();
        assert!(ms > 60.0 && ms < 120.0, "arrival {ms} ms");
    }

    #[test]
    fn in_order_delivery_blocks_reordering() {
        // Send a big message, then a small one immediately after: the
        // small one cannot be delivered before the big one.
        let mut ch = ReliableChannel::new(flat_link(1.0, 20), NoLoss);
        let big = delivery(ch.send(100_000, SimTime::ZERO));
        let small = delivery(ch.send(100, SimTime::from_micros(1)));
        assert!(small >= big, "in-order violated: {small} < {big}");
    }

    #[test]
    fn per_frame_code_stream_stays_timely() {
        // One 1 KB code every 33 ms over WiFi-like link: every code
        // should arrive before the next is sent (lossless case).
        let mut ch = ReliableChannel::new(flat_link(20.0, 20), NoLoss);
        for i in 0..30u64 {
            let send = SimTime::from_millis(i * 33);
            let arrival = delivery(ch.send(1024, send));
            assert!(
                arrival.saturating_sub(send) < SimTime::from_millis(33),
                "frame {i} code late"
            );
        }
    }

    #[test]
    fn total_loss_expires_instead_of_looping_forever() {
        // The seed implementation spun forever here. Now: bounded by the
        // attempt budget, reported as Expired, counted in stats.
        let mut ch = ReliableChannel::new(flat_link(10.0, 20), Bernoulli::new(1.0, 1));
        let outcome = ch.send(1024, SimTime::ZERO);
        match outcome {
            SendOutcome::Expired { at, attempts } => {
                assert_eq!(attempts, DEFAULT_MAX_ATTEMPTS);
                // Initial RTO is 1 s; attempts are RTO-spaced, so give-up
                // lands within attempts × initial RTO plus slack.
                assert!(at <= SimTime::from_secs_f64(DEFAULT_MAX_ATTEMPTS as f64 + 1.0));
            }
            other => panic!("expected Expired, got {other:?}"),
        }
        assert_eq!(ch.stats.expired, 1);
        assert!(outcome.delivery_time().is_none());
    }

    #[test]
    fn deadline_caps_give_up_time_under_total_loss() {
        let mut ch = ReliableChannel::new(flat_link(10.0, 20), Bernoulli::new(1.0, 1));
        let deadline = SimTime::from_millis(500);
        let outcome = ch.send_with_deadline(1024, SimTime::ZERO, deadline);
        match outcome {
            SendOutcome::Expired { at, attempts } => {
                assert!(at <= deadline, "gave up at {at}, deadline {deadline}");
                assert!(
                    attempts < DEFAULT_MAX_ATTEMPTS,
                    "deadline should bind first"
                );
            }
            other => panic!("expected Expired, got {other:?}"),
        }
    }

    #[test]
    fn deadline_does_not_reject_late_but_delivered_messages() {
        // The first attempt always runs; if it succeeds after the
        // deadline the caller decides what lateness means.
        let mut ch = ReliableChannel::new(flat_link(1.0, 20), NoLoss);
        let outcome = ch.send_with_deadline(10_240, SimTime::ZERO, SimTime::from_millis(1));
        assert!(outcome.is_delivered(), "got {outcome:?}");
    }

    #[test]
    fn expiry_during_blackout_recovers_for_next_message() {
        // A 2 s blackout swallows every attempt of a deadline-bounded
        // send; after the window the channel delivers normally again.
        let plan = FaultPlan::new(5).blackout(SimTime::ZERO, SimTime::from_secs_f64(2.0));
        let link = flat_link(10.0, 20).with_faults(plan.clone());
        let mut ch = ReliableChannel::new(link, crate::faults::FaultyLoss::new(NoLoss, plan));
        let during = ch.send_with_deadline(1024, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!(during.is_expired(), "got {during:?}");
        let after = ch.send_with_deadline(
            1024,
            SimTime::from_secs_f64(2.5),
            SimTime::from_secs_f64(3.5),
        );
        assert!(after.is_delivered(), "got {after:?}");
    }

    #[test]
    fn detected_corruption_retransmits_until_clean() {
        // Corruption confined to a window: the first delivery lands
        // inside it, fails its CRC, and the retransmitted copy (one RTO
        // later, outside the window) arrives clean.
        let plan = FaultPlan::new(6).corrupt(SimTime::ZERO, SimTime::from_millis(500), 1.0);
        let mut ch = ReliableChannel::new(flat_link(10.0, 20).with_faults(plan), NoLoss);
        let outcome = ch.send(1024, SimTime::ZERO);
        match outcome {
            SendOutcome::Delivered {
                at,
                corrupted,
                retransmissions,
            } => {
                assert!(!corrupted, "retransmitted copy must be clean");
                assert!(retransmissions >= 1);
                assert!(at >= SimTime::from_millis(500), "clean copy at {at}");
            }
            other => panic!("expected Delivered, got {other:?}"),
        }
        assert!(ch.stats.crc_detected >= 1);
        assert_eq!(ch.stats.corrupted, 0);
        assert_eq!(ch.stats.expired, 0);
    }

    #[test]
    fn persistent_detected_corruption_expires() {
        // Corruption everywhere and fully detectable: every pass fails
        // its CRC, the budget runs out, the message expires.
        let plan = FaultPlan::new(6).corrupt(SimTime::ZERO, SimTime::from_secs_f64(1e6), 1.0);
        let mut ch = ReliableChannel::new(flat_link(10.0, 20).with_faults(plan), NoLoss);
        let outcome = ch.send(1024, SimTime::ZERO);
        assert!(outcome.is_expired(), "got {outcome:?}");
        assert_eq!(ch.stats.crc_detected, DEFAULT_MAX_ATTEMPTS as u64);
        assert_eq!(ch.stats.expired, 1);
        assert_eq!(outcome.delivery_time(), None);
    }

    #[test]
    fn residual_corruption_marks_delivery_unusable() {
        // A residual rate of 1.0 means every corruption beats the CRC:
        // the old delivered-but-corrupted contract, now opt-in.
        let plan = FaultPlan::new(6)
            .corrupt(SimTime::ZERO, SimTime::from_secs_f64(1e6), 1.0)
            .with_residual_corrupt_rate(1.0);
        let mut ch = ReliableChannel::new(flat_link(10.0, 20).with_faults(plan), NoLoss);
        let outcome = ch.send(1024, SimTime::ZERO);
        match outcome {
            SendOutcome::Delivered { corrupted, .. } => assert!(corrupted),
            other => panic!("expected Delivered, got {other:?}"),
        }
        assert_eq!(outcome.delivery_time(), None);
        assert_eq!(ch.stats.corrupted, 1);
        assert_eq!(ch.stats.crc_detected, 0);
    }

    #[test]
    fn channel_state_round_trips_through_restore() {
        let mut live = ReliableChannel::new(flat_link(10.0, 20), Bernoulli::new(0.3, 9));
        for i in 0..20u64 {
            let _ = live.send(1024, SimTime::from_millis(i * 40));
        }
        let snap = live.state();
        let loss_snap = live.loss().state();

        let mut resumed = ReliableChannel::new(flat_link(10.0, 20), Bernoulli::new(0.3, 1));
        resumed.restore_state(&snap);
        resumed.loss_mut().restore(loss_snap).unwrap();
        assert_eq!(resumed.state(), snap);

        // Identical behavior from here on.
        for i in 20..40u64 {
            let t = SimTime::from_millis(i * 40);
            assert_eq!(live.send(1024, t), resumed.send(1024, t));
        }
        assert_eq!(live.state(), resumed.state());
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_rejected() {
        let _ = ReliableChannel::new(flat_link(10.0, 20), NoLoss).with_max_attempts(0);
    }
}
