//! The QUIC-like media channel.
//!
//! QUIC numbers every packet, detects loss quickly via ACK gaps, and
//! retransmits — but the paper still measures 1.6% *residual* loss on 5G
//! (§7), because a retransmission can be lost too or arrive past its
//! playout deadline. This module models a video stream at that level:
//!
//! * per-packet serialization over the fluid [`Link`];
//! * per-packet loss from any [`LossModel`] (bursty GE in experiments);
//! * fast retransmission one RTT after the original would have arrived
//!   (loss detected by subsequent ACKs), itself subject to loss, with a
//!   bounded number of attempts (PTO-style give-up).
//!
//! The output is per-packet arrival times (or `None`), from which the
//! client derives per-slice/frame completeness and lateness.

use crate::clock::SimTime;
use crate::faults::Corruption;
use crate::link::Link;
use crate::loss::LossModel;

/// Outcome of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketOutcome {
    /// Arrival time of the packet (original or retransmission); `None`
    /// if every attempt was lost.
    pub arrival: Option<SimTime>,
    /// Number of retransmission attempts used (0 = original got through).
    pub retransmits: u32,
    /// The delivered copy carries residual corruption (bit flips that
    /// beat the CRC). Detected corruption never shows up here — the
    /// receiver drops the copy and the stream retransmits. Consumers
    /// treat a corrupted packet as an erasure (FEC / concealment).
    pub corrupted: bool,
}

impl PacketOutcome {
    /// Arrival time if the packet is usable (delivered and intact).
    pub fn intact_arrival(&self) -> Option<SimTime> {
        if self.corrupted {
            None
        } else {
            self.arrival
        }
    }
}

/// Transmission statistics for a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub packets_sent: u64,
    pub packets_lost_first_tx: u64,
    pub retransmissions: u64,
    /// Packets never delivered at all.
    pub residual_losses: u64,
    /// Packets delivered out of order (fault-injected hold-back).
    pub reordered: u64,
    /// Packets delivered twice (fault-injected duplication).
    pub duplicates: u64,
    /// Copies dropped by the receiver's CRC check (each triggers the
    /// normal retransmission path).
    pub crc_dropped: u64,
    /// Packets delivered with residual (checksum-beating) corruption.
    pub residual_corrupted: u64,
}

crate::wire_record!(StreamStats {
    packets_sent,
    packets_lost_first_tx,
    retransmissions,
    residual_losses,
    reordered,
    duplicates,
    crc_dropped,
    residual_corrupted
});

impl StreamStats {
    /// First-transmission loss rate.
    pub fn first_tx_loss_rate(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.packets_lost_first_tx as f64 / self.packets_sent as f64
        }
    }

    /// Residual (post-retransmission) loss rate.
    pub fn residual_loss_rate(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.residual_losses as f64 / self.packets_sent as f64
        }
    }
}

/// A QUIC-like unreliable-with-retransmission media stream.
pub struct QuicStream<L: LossModel> {
    link: Link,
    loss: L,
    /// Max transmission attempts per packet (1 original + retransmits).
    max_attempts: u32,
    /// Running statistics.
    pub stats: StreamStats,
    /// Next serialization slot on the link.
    cursor: SimTime,
    /// Monotone packet number, used as the fault hash salt.
    seq: u64,
}

impl<L: LossModel> QuicStream<L> {
    pub fn new(link: Link, loss: L) -> Self {
        Self {
            link,
            loss,
            max_attempts: 3,
            stats: StreamStats::default(),
            cursor: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Disable retransmissions (pure datagram mode — the paper's
    /// "without recovery, without FEC" lower bound uses this).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1);
        self.max_attempts = attempts;
        self
    }

    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Send one packet of `bytes` no earlier than `now`; returns its
    /// outcome. Packets serialize in call order (the sender's queue).
    pub fn send_packet(&mut self, bytes: usize, now: SimTime) -> PacketOutcome {
        let start = if now > self.cursor { now } else { self.cursor };
        let tx_end = self.link.transmit_end(bytes.max(1), start);
        self.cursor = tx_end;
        self.stats.packets_sent += 1;
        self.seq += 1;

        let rtt = self.link.rtt();
        let mut attempt = 0u32;
        let mut attempt_arrival = tx_end + self.link.one_way_delay();
        loop {
            let mut lost = self.loss.lose_at(start);
            let faults = self.link.faults();
            if lost && faults.duplicate_at(start, self.seq) {
                // The duplicate trailed the original by one slot and
                // survives independently; the packet still gets through.
                self.stats.duplicates += 1;
                lost = false;
            }
            if !lost {
                // Fault-injected hold-back: the packet arrives late
                // relative to packets serialized just after it.
                let hold = faults.reorder_delay(attempt_arrival, self.seq);
                let arrival = attempt_arrival + hold;
                // Receiver-side CRC verification, salted per attempt so
                // a retransmitted copy draws independently.
                let salt = self.seq ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match faults.corruption_at(arrival, salt) {
                    Corruption::Detected => {
                        // The copy arrived damaged and the CRC caught it:
                        // drop it and fall through to the retransmission
                        // path exactly as if it had been lost in flight.
                        self.stats.crc_dropped += 1;
                    }
                    verdict => {
                        if hold > SimTime::ZERO {
                            self.stats.reordered += 1;
                        }
                        let corrupted = verdict == Corruption::Residual;
                        if corrupted {
                            self.stats.residual_corrupted += 1;
                        }
                        return PacketOutcome {
                            arrival: Some(arrival),
                            retransmits: attempt,
                            corrupted,
                        };
                    }
                }
            }
            if attempt == 0 {
                self.stats.packets_lost_first_tx += 1;
            }
            attempt += 1;
            if attempt >= self.max_attempts {
                self.stats.residual_losses += 1;
                return PacketOutcome {
                    arrival: None,
                    retransmits: attempt - 1,
                    corrupted: false,
                };
            }
            self.stats.retransmissions += 1;
            // Loss detected ~1 RTT after the missing packet's slot, and
            // the retransmission takes another one-way trip.
            attempt_arrival += rtt;
        }
    }

    /// Send a burst of packets (one video frame) back-to-back starting no
    /// earlier than `now`.
    pub fn send_burst(&mut self, packet_bytes: &[usize], now: SimTime) -> Vec<PacketOutcome> {
        packet_bytes
            .iter()
            .map(|&b| self.send_packet(b, now))
            .collect()
    }

    /// The wrapped loss model (for checkpointing its RNG position).
    pub fn loss(&self) -> &L {
        &self.loss
    }

    pub fn loss_mut(&mut self) -> &mut L {
        &mut self.loss
    }

    /// Capture the stream's mutable state (the link is stateless and the
    /// loss model is checkpointed separately).
    pub fn state(&self) -> QuicState {
        QuicState {
            cursor: self.cursor,
            seq: self.seq,
            stats: self.stats,
        }
    }

    /// Restore state captured by [`QuicStream::state`].
    pub fn restore_state(&mut self, state: &QuicState) {
        self.cursor = state.cursor;
        self.seq = state.seq;
        self.stats = state.stats;
    }
}

/// Checkpointable snapshot of a [`QuicStream`]'s mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuicState {
    pub cursor: SimTime,
    pub seq: u64,
    pub stats: StreamStats,
}

crate::wire_record!(QuicState { cursor, seq, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Bernoulli, GilbertElliott, NoLoss};
    use crate::trace::{NetworkKind, NetworkTrace};

    fn flat_link(mbps: f64, rtt_ms: u64) -> Link {
        Link::new(NetworkTrace {
            kind: NetworkKind::FiveG,
            mbps: vec![mbps; 100_000],
            loss_rate: 0.0,
            rtt: SimTime::from_millis(rtt_ms),
        })
    }

    #[test]
    fn lossless_packets_arrive_in_order_and_on_time() {
        let mut q = QuicStream::new(flat_link(8.0, 40), NoLoss);
        let outcomes = q.send_burst(&[1000; 10], SimTime::ZERO);
        let mut last = SimTime::ZERO;
        for o in &outcomes {
            let t = o.arrival.expect("lossless");
            assert!(t >= last);
            last = t;
        }
        // 10 kB at 1 MB/s = 10 ms serialization + 20 ms OWD.
        assert!((last.as_millis_f64() - 30.0).abs() < 1.0, "last {last}");
        assert_eq!(q.stats.residual_loss_rate(), 0.0);
    }

    #[test]
    fn retransmission_recovers_most_losses() {
        let mut q = QuicStream::new(flat_link(10.0, 40), Bernoulli::new(0.05, 5));
        let outcomes = q.send_burst(&[1200; 5000], SimTime::ZERO);
        let first_loss = q.stats.first_tx_loss_rate();
        let residual = q.stats.residual_loss_rate();
        assert!((first_loss - 0.05).abs() < 0.01, "first loss {first_loss}");
        // Residual should be roughly p^3 with three attempts.
        assert!(residual < 0.002, "residual {residual}");
        assert!(outcomes.iter().filter(|o| o.retransmits > 0).count() > 0);
    }

    #[test]
    fn retransmitted_packets_arrive_one_rtt_later() {
        // Loss model that loses exactly the first transmission.
        struct LoseFirst(bool);
        impl LossModel for LoseFirst {
            fn lose(&mut self) -> bool {
                let l = !self.0;
                self.0 = true;
                l
            }
            fn average_rate(&self) -> f64 {
                0.0
            }
        }
        let mut clean = QuicStream::new(flat_link(10.0, 40), NoLoss);
        let mut lossy = QuicStream::new(flat_link(10.0, 40), LoseFirst(false));
        let a = clean.send_packet(1000, SimTime::ZERO).arrival.unwrap();
        let b = lossy.send_packet(1000, SimTime::ZERO).arrival.unwrap();
        assert_eq!(b.saturating_sub(a), SimTime::from_millis(40));
    }

    #[test]
    fn datagram_mode_has_raw_loss_rate() {
        let mut q =
            QuicStream::new(flat_link(10.0, 40), Bernoulli::new(0.05, 9)).with_max_attempts(1);
        q.send_burst(&[1200; 20_000], SimTime::ZERO);
        let residual = q.stats.residual_loss_rate();
        assert!((residual - 0.05).abs() < 0.01, "residual {residual}");
        assert_eq!(q.stats.retransmissions, 0);
    }

    #[test]
    fn bursty_loss_produces_consecutive_residual_losses() {
        let mut q = QuicStream::new(
            flat_link(10.0, 40),
            GilbertElliott::with_rate(0.3, 12.0, 13),
        )
        .with_max_attempts(1);
        let outcomes = q.send_burst(&[1200; 5_000], SimTime::ZERO);
        // Count runs of consecutive losses of length >= 3.
        let mut runs = 0;
        let mut cur = 0;
        for o in &outcomes {
            if o.arrival.is_none() {
                cur += 1;
            } else {
                if cur >= 3 {
                    runs += 1;
                }
                cur = 0;
            }
        }
        assert!(runs > 10, "expected bursty loss runs, got {runs}");
    }

    #[test]
    fn serialization_respects_link_order() {
        let mut q = QuicStream::new(flat_link(1.0, 20), NoLoss);
        let first = q.send_packet(125_000, SimTime::ZERO); // takes 1 s
        let second = q.send_packet(1000, SimTime::ZERO); // queued behind
        assert!(second.arrival.unwrap() > first.arrival.unwrap());
    }

    #[test]
    fn reorder_fault_holds_packets_back() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan::new(21).reorder(
            SimTime::ZERO,
            SimTime::from_secs_f64(1e4),
            0.5,
            SimTime::from_millis(60),
        );
        let mut q = QuicStream::new(flat_link(10.0, 40).with_faults(plan), NoLoss);
        let outcomes = q.send_burst(&[1200; 2000], SimTime::ZERO);
        assert!(q.stats.reordered > 500, "reordered {}", q.stats.reordered);
        // Held-back packets arrive after neighbours sent later.
        let arrivals: Vec<SimTime> = outcomes.iter().map(|o| o.arrival.unwrap()).collect();
        let inversions = arrivals.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(inversions > 0, "expected out-of-order arrivals");
    }

    #[test]
    fn duplication_fault_rescues_lost_packets() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan::new(22).duplicate(SimTime::ZERO, SimTime::from_secs_f64(1e4), 1.0);
        let mut q = QuicStream::new(
            flat_link(10.0, 40).with_faults(plan),
            Bernoulli::new(0.3, 7),
        )
        .with_max_attempts(1);
        q.send_burst(&[1200; 2000], SimTime::ZERO);
        // Every first-tx loss is covered by its duplicate.
        assert_eq!(q.stats.residual_losses, 0);
        assert!(
            q.stats.duplicates > 400,
            "duplicates {}",
            q.stats.duplicates
        );
    }

    #[test]
    fn detected_corruption_is_dropped_and_retransmitted() {
        use crate::faults::FaultPlan;
        // Corruption confined to a short window: the first copy fails
        // its CRC, the retransmission (1 RTT later, past the window)
        // arrives clean.
        let plan = FaultPlan::new(31).corrupt(SimTime::ZERO, SimTime::from_millis(50), 1.0);
        let mut q = QuicStream::new(flat_link(10.0, 40).with_faults(plan), NoLoss);
        let o = q.send_packet(1200, SimTime::ZERO);
        assert!(!o.corrupted);
        assert!(o.retransmits >= 1, "CRC drop must retransmit");
        assert!(o.arrival.unwrap() >= SimTime::from_millis(50));
        assert!(q.stats.crc_dropped >= 1);
        assert_eq!(q.stats.residual_corrupted, 0);
        assert_eq!(o.intact_arrival(), o.arrival);
    }

    #[test]
    fn persistent_detected_corruption_becomes_residual_loss() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan::new(32).corrupt(SimTime::ZERO, SimTime::from_secs_f64(1e4), 1.0);
        let mut q = QuicStream::new(flat_link(10.0, 40).with_faults(plan), NoLoss);
        let o = q.send_packet(1200, SimTime::ZERO);
        assert_eq!(o.arrival, None, "every copy fails its CRC");
        assert_eq!(q.stats.crc_dropped, 3);
        assert_eq!(q.stats.residual_losses, 1);
    }

    #[test]
    fn residual_corruption_delivers_flagged_packets() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan::new(33)
            .corrupt(SimTime::ZERO, SimTime::from_secs_f64(1e4), 1.0)
            .with_residual_corrupt_rate(1.0);
        let mut q = QuicStream::new(flat_link(10.0, 40).with_faults(plan), NoLoss);
        let o = q.send_packet(1200, SimTime::ZERO);
        assert!(o.corrupted);
        assert!(o.arrival.is_some());
        assert_eq!(o.intact_arrival(), None);
        assert_eq!(q.stats.residual_corrupted, 1);
        assert_eq!(q.stats.crc_dropped, 0);
    }

    #[test]
    fn stream_state_round_trips_through_restore() {
        let mut live = QuicStream::new(flat_link(10.0, 40), Bernoulli::new(0.2, 17));
        live.send_burst(&[1200; 500], SimTime::ZERO);
        let snap = live.state();
        let loss_snap = live.loss().state();

        let mut resumed = QuicStream::new(flat_link(10.0, 40), Bernoulli::new(0.2, 1));
        resumed.restore_state(&snap);
        resumed.loss_mut().restore(loss_snap).unwrap();
        assert_eq!(resumed.state(), snap);
        for i in 0..500u64 {
            let t = SimTime::from_millis(700 + i);
            assert_eq!(live.send_packet(1200, t), resumed.send_packet(1200, t));
        }
        assert_eq!(live.state(), resumed.state());
    }

    #[test]
    fn faulty_loss_blackout_drops_media_packets_in_window() {
        use crate::faults::{FaultPlan, FaultyLoss};
        let plan =
            FaultPlan::new(23).blackout(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(1.0));
        let link = flat_link(10.0, 40).with_faults(plan.clone());
        let mut q = QuicStream::new(link, FaultyLoss::new(NoLoss, plan)).with_max_attempts(1);
        let before = q.send_packet(1200, SimTime::from_millis(100));
        let during = q.send_packet(1200, SimTime::from_millis(1500));
        let after = q.send_packet(1200, SimTime::from_millis(2500));
        assert!(before.arrival.is_some());
        assert!(during.arrival.is_none(), "packet in blackout must drop");
        assert!(after.arrival.is_some());
    }
}
