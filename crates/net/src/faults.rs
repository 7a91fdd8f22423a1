//! Composable, deterministic fault injection for the network substrate.
//!
//! The loss models in [`crate::loss`] produce *well-behaved* randomness:
//! i.i.d. or two-state bursty drops at a stationary rate. Real mobile
//! links also fail in structured ways — link blackouts during handoffs,
//! delay spikes when a queue upstream fills, jitter storms under
//! contention, throughput collapse in a dead zone, reordering across
//! cellular bearers, payload corruption (almost always caught by the
//! CRC32 framing in [`crate::integrity`], demoted to an erasure, with a
//! configurable residual rate that beats the checksum), and bearer
//! disconnects that force a full session teardown and reconnect.
//! GRACE's evaluation argument applies here: a loss-resilient system has
//! to be exercised under the full range of loss *patterns*, not only
//! i.i.d. drops.
//!
//! A [`FaultPlan`] is **data, not code**: an inert list of fault windows
//! plus a seed. Injection points all over the stack ([`crate::link::Link`],
//! [`crate::quicish::QuicStream`], [`crate::reliable::ReliableChannel`],
//! and the [`FaultyLoss`] wrapper) query the plan at simulation time, so
//! one plan describes one hostile-network scenario end to end, and the
//! whole scenario replays bit-identically under the same seed: per-packet
//! draws are *stateless hashes* of (time, salt, seed), never a mutable
//! RNG stream, so cloned links and interleaved queries cannot diverge.

use crate::clock::SimTime;

/// Errors from fault-plan construction/validation (see [`crate::NetError`]).
use crate::error::NetError;

/// Which way a packet is travelling relative to the client.
///
/// The media and point-code transports carry server → client traffic
/// ([`Direction::Downlink`]); the RTCP-style feedback channel
/// ([`crate::feedback`]) carries client → server traffic
/// ([`Direction::Uplink`]). Directional faults let a scenario impair the
/// feedback path independently of media loss — an uplink collapse that
/// silences every NACK/FIR while frames keep flowing down, or the
/// reverse.
///
/// **Contract.** Bearer-level faults (blackouts, disconnects, loss
/// bursts, delay spikes, …) are direction-agnostic: they model the radio
/// link itself and hit both directions, so [`FaultPlan::dir_lose_at`]
/// and [`FaultPlan::dir_extra_delay`] always layer the directional
/// faults *on top of* the direction-agnostic answer. The legacy
/// direction-agnostic queries ([`FaultPlan::lose_at`],
/// [`FaultPlan::extra_delay`]) ignore directional faults entirely, so
/// adding uplink impairment to a plan never perturbs an existing media
/// transport's draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server (feedback: NACK, PLI/FIR).
    Uplink,
    /// Server → client (media frames, point codes, retransmits).
    Downlink,
}

/// A half-open window `[start, start + duration)` of simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    pub start: SimTime,
    pub duration: SimTime,
}

impl FaultWindow {
    pub fn new(start: SimTime, duration: SimTime) -> Self {
        Self { start, duration }
    }

    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }
}

/// One fault primitive. All are windowed; probabilities are per-packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Total link outage: capacity is zero and every datagram sent into
    /// the window is lost. Reliable senders keep retrying and complete
    /// shortly after the window closes.
    Blackout(FaultWindow),
    /// Constant extra one-way delay for every delivery in the window.
    DelaySpike { window: FaultWindow, extra: SimTime },
    /// Random per-packet extra delay in `[0, max)` during the window.
    JitterBurst { window: FaultWindow, max: SimTime },
    /// Capacity multiplied by `factor` (`0 < factor <= 1`).
    ThroughputCollapse { window: FaultWindow, factor: f64 },
    /// Additional independent packet loss at `probability`.
    LossBurst {
        window: FaultWindow,
        probability: f64,
    },
    /// Per-packet probability of being held back `delay` (delivered out
    /// of order relative to packets sent just after it).
    Reorder {
        window: FaultWindow,
        probability: f64,
        delay: SimTime,
    },
    /// Per-packet duplication probability: a duplicate trails the
    /// original by one serialization slot, so a lost original can still
    /// be covered by its copy.
    Duplicate {
        window: FaultWindow,
        probability: f64,
    },
    /// Per-message probability that a delivered payload arrives with
    /// flipped bits. Receivers verify the CRC32 framing
    /// ([`crate::integrity`]): detected corruption is demoted to an
    /// erasure (retransmit or FEC-recover), while a plan-level residual
    /// rate ([`FaultPlan::residual_corrupt_rate`]) lets a configurable
    /// fraction beat the checksum and reach the decoder as damaged
    /// bytes. Query via [`FaultPlan::corruption_at`] /
    /// [`FaultPlan::corrupt_bytes`].
    Corrupt {
        window: FaultWindow,
        probability: f64,
    },
    /// Bearer death: the link is gone (zero capacity, all packets lost,
    /// like [`Fault::Blackout`]) *and* the session layer must tear down
    /// its transports and reconnect — `nerve-sim` resumes from a
    /// `SessionCheckpoint` after the window closes plus a handshake.
    /// A short blackout never forces teardown; a disconnect always does.
    Disconnect(FaultWindow),
    /// Additional per-packet loss in one direction only. Queried via
    /// [`FaultPlan::dir_lose_at`]; invisible to the direction-agnostic
    /// [`FaultPlan::lose_at`] (see [`Direction`] for the contract).
    DirLoss {
        dir: Direction,
        window: FaultWindow,
        probability: f64,
    },
    /// Constant extra one-way delay in one direction only. Queried via
    /// [`FaultPlan::dir_extra_delay`]; invisible to the
    /// direction-agnostic [`FaultPlan::extra_delay`].
    DirDelay {
        dir: Direction,
        window: FaultWindow,
        extra: SimTime,
    },
}

impl Fault {
    fn window(&self) -> FaultWindow {
        match self {
            Fault::Blackout(w) => *w,
            Fault::DelaySpike { window, .. }
            | Fault::JitterBurst { window, .. }
            | Fault::ThroughputCollapse { window, .. }
            | Fault::LossBurst { window, .. }
            | Fault::Reorder { window, .. }
            | Fault::Duplicate { window, .. }
            | Fault::Corrupt { window, .. }
            | Fault::DirLoss { window, .. }
            | Fault::DirDelay { window, .. } => *window,
            Fault::Disconnect(w) => *w,
        }
    }
}

/// Classification of a delivery under the plan's corruption faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Payload arrived intact.
    Clean,
    /// Payload was damaged and the CRC32 framing catches it: the
    /// receiver demotes the message to an erasure (retransmit, FEC
    /// repair, or conceal — never render).
    Detected,
    /// Payload was damaged in a way the checksum does not catch
    /// (2^-32 collisions, corruption above the checksummed hop): the
    /// receiver accepts flipped bytes and the decoder must survive them.
    Residual,
}

impl Corruption {
    /// Any corruption at all (detected or residual)?
    pub fn is_corrupt(&self) -> bool {
        !matches!(self, Corruption::Clean)
    }
}

/// A deterministic, composable fault scenario.
///
/// Build one with the fluent methods, then hand clones to every
/// fault-aware component. An empty (default) plan injects nothing and
/// costs one branch per query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    seed: u64,
    /// Fraction of corrupted deliveries that beat the CRC32 checksum
    /// (drawn from a distinct hash stream). 0 (the default) means every
    /// corruption is detectable.
    residual_corrupt_rate: f64,
}

impl FaultPlan {
    /// An empty plan whose per-packet draws derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            faults: Vec::new(),
            seed,
            residual_corrupt_rate: 0.0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    // ---- builders ----------------------------------------------------

    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// A total outage of `duration` starting at `at`.
    pub fn blackout(self, at: SimTime, duration: SimTime) -> Self {
        self.fault(Fault::Blackout(FaultWindow::new(at, duration)))
    }

    /// `count` on/off blackout cycles (link flapping): outage of
    /// `off_for`, then up for `on_for`, repeated from `at`.
    pub fn flaps(mut self, at: SimTime, off_for: SimTime, on_for: SimTime, count: usize) -> Self {
        let mut t = at;
        for _ in 0..count {
            self = self.blackout(t, off_for);
            t = t + off_for + on_for;
        }
        self
    }

    pub fn delay_spike(self, at: SimTime, duration: SimTime, extra: SimTime) -> Self {
        self.fault(Fault::DelaySpike {
            window: FaultWindow::new(at, duration),
            extra,
        })
    }

    pub fn jitter_burst(self, at: SimTime, duration: SimTime, max: SimTime) -> Self {
        self.fault(Fault::JitterBurst {
            window: FaultWindow::new(at, duration),
            max,
        })
    }

    pub fn throughput_collapse(self, at: SimTime, duration: SimTime, factor: f64) -> Self {
        self.fault(Fault::ThroughputCollapse {
            window: FaultWindow::new(at, duration),
            factor,
        })
    }

    pub fn loss_burst(self, at: SimTime, duration: SimTime, probability: f64) -> Self {
        self.fault(Fault::LossBurst {
            window: FaultWindow::new(at, duration),
            probability,
        })
    }

    pub fn reorder(self, at: SimTime, duration: SimTime, probability: f64, delay: SimTime) -> Self {
        self.fault(Fault::Reorder {
            window: FaultWindow::new(at, duration),
            probability,
            delay,
        })
    }

    pub fn duplicate(self, at: SimTime, duration: SimTime, probability: f64) -> Self {
        self.fault(Fault::Duplicate {
            window: FaultWindow::new(at, duration),
            probability,
        })
    }

    pub fn corrupt(self, at: SimTime, duration: SimTime, probability: f64) -> Self {
        self.fault(Fault::Corrupt {
            window: FaultWindow::new(at, duration),
            probability,
        })
    }

    /// Extra per-packet loss on the client → server feedback path only
    /// (NACKs and FIRs silently vanish; media keeps flowing).
    pub fn uplink_loss(self, at: SimTime, duration: SimTime, probability: f64) -> Self {
        self.fault(Fault::DirLoss {
            dir: Direction::Uplink,
            window: FaultWindow::new(at, duration),
            probability,
        })
    }

    /// Extra per-packet loss on the server → client path only (media and
    /// retransmits drop; feedback still gets through).
    pub fn downlink_loss(self, at: SimTime, duration: SimTime, probability: f64) -> Self {
        self.fault(Fault::DirLoss {
            dir: Direction::Downlink,
            window: FaultWindow::new(at, duration),
            probability,
        })
    }

    /// Constant extra one-way delay on the uplink only.
    pub fn uplink_delay(self, at: SimTime, duration: SimTime, extra: SimTime) -> Self {
        self.fault(Fault::DirDelay {
            dir: Direction::Uplink,
            window: FaultWindow::new(at, duration),
            extra,
        })
    }

    /// Set the fraction of corrupted deliveries that beat the checksum
    /// (classified [`Corruption::Residual`] instead of
    /// [`Corruption::Detected`]).
    pub fn with_residual_corrupt_rate(mut self, rate: f64) -> Self {
        self.residual_corrupt_rate = rate;
        self
    }

    /// The configured beat-the-checksum fraction.
    pub fn residual_corrupt_rate(&self) -> f64 {
        self.residual_corrupt_rate
    }

    /// Bearer death from `at` for `duration`: blackout semantics plus a
    /// mandatory session teardown/reconnect.
    pub fn disconnect(self, at: SimTime, duration: SimTime) -> Self {
        self.fault(Fault::Disconnect(FaultWindow::new(at, duration)))
    }

    /// Compose two plans into one: the union of both fault lists under
    /// *this* plan's seed.
    ///
    /// Fleet serving uses this to overlay a per-session plan (one
    /// client's handoff blackout) on a fleet-wide plan (the edge uplink's
    /// congestion collapse): each session's transports get one merged
    /// plan, so a query sees every fault that applies to it. Capacity
    /// factors multiply and loss probabilities union exactly as if the
    /// faults had been built into a single plan; `other`'s seed is
    /// dropped — per-packet draws must come from one stream or the merge
    /// would double-draw at the same `(time, salt)`.
    pub fn merged(&self, other: &FaultPlan) -> FaultPlan {
        let mut faults = self.faults.clone();
        faults.extend(other.faults.iter().cloned());
        FaultPlan {
            faults,
            seed: self.seed,
            // The stricter (higher) residual rate wins: a merge must not
            // silently soften either scenario's checksum-beating model.
            residual_corrupt_rate: self.residual_corrupt_rate.max(other.residual_corrupt_rate),
        }
    }

    /// Validate every fault's parameters. Builders accept anything so a
    /// scenario can be deserialized and *then* checked; call this before
    /// wiring a plan into a session.
    pub fn validate(&self) -> Result<(), NetError> {
        for f in &self.faults {
            match *f {
                Fault::ThroughputCollapse { factor, .. } => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(NetError::InvalidFactor { value: factor });
                    }
                }
                Fault::LossBurst { probability, .. }
                | Fault::Reorder { probability, .. }
                | Fault::Duplicate { probability, .. }
                | Fault::Corrupt { probability, .. } => {
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(NetError::InvalidProbability {
                            what: "fault probability",
                            value: probability,
                        });
                    }
                }
                Fault::DirLoss { probability, .. } => {
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(NetError::InvalidProbability {
                            what: "directional loss probability",
                            value: probability,
                        });
                    }
                }
                Fault::Blackout(_)
                | Fault::Disconnect(_)
                | Fault::DelaySpike { .. }
                | Fault::JitterBurst { .. }
                | Fault::DirDelay { .. } => {}
            }
        }
        if !(0.0..=1.0).contains(&self.residual_corrupt_rate) {
            return Err(NetError::InvalidProbability {
                what: "residual corrupt rate",
                value: self.residual_corrupt_rate,
            });
        }
        Ok(())
    }

    // ---- queries (all deterministic and side-effect free) ------------

    /// Is the link dead at `t` (blackout or disconnect window)?
    pub fn blackout_at(&self, t: SimTime) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Blackout(w) | Fault::Disconnect(w) if w.contains(t)))
    }

    /// Capacity multiplier at `t`: 0 during a blackout, the product of
    /// active collapse factors otherwise.
    pub fn capacity_factor(&self, t: SimTime) -> f64 {
        let mut factor = 1.0;
        for f in &self.faults {
            match f {
                Fault::Blackout(w) | Fault::Disconnect(w) if w.contains(t) => return 0.0,
                Fault::ThroughputCollapse { window, factor: k } if window.contains(t) => {
                    factor *= k.clamp(0.0, 1.0);
                }
                _ => {}
            }
        }
        factor
    }

    /// Extra one-way delay for a delivery at `t`: delay spikes stack, and
    /// jitter bursts add a hash-random term in `[0, max)` salted by
    /// `salt` (callers pass a per-packet sequence number).
    pub fn extra_delay(&self, t: SimTime, salt: u64) -> SimTime {
        let mut extra = SimTime::ZERO;
        for (i, f) in self.faults.iter().enumerate() {
            match f {
                Fault::DelaySpike { window, extra: e } if window.contains(t) => {
                    extra += *e;
                }
                Fault::JitterBurst { window, max } if window.contains(t) => {
                    let u = self.hash01(t, salt, i as u64);
                    extra += SimTime((max.as_micros() as f64 * u) as u64);
                }
                _ => {}
            }
        }
        extra
    }

    /// Does injected loss (blackout or loss burst) claim a packet sent at
    /// `t`? Salted per packet.
    pub fn lose_at(&self, t: SimTime, salt: u64) -> bool {
        for (i, f) in self.faults.iter().enumerate() {
            match f {
                Fault::Blackout(w) | Fault::Disconnect(w) if w.contains(t) => return true,
                Fault::LossBurst {
                    window,
                    probability,
                } if window.contains(t) && self.hash01(t, salt, i as u64) < *probability => {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Does injected loss claim a packet travelling `dir` at `t`?
    /// Bearer-level loss (blackouts, loss bursts) applies to both
    /// directions; [`Fault::DirLoss`] windows matching `dir` layer on
    /// top, each drawing from its own fault-index hash stream so
    /// enabling a directional fault never perturbs existing draws.
    pub fn dir_lose_at(&self, dir: Direction, t: SimTime, salt: u64) -> bool {
        if self.lose_at(t, salt) {
            return true;
        }
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::DirLoss {
                dir: d,
                window,
                probability,
            } = f
            {
                if *d == dir && window.contains(t) && self.hash01(t, salt, i as u64) < *probability
                {
                    return true;
                }
            }
        }
        false
    }

    /// Extra one-way delay for a delivery travelling `dir` at `t`:
    /// the direction-agnostic [`FaultPlan::extra_delay`] (spikes +
    /// jitter) plus every [`Fault::DirDelay`] window matching `dir`.
    pub fn dir_extra_delay(&self, dir: Direction, t: SimTime, salt: u64) -> SimTime {
        let mut extra = self.extra_delay(t, salt);
        for f in &self.faults {
            if let Fault::DirDelay {
                dir: d,
                window,
                extra: e,
            } = f
            {
                if *d == dir && window.contains(t) {
                    extra += *e;
                }
            }
        }
        extra
    }

    /// Extra hold-back delay (reordering) for a packet delivered at `t`.
    pub fn reorder_delay(&self, t: SimTime, salt: u64) -> SimTime {
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::Reorder {
                window,
                probability,
                delay,
            } = f
            {
                if window.contains(t) && self.hash01(t, salt, i as u64) < *probability {
                    return *delay;
                }
            }
        }
        SimTime::ZERO
    }

    /// Is a packet sent at `t` duplicated?
    pub fn duplicate_at(&self, t: SimTime, salt: u64) -> bool {
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::Duplicate {
                window,
                probability,
            } = f
            {
                if window.contains(t) && self.hash01(t, salt, i as u64) < *probability {
                    return true;
                }
            }
        }
        false
    }

    /// Does a message delivered at `t` arrive corrupted (either kind)?
    pub fn corrupt_at(&self, t: SimTime, salt: u64) -> bool {
        self.corruption_at(t, salt).is_corrupt()
    }

    /// Classify a delivery at `t`: clean, CRC-detectable corruption, or
    /// residual corruption that beat the checksum. The residual
    /// sub-draw comes from a distinct hash stream (`RESIDUAL_STREAM`)
    /// so enabling it never perturbs which deliveries get corrupted.
    pub fn corruption_at(&self, t: SimTime, salt: u64) -> Corruption {
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::Corrupt {
                window,
                probability,
            } = f
            {
                if window.contains(t) && self.hash01(t, salt, i as u64) < *probability {
                    let residual = self.residual_corrupt_rate > 0.0
                        && self.hash01(t, salt, Self::RESIDUAL_STREAM) < self.residual_corrupt_rate;
                    return if residual {
                        Corruption::Residual
                    } else {
                        Corruption::Detected
                    };
                }
            }
        }
        Corruption::Clean
    }

    /// Hash-stream index reserved for the residual (beat-the-checksum)
    /// sub-draw; far above any plausible fault-list index.
    const RESIDUAL_STREAM: u64 = u64::MAX ^ 0xC0DE;

    /// Apply the plan's corruption model to real bytes: if the delivery
    /// at `t` draws corruption, flip payload bytes deterministically
    /// (seeded by the same draw identity) and return the classification.
    /// Detected corruption flips sealed bytes the CRC will catch;
    /// residual corruption models damage the checksum cannot see, so the
    /// caller applies it *after* CRC verification.
    pub fn corrupt_bytes(&self, payload: &mut [u8], t: SimTime, salt: u64) -> Corruption {
        let verdict = self.corruption_at(t, salt);
        if verdict.is_corrupt() {
            let flip_salt = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(t.as_micros())
                .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            crate::integrity::flip_bytes(payload, flip_salt, 2);
        }
        verdict
    }

    /// Session-teardown events: every [`Fault::Disconnect`] window, plus
    /// any blackout at least `blackout_threshold` long (the session
    /// layer treats a long enough outage as a dead bearer), sorted by
    /// start time. `None` disables blackout promotion.
    pub fn reconnect_events(&self, blackout_threshold: Option<SimTime>) -> Vec<FaultWindow> {
        let mut windows: Vec<FaultWindow> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::Disconnect(w) => Some(*w),
                Fault::Blackout(w) => {
                    blackout_threshold.and_then(|th| (w.duration >= th).then_some(*w))
                }
                _ => None,
            })
            .collect();
        windows.sort_by_key(|w| (w.start, w.duration));
        windows
    }

    /// Total blacked-out time across the plan (windows are summed; the
    /// scenario builders never overlap blackouts).
    pub fn total_blackout(&self) -> SimTime {
        SimTime(
            self.faults
                .iter()
                .filter_map(|f| match f {
                    Fault::Blackout(w) => Some(w.duration.as_micros()),
                    _ => None,
                })
                .sum(),
        )
    }

    /// End of the latest fault window (ZERO for an empty plan).
    pub fn horizon(&self) -> SimTime {
        self.faults
            .iter()
            .map(|f| f.window().end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Stateless uniform draw in `[0, 1)` from (time, salt, stream).
    fn hash01(&self, t: SimTime, salt: u64, stream: u64) -> f64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t.as_micros())
            .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(stream.wrapping_mul(0xCA5A_8268_9512_1157 ^ 0xB5));
        // SplitMix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A [`crate::loss::LossModel`] wrapper layering a fault plan's injected
/// loss (blackouts, loss bursts) on top of any base model. The wrapper
/// keeps a packet counter as hash salt so simultaneous packets draw
/// independently.
#[derive(Debug)]
pub struct FaultyLoss<L> {
    inner: L,
    plan: FaultPlan,
    packets: u64,
}

impl<L: crate::loss::LossModel> FaultyLoss<L> {
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            packets: 0,
        }
    }

    /// Packets drawn so far (the hash salt counter) — checkpointable.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Restore the packet counter from a checkpoint.
    pub fn set_packets(&mut self, packets: u64) {
        self.packets = packets;
    }

    /// The wrapped base loss model (for checkpointing its state).
    pub fn inner(&self) -> &L {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }
}

impl<L: crate::loss::LossModel> crate::loss::LossModel for FaultyLoss<L> {
    fn lose(&mut self) -> bool {
        // Without a timestamp only the base process applies.
        self.inner.lose()
    }

    fn lose_at(&mut self, now: SimTime) -> bool {
        self.packets += 1;
        // Always advance the base chain so fault windows do not shift
        // the base loss pattern outside the window.
        let base = self.inner.lose_at(now);
        base || self.plan.lose_at(now, self.packets)
    }

    fn average_rate(&self) -> f64 {
        self.inner.average_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LossModel, NoLoss};

    #[test]
    fn merged_plans_union_faults_and_keep_left_seed() {
        let fleet = FaultPlan::new(3).throughput_collapse(
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
            0.5,
        );
        let session =
            FaultPlan::new(99).blackout(SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(1.0));
        let merged = fleet.merged(&session);
        assert_eq!(merged.faults().len(), 2);
        // Both effects visible through one plan.
        assert_eq!(merged.capacity_factor(SimTime::from_secs_f64(1.5)), 0.5);
        assert!(merged.blackout_at(SimTime::from_secs_f64(5.5)));
        assert!(!merged.blackout_at(SimTime::from_secs_f64(0.5)));
        // Draw stream comes from the left (fleet) plan's seed.
        assert_eq!(merged.seed, 3);
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::new(1);
        for i in 0..100u64 {
            let t = SimTime::from_millis(i * 37);
            assert!(!p.blackout_at(t));
            assert_eq!(p.capacity_factor(t), 1.0);
            assert_eq!(p.extra_delay(t, i), SimTime::ZERO);
            assert!(!p.lose_at(t, i));
            assert!(!p.corrupt_at(t, i));
            assert!(!p.duplicate_at(t, i));
            assert_eq!(p.reorder_delay(t, i), SimTime::ZERO);
        }
        assert_eq!(p.total_blackout(), SimTime::ZERO);
        assert_eq!(p.horizon(), SimTime::ZERO);
    }

    #[test]
    fn blackout_window_is_half_open() {
        let p = FaultPlan::new(2).blackout(secs(10.0), secs(2.0));
        assert!(!p.blackout_at(secs(9.999)));
        assert!(p.blackout_at(secs(10.0)));
        assert!(p.blackout_at(secs(11.999)));
        assert!(!p.blackout_at(secs(12.0)));
        assert_eq!(p.capacity_factor(secs(11.0)), 0.0);
        assert!(p.lose_at(secs(11.0), 0));
        assert_eq!(p.total_blackout(), secs(2.0));
        assert_eq!(p.horizon(), secs(12.0));
    }

    #[test]
    fn flaps_expand_to_repeated_blackouts() {
        let p = FaultPlan::new(3).flaps(secs(5.0), secs(1.0), secs(2.0), 3);
        // Off [5,6), on [6,8), off [8,9), on [9,11), off [11,12).
        assert!(p.blackout_at(secs(5.5)));
        assert!(!p.blackout_at(secs(7.0)));
        assert!(p.blackout_at(secs(8.5)));
        assert!(!p.blackout_at(secs(10.0)));
        assert!(p.blackout_at(secs(11.5)));
        assert_eq!(p.total_blackout(), secs(3.0));
    }

    #[test]
    fn delay_spikes_stack_and_jitter_is_bounded() {
        let p = FaultPlan::new(4)
            .delay_spike(secs(1.0), secs(4.0), SimTime::from_millis(100))
            .delay_spike(secs(2.0), secs(1.0), SimTime::from_millis(50))
            .jitter_burst(secs(1.0), secs(4.0), SimTime::from_millis(20));
        let only_first = p.extra_delay(secs(1.5), 0);
        assert!(only_first >= SimTime::from_millis(100));
        assert!(only_first < SimTime::from_millis(120));
        let both = p.extra_delay(secs(2.5), 0);
        assert!(both >= SimTime::from_millis(150));
        assert!(both < SimTime::from_millis(170));
        assert_eq!(p.extra_delay(secs(6.0), 0), SimTime::ZERO);
    }

    #[test]
    fn collapse_scales_capacity_multiplicatively() {
        let p = FaultPlan::new(5)
            .throughput_collapse(secs(0.0), secs(10.0), 0.5)
            .throughput_collapse(secs(5.0), secs(10.0), 0.2);
        assert!((p.capacity_factor(secs(1.0)) - 0.5).abs() < 1e-12);
        assert!((p.capacity_factor(secs(6.0)) - 0.1).abs() < 1e-12);
        assert!((p.capacity_factor(secs(12.0)) - 0.2).abs() < 1e-12);
        assert_eq!(p.capacity_factor(secs(20.0)), 1.0);
    }

    #[test]
    fn probabilistic_faults_hit_near_their_rate() {
        let p = FaultPlan::new(6)
            .loss_burst(secs(0.0), secs(1000.0), 0.3)
            .corrupt(secs(0.0), secs(1000.0), 0.2)
            .duplicate(secs(0.0), secs(1000.0), 0.1);
        let n = 20_000u64;
        let mut losses = 0;
        let mut corrupt = 0;
        let mut dups = 0;
        for i in 0..n {
            let t = SimTime::from_micros(i * 7 + 13);
            if p.lose_at(t, i) {
                losses += 1;
            }
            if p.corrupt_at(t, i) {
                corrupt += 1;
            }
            if p.duplicate_at(t, i) {
                dups += 1;
            }
        }
        let rate = |c: u64| c as f64 / n as f64;
        assert!((rate(losses) - 0.3).abs() < 0.02, "loss {}", rate(losses));
        assert!(
            (rate(corrupt) - 0.2).abs() < 0.02,
            "corrupt {}",
            rate(corrupt)
        );
        assert!((rate(dups) - 0.1).abs() < 0.02, "dup {}", rate(dups));
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_salt() {
        let a = FaultPlan::new(9).loss_burst(secs(0.0), secs(100.0), 0.5);
        let b = FaultPlan::new(9).loss_burst(secs(0.0), secs(100.0), 0.5);
        let c = FaultPlan::new(10).loss_burst(secs(0.0), secs(100.0), 0.5);
        let mut diverged = false;
        for i in 0..1000u64 {
            let t = SimTime::from_micros(i * 31);
            assert_eq!(a.lose_at(t, i), b.lose_at(t, i));
            if a.lose_at(t, i) != c.lose_at(t, i) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must draw differently");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultPlan::new(1)
            .throughput_collapse(secs(0.0), secs(1.0), 0.0)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .loss_burst(secs(0.0), secs(1.0), 1.5)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .blackout(secs(0.0), secs(1.0))
            .corrupt(secs(0.0), secs(1.0), 0.7)
            .validate()
            .is_ok());
    }

    #[test]
    fn corruption_classifies_by_residual_rate() {
        let base = FaultPlan::new(21).corrupt(secs(0.0), secs(1000.0), 0.25);
        let with_residual = base.clone().with_residual_corrupt_rate(0.3);
        let n = 20_000u64;
        let (mut detected, mut residual, mut total) = (0u64, 0u64, 0u64);
        for i in 0..n {
            let t = SimTime::from_micros(i * 11 + 5);
            let v = with_residual.corruption_at(t, i);
            // The residual sub-draw must not change *which* deliveries
            // corrupt, only how they classify.
            assert_eq!(v.is_corrupt(), base.corruption_at(t, i).is_corrupt());
            match v {
                Corruption::Detected => detected += 1,
                Corruption::Residual => residual += 1,
                Corruption::Clean => continue,
            }
            total += 1;
        }
        assert!(detected > 0 && residual > 0);
        let frac = residual as f64 / total as f64;
        assert!((frac - 0.3).abs() < 0.03, "residual fraction {frac}");
        // Without a residual rate, every corruption is detectable.
        for i in 0..n {
            let t = SimTime::from_micros(i * 11 + 5);
            assert_ne!(base.corruption_at(t, i), Corruption::Residual);
        }
    }

    #[test]
    fn corrupt_bytes_flips_real_payload_bytes() {
        let p = FaultPlan::new(8).corrupt(secs(0.0), secs(100.0), 1.0);
        let original: Vec<u8> = (0..64u8).collect();
        let mut damaged = original.clone();
        let verdict = p.corrupt_bytes(&mut damaged, secs(1.0), 7);
        assert!(verdict.is_corrupt());
        assert_ne!(damaged, original, "corruption must damage real bytes");
        // Same identity flips identically; clean deliveries untouched.
        let mut again = original.clone();
        p.corrupt_bytes(&mut again, secs(1.0), 7);
        assert_eq!(again, damaged);
        let clean = FaultPlan::new(8);
        let mut untouched = original.clone();
        assert_eq!(
            clean.corrupt_bytes(&mut untouched, secs(1.0), 7),
            Corruption::Clean
        );
        assert_eq!(untouched, original);
    }

    #[test]
    fn disconnect_is_blackout_plus_teardown() {
        let p = FaultPlan::new(13)
            .disconnect(secs(4.0), secs(2.0))
            .blackout(secs(10.0), secs(3.0))
            .blackout(secs(20.0), secs(0.5));
        // Blackout semantics inside the window.
        assert!(p.blackout_at(secs(5.0)));
        assert_eq!(p.capacity_factor(secs(5.0)), 0.0);
        assert!(p.lose_at(secs(5.0), 1));
        assert!(!p.blackout_at(secs(6.5)));
        // Teardown events: the disconnect always, the blackout only when
        // it crosses the promotion threshold.
        let none = p.reconnect_events(None);
        assert_eq!(none.len(), 1);
        assert_eq!(none[0].start, secs(4.0));
        let promoted = p.reconnect_events(Some(secs(1.0)));
        assert_eq!(promoted.len(), 2);
        assert_eq!(promoted[1].start, secs(10.0));
        // Disconnects do not count toward blackout totals.
        assert_eq!(p.total_blackout(), secs(3.5));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn merged_plans_keep_stricter_residual_rate() {
        let a = FaultPlan::new(1).with_residual_corrupt_rate(0.1);
        let b = FaultPlan::new(2).with_residual_corrupt_rate(0.4);
        assert_eq!(a.merged(&b).residual_corrupt_rate(), 0.4);
        assert_eq!(b.merged(&a).residual_corrupt_rate(), 0.4);
        assert!(FaultPlan::new(1)
            .with_residual_corrupt_rate(1.5)
            .validate()
            .is_err());
    }

    #[test]
    fn faulty_loss_state_round_trips() {
        let mut fl = FaultyLoss::new(NoLoss, FaultPlan::new(1));
        fl.lose_at(secs(0.1));
        fl.lose_at(secs(0.2));
        assert_eq!(fl.packets(), 2);
        fl.set_packets(7);
        assert_eq!(fl.packets(), 7);
    }

    #[test]
    fn directional_loss_hits_only_its_direction() {
        let p = FaultPlan::new(31)
            .uplink_loss(secs(2.0), secs(2.0), 1.0)
            .downlink_loss(secs(6.0), secs(2.0), 1.0);
        // Uplink window: uplink packets die, downlink packets pass.
        assert!(p.dir_lose_at(Direction::Uplink, secs(3.0), 0));
        assert!(!p.dir_lose_at(Direction::Downlink, secs(3.0), 0));
        // Downlink window: the reverse.
        assert!(!p.dir_lose_at(Direction::Uplink, secs(7.0), 0));
        assert!(p.dir_lose_at(Direction::Downlink, secs(7.0), 0));
        // Outside both windows nothing is lost.
        assert!(!p.dir_lose_at(Direction::Uplink, secs(10.0), 0));
        assert!(!p.dir_lose_at(Direction::Downlink, secs(10.0), 0));
        // The direction-agnostic query never sees directional faults.
        for i in 0..200u64 {
            assert!(!p.lose_at(SimTime::from_millis(i * 50), i));
        }
        assert!(p.validate().is_ok());
        assert_eq!(p.horizon(), secs(8.0));
    }

    #[test]
    fn bearer_level_faults_hit_both_directions() {
        let p = FaultPlan::new(32).blackout(secs(1.0), secs(1.0));
        assert!(p.dir_lose_at(Direction::Uplink, secs(1.5), 0));
        assert!(p.dir_lose_at(Direction::Downlink, secs(1.5), 0));
        assert!(!p.dir_lose_at(Direction::Uplink, secs(2.5), 0));
    }

    #[test]
    fn directional_delay_layers_on_shared_delay() {
        let p = FaultPlan::new(33)
            .delay_spike(secs(0.0), secs(10.0), SimTime::from_millis(40))
            .uplink_delay(secs(0.0), secs(10.0), SimTime::from_millis(30));
        // Downlink sees only the bearer-level spike.
        assert_eq!(
            p.dir_extra_delay(Direction::Downlink, secs(1.0), 0),
            SimTime::from_millis(40)
        );
        // Uplink sees the spike plus its directional extra.
        assert_eq!(
            p.dir_extra_delay(Direction::Uplink, secs(1.0), 0),
            SimTime::from_millis(70)
        );
        // The direction-agnostic query ignores the directional extra.
        assert_eq!(p.extra_delay(secs(1.0), 0), SimTime::from_millis(40));
    }

    #[test]
    fn directional_rates_draw_near_their_probability_and_deterministically() {
        let p = FaultPlan::new(34).uplink_loss(secs(0.0), secs(1000.0), 0.3);
        let q = FaultPlan::new(34).uplink_loss(secs(0.0), secs(1000.0), 0.3);
        let n = 20_000u64;
        let mut losses = 0;
        for i in 0..n {
            let t = SimTime::from_micros(i * 7 + 13);
            let hit = p.dir_lose_at(Direction::Uplink, t, i);
            assert_eq!(hit, q.dir_lose_at(Direction::Uplink, t, i));
            if hit {
                losses += 1;
            }
        }
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "uplink loss rate {rate}");
    }

    #[test]
    fn adding_directional_faults_never_perturbs_existing_draws() {
        // The satellite contract: feedback impairment is injectable
        // separately from media loss. Same seed, same loss burst — with
        // and without an uplink collapse appended — must produce the
        // *identical* media-side draw sequence.
        let base = FaultPlan::new(35).loss_burst(secs(0.0), secs(100.0), 0.4);
        let with_uplink = base.clone().uplink_loss(secs(0.0), secs(100.0), 1.0);
        for i in 0..2_000u64 {
            let t = SimTime::from_micros(i * 31);
            assert_eq!(base.lose_at(t, i), with_uplink.lose_at(t, i));
            assert_eq!(
                base.dir_lose_at(Direction::Downlink, t, i),
                with_uplink.dir_lose_at(Direction::Downlink, t, i)
            );
            assert_eq!(base.extra_delay(t, i), with_uplink.extra_delay(t, i));
        }
    }

    #[test]
    fn directional_validation_rejects_bad_probability() {
        assert!(FaultPlan::new(1)
            .uplink_loss(secs(0.0), secs(1.0), 1.5)
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .downlink_loss(secs(0.0), secs(1.0), 0.5)
            .uplink_delay(secs(0.0), secs(1.0), SimTime::from_millis(10))
            .validate()
            .is_ok());
    }

    #[test]
    fn faulty_loss_layers_on_base_model() {
        let mut fl = FaultyLoss::new(NoLoss, FaultPlan::new(11).blackout(secs(1.0), secs(1.0)));
        assert!(!fl.lose_at(secs(0.5)));
        assert!(fl.lose_at(secs(1.5)));
        assert!(!fl.lose_at(secs(2.5)));
        assert_eq!(fl.average_rate(), 0.0);
    }
}
