//! Packet loss processes.
//!
//! Two models: independent (Bernoulli) loss, and the two-state
//! Gilbert–Elliott chain that produces the bursty losses wireless links
//! actually exhibit (§1 of the paper: low SNR, collisions, handoffs). The
//! GE model is parameterized by target average loss rate and mean burst
//! length, from which the state transition probabilities follow.

use crate::bytes::FrameError;
use crate::clock::SimTime;
use crate::error::NetError;
use nerve_rng::{Rng, StdRng};

/// A packet loss process: `lose()` draws the fate of the next packet.
pub trait LossModel {
    /// True if the next packet is lost.
    fn lose(&mut self) -> bool;

    /// Time-aware variant. The base processes here are stationary and
    /// ignore `now`; [`crate::faults::FaultyLoss`] overrides this to add
    /// windowed fault loss on top. Channels call this form so a fault
    /// plan can act on any wrapped model.
    fn lose_at(&mut self, now: SimTime) -> bool {
        let _ = now;
        self.lose()
    }

    /// Long-run average loss probability.
    fn average_rate(&self) -> f64;
}

/// Replayable position of a loss process: its seed, how many draws have
/// been consumed, and (for Gilbert–Elliott) the current chain state.
///
/// Checkpoints capture *position*, not generator state: restore
/// re-seeds the generator and replays `draws` uniform draws to
/// fast-forward it. Storing `StdRng`'s four state words instead would
/// change the checkpoint wire formats that embed this struct. Draw
/// counts are per-chunk-scale (thousands), so the replay is
/// microseconds. A state read from a frame may be forged, so restore
/// refuses a cursor past [`MAX_REPLAY_DRAWS`] instead of replaying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossState {
    pub seed: u64,
    pub draws: u64,
    /// Gilbert–Elliott chain state (ignored by Bernoulli).
    pub bad: bool,
}

// The cursor is not checked on read; a restore refuses one that does
// not replay.
crate::wire_record!(LossState { seed, draws, bad });

/// The longest cursor a restore replays. A restore replays every draw,
/// so the bound keeps a forged cursor from stalling it; 2^24 packets is
/// about 20 GB of 1200-byte packets, far beyond any one simulated stream.
pub const MAX_REPLAY_DRAWS: u64 = 1 << 24;

fn check_replay(draws: u64) -> Result<(), FrameError> {
    if draws > MAX_REPLAY_DRAWS {
        return Err(FrameError::bad_field("loss_draws", draws));
    }
    Ok(())
}

/// Independent loss with fixed probability.
#[derive(Debug)]
pub struct Bernoulli {
    p: f64,
    rng: StdRng,
    seed: u64,
    draws: u64,
}

impl Bernoulli {
    pub fn new(p: f64, seed: u64) -> Self {
        match Self::try_new(p, seed) {
            Ok(m) => m,
            Err(_) => panic!("loss probability out of range: {p}"),
        }
    }

    /// Fallible constructor for data-driven scenarios.
    pub fn try_new(p: f64, seed: u64) -> Result<Self, NetError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(NetError::InvalidProbability {
                what: "loss probability",
                value: p,
            });
        }
        Ok(Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            seed,
            draws: 0,
        })
    }

    /// Current replayable position.
    pub fn state(&self) -> LossState {
        LossState {
            seed: self.seed,
            draws: self.draws,
            bad: false,
        }
    }

    /// Restore to a captured position: re-seed and replay the draws.
    /// Refuses a cursor past [`MAX_REPLAY_DRAWS`].
    pub fn restore(&mut self, state: LossState) -> Result<(), FrameError> {
        check_replay(state.draws)?;
        self.seed = state.seed;
        self.rng = StdRng::seed_from_u64(state.seed);
        self.draws = 0;
        for _ in 0..state.draws {
            let _: f64 = self.rng.random_range(0.0..1.0);
            self.draws += 1;
        }
        Ok(())
    }
}

impl LossModel for Bernoulli {
    fn lose(&mut self) -> bool {
        self.draws += 1;
        self.rng.random_range(0.0..1.0) < self.p
    }

    fn average_rate(&self) -> f64 {
        self.p
    }
}

/// Gilbert–Elliott bursty loss.
///
/// Two states: Good (no loss) and Bad (every packet lost — the classic
/// simplified Gilbert model). With `p_gb` the Good→Bad transition
/// probability and `p_bg` the Bad→Good probability, the stationary loss
/// rate is `p_gb / (p_gb + p_bg)` and the mean burst length is `1/p_bg`.
#[derive(Debug)]
pub struct GilbertElliott {
    p_gb: f64,
    p_bg: f64,
    bad: bool,
    rng: StdRng,
    seed: u64,
    draws: u64,
}

impl GilbertElliott {
    /// Construct from transition probabilities.
    pub fn new(p_gb: f64, p_bg: f64, seed: u64) -> Self {
        match Self::try_new(p_gb, p_bg, seed) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor from transition probabilities.
    pub fn try_new(p_gb: f64, p_bg: f64, seed: u64) -> Result<Self, NetError> {
        for (what, value) in [("p_gb", p_gb), ("p_bg", p_bg)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(NetError::InvalidProbability { what, value });
            }
        }
        Ok(Self {
            p_gb,
            p_bg,
            bad: false,
            rng: StdRng::seed_from_u64(seed),
            seed,
            draws: 0,
        })
    }

    /// Construct from a target average loss rate and mean burst length
    /// (in packets).
    pub fn with_rate(avg_loss: f64, mean_burst: f64, seed: u64) -> Self {
        match Self::try_with_rate(avg_loss, mean_burst, seed) {
            Ok(m) => m,
            Err(NetError::InvalidBurstLength { value }) => {
                panic!("burst length must be at least 1 packet, got {value}")
            }
            Err(_) => panic!("loss rate must be in [0,1), got {avg_loss}"),
        }
    }

    /// Fallible counterpart of [`GilbertElliott::with_rate`].
    pub fn try_with_rate(avg_loss: f64, mean_burst: f64, seed: u64) -> Result<Self, NetError> {
        if !(0.0..1.0).contains(&avg_loss) {
            return Err(NetError::InvalidProbability {
                what: "average loss rate",
                value: avg_loss,
            });
        }
        if mean_burst < 1.0 {
            return Err(NetError::InvalidBurstLength { value: mean_burst });
        }
        let p_bg = 1.0 / mean_burst;
        // avg = p_gb / (p_gb + p_bg)  =>  p_gb = avg * p_bg / (1 - avg)
        let p_gb = (avg_loss * p_bg / (1.0 - avg_loss)).min(1.0);
        Self::try_new(p_gb, p_bg, seed)
    }

    /// Configured Good→Bad transition probability.
    pub fn p_gb(&self) -> f64 {
        self.p_gb
    }

    /// Configured Bad→Good transition probability.
    pub fn p_bg(&self) -> f64 {
        self.p_bg
    }

    /// Current replayable position (seed, draw count, chain state).
    pub fn state(&self) -> LossState {
        LossState {
            seed: self.seed,
            draws: self.draws,
            bad: self.bad,
        }
    }

    /// Restore to a captured position: re-seed and replay the draws.
    /// Replaying reproduces the chain state too, so a `state.bad` that
    /// disagrees with it is refused (`loss_bad`), as is a cursor past
    /// [`MAX_REPLAY_DRAWS`] (`loss_draws`). A refused model must be
    /// discarded.
    pub fn restore(&mut self, state: LossState) -> Result<(), FrameError> {
        check_replay(state.draws)?;
        self.seed = state.seed;
        self.rng = StdRng::seed_from_u64(state.seed);
        self.bad = false;
        self.draws = 0;
        for _ in 0..state.draws {
            self.step();
        }
        if self.bad != state.bad {
            return Err(FrameError::bad_field("loss_bad", state.bad));
        }
        Ok(())
    }

    fn step(&mut self) -> bool {
        self.draws += 1;
        let u: f64 = self.rng.random_range(0.0..1.0);
        if self.bad {
            if u < self.p_bg {
                self.bad = false;
            }
        } else if u < self.p_gb {
            self.bad = true;
        }
        self.bad
    }
}

impl LossModel for GilbertElliott {
    fn lose(&mut self) -> bool {
        self.step()
    }

    fn average_rate(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            0.0
        } else {
            self.p_gb / (self.p_gb + self.p_bg)
        }
    }
}

/// A loss model that never loses packets (control runs).
#[derive(Debug, Clone, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn lose(&mut self) -> bool {
        false
    }

    fn average_rate(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate(model: &mut dyn LossModel, n: usize) -> f64 {
        (0..n).filter(|_| model.lose()).count() as f64 / n as f64
    }

    #[test]
    fn bernoulli_matches_target_rate() {
        let mut m = Bernoulli::new(0.05, 42);
        let rate = empirical_rate(&mut m, 100_000);
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = Bernoulli::new(0.0, 1);
        assert_eq!(empirical_rate(&mut never, 1000), 0.0);
        let mut always = Bernoulli::new(1.0, 1);
        assert_eq!(empirical_rate(&mut always, 1000), 1.0);
    }

    #[test]
    fn gilbert_elliott_matches_target_rate() {
        let mut m = GilbertElliott::with_rate(0.03, 5.0, 7);
        assert!((m.average_rate() - 0.03).abs() < 1e-9);
        let rate = empirical_rate(&mut m, 200_000);
        assert!((rate - 0.03).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare mean burst length against Bernoulli at the same rate.
        let burst_len = |model: &mut dyn LossModel, n: usize| -> f64 {
            let (mut bursts, mut losses, mut in_burst) = (0usize, 0usize, false);
            for _ in 0..n {
                if model.lose() {
                    losses += 1;
                    if !in_burst {
                        bursts += 1;
                        in_burst = true;
                    }
                } else {
                    in_burst = false;
                }
            }
            losses as f64 / bursts.max(1) as f64
        };
        let mut ge = GilbertElliott::with_rate(0.05, 8.0, 11);
        let mut be = Bernoulli::new(0.05, 11);
        let ge_burst = burst_len(&mut ge, 200_000);
        let be_burst = burst_len(&mut be, 200_000);
        assert!(
            ge_burst > 2.0 * be_burst,
            "GE burst {ge_burst} vs Bernoulli burst {be_burst}"
        );
        assert!((ge_burst - 8.0).abs() < 2.0, "GE burst length {ge_burst}");
    }

    #[test]
    fn no_loss_never_loses() {
        let mut m = NoLoss;
        assert_eq!(empirical_rate(&mut m, 100), 0.0);
        assert_eq!(m.average_rate(), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GilbertElliott::with_rate(0.1, 4.0, 99);
        let mut b = GilbertElliott::with_rate(0.1, 4.0, 99);
        for _ in 0..1000 {
            assert_eq!(a.lose(), b.lose());
        }
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn invalid_burst_panics() {
        let _ = GilbertElliott::with_rate(0.1, 0.5, 1);
    }

    /// Empirical mean loss rate and mean burst length over `n` draws.
    fn loss_statistics(model: &mut dyn LossModel, n: usize) -> (f64, f64) {
        let (mut losses, mut bursts, mut in_burst) = (0usize, 0usize, false);
        for _ in 0..n {
            if model.lose() {
                losses += 1;
                if !in_burst {
                    bursts += 1;
                    in_burst = true;
                }
            } else {
                in_burst = false;
            }
        }
        (
            losses as f64 / n as f64,
            losses as f64 / bursts.max(1) as f64,
        )
    }

    #[test]
    fn gilbert_elliott_stationary_rate_follows_transition_probabilities() {
        // For (p_gb, p_bg) the chain's stationary loss rate is
        // p_gb / (p_gb + p_bg). Check several operating points within
        // 10% relative (sample sizes keep the estimator noise well
        // below that).
        for (i, &(p_gb, p_bg)) in [(0.01, 0.25), (0.02, 0.125), (0.05, 0.5)]
            .iter()
            .enumerate()
        {
            let mut m = GilbertElliott::new(p_gb, p_bg, 1000 + i as u64);
            let expected = p_gb / (p_gb + p_bg);
            assert!((m.average_rate() - expected).abs() < 1e-12);
            let (rate, _) = loss_statistics(&mut m, 400_000);
            assert!(
                (rate - expected).abs() / expected < 0.10,
                "p_gb={p_gb} p_bg={p_bg}: empirical rate {rate} vs expected {expected}"
            );
        }
    }

    #[test]
    fn gilbert_elliott_burst_length_follows_escape_probability() {
        // Bad-state dwell time is geometric with parameter p_bg, so the
        // mean burst length is 1/p_bg packets.
        for (i, &(p_gb, p_bg)) in [(0.01, 0.25), (0.02, 0.1), (0.03, 0.5)].iter().enumerate() {
            let mut m = GilbertElliott::new(p_gb, p_bg, 2000 + i as u64);
            let expected = 1.0 / p_bg;
            let (_, burst) = loss_statistics(&mut m, 400_000);
            assert!(
                (burst - expected).abs() / expected < 0.15,
                "p_gb={p_gb} p_bg={p_bg}: empirical burst {burst} vs expected {expected}"
            );
        }
    }

    #[test]
    fn with_rate_round_trips_through_transition_probabilities() {
        let m = GilbertElliott::with_rate(0.04, 6.0, 3);
        assert!((1.0 / m.p_bg() - 6.0).abs() < 1e-12);
        assert!((m.p_gb() / (m.p_gb() + m.p_bg()) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn try_constructors_report_structured_errors() {
        use crate::error::NetError;
        assert!(matches!(
            Bernoulli::try_new(1.5, 1),
            Err(NetError::InvalidProbability { .. })
        ));
        assert!(matches!(
            GilbertElliott::try_with_rate(0.1, 0.5, 1),
            Err(NetError::InvalidBurstLength { .. })
        ));
        assert!(matches!(
            GilbertElliott::try_new(-0.1, 0.5, 1),
            Err(NetError::InvalidProbability { .. })
        ));
        assert!(GilbertElliott::try_with_rate(0.1, 4.0, 1).is_ok());
    }

    #[test]
    fn loss_state_restore_resumes_the_exact_stream() {
        let mut live = GilbertElliott::with_rate(0.1, 4.0, 123);
        for _ in 0..777 {
            live.lose();
        }
        let snap = live.state();
        assert_eq!(snap.draws, 777);

        // A fresh model restored from the snapshot continues identically.
        let mut resumed = GilbertElliott::with_rate(0.1, 4.0, 0);
        resumed.restore(snap).unwrap();
        assert_eq!(resumed.state(), snap);
        for _ in 0..500 {
            assert_eq!(live.lose(), resumed.lose());
        }

        let mut b_live = Bernoulli::new(0.2, 55);
        for _ in 0..300 {
            b_live.lose();
        }
        let mut b_resumed = Bernoulli::new(0.2, 1);
        b_resumed.restore(b_live.state()).unwrap();
        for _ in 0..500 {
            assert_eq!(b_live.lose(), b_resumed.lose());
        }
    }

    #[test]
    fn restore_refuses_a_forged_cursor() {
        let mut live = GilbertElliott::with_rate(0.1, 4.0, 123);
        for _ in 0..777 {
            live.lose();
        }
        let snap = live.state();
        let mut ge = GilbertElliott::with_rate(0.1, 4.0, 0);
        let flipped = LossState {
            bad: !snap.bad,
            ..snap
        };
        assert_eq!(
            ge.restore(flipped),
            Err(FrameError::bad_field("loss_bad", flipped.bad))
        );
        let long = LossState {
            draws: MAX_REPLAY_DRAWS + 1,
            ..snap
        };
        assert_eq!(
            ge.restore(long),
            Err(FrameError::bad_field("loss_draws", long.draws))
        );
        assert_eq!(
            Bernoulli::new(0.2, 1).restore(long),
            Err(FrameError::bad_field("loss_draws", long.draws))
        );
        // At the bound the cursor is replayed, not refused.
        let mut b = Bernoulli::new(0.2, 1);
        let at = LossState {
            draws: MAX_REPLAY_DRAWS,
            ..snap
        };
        assert_eq!(b.restore(at), Ok(()));
        assert_eq!(b.state().draws, MAX_REPLAY_DRAWS);
    }

    #[test]
    fn lose_at_defaults_to_time_free_process() {
        let mut a = Bernoulli::new(0.3, 5);
        let mut b = Bernoulli::new(0.3, 5);
        for i in 0..500u64 {
            assert_eq!(a.lose(), b.lose_at(SimTime::from_millis(i)));
        }
    }
}
