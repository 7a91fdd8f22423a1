//! Adaptive jitter buffer for live-mode playout.
//!
//! Live streaming has no chunk buffer to hide network variance behind:
//! every frame is due `playout_delay` after its capture, and the only
//! lever against delay variance is that one number. The buffer tracks
//! the RFC 3550 interarrival-jitter estimate — an EWMA of the transit
//! time's first difference, `J += (|D| - J) / 16` — and sets
//!
//! ```text
//! playout_delay = clamp(base + gain * J, min, max)
//! ```
//!
//! so a jittery path buys itself headroom (frames arrive in time more
//! often) at the cost of glass-to-glass latency, and a calm path shrinks
//! back toward `base`. The budget the per-frame repair policy
//! (`nerve-core`'s live module) works against is exactly this playout
//! deadline: a larger delay makes a NACK round trip affordable, a
//! smaller one forces concealment.
//!
//! Everything here is a pure fold over arrival times — no clock, no
//! randomness — so the buffer state serializes as three numbers
//! ([`JitterState`]) and a resumed session continues the EWMA exactly
//! where the killed one left off.

/// Jitter-buffer tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterConfig {
    /// Playout delay floor: the delay of a perfectly calm path, seconds.
    pub base_delay_secs: f64,
    /// Multiplier on the jitter estimate (RTP stacks commonly use ~4:
    /// covering four standard-deviations-ish of interarrival variance).
    pub gain: f64,
    /// Hard floor for the playout delay, seconds.
    pub min_delay_secs: f64,
    /// Hard ceiling for the playout delay, seconds — the latency budget
    /// the application refuses to exceed for interactivity.
    pub max_delay_secs: f64,
}

impl Default for JitterConfig {
    fn default() -> Self {
        Self {
            base_delay_secs: 0.10,
            gain: 4.0,
            min_delay_secs: 0.06,
            max_delay_secs: 0.40,
        }
    }
}

/// Serializable position of a jitter buffer (checkpoint payload).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JitterState {
    /// The RFC 3550 interarrival-jitter EWMA, seconds.
    pub jitter_secs: f64,
    /// Transit time (arrival − capture) of the last arrival, seconds.
    pub last_transit_secs: Option<f64>,
    /// Current playout delay, seconds.
    pub playout_delay_secs: f64,
}

crate::wire_record!(JitterState {
    jitter_secs,
    last_transit_secs,
    playout_delay_secs
});

/// The adaptive jitter buffer.
#[derive(Debug, Clone)]
pub struct JitterBuffer {
    config: JitterConfig,
    jitter_secs: f64,
    last_transit_secs: Option<f64>,
    playout_delay_secs: f64,
}

impl JitterBuffer {
    pub fn new(config: JitterConfig) -> Self {
        Self {
            config,
            jitter_secs: 0.0,
            last_transit_secs: None,
            playout_delay_secs: config
                .base_delay_secs
                .clamp(config.min_delay_secs, config.max_delay_secs),
        }
    }

    pub fn config(&self) -> &JitterConfig {
        &self.config
    }

    /// The current playout delay, seconds.
    pub fn playout_delay_secs(&self) -> f64 {
        self.playout_delay_secs
    }

    /// The current interarrival-jitter estimate, seconds.
    pub fn jitter_secs(&self) -> f64 {
        self.jitter_secs
    }

    /// The absolute playout deadline for a frame captured at
    /// `capture_secs`, under the *current* delay (the schedule is fixed
    /// when the frame is due, not retroactively re-fit).
    pub fn deadline_secs(&self, capture_secs: f64) -> f64 {
        capture_secs + self.playout_delay_secs
    }

    /// Fold one arrival into the estimate: RFC 3550 §6.4.1,
    /// `D = transit_i - transit_{i-1}`, `J += (|D| - J) / 16`, then
    /// re-derive the clamped playout delay. Lost frames never reach this
    /// method — loss is the repair policy's problem, not the buffer's.
    pub fn on_arrival(&mut self, capture_secs: f64, arrival_secs: f64) {
        let transit = arrival_secs - capture_secs;
        if let Some(prev) = self.last_transit_secs {
            let d = (transit - prev).abs();
            self.jitter_secs += (d - self.jitter_secs) / 16.0;
        }
        self.last_transit_secs = Some(transit);
        self.playout_delay_secs = (self.config.base_delay_secs
            + self.config.gain * self.jitter_secs)
            .clamp(self.config.min_delay_secs, self.config.max_delay_secs);
    }

    /// Snapshot for the checkpoint plane.
    pub fn state(&self) -> JitterState {
        JitterState {
            jitter_secs: self.jitter_secs,
            last_transit_secs: self.last_transit_secs,
            playout_delay_secs: self.playout_delay_secs,
        }
    }

    /// Restore a snapshot (the config travels with the resuming caller).
    pub fn restore(&mut self, state: JitterState) {
        self.jitter_secs = state.jitter_secs;
        self.last_transit_secs = state.last_transit_secs;
        self.playout_delay_secs = state.playout_delay_secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_path_stays_at_base_delay() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        for k in 0..100 {
            let t = k as f64 * 0.04;
            jb.on_arrival(t, t + 0.030); // constant transit: zero jitter
        }
        assert!(jb.jitter_secs() < 1e-12);
        assert_eq!(jb.playout_delay_secs(), 0.10);
    }

    #[test]
    fn jittery_path_grows_the_delay_and_clamps_at_max() {
        let cfg = JitterConfig::default();
        let mut jb = JitterBuffer::new(cfg);
        for k in 0..200 {
            let t = k as f64 * 0.04;
            // Transit alternates 30 ms / 130 ms: 100 ms of swing.
            let transit = if k % 2 == 0 { 0.030 } else { 0.130 };
            jb.on_arrival(t, t + transit);
        }
        assert!(jb.jitter_secs() > 0.05, "jitter {}", jb.jitter_secs());
        assert_eq!(
            jb.playout_delay_secs(),
            cfg.max_delay_secs,
            "large sustained jitter must saturate the latency budget"
        );
    }

    #[test]
    fn delay_shrinks_back_when_the_path_calms() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        for k in 0..50 {
            let t = k as f64 * 0.04;
            let transit = if k % 2 == 0 { 0.030 } else { 0.110 };
            jb.on_arrival(t, t + transit);
        }
        let noisy = jb.playout_delay_secs();
        for k in 50..400 {
            let t = k as f64 * 0.04;
            jb.on_arrival(t, t + 0.030);
        }
        assert!(
            jb.playout_delay_secs() < noisy,
            "{} should shrink below {noisy}",
            jb.playout_delay_secs()
        );
        assert!(jb.playout_delay_secs() >= jb.config().min_delay_secs);
    }

    #[test]
    fn deadline_tracks_the_current_delay() {
        let jb = JitterBuffer::new(JitterConfig::default());
        assert_eq!(jb.deadline_secs(2.0), 2.0 + jb.playout_delay_secs());
    }

    #[test]
    fn state_round_trips_and_resumes_the_ewma_exactly() {
        let cfg = JitterConfig::default();
        let arrivals: Vec<(f64, f64)> = (0..60)
            .map(|k| {
                let t = k as f64 * 0.04;
                let transit = 0.030 + if k % 3 == 0 { 0.050 } else { 0.0 };
                (t, t + transit)
            })
            .collect();

        // Uninterrupted reference.
        let mut whole = JitterBuffer::new(cfg);
        for &(c, a) in &arrivals {
            whole.on_arrival(c, a);
        }

        // Kill after 25 arrivals, restore in a fresh buffer, replay the rest.
        let mut pre = JitterBuffer::new(cfg);
        for &(c, a) in &arrivals[..25] {
            pre.on_arrival(c, a);
        }
        let snap = pre.state();
        let mut post = JitterBuffer::new(cfg);
        post.restore(snap);
        for &(c, a) in &arrivals[25..] {
            post.on_arrival(c, a);
        }
        assert_eq!(post.state(), whole.state());
        // The float fields match bit-for-bit, not just approximately.
        assert_eq!(
            post.playout_delay_secs().to_bits(),
            whole.playout_delay_secs().to_bits()
        );
    }
}
