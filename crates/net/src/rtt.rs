//! RFC 6298 round-trip time estimation.
//!
//! Used by both the TCP-like point-code channel (retransmission timeout)
//! and the QUIC-like media channel (probe timeout, PTO). The constants
//! are the RFC's: `alpha = 1/8`, `beta = 1/4`, `RTO = SRTT + 4*RTTVAR`,
//! with a 1 s lower bound relaxed to 200 ms as modern stacks do.

use crate::clock::SimTime;

/// Smoothed RTT estimator with RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    /// Minimum RTO, microseconds.
    min_rto_us: f64,
}

impl RttEstimator {
    pub fn new() -> Self {
        Self {
            srtt: None,
            rttvar: 0.0,
            min_rto_us: 200_000.0, // 200 ms
        }
    }

    /// Record one RTT sample.
    pub fn observe(&mut self, sample: SimTime) {
        let r = sample.as_micros() as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                const ALPHA: f64 = 1.0 / 8.0;
                const BETA: f64 = 1.0 / 4.0;
                self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (srtt - r).abs();
                self.srtt = Some((1.0 - ALPHA) * srtt + ALPHA * r);
            }
        }
    }

    /// Current smoothed RTT (None before the first sample).
    pub fn srtt(&self) -> Option<SimTime> {
        self.srtt.map(|v| SimTime(v as u64))
    }

    /// Retransmission timeout.
    pub fn rto(&self) -> SimTime {
        match self.srtt {
            None => SimTime::from_millis(1000), // RFC 6298 initial RTO
            Some(srtt) => SimTime(((srtt + 4.0 * self.rttvar).max(self.min_rto_us)) as u64),
        }
    }

    /// Current smoothing state (for checkpoints).
    pub fn state(&self) -> RttState {
        RttState {
            srtt: self.srtt,
            rttvar: self.rttvar,
        }
    }

    /// Restore a captured smoothing state.
    pub fn restore(&mut self, state: RttState) {
        self.srtt = state.srtt;
        self.rttvar = state.rttvar;
    }
}

/// Replayable estimator state: exact float values, so a restored
/// estimator computes bit-identical RTOs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RttState {
    pub srtt: Option<f64>,
    pub rttvar: f64,
}

crate::wire_record!(RttState { srtt, rttvar });

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_one_second() {
        let est = RttEstimator::new();
        assert_eq!(est.rto(), SimTime::from_millis(1000));
        assert!(est.srtt().is_none());
    }

    #[test]
    fn first_sample_initializes_srtt() {
        let mut est = RttEstimator::new();
        est.observe(SimTime::from_millis(100));
        assert_eq!(est.srtt(), Some(SimTime::from_millis(100)));
        // RTO = srtt + 4 * (srtt/2) = 3 * srtt = 300 ms.
        assert_eq!(est.rto(), SimTime::from_millis(300));
    }

    #[test]
    fn smoothed_rtt_converges_to_steady_value() {
        let mut est = RttEstimator::new();
        for _ in 0..100 {
            est.observe(SimTime::from_millis(50));
        }
        let srtt = est.srtt().unwrap().as_millis_f64();
        assert!((srtt - 50.0).abs() < 1.0, "srtt {srtt}");
        // Variance collapses, RTO approaches the floor.
        assert!(est.rto().as_millis_f64() <= 210.0);
    }

    #[test]
    fn jittery_samples_raise_rto() {
        let mut steady = RttEstimator::new();
        let mut jittery = RttEstimator::new();
        for i in 0..50 {
            steady.observe(SimTime::from_millis(100));
            jittery.observe(SimTime::from_millis(if i % 2 == 0 { 40 } else { 160 }));
        }
        assert!(jittery.rto() > steady.rto());
    }

    #[test]
    fn rto_respects_floor() {
        let mut est = RttEstimator::new();
        for _ in 0..20 {
            est.observe(SimTime::from_millis(5));
        }
        assert!(est.rto() >= SimTime::from_millis(200));
    }
}
