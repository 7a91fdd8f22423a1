//! Throughput and loss-rate prediction.
//!
//! §6: "We can predict the loss rate (e.g., using Exponential Weighted
//! Moving window Average (EWMA) or Holt Winters (HW)), and use the
//! predicted loss rate to estimate (i)." The same predictors serve
//! throughput.

/// A scalar time-series predictor.
pub trait Predictor {
    fn update(&mut self, sample: f64);
    fn predict(&self) -> f64;
    /// Discard all state.
    fn reset(&mut self);
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` is the weight of the newest sample (0 < alpha <= 1).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        Self { alpha, value: None }
    }

    /// Current smoothed value (`None` before the first sample) — exposed
    /// so session checkpoints can serialize predictor state exactly.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Restore the smoothed value captured by [`Ewma::value`].
    pub fn restore_value(&mut self, value: Option<f64>) {
        self.value = value;
    }
}

impl Predictor for Ewma {
    fn update(&mut self, sample: f64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
        });
    }

    fn predict(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    fn reset(&mut self) {
        self.value = None;
    }
}

/// Holt's linear (double-exponential) smoothing — the "Holt-Winters"
/// variant without seasonality, appropriate for throughput series with
/// trends (ramping into/out of coverage).
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
}

impl HoltWinters {
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        assert!(beta > 0.0 && beta <= 1.0);
        Self {
            alpha,
            beta,
            level: None,
            trend: 0.0,
        }
    }

    /// Current (level, trend) — exposed for session checkpoints.
    pub fn state(&self) -> (Option<f64>, f64) {
        (self.level, self.trend)
    }

    /// Restore the state captured by [`HoltWinters::state`].
    pub fn restore_state(&mut self, level: Option<f64>, trend: f64) {
        self.level = level;
        self.trend = trend;
    }
}

impl Predictor for HoltWinters {
    fn update(&mut self, sample: f64) {
        match self.level {
            None => {
                self.level = Some(sample);
                self.trend = 0.0;
            }
            Some(level) => {
                let new_level = self.alpha * sample + (1.0 - self.alpha) * (level + self.trend);
                self.trend = self.beta * (new_level - level) + (1.0 - self.beta) * self.trend;
                self.level = Some(new_level);
            }
        }
    }

    fn predict(&self) -> f64 {
        match self.level {
            None => 0.0,
            Some(level) => (level + self.trend).max(0.0),
        }
    }

    fn reset(&mut self) {
        self.level = None;
        self.trend = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.predict(), 0.0);
        e.update(10.0);
        assert_eq!(e.predict(), 10.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.25);
        for _ in 0..60 {
            e.update(5.0);
        }
        assert!((e.predict() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_level_shift_gradually() {
        let mut e = Ewma::new(0.3);
        for _ in 0..20 {
            e.update(1.0);
        }
        e.update(10.0);
        let after_one = e.predict();
        assert!(after_one > 1.0 && after_one < 10.0);
    }

    #[test]
    fn holt_winters_extrapolates_trend() {
        let mut hw = HoltWinters::new(0.5, 0.5);
        for i in 0..30 {
            hw.update(i as f64);
        }
        // Next value of the ramp is 30; HW should predict near it, EWMA lags.
        let mut ew = Ewma::new(0.5);
        for i in 0..30 {
            ew.update(i as f64);
        }
        assert!((hw.predict() - 30.0).abs() < 1.0, "hw {}", hw.predict());
        assert!(hw.predict() > ew.predict());
    }

    #[test]
    fn holt_winters_never_negative() {
        let mut hw = HoltWinters::new(0.8, 0.8);
        for v in [10.0, 5.0, 1.0, 0.2] {
            hw.update(v);
        }
        assert!(hw.predict() >= 0.0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut e = Ewma::new(0.5);
        e.update(3.0);
        e.reset();
        assert_eq!(e.predict(), 0.0);
        let mut hw = HoltWinters::new(0.5, 0.5);
        hw.update(3.0);
        hw.update(4.0);
        hw.reset();
        assert_eq!(hw.predict(), 0.0);
    }
}
