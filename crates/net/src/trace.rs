//! Network throughput/loss traces.
//!
//! The paper collects QUIC traces from real 3G/4G/5G/WiFi networks
//! (Table 2). This module generates synthetic trace populations whose
//! aggregate statistics match that table:
//!
//! | kind | count | avg dur (s) | avg tput (Mbps) | avg loss (%) |
//! |------|-------|-------------|------------------|--------------|
//! | 3G   | 45    | 322         | 7.5              | 0.9          |
//! | 4G   | 62    | 317         | 21.6             | 1.3          |
//! | 5G   | 53    | 302         | 36.4             | 1.6          |
//! | WiFi | 68    | 309         | 82.3             | 0.5          |
//!
//! Throughput evolves as a mean-reverting log-AR(1) process with
//! occasional deep fades; 5G gets the largest relative fluctuation (the
//! paper observes 5G has the most variation, Figure 13a, which is why it
//! benefits most from recovery). §8.3's evaluation downscales every trace
//! so its mean falls in the 1–2 Mbps range spanned by the bitrate ladder
//! — [`NetworkTrace::downscaled`] reproduces that.

use crate::clock::SimTime;
use nerve_rng::{Rng, StdRng};

/// The four network types the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    ThreeG,
    FourG,
    FiveG,
    WiFi,
}

impl NetworkKind {
    pub const ALL: [NetworkKind; 4] = [
        NetworkKind::ThreeG,
        NetworkKind::FourG,
        NetworkKind::FiveG,
        NetworkKind::WiFi,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            NetworkKind::ThreeG => "3G",
            NetworkKind::FourG => "4G",
            NetworkKind::FiveG => "5G",
            NetworkKind::WiFi => "WiFi",
        }
    }

    /// Table 2 population parameters:
    /// (trace count, mean duration s, mean throughput Mbps, mean loss rate).
    pub fn table2(self) -> (usize, f64, f64, f64) {
        match self {
            NetworkKind::ThreeG => (45, 322.0, 7.5, 0.009),
            NetworkKind::FourG => (62, 317.0, 21.6, 0.013),
            NetworkKind::FiveG => (53, 302.0, 36.4, 0.016),
            NetworkKind::WiFi => (68, 309.0, 82.3, 0.005),
        }
    }

    /// Relative throughput fluctuation (log-std of the AR process). 5G
    /// fluctuates the most, WiFi has high short-term variance from
    /// contention, 3G is comparatively steady-but-slow.
    fn volatility(self) -> f64 {
        match self {
            NetworkKind::ThreeG => 0.25,
            NetworkKind::FourG => 0.35,
            NetworkKind::FiveG => 0.55,
            NetworkKind::WiFi => 0.40,
        }
    }

    /// Deep-fade probability per second (handoffs, contention bursts).
    fn fade_prob(self) -> f64 {
        match self {
            NetworkKind::ThreeG => 0.010,
            NetworkKind::FourG => 0.015,
            NetworkKind::FiveG => 0.030,
            NetworkKind::WiFi => 0.020,
        }
    }

    /// Nominal round-trip time.
    pub fn rtt(self) -> SimTime {
        match self {
            NetworkKind::ThreeG => SimTime::from_millis(120),
            NetworkKind::FourG => SimTime::from_millis(60),
            NetworkKind::FiveG => SimTime::from_millis(40),
            NetworkKind::WiFi => SimTime::from_millis(20),
        }
    }

    /// Mean loss-burst length in packets (wireless losses are bursty).
    pub fn mean_burst(self) -> f64 {
        match self {
            NetworkKind::ThreeG => 4.0,
            NetworkKind::FourG => 4.0,
            NetworkKind::FiveG => 6.0,
            NetworkKind::WiFi => 3.0,
        }
    }
}

/// One network trace: per-second throughput samples plus loss parameters.
#[derive(Debug, Clone)]
pub struct NetworkTrace {
    pub kind: NetworkKind,
    /// Throughput in Mbps, one sample per second.
    pub mbps: Vec<f64>,
    /// Average packet loss rate of this trace.
    pub loss_rate: f64,
    /// Round-trip time.
    pub rtt: SimTime,
}

impl NetworkTrace {
    /// Duration in seconds.
    pub fn duration_secs(&self) -> usize {
        self.mbps.len()
    }

    /// Mean throughput in Mbps.
    pub fn mean_mbps(&self) -> f64 {
        if self.mbps.is_empty() {
            return 0.0;
        }
        self.mbps.iter().sum::<f64>() / self.mbps.len() as f64
    }

    /// Throughput at a given time (steps hold for one second; the trace
    /// loops if the session outlives it).
    pub fn mbps_at(&self, t: SimTime) -> f64 {
        if self.mbps.is_empty() {
            return 0.0;
        }
        let idx = (t.as_secs_f64() as usize) % self.mbps.len();
        self.mbps[idx]
    }

    /// Bytes per second at a given time.
    pub fn bytes_per_sec_at(&self, t: SimTime) -> f64 {
        self.mbps_at(t) * 1e6 / 8.0
    }

    /// §8.3 downscaling: linearly rescale so the mean throughput becomes
    /// `target_mean_mbps` (the paper targets 1–2 Mbps so the trace spans
    /// the bitrate ladder), with a small floor to avoid stalls-by-zero.
    pub fn downscaled(&self, target_mean_mbps: f64) -> NetworkTrace {
        assert!(target_mean_mbps > 0.0);
        let mean = self.mean_mbps().max(1e-9);
        let scale = target_mean_mbps / mean;
        NetworkTrace {
            kind: self.kind,
            mbps: self.mbps.iter().map(|v| (v * scale).max(0.05)).collect(),
            loss_rate: self.loss_rate,
            rtt: self.rtt,
        }
    }

    /// Bake a fault plan's *capacity* effects into a static trace: each
    /// second's throughput is scaled by the plan's mean capacity factor
    /// over that second (blackouts zero it, collapses scale it).
    ///
    /// This is the bridge for consumers that look only at the trace
    /// (ABR throughput predictors, plots) rather than the [`crate::link::Link`];
    /// the dynamic path — loss, delay, reorder, corruption — still comes
    /// from attaching the plan to the link itself.
    pub fn faulted(&self, plan: &crate::faults::FaultPlan) -> NetworkTrace {
        const SUBSTEPS: u64 = 10;
        let mbps = self
            .mbps
            .iter()
            .enumerate()
            .map(|(sec, &v)| {
                let mean_factor = (0..SUBSTEPS)
                    .map(|i| {
                        let t =
                            SimTime::from_micros(sec as u64 * 1_000_000 + i * 1_000_000 / SUBSTEPS);
                        plan.capacity_factor(t)
                    })
                    .sum::<f64>()
                    / SUBSTEPS as f64;
                v * mean_factor
            })
            .collect();
        NetworkTrace {
            kind: self.kind,
            mbps,
            loss_rate: self.loss_rate,
            rtt: self.rtt,
        }
    }

    /// Generate one trace. Distinct `seed`s give distinct traces.
    pub fn generate(kind: NetworkKind, seed: u64) -> NetworkTrace {
        let (_, mean_dur, mean_tput, mean_loss) = kind.table2();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0000);
        // Duration: +-15% around the population mean.
        let duration = (mean_dur * rng.random_range(0.85..1.15)) as usize;
        let sigma = kind.volatility();
        let rho = 0.92f64; // mean-reversion: throughput is sticky second-to-second
        let noise_std = sigma * (1.0 - rho * rho).sqrt();

        let mut x = 0.0f64; // log-deviation from mean
        let mut fade_left = 0usize;
        let mut mbps = Vec::with_capacity(duration);
        for _ in 0..duration {
            let z: f64 = {
                // Box–Muller
                let u1: f64 = rng.random_range(f64::EPSILON..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            x = rho * x + noise_std * z;
            let mut v = mean_tput * (x - sigma * sigma / 2.0).exp();
            if fade_left > 0 {
                fade_left -= 1;
                v *= 0.15; // deep fade (handoff / dead zone)
            } else if rng.random_range(0.0..1.0) < kind.fade_prob() {
                fade_left = rng.random_range(1..5usize);
                v *= 0.15;
            }
            mbps.push(v.max(0.05));
        }

        let loss_rate = (mean_loss * rng.random_range(0.6..1.4)).clamp(0.0, 0.2);
        NetworkTrace {
            kind,
            mbps,
            loss_rate,
            rtt: kind.rtt(),
        }
    }

    /// Generate the full Table 2 population for one network kind.
    pub fn population(kind: NetworkKind, base_seed: u64) -> Vec<NetworkTrace> {
        let (count, _, _, _) = kind.table2();
        (0..count)
            .map(|i| NetworkTrace::generate(kind, base_seed.wrapping_add(i as u64 * 7919)))
            .collect()
    }
}

/// Population statistics (for validating against Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationStats {
    pub count: usize,
    pub mean_duration_secs: f64,
    pub mean_mbps: f64,
    pub mean_loss_rate: f64,
}

/// Compute aggregate statistics over a trace population.
pub fn population_stats(traces: &[NetworkTrace]) -> PopulationStats {
    let count = traces.len();
    assert!(count > 0);
    PopulationStats {
        count,
        mean_duration_secs: traces.iter().map(|t| t.duration_secs() as f64).sum::<f64>()
            / count as f64,
        mean_mbps: traces.iter().map(|t| t.mean_mbps()).sum::<f64>() / count as f64,
        mean_loss_rate: traces.iter().map(|t| t.loss_rate).sum::<f64>() / count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populations_match_table2() {
        for &kind in &NetworkKind::ALL {
            let (count, dur, tput, loss) = kind.table2();
            let traces = NetworkTrace::population(kind, 1234);
            let stats = population_stats(&traces);
            assert_eq!(stats.count, count, "{kind:?} count");
            assert!(
                (stats.mean_duration_secs - dur).abs() / dur < 0.10,
                "{kind:?} duration {} vs {dur}",
                stats.mean_duration_secs
            );
            assert!(
                (stats.mean_mbps - tput).abs() / tput < 0.25,
                "{kind:?} tput {} vs {tput}",
                stats.mean_mbps
            );
            assert!(
                (stats.mean_loss_rate - loss).abs() / loss < 0.35,
                "{kind:?} loss {} vs {loss}",
                stats.mean_loss_rate
            );
        }
    }

    #[test]
    fn ordering_of_network_speeds_holds() {
        let means: Vec<f64> = NetworkKind::ALL
            .iter()
            .map(|&k| population_stats(&NetworkTrace::population(k, 7)).mean_mbps)
            .collect();
        assert!(means[0] < means[1] && means[1] < means[2] && means[2] < means[3]);
    }

    #[test]
    fn five_g_fluctuates_most_relatively() {
        let rel_std = |kind: NetworkKind| {
            let t = NetworkTrace::generate(kind, 42);
            let m = t.mean_mbps();
            let var = t.mbps.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / t.mbps.len() as f64;
            var.sqrt() / m
        };
        let five_g = rel_std(NetworkKind::FiveG);
        for kind in [NetworkKind::ThreeG, NetworkKind::FourG, NetworkKind::WiFi] {
            assert!(
                five_g > rel_std(kind) * 0.95,
                "5G rel-std {five_g} should top {kind:?} {}",
                rel_std(kind)
            );
        }
    }

    #[test]
    fn downscaling_hits_target_mean_and_keeps_shape() {
        let t = NetworkTrace::generate(NetworkKind::WiFi, 3);
        let d = t.downscaled(1.5);
        assert!((d.mean_mbps() - 1.5).abs() < 0.1, "mean {}", d.mean_mbps());
        // Relative ordering of samples is preserved.
        let up_orig = t.mbps[1] > t.mbps[0];
        let up_down = d.mbps[1] > d.mbps[0];
        assert_eq!(up_orig, up_down);
        assert_eq!(d.loss_rate, t.loss_rate);
    }

    #[test]
    fn trace_lookup_steps_and_loops() {
        let t = NetworkTrace {
            kind: NetworkKind::WiFi,
            mbps: vec![1.0, 2.0, 3.0],
            loss_rate: 0.0,
            rtt: SimTime::from_millis(20),
        };
        assert_eq!(t.mbps_at(SimTime::from_secs_f64(0.5)), 1.0);
        assert_eq!(t.mbps_at(SimTime::from_secs_f64(1.5)), 2.0);
        assert_eq!(t.mbps_at(SimTime::from_secs_f64(3.5)), 1.0); // loops
        assert!((t.bytes_per_sec_at(SimTime::ZERO) - 125_000.0).abs() < 1e-6);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = NetworkTrace::generate(NetworkKind::FourG, 5);
        let b = NetworkTrace::generate(NetworkKind::FourG, 5);
        assert_eq!(a.mbps, b.mbps);
        let c = NetworkTrace::generate(NetworkKind::FourG, 6);
        assert_ne!(a.mbps, c.mbps);
    }

    #[test]
    fn throughput_stays_positive() {
        for &kind in &NetworkKind::ALL {
            let t = NetworkTrace::generate(kind, 9);
            assert!(t.mbps.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn faulted_trace_bakes_in_blackouts_and_collapse() {
        use crate::faults::FaultPlan;
        let t = NetworkTrace {
            kind: NetworkKind::WiFi,
            mbps: vec![10.0; 10],
            loss_rate: 0.0,
            rtt: SimTime::from_millis(20),
        };
        let plan = FaultPlan::new(1)
            .blackout(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(2.0))
            .throughput_collapse(
                SimTime::from_secs_f64(6.0),
                SimTime::from_secs_f64(2.0),
                0.5,
            );
        let f = t.faulted(&plan);
        assert_eq!(f.mbps[0], 10.0);
        assert_eq!(f.mbps[2], 0.0);
        assert_eq!(f.mbps[3], 0.0);
        assert_eq!(f.mbps[4], 10.0);
        assert!((f.mbps[6] - 5.0).abs() < 1e-9);
        assert_eq!(f.mbps[9], 10.0);
        assert_eq!(f.loss_rate, t.loss_rate);
    }
}
