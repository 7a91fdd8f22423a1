//! Named chaos scenarios for the soak harness (and ad-hoc robustness
//! experiments).
//!
//! Each scenario is one [`FaultPlan`] — a hostile-network episode layered
//! on top of whatever the trace and the Gilbert–Elliott process already
//! do. The scenarios are *data*: the same plan drives the media link, the
//! media loss process, and the point-code channel, so one description
//! exercises the whole stack coherently (a blackout takes out both
//! transports at the same instant; a corruption window hits exactly the
//! payloads that survive delivery).
//!
//! Fault windows are placed a few seconds into the session so the ABR has
//! real history when the episode hits, which is the interesting regime:
//! steady state → fault → degrade → recover.

use crate::session::{Scheme, SessionConfig, SessionResult, SessionRunner};
use crate::sweep;
use nerve_abr::qoe::QualityMaps;
use nerve_net::clock::SimTime;
use nerve_net::faults::FaultPlan;
use nerve_net::trace::{NetworkKind, NetworkTrace};
use nerve_obs::Obs;

/// Canned hostile-network episodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosScenario {
    /// No injected faults — the control arm every other scenario is
    /// compared against.
    Clean,
    /// One 2 s total outage (a handoff dead zone).
    Blackout,
    /// Four rapid off/on cycles (a flapping link).
    LinkFlaps,
    /// A 3 s window of +250 ms one-way delay (bufferbloat upstream).
    DelaySpike,
    /// A 4 s window of up to 120 ms random per-packet jitter plus
    /// reordering (contention).
    JitterStorm,
    /// Capacity cut to 15% for 5 s (congested cell edge).
    Collapse,
    /// 30% of delivered payloads corrupted for 4 s; one in five beats the
    /// transport checksum and must be caught downstream.
    CodeCorruption,
    /// A 3 s bearer death mid-stream. With reconnect armed the session
    /// tears down, reconnects, and resumes from its checkpoint; without
    /// it this is an ordinary blackout.
    Disconnect,
    /// The acceptance scenario: a 2 s blackout, then a delay spike, with
    /// corruption (some residual) overlapping both.
    KitchenSink,
}

impl ChaosScenario {
    pub const ALL: [ChaosScenario; 9] = [
        ChaosScenario::Clean,
        ChaosScenario::Blackout,
        ChaosScenario::LinkFlaps,
        ChaosScenario::DelaySpike,
        ChaosScenario::JitterStorm,
        ChaosScenario::Collapse,
        ChaosScenario::CodeCorruption,
        ChaosScenario::Disconnect,
        ChaosScenario::KitchenSink,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            ChaosScenario::Clean => "clean",
            ChaosScenario::Blackout => "blackout",
            ChaosScenario::LinkFlaps => "link-flaps",
            ChaosScenario::DelaySpike => "delay-spike",
            ChaosScenario::JitterStorm => "jitter-storm",
            ChaosScenario::Collapse => "collapse",
            ChaosScenario::CodeCorruption => "code-corruption",
            ChaosScenario::Disconnect => "disconnect",
            ChaosScenario::KitchenSink => "kitchen-sink",
        }
    }

    /// The scenario's fault plan, with per-packet draws derived from
    /// `seed`.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let s = SimTime::from_secs_f64;
        let base = FaultPlan::new(seed);
        match self {
            ChaosScenario::Clean => base,
            ChaosScenario::Blackout => base.blackout(s(6.0), s(2.0)),
            ChaosScenario::LinkFlaps => base.flaps(s(6.0), s(0.4), s(0.8), 4),
            ChaosScenario::DelaySpike => {
                base.delay_spike(s(6.0), s(3.0), SimTime::from_millis(250))
            }
            ChaosScenario::JitterStorm => base
                .jitter_burst(s(6.0), s(4.0), SimTime::from_millis(120))
                .reorder(s(6.0), s(4.0), 0.15, SimTime::from_millis(60)),
            ChaosScenario::Collapse => base.throughput_collapse(s(6.0), s(5.0), 0.15),
            ChaosScenario::CodeCorruption => base
                .corrupt(s(6.0), s(4.0), 0.3)
                .with_residual_corrupt_rate(0.2),
            ChaosScenario::Disconnect => base.disconnect(s(8.0), s(3.0)),
            ChaosScenario::KitchenSink => base
                .blackout(s(6.0), s(2.0))
                .delay_spike(s(9.0), s(2.0), SimTime::from_millis(200))
                .corrupt(s(6.0), s(5.0), 0.2)
                .with_residual_corrupt_rate(0.2),
        }
    }

    /// Total injected outage time — the bound the soak asserts stalls
    /// against.
    pub fn blackout_secs(&self, seed: u64) -> f64 {
        self.plan(seed).total_blackout().as_secs_f64()
    }
}

/// Run one scheme through one chaos scenario on one network kind.
///
/// Uses the same downscaled-trace setup as the session tests so a
/// faultless `Clean` run matches their regime, and seeds the fault plan
/// independently of the loss processes. With an observability plane
/// attached, chunk spans and reconnect events go to the recorder and the
/// session's metrics land in `obs.registry` — counters accumulate, so
/// several runs can share one plane. Purely passive: the result is
/// bit-identical with or without it.
pub fn run_chaos(
    scenario: ChaosScenario,
    kind: NetworkKind,
    scheme: Scheme,
    seed: u64,
    chunks: usize,
    obs: Option<&mut Obs>,
) -> SessionResult {
    SessionRunner::new(chaos_config(scenario, kind, scheme, seed, chunks)).run(obs)
}

/// The session configuration [`run_chaos`] builds: the same
/// downscaled-trace setup as the session tests plus the scenario's fault
/// plan, seeded independently of the loss processes.
pub fn chaos_config(
    scenario: ChaosScenario,
    kind: NetworkKind,
    scheme: Scheme,
    seed: u64,
    chunks: usize,
) -> SessionConfig {
    let trace = NetworkTrace::generate(kind, seed).downscaled(1.5);
    let maps = QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400]);
    let mut cfg = SessionConfig::new(trace, maps, scheme);
    cfg.chunks = chunks;
    cfg.seed = seed;
    cfg.faults = scenario.plan(seed ^ 0xFA17);
    cfg
}

/// [`run_chaos`] with the crash plane armed: outages past the blackout
/// threshold tear the session down and resume it from a serialized
/// checkpoint instead of merely starving the link.
pub fn run_chaos_with_reconnect(
    scenario: ChaosScenario,
    kind: NetworkKind,
    scheme: Scheme,
    seed: u64,
    chunks: usize,
) -> SessionResult {
    SessionRunner::new(chaos_config(scenario, kind, scheme, seed, chunks).with_reconnect())
        .run(None)
}

/// The full scenario × network matrix for one scheme, fanned across the
/// sweep pool. Results come back in row-major [`sweep::grid`] order
/// (scenario-major, network-minor), each paired with its coordinates —
/// exactly the order the serial nested loop would visit, so soak
/// summaries built from it are bit-identical at any worker count.
pub fn run_chaos_matrix(
    scheme: &Scheme,
    seed: u64,
    chunks: usize,
) -> Vec<(ChaosScenario, NetworkKind, SessionResult)> {
    let cells = sweep::grid(&ChaosScenario::ALL, &NetworkKind::ALL);
    let results = sweep::map(&cells, |_, &(sc, kind)| {
        run_chaos(sc, kind, scheme.clone(), seed, chunks, None)
    });
    cells
        .into_iter()
        .zip(results)
        .map(|((sc, kind), r)| (sc, kind, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_a_valid_plan() {
        for sc in ChaosScenario::ALL {
            let plan = sc.plan(3);
            plan.validate()
                .unwrap_or_else(|e| panic!("{}: {e:?}", sc.label()));
            assert_eq!(
                plan.is_empty(),
                sc == ChaosScenario::Clean,
                "{}",
                sc.label()
            );
        }
    }

    #[test]
    fn kitchen_sink_includes_the_acceptance_ingredients() {
        let plan = ChaosScenario::KitchenSink.plan(1);
        assert!((ChaosScenario::KitchenSink.blackout_secs(1) - 2.0).abs() < 1e-9);
        // Corruption actually fires somewhere in its window.
        let hits = (0..1000u64)
            .filter(|i| plan.corrupt_at(SimTime::from_secs_f64(6.0 + *i as f64 * 0.004), *i))
            .count();
        assert!(hits > 0, "corruption never fired");
    }

    #[test]
    fn scenario_run_is_deterministic() {
        let a = run_chaos(
            ChaosScenario::Blackout,
            NetworkKind::WiFi,
            Scheme::nerve(),
            5,
            6,
            None,
        );
        let b = run_chaos(
            ChaosScenario::Blackout,
            NetworkKind::WiFi,
            Scheme::nerve(),
            5,
            6,
            None,
        );
        assert_eq!(a.qoe.to_bits(), b.qoe.to_bits());
        assert_eq!(a.degradation, b.degradation);
    }
}
