//! Integration: the calibrated streaming stack across all network kinds.

use nerve::abr::qoe::QualityMaps;
use nerve::net::trace::{NetworkKind, NetworkTrace};
use nerve::sim::session::{Scheme, SessionConfig, SessionRunner};

fn maps() -> QualityMaps {
    QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400])
}

fn run(kind: NetworkKind, scheme: Scheme, seed: u64) -> f64 {
    let trace = NetworkTrace::generate(kind, seed).downscaled(1.5);
    let mut cfg = SessionConfig::new(trace, maps(), scheme);
    cfg.chunks = 15;
    cfg.seed = seed;
    SessionRunner::new(cfg).run(None).qoe
}

#[test]
fn nerve_beats_baseline_on_every_network_kind() {
    for kind in NetworkKind::ALL {
        let mut ours = 0.0;
        let mut base = 0.0;
        for seed in 1..=3 {
            ours += run(kind, Scheme::nerve(), seed);
            base += run(kind, Scheme::without_recovery(), seed);
        }
        assert!(
            ours > base,
            "{}: NERVE {ours:.3} must beat baseline {base:.3}",
            kind.label()
        );
    }
}

#[test]
fn five_g_gains_most_from_recovery() {
    // Figure 12's third observation: 5G, with the largest throughput
    // fluctuation, benefits most from recovery (relative gain).
    let gain = |kind: NetworkKind| {
        let mut ours = 0.0;
        let mut base = 0.0;
        for seed in 1..=4 {
            ours += run(kind, Scheme::recovery_aware(), seed);
            base += run(kind, Scheme::without_recovery(), seed);
        }
        ours - base
    };
    let g5 = gain(NetworkKind::FiveG);
    let g3 = gain(NetworkKind::ThreeG);
    assert!(
        g5 > g3,
        "5G gain {g5:.3} should exceed 3G gain {g3:.3} (Figure 12)"
    );
}

#[test]
fn sessions_are_reproducible() {
    let a = run(NetworkKind::WiFi, Scheme::nerve(), 5);
    let b = run(NetworkKind::WiFi, Scheme::nerve(), 5);
    assert_eq!(a.to_bits(), b.to_bits());
}
