//! Playback bounds of the streaming session, checked chunk by chunk.
//!
//! Every scheme an experiment scores streams over every network kind,
//! on traces whose mean rate and loss are drawn per case: slow enough
//! to stall, fast enough to reach the buffer cap. After each chunk the
//! session must hold two invariants of the chunk-level playback model:
//!
//! * `buffer_in_bounds` — the buffer is in `[0, MAX_BUFFER_SECS]`;
//! * `rebuffer_non_negative` — no chunk record charges negative stall.
//!
//! Every violation is collected under its invariant's name, so one run
//! reports all of them. The same bounds on the fleet server's model are
//! checked in `nerve-serve`'s `server` tests.

use nerve::abr::qoe::QualityMaps;
use nerve::core::DegradationLadder;
use nerve::net::trace::{NetworkKind, NetworkTrace};
use nerve::sim::session::{Scheme, SessionConfig, SessionRunner, MAX_BUFFER_SECS};
use nerve_rng::{check_cases, Rng};

const CASES: u64 = 4;
const CHUNKS: usize = 16;

/// The schemes the QoE experiments score (`experiments/qoe.rs`).
fn scored_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("nerve", Scheme::nerve()),
        ("w/o RC", Scheme::without_recovery()),
        (
            "w/o RC (reuse)",
            Scheme::without_recovery().with_ladder(DegradationLadder::reuse_only()),
        ),
        ("RC alone", Scheme::recovery_alone()),
        ("RC-aware", Scheme::recovery_aware()),
        ("w/o SR", Scheme::without_sr()),
        ("SR alone", Scheme::sr_alone()),
        ("SR-aware", Scheme::sr_aware()),
        ("NEMO", Scheme::nemo_baseline()),
    ]
}

#[test]
fn session_playback_stays_in_bounds() {
    let maps = QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400]);
    check_cases("session_playback_stays_in_bounds", CASES, |rng| {
        let seed = rng.random_range(0..1_000_000u64);
        let mean_mbps = rng.random_range(0.3f64..15.0);
        let loss = rng.random_range(0.0f64..0.08);
        let mut violations = Vec::new();
        for kind in NetworkKind::ALL {
            for (name, scheme) in scored_schemes() {
                let mut trace = NetworkTrace::generate(kind, seed).downscaled(mean_mbps);
                trace.loss_rate = loss;
                let mut cfg = SessionConfig::new(trace, maps.clone(), scheme);
                cfg.chunks = CHUNKS;
                cfg.seed = seed;
                let mut runner = SessionRunner::new(cfg);
                let mut seen = 0;
                while !runner.is_done() {
                    runner.step(None);
                    let cp = runner.checkpoint();
                    let at = format!(
                        "{} {name} seed {seed} {mean_mbps:.2} Mbps chunk {}",
                        kind.label(),
                        cp.chunk_index
                    );
                    if !(0.0..=MAX_BUFFER_SECS).contains(&cp.buffer_secs) {
                        violations.push(format!(
                            "buffer_in_bounds: {at}: buffer {} s",
                            cp.buffer_secs
                        ));
                    }
                    for r in &cp.records[seen..] {
                        // A NaN is outside the range too.
                        if !(0.0..).contains(&r.rebuffer_secs) {
                            violations.push(format!(
                                "rebuffer_non_negative: {at}: rebuffer {} s",
                                r.rebuffer_secs
                            ));
                        }
                    }
                    seen = cp.records.len();
                }
            }
        }
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    });
}
