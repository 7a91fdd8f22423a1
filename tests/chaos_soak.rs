//! Chaos soak: full streaming sessions under injected fault scenarios.
//!
//! The fast tests run the acceptance scenario (kitchen sink: 2 s
//! blackout + delay spike + point-code corruption) across every network
//! kind and assert survival properties — termination, finite QoE,
//! bounded stalls, graceful point-code fallback. The `#[ignore]`d soak
//! runs the full scenario × network matrix and the NERVE-vs-baseline
//! aggregate; it is wired into CI as a separate non-blocking job.

use nerve_net::clock::SimTime;
use nerve_net::link::Link;
use nerve_net::loss::Bernoulli;
use nerve_net::reliable::ReliableChannel;
use nerve_net::trace::{NetworkKind, NetworkTrace};
use nerve_obs::Obs;
use nerve_sim::scenarios::{run_chaos, run_chaos_matrix, run_chaos_with_reconnect, ChaosScenario};
use nerve_sim::session::{Scheme, SessionRunner};

const CHUNKS: usize = 12;

/// One retransmission timeout's worth of slack on top of the injected
/// outage: RFC 6298 initial RTO is 1 s, and the sender can be mid-RTO
/// when the blackout opens. The remaining margin absorbs the transfer
/// displaced by the outage (the bytes that would have flowed during the
/// blackout still have to cross the link afterwards).
const RTO_SLACK_SECS: f64 = 1.0;

#[test]
fn kitchen_sink_survives_on_every_network_kind() {
    // One metrics plane for the whole matrix: per-run counters
    // accumulate, so the code-channel health of the entire soak is read
    // from a single snapshot at the end.
    let mut obs = Obs::metrics_only();
    let mut runs = 0u64;
    for kind in NetworkKind::ALL {
        for seed in [1u64, 7] {
            let clean = run_chaos(
                ChaosScenario::Clean,
                kind,
                Scheme::nerve(),
                seed,
                CHUNKS,
                None,
            );
            let chaos = run_chaos(
                ChaosScenario::KitchenSink,
                kind,
                Scheme::nerve(),
                seed,
                CHUNKS,
                Some(&mut obs),
            );
            runs += 1;
            let label = format!("{} seed {seed}", kind.label());

            // Termination with the requested shape, finite QoE.
            assert_eq!(chaos.chunks.len(), CHUNKS, "{label}");
            assert!(chaos.qoe.is_finite(), "{label}: QoE {}", chaos.qoe);
            assert!(
                chaos.total_rebuffer_secs.is_finite() && chaos.total_rebuffer_secs >= 0.0,
                "{label}: rebuffer {}",
                chaos.total_rebuffer_secs
            );

            // Stall time may grow by at most the injected outage plus one
            // RTO, plus the displaced-transfer slack: the degradation
            // ladder converts everything else into quality loss.
            let outage = ChaosScenario::KitchenSink.blackout_secs(seed ^ 0xFA17);
            let budget = clean.total_rebuffer_secs + outage + RTO_SLACK_SECS + outage;
            assert!(
                chaos.total_rebuffer_secs <= budget,
                "{label}: chaos rebuffer {:.2}s exceeds clean {:.2}s + bounded outage {:.2}s",
                chaos.total_rebuffer_secs,
                clean.total_rebuffer_secs,
                budget - clean.total_rebuffer_secs,
            );
        }
    }
    // The fault plan actually bit somewhere: across the matrix the code
    // channel recorded expiries or corrupted deliveries. Per-run counts
    // can legitimately be zero (on a slow kind the fault windows may not
    // line up with any code's flight), and frame-level degradation is
    // NOT compared against clean — under chaos the ABR drops to cheaper
    // rungs, which can mean *fewer* late frames.
    let snap = obs.registry.snapshot();
    let code_hits = snap.counter("code.expired").unwrap_or(0)
        + snap.counter("code.corrupted").unwrap_or(0)
        + snap.counter("code.crc_detected").unwrap_or(0);
    assert!(
        code_hits > 0,
        "kitchen sink never touched the code channel on any network kind"
    );
    // The registry saw every run: chunk and message accounting covers
    // the full matrix.
    assert_eq!(
        snap.counter("session.chunks"),
        Some(runs * CHUNKS as u64),
        "every chaos chunk must land in the registry"
    );
    assert!(
        snap.counter("code.messages").unwrap_or(0) >= runs,
        "the code channel must carry traffic in every run"
    );
}

/// The crash plane under soak: a 3 s mid-stream bearer death with a
/// reconnect policy armed tears the session down and resumes it from a
/// serialized checkpoint. The run must complete with the requested
/// shape, actually reconnect on every network kind, and be
/// digest-stable across repeats (the resumed epochs reseed from a pure
/// function of `(seed, epoch)`, so nothing leaks from the torn-down
/// process into the resumed one).
#[test]
fn disconnect_soak_reconnects_and_is_digest_stable() {
    for kind in NetworkKind::ALL {
        for seed in [2u64, 9] {
            let run = || {
                run_chaos_with_reconnect(
                    ChaosScenario::Disconnect,
                    kind,
                    Scheme::nerve(),
                    seed,
                    CHUNKS,
                )
            };
            // One arm runs with the metrics plane attached — the
            // reconnect accounting is asserted from the registry, and
            // digest equality with the untraced arm proves the plane
            // never perturbs the session.
            let mut obs = Obs::metrics_only();
            let mut cfg = nerve_sim::scenarios::chaos_config(
                ChaosScenario::Disconnect,
                kind,
                Scheme::nerve(),
                seed,
                CHUNKS,
            );
            cfg.reconnect = true;
            let a = SessionRunner::new(cfg).run(Some(&mut obs));
            let b = run();
            let label = format!("{} seed {seed}", kind.label());

            let snap = obs.registry.snapshot();
            assert_eq!(a.chunks.len(), CHUNKS, "{label}");
            assert_eq!(
                snap.counter("session.chunks"),
                Some(CHUNKS as u64),
                "{label}"
            );
            assert!(a.qoe.is_finite(), "{label}: QoE {}", a.qoe);
            assert!(
                snap.counter("session.reconnects").unwrap_or(0) >= 1,
                "{label}: a 3 s bearer death past the 1.5 s threshold must reconnect"
            );
            assert!(
                snap.gauge("session.downtime_secs").unwrap_or(0.0) > 0.0,
                "{label}: reconnects must account downtime"
            );
            assert_eq!(
                a.invariant_digest(),
                b.invariant_digest(),
                "{label}: traced reconnect soak must be digest-stable against the untraced arm"
            );

            // Without the policy the same plan is an ordinary blackout:
            // the session starves through it instead of tearing down.
            let plain = run_chaos(
                ChaosScenario::Disconnect,
                kind,
                Scheme::nerve(),
                seed,
                CHUNKS,
                None,
            );
            assert_eq!(plain.reconnects, 0, "{label}");
            assert_eq!(plain.chunks.len(), CHUNKS, "{label}");
        }
    }
}

#[test]
fn degradation_is_graceful_not_binary() {
    // Under the kitchen sink the recovery ladder should actually be a
    // ladder: full recoveries where the code made it, freezes where it
    // could not — not a single all-or-nothing outcome. The per-rung
    // counts accumulate in one shared metrics plane and are asserted
    // from its snapshot.
    let mut obs = Obs::metrics_only();
    for kind in NetworkKind::ALL {
        run_chaos(
            ChaosScenario::KitchenSink,
            kind,
            Scheme::nerve(),
            3,
            CHUNKS,
            Some(&mut obs),
        );
    }
    let snap = obs.registry.snapshot();
    let rung = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        rung("session.degradation.full") > 0,
        "no frame ever got a full recovery under chaos"
    );
    assert!(
        rung("session.degradation.warp_only") + rung("session.degradation.freeze") > 0,
        "no frame ever degraded below full recovery"
    );
    // Recovery schemes never stall: every miss lands on a rung.
    assert_eq!(
        rung("session.degradation.stall"),
        0,
        "a recovery scheme recorded a stall somewhere in the matrix"
    );
}

#[test]
fn reliable_channel_expires_within_deadline_under_total_loss() {
    let trace = NetworkTrace::generate(NetworkKind::WiFi, 2);
    let mut ch = ReliableChannel::new(Link::new(trace), Bernoulli::new(1.0, 9));
    let now = SimTime::from_secs_f64(1.0);
    let deadline = SimTime::from_secs_f64(3.0);
    let outcome = ch.send_with_deadline(1024, now, deadline);
    assert!(outcome.is_expired(), "100% loss must expire: {outcome:?}");
    match outcome {
        nerve_net::reliable::SendOutcome::Expired { at, attempts } => {
            assert!(
                at <= deadline,
                "gave up at {at:?}, after deadline {deadline:?}"
            );
            assert!(attempts >= 1);
        }
        _ => unreachable!(),
    }
    assert_eq!(ch.stats.expired, 1);
}

/// Tier-1 slice of the full soak matrix: a deterministic seeded subset
/// of K scenario × network cells runs on every push, so matrix-only
/// regressions surface before the nightly non-blocking job. The subset
/// is drawn by a SplitMix64 walk over a fixed seed — the same cells
/// every run, but spread across the matrix rather than hand-picked.
#[test]
fn seeded_subset_of_the_soak_matrix_survives() {
    const K: usize = 6;
    let cells: Vec<(ChaosScenario, NetworkKind)> = ChaosScenario::ALL
        .iter()
        .flat_map(|&s| NetworkKind::ALL.iter().map(move |&k| (s, k)))
        .collect();
    // Fisher–Yates prefix driven by SplitMix64 on a fixed seed: a
    // deterministic K-cell sample without replacement.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut state = 0x50AC_5EED_2026u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..K {
        let j = i + (next() as usize) % (order.len() - i);
        order.swap(i, j);
    }
    for &idx in &order[..K] {
        let (scenario, kind) = cells[idx];
        let r = run_chaos(scenario, kind, Scheme::nerve(), 13, CHUNKS, None);
        let label = format!("{} on {}", scenario.label(), kind.label());
        assert_eq!(r.chunks.len(), CHUNKS, "{label}");
        assert!(r.qoe.is_finite(), "{label}: QoE {}", r.qoe);
        assert!(
            r.total_rebuffer_secs.is_finite() && r.total_rebuffer_secs >= 0.0,
            "{label}: rebuffer {}",
            r.total_rebuffer_secs
        );
    }
}

/// Full matrix soak — every scenario × every network kind × both the
/// full system and the no-recovery baseline. Slow; runs in the
/// non-blocking CI job (`cargo test --test chaos_soak -- --ignored`).
#[test]
#[ignore = "slow full-matrix soak; covered by the non-blocking CI job"]
fn full_matrix_soak() {
    let mut nerve_qoe = 0.0f64;
    let mut baseline_qoe = 0.0f64;
    for seed in [1u64, 5, 11] {
        // Each matrix call fans the 9 × 4 cells across the sweep pool;
        // results come back in deterministic scenario-major order.
        let ours = run_chaos_matrix(&Scheme::nerve(), seed, CHUNKS);
        let base = run_chaos_matrix(&Scheme::without_recovery(), seed, CHUNKS);
        for ((scenario, kind, o), (_, _, b)) in ours.iter().zip(base.iter()) {
            let label = format!("{} on {} seed {seed}", scenario.label(), kind.label());
            assert_eq!(o.chunks.len(), CHUNKS, "{label}");
            assert!(o.qoe.is_finite(), "{label}: nerve QoE {}", o.qoe);
            assert!(b.qoe.is_finite(), "{label}: baseline QoE {}", b.qoe);
            nerve_qoe += o.qoe;
            baseline_qoe += b.qoe;
        }
    }
    // In aggregate over the whole matrix, recovery + SR must beat the
    // stall-on-everything baseline — chaos is where the ladder earns
    // its keep.
    assert!(
        nerve_qoe > baseline_qoe,
        "NERVE {nerve_qoe:.2} must beat no-recovery {baseline_qoe:.2} across the soak matrix"
    );
}
