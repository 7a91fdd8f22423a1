//! Pinned fleet digests: the end-to-end oracle for every kernel and
//! engine change that claims to be bit-exact.
//!
//! `fleet.rs` and `scale_stability.rs` compare digests across worker
//! counts, which a change that moves every count alike still passes.
//! These pins hold the FNV-1a of `FleetResult::digest()` and the event
//! count to fixed values. Each session's activation checksum (the mean
//! of its slice of the batcher's stacked `conv2d`) enters the digest, so
//! a conv kernel that changes one output bit moves a pin.
//!
//! Every pin is checked at one worker (the inline driver) and at four
//! (multi-server fleets shard across threads), and one failover fleet is
//! also checkpointed mid-run and resumed at both counts: the sealed
//! frames must be byte-identical and every resume must land on the pin.
//!
//! A change that is meant to move fleet results must re-pin every entry
//! here in one commit and record the old and new values in CHANGES.md.

use nerve::core::BreakerConfig;
use nerve::net::trace::NetworkTrace;
use nerve::serve::{
    run_fleet, FleetConfig, FleetResult, PlacementPolicy, ServerRestart, SessionCrash,
};
use nerve::sim::experiments::fleet::{
    failover_config, fleet_config, model_fleet_config, scale_config, storm_failures,
};
use nerve::sim::sweep;
use nerve_serve::{checkpoint_fleet, resume_fleet};

/// 64-bit FNV-1a over the digest's UTF-8 bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The crash/restart/breaker fleet of
/// `scale_stability::fleet_with_crashes_restart_and_breaker_is_jobs_invariant`.
fn crash_config(seed: u64) -> (FleetConfig, NetworkTrace) {
    let (mut cfg, trace) = fleet_config(24, 3, seed);
    cfg.crash_plan = vec![
        SessionCrash {
            session: 3,
            at_secs: 1.0,
            down_secs: 0.8,
        },
        SessionCrash {
            session: 11,
            at_secs: 2.2,
            down_secs: 0.5,
        },
        SessionCrash {
            session: 17,
            at_secs: 2.2,
            down_secs: 1.1,
        },
    ];
    cfg.server_restart = Some(ServerRestart {
        server: 0,
        at_secs: 1.6,
        down_secs: 0.7,
    });
    cfg.breaker = Some(BreakerConfig::default());
    (cfg, trace)
}

/// Compare one result with its pin; a mismatch is returned as a line
/// that carries the observed values, so one run shows every moved pin
/// at once.
fn compare(name: &str, r: &FleetResult, want_fnv: u64, want_events: u64) -> Option<String> {
    let got_fnv = fnv1a(&r.digest());
    (got_fnv != want_fnv || r.events != want_events).then(|| {
        format!(
            "{name}: digest fnv {got_fnv:#018x} events {} (pinned {want_fnv:#018x} / {want_events})",
            r.events
        )
    })
}

/// Run `f` with the process-wide worker count set to `jobs`.
fn at_workers<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    let prev = sweep::workers();
    sweep::set_workers(jobs);
    let out = f();
    sweep::set_workers(prev);
    out
}

/// Run one fleet at 1 and at 4 workers and compare each with its pin.
fn check(
    name: &str,
    (cfg, trace): (FleetConfig, NetworkTrace),
    want_fnv: u64,
    want_events: u64,
) -> Vec<String> {
    [1, 4]
        .into_iter()
        .filter_map(|jobs| {
            let r = at_workers(jobs, || run_fleet(&cfg, &trace));
            compare(&format!("{name} @{jobs}w"), &r, want_fnv, want_events)
        })
        .collect()
}

/// Checkpoint one fleet at `at_secs` at 1 and 4 workers, require the two
/// frames to be byte-identical, then resume each frame at 1 and 4
/// workers and compare every result with the fleet's pin.
fn check_resume(
    name: &str,
    (cfg, trace): (FleetConfig, NetworkTrace),
    at_secs: f64,
    want_fnv: u64,
    want_events: u64,
) -> Vec<String> {
    let frames: Vec<Vec<u8>> = [1, 4]
        .into_iter()
        .map(|jobs| at_workers(jobs, || checkpoint_fleet(&cfg, &trace, at_secs)))
        .collect();
    let mut moved = Vec::new();
    if frames[0] != frames[1] {
        moved.push(format!(
            "{name}: checkpoint frames differ between 1 and 4 workers"
        ));
    }
    for (made, frame) in [1, 4].into_iter().zip(&frames) {
        for jobs in [1, 4] {
            let r = at_workers(jobs, || resume_fleet(&cfg, &trace, frame))
                .expect("checkpoint frame resumes");
            moved.extend(compare(
                &format!("{name} ckpt@{made}w resume@{jobs}w"),
                &r,
                want_fnv,
                want_events,
            ));
        }
    }
    moved
}

#[test]
fn fleet_digests_match_their_pins() {
    let failures = storm_failures(8);
    let moved: Vec<String> = [
        check(
            "scale 64/1 seed 11",
            scale_config(64, 1, 11),
            0x7d4a_6c90_2fd3_f8c9,
            616,
        ),
        check(
            "scale 64/1 seed 97",
            scale_config(64, 1, 97),
            0xb817_7a80_a956_4cb7,
            615,
        ),
        check(
            "scale 1000/8 seed 11",
            scale_config(1000, 8, 11),
            0xe6ae_7947_9d13_628d,
            9249,
        ),
        check(
            "scale 1000/8 seed 97",
            scale_config(1000, 8, 97),
            0xf4b2_910e_3489_121f,
            5475,
        ),
        check(
            "failover 1000/8 seed 11",
            failover_config(1000, 8, 11, &failures),
            0x6e55_8866_ba41_0d0c,
            10012,
        ),
        check(
            "failover 1000/8 seed 97",
            failover_config(1000, 8, 97, &failures),
            0x21af_09ad_49ce_6e3c,
            5800,
        ),
        check(
            "crash/restart/breaker seed 53",
            crash_config(53),
            0x3f70_32ea_c05e_88f7,
            435,
        ),
        check(
            "crash/restart/breaker seed 54",
            crash_config(54),
            0x353b_c8ba_f46b_a1ea,
            416,
        ),
        check(
            "model plane 16 seed 11",
            model_fleet_config(16, 2, 11, 1, PlacementPolicy::RoundRobin),
            0xf07f_4a11_271f_c168,
            201,
        ),
        check(
            "model plane 16 seed 97",
            model_fleet_config(16, 2, 97, 1, PlacementPolicy::RoundRobin),
            0x2015_7ab6_2f59_fa7d,
            196,
        ),
        // Mid-evacuation: after the permanent death at 2.5 s and the
        // flap at 3.5 s, with tickets still in transit.
        check_resume(
            "failover 1000/8 seed 11",
            failover_config(1000, 8, 11, &failures),
            3.6,
            0x6e55_8866_ba41_0d0c,
            10012,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(
        moved.is_empty(),
        "fleet digests moved:\n{}",
        moved.join("\n")
    );
}
