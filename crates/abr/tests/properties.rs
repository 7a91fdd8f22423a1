//! Property tests for the ABR layer's invariants, run as seeded grids
//! (see [`nerve_rng::check_cases`]).

use nerve_abr::fec_table::FecTable;
use nerve_abr::mpc::{EnhancementAwareAbr, EnhancementConfig};
use nerve_abr::predict::{Ewma, HoltWinters, Predictor};
use nerve_abr::qoe::{session_qoe, ChunkOutcome, QoeParams, QualityMaps};
use nerve_abr::{Abr, AbrContext};
use nerve_rng::{check_cases, DetRng, Rng};

const CASES: u64 = 256;
const LADDER: [u32; 5] = [512, 1024, 1600, 2640, 4400];

/// `len` uniform samples in `lo..hi`, with `len` drawn from `lens`.
fn samples(rng: &mut DetRng, lens: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let len = rng.random_range(lens);
    (0..len).map(|_| rng.random_range(lo..hi)).collect()
}

#[test]
fn choose_always_returns_valid_rung() {
    check_cases("choose_always_returns_valid_rung", CASES, |rng| {
        let tput = rng.random_range(50.0f64..50_000.0);
        let loss = rng.random_range(0.0f64..0.3);
        let ctx = AbrContext {
            buffer_secs: rng.random_range(0.0f64..40.0),
            last_choice: rng.random_range(0..5usize),
            throughput_kbps: vec![tput; 6],
            loss_rates: vec![loss; 6],
            chunk_seconds: 4.0,
            ladder_kbps: LADDER.to_vec(),
            frames_per_chunk: 120,
        };
        let maps = QualityMaps::placeholder(&LADDER);
        let mut aware = EnhancementAwareAbr::new(
            maps.clone(),
            QoeParams::default(),
            EnhancementConfig::default(),
        );
        let mut blind = EnhancementAwareAbr::enhancement_blind(maps, QoeParams::default());
        assert!(aware.choose(&ctx) < LADDER.len());
        assert!(blind.choose(&ctx) < LADDER.len());
    });
}

#[test]
fn rung_choice_is_monotone_in_throughput() {
    check_cases("rung_choice_is_monotone_in_throughput", CASES, |rng| {
        let t_low = rng.random_range(100.0f64..2_000.0);
        let extra = rng.random_range(100.0f64..8_000.0);
        let mk = |tput: f64| AbrContext {
            buffer_secs: 10.0,
            last_choice: 0,
            throughput_kbps: vec![tput; 6],
            loss_rates: vec![0.0; 6],
            chunk_seconds: 4.0,
            ladder_kbps: LADDER.to_vec(),
            frames_per_chunk: 120,
        };
        let maps = QualityMaps::placeholder(&LADDER);
        let mut abr = EnhancementAwareAbr::enhancement_blind(maps, QoeParams::default());
        let low = abr.choose(&mk(t_low));
        let mut abr2 = EnhancementAwareAbr::enhancement_blind(
            QualityMaps::placeholder(&LADDER),
            QoeParams::default(),
        );
        let high = abr2.choose(&mk(t_low + extra));
        assert!(
            high >= low,
            "tput {t_low} -> rung {low}, tput {} -> rung {high}",
            t_low + extra
        );
    });
}

#[test]
fn utility_for_psnr_is_monotone() {
    check_cases("utility_for_psnr_is_monotone", CASES, |rng| {
        let p1 = rng.random_range(10.0f64..50.0);
        let dp = rng.random_range(0.0f64..20.0);
        let maps = QualityMaps::placeholder(&LADDER);
        assert!(maps.utility_for_psnr(p1 + dp) >= maps.utility_for_psnr(p1) - 1e-9);
    });
}

#[test]
fn session_qoe_decreases_with_rebuffering() {
    check_cases("session_qoe_decreases_with_rebuffering", CASES, |rng| {
        let utils = samples(rng, 2..20, 0.2, 4.4);
        let extra_stall = rng.random_range(0.01f64..5.0);
        let params = QoeParams::default();
        let clean: Vec<ChunkOutcome> = utils
            .iter()
            .map(|&u| ChunkOutcome {
                utility_mbps: u,
                rebuffer_secs: 0.0,
            })
            .collect();
        let mut stalled = clean.clone();
        stalled[0].rebuffer_secs += extra_stall;
        assert!(session_qoe(&stalled, &params) < session_qoe(&clean, &params));
    });
}

#[test]
fn ewma_stays_within_sample_hull() {
    check_cases("ewma_stays_within_sample_hull", CASES, |rng| {
        let samples = samples(rng, 1..50, 0.0, 100.0);
        let mut e = Ewma::new(rng.random_range(0.05f64..1.0));
        for &s in &samples {
            e.update(s);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = e.predict();
        assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    });
}

#[test]
fn holt_winters_is_finite_and_nonnegative() {
    check_cases("holt_winters_is_finite_and_nonnegative", CASES, |rng| {
        let mut hw = HoltWinters::new(0.5, 0.3);
        for s in samples(rng, 1..50, 0.0, 100.0) {
            hw.update(s);
        }
        let p = hw.predict();
        assert!(p.is_finite() && p >= 0.0);
    });
}

#[test]
fn fec_table_lookup_is_monotone_when_entries_are() {
    check_cases(
        "fec_table_lookup_is_monotone_when_entries_are",
        CASES,
        |rng| {
            let base = rng.random_range(0.0f64..0.3);
            let probe = rng.random_range(0.0f64..0.5);
            let table = FecTable::from_entries(vec![
                (base, base * 3.0),
                (base + 0.1, (base + 0.1) * 4.0),
                (base + 0.2, (base + 0.2) * 5.0),
            ]);
            let r1 = table.lookup(probe);
            let r2 = table.lookup(probe + 0.05);
            assert!(r2 >= r1 - 1e-12);
        },
    );
}
