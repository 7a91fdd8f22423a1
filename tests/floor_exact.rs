//! `floor_exact` against `f32::floor`, bit for bit.
//!
//! The LK kernel, `Frame::sample`, `resize` and the warps all floor
//! through `floor_exact`; every digest and displayed frame depends on it
//! agreeing with `f32::floor` on every input. The boundary classes and a
//! strided sweep run by default, and the boundary classes also check the
//! eight-lane `floor` of the LK vector path. The exhaustive
//! sweep of all 2^32 bit patterns is ignored (about 12 s in release on a
//! 2-vCPU x86-64 host):
//!
//! ```text
//! cargo test --release --test floor_exact -- --ignored
//! ```

use nerve::flow::lk::floor_lanes;
use nerve::video::frame::floor_exact;

fn assert_matches(x: f32) {
    let (got, want) = (floor_exact(x), x.floor());
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "floor_exact({x:e} = {:#010x}) = {got:e}, f32::floor gives {want:e}",
        x.to_bits()
    );
}

/// Both signs of `x`.
fn both(x: f32) -> [f32; 2] {
    [x, -x]
}

/// `x` and its neighbouring floats on either side, both signs.
fn around(x: f32) -> Vec<f32> {
    let b = x.to_bits();
    [b - 1, b, b + 1]
        .into_iter()
        .flat_map(|b| both(f32::from_bits(b)))
        .collect()
}

/// Signed zeros, subnormals, the edges of `floor_exact`'s fast path, the
/// largest finite value, infinities, NaNs, and the integers and
/// half-integers images live at, each with its neighbours.
fn boundary_classes() -> Vec<f32> {
    let mut cases = Vec::new();
    // Signed zeros and subnormals: smallest, a middle one, largest.
    for bits in [0, 1, 0x0040_0000, 0x007f_ffff] {
        cases.extend(both(f32::from_bits(bits)));
    }
    // Smallest normal, just under and over one half and one.
    cases.extend(around(f32::MIN_POSITIVE));
    cases.extend(around(0.5));
    cases.extend(around(1.0));
    // Where the i32 truncation stops being used (2^23) and where it
    // would saturate (2^31).
    cases.extend(around(8_388_608.0));
    cases.extend(around(2_147_483_648.0));
    cases.extend(both(f32::MAX));
    cases.extend(both(f32::INFINITY));
    // Quiet and signalling NaNs of both signs, with payloads.
    for bits in [0x7fc0_0000, 0x7fc0_0001, 0x7f80_0001, 0x7fbf_ffff] {
        cases.push(f32::from_bits(bits));
        cases.push(f32::from_bits(bits | 0x8000_0000));
    }
    // Integers and half-integers across the range images live in, with
    // their neighbours.
    for i in -4096..=4096 {
        cases.extend(around(i as f32 + 0.5));
        if i != 0 {
            cases.extend(around(i as f32));
        }
    }
    cases
}

#[test]
fn boundary_classes_match_f32_floor() {
    for x in boundary_classes() {
        assert_matches(x);
    }
}

/// The eight-lane `floor` of the LK vector path. A CPU without AVX2 has
/// no such path, and nothing to check.
#[test]
fn lane_floor_matches_f32_floor_on_the_boundary_classes() {
    let cases = boundary_classes();
    for chunk in cases.chunks(8) {
        let mut lanes = [0.0f32; 8];
        lanes[..chunk.len()].copy_from_slice(chunk);
        let Some(got) = floor_lanes(lanes) else {
            return;
        };
        for (x, got) in lanes.iter().zip(got) {
            let want = x.floor();
            // The lane floor quiets a signalling NaN where `f32::floor`
            // may not. The LK group rule refuses a NaN lane, so a NaN must
            // only stay NaN; every other input matches bit for bit.
            let same = if x.is_nan() {
                got.is_nan()
            } else {
                got.to_bits() == want.to_bits()
            };
            assert!(
                same,
                "lane floor({x:e} = {:#010x}) = {got:e}, f32::floor gives {want:e}",
                x.to_bits()
            );
        }
    }
}

#[test]
fn strided_bit_pattern_sweep_matches_f32_floor() {
    // 65537 is odd, so the stride visits every exponent and both signs.
    for bits in (0..=u32::MAX).step_by(65_537) {
        assert_matches(f32::from_bits(bits));
    }
}

#[test]
#[ignore = "exhaustive 2^32 sweep; run in release"]
fn every_f32_matches_f32_floor() {
    for bits in 0..=u32::MAX {
        let x = f32::from_bits(bits);
        if floor_exact(x).to_bits() != x.floor().to_bits() {
            assert_matches(x);
        }
    }
}
