//! Macroblocks and motion search.
//!
//! The codec partitions frames into 16x16 macroblocks (four 8x8 DCT
//! blocks each). P-frames find, per macroblock, the best integer motion
//! vector into the reference frame by a two-stage search — an exhaustive
//! grid over the full window on subsampled SAD, then a full-SAD local
//! refinement — and code the residual.
//!
//! The search reads each macroblock and its ±[`MV_RANGE`] reference
//! window once, border-clamped, into a small gathered copy. The coarse
//! grid then scores eight horizontally adjacent candidates per step in
//! portable `[f32; 8]` lanes, each lane summing its own terms in the
//! same order as a one-candidate loop, and drops a group as soon as no
//! lane can still win. The chosen vector is bit for bit the one the
//! per-candidate search (kept in the tests as the oracle) returns.
//!
//! Pixel values cross this module in 0..255 space (`f32`), converted from
//! the `[0,1]` luma frames at the encoder/decoder boundary.

use nerve_video::frame::Frame;

/// Macroblock edge length in pixels.
pub const MB: usize = 16;

/// Maximum motion vector component the search may return.
pub const MV_RANGE: i32 = 15;

/// Extract an 8x8 block (255-space) at pixel origin `(x0, y0)`,
/// border-clamped so partial blocks at frame edges work.
pub fn extract8(frame: &Frame, x0: isize, y0: isize) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            out[y * 8 + x] = frame.get_clamped(x0 + x as isize, y0 + y as isize) * 255.0;
        }
    }
    out
}

/// Write an 8x8 block (255-space) back into a frame, clipping to bounds.
pub fn store8(frame: &mut Frame, x0: isize, y0: isize, block: &[f32; 64]) {
    for y in 0..8 {
        for x in 0..8 {
            let fx = x0 + x as isize;
            let fy = y0 + y as isize;
            if fx >= 0 && fy >= 0 && (fx as usize) < frame.width() && (fy as usize) < frame.height()
            {
                frame.set(
                    fx as usize,
                    fy as usize,
                    (block[y * 8 + x] / 255.0).clamp(0.0, 1.0),
                );
            }
        }
    }
}

/// Candidates the coarse sweep scores together, one per lane.
const LANES: usize = 8;

/// Candidate offsets per axis: `-MV_RANGE..=MV_RANGE`.
const SPAN: usize = 2 * MV_RANGE as usize + 1;

/// Lane groups per candidate row. The last group overhangs the search
/// range by `GROUPS·LANES − SPAN` candidates, which are scored and never
/// compared.
const GROUPS: usize = SPAN.div_ceil(LANES);

/// Reference window rows: every row any candidate reads.
const WIN_H: usize = MB + SPAN - 1;

/// Reference window columns, including the last group's overhang.
const WIN_W: usize = MB + GROUPS * LANES - 1;

/// One macroblock's pixels and its reference search window, gathered once
/// through `get_clamped`. Window pixel `(c, r)` is the reference at
/// `(mx − MV_RANGE + c, my − MV_RANGE + r)`, so the tap `(x, y)` of
/// candidate `(dx, dy)` reads column `x + dx + MV_RANGE` of row
/// `y + dy + MV_RANGE`: the same value the per-tap clamped read returns,
/// since the clamp acts on each axis alone.
struct Window {
    cur: [f32; MB * MB],
    reference: [f32; WIN_W * WIN_H],
}

impl Window {
    fn gather(cur: &Frame, reference: &Frame, mx: isize, my: isize) -> Self {
        let mut w = Window {
            cur: [0.0; MB * MB],
            reference: [0.0; WIN_W * WIN_H],
        };
        for y in 0..MB {
            for x in 0..MB {
                w.cur[y * MB + x] = cur.get_clamped(mx + x as isize, my + y as isize);
            }
        }
        let (ox, oy) = (mx - MV_RANGE as isize, my - MV_RANGE as isize);
        for r in 0..WIN_H {
            for c in 0..WIN_W {
                w.reference[r * WIN_W + c] =
                    reference.get_clamped(ox + c as isize, oy + r as isize);
            }
        }
        w
    }

    /// SAD (255-space) of candidate `(dx, dy)` over every `step`-th
    /// pixel of the block in both axes, summed in (row, column) order.
    fn sad(&self, dx: i32, dy: i32, step: usize) -> f32 {
        let (cx, cy) = ((dx + MV_RANGE) as usize, (dy + MV_RANGE) as usize);
        let mut acc = 0.0f32;
        for y in (0..MB).step_by(step) {
            let row = &self.reference[(y + cy) * WIN_W + cx..];
            for x in (0..MB).step_by(step) {
                acc += (self.cur[y * MB + x] - row[x]).abs();
            }
        }
        acc * 255.0
    }
}

/// Find the best integer motion vector of the macroblock whose pixel
/// origin is `(mx, my)`. Returns `(dx, dy)` into the reference
/// (i.e. `cur[p] ≈ ref[p + (dx, dy)]`).
///
/// Two stages: an exhaustive grid over the full ±[`MV_RANGE`] window on
/// SAD subsampled 2× in both axes — immune to the local minima that trap
/// gradient-style searches on periodic content — then a full-SAD ±1
/// refinement around the winner. A small zero-MV bias (−0.5) keeps
/// static content cheap. Both stages read one window gathered per call;
/// costs are compared in raster order with strict `<`, so ties go to the
/// first candidate.
///
/// The sweep scores each candidate row in groups of eight (`LANES`)
/// horizontally adjacent candidates: lane `l` of group `g` is
/// `dx = −MV_RANGE + 8g + l`, and lanes past `MV_RANGE` are scored but
/// never compared. Each lane sums its own 64 `|cur − ref|` terms in
/// (row, column) order, so its cost is bit-identical to a per-candidate
/// loop. After each row the group is dropped if every live lane's
/// `partial·255` already reaches the best cost. This is exact: under
/// round-to-nearest, adding a non-negative term never makes a sum
/// smaller, and multiplying by 255 keeps the order, so a dropped
/// candidate's final cost is at least the best so far, which only
/// falls, and it would lose the strict `<`.
pub fn motion_search(cur: &Frame, reference: &Frame, mx: usize, my: usize) -> (i32, i32) {
    let w = Window::gather(cur, reference, mx as isize, my as isize);
    // Stage 1: coarse sweep.
    let (mut best_dx, mut best_dy) = (0i32, 0i32);
    let mut best = w.sad(0, 0, 2) - 0.5; // zero-MV bias
    for dy in -MV_RANGE..=MV_RANGE {
        let row0 = (dy + MV_RANGE) as usize;
        for g in 0..GROUPS {
            let dx0 = -MV_RANGE + (g * LANES) as i32;
            // Lanes past the range are not candidates. (0, 0) is scored
            // again, but can never beat its own cost less the bias.
            let live: [bool; LANES] = std::array::from_fn(|l| dx0 + l as i32 <= MV_RANGE);
            let mut acc = [0.0f32; LANES];
            let mut dropped = false;
            for y in (0..MB).step_by(2) {
                let row = &w.reference[(row0 + y) * WIN_W + g * LANES..];
                for x in (0..MB).step_by(2) {
                    let a = w.cur[y * MB + x];
                    let b: &[f32; LANES] =
                        row[x..x + LANES].try_into().expect("a LANES-long slice");
                    for l in 0..LANES {
                        acc[l] += (a - b[l]).abs();
                    }
                }
                if (0..LANES).all(|l| !live[l] || acc[l] * 255.0 >= best) {
                    dropped = true;
                    break;
                }
            }
            if dropped {
                continue;
            }
            for l in 0..LANES {
                let cost = acc[l] * 255.0;
                if live[l] && cost < best {
                    best = cost;
                    best_dx = dx0 + l as i32;
                    best_dy = dy;
                }
            }
        }
    }
    // Stage 2: full-SAD refinement around the coarse winner.
    let (cx, cy) = (best_dx, best_dy);
    let mut best = f32::INFINITY;
    for oy in -1..=1i32 {
        for ox in -1..=1i32 {
            let dx = (cx + ox).clamp(-MV_RANGE, MV_RANGE);
            let dy = (cy + oy).clamp(-MV_RANGE, MV_RANGE);
            let cost = w.sad(dx, dy, 1);
            if cost < best {
                best = cost;
                best_dx = dx;
                best_dy = dy;
            }
        }
    }
    (best_dx, best_dy)
}

/// Number of macroblock columns/rows needed to cover a frame.
pub fn mb_grid(width: usize, height: usize) -> (usize, usize) {
    (width.div_ceil(MB), height.div_ceil(MB))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_rng::{DetRng, Rng};

    /// Sum of absolute differences between a 16x16 macroblock of `cur` at
    /// `(mx, my)` (pixel origin) and `reference` displaced by `(dx, dy)`.
    fn sad16(cur: &Frame, reference: &Frame, mx: isize, my: isize, dx: isize, dy: isize) -> f32 {
        let mut acc = 0.0f32;
        for y in 0..MB as isize {
            for x in 0..MB as isize {
                let a = cur.get_clamped(mx + x, my + y);
                let b = reference.get_clamped(mx + x + dx, my + y + dy);
                acc += (a - b).abs();
            }
        }
        acc * 255.0
    }

    /// Subsampled SAD (every other pixel in both axes) — 4x cheaper, used for
    /// the coarse search stage.
    fn sad16_coarse(
        cur: &Frame,
        reference: &Frame,
        mx: isize,
        my: isize,
        dx: isize,
        dy: isize,
    ) -> f32 {
        let mut acc = 0.0f32;
        let mut y = 0isize;
        while y < MB as isize {
            let mut x = 0isize;
            while x < MB as isize {
                let a = cur.get_clamped(mx + x, my + y);
                let b = reference.get_clamped(mx + x + dx, my + y + dy);
                acc += (a - b).abs();
                x += 2;
            }
            y += 2;
        }
        acc * 255.0
    }

    /// The per-candidate search `motion_search` replaced: two clamped reads
    /// per tap, one candidate at a time. The oracle of the identity tests.
    fn motion_search_per_tap(cur: &Frame, reference: &Frame, mx: usize, my: usize) -> (i32, i32) {
        let (mxi, myi) = (mx as isize, my as isize);
        // Stage 1: coarse sweep.
        let (mut best_dx, mut best_dy) = (0i32, 0i32);
        let mut best = sad16_coarse(cur, reference, mxi, myi, 0, 0) - 0.5; // zero-MV bias
        for dy in -MV_RANGE..=MV_RANGE {
            for dx in -MV_RANGE..=MV_RANGE {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cost = sad16_coarse(cur, reference, mxi, myi, dx as isize, dy as isize);
                if cost < best {
                    best = cost;
                    best_dx = dx;
                    best_dy = dy;
                }
            }
        }
        // Stage 2: full-SAD refinement around the coarse winner.
        let (cx, cy) = (best_dx, best_dy);
        let mut best = f32::INFINITY;
        for oy in -1..=1i32 {
            for ox in -1..=1i32 {
                let dx = (cx + ox).clamp(-MV_RANGE, MV_RANGE);
                let dy = (cy + oy).clamp(-MV_RANGE, MV_RANGE);
                let cost = sad16(cur, reference, mxi, myi, dx as isize, dy as isize);
                if cost < best {
                    best = cost;
                    best_dx = dx;
                    best_dy = dy;
                }
            }
        }
        (best_dx, best_dy)
    }

    fn textured(w: usize, h: usize) -> Frame {
        Frame::from_fn(w, h, |x, y| {
            0.5 + 0.3 * ((x as f32) * 0.4).sin() * ((y as f32) * 0.3).cos()
                + 0.15 * (x as f32 * 0.9 + y as f32 * 0.2).sin()
        })
    }

    fn shift(frame: &Frame, dx: isize, dy: isize) -> Frame {
        Frame::from_fn(frame.width(), frame.height(), |x, y| {
            frame.get_clamped(x as isize - dx, y as isize - dy)
        })
    }

    #[test]
    fn extract_store_round_trip() {
        let f = textured(32, 32);
        let block = extract8(&f, 8, 8);
        let mut g = Frame::new(32, 32);
        store8(&mut g, 8, 8, &block);
        for y in 8..16 {
            for x in 8..16 {
                assert!((f.get(x, y) - g.get(x, y)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn extract_clamps_at_borders() {
        let f = textured(8, 8);
        let block = extract8(&f, 4, 4); // hangs off the bottom-right
        assert!((block[63] - f.get(7, 7) * 255.0).abs() < 1e-4);
    }

    #[test]
    fn sad_zero_for_identical_frames() {
        let f = textured(32, 32);
        assert_eq!(sad16(&f, &f, 0, 0, 0, 0), 0.0);
    }

    #[test]
    fn motion_search_finds_known_shift() {
        let reference = textured(64, 64);
        let cur = shift(&reference, 5, -3); // cur[p] = ref[p - (5,-3)]
                                            // Interior macroblock (16,16): cur[p] = ref[p + (-5, 3)]. TSS may
                                            // land on an aliased minimum of the periodic texture, so require
                                            // the found vector to match the true one *in cost*, which is what
                                            // residual coding actually depends on.
        let (dx, dy) = motion_search(&cur, &reference, 16, 16);
        let found = sad16(&cur, &reference, 16, 16, dx as isize, dy as isize);
        let truth = sad16(&cur, &reference, 16, 16, -5, 3);
        assert!(
            found <= truth + 1e-3,
            "found mv ({dx},{dy}) cost {found} worse than true (-5,3) cost {truth}"
        );
    }

    #[test]
    fn motion_search_prefers_zero_on_static_content() {
        let f = textured(48, 48);
        let (dx, dy) = motion_search(&f, &f, 16, 16);
        assert_eq!((dx, dy), (0, 0));
    }

    #[test]
    fn motion_vectors_stay_within_range() {
        let reference = textured(64, 64);
        let cur = shift(&reference, 40, 0); // beyond the search range
        let (dx, dy) = motion_search(&cur, &reference, 16, 16);
        assert!(dx.abs() <= MV_RANGE && dy.abs() <= MV_RANGE);
    }

    #[test]
    fn mb_grid_rounds_up() {
        assert_eq!(mb_grid(64, 48), (4, 3));
        assert_eq!(mb_grid(65, 49), (5, 4));
        assert_eq!(mb_grid(1, 1), (1, 1));
    }

    /// Reference frames for the identity grid: flat (every cost ties),
    /// the periodic texture (aliased minima), seeded noise, and noise
    /// over a flat left half.
    fn grid_frames(w: usize, h: usize, rng: &mut DetRng) -> Vec<Frame> {
        let noise = Frame::from_fn(w, h, |_, _| rng.random_range(0.0f32..1.0));
        let half = Frame::from_fn(w, h, |x, y| if x < w / 2 { 0.25 } else { noise.get(x, y) });
        vec![Frame::filled(w, h, 0.5), textured(w, h), noise, half]
    }

    #[test]
    fn motion_search_matches_the_per_tap_search() {
        let mut rng = DetRng::new(26);
        let shifts = [
            (0, 0),
            (5, -3),
            (-15, 15),
            (15, -14),
            (16, -17),
            (-40, 3),
            (7, 31),
        ];
        for (w, h) in [
            (8, 8),
            (15, 9),
            (16, 16),
            (17, 33),
            (53, 30),
            (80, 45),
            (240, 135),
        ] {
            for reference in grid_frames(w, h, &mut rng) {
                for &(sx, sy) in &shifts {
                    let mut cur = shift(&reference, sx, sy);
                    // Noise on the shifted frame so no candidate fits exactly.
                    for v in cur.data_mut() {
                        *v += rng.random_range(-0.01f32..0.01);
                    }
                    let (mbs_x, mbs_y) = mb_grid(w, h);
                    for mby in 0..mbs_y {
                        for mbx in 0..mbs_x {
                            let (mx, my) = (mbx * MB, mby * MB);
                            assert_eq!(
                                motion_search(&cur, &reference, mx, my),
                                motion_search_per_tap(&cur, &reference, mx, my),
                                "{w}x{h} shift ({sx},{sy}) macroblock ({mx},{my})"
                            );
                        }
                    }
                    if w > 64 {
                        break; // the big frame runs the first shift only
                    }
                }
            }
        }
    }

    #[test]
    fn motion_search_matches_the_per_tap_search_on_exact_ties() {
        // Unperturbed shifts of flat and periodic frames: many candidates
        // reach the same cost, and the zero-MV bias decides static blocks.
        for (w, h) in [(16, 16), (40, 24), (64, 64)] {
            for reference in [Frame::filled(w, h, 0.3), textured(w, h)] {
                for (sx, sy) in [(0, 0), (1, 0), (-5, 3), (20, -20)] {
                    let cur = shift(&reference, sx, sy);
                    let (mbs_x, mbs_y) = mb_grid(w, h);
                    for mby in 0..mbs_y {
                        for mbx in 0..mbs_x {
                            let (mx, my) = (mbx * MB, mby * MB);
                            assert_eq!(
                                motion_search(&cur, &reference, mx, my),
                                motion_search_per_tap(&cur, &reference, mx, my),
                                "{w}x{h} shift ({sx},{sy}) macroblock ({mx},{my})"
                            );
                        }
                    }
                }
            }
        }
    }
}
