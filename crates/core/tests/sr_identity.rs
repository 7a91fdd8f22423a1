//! `SuperResolver::upscale` bit for bit against its eager form.
//!
//! `oracle` below is `upscale` as it was before the warp moved to LR
//! resolution and the output became one pass: it upsamples the flow to
//! the output grid, warps the previous output there, and resizes the warp
//! to the rung's LR size; on a cold start it resizes a clone of the
//! bilinear base. It builds the full-size base and the full-size resized
//! residual, and adds and clamps them. Only the meter scope around the
//! head is left out, since the meter does not touch values. The heads are
//! trained a few seeded steps first (one per rung at scale 4), so that
//! their residuals, and with them every warped input, reach the output.
//!
//! Two geometries: at scale 8 no residual has the output size, so every
//! rung resizes its residual; at scale 4 the 360p residual (160×90 ×3)
//! already is the 480×270 output, so that resize copies.

use nerve_core::sr::{SrConfig, SuperResolver};
use nerve_core::train::train_sr_all;
use nerve_flow::lk::estimate;
use nerve_flow::warp::warp_frame;
use nerve_tensor::fused::{head_forward, PlaneSource};
use nerve_video::frame::Frame;
use nerve_video::resolution::Resolution;
use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

/// The pre-change `upscale`, with its own temporal state and the heads
/// of the resolver it is handed.
#[derive(Default)]
struct Oracle {
    prev: Option<(Resolution, Frame, Frame)>,
}

impl Oracle {
    fn upscale(&mut self, sr: &mut SuperResolver, lr: &Frame, rung: Resolution) -> Frame {
        let config = sr.config().clone();
        let (lw, lh) = config.lr_dims(rung);
        let (ow, oh) = (config.out_width, config.out_height);
        if rung == Resolution::R1080 {
            let out = lr.resize(ow, oh);
            self.prev = Some((rung, lr.clone(), out.clone()));
            return out;
        }
        let base = lr.resize(ow, oh);
        let warped_prev_hr = match &self.prev {
            Some((prev_rung, prev_lr, prev_hr)) if *prev_rung == rung => {
                let flow = estimate(prev_lr, lr, &config.flow);
                let flow_hr = flow.upsample(ow, oh);
                warp_frame(prev_hr, &flow_hr)
            }
            _ => base.clone(),
        };
        let base_lr = base.resize(lw, lh);
        let warped_lr = warped_prev_hr.resize(lw, lh);
        let shuffle = config.shuffle_factor(rung);
        let head = sr.head_mut(rung);
        let convs = head.conv_layers();
        let residual = head_forward(
            &[
                PlaneSource::Slice(base_lr.data()),
                PlaneSource::Slice(warped_lr.data()),
                PlaneSource::Slice(lr.data()),
            ],
            lh,
            lw,
            convs[0],
            convs[1],
            shuffle,
        );
        let r = residual.shape();
        let residual_frame = Frame::from_data(r[3], r[2], residual.data().to_vec()).resize(ow, oh);
        let out = Frame::from_data(
            ow,
            oh,
            base.data()
                .iter()
                .zip(residual_frame.data().iter())
                .map(|(&b, &res)| (b + res).clamp(0.0, 1.0))
                .collect(),
        );
        self.prev = Some((rung, lr.clone(), out.clone()));
        out
    }

    fn reset(&mut self) {
        self.prev = None;
    }
}

fn bits(frame: &Frame) -> Vec<u32> {
    frame.data().iter().map(|v| v.to_bits()).collect()
}

/// A resolver at `scale` whose heads took `steps` seeded training steps
/// per rung.
fn trained(scale: usize, steps: usize) -> SuperResolver {
    let config = SrConfig::at_scale(scale);
    let (ow, oh) = (config.out_width, config.out_height);
    let mut sr = SuperResolver::new(config);
    let mut training = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, oh, ow), 7);
    train_sr_all(&mut sr, &mut training, steps);
    sr
}

/// What a run of [`play`] reached.
#[derive(Default)]
struct Reached {
    /// Some output differs from the clamped bilinear base.
    residual: bool,
    /// Frames that warped the previous output.
    warm: usize,
}

/// One clip through `sr` and a fresh oracle side by side, one frame per
/// plan step `(rung, reset first)`; `lr_of` makes each step's LR frame
/// from the ground truth. Every output must match the oracle's bit for
/// bit; they are returned in plan order.
fn play(
    sr: &mut SuperResolver,
    video: &mut SyntheticVideo,
    plan: &[(Resolution, bool)],
    mut lr_of: impl FnMut(usize, Frame) -> Frame,
    reached: &mut Reached,
) -> Vec<Frame> {
    let (ow, oh) = (sr.config().out_width, sr.config().out_height);
    let mut oracle = Oracle::default();
    sr.reset();
    let mut outputs = Vec::with_capacity(plan.len());
    let mut prev_rung = None;
    for (step, &(rung, reset)) in plan.iter().enumerate() {
        if reset {
            sr.reset();
            oracle.reset();
        }
        let gt = video.next_frame();
        let (lw, lh) = sr.config().lr_dims(rung);
        let lr = lr_of(step, gt.resize(lw, lh));
        let want = oracle.upscale(sr, &lr, rung);
        let got = sr.upscale(&lr, rung);
        assert!(
            bits(&got) == bits(&want),
            "step {step} at {rung:?} ({ow}x{oh} output) differs from the oracle"
        );
        if rung != Resolution::R1080 {
            reached.residual |= got != lr.resize(ow, oh).clamp01();
            reached.warm += usize::from(!reset && prev_rung == Some(rung));
        }
        prev_rung = Some(rung);
        outputs.push(got);
    }
    outputs
}

/// Every ladder rung over multi-frame clips of several categories, with
/// rung switches (which drop the temporal state) and explicit resets;
/// every output must match the oracle's bit for bit.
#[test]
fn upscale_is_bit_identical_to_the_eager_warp() {
    let mut sr = trained(8, 3);
    let (ow, oh) = (sr.config().out_width, sr.config().out_height);
    // Each rung of the ladder, then a rung switch straight back to 240p
    // and a reset in the middle of a 360p run.
    let mut plan: Vec<(Resolution, bool)> = Resolution::LADDER
        .iter()
        .flat_map(|&rung| [(rung, false); 3])
        .collect();
    plan.extend([(Resolution::R240, false); 2]);
    plan.extend([
        (Resolution::R360, false),
        (Resolution::R360, false),
        (Resolution::R360, true),
        (Resolution::R360, false),
    ]);
    let mut reached = Reached::default();
    for (ci, category) in [Category::Challenges, Category::Vlogs, Category::GamePlay]
        .into_iter()
        .enumerate()
    {
        let mut video = SyntheticVideo::new(SceneConfig::preset(category, oh, ow), 40 + ci as u64);
        play(&mut sr, &mut video, &plan, |_, lr| lr, &mut reached);
    }
    assert!(
        reached.residual,
        "the trained heads left every output at the base"
    );
    assert!(reached.warm > 0, "no frame warped a previous output");
}

/// At scale 4, where the 360p residual is copied rather than resized: a
/// short warm 360p run, one of whose LR frames is stretched to [-1, 2] so
/// the output clamps at both ends, then a switch to 240p, which resizes.
#[test]
fn upscale_is_bit_identical_when_the_residual_has_the_output_size() {
    let mut sr = trained(4, 1);
    let (ow, oh) = (sr.config().out_width, sr.config().out_height);
    let (lw, lh) = sr.config().lr_dims(Resolution::R360);
    let shuffle = sr.config().shuffle_factor(Resolution::R360);
    assert_eq!(
        (lw * shuffle, lh * shuffle),
        (ow, oh),
        "the residual is resized"
    );

    let plan = [
        (Resolution::R360, false),
        (Resolution::R360, false),
        (Resolution::R360, false),
        (Resolution::R240, false),
        (Resolution::R240, false),
    ];
    const STRETCHED: usize = 2;
    let mut video = SyntheticVideo::new(SceneConfig::preset(Category::Skit, oh, ow), 44);
    let mut reached = Reached::default();
    let outputs = play(
        &mut sr,
        &mut video,
        &plan,
        |step, lr| {
            if step == STRETCHED {
                Frame::from_fn(lr.width(), lr.height(), |x, y| lr.get(x, y) * 3.0 - 1.0)
            } else {
                lr
            }
        },
        &mut reached,
    );
    assert!(
        reached.residual,
        "the trained heads left every output at the base"
    );
    assert!(reached.warm > 0, "no frame warped a previous output");
    let clamped = outputs[STRETCHED].data();
    assert!(clamped.contains(&0.0), "no output clamped at 0");
    assert!(clamped.contains(&1.0), "no output clamped at 1");
}
