//! `SuperResolver::upscale` bit for bit against its eager-warp form.
//!
//! `oracle` below is `upscale` as it was before the warp moved to LR
//! resolution: it upsamples the flow to the output grid, warps the
//! previous output there, and resizes the warp to the rung's LR size; on
//! a cold start it resizes a clone of the bilinear base. Only the meter
//! scope around the head is left out, since the meter does not touch
//! values. The heads are trained a few seeded steps first, so that their
//! residuals, and with them every warped input, reach the output.

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

/// Every ladder rung over multi-frame clips of several categories, with
/// rung switches (which drop the temporal state) and explicit resets;
/// every output must match the oracle's bit for bit.
#[test]
fn upscale_is_bit_identical_to_the_eager_warp() {
    let config = SrConfig::at_scale(8);
    let (ow, oh) = (config.out_width, config.out_height);
    let mut sr = SuperResolver::new(config);
    let mut training = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, oh, ow), 7);
    train_sr_all(&mut sr, &mut training, 3);

    let mut oracle = Oracle::default();
    let (mut frames, mut warm, mut residual) = (0, 0, false);
    for (ci, category) in [Category::Challenges, Category::Vlogs, Category::GamePlay]
        .into_iter()
        .enumerate()
    {
        let mut video = SyntheticVideo::new(SceneConfig::preset(category, oh, ow), 40 + ci as u64);
        // Each rung of the ladder, then a rung switch straight back to
        // 240p and a reset in the middle of a 360p run.
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
        let mut prev_rung = None;
        for (rung, reset) in plan {
            if reset {
                sr.reset();
                oracle.reset();
            }
            let gt = video.next_frame();
            let (lw, lh) = sr.config().lr_dims(rung);
            let lr = gt.resize(lw, lh);
            let want = oracle.upscale(&mut sr, &lr, rung);
            let got = sr.upscale(&lr, rung);
            assert!(
                bits(&got) == bits(&want),
                "{category:?} frame {frames} at {rung:?} differs from the oracle"
            );
            if rung != Resolution::R1080 {
                residual |= got != lr.resize(ow, oh).clamp01();
                warm += usize::from(!reset && prev_rung == Some(rung));
            }
            prev_rung = Some(rung);
            frames += 1;
        }
    }
    assert!(residual, "the trained heads left every output at the base");
    assert!(warm > 0, "no frame warped a previous output");
}
