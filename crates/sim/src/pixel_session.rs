//! The pixel-accurate streaming session.
//!
//! Unlike [`crate::session`] (which uses calibrated quality maps, as the
//! paper's own QoE methodology does), this mode pushes *actual pixels*
//! through the whole stack at a reduced evaluation scale: synthetic video
//! → block codec at a rate-controlled bitrate → per-packet transmission
//! over the QUIC-like channel → (partial) decode → binary-point-code
//! recovery → PSNR against the source. It exists to validate that the
//! calibrated simulator's story holds when nothing is abstracted.
//!
//! It is deliberately small: short chunks, one rate rule, no SR — the
//! DNN-quality and QoE experiments each have their own dedicated
//! machinery; this is the cross-check that ties them together.

use nerve_abr::mpc::PACKET_BYTES;
use nerve_codec::packet::{packetize, slice_presence, VideoPacket};
use nerve_codec::rate::{encode_chunk_at_kbps, RateController};
use nerve_codec::{Decoder, Encoder, EncoderConfig};
use nerve_core::point_code::{PointCodeConfig, PointCodeEncoder};
use nerve_core::recovery::{PartialFrame, RecoveryConfig, RecoveryModel};
use nerve_net::clock::SimTime;
use nerve_net::faults::{FaultPlan, FaultyLoss};
use nerve_net::integrity::flip_bytes;
use nerve_net::link::Link;
use nerve_net::loss::GilbertElliott;
use nerve_net::quicish::QuicStream;
use nerve_net::trace::NetworkTrace;
use nerve_video::frame::Frame;
use nerve_video::metrics::psnr;
use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

/// Configuration of a pixel-accurate run.
#[derive(Debug, Clone)]
pub struct PixelSessionConfig {
    pub trace: NetworkTrace,
    /// Output frame dimensions (evaluation scale).
    pub width: usize,
    pub height: usize,
    /// Frames per chunk (kept short: pixel encoding is the bottleneck).
    pub chunk_frames: usize,
    pub chunks: usize,
    /// Target bitrate in kbps at the evaluation scale.
    pub kbps: u32,
    /// Client-side recovery on/off.
    pub recovery: bool,
    pub seed: u64,
    /// Injected transport faults (corruption windows matter here: a
    /// residually corrupted packet is delivered and must be caught by
    /// the codec packet CRC, never rendered).
    pub faults: FaultPlan,
}

impl PixelSessionConfig {
    pub fn small(trace: NetworkTrace, recovery: bool) -> Self {
        Self {
            trace,
            width: 112,
            height: 64,
            chunk_frames: 8,
            chunks: 4,
            kbps: 260,
            recovery,
            seed: 11,
            faults: FaultPlan::default(),
        }
    }
}

/// Results of a pixel-accurate run.
#[derive(Debug, Clone)]
pub struct PixelSessionResult {
    /// Mean PSNR of every displayed frame against the source.
    pub mean_psnr: f64,
    /// Frames that could not be fully decoded.
    pub impaired_frames: usize,
    pub total_frames: usize,
    /// Mean PSNR over impaired frames only.
    pub impaired_psnr: f64,
    /// Delivered packets whose payload failed the codec CRC (residual
    /// transport corruption demoted to an erasure at the client).
    pub crc_rejected: usize,
}

/// Run the pixel-accurate session.
pub fn run_pixel_session(config: &PixelSessionConfig) -> PixelSessionResult {
    let (w, h) = (config.width, config.height);
    let mut scene = SceneConfig::preset(Category::GamePlay, h, w);
    scene.motion = scene.motion.max(1.4);
    scene.pan_speed = scene.pan_speed.max(0.5);
    let mut video = SyntheticVideo::new(scene, config.seed);

    let mut media = QuicStream::new(
        Link::new(config.trace.clone()).with_faults(config.faults.clone()),
        FaultyLoss::new(
            GilbertElliott::with_rate(
                config.trace.loss_rate.min(0.49),
                config.trace.kind.mean_burst(),
                config.seed,
            ),
            config.faults.clone(),
        ),
    );

    let code_cfg = PointCodeConfig {
        width: (w / 2).max(16),
        height: (h / 2).max(8),
        threshold_percentile: 0.8,
    };
    let pc_encoder = PointCodeEncoder::new(code_cfg.clone());
    let mut recovery = RecoveryModel::new(RecoveryConfig::with_code(h, w, code_cfg));

    let mut encoder = Encoder::new(EncoderConfig::new(w, h));
    let mut rc = RateController::new();
    let mut decoder = Decoder::new(w, h);

    let mut now = SimTime::ZERO;
    let mut psnr_sum = 0.0;
    let mut impaired = 0usize;
    let mut impaired_psnr_sum = 0.0;
    let mut total = 0usize;
    let mut crc_rejected = 0usize;

    for _ in 0..config.chunks {
        let frames: Vec<Frame> = video.take_frames(config.chunk_frames);
        let (encoded, _) = encode_chunk_at_kbps(
            &mut encoder,
            &mut rc,
            &frames,
            config.kbps,
            config.chunk_frames as f64 / 30.0,
        );

        for (fi, e) in encoded.iter().enumerate() {
            let gt = &frames[fi];
            // Transmit each slice as packets.
            let packets = packetize(e, PACKET_BYTES);
            let sizes: Vec<usize> = packets.iter().map(|p| p.wire_bytes()).collect();
            let outcomes = media.send_burst(&sizes, now);
            now += SimTime::from_millis(33);
            let mut delivered: Vec<VideoPacket> = Vec::new();
            for (pi, (p, o)) in packets.iter().zip(outcomes.iter()).enumerate() {
                if o.arrival.is_none() {
                    continue;
                }
                let mut p = p.clone();
                if o.corrupted {
                    // The transport delivered a residually corrupted copy:
                    // flip real payload bytes so the codec packet CRC — not
                    // a simulation flag — is what keeps it off the screen.
                    let salt = config.seed ^ (((total as u64) << 8) | pi as u64);
                    flip_bytes(&mut p.payload, salt, 2);
                }
                if p.verify() {
                    delivered.push(p);
                } else {
                    crc_rejected += 1;
                }
            }
            let received: Vec<&VideoPacket> = delivered.iter().collect();
            let present = slice_presence(&received, e.slices.len());

            let pd = decoder.decode_partial(e, &present);
            let displayed = if pd.complete {
                pd.frame.clone()
            } else if config.recovery {
                let prev = recovery_prev(&decoder, w, h);
                let partial = PartialFrame::new(pd.frame.clone(), pd.row_mask());
                let rec = recovery.recover(&prev, &pc_encoder.encode(gt), Some(&partial));
                decoder.set_reference(rec.clone());
                rec
            } else {
                pd.frame.clone() // frame-copy concealment only
            };
            if pd.complete {
                recovery.observe(&displayed);
            }

            let q = psnr(&displayed, gt);
            psnr_sum += q;
            total += 1;
            if !pd.complete {
                impaired += 1;
                impaired_psnr_sum += q;
            }
        }
    }

    PixelSessionResult {
        mean_psnr: psnr_sum / total as f64,
        impaired_frames: impaired,
        total_frames: total,
        impaired_psnr: if impaired > 0 {
            impaired_psnr_sum / impaired as f64
        } else {
            0.0
        },
        crc_rejected,
    }
}

fn recovery_prev(decoder: &Decoder, w: usize, h: usize) -> Frame {
    decoder
        .reference()
        .cloned()
        .unwrap_or_else(|| Frame::new(w, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerve_net::trace::NetworkKind;

    fn lossy_trace(seed: u64) -> NetworkTrace {
        let mut t = NetworkTrace::generate(NetworkKind::WiFi, seed).downscaled(1.0);
        // Strong enough that the 64 frames across both seeds reliably
        // include a handful of impaired ones regardless of how the RNG
        // stream happens to land (0.08 left only 2 on some streams).
        t.loss_rate = 0.15;
        t
    }

    #[test]
    fn pixel_recovery_beats_frame_copy_concealment() {
        let mut with_sum = 0.0;
        let mut without_sum = 0.0;
        let mut impaired = 0usize;
        for seed in 1..=2 {
            let with = run_pixel_session(&PixelSessionConfig {
                seed,
                ..PixelSessionConfig::small(lossy_trace(seed), true)
            });
            let without = run_pixel_session(&PixelSessionConfig {
                seed,
                ..PixelSessionConfig::small(lossy_trace(seed), false)
            });
            assert_eq!(with.total_frames, without.total_frames);
            impaired += with.impaired_frames;
            with_sum += with.impaired_psnr * with.impaired_frames as f64;
            without_sum += without.impaired_psnr * without.impaired_frames as f64;
        }
        assert!(impaired >= 3, "loss injection too weak ({impaired} frames)");
        assert!(
            with_sum > without_sum,
            "pixel-level recovery {with_sum:.1} must beat concealment {without_sum:.1}"
        );
    }

    #[test]
    fn lossless_runs_are_clean() {
        let mut t = NetworkTrace::generate(NetworkKind::WiFi, 5).downscaled(1.0);
        t.loss_rate = 0.0;
        let r = run_pixel_session(&PixelSessionConfig::small(t, true));
        assert_eq!(r.impaired_frames, 0);
        assert_eq!(r.crc_rejected, 0);
        assert!(r.mean_psnr > 20.0, "clean decode PSNR {:.2}", r.mean_psnr);
    }

    #[test]
    fn corrupted_packets_never_reach_the_renderer() {
        // An otherwise lossless link, but every packet in a long window
        // is corrupted and every corruption beats the *transport* CRC:
        // the codec packet CRC is the only line of defence left.
        let mut t = NetworkTrace::generate(NetworkKind::WiFi, 7).downscaled(1.0);
        t.loss_rate = 0.0;
        let mut cfg = PixelSessionConfig::small(t, true);
        cfg.faults = FaultPlan::default()
            .corrupt(SimTime::ZERO, SimTime::from_secs_f64(2.0), 0.6)
            .with_residual_corrupt_rate(1.0);
        let r = run_pixel_session(&cfg);
        assert!(
            r.crc_rejected > 0,
            "corruption window must produce CRC-rejected deliveries"
        );
        assert!(
            r.impaired_frames > 0,
            "rejected packets must surface as erasures, not clean frames"
        );
        // Erasure + recovery keeps displayed quality sane; a corrupted
        // slice decoded as-is would crater PSNR far below this floor.
        assert!(r.mean_psnr > 15.0, "mean PSNR {:.2}", r.mean_psnr);

        let again = run_pixel_session(&cfg);
        assert_eq!(r.crc_rejected, again.crc_rejected);
        assert_eq!(r.mean_psnr.to_bits(), again.mean_psnr.to_bits());
    }
}
