//! Seeded byte-mutation fuzzing of the decode trust boundaries.
//!
//! No cargo-fuzz, no corpus on disk, no network: a SplitMix64 stream
//! ([`DetRng`]) drives ≥10 000 mutated inputs per target, entirely
//! offline and bit-reproducible. The targets are the places hostile
//! bytes enter the client:
//!
//! * **bitstream decode** — `decode_block` over arbitrary buffers and
//!   `Decoder::try_decode_partial` over frames whose slice payloads were
//!   mutated; both must return structured results, never panic.
//! * **packet reassembly** — `slice_presence` / `reassemble` over
//!   packets with flipped payloads, corrupted CRCs, truncations,
//!   extensions, drops, duplicates, and reorderings.
//! * **FEC shard join** — `open_shards` + `ReedSolomon::reconstruct`
//!   over sealed shards mutated in flight.
//! * **sealed state frames** — all five formats that travel in
//!   [`Frame`]: session checkpoints (NRVC), live fleet checkpoints
//!   (NRVL), fleet checkpoints (NRVF), handoff tickets (NRVT, through
//!   `verify_ticket`, the acceptance check behind
//!   `ServerSim::install_ticket`) and weight deltas (NRVM). Whole
//!   frames are mutated in flight, bodies are mutated and resealed so
//!   the parser sees damage the CRC cannot, and raw noise is fed in.
//!   Every input comes back as a typed [`FrameError`] or as a frame
//!   that re-encodes to exactly the input bytes.
//! * **delta weight updates** — `WeightDelta::apply` after a mutated
//!   `"NRVM"` frame parses: nothing that clears the CRC may differ from
//!   what was sent, and a wrong-base apply is refused.
//!
//! Two properties per target: *no panic* on any input, and *no silent
//! mis-decode past the CRC* — any bytes that clear an integrity check
//! must be exactly the bytes that were sent (a corrupted unit demotes
//! to an erasure or a loud error instead). Codec packet headers are not
//! mutated here: on the wire they travel inside the transport's own
//! sealed frame, so payload-level corruption is the adversary this
//! harness models.
//!
//! A failing iteration writes its seed and detail to
//! `target/fuzz-failures/<target>-<seed>.txt` before failing the test,
//! so the CI fuzz-soak job can upload reproducers as artifacts.

use nerve_codec::bitstream::decode_block;
use nerve_codec::packet::{packetize, reassemble, slice_presence, VideoPacket};
use nerve_codec::{Decoder, EncodedFrame, Encoder, EncoderConfig};
use nerve_core::LivePolicy;
use nerve_fec::packetize::{join, open_shards, seal_shards, split};
use nerve_fec::ReedSolomon;
use nerve_model::delta::{delta_for, weights_at};
use nerve_model::fingerprint::HeadId;
use nerve_model::{WeightDelta, DELTA_FRAME};
use nerve_net::bytes::{Frame, FrameError};
use nerve_net::integrity::{open, seal};
use nerve_net::trace::{NetworkKind, NetworkTrace};
use nerve_rng::{DetRng, Rng};
use nerve_serve::handoff::{sample_ticket, verify_ticket};
use nerve_serve::{
    checkpoint_fleet, verify_fleet_checkpoint, FleetConfig, ServerFailure, FLEET_CKPT_FRAME,
    TICKET_FRAME,
};
use nerve_sim::checkpoint::{SessionCheckpoint, SESSION_FRAME};
use nerve_sim::live::{fir_storm_config, LiveCheckpoint, LiveFleetRunner, LIVE_FRAME};
use nerve_sim::session::{Scheme, SessionConfig, SessionRunner};
use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Mutated inputs per target. The acceptance bar is ≥10k each.
const ITERATIONS: u64 = 10_000;

fn failure_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("fuzz-failures")
}

/// Persist a reproducer before the test dies, so a CI artifact upload
/// of `target/fuzz-failures/` captures everything needed to replay.
fn record_failure(target: &str, seed: u64, detail: &str) {
    let dir = failure_dir();
    let _ = std::fs::create_dir_all(&dir);
    let body = format!(
        "target: {target}\nseed: {seed}\ndetail: {detail}\n\
         replay: cargo test --test fuzz_mutation {target} (seed is derived, not random)\n"
    );
    let _ = std::fs::write(dir.join(format!("{target}-{seed}.txt")), body);
}

/// Drive one fuzz body across the deterministic seed stream, catching
/// panics (including property-assertion failures) so the seed can be
/// recorded before the test reports.
fn run_fuzz(target: &str, salt: u64, mut body: impl FnMut(u64)) {
    for i in 0..ITERATIONS {
        let seed = (salt << 32) | i;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(seed))) {
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            record_failure(target, seed, &detail);
            panic!("{target}: seed {seed} failed: {detail}");
        }
    }
}

/// Apply one random byte-level mutation to `bytes`.
fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut DetRng) {
    match rng.random_range(0..5u32) {
        // Flip 1–4 bytes.
        0 => {
            if !bytes.is_empty() {
                for _ in 0..rng.random_range(1..=4usize) {
                    let i = rng.random_range(0..bytes.len());
                    bytes[i] ^= rng.random_range(1..=255u32) as u8;
                }
            }
        }
        // Truncate at a random point.
        1 => {
            let keep = rng.random_range(0..=bytes.len());
            bytes.truncate(keep);
        }
        // Extend with random garbage.
        2 => {
            for _ in 0..rng.random_range(1..=16usize) {
                bytes.push(rng.random_range(0..=255u32) as u8);
            }
        }
        // Overwrite a random run with one value (stuck bits).
        3 => {
            if !bytes.is_empty() {
                let start = rng.random_range(0..bytes.len());
                let end = (start + rng.random_range(1..=8usize)).min(bytes.len());
                let v = rng.random_range(0..=255u32) as u8;
                bytes[start..end].fill(v);
            }
        }
        // Splice: copy one region over another (self-similar corruption).
        _ => {
            if bytes.len() >= 2 {
                let src = rng.random_range(0..bytes.len());
                let dst = rng.random_range(0..bytes.len());
                let n = rng
                    .random_range(1..=8usize)
                    .min(bytes.len() - src)
                    .min(bytes.len() - dst);
                let copied: Vec<u8> = bytes[src..src + n].to_vec();
                bytes[dst..dst + n].copy_from_slice(&copied);
            }
        }
    }
}

/// Two consecutive frames (an intra and its inter successor) from the
/// synthetic source — the inter frame exercises the motion/residual
/// paths of the bitstream as well.
fn encoded_fixture() -> Vec<EncodedFrame> {
    let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Skit, 48, 64), 55);
    let mut enc = Encoder::new(EncoderConfig::new(64, 48));
    (0..2)
        .map(|_| {
            let f = v.next_frame();
            enc.encode_next(&f, 1.0)
        })
        .collect()
}

#[test]
fn fuzz_bitstream_decode_never_panics() {
    let frames = encoded_fixture();
    let mut decoded_ok = 0u64;
    let mut decoded_err = 0u64;

    run_fuzz("bitstream", 0xB175, |seed| {
        let mut rng = DetRng::new(seed);
        let base = &frames[(seed & 1) as usize];

        // Raw block decode over a mutated slice buffer: walk the whole
        // buffer the way decode_slice does. Every outcome must be a
        // structured Ok/Err; pos always advances so the walk terminates.
        let si = rng.random_range(0..base.slices.len());
        let mut data = base.slices[si].data.clone();
        for _ in 0..rng.random_range(1..=3usize) {
            mutate_bytes(&mut data, &mut rng);
        }
        let mut pos = 0usize;
        let mut walk_errored = false;
        while pos < data.len() {
            let before = pos;
            match decode_block(&data, &mut pos) {
                Ok(_) => assert!(pos > before, "decode_block must consume bytes"),
                Err(_) => {
                    walk_errored = true;
                    break;
                }
            }
        }

        // Whole-frame decode with the mutated slice spliced in: the
        // fallible entry point must absorb the corruption (the slice is
        // demoted to lost), never abort.
        let mut frame = base.clone();
        frame.slices[si].data = data;
        let mut dec = Decoder::new(frame.width, frame.height);
        let present = vec![true; frame.slices.len()];
        match dec.try_decode_partial(&frame, &present) {
            Ok(_) => decoded_ok += 1,
            Err(e) => panic!("try_decode_partial must be total over payload bytes: {e}"),
        }
        // Sanity side-channel: raw walks that error are expected often.
        if walk_errored {
            decoded_err += 1;
        }
    });

    assert_eq!(decoded_ok, ITERATIONS);
    assert!(decoded_err > 0, "mutations never produced a decode error");
}

#[test]
fn fuzz_packet_reassembly_never_misdecodes() {
    let frames = encoded_fixture();
    let frame = &frames[0];
    // Small MTU so slices span several packets (multi-part reassembly).
    let packets = packetize(frame, 48);
    let n_slices = frame.slices.len();
    let mut erasures_seen = 0u64;

    run_fuzz("packets", 0x9AC7, |seed| {
        let mut rng = DetRng::new(seed);
        let mut pkts: Vec<VideoPacket> = packets.clone();

        for _ in 0..rng.random_range(1..=4usize) {
            if pkts.is_empty() {
                break;
            }
            let i = rng.random_range(0..pkts.len());
            match rng.random_range(0..6u32) {
                // Payload mutation without restamping the CRC — the
                // receiver must catch it.
                0..=2 => mutate_bytes(&mut pkts[i].payload, &mut rng),
                // CRC field corruption (header bitflip).
                3 => pkts[i].crc ^= rng.random_range(1..=u32::MAX),
                // Loss.
                4 => {
                    pkts.remove(i);
                }
                // Duplication + reordering (network reorder/replay).
                _ => {
                    let dup = pkts[i].clone();
                    let j = rng.random_range(0..=pkts.len());
                    pkts.insert(j, dup);
                }
            }
        }

        let received: Vec<&VideoPacket> = pkts.iter().collect();
        let mask = slice_presence(&received, n_slices);
        let slices = reassemble(&received, n_slices);
        assert_eq!(mask.len(), n_slices);
        assert_eq!(slices.len(), n_slices);

        for (si, got) in slices.iter().enumerate() {
            match got {
                // The property under test: anything that reassembles
                // must be byte-identical to what was packetized. A
                // mutated payload either fails its CRC (erasure) or —
                // at ~2^-32 per trial — would be a genuine collision.
                Some(bytes) => assert_eq!(
                    bytes.as_slice(),
                    frame.slices[si].data.as_slice(),
                    "slice {si} silently mis-decoded past the CRC"
                ),
                None => erasures_seen += 1,
            }
            // Presence and reassembly must agree.
            assert_eq!(mask[si], got.is_some(), "mask/reassembly disagree on {si}");
        }
    });

    assert!(erasures_seen > 0, "mutations never produced an erasure");
}

#[test]
fn fuzz_fec_shard_join_never_misdecodes() {
    let payload: Vec<u8> = (0..3000u32)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let (k, parity) = (8usize, 4usize);
    let rs = ReedSolomon::new(k, parity).unwrap();
    let sealed = seal_shards(&rs.encode(&split(&payload, k)).unwrap());
    let mut recovered = 0u64;
    let mut refused = 0u64;

    run_fuzz("fec", 0xFEC5, |seed| {
        let mut rng = DetRng::new(seed);
        let mut wire: Vec<Option<Vec<u8>>> = sealed.iter().cloned().map(Some).collect();

        for _ in 0..rng.random_range(1..=6usize) {
            let i = rng.random_range(0..wire.len());
            match rng.random_range(0..4u32) {
                // In-flight byte corruption of a sealed shard.
                0..=1 => {
                    if let Some(shard) = wire[i].as_mut() {
                        mutate_bytes(shard, &mut rng);
                    }
                }
                // Outright loss.
                2 => wire[i] = None,
                // Replace with pure garbage of plausible length.
                _ => {
                    let len = rng.random_range(0..=sealed[0].len() + 8);
                    let mut junk = vec![0u8; len];
                    for b in junk.iter_mut() {
                        *b = rng.random_range(0..=255u32) as u8;
                    }
                    wire[i] = Some(junk);
                }
            }
        }

        // Every mutated shard must open to an erasure; survivors open to
        // their exact sealed payload. Then reconstruction either refuses
        // loudly or returns data whose join equals the original payload.
        let opened = open_shards(&wire);
        for (i, o) in opened.iter().enumerate() {
            if let Some(bytes) = o {
                assert_eq!(
                    bytes.as_slice(),
                    &sealed[i][..sealed[i].len() - 4],
                    "shard {i} opened to different bytes than were sealed"
                );
            }
        }
        match rs.reconstruct(&opened) {
            Ok(shards) => {
                let joined = join(&shards[..k]).expect("reconstructed shards must join");
                assert_eq!(joined, payload, "FEC silently mis-decoded past the CRC");
                recovered += 1;
            }
            Err(_) => refused += 1,
        }
    });

    assert!(recovered > 0, "no iteration ever recovered the payload");
    assert!(refused > 0, "no iteration ever exceeded the erasure budget");
}

#[test]
fn fuzz_delta_weight_frames_never_misapply() {
    let head = HeadId::from_code(3).expect("specialist code");
    let deltas: Vec<WeightDelta> = (0..4).map(|v| delta_for(0xD317A, head, v)).collect();
    let frames: Vec<Vec<u8>> = deltas.iter().map(|d| d.to_bytes()).collect();
    let mut parsed_ok = 0u64;
    let mut parse_rejected = 0u64;
    let mut apply_rejected = 0u64;

    run_fuzz("delta", 0xDE17, |seed| {
        let mut rng = DetRng::new(seed);
        let vi = rng.random_range(0..frames.len());
        let mut bytes = frames[vi].clone();
        for _ in 0..rng.random_range(1..=3usize) {
            mutate_bytes(&mut bytes, &mut rng);
        }

        match WeightDelta::from_bytes(&bytes) {
            Ok(d) => {
                // The property under test: anything that parses past
                // the CRC must be exactly the frame that was sent —
                // corruption demotes to a typed error, never to a
                // silently different update.
                assert_eq!(
                    d, deltas[vi],
                    "a mutated frame parsed to a different delta past the CRC"
                );
                parsed_ok += 1;

                // Apply against every weight version: the adjacent one
                // must succeed, every other must refuse loudly with a
                // typed error — no panic, no silent wrong-base apply.
                for v in 0..4u32 {
                    let mut w = weights_at(0xD317A, head, v);
                    let crc_before = w.crc();
                    match d.apply(&mut w) {
                        Ok(()) => assert_eq!(v, d.from_version, "apply accepted a wrong base"),
                        Err(_) => {
                            assert_ne!(v, d.from_version, "apply refused its own base");
                            assert_eq!(crc_before, w.crc(), "a refused apply mutated weights");
                            apply_rejected += 1;
                        }
                    }
                }
            }
            Err(_) => parse_rejected += 1,
        }
    });

    assert!(parsed_ok > 0, "no mutated frame ever survived intact");
    assert!(parse_rejected > 0, "mutations never produced a parse error");
    assert!(apply_rejected > 0, "wrong-base applies were never refused");
}

/// One sealed wire format: its frame header, a corpus of pristine
/// frames, and its decoder reduced to "decode, then re-encode what was
/// decoded".
struct WireFormat {
    name: &'static str,
    frame: Frame,
    corpus: Vec<Vec<u8>>,
    reencode: Reencode,
}

/// Decode, then re-encode what was decoded.
type Reencode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, FrameError>>;

/// The five sealed formats, each with frames taken from real runs (or,
/// for tickets and deltas, from their deterministic generators).
fn wire_formats() -> Vec<WireFormat> {
    use nerve_abr::qoe::QualityMaps;

    let trace = NetworkTrace::generate(NetworkKind::FiveG, 21).downscaled(1.5);
    let maps = QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400]);
    let mut session_cfg = SessionConfig::new(trace, maps, Scheme::nerve());
    session_cfg.chunks = 6;
    session_cfg.seed = 21;
    let mut session = SessionRunner::new(session_cfg);
    let mut sessions = vec![session.checkpoint().to_bytes()];
    while !session.is_done() {
        session.step(None);
        sessions.push(session.checkpoint().to_bytes());
    }

    let mut live = LiveFleetRunner::new(fir_storm_config(LivePolicy::Budget, 6, 150, 42));
    let mut lives = Vec::new();
    for _ in 0..3 {
        lives.push(live.checkpoint().to_bytes());
        for _ in 0..50 {
            live.step(None);
        }
    }

    let mut fleet_cfg = FleetConfig::small(8, 59);
    fleet_cfg.servers = 4;
    fleet_cfg.failures = vec![ServerFailure {
        server: 1,
        at_secs: 4.0,
        rejoin_secs: Some(7.0),
    }];
    let fleet_trace = NetworkTrace::generate(NetworkKind::WiFi, 59).downscaled(12.0);
    let fleets = [2.0, 4.02, 6.5]
        .iter()
        .map(|&at| checkpoint_fleet(&fleet_cfg, &fleet_trace, at))
        .collect();

    let ticket_cfg = FleetConfig::small(8, 0xA11CE);
    let ticket_maps = QualityMaps::placeholder(&ticket_cfg.ladder_kbps);
    // Dirty mid-run tickets spanning the wire shapes: phase variants,
    // optional caps and model blocks, varied vector lengths.
    let tickets = (0..32u64)
        .map(|salt| {
            let id = (salt % 8) as usize;
            sample_ticket(&ticket_cfg, &ticket_maps, id, salt.wrapping_mul(0x9E37))
        })
        .collect();

    let head = HeadId::from_code(3).expect("specialist code");
    let deltas = (0..4)
        .map(|v| delta_for(0xD317A, head, v).to_bytes())
        .collect();

    vec![
        WireFormat {
            name: "NRVC",
            frame: SESSION_FRAME,
            corpus: sessions,
            reencode: Box::new(|b| SessionCheckpoint::from_bytes(b).map(|c| c.to_bytes())),
        },
        WireFormat {
            name: "NRVL",
            frame: LIVE_FRAME,
            corpus: lives,
            reencode: Box::new(|b| LiveCheckpoint::from_bytes(b).map(|c| c.to_bytes())),
        },
        WireFormat {
            name: "NRVF",
            frame: FLEET_CKPT_FRAME,
            corpus: fleets,
            reencode: Box::new(verify_fleet_checkpoint),
        },
        WireFormat {
            name: "NRVT",
            frame: TICKET_FRAME,
            corpus: tickets,
            reencode: Box::new(move |b| verify_ticket(&ticket_cfg, &ticket_maps, b)),
        },
        WireFormat {
            name: "NRVM",
            frame: DELTA_FRAME,
            corpus: deltas,
            reencode: Box::new(|b| WeightDelta::from_bytes(b).map(|d| d.to_bytes())),
        },
    ]
}

/// Every format opens its own header and nothing else, and refuses a
/// body that is one byte short or one byte long — the checks the shared
/// frame makes for all of them.
#[test]
fn every_format_refuses_foreign_headers_and_bad_lengths() {
    for f in wire_formats() {
        let (magic, version) = (f.frame.magic, f.frame.version);
        for frame in &f.corpus {
            assert_eq!((f.reencode)(frame).as_ref(), Ok(frame), "{}", f.name);
            let body = open(frame).expect("pristine frame").to_vec();
            let resealed = |edit: &dyn Fn(&mut Vec<u8>)| {
                let mut b = body.clone();
                edit(&mut b);
                (f.reencode)(&seal(&b)).err()
            };
            let cases = [
                (
                    resealed(&|b| b[..4].copy_from_slice(&(magic ^ 1).to_le_bytes())),
                    FrameError::BadMagic(magic ^ 1),
                ),
                (
                    resealed(&|b| b[4..6].copy_from_slice(&(version + 1).to_le_bytes())),
                    FrameError::BadVersion(version + 1),
                ),
                (resealed(&|b| b.push(0)), FrameError::TrailingBytes(1)),
                (
                    resealed(&|b| b.truncate(b.len() - 1)),
                    FrameError::Truncated,
                ),
                (
                    (f.reencode)(&frame[..frame.len() - 1]).err(),
                    FrameError::Corrupt,
                ),
            ];
            for (got, want) in cases {
                assert_eq!(got, Some(want), "{}", f.name);
            }
        }
    }
}

#[test]
fn fuzz_sealed_frames_never_misdecode() {
    for (k, f) in wire_formats().iter().enumerate() {
        let mut accepted = 0u64;
        let mut refused = 0u64;

        run_fuzz("sealed_frames", 0x5EA1 + k as u64, |seed| {
            let mut rng = DetRng::new(seed);
            let pristine = &f.corpus[rng.random_range(0..f.corpus.len())];
            let mode = rng.random_range(0..3u32);
            let input = match mode {
                // A whole sealed frame damaged in flight: the CRC's job.
                0 => {
                    let mut bytes = pristine.clone();
                    for _ in 0..rng.random_range(1..=3usize) {
                        mutate_bytes(&mut bytes, &mut rng);
                    }
                    bytes
                }
                // A damaged body under a valid CRC: the parser's job.
                1 => {
                    let mut body = open(pristine).expect("pristine frame").to_vec();
                    for _ in 0..rng.random_range(1..=3usize) {
                        mutate_bytes(&mut body, &mut rng);
                    }
                    seal(&body)
                }
                // Raw noise, which must never be accepted.
                _ => (0..rng.random_range(0..=pristine.len() + 16))
                    .map(|_| rng.random_range(0..=255u32) as u8)
                    .collect(),
            };

            // Decoding must be total over arbitrary bytes (run_fuzz
            // catches panics), and whatever it accepts must re-encode to
            // exactly the input — the invariant `ServerSim::install_ticket`
            // asserts before adopting a session.
            match (f.reencode)(&input) {
                Ok(bytes) => {
                    assert!(mode != 2, "{}: raw noise was accepted", f.name);
                    if bytes != input {
                        let at = bytes.iter().zip(&input).take_while(|(a, b)| a == b).count();
                        panic!(
                            "{}: accepted frame re-encodes differently at byte {at}",
                            f.name
                        );
                    }
                    accepted += 1;
                }
                Err(_) => refused += 1,
            }
        });

        assert!(
            accepted > 0,
            "{}: no mutated frame was ever accepted",
            f.name
        );
        assert!(refused > 0, "{}: mutations never produced an error", f.name);
    }
}

#[test]
fn fuzz_pure_garbage_delta_frames_error_cleanly() {
    run_fuzz("delta-garbage", 0xDE18, |seed| {
        let mut rng = DetRng::new(seed);
        let len = rng.random_range(0..=512usize);
        let mut data = vec![0u8; len];
        for b in data.iter_mut() {
            *b = rng.random_range(0..=255u32) as u8;
        }
        // Raw noise must come back as a typed error (a 2^-32 CRC
        // collision per trial is the only escape, and it would still
        // have to parse as a structurally valid frame).
        assert!(WeightDelta::from_bytes(&data).is_err());
    });
}

#[test]
fn fuzz_nrvt_tickets_never_install_corruption() {
    use nerve_abr::qoe::QualityMaps;
    let cfg = FleetConfig::small(8, 0xA11CE);
    let maps = QualityMaps::placeholder(&cfg.ladder_kbps);
    // A corpus of dirty mid-run tickets spanning the wire shapes:
    // phase variants, optional caps/model blocks, varied vector lengths.
    let corpus: Vec<Vec<u8>> = (0..32u64)
        .map(|salt| sample_ticket(&cfg, &maps, (salt % 8) as usize, salt.wrapping_mul(0x9E37)))
        .collect();
    let mut survived = 0u64;
    let mut rejected = 0u64;

    run_fuzz("ticket", 0x7C4E, |seed| {
        let mut rng = DetRng::new(seed);
        let vi = rng.random_range(0..corpus.len());
        let mut bytes = corpus[vi].clone();
        for _ in 0..rng.random_range(1..=3usize) {
            mutate_bytes(&mut bytes, &mut rng);
        }

        // The install-side acceptance check must be total over arbitrary
        // bytes (run_fuzz catches panics), and anything it accepts must
        // re-encode to exactly the bytes presented — the invariant
        // `ServerSim::install_ticket` asserts before adopting a session.
        // A mutated ticket either survives intact, collides at ~2^-32,
        // or comes back as a typed FrameError.
        match verify_ticket(&cfg, &maps, &bytes) {
            Ok(reencoded) => {
                assert_eq!(
                    reencoded, bytes,
                    "a ticket was installed whose re-encode differs from the wire bytes"
                );
                survived += 1;
            }
            Err(_) => rejected += 1,
        }
    });

    assert!(survived > 0, "no mutated ticket ever survived intact");
    assert!(rejected > 0, "mutations never produced a ticket error");
}

#[test]
fn fuzz_pure_garbage_tickets_error_cleanly() {
    use nerve_abr::qoe::QualityMaps;
    let cfg = FleetConfig::small(8, 0xA11CE);
    let maps = QualityMaps::placeholder(&cfg.ladder_kbps);
    run_fuzz("ticket-garbage", 0x7C4F, |seed| {
        let mut rng = DetRng::new(seed);
        let len = rng.random_range(0..=768usize);
        let mut data = vec![0u8; len];
        for b in data.iter_mut() {
            *b = rng.random_range(0..=255u32) as u8;
        }
        // Raw noise never carries the sealed NRVT frame: the install
        // check must refuse with a typed error, never panic or accept.
        assert!(verify_ticket(&cfg, &maps, &data).is_err());
    });
}

#[test]
fn fuzz_pure_garbage_block_streams_error_cleanly() {
    // Not mutations of valid encodings but raw noise: the weakest
    // possible prior on the input. decode_block must stay total.
    run_fuzz("garbage", 0x6A4B, |seed| {
        let mut rng = DetRng::new(seed);
        let len = rng.random_range(0..=256usize);
        let mut data = vec![0u8; len];
        for b in data.iter_mut() {
            *b = rng.random_range(0..=255u32) as u8;
        }
        let mut pos = 0usize;
        while pos < data.len() {
            let before = pos;
            match decode_block(&data, &mut pos) {
                Ok(_) => assert!(pos > before),
                Err(_) => break,
            }
        }
    });
}
