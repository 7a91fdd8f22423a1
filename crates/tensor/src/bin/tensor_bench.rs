//! `nerve-tensor-bench` — the conv hot path, kernel by kernel.
//!
//! Measures MACs/sec for the direct and im2col+GEMM conv kernels over
//! the shapes the pipeline actually runs (SR head, enhancement head,
//! batcher backbone at occupancy 32), at 1/4/8 worker threads, plus the
//! fused head against the staged ops at one worker and the fleet
//! batcher's small backbone (`serve_backbone`) through `conv2d`, each
//! batch labelled with the path it takes (`direct` for one image,
//! `direct_lanes` for the eight-image lane blocks). Every
//! GEMM measurement is gated on bit-identity with the direct kernel
//! before it counts. Each rate is the median of [`REPEATS`] samples of
//! ~0.25 s.
//!
//! Writes `BENCH_tensor.json`. With `--digest-out PATH` it instead
//! writes one FNV-1a digest per kernel output (the shapes, the fused
//! head and the backbone at 13 and 1642 jobs) — wall-clock free, so CI
//! can `cmp` the file across `--jobs` values to prove the kernels and
//! meter are worker-count invariant.
//!
//! Usage:
//!   nerve-tensor-bench [--jobs N] [--out PATH] [--digest-out PATH]

use nerve_tensor::conv::{self, conv2d, conv2d_direct, ConvSpec};
use nerve_tensor::fused::{head_forward, PlaneSource};
use nerve_tensor::gemm::{self, conv2d_gemm};
use nerve_tensor::net::Conv2d;
use nerve_tensor::{par, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmarked conv shapes: `(label, n, spec, h, w)` — the shapes
/// the pipeline actually runs.
fn shapes() -> Vec<(&'static str, usize, ConvSpec, usize, usize)> {
    vec![
        // SR head at 240p eval geometry (96x160 LR plane).
        ("sr_head_conv1", 1, ConvSpec::same(3, 8, 3), 96, 160),
        // The SR-head money shape (K = 72): the ≥2x GEMM gate runs here.
        ("sr_head_conv2", 1, ConvSpec::same(8, 16, 3), 96, 160),
        // Enhancement head at working resolution.
        ("enhance_conv1", 1, ConvSpec::same(4, 8, 3), 64, 112),
        // Batcher backbone at occupancy 32 (ServerModel::bench()).
        ("batch32", 32, ConvSpec::same(8, 16, 3), 32, 64),
    ]
}

/// The fleet batcher's backbone, `serve::batcher::ServerModel::small()`:
/// 2 → 4 channels, 3×3, on 8×16 planes (K = 18, below the GEMM
/// threshold).
const BACKBONE: (ConvSpec, usize, usize) = (
    ConvSpec {
        in_channels: 2,
        out_channels: 4,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    8,
    16,
);

/// The backbone's batch sizes: one job, and the `lossy-storm` fleet's
/// traced `serve.occupancy_mean` (perfbench, seed 1: 1642.2 jobs per
/// stacked call).
const BACKBONE_BATCHES: [usize; 2] = [1, 1642];

/// The backbone's batch sizes in the digest file, both on the lane
/// blocks: 13 (one full block and one with three idle lanes, below the
/// parallel split) and 1642 (206 blocks, split at `--jobs` > 1).
const BACKBONE_DIGEST_BATCHES: [usize; 2] = [13, 1642];

/// The path `conv2d` takes for a batch of `n` on `spec` at `oh x ow`.
fn conv_path(spec: ConvSpec, n: usize, oh: usize, ow: usize) -> &'static str {
    if gemm::eligible(spec, oh, ow) {
        "gemm"
    } else if n >= conv::LANES {
        "direct_lanes"
    } else {
        "direct"
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_tensor.json".to_string();
    let mut digest_out: Option<String> = None;
    let mut jobs_override: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs_override = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--jobs needs a positive integer")),
                )
            }
            "--out" => {
                out_path = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .clone()
            }
            "--digest-out" => {
                digest_out = Some(
                    it.next()
                        .unwrap_or_else(|| die("--digest-out needs a path"))
                        .clone(),
                )
            }
            _ => {
                if let Some(v) = a.strip_prefix("--jobs=") {
                    jobs_override = Some(
                        v.parse()
                            .ok()
                            .filter(|&n: &usize| n > 0)
                            .unwrap_or_else(|| die("--jobs needs a positive integer")),
                    );
                } else if let Some(v) = a.strip_prefix("--out=") {
                    out_path = v.to_string();
                } else if let Some(v) = a.strip_prefix("--digest-out=") {
                    digest_out = Some(v.to_string());
                } else {
                    die(&format!("unknown argument {a}"));
                }
            }
        }
    }
    if let Some(n) = jobs_override {
        par::set_workers(n);
    }

    if let Some(path) = digest_out {
        write_digests(&path);
        return;
    }

    let mut shape_entries = String::new();
    let mut sr_head_speedup = 0.0f64;
    for (label, n, spec, h, w) in shapes() {
        let input = seeded_input(0xBEEF ^ label.len() as u32, n, spec.in_channels, h, w);
        let weight = seeded_weight(0xFACE, spec);
        let bias = seeded_bias(0xD00D, spec);
        let (macs, _) = spec.forward_work(n, h, w);

        // Bit-identity gate before any timing counts.
        let d = conv2d_direct(&input, &weight, &bias, spec);
        let g = conv2d_gemm(&input, &weight, &bias, spec);
        assert_eq!(
            d.data(),
            g.data(),
            "{label}: GEMM output diverged from direct"
        );

        let mut rows = String::new();
        for jobs in [1usize, 4, 8] {
            let direct = with_workers(jobs, || {
                time_macs_per_sec(macs, || {
                    let _ = conv2d_direct(&input, &weight, &bias, spec);
                })
            });
            let gemm = with_workers(jobs, || {
                time_macs_per_sec(macs, || {
                    let _ = conv2d_gemm(&input, &weight, &bias, spec);
                })
            });
            if label == "sr_head_conv2" && jobs == 1 {
                sr_head_speedup = gemm / direct;
            }
            if !rows.is_empty() {
                rows.push(',');
            }
            let _ = write!(
                rows,
                "\n      {{\"jobs\": {jobs}, \"direct_macs_per_sec\": {direct:.3e}, \
                 \"gemm_macs_per_sec\": {gemm:.3e}, \"speedup\": {:.2}}}",
                gemm / direct
            );
            eprintln!(
                "[{label} jobs={jobs}: direct {direct:.2e} MACs/s, gemm {gemm:.2e} \
                 MACs/s ({:.2}x)]",
                gemm / direct
            );
        }
        if !shape_entries.is_empty() {
            shape_entries.push(',');
        }
        let _ = write!(
            shape_entries,
            "\n    {{\"shape\": \"{label}\", \"n\": {n}, \"in_c\": {}, \"out_c\": {}, \
             \"kernel\": {}, \"h\": {h}, \"w\": {w}, \"macs\": {macs}, \"threads\": [{rows}\n    ]}}",
            spec.in_channels, spec.out_channels, spec.kernel
        );
    }

    // The batcher's backbone through `conv2d`, at whatever kernel it
    // dispatches to.
    let (spec, h, w) = BACKBONE;
    let (oh, ow) = spec.out_size(h, w);
    let weight = seeded_weight(0xFACE, spec);
    let bias = seeded_bias(0xD00D, spec);
    let mut backbone = format!(
        "{{\"in_c\": {}, \"out_c\": {}, \"kernel\": {}, \"h\": {h}, \"w\": {w}, \"batches\": [",
        spec.in_channels, spec.out_channels, spec.kernel
    );
    for (i, n) in BACKBONE_BATCHES.into_iter().enumerate() {
        let input = seeded_input(0x5E4E ^ n as u32, n, spec.in_channels, h, w);
        let (macs, _) = spec.forward_work(n, h, w);
        let kernel = conv_path(spec, n, oh, ow);
        let rate = time_macs_per_sec(macs, || {
            let _ = conv2d(&input, &weight, &bias, spec);
        });
        eprintln!("[serve_backbone n={n}: {kernel} {:.3} GMAC/s]", rate / 1e9);
        let _ = write!(
            backbone,
            "{}\n      {{\"n\": {n}, \"kernel\": \"{kernel}\", \"gmacs_per_s\": {:.3}}}",
            if i > 0 { "," } else { "" },
            rate / 1e9
        );
    }
    backbone.push_str("\n  ]}");

    // Fused head vs staged ops at the SR-head shape, both at one worker:
    // `head_forward` is always serial, while the staged `conv2d` calls
    // would split across the pool.
    let (h, w) = (96usize, 160usize);
    let conv1 = seeded_conv(11, ConvSpec::same(3, 8, 3));
    let conv2 = seeded_conv(13, ConvSpec::same(8, 16, 3));
    let planes_data = seeded_input(17, 1, 3, h, w);
    let planes: Vec<&[f32]> = planes_data.data().chunks(h * w).collect();
    let head_macs = ConvSpec::same(3, 8, 3).forward_work(1, h, w).0
        + ConvSpec::same(8, 16, 3).forward_work(1, h, w).0;
    let fused_mps = with_workers(1, || {
        time_macs_per_sec(head_macs, || {
            let srcs: Vec<PlaneSource> = planes.iter().map(|p| PlaneSource::Slice(p)).collect();
            let _ = head_forward(&srcs, h, w, &conv1, &conv2, 4);
        })
    });
    let staged_mps = with_workers(1, || {
        time_macs_per_sec(head_macs, || {
            let h1 = nerve_tensor::ops::relu(&conv2d(
                &planes_data,
                &conv1.weight,
                &conv1.bias,
                conv1.spec,
            ));
            let c2 = conv2d(&h1, &conv2.weight, &conv2.bias, conv2.spec);
            let _ = nerve_tensor::ops::pixel_shuffle(&c2, 4);
        })
    });
    eprintln!(
        "[fused head, 1 worker: {fused_mps:.2e} MACs/s vs staged {staged_mps:.2e} ({:.2}x)]",
        fused_mps / staged_mps
    );

    let json = format!(
        "{{\n  \"bin\": \"nerve-tensor-bench\",\n  \"workers\": {},\n  \"shapes\": [{shape_entries}\n  ],\n  \"sr_head_gemm_speedup\": {sr_head_speedup:.2},\n  \"fused_head\": {{\"workers\": 1, \"fused_macs_per_sec\": {fused_mps:.3e}, \"staged_macs_per_sec\": {staged_mps:.3e}, \"speedup\": {:.2}}},\n  \"serve_backbone\": {backbone}\n}}\n",
        par::workers(),
        fused_mps / staged_mps,
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("[failed to write {out_path}: {e}]");
        std::process::exit(1);
    }
    eprintln!("[wrote {out_path}]");
    // Checked after the write, so a failing gate still leaves its
    // measurements on disk.
    assert!(
        sr_head_speedup >= 2.0,
        "GEMM must be >= 2x direct on the SR-head shape, measured {sr_head_speedup:.2}x"
    );
}

/// Deterministic kernel-output digests: byte-identical across `--jobs`
/// by the bit-identity contract, so CI compares the file verbatim.
fn write_digests(path: &str) {
    let mut entries = String::new();
    for (label, n, spec, h, w) in shapes() {
        let input = seeded_input(0xBEEF ^ label.len() as u32, n, spec.in_channels, h, w);
        let weight = seeded_weight(0xFACE, spec);
        let bias = seeded_bias(0xD00D, spec);
        if !entries.is_empty() {
            entries.push(',');
        }
        entries.push_str(&conv_digest(label, &input, &weight, &bias, spec));
    }
    // The fused head participates too: digest over the shuffled output.
    let (h, w) = (96usize, 160usize);
    let conv1 = seeded_conv(11, ConvSpec::same(3, 8, 3));
    let conv2 = seeded_conv(13, ConvSpec::same(8, 16, 3));
    let planes_data = seeded_input(17, 1, 3, h, w);
    let srcs: Vec<PlaneSource> = planes_data
        .data()
        .chunks(h * w)
        .map(PlaneSource::Slice)
        .collect();
    let fused = head_forward(&srcs, h, w, &conv1, &conv2, 4);
    let _ = write!(
        entries,
        ",\n    {{\"shape\": \"fused_sr_head\", \"digest\": \"{:016x}\"}}",
        fnv1a(fused.data())
    );
    // The batcher's backbone on the lane blocks, with the same inputs as
    // its timed rows.
    let (spec, h, w) = BACKBONE;
    let weight = seeded_weight(0xFACE, spec);
    let bias = seeded_bias(0xD00D, spec);
    for n in BACKBONE_DIGEST_BATCHES {
        let input = seeded_input(0x5E4E ^ n as u32, n, spec.in_channels, h, w);
        let label = format!("serve_backbone_n{n}");
        entries.push(',');
        entries.push_str(&conv_digest(&label, &input, &weight, &bias, spec));
    }
    let json = format!("{{\n  \"kernels\": [{entries}\n  ]\n}}\n");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("[failed to write {path}: {e}]");
        std::process::exit(1);
    }
    eprintln!("[wrote {path}]");
}

/// One digest-file entry: the FNV-1a digest of `conv2d`'s output and
/// the meter's charge for the call.
fn conv_digest(
    label: &str,
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: ConvSpec,
) -> String {
    let out = conv2d(input, weight, bias, spec);
    nerve_tensor::meter::start();
    let _ = nerve_tensor::meter::stage("bench", || conv2d(input, weight, bias, spec));
    let profile = nerve_tensor::meter::stop();
    let cost = profile.stage("bench");
    format!(
        "\n    {{\"shape\": \"{label}\", \"digest\": \"{:016x}\", \
         \"macs\": {}, \"bytes\": {}}}",
        fnv1a(out.data()),
        cost.macs,
        cost.bytes
    )
}

/// Samples per rate; the bench reports their median.
const REPEATS: usize = 5;

/// Time `f` repeatedly and convert to MACs/sec: the median of
/// [`REPEATS`] samples, each calibrated to ~0.25 s of wall time. One
/// sample swings by tens of percent between runs on a loaded host.
fn time_macs_per_sec(macs_per_call: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-6);
    let iters = ((0.25 / once) as usize).clamp(3, 2_000);
    let mut rates: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let per_call = t0.elapsed().as_secs_f64() / iters as f64;
            macs_per_call as f64 / per_call.max(1e-9)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[REPEATS / 2]
}

fn with_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = par::workers();
    par::set_workers(n);
    let out = f();
    par::set_workers(prev);
    out
}

fn fill(seed: u32, len: usize) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
        })
        .collect()
}

fn seeded_input(seed: u32, n: usize, c: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_vec(n, c, h, w, fill(seed, n * c * h * w))
}

fn seeded_weight(seed: u32, spec: ConvSpec) -> Tensor {
    Tensor::from_vec(
        spec.out_channels,
        spec.in_channels,
        spec.kernel,
        spec.kernel,
        fill(
            seed,
            spec.out_channels * spec.in_channels * spec.kernel * spec.kernel,
        ),
    )
}

fn seeded_bias(seed: u32, spec: ConvSpec) -> Vec<f32> {
    fill(seed, spec.out_channels)
}

fn seeded_conv(seed: u32, spec: ConvSpec) -> Conv2d {
    let mut c = Conv2d::zeroed(spec);
    let wl = c.weight.data().len();
    c.weight.data_mut().copy_from_slice(&fill(seed, wl));
    let bl = c.bias.len();
    c.bias.copy_from_slice(&fill(seed ^ 0xABCD, bl));
    c
}

/// FNV-1a over the f32 bit patterns.
fn fnv1a(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn die(msg: &str) -> ! {
    eprintln!("nerve-tensor-bench: {msg}");
    std::process::exit(2);
}
