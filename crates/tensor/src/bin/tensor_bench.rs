//! `nerve-tensor-bench` — the conv hot path, layout by layout.
//!
//! Measures MACs/sec for both layouts of the direct conv kernel
//! (`conv::Kernel`: the output-channel lanes `conv2d` runs, and the plane
//! loop they are checked against) over the shapes the pipeline runs:
//! every SR and enhancement head conv of a client frame at evaluation
//! scale 8, the older 240p-geometry head rows, and the batcher backbone
//! at occupancy 32 (`ServerModel::bench()`), at 1 and 4 worker threads.
//! Then the fused head against the staged ops at one worker, and the
//! fleet batcher's small backbone (`serve_backbone`) in both layouts at
//! the bench's worker count, at the batch sizes fleets flush. A row with
//! fewer than four output channels (`r720_conv2`, `enhance_head_conv2`)
//! times the lanes alone and reports no speedup: there the lanes run
//! every channel on the plane loop, so a second column would time the
//! same loop twice. The lanes' output is checked bit for bit against the
//! plane layout's before any timing counts. Each rate is the median of
//! [`REPEATS`] samples of ~0.25 s, the layouts' samples interleaved.
//!
//! Writes `BENCH_tensor.json`, then exits non-zero unless, on every row
//! with at least four output channels (where the lanes fill a block
//! rather than falling back to planes), the lanes beat the plane loop at
//! one worker (`serve_backbone` rows count under `--jobs 1`): a layout
//! keeps its place only by winning on the shapes it runs. With
//! `--digest-out PATH` it instead writes one FNV-1a digest per kernel
//! output (the shapes, the fused head, the backbone at 13 and 1642 jobs
//! and the frame's head convs) — wall-clock free, so CI can `cmp` the
//! file across `--jobs` values to prove the kernels and meter are
//! worker-count invariant.
//!
//! Usage:
//!   nerve-tensor-bench [--jobs N] [--out PATH] [--digest-out PATH]

use nerve_tensor::conv::{conv2d, conv2d_with, ConvSpec, Kernel};
use nerve_tensor::fused::{head_forward, PlaneSource};
use nerve_tensor::net::Conv2d;
use nerve_tensor::par::{self, with_workers};
use nerve_tensor::Tensor;
use std::fmt::Write as _;
use std::time::Instant;

/// A benchmarked conv: `(label, n, spec, h, w)`.
type Shape = (&'static str, usize, ConvSpec, usize, usize);

/// The first benchmarked conv shapes, kept with their labels and inputs
/// so their digests stay comparable across versions.
fn shapes() -> Vec<Shape> {
    vec![
        // SR head at 240p eval geometry (96x160 LR plane).
        ("sr_head_conv1", 1, ConvSpec::same(3, 8, 3), 96, 160),
        ("sr_head_conv2", 1, ConvSpec::same(8, 16, 3), 96, 160),
        // Enhancement head at working resolution.
        ("enhance_conv1", 1, ConvSpec::same(4, 8, 3), 64, 112),
        // Batcher backbone at occupancy 32 (ServerModel::bench()).
        ("batch32", 32, ConvSpec::same(8, 16, 3), 32, 64),
    ]
}

/// The head convs a client frame runs at evaluation scale 8, one image
/// each: both convs of the SR head at every rung's LR plane (3 → 8, then
/// 8 → r² for the rung's shuffle factor r) and of the enhancement head
/// that runs on every recovered frame (4 → 8 → 1).
fn head_shapes() -> Vec<Shape> {
    let mut rows = Vec::new();
    for (label, (h, w), out_c) in [
        (["r240_conv1", "r240_conv2"], (30, 52), 16),
        (["r360_conv1", "r360_conv2"], (44, 80), 9),
        (["r480_conv1", "r480_conv2"], (60, 106), 4),
        (["r720_conv1", "r720_conv2"], (90, 160), 1),
    ] {
        rows.push((label[0], 1, ConvSpec::same(3, 8, 3), h, w));
        rows.push((label[1], 1, ConvSpec::same(8, out_c, 3), h, w));
    }
    rows.push(("enhance_head_conv1", 1, ConvSpec::same(4, 8, 3), 60, 106));
    rows.push(("enhance_head_conv2", 1, ConvSpec::same(8, 1, 3), 60, 106));
    rows
}

/// The fleet batcher's backbone, `serve::batcher::ServerModel::small()`:
/// 2 → 4 channels, 3×3, on 8×16 planes.
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

/// The backbone's batch sizes: one job, the small and mid-sized flushes
/// of fleets (8, 16 and 64 jobs), and the `lossy-storm` fleet's traced
/// `serve.occupancy_mean` (perfbench, seed 1: 1642.2 jobs per stacked
/// call).
const BACKBONE_BATCHES: [usize; 5] = [1, 8, 16, 64, 1642];

/// The backbone's batch sizes in the digest file: 13 (below the parallel
/// split) and 1642 (split at `--jobs` > 1).
const BACKBONE_DIGEST_BATCHES: [usize; 2] = [13, 1642];

/// The layouts a gated row times: the plane loop first, as the
/// reference.
const LAYOUTS: [Kernel; 2] = [Kernel::Plane, Kernel::ChannelLanes];

/// Whether a row counts toward the gate: with fewer than four output
/// channels the lanes run every channel on the plane loop.
fn gated(spec: ConvSpec) -> bool {
    spec.out_channels >= 4
}

/// The layouts a row times. A row off the gate runs the same loop in
/// both layouts, so it times the lanes alone.
fn layouts(spec: ConvSpec) -> &'static [Kernel] {
    if gated(spec) {
        &LAYOUTS
    } else {
        &LAYOUTS[1..]
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
    // The slowest gated row's lanes against the plane loop at one worker.
    let mut gate: Option<(String, f64)> = None;
    let mut check = |label: &str, speedup: f64| {
        if gate.as_ref().is_none_or(|(_, worst)| speedup < *worst) {
            gate = Some((label.to_string(), speedup));
        }
    };
    for (label, n, spec, h, w) in shapes().into_iter().chain(head_shapes()) {
        let input = seeded_input(0xBEEF ^ label.len() as u32, n, spec.in_channels, h, w);
        let weight = seeded_weight(0xFACE, spec);
        let bias = seeded_bias(0xD00D, spec);
        let (macs, _) = spec.forward_work(n, h, w);

        // Bit-identity gate before any timing counts.
        let plane = conv2d_with(Kernel::Plane, &input, &weight, &bias, spec);
        let lanes = conv2d(&input, &weight, &bias, spec);
        assert_eq!(
            plane.data(),
            lanes.data(),
            "{label}: the lanes diverged from the plane loop"
        );

        let mut rows = String::new();
        for jobs in [1usize, 4] {
            let rates = with_workers(jobs, || {
                time_rates(n, spec, layouts(spec), &input, &weight, &bias)
            });
            if !rows.is_empty() {
                rows.push(',');
            }
            match rates[..] {
                [plane, lanes] => {
                    let speedup = lanes / plane;
                    if jobs == 1 {
                        check(label, speedup);
                    }
                    let _ = write!(
                        rows,
                        "\n      {{\"jobs\": {jobs}, \"plane_macs_per_sec\": {plane:.3e}, \
                         \"channel_lanes_macs_per_sec\": {lanes:.3e}, \"speedup\": {speedup:.2}}}"
                    );
                    eprintln!(
                        "[{label} jobs={jobs}: {lanes:.2e} MACs/s, {speedup:.2}x the plane loop]"
                    );
                }
                [lanes] => {
                    let _ = write!(
                        rows,
                        "\n      {{\"jobs\": {jobs}, \"channel_lanes_macs_per_sec\": {lanes:.3e}}}"
                    );
                    eprintln!("[{label} jobs={jobs}: {lanes:.2e} MACs/s, lanes only]");
                }
                _ => unreachable!("one rate per layout"),
            }
        }
        if !shape_entries.is_empty() {
            shape_entries.push(',');
        }
        let _ = write!(
            shape_entries,
            "\n    {{\"shape\": \"{label}\", \"n\": {n}, \"in_c\": {}, \"out_c\": {}, \
             \"kernel\": {}, \"h\": {h}, \"w\": {w}, \"macs\": {macs}, \
             \"threads\": [{rows}\n    ]}}",
            spec.in_channels, spec.out_channels, spec.kernel,
        );
    }

    // The batcher's backbone in both layouts, at the bench's worker
    // count.
    let (spec, h, w) = BACKBONE;
    let weight = seeded_weight(0xFACE, spec);
    let bias = seeded_bias(0xD00D, spec);
    let mut backbone = format!(
        "{{\"in_c\": {}, \"out_c\": {}, \"kernel\": {}, \"h\": {h}, \"w\": {w}, \"batches\": [",
        spec.in_channels, spec.out_channels, spec.kernel
    );
    for (i, n) in BACKBONE_BATCHES.into_iter().enumerate() {
        let input = seeded_input(0x5E4E ^ n as u32, n, spec.in_channels, h, w);
        let [plane, lanes] = time_rates(n, spec, &LAYOUTS, &input, &weight, &bias)[..] else {
            unreachable!("the backbone times both layouts")
        };
        let speedup = lanes / plane;
        if gated(spec) && par::workers() == 1 {
            check(&format!("serve_backbone_n{n}"), speedup);
        }
        eprintln!(
            "[serve_backbone n={n}: {:.3} GMAC/s, {speedup:.2}x the plane loop]",
            lanes / 1e9
        );
        let _ = write!(
            backbone,
            "{}\n      {{\"n\": {n}, \"plane_gmacs_per_s\": {:.3}, \
             \"channel_lanes_gmacs_per_s\": {:.3}, \"speedup\": {speedup:.2}}}",
            if i > 0 { "," } else { "" },
            plane / 1e9,
            lanes / 1e9
        );
    }
    backbone.push_str("\n  ]}");
    let (gate_shape, gate_speedup) = gate.expect("some row has four or more output channels");

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
    let fused: Box<dyn FnMut()> = Box::new(|| {
        let srcs: Vec<PlaneSource> = planes.iter().map(|p| PlaneSource::Slice(p)).collect();
        let _ = head_forward(&srcs, h, w, &conv1, &conv2, 4);
    });
    let staged: Box<dyn FnMut()> = Box::new(|| {
        let h1 = nerve_tensor::ops::relu(&conv2d(
            &planes_data,
            &conv1.weight,
            &conv1.bias,
            conv1.spec,
        ));
        let c2 = conv2d(&h1, &conv2.weight, &conv2.bias, conv2.spec);
        let _ = nerve_tensor::ops::pixel_shuffle(&c2, 4);
    });
    let [fused_mps, staged_mps] =
        with_workers(1, || time_macs_per_sec(head_macs, vec![fused, staged]))
            .try_into()
            .expect("one rate per function");
    eprintln!(
        "[fused head, 1 worker: {fused_mps:.2e} MACs/s vs staged {staged_mps:.2e} ({:.2}x)]",
        fused_mps / staged_mps
    );

    let json = format!(
        "{{\n  \"bin\": \"nerve-tensor-bench\",\n  \"workers\": {},\n  \"shapes\": [{shape_entries}\n  ],\n  \"lanes_min_speedup\": {{\"shape\": \"{gate_shape}\", \"speedup\": {gate_speedup:.2}}},\n  \"fused_head\": {{\"workers\": 1, \"fused_macs_per_sec\": {fused_mps:.3e}, \"staged_macs_per_sec\": {staged_mps:.3e}, \"speedup\": {:.2}}},\n  \"serve_backbone\": {backbone}\n}}\n",
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
        gate_speedup > 1.0,
        "the lanes must beat the plane loop on every shape with four or more \
         output channels; {gate_shape} measured {gate_speedup:.2}x"
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
    // The batcher's backbone, with the same inputs as its timed rows.
    let (spec, h, w) = BACKBONE;
    let weight = seeded_weight(0xFACE, spec);
    let bias = seeded_bias(0xD00D, spec);
    for n in BACKBONE_DIGEST_BATCHES {
        let input = seeded_input(0x5E4E ^ n as u32, n, spec.in_channels, h, w);
        let label = format!("serve_backbone_n{n}");
        entries.push(',');
        entries.push_str(&conv_digest(&label, &input, &weight, &bias, spec));
    }
    // The frame's head convs, on the output-channel lanes.
    for (label, n, spec, h, w) in head_shapes() {
        let input = seeded_input(0xBEEF ^ label.len() as u32, n, spec.in_channels, h, w);
        let weight = seeded_weight(0xFACE, spec);
        let bias = seeded_bias(0xD00D, spec);
        entries.push(',');
        entries.push_str(&conv_digest(label, &input, &weight, &bias, spec));
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

/// MACs/sec of each of `layouts` on one input, at the current worker
/// count.
fn time_rates(
    n: usize,
    spec: ConvSpec,
    layouts: &[Kernel],
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
) -> Vec<f64> {
    let runs: Vec<Box<dyn FnMut()>> = layouts
        .iter()
        .map(|&layout| {
            Box::new(move || {
                let _ = conv2d_with(layout, input, weight, bias, spec);
            }) as Box<dyn FnMut()>
        })
        .collect();
    let (macs, _) = spec.forward_work(n, input.h(), input.w());
    time_macs_per_sec(macs, runs)
}

/// Samples per rate; the bench reports their median.
const REPEATS: usize = 5;

/// Time each of `fs` repeatedly and convert to MACs/sec: per function,
/// the median of [`REPEATS`] samples, each calibrated to ~0.25 s of wall
/// time. The functions' samples alternate, so a burst of load on the
/// host lands on all of them rather than on one; one sample swings by
/// tens of percent between runs on a loaded host.
fn time_macs_per_sec(macs_per_call: u64, mut fs: Vec<Box<dyn FnMut() + '_>>) -> Vec<f64> {
    let iters: Vec<usize> = fs
        .iter_mut()
        .map(|f| {
            let t0 = Instant::now();
            f();
            let once = t0.elapsed().as_secs_f64().max(1e-6);
            ((0.25 / once) as usize).clamp(3, 2_000)
        })
        .collect();
    let mut rates = vec![Vec::with_capacity(REPEATS); fs.len()];
    for _ in 0..REPEATS {
        for ((f, &iters), rates) in fs.iter_mut().zip(&iters).zip(&mut rates) {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let per_call = t0.elapsed().as_secs_f64() / iters as f64;
            rates.push(macs_per_call as f64 / per_call.max(1e-9));
        }
    }
    rates
        .into_iter()
        .map(|mut rates| {
            rates.sort_by(f64::total_cmp);
            rates[REPEATS / 2]
        })
        .collect()
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
