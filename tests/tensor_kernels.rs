//! The tensor hot-path contract: both forward kernel layouts — the
//! output-channel lanes `conv2d` runs and the plane loop — and the fused
//! head produce bit-identical outputs and identical analytic meter
//! charges, at every worker count. These are the invariants that let a
//! kernel change land without fleet digests or cost traces ever
//! noticing.

use nerve_serve::{
    run_fleet, FleetConfig, InferenceBatcher, InferenceJob, JobKind, ServerModel, Service,
};
use nerve_tensor::conv::{conv2d, conv2d_with, ConvSpec, Kernel};
use nerve_tensor::fused::{head_forward, PlaneSource};
use nerve_tensor::net::Conv2d;
use nerve_tensor::{meter, Tensor};
use std::sync::Mutex;

/// Serial, minimal parallelism, and oversubscription (this container
/// may have a single core; the contract must hold regardless).
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Tests here mutate the process-wide worker pool; serialize them.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn at_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = nerve_sim::sweep::workers();
    nerve_sim::sweep::set_workers(n);
    let out = f();
    nerve_sim::sweep::set_workers(prev);
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

fn seeded_conv(seed: u32, spec: ConvSpec) -> Conv2d {
    let mut c = Conv2d::zeroed(spec);
    let wl = c.weight.data().len();
    c.weight.data_mut().copy_from_slice(&fill(seed, wl));
    let bl = c.bias.len();
    c.bias.copy_from_slice(&fill(seed ^ 0xABCD, bl));
    c
}

/// Dead-simple per-element reference conv: the semantic ground truth
/// every kernel layout is checked against. Bias first, taps in
/// ascending `(ic, ky, kx)` order — the shared accumulation contract.
fn conv2d_reference(input: &Tensor, weight: &Tensor, bias: &[f32], spec: ConvSpec) -> Tensor {
    let [n, in_c, h, w] = input.shape();
    let (oh, ow) = spec.out_size(h, w);
    let mut out = Tensor::zeros(n, spec.out_channels, oh, ow);
    for img in 0..n {
        for (oc, &b) in bias.iter().enumerate().take(spec.out_channels) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ic in 0..in_c {
                        for ky in 0..spec.kernel {
                            for kx in 0..spec.kernel {
                                let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input.get(img, ic, iy as usize, ix as usize)
                                    * weight.get(oc, ic, ky, kx);
                            }
                        }
                    }
                    out.data_mut()[((img * spec.out_channels + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// The seeded shape grid: batch, channels, spatial size, kernel,
/// stride, and padding, including the degenerate edges (minimum
/// outputs, kernel == input, 1x1 kernels, heavy padding, stride > k).
fn shape_grid() -> Vec<(usize, ConvSpec, usize, usize)> {
    let mut grid = Vec::new();
    let mut idx = 0u32;
    for &n in &[1usize, 2] {
        for &(in_c, out_c) in &[(1usize, 1usize), (3, 8), (8, 16), (4, 5)] {
            for &k in &[1usize, 3, 5] {
                for &stride in &[1usize, 2, 3] {
                    for &pad in &[0usize, 1, 2] {
                        // One spatial size per (deterministically
                        // rotated) combination keeps the grid dense but
                        // the runtime bounded.
                        let sizes = [(5usize, 7usize), (8, 8), (12, 9), (16, 24), (3, 3)];
                        let (h, w) = sizes[idx as usize % sizes.len()];
                        idx += 1;
                        let spec = ConvSpec {
                            in_channels: in_c,
                            out_channels: out_c,
                            kernel: k,
                            stride,
                            pad,
                        };
                        if spec.checked_out_size(h, w).is_some() {
                            grid.push((n, spec, h, w));
                        }
                    }
                }
            }
        }
    }
    // Edge shapes the rotation might miss: kernel exactly covering the
    // padded input, and single-pixel planes.
    grid.push((1, ConvSpec::same(2, 3, 3), 3, 3));
    grid.push((1, ConvSpec::same(1, 1, 1), 1, 1));
    grid.push((
        1,
        ConvSpec {
            in_channels: 2,
            out_channels: 2,
            kernel: 5,
            stride: 1,
            pad: 1,
        },
        3,
        5,
    ));
    grid
}

#[test]
fn channel_lanes_and_reference_agree_bitwise_over_the_grid() {
    let grid = shape_grid();
    assert!(grid.len() > 100, "grid should be dense, got {}", grid.len());
    for (i, &(n, spec, h, w)) in grid.iter().enumerate() {
        let seed = 0x1000 + i as u32;
        let input = Tensor::from_vec(
            n,
            spec.in_channels,
            h,
            w,
            fill(seed, n * spec.in_channels * h * w),
        );
        let weight = Tensor::from_vec(
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
            fill(
                seed ^ 0xAAAA,
                spec.out_channels * spec.in_channels * spec.kernel * spec.kernel,
            ),
        );
        let bias = fill(seed ^ 0x5555, spec.out_channels);
        let reference = conv2d_reference(&input, &weight, &bias, spec);
        for kernel in [Kernel::ChannelLanes, Kernel::Plane] {
            let out = conv2d_with(kernel, &input, &weight, &bias, spec);
            assert_eq!(
                reference.data(),
                out.data(),
                "{kernel:?} diverged: {spec:?} {n}x{h}x{w}"
            );
        }
        let out = conv2d(&input, &weight, &bias, spec);
        assert_eq!(
            reference.data(),
            out.data(),
            "conv2d diverged: {spec:?} {n}x{h}x{w}"
        );
    }
}

#[test]
fn degenerate_specs_report_zero_cost_and_never_panic() {
    // Shapes with no valid output: cost reporting must return 0, not
    // panic mid-report (the checked_out_size contract).
    for (spec, h, w) in [
        (
            ConvSpec {
                in_channels: 1,
                out_channels: 1,
                kernel: 9,
                stride: 1,
                pad: 1,
            },
            4usize,
            4usize,
        ),
        (
            ConvSpec {
                in_channels: 2,
                out_channels: 2,
                kernel: 3,
                stride: 0,
                pad: 1,
            },
            8,
            8,
        ),
    ] {
        assert_eq!(spec.checked_out_size(h, w), None);
        assert_eq!(spec.flops(h, w), 0);
        assert_eq!(spec.forward_work(1, h, w), (0, 0));
        assert_eq!(spec.backward_work(1, h, w), (0, 0));
        assert!(spec.params() > 0);
    }
}

#[test]
fn kernel_outputs_and_meter_are_invariant_across_worker_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A shape big enough to cross the parallel-split threshold in both
    // layouts (macs = 32*16*32*64*72 ≈ 75M).
    let spec = ConvSpec::same(8, 16, 3);
    let (n, h, w) = (32usize, 32usize, 64usize);
    let input = Tensor::from_vec(n, 8, h, w, fill(0xF00D, n * 8 * h * w));
    let conv = seeded_conv(0xCAFE, spec);

    let runs: Vec<_> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            at_workers(workers, || {
                meter::start();
                let out = meter::stage("batch", || conv2d(&input, &conv.weight, &conv.bias, spec));
                let plane = conv2d_with(Kernel::Plane, &input, &conv.weight, &conv.bias, spec);
                (out, plane, meter::stop())
            })
        })
        .collect();
    let (ref out0, ref plane0, ref prof0) = runs[0];
    assert_eq!(
        out0.data(),
        plane0.data(),
        "the lanes diverged from the plane loop"
    );
    for (workers, (out, plane, prof)) in WORKER_COUNTS.iter().zip(&runs).skip(1) {
        assert_eq!(
            out0.data(),
            out.data(),
            "conv2d diverged at {workers} workers"
        );
        assert_eq!(
            plane0.data(),
            plane.data(),
            "the plane loop diverged at {workers} workers"
        );
        assert_eq!(prof0, prof, "meter profile diverged at {workers} workers");
    }
}

#[test]
fn fused_head_is_bit_identical_to_staged_at_every_worker_count() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (h, w) = (48usize, 80usize);
    let conv1 = seeded_conv(21, ConvSpec::same(3, 8, 3));
    let conv2 = seeded_conv(23, ConvSpec::same(8, 16, 3));
    let data = fill(25, 3 * h * w);

    // Staged reference once, serial.
    let staged = at_workers(1, || {
        let input = Tensor::from_vec(1, 3, h, w, data.clone());
        let h1 = nerve_tensor::ops::relu(&conv2d(&input, &conv1.weight, &conv1.bias, conv1.spec));
        let c2 = conv2d(&h1, &conv2.weight, &conv2.bias, conv2.spec);
        nerve_tensor::ops::pixel_shuffle(&c2, 4)
    });
    for &workers in &WORKER_COUNTS {
        let fused = at_workers(workers, || {
            let srcs: Vec<PlaneSource> = data.chunks(h * w).map(PlaneSource::Slice).collect();
            head_forward(&srcs, h, w, &conv1, &conv2, 4)
        });
        assert_eq!(staged.shape(), fused.shape());
        assert_eq!(
            staged.data(),
            fused.data(),
            "fused head diverged from staged ops at {workers} workers"
        );
    }
}

/// The checksums of one flush of `jobs` recovery jobs, one per session,
/// all served in full, at `workers` workers.
fn flush_checksums(model: ServerModel, jobs: usize, workers: usize) -> Vec<u32> {
    let ladder = vec![512u32, 1024, 1600, 2640, 4400];
    at_workers(workers, || {
        let mut b = InferenceBatcher::new(
            model,
            ladder,
            (0..jobs as u64)
                .map(|s| s.wrapping_mul(0x9E37_79B9))
                .collect(),
        );
        for s in 0..jobs {
            b.enqueue(InferenceJob {
                session: s,
                chunk: 0,
                frame: s,
                kind: JobKind::Recovery,
                rung: 4,
                chain: 1,
                deadline: nerve_net::clock::SimTime::from_secs_f64(100.0),
            });
        }
        let outcomes = b.flush(nerve_net::clock::SimTime::ZERO);
        assert!(outcomes.iter().all(|o| o.service == Service::Full));
        outcomes.iter().map(|o| o.checksum.to_bits()).collect()
    })
}

#[test]
fn batcher_checksums_are_invariant_across_worker_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `bench()` at 32 jobs runs two 8-channel blocks per job. `small()`
    // at 150 jobs runs one 4-channel block per job, and 150 · 4 · 8·16 ·
    // 18 MACs crosses the conv's parallel-split threshold (2^20, from 114
    // jobs up), so 2 and 4 workers split it, 75 or 38 jobs per worker
    // (the last 36).
    for (model, jobs) in [(ServerModel::bench(), 32), (ServerModel::small(), 150)] {
        let reference = flush_checksums(model.clone(), jobs, 1);
        assert_eq!(reference.len(), jobs);
        for &workers in &WORKER_COUNTS[1..] {
            assert_eq!(
                reference,
                flush_checksums(model.clone(), jobs, workers),
                "batcher checksums diverged at {workers} workers ({jobs} jobs)"
            );
        }
    }
}

#[test]
fn fleet_digest_is_byte_identical_across_worker_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = FleetConfig::small(6, 0x7E2501);
    let trace =
        nerve_net::trace::NetworkTrace::generate(nerve_net::trace::NetworkKind::WiFi, 0x7E2501)
            .downscaled(12.0);
    let run = |workers: usize| at_workers(workers, || run_fleet(&cfg, &trace).digest());
    let reference = run(1);
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            reference,
            run(workers),
            "fleet digest diverged at {workers} workers with the new kernels"
        );
    }
}
