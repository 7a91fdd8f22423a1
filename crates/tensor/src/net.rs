//! A small trainable network container.
//!
//! [`Sequential`] chains [`Layer`]s, supports forward, backward, and
//! optimizer steps, and reports analytic FLOPs/params for the paper's
//! Table 1. This is intentionally minimal — exactly what is needed to
//! express and train NERVE's convolutional enhancement / inpainting / SR
//! heads, nothing more.

use crate::conv::{conv2d, conv2d_backward, ConvSpec};
use crate::flops::CostReport;
use crate::init;
use crate::ops;
use crate::optim::{Adam, Optimizer};
use crate::Tensor;
use nerve_rng::Rng;

/// A differentiable layer. `forward` must be called before `backward`;
/// layers cache whatever they need from the forward pass.
pub trait Layer {
    fn forward(&mut self, x: &Tensor) -> Tensor;
    /// Propagate `grad_out` to the input, accumulating parameter
    /// gradients internally.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
    /// Zero accumulated parameter gradients.
    fn zero_grads(&mut self) {}
    /// Visit `(params, grads)` buffers in a stable order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &[f32])) {}
    /// Analytic cost for an input of spatial size `(h, w)`.
    fn cost(&self, h: usize, w: usize) -> CostReport;
    /// Spatial output size for a given input size.
    fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (h, w)
    }
    /// Downcast hook for inference-only paths (the fused head) that
    /// need the conv weights without forwarding through the trainable
    /// container.
    fn as_conv(&self) -> Option<&Conv2d> {
        None
    }
}

/// Trainable 2-D convolution layer.
pub struct Conv2d {
    pub spec: ConvSpec,
    pub weight: Tensor,
    pub bias: Vec<f32>,
    grad_weight: Tensor,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// He-initialized convolution (expects a ReLU-family activation after).
    pub fn new<R: Rng>(rng: &mut R, spec: ConvSpec) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        let weight = init::he_normal(
            rng,
            [
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ],
            fan_in,
        );
        Self {
            spec,
            weight,
            bias: vec![0.0; spec.out_channels],
            grad_weight: Tensor::zeros(
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ),
            grad_bias: vec![0.0; spec.out_channels],
            cached_input: None,
        }
    }

    /// Zero-initialized convolution — useful as a residual head that
    /// starts as the identity mapping.
    pub fn zeroed(spec: ConvSpec) -> Self {
        Self {
            spec,
            weight: Tensor::zeros(
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ),
            bias: vec![0.0; spec.out_channels],
            grad_weight: Tensor::zeros(
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ),
            grad_bias: vec![0.0; spec.out_channels],
            cached_input: None,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = conv2d(x, &self.weight, &self.bias, self.spec);
        self.cached_input = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let grads = conv2d_backward(input, &self.weight, grad_out, self.spec);
        self.grad_weight.axpy(1.0, &grads.grad_weight);
        for (a, b) in self.grad_bias.iter_mut().zip(grads.grad_bias.iter()) {
            *a += b;
        }
        grads.grad_input
    }

    fn zero_grads(&mut self) {
        self.grad_weight.scale(0.0);
        self.grad_bias.iter_mut().for_each(|v| *v = 0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        f(self.weight.data_mut(), self.grad_weight.data());
        // Split borrow: bias and grad_bias are separate fields.
        let gb = std::mem::take(&mut self.grad_bias);
        f(&mut self.bias, &gb);
        self.grad_bias = gb;
    }

    fn cost(&self, h: usize, w: usize) -> CostReport {
        CostReport {
            flops: self.spec.flops(h, w),
            params: self.spec.params(),
        }
    }

    fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec.out_size(h, w)
    }

    fn as_conv(&self) -> Option<&Conv2d> {
        Some(self)
    }
}

/// ReLU activation layer.
#[derive(Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        ops::relu(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        ops::relu_backward(input, grad_out)
    }

    fn cost(&self, h: usize, w: usize) -> CostReport {
        CostReport {
            flops: (h * w) as u64,
            params: 0,
        }
    }
}

/// Leaky-ReLU activation layer.
pub struct LeakyRelu {
    pub alpha: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    pub fn new(alpha: f32) -> Self {
        Self {
            alpha,
            cached_input: None,
        }
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        ops::leaky_relu(x, self.alpha)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        ops::leaky_relu_backward(input, grad_out, self.alpha)
    }

    fn cost(&self, h: usize, w: usize) -> CostReport {
        CostReport {
            flops: (h * w) as u64,
            params: 0,
        }
    }
}

/// PixelShuffle layer (pure permutation; backward is pixel-unshuffle).
pub struct PixelShuffle {
    pub r: usize,
}

impl PixelShuffle {
    pub fn new(r: usize) -> Self {
        Self { r }
    }
}

impl Layer for PixelShuffle {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        ops::pixel_shuffle(x, self.r)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        ops::pixel_unshuffle(grad_out, self.r)
    }

    fn cost(&self, _h: usize, _w: usize) -> CostReport {
        CostReport::default()
    }

    fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (h * self.r, w * self.r)
    }
}

/// A chain of layers trained end-to-end.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Adam state per parameter buffer, lazily created in visit order.
    optimizers: Vec<Adam>,
    lr: f32,
}

impl Sequential {
    pub fn new(layers: Vec<Box<dyn Layer>>, lr: f32) -> Self {
        Self {
            layers,
            optimizers: Vec::new(),
            lr,
        }
    }

    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Backward pass; returns the gradient with respect to the input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Apply one Adam step to every parameter buffer.
    pub fn step(&mut self) {
        let lr = self.lr;
        let optimizers = &mut self.optimizers;
        let mut idx = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |params, grads| {
                if idx == optimizers.len() {
                    optimizers.push(Adam::new(lr));
                }
                optimizers[idx].step(params, grads);
                idx += 1;
            });
        }
    }

    /// One full training step on a `(input, target)` pair with the given
    /// loss function. Returns the loss value.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        target: &Tensor,
        loss: impl Fn(&Tensor, &Tensor) -> crate::loss::LossResult,
    ) -> f32 {
        self.zero_grads();
        let pred = self.forward(input);
        let result = loss(&pred, target);
        self.backward(&result.grad);
        self.step();
        result.value
    }

    /// Total analytic cost of a forward pass at input size `(h, w)`,
    /// tracking spatial size through the chain.
    pub fn cost(&self, h: usize, w: usize) -> CostReport {
        let (mut ch, mut cw) = (h, w);
        let mut total = CostReport::default();
        for layer in &self.layers {
            total += layer.cost(ch, cw);
            let (nh, nw) = layer.out_size(ch, cw);
            ch = nh;
            cw = nw;
        }
        total
    }

    /// The convolution layers of the chain, in order. Inference-only
    /// callers use this to route the head through [`crate::fused`]
    /// without paying the per-layer input clones `forward` keeps for
    /// training.
    pub fn conv_layers(&self) -> Vec<&Conv2d> {
        self.layers.iter().filter_map(|l| l.as_conv()).collect()
    }

    /// Snapshot all parameter buffers (visit order). Pairs with
    /// [`Sequential::import_weights`] for model persistence — the
    /// counterpart of shipping a trained CoreML checkpoint.
    pub fn export_weights(&mut self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |params, _| out.push(params.to_vec()));
        }
        out
    }

    /// Restore parameters from a snapshot. Panics if the architecture
    /// does not match (buffer count or lengths differ).
    pub fn import_weights(&mut self, weights: &[Vec<f32>]) {
        let mut idx = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |params, _| {
                let src = weights
                    .get(idx)
                    .unwrap_or_else(|| panic!("missing weight buffer {idx}"));
                assert_eq!(
                    params.len(),
                    src.len(),
                    "weight buffer {idx} length mismatch"
                );
                params.copy_from_slice(src);
                idx += 1;
            });
        }
        assert_eq!(idx, weights.len(), "extra weight buffers supplied");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use nerve_rng::StdRng;

    #[test]
    fn sequential_forward_composes_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new(
            vec![
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(1, 8, 3))),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(8, 4, 3))),
                Box::new(PixelShuffle::new(2)),
            ],
            1e-3,
        );
        let x = Tensor::zeros(1, 1, 6, 6);
        let y = net.forward(&x);
        assert_eq!(y.shape(), [1, 1, 12, 12]);
    }

    #[test]
    fn training_reduces_loss_on_identity_task() {
        // Teach a 2-layer net to reproduce its input.
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new(
            vec![
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(1, 6, 3))),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(6, 1, 3))),
            ],
            5e-3,
        );
        let make = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            let data: Vec<f32> = (0..64).map(|_| r.random_range(0.0f32..1.0)).collect();
            Tensor::from_plane(8, 8, data)
        };
        let first = {
            let x = make(100);
            net.train_step(&x, &x.clone(), |p, t| loss::charbonnier(p, t, 1e-3))
        };
        let mut last = first;
        for i in 0..120 {
            let x = make(100 + (i % 8) as u64);
            last = net.train_step(&x, &x.clone(), |p, t| loss::charbonnier(p, t, 1e-3));
        }
        assert!(
            last < first * 0.5,
            "loss should halve during training: first {first}, last {last}"
        );
    }

    #[test]
    fn zeroed_residual_head_starts_as_zero_function() {
        let mut net = Sequential::new(
            vec![Box::new(Conv2d::zeroed(ConvSpec::same(2, 1, 3)))],
            1e-3,
        );
        let x = Tensor::full(1, 2, 4, 4, 0.5);
        let y = net.forward(&x);
        assert!(y.l1() == 0.0);
    }

    #[test]
    fn cost_accumulates_over_layers_and_tracks_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Sequential::new(
            vec![
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(1, 4, 3))),
                Box::new(PixelShuffle::new(2)),
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(1, 1, 3))),
            ],
            1e-3,
        );
        let report = net.cost(8, 8);
        let expect_first = ConvSpec::same(1, 4, 3).flops(8, 8);
        // Second conv runs at 16x16 after PixelShuffle.
        let expect_second = ConvSpec::same(1, 1, 3).flops(16, 16);
        assert_eq!(report.flops, expect_first + expect_second);
        assert_eq!(
            report.params,
            ConvSpec::same(1, 4, 3).params() + ConvSpec::same(1, 1, 3).params()
        );
    }

    #[test]
    fn weight_export_import_round_trips() {
        let mut rng = StdRng::seed_from_u64(31);
        let build = |rng: &mut StdRng| {
            Sequential::new(
                vec![
                    Box::new(Conv2d::new(rng, ConvSpec::same(1, 4, 3))) as Box<dyn Layer>,
                    Box::new(Relu::new()),
                    Box::new(Conv2d::new(rng, ConvSpec::same(4, 1, 3))),
                ],
                1e-3,
            )
        };
        let mut trained = build(&mut rng);
        // Train a little so weights are distinctive.
        let x = Tensor::full(1, 1, 6, 6, 0.4);
        let t = Tensor::full(1, 1, 6, 6, 0.6);
        for _ in 0..10 {
            trained.train_step(&x, &t, loss::mse);
        }
        let weights = trained.export_weights();
        let mut fresh = build(&mut rng); // different init
        assert_ne!(fresh.forward(&x), trained.forward(&x));
        fresh.import_weights(&weights);
        assert_eq!(fresh.forward(&x), trained.forward(&x));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn import_rejects_wrong_architecture() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut net = Sequential::new(
            vec![Box::new(Conv2d::new(&mut rng, ConvSpec::same(1, 2, 3))) as Box<dyn Layer>],
            1e-3,
        );
        net.import_weights(&[vec![0.0; 3], vec![0.0; 2]]);
    }

    #[test]
    fn gradients_flow_through_pixel_shuffle() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new(
            vec![
                Box::new(Conv2d::new(&mut rng, ConvSpec::same(1, 4, 3))),
                Box::new(PixelShuffle::new(2)),
            ],
            1e-2,
        );
        let x = Tensor::full(1, 1, 4, 4, 0.5);
        let target = Tensor::full(1, 1, 8, 8, 0.25);
        let first = net.train_step(&x, &target, loss::mse);
        let mut last = first;
        for _ in 0..80 {
            last = net.train_step(&x, &target, loss::mse);
        }
        assert!(last < first * 0.1, "first {first}, last {last}");
    }
}
