//! Inference layers: the building blocks of MobileNet-class networks.

use confbench_crypto::SplitMix64;

use crate::tensor::Tensor;

/// A network layer: forward inference over CHW activations, plus cost
/// accounting so adapters can convert a forward pass into an operation
/// trace.
pub trait Layer {
    /// Runs the layer.
    ///
    /// # Panics
    ///
    /// Panics when the input shape does not match the layer's expectation.
    fn forward(&self, input: &Tensor) -> Tensor;

    /// Multiply-accumulates one forward pass performs for `input_shape`.
    fn flops(&self, input_shape: &[usize]) -> u64;

    /// The output shape for a given input shape.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Human-readable layer name.
    fn name(&self) -> String;

    /// Learned parameters (weights + biases) the layer carries; 0 for
    /// parameter-free layers. Device offload uses this to size weight DMA.
    fn param_count(&self) -> usize {
        0
    }
}

/// A draw from `[0, 1)` with 24 random mantissa bits.
fn unit_f32(rng: &mut SplitMix64) -> f32 {
    (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

fn kaiming_weights(rng: &mut SplitMix64, count: usize, fan_in: usize) -> Vec<f32> {
    let scale = (2.0 / fan_in as f64).sqrt() as f32;
    (0..count).map(|_| (unit_f32(rng) * 2.0 - 1.0) * scale).collect()
}

/// Standard 2-D convolution over CHW input.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[out, in, k, k]`
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with deterministic Kaiming-style weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension parameter is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let mut rng = SplitMix64::new(seed);
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weights: kaiming_weights(&mut rng, out_channels * fan_in, fan_in),
            bias: (0..out_channels).map(|_| unit_f32(&mut rng) * 0.02).collect(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&self, input: &Tensor) -> Tensor {
        let [c, h, w]: [usize; 3] = input.shape().try_into().expect("CHW input");
        assert_eq!(c, self.in_channels, "channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[self.out_channels, oh, ow]);
        let k = self.kernel;
        for oc in 0..self.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[oc];
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let wgt =
                                    self.weights[((oc * self.in_channels + ic) * k + ky) * k + kx];
                                acc += wgt * input.get(&[ic, iy as usize, ix as usize]);
                            }
                        }
                    }
                    out.set(&[oc, oy, ox], acc);
                }
            }
        }
        out
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let (oh, ow) = self.out_hw(input_shape[1], input_shape[2]);
        (self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(input_shape[1], input_shape[2]);
        vec![self.out_channels, oh, ow]
    }

    fn name(&self) -> String {
        format!(
            "conv{}x{}s{}({}→{})",
            self.kernel, self.kernel, self.stride, self.in_channels, self.out_channels
        )
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// Depthwise 3×3 convolution (one filter per channel), the workhorse of
/// MobileNet.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[c, k, k]`
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with deterministic weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension parameter is zero.
    pub fn new(channels: usize, kernel: usize, stride: usize, padding: usize, seed: u64) -> Self {
        assert!(channels > 0 && kernel > 0 && stride > 0);
        let mut rng = SplitMix64::new(seed);
        let fan_in = kernel * kernel;
        DepthwiseConv2d {
            channels,
            kernel,
            stride,
            padding,
            weights: kaiming_weights(&mut rng, channels * fan_in, fan_in),
            bias: (0..channels).map(|_| unit_f32(&mut rng) * 0.02).collect(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&self, input: &Tensor) -> Tensor {
        let [c, h, w]: [usize; 3] = input.shape().try_into().expect("CHW input");
        assert_eq!(c, self.channels, "channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[c, oh, ow]);
        let k = self.kernel;
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[ch];
                    for ky in 0..k {
                        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            acc += self.weights[(ch * k + ky) * k + kx]
                                * input.get(&[ch, iy as usize, ix as usize]);
                        }
                    }
                    out.set(&[ch, oy, ox], acc);
                }
            }
        }
        out
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let (oh, ow) = self.out_hw(input_shape[1], input_shape[2]);
        (self.channels * oh * ow * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(input_shape[1], input_shape[2]);
        vec![self.channels, oh, ow]
    }

    fn name(&self) -> String {
        format!("dw{}x{}s{}(c{})", self.kernel, self.kernel, self.stride, self.channels)
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// ReLU6 activation (`min(max(x, 0), 6)`), MobileNet's nonlinearity.
#[derive(Debug, Clone, Default)]
pub struct Relu6;

impl Layer for Relu6 {
    fn forward(&self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        for v in out.data_mut() {
            *v = v.clamp(0.0, 6.0);
        }
        out
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        input_shape.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn name(&self) -> String {
        "relu6".into()
    }
}

/// Global average pooling: CHW → C.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool;

impl Layer for GlobalAvgPool {
    fn forward(&self, input: &Tensor) -> Tensor {
        let [c, h, w]: [usize; 3] = input.shape().try_into().expect("CHW input");
        let mut out = Tensor::zeros(&[c]);
        let denom = (h * w) as f32;
        for ch in 0..c {
            let mut acc = 0.0;
            for y in 0..h {
                for x in 0..w {
                    acc += input.get(&[ch, y, x]);
                }
            }
            out.set(&[ch], acc / denom);
        }
        out
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        input_shape.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0]]
    }

    fn name(&self) -> String {
        "gap".into()
    }
}

/// Fully connected layer over a rank-1 input.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    /// `[out, in]`
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with deterministic weights.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let mut rng = SplitMix64::new(seed);
        Dense {
            in_features,
            out_features,
            weights: kaiming_weights(&mut rng, in_features * out_features, in_features),
            bias: (0..out_features).map(|_| unit_f32(&mut rng) * 0.02).collect(),
        }
    }
}

impl Layer for Dense {
    fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape(), [self.in_features], "dense input shape");
        let mut out = Tensor::zeros(&[self.out_features]);
        for o in 0..self.out_features {
            let mut acc = self.bias[o];
            for i in 0..self.in_features {
                acc += self.weights[o * self.in_features + i] * input.data()[i];
            }
            out.set(&[o], acc);
        }
        out
    }

    fn flops(&self, _input_shape: &[usize]) -> u64 {
        (self.in_features * self.out_features) as u64
    }

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_features]
    }

    fn name(&self) -> String {
        format!("dense({}→{})", self.in_features, self.out_features)
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// Numerically-stable softmax over a rank-1 input.
#[derive(Debug, Clone, Default)]
pub struct Softmax;

impl Layer for Softmax {
    fn forward(&self, input: &Tensor) -> Tensor {
        let max = input.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = input.data().iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        Tensor::from_vec(input.shape(), exps.into_iter().map(|e| e / sum).collect())
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        4 * input_shape.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn name(&self) -> String {
        "softmax".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model's first layer at the experiments' seed, weights then
    /// bias, as drawn before the generator changed hands (`fig_gpu` has no
    /// golden to notice a drift).
    #[test]
    fn seed_7_first_conv_parameters_are_pinned() {
        let conv = Conv2d::new(3, 8, 3, 2, 1, 7);
        let bytes: Vec<u8> =
            conv.weights.iter().chain(&conv.bias).flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(
            confbench_crypto::Sha256::digest(&bytes).to_string(),
            "4abbfbfd136dcb5b21c0db1d7d9e0e7c668c791bf4c7e0b853c1bd34586f19d7"
        );
    }

    /// A 1×1 conv with identity weight must reproduce its input.
    #[test]
    fn conv_identity() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        conv.weights = vec![1.0];
        conv.bias = vec![0.0];
        let input = Tensor::from_fn(&[1, 3, 3], |idx| (idx[1] * 3 + idx[2]) as f32);
        assert_eq!(conv.forward(&input), input);
    }

    /// Hand-computed 3×3 box filter over a known image.
    #[test]
    fn conv_box_filter_known_values() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 0);
        conv.weights = vec![1.0; 9];
        conv.bias = vec![0.0];
        let input = Tensor::from_fn(&[1, 3, 3], |idx| (idx[1] * 3 + idx[2] + 1) as f32);
        let out = conv.forward(&input);
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert_eq!(out.get(&[0, 0, 0]), 45.0); // 1+2+...+9
    }

    #[test]
    fn conv_stride_and_padding_shapes() {
        let conv = Conv2d::new(3, 8, 3, 2, 1, 1);
        assert_eq!(conv.output_shape(&[3, 32, 32]), vec![8, 16, 16]);
        let out = conv.forward(&Tensor::zeros(&[3, 32, 32]));
        assert_eq!(out.shape(), &[8, 16, 16]);
    }

    #[test]
    fn depthwise_equals_grouped_conv_manually() {
        // Depthwise with all-ones kernels sums each channel's 3×3 patch.
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 0, 0);
        dw.weights = vec![1.0; 18];
        dw.bias = vec![0.0, 0.0];
        let input = Tensor::from_fn(&[2, 3, 3], |idx| if idx[0] == 0 { 1.0 } else { 2.0 });
        let out = dw.forward(&input);
        assert_eq!(out.get(&[0, 0, 0]), 9.0);
        assert_eq!(out.get(&[1, 0, 0]), 18.0);
    }

    #[test]
    fn relu6_clamps() {
        let t = Tensor::from_vec(&[4], vec![-1.0, 0.5, 6.0, 9.0]);
        assert_eq!(Relu6.forward(&t).data(), &[0.0, 0.5, 6.0, 6.0]);
    }

    #[test]
    fn gap_averages() {
        let t = Tensor::from_fn(&[2, 2, 2], |idx| if idx[0] == 0 { 4.0 } else { 8.0 });
        let out = GlobalAvgPool.forward(&t);
        assert_eq!(out.data(), &[4.0, 8.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let t = Tensor::from_vec(&[3], vec![1000.0, 1001.0, 1002.0]);
        let out = Softmax.forward(&t);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.data().iter().all(|v| v.is_finite()));
        assert_eq!(out.argmax(), 2);
    }

    #[test]
    fn dense_known_values() {
        let mut d = Dense::new(2, 1, 0);
        d.weights = vec![2.0, 3.0];
        d.bias = vec![1.0];
        let out = d.forward(&Tensor::from_vec(&[2], vec![10.0, 100.0]));
        assert_eq!(out.data(), &[321.0]);
    }

    #[test]
    fn flops_counts_are_consistent() {
        let conv = Conv2d::new(3, 16, 3, 1, 1, 0);
        // 16 * 32*32 * 3 * 9
        assert_eq!(conv.flops(&[3, 32, 32]), 16 * 1024 * 27);
        let dw = DepthwiseConv2d::new(16, 3, 1, 1, 0);
        assert_eq!(dw.flops(&[16, 32, 32]), 16 * 1024 * 9);
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let a = Conv2d::new(3, 4, 3, 1, 1, 42);
        let b = Conv2d::new(3, 4, 3, 1, 1, 42);
        let c = Conv2d::new(3, 4, 3, 1, 1, 43);
        assert_eq!(a.weights, b.weights);
        assert_ne!(a.weights, c.weights);
    }
}
