//! 2-D convolution over `[channels, height, width]` inputs.

use rand::Rng;

use super::kernels::{channels_first_into, channels_last, lanes_axpy, offsets, Phases, RowPlan};
use crate::{Init, Layer, Param, Tensor};

/// A 2-D convolution layer.
///
/// The paper's CNN state feature extractor stacks five of these with a 3×3
/// kernel, stride 1 and padding 1 over the 6×32×32 mask tensor
/// (grid view, wire mask, dead-space mask and the three positional masks).
///
/// Input and output layout is `[channels, height, width]` (single sample).
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::Conv2d, Layer, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 8, 8]));
/// assert_eq!(y.shape(), &[4, 8, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param, // [out_c, in_c, kh, kw]
    bias: Param,   // [out_c]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform weights.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Init::KaimingUniform.sample(
            rng,
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
        );
        Conv2d {
            weight: Param::new("conv2d.weight", weight),
            bias: Param::new("conv2d.bias", Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Spatial output size for a given input size.
    ///
    /// # Panics
    ///
    /// If the padded input is smaller than the kernel (no output position).
    pub fn output_size(&self, input_size: usize) -> usize {
        let span = (input_size + 2 * self.padding)
            .checked_sub(self.kernel)
            .unwrap_or_else(|| {
                panic!(
                    "Conv2d: {k}x{k} kernel does not fit a side-{input_size} input with padding {p}",
                    k = self.kernel,
                    p = self.padding
                )
            });
        span / self.stride + 1
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Checks `input` and returns its `(h, w, oh, ow)`.
    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(input.ndim(), 3, "Conv2d expects [C, H, W] input");
        assert_eq!(
            input.shape()[0],
            self.in_channels,
            "Conv2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[0]
        );
        let (h, w) = (input.shape()[1], input.shape()[2]);
        (h, w, self.output_size(h), self.output_size(w))
    }
}

// Every kernel below keeps, per output and gradient element, the summation
// order of the direct loops kept as the test oracle in `tests/properties.rs`
// (see `kernels` for why that is the contract):
//
// * forward `out[oc, oy, ox]`: the bias, then `(ic, ky, kx)` ascending,
//   padded taps skipped — a gather, one output row at a time;
// * weight and bias gradients: `(oy, ox)` ascending; input gradient
//   `gx[ic, iy, ix]`: `(oc, oy, ox)` ascending — the direct scatter loop
//   over the output gradient itself, zero gradients skipped, with input
//   channels in lanes.
impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (h, w, oh, ow) = self.check_input(input);
        let (k, s, p, in_c) = (self.kernel, self.stride, self.padding, self.in_channels);
        let phases = Phases::new(w, s);
        let x = phases.split(input.data());
        let plan = RowPlan::gather(k, s, p, ow, &phases);
        let wgt = self.weight.value.data();
        let mut out = vec![0.0f32; self.out_channels * oh * ow];
        for oc in 0..self.out_channels {
            let b = self.bias.value.get(oc);
            for oy in 0..oh {
                let row = &mut out[(oc * oh + oy) * ow..][..ow];
                row.fill(b);
                for ic in 0..in_c {
                    for ky in offsets(oy, k, s, p, h) {
                        let iy = oy * s + ky - p;
                        plan.apply::<false>(
                            row,
                            &x[(ic * h + iy) * w..][..w],
                            &wgt[((oc * in_c + ic) * k + ky) * k..][..k],
                        );
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        Tensor::from_vec(out, &[self.out_channels, oh, ow])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (h, w, oh, ow) = self.check_input(input);
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (in_c, out_c) = (self.in_channels, self.out_channels);
        let gy = grad_output.data();

        for (oc, acc) in self.bias.grad.data_mut().iter_mut().enumerate() {
            for &g in &gy[oc * oh * ow..(oc + 1) * oh * ow] {
                let sum = *acc + g;
                *acc = if g != 0.0 { sum } else { *acc };
            }
        }

        // [iy, ix, ic lanes] and [oc, ky, kx, ic lanes]: one kernel row of
        // either is a contiguous span of lane blocks.
        let (x, lanes) = channels_last(input.data(), 1, in_c, h * w);
        let (wgt, _) = channels_last(self.weight.value.data(), out_c, in_c, k * k);
        let (mut gw, _) = channels_last(self.weight.grad.data(), out_c, in_c, k * k);
        let mut gx = vec![0.0f32; h * w * lanes];
        for oc in 0..out_c {
            for oy in 0..oh {
                let kys = offsets(oy, k, s, p, h);
                for ox in 0..ow {
                    let g = gy[(oc * oh + oy) * ow + ox];
                    let kxs = offsets(ox, k, s, p, w);
                    if g == 0.0 || kxs.is_empty() {
                        continue;
                    }
                    let span = kxs.len() * lanes;
                    let ix = ox * s + kxs.start - p;
                    for ky in kys.clone() {
                        let iy = oy * s + ky - p;
                        let wi = ((oc * k + ky) * k + kxs.start) * lanes;
                        let xi = (iy * w + ix) * lanes;
                        lanes_axpy(&mut gw[wi..][..span], &x[xi..][..span], g);
                        lanes_axpy(&mut gx[xi..][..span], &wgt[wi..][..span], g);
                    }
                }
            }
        }
        channels_first_into(&gw, in_c, k * k, lanes, self.weight.grad.data_mut());
        // The channels-last input copy is spent; its buffer takes the result.
        let mut grad_input = x;
        grad_input.truncate(in_c * h * w);
        channels_first_into(&gx, in_c, h * w, lanes, &mut grad_input);
        Tensor::from_vec(grad_input, &[in_c, h, w])
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_same_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[3, 16, 16]));
        assert_eq!(y.shape(), &[5, 16, 16]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        // Build a delta kernel: only the centre tap is 1.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.data_mut()[4] = 1.0;
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let input = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 4]);
        let y = conv.forward(&input);
        assert_eq!(y.data(), input.data());
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 2, 4, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[1, 8, 8]));
        assert_eq!(y.shape(), &[2, 4, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let input = Init::XavierUniform.sample(&mut rng, &[2, 5, 5], 50, 75);
        let max_err = check_layer_gradients(&mut conv, &input);
        assert!(max_err < 2e-2, "max gradient error {}", max_err);
    }

    #[test]
    #[should_panic(expected = "kernel does not fit")]
    fn input_smaller_than_the_kernel_panics() {
        // 2 + 2·0 − 3 underflows: release builds used to return a [1, 0, 0]
        // tensor here instead of failing.
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[3, 4, 4]));
    }
}
