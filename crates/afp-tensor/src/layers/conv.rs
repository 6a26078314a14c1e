//! 2-D convolution over `[channels, height, width]` inputs.

use rand::Rng;

use super::kernels::{
    axpy, axpy_nonzero, channels_first_into, channels_last, copy_short, lanes_axpy, offsets,
    Phases, RowPlan,
};
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

    /// Whether the kernel is pointwise: 1×1 at stride 1 without padding, so
    /// output position `pos` reads input position `pos` only.
    fn is_pointwise(&self) -> bool {
        (self.kernel, self.stride, self.padding) == (1, 1, 0)
    }

    /// Accumulates the bias and weight gradients of the cached forward pass
    /// and returns the cached input's `(h, w, oh, ow)`.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> (usize, usize, usize, usize) {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (h, w, oh, ow) = self.check_input(input);
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (in_c, out_c) = (self.in_channels, self.out_channels);
        let plane = oh * ow;
        let gy = grad_output.data();

        for (oc, acc) in self.bias.grad.data_mut().iter_mut().enumerate() {
            for &g in &gy[oc * plane..(oc + 1) * plane] {
                let sum = *acc + g;
                *acc = if g != 0.0 { sum } else { *acc };
            }
        }

        // Positions in ascending order; at each, every output channel with a
        // nonzero gradient adds its scaled window to its weight row
        // `[ic, ky, kx]`. A pointwise window is one input position;
        // otherwise an interior window is gathered into a patch laid out
        // like that row, and a window cut by the padding adds its in-bounds
        // kernel rows span by span.
        let pointwise = self.is_pointwise();
        let x = input.data();
        let gw = self.weight.grad.data_mut();
        if pointwise {
            for pos in 0..plane {
                for oc in 0..out_c {
                    let g = gy[oc * plane + pos];
                    if g == 0.0 {
                        continue;
                    }
                    for (ic, acc) in gw[oc * in_c..][..in_c].iter_mut().enumerate() {
                        *acc += g * x[ic * plane + pos];
                    }
                }
            }
            return (h, w, oh, ow);
        }
        let taps = in_c * k * k;
        let mut patch = vec![0.0f32; taps];
        for oy in 0..oh {
            let kys = offsets(oy, k, s, p, h);
            for ox in 0..ow {
                let pos = oy * ow + ox;
                let kxs = offsets(ox, k, s, p, w);
                if kxs.is_empty() || (0..out_c).all(|oc| gy[oc * plane + pos] == 0.0) {
                    continue;
                }
                let ix = ox * s + kxs.start - p;
                let interior = kys.len() == k && kxs.len() == k;
                if interior {
                    for (ic, rows) in patch.chunks_exact_mut(k * k).enumerate() {
                        for (ky, row) in rows.chunks_exact_mut(k).enumerate() {
                            let iy = oy * s + ky - p;
                            copy_short(row, &x[(ic * h + iy) * w + ix..][..k]);
                        }
                    }
                }
                for oc in 0..out_c {
                    let g = gy[oc * plane + pos];
                    if g == 0.0 {
                        continue;
                    }
                    let row = &mut gw[oc * taps..][..taps];
                    if interior {
                        axpy(row, &patch, g);
                        continue;
                    }
                    for ic in 0..in_c {
                        for ky in kys.clone() {
                            let iy = oy * s + ky - p;
                            axpy(
                                &mut row[(ic * k + ky) * k + kxs.start..][..kxs.len()],
                                &x[(ic * h + iy) * w + ix..][..kxs.len()],
                                g,
                            );
                        }
                    }
                }
            }
        }
        (h, w, oh, ow)
    }
}

// Every kernel below keeps, per output and gradient element, the summation
// order of the direct loops kept as the test oracle in `tests/properties.rs`
// (see `kernels` for why that is the contract):
//
// * forward `out[oc, oy, ox]`: the bias, then `(ic, ky, kx)` ascending,
//   padded taps skipped — a gather, one output row at a time;
// * weight and bias gradients: `(oy, ox)` ascending, zero gradients
//   skipped — patch rows, one position at a time
//   (`accumulate_param_grads`);
// * input gradient `gx[ic, iy, ix]`: `(oc, oy, ox)` ascending, zero
//   gradients skipped — for a pointwise kernel (one term per `oc`), whole
//   input-channel planes at a time; otherwise the
//   direct scatter loop over the output gradient itself, with input
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
                        plan.apply(
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
        let (h, w, oh, ow) = self.accumulate_param_grads(grad_output);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (in_c, out_c) = (self.in_channels, self.out_channels);
        let gy = grad_output.data();
        let wgt = self.weight.value.data();

        if self.is_pointwise() {
            let plane = h * w;
            let mut gx = vec![0.0f32; in_c * plane];
            for oc in 0..out_c {
                let g = &gy[oc * plane..][..plane];
                for (ic, row) in gx.chunks_exact_mut(plane).enumerate() {
                    axpy_nonzero(row, g, wgt[oc * in_c + ic]);
                }
            }
            return Tensor::from_vec(gx, &[in_c, h, w]);
        }

        // [oc, ky, kx, ic lanes] and [iy, ix, ic lanes]: one kernel row of
        // either is a contiguous span of lane blocks.
        let (wgt, lanes) = channels_last(wgt, out_c, in_c, k * k);
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
                        lanes_axpy(
                            &mut gx[(iy * w + ix) * lanes..][..span],
                            &wgt[((oc * k + ky) * k + kxs.start) * lanes..][..span],
                            g,
                        );
                    }
                }
            }
        }
        let mut grad_input = vec![0.0f32; in_c * h * w];
        channels_first_into(&gx, in_c, h * w, lanes, &mut grad_input);
        Tensor::from_vec(grad_input, &[in_c, h, w])
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.accumulate_param_grads(grad_output);
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
