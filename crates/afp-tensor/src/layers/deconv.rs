//! 2-D transposed convolution ("deconvolution") over `[channels, height, width]`.

use rand::Rng;

use super::kernels::{
    axpy_nonzero, channels_first_into, channels_last, copy_short, lanes_axpy, offsets,
};
use crate::{Init, Layer, Param, Tensor};

/// A 2-D transposed convolution layer.
///
/// The paper's deconvolutional policy network upsamples a 512-dimensional state
/// embedding back to the 32×32 action grid with three of these layers
/// (kernel 4×4, stride 2, padding 1), so that the agent can emit a joint
/// probability distribution over `(shape, grid cell)` actions.
///
/// The output spatial size for an input of size `n` is
/// `(n - 1) * stride - 2 * padding + kernel`, i.e. kernel 4 / stride 2 /
/// padding 1 exactly doubles the resolution.
///
/// # Examples
///
/// ```
/// use afp_tensor::{layers::ConvTranspose2d, Layer, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut deconv = ConvTranspose2d::new(8, 4, 4, 2, 1, &mut rng);
/// let y = deconv.forward(&Tensor::zeros(&[8, 4, 4]));
/// assert_eq!(y.shape(), &[4, 8, 8]);
/// ```
#[derive(Debug)]
pub struct ConvTranspose2d {
    weight: Param, // [in_c, out_c, kh, kw]
    bias: Param,   // [out_c]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution layer with Kaiming-uniform weights.
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
            &[in_channels, out_channels, kernel, kernel],
            fan_in,
            fan_out,
        );
        ConvTranspose2d {
            weight: Param::new("deconv.weight", weight),
            bias: Param::new("deconv.bias", Tensor::zeros(&[out_channels])),
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
    /// If the input side is zero or the padding crops the whole output.
    pub fn output_size(&self, input_size: usize) -> usize {
        input_size
            .checked_sub(1)
            .map(|n| n * self.stride + self.kernel)
            .and_then(|span| span.checked_sub(2 * self.padding))
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                panic!(
                    "ConvTranspose2d: a side-{input_size} input has no output through a \
                     {k}x{k} kernel with stride {s} and padding {p}",
                    k = self.kernel,
                    s = self.stride,
                    p = self.padding
                )
            })
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Checks `input` and returns its `(h, w, oh, ow)`.
    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(input.ndim(), 3, "ConvTranspose2d expects [C, H, W] input");
        assert_eq!(
            input.shape()[0],
            self.in_channels,
            "ConvTranspose2d expects {} input channels, got {}",
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
// * forward `out[oc, oy, ox]`: the bias if nonzero, else `+0.0`, then
//   `(ic, iy, ix)` ascending, zero activations skipped — the direct
//   scatter loop over the input, with output channels in lanes;
// * weight gradient: `(iy, ix)` ascending, zero gradients skipped (zero
//   activations are not) — patch rows, one input position at a time;
// * bias gradient: every output position ascending;
// * input gradient `gx[ic, iy, ix]`: a `+0.0` accumulator summing
//   `(oc, ky, kx)` ascending, zero gradients skipped — the same patches,
//   a whole input plane at a time.
impl Layer for ConvTranspose2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (h, w, oh, ow) = self.check_input(input);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let out_c = self.out_channels;
        // [ic, ky, kx, oc lanes] and [oy, ox, oc lanes]: one kernel row of
        // either is a contiguous span of lane blocks.
        let (wgt, lanes) = channels_last(self.weight.value.data(), self.in_channels, out_c, k * k);
        let bias = self.bias.value.data();
        let init: Vec<f32> = (0..lanes)
            .map(|oc| match bias.get(oc) {
                Some(&b) if b != 0.0 => b,
                _ => 0.0,
            })
            .collect();
        let mut out = init.repeat(oh * ow);
        let x = input.data();
        for ic in 0..self.in_channels {
            for iy in 0..h {
                let kys = offsets(iy, k, s, p, oh);
                for ix in 0..w {
                    let xv = x[(ic * h + iy) * w + ix];
                    let kxs = offsets(ix, k, s, p, ow);
                    if xv == 0.0 || kxs.is_empty() {
                        continue;
                    }
                    let span = kxs.len() * lanes;
                    let ox = ix * s + kxs.start - p;
                    for ky in kys.clone() {
                        let oy = iy * s + ky - p;
                        lanes_axpy(
                            &mut out[(oy * ow + ox) * lanes..][..span],
                            &wgt[((ic * k + ky) * k + kxs.start) * lanes..][..span],
                            xv,
                        );
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        let mut output = vec![0.0f32; out_c * oh * ow];
        channels_first_into(&out, out_c, oh * ow, lanes, &mut output);
        Tensor::from_vec(output, &[out_c, oh, ow])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("ConvTranspose2d::backward called before forward");
        let (h, w, oh, ow) = self.check_input(input);
        assert_eq!(grad_output.shape(), &[self.out_channels, oh, ow]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (in_c, out_c) = (self.in_channels, self.out_channels);
        let gy = grad_output.data();

        for (oc, acc) in self.bias.grad.data_mut().iter_mut().enumerate() {
            for &g in &gy[oc * oh * ow..(oc + 1) * oh * ow] {
                *acc += g;
            }
        }

        // Input positions in ascending order. The output-gradient window of
        // each is gathered into a patch laid out like one weight row
        // `[oc, ky, kx]`, out-of-bounds taps left at zero (a zero gradient is
        // skipped either way). Weight gradient: every input channel adds the
        // patch scaled by its activation to its weight row. Input gradient:
        // the patches transposed to one plane of positions per tap, so every
        // channel sweeps its taps in ascending order over its whole plane
        // from a `+0.0` accumulator, which can never become `-0.0` and so
        // also stands for its addition to the zeroed input gradient.
        let x = input.data();
        let plane = h * w;
        let taps = out_c * k * k;
        let gw = self.weight.grad.data_mut();
        let mut patch = vec![0.0f32; taps];
        let mut columns = vec![0.0f32; taps * plane];
        for iy in 0..h {
            let kys = offsets(iy, k, s, p, oh);
            for ix in 0..w {
                let kxs = offsets(ix, k, s, p, ow);
                if kys.len() < k || kxs.len() < k {
                    patch.fill(0.0);
                }
                if !kxs.is_empty() {
                    let ox = ix * s + kxs.start - p;
                    for (oc, rows) in patch.chunks_exact_mut(k * k).enumerate() {
                        for ky in kys.clone() {
                            let oy = iy * s + ky - p;
                            copy_short(
                                &mut rows[ky * k + kxs.start..][..kxs.len()],
                                &gy[(oc * oh + oy) * ow + ox..][..kxs.len()],
                            );
                        }
                    }
                }
                let pos = iy * w + ix;
                for ic in 0..in_c {
                    axpy_nonzero(&mut gw[ic * taps..][..taps], &patch, x[ic * plane + pos]);
                }
                for (t, &v) in patch.iter().enumerate() {
                    columns[t * plane + pos] = v;
                }
            }
        }
        let wgt = self.weight.value.data();
        let mut gx = vec![0.0f32; in_c * plane];
        for (ic, gx) in gx.chunks_exact_mut(plane).enumerate() {
            for (column, &wv) in columns.chunks_exact(plane).zip(&wgt[ic * taps..][..taps]) {
                axpy_nonzero(gx, column, wv);
            }
        }
        Tensor::from_vec(gx, &[in_c, h, w])
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &str {
        "ConvTranspose2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn doubles_spatial_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(4, 2, 4, 2, 1, &mut rng);
        let y = deconv.forward(&Tensor::zeros(&[4, 8, 8]));
        assert_eq!(y.shape(), &[2, 16, 16]);
    }

    #[test]
    fn three_stage_upsample_reaches_32() {
        // The paper's policy: 4×4 → 8×8 → 16×16 → 32×32.
        let mut rng = StdRng::seed_from_u64(0);
        let mut d1 = ConvTranspose2d::new(32, 32, 4, 2, 1, &mut rng);
        let mut d2 = ConvTranspose2d::new(32, 16, 4, 2, 1, &mut rng);
        let mut d3 = ConvTranspose2d::new(16, 8, 4, 2, 1, &mut rng);
        let y = d3.forward(&d2.forward(&d1.forward(&Tensor::zeros(&[32, 4, 4]))));
        assert_eq!(y.shape(), &[8, 32, 32]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut deconv = ConvTranspose2d::new(2, 2, 4, 2, 1, &mut rng);
        let input = Init::XavierUniform.sample(&mut rng, &[2, 3, 3], 18, 18);
        let max_err = check_layer_gradients(&mut deconv, &input);
        assert!(max_err < 2e-2, "max gradient error {}", max_err);
    }

    #[test]
    #[should_panic(expected = "has no output")]
    fn empty_input_panics() {
        // (0 − 1)·2 + 4 − 2 underflows: release builds used to return a
        // [1, 0, 0] tensor here instead of failing.
        let mut rng = StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(1, 1, 4, 2, 1, &mut rng);
        let _ = deconv.forward(&Tensor::zeros(&[1, 0, 0]));
    }

    #[test]
    fn bias_fills_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(1, 1, 4, 2, 1, &mut rng);
        deconv.weight.value = Tensor::zeros(&[1, 1, 4, 4]);
        deconv.bias.value = Tensor::from_slice(&[0.7]);
        let y = deconv.forward(&Tensor::zeros(&[1, 2, 2]));
        assert!(y.data().iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }
}
