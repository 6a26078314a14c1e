//! Row- and lane-level primitives shared by the convolution layers.
//!
//! Each primitive applies one multiply and one add per term to the elements
//! it updates. A kernel that adds an element's terms in the order the direct
//! loops (the test oracle) sum them therefore reproduces its `f32` bits
//! exactly — floating-point addition is not associative, so the *order per
//! element* is the contract (see ARCHITECTURE.md, "The bit-identity
//! contract"). The speed comes from updating many independent elements at
//! once, which the compiler vectorizes. Three shapes cover all kernels:
//!
//! * **Gather rows** ([`RowPlan`]): each destination element reduces over
//!   kernel taps; a whole destination row takes the terms of up to four taps
//!   per pass.
//! * **Scatter spans** ([`lanes_axpy`]): a source value adds its weighted
//!   kernel to every position it reaches, in the direct loop's order.
//!   Channels run in lanes (a channels-last buffer), so the positions of one
//!   kernel row form one contiguous span of lane blocks.
//! * **Patch rows** ([`axpy`], [`axpy_nonzero`]): a weight gradient sums
//!   over positions, so positions stay sequential and the elements side by
//!   side are the taps of one position: the window's values are gathered
//!   into a patch laid out like one row of the weight tensor, and every
//!   output (or input) channel adds its scaled patch to that row. The
//!   same patches, transposed to one plane of positions per tap, let a
//!   gather over taps run a whole plane at a time.
//!
//! The skipping variant leaves out a term whose gradient factor is exactly
//! zero, as the direct loops it replaces did. Inside a vector the skip is a
//! select, not a branch, and it is load-bearing for bit identity: adding a
//! `+0.0` product turns a `-0.0` accumulator into `+0.0`, and `0 × ∞` is
//! NaN.

use std::borrow::Cow;
use std::ops::Range;

/// Channel lanes updated together; lane buffers are padded to a multiple of
/// it.
pub(super) const LANES: usize = 4;

/// The kernel offsets `t` whose fine partner `c * stride + t - padding` of
/// coarse position `c` lies in `0..fine_len`, as a range.
///
/// A convolution-like layer pairs a *coarse* position (the output of a
/// convolution, the input of a transposed convolution) with *fine* positions
/// on the other side.
pub(super) fn offsets(
    c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    fine_len: usize,
) -> Range<usize> {
    let lo = padding.saturating_sub(c * stride).min(kernel);
    let hi = (fine_len + padding).saturating_sub(c * stride).min(kernel);
    lo..hi.max(lo)
}

/// Rows of one fine axis regrouped by position modulo the stride.
///
/// The fine partners of coarse neighbours `c, c + 1, …` through one offset
/// sit `stride` apart; in the phase layout — positions `≡ 0 (mod stride)`
/// first, then `≡ 1`, … — they are adjacent, so a strided gather reads
/// contiguous memory. With stride 1 the layout is the identity.
#[derive(Debug, Clone)]
pub(super) struct Phases {
    stride: usize,
    /// Start of each phase within a row.
    offsets: Vec<usize>,
    len: usize,
}

impl Phases {
    /// The phase layout of rows `len` long.
    pub fn new(len: usize, stride: usize) -> Self {
        let offsets = (0..stride)
            .scan(0, |start, r| {
                let at = *start;
                *start += (len + stride - 1 - r) / stride;
                Some(at)
            })
            .collect();
        Phases {
            stride,
            offsets,
            len,
        }
    }

    /// Where fine position `f` of a row sits in the phase layout.
    pub fn index(&self, f: usize) -> usize {
        self.offsets[f % self.stride] + f / self.stride
    }

    /// `rows` (each `len` long) in the phase layout; borrowed when that is
    /// the identity.
    pub fn split<'a>(&self, rows: &'a [f32]) -> Cow<'a, [f32]> {
        if self.stride == 1 || self.len == 0 {
            return Cow::Borrowed(rows);
        }
        let mut out = vec![0.0f32; rows.len()];
        for (src, dst) in rows
            .chunks_exact(self.len)
            .zip(out.chunks_exact_mut(self.len))
        {
            for (f, &v) in src.iter().enumerate() {
                dst[self.index(f)] = v;
            }
        }
        Cow::Owned(out)
    }
}

/// The plan of a gather row update, made once per layer call and applied to
/// every row: each destination (coarse) position `c` adds
/// `src[fine partner] * weights[t]` for every offset `t` whose fine partner
/// is in bounds, in ascending `t`. The source row is in [`Phases`] layout.
///
/// The positions every offset reaches take all their terms in one pass (up
/// to four offsets at a time), so the row is loaded and stored once per
/// pass; the few positions at the padded ends take theirs one by one.
#[derive(Debug, Clone)]
pub(super) struct RowPlan {
    /// Positions every offset reaches.
    interior: Range<usize>,
    /// Per offset, ascending: source index of `interior.start`, offset.
    fused: Vec<(usize, usize)>,
    /// Terms of the other positions, each position's in ascending offset:
    /// destination index, source index, offset.
    edges: Vec<(usize, usize, usize)>,
}

impl RowPlan {
    /// The plan for destination rows `coarse_len` long reading source rows
    /// that `phases` describes, through a `kernel`-wide window.
    pub fn gather(
        kernel: usize,
        stride: usize,
        padding: usize,
        coarse_len: usize,
        phases: &Phases,
    ) -> Self {
        let reach = |c: usize| offsets(c, kernel, stride, padding, phases.len);
        let src = |c: usize, t: usize| phases.index(c * stride + t - padding);
        // Every offset reaches `c` iff `padding <= c * stride <= fine_len +
        // padding - kernel`: one run of positions.
        let mut full = (0..coarse_len).filter(|&c| reach(c).len() == kernel);
        let interior = match full.next() {
            Some(lo) => lo..full.next_back().unwrap_or(lo) + 1,
            None => coarse_len..coarse_len,
        };
        let fused = if interior.is_empty() {
            Vec::new()
        } else {
            (0..kernel).map(|t| (src(interior.start, t), t)).collect()
        };
        let edges = (0..coarse_len)
            .filter(|c| !interior.contains(c))
            .flat_map(|c| reach(c).map(move |t| (c, src(c, t), t)))
            .collect();
        RowPlan {
            interior,
            fused,
            edges,
        }
    }

    /// Applies the planned terms to `dst`.
    pub fn apply(&self, dst: &mut [f32], src: &[f32], weights: &[f32]) {
        for &(c, f, t) in &self.edges {
            dst[c] += src[f] * weights[t];
        }
        let n = self.interior.len();
        let interior = &mut dst[self.interior.clone()];
        for chunk in self.fused.chunks(4) {
            let term = |j: usize| {
                let (from, t) = chunk[j];
                (&src[from..from + n], weights[t])
            };
            match chunk.len() {
                1 => fused::<1>(interior, std::array::from_fn(term)),
                2 => fused::<2>(interior, std::array::from_fn(term)),
                3 => fused::<3>(interior, std::array::from_fn(term)),
                _ => fused::<4>(interior, std::array::from_fn(term)),
            }
        }
    }
}

/// `dst[i]` plus the `K` terms `src_j[i] * w_j`, added in `j` order.
#[inline(always)]
fn fused<const K: usize>(dst: &mut [f32], terms: [(&[f32], f32); K]) {
    let n = dst.len();
    let srcs = terms.map(|(src, _)| &src[..n]);
    let ws = terms.map(|(_, w)| w);
    for (i, d) in dst.iter_mut().enumerate() {
        let mut acc = *d;
        for j in 0..K {
            acc += srcs[j][i] * ws[j];
        }
        *d = acc;
    }
}

/// `acc[l] += x * w[l]` for every lane. Both slices hold the same multiple
/// of [`LANES`] elements.
#[inline]
pub(super) fn lanes_axpy(acc: &mut [f32], w: &[f32], x: f32) {
    debug_assert!(acc.len() == w.len() && acc.len().is_multiple_of(LANES));
    for (a, w) in acc.chunks_exact_mut(LANES).zip(w.chunks_exact(LANES)) {
        for l in 0..LANES {
            a[l] += x * w[l];
        }
    }
}

/// `dst.copy_from_slice(src)` for the short rows of a kernel window: the
/// common widths are constants, so the copy is inlined, not a `memcpy` call.
#[inline]
pub(super) fn copy_short(dst: &mut [f32], src: &[f32]) {
    match dst.len() {
        1 => dst[0] = src[0],
        2 => dst.copy_from_slice(&src[..2]),
        3 => dst.copy_from_slice(&src[..3]),
        4 => dst.copy_from_slice(&src[..4]),
        _ => dst.copy_from_slice(src),
    }
}

/// `acc[i] += a * src[i]` for every element of two equally long slices.
#[inline]
pub(super) fn axpy(acc: &mut [f32], src: &[f32], a: f32) {
    debug_assert_eq!(acc.len(), src.len());
    for (acc, &v) in acc.iter_mut().zip(src) {
        *acc += a * v;
    }
}

/// `acc[i] += factors[i] * x` for every `i` with `factors[i] != 0`, over two
/// equally long slices.
#[inline]
pub(super) fn axpy_nonzero(acc: &mut [f32], factors: &[f32], x: f32) {
    debug_assert_eq!(acc.len(), factors.len());
    for (acc, &f) in acc.iter_mut().zip(factors) {
        let v = *acc + f * x;
        *acc = if f == 0.0 { *acc } else { v };
    }
}

/// `data` (`[blocks, channels, positions]`) transposed to `[blocks,
/// positions, lanes]`, with `channels` padded up to `lanes`, a multiple of
/// [`LANES`], by zeros. Returns the buffer and `lanes`.
pub(super) fn channels_last(
    data: &[f32],
    blocks: usize,
    channels: usize,
    positions: usize,
) -> (Vec<f32>, usize) {
    let lanes = channels.next_multiple_of(LANES).max(LANES);
    let mut out = vec![0.0f32; blocks * positions * lanes];
    for b in 0..blocks {
        for c in 0..channels {
            let src = &data[(b * channels + c) * positions..][..positions];
            for (pos, &v) in src.iter().enumerate() {
                out[(b * positions + pos) * lanes + c] = v;
            }
        }
    }
    (out, lanes)
}

/// The inverse of [`channels_last`], written into `out` (`[blocks,
/// channels, positions]`); the padding lanes are dropped.
pub(super) fn channels_first_into(
    buf: &[f32],
    channels: usize,
    positions: usize,
    lanes: usize,
    out: &mut [f32],
) {
    let blocks = out.len().checked_div(channels * positions).unwrap_or(0);
    for b in 0..blocks {
        for c in 0..channels {
            let dst = &mut out[(b * channels + c) * positions..][..positions];
            for (pos, v) in dst.iter_mut().enumerate() {
                *v = buf[(b * positions + pos) * lanes + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_exactly_the_in_bounds_taps() {
        let in_bounds = |c: usize, t: usize, stride: usize, padding: usize, fine_len: usize| {
            (c * stride + t)
                .checked_sub(padding)
                .is_some_and(|f| f < fine_len)
        };
        for (kernel, stride, padding) in [(3, 1, 1), (4, 2, 1), (1, 1, 0), (3, 2, 2), (4, 1, 0)] {
            for (coarse_len, fine_len) in [(1, 1), (5, 5), (4, 8), (3, 7), (8, 4), (2, 0)] {
                for c in 0..coarse_len {
                    let expected: Vec<usize> = (0..kernel)
                        .filter(|&t| in_bounds(c, t, stride, padding, fine_len))
                        .collect();
                    let got: Vec<usize> = offsets(c, kernel, stride, padding, fine_len).collect();
                    assert_eq!(got, expected, "k{kernel} s{stride} p{padding} c{c}");
                }
            }
        }
    }

    #[test]
    fn phases_group_positions_by_residue() {
        for (len, stride) in [(7, 2), (8, 2), (9, 3), (5, 1), (1, 2)] {
            let phases = Phases::new(len, stride);
            let row: Vec<f32> = (0..2 * len).map(|v| v as f32).collect();
            let split = phases.split(&row);
            for f in 0..len {
                assert_eq!(split[phases.index(f)], f as f32);
                assert_eq!(split[len + phases.index(f)], (len + f) as f32);
                if f + stride < len {
                    assert_eq!(phases.index(f + stride), phases.index(f) + 1);
                }
            }
        }
    }

    #[test]
    fn channels_last_round_trips() {
        let data: Vec<f32> = (0..2 * 3 * 5).map(|v| v as f32).collect();
        let (buf, lanes) = channels_last(&data, 2, 3, 5);
        assert_eq!((buf.len(), lanes), (2 * 5 * 4, 4));
        let mut back = vec![0.0; data.len()];
        channels_first_into(&buf, 3, 5, lanes, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn skipping_keeps_negative_zero_and_avoids_nan() {
        let mut acc = [-0.0f32, 1.0, -0.0, 2.0];
        axpy_nonzero(&mut acc, &[0.0, 0.0, 1.0, 0.0], f32::INFINITY);
        assert_eq!(
            acc.map(f32::to_bits),
            [-0.0, 1.0, f32::INFINITY, 2.0].map(f32::to_bits)
        );
    }
}
