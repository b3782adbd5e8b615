//! CNN layers with an integer MAC data path.
//!
//! [`Conv2d`] implements equation (4) of the paper; [`Dense`] the
//! matrix-vector classifier layers; [`Layer::ReLU`] and
//! [`Layer::MaxPool2d`] the non-linearity and pooling stages of Fig. 5.
//! Convolution and dense layers execute on quantized integers with 64-bit
//! accumulation — the arithmetic a DVAFS MAC array performs — and report
//! the MAC/sparsity statistics that drive the Envision power model.
//!
//! Two MAC kernels execute that arithmetic (see [`crate::kernel`]): the
//! original scalar loops ([`NnKernel::Naive`], the reference oracle) and
//! the subword-packed GEMM ([`NnKernel::GemmPacked`], the production
//! path), whose conv im2col is channels-last: each sample is written once
//! into a zero-bordered `(ky, kx, ci)`-ordered plane and every panel row
//! is `k` contiguous block copies out of it, against a weight panel
//! packed in the same tap order. The GEMM path always runs a batch — one
//! wide GEMM per layer — and a single sample is a batch of one.
//! Accumulation is exact in `i64` and integer sums are order-free, so
//! both kernels produce byte-identical outputs and statistics.

use crate::error::NnError;
use crate::kernel::{mode_for_bits, NnKernel, PackedWeights, Scratch, WeightCache};
use crate::quant::QuantizedTensor;
use crate::tensor::Tensor;
use dvafs_arith::SubwordMode;
use dvafs_simd::gemm;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Packs one dense panel row (a sample's full activation vector) into a
/// `PackedPanel::begin_fill` row at `LANES` two's-complement fields of
/// `WBITS` bits per word, exactly where `repack` would place each
/// operand (`X1` is `<1, 16, { i16::MIN as i32 }>` — the word IS the
/// operand), and zeroes the row tail past the last operand word (the
/// fill buffer is not pre-zeroed). Returns the row's
/// `(zero_count, has_min)` — `MIN` is the mode's most negative lane
/// value, which triggers the exact min-correction kernel.
fn fill_row_packed<const LANES: usize, const WBITS: u16, const MIN: i32>(
    src: &[i32],
    row: &mut [u16],
) -> (u64, bool) {
    let mut zeros = 0u64;
    let mut min = false;
    if LANES == 1 {
        for (d, &q) in row.iter_mut().zip(src) {
            zeros += u64::from(q == 0);
            min |= q == MIN;
            *d = q as u16;
        }
    } else {
        let mask = ((1u32 << WBITS) - 1) as u16;
        for (d, chunk) in row.iter_mut().zip(src.chunks(LANES)) {
            let mut word = 0u16;
            for (l, &q) in chunk.iter().enumerate() {
                zeros += u64::from(q == 0);
                min |= q == MIN;
                word |= ((q as u16) & mask) << (l as u16 * WBITS);
            }
            *d = word;
        }
    }
    row[src.len().div_ceil(LANES)..].fill(0);
    (zeros, min)
}

/// Execution statistics of one layer forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// MACs whose weight operand quantized to zero (guard-skippable).
    pub zero_weight_macs: u64,
    /// MACs whose activation operand quantized to zero (guard-skippable).
    pub zero_act_macs: u64,
}

impl LayerStats {
    /// Weight sparsity observed during the pass.
    #[must_use]
    pub fn weight_sparsity(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.zero_weight_macs as f64 / self.macs as f64
        }
    }

    /// Activation (input) sparsity observed during the pass.
    #[must_use]
    pub fn input_sparsity(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.zero_act_macs as f64 / self.macs as f64
        }
    }
}

/// A 2-D convolution layer (`F` filters of `K x K x C`, stride `S`,
/// symmetric zero padding), equation (4) of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    weights: Vec<f32>,
    bias: Vec<f32>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Memoized per-bit-width weight quantizations (execution state, not
    /// model identity: ignored by `PartialEq`, cleared by `weights_mut`).
    #[serde(skip)]
    cache: WeightCache,
}

impl PartialEq for Conv2d {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.bias == other.bias
            && self.in_channels == other.in_channels
            && self.out_channels == other.out_channels
            && self.kernel == other.kernel
            && self.stride == other.stride
            && self.padding == other.padding
    }
}

impl Conv2d {
    /// Creates a convolution with deterministic He-scaled pseudo-trained
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the stride is zero.
    #[must_use]
    pub fn random(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "convolution dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let count = out_channels * in_channels * kernel * kernel;
        // Uniform(-sqrt(3)σ, sqrt(3)σ) has standard deviation σ.
        let lim = std * 3f32.sqrt();
        let weights = (0..count).map(|_| rng.gen_range(-lim..lim)).collect();
        let bias = (0..out_channels)
            .map(|_| rng.gen_range(-0.05..0.05))
            .collect();
        Conv2d {
            weights,
            bias,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cache: WeightCache::default(),
        }
    }

    /// Filter count (`F`).
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (`K`).
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Weight tensor as a flat slice (`F*C*K*K`).
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable weights (for pruning). Invalidates the memoized weight
    /// quantizations — the next forward pass re-packs.
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        self.cache.invalidate();
        &mut self.weights
    }

    fn weights_tensor(&self) -> Tensor {
        let mut t = Tensor::zeros(1, 1, self.weights.len());
        t.as_mut_slice().copy_from_slice(&self.weights);
        t
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Rejects inputs whose channel count differs or whose padded plane
    /// cannot hold one kernel window.
    fn check_shape(&self, (c, h, w): (usize, usize, usize)) -> Result<(), NnError> {
        if c != self.in_channels
            || h + 2 * self.padding < self.kernel
            || w + 2 * self.padding < self.kernel
        {
            return Err(NnError::ShapeMismatch {
                expected: (self.in_channels, self.kernel, self.kernel),
                actual: (c, h, w),
            });
        }
        Ok(())
    }

    fn forward_with(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        self.check_shape(input.shape())?;
        let qa = QuantizedTensor::quantize(input, abits)?;
        self.forward_quant(&qa, wbits, kernel, scratch)
    }

    /// Executes the convolution on one already-quantized input
    /// activation. Quantization is a pure function of `(input, bits)`, so
    /// this is bit-identical to quantizing inline. The `GemmPacked` kernel
    /// runs the sample as a batch of one.
    pub(crate) fn forward_quant(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        match kernel {
            NnKernel::Naive => {
                self.check_shape(qa.shape)?;
                self.forward_naive(qa, wbits)
            }
            NnKernel::GemmPacked => {
                let mut out = self.forward_gemm(&[qa], wbits, scratch)?;
                Ok(out.pop().expect("one sample in, one result out"))
            }
        }
    }

    /// The original 7-deep scalar loop — the reference oracle the GEMM
    /// path is property-tested against. Kept verbatim (the input
    /// quantization moved to the callers; the MAC loop is untouched).
    fn forward_naive(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let (_, h, w) = qa.shape;
        let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)?;
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(self.out_channels, oh, ow);
        let mut stats = LayerStats::default();
        let k = self.kernel;
        let pad = self.padding as isize;
        let scale = qa.scale * qw.scale;
        for f in 0..self.out_channels {
            let wbase = f * self.in_channels * k * k;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc: i64 = 0;
                    for ci in 0..self.in_channels {
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue; // zero padding contributes nothing
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let a = qa.data[(ci * h + iy as usize) * w + ix as usize];
                                let wv = qw.data[wbase + (ci * k + ky) * k + kx];
                                stats.macs += 1;
                                if wv == 0 {
                                    stats.zero_weight_macs += 1;
                                }
                                if a == 0 {
                                    stats.zero_act_macs += 1;
                                }
                                acc += i64::from(a) * i64::from(wv);
                            }
                        }
                    }
                    out.set(
                        f,
                        oy,
                        ox,
                        (acc as f64 * scale + f64::from(self.bias[f])) as f32,
                    );
                }
            }
        }
        Ok((out, stats))
    }

    /// The memoized weight quantization for `wbits` (packed on first use;
    /// `weights_mut` invalidates).
    fn packed_weights(&self, wbits: u32) -> Result<Arc<PackedWeights>, NnError> {
        if wbits == 0 || wbits > 16 {
            return Err(NnError::InvalidBits { bits: wbits });
        }
        Ok(self.cache.get_or_pack(wbits, || {
            let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)
                .expect("bit width validated above");
            // Layout is [f][ci][ky][kx], so index % K² is the spatial tap.
            let k2 = self.kernel * self.kernel;
            let mut zeros_per_tap = vec![0u64; k2];
            let mut zeros_total = 0u64;
            for (i, &q) in qw.data.iter().enumerate() {
                if q == 0 {
                    zeros_per_tap[i % k2] += 1;
                    zeros_total += 1;
                }
            }
            // Pre-pack the subword panel at the width's own mode (one
            // filter per row, taps reordered channels-last to
            // `[f][ky][kx][ci]`, the order the fill copies activation
            // rows in): the hot path then only packs activations.
            let c = self.in_channels;
            let hwc: Vec<i16> = (0..self.out_channels * k2 * c)
                .map(|i| {
                    let (fi, tap, ci) = (i / (k2 * c), i / c % k2, i % c);
                    qw.data[(fi * c + ci) * k2 + tap] as i16
                })
                .collect();
            let panel =
                gemm::PackedPanel::pack(&hwc, self.out_channels, c * k2, mode_for_bits(wbits));
            PackedWeights {
                scale: qw.scale,
                zeros_per_tap,
                zeros_total,
                panel,
            }
        }))
    }

    /// Per-tap in-bounds output counts along one spatial axis: entry `kk`
    /// is the number of output positions `o` in `0..out_len` whose input
    /// coordinate `o*stride + kk - padding` lands inside `0..dim`. These
    /// counts are what the naive loop's per-MAC guards reduce to, so the
    /// GEMM path (and the exact [`mac_count`](Self::mac_count)) rebuilds
    /// the statistics from them without touching any data.
    fn axis_tap_counts(&self, out_len: usize, dim: usize) -> Vec<u64> {
        let pad = self.padding as isize;
        (0..self.kernel)
            .map(|kk| {
                (0..out_len)
                    .filter(|o| {
                        let i = (o * self.stride + kk) as isize - pad;
                        i >= 0 && (i as usize) < dim
                    })
                    .count() as u64
            })
            .collect()
    }

    /// Per-input use counts along one spatial axis: entry `i` is the
    /// number of in-bounds `(output, tap)` pairs `(o, kk)` in
    /// `0..out_len x 0..kernel` that read input coordinate `i` in
    /// `0..dim` — the transpose of [`axis_tap_counts`](Self::axis_tap_counts).
    /// A zero activation at `(iy, ix)` is a zero-operand MAC at exactly
    /// `uses_y[iy] * uses_x[ix]` panel positions per filter.
    fn axis_input_uses(&self, out_len: usize, dim: usize) -> Vec<u64> {
        let mut uses = vec![0u64; dim];
        for o in 0..out_len {
            for kk in 0..self.kernel {
                if let Some(i) = (o * self.stride + kk).checked_sub(self.padding) {
                    if i < dim {
                        uses[i] += 1;
                    }
                }
            }
        }
        uses
    }

    /// Writes one sample's quantized input into the interior of the
    /// zero-bordered channels-last `plane` (`(h+2p) x (w+2p) x c`, each
    /// value as its two's-complement lane field at `mode`) — the
    /// conv fill's one pass over the input. The border is never
    /// written, so it keeps the zeros the caller sized the plane with.
    ///
    /// Returns the sample's `(zero_acts, has_min)` over the im2col panel
    /// that [`copy_im2col_rows`](Self::copy_im2col_rows) builds from the
    /// plane: input `(iy, ix)` appears at `uses_y[iy] * uses_x[ix]` panel
    /// positions (see [`axis_input_uses`](Self::axis_input_uses)), and a
    /// padding tap is a *skipped* MAC, never counted. `has_min` flags the
    /// mode's most negative lane value at any used position.
    fn fill_plane(
        &self,
        qa: &QuantizedTensor,
        mode: SubwordMode,
        uses: (&[u64], &[u64]),
        plane: &mut [u16],
    ) -> (u64, bool) {
        let (_, h, w) = qa.shape;
        let (uses_y, uses_x) = uses;
        let c = self.in_channels;
        let pad = self.padding;
        let wp = w + 2 * pad;
        let lane_bits = mode.lane_bits();
        let mask = ((1u32 << lane_bits) - 1) as u16;
        let min = -(1i32 << (lane_bits - 1));
        let (mut zero_acts, mut min_uses) = (0u64, 0u64);
        for (iy, &uy) in uses_y.iter().enumerate() {
            let prow = &mut plane[((iy + pad) * wp + pad) * c..][..w * c];
            let (mut zeros, mut mins) = (0u64, 0u64);
            for ci in 0..c {
                let src = &qa.data[(ci * h + iy) * w..][..w];
                let dst = prow[ci..].iter_mut().step_by(c);
                for ((d, &q), &ux) in dst.zip(src).zip(uses_x) {
                    zeros += if q == 0 { ux } else { 0 };
                    mins += if q == min { ux } else { 0 };
                    *d = (q as u16) & mask;
                }
            }
            zero_acts += zeros * uy;
            min_uses += mins * uy;
        }
        (zero_acts, min_uses > 0)
    }

    /// Builds one sample's block of packed im2col rows (`n` rows of
    /// `stride` words) from its channels-last `plane`: the taps of output
    /// `(oy, ox)` in `(ky, kx, ci)` order are `k` contiguous runs of
    /// `k·c` plane fields, one per `ky`. `X1` (`LANES == 1`) copies the
    /// runs straight into the panel row; sub-word modes copy them into
    /// the zero-tailed `stage` (`stride * LANES` fields) and pack whole
    /// words from it. Every word of every row is written, the zero row
    /// tail included.
    fn copy_im2col_rows<const LANES: usize, const WBITS: u16>(
        &self,
        w: usize,
        plane: &[u16],
        stage: &mut [u16],
        block: &mut [u16],
        stride: usize,
    ) {
        let (c, k, s) = (self.in_channels, self.kernel, self.stride);
        let wp = w + 2 * self.padding;
        let ow = (wp - k) / s + 1;
        let run = k * c;
        let klen = k * run;
        for (r, row) in block.chunks_exact_mut(stride).enumerate() {
            let (oy, ox) = (r / ow, r % ow);
            let at = (oy * s * wp + ox * s) * c;
            let dst = if LANES == 1 { &mut *row } else { &mut *stage };
            for (ky, run_dst) in dst[..klen].chunks_exact_mut(run).enumerate() {
                run_dst.copy_from_slice(&plane[at + ky * wp * c..][..run]);
            }
            if LANES == 1 {
                row[klen..].fill(0);
            } else {
                for (d, fields) in row.iter_mut().zip(stage.chunks_exact(LANES)) {
                    let mut word = 0u16;
                    for (l, &v) in fields.iter().enumerate() {
                        word |= v << (l as u16 * WBITS);
                    }
                    *d = word;
                }
            }
        }
    }

    /// The data-independent guard-skip statistics of one GEMM conv pass
    /// on an `h x w` input, reproduced exactly from the packed
    /// representation: tap `(ky, kx)` is in bounds at `py[ky]*px[kx]`
    /// output positions. Returns `(macs, zero_weight_macs)`; the
    /// data-dependent `zero_act_macs` comes from the panel fill.
    fn gemm_mac_stats(&self, pw: &PackedWeights, h: usize, w: usize) -> (u64, u64) {
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let py = self.axis_tap_counts(oh, h);
        let px = self.axis_tap_counts(ow, w);
        let spatial_taps: u64 = py.iter().sum::<u64>() * px.iter().sum::<u64>();
        let mut zero_weight_macs = 0u64;
        for (ky, &cy) in py.iter().enumerate() {
            for (kx, &cx) in px.iter().enumerate() {
                zero_weight_macs += pw.zeros_per_tap[ky * k + kx] * cy * cx;
            }
        }
        (
            (self.out_channels * self.in_channels) as u64 * spatial_taps,
            zero_weight_macs,
        )
    }

    /// The `GemmPacked` conv path on a non-empty batch of
    /// already-quantized inputs of one shape and bit width (a single
    /// sample is `B = 1`): each sample's im2col panel becomes `n` rows of
    /// a shared `(B·n) x k` activation panel and the batch runs as **one
    /// wide GEMM**, so the packed weight panel streams through cache once
    /// per batch instead of once per sample. Padding taps are structural
    /// zeros, which contribute nothing to the exact `i64` sums, so every
    /// output is byte-identical to [`forward_naive`](Self::forward_naive).
    ///
    /// Each sample is written once into a zero-bordered channels-last
    /// plane ([`fill_plane`](Self::fill_plane)); every panel row is `k`
    /// block copies out of it at the activation width's
    /// [`mode_for_bits`] lane geometry
    /// ([`copy_im2col_rows`](Self::copy_im2col_rows)), multiplied against
    /// the pre-packed `(ky, kx, ci)` weight panel by the exact packed
    /// GEMM. Integer sums are order-free, so the tap order never moves a
    /// number.
    fn forward_gemm(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        self.check_shape(qas[0].shape)?;
        let pw = self.packed_weights(wbits)?;
        let (c, h, w) = qas[0].shape;
        let (oh, ow) = self.out_hw(h, w);
        let f = self.out_channels;
        let klen = c * self.kernel * self.kernel;
        let n = oh * ow;
        let b = qas.len();
        let total = b * n;

        // The GEMM fully overwrites its output, so only grow the
        // accumulator — no per-call zero fill of `f * total` elements.
        if scratch.acc.len() < f * total {
            scratch.acc.resize(f * total, 0);
        }
        let acc = &mut scratch.acc[..f * total];
        // One concatenated panel: sample `si` owns rows `si*n..(si+1)*n`.
        let mut zero_acts = Vec::with_capacity(b);
        let mode = mode_for_bits(qas[0].bits);
        let uses_y = self.axis_input_uses(oh, h);
        let uses_x = self.axis_input_uses(ow, w);
        let pad = self.padding;
        scratch.plane.clear();
        scratch.plane.resize((h + 2 * pad) * (w + 2 * pad) * c, 0);
        let (words, stride) = scratch.packed.begin_fill(total, klen, mode);
        scratch.stage.clear();
        scratch.stage.resize(stride * mode.lanes(), 0);
        let mut has_min = false;
        for (qa, block) in qas.iter().zip(words.chunks_exact_mut(n * stride)) {
            let (zeros, min) = self.fill_plane(qa, mode, (&uses_y, &uses_x), &mut scratch.plane);
            let (plane, stage) = (&scratch.plane, &mut scratch.stage);
            match mode {
                SubwordMode::X1 => self.copy_im2col_rows::<1, 16>(w, plane, stage, block, stride),
                SubwordMode::X2 => self.copy_im2col_rows::<2, 8>(w, plane, stage, block, stride),
                SubwordMode::X4 => self.copy_im2col_rows::<4, 4>(w, plane, stage, block, stride),
            }
            zero_acts.push(zeros);
            has_min |= min;
        }
        scratch.packed.finish_fill(has_min);
        gemm::gemm_packed(&pw.panel, &scratch.packed, acc);

        let (macs, zero_weight_macs) = self.gemm_mac_stats(&pw, h, w);
        // Slice each sample's output columns back out: filter `fi` of
        // sample `si` lives at `acc[fi*total + si*n ..][..n]`. The scale
        // stays per-sample (per-tensor quantization grids).
        let mut results = Vec::with_capacity(b);
        for (si, qa) in qas.iter().enumerate() {
            let scale = qa.scale * pw.scale;
            let mut data = Vec::with_capacity(f * n);
            for fi in 0..f {
                let bias = f64::from(self.bias[fi]);
                let acc_row = &scratch.acc[fi * total + si * n..][..n];
                data.extend(
                    acc_row
                        .iter()
                        .map(|&acc| (acc as f64 * scale + bias) as f32),
                );
            }
            let stats = LayerStats {
                macs,
                zero_weight_macs,
                zero_act_macs: f as u64 * zero_acts[si],
            };
            results.push((Tensor::from_vec(f, oh, ow, data), stats));
        }
        Ok(results)
    }

    /// MACs for one forward pass on an input of shape `(c, h, w)` —
    /// **exact**: zero-padding taps are excluded, matching the count the
    /// forward pass executes (the former dense-interior approximation
    /// over-counted padded convolutions by up to ~20 % on LeNet's conv1).
    #[must_use]
    pub fn mac_count(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_hw(h, w);
        let py: u64 = self.axis_tap_counts(oh, h).iter().sum();
        let px: u64 = self.axis_tap_counts(ow, w).iter().sum();
        (self.out_channels * self.in_channels) as u64 * py * px
    }
}

/// A fully-connected classifier layer (`O[z] = Σ W[z,m] I[m] + B[z]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Vec<f32>,
    bias: Vec<f32>,
    inputs: usize,
    outputs: usize,
    /// Memoized per-bit-width weight quantizations (execution state; see
    /// [`Conv2d::cache`]).
    #[serde(skip)]
    cache: WeightCache,
}

impl PartialEq for Dense {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.bias == other.bias
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl Dense {
    /// Creates a dense layer with deterministic He-scaled weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn random(inputs: usize, outputs: usize, seed: u64) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "dense dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let std = (2.0 / inputs as f32).sqrt();
        let lim = std * 3f32.sqrt();
        Dense {
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range(-lim..lim))
                .collect(),
            bias: (0..outputs).map(|_| rng.gen_range(-0.05..0.05)).collect(),
            inputs,
            outputs,
            cache: WeightCache::default(),
        }
    }

    /// Input features consumed (the flattened input length).
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output features produced.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Mutable weights (for pruning). Invalidates the memoized weight
    /// quantizations — the next forward pass re-packs.
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        self.cache.invalidate();
        &mut self.weights
    }

    /// Mutable biases (for logit calibration). Biases are not quantized,
    /// so the weight cache stays valid.
    #[must_use]
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    fn weights_tensor(&self) -> Tensor {
        let mut t = Tensor::zeros(1, 1, self.weights.len());
        t.as_mut_slice().copy_from_slice(&self.weights);
        t
    }

    /// Rejects inputs whose flattened length differs from the layer's
    /// input width.
    fn check_shape(&self, (c, h, w): (usize, usize, usize)) -> Result<(), NnError> {
        if c * h * w != self.inputs {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1, self.inputs),
                actual: (c, h, w),
            });
        }
        Ok(())
    }

    fn forward_with(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        self.check_shape(input.shape())?;
        let qa = QuantizedTensor::quantize(input, abits)?;
        self.forward_quant(&qa, wbits, kernel, scratch)
    }

    /// Executes the layer on an already-quantized input activation (see
    /// [`Conv2d::forward_quant`]).
    pub(crate) fn forward_quant(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        match kernel {
            NnKernel::Naive => {
                self.check_shape(qa.shape)?;
                self.forward_naive(qa, wbits)
            }
            NnKernel::GemmPacked => {
                let mut out = self.forward_gemm(&[qa], wbits, scratch)?;
                Ok(out.pop().expect("one sample in, one result out"))
            }
        }
    }

    /// The original 2-deep scalar loop — the reference oracle. Kept
    /// verbatim (the input quantization moved to the callers; the MAC
    /// loop is untouched).
    fn forward_naive(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)?;
        let scale = qa.scale * qw.scale;
        let mut out = Tensor::zeros(1, 1, self.outputs);
        let mut stats = LayerStats::default();
        for z in 0..self.outputs {
            let mut acc: i64 = 0;
            let base = z * self.inputs;
            for m in 0..self.inputs {
                let a = qa.data[m];
                let wv = qw.data[base + m];
                stats.macs += 1;
                if wv == 0 {
                    stats.zero_weight_macs += 1;
                }
                if a == 0 {
                    stats.zero_act_macs += 1;
                }
                acc += i64::from(a) * i64::from(wv);
            }
            out.set(
                0,
                0,
                z,
                (acc as f64 * scale + f64::from(self.bias[z])) as f32,
            );
        }
        Ok((out, stats))
    }

    /// The memoized weight quantization for `wbits` (see
    /// [`Conv2d::packed_weights`]).
    fn packed_weights(&self, wbits: u32) -> Result<Arc<PackedWeights>, NnError> {
        if wbits == 0 || wbits > 16 {
            return Err(NnError::InvalidBits { bits: wbits });
        }
        Ok(self.cache.get_or_pack(wbits, || {
            let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)
                .expect("bit width validated above");
            let mut qi16 = Vec::new();
            let zeros_total = qw.fill_i16(&mut qi16);
            let panel =
                gemm::PackedPanel::pack(&qi16, self.outputs, self.inputs, mode_for_bits(wbits));
            PackedWeights {
                scale: qw.scale,
                zeros_per_tap: Vec::new(),
                zeros_total,
                panel,
            }
        }))
    }

    /// The `GemmPacked` dense path on a non-empty batch of
    /// already-quantized inputs of one grid geometry (a single sample is
    /// `B = 1`): one `outputs x inputs x B` GEMM, with each sample's
    /// activation vector one row of a shared `B x inputs` right-hand panel,
    /// so the packed weight rows stream once per batch. Every weight is
    /// consumed exactly once and every activation once per output row, so
    /// the guard-skip counters are the packed zero counts directly, and
    /// every output is the same exact-`i64` dot product
    /// [`forward_naive`](Self::forward_naive) computes.
    fn forward_gemm(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        self.check_shape(qas[0].shape)?;
        let pw = self.packed_weights(wbits)?;
        let b = qas.len();
        let mode = mode_for_bits(qas[0].bits);
        let mut zero_counts = Vec::with_capacity(b);
        // The GEMM fully overwrites its output, so only grow the
        // accumulator — no per-call zero fill.
        if scratch.acc.len() < self.outputs * b {
            scratch.acc.resize(self.outputs * b, 0);
        }
        let acc = &mut scratch.acc[..self.outputs * b];
        // Direct panel fill at the activation mode's lane geometry: each
        // sample's vector is one panel row, every word written.
        let (words, stride) = scratch.packed.begin_fill(b, self.inputs, mode);
        let mut has_min = false;
        for (qa, row) in qas.iter().zip(words.chunks_exact_mut(stride)) {
            let (zeros, min) = match mode {
                SubwordMode::X1 => fill_row_packed::<1, 16, { i16::MIN as i32 }>(&qa.data, row),
                SubwordMode::X2 => fill_row_packed::<2, 8, -128>(&qa.data, row),
                SubwordMode::X4 => fill_row_packed::<4, 4, -8>(&qa.data, row),
            };
            zero_counts.push(zeros);
            has_min |= min;
        }
        scratch.packed.finish_fill(has_min);
        gemm::gemm_packed(&pw.panel, &scratch.packed, acc);

        // Sample `si` of output row `z` lives at `acc[z*b + si]`.
        let mut results = Vec::with_capacity(b);
        for (si, qa) in qas.iter().enumerate() {
            let scale = qa.scale * pw.scale;
            let data: Vec<f32> = (0..self.outputs)
                .map(|z| (scratch.acc[z * b + si] as f64 * scale + f64::from(self.bias[z])) as f32)
                .collect();
            let stats = LayerStats {
                macs: (self.outputs * self.inputs) as u64,
                zero_weight_macs: pw.zeros_total,
                zero_act_macs: self.outputs as u64 * zero_counts[si],
            };
            results.push((Tensor::from_vec(1, 1, self.outputs, data), stats));
        }
        Ok(results)
    }
}

/// One stage of a CNN (Fig. 5): convolution, non-linearity, pooling or
/// classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Convolutional feature extraction (eq. 4).
    Conv2d(Conv2d),
    /// Rectified linear unit `f(u) = max(0, u)`.
    ReLU,
    /// Max pooling over `k x k` patches with stride `stride`.
    MaxPool2d {
        /// Pool window size.
        k: usize,
        /// Pool stride.
        stride: usize,
    },
    /// Fully-connected classifier layer.
    Dense(Dense),
}

impl Layer {
    /// Human-readable layer name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Layer::Conv2d(c) => format!("conv{}x{}x{}", c.kernel, c.kernel, c.out_channels),
            Layer::ReLU => "relu".to_string(),
            Layer::MaxPool2d { k, stride } => format!("maxpool{k}s{stride}"),
            Layer::Dense(d) => format!("fc{}", d.outputs()),
        }
    }

    /// Whether the layer has quantizable weights (conv/dense).
    #[must_use]
    pub fn is_parameterized(&self) -> bool {
        matches!(self, Layer::Conv2d(_) | Layer::Dense(_))
    }

    /// Quantizes and packs this layer's weights for `wbits` ahead of the
    /// first forward pass (a no-op for non-parameterized layers and for
    /// widths already cached). Long-lived callers — `dvafs serve` keeps
    /// networks alive across requests — use this to pin the packing cost
    /// to model load instead of the first inference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidBits`] for widths outside `1..=16`.
    pub fn warm_weights(&self, wbits: u32) -> Result<(), NnError> {
        match self {
            Layer::Conv2d(c) => c.packed_weights(wbits).map(|_| ()),
            Layer::Dense(d) => d.packed_weights(wbits).map(|_| ()),
            Layer::ReLU | Layer::MaxPool2d { .. } => Ok(()),
        }
    }

    /// Executes the layer; `wbits`/`abits` only affect parameterized layers.
    ///
    /// Runs on the default MAC kernel with a throwaway scratch — hot paths
    /// should use [`forward_with`](Self::forward_with) and reuse a
    /// [`Scratch`] across layers and samples.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input does not fit and
    /// [`NnError::InvalidBits`] for bit widths outside `1..=16`.
    pub fn forward(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        self.forward_with(
            input,
            wbits,
            abits,
            NnKernel::default(),
            &mut Scratch::new(),
        )
    }

    /// Executes the layer on an explicit MAC kernel with caller-provided
    /// scratch buffers. The kernel choice never changes outputs or
    /// statistics — only wall time.
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Self::forward).
    pub fn forward_with(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        match self {
            Layer::Conv2d(c) => c.forward_with(input, wbits, abits, kernel, scratch),
            Layer::Dense(d) => d.forward_with(input, wbits, abits, kernel, scratch),
            Layer::ReLU => {
                let mut out = input.clone();
                for v in out.as_mut_slice() {
                    *v = v.max(0.0);
                }
                Ok((out, LayerStats::default()))
            }
            Layer::MaxPool2d { k, stride } => {
                let (c, h, w) = input.shape();
                if h < *k || w < *k {
                    return Err(NnError::ShapeMismatch {
                        expected: (c, *k, *k),
                        actual: (c, h, w),
                    });
                }
                let oh = (h - k) / stride + 1;
                let ow = (w - k) / stride + 1;
                // Row-slice walk over each channel plane; the `ky`-then-`kx`
                // max order within a window is fixed, so ±0/NaN results
                // never depend on the walk.
                let src = input.as_slice();
                let mut data = Vec::with_capacity(c * oh * ow);
                for ci in 0..c {
                    let plane = &src[ci * h * w..][..h * w];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut m = f32::NEG_INFINITY;
                            for ky in 0..*k {
                                let row = &plane[(oy * stride + ky) * w + ox * stride..][..*k];
                                for &v in row {
                                    m = m.max(v);
                                }
                            }
                            data.push(m);
                        }
                    }
                }
                Ok((Tensor::from_vec(c, oh, ow, data), LayerStats::default()))
            }
        }
    }

    /// Executes a **parameterized** layer on one already-quantized input
    /// activation. Bit-identical to [`forward_with`](Self::forward_with)
    /// because quantization is a pure function of `(input, abits)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input does not fit or
    /// when called on a non-parameterized layer (ReLU / pooling layers
    /// take no quantized operands — callers route them through
    /// [`forward_with`](Self::forward_with)).
    pub(crate) fn forward_prequantized(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        match self {
            Layer::Conv2d(c) => c.forward_quant(qa, wbits, kernel, scratch),
            Layer::Dense(d) => d.forward_quant(qa, wbits, kernel, scratch),
            Layer::ReLU | Layer::MaxPool2d { .. } => Err(NnError::ShapeMismatch {
                expected: (0, 0, 0),
                actual: qa.shape,
            }),
        }
    }

    /// Executes the layer on a whole chunk of samples — one step of the
    /// batched forward: parameterized layers quantize each input at `abits` (in
    /// sample order; quantization is per-sample, so grids and scales are
    /// unchanged) and fuse the batch into one wide GEMM; ReLU/pooling
    /// layers run per sample. Bit-identical to mapping
    /// [`forward_with`](Self::forward_with) over the samples.
    ///
    /// # Errors
    ///
    /// Same per-sample errors as [`forward_with`](Self::forward_with);
    /// the first failing sample (in sample order) of this layer wins.
    pub(crate) fn forward_batch_with(
        &self,
        inputs: &[Tensor],
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        match self {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                // Validate-then-quantize per sample, in sample order, so a
                // bad sample surfaces the same error the per-sample path
                // would raise for it.
                let mut qas = Vec::with_capacity(inputs.len());
                for input in inputs {
                    self.validate_input(input)?;
                    qas.push(QuantizedTensor::quantize(input, abits)?);
                }
                let refs: Vec<&QuantizedTensor> = qas.iter().collect();
                self.forward_prequantized_batch(&refs, wbits, kernel, scratch)
            }
            Layer::ReLU | Layer::MaxPool2d { .. } => inputs
                .iter()
                .map(|input| self.forward_with(input, wbits, abits, kernel, scratch))
                .collect(),
        }
    }

    /// The batch counterpart of
    /// [`forward_prequantized`](Self::forward_prequantized): a whole
    /// chunk of already-quantized inputs through one parameterized layer
    /// (the incremental precision search feeds it from its
    /// per-`(sample, layer, abits)` [`crate::kernel::ActivationCache`]).
    /// The `GemmPacked` kernel runs a chunk of one grid geometry as one
    /// wide GEMM; the naive oracle and mixed-geometry chunks run sample
    /// by sample. Every output element is the same exact-`i64` dot either
    /// way, so outputs and statistics are bit-identical.
    ///
    /// # Errors
    ///
    /// Same as [`forward_prequantized`](Self::forward_prequantized).
    pub(crate) fn forward_prequantized_batch(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let fused = kernel == NnKernel::GemmPacked
            && qas.first().is_some_and(|q0| {
                qas.iter()
                    .all(|qa| qa.shape == q0.shape && qa.bits == q0.bits)
            });
        if !fused {
            return qas
                .iter()
                .map(|qa| self.forward_prequantized(qa, wbits, kernel, scratch))
                .collect();
        }
        match self {
            Layer::Conv2d(c) => c.forward_gemm(qas, wbits, scratch),
            Layer::Dense(d) => d.forward_gemm(qas, wbits, scratch),
            Layer::ReLU | Layer::MaxPool2d { .. } => Err(NnError::ShapeMismatch {
                expected: (0, 0, 0),
                actual: qas[0].shape,
            }),
        }
    }

    /// The shape validation [`forward_with`](Self::forward_with) performs
    /// before quantizing (parameterized layers only).
    fn validate_input(&self, input: &Tensor) -> Result<(), NnError> {
        match self {
            Layer::Conv2d(c) => c.check_shape(input.shape()),
            Layer::Dense(d) => d.check_shape(input.shape()),
            Layer::ReLU | Layer::MaxPool2d { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_filter_passes_input_through() {
        // A 1x1 kernel with weight snapped exactly on the quant grid.
        let mut conv = Conv2d::random(1, 1, 1, 1, 0, 1);
        conv.weights_mut()[0] = 1.0;
        let input = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f32 / 10.0);
        let (out, stats) = conv
            .forward_with(&input, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(out.shape(), (1, 3, 3));
        assert_eq!(stats.macs, 9);
        // out = in + bias: the offset must be the same everywhere.
        let bias = out.get(0, 0, 0) - input.get(0, 0, 0);
        for y in 0..3 {
            for x in 0..3 {
                let got = out.get(0, y, x) - input.get(0, y, x);
                assert!((got - bias).abs() < 0.01, "y={y} x={x}: {got} vs {bias}");
            }
        }
    }

    #[test]
    fn conv_shapes_follow_stride_and_padding() {
        let conv = Conv2d::random(3, 8, 3, 2, 1, 2);
        let input = Tensor::random(3, 9, 9, 3);
        let (out, _) = conv
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        // (9 + 2 - 3)/2 + 1 = 5.
        assert_eq!(out.shape(), (8, 5, 5));
    }

    #[test]
    fn conv_rejects_wrong_channel_count() {
        let conv = Conv2d::random(3, 4, 3, 1, 0, 4);
        let input = Tensor::random(2, 8, 8, 5);
        assert!(matches!(
            conv.forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new()),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conv_mac_count_matches_dense_interior() {
        let conv = Conv2d::random(2, 4, 3, 1, 0, 6);
        let input = Tensor::random(2, 6, 6, 7);
        let (_, stats) = conv
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        // No padding: executed MACs equal the analytic count.
        assert_eq!(stats.macs, conv.mac_count(6, 6));
        assert_eq!(stats.macs, 4 * 4 * 4 * 2 * 9);
    }

    #[test]
    fn relu_clamps_negative_values() {
        let mut t = Tensor::zeros(1, 1, 3);
        t.set(0, 0, 0, -1.0);
        t.set(0, 0, 1, 2.0);
        let (out, _) = Layer::ReLU.forward(&t, 16, 16).unwrap();
        assert_eq!(out.get(0, 0, 0), 0.0);
        assert_eq!(out.get(0, 0, 1), 2.0);
    }

    #[test]
    fn maxpool_takes_patch_maximum() {
        let t = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let (out, _) = Layer::MaxPool2d { k: 2, stride: 2 }
            .forward(&t, 16, 16)
            .unwrap();
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 5.0);
        assert_eq!(out.get(0, 1, 1), 15.0);
    }

    #[test]
    fn overlapping_pool_shape() {
        // AlexNet-style 3x3 stride-2 pooling.
        let t = Tensor::random(2, 13, 13, 8);
        let (out, _) = Layer::MaxPool2d { k: 3, stride: 2 }
            .forward(&t, 16, 16)
            .unwrap();
        assert_eq!(out.shape(), (2, 6, 6));
    }

    #[test]
    fn dense_computes_matrix_vector_product() {
        let mut d = Dense::random(2, 1, 9);
        d.weights_mut().copy_from_slice(&[0.5, -0.25]);
        let mut input = Tensor::zeros(1, 1, 2);
        input.set(0, 0, 0, 1.0);
        input.set(0, 0, 1, 1.0);
        let (out, stats) = d
            .forward_with(&input, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(stats.macs, 2);
        let bias = out.get(0, 0, 0) - 0.25;
        assert!(bias.abs() < 0.06, "residual {bias}");
    }

    #[test]
    fn dense_flattens_multi_channel_input() {
        let d = Dense::random(2 * 3 * 3, 5, 10);
        let input = Tensor::random(2, 3, 3, 11);
        let (out, _) = d
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(out.shape(), (1, 1, 5));
    }

    #[test]
    fn coarse_quantization_changes_conv_output() {
        let conv = Conv2d::random(1, 4, 3, 1, 0, 12);
        let input = Tensor::random(1, 8, 8, 13);
        let (fine, _) = conv
            .forward_with(&input, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        let (coarse, _) = conv
            .forward_with(&input, 2, 2, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        let diff: f32 = fine
            .as_slice()
            .iter()
            .zip(coarse.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.01, "2-bit output should differ from 16-bit");
    }

    #[test]
    fn sparsity_stats_flag_zero_operands() {
        let mut conv = Conv2d::random(1, 1, 3, 1, 0, 14);
        // Zero out half the kernel.
        for w in conv.weights_mut().iter_mut().take(4) {
            *w = 0.0;
        }
        let mut input = Tensor::random(1, 5, 5, 15);
        // Force some zero activations.
        for v in input.as_mut_slice().iter_mut().take(10) {
            *v = 0.0;
        }
        let (_, stats) = conv
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert!(stats.weight_sparsity() > 0.3);
        assert!(stats.input_sparsity() > 0.1);
    }

    /// A lone dense sample runs as B = 1 of the batched fill
    /// (`fill_row_packed` + `gemm_packed`). An activation vector holding
    /// the mode's most negative lane value must come out of that fill as
    /// exactly the panel `PackedPanel::pack` builds — words and the
    /// `has_min` flag that selects the exact `X1 x X1` kernel — and must
    /// match the naive oracle, for `X1`, `X2` and `X4`.
    #[test]
    fn dense_batch_of_one_flags_the_mode_minimum() {
        let d = Dense::random(37, 5, 21);
        for bits in [16u32, 8, 4] {
            let mode = mode_for_bits(bits);
            let min = -(1i32 << (mode.lane_bits() - 1));
            let max = (1i32 << (mode.lane_bits() - 1)) - 1;
            let data: Vec<i32> = (0..37i32)
                .map(|i| match i % 4 {
                    0 => min,
                    1 => 0,
                    2 => max,
                    _ => (i - 18).clamp(min, max),
                })
                .collect();
            let qa = QuantizedTensor {
                data,
                scale: 0.01,
                bits,
                shape: (1, 1, 37),
            };
            let mut scratch = Scratch::new();
            let (naive, naive_stats) = d
                .forward_quant(&qa, 8, NnKernel::Naive, &mut scratch)
                .unwrap();
            let (packed, packed_stats) = d
                .forward_quant(&qa, 8, NnKernel::GemmPacked, &mut scratch)
                .unwrap();
            let lanes: Vec<i16> = qa.data.iter().map(|&q| q as i16).collect();
            assert_eq!(
                scratch.packed,
                gemm::PackedPanel::pack(&lanes, 1, 37, mode),
                "{mode}: filled panel differs from pack"
            );
            assert_eq!(naive_stats, packed_stats, "{mode}: statistics diverged");
            let nb: Vec<u32> = naive.as_slice().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = packed.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(nb, pb, "{mode}: outputs diverged bitwise");
        }
    }

    #[test]
    fn layer_names() {
        assert_eq!(
            Layer::Conv2d(Conv2d::random(1, 6, 5, 1, 2, 0)).name(),
            "conv5x5x6"
        );
        assert_eq!(Layer::Dense(Dense::random(10, 4, 0)).name(), "fc4");
        assert_eq!(Layer::MaxPool2d { k: 2, stride: 2 }.name(), "maxpool2s2");
    }
}
