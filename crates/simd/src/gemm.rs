//! Subword-packed integer GEMM for quantized MAC workloads.
//!
//! The DVAFS claim is that reduced-precision MAC *arrays* are cheap; this
//! module is the software mirror of that array: instead of issuing one
//! guarded multiply-accumulate at a time (the naive 7-deep convolution
//! loop), operands are packed into dense lane-word panels and consumed by
//! a tiled matrix-matrix product with exact 64-bit accumulation.
//!
//! Exactness is the load-bearing property: every output is the exact
//! mathematical dot product, so any tiling or unrolling order yields
//! bit-identical results to the scalar reference loop — which is what
//! lets `dvafs-nn` swap its naive layer loops for [`gemm_packed`] without
//! moving a single output, and what the `Naive == GemmPacked` property
//! tests assert.
//!
//! The layout convention is dot-product friendly: the left operand `A` is
//! `m x k` row-major and the right operand is handed over **already
//! transposed** (`Bᵗ`, `n x k` row-major — e.g. one im2col patch per row),
//! so every inner product walks two contiguous rows.
//!
//! ## Subword-packed panels
//!
//! [`PackedPanel`]/[`gemm_packed`] are the software edition of the paper's
//! Section II-C subword reconfiguration: when a panel's operands fit 8
//! (or 4) bits, each 16-bit lane word carries 2 (or 4) of them, following
//! **exactly** the field rules of `dvafs_arith::subword::pack_lanes`
//! (lane 0 at the LSBs, two's-complement fields of
//! [`SubwordMode::lane_bits`] each — the correspondence is pinned by
//! test). [`gemm_packed`] re-expands lanes on the fly and keeps the
//! accumulation exact:
//!
//! * every 16-lane step forms pairwise `i32` sums of products (the
//!   `pmaddwd` shape);
//! * narrow modes bound the pair sums (`2·2^(wa-1)·2^(wb-1)`), so whole
//!   blocks accumulate in `i32` before being widened to `i64` — the
//!   block length per mode pair is chosen so the `i32` partial can never
//!   wrap;
//! * full-width `X1 x X1` pair sums fit `i32` one at a time but not in
//!   runs, so they accumulate as a hi/lo split: `hi` sums `p >> 16`, `lo`
//!   sums `p` wrapping, and `2^16·hi + ((lo - 2^16·hi) mod 2^32)` is the
//!   exact sum while a block stays under `2^16` steps;
//! * the one full-width corner — both pairs of a step summing
//!   `MIN·MIN + MIN·MIN = 2^31` — is corrected explicitly: panels record
//!   at pack time whether they contain `-2^(w-1)`, and only when *both*
//!   operands do does the kernel count the overflowing cross-terms and
//!   add back `2^32` per occurrence.
//!
//! The result is the exact `i64` dot product of the re-expanded lanes for
//! every input `pack_lanes` accepts (the unit tests pin it against a
//! naive triple loop). On x86-64 hosts with AVX2 (a run-time feature
//! check: the workspace targets baseline x86-64) the multiply runs as a
//! register-tiled micro-kernel: every 16-lane step loads and decodes a
//! block of weight rows and a block of activation rows **once** and
//! issues one `vpmaddwd` per row pair, so each decode serves a whole row
//! or column of the tile instead of a single output. Everywhere else a
//! scalar decode loop computes the same exact sums one output at a time.

use dvafs_arith::SubwordMode;

/// Logical lanes one packed dot step consumes (and the lane count panel
/// rows are zero-padded to): 16 lanes per step means one full 256-bit
/// vector of re-expanded `i16` operands on the AVX2 path, and one decode
/// buffer on the scalar path. Padding lanes are zero, so they never move
/// a sum.
pub const PACK_STEP_LANES: usize = 16;

/// A row-major operand panel packed at a [`SubwordMode`]'s lane geometry —
/// the DVAFS subword move applied to GEMM storage.
///
/// Each row holds `k` logical operands as 16-bit lane words following the
/// field rules of `dvafs_arith::subword::pack_lanes`: `mode.lanes()`
/// two's-complement fields of `mode.lane_bits()` each, lane 0 at the
/// LSBs. `X1` stores one operand per word (the operand's `i16` bits),
/// `X2` two, `X4` four. Rows are padded with zero lanes to a
/// multiple of [`PACK_STEP_LANES`], so two panels of equal `k` always
/// walk the same step count regardless of their (possibly different)
/// modes — which is how a 4-bit weight panel dots against a 16-bit
/// activation panel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedPanel {
    mode: SubwordMode,
    rows: usize,
    k: usize,
    words_per_row: usize,
    /// Whether any lane holds the mode's most negative value `-2^(w-1)`.
    /// Only the `X1 x X1` kernel cares: a step of two `MIN x MIN`
    /// products is the single pair sum that overflows `i32`, and the
    /// explicit cross-term correction is engaged only when both operand
    /// panels can produce it.
    has_min: bool,
    words: Vec<u16>,
}

impl PackedPanel {
    /// Packs `values` (`rows x k`, row-major) at `mode`'s lane geometry.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != rows * k` or a value does not fit the
    /// mode's lane width as a signed two's-complement field (the
    /// `pack_lanes` range `-2^(w-1) ..= 2^(w-1)-1`).
    #[must_use]
    pub fn pack(values: &[i16], rows: usize, k: usize, mode: SubwordMode) -> Self {
        let mut panel = PackedPanel::default();
        panel.repack(values, rows, k, mode);
        panel
    }

    /// Re-packs this panel in place (same contract as
    /// [`pack`](Self::pack)), reusing the word buffer's capacity — the
    /// per-forward activation panels of the NN kernel go through this so
    /// a sweep allocates once.
    pub fn repack(&mut self, values: &[i16], rows: usize, k: usize, mode: SubwordMode) {
        assert_eq!(values.len(), rows * k, "panel must be rows x k");
        let lanes = mode.lanes();
        let wbits = mode.lane_bits();
        let lo = -(1i32 << (wbits - 1));
        let hi = (1i32 << (wbits - 1)) - 1;
        let mask = (1u32 << wbits) - 1;
        let padded_k = k.next_multiple_of(PACK_STEP_LANES);
        let words_per_row = padded_k / lanes;
        self.mode = mode;
        self.rows = rows;
        self.k = k;
        self.words_per_row = words_per_row;
        self.has_min = false;
        self.words.clear();
        self.words.reserve(rows * words_per_row);
        let mut has_min = false;
        let check = |v: i16| {
            let v = i32::from(v);
            assert!(
                (lo..=hi).contains(&v),
                "operand {v} does not fit a {wbits}-bit lane"
            );
        };
        // The pack_lanes field rule: lane l of word w is row lane
        // `w*lanes + l`, stored at bits `l*wbits..`, masked to its
        // two's-complement field. Padding lanes are zero. Each mode gets
        // its own tight loop over the full words (the repack runs on the
        // per-forward hot path); the ragged tail word falls back to the
        // lane-at-a-time rule.
        let full_words = k / lanes;
        for row in values
            .chunks_exact(k.max(1))
            .take(if k == 0 { 0 } else { rows })
        {
            match mode {
                SubwordMode::X1 => {
                    for &v in &row[..full_words] {
                        has_min |= v == i16::MIN;
                        self.words.push(v as u16);
                    }
                }
                SubwordMode::X2 => {
                    for pair in row[..full_words * 2].chunks_exact(2) {
                        check(pair[0]);
                        check(pair[1]);
                        has_min |= pair[0] == -128 || pair[1] == -128;
                        self.words
                            .push(u16::from(pair[0] as u8) | (u16::from(pair[1] as u8) << 8));
                    }
                }
                SubwordMode::X4 => {
                    for quad in row[..full_words * 4].chunks_exact(4) {
                        let mut packed = 0u16;
                        for (l, &v) in quad.iter().enumerate() {
                            check(v);
                            has_min |= v == -8;
                            packed |= ((v as u16) & 0xF) << (4 * l);
                        }
                        self.words.push(packed);
                    }
                }
            }
            for word_idx in full_words..words_per_row {
                let mut packed = 0u32;
                for l in 0..lanes {
                    let idx = word_idx * lanes + l;
                    let v = if idx < k { i32::from(row[idx]) } else { 0 };
                    assert!(
                        (lo..=hi).contains(&v),
                        "operand {v} does not fit a {wbits}-bit lane"
                    );
                    has_min |= v == lo;
                    packed |= ((v as u32) & mask) << (l as u32 * wbits);
                }
                self.words.push(packed as u16);
            }
        }
        self.has_min = has_min;
    }

    /// Resets this panel to a `rows x k` geometry at `mode`, handing the
    /// caller the word buffer and the row stride in words (`k` padded to
    /// [`PACK_STEP_LANES`] lanes, divided by `mode.lanes()`) to fill in
    /// place. A producer that already walks its operands — an im2col
    /// pass, say — can pack them directly instead of staging an `i16`
    /// buffer for [`repack`](Self::repack) to re-read: one write pass
    /// instead of write + read + write.
    ///
    /// Contract: operand `t` of row `i` lives in word
    /// `i * stride + t / lanes`, as the `pack_lanes` two's-complement
    /// field at bits `(t % lanes) * lane_bits ..` (at `X1` the word IS
    /// the operand, `v as u16`). The buffer is **not** zeroed — it holds
    /// whatever the previous use left — so the caller writes every word
    /// of every row: zero operands, padding lanes and the padding words
    /// of the row tail included. Every value must fit the mode's lane
    /// range (this path skips [`repack`](Self::repack)'s range assert —
    /// callers feed quantizer output that fits by construction). Finish
    /// with [`finish_fill`](Self::finish_fill) reporting whether any
    /// stored operand was the mode's most negative lane value — the
    /// panel is not a valid dot operand until then.
    pub fn begin_fill(&mut self, rows: usize, k: usize, mode: SubwordMode) -> (&mut [u16], usize) {
        let words_per_row = k.next_multiple_of(PACK_STEP_LANES) / mode.lanes();
        self.mode = mode;
        self.rows = rows;
        self.k = k;
        self.words_per_row = words_per_row;
        self.has_min = false;
        self.words.resize(rows * words_per_row, 0);
        (&mut self.words, words_per_row)
    }

    /// Completes a [`begin_fill`](Self::begin_fill) fill: `has_min` is
    /// whether the caller stored the mode's most negative lane value
    /// anywhere (it saw every value; the panel needs the flag to pick
    /// the exact `X1 x X1` kernel).
    pub fn finish_fill(&mut self, has_min: bool) {
        self.has_min = has_min;
    }

    /// The subword mode the panel is packed at.
    #[must_use]
    pub fn mode(&self) -> SubwordMode {
        self.mode
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical operands per row (excluding zero padding).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Lane words per row (including the zero padding to
    /// [`PACK_STEP_LANES`] lanes).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed lane words of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn row_words(&self, i: usize) -> &[u16] {
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Re-expands row `i` into its `k` logical operands (test/debug
    /// helper; the dot kernels decode lanes on the fly).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn unpack_row(&self, i: usize) -> Vec<i16> {
        let words = self.row_words(i);
        let mut out = Vec::with_capacity(self.k);
        let mut buf = [0i16; PACK_STEP_LANES];
        for step in 0..self.words_per_row * self.mode.lanes() / PACK_STEP_LANES {
            decode_step(words, step, self.mode, &mut buf);
            out.extend_from_slice(&buf);
        }
        out.truncate(self.k);
        out
    }

    /// Dot steps per row (each step consumes [`PACK_STEP_LANES`] lanes).
    fn steps(&self) -> usize {
        self.k.div_ceil(PACK_STEP_LANES)
    }
}

/// Decodes step `step` (16 lanes) of a packed row into `i16` operands —
/// the scalar mirror of the AVX2 lane expanders, and the inverse of the
/// `pack_lanes` field rule.
#[inline]
fn decode_step(words: &[u16], step: usize, mode: SubwordMode, out: &mut [i16; PACK_STEP_LANES]) {
    match mode {
        SubwordMode::X1 => {
            for (o, &w) in out.iter_mut().zip(&words[step * 16..step * 16 + 16]) {
                *o = w as i16;
            }
        }
        SubwordMode::X2 => {
            for (i, &w) in words[step * 8..step * 8 + 8].iter().enumerate() {
                out[2 * i] = i16::from(w as u8 as i8);
                out[2 * i + 1] = i16::from((w >> 8) as u8 as i8);
            }
        }
        SubwordMode::X4 => {
            for (i, &w) in words[step * 4..step * 4 + 4].iter().enumerate() {
                for l in 0..4 {
                    let nib = ((w >> (4 * l)) & 0xF) as i16;
                    // Sign-extend the 4-bit field: 0..=7 stay, 8..=15 wrap
                    // to -8..=-1.
                    out[4 * i + l] = (nib ^ 8) - 8;
                }
            }
        }
    }
}

/// The portable packed dot inner loop: decode 16 lanes per side per step,
/// widen every product to `i64`. Exact for the full `pack_lanes` range;
/// used when the AVX2 path is unavailable (and as the oracle the AVX2
/// tile is tested against).
fn dot_rows_scalar(a: &[u16], ma: SubwordMode, b: &[u16], mb: SubwordMode, steps: usize) -> i64 {
    let mut acc = 0i64;
    let mut ba = [0i16; PACK_STEP_LANES];
    let mut bb = [0i16; PACK_STEP_LANES];
    for s in 0..steps {
        decode_step(a, s, ma, &mut ba);
        decode_step(b, s, mb, &mut bb);
        for (&x, &y) in ba.iter().zip(&bb) {
            acc += i64::from(x) * i64::from(y);
        }
    }
    acc
}

/// The portable [`gemm_packed`] driver: one [`dot_rows_scalar`] per
/// output. Hosts without AVX2 run it; on AVX2 hosts the unit tests call
/// it directly and compare it with the tiled kernel.
fn gemm_packed_scalar(a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) {
    let n = bt.rows();
    for i in 0..a.rows() {
        for j in 0..n {
            out[i * n + j] = dot_rows_scalar(
                a.row_words(i),
                a.mode(),
                bt.row_words(j),
                bt.mode(),
                a.steps(),
            );
        }
    }
}

/// The AVX2 register-tiled packed GEMM, dispatched at run time (the
/// workspace builds for baseline x86-64). `unsafe` is confined to this
/// module: [`gemm`](avx2::gemm) is only called after
/// `is_x86_feature_detected!("avx2")`, and every pointer walks panel rows
/// whose lengths [`Rows`](avx2::Rows) derives from the panels themselves.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{PackedPanel, SubwordMode, PACK_STEP_LANES};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256,
        _mm256_castsi256_si128, _mm256_cmpeq_epi16, _mm256_cmpeq_epi32, _mm256_cvtepi32_epi64,
        _mm256_cvtepi8_epi16, _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_mullo_epi16, _mm256_permute2x128_si256, _mm256_set1_epi16, _mm256_set1_epi32,
        _mm256_set1_epi64x, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_slli_epi32, _mm256_slli_epi64, _mm256_srai_epi16, _mm256_srai_epi32,
        _mm256_storeu_si256, _mm256_sub_epi32, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64,
        _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm_add_epi64, _mm_cvtsi128_si64,
        _mm_loadu_si128, _mm_unpackhi_epi64,
    };
    use std::ops::Range;

    /// Consecutive rows of a [`PackedPanel`]: one operand of [`gemm`].
    pub(super) struct Rows<'a> {
        words: &'a [u16],
        mode: SubwordMode,
        stride: usize,
        rows: usize,
        steps: usize,
        has_min: bool,
    }

    impl<'a> Rows<'a> {
        /// Rows `range` of `panel`.
        ///
        /// # Panics
        ///
        /// Panics when `range` runs past the panel.
        pub(super) fn of(panel: &'a PackedPanel, range: Range<usize>) -> Self {
            let stride = panel.words_per_row();
            Rows {
                words: &panel.words[range.start * stride..range.end * stride],
                mode: panel.mode(),
                stride,
                rows: range.len(),
                steps: panel.steps(),
                has_min: panel.has_min,
            }
        }

        /// Pointer to the first word of row `i` (`i < rows`).
        fn row(&self, i: usize) -> *const u16 {
            self.words[i * self.stride..].as_ptr()
        }
    }

    /// One [`SubwordMode`]'s lane expander: a 16-lane step occupies
    /// `WORDS` lane words and decodes to 16 sign-extended `i16` lanes.
    trait Lanes {
        const WORDS: usize;

        /// # Safety
        ///
        /// AVX2 must be available; `p` readable for `WORDS` `u16`s.
        unsafe fn load(p: *const u16) -> __m256i;
    }

    /// `X1` rows: each word is one lane.
    struct Sub16;
    /// `X2` rows: each word holds two 8-bit lanes.
    struct Sub8;
    /// `X4` rows: each word holds four 4-bit lanes.
    struct Sub4;

    impl Lanes for Sub16 {
        const WORDS: usize = 16;

        #[inline(always)]
        unsafe fn load(p: *const u16) -> __m256i {
            _mm256_loadu_si256(p.cast::<__m256i>())
        }
    }

    impl Lanes for Sub8 {
        const WORDS: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const u16) -> __m256i {
            _mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast::<__m128i>()))
        }
    }

    impl Lanes for Sub4 {
        const WORDS: usize = 4;

        /// Copies byte `l / 2` into the high byte of lane `l`, moves the
        /// even lanes' low nibble up to bits 12..16 (`x 16`; the odd lanes'
        /// high nibble is already there, `x 1`), then sign-extends the
        /// 4-bit field with an arithmetic shift — low nibble = even lane,
        /// matching the little-endian `pack_lanes` layout.
        #[inline(always)]
        unsafe fn load(p: *const u16) -> __m256i {
            let bytes = _mm256_set1_epi64x(p.cast::<i64>().read_unaligned());
            let spread = _mm256_shuffle_epi8(
                bytes,
                _mm256_setr_epi8(
                    -1, 0, -1, 0, -1, 1, -1, 1, -1, 2, -1, 2, -1, 3, -1, 3, //
                    -1, 4, -1, 4, -1, 5, -1, 5, -1, 6, -1, 6, -1, 7, -1, 7,
                ),
            );
            let top = _mm256_mullo_epi16(spread, _mm256_set1_epi32(0x0001_0010));
            _mm256_srai_epi16::<12>(top)
        }
    }

    /// An exact accumulation rule for one output's `vpmaddwd` pair sums
    /// (8 `i32` lanes per step).
    trait Rule {
        /// Per-output accumulator, held in registers across a block.
        type Acc: Copy;
        /// Most steps one block may absorb before it is flushed into
        /// `i64`.
        const BLOCK: usize;

        /// # Safety
        ///
        /// AVX2 must be available (as for the other methods).
        unsafe fn zero() -> Self::Acc;
        unsafe fn add(acc: Self::Acc, p: __m256i) -> Self::Acc;
        /// The exact sums of four blocks (four outputs) as 4 `i64`
        /// lanes: their horizontal reductions share the shuffles. A
        /// [`zero`](Self::zero) block sums to 0.
        unsafe fn flush4(acc: [Self::Acc; 4]) -> __m256i;
    }

    /// Narrow mode pairs: pair sums add in `i32` for `SPILL` steps, sized
    /// so the partial can never wrap at the pair's operand bounds.
    struct Block32<const SPILL: usize>;

    impl<const SPILL: usize> Rule for Block32<SPILL> {
        type Acc = __m256i;
        const BLOCK: usize = SPILL;

        #[inline(always)]
        unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }

        #[inline(always)]
        unsafe fn add(acc: __m256i, p: __m256i) -> __m256i {
            _mm256_add_epi32(acc, p)
        }

        #[inline(always)]
        unsafe fn flush4([a0, a1, a2, a3]: [__m256i; 4]) -> __m256i {
            // A partial may sit at 2^30, so lanes widen before they add.
            hsum4_epi64(
                widen_pairs(a0),
                widen_pairs(a1),
                widen_pairs(a2),
                widen_pairs(a3),
            )
        }
    }

    /// `X1 x X1` without the `MIN x MIN` corner: every pair sum `p` fits
    /// `i32`, but a run of them does not. Split `p = 2^16·(p >> 16) + L`
    /// with `0 <= L < 2^16`: `hi` sums the arithmetic high halves (each at
    /// most `2^15` in magnitude) and `lo` sums `p` wrapping, so per lane
    /// the exact sum is `2^16·hi + ((lo - 2^16·hi) mod 2^32)`. The split
    /// is exact below `2^16` steps; blocks stop at `2^12 - 1` so both
    /// halves stay under `2^28` per lane and a whole 8-lane sum of either
    /// still fits `i32`, which lets the flush reduce in 32 bits.
    struct HiLo;

    impl HiLo {
        /// `(hi, ΣL)` per lane, both non-wrapping `i32` (see [`HiLo`]).
        ///
        /// # Safety
        ///
        /// AVX2 only.
        #[inline(always)]
        unsafe fn halves([hi, lo]: [__m256i; 2]) -> (__m256i, __m256i) {
            (hi, _mm256_sub_epi32(lo, _mm256_slli_epi32::<16>(hi)))
        }
    }

    impl Rule for HiLo {
        type Acc = [__m256i; 2];
        const BLOCK: usize = (1 << 12) - 1;

        #[inline(always)]
        unsafe fn zero() -> [__m256i; 2] {
            [_mm256_setzero_si256(); 2]
        }

        #[inline(always)]
        unsafe fn add([hi, lo]: [__m256i; 2], p: __m256i) -> [__m256i; 2] {
            [
                _mm256_add_epi32(hi, _mm256_srai_epi32::<16>(p)),
                _mm256_add_epi32(lo, p),
            ]
        }

        #[inline(always)]
        unsafe fn flush4(acc: [[__m256i; 2]; 4]) -> __m256i {
            let (h0, l0) = Self::halves(acc[0]);
            let (h1, l1) = Self::halves(acc[1]);
            let (h2, l2) = Self::halves(acc[2]);
            let (h3, l3) = Self::halves(acc[3]);
            // [Σhi of the 4 outputs | ΣL of the 4 outputs], all in i32.
            let hl = hsum8_epi32(h0, h1, h2, h3, l0, l1, l2, l3);
            _mm256_add_epi64(
                _mm256_slli_epi64::<16>(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(hl))),
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(hl)),
            )
        }
    }

    /// Widens 8 `i32` lanes into 4 `i64` lanes (both 128-bit halves
    /// summed).
    ///
    /// # Safety
    ///
    /// AVX2 only.
    #[inline(always)]
    unsafe fn widen_pairs(v: __m256i) -> __m256i {
        _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(v)),
        )
    }

    /// Horizontal sum of 4 `i64` lanes.
    ///
    /// # Safety
    ///
    /// AVX2 only.
    #[inline(always)]
    unsafe fn hsum_epi64(v: __m256i) -> i64 {
        let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s)))
    }

    /// `[Σv0, Σv1, Σv2, Σv3]`: the horizontal sums of four `i64x4`
    /// vectors by transposition.
    ///
    /// # Safety
    ///
    /// AVX2 only.
    #[inline(always)]
    unsafe fn hsum4_epi64(v0: __m256i, v1: __m256i, v2: __m256i, v3: __m256i) -> __m256i {
        // [v0 lanes 0+1, v1 lanes 0+1 | v0 lanes 2+3, v1 lanes 2+3].
        let s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(v0, v1), _mm256_unpackhi_epi64(v0, v1));
        let s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(v2, v3), _mm256_unpackhi_epi64(v2, v3));
        _mm256_add_epi64(
            _mm256_permute2x128_si256::<0x20>(s01, s23),
            _mm256_permute2x128_si256::<0x31>(s01, s23),
        )
    }

    /// Per 128-bit half: `[x0+x2, y0+y2, x1+x3, y1+y3]`.
    ///
    /// # Safety
    ///
    /// AVX2 only.
    #[inline(always)]
    unsafe fn fold32(x: __m256i, y: __m256i) -> __m256i {
        _mm256_add_epi32(_mm256_unpacklo_epi32(x, y), _mm256_unpackhi_epi32(x, y))
    }

    /// Per 128-bit half: `[Σx, Σy, Σz, Σw]` from `fold32(x, y)` and
    /// `fold32(z, w)`.
    ///
    /// # Safety
    ///
    /// AVX2 only.
    #[inline(always)]
    unsafe fn fold64(xy: __m256i, zw: __m256i) -> __m256i {
        _mm256_add_epi32(_mm256_unpacklo_epi64(xy, zw), _mm256_unpackhi_epi64(xy, zw))
    }

    /// `[Σv0, .., Σv7]`: the horizontal sums of eight `i32x8` vectors by
    /// transposition, wrapping like every `i32` add.
    ///
    /// # Safety
    ///
    /// AVX2 only.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn hsum8_epi32(
        v0: __m256i,
        v1: __m256i,
        v2: __m256i,
        v3: __m256i,
        v4: __m256i,
        v5: __m256i,
        v6: __m256i,
        v7: __m256i,
    ) -> __m256i {
        let lo = fold64(fold32(v0, v1), fold32(v2, v3));
        let hi = fold64(fold32(v4, v5), fold32(v6, v7));
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(lo, hi),
            _mm256_permute2x128_si256::<0x31>(lo, hi),
        )
    }

    /// The micro-kernel: the `MR x NR` outputs of `MR` rows of `a`
    /// against `NR` rows of `b`. Each 16-lane step decodes every row once
    /// and issues `MR·NR` `vpmaddwd`, accumulating by rule `R` in blocks
    /// of at most `R::BLOCK` steps that flush four outputs at a time.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; row `r` of `a` (at `a + r * sa`) readable
    /// for `steps` steps of `A`, likewise for `b`; `out + r * so + c`
    /// writable for every `r < MR`, `c < NR`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile<A: Lanes, B: Lanes, R: Rule, const MR: usize, const NR: usize>(
        a: *const u16,
        sa: usize,
        b: *const u16,
        sb: usize,
        steps: usize,
        out: *mut i64,
        so: usize,
    ) {
        let mut sums = [[0i64; NR]; MR];
        let mut s0 = 0;
        while s0 < steps {
            let s1 = s0 + (steps - s0).min(R::BLOCK);
            let mut acc = [[R::zero(); NR]; MR];
            for s in s0..s1 {
                let mut va = [_mm256_setzero_si256(); MR];
                for (r, v) in va.iter_mut().enumerate() {
                    *v = A::load(a.add(r * sa + s * A::WORDS));
                }
                for c in 0..NR {
                    let vb = B::load(b.add(c * sb + s * B::WORDS));
                    for (acc_row, &v) in acc.iter_mut().zip(&va) {
                        acc_row[c] = R::add(acc_row[c], _mm256_madd_epi16(v, vb));
                    }
                }
            }
            // Edge tiles pad their last group of four with zero blocks.
            for (sum, acc) in sums
                .as_flattened_mut()
                .chunks_mut(4)
                .zip(acc.as_flattened().chunks(4))
            {
                let mut quad = [R::zero(); 4];
                quad[..acc.len()].copy_from_slice(acc);
                let mut block = [0i64; 4];
                _mm256_storeu_si256(block.as_mut_ptr().cast::<__m256i>(), R::flush4(quad));
                for (s, b) in sum.iter_mut().zip(block) {
                    *s += b;
                }
            }
            s0 = s1;
        }
        for (r, sum_row) in sums.iter().enumerate() {
            for (c, &sum) in sum_row.iter().enumerate() {
                *out.add(r * so + c) = sum;
            }
        }
    }

    /// Covers the `a.rows x b.rows` output with `MR x NR` tiles, one
    /// `NR`-row strip of `b` at a time (so the strip stays in L1 while
    /// all of `a` streams past it); the ragged edges take the `1 x NR`,
    /// `MR x 1` and `1 x 1` instances of the same kernel.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; both operands hold `steps` steps per row
    /// and `out.len() == a.rows * b.rows`.
    #[target_feature(enable = "avx2")]
    unsafe fn drive<A: Lanes, B: Lanes, R: Rule, const MR: usize, const NR: usize>(
        a: &Rows,
        b: &Rows,
        out: &mut [i64],
    ) {
        let n_full = b.rows - b.rows % NR;
        let out = out.as_mut_ptr();
        for j in (0..n_full).step_by(NR) {
            strip::<A, B, R, MR, NR>(a, b, j, out);
        }
        for j in n_full..b.rows {
            strip::<A, B, R, MR, 1>(a, b, j, out);
        }
    }

    /// Every row of `a` against the `NR` rows of `b` from row `j`: full
    /// `MR x NR` tiles, then `1 x NR` tiles for the leftover rows of `a`.
    ///
    /// # Safety
    ///
    /// As [`drive`], with `j + NR <= b.rows`.
    #[inline(always)]
    unsafe fn strip<A: Lanes, B: Lanes, R: Rule, const MR: usize, const NR: usize>(
        a: &Rows,
        b: &Rows,
        j: usize,
        out: *mut i64,
    ) {
        let (m, n) = (a.rows, b.rows);
        let m_full = m - m % MR;
        let (pb, po) = (b.row(j), out.add(j));
        for i in (0..m_full).step_by(MR) {
            tile::<A, B, R, MR, NR>(a.row(i), a.stride, pb, b.stride, a.steps, po.add(i * n), n);
        }
        for i in m_full..m {
            tile::<A, B, R, 1, NR>(a.row(i), a.stride, pb, b.stride, a.steps, po.add(i * n), n);
        }
    }

    /// `X1 x X1` with the explicit cross-term correction, one output at a
    /// time: `vpmaddwd` wraps in exactly one case — both pairs of a 32-bit
    /// lane multiply `MIN x MIN`, summing to `+2^31` which wraps to
    /// `-2^31` — so the kernel counts those lanes (`a == MIN` AND
    /// `b == MIN` across both 16-bit halves) and adds back `2^32` per
    /// occurrence. Exact over the full two's-complement range.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; both pointers readable for `16 * steps`
    /// `u16`s.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_x1x1_min(a: *const u16, b: *const u16, steps: usize) -> i64 {
        let min = _mm256_set1_epi16(i16::MIN);
        let all32 = _mm256_set1_epi32(-1);
        let mut acc = _mm256_setzero_si256();
        let mut fixes = _mm256_setzero_si256();
        for s in 0..steps {
            let va = Sub16::load(a.add(16 * s));
            let vb = Sub16::load(b.add(16 * s));
            let p = _mm256_madd_epi16(va, vb);
            acc = _mm256_add_epi64(acc, widen_pairs(p));
            // A 32-bit lane overflows iff all four 16-bit operands feeding
            // it are MIN: both halves of the AND-ed compare masks set.
            let both_min =
                _mm256_and_si256(_mm256_cmpeq_epi16(va, min), _mm256_cmpeq_epi16(vb, min));
            let wrapped = _mm256_cmpeq_epi32(both_min, all32);
            fixes = _mm256_add_epi32(fixes, _mm256_and_si256(wrapped, _mm256_set1_epi32(1)));
        }
        hsum_epi64(acc) + (hsum_epi64(widen_pairs(fixes)) << 32)
    }

    /// [`dot_x1x1_min`] for every output: the only mode pair the tile
    /// cannot hold exactly, reached only when both panels contain
    /// `i16::MIN`.
    ///
    /// # Safety
    ///
    /// As [`drive`].
    #[target_feature(enable = "avx2")]
    unsafe fn drive_x1x1_min(a: &Rows, b: &Rows, out: &mut [i64]) {
        for i in 0..a.rows {
            for j in 0..b.rows {
                out[i * b.rows + j] = dot_x1x1_min(a.row(i), b.row(j), a.steps);
            }
        }
    }

    /// The AVX2 body of [`gemm_packed`](super::gemm_packed): picks the
    /// mode pair's lane expanders, accumulation rule and tile shape. The
    /// caller has verified AVX2 support.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != a.rows * b.rows`.
    pub(super) fn gemm(a: &Rows, b: &Rows, out: &mut [i64]) {
        use SubwordMode::{X1, X2, X4};
        assert_eq!(a.steps, b.steps, "panels must agree on k");
        for rows in [a, b] {
            assert_eq!(
                rows.stride * rows.mode.lanes(),
                rows.steps * PACK_STEP_LANES
            );
        }
        assert_eq!(out.len(), a.rows * b.rows, "out must be m x n");
        // SAFETY: AVX2 was detected by the caller; `Rows::of` sliced
        // `rows * stride` words and the asserts above pin the stride to
        // exactly the words a mode consumes over `steps` steps, so every
        // row walk stays in its slice; `out` is m x n.
        unsafe {
            match (a.mode, b.mode) {
                (X1, X1) if a.has_min && b.has_min => drive_x1x1_min(a, b, out),
                (X1, X1) => drive::<Sub16, Sub16, HiLo, 2, 2>(a, b, out),
                // Pair sums bounded by 2·2^15·2^7 = 2^23: 128 steps keep
                // the i32 partial under 2^30.
                (X1, X2) => drive::<Sub16, Sub8, Block32<128>, 2, 4>(a, b, out),
                (X2, X1) => drive::<Sub8, Sub16, Block32<128>, 2, 4>(a, b, out),
                // 2·2^15·2^3 = 2^19: 2048 steps stay under 2^30.
                (X1, X4) => drive::<Sub16, Sub4, Block32<2048>, 2, 4>(a, b, out),
                (X4, X1) => drive::<Sub4, Sub16, Block32<2048>, 2, 4>(a, b, out),
                // At most 2^15 (X2 x X2), 2^11, 2^7: 32768 steps stay
                // under 2^30.
                (X2, X2) => drive::<Sub8, Sub8, Block32<32768>, 2, 4>(a, b, out),
                (X2, X4) => drive::<Sub8, Sub4, Block32<32768>, 2, 4>(a, b, out),
                (X4, X2) => drive::<Sub4, Sub8, Block32<32768>, 2, 4>(a, b, out),
                (X4, X4) => drive::<Sub4, Sub4, Block32<32768>, 2, 4>(a, b, out),
            }
        }
    }
}

/// Exact dot product of row `ai` of `a` with row `bi` of `b` over the
/// re-expanded lanes. On AVX2 hosts this is the `1 x 1` instance of the
/// [`gemm_packed`] tile.
///
/// # Panics
///
/// Panics when the panels disagree on `k` or a row index is out of range.
#[must_use]
pub fn dot_packed(a: &PackedPanel, ai: usize, b: &PackedPanel, bi: usize) -> i64 {
    assert_eq!(a.k(), b.k(), "dot operands must have equal logical length");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        let mut out = [0i64];
        avx2::gemm(
            &avx2::Rows::of(a, ai..ai + 1),
            &avx2::Rows::of(b, bi..bi + 1),
            &mut out,
        );
        return out[0];
    }
    dot_rows_scalar(
        a.row_words(ai),
        a.mode(),
        b.row_words(bi),
        b.mode(),
        a.steps(),
    )
}

/// Subword-packed GEMM: `out[i][j] = Σ_t a[i][t] * bt[j][t]`, exact in
/// `i64` over the re-expanded lanes.
///
/// On AVX2 hosts the output is covered by register tiles of 2 rows of
/// `a` by 2 (`X1 x X1`) or 4 (every other mode pair) rows of `bt`, with
/// smaller instances of the same kernel on the ragged edges: every
/// 16-lane step decodes each tile row once and multiplies all row pairs,
/// under the mode pair's exact accumulation rule (see the module docs).
/// Elsewhere a scalar decode loop computes the same sums one output at a
/// time.
///
/// The operand panels may use different [`SubwordMode`]s — a reduced-
/// precision weight panel (2 or 4 operands per lane word) streams against
/// a full-precision activation panel, which is exactly the asymmetric
/// shape the fig6 precision scans produce.
///
/// This is also the **wide-panel batch entry**: rows of `bt` are just
/// independent dot operands, so a caller can concatenate many samples'
/// im2col panels into one `(B·n) x k` right operand and slice the
/// `m x (B·n)` output back apart per sample — every output element is
/// the same exact dot either way, so a fused multi-sample multiply is
/// bit-identical to `B` separate ones while streaming the left (weight)
/// panel through cache once per batch instead of once per sample
/// (`dvafs-nn`'s batched forward is built on exactly this; the
/// concatenation-equivalence test below pins it).
///
/// # Panics
///
/// Panics when the panels disagree on `k` or `out.len()` is not
/// `a.rows() * bt.rows()`.
pub fn gemm_packed(a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) {
    assert_eq!(a.k(), bt.k(), "panels must agree on k");
    let (m, n) = (a.rows(), bt.rows());
    assert_eq!(out.len(), m * n, "out must be m x n");
    if a.k() == 0 {
        out.fill(0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        avx2::gemm(&avx2::Rows::of(a, 0..m), &avx2::Rows::of(bt, 0..n), out);
        return;
    }
    gemm_packed_scalar(a, bt, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvafs_arith::subword::pack_lanes;
    use rand::{Rng, SeedableRng};

    fn naive_gemm(a: &[i16], bt: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for t in 0..k {
                    acc += i64::from(a[i * k + t]) * i64::from(bt[j * k + t]);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn naive_dot(a: &[i16], b: &[i16]) -> i64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| i64::from(x) * i64::from(y))
            .sum()
    }

    /// Random values spanning the full two's-complement lane range of a
    /// mode (MIN included — the packed kernels must stay exact there).
    fn random_lanes(len: usize, mode: SubwordMode, seed: u64) -> Vec<i16> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w = mode.lane_bits();
        let lo = -(1i32 << (w - 1));
        let hi = (1i32 << (w - 1)) - 1;
        (0..len).map(|_| rng.gen_range(lo..=hi) as i16).collect()
    }

    /// One full-width (`X1`) row of `values` dotted with one of `other`.
    fn dot_x1(values: &[i16], other: &[i16]) -> i64 {
        let k = values.len();
        let pa = PackedPanel::pack(values, 1, k, SubwordMode::X1);
        let pb = PackedPanel::pack(other, 1, k, SubwordMode::X1);
        dot_packed(&pa, 0, &pb, 0)
    }

    #[test]
    fn dot_matches_reference_for_every_remainder_length() {
        for len in 0..40 {
            let a = random_lanes(len, SubwordMode::X1, 1 + len as u64);
            let b = random_lanes(len, SubwordMode::X1, 100 + len as u64);
            assert_eq!(dot_x1(&a, &b), naive_dot(&a, &b), "len={len}");
        }
    }

    /// Every product at its maximal magnitude.
    #[test]
    fn dot_extremes_do_not_overflow() {
        let a = vec![i16::MIN; 1024];
        assert_eq!(dot_x1(&a, &a), 1024 * (i64::from(i16::MIN)).pow(2));
        let c = vec![i16::MAX; 1024];
        assert_eq!(
            dot_x1(&c, &a),
            1024 * i64::from(i16::MAX) * i64::from(i16::MIN)
        );
    }

    /// Whole 8-lane blocks of `MIN x MIN` through the full-width (`X1`)
    /// dot: every *pair* of products sums to exactly `2^31`, one past
    /// `i32::MAX` — the `pmaddwd` saturation corner the docs cite — and
    /// must come through exact with no remainder lanes involved.
    #[test]
    fn dot_i16_full_min_blocks_are_exact() {
        for blocks in [1usize, 2, 5, 16] {
            let n = 8 * blocks;
            let a = vec![i16::MIN; n];
            assert_eq!(dot_x1(&a, &a), n as i64 * (1i64 << 30), "blocks={blocks}");
        }
    }

    const GEMM_SHAPES: [(usize, usize, usize); 5] = [
        (1, 1, 1),
        (3, 7, 5),
        (8, 25, 33),
        (4, 9, 32),
        (2, 150, 70), // k longer than any unroll
    ];

    /// Full-width (`X1 x X1`, full `i16` range) `gemm_packed` equals the
    /// naive triple loop across shapes.
    #[test]
    fn gemm_matches_naive_across_shapes() {
        for (s, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
            let a = random_lanes(m * k, SubwordMode::X1, 7 + s as u64);
            let bt = random_lanes(n * k, SubwordMode::X1, 70 + s as u64);
            let pa = PackedPanel::pack(&a, m, k, SubwordMode::X1);
            let pbt = PackedPanel::pack(&bt, n, k, SubwordMode::X1);
            let mut out = vec![i64::MIN; m * n]; // poisoned: must be overwritten
            gemm_packed(&pa, &pbt, &mut out);
            assert_eq!(out, naive_gemm(&a, &bt, m, k, n), "m={m} k={k} n={n}");
        }
    }

    /// `gemm_packed` equals the naive `i16` triple loop across the same
    /// shapes for every mode pair, mixed precision included (the NN
    /// kernel equivalence net rests on this).
    #[test]
    fn gemm_packed_matches_gemm_i16_across_shapes_and_modes() {
        for (s, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
            for &ma in &SubwordMode::ALL {
                for &mb in &SubwordMode::ALL {
                    let a = random_lanes(m * k, ma, 7 + s as u64);
                    let bt = random_lanes(n * k, mb, 70 + s as u64);
                    let pa = PackedPanel::pack(&a, m, k, ma);
                    let pbt = PackedPanel::pack(&bt, n, k, mb);
                    let mut out = vec![i64::MIN; m * n];
                    gemm_packed(&pa, &pbt, &mut out);
                    assert_eq!(
                        out,
                        naive_gemm(&a, &bt, m, k, n),
                        "m={m} k={k} n={n} {ma}x{mb}"
                    );
                }
            }
        }
    }

    /// `k == 0` overwrites a poisoned output with zeros for every mode
    /// pair.
    #[test]
    fn gemm_zero_k_clears_output() {
        for &ma in &SubwordMode::ALL {
            for &mb in &SubwordMode::ALL {
                let a = PackedPanel::pack(&[], 2, 0, ma);
                let bt = PackedPanel::pack(&[], 3, 0, mb);
                let mut out = vec![5i64; 6];
                gemm_packed(&a, &bt, &mut out);
                assert_eq!(out, vec![0i64; 6], "{ma}x{mb}");
                assert_eq!(dot_packed(&a, 1, &bt, 2), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out must be m x n")]
    fn gemm_rejects_bad_dimensions() {
        let a = PackedPanel::pack(&[0; 4], 2, 2, SubwordMode::X1);
        let bt = PackedPanel::pack(&[0; 4], 2, 2, SubwordMode::X1);
        let mut out = vec![0i64; 3];
        gemm_packed(&a, &bt, &mut out);
    }

    /// The panel's word stream follows the `pack_lanes` field rules
    /// verbatim: word `w` of a row is `pack_lanes` of row lanes
    /// `w*lanes..`, zero-padded past `k`.
    #[test]
    fn packed_panel_words_match_pack_lanes() {
        for mode in SubwordMode::ALL {
            let (rows, k) = (3usize, 21usize); // ragged: padding in play
            let values = random_lanes(rows * k, mode, 42);
            let panel = PackedPanel::pack(&values, rows, k, mode);
            let lanes = mode.lanes();
            for r in 0..rows {
                let row = &values[r * k..(r + 1) * k];
                for (w, &word) in panel.row_words(r).iter().enumerate() {
                    let fields: Vec<i32> = (0..lanes)
                        .map(|l| {
                            let idx = w * lanes + l;
                            if idx < k {
                                i32::from(row[idx])
                            } else {
                                0
                            }
                        })
                        .collect();
                    let expected = pack_lanes(&fields, mode).expect("lanes are in range");
                    assert_eq!(word, expected, "mode {mode} row {r} word {w}");
                }
            }
            // And the re-expansion inverts the packing.
            for r in 0..rows {
                assert_eq!(panel.unpack_row(r), values[r * k..(r + 1) * k]);
            }
        }
    }

    /// Packed dots equal the naive dot of the re-expanded lanes, for
    /// every mode pair (including mixed precision) and ragged lengths,
    /// with the full lane range (MIN included) in play.
    #[test]
    fn dot_packed_matches_naive_dot_for_every_mode_pair() {
        for (i, &ma) in SubwordMode::ALL.iter().enumerate() {
            for (j, &mb) in SubwordMode::ALL.iter().enumerate() {
                for k in [0usize, 1, 7, 16, 31, 150, 2049] {
                    let seed = (i * 3 + j) as u64 * 1000 + k as u64;
                    let a = random_lanes(k, ma, seed);
                    let b = random_lanes(k, mb, seed ^ 0xDEAD);
                    let pa = PackedPanel::pack(&a, 1, k, ma);
                    let pb = PackedPanel::pack(&b, 1, k, mb);
                    assert_eq!(
                        dot_packed(&pa, 0, &pb, 0),
                        naive_dot(&a, &b),
                        "modes {ma}x{mb} k={k}"
                    );
                }
            }
        }
    }

    /// The `X1 x X1` cross-term corner: whole rows of `MIN x MIN` force
    /// every `vpmaddwd` pair sum to `+2^31` (which wraps uncorrected).
    /// The explicit correction must restore the exact sum for any length.
    #[test]
    fn packed_x1_min_times_min_is_corrected() {
        for k in [1usize, 8, 16, 17, 160, 2048] {
            let a = vec![i16::MIN; k];
            let pa = PackedPanel::pack(&a, 1, k, SubwordMode::X1);
            assert!(pa.has_min);
            assert_eq!(dot_packed(&pa, 0, &pa, 0), k as i64 * (1i64 << 30), "k={k}");
            // Mixed MIN/MAX rows exercise partially-overflowing steps.
            let b: Vec<i16> = (0..k)
                .map(|t| if t % 3 == 0 { i16::MIN } else { i16::MAX })
                .collect();
            let pb = PackedPanel::pack(&b, 1, k, SubwordMode::X1);
            assert_eq!(dot_packed(&pa, 0, &pb, 0), naive_dot(&a, &b), "mixed k={k}");
            assert_eq!(dot_packed(&pb, 0, &pb, 0), naive_dot(&b, &b), "self k={k}");
        }
    }

    /// The scalar driver — what hosts without AVX2 run — computes the
    /// same exact sums as the dispatched [`gemm_packed`] (on AVX2 hosts
    /// this pits the decode loop against the register tiles; elsewhere
    /// both sides are the decode loop), tile edges and every mode pair
    /// included.
    #[test]
    fn scalar_fallback_agrees_with_dispatch() {
        for &ma in &SubwordMode::ALL {
            for &mb in &SubwordMode::ALL {
                for &(m, k, n) in &[(1usize, 5usize, 1usize), (3, 64, 5), (5, 333, 9)] {
                    let a = random_lanes(m * k, ma, 7 + k as u64);
                    let b = random_lanes(n * k, mb, 77 + k as u64);
                    let pa = PackedPanel::pack(&a, m, k, ma);
                    let pb = PackedPanel::pack(&b, n, k, mb);
                    let mut scalar = vec![i64::MIN; m * n];
                    gemm_packed_scalar(&pa, &pb, &mut scalar);
                    let mut tiled = vec![i64::MAX; m * n];
                    gemm_packed(&pa, &pb, &mut tiled);
                    assert_eq!(tiled, scalar, "{ma}x{mb} m={m} k={k} n={n}");
                    assert_eq!(dot_packed(&pa, m - 1, &pb, n - 1), scalar[m * n - 1]);
                }
            }
        }
    }

    /// Operand patterns for the tile-boundary net: random over the full
    /// lane range, and the constant extremes that drive every pair sum
    /// to its bound (`MIN x MIN` is the largest product, `MIN x MAX` the
    /// most negative).
    #[derive(Clone, Copy, Debug)]
    enum Fill {
        Random,
        Min,
        Max,
    }

    fn fill(len: usize, mode: SubwordMode, pattern: Fill, seed: u64) -> Vec<i16> {
        let w = mode.lane_bits();
        match pattern {
            Fill::Random => random_lanes(len, mode, seed),
            Fill::Min => vec![(-(1i32 << (w - 1))) as i16; len],
            Fill::Max => vec![((1i32 << (w - 1)) - 1) as i16; len],
        }
    }

    /// Checks `gemm_packed` (and, for its corner output, `dot_packed`)
    /// against the unpacked reference for one shape.
    fn check_tiled(a: &[i16], ma: SubwordMode, b: &[i16], mb: SubwordMode, m: usize, k: usize) {
        let n = b.len() / k.max(1);
        let pa = PackedPanel::pack(a, m, k, ma);
        let pb = PackedPanel::pack(b, n, k, mb);
        let mut out = vec![i64::MIN; m * n];
        gemm_packed(&pa, &pb, &mut out);
        let expected = naive_gemm(a, b, m, k, n);
        assert_eq!(out, expected, "{ma}x{mb} m={m} k={k} n={n}");
        assert_eq!(dot_packed(&pa, m - 1, &pb, n - 1), expected[m * n - 1]);
    }

    /// The tile-boundary net: every mode pair, every `m` up to one row
    /// past a 2-row tile and every `n` up to one column past a 4-column
    /// tile (so full tiles, row edges, column edges and the corner all
    /// run), over short `k` around the 16-lane step.
    #[test]
    fn tiled_gemm_matches_naive_at_every_tile_edge() {
        let n_max = 5;
        for (i, &ma) in SubwordMode::ALL.iter().enumerate() {
            for (j, &mb) in SubwordMode::ALL.iter().enumerate() {
                for k in [0usize, 1, 15, 16, 17, 33] {
                    for m in 1..=3 {
                        for n in 1..=n_max {
                            let seed = (i * 3 + j) as u64 * 10_000 + (k * 100 + m * 10 + n) as u64;
                            let a = random_lanes(m * k, ma, seed);
                            let b = random_lanes(n * k, mb, seed ^ 0xBEEF);
                            if k == 0 {
                                let pa = PackedPanel::pack(&a, m, 0, ma);
                                let pb = PackedPanel::pack(&b, n, 0, mb);
                                let mut out = vec![7i64; m * n];
                                gemm_packed(&pa, &pb, &mut out);
                                assert!(out.iter().all(|&v| v == 0));
                                assert_eq!(dot_packed(&pa, 0, &pb, 0), 0);
                            } else {
                                check_tiled(&a, ma, &b, mb, m, k);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Each pair's accumulation block, crossed: `k` one lane past the
    /// steps a block may absorb (the narrow pairs' `i32` spill interval,
    /// the `X1 x X1` hi/lo block), with operands at the extremes that
    /// push every pair sum to its bound, on a `3 x 5` output (full
    /// tiles plus both edges).
    #[test]
    fn tiled_gemm_is_exact_past_every_accumulation_block() {
        use SubwordMode::{X1, X2, X4};
        let blocks = [
            ((X1, X1), 4095usize),
            ((X1, X2), 128),
            ((X2, X1), 128),
            ((X1, X4), 2048),
            ((X4, X1), 2048),
            ((X2, X2), 32768),
            ((X2, X4), 32768),
            ((X4, X2), 32768),
            ((X4, X4), 32768),
        ];
        let patterns = [
            (Fill::Min, Fill::Max),
            (Fill::Max, Fill::Min),
            (Fill::Max, Fill::Max),
            (Fill::Random, Fill::Random),
            (Fill::Min, Fill::Min),
        ];
        let (m, n) = (3usize, 5usize);
        for ((ma, mb), steps) in blocks {
            let k = steps * PACK_STEP_LANES + 1;
            for (p, &(fa, fb)) in patterns.iter().enumerate() {
                // Both-MIN X1 x X1 panels take the corrected dot; the
                // hi/lo block is exercised by the other patterns.
                let a = fill(m * k, ma, fa, 5 + p as u64);
                let b = fill(n * k, mb, fb, 50 + p as u64);
                check_tiled(&a, ma, &b, mb, m, k);
            }
        }
    }

    /// The `MIN x MIN` corner of `X1 x X1` — the one pair sum `vpmaddwd`
    /// wraps — through the tiled driver: when both panels hold
    /// `i16::MIN`, every output of the multiply (tile interiors and
    /// edges alike) takes the corrected dot.
    #[test]
    fn tiled_gemm_corrects_the_min_times_min_corner() {
        for k in [1usize, 16, 33, 160] {
            let (m, n) = (3usize, 5usize);
            let mut a = random_lanes(m * k, SubwordMode::X1, 3 + k as u64);
            let mut b = random_lanes(n * k, SubwordMode::X1, 30 + k as u64);
            // MIN in the same lanes of every row, so every output meets
            // MIN x MIN steps; plus runs of MIN to fill whole pairs.
            for row in a.chunks_exact_mut(k).chain(b.chunks_exact_mut(k)) {
                for t in (0..k).step_by(3) {
                    row[t] = i16::MIN;
                }
                row[k - 1] = i16::MIN;
            }
            check_tiled(&a, SubwordMode::X1, &b, SubwordMode::X1, m, k);
            let all_min = vec![i16::MIN; m.max(n) * k];
            check_tiled(
                &all_min[..m * k],
                SubwordMode::X1,
                &all_min[..n * k],
                SubwordMode::X1,
                m,
                k,
            );
        }
    }

    /// The wide-panel batch entry: one fused multiply over `B` samples'
    /// concatenated right-hand panels is bit-identical, slice by slice,
    /// to `B` separate per-sample multiplies, across mode pairs and a
    /// non-multiple-of-tile total width. This is the property
    /// `dvafs-nn`'s batched forward stands on.
    #[test]
    fn concatenated_wide_panel_matches_per_sample_gemms() {
        let (m, k, n, batches) = (5usize, 23usize, 13usize, 3usize);
        for &ma in &SubwordMode::ALL {
            for &mb in &SubwordMode::ALL {
                let a = random_lanes(m * k, ma, 11);
                let pa = PackedPanel::pack(&a, m, k, ma);
                let samples: Vec<Vec<i16>> = (0..batches)
                    .map(|s| random_lanes(n * k, mb, 110 + s as u64))
                    .collect();
                let wide: Vec<i16> = samples.concat();
                let total = batches * n;
                // Fused: one (B·n) x k right operand, one m x (B·n) output.
                let pwide = PackedPanel::pack(&wide, total, k, mb);
                let mut fused = vec![i64::MIN; m * total];
                gemm_packed(&pa, &pwide, &mut fused);
                // Per sample: B separate m x n multiplies.
                for (s, bt) in samples.iter().enumerate() {
                    let pbt = PackedPanel::pack(bt, n, k, mb);
                    let mut solo = vec![i64::MIN; m * n];
                    gemm_packed(&pa, &pbt, &mut solo);
                    for i in 0..m {
                        let fused_row = &fused[i * total + s * n..][..n];
                        let solo_row = &solo[i * n..][..n];
                        assert_eq!(fused_row, solo_row, "{ma}x{mb} sample {s} row {i}");
                    }
                }
            }
        }
    }

    /// `begin_fill` + caller stores + `finish_fill` must build a panel
    /// indistinguishable from `pack` — words, geometry and the `has_min`
    /// flag — including a ragged `k` (the caller writes the zero padding
    /// words itself) and the mode-`MIN` corner that picks the correcting
    /// kernel.
    #[test]
    fn direct_fill_matches_pack() {
        for mode in [SubwordMode::X1, SubwordMode::X2, SubwordMode::X4] {
            let min = (-(1i32 << (mode.lane_bits() - 1))) as i16;
            for &(rows, k, with_min) in &[(3usize, 23usize, false), (4, 16, true), (2, 1, false)] {
                let mut values = random_lanes(rows * k, mode, 42 + k as u64);
                if with_min {
                    values[k / 2] = min;
                }
                let reference = PackedPanel::pack(&values, rows, k, mode);
                let mut direct = PackedPanel::default();
                // Dirty the buffer: begin_fill hands it back unzeroed, so
                // the caller's stores alone must define every word.
                direct.repack(&vec![1i16; rows * k], rows, k, mode);
                let (words, stride) = direct.begin_fill(rows, k, mode);
                let lanes = mode.lanes();
                let wbits = mode.lane_bits();
                let mask = ((1u32 << wbits) - 1) as u16;
                let mut has_min = false;
                for (r, row) in values.chunks_exact(k).enumerate() {
                    for (wi, word) in words[r * stride..(r + 1) * stride].iter_mut().enumerate() {
                        // Lanes past `k` (and whole words past it) are zero.
                        let mut packed = 0u16;
                        for l in 0..lanes {
                            let v = row.get(wi * lanes + l).copied().unwrap_or(0);
                            has_min |= v == min;
                            packed |= ((v as u16) & mask) << (l as u16 * wbits as u16);
                        }
                        *word = packed;
                    }
                }
                direct.finish_fill(has_min);
                assert_eq!(
                    direct, reference,
                    "mode={mode:?} rows={rows} k={k} min={with_min}"
                );
                // And it dots identically (exercises the padded tail lanes).
                let other =
                    PackedPanel::pack(&random_lanes(k, SubwordMode::X2, 7), 1, k, SubwordMode::X2);
                for r in 0..rows {
                    assert_eq!(
                        dot_packed(&direct, r, &other, 0),
                        dot_packed(&reference, r, &other, 0)
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_packed_zero_k_clears_output() {
        let a = PackedPanel::pack(&[], 2, 0, SubwordMode::X2);
        let bt = PackedPanel::pack(&[], 3, 0, SubwordMode::X1);
        let mut out = vec![5i64; 6];
        gemm_packed(&a, &bt, &mut out);
        assert_eq!(out, vec![0i64; 6]);
    }

    #[test]
    fn repack_reuses_buffers_and_resets_state() {
        let mut panel = PackedPanel::pack(&[i16::MIN; 8], 1, 8, SubwordMode::X1);
        assert!(panel.has_min);
        panel.repack(&[1i16, -2, 3], 1, 3, SubwordMode::X4);
        assert_eq!(panel.mode(), SubwordMode::X4);
        assert_eq!(panel.k(), 3);
        assert!(!panel.has_min, "has_min must reset on repack");
        assert_eq!(panel.unpack_row(0), vec![1i16, -2, 3]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_out_of_range_lane() {
        let _ = PackedPanel::pack(&[8i16], 1, 1, SubwordMode::X4);
    }

    #[test]
    #[should_panic(expected = "rows x k")]
    fn pack_rejects_bad_dimensions() {
        let _ = PackedPanel::pack(&[0i16; 5], 2, 3, SubwordMode::X1);
    }
}
