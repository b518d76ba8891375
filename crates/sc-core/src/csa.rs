//! Packed lane matrices and the Harley-Seal column-count core.
//!
//! The APC-based inner-product kernels need, for every cycle `t`, the number
//! of lanes whose XNOR product stream carries a one at `t` — a *column count*
//! across lanes. In software this is a positional popcount (Klarqvist, Muła
//! and Lemire, arXiv:1911.02696), and an SC layer built on it is an
//! XNOR-popcount layer.
//!
//! **Layout.** A [`PackedLanes`] holds one or more *rows* (an input field,
//! or one row per output unit of a weight field) of `lanes` equal-length
//! streams in one contiguous buffer. Within a row the words go 256-column
//! group first, then lane, then the group's 4 words, so the core reads each
//! row front to back exactly once: word `(g · lanes + lane) · 4 + s` is word
//! `4g + s` of the lane's stream. Words past the end of a stream are zero.
//!
//! **Core.** For every row and every 256-column group, the lanes' XNOR
//! products pass through a branchless Harley-Seal tree of 3:2 compressors
//! (full adders over whole words, the CSA tree of the hardware APC): 16
//! product words become updates of the `ones`/`twos`/`fours`/`eights`
//! bit-planes plus one `sixteens` word, which ripples through a fixed number
//! of upper planes (as many as the lane count needs, never data-dependent).
//! Per lane and group that is 2 loads and 2 operations for the XNOR and
//! about 5 for the tree (15 full adders of 5 operations per 16 lanes), for
//! any stream density and with no data-dependent branch. The wide backends
//! process the 4 words of a group in one super-word; the scalar backend
//! steps through them.
//!
//! **Drain.** Plane `k`, bit `t` is bit `k` of column `t`'s count. The low 8
//! planes are turned into counts by a byte-sliced 8×8 bit transpose; a count
//! that needs a 9th plane (256 or more ones in a column) adds the upper
//! planes' set bits by a `trailing_zeros` walk.
//!
//! The counts are **exact**, identical to per-lane accumulation in any
//! order, so every kernel built on the core is bit-compatible with the
//! per-bit reference (property-tested here and in [`crate::add`]).

use crate::bitstream::{BitStream, StreamLength};
use crate::error::ScError;
use crate::word::{dispatch_word_kernel, Word};

/// Words per column group of the packed layout (256 columns), whatever the
/// backend.
const GROUP_WORDS: usize = 4;

/// Columns per group.
const GROUP_BITS: usize = 64 * GROUP_WORDS;

/// Largest lane count a packed matrix may hold: column counts are `u16`.
const MAX_LANES: usize = u16::MAX as usize;

/// Bit-planes of a count of up to [`MAX_LANES`].
const MAX_PLANES: usize = 16;

/// Words of one row: every lane's stream padded to whole groups.
fn row_words(lanes: usize, length: StreamLength) -> usize {
    length.bits().div_ceil(GROUP_BITS) * lanes * GROUP_WORDS
}

/// Validates a lane count against the `u16` column-count range.
fn check_lanes(lanes: usize) -> Result<(), ScError> {
    if lanes == 0 || lanes > MAX_LANES {
        return Err(ScError::InvalidParameter {
            name: "lanes",
            message: format!("{lanes} lanes outside 1..={MAX_LANES}"),
        });
    }
    Ok(())
}

/// Rows of `lanes` equal-length bit-streams in the packed group-lane layout
/// the column-count core reads (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLanes {
    words: Vec<u64>,
    lanes: usize,
    length: StreamLength,
    rows: usize,
}

impl PackedLanes {
    /// An all-zero matrix of `rows` rows.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a lane count outside
    /// `1..=65535` (column counts are `u16`).
    pub fn zeroed(lanes: usize, length: StreamLength, rows: usize) -> Result<Self, ScError> {
        Self::from_buffer(Vec::new(), lanes, length, rows)
    }

    /// Reuses `buffer` as an all-zero matrix (the arena's packed pool).
    pub(crate) fn from_buffer(
        mut buffer: Vec<u64>,
        lanes: usize,
        length: StreamLength,
        rows: usize,
    ) -> Result<Self, ScError> {
        check_lanes(lanes)?;
        buffer.clear();
        buffer.resize(row_words(lanes, length) * rows, 0);
        Ok(Self {
            words: buffer,
            lanes,
            length,
            rows,
        })
    }

    /// Packs one row per item of `rows`, each a set of equal-length lane
    /// streams (a weight field of every unit, or one input field).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for no rows or an empty row,
    /// [`ScError::InvalidParameter`] for rows of different lane counts or
    /// too many lanes, and [`ScError::LengthMismatch`] for streams of
    /// different lengths.
    pub fn pack<'a>(rows: impl IntoIterator<Item = &'a [BitStream]>) -> Result<Self, ScError> {
        let rows: Vec<&[BitStream]> = rows.into_iter().collect();
        let first = rows.first().ok_or(ScError::EmptyInput)?;
        let length = first.first().ok_or(ScError::EmptyInput)?.stream_length();
        let mut packed = Self::zeroed(first.len(), length, rows.len())?;
        for (row, streams) in rows.iter().enumerate() {
            if streams.len() != packed.lanes {
                return Err(ScError::InvalidParameter {
                    name: "rows",
                    message: format!(
                        "row {row} has {} lanes, expected {}",
                        streams.len(),
                        packed.lanes
                    ),
                });
            }
            for (lane, stream) in streams.iter().enumerate() {
                packed.write_lane(row, lane, stream)?;
            }
        }
        Ok(packed)
    }

    /// Overwrites lane `lane` of row `row` with `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] for a stream of another length.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `lane` is out of range.
    pub fn write_lane(
        &mut self,
        row: usize,
        lane: usize,
        stream: &BitStream,
    ) -> Result<(), ScError> {
        if stream.len() != self.length.bits() {
            return Err(ScError::LengthMismatch {
                left: self.length.bits(),
                right: stream.len(),
            });
        }
        assert!(
            row < self.rows && lane < self.lanes,
            "lane {lane} of row {row} out of range"
        );
        let base = row * row_words(self.lanes, self.length);
        let group_words = self.lanes * GROUP_WORDS;
        for (g, chunk) in stream.as_words().chunks(GROUP_WORDS).enumerate() {
            let at = base + g * group_words + lane * GROUP_WORDS;
            self.words[at..at + chunk.len()].copy_from_slice(chunk);
        }
        Ok(())
    }

    /// Streams per row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Length of every stream.
    pub fn length(&self) -> StreamLength {
        self.length
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The packed words, row after row.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// A view of every row.
    pub fn view(&self) -> PackedView<'_> {
        self.view_rows(0..self.rows)
    }

    /// A view of the rows in `rows` (a contiguous slice of the buffer).
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the last row.
    pub fn view_rows(&self, rows: std::ops::Range<usize>) -> PackedView<'_> {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "row range out of bounds"
        );
        let row_words = row_words(self.lanes, self.length);
        PackedView {
            words: &self.words[rows.start * row_words..rows.end * row_words],
            lanes: self.lanes,
            length: self.length,
            rows: rows.len(),
        }
    }

    /// Releases the buffer (for an arena's packed pool).
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// A borrowed range of rows of a [`PackedLanes`] — e.g. the weights of a
/// chunk of units handed to one fan-out worker.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    words: &'a [u64],
    lanes: usize,
    length: StreamLength,
    rows: usize,
}

impl PackedView<'_> {
    /// Streams per row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Length of every stream.
    pub fn length(&self) -> StreamLength {
        self.length
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Exact column counts of the XNOR products of the one-row `input` with
/// every row of `weights`: `counts[r][t]` becomes the number of lanes whose
/// input and row-`r` weight bits agree at cycle `t`. Every count of a
/// row's `length` entries is overwritten.
///
/// # Errors
///
/// Returns [`ScError::InvalidParameter`] unless `input` has one row,
/// `counts` one buffer per weight row, and both operands the same lane
/// count; [`ScError::LengthMismatch`] for different stream lengths or a
/// count buffer of another length.
pub(crate) fn product_column_counts(
    input: PackedView<'_>,
    weights: PackedView<'_>,
    counts: &mut [Vec<u16>],
) -> Result<(), ScError> {
    if input.rows != 1 || input.lanes != weights.lanes || counts.len() != weights.rows {
        return Err(ScError::InvalidParameter {
            name: "weights",
            message: format!(
                "{} input row(s) of {} lanes against {} weight rows of {} lanes into {} \
                 count buffers",
                input.rows,
                input.lanes,
                weights.rows,
                weights.lanes,
                counts.len()
            ),
        });
    }
    let bits = input.length.bits();
    for len in std::iter::once(weights.length.bits()).chain(counts.iter().map(Vec::len)) {
        if len != bits {
            return Err(ScError::LengthMismatch {
                left: bits,
                right: len,
            });
        }
    }
    dispatch_word_kernel!(
        product_column_counts_impl,
        avx2::product_column_counts_avx2,
        (input.words, weights.words, input.lanes, bits, counts)
    );
    Ok(())
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use crate::word::WAvx2;

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn product_column_counts_avx2(
        input: &[u64],
        weights: &[u64],
        lanes: usize,
        bits: usize,
        counts: &mut [Vec<u16>],
    ) {
        super::product_column_counts_impl::<WAvx2>(input, weights, lanes, bits, counts)
    }
}

/// Word-generic body of [`product_column_counts`]: rows outermost, then
/// groups, each group's lanes compressed and drained in `W::LANES`-word
/// steps.
#[inline(always)]
fn product_column_counts_impl<W: Word>(
    input: &[u64],
    weights: &[u64],
    lanes: usize,
    bits: usize,
    counts: &mut [Vec<u16>],
) {
    let group_words = lanes * GROUP_WORDS;
    let groups = bits.div_ceil(GROUP_BITS);
    let planes = (usize::BITS - lanes.leading_zeros()) as usize;
    let upper = planes.saturating_sub(4);
    for (row, row_counts) in weights.chunks_exact(groups * group_words).zip(counts) {
        for g in 0..groups {
            let x = &input[g * group_words..(g + 1) * group_words];
            let w = &row[g * group_words..(g + 1) * group_words];
            let span = (bits - g * GROUP_BITS).min(GROUP_BITS);
            let out = &mut row_counts[g * GROUP_BITS..g * GROUP_BITS + span];
            let mut sub = 0;
            // Words wholly past the end of the stream hold no columns.
            while sub < GROUP_WORDS && sub * 64 < span {
                let state = if span == GROUP_BITS {
                    compress::<W, false>(x, w, sub, W::zero(), upper)
                } else {
                    compress::<W, true>(x, w, sub, tail_mask(span, sub), upper)
                };
                state.drain(sub, planes, out);
                sub += W::LANES;
            }
        }
    }
}

/// The mask of the valid columns of words `sub..sub + W::LANES` of a group
/// whose first `span` columns lie inside the stream.
#[inline(always)]
fn tail_mask<W: Word>(span: usize, sub: usize) -> W {
    let mut masks = [0u64; GROUP_WORDS];
    for (s, mask) in masks.iter_mut().enumerate() {
        let valid = span.saturating_sub(s * 64).min(64);
        *mask = if valid == 64 {
            u64::MAX
        } else {
            (1u64 << valid) - 1
        };
    }
    W::load(&masks[sub..])
}

/// One 3:2 compressor (a full adder over whole words): `(sum, carry)`.
#[inline(always)]
fn csa<W: Word>(a: W, b: W, c: W) -> (W, W) {
    let partial = a.xor(b);
    (partial.xor(c), a.and(b).or(partial.and(c)))
}

/// The bit-planes of one group's column counts, `W::LANES` words wide.
struct Planes<W: Word> {
    ones: W,
    twos: W,
    fours: W,
    eights: W,
    /// Planes 4.. (weights 16, 32, …); only the first `upper` are used.
    upper: [W; MAX_PLANES - 4],
}

impl<W: Word> Planes<W> {
    /// Adds one weight-1 word through a fixed-depth half-adder ripple.
    #[inline(always)]
    fn add(&mut self, word: W, upper: usize) {
        let carry = self.ones.and(word);
        self.ones = self.ones.xor(word);
        let word = carry;
        let carry = self.twos.and(word);
        self.twos = self.twos.xor(word);
        let word = carry;
        let carry = self.fours.and(word);
        self.fours = self.fours.xor(word);
        let word = carry;
        let carry = self.eights.and(word);
        self.eights = self.eights.xor(word);
        self.add_sixteens(carry, upper);
    }

    /// Adds a weight-16 word to the upper planes: a ripple of exactly
    /// `upper` half-adders, enough for any count the lane count allows.
    #[inline(always)]
    fn add_sixteens(&mut self, mut carry: W, upper: usize) {
        for plane in &mut self.upper[..upper] {
            let next = plane.and(carry);
            *plane = plane.xor(carry);
            carry = next;
        }
    }

    /// Converts the planes into the column counts of words `sub..sub +
    /// W::LANES` of a group, writing them to `out` (the group's counts).
    #[inline(always)]
    fn drain(&self, sub: usize, planes: usize, out: &mut [u16]) {
        // `by_word[j][k]`: plane `k` of word `sub + j`.
        let mut by_word = [[0u64; MAX_PLANES]; GROUP_WORDS];
        let low = [self.ones, self.twos, self.fours, self.eights];
        for (k, plane) in low.iter().chain(&self.upper).take(planes).enumerate() {
            let mut words = [0u64; GROUP_WORDS];
            plane.store(&mut words);
            for (word_planes, &bits) in by_word.iter_mut().zip(&words) {
                word_planes[k] = bits;
            }
        }
        for (lane, word_planes) in by_word.iter().enumerate().take(W::LANES) {
            let start = (sub + lane) * 64;
            if start >= out.len() {
                break;
            }
            let end = out.len().min(start + 64);
            drain_word(&word_planes[..planes], &mut out[start..end]);
        }
    }
}

/// Compresses the XNOR products of one group's lanes (`x`, `w`: the
/// group's `lanes · 4` words) at words `sub..sub + W::LANES` into planes,
/// 16 lanes per Harley-Seal step. `MASKED` clears the columns past the end
/// of the stream (the last group only).
#[inline(always)]
fn compress<W: Word, const MASKED: bool>(
    x: &[u64],
    w: &[u64],
    sub: usize,
    mask: W,
    upper: usize,
) -> Planes<W> {
    let product = |x: &[u64], w: &[u64], lane: usize| {
        let at = lane * GROUP_WORDS + sub;
        let p = W::load(&x[at..at + W::LANES])
            .xor(W::load(&w[at..at + W::LANES]))
            .not();
        if MASKED {
            p.and(mask)
        } else {
            p
        }
    };
    let mut p = Planes {
        ones: W::zero(),
        twos: W::zero(),
        fours: W::zero(),
        eights: W::zero(),
        upper: [W::zero(); MAX_PLANES - 4],
    };
    let mut xs = x.chunks_exact(16 * GROUP_WORDS);
    let mut ws = w.chunks_exact(16 * GROUP_WORDS);
    for (xc, wc) in (&mut xs).zip(&mut ws) {
        let d = |lane| product(xc, wc, lane);
        let (ones, twos_a) = csa(p.ones, d(0), d(1));
        let (ones, twos_b) = csa(ones, d(2), d(3));
        let (twos, fours_a) = csa(p.twos, twos_a, twos_b);
        let (ones, twos_a) = csa(ones, d(4), d(5));
        let (ones, twos_b) = csa(ones, d(6), d(7));
        let (twos, fours_b) = csa(twos, twos_a, twos_b);
        let (fours, eights_a) = csa(p.fours, fours_a, fours_b);
        let (ones, twos_a) = csa(ones, d(8), d(9));
        let (ones, twos_b) = csa(ones, d(10), d(11));
        let (twos, fours_a) = csa(twos, twos_a, twos_b);
        let (ones, twos_a) = csa(ones, d(12), d(13));
        let (ones, twos_b) = csa(ones, d(14), d(15));
        let (twos, fours_b) = csa(twos, twos_a, twos_b);
        let (fours, eights_b) = csa(fours, fours_a, fours_b);
        let (eights, sixteens) = csa(p.eights, eights_a, eights_b);
        p.ones = ones;
        p.twos = twos;
        p.fours = fours;
        p.eights = eights;
        p.add_sixteens(sixteens, upper);
    }
    let (xr, wr) = (xs.remainder(), ws.remainder());
    for lane in 0..xr.len() / GROUP_WORDS {
        p.add(product(xr, wr, lane), upper);
    }
    p
}

/// Writes the counts of one 64-column word (`out`: up to 64 columns) from
/// its planes: byte-sliced over the low 8, then a set-bit walk over the
/// rest.
#[inline(always)]
fn drain_word(planes: &[u64], out: &mut [u16]) {
    let low = &planes[..planes.len().min(8)];
    if out.len() == 64 {
        drain_byte_sliced(low, out);
    } else {
        let mut full = [0u16; 64];
        drain_byte_sliced(low, &mut full);
        out.copy_from_slice(&full[..out.len()]);
    }
    for (k, &plane) in planes.iter().enumerate().skip(8) {
        let mut bits = plane;
        while bits != 0 {
            out[bits.trailing_zeros() as usize] += 1 << k;
            bits &= bits - 1;
        }
    }
}

/// Byte-sliced drain of up to 8 planes over 64 columns: for each group of 8
/// columns, byte `g` of plane `k` is packed into byte `k` of one word, so
/// bit `8k + j` is bit `k` of column `8g + j`'s count, and an 8×8 bit
/// transpose turns byte `j` into that column's count.
#[inline(always)]
fn drain_byte_sliced(planes: &[u64], out: &mut [u16]) {
    debug_assert!(planes.len() <= 8 && out.len() == 64);
    for (group, columns) in out.chunks_exact_mut(8).enumerate() {
        let shift = 8 * group as u32;
        let mut packed = 0u64;
        for (k, &plane) in planes.iter().enumerate() {
            packed |= ((plane >> shift) & 0xFF) << (8 * k);
        }
        let transposed = transpose8(packed);
        for (j, count) in columns.iter_mut().enumerate() {
            *count = ((transposed >> (8 * j)) & 0xFF) as u16;
        }
    }
}

/// Transposes an 8×8 bit matrix held row-per-byte (bit `8r + c` is entry
/// `(r, c)`): three masked delta-swaps (Hacker's Delight 7-3).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::add::ExactParallelCounter;

    /// A pseudo-random stream of `bits` bits (splitmix64 words).
    fn random_stream(bits: usize, salt: u64) -> BitStream {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bits as u64;
        let words = (0..bits.div_ceil(64))
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        BitStream::from_raw_words(words, bits)
    }

    fn random_lanes(lanes: usize, bits: usize, salt: u64) -> Vec<BitStream> {
        (0..lanes)
            .map(|lane| random_stream(bits, salt * 1_000_003 + lane as u64))
            .collect()
    }

    /// The per-bit reference: the exact counter over the materialized XNOR
    /// product streams.
    fn reference(inputs: &[BitStream], weights: &[BitStream]) -> Vec<u16> {
        let products: Vec<BitStream> = inputs.iter().zip(weights).map(|(x, w)| x.xnor(w)).collect();
        ExactParallelCounter::new()
            .count(&products)
            .unwrap()
            .counts()
            .to_vec()
    }

    /// Runs the core under backend `W` directly (no process-wide switch).
    fn counts_with<W: Word>(inputs: &PackedLanes, weights: PackedView<'_>) -> Vec<Vec<u16>> {
        let bits = inputs.length().bits();
        let mut counts = vec![vec![u16::MAX; bits]; weights.rows()];
        product_column_counts_impl::<W>(
            &inputs.words,
            weights.words,
            inputs.lanes(),
            bits,
            &mut counts,
        );
        counts
    }

    /// The core's counts under every backend this build and CPU can run,
    /// scalar first, each labelled.
    fn counts_per_backend(
        inputs: &PackedLanes,
        weights: PackedView<'_>,
    ) -> Vec<(&'static str, Vec<Vec<u16>>)> {
        #[allow(unused_mut)]
        let mut runs = vec![
            ("scalar", counts_with::<u64>(inputs, weights)),
            ("wide", counts_with::<crate::word::W4>(inputs, weights)),
        ];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if crate::word::Backend::Avx2.is_available() {
            let bits = inputs.length().bits();
            let mut counts = vec![vec![u16::MAX; bits]; weights.rows()];
            // SAFETY: AVX2 availability was checked above.
            unsafe {
                avx2::product_column_counts_avx2(
                    &inputs.words,
                    weights.words,
                    inputs.lanes(),
                    bits,
                    &mut counts,
                )
            };
            runs.push(("avx2", counts));
        }
        runs
    }

    fn single_unit_counts(inputs: &[BitStream], weights: &[BitStream]) -> Vec<u16> {
        let x = PackedLanes::pack([inputs]).unwrap();
        let w = PackedLanes::pack([weights]).unwrap();
        let mut counts = vec![vec![0u16; inputs[0].len()]];
        product_column_counts(x.view(), w.view(), &mut counts).unwrap();
        counts.pop().unwrap()
    }

    /// The coverage matrix: lane counts around every Harley-Seal boundary
    /// (16-lane steps, the 8-plane byte-sliced limit at 255/256), lengths
    /// around every word and group tail, 1, 3 and 64 weight rows — each
    /// row against the per-bit reference, on every backend.
    #[test]
    fn packed_core_matches_per_bit_reference_on_every_backend() {
        const UNITS: usize = 64;
        for lanes in [1usize, 2, 3, 15, 16, 17, 25, 200, 255, 256, 257] {
            for bits in [1usize, 64, 100, 127, 256, 1000, 1024, 8191] {
                let inputs = random_lanes(lanes, bits, 1);
                let rows: Vec<Vec<BitStream>> = (0..UNITS)
                    .map(|u| random_lanes(lanes, bits, 2 + u as u64))
                    .collect();
                let expected: Vec<Vec<u16>> =
                    rows.iter().map(|row| reference(&inputs, row)).collect();
                let x = PackedLanes::pack([inputs.as_slice()]).unwrap();
                let w = PackedLanes::pack(rows.iter().map(Vec::as_slice)).unwrap();
                for units in [1usize, 3, UNITS] {
                    for (backend, counts) in counts_per_backend(&x, w.view_rows(0..units)) {
                        assert_eq!(
                            counts,
                            expected[..units],
                            "{backend}: lanes {lanes} bits {bits} units {units}"
                        );
                    }
                }
            }
        }
    }

    /// All-ones products count every lane in every column: at 256 and 257
    /// lanes that needs a 9th plane, which the set-bit walk resolves;
    /// all-zero products count nothing.
    #[test]
    fn saturated_and_empty_products_take_the_walk_fallback() {
        for lanes in [256usize, 257] {
            for bits in [64usize, 127, 1024] {
                let inputs = random_lanes(lanes, bits, 9);
                let complement: Vec<BitStream> = inputs
                    .iter()
                    .map(|s| s.xnor(&BitStream::zeros(s.stream_length())))
                    .collect();
                let x = PackedLanes::pack([inputs.as_slice()]).unwrap();
                let w = PackedLanes::pack([inputs.as_slice(), complement.as_slice()]).unwrap();
                for (backend, counts) in counts_per_backend(&x, w.view()) {
                    assert!(
                        counts[0].iter().all(|&c| usize::from(c) == lanes),
                        "{backend}"
                    );
                    assert!(counts[1].iter().all(|&c| c == 0), "{backend}");
                    assert_eq!(counts[0], reference(&inputs, &inputs), "{backend}");
                }
            }
        }
    }

    #[test]
    fn vertical_counts_match_reference_across_lane_counts() {
        for lanes in [1usize, 2, 3, 4, 7, 32, 33, 100, 255, 300] {
            let inputs = random_lanes(lanes, 256, 41);
            let weights = random_lanes(lanes, 256, 42);
            assert_eq!(
                single_unit_counts(&inputs, &weights),
                reference(&inputs, &weights),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn drain_resets_for_reuse() {
        // The core overwrites every count: a buffer holding a previous
        // call's counts gives the same result as a fresh one.
        let inputs = random_lanes(5, 300, 3);
        let x = PackedLanes::pack([inputs.as_slice()]).unwrap();
        let w = PackedLanes::pack([inputs.as_slice()]).unwrap();
        let mut counts = vec![vec![0u16; 300]];
        product_column_counts(x.view(), w.view(), &mut counts).unwrap();
        assert!(counts[0].iter().all(|&c| c == 5));
        let weights = random_lanes(5, 300, 4);
        let w = PackedLanes::pack([weights.as_slice()]).unwrap();
        product_column_counts(x.view(), w.view(), &mut counts).unwrap();
        assert_eq!(counts[0], reference(&inputs, &weights));
    }

    #[test]
    fn add3_equals_three_adds() {
        // A 3:2 compressor's sum + 2·carry is the column count of its
        // three words, and one `csa` equals three single-word adds.
        let [a, b, c] = [1u64, 2, 3].map(|s| random_stream(64, s).as_words()[0]);
        let (sum, carry) = csa(a, b, c);
        for t in 0..64 {
            let bit = |w: u64| (w >> t) & 1;
            assert_eq!(
                bit(sum) + 2 * bit(carry),
                bit(a) + bit(b) + bit(c),
                "column {t}"
            );
        }
        let mut planes = Planes::<u64> {
            ones: 0,
            twos: 0,
            fours: 0,
            eights: 0,
            upper: [0; MAX_PLANES - 4],
        };
        for word in [a, b, c] {
            planes.add(word, 0);
        }
        assert_eq!((planes.ones, planes.twos), (sum, carry));
    }

    #[test]
    fn weighted_entry_points_compose() {
        // A weight-16 word lands in the upper planes, a weight-1 word in
        // the low ones; the drain adds them per column.
        let mut planes = Planes::<u64> {
            ones: 0,
            twos: 0,
            fours: 0,
            eights: 0,
            upper: [0; MAX_PLANES - 4],
        };
        planes.add(0b001, 2);
        planes.add_sixteens(0b101, 2);
        planes.add_sixteens(0b100, 2);
        let mut counts = [0u16; 64];
        planes.drain(0, 6, &mut counts);
        assert_eq!(&counts[..3], &[17, 0, 32]);
        assert!(counts[3..].iter().all(|&c| c == 0));
    }

    #[test]
    fn tail_slices_accept_masked_words() {
        // Partial words and partial groups: only the stream's own columns
        // are counted and written.
        for bits in [1usize, 10, 63, 65, 100, 255, 257, 300] {
            let inputs = random_lanes(5, bits, 9);
            let weights = random_lanes(5, bits, 10);
            let counts = single_unit_counts(&inputs, &weights);
            assert_eq!(counts.len(), bits);
            assert_eq!(counts, reference(&inputs, &weights), "bits {bits}");
        }
    }

    /// The drain must agree with a per-bit reference computed straight
    /// from the planes, for every plane population up to the `u16` range
    /// and for full and partial words.
    #[test]
    fn byte_sliced_drain_matches_plane_unpack_reference() {
        for planes in 1..=MAX_PLANES {
            let words: Vec<u64> = (0..planes)
                .map(|k| random_stream(64, 100 + k as u64).as_words()[0])
                .collect();
            let expected: Vec<u16> = (0..64)
                .map(|t| {
                    (0..planes)
                        .map(|k| (((words[k] >> t) & 1) as u16) << k)
                        .sum()
                })
                .collect();
            let mut counts = vec![u16::MAX; 64];
            drain_word(&words, &mut counts);
            assert_eq!(counts, expected, "{planes} planes");
            let short: Vec<u64> = words.iter().map(|w| w & ((1 << 10) - 1)).collect();
            let mut counts = vec![u16::MAX; 10];
            drain_word(&short, &mut counts);
            assert_eq!(counts, expected[..10], "{planes} planes, 10 columns");
        }
    }

    /// Every backend must produce the scalar backend's counts.
    #[test]
    fn wide_counter_matches_scalar_counter() {
        for lanes in [1usize, 3, 7, 16, 32, 33, 100] {
            for bits in [100usize, 256, 700] {
                let inputs = random_lanes(lanes, bits, 5);
                let rows: Vec<Vec<BitStream>> =
                    (0..3).map(|u| random_lanes(lanes, bits, 6 + u)).collect();
                let x = PackedLanes::pack([inputs.as_slice()]).unwrap();
                let w = PackedLanes::pack(rows.iter().map(Vec::as_slice)).unwrap();
                let runs = counts_per_backend(&x, w.view());
                for (backend, counts) in &runs[1..] {
                    assert_eq!(counts, &runs[0].1, "{backend} lanes {lanes} bits {bits}");
                }
            }
        }
    }

    #[test]
    fn saturating_many_lanes_stays_exact() {
        // 65535 all-ones products: the largest `u16` column count, touching
        // every plane.
        let length = StreamLength::new(64);
        let mut x = PackedLanes::zeroed(MAX_LANES, length, 1).unwrap();
        for lane in 0..MAX_LANES {
            x.words[lane * GROUP_WORDS] = u64::MAX;
        }
        let w = x.clone();
        let mut counts = vec![vec![0u16; 64]];
        product_column_counts(x.view(), w.view(), &mut counts).unwrap();
        assert!(counts[0].iter().all(|&c| c == u16::MAX));
        assert!(PackedLanes::zeroed(MAX_LANES + 1, length, 1).is_err());
    }

    #[test]
    fn packing_validates_shapes() {
        let a = random_lanes(3, 100, 1);
        let b = random_lanes(2, 100, 2);
        let c = random_lanes(3, 101, 3);
        assert!(PackedLanes::pack([a.as_slice(), b.as_slice()]).is_err());
        assert!(PackedLanes::pack([a.as_slice(), c.as_slice()]).is_err());
        assert!(PackedLanes::pack(std::iter::empty::<&[BitStream]>()).is_err());
        let x = PackedLanes::pack([a.as_slice()]).unwrap();
        let w = PackedLanes::pack([a.as_slice(), a.as_slice()]).unwrap();
        // Count buffers must match the rows and the length.
        assert!(product_column_counts(x.view(), w.view(), &mut [vec![0; 100]]).is_err());
        assert!(product_column_counts(x.view(), w.view(), &mut vec![vec![0; 99]; 2]).is_err());
        // Two input rows, or mismatched lanes, are rejected.
        assert!(product_column_counts(w.view(), x.view(), &mut [vec![0; 100]]).is_err());
        let narrow = PackedLanes::pack([b.as_slice()]).unwrap();
        assert!(
            product_column_counts(narrow.view(), w.view(), &mut vec![vec![0; 100]; 2]).is_err()
        );
        assert_eq!(w.view_rows(1..2).rows(), 1);
    }
}
