//! Packed lane matrices, the Harley-Seal column-count core, and the
//! bit-planes it counts into.
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
//! A request's input field is written straight into this layout by the
//! byte-compare SNG fill ([`PackedLanes::fill_row`] over the lanes'
//! [`LaneSequence`] sample bytes), which writes every word of the row, zero
//! past the stream end, so an arena buffer is reused without zeroing.
//!
//! **Core.** For every row and every 256-column group, the lanes' XNOR
//! products pass through a branchless Harley-Seal tree of 3:2 compressors
//! (full adders over whole words, the CSA tree of the hardware APC): 16
//! product words become updates of the `ones`/`twos`/`fours`/`eights`
//! bit-planes plus one `sixteens` word, which ripples through a fixed number
//! of upper planes (as many as the lane count needs, never data-dependent);
//! a last step of fewer than 16 lanes runs the same tree on zero products.
//! Per lane and group that is 2 loads and 2 operations for the XNOR and
//! about 5 for the tree (15 full adders of 5 operations per 16 lanes), for
//! any stream density and with no data-dependent branch. The wide backends
//! process the 4 words of a group in one super-word; the scalar backend
//! steps through them.
//!
//! **Planes.** The core stores planes, not counts: a [`CountPlanes`] block
//! holds rows of column counts, each row, per 256-column group, plane `k`
//! of the group's 4 words, and plane `k`, bit `t` is bit `k` of column
//! `t`'s count. An APC layer position counts every field's rows into one
//! block (`[field][row]`) that the session's arena keeps for the layer's
//! shape. The core's store applies the APC's approximate LSB
//! ([`crate::add::Apc::count_planes_into`]): the ones plane is written as
//! the odd-cycle mask, cleared past the stream end and where an even lane
//! count is saturated, computed from the planes still in registers. It
//! writes every word of its rows, zero past the stream end, so a block is
//! never zeroed before use. The counts stay in this form through the
//! average pool's adder tree (a bit-sliced ripple adder,
//! [`CountPlanes::merge_sum_with`]) and `sc-blocks`' hardware max pool,
//! which totals each segment from the planes' lane popcounts; both read the
//! fields' rows out of the block and write the pooled rows into a second.
//!
//! **Drain.** Only then are the planes turned into `u16` counts, once per
//! pooled row, `W::LANES` words per step on the word-generic backends. Per
//! row, a byte transpose of the low 8 planes makes word `b` gather byte `b`
//! of every plane, and an 8×8 bit transpose of each then makes its byte
//! `c` the low byte of column `8b + c`'s count; planes 8 and up (256 or
//! more ones in a column) take the same path for the high byte.
//! [`CountPlanes::drain_row_into`] writes one row in column order.
//! [`CountPlanes::drain_interleaved`] writes every row of a layer position
//! into one row-interleaved, cycle-major buffer (per group of
//! [`ROW_GROUP`] rows, cycle `t` holds the group's counts side by side),
//! the layout the Btanh walk steps [`ROW_GROUP`] rows at a time from
//! ([`crate::activation::Btanh::transform_rows`]): after the per-row
//! transposes, an 8×8 byte transpose *across* the group's rows leaves one
//! column's 8 counts in one word, widened to `u16`, and a block of 8
//! columns × 8 rows is 64 consecutive counts, stored word by word instead
//! of one `u16` at a time 8 entries apart.
//!
//! The counts are **exact**, identical to per-lane accumulation in any
//! order, so every kernel built on the core is bit-compatible with the
//! per-bit reference (property-tested here and in [`crate::add`]).

use crate::arena::StreamArena;
use crate::bitstream::{BitStream, StreamLength};
use crate::error::ScError;
use crate::sng::{fill_lanes, LaneSequence};
use crate::word::{dispatch_word_kernel, Word};

/// Words per column group of the packed layout (256 columns), whatever the
/// backend: a [`CountPlanes`] stores plane `k` of group `g` at words
/// `(g · planes + k) · GROUP_WORDS ..` of [`CountPlanes::as_words`].
pub const GROUP_WORDS: usize = 4;

/// Columns per group.
const GROUP_BITS: usize = 64 * GROUP_WORDS;

/// Rows per group of a row-interleaved count buffer
/// ([`CountPlanes::drain_interleaved`]): the rows the Btanh row walk steps
/// together, one 32-bit lane of a 256-bit vector each.
pub const ROW_GROUP: usize = 8;

/// Largest lane count a packed matrix may hold: column counts are `u16`.
const MAX_LANES: usize = u16::MAX as usize;

/// Bit-planes of a count of up to [`MAX_LANES`].
const MAX_PLANES: usize = 16;

/// Words of one row: every lane's stream padded to whole groups.
fn row_words(lanes: usize, length: StreamLength) -> usize {
    length.bits().div_ceil(GROUP_BITS) * lanes * GROUP_WORDS
}

/// Bit-planes of a count of at most `lanes`: its bit length.
fn plane_count(lanes: usize) -> usize {
    (usize::BITS - lanes.leading_zeros()) as usize
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

    /// Reuses `buffer` as a matrix (the arena's packed pool): its words are
    /// kept, only growth is zeroed, so an empty buffer makes an all-zero
    /// matrix.
    pub(crate) fn from_buffer(
        mut buffer: Vec<u64>,
        lanes: usize,
        length: StreamLength,
        rows: usize,
    ) -> Result<Self, ScError> {
        check_lanes(lanes)?;
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

    /// Overwrites row `row` with the stream of comparator threshold
    /// `thresholds[lane]` drawn from `sequences[lane]` for every lane,
    /// each filled straight into its group-lane slots in one call on the
    /// active backend. Every word of the row is written, zero past the
    /// stream end, so the row's previous words do not matter. Bit-exact
    /// with [`LaneSequence::fill`] followed by [`PackedLanes::write_lane`]
    /// per lane on a zeroed row.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless there is one sequence and
    /// one threshold per lane and every sequence has the matrix's length.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn fill_row(
        &mut self,
        row: usize,
        sequences: &[LaneSequence],
        thresholds: &[u32],
    ) -> Result<(), ScError> {
        for count in [sequences.len(), thresholds.len()] {
            if count != self.lanes {
                return Err(ScError::LengthMismatch {
                    left: self.lanes,
                    right: count,
                });
            }
        }
        if let Some(sequence) = sequences.iter().find(|s| s.length() != self.length) {
            return Err(ScError::LengthMismatch {
                left: self.length.bits(),
                right: sequence.length().bits(),
            });
        }
        assert!(row < self.rows, "row {row} out of range");
        let row_words = row_words(self.lanes, self.length);
        let row = &mut self.words[row * row_words..(row + 1) * row_words];
        let group_words = self.lanes * GROUP_WORDS;
        fill_lanes(sequences, thresholds, row, GROUP_WORDS, group_words);
        let words = self.length.bits().div_ceil(64);
        if !words.is_multiple_of(GROUP_WORDS) {
            let last = &mut row[words / GROUP_WORDS * group_words..];
            for lane in last.chunks_exact_mut(GROUP_WORDS) {
                lane[words % GROUP_WORDS..].fill(0);
            }
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

/// Rows of column counts as bit-planes in one contiguous block, each
/// column a count of at most [`CountPlanes::lanes`] (see the [module
/// docs](self)).
///
/// Row `r` is words `r · row_words ..` ([`CountPlanes::row_words`]). Per
/// 256-column group a row holds [`CountPlanes::planes`] planes of
/// [`GROUP_WORDS`] words: word `(g · planes + k) · GROUP_WORDS + s` of the
/// row is plane `k` of word `4g + s` of the stream, and its bit `b` is bit
/// `k` of the count of column `64 · (4g + s) + b`. Every kernel writing a
/// block writes every word of its rows, zero past the end of the stream, so
/// a block taken from an arena ([`StreamArena::take_planes`]) is never
/// zeroed first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountPlanes {
    words: Vec<u64>,
    lanes: usize,
    length: StreamLength,
    rows: usize,
}

impl CountPlanes {
    /// `rows` rows of all-zero planes of counts of up to `lanes` over
    /// `length` columns.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a lane count outside
    /// `1..=65535` (drained counts are `u16`).
    pub fn zeroed(lanes: usize, length: StreamLength, rows: usize) -> Result<Self, ScError> {
        Self::from_buffer(Vec::new(), lanes, length, rows)
    }

    /// Reuses `buffer` as a block of `rows` rows (the arena's plane pool).
    /// The words it already holds are kept: the kernel writing the block
    /// overwrites every one, so only growth is zeroed.
    pub(crate) fn from_buffer(
        mut buffer: Vec<u64>,
        lanes: usize,
        length: StreamLength,
        rows: usize,
    ) -> Result<Self, ScError> {
        check_lanes(lanes)?;
        buffer.resize(plane_row_words(lanes, length) * rows, 0);
        Ok(Self {
            words: buffer,
            lanes,
            length,
            rows,
        })
    }

    /// The largest count a column can hold (the lanes counted).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of columns (the stream length).
    pub fn length(&self) -> StreamLength {
        self.length
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Planes per group: the bit length of [`CountPlanes::lanes`].
    pub fn planes(&self) -> usize {
        plane_count(self.lanes)
    }

    /// Words of one row.
    pub fn row_words(&self) -> usize {
        plane_row_words(self.lanes, self.length)
    }

    /// The plane words, row after row.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The plane words, for a kernel writing planes (a pooling block). It
    /// must write every word, keep every column a count of at most
    /// [`CountPlanes::lanes`] and the columns past the stream end zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Releases the buffer (for an arena's plane pool).
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// The rows a pool over `window` fields of this block yields, the block
    /// holding `window` fields of that many rows each (`[field][row]`).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a window of zero or one
    /// that does not divide the rows.
    pub fn pooled_rows(&self, window: usize) -> Result<usize, ScError> {
        if window == 0 || !self.rows.is_multiple_of(window) {
            return Err(ScError::InvalidParameter {
                name: "window",
                message: format!("{} rows are not {window} equal fields", self.rows),
            });
        }
        Ok(self.rows / window)
    }

    /// Writes row `row`'s count of every column to `counts` in column
    /// order (see the [module docs](self)), `W::LANES` words of planes per
    /// step on the active [`crate::word`] backend.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless `counts` has one entry per
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn drain_row_into(&self, row: usize, counts: &mut [u16]) -> Result<(), ScError> {
        let bits = self.length.bits();
        if counts.len() != bits {
            return Err(ScError::LengthMismatch {
                left: bits,
                right: counts.len(),
            });
        }
        assert!(row < self.rows, "row {row} out of range");
        let row_words = self.row_words();
        let words = &self.words[row * row_words..(row + 1) * row_words];
        let planes = self.planes();
        dispatch_word_kernel!(drain_impl, avx2::drain_avx2, (words, planes, counts));
        Ok(())
    }

    /// Writes every row's column counts into one row-interleaved,
    /// cycle-major buffer, the input of [`Btanh::transform_rows`]: the
    /// count of row `r` at column `t` goes to
    /// `counts[(r / ROW_GROUP · length + t) · ROW_GROUP + r % ROW_GROUP]`.
    /// Every entry is written; those of the rows that pad the last group
    /// to [`ROW_GROUP`] become zero. Bit-exact with
    /// [`CountPlanes::drain_row_into`] per row.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless `counts` holds the rows
    /// rounded up to a multiple of [`ROW_GROUP`] rows of every column.
    ///
    /// [`Btanh::transform_rows`]: crate::activation::Btanh::transform_rows
    pub fn drain_interleaved(&self, counts: &mut [u16]) -> Result<(), ScError> {
        let bits = self.length.bits();
        let expected = self.rows.next_multiple_of(ROW_GROUP) * bits;
        if counts.len() != expected {
            return Err(ScError::LengthMismatch {
                left: expected,
                right: counts.len(),
            });
        }
        let (words, rows, planes) = (self.words.as_slice(), self.rows, self.planes());
        dispatch_word_kernel!(
            drain_interleaved_impl,
            avx2::drain_interleaved_avx2,
            (words, rows, planes, bits, counts)
        );
        Ok(())
    }

    /// Sums the counts of `window` fields column by column, as the adder
    /// tree of an APC average pool does: pooled row `r` adds row `r` of
    /// every field of this `[field][row]` block (see
    /// [`CountPlanes::pooled_rows`]) with a bit-sliced ripple adder over the
    /// planes, into a block from `arena` whose lane count is the fields'
    /// total. Bit-exact with [`crate::add::CountStream::merge_sum`] over the
    /// drained counts.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a window that does not
    /// divide the rows, or a total lane count past the `u16` count range.
    pub fn merge_sum_with(
        &self,
        window: usize,
        arena: &mut StreamArena,
    ) -> Result<CountPlanes, ScError> {
        let rows = self.pooled_rows(window)?;
        let mut sum = arena.take_planes(window * self.lanes, self.length, rows)?;
        let (field_planes, planes) = (self.planes(), sum.planes());
        let (row_words, sum_row_words) = (self.row_words(), sum.row_words());
        let field_words = rows * row_words;
        for (r, out) in sum.words.chunks_exact_mut(sum_row_words).enumerate() {
            let groups = out.chunks_exact_mut(planes * GROUP_WORDS);
            for (g, out) in groups.enumerate() {
                let at = r * row_words + g * field_planes * GROUP_WORDS;
                for s in 0..GROUP_WORDS {
                    let mut acc = [0u64; MAX_PLANES];
                    for field in 0..window {
                        let addend = &self.words[field * field_words + at + s..];
                        let mut carry = 0u64;
                        for (k, acc) in acc.iter_mut().enumerate().take(planes) {
                            let b = if k < field_planes {
                                addend[k * GROUP_WORDS]
                            } else {
                                0
                            };
                            let a = *acc;
                            let partial = a ^ b;
                            *acc = partial ^ carry;
                            carry = (a & b) | (partial & carry);
                        }
                    }
                    for (k, &plane) in acc.iter().enumerate().take(planes) {
                        out[k * GROUP_WORDS + s] = plane;
                    }
                }
            }
        }
        Ok(sum)
    }

    /// One row of planes of each of `counts` (tests build pooling inputs
    /// from counts).
    #[cfg(test)]
    pub(crate) fn from_counts(counts: &[crate::add::CountStream]) -> Self {
        let mut planes = Self::zeroed(
            counts[0].lanes(),
            StreamLength::new(counts[0].len()),
            counts.len(),
        )
        .expect("a count stream's lane count fits the planes");
        let (stride, row_words) = (planes.planes() * GROUP_WORDS, planes.row_words());
        for (r, row) in counts.iter().enumerate() {
            for (t, &count) in row.counts().iter().enumerate() {
                let (g, s, b) = (t / GROUP_BITS, t % GROUP_BITS / 64, t % 64);
                for k in (0..planes.planes()).filter(|k| count >> k & 1 == 1) {
                    planes.words[r * row_words + g * stride + k * GROUP_WORDS + s] |= 1 << b;
                }
            }
        }
        planes
    }
}

/// Words of one row of [`CountPlanes`]: `plane_count(lanes)` planes per
/// group.
fn plane_row_words(lanes: usize, length: StreamLength) -> usize {
    length.bits().div_ceil(GROUP_BITS) * plane_count(lanes) * GROUP_WORDS
}

/// Validates the operands of the column-count core and returns the stream
/// length in bits.
fn check_operands(input: PackedView<'_>, weights: PackedView<'_>) -> Result<usize, ScError> {
    if input.rows != 1 || input.lanes != weights.lanes {
        return Err(ScError::InvalidParameter {
            name: "weights",
            message: format!(
                "{} input row(s) of {} lanes against weight rows of {} lanes",
                input.rows, input.lanes, weights.lanes
            ),
        });
    }
    let bits = input.length.bits();
    if weights.length.bits() != bits {
        return Err(ScError::LengthMismatch {
            left: bits,
            right: weights.length.bits(),
        });
    }
    Ok(bits)
}

/// Exact column-count planes of the XNOR products of the one-row `input`
/// with every row of `weights`, written to rows `first_row ..` of `out`:
/// row `first_row + r` becomes the planes of the number of lanes whose input
/// and row-`r` weight bits agree at each cycle, with the APC's approximate
/// LSB in the ones plane when `apc` is set (see [`crate::add::Apc`]). Every
/// word of those rows is written.
///
/// # Errors
///
/// Returns [`ScError::InvalidParameter`] unless `input` has one row, both
/// operands and `out` the same lane count, and `out` the rows;
/// [`ScError::LengthMismatch`] for different stream lengths.
pub(crate) fn product_column_planes(
    input: PackedView<'_>,
    weights: PackedView<'_>,
    apc: bool,
    out: &mut CountPlanes,
    first_row: usize,
) -> Result<(), ScError> {
    let bits = check_operands(input, weights)?;
    if out.lanes != input.lanes || first_row + weights.rows > out.rows {
        return Err(ScError::InvalidParameter {
            name: "out",
            message: format!(
                "rows {first_row}..{} of {} rows of {} lanes for {} lanes",
                first_row + weights.rows,
                out.rows,
                out.lanes,
                input.lanes
            ),
        });
    }
    if out.length.bits() != bits {
        return Err(ScError::LengthMismatch {
            left: bits,
            right: out.length.bits(),
        });
    }
    let row_words = out.row_words();
    let out = &mut out.words[first_row * row_words..(first_row + weights.rows) * row_words];
    dispatch_word_kernel!(
        product_column_planes_impl,
        avx2::product_column_planes_avx2,
        (input.words, weights.words, input.lanes, bits, apc, out)
    );
    Ok(())
}

/// Exact column counts of the XNOR products of the one-row `input` with
/// every row of `weights`: the planes of [`product_column_planes`],
/// drained. `counts[r][t]` becomes the number of lanes whose input and
/// row-`r` weight bits agree at cycle `t`.
///
/// # Errors
///
/// As [`product_column_planes`], [`ScError::InvalidParameter`] unless
/// there is one count buffer per weight row, and
/// [`ScError::LengthMismatch`] for a count buffer of another length.
pub(crate) fn product_column_counts(
    input: PackedView<'_>,
    weights: PackedView<'_>,
    counts: &mut [Vec<u16>],
) -> Result<(), ScError> {
    if counts.len() != weights.rows {
        return Err(ScError::InvalidParameter {
            name: "counts",
            message: format!(
                "{} count rows for {} weight rows",
                counts.len(),
                weights.rows
            ),
        });
    }
    let mut planes = CountPlanes::zeroed(input.lanes, input.length, weights.rows)?;
    product_column_planes(input, weights, false, &mut planes, 0)?;
    for (row, row_counts) in counts.iter_mut().enumerate() {
        planes.drain_row_into(row, row_counts)?;
    }
    Ok(())
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::word::WAvx2;

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn product_column_planes_avx2(
        input: &[u64],
        weights: &[u64],
        lanes: usize,
        bits: usize,
        apc: bool,
        out: &mut [u64],
    ) {
        super::product_column_planes_impl::<WAvx2>(input, weights, lanes, bits, apc, out)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn drain_avx2(words: &[u64], planes: usize, counts: &mut [u16]) {
        super::drain_impl::<WAvx2>(words, planes, counts)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn drain_interleaved_avx2(
        words: &[u64],
        rows: usize,
        planes: usize,
        bits: usize,
        counts: &mut [u16],
    ) {
        super::drain_interleaved_impl::<WAvx2>(words, rows, planes, bits, counts)
    }
}

/// How the core's store writes the ones plane: exact, or the APC's
/// approximate LSB, the odd-cycle mask cleared past the stream end and
/// where an even lane count is saturated (a column counting every lane
/// keeps that count: the `min(lanes)` clamp). A single lane stays exact.
#[derive(Clone, Copy)]
struct Lsb {
    dither: bool,
    /// The planes whose AND marks a saturated column: the set bits of an
    /// even lane count (a count is at most `lanes`, so it equals `lanes`
    /// exactly where every set bit of `lanes` is set); zero for an odd one.
    saturating: usize,
}

impl Lsb {
    fn new(apc: bool, lanes: usize) -> Self {
        let dither = apc && lanes >= 2;
        let saturating = if dither && lanes.is_multiple_of(2) {
            lanes
        } else {
            0
        };
        Self { dither, saturating }
    }
}

/// Word-generic body of [`product_column_planes`]: rows outermost, then
/// groups, each group's lanes compressed and stored in `W::LANES`-word
/// steps (the words past the end of the stream compress to zero under the
/// tail mask, so every word is written).
#[inline(always)]
fn product_column_planes_impl<W: Word>(
    input: &[u64],
    weights: &[u64],
    lanes: usize,
    bits: usize,
    apc: bool,
    out: &mut [u64],
) {
    let group_words = lanes * GROUP_WORDS;
    let groups = bits.div_ceil(GROUP_BITS);
    let planes = plane_count(lanes);
    let upper = planes.saturating_sub(4);
    let lsb = Lsb::new(apc, lanes);
    let rows = weights
        .chunks_exact(groups * group_words)
        .zip(out.chunks_exact_mut(groups * planes * GROUP_WORDS));
    for (row, row_planes) in rows {
        for (g, group_planes) in row_planes
            .chunks_exact_mut(planes * GROUP_WORDS)
            .enumerate()
        {
            let x = &input[g * group_words..(g + 1) * group_words];
            let w = &row[g * group_words..(g + 1) * group_words];
            let span = (bits - g * GROUP_BITS).min(GROUP_BITS);
            for sub in (0..GROUP_WORDS).step_by(W::LANES) {
                let (state, valid) = if span == GROUP_BITS {
                    let all = W::splat(u64::MAX);
                    (compress::<W, false>(x, w, sub, all, upper), all)
                } else {
                    let valid = tail_mask(span, sub);
                    (compress::<W, true>(x, w, sub, valid, upper), valid)
                };
                state.store(sub, planes, lsb, valid, group_planes);
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
    /// Adds 16 weight-1 words (`d(0) .. d(15)`) through one Harley-Seal
    /// tree of 15 full adders.
    #[inline(always)]
    fn add_sixteen(&mut self, d: impl Fn(usize) -> W, upper: usize) {
        let (ones, twos_a) = csa(self.ones, d(0), d(1));
        let (ones, twos_b) = csa(ones, d(2), d(3));
        let (twos, fours_a) = csa(self.twos, twos_a, twos_b);
        let (ones, twos_a) = csa(ones, d(4), d(5));
        let (ones, twos_b) = csa(ones, d(6), d(7));
        let (twos, fours_b) = csa(twos, twos_a, twos_b);
        let (fours, eights_a) = csa(self.fours, fours_a, fours_b);
        let (ones, twos_a) = csa(ones, d(8), d(9));
        let (ones, twos_b) = csa(ones, d(10), d(11));
        let (twos, fours_a) = csa(twos, twos_a, twos_b);
        let (ones, twos_a) = csa(ones, d(12), d(13));
        let (ones, twos_b) = csa(ones, d(14), d(15));
        let (twos, fours_b) = csa(twos, twos_a, twos_b);
        let (fours, eights_b) = csa(fours, fours_a, fours_b);
        let (eights, sixteens) = csa(self.eights, eights_a, eights_b);
        self.ones = ones;
        self.twos = twos;
        self.fours = fours;
        self.eights = eights;
        self.add_sixteens(sixteens, upper);
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

    /// Stores the low `planes` planes as words `sub..sub + W::LANES` of a
    /// group's planes (`out`: the group's `planes · 4` words), the ones
    /// plane under `lsb` (`valid`: the words' columns inside the stream).
    #[inline(always)]
    fn store(&self, sub: usize, planes: usize, lsb: Lsb, valid: W, out: &mut [u64]) {
        const ODD_CYCLES: u64 = 0xAAAA_AAAA_AAAA_AAAA;
        let low = [self.ones, self.twos, self.fours, self.eights];
        let all = || low.iter().chain(&self.upper).take(planes).enumerate();
        let ones = if lsb.dither {
            let saturated = if lsb.saturating == 0 {
                W::zero()
            } else {
                all()
                    .filter(|(k, _)| lsb.saturating >> k & 1 == 1)
                    .fold(W::splat(u64::MAX), |acc, (_, plane)| acc.and(*plane))
            };
            W::splat(ODD_CYCLES).and(valid).andnot(saturated)
        } else {
            self.ones
        };
        ones.store(&mut out[sub..]);
        for (k, plane) in all().skip(1) {
            plane.store(&mut out[k * GROUP_WORDS + sub..]);
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
        p.add_sixteen(|lane| product(xc, wc, lane), upper);
    }
    // The last partial step is a whole one with zero products past the
    // last lane.
    let (xr, wr) = (xs.remainder(), ws.remainder());
    let rest = xr.len() / GROUP_WORDS;
    if rest > 0 {
        p.add_sixteen(
            |lane| {
                if lane < rest {
                    product(xr, wr, lane)
                } else {
                    W::zero()
                }
            },
            upper,
        );
    }
    p
}

/// Word-generic body of [`CountPlanes::drain_row_into`]: groups in order,
/// each group's planes converted `W::LANES` words per step.
#[inline(always)]
fn drain_impl<W: Word>(words: &[u64], planes: usize, counts: &mut [u16]) {
    let bits = counts.len();
    for (g, group) in words.chunks_exact(planes * GROUP_WORDS).enumerate() {
        let start = g * GROUP_BITS;
        let span = (bits - start).min(GROUP_BITS);
        let out = &mut counts[start..];
        let mut sub = 0;
        while sub < GROUP_WORDS && sub * 64 < span {
            drain_words::<W>(group, planes, sub, span, out);
            sub += W::LANES;
        }
    }
}

/// Writes the counts of words `sub..sub + W::LANES` of one group (`group`:
/// its `planes · 4` plane words; `span`: its columns, up to 256, column
/// `c`'s count to `out[c]`): the count bytes of the low 8 planes
/// ([`count_bytes`]), and those of the upper planes for the high byte when
/// a count reaches 256, written one 8-column block at a time.
#[inline(always)]
fn drain_words<W: Word>(group: &[u64], planes: usize, sub: usize, span: usize, out: &mut [u16]) {
    let mut plane_words = [W::zero(); MAX_PLANES];
    for (k, plane) in plane_words.iter_mut().enumerate().take(planes) {
        *plane = W::load(&group[k * GROUP_WORDS + sub..]);
    }
    let split = planes.min(8);
    let low = count_bytes(plane_words[..split].iter().copied());
    let has_high = plane_words[split..planes]
        .iter()
        .any(|plane| !plane.is_zero());
    let high = if has_high {
        count_bytes(plane_words[split..planes].iter().copied())
    } else {
        [W::zero(); 8]
    };
    let (mut low_bytes, mut high_bytes) = ([0u64; 4], [0u64; 4]);
    for block in 0..8 {
        if sub * 64 + 8 * block >= span {
            break;
        }
        low[block].store(&mut low_bytes);
        high[block].store(&mut high_bytes);
        for j in 0..W::LANES {
            let column = (sub + j) * 64 + 8 * block;
            if column >= span {
                break;
            }
            let (low, high) = (low_bytes[j].to_le_bytes(), high_bytes[j].to_le_bytes());
            let columns = span.min(column + 8) - column;
            for (c, count) in out[column..column + columns].iter_mut().enumerate() {
                *count = u16::from_le_bytes([low[c], high[c]]);
            }
        }
    }
}

/// Word-generic body of [`CountPlanes::drain_interleaved`]. Per group of
/// [`ROW_GROUP`] rows and per `W::LANES` words of a column group: each
/// row's count bytes ([`count_bytes`], one word lane per stream word), then
/// per 8-column block an 8×8 byte transpose across the rows, which leaves
/// column `c`'s counts of the 8 rows in word `c`, widened to `u16` (the
/// upper planes' bytes, when any count reaches 256, transposed alike and
/// shifted in above). The block's 8 columns × 8 rows are 64 consecutive
/// counts of the buffer, stored a word (4 counts) at a time per word lane.
#[inline(always)]
fn drain_interleaved_impl<W: Word>(
    words: &[u64],
    rows: usize,
    planes: usize,
    bits: usize,
    counts: &mut [u16],
) {
    let groups = bits.div_ceil(GROUP_BITS);
    let row_words = groups * planes * GROUP_WORDS;
    let split = planes.min(8);
    let row_groups = (0..rows)
        .step_by(ROW_GROUP)
        .zip(counts.chunks_exact_mut(ROW_GROUP * bits));
    for (first, out) in row_groups {
        let group_rows = &words[first * row_words..(first + ROW_GROUP).min(rows) * row_words];
        for g in 0..groups {
            let start = g * GROUP_BITS;
            for sub in (0..GROUP_WORDS).step_by(W::LANES) {
                if start + sub * 64 >= bits {
                    break;
                }
                let at = g * planes * GROUP_WORDS + sub;
                let plane = |row: &[u64], k: usize| W::load(&row[at + k * GROUP_WORDS..]);
                let has_high = group_rows
                    .chunks_exact(row_words)
                    .any(|row| (split..planes).any(|k| !plane(row, k).is_zero()));
                // `low_rows[r][b]`: row `r`'s count bytes of block `b`.
                let mut low_rows = [[W::zero(); 8]; ROW_GROUP];
                let mut high_rows = [[W::zero(); 8]; ROW_GROUP];
                for (r, row) in group_rows.chunks_exact(row_words).enumerate() {
                    low_rows[r] = count_bytes((0..split).map(|k| plane(row, k)));
                    if has_high {
                        high_rows[r] = count_bytes((split..planes).map(|k| plane(row, k)));
                    }
                }
                for block in 0..8 {
                    let (mut low, mut high) = ([W::zero(); ROW_GROUP], [W::zero(); ROW_GROUP]);
                    for r in 0..ROW_GROUP {
                        (low[r], high[r]) = (low_rows[r][block], high_rows[r][block]);
                    }
                    transpose_bytes(&mut low);
                    if has_high {
                        transpose_bytes(&mut high);
                    }
                    // `cycles[2c + h][j]`: rows `4h ..` of column `c` in
                    // word lane `j`, four `u16` counts.
                    let mut cycles = [[0u64; 4]; 2 * ROW_GROUP];
                    for (c, pair) in cycles.chunks_exact_mut(2).enumerate() {
                        let (mut first_rows, mut last_rows) = widen(low[c]);
                        if has_high {
                            let (first_high, last_high) = widen(high[c]);
                            first_rows = first_rows.or(first_high.shl(8));
                            last_rows = last_rows.or(last_high.shl(8));
                        }
                        first_rows.store(&mut pair[0]);
                        last_rows.store(&mut pair[1]);
                    }
                    for j in 0..W::LANES {
                        let column = start + (sub + j) * 64 + 8 * block;
                        if column >= bits {
                            break;
                        }
                        let columns = (bits - column).min(8);
                        let dst = &mut out[column * ROW_GROUP..(column + columns) * ROW_GROUP];
                        for (quad, word) in dst.chunks_exact_mut(4).zip(&cycles) {
                            let word = word[j];
                            quad.copy_from_slice(&[
                                word as u16,
                                (word >> 16) as u16,
                                (word >> 32) as u16,
                                (word >> 48) as u16,
                            ]);
                        }
                    }
                }
            }
        }
    }
}

/// The count bytes of 64 columns (one word in every lane) from their low
/// or high 8 planes (`planes`, up to 8: the `k`-th is plane `k`'s word):
/// the byte transpose makes word `b` gather byte `b` of every plane, and
/// the bit transpose of each word then makes byte `c` of word `b` the
/// count bits of column `8b + c`.
#[inline(always)]
pub(crate) fn count_bytes<W: Word>(planes: impl Iterator<Item = W>) -> [W; 8] {
    let mut bytes = [W::zero(); 8];
    for (byte, plane) in bytes.iter_mut().zip(planes) {
        *byte = plane;
    }
    transpose_bytes(&mut bytes);
    for byte in &mut bytes {
        *byte = transpose8(*byte);
    }
    bytes
}

/// Transposes the 8×8 byte matrix whose row `r` is `rows[r]` (byte `c` of
/// it is column `c`) in every lane: the recursive 2×2 block transpose,
/// swapping 32-, then 16-, then 8-bit blocks between rows 4, 2 and 1
/// apart.
#[inline(always)]
fn transpose_bytes<W: Word>(rows: &mut [W; 8]) {
    let rounds = [
        (32, 0x0000_0000_FFFF_FFFF),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
    ];
    for (shift, mask) in rounds {
        let apart = shift as usize / 8;
        let low = W::splat(mask);
        for r in (0..8).filter(|r| r & apart == 0) {
            let (a, b) = (rows[r], rows[r + apart]);
            rows[r] = a.and(low).or(b.shl(shift).andnot(low));
            rows[r + apart] = a.shr(shift).and(low).or(b.andnot(low));
        }
    }
}

/// Zero-extends the 8 bytes of every lane to `u16`s: bytes 0–3 into the
/// first word, bytes 4–7 into the second.
#[inline(always)]
fn widen<W: Word>(x: W) -> (W, W) {
    let spread = |x: W| {
        let x = x.or(x.shl(16)).and(W::splat(0x0000_FFFF_0000_FFFF));
        x.or(x.shl(8)).and(W::splat(0x00FF_00FF_00FF_00FF))
    };
    (spread(x.and(W::splat(0xFFFF_FFFF))), spread(x.shr(32)))
}

/// Transposes an 8×8 bit matrix held row-per-byte (bit `8r + c` is entry
/// `(r, c)`) in every lane: three masked delta-swaps (Hacker's Delight
/// 7-3).
#[inline(always)]
pub(crate) fn transpose8<W: Word>(x: W) -> W {
    let x = delta_swap(x, 7, 0x00AA_00AA_00AA_00AA);
    let x = delta_swap(x, 14, 0x0000_CCCC_0000_CCCC);
    delta_swap(x, 28, 0x0000_0000_F0F0_F0F0)
}

/// Swaps the bits of `x` under `mask` with those `shift` places above.
#[inline(always)]
fn delta_swap<W: Word>(x: W, shift: u32, mask: u64) -> W {
    let t = x.xor(x.shr(shift)).and(W::splat(mask));
    x.xor(t.xor(t.shl(shift)))
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

    /// Runs the core and the drain under backend `W` directly (no
    /// process-wide switch).
    fn counts_with<W: Word>(inputs: &PackedLanes, weights: PackedView<'_>) -> Vec<Vec<u16>> {
        let mut planes = stale_block(inputs.lanes(), inputs.length(), weights.rows());
        product_column_planes_impl::<W>(
            &inputs.words,
            weights.words,
            inputs.lanes(),
            inputs.length().bits(),
            false,
            &mut planes.words,
        );
        (0..weights.rows())
            .map(|row| drain_with::<W>(&planes, row))
            .collect()
    }

    /// A block whose every word is set, as a reused arena buffer may be:
    /// the core must overwrite every word.
    fn stale_block(lanes: usize, length: StreamLength, rows: usize) -> CountPlanes {
        CountPlanes::from_buffer(vec![u64::MAX; 8], lanes, length, rows)
            .map(|mut block| {
                block.words.fill(u64::MAX);
                block
            })
            .unwrap()
    }

    /// [`drain_impl`] of row `row` under backend `W`.
    fn drain_with<W: Word>(planes: &CountPlanes, row: usize) -> Vec<u16> {
        let mut counts = vec![u16::MAX; planes.length().bits()];
        let row_words = planes.row_words();
        drain_impl::<W>(
            &planes.words[row * row_words..(row + 1) * row_words],
            planes.planes(),
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
        #[cfg(target_arch = "x86_64")]
        if crate::word::Backend::Avx2.is_available() {
            let mut planes = stale_block(inputs.lanes(), inputs.length(), weights.rows());
            let row_words = planes.row_words();
            // SAFETY: AVX2 availability was checked above.
            let counts = unsafe {
                avx2::product_column_planes_avx2(
                    &inputs.words,
                    weights.words,
                    inputs.lanes(),
                    inputs.length().bits(),
                    false,
                    &mut planes.words,
                );
                planes
                    .words
                    .chunks_exact(row_words)
                    .map(|row| {
                        let mut counts = vec![u16::MAX; inputs.length().bits()];
                        avx2::drain_avx2(row, planes.planes(), &mut counts);
                        counts
                    })
                    .collect()
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
        // three words, and one `csa` equals a Harley-Seal step over the
        // three words padded with zeros.
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
        planes.add_sixteen(|lane| [a, b, c].get(lane).copied().unwrap_or(0), 0);
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
        planes.add_sixteen(|lane| if lane == 0 { 0b001 } else { 0 }, 2);
        planes.add_sixteens(0b101, 2);
        planes.add_sixteens(0b100, 2);
        let mut stored = CountPlanes::zeroed(63, StreamLength::new(64), 1).unwrap();
        planes.store(0, 6, Lsb::new(false, 63), u64::MAX, &mut stored.words);
        let counts = drain_with::<u64>(&stored, 0);
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
    /// from the planes, for every plane population up to the `u16` range,
    /// for full and partial words and groups, on every backend; the
    /// interleaved drain must write every row's counts and zero the rows
    /// that pad the last row group.
    #[test]
    fn byte_sliced_drain_matches_plane_unpack_reference() {
        // `rows` rows of random planes of `planes` planes over `bits`
        // columns, and the counts each row holds.
        let random_planes = |planes: usize, bits: usize, rows: usize| {
            let lanes = (1usize << planes) - 1;
            let mut stored = CountPlanes::zeroed(lanes, StreamLength::new(bits), rows).unwrap();
            assert_eq!(stored.planes(), planes);
            let row_words = stored.row_words();
            let mut expected = vec![vec![0u16; bits]; rows];
            for (r, expected) in expected.iter_mut().enumerate() {
                for (t, count) in expected.iter_mut().enumerate() {
                    let (g, s, b) = (t / GROUP_BITS, t % GROUP_BITS / 64, t % 64);
                    for k in 0..planes {
                        let salt = 100 + 1000 * r + k * 7 + t / 64;
                        let word = random_stream(64, salt as u64).as_words()[0];
                        if (word >> b) & 1 == 1 {
                            stored.words[r * row_words + (g * planes + k) * GROUP_WORDS + s] |=
                                1 << b;
                            *count += 1 << k;
                        }
                    }
                }
            }
            (stored, expected)
        };
        for planes in 1..=MAX_PLANES {
            for bits in [10usize, 64, 300, 512] {
                let (stored, expected) = random_planes(planes, bits, 1);
                let mut dispatched = vec![u16::MAX; bits];
                stored.drain_row_into(0, &mut dispatched).unwrap();
                let runs = [
                    ("scalar", drain_with::<u64>(&stored, 0)),
                    ("wide", drain_with::<crate::word::W4>(&stored, 0)),
                    ("active", dispatched),
                ];
                for (backend, counts) in runs {
                    assert_eq!(
                        counts, expected[0],
                        "{backend}: {planes} planes, {bits} columns"
                    );
                }
                // The interleaved drain of 9 rows: two row groups, the
                // second padded with 7 zero rows.
                let (rows, expected) = random_planes(planes, bits, 9);
                let interleaved = |drain: fn(&[u64], usize, usize, usize, &mut [u16])| {
                    let mut counts = vec![u16::MAX; 16 * bits];
                    drain(&rows.words, 9, planes, bits, &mut counts);
                    counts
                };
                let mut dispatched = vec![u16::MAX; 16 * bits];
                rows.drain_interleaved(&mut dispatched).unwrap();
                let runs = [
                    ("scalar", interleaved(drain_interleaved_impl::<u64>)),
                    (
                        "wide",
                        interleaved(drain_interleaved_impl::<crate::word::W4>),
                    ),
                    ("active", dispatched),
                ];
                for (backend, counts) in runs {
                    for r in 0..16 {
                        let row: Vec<u16> = (0..bits)
                            .map(|t| counts[(r / ROW_GROUP * bits + t) * ROW_GROUP + r % ROW_GROUP])
                            .collect();
                        let want = expected.get(r).cloned().unwrap_or(vec![0; bits]);
                        assert_eq!(row, want, "{backend}: interleaved row {r}, {planes} planes");
                    }
                }
            }
        }
        let stored = CountPlanes::zeroed(3, StreamLength::new(64), 2).unwrap();
        assert!(stored.drain_row_into(0, &mut [0u16; 63]).is_err());
        assert!(stored.drain_interleaved(&mut [0u16; 8 * 63]).is_err());
        assert!(stored.drain_interleaved(&mut [0u16; 16 * 64]).is_err());
        assert!(stored.drain_interleaved(&mut [0u16; 8 * 64]).is_ok());
        let empty = CountPlanes::zeroed(3, StreamLength::new(64), 0).unwrap();
        assert!(empty.drain_interleaved(&mut []).is_ok());
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
        // A row fill needs one sequence and one threshold per lane, each
        // sequence of the matrix's length.
        let length = StreamLength::new(100);
        let sequences: Vec<LaneSequence> = (0..3).map(|i| LaneSequence::new(i, length)).collect();
        let mut packed = PackedLanes::zeroed(3, length, 2).unwrap();
        assert!(packed.fill_row(1, &sequences, &[0x8000; 3]).is_ok());
        assert!(packed.fill_row(1, &sequences[..2], &[0x8000; 2]).is_err());
        assert!(packed.fill_row(1, &sequences, &[0x8000; 2]).is_err());
        let mut longer = PackedLanes::zeroed(3, StreamLength::new(101), 1).unwrap();
        assert!(longer.fill_row(0, &sequences, &[0x8000; 3]).is_err());
    }
}
