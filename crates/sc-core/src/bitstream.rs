//! Packed stochastic bit-streams.
//!
//! A [`BitStream`] stores its bits packed into `u64` words so that logical
//! operations (AND, OR, XNOR, …) and population counts run 64 bits at a time.
//! The length of a stream is tracked separately from its storage so streams
//! whose length is not a multiple of 64 behave correctly: bits beyond the
//! logical length are always kept at zero.

use crate::error::ScError;
use crate::word::{dispatch_word_kernel, Word};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// Sum of population counts over a word buffer, generic over the kernel
/// backend. Lane accumulators stay vector-shaped until one final horizontal
/// reduction; integer addition is associative, so every backend returns the
/// exact same total.
#[inline(always)]
fn popcount_words_impl<W: Word>(words: &[u64]) -> u64 {
    let mut acc = W::zero();
    let mut chunks = words.chunks_exact(W::LANES);
    for chunk in &mut chunks {
        acc = W::load(chunk).popcount_accumulate(acc);
    }
    let mut total = acc.horizontal_sum();
    for &w in chunks.remainder() {
        total += u64::from(w.count_ones());
    }
    total
}

/// Fused AND + popcount over paired word buffers (the unipolar
/// multiplier-accumulator inner loop), generic over the kernel backend.
#[inline(always)]
fn and_popcount_impl<W: Word>(a: &[u64], b: &[u64]) -> u64 {
    let mut acc = W::zero();
    let mut a_chunks = a.chunks_exact(W::LANES);
    let mut b_chunks = b.chunks_exact(W::LANES);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        acc = W::load(ca).and(W::load(cb)).popcount_accumulate(acc);
    }
    let mut total = acc.horizontal_sum();
    for (&wa, &wb) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        total += u64::from((wa & wb).count_ones());
    }
    total
}

/// Fused XOR + popcount over paired word buffers (the bipolar
/// multiplier-accumulator inner loop counts *agreements* as
/// `len - xor_popcount`), generic over the kernel backend.
#[inline(always)]
fn xor_popcount_impl<W: Word>(a: &[u64], b: &[u64]) -> u64 {
    let mut acc = W::zero();
    let mut a_chunks = a.chunks_exact(W::LANES);
    let mut b_chunks = b.chunks_exact(W::LANES);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        acc = W::load(ca).xor(W::load(cb)).popcount_accumulate(acc);
    }
    let mut total = acc.horizontal_sum();
    for (&wa, &wb) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        total += u64::from((wa ^ wb).count_ones());
    }
    total
}

/// Concrete `#[target_feature]` entry points for the popcount kernels; see
/// the dispatch macro in [`crate::word`] for why these exist.
#[cfg(target_arch = "x86_64")]
mod popcount_avx2 {
    use super::*;
    use crate::word::WAvx2;

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn popcount_words_avx2(words: &[u64]) -> u64 {
        popcount_words_impl::<WAvx2>(words)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
        and_popcount_impl::<WAvx2>(a, b)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
        xor_popcount_impl::<WAvx2>(a, b)
    }
}
#[cfg(target_arch = "x86_64")]
use popcount_avx2::{and_popcount_avx2, popcount_words_avx2, xor_popcount_avx2};

/// Backend-dispatched sum of population counts over a word buffer.
pub(crate) fn popcount_words(words: &[u64]) -> u64 {
    dispatch_word_kernel!(popcount_words_impl, popcount_words_avx2, (words))
}

/// Backend-dispatched fused AND + popcount over paired word buffers.
fn and_popcount_words(a: &[u64], b: &[u64]) -> u64 {
    dispatch_word_kernel!(and_popcount_impl, and_popcount_avx2, (a, b))
}

/// Backend-dispatched fused XOR + popcount over paired word buffers.
fn xor_popcount_words(a: &[u64], b: &[u64]) -> u64 {
    dispatch_word_kernel!(xor_popcount_impl, xor_popcount_avx2, (a, b))
}

/// A validated stochastic bit-stream length.
///
/// The paper sweeps lengths between 128 and 8192 bits; any non-zero length is
/// accepted here. Wrapping the length in a newtype keeps call-sites explicit
/// about which integer is the stream length versus e.g. the input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamLength(usize);

impl StreamLength {
    /// Creates a stream length.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero; use [`StreamLength::try_new`] for a fallible
    /// constructor.
    pub fn new(bits: usize) -> Self {
        Self::try_new(bits).expect("stream length must be non-zero")
    }

    /// Fallible constructor returning an error for a zero length.
    pub fn try_new(bits: usize) -> Result<Self, ScError> {
        if bits == 0 {
            Err(ScError::InvalidLength(bits))
        } else {
            Ok(Self(bits))
        }
    }

    /// The number of bits in the stream.
    pub fn bits(self) -> usize {
        self.0
    }

    /// The number of 64-bit words needed to store the stream.
    pub fn words(self) -> usize {
        self.0.div_ceil(64)
    }

    /// Halves the length, flooring at one bit (used by the bit-stream-length
    /// reduction loop of the Table 6 optimization procedure).
    pub fn halved(self) -> Self {
        Self((self.0 / 2).max(1))
    }
}

impl fmt::Display for StreamLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

impl From<StreamLength> for usize {
    fn from(value: StreamLength) -> Self {
        value.0
    }
}

impl TryFrom<usize> for StreamLength {
    type Error = ScError;

    fn try_from(value: usize) -> Result<Self, Self::Error> {
        Self::try_new(value)
    }
}

/// A stochastic bit-stream packed into 64-bit words.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    /// Creates an all-zeros stream of the given length.
    pub fn zeros(len: StreamLength) -> Self {
        Self {
            words: vec![0; len.words()],
            len: len.bits(),
        }
    }

    /// Creates an all-ones stream of the given length.
    pub fn ones(len: StreamLength) -> Self {
        let mut stream = Self::zeros(len);
        for word in &mut stream.words {
            *word = u64::MAX;
        }
        stream.mask_tail();
        stream
    }

    /// Builds a stream from an iterator of booleans.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidLength`] if the iterator is empty.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Result<Self, ScError> {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut current = 0u64;
        for (i, bit) in bits.into_iter().enumerate() {
            let offset = i % 64;
            if offset == 0 && i != 0 {
                words.push(current);
                current = 0;
            }
            if bit {
                current |= 1u64 << offset;
            }
            len = i + 1;
        }
        if len == 0 {
            return Err(ScError::InvalidLength(0));
        }
        words.push(current);
        Ok(Self { words, len })
    }

    /// Parses a stream from a string of `'0'` / `'1'` characters.
    ///
    /// Any other character is rejected. This is mainly useful in tests and
    /// documentation examples.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for non-binary characters and
    /// [`ScError::InvalidLength`] for the empty string.
    pub fn from_binary_str(text: &str) -> Result<Self, ScError> {
        let mut bits = Vec::with_capacity(text.len());
        for ch in text.chars() {
            match ch {
                '0' => bits.push(false),
                '1' => bits.push(true),
                other => {
                    return Err(ScError::InvalidParameter {
                        name: "binary string",
                        message: format!("unexpected character {other:?}"),
                    })
                }
            }
        }
        Self::from_bits(bits)
    }

    /// Number of bits in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream has zero length (never true for constructed streams).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stream length as a [`StreamLength`].
    pub fn stream_length(&self) -> StreamLength {
        StreamLength(self.len)
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range for stream of {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range for stream of {}",
            self.len
        );
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of ones in the stream.
    pub fn count_ones(&self) -> usize {
        popcount_words(&self.words) as usize
    }

    /// Number of zeros in the stream.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Probability of a one, i.e. the unipolar value of the stream.
    pub fn unipolar_value(&self) -> f64 {
        self.count_ones() as f64 / self.len as f64
    }

    /// Bipolar value of the stream: `2p − 1` where `p` is the density of ones.
    pub fn bipolar_value(&self) -> f64 {
        2.0 * self.unipolar_value() - 1.0
    }

    /// Iterator over the bits of the stream, in stream order.
    pub fn iter(&self) -> Bits<'_> {
        Bits {
            stream: self,
            index: 0,
        }
    }

    /// Access to the packed words (trailing bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words for word-parallel fills (used by
    /// the SNG fill paths and external word-level kernels such as the
    /// serving engine's benchmarks).
    ///
    /// Callers must keep bits beyond the logical length at zero: every
    /// counting and comparison operation assumes a zeroed tail.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Builds a stream directly from packed words; the caller guarantees
    /// `words.len() == len.div_ceil(64)`. The tail is re-masked defensively.
    pub(crate) fn from_raw_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let mut stream = Self { words, len };
        stream.mask_tail();
        stream
    }

    /// Consumes the stream and returns its word buffer (for arena reuse).
    pub(crate) fn into_raw_words(self) -> Vec<u64> {
        self.words
    }

    /// Whether no bit beyond the logical length is set (the invariant every
    /// mutation upholds; checked by the arena before pooling a buffer).
    pub(crate) fn tail_is_masked(&self) -> bool {
        let rem = self.len % 64;
        rem == 0
            || self
                .words
                .last()
                .is_none_or(|last| last & !((1u64 << rem) - 1) == 0)
    }

    /// Splits the stream into contiguous segments of `segment_len` bits.
    ///
    /// The final segment may be shorter if the length does not divide evenly.
    /// Used by the hardware-oriented max-pooling block, which operates on
    /// bit-stream segments.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero.
    pub fn segments(&self, segment_len: usize) -> Vec<BitStream> {
        assert!(segment_len > 0, "segment length must be non-zero");
        let mut out = Vec::with_capacity(self.len.div_ceil(segment_len));
        let mut start = 0;
        while start < self.len {
            let end = (start + segment_len).min(self.len);
            out.push(self.slice_range(start, end));
            start = end;
        }
        out
    }

    /// Extracts the bits of the half-open range `[start, end)` as a new
    /// stream, shifting word-by-word rather than bit-by-bit.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, reversed, or out of bounds.
    pub fn slice_range(&self, start: usize, end: usize) -> BitStream {
        assert!(
            start < end && end <= self.len,
            "invalid slice range {start}..{end} for stream of {}",
            self.len
        );
        let out_len = end - start;
        let mut words = vec![0u64; out_len.div_ceil(64)];
        let shift = start % 64;
        let base = start / 64;
        for (i, word) in words.iter_mut().enumerate() {
            let lo = self.words[base + i] >> shift;
            let hi = if shift > 0 && base + i + 1 < self.words.len() {
                self.words[base + i + 1] << (64 - shift)
            } else {
                0
            };
            *word = lo | hi;
        }
        let mut out = BitStream {
            words,
            len: out_len,
        };
        out.mask_tail();
        out
    }

    /// Counts ones within the half-open bit range `[start, end)`.
    ///
    /// Runs at word granularity: interior words use a single popcount, and
    /// only the two boundary words are masked.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn count_ones_in_range(&self, start: usize, end: usize) -> usize {
        assert!(
            start <= end && end <= self.len,
            "invalid range {start}..{end}"
        );
        if start == end {
            return 0;
        }
        let (start_word, start_bit) = (start / 64, start % 64);
        let (end_word, end_bit) = (end / 64, end % 64);
        if start_word == end_word {
            // Both endpoints inside one word: end_bit > start_bit >= 0 and
            // end_bit - start_bit < 64, so the mask shift cannot overflow.
            let mask = ((1u64 << (end_bit - start_bit)) - 1) << start_bit;
            return (self.words[start_word] & mask).count_ones() as usize;
        }
        let mut total = (self.words[start_word] >> start_bit).count_ones() as usize;
        for &word in &self.words[start_word + 1..end_word] {
            total += word.count_ones() as usize;
        }
        if end_bit != 0 {
            total += (self.words[end_word] & ((1u64 << end_bit) - 1)).count_ones() as usize;
        }
        total
    }

    /// Fused AND + popcount: the number of cycles where both streams are one,
    /// without materializing the product stream. This is the unipolar
    /// multiplier-accumulator kernel.
    ///
    /// # Panics
    ///
    /// Panics if the streams differ in length.
    pub fn and_count(&self, other: &BitStream) -> usize {
        assert_eq!(
            self.len, other.len,
            "bit-stream length mismatch: {} vs {}",
            self.len, other.len
        );
        and_popcount_words(&self.words, &other.words) as usize
    }

    /// Fused XNOR + popcount: the number of cycles where the streams agree,
    /// without materializing the product stream. This is the bipolar
    /// multiplier-accumulator kernel: for independent bipolar streams `a`
    /// and `b`, `2 * xnor_count / len - 1 ≈ a * b`.
    ///
    /// # Panics
    ///
    /// Panics if the streams differ in length.
    pub fn xnor_count(&self, other: &BitStream) -> usize {
        assert_eq!(
            self.len, other.len,
            "bit-stream length mismatch: {} vs {}",
            self.len, other.len
        );
        // XNOR turns the (zero) tail bits into ones, so count XOR instead
        // and subtract: |XNOR| = len - |XOR|, and XOR keeps the tail zeroed.
        self.len - xor_popcount_words(&self.words, &other.words) as usize
    }

    /// In-place OR into `acc`: `acc |= self`, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the streams differ in length.
    pub fn or_into(&self, acc: &mut BitStream) {
        *acc |= self;
    }

    /// In-place XNOR with `other` (the bipolar multiplier), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the streams differ in length.
    pub fn xnor_assign(&mut self, other: &BitStream) {
        assert_eq!(
            self.len, other.len,
            "bit-stream length mismatch: {} vs {}",
            self.len, other.len
        );
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a = !(*a ^ b);
        }
        self.mask_tail();
    }

    /// Concatenates two streams.
    pub fn concat(&self, other: &BitStream) -> BitStream {
        let bits: Vec<bool> = self.iter().chain(other.iter()).collect();
        BitStream::from_bits(bits).expect("concatenation of non-empty streams")
    }

    /// Clears any bits stored beyond the logical length.
    pub(crate) fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Applies a binary word-wise operation, checking lengths.
    fn zip_words(&self, other: &BitStream, op: impl Fn(u64, u64) -> u64) -> BitStream {
        assert_eq!(
            self.len, other.len,
            "bit-stream length mismatch: {} vs {}",
            self.len, other.len
        );
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| op(a, b))
            .collect();
        let mut out = BitStream {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Bit-wise XNOR — the bipolar stochastic multiplier.
    pub fn xnor(&self, other: &BitStream) -> BitStream {
        self.zip_words(other, |a, b| !(a ^ b))
    }

    /// Checked version of [`BitStream::xnor`] that reports a length mismatch
    /// as an error instead of panicking.
    pub fn try_xnor(&self, other: &BitStream) -> Result<BitStream, ScError> {
        self.check_len(other)?;
        Ok(self.xnor(other))
    }

    fn check_len(&self, other: &BitStream) -> Result<(), ScError> {
        if self.len != other.len {
            Err(ScError::LengthMismatch {
                left: self.len,
                right: other.len,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: String = self
            .iter()
            .take(32)
            .map(|bit| if bit { '1' } else { '0' })
            .collect();
        let ellipsis = if self.len > 32 { "…" } else { "" };
        write!(
            f,
            "BitStream(len={}, ones={}, bits={}{})",
            self.len,
            self.count_ones(),
            preview,
            ellipsis
        )
    }
}

impl fmt::Display for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the bits of a [`BitStream`].
#[derive(Debug, Clone)]
pub struct Bits<'a> {
    stream: &'a BitStream,
    index: usize,
}

impl Iterator for Bits<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.index < self.stream.len() {
            let bit = self.stream.get(self.index);
            self.index += 1;
            Some(bit)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.stream.len() - self.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Bits<'_> {}

impl<'a> IntoIterator for &'a BitStream {
    type Item = bool;
    type IntoIter = Bits<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<bool> for BitStream {
    /// Collects bits into a stream.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty; use [`BitStream::from_bits`] for a
    /// fallible alternative.
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitStream::from_bits(iter).expect("cannot collect an empty bit-stream")
    }
}

impl BitAnd for &BitStream {
    type Output = BitStream;

    fn bitand(self, rhs: &BitStream) -> BitStream {
        self.zip_words(rhs, |a, b| a & b)
    }
}

impl BitOr for &BitStream {
    type Output = BitStream;

    fn bitor(self, rhs: &BitStream) -> BitStream {
        self.zip_words(rhs, |a, b| a | b)
    }
}

impl BitXor for &BitStream {
    type Output = BitStream;

    fn bitxor(self, rhs: &BitStream) -> BitStream {
        self.zip_words(rhs, |a, b| a ^ b)
    }
}

impl Not for &BitStream {
    type Output = BitStream;

    fn not(self) -> BitStream {
        let words = self.words.iter().map(|&w| !w).collect();
        let mut out = BitStream {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }
}

/// Applies a binary word-wise operation in place, checking lengths and
/// re-masking the tail word afterwards.
fn zip_words_assign(lhs: &mut BitStream, rhs: &BitStream, op: impl Fn(u64, u64) -> u64) {
    assert_eq!(
        lhs.len, rhs.len,
        "bit-stream length mismatch: {} vs {}",
        lhs.len, rhs.len
    );
    for (a, &b) in lhs.words.iter_mut().zip(rhs.words.iter()) {
        *a = op(*a, b);
    }
    lhs.mask_tail();
}

impl BitAndAssign<&BitStream> for BitStream {
    fn bitand_assign(&mut self, rhs: &BitStream) {
        zip_words_assign(self, rhs, |a, b| a & b);
    }
}

impl BitOrAssign<&BitStream> for BitStream {
    fn bitor_assign(&mut self, rhs: &BitStream) {
        zip_words_assign(self, rhs, |a, b| a | b);
    }
}

impl BitXorAssign<&BitStream> for BitStream {
    fn bitxor_assign(&mut self, rhs: &BitStream) {
        zip_words_assign(self, rhs, |a, b| a ^ b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_length_words() {
        assert_eq!(StreamLength::new(1).words(), 1);
        assert_eq!(StreamLength::new(64).words(), 1);
        assert_eq!(StreamLength::new(65).words(), 2);
        assert_eq!(StreamLength::new(1024).words(), 16);
    }

    #[test]
    fn stream_length_rejects_zero() {
        assert_eq!(StreamLength::try_new(0), Err(ScError::InvalidLength(0)));
    }

    #[test]
    fn stream_length_halved_floors_at_one() {
        assert_eq!(StreamLength::new(1024).halved().bits(), 512);
        assert_eq!(StreamLength::new(1).halved().bits(), 1);
    }

    #[test]
    fn zeros_and_ones_counts() {
        let len = StreamLength::new(130);
        assert_eq!(BitStream::zeros(len).count_ones(), 0);
        assert_eq!(BitStream::ones(len).count_ones(), 130);
        assert_eq!(BitStream::ones(len).count_zeros(), 0);
    }

    #[test]
    fn from_binary_str_round_trip() {
        let stream = BitStream::from_binary_str("0100110100").unwrap();
        assert_eq!(stream.len(), 10);
        assert_eq!(stream.count_ones(), 4);
        assert!((stream.unipolar_value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn from_binary_str_rejects_garbage() {
        assert!(BitStream::from_binary_str("01x0").is_err());
        assert!(BitStream::from_binary_str("").is_err());
    }

    #[test]
    fn paper_bipolar_example() {
        // The paper encodes 0.4 in bipolar form as a stream with 7 ones in 10 bits.
        let stream = BitStream::from_binary_str("1011011101").unwrap();
        assert!((stream.bipolar_value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn get_set_round_trip() {
        let mut stream = BitStream::zeros(StreamLength::new(100));
        stream.set(0, true);
        stream.set(63, true);
        stream.set(64, true);
        stream.set(99, true);
        assert!(stream.get(0) && stream.get(63) && stream.get(64) && stream.get(99));
        assert_eq!(stream.count_ones(), 4);
        stream.set(63, false);
        assert_eq!(stream.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let stream = BitStream::zeros(StreamLength::new(8));
        let _ = stream.get(8);
    }

    #[test]
    fn logical_ops_match_bitwise_semantics() {
        let a = BitStream::from_binary_str("11001010").unwrap();
        let b = BitStream::from_binary_str("10101100").unwrap();
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        let xnor = a.xnor(&b);
        for i in 0..8 {
            assert_eq!(and.get(i), a.get(i) & b.get(i));
            assert_eq!(or.get(i), a.get(i) | b.get(i));
            assert_eq!(xor.get(i), a.get(i) ^ b.get(i));
            assert_eq!(xnor.get(i), !(a.get(i) ^ b.get(i)));
        }
    }

    #[test]
    fn not_respects_tail_mask() {
        let stream = BitStream::zeros(StreamLength::new(70));
        let inverted = !&stream;
        assert_eq!(inverted.count_ones(), 70);
    }

    #[test]
    fn paper_or_gate_example() {
        // "00100101 OR 11001010" generates "11101111" (7/8) per Section 4.1.
        let a = BitStream::from_binary_str("00100101").unwrap();
        let b = BitStream::from_binary_str("11001010").unwrap();
        let or = &a | &b;
        assert_eq!(or.count_ones(), 7);
    }

    #[test]
    fn segments_cover_stream() {
        let stream = BitStream::from_binary_str("110010101110001").unwrap();
        let segments = stream.segments(4);
        assert_eq!(segments.len(), 4);
        assert_eq!(segments[3].len(), 3);
        let total: usize = segments.iter().map(|s| s.count_ones()).sum();
        assert_eq!(total, stream.count_ones());
    }

    #[test]
    fn count_ones_in_range_matches_segments() {
        let stream = BitStream::from_binary_str("1101110001110101").unwrap();
        assert_eq!(stream.count_ones_in_range(0, 16), stream.count_ones());
        assert_eq!(stream.count_ones_in_range(4, 8), 2);
        assert_eq!(stream.count_ones_in_range(8, 8), 0);
    }

    #[test]
    fn concat_preserves_bits() {
        let a = BitStream::from_binary_str("101").unwrap();
        let b = BitStream::from_binary_str("0110").unwrap();
        let joined = a.concat(&b);
        assert_eq!(joined.len(), 7);
        assert_eq!(joined.count_ones(), 4);
        assert!(joined.get(0) && !joined.get(1) && joined.get(2));
        assert!(!joined.get(3) && joined.get(4) && joined.get(5) && !joined.get(6));
    }

    #[test]
    fn try_xnor_reports_length_mismatch() {
        let a = BitStream::zeros(StreamLength::new(8));
        let b = BitStream::zeros(StreamLength::new(16));
        assert_eq!(
            a.try_xnor(&b),
            Err(ScError::LengthMismatch { left: 8, right: 16 })
        );
    }

    #[test]
    fn iterator_round_trip() {
        let original = BitStream::from_binary_str("100110").unwrap();
        let collected: BitStream = original.iter().collect();
        assert_eq!(original, collected);
        assert_eq!(original.iter().len(), 6);
    }

    #[test]
    fn fused_counts_match_materialized_ops() {
        for len in [1usize, 63, 64, 65, 100, 127, 128, 300] {
            let mut lfsr_a = crate::rng::Lfsr::new_32(11);
            let mut lfsr_b = crate::rng::Lfsr::new_32(22);
            let a: BitStream = (0..len).map(|_| lfsr_a.step() & 1 == 1).collect();
            let b: BitStream = (0..len).map(|_| lfsr_b.step() & 1 == 1).collect();
            assert_eq!(
                a.and_count(&b),
                (&a & &b).count_ones(),
                "AND mismatch at len {len}"
            );
            assert_eq!(
                a.xnor_count(&b),
                a.xnor(&b).count_ones(),
                "XNOR mismatch at len {len}"
            );
        }
    }

    /// Every wide popcount backend must agree bit-for-bit with the scalar
    /// `u64` reference on ragged-tail lengths (the acceptance contract of
    /// the `Word` kernel layer).
    #[test]
    fn popcount_kernels_bit_exact_across_backends() {
        use crate::word::W4;
        fn check<W: Word>(backend: &str) {
            for len in [1usize, 100, 127, 1024, 8191] {
                let mut lfsr_a = crate::rng::Lfsr::new_32(91);
                let mut lfsr_b = crate::rng::Lfsr::new_32(92);
                let a: BitStream = (0..len).map(|_| lfsr_a.step() & 1 == 1).collect();
                let b: BitStream = (0..len).map(|_| lfsr_b.step() & 1 == 1).collect();
                let (aw, bw) = (a.as_words(), b.as_words());
                assert_eq!(
                    popcount_words_impl::<W>(aw),
                    popcount_words_impl::<u64>(aw),
                    "{backend} popcount at len {len}"
                );
                assert_eq!(
                    and_popcount_impl::<W>(aw, bw),
                    and_popcount_impl::<u64>(aw, bw),
                    "{backend} and+popcount at len {len}"
                );
                assert_eq!(
                    xor_popcount_impl::<W>(aw, bw),
                    xor_popcount_impl::<u64>(aw, bw),
                    "{backend} xor+popcount at len {len}"
                );
            }
        }
        check::<W4>("wide");
        #[cfg(target_arch = "x86_64")]
        if crate::word::Backend::Avx2.is_available() {
            check::<crate::word::WAvx2>("avx2");
        }
    }

    #[test]
    fn in_place_ops_match_allocating_ops_and_mask_tail() {
        for len in [7usize, 64, 65, 127, 130] {
            let mut lfsr = crate::rng::Lfsr::new_32(5);
            let a: BitStream = (0..len).map(|_| lfsr.step() & 1 == 1).collect();
            let b: BitStream = (0..len).map(|_| lfsr.step() & 1 == 1).collect();
            let mut and = a.clone();
            and &= &b;
            assert_eq!(and, &a & &b);
            let mut or = a.clone();
            or |= &b;
            assert_eq!(or, &a | &b);
            let mut xor = a.clone();
            xor ^= &b;
            assert_eq!(xor, &a ^ &b);
            let mut xnor = a.clone();
            xnor.xnor_assign(&b);
            assert_eq!(xnor, a.xnor(&b));
            // The tail invariant must hold after every in-place op.
            assert_eq!(xnor.count_ones(), xnor.iter().filter(|&bit| bit).count());
            let mut acc = BitStream::zeros(StreamLength::new(len));
            a.or_into(&mut acc);
            assert_eq!(acc, a);
        }
    }

    #[test]
    fn slice_range_matches_bitwise_extraction() {
        let mut lfsr = crate::rng::Lfsr::new_32(77);
        let stream: BitStream = (0..300).map(|_| lfsr.step() & 1 == 1).collect();
        for (start, end) in [(0, 300), (0, 64), (1, 65), (63, 129), (250, 300), (64, 128)] {
            let slice = stream.slice_range(start, end);
            assert_eq!(slice.len(), end - start);
            for i in 0..slice.len() {
                assert_eq!(
                    slice.get(i),
                    stream.get(start + i),
                    "bit {i} of {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn count_ones_in_range_word_boundaries() {
        let mut lfsr = crate::rng::Lfsr::new_32(31);
        let stream: BitStream = (0..200).map(|_| lfsr.step() & 1 == 1).collect();
        for (start, end) in [
            (0, 200),
            (0, 0),
            (200, 200),
            (0, 64),
            (64, 128),
            (1, 63),
            (63, 65),
            (100, 137),
        ] {
            let expected = (start..end).filter(|&i| stream.get(i)).count();
            assert_eq!(
                stream.count_ones_in_range(start, end),
                expected,
                "range {start}..{end}"
            );
        }
    }

    #[test]
    fn debug_is_never_empty() {
        let stream = BitStream::zeros(StreamLength::new(4));
        assert!(!format!("{stream:?}").is_empty());
        assert!(!format!("{stream}").is_empty());
    }
}
