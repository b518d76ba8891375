//! Reusable bit-stream and count buffers.
//!
//! Hot loops (feature-extraction blocks evaluating four receptive fields,
//! the layer-fused serving path, Monte-Carlo trials regenerating operand
//! streams every iteration) used to allocate a fresh `Vec` per stream per
//! iteration. A [`StreamArena`] keeps the word buffers of recycled streams
//! (the `u16` buffers of recycled APC count streams, the buffers of
//! recycled [`PackedLanes`] input fields, and those of recycled
//! [`CountPlanes`]) and hands them back out, so steady-state evaluation
//! performs no heap allocation.
//!
//! The arena is deliberately dumb: it is a LIFO stack of buffers per kind
//! with no size classes. All streams inside one evaluation share a single
//! length, so the buffer on top of the stack is almost always the right
//! capacity; packed fields, many streams wide, keep a stack of their own so
//! they never claim (and regrow) a one-stream buffer, and so do count
//! planes.
//!
//! ## Ownership contract
//!
//! The arena is owned by the outermost evaluation loop (a serving
//! [`Session`], a feature-block call, a benchmark) and threaded *down*
//! through kernels by `&mut` borrow. A kernel that takes a buffer either
//! returns it to the caller (outputs) or recycles it before returning
//! (intermediates); whoever receives a returned stream recycles it once the
//! bits are decoded. Buffers recycled into a different arena than they were
//! taken from are fine — a buffer is just a `Vec`.
//!
//! [`Session`]: https://docs.rs/sc-serve

use crate::bitstream::{BitStream, StreamLength};
use crate::csa::{CountPlanes, PackedLanes};
use crate::error::ScError;

/// Running reuse counters of a [`StreamArena`].
///
/// `stream_reuses / (stream_reuses + stream_allocs)` is the buffer reuse
/// rate; a steady-state hot loop should report a `stream_allocs` delta of
/// zero between snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Stream (and packed-field or count-plane) requests served from the
    /// pool (no heap allocation).
    pub stream_reuses: u64,
    /// Stream (and packed-field or count-plane) requests that had to
    /// allocate a fresh buffer.
    pub stream_allocs: u64,
    /// Count-buffer requests served from the pool.
    pub count_reuses: u64,
    /// Count-buffer requests that had to allocate.
    pub count_allocs: u64,
    /// Stream (and packed-field or count-plane) buffers currently pooled.
    pub pooled_streams: usize,
    /// Total `u64` words held by pooled stream, packed-field and plane
    /// buffers (capacity, i.e. the memory the pool pins).
    pub pooled_words: usize,
    /// Count buffers currently pooled.
    pub pooled_counts: usize,
}

impl ArenaStats {
    /// Total buffer requests that allocated (streams + counts).
    pub fn total_allocs(&self) -> u64 {
        self.stream_allocs + self.count_allocs
    }

    /// Merges another arena's counters into this one (used to aggregate over
    /// fan-out worker sessions).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.stream_reuses += other.stream_reuses;
        self.stream_allocs += other.stream_allocs;
        self.count_reuses += other.count_reuses;
        self.count_allocs += other.count_allocs;
        self.pooled_streams += other.pooled_streams;
        self.pooled_words += other.pooled_words;
        self.pooled_counts += other.pooled_counts;
    }
}

/// A pool of reusable bit-stream word buffers and APC count buffers.
#[derive(Debug, Default)]
pub struct StreamArena {
    pool: Vec<Vec<u64>>,
    packed: Vec<Vec<u64>>,
    planes: Vec<Vec<u64>>,
    counts: Vec<Vec<u16>>,
    stream_reuses: u64,
    stream_allocs: u64,
    count_reuses: u64,
    count_allocs: u64,
}

impl StreamArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an all-zeros stream of the given length, reusing a pooled
    /// buffer when one is available.
    ///
    /// Only the live word span (`length.words()` words) is written: a
    /// recycled 8192-bit buffer serving a 64-bit stream costs a one-word
    /// clear, not a full-capacity memset. This relies on every recycled
    /// stream having its tail bits masked (debug-asserted in
    /// [`StreamArena::recycle`]) and on [`BitStream`] never exposing words
    /// beyond its logical length.
    pub fn take_zeroed(&mut self, length: StreamLength) -> BitStream {
        match self.pool.pop() {
            Some(mut words) => {
                self.stream_reuses += 1;
                // `clear` + `resize` writes exactly the live span: the
                // truncation is free and `resize` zeroes `length.words()`
                // entries regardless of the buffer's previous (possibly much
                // larger) length or capacity.
                words.clear();
                words.resize(length.words(), 0);
                BitStream::from_raw_words(words, length.bits())
            }
            None => {
                self.stream_allocs += 1;
                BitStream::zeros(length)
            }
        }
    }

    /// Returns a stream's buffer to the pool for reuse.
    pub fn recycle(&mut self, stream: BitStream) {
        debug_assert!(
            stream.tail_is_masked(),
            "recycled stream carries bits beyond its logical length"
        );
        self.pool.push(stream.into_raw_words());
    }

    /// Recycles every stream in an iterator.
    pub fn recycle_all<I: IntoIterator<Item = BitStream>>(&mut self, streams: I) {
        for stream in streams {
            self.recycle(stream);
        }
    }

    /// Takes an all-zeros `u16` count buffer of `len` entries, reusing a
    /// pooled buffer when one is available (the binary-domain twin of
    /// [`StreamArena::take_zeroed`], used by the APC kernels).
    pub fn take_counts(&mut self, len: usize) -> Vec<u16> {
        match self.counts.pop() {
            Some(mut buffer) => {
                self.count_reuses += 1;
                buffer.clear();
                buffer.resize(len, 0);
                buffer
            }
            None => {
                self.count_allocs += 1;
                vec![0u16; len]
            }
        }
    }

    /// Returns a count buffer to the pool for reuse.
    pub fn recycle_counts(&mut self, buffer: Vec<u16>) {
        self.counts.push(buffer);
    }

    /// Takes a [`PackedLanes`] of `rows` rows of `lanes` streams of
    /// `length` bits (the input fields of the packed APC kernel, one row
    /// each), reusing a pooled buffer when one is available. The matrix is
    /// not zeroed: it holds whatever its buffer last held, and
    /// [`PackedLanes::fill_row`] writes every word of a row.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a lane count the packed
    /// layout cannot hold.
    pub fn take_packed(
        &mut self,
        lanes: usize,
        length: StreamLength,
        rows: usize,
    ) -> Result<PackedLanes, ScError> {
        let buffer = self.packed.pop().unwrap_or_default();
        if buffer.capacity() > 0 {
            self.stream_reuses += 1;
        } else {
            self.stream_allocs += 1;
        }
        PackedLanes::from_buffer(buffer, lanes, length, rows)
    }

    /// Returns a packed field's buffer to the pool for reuse.
    pub fn recycle_packed(&mut self, packed: PackedLanes) {
        self.packed.push(packed.into_words());
    }

    /// Takes a [`CountPlanes`] block of `rows` rows of counts of up to
    /// `lanes` over `length` columns (an APC layer position's counts),
    /// reusing a pooled buffer when one is available. The block is not
    /// zeroed: it holds whatever its buffer last held, and the kernel
    /// writing it writes every word.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a lane count outside the
    /// `u16` count range.
    pub fn take_planes(
        &mut self,
        lanes: usize,
        length: StreamLength,
        rows: usize,
    ) -> Result<CountPlanes, ScError> {
        let buffer = self.planes.pop().unwrap_or_default();
        if buffer.capacity() > 0 {
            self.stream_reuses += 1;
        } else {
            self.stream_allocs += 1;
        }
        CountPlanes::from_buffer(buffer, lanes, length, rows)
    }

    /// Returns a count-plane block's buffer to the pool for reuse.
    pub fn recycle_planes(&mut self, planes: CountPlanes) {
        self.planes.push(planes.into_words());
    }

    /// Number of pooled stream buffers currently held.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Current reuse counters and pool occupancy.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            stream_reuses: self.stream_reuses,
            stream_allocs: self.stream_allocs,
            count_reuses: self.count_reuses,
            count_allocs: self.count_allocs,
            pooled_streams: self.pool.len() + self.packed.len() + self.planes.len(),
            pooled_words: self
                .pool
                .iter()
                .chain(&self.packed)
                .chain(&self.planes)
                .map(Vec::capacity)
                .sum(),
            pooled_counts: self.counts.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_fields_pool_apart_from_streams() {
        let mut arena = StreamArena::new();
        let len = StreamLength::new(300);
        let packed = arena.take_packed(25, len, 4).unwrap();
        assert_eq!((packed.lanes(), packed.rows()), (25, 4));
        arena.recycle_packed(packed);
        assert_eq!(arena.stats().pooled_streams, 1);
        // A stream never takes the packed buffer, and the packed buffer
        // comes back as it was left: zero, as nothing wrote it.
        let stream = arena.take_zeroed(len);
        assert_eq!(arena.stats().stream_allocs, 2);
        let again = arena.take_packed(25, len, 1).unwrap();
        assert_eq!(again, PackedLanes::zeroed(25, len, 1).unwrap());
        let stats = arena.stats();
        assert_eq!((stats.stream_allocs, stats.stream_reuses), (2, 1));
        arena.recycle(stream);
        arena.recycle_packed(again);
        assert!(arena.take_packed(0, len, 1).is_err());
    }

    #[test]
    fn count_planes_pool_with_the_counts() {
        let mut arena = StreamArena::new();
        let len = StreamLength::new(300);
        let mut planes = arena.take_planes(25, len, 32).unwrap();
        assert_eq!(
            (planes.lanes(), planes.planes(), planes.rows()),
            (25, 5, 32)
        );
        assert_eq!(planes.as_words().len(), 32 * planes.row_words());
        planes.words_mut().fill(u64::MAX);
        arena.recycle_planes(planes);
        assert_eq!(arena.stats().pooled_streams, 1);
        // The buffer comes back resized for another shape, its old words
        // kept (the kernel writing a block writes every word) and only its
        // growth zeroed.
        let again = arena.take_planes(200, len, 32).unwrap();
        assert_eq!((again.planes(), again.rows()), (8, 32));
        let kept = 32 * 5 * 8;
        assert!(again.as_words()[..kept].iter().all(|&w| w == u64::MAX));
        assert!(again.as_words()[kept..].iter().all(|&w| w == 0));
        let stats = arena.stats();
        assert_eq!((stats.stream_allocs, stats.stream_reuses), (1, 1));
        arena.recycle_planes(again);
        assert!(arena.take_planes(0, len, 1).is_err());
        assert!(CountPlanes::zeroed(25, len, 2)
            .unwrap()
            .as_words()
            .iter()
            .all(|&w| w == 0));
    }

    #[test]
    fn take_recycle_round_trip() {
        let mut arena = StreamArena::new();
        let len = StreamLength::new(130);
        let a = arena.take_zeroed(len);
        assert_eq!(a.len(), 130);
        assert_eq!(a.count_ones(), 0);
        arena.recycle(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.take_zeroed(len);
        assert_eq!(arena.pooled(), 0);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn recycled_buffers_are_rezeroed() {
        let mut arena = StreamArena::new();
        let len = StreamLength::new(70);
        let mut a = arena.take_zeroed(len);
        a.set(0, true);
        a.set(69, true);
        arena.recycle(a);
        let b = arena.take_zeroed(len);
        assert_eq!(b.count_ones(), 0, "recycled buffer leaked bits");
    }

    #[test]
    fn length_changes_are_handled() {
        let mut arena = StreamArena::new();
        let a = arena.take_zeroed(StreamLength::new(1024));
        arena.recycle(a);
        let b = arena.take_zeroed(StreamLength::new(65));
        assert_eq!(b.len(), 65);
        assert_eq!(b.count_ones(), 0);
        arena.recycle(b);
        let c = arena.take_zeroed(StreamLength::new(4096));
        assert_eq!(c.len(), 4096);
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn long_buffer_serves_short_stream_and_keeps_capacity_pooled() {
        let mut arena = StreamArena::new();
        let long = arena.take_zeroed(StreamLength::new(8192));
        arena.recycle(long);
        let short = arena.take_zeroed(StreamLength::new(64));
        assert_eq!(short.len(), 64);
        assert_eq!(short.as_words().len(), 1);
        arena.recycle(short);
        // The 128-word capacity stays with the pooled buffer and is reported.
        assert!(arena.stats().pooled_words >= 128);
    }

    #[test]
    fn stats_track_reuse_and_allocation() {
        let mut arena = StreamArena::new();
        let len = StreamLength::new(256);
        let a = arena.take_zeroed(len);
        let b = arena.take_zeroed(len);
        assert_eq!(arena.stats().stream_allocs, 2);
        assert_eq!(arena.stats().stream_reuses, 0);
        arena.recycle(a);
        arena.recycle(b);
        assert_eq!(arena.stats().pooled_streams, 2);
        let c = arena.take_zeroed(len);
        let stats = arena.stats();
        assert_eq!((stats.stream_allocs, stats.stream_reuses), (2, 1));
        assert_eq!(stats.pooled_streams, 1);
        assert!(stats.pooled_words >= 4);
        arena.recycle(c);
    }

    #[test]
    fn count_buffers_pool_like_streams() {
        let mut arena = StreamArena::new();
        let mut counts = arena.take_counts(100);
        assert_eq!(counts.len(), 100);
        counts[7] = 9;
        arena.recycle_counts(counts);
        let again = arena.take_counts(50);
        assert_eq!(again.len(), 50);
        assert!(again.iter().all(|&c| c == 0), "recycled counts leaked");
        let stats = arena.stats();
        assert_eq!((stats.count_allocs, stats.count_reuses), (1, 1));
        assert_eq!(stats.pooled_counts, 0);
        arena.recycle_counts(again);
        assert_eq!(arena.stats().pooled_counts, 1);
    }

    #[test]
    fn merged_stats_aggregate_workers() {
        let mut root = ArenaStats {
            stream_reuses: 1,
            stream_allocs: 2,
            ..ArenaStats::default()
        };
        let worker = ArenaStats {
            stream_reuses: 3,
            count_allocs: 4,
            pooled_streams: 5,
            ..ArenaStats::default()
        };
        root.merge(&worker);
        assert_eq!(root.stream_reuses, 4);
        assert_eq!(root.stream_allocs, 2);
        assert_eq!(root.count_allocs, 4);
        assert_eq!(root.pooled_streams, 5);
        assert_eq!(root.total_allocs(), 6);
    }
}
