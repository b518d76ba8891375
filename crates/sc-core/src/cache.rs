//! Input-stream fill counters.
//!
//! The compiled engine fills every input stream with the comparator alone,
//! from its lane's precomputed [`crate::sng::LaneSequence`] (APC layers) or
//! its field's [`crate::sng::SelectedSequence`] (MUX layers); nothing is
//! memoized. [`CacheStats`] keeps the name and shape the repo benchmark
//! (`perfbench/`) compiles against, until the benchmark change that drops
//! its `layer.*.cache_hit_rate` metric.

/// Input-stream counters of an engine session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always zero: no stream is served from a memo.
    pub hits: u64,
    /// Input streams filled: one per position and field of a MUX layer
    /// (its selected stream), one per position, field and lane of an APC
    /// layer.
    pub misses: u64,
}

impl CacheStats {
    /// Adds another session's counters to this one (used to aggregate over
    /// fan-out worker sessions or serving workers).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}
