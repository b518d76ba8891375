//! Serving metrics: throughput, latency percentiles, and per-stage spans.
//!
//! End-to-end and per-stage latencies are recorded into lock-free
//! [`LogHistogram`]s (see [`sc_core::hist`]): recording is a few relaxed
//! atomic adds, [`Metrics::report`] walks a fixed number of buckets instead
//! of sorting a sample ring under a mutex, and percentiles cover the
//! recorder's *whole lifetime* — the old 64k sample window silently biased
//! them toward recent traffic. Histograms merge across workers and replicas,
//! which is how a fleet-level report is assembled from per-process scrapes.

use sc_core::hist::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One stage of a request's journey through the serving runtime.
///
/// Each stage gets its own latency histogram in [`Metrics`], so a latency
/// budget can be attributed: time spent waiting for a worker
/// ([`QueueWait`](Stage::QueueWait)), filling SNG input streams
/// ([`CacheFill`](Stage::CacheFill)), computing ([`Compute`](Stage::Compute)),
/// and shipping the reply bytes ([`WriteBack`](Stage::WriteBack)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Enqueue → a worker pops the request off the job queue.
    QueueWait,
    /// Time inside the engine spent filling input bit-streams (the
    /// comparator against each lane's precomputed SNG sequence); a sub-span
    /// of [`Compute`](Stage::Compute).
    CacheFill,
    /// Pop → response: the engine inference call, plus any injected compute
    /// delay.
    Compute,
    /// Handing the serialized response to the client socket.
    WriteBack,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::QueueWait,
        Stage::CacheFill,
        Stage::Compute,
        Stage::WriteBack,
    ];

    /// Stable label used in metric names, trace events, and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CacheFill => "cache_fill",
            Stage::Compute => "compute",
            Stage::WriteBack => "write_back",
        }
    }
}

/// One latency histogram (microseconds) per [`Stage`].
#[derive(Debug, Default)]
pub struct StageSet {
    queue_wait: LogHistogram,
    cache_fill: LogHistogram,
    compute: LogHistogram,
    write_back: LogHistogram,
}

impl StageSet {
    /// The histogram of one stage.
    pub fn get(&self, stage: Stage) -> &LogHistogram {
        match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::CacheFill => &self.cache_fill,
            Stage::Compute => &self.compute,
            Stage::WriteBack => &self.write_back,
        }
    }
}

/// Thread-safe recorder of per-request latencies, stage spans, and
/// completion counts.
///
/// Counters and percentiles both cover the recorder's whole lifetime; the
/// histogram bounds memory regardless of how long the server runs.
#[derive(Debug)]
pub struct Metrics {
    /// End-to-end latency of completed requests, microseconds.
    latency_us: LogHistogram,
    /// Per-stage spans, microseconds.
    stages: StageSet,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    started: Instant,
    /// Microseconds (since `started`) of the first completion, or
    /// [`NO_COMPLETION`] before any request completed.
    first_completion_us: AtomicU64,
    /// Microseconds (since `started`) of the most recent completion.
    last_completion_us: AtomicU64,
}

/// Sentinel for "no completion recorded yet".
const NO_COMPLETION: u64 = u64::MAX;

/// Clamps a duration to whole microseconds in `u64`.
pub(crate) fn as_micros(duration: Duration) -> u64 {
    duration.as_micros().min(u128::from(u64::MAX)) as u64
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates an empty recorder; throughput is measured from this instant.
    pub fn new() -> Self {
        Self {
            latency_us: LogHistogram::new(),
            stages: StageSet::default(),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            started: Instant::now(),
            first_completion_us: AtomicU64::new(NO_COMPLETION),
            last_completion_us: AtomicU64::new(0),
        }
    }

    /// Records one successfully served request. Lock-free.
    pub fn record(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let now_us = self
            .started
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX - 1)) as u64;
        // First completion wins the race exactly once; the max keeps "last"
        // monotone even when workers record out of order.
        let _ = self.first_completion_us.compare_exchange(
            NO_COMPLETION,
            now_us,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.last_completion_us.fetch_max(now_us, Ordering::Relaxed);
        self.latency_us.record(as_micros(latency));
    }

    /// Records one stage span of a request. Lock-free.
    pub fn record_stage(&self, stage: Stage, span: Duration) {
        self.stages.get(stage).record(as_micros(span));
    }

    /// Records one failed request.
    pub fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request shed by admission control (`OVERLOADED`).
    ///
    /// Shed requests are counted separately from failures: they are the
    /// overload protection *working*, not the server malfunctioning.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request dropped because its deadline had already passed
    /// when a worker picked it up (`DEADLINE_EXCEEDED`).
    pub fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// The lifetime end-to-end latency histogram (microseconds).
    pub fn latency(&self) -> &LogHistogram {
        &self.latency_us
    }

    /// The per-stage span histograms (microseconds).
    pub fn stages(&self) -> &StageSet {
        &self.stages
    }

    /// Requests served successfully so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests expired before compute so far.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Produces a snapshot report: lifetime counters, throughput, and
    /// latency percentiles, all computed in O(histogram buckets) without
    /// blocking concurrent recorders.
    pub fn report(&self) -> MetricsReport {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let completed = self.completed.load(Ordering::Relaxed);
        // Throughput over the first→last *completion* span, not lifetime
        // wall-clock: dividing by `elapsed` made an idle server's rate decay
        // toward zero while it sat between bursts. With fewer than two
        // completions the span is degenerate (zero), so the lifetime rate is
        // the honest fallback.
        let first = self.first_completion_us.load(Ordering::Relaxed);
        let last = self.last_completion_us.load(Ordering::Relaxed);
        let throughput_rps = if completed < 2 || first == NO_COMPLETION || last <= first {
            completed as f64 / elapsed
        } else {
            completed as f64 / ((last - first) as f64 / 1e6)
        };
        // One frozen bucket snapshot for all three percentiles: separate
        // `value_at_percentile` calls racing live recorders could report
        // p99 < p50 within one report.
        let [p50, p95, p99] = self.latency_us.percentiles([50.0, 95.0, 99.0]);
        MetricsReport {
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            elapsed_s: elapsed,
            throughput_rps,
            mean_ms: self.latency_us.mean() / 1000.0,
            p50_ms: p50 as f64 / 1000.0,
            p95_ms: p95 as f64 / 1000.0,
            p99_ms: p99 as f64 / 1000.0,
        }
    }
}

/// A point-in-time metrics summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReport {
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Requests shed by admission control (answered `OVERLOADED`).
    pub shed: u64,
    /// Requests dropped past their deadline (answered `DEADLINE_EXCEEDED`).
    pub expired: u64,
    /// Seconds since the recorder was created.
    pub elapsed_s: f64,
    /// Completed requests per second, measured over the span between the
    /// first and the most recent completion (so idle time between bursts
    /// does not decay the rate). With fewer than two completions this falls
    /// back to the lifetime rate.
    pub throughput_rps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds (lifetime, bucket resolution).
    pub p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok / {} failed / {} shed / {} expired in {:.2}s — {:.1} req/s, latency p50 \
             {:.2}ms p95 {:.2}ms p99 {:.2}ms",
            self.completed,
            self.failed,
            self.shed,
            self.expired,
            self.elapsed_s,
            self.throughput_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms
        )
    }
}

/// Nearest-rank index into an ascending sample list of `len` elements.
///
/// The rank is `⌈p·n / 100⌉`, clamped to `[1, n]` and returned zero-based.
/// The product is formed *before* the division so a binary-unrepresentable
/// `p/100` (e.g. `0.95`) cannot push the rank past an exact integer boundary
/// and select the wrong sample; at small sample counts (`n = 2`, p95/p99)
/// the rank clamps to the max sample instead of rounding to a wrong index.
/// `p ≥ 100` always selects the max sample, `p ≤ 0` the min. The router's
/// hedge-delay window and `perfbench`'s exact-sample percentiles use this
/// directly; [`LogHistogram::value_at_percentile`] follows the same rank
/// convention at bucket resolution, so the two report comparable figures.
///
/// # Panics
///
/// Panics (in debug builds) for `len == 0`; callers handle empty lists.
pub fn nearest_rank_index(len: usize, percentile: f64) -> usize {
    debug_assert!(len > 0, "nearest rank of an empty sample list");
    if percentile >= 100.0 {
        return len - 1;
    }
    let rank = ((percentile.max(0.0) * len as f64) / 100.0).ceil() as usize;
    rank.clamp(1, len) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Exact nearest-rank percentile over an ascending list, in ms.
    fn percentile_ms(sorted_us: &[u64], percentile: f64) -> f64 {
        if sorted_us.is_empty() {
            return 0.0;
        }
        sorted_us[nearest_rank_index(sorted_us.len(), percentile)] as f64 / 1000.0
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_ms(&us, 50.0), 50.0);
        assert_eq!(percentile_ms(&us, 95.0), 95.0);
        assert_eq!(percentile_ms(&us, 99.0), 99.0);
        assert_eq!(percentile_ms(&us, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn percentiles_of_one_sample_are_that_sample() {
        let us = [7_000u64];
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile_ms(&us, p), 7.0, "p{p}");
        }
    }

    #[test]
    fn two_sample_tail_percentiles_clamp_to_the_max() {
        // Regression: at n = 2 the p95/p99 nearest rank is ⌈1.9⌉ = ⌈1.98⌉ = 2
        // — the max sample. A mis-rounded index here under-reports tail
        // latency by the full min/max spread.
        let us = [1_000u64, 9_000];
        assert_eq!(percentile_ms(&us, 50.0), 1.0);
        assert_eq!(percentile_ms(&us, 95.0), 9.0);
        assert_eq!(percentile_ms(&us, 99.0), 9.0);
        assert_eq!(percentile_ms(&us, 100.0), 9.0);
    }

    #[test]
    fn three_sample_percentiles_pick_exact_ranks() {
        let us = [1_000u64, 2_000, 3_000];
        assert_eq!(percentile_ms(&us, 50.0), 2.0); // ⌈1.5⌉ = 2nd sample
        assert_eq!(percentile_ms(&us, 95.0), 3.0); // ⌈2.85⌉ = 3rd sample
        assert_eq!(percentile_ms(&us, 99.0), 3.0);
        assert_eq!(percentile_ms(&us, 1.0), 1.0); // ⌈0.03⌉ clamps to 1st
    }

    #[test]
    fn hundred_sample_percentiles_resist_float_drift() {
        // p·n/100 lands exactly on integers for n = 100; the formula must
        // not let float rounding bump the rank up one (e.g. p55 → 56th).
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        for p in 1..=100u64 {
            assert_eq!(
                percentile_ms(&us, p as f64),
                p as f64,
                "p{p} must select sample {p} of 100"
            );
        }
        // Out-of-range percentiles degrade to min/max, never panic.
        assert_eq!(percentile_ms(&us, -5.0), 1.0);
        assert_eq!(percentile_ms(&us, 250.0), 100.0);
    }

    #[test]
    fn report_percentiles_track_the_histogram() {
        // Lifetime accuracy: every sample counts, not a recent window. Small
        // latencies (< 64 µs) land in unit-width buckets, so the report is
        // exact here.
        let metrics = Metrics::new();
        for us in 1..=50u64 {
            metrics.record(Duration::from_micros(us));
        }
        let report = metrics.report();
        assert_eq!(report.completed, 50);
        assert_eq!(report.p50_ms, 0.025);
        assert_eq!(report.p95_ms, 0.048);
        assert_eq!(report.p99_ms, 0.050);
    }

    #[test]
    fn stage_spans_land_in_their_own_histograms() {
        let metrics = Metrics::new();
        metrics.record_stage(Stage::QueueWait, Duration::from_micros(10));
        metrics.record_stage(Stage::QueueWait, Duration::from_micros(20));
        metrics.record_stage(Stage::Compute, Duration::from_micros(40));
        let stages = metrics.stages();
        assert_eq!(stages.get(Stage::QueueWait).count(), 2);
        assert_eq!(stages.get(Stage::Compute).count(), 1);
        assert_eq!(stages.get(Stage::Compute).max(), 40);
        assert_eq!(stages.get(Stage::WriteBack).count(), 0);
        // Every stage has a distinct, stable label.
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn reporting_during_load_does_not_stall_recording() {
        // Regression: `report()` used to clone and sort a 64k ring under the
        // same mutex `record()` needed, so a scrape could stall the worker
        // hot path. Recording is now lock-free: a recorder thread must make
        // continuous progress while reports hammer the same recorder.
        let metrics = Arc::new(Metrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let recorder = {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut recorded = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    metrics.record(Duration::from_micros(recorded % 10_000));
                    metrics.record_stage(Stage::Compute, Duration::from_micros(recorded % 1_000));
                    recorded += 1;
                }
                recorded
            })
        };
        let start = Instant::now();
        let mut reports = 0u64;
        while start.elapsed() < Duration::from_millis(200) {
            let report = metrics.report();
            assert!(report.p99_ms >= report.p50_ms);
            reports += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let recorded = recorder.join().unwrap();
        assert!(reports > 0);
        // 200 ms of lock-free recording comfortably clears this bar even on
        // a loaded CI machine; a recorder serialized behind report's old
        // clone-and-sort would not.
        assert!(
            recorded > 10_000,
            "recording stalled during reports: only {recorded} samples"
        );
        assert_eq!(metrics.completed(), metrics.latency().count());
    }

    #[test]
    fn idle_time_does_not_decay_throughput() {
        // Regression: throughput was lifetime `completed / wall-clock`, so a
        // server that served a burst and then sat idle reported a rate
        // decaying toward zero. The rate must be measured over the
        // first→last completion span and therefore survive the sleep.
        let metrics = Metrics::new();
        metrics.record(Duration::from_micros(10));
        // A measurable gap between the first and last completion keeps the
        // span well-defined on coarse clocks.
        std::thread::sleep(Duration::from_millis(10));
        for _ in 0..49 {
            metrics.record(Duration::from_micros(10));
        }
        let busy = metrics.report();
        std::thread::sleep(Duration::from_millis(300));
        let idle = metrics.report();
        assert_eq!(idle.completed, 50);
        // The lifetime-based rate would have shrunk by at least the sleep
        // (300 ms dwarfs the recording burst); the span-based rate is
        // identical in both reports because no completion happened between
        // them.
        assert!(
            (idle.throughput_rps - busy.throughput_rps).abs() < 1e-6,
            "idle time changed throughput: {} -> {}",
            busy.throughput_rps,
            idle.throughput_rps
        );
        // Sanity: the burst took well under 300 ms, so the span-based rate
        // must exceed what lifetime division could ever report after the
        // sleep.
        assert!(
            idle.throughput_rps > 50.0 / 0.3,
            "rate {} decayed toward the lifetime quotient",
            idle.throughput_rps
        );
    }

    #[test]
    fn degenerate_completion_counts_fall_back_to_lifetime_rate() {
        let metrics = Metrics::new();
        assert_eq!(metrics.report().throughput_rps, 0.0);
        metrics.record(Duration::from_millis(1));
        // One completion: span is zero, rate falls back to lifetime and must
        // be finite.
        let report = metrics.report();
        assert!(report.throughput_rps.is_finite());
        assert!(report.throughput_rps > 0.0);
    }

    #[test]
    fn report_aggregates_recordings() {
        let metrics = Metrics::new();
        for ms in [1u64, 2, 3, 4] {
            metrics.record(Duration::from_millis(ms));
        }
        metrics.record_failure();
        metrics.record_shed();
        metrics.record_shed();
        metrics.record_expired();
        let report = metrics.report();
        assert_eq!(report.completed, 4);
        assert_eq!(report.failed, 1);
        assert_eq!(report.shed, 2);
        assert_eq!(report.expired, 1);
        assert!(report.to_string().contains("2 shed"));
        assert!((report.mean_ms - 2.5).abs() < 0.01);
        assert!(report.throughput_rps > 0.0);
        assert!(report.to_string().contains("4 ok"));
    }
}
