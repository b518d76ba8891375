//! Observability plane: metrics registry, worker stats, and request traces.
//!
//! Three pieces, shared by the `serve` and `route` runtimes so both emit the
//! *same* metric names and formats:
//!
//! * [`MetricsRegistry`] — a process-wide collection of metric sources
//!   (closures producing [`Sample`]s on demand) renderable as Prometheus
//!   text exposition or JSON. The serving runtime registers its counters,
//!   latency/stage histograms, queue-depth gauge, and fill/arena stats;
//!   the router registers its request counters, retry-budget level, and
//!   per-backend state. The [`crate::admin`] listener serves whatever the
//!   registry renders.
//! * [`WorkerStatsSlots`] — per-worker snapshots of engine
//!   [`CacheStats`]/[`ArenaStats`]. Worker sessions are owned by worker
//!   threads; each worker publishes its session stats into its slot after
//!   every batch, and the registry sums the slots at scrape time.
//! * [`TraceSampler`] / [`TraceLog`] — a deterministic per-request sampler
//!   (seeded SplitMix64, the same generator the fault harness and retry
//!   jitter use) feeding a JSONL trace sink. Sampling decisions depend only
//!   on `(seed, request id)`, so a chaos run's trace replays identically.
//!
//! ## Metric naming
//!
//! Server and router share the request-outcome family, so a dashboard reads
//! both the same way:
//!
//! | name | kind | labels |
//! |------|------|--------|
//! | `sc_requests_total` | counter | `outcome` = `ok`/`failed`/`shed`/`expired` |
//! | `sc_request_latency_seconds` | summary | `quantile` = 0.5/0.95/0.99 |
//! | `sc_stage_latency_seconds` | summary | `stage` + `quantile` = 0.5/0.99 |
//! | `sc_queue_depth` | gauge | |
//! | `sc_stream_fills_total` / `sc_arena_*` | counter/gauge | |
//! | `sc_router_failovers_total` | counter | |
//! | `sc_retry_budget_level` | gauge | |
//! | `sc_backend_*` | counter/gauge | `backend` = replica address |

use crate::metrics::{Metrics, Stage};
use sc_core::arena::ArenaStats;
use sc_core::cache::CacheStats;
use sc_core::hist::LogHistogram;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// How a metric family behaves over time — the Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotone non-decreasing total.
    Counter,
    /// Point-in-time value that can go either way.
    Gauge,
    /// Quantile samples plus `_sum`/`_count` of one distribution.
    Summary,
}

impl SampleKind {
    fn as_str(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
            SampleKind::Summary => "summary",
        }
    }
}

/// One exported metric sample: a family name, an optional exposition suffix
/// (`_sum`/`_count` for summaries), labels, and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name (`sc_requests_total`, ...).
    pub name: &'static str,
    /// Name suffix appended after the family name (`""`, `"_sum"`,
    /// `"_count"`).
    pub suffix: &'static str,
    /// Family kind; must agree across all samples of one family.
    pub kind: SampleKind,
    /// Label pairs, rendered in order.
    pub labels: Vec<(&'static str, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// A counter sample.
    #[must_use]
    pub fn counter(name: &'static str, labels: Vec<(&'static str, String)>, value: f64) -> Self {
        Self {
            name,
            suffix: "",
            kind: SampleKind::Counter,
            labels,
            value,
        }
    }

    /// A gauge sample.
    #[must_use]
    pub fn gauge(name: &'static str, labels: Vec<(&'static str, String)>, value: f64) -> Self {
        Self {
            name,
            suffix: "",
            kind: SampleKind::Gauge,
            labels,
            value,
        }
    }
}

/// Pushes summary samples (quantiles + `_sum` + `_count`) of one histogram,
/// interpreting recorded values as microseconds and exporting seconds.
///
/// `labels` are attached to every sample; quantile samples additionally
/// carry the conventional `quantile` label.
pub fn summary_samples(
    out: &mut Vec<Sample>,
    name: &'static str,
    labels: &[(&'static str, String)],
    quantiles: &[f64],
    hist: &LogHistogram,
) {
    for &quantile in quantiles {
        let mut sample_labels = labels.to_vec();
        sample_labels.push(("quantile", format!("{quantile}")));
        out.push(Sample {
            name,
            suffix: "",
            kind: SampleKind::Summary,
            labels: sample_labels,
            value: hist.value_at_percentile(quantile * 100.0) as f64 / 1e6,
        });
    }
    out.push(Sample {
        name,
        suffix: "_sum",
        kind: SampleKind::Summary,
        labels: labels.to_vec(),
        value: hist.sum() as f64 / 1e6,
    });
    out.push(Sample {
        name,
        suffix: "_count",
        kind: SampleKind::Summary,
        labels: labels.to_vec(),
        value: hist.count() as f64,
    });
}

/// A collection of metric sources, rendered on demand.
///
/// Sources are closures pushing [`Sample`]s; registering is one-time wiring
/// at spawn, gathering walks every source at scrape time. The registry never
/// holds metric *state* — that stays in [`Metrics`], queue, router, and
/// worker structures — so scraping observes live values without copies kept
/// in sync.
#[derive(Default)]
pub struct MetricsRegistry {
    #[allow(clippy::type_complexity)]
    sources: Mutex<Vec<Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = self.sources.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("sources", &count)
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a metric source. Sources run in registration order at every
    /// scrape; keep them cheap (histogram walks and atomic loads, no I/O).
    pub fn register(&self, source: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.sources
            .lock()
            .expect("registry lock")
            .push(Box::new(source));
    }

    /// Collects every source's current samples.
    pub fn gather(&self) -> Vec<Sample> {
        let mut samples = Vec::new();
        for source in self.sources.lock().expect("registry lock").iter() {
            source(&mut samples);
        }
        samples
    }

    /// Renders the Prometheus text exposition format (version 0.0.4): one
    /// `# TYPE` line per family, then `name{labels} value` lines.
    pub fn render_prometheus(&self) -> String {
        let samples = self.gather();
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for sample in &samples {
            if last_family != Some(sample.name) {
                out.push_str("# TYPE ");
                out.push_str(sample.name);
                out.push(' ');
                out.push_str(sample.kind.as_str());
                out.push('\n');
                last_family = Some(sample.name);
            }
            out.push_str(sample.name);
            out.push_str(sample.suffix);
            if !sample.labels.is_empty() {
                out.push('{');
                for (index, (key, value)) in sample.labels.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push_str(key);
                    out.push_str("=\"");
                    out.push_str(&escape_label(value));
                    out.push('"');
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&format_value(sample.value));
            out.push('\n');
        }
        out
    }

    /// Renders the same samples as a JSON array:
    /// `{"metrics":[{"name":...,"kind":...,"labels":{...},"value":...}]}`.
    pub fn render_json(&self) -> String {
        let samples = self.gather();
        let mut out = String::from("{\"metrics\":[");
        for (index, sample) in samples.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(sample.name);
            out.push_str(sample.suffix);
            out.push_str("\",\"kind\":\"");
            out.push_str(sample.kind.as_str());
            out.push_str("\",\"labels\":{");
            for (label_index, (key, value)) in sample.labels.iter().enumerate() {
                if label_index > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(key);
                out.push_str("\":\"");
                out.push_str(&escape_json(value));
                out.push('"');
            }
            out.push_str("},\"value\":");
            out.push_str(&format_value(sample.value));
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a label value for the text exposition format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a string for a JSON literal.
fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value: integers without a decimal point, everything
/// else with enough precision for latency-in-seconds figures.
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.9}")
    }
}

/// Registers the standard serving-plane metric families for one [`Metrics`]
/// recorder: request outcomes, end-to-end latency summary, and per-stage
/// summaries. Shared by the server runtime and anything else that owns a
/// `Metrics` (the router reuses the outcome family with its own counters).
pub fn register_request_metrics(registry: &MetricsRegistry, metrics: Arc<Metrics>) {
    registry.register(move |out| {
        for (outcome, value) in [
            ("ok", metrics.completed()),
            ("failed", metrics.failed()),
            ("shed", metrics.shed()),
            ("expired", metrics.expired()),
        ] {
            out.push(Sample::counter(
                "sc_requests_total",
                vec![("outcome", outcome.to_string())],
                value as f64,
            ));
        }
        summary_samples(
            out,
            "sc_request_latency_seconds",
            &[],
            &[0.5, 0.95, 0.99],
            metrics.latency(),
        );
        for stage in Stage::ALL {
            summary_samples(
                out,
                "sc_stage_latency_seconds",
                &[("stage", stage.name().to_string())],
                &[0.5, 0.99],
                metrics.stages().get(stage),
            );
        }
    });
}

/// Per-worker engine-stats snapshots, published by worker threads and summed
/// at scrape time.
///
/// Worker [`crate::engine::Session`]s live inside their worker threads and
/// cannot be read from a scrape; instead each worker writes its session's
/// fill/arena stats here after every batch, so the registry reads values at
/// most one batch stale.
#[derive(Debug)]
pub struct WorkerStatsSlots {
    slots: Vec<Mutex<(CacheStats, ArenaStats)>>,
}

impl WorkerStatsSlots {
    /// Creates `workers` empty slots.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            slots: (0..workers)
                .map(|_| Mutex::new((CacheStats::default(), ArenaStats::default())))
                .collect(),
        }
    }

    /// Publishes worker `index`'s current session stats.
    pub fn publish(&self, index: usize, cache: CacheStats, arena: ArenaStats) {
        if let Some(slot) = self.slots.get(index) {
            *slot.lock().expect("worker stats lock") = (cache, arena);
        }
    }

    /// Sums every worker's last published stats.
    pub fn totals(&self) -> (CacheStats, ArenaStats) {
        let mut cache = CacheStats::default();
        let mut arena = ArenaStats::default();
        for slot in &self.slots {
            let snapshot = slot.lock().expect("worker stats lock");
            cache.merge(&snapshot.0);
            arena.merge(&snapshot.1);
        }
        (cache, arena)
    }
}

/// Registers stream-fill/arena metric families backed by [`WorkerStatsSlots`].
pub fn register_engine_metrics(registry: &MetricsRegistry, slots: Arc<WorkerStatsSlots>) {
    registry.register(move |out| {
        let (cache, arena) = slots.totals();
        out.push(Sample::counter(
            "sc_stream_fills_total",
            vec![],
            cache.misses as f64,
        ));
        out.push(Sample::counter(
            "sc_arena_stream_allocs_total",
            vec![],
            arena.stream_allocs as f64,
        ));
        out.push(Sample::counter(
            "sc_arena_stream_reuses_total",
            vec![],
            arena.stream_reuses as f64,
        ));
        out.push(Sample::gauge(
            "sc_arena_pooled_streams",
            vec![],
            arena.pooled_streams as f64,
        ));
    });
}

/// Deterministic 1-in-N request sampler.
///
/// The decision for a request id depends only on `(seed, id)` — a SplitMix64
/// mix, the same generator the fault harness and retry jitter use — so two
/// runs over the same ids sample the same set, and a merged fleet trace can
/// be reproduced per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSampler {
    seed: u64,
    sample_every: u64,
}

impl TraceSampler {
    /// A sampler keeping roughly one request in `sample_every` (floored at
    /// one — which samples everything).
    #[must_use]
    pub fn new(seed: u64, sample_every: u64) -> Self {
        Self {
            seed,
            sample_every: sample_every.max(1),
        }
    }

    /// Whether the request with this id is sampled.
    #[must_use]
    pub fn should_sample(&self, id: u64) -> bool {
        crate::fault::splitmix64(self.seed ^ id).is_multiple_of(self.sample_every)
    }
}

/// One traced request, serialized as a single JSONL line.
///
/// Stage fields are microsecond durations; stages that did not happen (a
/// router event, or a request refused before compute) are zero. The schema
/// is flat on purpose — one line per request, `grep`- and `jq`-friendly:
///
/// ```json
/// {"kind":"serve","id":7,"model":0,"outcome":"ok","queue_us":133,
///  "linger_us":12,"cache_fill_us":4100,"compute_us":9600,"total_us":9810}
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which plane emitted the event: `"serve"` (worker) or `"route"`.
    pub kind: &'static str,
    /// The wire request id.
    pub id: u64,
    /// Model addressed by the request.
    pub model: u16,
    /// `"ok"`, `"failed"`, `"expired"`, or `"refused"`.
    pub outcome: &'static str,
    /// Queue-wait span, microseconds.
    pub queue_us: u64,
    /// In-batch linger span, microseconds.
    pub linger_us: u64,
    /// Input-stream fill span, microseconds.
    pub cache_fill_us: u64,
    /// Engine compute span, microseconds.
    pub compute_us: u64,
    /// End-to-end span as seen by the emitter, microseconds.
    pub total_us: u64,
}

impl TraceEvent {
    fn to_jsonl(self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"id\":{},\"model\":{},\"outcome\":\"{}\",\"queue_us\":{},\
             \"linger_us\":{},\"cache_fill_us\":{},\"compute_us\":{},\"total_us\":{}}}\n",
            self.kind,
            self.id,
            self.model,
            self.outcome,
            self.queue_us,
            self.linger_us,
            self.cache_fill_us,
            self.compute_us,
            self.total_us
        )
    }
}

/// A sampled JSONL trace sink shared across worker threads.
///
/// Cloning shares the sink; emission takes the sink mutex only for sampled
/// requests, so an unsampled request costs one SplitMix64 mix. This replaces
/// ad-hoc per-request logging in the serving path — structured, bounded by
/// the sampling rate, and deterministic under a fixed seed.
#[derive(Clone)]
pub struct TraceLog {
    sampler: TraceSampler,
    sink: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("sampler", &self.sampler)
            .finish()
    }
}

impl TraceLog {
    /// A trace log writing sampled events to `sink`.
    pub fn new(sampler: TraceSampler, sink: Box<dyn Write + Send>) -> Self {
        Self {
            sampler,
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// A trace log appending to the file at `path` (created/truncated).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_file(sampler: TraceSampler, path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(sampler, Box::new(std::fs::File::create(path)?)))
    }

    /// A trace log writing into a shared in-memory buffer — the handle tests
    /// read the emitted lines back from.
    #[must_use]
    pub fn to_shared_buffer(sampler: TraceSampler) -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let log = Self::new(sampler, Box::new(SharedBuffer(Arc::clone(&buffer))));
        (log, buffer)
    }

    /// The sampler deciding which events this log keeps.
    #[must_use]
    pub fn sampler(&self) -> TraceSampler {
        self.sampler
    }

    /// Emits `event` if its request id is sampled. Write errors are
    /// swallowed — tracing must never fail a request.
    pub fn emit(&self, event: &TraceEvent) {
        if !self.sampler.should_sample(event.id) {
            return;
        }
        let line = event.to_jsonl();
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.write_all(line.as_bytes());
            let _ = sink.flush();
        }
    }
}

/// `Write` adapter over a shared byte buffer.
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace buffer").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_renders_prometheus_families_once() {
        let registry = MetricsRegistry::new();
        registry.register(|out| {
            out.push(Sample::counter(
                "demo_total",
                vec![("outcome", "ok".to_string())],
                3.0,
            ));
            out.push(Sample::counter(
                "demo_total",
                vec![("outcome", "failed".to_string())],
                1.0,
            ));
            out.push(Sample::gauge("demo_depth", vec![], 7.0));
        });
        let text = registry.render_prometheus();
        assert_eq!(
            text.matches("# TYPE demo_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("demo_total{outcome=\"ok\"} 3\n"), "{text}");
        assert!(
            text.contains("demo_total{outcome=\"failed\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE demo_depth gauge\ndemo_depth 7\n"),
            "{text}"
        );
    }

    #[test]
    fn registry_renders_summaries_with_quantile_labels() {
        let hist = LogHistogram::new();
        for us in [10u64, 20, 30, 40] {
            hist.record(us);
        }
        let mut out = Vec::new();
        summary_samples(&mut out, "lat_seconds", &[], &[0.5, 0.99], &hist);
        assert_eq!(out.len(), 4); // two quantiles + sum + count
        assert!(out.iter().any(|s| s.suffix == "_count" && s.value == 4.0));
        assert!(out.iter().any(
            |s| s.labels.iter().any(|(k, v)| *k == "quantile" && v == "0.5")
                && (s.value - 20e-6).abs() < 1e-9
        ));
    }

    #[test]
    fn json_rendering_is_well_formed_and_escaped() {
        let registry = MetricsRegistry::new();
        registry.register(|out| {
            out.push(Sample::gauge(
                "g",
                vec![("path", "a\"b\\c\n".to_string())],
                1.5,
            ));
        });
        let json = registry.render_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\\\"b\\\\c\\n"), "{json}");
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn sampler_is_deterministic_and_rate_bounded() {
        let sampler = TraceSampler::new(0xC0FFEE, 4);
        let first: Vec<u64> = (0..1000).filter(|&id| sampler.should_sample(id)).collect();
        let second: Vec<u64> = (0..1000).filter(|&id| sampler.should_sample(id)).collect();
        assert_eq!(first, second, "same seed, same decisions");
        // Roughly 1-in-4 (SplitMix64 is well distributed; wide tolerance).
        assert!(
            (150..400).contains(&first.len()),
            "unexpected sample count {}",
            first.len()
        );
        // A different seed samples a different set.
        let other = TraceSampler::new(0xBEEF, 4);
        let third: Vec<u64> = (0..1000).filter(|&id| other.should_sample(id)).collect();
        assert_ne!(first, third);
        // Rate 1 samples everything; rate 0 is floored to 1.
        assert!((0..100).all(|id| TraceSampler::new(1, 1).should_sample(id)));
        assert!((0..100).all(|id| TraceSampler::new(1, 0).should_sample(id)));
    }

    #[test]
    fn trace_log_emits_sampled_jsonl() {
        let (log, buffer) = TraceLog::to_shared_buffer(TraceSampler::new(7, 2));
        for id in 0..50u64 {
            log.emit(&TraceEvent {
                kind: "serve",
                id,
                model: 1,
                outcome: "ok",
                queue_us: 5,
                linger_us: 1,
                cache_fill_us: 2,
                compute_us: 10,
                total_us: 16,
            });
        }
        let bytes = buffer.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let expected: Vec<u64> = (0..50)
            .filter(|&id| log.sampler().should_sample(id))
            .collect();
        let logged: Vec<u64> = text
            .lines()
            .map(|line| {
                assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
                let id_field = line.split("\"id\":").nth(1).unwrap();
                id_field.split(',').next().unwrap().parse::<u64>().unwrap()
            })
            .collect();
        assert_eq!(logged, expected, "exactly the sampled ids, in order");
        assert!(text.contains("\"compute_us\":10"));
    }

    #[test]
    fn worker_stats_slots_sum_across_workers() {
        let slots = WorkerStatsSlots::new(2);
        let fills_a = CacheStats {
            hits: 0,
            misses: 10,
        };
        let mut fills_b = CacheStats { hits: 0, misses: 5 };
        slots.publish(0, fills_a, ArenaStats::default());
        slots.publish(1, fills_b, ArenaStats::default());
        let (fills, _) = slots.totals();
        assert_eq!(fills.misses, 15);
        // Re-publishing replaces the slot (snapshots, not deltas).
        fills_b.misses = 6;
        slots.publish(1, fills_b, ArenaStats::default());
        assert_eq!(slots.totals().0.misses, 16);
        // An out-of-range index is ignored, not a panic.
        slots.publish(9, CacheStats::default(), ArenaStats::default());
    }
}
