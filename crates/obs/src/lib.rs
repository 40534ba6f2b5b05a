//! Observability primitives for the DataSpread stack.
//!
//! This crate is intentionally **dependency-free** (std only) and sits at
//! the very bottom of the workspace dependency DAG so every layer — the
//! WAL, the checkpoint image, the recompute scheduler, the workspace
//! service, the TCP server — can record into one shared
//! [`MetricsRegistry`] without import cycles.
//!
//! Three primitive families, all lock-free on the record path:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`.
//! * [`Gauge`] — a settable signed value (resident bytes, in-flight
//!   requests, ops-per-fsync).
//! * [`Histogram`] — a fixed-bucket log2-scale latency/size histogram.
//!   [`Histogram::record_ns`] is a handful of relaxed atomic ops; a
//!   [`HistogramSnapshot`] is mergeable and answers p50/p90/p99/max.
//!
//! Plus a bounded [`EventRing`] capturing structured [`Event`] records
//! (timestamp, sheet, op kind, duration, ticket, outcome) for operations
//! over a configurable slow-op threshold and for notable state changes:
//! degraded-mode transitions, checkpoint rollbacks, admission-control
//! `Busy` rejections, client connects and disconnects. When the ring is full the oldest record is dropped and a
//! drop counter advances, so the ring is safe to leave running forever.
//!
//! The registry has no off switch: every layer records into it
//! unconditionally, so any slow op can be explained after the fact from
//! the running process. What instrumentation costs shows up in paired
//! end-to-end benchmark runs like any other change.
//!
//! Snapshots render to a Prometheus-style text exposition via
//! [`RegistrySnapshot::render_text`] (`name{label="v"} value` lines); the
//! wire codec for shipping snapshots lives in `dataspread-proto`, keeping
//! this crate free of protocol concerns.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds exact zeros,
/// bucket `i` (1..=64) holds values in `[2^(i-1), 2^i - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Milliseconds since the Unix epoch, for event and health timestamps.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- counter --

/// A monotonically increasing event counter. `add` is a single relaxed
/// atomic fetch-add; reads are exact-at-some-point, not linearized
/// against other metrics.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by one and return the post-increment value. One atomic
    /// fetch-add — lets a caller use the counter as a sampling sequence
    /// (e.g. "time one op in N") without a second atomic.
    pub fn inc_get(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------------ gauge --

/// A settable signed instantaneous value (resident bytes, in-flight
/// requests). `add`/`sub` are relaxed atomic ops; `set` overwrites.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (use a negative value to subtract).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// -------------------------------------------------------------- histogram --

/// A fixed-bucket log2-scale histogram. Bucket 0 counts exact zeros;
/// bucket `i` counts values in `[2^(i-1), 2^i - 1]`. Recording is
/// lock-free: one fetch-add on the bucket, count and sum, plus a
/// fetch-max for the running maximum. Suitable for nanosecond latencies
/// and for sizes (batch ops, wave widths) alike.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` — the representative value a
/// percentile query reports for samples inside it.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample (any unit; buckets are log2 of the raw value).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a latency sample in nanoseconds (alias of [`record`]
    /// (Histogram::record), named for the common call site).
    pub fn record_ns(&self, ns: u64) {
        self.record(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Buckets, count, sum and max are each read
    /// atomically but not as one transaction; a snapshot taken during
    /// concurrent recording may be off by the in-flight samples, which is
    /// the standard (and harmless) metrics-scrape race.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], mergeable across shards and
/// queryable for percentiles. The bucket vector always has
/// [`HISTOGRAM_BUCKETS`] entries; the total count is the bucket sum (the
/// wire decoder in `dataspread-proto` rejects snapshots violating that).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values (same unit as the samples).
    pub sum: u64,
    /// Largest value recorded.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the canonical bucket count.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total samples across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Fold another snapshot into this one (bucket-wise addition; max of
    /// maxes). Both sides must use the canonical bucket count.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket containing that rank (clamped to the recorded max,
    /// so a one-sample histogram reports the sample itself). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](HistogramSnapshot::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// ------------------------------------------------------------- event ring --

/// One structured observability event: a slow operation, a degraded-mode
/// transition, a checkpoint rollback, an admission rejection, a client
/// connect/disconnect.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Event {
    /// Milliseconds since the Unix epoch when the event was recorded.
    pub ts_ms: u64,
    /// Event class, e.g. `"slow_op"`, `"degraded"`,
    /// `"checkpoint_rollback"`, `"busy_reject"`, `"conn_open"`,
    /// `"conn_close"`.
    pub kind: String,
    /// Sheet the event concerns (empty for connection-level events).
    pub sheet: String,
    /// Operation or detail string: the op kind for slow ops, the failure
    /// cause for degraded transitions, the peer address for connections.
    pub op: String,
    /// Duration of the operation in nanoseconds (0 when not applicable).
    pub duration_ns: u64,
    /// Commit ticket involved, when applicable (0 otherwise).
    pub ticket: u64,
    /// Outcome: `"ok"`, `"err"`, or a short free-form note.
    pub outcome: String,
}

/// A bounded ring of [`Event`]s. Pushing to a full ring drops the oldest
/// record and advances a drop counter; snapshots return oldest-first.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Default [`EventRing`] capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

impl Default for EventRing {
    fn default() -> EventRing {
        EventRing::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: Event) {
        let mut ring = lock(&self.inner);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.inner).iter().cloned().collect()
    }

    /// How many events have been evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ----------------------------------------------------------- sheet health --

/// Operator-visible health of one sheet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Health {
    /// Writes are being accepted and made durable.
    #[default]
    Healthy,
    /// A storage failure poisoned the durability path; the sheet serves
    /// reads but rejects writes until reopened.
    Degraded,
}

/// Per-sheet health record carried in metrics snapshots and stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SheetHealth {
    /// Sheet name.
    pub sheet: String,
    /// Current health state.
    pub health: Health,
    /// Failure cause when degraded (the first storage error observed).
    pub cause: Option<String>,
    /// When the degrade was first observed, ms since the Unix epoch.
    pub since_ms: Option<u64>,
}

// --------------------------------------------------------------- registry --

/// Default slow-op threshold: operations at or above this duration are
/// recorded in the event ring (20 ms).
pub const DEFAULT_SLOW_OP_NS: u64 = 20_000_000;

/// A per-workspace registry of named metrics plus the event ring.
///
/// Handles ([`Arc<Counter>`] etc.) are created once by
/// [`counter`](MetricsRegistry::counter) /
/// [`gauge`](MetricsRegistry::gauge) /
/// [`histogram`](MetricsRegistry::histogram) — a mutex-guarded map lookup
/// — and then cached by the instrumented layer, so steady-state recording
/// never touches the registry lock. Metric identity is the rendered
/// `name{label="v"}` key; calling a constructor twice with the same
/// name+labels returns the same handle.
#[derive(Debug)]
pub struct MetricsRegistry {
    slow_op_ns: AtomicU64,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Arc<EventRing>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            slow_op_ns: AtomicU64::new(DEFAULT_SLOW_OP_NS),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Arc::new(EventRing::default()),
        }
    }
}

/// Render the canonical metric key: `name` or `name{k="v",k2="v2"}`.
/// Label values are escaped for `"` and `\`.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => key.push_str("\\\""),
                '\\' => key.push_str("\\\\"),
                '\n' => key.push_str("\\n"),
                c => key.push(c),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

impl MetricsRegistry {
    /// A fresh registry: default slow-op threshold, default
    /// event-ring capacity.
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::default())
    }

    /// Current slow-op threshold in nanoseconds.
    pub fn slow_op_ns(&self) -> u64 {
        self.slow_op_ns.load(Ordering::Relaxed)
    }

    /// Set the slow-op threshold (ops at or above it are ring-recorded).
    pub fn set_slow_op_ns(&self, ns: u64) {
        self.slow_op_ns.store(ns, Ordering::Relaxed);
    }

    /// Get or create the counter for `name` + `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = metric_key(name, labels);
        Arc::clone(lock(&self.counters).entry(key).or_default())
    }

    /// Get or create the gauge for `name` + `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = metric_key(name, labels);
        Arc::clone(lock(&self.gauges).entry(key).or_default())
    }

    /// Get or create the histogram for `name` + `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = metric_key(name, labels);
        Arc::clone(lock(&self.histograms).entry(key).or_default())
    }

    /// The shared event ring (clone the `Arc` into layers that emit
    /// events without holding the whole registry).
    pub fn events(&self) -> Arc<EventRing> {
        Arc::clone(&self.events)
    }

    /// Record an event unconditionally (degrade transitions, checkpoint
    /// rollbacks, rejections — events that matter regardless of duration).
    pub fn push_event(&self, event: Event) {
        self.events.push(event);
    }

    /// Record a completed operation into the ring *iff* it crossed the
    /// slow-op threshold. The caller has already paid for the clock; this
    /// is one load + compare on the fast path.
    pub fn note_op(&self, sheet: &str, op: &str, duration_ns: u64, ticket: u64, outcome: &str) {
        if duration_ns >= self.slow_op_ns() {
            self.events.push(Event {
                ts_ms: now_ms(),
                kind: "slow_op".to_string(),
                sheet: sheet.to_string(),
                op: op.to_string(),
                duration_ns,
                ticket,
                outcome: outcome.to_string(),
            });
        }
    }

    /// A point-in-time copy of every metric plus the event ring. Sheet
    /// healths are filled in by the owning service (the registry itself
    /// does not know about sheets).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            events: self.events.snapshot(),
            events_dropped: self.events.dropped(),
            sheets: Vec::new(),
        }
    }
}

// --------------------------------------------------------------- snapshot --

/// A point-in-time copy of a whole [`MetricsRegistry`]: every counter,
/// gauge and histogram (sorted by key), the retained event ring, and the
/// per-sheet health list filled in by the workspace service. This is the
/// payload `Request::Metrics` ships over the wire (codec in
/// `dataspread-proto`) and the input to
/// [`render_text`](RegistrySnapshot::render_text).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(key, value)` per counter, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` per gauge, sorted by key.
    pub gauges: Vec<(String, i64)>,
    /// `(key, snapshot)` per histogram, sorted by key.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring to make room.
    pub events_dropped: u64,
    /// Per-sheet health, filled by the workspace service.
    pub sheets: Vec<SheetHealth>,
}

/// Splice extra labels into a rendered metric key:
/// `h{op="x"}` + `quantile="0.5"` → `h{op="x",quantile="0.5"}`.
fn key_with_label(key: &str, label: &str) -> String {
    match key.strip_suffix('}') {
        Some(prefix) => format!("{prefix},{label}}}"),
        None => format!("{key}{{{label}}}"),
    }
}

impl RegistrySnapshot {
    /// Look up a counter by exact key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by exact key.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Look up a histogram by exact key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h)
    }

    /// Health record for `sheet`, if present.
    pub fn sheet_health(&self, sheet: &str) -> Option<&SheetHealth> {
        self.sheets.iter().find(|s| s.sheet == sheet)
    }

    /// Render a Prometheus-style text exposition: one `key value` line
    /// per counter and gauge; `_count` / `_sum` / `_max` and
    /// `quantile="…"` lines per histogram; `sheet_health{…}` lines (1 =
    /// degraded, with `cause` and `since_ms` labels); events appended as
    /// `#` comment lines so the exposition stays machine-parseable.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let (base, labels) = match k.find('{') {
                Some(i) => (&k[..i], &k[i..]),
                None => (k.as_str(), ""),
            };
            out.push_str(&format!("{base}_count{labels} {}\n", h.count()));
            out.push_str(&format!("{base}_sum{labels} {}\n", h.sum));
            out.push_str(&format!("{base}_max{labels} {}\n", h.max));
            for (q, name) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{} {}\n",
                    key_with_label(k, &format!("quantile=\"{name}\"")),
                    h.quantile(q)
                ));
            }
        }
        for s in &self.sheets {
            let mut labels = vec![("sheet", s.sheet.as_str())];
            let cause = s.cause.clone().unwrap_or_default();
            let since = s.since_ms.map(|m| m.to_string()).unwrap_or_default();
            if s.health == Health::Degraded {
                labels.push(("cause", cause.as_str()));
                labels.push(("since_ms", since.as_str()));
            }
            out.push_str(&format!(
                "{} {}\n",
                metric_key("sheet_health", &labels),
                if s.health == Health::Degraded { 1 } else { 0 }
            ));
        }
        if self.events_dropped > 0 {
            out.push_str(&format!("events_dropped {}\n", self.events_dropped));
        }
        for e in &self.events {
            out.push_str(&format!(
                "# event ts_ms={} kind={} sheet={:?} op={:?} duration_ns={} ticket={} outcome={:?}\n",
                e.ts_ms, e.kind, e.sheet, e.op, e.duration_ns, e.ticket, e.outcome
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    /// Oracle check: percentiles from the histogram must bracket the
    /// true sorted-vec percentile within one log2 bucket.
    #[test]
    fn quantiles_track_sorted_vec_oracle() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            // Deterministic spread over several decades.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % (1 << (10 + (i % 20)));
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.max, *samples.last().unwrap());
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            let truth = samples[rank];
            let est = snap.quantile(q);
            // The estimate is the bucket's upper bound: >= truth, < 2x.
            assert!(est >= truth, "q{q}: {est} < {truth}");
            assert!(
                est <= truth.saturating_mul(2).max(1),
                "q{q}: {est} > 2*{truth}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for v in [0u64, 1, 5, 100, 1 << 20, 1 << 63] {
            a.record(v);
            whole.record(v);
        }
        for v in [7u64, 7, 9000, 1 << 40] {
            b.record(v);
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let expect = whole.snapshot();
        assert_eq!(merged.buckets, expect.buckets);
        assert_eq!(merged.max, expect.max);
        assert_eq!(merged.count(), expect.count());
        assert_eq!(merged.sum, expect.sum);
    }

    #[test]
    fn empty_and_single_sample_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.99), 0);
        h.record(777);
        let s = h.snapshot();
        // Clamped to max: a one-sample histogram reports the sample.
        assert_eq!(s.p50(), 777);
        assert_eq!(s.p99(), 777);
        assert_eq!(s.mean(), 777.0);
    }

    #[test]
    fn event_ring_drops_oldest() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(Event {
                ticket: i,
                ..Event::default()
            });
        }
        let events = ring.snapshot();
        assert_eq!(
            events.iter().map(|e| e.ticket).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn registry_handles_are_shared_and_sorted() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("ops", &[("kind", "edit")]);
        let c2 = reg.counter("ops", &[("kind", "edit")]);
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        reg.counter("ops", &[("kind", "fetch")]).add(5);
        reg.gauge("in_flight", &[]).set(3);
        reg.histogram("latency_ns", &[]).record_ns(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ops{kind=\"edit\"}"), Some(2));
        assert_eq!(snap.counter("ops{kind=\"fetch\"}"), Some(5));
        assert_eq!(snap.gauge("in_flight"), Some(3));
        assert_eq!(snap.histogram("latency_ns").unwrap().count(), 1);
        // Sorted by key.
        let keys: Vec<_> = snap.counters.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn slow_op_threshold_gates_the_ring() {
        let reg = MetricsRegistry::new();
        reg.set_slow_op_ns(1000);
        reg.note_op("s", "apply_edit", 999, 1, "ok");
        reg.note_op("s", "apply_edit", 1000, 2, "ok");
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].ticket, 2);
        assert_eq!(snap.events[0].kind, "slow_op");
    }

    #[test]
    fn metric_key_escapes_labels() {
        assert_eq!(metric_key("a", &[]), "a");
        assert_eq!(metric_key("a", &[("k", "v")]), "a{k=\"v\"}");
        assert_eq!(metric_key("a", &[("k", "q\"\\x")]), "a{k=\"q\\\"\\\\x\"}");
    }

    #[test]
    fn render_text_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("wal_fsyncs", &[("sheet", "s1")]).add(7);
        reg.gauge("in_flight", &[]).set(2);
        let h = reg.histogram("apply_edit_ns", &[("sheet", "s1")]);
        h.record_ns(500);
        h.record_ns(1500);
        let mut snap = reg.snapshot();
        snap.sheets.push(SheetHealth {
            sheet: "s1".to_string(),
            health: Health::Degraded,
            cause: Some("injected I/O error".to_string()),
            since_ms: Some(123),
        });
        let text = snap.render_text();
        assert!(text.contains("wal_fsyncs{sheet=\"s1\"} 7\n"));
        assert!(text.contains("in_flight 2\n"));
        assert!(text.contains("apply_edit_ns_count{sheet=\"s1\"} 2\n"));
        assert!(text.contains("apply_edit_ns_sum{sheet=\"s1\"} 2000\n"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains(
            "sheet_health{sheet=\"s1\",cause=\"injected I/O error\",since_ms=\"123\"} 1\n"
        ));
    }
}
