//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Registration goes through a mutex once; the returned handles are
//! `Arc`'d atomics, so the hot path (a query incrementing a counter, a
//! span observing a histogram) is a single atomic operation — no lock,
//! no allocation, no formatting. Formatting happens only at exposition
//! time ([`Registry::render_text`] / [`Registry::render_json`]).
//!
//! # Naming scheme
//!
//! `<crate>_<subsystem>_<what>[_total|_seconds]`, e.g.
//! `ir_shard_answers_total` or `monet_wal_flush_seconds`. One optional
//! label per family (`acoi_breaker_state{detector="segment"}`) keeps
//! the exposition Prometheus-parsable without dragging in a label
//! combinatorics engine.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default latency buckets (seconds): 1µs … 10s.
pub const DEFAULT_TIME_BUCKETS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
];

/// Default work-unit buckets: 1 … 100k units.
pub const WORK_BUCKETS: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 10_000.0, 100_000.0,
];

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not attached to any registry). Recording
    /// into it is harmless; it is what disabled call sites hold.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A detached gauge (not attached to any registry).
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    bounds: &'static [f64],
    /// One count per bound, plus the +Inf bucket at the end.
    counts: Vec<AtomicU64>,
    /// Sum of observations, in micro-units (1e-6 of the observed unit),
    /// so the sum accumulates atomically without a float CAS loop.
    sum_micro: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram. Buckets are chosen at registration and
/// never change, so observation is bucket search + two atomic adds.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn with_bounds(bounds: &'static [f64]) -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_micro: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// A detached histogram (default time buckets, no registry).
    pub fn detached() -> Histogram {
        Histogram::with_bounds(DEFAULT_TIME_BUCKETS)
    }

    /// Records one observation (in the unit the bounds are in).
    pub fn observe(&self, v: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.inner.bounds.len());
        if let Some(slot) = self.inner.counts.get(idx) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        let micro = (v * 1e6).max(0.0);
        let micro = if micro >= u64::MAX as f64 {
            u64::MAX
        } else {
            micro as u64
        };
        self.inner.sum_micro.fetch_add(micro, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds against second-unit bounds.
    pub fn observe_ns(&self, ns: u64) {
        self.observe(ns as f64 * 1e-9);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (in the bound unit).
    pub fn sum(&self) -> f64 {
        self.inner.sum_micro.load(Ordering::Relaxed) as f64 * 1e-6
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Point-in-time structured snapshot: per-bucket (non-cumulative)
    /// counts, the +Inf bucket last, plus sum and count. This is what
    /// the time-series recorder diffs to reconstruct windowed
    /// quantiles ([`crate::timeseries`]).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.to_vec(),
            buckets: self.bucket_counts(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// A self-contained copy of one histogram series at one instant.
/// `buckets` are **non-cumulative** per-bucket counts with the +Inf
/// bucket last (`buckets.len() == bounds.len() + 1`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (not cumulative), +Inf last.
    pub buckets: Vec<u64>,
    /// Sum of all observations, in the bound unit.
    pub sum: f64,
    /// Total observation count.
    pub count: u64,
}

/// A structured point-in-time copy of every series in a [`Registry`],
/// keyed exactly like [`Registry::render_json`]: `name` for unlabelled
/// series, `name{key="value"}` for labelled ones.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by series key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by series key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by series key.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Registration-time metadata of one metric family, for hygiene
/// audits: the self-test over naming conventions and help text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyMeta {
    /// Family name (`ir_queries_total`, `obs_span_seconds`, …).
    pub name: &'static str,
    /// Help text given at first registration.
    pub help: &'static str,
    /// `"counter"`, `"gauge"` or `"histogram"`.
    pub kind: &'static str,
    /// The label key, for labelled families.
    pub label_key: Option<&'static str>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: Kind,
    /// Label key, for labelled families; `None` means the family has
    /// exactly one unlabelled series (under the `""` key).
    label_key: Option<&'static str>,
    series: BTreeMap<String, Series>,
}

#[derive(Debug, Default)]
struct Inner {
    families: BTreeMap<&'static str, Family>,
}

/// The metric registry: the single pane of glass every subsystem
/// registers into. Shareable (`Arc<Registry>` or embedded in
/// [`crate::Obs`]); registration locks, recording does not.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the registration lock cannot corrupt
        // the map (all mutations are single inserts); keep serving.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn series(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        label: Option<(&'static str, &str)>,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut inner = self.lock();
        let family = inner.families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            label_key: label.map(|(k, _)| k),
            series: BTreeMap::new(),
        });
        // Re-fetching an existing family with the same shape is the
        // normal handle-sharing idiom; re-registering the *name* with a
        // different shape is a bug that would silently cross wires, so
        // it fails loudly (registry hygiene contract).
        assert!(
            family.kind == kind,
            "metric family `{name}` is already registered as a {}; \
             refusing duplicate registration as a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        let label_key = label.map(|(k, _)| k);
        assert!(
            family.label_key == label_key,
            "metric family `{name}` is already registered with label key {:?}; \
             refusing duplicate registration with label key {:?}",
            family.label_key,
            label_key
        );
        let key = label.map(|(_, v)| v.to_owned()).unwrap_or_default();
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Registers (or re-fetches) an unlabelled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        match self.series(name, help, Kind::Counter, None, || {
            Series::Counter(Counter::default())
        }) {
            Series::Counter(c) => c,
            _ => Counter::detached(),
        }
    }

    /// Registers (or re-fetches) a counter series under a label.
    pub fn labeled_counter(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        label: &str,
    ) -> Counter {
        match self.series(name, help, Kind::Counter, Some((label_key, label)), || {
            Series::Counter(Counter::default())
        }) {
            Series::Counter(c) => c,
            _ => Counter::detached(),
        }
    }

    /// Registers (or re-fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        match self.series(name, help, Kind::Gauge, None, || {
            Series::Gauge(Gauge::default())
        }) {
            Series::Gauge(g) => g,
            _ => Gauge::detached(),
        }
    }

    /// Registers (or re-fetches) a gauge series under a label.
    pub fn labeled_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        label: &str,
    ) -> Gauge {
        match self.series(name, help, Kind::Gauge, Some((label_key, label)), || {
            Series::Gauge(Gauge::default())
        }) {
            Series::Gauge(g) => g,
            _ => Gauge::detached(),
        }
    }

    /// Registers (or re-fetches) an unlabelled fixed-bucket histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &'static [f64],
    ) -> Histogram {
        match self.series(name, help, Kind::Histogram, None, || {
            Series::Histogram(Histogram::with_bounds(bounds))
        }) {
            Series::Histogram(h) => {
                assert_bounds(name, &h, bounds);
                h
            }
            _ => Histogram::detached(),
        }
    }

    /// Registers (or re-fetches) a histogram series under a label.
    pub fn labeled_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &'static [f64],
        label_key: &'static str,
        label: &str,
    ) -> Histogram {
        match self.series(
            name,
            help,
            Kind::Histogram,
            Some((label_key, label)),
            || Series::Histogram(Histogram::with_bounds(bounds)),
        ) {
            Series::Histogram(h) => {
                assert_bounds(name, &h, bounds);
                h
            }
            _ => Histogram::detached(),
        }
    }

    /// Registration metadata of every family (name, help, kind, label
    /// key), sorted by name — the input to registry hygiene audits.
    pub fn family_metas(&self) -> Vec<FamilyMeta> {
        self.lock()
            .families
            .iter()
            .map(|(name, family)| FamilyMeta {
                name,
                help: family.help,
                kind: family.kind.as_str(),
                label_key: family.label_key,
            })
            .collect()
    }

    /// A structured point-in-time copy of every series: counters and
    /// gauges by value, histograms with per-bucket counts. One pass
    /// under the registration lock reading relaxed atomics — cheap
    /// enough for a periodic sampler tick, and the returned value is
    /// fully detached from the live registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, family) in &inner.families {
            for (label_value, series) in &family.series {
                let key = match family.label_key {
                    Some(k) => format!("{name}{{{k}=\"{label_value}\"}}"),
                    None => (*name).to_owned(),
                };
                match series {
                    Series::Counter(c) => {
                        snap.counters.insert(key, c.get());
                    }
                    Series::Gauge(g) => {
                        snap.gauges.insert(key, g.get());
                    }
                    Series::Histogram(h) => {
                        snap.histograms.insert(key, h.snapshot());
                    }
                }
            }
        }
        snap
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers
    /// followed by one line per series (histograms expand into
    /// `_bucket`/`_sum`/`_count`).
    pub fn render_text(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, family) in &inner.families {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (label_value, series) in &family.series {
                let label = match family.label_key {
                    Some(key) => format!("{{{key}=\"{label_value}\"}}"),
                    None => String::new(),
                };
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{label} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{label} {}\n", g.get()));
                    }
                    Series::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, bound) in h.inner.bounds.iter().enumerate() {
                            cumulative += counts.get(i).copied().unwrap_or(0);
                            let le = bucket_label(family.label_key, label_value, *bound);
                            out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                        }
                        cumulative += counts.last().copied().unwrap_or(0);
                        let le = inf_label(family.label_key, label_value);
                        out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                        out.push_str(&format!("{name}_sum{label} {}\n", fmt_f64(h.sum())));
                        out.push_str(&format!("{name}_count{label} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    /// JSON dump of every series, for incident reports and machine diffing:
    /// `{"name": 3, "labelled{k=\"v\"}": 7, "hist": {"sum": …}}`.
    pub fn render_json(&self) -> crate::report::Json {
        use crate::report::Json;
        let inner = self.lock();
        let mut entries = Vec::new();
        for (name, family) in &inner.families {
            for (label_value, series) in &family.series {
                let key = match family.label_key {
                    Some(k) => format!("{name}{{{k}=\"{label_value}\"}}"),
                    None => (*name).to_owned(),
                };
                let value = match series {
                    Series::Counter(c) => Json::Int(c.get() as i64),
                    Series::Gauge(g) => Json::Int(g.get()),
                    Series::Histogram(h) => Json::Obj(vec![
                        ("count".to_owned(), Json::Int(h.count() as i64)),
                        ("sum".to_owned(), Json::Num(h.sum())),
                    ]),
                };
                entries.push((key, value));
            }
        }
        Json::Obj(entries)
    }
}

/// Re-registering a histogram family must keep its bucket layout:
/// silently returning a handle with *different* bounds would make the
/// recorded distribution unreadable.
fn assert_bounds(name: &str, h: &Histogram, bounds: &'static [f64]) {
    assert!(
        h.inner.bounds == bounds,
        "histogram family `{name}` is already registered with buckets {:?}; \
         refusing duplicate registration with buckets {bounds:?}",
        h.inner.bounds
    );
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn bucket_label(label_key: Option<&str>, label_value: &str, bound: f64) -> String {
    match label_key {
        Some(key) => format!("{{{key}=\"{label_value}\",le=\"{bound}\"}}"),
        None => format!("{{le=\"{bound}\"}}"),
    }
}

fn inf_label(label_key: Option<&str>, label_value: &str) -> String {
    match label_key {
        Some(key) => format!("{{{key}=\"{label_value}\",le=\"+Inf\"}}"),
        None => "{le=\"+Inf\"}".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let r = Registry::new();
        let a = r.counter("test_total", "help");
        let b = r.counter("test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth", "queue depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_text() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render_text();
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_count 3"), "{text}");
        assert!((h.sum() - 5.55).abs() < 1e-6);
    }

    #[test]
    fn labelled_series_render_with_their_label() {
        let r = Registry::new();
        let a = r.labeled_gauge("breaker_state", "state", "detector", "segment");
        let b = r.labeled_gauge("breaker_state", "state", "detector", "tennis");
        a.set(2);
        b.set(0);
        let text = r.render_text();
        assert!(text.contains("breaker_state{detector=\"segment\"} 2"), "{text}");
        assert!(text.contains("breaker_state{detector=\"tennis\"} 0"), "{text}");
        // One HELP/TYPE header per family, not per series.
        assert_eq!(text.matches("# TYPE breaker_state gauge").count(), 1);
    }

    #[test]
    fn every_family_appears_in_text_and_names() {
        let r = Registry::new();
        r.counter("a_total", "a");
        r.gauge("b_now", "b");
        r.histogram("c_seconds", "c", DEFAULT_TIME_BUCKETS);
        let names: Vec<&str> = r.family_metas().iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["a_total", "b_now", "c_seconds"]);
        let text = r.render_text();
        for n in names {
            assert!(text.contains(&format!("# TYPE {n} ")), "{n} missing");
        }
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn duplicate_registration_under_another_kind_panics() {
        let r = Registry::new();
        r.counter("dup_total", "first");
        r.gauge("dup_total", "second");
    }

    #[test]
    #[should_panic(expected = "already registered with label key")]
    fn duplicate_registration_with_another_label_key_panics() {
        let r = Registry::new();
        r.labeled_counter("dup_l_total", "first", "shard", "0");
        r.counter("dup_l_total", "second");
    }

    #[test]
    #[should_panic(expected = "refusing duplicate registration with buckets")]
    fn duplicate_histogram_with_other_buckets_panics() {
        let r = Registry::new();
        r.histogram("dup_seconds", "first", DEFAULT_TIME_BUCKETS);
        r.histogram("dup_seconds", "second", WORK_BUCKETS);
    }

    #[test]
    fn family_metas_expose_help_kind_and_label_key() {
        let r = Registry::new();
        r.counter("a_total", "counts a");
        r.labeled_gauge("b_now", "gauges b", "shard", "0");
        let metas = r.family_metas();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].name, "a_total");
        assert_eq!(metas[0].kind, "counter");
        assert_eq!(metas[0].help, "counts a");
        assert_eq!(metas[0].label_key, None);
        assert_eq!(metas[1].kind, "gauge");
        assert_eq!(metas[1].label_key, Some("shard"));
    }

    #[test]
    fn snapshot_copies_every_series_with_bucket_counts() {
        let r = Registry::new();
        r.counter("c_total", "c").add(3);
        r.labeled_gauge("g_now", "g", "k", "v").set(-7);
        let h = r.histogram("h_seconds", "h", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(9.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("c_total"), Some(&3));
        assert_eq!(snap.gauges.get("g_now{k=\"v\"}"), Some(&-7));
        let hs = snap.histograms.get("h_seconds").unwrap();
        assert_eq!(hs.bounds, vec![0.1, 1.0]);
        assert_eq!(hs.buckets, vec![1, 1, 1]);
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 9.55).abs() < 1e-6);
        // The snapshot is detached: further observations do not move it.
        h.observe(0.5);
        assert_eq!(hs.count, 3);
    }

    #[test]
    fn json_dump_contains_every_series() {
        let r = Registry::new();
        r.counter("a_total", "a").add(4);
        r.labeled_gauge("g", "g", "k", "v").set(-2);
        let json = r.render_json().render();
        assert!(json.contains("\"a_total\": 4"), "{json}");
        assert!(json.contains("\"g{k=\\\"v\\\"}\": -2"), "{json}");
    }
}
