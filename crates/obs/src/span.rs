//! Structured spans, trace trees, and the slow-query log.
//!
//! [`Obs`] is the handle every subsystem holds. Disabled it is a single
//! `None` pointer and every call is a no-op (not even a clock read), so
//! uninstrumented behaviour is byte-identical. Enabled, each span costs
//! two clock reads and one histogram observation; the trace-assembly
//! mutex is touched only while a trace is actively being collected
//! ([`Obs::begin_trace`] … [`Obs::take_trace`]).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::{Clock, MonotonicClock};
use crate::flight::{FlightEvent, FlightRing};
use crate::metrics::{Histogram, Registry, DEFAULT_TIME_BUCKETS};

/// How a span (phase) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Completed normally.
    #[default]
    Ok,
    /// Completed with reduced quality (brownout, partial shards, …).
    Degraded,
    /// Refused before doing the work (admission, breaker, budget).
    Rejected,
    /// Gave up because a deadline expired mid-work.
    Deadline,
}

impl Outcome {
    /// Stable lower-case name, used in metric labels and trace text.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Rejected => "rejected",
            Outcome::Deadline => "deadline",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One node of an EXPLAIN-ANALYZE trace tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceNode {
    /// Span name (`"query"`, `"text"`, `"shard-3"`, …).
    pub name: String,
    /// Wall time in nanoseconds, as read through the injected clock.
    pub elapsed_ns: u64,
    /// Work units the span reported (rows, hits, bytes — span-defined).
    pub work: u64,
    /// How the phase ended.
    pub outcome: Outcome,
    /// Free-form annotations (`"cache=hit"`, `"brownout=reduced"`, …).
    pub notes: Vec<String>,
    /// Child phases, in completion order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Sum of direct children's elapsed time, for the sum-criterion
    /// check (children of a sequential phase must fit in the parent).
    pub fn child_elapsed_ns(&self) -> u64 {
        self.children.iter().map(|c| c.elapsed_ns).sum()
    }

    /// Renders the tree as indented text, one line per span:
    /// `name [outcome] elapsed=… work=… (notes)`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] elapsed={} work={}",
            self.name,
            self.outcome,
            format_ns(self.elapsed_ns),
            self.work
        ));
        if !self.notes.is_empty() {
            out.push_str(&format!(" ({})", self.notes.join("; ")));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Human-readable nanosecond formatting (deterministic).
fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else if ns < 1_000_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
    } else {
        format!("{}.{:03}s", ns / 1_000_000_000, (ns / 1_000_000) % 1_000)
    }
}

/// One retained slow query: the label, its total time, and the trace.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// What ran (typically the query text).
    pub label: String,
    /// Root elapsed in nanoseconds.
    pub total_ns: u64,
    /// Arrival order (monotonic across all offers ever accepted);
    /// breaks total_ns ties so eviction is deterministic.
    pub seq: u64,
    /// The full trace tree.
    pub trace: TraceNode,
}

/// In-progress bookkeeping for one span on the trace stack.
struct Pending {
    notes: Vec<String>,
    children: Vec<TraceNode>,
}

impl Pending {
    fn new() -> Pending {
        Pending {
            notes: Vec::new(),
            // Most spans have a handful of children (shards, phases);
            // pre-size so the common case never reallocates.
            children: Vec::with_capacity(4),
        }
    }
}

#[derive(Default)]
struct TraceState {
    collecting: bool,
    stack: Vec<Pending>,
    roots: Vec<TraceNode>,
}

struct SlowLog {
    threshold_ns: u64,
    capacity: usize,
    next_seq: u64,
    entries: Vec<SlowEntry>,
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog {
            // 10ms default threshold; tune with `set_slow_threshold_ns`.
            threshold_ns: 10_000_000,
            capacity: 16,
            next_seq: 0,
            entries: Vec::new(),
        }
    }
}

struct ObsInner {
    clock: Box<dyn Clock>,
    registry: Registry,
    /// Mirrors `trace.collecting`; lets the span hot path skip the
    /// trace mutex entirely when no trace is being assembled.
    collecting: AtomicBool,
    trace: Mutex<TraceState>,
    slow: Mutex<SlowLog>,
    /// Cached `obs_span_seconds{span=…}` handles, keyed by the
    /// `&'static str` span name, so closing a span is one atomic
    /// observe instead of a label-format + registry lookup per drop.
    span_hists: Mutex<Vec<(&'static str, Histogram)>>,
    flight: Mutex<FlightRing>,
}

impl ObsInner {
    /// The cached histogram for a span name (small linear scan — the
    /// system has ~a dozen distinct span names, all `'static`).
    fn span_histogram(&self, name: &'static str) -> Histogram {
        let mut cache = lock(&self.span_hists);
        if let Some((_, h)) = cache.iter().find(|(n, _)| std::ptr::eq(*n, name) || *n == name) {
            return h.clone();
        }
        let h = self.registry.labeled_histogram(
            "obs_span_seconds",
            "Wall time per span",
            DEFAULT_TIME_BUCKETS,
            "span",
            name,
        );
        cache.push((name, h.clone()));
        h
    }
}

/// The observability handle. Cheap to clone; `Obs::disabled()` is a
/// single `None` and every operation on it is a no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

// `dyn Clock` has no `Debug`, so spell the impl out.
impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Obs {
    /// The no-op handle: no clock, no registry, zero overhead.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle backed by real monotonic time.
    pub fn enabled() -> Obs {
        Obs::with_clock(Box::new(MonotonicClock::new()))
    }

    /// An enabled handle with an injected clock ([`crate::NoopClock`]
    /// for byte-identity checks, [`crate::ManualClock`] for
    /// deterministic trace tests).
    pub fn with_clock(clock: Box<dyn Clock>) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                clock,
                registry: Registry::new(),
                collecting: AtomicBool::new(false),
                trace: Mutex::new(TraceState::default()),
                slow: Mutex::new(SlowLog::default()),
                span_hists: Mutex::new(Vec::new()),
                flight: Mutex::new(FlightRing::default()),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Opens a span. Record work/outcome on the guard; dropping it
    /// closes the span, feeds the `obs_span_seconds{span=…}` histogram,
    /// and (while a trace is collecting) attaches it to the tree.
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = self.inner.as_ref() else {
            return Span { state: None };
        };
        let start_ns = inner.clock.now_ns();
        // The atomic mirror lets untraced spans (the steady-state hot
        // path) skip the trace mutex entirely.
        let pushed = if inner.collecting.load(Ordering::Relaxed) {
            let mut trace = lock(&inner.trace);
            if trace.collecting {
                trace.stack.push(Pending::new());
                true
            } else {
                false
            }
        } else {
            false
        };
        Span {
            state: Some(SpanState {
                obs: Arc::clone(inner),
                name,
                start_ns,
                work: 0,
                outcome: Outcome::Ok,
                notes: Vec::new(),
                pushed,
            }),
        }
    }

    /// Starts collecting the next spans into a trace tree.
    pub fn begin_trace(&self) {
        if let Some(inner) = self.inner.as_ref() {
            let mut trace = lock(&inner.trace);
            trace.collecting = true;
            trace.stack.clear();
            trace.roots.clear();
            inner.collecting.store(true, Ordering::Relaxed);
        }
    }

    /// Stops collecting and returns the assembled tree (the single
    /// root, or a synthetic `trace` node if several spans completed at
    /// top level). `None` when disabled or nothing was recorded.
    pub fn take_trace(&self) -> Option<TraceNode> {
        let inner = self.inner.as_ref()?;
        let mut trace = lock(&inner.trace);
        trace.collecting = false;
        inner.collecting.store(false, Ordering::Relaxed);
        trace.stack.clear();
        let mut roots = std::mem::take(&mut trace.roots);
        match roots.len() {
            0 => None,
            1 => roots.pop(),
            _ => Some(TraceNode {
                name: "trace".to_owned(),
                elapsed_ns: roots.iter().map(|r| r.elapsed_ns).sum(),
                work: 0,
                outcome: Outcome::Ok,
                notes: Vec::new(),
                children: roots,
            }),
        }
    }

    /// Attaches a completed child (measured elsewhere — e.g. a shard
    /// thread) to the span currently on top of the trace stack.
    pub fn record_child(
        &self,
        name: impl Into<String>,
        elapsed_ns: u64,
        work: u64,
        outcome: Outcome,
    ) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if !inner.collecting.load(Ordering::Relaxed) {
            return;
        }
        let mut trace = lock(&inner.trace);
        if !trace.collecting {
            return;
        }
        let node = TraceNode {
            name: name.into(),
            elapsed_ns,
            work,
            outcome,
            notes: Vec::new(),
            children: Vec::new(),
        };
        match trace.stack.last_mut() {
            Some(top) => top.children.push(node),
            None => trace.roots.push(node),
        }
    }

    /// Attaches a note to the innermost open span, without needing the
    /// span guard in scope (e.g. the cache layer marking `cache=hit`).
    /// The closure runs only when a trace is actively collecting.
    pub fn annotate(&self, f: impl FnOnce() -> String) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if !inner.collecting.load(Ordering::Relaxed) {
            return;
        }
        let mut trace = lock(&inner.trace);
        if !trace.collecting {
            return;
        }
        let note = f();
        if let Some(top) = trace.stack.last_mut() {
            top.notes.push(note);
        }
    }

    /// Sets the slow-query threshold (traces at or above it are kept).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        if let Some(inner) = self.inner.as_ref() {
            lock(&inner.slow).threshold_ns = ns;
        }
    }

    /// Sets how many slow traces the ring retains.
    pub fn set_slow_capacity(&self, cap: usize) {
        if let Some(inner) = self.inner.as_ref() {
            let mut slow = lock(&inner.slow);
            slow.capacity = cap;
            slow.entries.truncate(cap);
        }
    }

    /// Offers a finished trace to the slow log; kept only if its root
    /// elapsed meets the threshold, evicting the fastest entry when the
    /// ring is full.
    pub fn offer_slow(&self, label: impl Into<String>, trace: &TraceNode) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let label = label.into();
        {
            let mut slow = lock(&inner.slow);
            if trace.elapsed_ns < slow.threshold_ns || slow.capacity == 0 {
                return;
            }
            slow.next_seq += 1;
            let seq = slow.next_seq;
            slow.entries.push(SlowEntry {
                label: label.clone(),
                total_ns: trace.elapsed_ns,
                seq,
                trace: trace.clone(),
            });
            // Slowest first; the arrival seq breaks wall-time ties so
            // eviction under equal times is deterministic (earliest
            // arrivals survive).
            slow.entries
                .sort_by_key(|e| (std::cmp::Reverse(e.total_ns), e.seq));
            let cap = slow.capacity;
            slow.entries.truncate(cap);
        }
        let elapsed_ns = trace.elapsed_ns;
        self.record_event("slow_query", || format!("{label} total_ns={elapsed_ns}"));
    }

    /// Snapshot of the slow-query log, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowEntry> {
        match self.inner.as_ref() {
            Some(inner) => lock(&inner.slow).entries.clone(),
            None => Vec::new(),
        }
    }

    /// Appends an event to the flight recorder. The detail closure
    /// runs only on an enabled handle, so disabled runs pay nothing.
    pub fn record_event(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let at_ns = inner.clock.now_ns();
        let detail = detail();
        lock(&inner.flight).push(at_ns, kind, detail);
    }

    /// Snapshot of the flight-recorder ring, oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        match self.inner.as_ref() {
            Some(inner) => lock(&inner.flight).snapshot(),
            None => Vec::new(),
        }
    }

    /// Total events ever recorded (including ones the ring evicted).
    pub fn flight_total_recorded(&self) -> u64 {
        match self.inner.as_ref() {
            Some(inner) => lock(&inner.flight).total_recorded(),
            None => 0,
        }
    }

    /// Resizes the flight-recorder ring (default 256 events).
    pub fn set_flight_capacity(&self, cap: usize) {
        if let Some(inner) = self.inner.as_ref() {
            lock(&inner.flight).set_capacity(cap);
        }
    }

    /// The injected clock's current reading (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match self.inner.as_ref() {
            Some(inner) => inner.clock.now_ns(),
            None => 0,
        }
    }
}

struct SpanState {
    obs: Arc<ObsInner>,
    name: &'static str,
    start_ns: u64,
    work: u64,
    outcome: Outcome,
    notes: Vec<String>,
    /// Whether this span pushed a pending frame onto the trace stack.
    pushed: bool,
}

/// An open span; closes (and records) on drop.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Adds `n` work units (rows, hits, bytes — whatever the span
    /// measures).
    pub fn add_work(&mut self, n: u64) {
        if let Some(s) = self.state.as_mut() {
            s.work = s.work.saturating_add(n);
        }
    }

    /// Sets how the phase ended (defaults to [`Outcome::Ok`]).
    pub fn set_outcome(&mut self, outcome: Outcome) {
        if let Some(s) = self.state.as_mut() {
            s.outcome = outcome;
        }
    }

    /// Attaches a note. The closure runs only when the span is live,
    /// so disabled runs pay nothing for the formatting.
    pub fn note(&mut self, f: impl FnOnce() -> String) {
        if let Some(s) = self.state.as_mut() {
            s.notes.push(f());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else {
            return;
        };
        let end_ns = s.obs.clock.now_ns();
        let elapsed_ns = end_ns.saturating_sub(s.start_ns);
        s.obs.span_histogram(s.name).observe_ns(elapsed_ns);
        if s.outcome != Outcome::Ok {
            s.obs
                .registry
                .labeled_counter(
                    "obs_span_abnormal_total",
                    "Spans that ended degraded/rejected/deadline",
                    "span",
                    &format!("{}:{}", s.name, s.outcome),
                )
                .inc();
        }
        if s.pushed {
            let mut trace = lock(&s.obs.trace);
            if let Some(pending) = trace.stack.pop() {
                let mut notes = pending.notes;
                notes.extend(s.notes);
                let node = TraceNode {
                    name: s.name.to_owned(),
                    elapsed_ns,
                    work: s.work,
                    outcome: s.outcome,
                    notes,
                    children: pending.children,
                };
                match trace.stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => trace.roots.push(node),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Obs, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let shared = Arc::clone(&clock);
        struct Shared(Arc<ManualClock>);
        impl Clock for Shared {
            fn now_ns(&self) -> u64 {
                self.0.now_ns()
            }
        }
        (Obs::with_clock(Box::new(Shared(shared))), clock)
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        obs.begin_trace();
        let mut span = obs.span("query");
        span.add_work(5);
        drop(span);
        assert!(obs.take_trace().is_none());
        assert!(obs.slow_queries().is_empty());
    }

    #[test]
    fn nested_spans_assemble_a_tree() {
        let (obs, clock) = manual();
        obs.begin_trace();
        {
            let mut root = obs.span("query");
            root.add_work(10);
            {
                let mut child = obs.span("text");
                clock.advance_ns(400);
                child.add_work(7);
                child.set_outcome(Outcome::Degraded);
                child.note(|| "shards_failed=1".to_owned());
            }
            clock.advance_ns(100);
        }
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.name, "query");
        assert_eq!(trace.elapsed_ns, 500);
        assert_eq!(trace.work, 10);
        assert_eq!(trace.children.len(), 1);
        let child = &trace.children[0];
        assert_eq!(child.name, "text");
        assert_eq!(child.elapsed_ns, 400);
        assert_eq!(child.outcome, Outcome::Degraded);
        assert_eq!(child.notes, vec!["shards_failed=1".to_owned()]);
        assert!(trace.child_elapsed_ns() <= trace.elapsed_ns);
        let text = trace.render();
        assert!(text.contains("query [ok] elapsed=500ns work=10"), "{text}");
        assert!(
            text.contains("  text [degraded] elapsed=400ns work=7 (shards_failed=1)"),
            "{text}"
        );
    }

    #[test]
    fn record_child_and_annotate_attach_to_open_span() {
        let (obs, _clock) = manual();
        obs.begin_trace();
        {
            let _root = obs.span("query");
            obs.record_child("shard-0", 120, 4, Outcome::Ok);
            obs.record_child("shard-1", 90, 2, Outcome::Deadline);
            obs.annotate(|| "cache=miss".to_owned());
        }
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.children.len(), 2);
        assert_eq!(trace.children[1].outcome, Outcome::Deadline);
        assert_eq!(trace.notes, vec!["cache=miss".to_owned()]);
    }

    #[test]
    fn spans_outside_a_trace_still_feed_metrics() {
        let (obs, clock) = manual();
        {
            let _s = obs.span("text");
            clock.advance_ns(1_000);
        }
        assert!(obs.take_trace().is_none());
        let text = obs.registry().unwrap().render_text();
        assert!(text.contains("obs_span_seconds_count{span=\"text\"} 1"), "{text}");
    }

    #[test]
    fn slow_log_keeps_slowest_and_respects_capacity() {
        let (obs, _clock) = manual();
        obs.set_slow_threshold_ns(100);
        obs.set_slow_capacity(2);
        let node = |ns: u64| TraceNode {
            name: "query".to_owned(),
            elapsed_ns: ns,
            work: 0,
            outcome: Outcome::Ok,
            notes: Vec::new(),
            children: Vec::new(),
        };
        obs.offer_slow("fast", &node(50)); // below threshold: dropped
        obs.offer_slow("a", &node(200));
        obs.offer_slow("b", &node(400));
        obs.offer_slow("c", &node(300));
        let slow = obs.slow_queries();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].label, "b");
        assert_eq!(slow[1].label, "c");
    }

    #[test]
    fn slow_log_breaks_ties_by_arrival_order() {
        let (obs, _clock) = manual();
        obs.set_slow_threshold_ns(100);
        obs.set_slow_capacity(2);
        let node = |ns: u64| TraceNode {
            name: "query".to_owned(),
            elapsed_ns: ns,
            work: 0,
            outcome: Outcome::Ok,
            notes: Vec::new(),
            children: Vec::new(),
        };
        obs.offer_slow("first", &node(300));
        obs.offer_slow("second", &node(300));
        obs.offer_slow("third", &node(300));
        let slow = obs.slow_queries();
        assert_eq!(slow.len(), 2);
        // All equal: the earliest arrivals survive, in arrival order.
        assert_eq!(slow[0].label, "first");
        assert_eq!(slow[1].label, "second");
        assert!(slow[0].seq < slow[1].seq);
        // A genuinely slower trace still wins over the tie group.
        obs.offer_slow("slowest", &node(500));
        let slow = obs.slow_queries();
        assert_eq!(slow[0].label, "slowest");
        assert_eq!(slow[1].label, "first");
    }

    #[test]
    fn retained_slow_queries_leave_a_flight_event() {
        let (obs, _clock) = manual();
        obs.set_slow_threshold_ns(100);
        let node = |ns: u64| TraceNode {
            name: "query".to_owned(),
            elapsed_ns: ns,
            work: 0,
            outcome: Outcome::Ok,
            notes: Vec::new(),
            children: Vec::new(),
        };
        obs.offer_slow("fast", &node(50)); // below threshold: no event
        obs.offer_slow("slow", &node(250));
        let events = obs.flight_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "slow_query");
        assert!(events[0].detail.contains("slow"), "{}", events[0].detail);
        assert!(events[0].detail.contains("total_ns=250"), "{}", events[0].detail);
    }

    #[test]
    fn flight_recorder_is_bounded_and_inert_when_disabled() {
        let disabled = Obs::disabled();
        disabled.record_event("test", || unreachable!("closure must not run"));
        assert!(disabled.flight_events().is_empty());
        assert_eq!(disabled.now_ns(), 0);

        let (obs, clock) = manual();
        obs.set_flight_capacity(3);
        clock.advance_ns(5);
        for i in 0..5u32 {
            obs.record_event("admission", move || format!("step={i}"));
        }
        let events = obs.flight_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "step=2");
        assert_eq!(events[2].detail, "step=4");
        assert_eq!(events[2].seq, 5);
        assert_eq!(events[2].at_ns, 5);
        assert_eq!(obs.flight_total_recorded(), 5);
    }

    #[test]
    fn untraced_spans_skip_the_trace_stack_but_feed_metrics() {
        let (obs, clock) = manual();
        {
            let _s = obs.span("query");
            clock.advance_ns(42);
        }
        // No begin_trace: nothing pending, nothing collected.
        assert!(obs.take_trace().is_none());
        let text = obs.registry().unwrap().render_text();
        assert!(text.contains("obs_span_seconds_count{span=\"query\"} 1"), "{text}");
    }

    #[test]
    fn format_ns_is_stable() {
        assert_eq!(format_ns(0), "0ns");
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.500us");
        assert_eq!(format_ns(2_030_000), "2.030ms");
        assert_eq!(format_ns(3_004_000_000), "3.004s");
    }
}
