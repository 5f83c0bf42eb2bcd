//! `obs` — the unified observability layer.
//!
//! Every subsystem of the engine (conceptual joins, distributed text
//! scatter-gather, physical path scans, detector supervision, WAL
//! flushes, admission control) answers the same two questions through
//! this crate: *where does the time go* and *where do the failures go*.
//!
//! * **Metrics** — a [`Registry`] of lock-cheap counters, gauges and
//!   fixed-bucket histograms addressed by static keys. Handles are
//!   `Arc`'d atomics: recording an event is one atomic op, no lock, no
//!   allocation. Prometheus-style text exposition via
//!   [`Registry::render_text`], a JSON dump via
//!   [`Registry::render_json`].
//! * **Spans** — [`Obs::span`] opens a structured span recording wall
//!   time (through an injectable [`Clock`], so a [`NoopClock`] makes
//!   instrumented runs byte-identical to uninstrumented ones), work
//!   units and an [`Outcome`]. While a trace is collecting
//!   ([`Obs::begin_trace`]), properly nested spans assemble into a
//!   [`TraceNode`] tree — the engine's EXPLAIN-ANALYZE output.
//! * **Slow-query log** — a bounded ring keeping the slowest N traces
//!   over a threshold ([`Obs::offer_slow`] / [`Obs::slow_queries`]).
//! * **History** — [`timeseries::Recorder`] samples the
//!   registry on a tick into a bounded ring and serves windowed
//!   aggregates: reset-aware counter deltas, rates, and p50/p99
//!   reconstructed from histogram-bucket deltas.
//! * **SLOs** — [`slo::SloEngine`] evaluates declarative objectives
//!   with fast/slow multi-window burn rates into typed
//!   Ok→Warn→Page [`AlertState`] transitions, exported as metrics.
//! * **Flight recorder** — a bounded [`FlightEvent`] ring fed from the
//!   system's choke points ([`Obs::record_event`]), snapshotted into
//!   incident reports when an SLO pages or the gate starts shedding.
//!
//! The whole crate is infallible by construction: a disabled [`Obs`] is
//! a `None` behind one pointer, every recording call on it is a no-op,
//! and nothing in here ever panics on the serving path.

#![warn(missing_docs)]

mod clock;
mod flight;
mod metrics;
pub mod report;
pub mod slo;
mod span;
pub mod timeseries;

pub use clock::{Clock, ManualClock, MonotonicClock, NoopClock};
pub use flight::FlightEvent;
pub use metrics::{
    Counter, FamilyMeta, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
    DEFAULT_TIME_BUCKETS, WORK_BUCKETS,
};
pub use slo::{AlertState, SloEngine, SloSignal, SloSpec, SloStatus, SloTransition};
pub use span::{Obs, Outcome, SlowEntry, Span, TraceNode};
pub use timeseries::{Recorder, TickSample};
