//! Declarative SLOs evaluated as multi-window burn rates.
//!
//! Each [`SloSpec`] names an objective (a target good-fraction such as
//! 99.9% availability) and a signal — either an error-ratio over
//! counter families or a latency threshold over a histogram family.
//! On every tick the [`SloEngine`] computes the bad
//! fraction over a **fast** and a **slow** window from the
//! [`Recorder`]'s history, converts each to a *burn rate* (bad
//! fraction divided by the error budget `1 − objective`; burn 1.0
//! means exactly exhausting the budget), and derives a typed
//! [`AlertState`]: **Page** when *both* windows burn at or above
//! `page_burn` (the fast window reacts, the slow window confirms it
//! is not a blip), **Warn** analogously at `warn_burn`, else **Ok**.
//!
//! State changes are returned by [`SloEngine::evaluate`], counted
//! (`obs_slo_transitions_total{slo=…}`) and recorded in the flight
//! recorder under kind `"slo"`; states and burn rates are exported as
//! gauges (`obs_slo_state{slo=…}`, burn in permille).

use std::fmt;

use crate::span::Obs;
use crate::timeseries::Recorder;

/// Alert severity for one SLO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum AlertState {
    /// Burning within budget.
    #[default]
    Ok,
    /// Sustained burn above the warn threshold.
    Warn,
    /// Sustained burn above the page threshold — wake someone up.
    Page,
}

impl AlertState {
    /// Stable lower-case name for labels and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warn => "warn",
            AlertState::Page => "page",
        }
    }

    /// Numeric severity for gauge export (0, 1, 2).
    pub fn severity(self) -> i64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Warn => 1,
            AlertState::Page => 2,
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an SLO measures.
#[derive(Clone, Debug)]
pub enum SloSignal {
    /// Bad fraction = Σ delta(`bad`) / Σ delta(`total`) over the
    /// window. Series keys as rendered by the registry (including the
    /// `{label="…"}` suffix for labelled families).
    ErrorRatio {
        /// Counter series counting the bad events.
        bad: Vec<String>,
        /// Counter series counting all events.
        total: Vec<String>,
    },
    /// Bad fraction = share of windowed histogram observations above
    /// `threshold_seconds` (bucket-resolution: an observation counts
    /// as good when its bucket's upper bound is ≤ the threshold).
    LatencyAbove {
        /// Histogram series key.
        histogram: String,
        /// Latency objective boundary, in seconds.
        threshold_seconds: f64,
    },
}

/// One declarative service-level objective.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable identifier, used as the metric label.
    pub name: &'static str,
    /// Target good-fraction in `(0,1)`, e.g. `0.999`.
    pub objective: f64,
    /// The measured signal.
    pub signal: SloSignal,
    /// Fast (detection) window, in ticks.
    pub fast_window: usize,
    /// Slow (confirmation) window, in ticks.
    pub slow_window: usize,
    /// Burn rate at/above which both windows trigger a page.
    pub page_burn: f64,
    /// Burn rate at/above which both windows trigger a warning.
    pub warn_burn: f64,
}

/// The evaluated state of one SLO at the latest tick.
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    /// The spec's name.
    pub name: &'static str,
    /// Current alert state.
    pub state: AlertState,
    /// Burn rate over the fast window (0 when the window is silent).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
}

/// One recorded alert-state change.
#[derive(Clone, Debug, PartialEq)]
pub struct SloTransition {
    /// Monotonic transition counter across all SLOs.
    pub seq: u64,
    /// Recorder tick at which the transition happened.
    pub tick: u64,
    /// Which SLO changed.
    pub slo: &'static str,
    /// Previous state.
    pub from: AlertState,
    /// New state.
    pub to: AlertState,
    /// Fast-window burn at transition time.
    pub fast_burn: f64,
    /// Slow-window burn at transition time.
    pub slow_burn: f64,
}

/// Evaluates a set of SLOs against recorder history.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<AlertState>,
    statuses: Vec<SloStatus>,
    next_seq: u64,
}

impl SloEngine {
    /// An engine over the given specs, all starting at [`AlertState::Ok`].
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        let states = vec![AlertState::Ok; specs.len()];
        let statuses = specs
            .iter()
            .map(|s| SloStatus {
                name: s.name,
                state: AlertState::Ok,
                fast_burn: 0.0,
                slow_burn: 0.0,
            })
            .collect();
        SloEngine {
            specs,
            states,
            statuses,
            next_seq: 0,
        }
    }

    /// The statuses from the most recent [`SloEngine::evaluate`].
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.statuses.clone()
    }

    /// Evaluates every SLO against the recorder's current history,
    /// updates alert states, exports gauges/counters through `obs`'s
    /// registry, and records flight events for transitions. Returns
    /// the transitions that happened this tick.
    pub fn evaluate(&mut self, rec: &Recorder, obs: &Obs) -> Vec<SloTransition> {
        let tick = rec.current_tick();
        let mut fired = Vec::new();
        for i in 0..self.specs.len() {
            let spec = &self.specs[i];
            let budget = (1.0 - spec.objective).max(1e-9);
            let fast_burn = bad_fraction(rec, &spec.signal, spec.fast_window) / budget;
            let slow_burn = bad_fraction(rec, &spec.signal, spec.slow_window) / budget;
            let state = if fast_burn >= spec.page_burn && slow_burn >= spec.page_burn {
                AlertState::Page
            } else if fast_burn >= spec.warn_burn && slow_burn >= spec.warn_burn {
                AlertState::Warn
            } else {
                AlertState::Ok
            };
            let prev = self.states[i];
            if state != prev {
                self.next_seq += 1;
                let t = SloTransition {
                    seq: self.next_seq,
                    tick,
                    slo: spec.name,
                    from: prev,
                    to: state,
                    fast_burn,
                    slow_burn,
                };
                if let Some(reg) = obs.registry() {
                    reg.labeled_counter(
                        "obs_slo_transitions_total",
                        "SLO alert-state transitions",
                        "slo",
                        spec.name,
                    )
                    .inc();
                }
                obs.record_event("slo", || {
                    format!(
                        "{} {}->{} fast_burn={:.2} slow_burn={:.2} tick={}",
                        t.slo, t.from, t.to, t.fast_burn, t.slow_burn, t.tick
                    )
                });
                fired.push(t);
                self.states[i] = state;
            }
            if let Some(reg) = obs.registry() {
                reg.labeled_gauge(
                    "obs_slo_state",
                    "SLO alert state (0=ok 1=warn 2=page)",
                    "slo",
                    spec.name,
                )
                .set(state.severity());
                reg.labeled_gauge(
                    "obs_slo_burn_fast_permille",
                    "Fast-window burn rate, thousandths",
                    "slo",
                    spec.name,
                )
                .set(permille(fast_burn));
                reg.labeled_gauge(
                    "obs_slo_burn_slow_permille",
                    "Slow-window burn rate, thousandths",
                    "slo",
                    spec.name,
                )
                .set(permille(slow_burn));
            }
            self.statuses[i] = SloStatus {
                name: spec.name,
                state,
                fast_burn,
                slow_burn,
            };
        }
        fired
    }
}

/// Burn × 1000 as an integer gauge value, saturating.
fn permille(burn: f64) -> i64 {
    if !burn.is_finite() {
        return i64::MAX;
    }
    (burn * 1000.0).round().clamp(0.0, 9.0e18) as i64
}

/// The bad fraction of a signal over the window. Silent windows (no
/// traffic, no observations) report 0 — no evidence of burn.
fn bad_fraction(rec: &Recorder, signal: &SloSignal, window: usize) -> f64 {
    match signal {
        SloSignal::ErrorRatio { bad, total } => {
            let bad: Vec<&str> = bad.iter().map(String::as_str).collect();
            let total: Vec<&str> = total.iter().map(String::as_str).collect();
            rec.windowed_ratio(&bad, &total, window).unwrap_or(0.0)
        }
        SloSignal::LatencyAbove {
            histogram,
            threshold_seconds,
        } => {
            let Some(delta) = rec.histogram_delta(histogram, window) else {
                return 0.0;
            };
            let total: u64 = delta.buckets.iter().sum();
            if total == 0 {
                return 0.0;
            }
            let good: u64 = delta
                .buckets
                .iter()
                .take(delta.bounds.len())
                .zip(&delta.bounds)
                .filter(|(_, bound)| **bound <= *threshold_seconds + 1e-12)
                .map(|(count, _)| *count)
                .sum();
            (total - good) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn availability_spec() -> SloSpec {
        SloSpec {
            name: "availability",
            objective: 0.9,
            signal: SloSignal::ErrorRatio {
                bad: vec!["t_rejected_total".to_owned()],
                total: vec!["t_admitted_total".to_owned(), "t_rejected_total".to_owned()],
            },
            fast_window: 2,
            slow_window: 6,
            page_burn: 4.0,
            warn_burn: 1.5,
        }
    }

    fn push(reg: &Registry, rec: &mut Recorder, admitted: u64, rejected: u64, at_ns: u64) {
        reg.counter("t_admitted_total", "admitted").add(admitted);
        reg.counter("t_rejected_total", "rejected").add(rejected);
        rec.record(reg, at_ns);
    }

    #[test]
    fn healthy_traffic_stays_ok() {
        let reg = Registry::new();
        let mut rec = Recorder::new(16);
        let obs = Obs::with_clock(Box::new(crate::clock::NoopClock));
        let mut engine = SloEngine::new(vec![availability_spec()]);
        for i in 0..6 {
            push(&reg, &mut rec, 100, 1, i);
            let fired = engine.evaluate(&rec, &obs);
            assert!(fired.is_empty(), "tick {i}: {fired:?}");
        }
        let status = &engine.statuses()[0];
        assert_eq!(status.state, AlertState::Ok);
        assert!(status.fast_burn < 1.0, "{}", status.fast_burn);
    }

    #[test]
    fn sustained_errors_page_and_recovery_returns_to_ok() {
        let reg = Registry::new();
        let mut rec = Recorder::new(16);
        let obs = Obs::with_clock(Box::new(crate::clock::NoopClock));
        let mut engine = SloEngine::new(vec![availability_spec()]);
        // 100% rejections: bad fraction 1.0, burn 10× budget ⇒ Page
        // (both windows see only bad traffic from the start).
        push(&reg, &mut rec, 0, 50, 1);
        let fired = engine.evaluate(&rec, &obs);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].to, AlertState::Page);
        assert!(fired[0].fast_burn >= 4.0);
        // Flight recorder saw it.
        let events = obs.flight_events();
        assert!(events.iter().any(|e| e.kind == "slo" && e.detail.contains("ok->page")),
            "{events:?}");
        // Long healthy stretch: windows drain, state returns to Ok.
        let mut transitions = Vec::new();
        for i in 0..8 {
            push(&reg, &mut rec, 500, 0, 2 + i);
            transitions.extend(engine.evaluate(&rec, &obs));
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        assert_eq!(transitions.last().unwrap().to, AlertState::Ok);
        // Exported metric families reflect the final state.
        let text = obs.registry().unwrap().render_text();
        assert!(text.contains("obs_slo_state{slo=\"availability\"} 0"), "{text}");
        assert!(text.contains("obs_slo_transitions_total{slo=\"availability\"} 2"), "{text}");
    }

    #[test]
    fn slow_window_vetoes_a_short_blip() {
        let reg = Registry::new();
        let mut rec = Recorder::new(16);
        let obs = Obs::with_clock(Box::new(crate::clock::NoopClock));
        // Long healthy history first, so the slow window has context.
        let mut engine = SloEngine::new(vec![availability_spec()]);
        for i in 0..6 {
            push(&reg, &mut rec, 100, 0, i);
            engine.evaluate(&rec, &obs);
        }
        // One bad tick: fast window burns hot, slow window stays cool.
        push(&reg, &mut rec, 0, 150, 6);
        engine.evaluate(&rec, &obs);
        let status = &engine.statuses()[0];
        assert!(status.fast_burn >= 4.0, "{}", status.fast_burn);
        assert!(status.slow_burn < 4.0, "{}", status.slow_burn);
        assert_ne!(status.state, AlertState::Page);
    }

    #[test]
    fn latency_signal_counts_share_above_threshold() {
        let reg = Registry::new();
        let mut rec = Recorder::new(16);
        let obs = Obs::with_clock(Box::new(crate::clock::NoopClock));
        let spec = SloSpec {
            name: "latency",
            objective: 0.9,
            signal: SloSignal::LatencyAbove {
                histogram: "t_lat_seconds".to_owned(),
                threshold_seconds: 0.01,
            },
            fast_window: 2,
            slow_window: 4,
            page_burn: 4.0,
            warn_burn: 1.5,
        };
        let mut engine = SloEngine::new(vec![spec]);
        let bounds: &[f64] = &[0.001, 0.01, 0.1, 1.0];
        let h = reg.histogram("t_lat_seconds", "latency", bounds);
        // All observations slow: bad fraction 1.0 ⇒ burn 10 ⇒ Page.
        for _ in 0..20 {
            h.observe(0.05);
        }
        rec.record(&reg, 1);
        let fired = engine.evaluate(&rec, &obs);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].to, AlertState::Page);
        // All observations fast: recovers.
        for i in 0..6 {
            for _ in 0..50 {
                h.observe(0.0005);
            }
            rec.record(&reg, 2 + i);
            engine.evaluate(&rec, &obs);
        }
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
    }

    #[test]
    fn silent_windows_do_not_burn() {
        let reg = Registry::new();
        let mut rec = Recorder::new(16);
        let obs = Obs::with_clock(Box::new(crate::clock::NoopClock));
        let mut engine = SloEngine::new(vec![availability_spec()]);
        rec.record(&reg, 1); // no traffic at all
        let fired = engine.evaluate(&rec, &obs);
        assert!(fired.is_empty());
        let status = &engine.statuses()[0];
        assert_eq!(status.state, AlertState::Ok);
        assert_eq!(status.fast_burn, 0.0);
    }

    #[test]
    fn permille_saturates() {
        assert_eq!(permille(0.0), 0);
        assert_eq!(permille(1.5), 1500);
        assert_eq!(permille(f64::INFINITY), i64::MAX);
        assert_eq!(permille(f64::NAN), i64::MAX);
    }
}
