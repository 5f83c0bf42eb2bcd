//! History: a ring-buffer recorder that samples the shared
//! [`Registry`] on a tick and serves **windowed** aggregates.
//!
//! A metrics scrape answers "what is the counter now"; operations
//! questions are about *windows* — "what was the p99 over the last 8
//! ticks", "what fraction of queries were rejected in the last
//! minute". The [`Recorder`] keeps the last `capacity` full
//! [`MetricsSnapshot`]s and reconstructs windowed deltas from them:
//! counter deltas (reset-aware, so a restarted process never produces
//! a negative rate), delta rates per second, and windowed quantiles
//! rebuilt from histogram-bucket deltas.
//!
//! The recorder is driven by the caller's loop (the engine's operator
//! tick); it holds no background thread and costs
//! nothing unless [`Recorder::record`] is called.

use std::collections::VecDeque;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Registry};

/// One recorded sample: the whole registry at one tick.
#[derive(Clone, Debug)]
pub struct TickSample {
    /// Monotonic tick number (1-based; survives ring eviction).
    pub tick: u64,
    /// Clock reading when the sample was taken.
    pub at_ns: u64,
    /// Every counter, gauge, and histogram at that instant.
    pub metrics: MetricsSnapshot,
}

/// Ring-buffer recorder over registry snapshots.
#[derive(Debug)]
pub struct Recorder {
    capacity: usize,
    tick: u64,
    evicted: bool,
    samples: VecDeque<TickSample>,
}

impl Recorder {
    /// A recorder retaining the last `capacity` ticks.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            capacity: capacity.max(1),
            tick: 0,
            evicted: false,
            samples: VecDeque::new(),
        }
    }

    /// Samples the registry. Counts itself in
    /// `obs_timeseries_ticks_total` (before snapshotting, so the
    /// sample always contains its own tick). Returns the tick number.
    pub fn record(&mut self, registry: &Registry, at_ns: u64) -> u64 {
        registry
            .counter("obs_timeseries_ticks_total", "History recorder ticks taken")
            .inc();
        self.tick += 1;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted = true;
        }
        self.samples.push_back(TickSample {
            tick: self.tick,
            at_ns,
            metrics: registry.snapshot(),
        });
        self.tick
    }

    /// The current tick number (0 before the first [`Recorder::record`]).
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// The baseline sample for a `window`-tick lookback, or `None`
    /// when the window reaches past the start of (unevicted) history —
    /// in which case deltas fall back to an implicit all-zero baseline
    /// ("since process start").
    fn baseline_sample(&self, window: usize) -> Option<&TickSample> {
        let len = self.samples.len();
        if len == 0 {
            return None;
        }
        if window < len {
            self.samples.get(len - 1 - window)
        } else if self.evicted {
            // History was trimmed: clamp to the oldest retained sample.
            self.samples.front()
        } else {
            // Everything since start is retained: the true baseline is
            // the zero state before the first sample.
            None
        }
    }

    /// Counter increase over the last `window` ticks. Reset-aware: if
    /// the current value is below the baseline (process restart), the
    /// delta is the current value itself, never negative.
    pub fn counter_delta(&self, key: &str, window: usize) -> u64 {
        let Some(newest) = self.samples.back() else {
            return 0;
        };
        let cur = newest.metrics.counters.get(key).copied().unwrap_or(0);
        let base = self
            .baseline_sample(window)
            .and_then(|s| s.metrics.counters.get(key).copied())
            .unwrap_or(0);
        if cur < base {
            cur
        } else {
            cur - base
        }
    }

    /// Histogram delta over the last `window` ticks: per-bucket count
    /// increases, with the same bounds as the live histogram. Detects
    /// counter resets (current total count below baseline) and falls
    /// back to the zero baseline. `None` when the series is absent.
    pub fn histogram_delta(&self, key: &str, window: usize) -> Option<HistogramSnapshot> {
        let newest = self.samples.back()?;
        let cur = newest.metrics.histograms.get(key)?;
        let base = self
            .baseline_sample(window)
            .and_then(|s| s.metrics.histograms.get(key))
            // Reset or bucket-layout change: ignore the baseline.
            .filter(|b| b.count <= cur.count && b.buckets.len() == cur.buckets.len());
        let buckets = match base {
            Some(b) => cur
                .buckets
                .iter()
                .zip(&b.buckets)
                .map(|(c, b)| c.saturating_sub(*b))
                .collect(),
            None => cur.buckets.clone(),
        };
        Some(HistogramSnapshot {
            bounds: cur.bounds.clone(),
            buckets,
            sum: (cur.sum - base.map_or(0.0, |b| b.sum)).max(0.0),
            count: cur.count - base.map_or(0, |b| b.count),
        })
    }

    /// Windowed quantile (`q` in `[0,1]`) reconstructed from histogram
    /// bucket deltas, Prometheus-style: find the bucket holding the
    /// rank-`⌈q·n⌉` observation and interpolate linearly inside it.
    /// Observations in the overflow (+Inf) bucket report the highest
    /// finite bound. `None` when the window holds no observations.
    pub fn windowed_quantile(&self, key: &str, q: f64, window: usize) -> Option<f64> {
        let delta = self.histogram_delta(key, window)?;
        let total: u64 = delta.buckets.iter().sum();
        if total == 0 || delta.bounds.is_empty() {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut before = 0u64;
        for (i, &in_bucket) in delta.buckets.iter().enumerate() {
            if in_bucket > 0 && before + in_bucket >= rank {
                if i >= delta.bounds.len() {
                    // +Inf bucket: no finite upper edge to interpolate to.
                    return delta.bounds.last().copied();
                }
                let lower = if i == 0 { 0.0 } else { delta.bounds[i - 1] };
                let upper = delta.bounds[i];
                let frac = (rank - before) as f64 / in_bucket as f64;
                return Some(lower + (upper - lower) * frac);
            }
            before += in_bucket;
        }
        None
    }

    /// Ratio of summed `bad` counter deltas to summed `total` counter
    /// deltas over the window. `None` when the denominator delta is
    /// zero (no traffic in the window — no evidence either way).
    pub fn windowed_ratio(&self, bad: &[&str], total: &[&str], window: usize) -> Option<f64> {
        let bad_sum: u64 = bad.iter().map(|k| self.counter_delta(k, window)).sum();
        let total_sum: u64 = total.iter().map(|k| self.counter_delta(k, window)).sum();
        if total_sum == 0 {
            None
        } else {
            Some(bad_sum as f64 / total_sum as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[0.001, 0.01, 0.1, 1.0];

    fn registry_with(counter: u64, observations: &[f64]) -> Registry {
        let reg = Registry::new();
        let c = reg.counter("t_events_total", "test events");
        c.add(counter);
        let h = reg.histogram("t_lat_seconds", "test latency", BOUNDS);
        for &v in observations {
            h.observe(v);
        }
        reg
    }

    #[test]
    fn counter_delta_uses_implicit_zero_baseline_before_history_fills() {
        let mut rec = Recorder::new(8);
        rec.record(&registry_with(5, &[]), 1);
        // Window larger than history, nothing evicted: delta since start.
        assert_eq!(rec.counter_delta("t_events_total", 4), 5);
        assert_eq!(rec.counter_delta("missing_total", 4), 0);
    }

    #[test]
    fn counter_delta_windows_and_clamps_to_oldest_after_eviction() {
        let mut rec = Recorder::new(2);
        rec.record(&registry_with(10, &[]), 1);
        rec.record(&registry_with(25, &[]), 2);
        rec.record(&registry_with(40, &[]), 3); // evicts the first
        assert_eq!(rec.samples.len(), 2);
        assert_eq!(rec.counter_delta("t_events_total", 1), 15);
        // Window 5 reaches past trimmed history: clamps to oldest (25).
        assert_eq!(rec.counter_delta("t_events_total", 5), 15);
    }

    #[test]
    fn counter_reset_yields_current_value_not_negative() {
        let mut rec = Recorder::new(8);
        rec.record(&registry_with(100, &[]), 1);
        rec.record(&registry_with(7, &[]), 2); // "restart": counter fell
        assert_eq!(rec.counter_delta("t_events_total", 1), 7);
    }

    #[test]
    fn histogram_delta_isolates_the_window() {
        let reg = registry_with(0, &[0.0005, 0.05]);
        let mut rec = Recorder::new(8);
        rec.record(&reg, 1);
        reg.histogram("t_lat_seconds", "", BOUNDS).observe(0.5);
        rec.record(&reg, 2);
        let delta = rec.histogram_delta("t_lat_seconds", 1).unwrap();
        // Only the 0.5s observation landed inside the window.
        assert_eq!(delta.count, 1);
        assert_eq!(delta.buckets, vec![0, 0, 0, 1, 0]);
        assert!((delta.sum - 0.5).abs() < 1e-6, "{}", delta.sum);
    }

    #[test]
    fn histogram_delta_detects_counter_reset() {
        let mut rec = Recorder::new(8);
        rec.record(&registry_with(0, &[0.05, 0.05, 0.05]), 1);
        // New registry = restarted process: fewer total observations.
        rec.record(&registry_with(0, &[0.5]), 2);
        let delta = rec.histogram_delta("t_lat_seconds", 1).unwrap();
        assert_eq!(delta.count, 1);
        assert_eq!(delta.buckets, vec![0, 0, 0, 1, 0]);
    }

    #[test]
    fn windowed_quantile_interpolates_within_the_bucket() {
        let reg = registry_with(0, &[]);
        let mut rec = Recorder::new(8);
        rec.record(&reg, 1);
        let h = reg.histogram("t_lat_seconds", "", BOUNDS);
        // 90 fast (≤1ms), 10 slow (≤100ms) → p99 lands in the 3rd bucket.
        for _ in 0..90 {
            h.observe(0.0005);
        }
        for _ in 0..10 {
            h.observe(0.05);
        }
        rec.record(&reg, 2);
        let p99 = rec.windowed_quantile("t_lat_seconds", 0.99, 1).unwrap();
        // rank 99 is the 9th of 10 observations in (0.01, 0.1]:
        // 0.01 + 0.09 * 9/10 = 0.091.
        assert!((p99 - 0.091).abs() < 1e-9, "{p99}");
        let p50 = rec.windowed_quantile("t_lat_seconds", 0.50, 1).unwrap();
        assert!(p50 <= 0.001, "{p50}");
    }

    #[test]
    fn windowed_quantile_empty_window_is_none() {
        let reg = registry_with(0, &[0.05]);
        let mut rec = Recorder::new(8);
        rec.record(&reg, 1);
        rec.record(&reg, 2); // nothing new between the two ticks
        assert!(rec.windowed_quantile("t_lat_seconds", 0.99, 1).is_none());
        assert!(rec.windowed_quantile("absent_seconds", 0.99, 1).is_none());
    }

    #[test]
    fn windowed_quantile_overflow_bucket_reports_highest_finite_bound() {
        let reg = registry_with(0, &[]);
        let mut rec = Recorder::new(8);
        rec.record(&reg, 1);
        reg.histogram("t_lat_seconds", "", BOUNDS).observe(50.0); // beyond 1.0
        rec.record(&reg, 2);
        let p99 = rec.windowed_quantile("t_lat_seconds", 0.99, 1).unwrap();
        assert!((p99 - 1.0).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn windowed_ratio_is_none_without_traffic() {
        let mut rec = Recorder::new(8);
        let reg = Registry::new();
        reg.counter("t_bad_total", "").add(0);
        reg.counter("t_all_total", "").add(0);
        rec.record(&reg, 1);
        assert!(rec.windowed_ratio(&["t_bad_total"], &["t_all_total"], 1).is_none());
        reg.counter("t_bad_total", "").add(1);
        reg.counter("t_all_total", "").add(4);
        rec.record(&reg, 2);
        let ratio = rec.windowed_ratio(&["t_bad_total"], &["t_all_total"], 1).unwrap();
        assert!((ratio - 0.25).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn recorder_counts_its_own_ticks() {
        let reg = Registry::new();
        let mut rec = Recorder::new(4);
        rec.record(&reg, 1);
        let tick = rec.record(&reg, 2);
        assert_eq!(tick, 2);
        assert_eq!(rec.current_tick(), 2);
        let latest = rec.samples.back().unwrap();
        assert_eq!(
            latest.metrics.counters.get("obs_timeseries_ticks_total"),
            Some(&2)
        );
    }
}
