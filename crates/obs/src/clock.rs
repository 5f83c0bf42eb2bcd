//! Injectable time sources.
//!
//! Spans measure wall time through a [`Clock`] rather than touching
//! [`std::time::Instant`] directly, so the *same* instrumented code can
//! run in three modes:
//!
//! * [`MonotonicClock`] — production: real monotonic nanoseconds.
//! * [`NoopClock`] — zero-overhead mode: every reading is 0, every
//!   span records 0ns, and an instrumented run is byte-identical to an
//!   uninstrumented one (the byte-identity regression tests pin this).
//! * [`ManualClock`] — deterministic tests: time advances only when the
//!   test says so, making trace trees exactly reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin. Must be
    /// monotonically non-decreasing.
    fn now_ns(&self) -> u64;
}

/// Real wall time: nanoseconds since the clock was created.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The zero-overhead clock: always reads 0, so every span elapsed is 0
/// and deterministic outputs stay byte-identical.
#[derive(Debug, Default)]
pub struct NoopClock;

impl Clock for NoopClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A hand-cranked clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A clock starting at 0ns.
    pub fn new() -> Self {
        ManualClock {
            ns: AtomicU64::new(0),
        }
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute reading.
    pub fn set_ns(&self, ns: u64) {
        self.ns.store(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn noop_clock_is_frozen_at_zero() {
        let c = NoopClock;
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn manual_clock_moves_only_by_hand() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(40);
        assert_eq!(c.now_ns(), 40);
        c.set_ns(7);
        assert_eq!(c.now_ns(), 7);
    }
}
