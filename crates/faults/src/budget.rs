//! End-to-end query budgets: wall-clock deadline, work allowance and
//! cooperative cancellation in one `Sync` token.
//!
//! A [`Budget`] is created at the edge of the system (the admission
//! gate) and threaded as `&Budget` through every layer a query
//! touches — conceptual joins, distributed text scatter-gather,
//! path-expression scans, parse-tree reconstruction. Each layer calls
//! [`Budget::consume`] at loop granularity (one unit per row, shard,
//! node, candidate) and bails out with the typed [`BudgetExceeded`]
//! it receives, so a query can never run past its deadline by more
//! than one loop iteration anywhere in the stack.
//!
//! Budgets live in this crate for the same reason [`crate::FaultPlan`]
//! does: `faults` is the one leaf crate every storage and query layer
//! already shares, so the token can cross crate boundaries without new
//! dependency edges.
//!
//! Three independent limits, each optional:
//!
//! * **deadline** — a wall-clock instant; checked against
//!   `Instant::now()`.
//! * **work** — an abstract operation allowance, decremented by
//!   [`Budget::consume`]. Deterministic: a query cancelled at work
//!   unit *k* is cancelled at the same point on every run, which is
//!   what the budget-expiry property test sweeps.
//! * **cancellation** — an externally flipped flag ([`Budget::cancel`])
//!   for callers that change their mind (client disconnect, shed).
//!
//! [`Budget::unlimited`] has none of the three: every check is a
//! cheap always-`Ok` fast path, so fully threading budgets through the
//! query stack costs nothing when no limit is set.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Why a budget check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work allowance ran out.
    Work,
    /// The caller cancelled the query.
    Cancelled,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "deadline exceeded"),
            BudgetExceeded::Work => write!(f, "work budget exhausted"),
            BudgetExceeded::Cancelled => write!(f, "cancelled by caller"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// A shareable deadline + work budget + cancellation token.
///
/// `&Budget` is `Sync`: the text tier's shard threads consume from the
/// same budget concurrently.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    /// Remaining work units; negative once exhausted. `None` = no
    /// work limit.
    work: Option<AtomicI64>,
    cancelled: AtomicBool,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits: every check passes, forever.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            work: None,
            cancelled: AtomicBool::new(false),
        }
    }

    /// A budget that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Budget::unlimited()
        }
    }

    /// A budget allowing `units` work consumptions before expiring.
    pub fn with_work(units: u64) -> Self {
        Budget {
            work: Some(AtomicI64::new(i64::try_from(units).unwrap_or(i64::MAX))),
            ..Budget::unlimited()
        }
    }

    /// True when no limit of any kind is set (the production default).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.work.is_none() && !self.cancelled.load(Ordering::Relaxed)
    }

    /// Flips the cancellation flag; every subsequent check fails with
    /// [`BudgetExceeded::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Checks the budget without consuming work: cancellation first,
    /// then the deadline, then whether the work allowance is already
    /// negative.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(BudgetExceeded::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::Deadline);
            }
        }
        if let Some(work) = &self.work {
            if work.load(Ordering::Relaxed) < 0 {
                return Err(BudgetExceeded::Work);
            }
        }
        Ok(())
    }

    /// Consumes `units` of work and checks every limit. The loop body
    /// that already ran is paid for: consuming the last unit succeeds,
    /// the next consumption fails.
    pub fn consume(&self, units: u64) -> Result<(), BudgetExceeded> {
        if let Some(work) = &self.work {
            let units = i64::try_from(units).unwrap_or(i64::MAX);
            if work.fetch_sub(units, Ordering::Relaxed) < units {
                return Err(BudgetExceeded::Work);
            }
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(BudgetExceeded::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }

    /// Wall-clock time left, if a deadline is set. Zero once past it.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            b.check().unwrap();
            b.consume(10).unwrap();
        }
        assert_eq!(b.remaining_time(), None);
    }

    #[test]
    fn work_budget_expires_after_exactly_n_units() {
        let b = Budget::with_work(3);
        assert!(!b.is_unlimited());
        b.consume(1).unwrap();
        b.consume(1).unwrap();
        b.consume(1).unwrap();
        assert_eq!(b.consume(1), Err(BudgetExceeded::Work));
        assert_eq!(b.check(), Err(BudgetExceeded::Work));
    }

    #[test]
    fn zero_work_budget_fails_the_first_consumption() {
        let b = Budget::with_work(0);
        b.check().unwrap();
        assert_eq!(b.consume(1), Err(BudgetExceeded::Work));
    }

    #[test]
    fn deadline_budget_expires() {
        let b = Budget::with_deadline(Duration::from_millis(5));
        b.check().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(b.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(b.consume(1), Err(BudgetExceeded::Deadline));
        assert_eq!(b.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_wins_immediately() {
        let b = Budget {
            deadline: Some(Instant::now() + Duration::from_secs(60)),
            ..Budget::with_work(1000)
        };
        b.check().unwrap();
        b.cancel();
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn remaining_time_counts_down() {
        let b = Budget::with_deadline(Duration::from_secs(60));
        let left = b.remaining_time().unwrap();
        assert!(left <= Duration::from_secs(60));
        assert!(left > Duration::from_secs(59));
    }

    #[test]
    fn budgets_are_shareable_across_threads() {
        let b = Budget::with_work(100);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _ = b.consume(10);
                });
            }
        });
        // 4 × 10 of 100 units spent: exactly 60 remain.
        b.consume(60).unwrap();
        assert_eq!(b.consume(1), Err(BudgetExceeded::Work));
    }
}
