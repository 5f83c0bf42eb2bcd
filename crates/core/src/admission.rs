//! Admission control and the brownout degradation ladder.
//!
//! A digital library front-end faces open-loop load: crawl bursts,
//! result-page fan-out, batch analytics — all hitting the same query
//! path. Left unbounded, every queueing layer grows until latency is
//! unbounded and the process dies of memory, which helps nobody. The
//! admission layer bounds the system instead:
//!
//! * an [`AdmissionGate`] holds a fixed number of execution slots and a
//!   bounded wait queue; when both are full the query is *rejected* with
//!   a typed [`Error::Overloaded`] carrying a retry-after hint, never
//!   silently queued,
//! * every query class carries a [`Priority`] — `Interactive` requests
//!   (a person is waiting) outrank `Batch` work (a crawler can wait),
//! * an [`OverloadLevel`] ladder — Healthy → Pressured → Brownout →
//!   Shedding — is recomputed from the gate's queue depth and recent
//!   service latency on every admission event. Higher rungs trade
//!   answer *quality* for *liveness*: Brownout truncates rankings and
//!   skips media refinement (stamping the answer DEGRADED with an
//!   honest quality estimate), Shedding stops admitting batch work
//!   entirely,
//! * the [`QueryService`] ties the pieces together for concurrent
//!   callers: admit, read the ladder, run the query at the appropriate
//!   degradation level under the caller's [`Budget`].
//!
//! Every level transition is logged with its trigger occupancy and kept
//! in a bounded ring, queryable via [`QueryService::status`] so
//! operators can reconstruct what the ladder did during an incident.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use faults::Budget;

use crate::engine::{Engine, QueryOptions, TextQueryStatus};
use crate::error::{Error, Result};
use crate::maintenance::MaintenanceJob;
use crate::query::{EngineHit, EngineQuery};

/// Priority class of a query at the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// A person is waiting on the answer. Served at every ladder rung
    /// (degraded when the ladder says so), rejected only when the gate
    /// itself is full.
    Interactive,
    /// Background work — crawl refresh, analytics, prefetch. First to
    /// be shed: rejected outright once the ladder reaches
    /// [`OverloadLevel::Shedding`].
    Batch,
}

/// The degradation ladder, in escalation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadLevel {
    /// Nominal: full-fidelity answers.
    #[default]
    Healthy,
    /// Queueing has started: answers still full-fidelity, but served
    /// from the answer cache whenever the epoch check allows it.
    Pressured,
    /// Quality is traded for throughput: rankings truncated, media
    /// refinement skipped, answers stamped DEGRADED with quality < 1.
    Brownout,
    /// Survival mode: batch work is rejected at the gate; interactive
    /// queries still get Brownout-grade answers.
    Shedding,
}

impl OverloadLevel {
    /// The next rung up (saturating at [`OverloadLevel::Shedding`]).
    pub fn escalate(self) -> OverloadLevel {
        match self {
            OverloadLevel::Healthy => OverloadLevel::Pressured,
            OverloadLevel::Pressured => OverloadLevel::Brownout,
            OverloadLevel::Brownout | OverloadLevel::Shedding => OverloadLevel::Shedding,
        }
    }
}

/// Tuning of the [`AdmissionGate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queries executing at once; further admissions wait in the queue.
    pub max_concurrent: usize,
    /// Wait-queue capacity. Arrivals beyond it are rejected with
    /// [`Error::Overloaded`] — the hard bound that keeps the process
    /// live under any arrival rate.
    pub max_queue: usize,
    /// How long an admitted query may wait for a slot before the gate
    /// gives up and rejects it (bounds worst-case queueing latency).
    pub queue_timeout: Duration,
    /// Queue depth at which the ladder leaves Healthy.
    pub pressured_queue: usize,
    /// Queue depth at which the ladder reaches Brownout.
    pub brownout_queue: usize,
    /// Recent-latency median above this escalates the ladder one rung
    /// (only once `latency_window` samples exist, so cold starts and
    /// zero-load runs judge by queue depth alone).
    pub latency_target: Duration,
    /// Completed-query latencies kept for the median.
    pub latency_window: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: 4,
            max_queue: 16,
            queue_timeout: Duration::from_secs(2),
            pressured_queue: 2,
            brownout_queue: 6,
            latency_target: Duration::from_millis(250),
            latency_window: 16,
        }
    }
}

/// One ladder movement, with the occupancy that triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTransition {
    /// Monotonic transition counter (survives ring eviction).
    pub seq: u64,
    /// Rung before.
    pub from: OverloadLevel,
    /// Rung after.
    pub to: OverloadLevel,
    /// Queue depth at the transition.
    pub queued: usize,
    /// Executing queries at the transition.
    pub running: usize,
}

/// A queryable snapshot of the gate: the current rung, occupancy,
/// lifetime counters and the recent transition log.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadStatus {
    /// Current ladder rung.
    pub level: OverloadLevel,
    /// Queries executing right now.
    pub running: usize,
    /// Queries waiting for a slot right now.
    pub queued: usize,
    /// Lifetime admissions.
    pub admitted: u64,
    /// Lifetime rejections (queue full, shedding, or wait timeout).
    pub rejected: u64,
    /// The subset of rejections that waited out `queue_timeout`.
    pub timed_out: u64,
    /// Lifetime completed queries (permits released).
    pub completed: u64,
    /// Recent ladder movements, oldest first (bounded ring).
    pub transitions: Vec<LevelTransition>,
}

/// How long background work waits out a Brownout before asking for a
/// permit anyway (`2000 × 1ms`).
const MAX_BROWNOUT_PAUSES: usize = 2000;
const BROWNOUT_PAUSE: Duration = Duration::from_millis(1);

/// Background admission retries after a typed `Overloaded` rejection
/// before the job reports itself as starved.
const MAX_ADMIT_RETRIES: usize = 50;
const MAX_RETRY_SLEEP: Duration = Duration::from_millis(10);

/// Transition-log ring capacity.
const TRANSITION_LOG: usize = 256;

/// Gate metric handles, registered by [`AdmissionGate::set_obs`].
struct GateMetrics {
    admitted: obs::Counter,
    rejected: obs::Counter,
    timed_out: obs::Counter,
    shed: obs::Counter,
    completed: obs::Counter,
    wait_seconds: obs::Histogram,
    level: obs::Gauge,
    running: obs::Gauge,
    queued: obs::Gauge,
}

impl GateMetrics {
    fn register(reg: &obs::Registry) -> GateMetrics {
        GateMetrics {
            admitted: reg.counter("admission_admitted_total", "Queries granted a slot"),
            rejected: reg.counter(
                "admission_rejected_total",
                "Queries turned away (queue full, shedding, or wait timeout)",
            ),
            timed_out: reg.counter(
                "admission_timed_out_total",
                "Rejections that first waited out the queue timeout",
            ),
            shed: reg.counter(
                "admission_shed_total",
                "Batch queries rejected because the ladder was shedding",
            ),
            completed: reg.counter("admission_completed_total", "Permits released"),
            wait_seconds: reg.histogram(
                "admission_wait_seconds",
                "Time from arrival at the gate to a granted slot",
                obs::DEFAULT_TIME_BUCKETS,
            ),
            level: reg.gauge(
                "admission_level",
                "Ladder rung (0=healthy, 1=pressured, 2=brownout, 3=shedding)",
            ),
            running: reg.gauge("admission_running", "Queries executing right now"),
            queued: reg.gauge("admission_queued", "Queries waiting for a slot right now"),
        }
    }
}

fn level_ordinal(level: OverloadLevel) -> i64 {
    match level {
        OverloadLevel::Healthy => 0,
        OverloadLevel::Pressured => 1,
        OverloadLevel::Brownout => 2,
        OverloadLevel::Shedding => 3,
    }
}

struct GateState {
    config: AdmissionConfig,
    /// Observability handle plus pre-registered metric handles; both
    /// disabled/absent until [`AdmissionGate::set_obs`].
    obs: obs::Obs,
    metrics: Option<GateMetrics>,
    running: usize,
    queued: usize,
    level: OverloadLevel,
    /// Completed-query latencies, oldest first, capped at
    /// `config.latency_window`.
    latencies: VecDeque<Duration>,
    admitted: u64,
    rejected: u64,
    timed_out: u64,
    completed: u64,
    transitions: VecDeque<LevelTransition>,
    transition_seq: u64,
}

/// The bounded admission gate. Shared (`Arc`) between the engine, the
/// [`QueryService`] and every outstanding [`Permit`].
pub struct AdmissionGate {
    state: Mutex<GateState>,
    slot_free: Condvar,
}

impl AdmissionGate {
    /// A gate with `config` tuning, all slots free, ladder Healthy.
    pub fn new(config: AdmissionConfig) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            state: Mutex::new(GateState {
                config,
                obs: obs::Obs::disabled(),
                metrics: None,
                running: 0,
                queued: 0,
                level: OverloadLevel::Healthy,
                latencies: VecDeque::new(),
                admitted: 0,
                rejected: 0,
                timed_out: 0,
                completed: 0,
                transitions: VecDeque::new(),
                transition_seq: 0,
            }),
            slot_free: Condvar::new(),
        })
    }

    /// Connects the gate to an observability handle: admissions,
    /// rejections and wait times record into `admission_*` metrics,
    /// and each admission runs under an `admission.wait` span.
    pub fn set_obs(&self, o: &obs::Obs) {
        let mut state = self.lock();
        state.obs = o.clone();
        state.metrics = o.registry().map(GateMetrics::register);
        if let Some(m) = &state.metrics {
            m.level.set(level_ordinal(state.level));
            m.running.set(state.running as i64);
            m.queued.set(state.queued as i64);
        }
    }

    /// Locks the gate state, absorbing poisoning: a panic inside a
    /// query holding a permit must not take the whole gate down with
    /// it — overload resilience includes surviving our own bugs.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Recomputes the ladder rung from the locked state and logs the
    /// transition if it moved.
    fn retune(&self, state: &mut GateState) {
        let next = level_for(state);
        if let Some(m) = &state.metrics {
            m.level.set(level_ordinal(next));
            m.running.set(state.running as i64);
            m.queued.set(state.queued as i64);
        }
        if next != state.level {
            state.transition_seq += 1;
            if state.transitions.len() == TRANSITION_LOG {
                state.transitions.pop_front();
            }
            state.transitions.push_back(LevelTransition {
                seq: state.transition_seq,
                from: state.level,
                to: next,
                queued: state.queued,
                running: state.running,
            });
            let (queued, running) = (state.queued, state.running);
            let from = state.level;
            state.obs.record_event("admission", || {
                format!("ladder {from:?}->{next:?} queued={queued} running={running}")
            });
            state.level = next;
        }
    }

    /// Asks for an execution slot. Returns a [`Permit`] bound to this
    /// gate — dropping it releases the slot and feeds the query's
    /// latency into the ladder — or a typed [`Error::Overloaded`] when
    /// the queue is full, the ladder is shedding this priority class,
    /// or the wait exceeds `queue_timeout`. Never queues unboundedly.
    pub fn admit(self: &Arc<Self>, priority: Priority) -> Result<Permit> {
        let mut state = self.lock();
        let mut sp = state.obs.span("admission.wait");
        let arrived = state.metrics.as_ref().map(|_| Instant::now());
        if state.level == OverloadLevel::Shedding && priority == Priority::Batch {
            state.rejected += 1;
            if let Some(m) = &state.metrics {
                m.rejected.inc();
                m.shed.inc();
            }
            sp.set_outcome(obs::Outcome::Rejected);
            let hint = retry_hint(&state);
            return Err(Error::Overloaded {
                retry_after_hint: hint,
            });
        }
        if state.running < state.config.max_concurrent {
            // Free slot: no queueing, no ladder blip.
            state.running += 1;
            state.admitted += 1;
            if let Some(m) = &state.metrics {
                m.admitted.inc();
                if let Some(arrived) = arrived {
                    m.wait_seconds.observe_ns(arrived.elapsed().as_nanos() as u64);
                }
            }
            self.retune(&mut state);
            return Ok(Permit {
                gate: Arc::clone(self),
                started: Instant::now(),
            });
        }
        if state.queued >= state.config.max_queue {
            state.rejected += 1;
            if let Some(m) = &state.metrics {
                m.rejected.inc();
            }
            sp.set_outcome(obs::Outcome::Rejected);
            let hint = retry_hint(&state);
            return Err(Error::Overloaded {
                retry_after_hint: hint,
            });
        }
        state.queued += 1;
        self.retune(&mut state);
        let give_up = Instant::now() + state.config.queue_timeout;
        while state.running >= state.config.max_concurrent {
            let now = Instant::now();
            if now >= give_up {
                state.queued -= 1;
                state.timed_out += 1;
                state.rejected += 1;
                if let Some(m) = &state.metrics {
                    m.rejected.inc();
                    m.timed_out.inc();
                }
                sp.set_outcome(obs::Outcome::Rejected);
                let hint = retry_hint(&state);
                self.retune(&mut state);
                return Err(Error::Overloaded {
                    retry_after_hint: hint,
                });
            }
            state = self
                .slot_free
                .wait_timeout(state, give_up - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        state.queued -= 1;
        state.running += 1;
        state.admitted += 1;
        if let Some(m) = &state.metrics {
            m.admitted.inc();
            if let Some(arrived) = arrived {
                m.wait_seconds.observe_ns(arrived.elapsed().as_nanos() as u64);
            }
        }
        self.retune(&mut state);
        Ok(Permit {
            gate: Arc::clone(self),
            started: Instant::now(),
        })
    }

    /// One `Batch`-class admission with the discipline all background
    /// work follows (maintenance chunks, control-plane actions): first
    /// wait out any Brownout-or-worse rung — background work pauses
    /// while interactive traffic is distressed rather than compete —
    /// then take a permit, retrying a bounded number of times on a
    /// typed `Overloaded` rejection.
    pub(crate) fn admit_background(self: &Arc<Self>) -> Result<Permit> {
        let mut pauses = 0;
        while self.level() >= OverloadLevel::Brownout && pauses < MAX_BROWNOUT_PAUSES {
            std::thread::sleep(BROWNOUT_PAUSE);
            pauses += 1;
        }
        let mut attempts = 0;
        loop {
            match self.admit(Priority::Batch) {
                Err(Error::Overloaded { retry_after_hint }) if attempts < MAX_ADMIT_RETRIES => {
                    attempts += 1;
                    std::thread::sleep(retry_after_hint.min(MAX_RETRY_SLEEP));
                }
                outcome => return outcome,
            }
        }
    }

    /// The current ladder rung.
    pub fn level(&self) -> OverloadLevel {
        self.lock().level
    }

    /// Snapshot of the gate for operators and tests.
    pub fn status(&self) -> OverloadStatus {
        let state = self.lock();
        OverloadStatus {
            level: state.level,
            running: state.running,
            queued: state.queued,
            admitted: state.admitted,
            rejected: state.rejected,
            timed_out: state.timed_out,
            completed: state.completed,
            transitions: state.transitions.iter().cloned().collect(),
        }
    }

    /// Swaps the tuning in place (occupancy, counters and the
    /// transition log survive; the ladder is recomputed immediately).
    pub fn reconfigure(&self, config: AdmissionConfig) {
        let mut state = self.lock();
        state.config = config;
        while state.latencies.len() > state.config.latency_window {
            state.latencies.pop_front();
        }
        self.retune(&mut state);
        drop(state);
        // A raised max_concurrent may unblock waiters right now.
        self.slot_free.notify_all();
    }
}

/// Ladder rung for the current occupancy: queue depth sets the base
/// rung; a full latency window with a median past target escalates one
/// rung — but only while load exists, so an idle gate always reads
/// Healthy regardless of what the last storm's latencies looked like.
fn level_for(state: &GateState) -> OverloadLevel {
    let c = &state.config;
    let mut level = if state.queued == 0 {
        OverloadLevel::Healthy
    } else if state.queued >= c.max_queue {
        OverloadLevel::Shedding
    } else if state.queued >= c.brownout_queue {
        OverloadLevel::Brownout
    } else if state.queued >= c.pressured_queue {
        OverloadLevel::Pressured
    } else {
        OverloadLevel::Healthy
    };
    if state.running + state.queued > 0
        && c.latency_window > 0
        && state.latencies.len() >= c.latency_window
    {
        if let Some(p50) = median(&state.latencies) {
            if p50 > c.latency_target {
                level = level.escalate();
            }
        }
    }
    level
}

/// Median of the latency window (`None` when empty).
fn median(window: &VecDeque<Duration>) -> Option<Duration> {
    if window.is_empty() {
        return None;
    }
    let mut sorted: Vec<Duration> = window.iter().copied().collect();
    sorted.sort();
    Some(sorted[sorted.len() / 2])
}

/// Estimated wait until a slot frees: the average recent service time,
/// multiplied by how many service waves stand between the caller and a
/// slot. With no latency history yet, a small fixed hint.
fn retry_hint(state: &GateState) -> Duration {
    let per_query = if state.latencies.is_empty() {
        Duration::from_millis(10)
    } else {
        let total: Duration = state.latencies.iter().sum();
        total / state.latencies.len() as u32
    };
    let ahead = state.queued + state.running;
    let waves = ahead / state.config.max_concurrent.max(1) + 1;
    per_query
        .saturating_mul(waves as u32)
        .max(Duration::from_millis(1))
}

/// Proof of admission: holds one of the gate's execution slots.
/// Dropping it releases the slot, records the query's service latency
/// in the ladder's window and wakes one waiter.
pub struct Permit {
    gate: Arc<AdmissionGate>,
    started: Instant,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("held_for", &self.started.elapsed())
            .finish()
    }
}

impl Permit {
    /// Time since this permit was granted.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let latency = self.started.elapsed();
        let mut state = self.gate.lock();
        state.running = state.running.saturating_sub(1);
        state.completed += 1;
        if let Some(m) = &state.metrics {
            m.completed.inc();
        }
        if state.config.latency_window > 0 {
            if state.latencies.len() >= state.config.latency_window {
                state.latencies.pop_front();
            }
            state.latencies.push_back(latency);
        }
        self.gate.retune(&mut state);
        drop(state);
        self.gate.slot_free.notify_one();
    }
}

/// One query answer with its honesty metadata: the hits, the ladder
/// rung they were computed at, an estimated quality in `(0, 1]`,
/// human-readable notes for every fidelity cut that was taken, and how
/// the text retrieval behind it went.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The (possibly truncated) answer.
    pub hits: Vec<EngineHit>,
    /// Estimated answer quality: 1.0 for a full-fidelity answer,
    /// lowered by ranking truncation, skipped media refinement and
    /// failed text servers.
    pub quality: f64,
    /// Ladder rung the answer was computed at.
    pub level: OverloadLevel,
    /// One note per fidelity cut (empty for full-fidelity answers).
    pub degraded: Vec<String>,
    /// Shard status of the ranked text retrieval behind the answer;
    /// `None` for a query without a text part.
    pub text: Option<TextQueryStatus>,
    /// The measured phase tree (wall time, work units, outcome,
    /// per-shard children) when [`QueryOptions::trace`] asked for it;
    /// `None` otherwise and when observability is disabled.
    pub trace: Option<obs::TraceNode>,
}

impl QueryOutcome {
    /// Renders the trace as an EXPLAIN ANALYZE-style report.
    pub fn explain_analyze(&self) -> String {
        match &self.trace {
            Some(t) => format!("EXPLAIN ANALYZE\n{}", t.render()),
            None => "EXPLAIN ANALYZE\n(no trace collected: not requested, or observability disabled)\n"
                .to_owned(),
        }
    }
}

/// The concurrent front door: a shared engine behind an admission
/// gate. Clone-free sharing is by reference (`&QueryService` is `Sync`);
/// the closed-loop load harness drives one instance from many threads.
pub struct QueryService {
    engine: Mutex<Engine>,
    gate: Arc<AdmissionGate>,
}

impl QueryService {
    /// Wraps an engine, sharing its admission gate.
    pub fn new(engine: Engine) -> QueryService {
        let gate = engine.admission_gate();
        QueryService {
            engine: Mutex::new(engine),
            gate,
        }
    }

    /// Wraps an engine after retuning its gate.
    pub fn with_config(engine: Engine, config: AdmissionConfig) -> QueryService {
        engine.admission_gate().reconfigure(config);
        Self::new(engine)
    }

    /// The shared admission gate.
    pub fn gate(&self) -> &Arc<AdmissionGate> {
        &self.gate
    }

    /// Snapshot of the gate (rung, occupancy, counters, transitions).
    pub fn status(&self) -> OverloadStatus {
        self.gate.status()
    }

    /// Locked access to the engine for setup (populate, persistence).
    /// A poisoned lock is absorbed: the engine's query path does not
    /// leave partial state behind on panic-free error paths, and
    /// staying live beats propagating a poison after a bug.
    pub fn engine(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The full overload-resilient query path: admission (typed
    /// rejection when saturated), ladder read, then execution at the
    /// rung's fidelity under the caller's budget. The permit is held
    /// for the whole execution, so its drop feeds true service latency
    /// into the ladder.
    pub fn query(
        &self,
        q: &EngineQuery,
        priority: Priority,
        budget: &Budget,
    ) -> Result<QueryOutcome> {
        let permit = self.gate.admit(priority)?;
        let opts = QueryOptions {
            budget: Some(budget),
            level: self.gate.level(),
            trace: false,
        };
        let outcome = self.engine().execute(q, &opts);
        drop(permit);
        outcome
    }

    /// Upgrades a detector as a *background* maintenance job: the
    /// engine lock is taken only twice, briefly — once to begin (pin
    /// the epoch, snapshot the trees, install the new implementation)
    /// and once to cut over (or roll back). The expensive re-parsing
    /// in between runs off-lock, admitted through the gate in the
    /// `Batch` class, while interactive queries keep serving exact
    /// answers against the pinned epoch.
    pub fn upgrade_detector_online(
        &self,
        detector: &str,
        level: acoi::RevisionLevel,
        new_impl: acoi::DetectorFn,
    ) -> Result<acoi::MaintenanceReport> {
        let job = self.engine().begin_upgrade(detector, level, new_impl)?;
        self.run_maintenance(job)
    }

    /// Heals a detector's rejected-with-cause backlog as a background
    /// maintenance job — same two-brief-locks protocol as
    /// [`QueryService::upgrade_detector_online`].
    pub fn heal_detector_online(&self, detector: &str) -> Result<acoi::MaintenanceReport> {
        let job = self.engine().begin_heal(detector)?;
        self.run_maintenance(job)
    }

    /// Runs a begun job off-lock, then cuts over — or rolls back and
    /// hands on the run's error.
    fn run_maintenance(&self, mut job: MaintenanceJob) -> Result<acoi::MaintenanceReport> {
        match job.run() {
            Ok(()) => self.engine().commit_maintenance(job),
            Err(e) => {
                self.engine().abort_maintenance(job)?;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn tiny_config() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: 1,
            max_queue: 2,
            queue_timeout: Duration::from_millis(50),
            pressured_queue: 1,
            brownout_queue: 2,
            latency_target: Duration::from_millis(5),
            latency_window: 4,
        }
    }

    #[test]
    fn idle_gate_is_healthy_and_admits() {
        let gate = AdmissionGate::new(AdmissionConfig::default());
        assert_eq!(gate.level(), OverloadLevel::Healthy);
        let permit = gate.admit(Priority::Interactive).unwrap();
        let status = gate.status();
        assert_eq!(status.running, 1);
        assert_eq!(status.queued, 0);
        assert_eq!(status.admitted, 1);
        drop(permit);
        let status = gate.status();
        assert_eq!(status.running, 0);
        assert_eq!(status.completed, 1);
        assert_eq!(status.level, OverloadLevel::Healthy);
        assert!(status.transitions.is_empty());
    }

    #[test]
    fn full_queue_rejects_with_a_retry_hint() {
        let gate = AdmissionGate::new(AdmissionConfig {
            max_queue: 0,
            ..tiny_config()
        });
        let _held = gate.admit(Priority::Interactive).unwrap();
        // Slot taken, queue capacity zero: the next arrival must be
        // turned away immediately, not parked.
        let before = Instant::now();
        let err = gate.admit(Priority::Interactive).unwrap_err();
        assert!(before.elapsed() < Duration::from_millis(40));
        match err {
            Error::Overloaded { retry_after_hint } => {
                assert!(retry_after_hint >= Duration::from_millis(1));
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(gate.status().rejected, 1);
    }

    #[test]
    fn queue_timeout_bounds_the_wait() {
        let gate = AdmissionGate::new(tiny_config());
        let _held = gate.admit(Priority::Interactive).unwrap();
        let start = Instant::now();
        let err = gate.admit(Priority::Interactive).unwrap_err();
        let waited = start.elapsed();
        assert!(matches!(err, Error::Overloaded { .. }), "got {err}");
        assert!(waited >= Duration::from_millis(50), "gave up too early: {waited:?}");
        assert!(waited < Duration::from_secs(2), "wait not bounded: {waited:?}");
        let status = gate.status();
        assert_eq!(status.timed_out, 1);
        assert_eq!(status.queued, 0, "timed-out waiter still counted as queued");
    }

    #[test]
    fn ladder_climbs_with_queue_depth_and_logs_transitions() {
        let gate = AdmissionGate::new(AdmissionConfig {
            max_concurrent: 1,
            max_queue: 4,
            queue_timeout: Duration::from_millis(400),
            pressured_queue: 1,
            brownout_queue: 2,
            ..AdmissionConfig::default()
        });
        let held = gate.admit(Priority::Interactive).unwrap();
        // Two waiters queue up behind the held slot; queue depth 1 then
        // 2 walks the ladder Healthy → Pressured → Brownout.
        let mut waiters = Vec::new();
        for _ in 0..2 {
            let worker_gate = Arc::clone(&gate);
            waiters.push(thread::spawn(move || {
                worker_gate.admit(Priority::Interactive).map(drop).is_ok()
            }));
            let deadline = Instant::now() + Duration::from_secs(2);
            while gate.status().transitions.is_empty() && Instant::now() < deadline {
                thread::yield_now();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while gate.status().queued < 2 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(gate.level(), OverloadLevel::Brownout);
        drop(held);
        for w in waiters {
            assert!(w.join().unwrap(), "waiter should be admitted once the slot frees");
        }
        let status = gate.status();
        assert_eq!(status.level, OverloadLevel::Healthy, "idle gate must settle Healthy");
        let seen: Vec<(OverloadLevel, OverloadLevel)> =
            status.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert!(
            seen.contains(&(OverloadLevel::Healthy, OverloadLevel::Pressured)),
            "missing Healthy→Pressured in {seen:?}"
        );
        assert!(
            seen.iter().any(|(_, to)| *to == OverloadLevel::Brownout),
            "missing →Brownout in {seen:?}"
        );
        // Seqs are strictly increasing.
        for pair in status.transitions.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn shedding_rejects_batch_but_serves_interactive() {
        let gate = AdmissionGate::new(AdmissionConfig {
            max_concurrent: 1,
            max_queue: 1,
            queue_timeout: Duration::from_millis(400),
            pressured_queue: 1,
            brownout_queue: 1,
            ..AdmissionConfig::default()
        });
        let held = gate.admit(Priority::Interactive).unwrap();
        // One waiter fills the queue: depth 1 == max_queue → Shedding.
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.admit(Priority::Interactive).map(drop).is_ok())
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while gate.status().queued < 1 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(gate.level(), OverloadLevel::Shedding);
        // Batch is shed (queue-full also rejects, but the point is the
        // rejection is immediate and typed either way).
        let err = Arc::clone(&gate).admit(Priority::Batch).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }), "got {err}");
        drop(held);
        assert!(waiter.join().unwrap());
        // Ladder recovers; interactive is admitted again.
        assert_eq!(gate.level(), OverloadLevel::Healthy);
        drop(gate.admit(Priority::Interactive).unwrap());
    }

    #[test]
    fn slow_medians_escalate_one_rung_under_load() {
        let gate = AdmissionGate::new(AdmissionConfig {
            max_concurrent: 2,
            latency_window: 2,
            latency_target: Duration::from_millis(1),
            ..AdmissionConfig::default()
        });
        // Fill the latency window with slow completions.
        for _ in 0..2 {
            let permit = gate.admit(Priority::Interactive).unwrap();
            thread::sleep(Duration::from_millis(3));
            drop(permit);
        }
        // Idle: slow history alone must not leave Healthy.
        assert_eq!(gate.level(), OverloadLevel::Healthy);
        // Under load the same history escalates Healthy → Pressured.
        let _held = gate.admit(Priority::Interactive).unwrap();
        assert_eq!(gate.level(), OverloadLevel::Pressured);
    }

    #[test]
    fn reconfigure_wakes_waiters() {
        let gate = AdmissionGate::new(AdmissionConfig {
            max_concurrent: 1,
            max_queue: 4,
            queue_timeout: Duration::from_secs(5),
            ..AdmissionConfig::default()
        });
        let _held = gate.admit(Priority::Interactive).unwrap();
        let admitted = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let gate = Arc::clone(&gate);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let permit = gate.admit(Priority::Interactive);
                if permit.is_ok() {
                    admitted.fetch_add(1, Ordering::SeqCst);
                }
                drop(permit);
            })
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while gate.status().queued < 1 && Instant::now() < deadline {
            thread::yield_now();
        }
        gate.reconfigure(AdmissionConfig {
            max_concurrent: 2,
            ..AdmissionConfig::default()
        });
        waiter.join().unwrap();
        assert_eq!(admitted.load(Ordering::SeqCst), 1);
    }
}
