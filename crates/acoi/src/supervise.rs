//! Supervised detector execution: deadlines, retries, circuit breakers.
//!
//! External detectors "may even run on a different machine", which means
//! they hang, crash and drop connections. A [`Supervisor`] wraps any
//! [`DetectorFn`] so that the FDE only ever sees one of two clean
//! outcomes — tokens, or a typed [`DetectorError`]:
//!
//! * **deadline** — the wrapped call runs on a dedicated worker thread;
//!   the caller waits with `recv_timeout` and gives up after the
//!   configured deadline. A hung call keeps its worker busy but never
//!   blocks a parse; stale answers are discarded by sequence number.
//! * **retries** — [`DetectorError::Unavailable`] outcomes are retried
//!   with exponential backoff plus deterministic jitter; a
//!   [`DetectorError::Reject`] is a verdict, never retried.
//! * **circuit breaker** — after `breaker_threshold` consecutive
//!   unavailable outcomes the breaker opens and calls fail fast without
//!   touching the worker; after `breaker_probe_after` short-circuited
//!   calls one half-open probe is let through, closing the breaker on
//!   success and re-opening it on failure.
//!
//! Breaker state is shared: the FDS asks [`Supervisor::broken`] which
//! detectors to re-parse at low priority once they recover.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use feagram::FeatureValue;

use crate::detector::{DetectorError, DetectorFn};
use crate::token::Token;

/// Tuning knobs for supervised execution.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-attempt deadline; a call that has not answered by then is
    /// reported unavailable.
    pub deadline: Duration,
    /// Extra attempts after the first (so `max_retries = 2` means at
    /// most three attempts per call).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base * 2^n` plus jitter…
    pub backoff_base: Duration,
    /// …capped at this.
    pub backoff_cap: Duration,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Consecutive unavailable outcomes that open the breaker.
    pub breaker_threshold: u32,
    /// Calls short-circuited while open before a half-open probe.
    pub breaker_probe_after: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: Duration::from_millis(250),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            jitter_seed: 0,
            breaker_threshold: 3,
            breaker_probe_after: 2,
        }
    }
}

/// Where a detector's circuit breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Failing fast: calls are rejected without running the detector.
    Open,
    /// One probe call is allowed through to test recovery.
    HalfOpen,
}

/// A point-in-time health snapshot of one supervised detector,
/// returned by [`Supervisor::detector_health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorHealth {
    /// Detector name (as passed to [`Supervisor::wrap`]).
    pub name: String,
    /// Where the circuit breaker stands.
    pub breaker: BreakerState,
    /// Consecutive failed calls since the last success.
    pub consecutive_failures: u32,
    /// Cause of the most recent exhausted failure, if any.
    pub last_error: Option<String>,
    /// Call counters.
    pub stats: SupervisorStats,
}

/// Per-detector counters, readable via [`Supervisor::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Attempts dispatched to the worker (first tries and retries).
    pub attempts: u64,
    /// Retries among those attempts.
    pub retries: u64,
    /// Attempts abandoned at the deadline.
    pub timeouts: u64,
    /// Closed→Open transitions.
    pub breaker_opens: u64,
    /// Calls rejected without an attempt because the breaker was open.
    pub short_circuits: u64,
}

struct DetectorState {
    breaker: BreakerState,
    consecutive_failures: u32,
    open_rejections: u32,
    /// Whether the half-open probe slot is taken. Exactly one caller
    /// may test a recovering detector; everyone else fails fast until
    /// the probe reports back.
    probe_in_flight: bool,
    stats: SupervisorStats,
    /// The cause of the most recent exhausted (retries included) failed
    /// call; cleared when the detector answers again.
    last_error: Option<String>,
}

impl DetectorState {
    fn new() -> Self {
        DetectorState {
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            open_rejections: 0,
            probe_in_flight: false,
            stats: SupervisorStats::default(),
            last_error: None,
        }
    }
}

struct Inner {
    config: SupervisorConfig,
    detectors: Mutex<HashMap<String, DetectorState>>,
    /// Process-wide backoff-jitter draw counter: every backoff sleep
    /// takes the next index of the seeded jitter stream, so concurrent
    /// retries at the same attempt number sleep different amounts.
    jitter_draws: AtomicU64,
    /// Observability handle; breaker transitions and call accounting
    /// feed `acoi_*` metrics when enabled.
    obs: Mutex<obs::Obs>,
}

/// Wraps detectors with deadlines, retries and a circuit breaker.
///
/// Cloning is cheap and shares all breaker state, so the engine can keep
/// one handle for registration and another for health inspection.
#[derive(Clone)]
pub struct Supervisor {
    inner: Arc<Inner>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic, de-correlated backoff jitter within `[0, span/2]`.
///
/// The stream is seeded (replayable for a given `jitter_seed`) but
/// indexed by a process-wide `draw` counter as well as the attempt
/// number: two callers retrying the *same* recovering detector at the
/// *same* attempt draw different indices, so their sleeps diverge
/// instead of stampeding the detector in lockstep.
fn backoff_jitter(seed: u64, name: &str, attempt: u32, draw: u64, span: Duration) -> Duration {
    let word = splitmix(
        seed ^ name_hash(name)
            ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)
            ^ draw.wrapping_mul(0x85EB_CA6B_27D4_EB4F),
    );
    Duration::from_nanos(word % (span.as_nanos().max(1) as u64 / 2 + 1))
}

type Outcome = std::result::Result<Vec<Token>, DetectorError>;

/// The worker owns the wrapped detector; requests and responses are
/// sequence-tagged so an answer that arrives after its deadline (the
/// worker was hung) is recognised as stale and discarded.
struct Worker {
    req_tx: Sender<(u64, Vec<FeatureValue>)>,
    resp_rx: Receiver<(u64, Outcome)>,
    next_seq: u64,
}

impl Worker {
    fn spawn(name: String, inner: DetectorFn) -> Self {
        let (req_tx, req_rx) = unbounded::<(u64, Vec<FeatureValue>)>();
        let (resp_tx, resp_rx) = unbounded::<(u64, Outcome)>();
        std::thread::Builder::new()
            .name(format!("detector-{name}"))
            .spawn(move || {
                while let Ok((seq, inputs)) = req_rx.recv() {
                    let outcome = catch_unwind(AssertUnwindSafe(|| inner(&inputs)))
                        .unwrap_or_else(|_| {
                            Err(DetectorError::Unavailable("detector panicked".into()))
                        });
                    if resp_tx.send((seq, outcome)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn detector worker");
        Worker {
            req_tx,
            resp_rx,
            next_seq: 0,
        }
    }

    /// One attempt: dispatch and wait out the deadline.
    fn attempt(&mut self, inputs: &[FeatureValue], deadline: Duration) -> Outcome {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.req_tx.send((seq, inputs.to_vec())).is_err() {
            return Err(DetectorError::Unavailable("detector worker died".into()));
        }
        let give_up = Instant::now() + deadline;
        loop {
            let remaining = give_up.saturating_duration_since(Instant::now());
            match self.resp_rx.recv_timeout(remaining) {
                Ok((got, outcome)) if got == seq => return outcome,
                Ok(_) => continue, // stale answer from a timed-out attempt
                Err(RecvTimeoutError::Timeout) => {
                    return Err(DetectorError::Unavailable(format!(
                        "deadline of {deadline:?} exceeded"
                    )));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DetectorError::Unavailable("detector worker died".into()));
                }
            }
        }
    }
}

impl Supervisor {
    /// A supervisor with the given configuration.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            inner: Arc::new(Inner {
                config,
                detectors: Mutex::new(HashMap::new()),
                jitter_draws: AtomicU64::new(0),
                obs: Mutex::new(obs::Obs::disabled()),
            }),
        }
    }

    /// Connects the supervisor to an observability handle: breaker
    /// transitions drive the labelled `acoi_breaker_state` /
    /// `acoi_breaker_consecutive_failures` gauges and call accounting
    /// feeds the `acoi_detector_*` counters. Already-known detectors
    /// publish their current state immediately.
    pub fn set_obs(&self, o: &obs::Obs) {
        *self.inner.obs.lock().expect("supervisor poisoned") = o.clone();
        let snapshot: Vec<(String, BreakerState, u32)> = self
            .inner
            .detectors
            .lock()
            .expect("supervisor poisoned")
            .iter()
            .map(|(n, s)| (n.clone(), s.breaker, s.consecutive_failures))
            .collect();
        for (name, breaker, failures) in snapshot {
            self.publish_breaker(&name, breaker, failures);
        }
    }

    fn obs_handle(&self) -> obs::Obs {
        self.inner.obs.lock().expect("supervisor poisoned").clone()
    }

    fn inc_counter(&self, metric: &'static str, help: &'static str, det: &str) {
        let o = self.obs_handle();
        if let Some(reg) = o.registry() {
            reg.labeled_counter(metric, help, "detector", det).inc();
        }
    }

    fn publish_breaker(&self, det: &str, breaker: BreakerState, failures: u32) {
        let o = self.obs_handle();
        if let Some(reg) = o.registry() {
            reg.labeled_gauge(
                "acoi_breaker_state",
                "Circuit-breaker state per detector (0=closed, 1=half-open, 2=open)",
                "detector",
                det,
            )
            .set(match breaker {
                BreakerState::Closed => 0,
                BreakerState::HalfOpen => 1,
                BreakerState::Open => 2,
            });
            reg.labeled_gauge(
                "acoi_breaker_consecutive_failures",
                "Consecutive failed calls per detector",
                "detector",
                det,
            )
            .set(i64::from(failures));
        }
    }

    /// A typed health snapshot of every supervised detector, sorted by
    /// name: breaker state, consecutive failures, last error, counters.
    pub fn detector_health(&self) -> Vec<DetectorHealth> {
        let mut health: Vec<DetectorHealth> = self
            .inner
            .detectors
            .lock()
            .expect("supervisor poisoned")
            .iter()
            .map(|(name, s)| DetectorHealth {
                name: name.clone(),
                breaker: s.breaker,
                consecutive_failures: s.consecutive_failures,
                last_error: s.last_error.clone(),
                stats: s.stats,
            })
            .collect();
        health.sort_by(|a, b| a.name.cmp(&b.name));
        health
    }

    /// Wraps `detector` so every call runs under a deadline with retries
    /// and the shared circuit breaker for `name`.
    pub fn wrap(&self, name: impl Into<String>, detector: DetectorFn) -> DetectorFn {
        let name = name.into();
        let sup = self.clone();
        {
            let mut detectors = sup.inner.detectors.lock().expect("supervisor poisoned");
            detectors.entry(name.clone()).or_insert_with(DetectorState::new);
        }
        self.publish_breaker(&name, BreakerState::Closed, 0);
        // The wrapped closure must be `Fn + Sync` (a maintenance job runs
        // the shared registry off the engine lock), so the worker handle
        // lives behind a mutex.
        // Calls to one remote detector are serialized through its single
        // worker thread anyway, so the lock adds no extra contention.
        let worker = Mutex::new(Worker::spawn(name.clone(), detector));
        Box::new(move |inputs| {
            let mut worker = worker.lock().expect("detector worker poisoned");
            sup.call(&name, &mut worker, inputs)
        })
    }

    fn call(&self, name: &str, worker: &mut Worker, inputs: &[FeatureValue]) -> Outcome {
        let config = &self.inner.config;

        // Breaker gate.
        {
            let mut detectors = self.inner.detectors.lock().expect("supervisor poisoned");
            let state = detectors
                .entry(name.to_owned())
                .or_insert_with(DetectorState::new);
            match state.breaker {
                BreakerState::Closed => {}
                BreakerState::HalfOpen => {
                    // The probe slot is single-occupancy: concurrent
                    // callers fail fast instead of piling onto a
                    // detector that is barely back on its feet.
                    if state.probe_in_flight {
                        state.stats.short_circuits += 1;
                        self.inc_counter(
                            "acoi_detector_short_circuits_total",
                            "Calls rejected without an attempt (breaker open or probe busy)",
                            name,
                        );
                        return Err(DetectorError::Unavailable(format!(
                            "half-open probe already in flight for `{name}`"
                        )));
                    }
                    state.probe_in_flight = true;
                }
                BreakerState::Open => {
                    if state.open_rejections < config.breaker_probe_after {
                        state.open_rejections += 1;
                        state.stats.short_circuits += 1;
                        self.inc_counter(
                            "acoi_detector_short_circuits_total",
                            "Calls rejected without an attempt (breaker open or probe busy)",
                            name,
                        );
                        return Err(DetectorError::Unavailable(format!(
                            "circuit breaker open for `{name}`"
                        )));
                    }
                    state.breaker = BreakerState::HalfOpen;
                    state.probe_in_flight = true;
                }
            }
        }

        // Attempt loop: only `Unavailable` is retried.
        let mut last: Option<DetectorError> = None;
        for attempt in 0..=config.max_retries {
            if attempt > 0 {
                let exp = config
                    .backoff_base
                    .saturating_mul(1u32 << (attempt - 1).min(16));
                let capped = exp.min(config.backoff_cap);
                let draw = self.inner.jitter_draws.fetch_add(1, Ordering::Relaxed);
                let jitter = backoff_jitter(config.jitter_seed, name, attempt, draw, capped);
                std::thread::sleep(capped + jitter);
            }
            {
                let mut detectors = self.inner.detectors.lock().expect("supervisor poisoned");
                let state = detectors.get_mut(name).expect("registered in wrap");
                state.stats.attempts += 1;
                if attempt > 0 {
                    state.stats.retries += 1;
                }
            }
            self.inc_counter(
                "acoi_detector_attempts_total",
                "Attempts dispatched to detector workers (first tries and retries)",
                name,
            );
            if attempt > 0 {
                self.inc_counter(
                    "acoi_detector_retries_total",
                    "Retries among dispatched attempts",
                    name,
                );
            }
            match worker.attempt(inputs, config.deadline) {
                Err(DetectorError::Unavailable(cause)) => {
                    let timed_out = cause.starts_with("deadline");
                    {
                        let mut detectors =
                            self.inner.detectors.lock().expect("supervisor poisoned");
                        let state = detectors.get_mut(name).expect("registered in wrap");
                        if timed_out {
                            state.stats.timeouts += 1;
                        }
                    }
                    if timed_out {
                        self.inc_counter(
                            "acoi_detector_timeouts_total",
                            "Attempts abandoned at the per-attempt deadline",
                            name,
                        );
                    }
                    last = Some(DetectorError::Unavailable(cause));
                }
                outcome => {
                    // Tokens or a Reject: the detector answered, so the
                    // breaker closes either way.
                    self.record_success(name);
                    return outcome;
                }
            }
        }
        let err = last.unwrap_or_else(|| DetectorError::Unavailable("unreachable".into()));
        let cause = match &err {
            DetectorError::Unavailable(c) | DetectorError::Reject(c) => c.clone(),
        };
        self.record_failure(name, cause);
        Err(err)
    }

    fn record_success(&self, name: &str) {
        {
            let mut detectors = self.inner.detectors.lock().expect("supervisor poisoned");
            let state = detectors.get_mut(name).expect("registered in wrap");
            state.breaker = BreakerState::Closed;
            state.consecutive_failures = 0;
            state.open_rejections = 0;
            state.probe_in_flight = false;
            state.last_error = None;
        }
        self.publish_breaker(name, BreakerState::Closed, 0);
    }

    fn record_failure(&self, name: &str, cause: String) {
        let (breaker, failures, opened) = {
            let mut detectors = self.inner.detectors.lock().expect("supervisor poisoned");
            let state = detectors.get_mut(name).expect("registered in wrap");
            state.probe_in_flight = false;
            state.last_error = Some(cause);
            let mut opened = false;
            match state.breaker {
                BreakerState::HalfOpen => {
                    state.breaker = BreakerState::Open;
                    state.open_rejections = 0;
                    state.stats.breaker_opens += 1;
                    opened = true;
                }
                BreakerState::Closed => {
                    state.consecutive_failures += 1;
                    if state.consecutive_failures >= self.inner.config.breaker_threshold {
                        state.breaker = BreakerState::Open;
                        state.open_rejections = 0;
                        state.stats.breaker_opens += 1;
                        opened = true;
                    }
                }
                BreakerState::Open => {}
            }
            (state.breaker, state.consecutive_failures, opened)
        };
        if opened {
            self.inc_counter(
                "acoi_breaker_opens_total",
                "Closed/half-open to open breaker transitions",
                name,
            );
        }
        self.publish_breaker(name, breaker, failures);
    }

    /// The breaker state for `name` (None if never wrapped).
    pub fn state(&self, name: &str) -> Option<BreakerState> {
        self.inner
            .detectors
            .lock()
            .expect("supervisor poisoned")
            .get(name)
            .map(|s| s.breaker)
    }

    /// Counters for `name`.
    pub fn stats(&self, name: &str) -> SupervisorStats {
        self.inner
            .detectors
            .lock()
            .expect("supervisor poisoned")
            .get(name)
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// Detectors whose breaker is currently not closed — the set the FDS
    /// schedules healing re-parses for.
    pub fn broken(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .detectors
            .lock()
            .expect("supervisor poisoned")
            .iter()
            .filter(|(_, s)| s.breaker != BreakerState::Closed)
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Force-closes the breaker for `name` (e.g. after an operator fixed
    /// the remote service).
    pub fn reset(&self, name: &str) {
        let mut detectors = self.inner.detectors.lock().expect("supervisor poisoned");
        if let Some(state) = detectors.get_mut(name) {
            state.breaker = BreakerState::Closed;
            state.consecutive_failures = 0;
            state.open_rejections = 0;
            state.probe_in_flight = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorRegistry, Version};

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            deadline: Duration::from_millis(40),
            max_retries: 1,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            jitter_seed: 7,
            breaker_threshold: 2,
            breaker_probe_after: 1,
        }
    }

    #[test]
    fn healthy_detectors_pass_through() {
        let sup = Supervisor::new(fast_config());
        let wrapped = sup.wrap(
            "echo",
            Box::new(|inputs| Ok(vec![Token::new("out", inputs[0].clone())])),
        );
        let out = wrapped(&[FeatureValue::Int(3)]).unwrap();
        assert_eq!(out[0].value, FeatureValue::Int(3));
        assert_eq!(sup.state("echo"), Some(BreakerState::Closed));
        assert_eq!(sup.stats("echo").attempts, 1);
    }

    #[test]
    fn rejects_are_verdicts_not_retried() {
        let sup = Supervisor::new(fast_config());
        let wrapped = sup.wrap("judge", Box::new(|_| Err("not a video".into())));
        for _ in 0..5 {
            assert_eq!(
                wrapped(&[]).unwrap_err(),
                DetectorError::Reject("not a video".into())
            );
        }
        // One attempt per call, breaker stays closed.
        assert_eq!(sup.stats("judge").attempts, 5);
        assert_eq!(sup.stats("judge").retries, 0);
        assert_eq!(sup.state("judge"), Some(BreakerState::Closed));
    }

    #[test]
    fn hung_detector_times_out_and_stale_answers_are_discarded() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let sup = Supervisor::new(SupervisorConfig {
            deadline: Duration::from_millis(30),
            max_retries: 0,
            ..fast_config()
        });
        let wrapped = sup.wrap(
            "sleepy",
            Box::new(move |_| {
                if c.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(120));
                }
                Ok(vec![Token::new("x", 1i64)])
            }),
        );
        // First call hangs past the deadline.
        match wrapped(&[]) {
            Err(DetectorError::Unavailable(cause)) => {
                assert!(cause.contains("deadline"), "{cause}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sup.stats("sleepy").timeouts, 1);
        // Wait for the hung call to finish: its answer now sits in the
        // channel as a stale message the next attempt must skip over.
        std::thread::sleep(Duration::from_millis(150));
        let out = wrapped(&[]).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unavailable_is_retried_with_backoff() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let sup = Supervisor::new(SupervisorConfig {
            max_retries: 2,
            ..fast_config()
        });
        let wrapped = sup.wrap(
            "flaky",
            Box::new(move |_| {
                if c.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(DetectorError::Unavailable("connection reset".into()))
                } else {
                    Ok(vec![Token::new("x", 1i64)])
                }
            }),
        );
        assert_eq!(wrapped(&[]).unwrap().len(), 1);
        let stats = sup.stats("flaky");
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn breaker_opens_then_probes_then_recovers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let healthy = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&healthy);
        let sup = Supervisor::new(SupervisorConfig {
            max_retries: 0,
            breaker_threshold: 2,
            breaker_probe_after: 1,
            ..fast_config()
        });
        let wrapped = sup.wrap(
            "remote",
            Box::new(move |_| {
                if h.load(Ordering::SeqCst) {
                    Ok(vec![Token::new("x", 1i64)])
                } else {
                    Err(DetectorError::Unavailable("down".into()))
                }
            }),
        );
        // Two failures open the breaker.
        assert!(wrapped(&[]).is_err());
        assert!(wrapped(&[]).is_err());
        assert_eq!(sup.state("remote"), Some(BreakerState::Open));
        assert_eq!(sup.broken(), vec!["remote".to_owned()]);
        // Short-circuited call: the detector is not even tried.
        assert!(wrapped(&[]).is_err());
        assert_eq!(sup.stats("remote").short_circuits, 1);
        // Service recovers; the next call is the half-open probe.
        healthy.store(true, Ordering::SeqCst);
        assert_eq!(wrapped(&[]).unwrap().len(), 1);
        assert_eq!(sup.state("remote"), Some(BreakerState::Closed));
        assert!(sup.broken().is_empty());
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let sup = Supervisor::new(SupervisorConfig {
            max_retries: 0,
            breaker_threshold: 1,
            breaker_probe_after: 1,
            ..fast_config()
        });
        let wrapped = sup.wrap(
            "dead",
            Box::new(|_| Err(DetectorError::Unavailable("still down".into()))),
        );
        assert!(wrapped(&[]).is_err()); // opens
        assert_eq!(sup.state("dead"), Some(BreakerState::Open));
        assert!(wrapped(&[]).is_err()); // short-circuit
        assert!(wrapped(&[]).is_err()); // probe, fails, reopens
        assert_eq!(sup.state("dead"), Some(BreakerState::Open));
        assert_eq!(sup.stats("dead").breaker_opens, 2);
        sup.reset("dead");
        assert_eq!(sup.state("dead"), Some(BreakerState::Closed));
    }

    #[test]
    fn detector_health_and_obs_gauges_track_breaker_state() {
        let sup = Supervisor::new(SupervisorConfig {
            max_retries: 0,
            breaker_threshold: 2,
            breaker_probe_after: 1,
            ..fast_config()
        });
        let o = obs::Obs::enabled();
        sup.set_obs(&o);
        let wrapped = sup.wrap(
            "remote",
            Box::new(|_| Err(DetectorError::Unavailable("link down".into()))),
        );
        let reg = o.registry().expect("enabled");
        // Registration publishes an initial closed state.
        assert_eq!(
            reg.labeled_gauge("acoi_breaker_state", "", "detector", "remote").get(),
            0
        );
        assert!(wrapped(&[]).is_err());
        assert!(wrapped(&[]).is_err()); // second failure opens the breaker
        assert!(wrapped(&[]).is_err()); // short-circuit
        let health = sup.detector_health();
        assert_eq!(health.len(), 1);
        let h = &health[0];
        assert_eq!(h.name, "remote");
        assert_eq!(h.breaker, BreakerState::Open);
        assert_eq!(h.consecutive_failures, 2);
        assert_eq!(h.last_error.as_deref(), Some("link down"));
        assert_eq!(h.stats.short_circuits, 1);
        assert_eq!(
            reg.labeled_gauge("acoi_breaker_state", "", "detector", "remote").get(),
            2
        );
        assert_eq!(
            reg.labeled_gauge("acoi_breaker_consecutive_failures", "", "detector", "remote")
                .get(),
            2
        );
        assert_eq!(
            reg.labeled_counter("acoi_breaker_opens_total", "", "detector", "remote").get(),
            1
        );
        assert_eq!(
            reg.labeled_counter("acoi_detector_attempts_total", "", "detector", "remote")
                .get(),
            2
        );
        assert_eq!(
            reg.labeled_counter("acoi_detector_short_circuits_total", "", "detector", "remote")
                .get(),
            1
        );
    }

    #[test]
    fn jitter_is_deterministic_but_decorrelated_across_draws() {
        let span = Duration::from_millis(20);
        // Same inputs replay the same jitter (seeded determinism)…
        assert_eq!(
            backoff_jitter(7, "det", 1, 0, span),
            backoff_jitter(7, "det", 1, 0, span)
        );
        // …the stream moves with the seed…
        let per_seed = |seed| -> Vec<Duration> {
            (0..8).map(|d| backoff_jitter(seed, "det", 1, d, span)).collect()
        };
        assert_ne!(per_seed(7), per_seed(8));
        // …and same-attempt retries at different draw indices diverge:
        // two concurrent callers never sleep the same schedule.
        let draws = per_seed(7);
        let distinct: std::collections::HashSet<Duration> = draws.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "same-attempt retries share one jitter value (stampede): {draws:?}"
        );
        for j in draws {
            assert!(j <= span / 2 + Duration::from_nanos(1));
        }
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let sup = Supervisor::new(SupervisorConfig {
            deadline: Duration::from_millis(500),
            max_retries: 0,
            breaker_threshold: 1,
            breaker_probe_after: 0,
            ..fast_config()
        });
        let (gate_tx, gate_rx) = unbounded::<()>();
        let calls = Arc::new(AtomicU32::new(0));
        let mk = |calls: Arc<AtomicU32>, gate_rx: Receiver<()>| -> DetectorFn {
            Box::new(move |_| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    return Err(DetectorError::Unavailable("down".into()));
                }
                // A recovering-but-slow detector: answers only once
                // released, so the probe stays in flight long enough
                // for a concurrent caller to arrive.
                let _ = gate_rx.recv_timeout(Duration::from_millis(400));
                Ok(vec![Token::new("x", 1i64)])
            })
        };
        // Two wrapped handles share one breaker state but have their
        // own workers, so both can be inside the gate at once.
        let w1 = sup.wrap("rec", mk(Arc::clone(&calls), gate_rx.clone()));
        let w2 = sup.wrap("rec", mk(Arc::clone(&calls), gate_rx));
        assert!(w1(&[]).is_err()); // opens the breaker
        assert_eq!(sup.state("rec"), Some(BreakerState::Open));
        // `breaker_probe_after: 0`: the next call becomes the half-open
        // probe and blocks inside the detector…
        let probe = std::thread::spawn(move || w1(&[]));
        let waited = Instant::now();
        while calls.load(Ordering::SeqCst) < 2 {
            assert!(waited.elapsed() < Duration::from_secs(2), "probe never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        // …while a concurrent caller is short-circuited instead of
        // stampeding the recovering detector.
        match w2(&[]) {
            Err(DetectorError::Unavailable(cause)) => {
                assert!(cause.contains("probe"), "{cause}");
            }
            other => panic!("expected a short-circuit, got {other:?}"),
        }
        assert_eq!(sup.stats("rec").short_circuits, 1);
        gate_tx.send(()).unwrap();
        assert!(probe.join().unwrap().is_ok());
        assert_eq!(sup.state("rec"), Some(BreakerState::Closed));
    }

    #[test]
    fn panicking_detector_is_reported_unavailable() {
        // With `RUST_BACKTRACE=1` the panic first symbolises its
        // backtrace, which on a cold run outlasts the 40 ms of
        // `fast_config` and is then reported as a timeout instead.
        let sup = Supervisor::new(SupervisorConfig {
            max_retries: 0,
            deadline: Duration::from_secs(5),
            ..fast_config()
        });
        let wrapped = sup.wrap("bomb", Box::new(|_| panic!("kaboom")));
        match wrapped(&[]) {
            Err(DetectorError::Unavailable(cause)) => {
                assert!(cause.contains("panicked"), "{cause}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn supervised_detector_registers_like_any_other() {
        let sup = Supervisor::new(fast_config());
        let mut registry = DetectorRegistry::new();
        registry.register(
            "seg",
            Version::new(1, 0, 0),
            sup.wrap("seg", Box::new(|_| Ok(vec![Token::new("frameNo", 0i64)]))),
        );
        assert_eq!(registry.run("seg", &[]).unwrap().len(), 1);
    }
}
