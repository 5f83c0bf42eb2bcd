//! Deterministic, seedable fault injection.
//!
//! The paper's architecture spans components that fail in practice:
//! blackbox detectors reached over XML-RPC ("possible failure" is part
//! of the detector contract) and full-text relations distributed over
//! shared-nothing servers. A [`FaultPlan`] decides, per call-site
//! *label* (e.g. `rpc:tennis`, `shard:2`), whether a call should fail
//! with a transport error, hang past its deadline, or return garbage —
//! so every failure mode is testable without a real network.
//!
//! Decisions are a pure function of `(seed, label, per-label call
//! count)`: two runs with the same plan observe the same faults, which
//! keeps degraded-mode runs reproducible and zero-fault runs
//! byte-identical to fault-free builds.
//!
//! # The `disk:*` label namespace
//!
//! The durability layer injects *I/O* faults through the same plan,
//! decided by [`FaultPlan::decide_io`] (kinds in [`IoFault`]: torn
//! writes, bit flips, short reads, `ENOSPC`, fsync failures). The
//! storage backend consults two well-known labels:
//!
//! * `disk:wal` — every operation on a write-ahead-log segment
//!   (`*.wal` files),
//! * `disk:snapshot` — every operation on snapshot and manifest files
//!   (everything else under the durability directory).
//!
//! I/O decisions keep their own per-label call counter (`io_calls`),
//! independent of [`FaultPlan::decide`]'s. They are scripted
//! ([`FaultPlan::set_io_script`]): one action per operation, after
//! which the label proceeds normally — the crash-point recovery harness
//! scripts `k` clean operations followed by a failure to "crash"
//! persistence at exactly the `k`-th disk touch.
//!
//! # The control-plane label namespaces
//!
//! The self-healing distribution control plane consults the plan at
//! two further families of labels:
//!
//! * `control:<action>` (`control:split`, `control:merge`,
//!   `control:rereplicate`) — before a policy decision is executed,
//!   so a chaos schedule can kill it at the policy/mechanism
//!   boundary with the cluster untouched,
//! * `rereplicate:<lost>:<group>` — each chunk of a background
//!   re-replication rebuild, so an interrupted repair can be proven
//!   to abort byte-identically.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub mod budget;

pub use budget::{Budget, BudgetExceeded};

/// What the injection point should do for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Fail immediately with a transport-style error.
    Error,
    /// Stall the call until past its deadline.
    Hang,
    /// Deliver a corrupted (undecodable) response.
    Garbage,
}

/// Per-label fault probabilities (the three kinds are disjoint; their
/// sum must stay ≤ 1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability of a transport error.
    pub error: f64,
    /// Probability of a hang.
    pub hang: f64,
    /// Probability of a garbage response.
    pub garbage: f64,
}

impl FaultSpec {
    /// No faults ever.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Transport errors with probability `p`.
    pub fn errors(p: f64) -> Self {
        FaultSpec {
            error: p,
            ..FaultSpec::default()
        }
    }

    /// Hangs on every call.
    pub fn always_hang() -> Self {
        FaultSpec {
            hang: 1.0,
            ..FaultSpec::default()
        }
    }

    /// Transport errors on every call.
    pub fn always_error() -> Self {
        FaultSpec {
            error: 1.0,
            ..FaultSpec::default()
        }
    }

    fn validate(&self) {
        let sum = self.error + self.hang + self.garbage;
        assert!(
            (0.0..=1.0 + 1e-12).contains(&sum),
            "fault probabilities sum to {sum}, must be within [0, 1]"
        );
    }
}

/// What one disk operation should do.
///
/// Offsets are in bytes into the buffer being written; the backend
/// clamps them to the buffer length, so scripted offsets never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFault {
    /// Proceed normally.
    None,
    /// Persist only the first `at` bytes of the write, then fail — the
    /// on-disk file ends mid-record, as after a power cut.
    TornWrite {
        /// Byte offset at which the write is cut.
        at: usize,
    },
    /// Flip one bit of the written buffer at byte `at` and report
    /// success — silent media corruption, detectable only by checksum.
    BitFlip {
        /// Byte offset of the flipped bit.
        at: usize,
    },
    /// Return only a prefix of the file's contents from a read.
    ShortRead,
    /// Fail the operation up front with an `ENOSPC`-style error; no
    /// bytes reach the disk.
    NoSpace,
    /// Report failure from `fsync` — the data may or may not be
    /// durable, and the caller must assume it is not.
    FsyncFail,
}

/// Per-label latency injection: how slow a site should be, without
/// being *dead*. Overload is mostly a latency phenomenon — a shard
/// that answers in 80 ms instead of 2 ms backs queues up long before
/// anything reports an error — so the load harness injects delays,
/// not faults, to push the engine into its degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelaySpec {
    /// Probability that a call is delayed at all (0 = never, 1 = every
    /// call).
    pub probability: f64,
    /// How long a delayed call stalls before proceeding normally.
    pub delay: Duration,
}

impl DelaySpec {
    /// Delays every call by `delay`.
    pub fn always(delay: Duration) -> Self {
        DelaySpec {
            probability: 1.0,
            delay,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.probability),
            "delay probability {} must be within [0, 1]",
            self.probability
        );
    }
}

#[derive(Debug, Default)]
struct SiteState {
    spec: Option<FaultSpec>,
    /// Scripted prefix, consumed one action per call before `spec` (or,
    /// without one, no faults) takes over.
    script: Vec<FaultAction>,
    consumed: usize,
    calls: u64,
    /// I/O half of the site: its own script and call counter, so disk
    /// decisions never perturb the RPC/shard streams.
    io_script: Vec<IoFault>,
    io_consumed: usize,
    io_calls: u64,
    /// Latency half of the site: again its own spec and counter, so
    /// making a label slow never shifts its fault stream.
    delay_spec: Option<DelaySpec>,
    delay_calls: u64,
}

/// Pre-registered metric handles for fault-injection accounting.
/// Cloned atomic handles: recording a decision is one atomic add.
#[derive(Debug, Clone)]
struct FaultMetrics {
    decisions: obs::Counter,
    injected_error: obs::Counter,
    injected_hang: obs::Counter,
    injected_garbage: obs::Counter,
    io_decisions: obs::Counter,
    io_injected: obs::Counter,
    delays_injected: obs::Counter,
}

impl FaultMetrics {
    fn register(registry: &obs::Registry) -> FaultMetrics {
        FaultMetrics {
            decisions: registry.counter(
                "faults_decisions_total",
                "Fault-injection decisions taken (all labels)",
            ),
            injected_error: registry.labeled_counter(
                "faults_injected_total",
                "Faults actually injected, by kind",
                "kind",
                "error",
            ),
            injected_hang: registry.labeled_counter(
                "faults_injected_total",
                "Faults actually injected, by kind",
                "kind",
                "hang",
            ),
            injected_garbage: registry.labeled_counter(
                "faults_injected_total",
                "Faults actually injected, by kind",
                "kind",
                "garbage",
            ),
            io_decisions: registry.counter(
                "faults_io_decisions_total",
                "Disk I/O fault decisions taken",
            ),
            io_injected: registry.counter(
                "faults_io_injected_total",
                "Disk I/O faults actually injected",
            ),
            delays_injected: registry.counter(
                "faults_delays_injected_total",
                "Latency injections that stalled a call",
            ),
        }
    }

    fn record_action(&self, action: FaultAction) {
        self.decisions.inc();
        match action {
            FaultAction::None => {}
            FaultAction::Error => self.injected_error.inc(),
            FaultAction::Hang => self.injected_hang.inc(),
            FaultAction::Garbage => self.injected_garbage.inc(),
        }
    }
}

/// A deterministic fault schedule shared by every injection point.
///
/// Interior mutability makes the plan `Arc`-shareable across the RPC
/// clients, supervisors and shard threads that consult it.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: Mutex<HashMap<String, SiteState>>,
    metrics: Mutex<Option<FaultMetrics>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// A plan that never injects anything (the production default).
    pub fn none() -> Self {
        FaultPlan::seeded(0)
    }

    /// An empty plan with deterministic randomness derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Mutex::new(HashMap::new()),
            metrics: Mutex::new(None),
        }
    }

    /// Connects the plan to an observability handle: every subsequent
    /// decision feeds the `faults_*` counters. A disabled handle
    /// disconnects (decisions go back to costing nothing extra).
    pub fn set_obs(&self, o: &obs::Obs) {
        let mut metrics = self.metrics.lock().expect("fault plan poisoned");
        *metrics = o.registry().map(FaultMetrics::register);
    }

    fn metrics(&self) -> Option<FaultMetrics> {
        self.metrics.lock().expect("fault plan poisoned").clone()
    }

    /// Sets the probabilistic spec for one label (builder style).
    pub fn with_site(self, label: impl Into<String>, spec: FaultSpec) -> Self {
        self.set_site(label, spec);
        self
    }

    /// Prepends a scripted schedule for one label: the listed actions
    /// are consumed one per call, after which the label falls back to
    /// its spec (builder style).
    pub fn with_script(self, label: impl Into<String>, script: Vec<FaultAction>) -> Self {
        self.set_script(label, script);
        self
    }

    /// Replaces the probabilistic spec for `label` at runtime — e.g. to
    /// simulate a detector recovering mid-run.
    pub fn set_site(&self, label: impl Into<String>, spec: FaultSpec) {
        spec.validate();
        let mut sites = self.sites.lock().expect("fault plan poisoned");
        sites.entry(label.into()).or_default().spec = Some(spec);
    }

    /// Applies one spec to a whole batch of labels at runtime — the
    /// chaos-test idiom for killing a *machine* rather than a site
    /// (e.g. every `shard:`/`replica:` label a virtual server hosts).
    pub fn set_sites<I, S>(&self, labels: I, spec: FaultSpec)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for label in labels {
            self.set_site(label, spec);
        }
    }

    /// Replaces the scripted schedule for `label` at runtime.
    pub fn set_script(&self, label: impl Into<String>, script: Vec<FaultAction>) {
        let mut sites = self.sites.lock().expect("fault plan poisoned");
        let site = sites.entry(label.into()).or_default();
        site.script = script;
        site.consumed = 0;
    }

    /// Decides what the next call at `label` should do, advancing the
    /// per-label call counter.
    pub fn decide(&self, label: &str) -> FaultAction {
        let action = self.decide_inner(label);
        if let Some(m) = self.metrics() {
            m.record_action(action);
        }
        action
    }

    fn decide_inner(&self, label: &str) -> FaultAction {
        let mut sites = self.sites.lock().expect("fault plan poisoned");
        let site = sites.entry(label.to_owned()).or_default();
        let call = site.calls;
        site.calls += 1;
        if site.consumed < site.script.len() {
            let action = site.script[site.consumed];
            site.consumed += 1;
            return action;
        }
        let spec = site.spec.unwrap_or_default();
        let word = splitmix(self.seed ^ label_hash(label) ^ call.wrapping_mul(0x9E37_79B9));
        let draw = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw < spec.error {
            FaultAction::Error
        } else if draw < spec.error + spec.hang {
            FaultAction::Hang
        } else if draw < spec.error + spec.hang + spec.garbage {
            FaultAction::Garbage
        } else {
            FaultAction::None
        }
    }

    /// Decides what a call at `label` identified by `key` should do.
    ///
    /// Unlike [`FaultPlan::decide`], the outcome is a pure function of
    /// `(seed, label, key)` — independent of call *order* — so a document
    /// draws the same fault whichever run analyses it (populate, or a
    /// maintenance job re-parsing it later) and whatever other calls
    /// came before. The per-label call
    /// counter still advances (for [`FaultPlan::calls`] accounting), but
    /// scripted schedules are ignored: a script is inherently
    /// order-based and belongs with [`FaultPlan::decide`].
    pub fn decide_keyed(&self, label: &str, key: &str) -> FaultAction {
        let action = self.decide_keyed_inner(label, key);
        if let Some(m) = self.metrics() {
            m.record_action(action);
        }
        action
    }

    fn decide_keyed_inner(&self, label: &str, key: &str) -> FaultAction {
        let spec = {
            let mut sites = self.sites.lock().expect("fault plan poisoned");
            let site = sites.entry(label.to_owned()).or_default();
            site.calls += 1;
            site.spec.unwrap_or_default()
        };
        let word = splitmix(self.seed ^ label_hash(label) ^ label_hash(key).rotate_left(17));
        let draw = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw < spec.error {
            FaultAction::Error
        } else if draw < spec.error + spec.hang {
            FaultAction::Hang
        } else if draw < spec.error + spec.hang + spec.garbage {
            FaultAction::Garbage
        } else {
            FaultAction::None
        }
    }

    /// Replaces the scripted I/O schedule for `label` at runtime. The
    /// listed faults are consumed one per operation, after which the
    /// label proceeds normally.
    pub fn set_io_script(&self, label: impl Into<String>, script: Vec<IoFault>) {
        let mut sites = self.sites.lock().expect("fault plan poisoned");
        let site = sites.entry(label.into()).or_default();
        site.io_script = script;
        site.io_consumed = 0;
    }

    /// Decides what the next disk operation at `label` should do,
    /// advancing the per-label I/O call counter: the next entry of the
    /// label's script, or [`IoFault::None`] once it is used up. So
    /// replaying a run with the same plan observes byte-identical fault
    /// schedules.
    pub fn decide_io(&self, label: &str) -> IoFault {
        let fault = {
            let mut sites = self.sites.lock().expect("fault plan poisoned");
            let site = sites.entry(label.to_owned()).or_default();
            site.io_calls += 1;
            match site.io_script.get(site.io_consumed) {
                Some(&fault) => {
                    site.io_consumed += 1;
                    fault
                }
                None => IoFault::None,
            }
        };
        if let Some(m) = self.metrics() {
            m.io_decisions.inc();
            if fault != IoFault::None {
                m.io_injected.inc();
            }
        }
        fault
    }

    /// Sets the probabilistic latency spec for one label (builder
    /// style).
    pub fn with_delay_site(self, label: impl Into<String>, spec: DelaySpec) -> Self {
        self.set_delay_site(label, spec);
        self
    }

    /// Replaces the probabilistic latency spec for `label` at runtime —
    /// e.g. to let a slow shard recover mid-run.
    pub fn set_delay_site(&self, label: impl Into<String>, spec: DelaySpec) {
        spec.validate();
        let mut sites = self.sites.lock().expect("fault plan poisoned");
        sites.entry(label.into()).or_default().delay_spec = Some(spec);
    }

    /// Decides how long the next call at `label` should stall before
    /// proceeding, advancing the per-label delay counter. Returns
    /// [`Duration::ZERO`] for an undelayed call. The injection point is
    /// responsible for actually sleeping — the plan only decides.
    ///
    /// Like every other decision, the outcome is a pure function of
    /// `(seed, label, per-label delay call count)`, on a stream
    /// independent of [`FaultPlan::decide`] and [`FaultPlan::decide_io`].
    pub fn decide_delay(&self, label: &str) -> Duration {
        let delay = self.decide_delay_inner(label);
        if delay > Duration::ZERO {
            if let Some(m) = self.metrics() {
                m.delays_injected.inc();
            }
        }
        delay
    }

    fn decide_delay_inner(&self, label: &str) -> Duration {
        let mut sites = self.sites.lock().expect("fault plan poisoned");
        let site = sites.entry(label.to_owned()).or_default();
        let call = site.delay_calls;
        site.delay_calls += 1;
        let Some(spec) = site.delay_spec else {
            return Duration::ZERO;
        };
        let word = splitmix(
            self.seed ^ label_hash(label).rotate_left(13) ^ call.wrapping_mul(0xC2B2_AE3D),
        );
        let draw = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw < spec.probability {
            spec.delay
        } else {
            Duration::ZERO
        }
    }

    /// Total delay decisions made for `label` so far.
    pub fn delay_calls(&self, label: &str) -> u64 {
        self.sites
            .lock()
            .expect("fault plan poisoned")
            .get(label)
            .map_or(0, |s| s.delay_calls)
    }

    /// Total I/O operations decided for `label` so far.
    pub fn io_calls(&self, label: &str) -> u64 {
        self.sites
            .lock()
            .expect("fault plan poisoned")
            .get(label)
            .map_or(0, |s| s.io_calls)
    }

    /// Total calls decided for `label` so far.
    pub fn calls(&self, label: &str) -> u64 {
        self.sites
            .lock()
            .expect("fault plan poisoned")
            .get(label)
            .map_or(0, |s| s.calls)
    }

    /// Wraps the plan for sharing across threads.
    pub fn shared(self) -> Arc<FaultPlan> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_faults() {
        let plan = FaultPlan::none();
        for i in 0..1000 {
            assert_eq!(plan.decide(&format!("site:{}", i % 7)), FaultAction::None);
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_label() {
        let observe = |seed| {
            let plan = FaultPlan::seeded(seed).with_site(
                "rpc:tennis",
                FaultSpec {
                    error: 0.3,
                    hang: 0.2,
                    garbage: 0.1,
                },
            );
            (0..200)
                .map(|_| plan.decide("rpc:tennis"))
                .collect::<Vec<_>>()
        };
        assert_eq!(observe(42), observe(42));
        assert_ne!(observe(42), observe(43), "different seeds, same schedule");
    }

    #[test]
    fn labels_have_independent_streams() {
        let plan = FaultPlan::seeded(7)
            .with_site("a", FaultSpec::errors(0.5))
            .with_site("b", FaultSpec::errors(0.5));
        let a: Vec<_> = (0..100).map(|_| plan.decide("a")).collect();
        let b: Vec<_> = (0..100).map(|_| plan.decide("b")).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn error_rate_tracks_the_spec() {
        let plan = FaultPlan::seeded(1).with_site("s", FaultSpec::errors(0.2));
        let errors = (0..10_000)
            .filter(|_| plan.decide("s") == FaultAction::Error)
            .count();
        assert!((1700..2300).contains(&errors), "errors {errors}");
    }

    #[test]
    fn scripts_run_before_probabilities() {
        let plan = FaultPlan::seeded(9)
            .with_script(
                "d",
                vec![FaultAction::Error, FaultAction::Hang, FaultAction::Garbage],
            )
            .with_site("d", FaultSpec::none());
        assert_eq!(plan.decide("d"), FaultAction::Error);
        assert_eq!(plan.decide("d"), FaultAction::Hang);
        assert_eq!(plan.decide("d"), FaultAction::Garbage);
        for _ in 0..50 {
            assert_eq!(plan.decide("d"), FaultAction::None);
        }
        assert_eq!(plan.calls("d"), 53);
    }

    #[test]
    fn keyed_decisions_ignore_call_order() {
        let spec = FaultSpec {
            error: 0.4,
            hang: 0.1,
            garbage: 0.1,
        };
        let keys: Vec<String> = (0..50).map(|i| format!("http://x/v{i}.mpg")).collect();
        let forward: Vec<_> = {
            let plan = FaultPlan::seeded(5).with_site("det:tennis", spec);
            keys.iter()
                .map(|k| plan.decide_keyed("det:tennis", k))
                .collect()
        };
        let backward: Vec<_> = {
            let plan = FaultPlan::seeded(5).with_site("det:tennis", spec);
            let mut v: Vec<_> = keys
                .iter()
                .rev()
                .map(|k| plan.decide_keyed("det:tennis", k))
                .collect();
            v.reverse();
            v
        };
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|a| *a != FaultAction::None));
        assert!(forward.contains(&FaultAction::None));
    }

    #[test]
    fn keyed_decisions_vary_by_key_and_count_calls() {
        let plan = FaultPlan::seeded(2).with_site("d", FaultSpec::errors(0.5));
        let distinct: std::collections::HashSet<_> = (0..100)
            .map(|i| plan.decide_keyed("d", &format!("k{i}")))
            .collect();
        assert!(distinct.len() > 1, "all keys drew the same action");
        assert_eq!(plan.calls("d"), 100);
        // Same key, same answer, regardless of how often it is asked.
        assert_eq!(plan.decide_keyed("d", "k0"), plan.decide_keyed("d", "k0"));
    }

    #[test]
    fn sites_can_recover_at_runtime() {
        let plan = FaultPlan::seeded(3).with_site("d", FaultSpec::always_error());
        assert_eq!(plan.decide("d"), FaultAction::Error);
        plan.set_site("d", FaultSpec::none());
        assert_eq!(plan.decide("d"), FaultAction::None);
    }

    #[test]
    fn io_decisions_are_deterministic_and_independent_of_rpc_stream() {
        let script = vec![
            IoFault::None,
            IoFault::TornWrite { at: 3 },
            IoFault::BitFlip { at: 1 },
            IoFault::ShortRead,
            IoFault::FsyncFail,
        ];
        let observe = |interleave_rpc: bool| {
            let plan = FaultPlan::seeded(42).with_site("disk:wal", FaultSpec::errors(0.5));
            plan.set_io_script("disk:wal", script.clone());
            (0..8)
                .map(|_| {
                    if interleave_rpc {
                        let _ = plan.decide("disk:wal");
                    }
                    plan.decide_io("disk:wal")
                })
                .collect::<Vec<_>>()
        };
        let alone = observe(false);
        assert_eq!(alone[..script.len()], script[..]);
        assert!(alone[script.len()..].iter().all(|f| *f == IoFault::None));
        // Interleaving RPC decisions on the same label must not shift
        // the I/O stream: the counters are separate.
        assert_eq!(observe(true), alone);
    }

    #[test]
    fn io_scripts_run_once_then_the_disk_is_healthy() {
        let plan = FaultPlan::seeded(1);
        plan.set_io_script(
            "disk:wal",
            vec![
                IoFault::None,
                IoFault::TornWrite { at: 3 },
                IoFault::NoSpace,
            ],
        );
        assert_eq!(plan.decide_io("disk:wal"), IoFault::None);
        assert_eq!(plan.decide_io("disk:wal"), IoFault::TornWrite { at: 3 });
        assert_eq!(plan.decide_io("disk:wal"), IoFault::NoSpace);
        for _ in 0..20 {
            assert_eq!(plan.decide_io("disk:wal"), IoFault::None);
        }
        assert_eq!(plan.io_calls("disk:wal"), 23);
        // A new script starts from its first entry; the call counter
        // keeps counting.
        plan.set_io_script("disk:wal", vec![IoFault::FsyncFail]);
        assert_eq!(plan.decide_io("disk:wal"), IoFault::FsyncFail);
        assert_eq!(plan.decide_io("disk:wal"), IoFault::None);
        assert_eq!(plan.io_calls("disk:wal"), 25);
    }

    #[test]
    fn zero_plan_never_injects_io_faults() {
        let plan = FaultPlan::none();
        for i in 0..500 {
            assert_eq!(
                plan.decide_io(if i % 2 == 0 {
                    "disk:wal"
                } else {
                    "disk:snapshot"
                }),
                IoFault::None
            );
        }
    }

    #[test]
    fn zero_plan_never_delays() {
        let plan = FaultPlan::none();
        for _ in 0..200 {
            assert_eq!(plan.decide_delay("shard:0"), Duration::ZERO);
        }
    }

    #[test]
    fn delay_decisions_are_deterministic_and_leave_fault_streams_alone() {
        let spec = DelaySpec {
            probability: 0.5,
            delay: Duration::from_millis(40),
        };
        let observe = |seed| {
            let plan = FaultPlan::seeded(seed).with_delay_site("shard:1", spec);
            (0..200)
                .map(|_| plan.decide_delay("shard:1"))
                .collect::<Vec<_>>()
        };
        let a = observe(42);
        assert_eq!(a, observe(42));
        assert_ne!(a, observe(43));
        assert!(a.contains(&Duration::ZERO));
        assert!(a.contains(&Duration::from_millis(40)));
        // Interleaving delay decisions must not shift the fault stream.
        let faults_alone = |seed| {
            let plan = FaultPlan::seeded(seed).with_site("shard:1", FaultSpec::errors(0.5));
            (0..100).map(|_| plan.decide("shard:1")).collect::<Vec<_>>()
        };
        let plan = FaultPlan::seeded(9)
            .with_site("shard:1", FaultSpec::errors(0.5))
            .with_delay_site("shard:1", spec);
        let interleaved: Vec<_> = (0..100)
            .map(|_| {
                let _ = plan.decide_delay("shard:1");
                plan.decide("shard:1")
            })
            .collect();
        assert_eq!(interleaved, faults_alone(9));
    }

    #[test]
    fn delay_sites_count_calls_and_change_at_runtime() {
        let plan = FaultPlan::seeded(3).with_delay_site("rpc:tennis", DelaySpec::default());
        for _ in 0..20 {
            assert_eq!(plan.decide_delay("rpc:tennis"), Duration::ZERO);
        }
        assert_eq!(plan.delay_calls("rpc:tennis"), 20);
        // A site can recover (or degrade) at runtime.
        plan.set_delay_site("rpc:tennis", DelaySpec::always(Duration::from_millis(1)));
        assert_eq!(plan.decide_delay("rpc:tennis"), Duration::from_millis(1));
        assert_eq!(plan.delay_calls("rpc:tennis"), 21);
    }

    #[test]
    #[should_panic(expected = "delay probability")]
    fn out_of_range_delay_probabilities_are_rejected() {
        let _ = FaultPlan::none().with_delay_site(
            "s",
            DelaySpec {
                probability: 1.5,
                delay: Duration::from_millis(1),
            },
        );
    }

    #[test]
    fn metrics_count_decisions_when_connected() {
        let o = obs::Obs::enabled();
        let plan = FaultPlan::seeded(3).with_site("d", FaultSpec::always_error());
        plan.set_obs(&o);
        assert_eq!(plan.decide("d"), FaultAction::Error);
        let _ = plan.decide_keyed("d", "k");
        let _ = plan.decide_io("disk:wal");
        let _ = plan.decide_delay("d");
        let text = o.registry().expect("enabled").render_text();
        assert!(text.contains("faults_decisions_total 2"), "{text}");
        assert!(text.contains("faults_injected_total{kind=\"error\"} "), "{text}");
        assert!(text.contains("faults_io_decisions_total 1"), "{text}");
        // Disconnecting stops the counting without touching decisions.
        plan.set_obs(&obs::Obs::disabled());
        assert_eq!(plan.decide("d"), FaultAction::Error);
        let text2 = o.registry().expect("enabled").render_text();
        assert!(text2.contains("faults_decisions_total 2"), "{text2}");
    }

    #[test]
    #[should_panic(expected = "fault probabilities")]
    fn overfull_specs_are_rejected() {
        let _ = FaultPlan::none().with_site(
            "d",
            FaultSpec {
                error: 0.8,
                hang: 0.5,
                garbage: 0.0,
            },
        );
    }
}
