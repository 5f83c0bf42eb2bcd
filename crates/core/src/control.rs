//! The self-healing distribution control plane: the *executing* half
//! of the policy in [`ir::control`].
//!
//! A [`ControlPlane`] wraps a deterministic [`ir::ControlPolicy`] and
//! drives its decisions against a [`QueryService`], one
//! [`ControlPlane::tick`] at a time:
//!
//! 1. Under a **brief** engine borrow it assembles an
//!    [`ir::ClusterView`] (shard loads, observed p99, declared-lost
//!    servers) and asks the policy for a decision. Queries keep serving
//!    the moment the borrow drops.
//! 2. A split/merge/re-replication is **admission-gated**: if the
//!    overload ladder sits at Brownout or worse the decision is
//!    deferred to a later tick — interactive traffic owns the capacity
//!    — and every chunk of background work holds one `Batch`-class
//!    permit, exactly like online maintenance.
//! 3. **Re-replication** runs in the same two-brief-locks shape as
//!    maintenance: begin under the lock (snapshot the lost server's
//!    copies from survivors), rebuild chunk by chunk off-lock
//!    (consulting the fault plan at `rereplicate:<lost>:<group>`), and
//!    commit under the lock behind an epoch check. A fault or a stale
//!    commit aborts with the cluster byte-identical to never-started.
//! 4. **Split/merge** takes one permit and runs the idf-aware
//!    rebalancer under the lock (the cutover itself must be atomic);
//!    success arms the policy's cooldown so a hot interval cannot
//!    thrash the layout.
//!
//! Every decision is counted in `ir_control_decisions_total{action}`
//! and surfaced by EXPLAIN ANALYZE's `REBALANCE` line. The fault plan
//! is additionally consulted at `control:<action>` before any side
//! effect, so chaos schedules can kill a decision at the policy/
//! mechanism boundary too.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use faults::{FaultAction, FaultPlan};
use ir::{ControlConfig, ControlDecision, ControlPolicy};

use crate::admission::{AdmissionGate, OverloadLevel, Permit, QueryService};
use crate::error::{Error, Result};

/// Copies rebuilt per Batch admission during background
/// re-replication — the control plane's unit of interference, matching
/// online maintenance's chunk size.
const ADMIT_CHUNK: usize = 4;

/// Help string of the decision counter (shared with the pre-seeded
/// family in `ir`'s metric registration).
const DECISIONS_HELP: &str = "Control-plane policy decisions, by action";

/// What one [`ControlPlane::tick`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOutcome {
    /// The policy saw a healthy, balanced cluster and decided nothing.
    Idle,
    /// A decision exists but the admission ladder sits at Brownout or
    /// worse; it will be re-evaluated on a later tick.
    Deferred(String),
    /// The decision was executed; the string says what and why.
    Acted(String),
    /// The decision was started but aborted (injected fault, stale
    /// epoch, rebalance error); the cluster is byte-identical to
    /// never-started.
    Aborted(String),
}

impl ControlOutcome {
    /// The human-readable description, if the tick did anything.
    pub fn describe(&self) -> Option<&str> {
        match self {
            ControlOutcome::Idle => None,
            ControlOutcome::Deferred(d)
            | ControlOutcome::Acted(d)
            | ControlOutcome::Aborted(d) => Some(d),
        }
    }
}

/// The control loop: a deterministic policy plus the admission-gated,
/// fault-injectable execution of its decisions.
pub struct ControlPlane {
    policy: ControlPolicy,
    /// Fault plan consulted at `control:<action>` before execution and
    /// threaded into re-replication steps (`rereplicate:<lost>:<group>`).
    faults: Option<Arc<FaultPlan>>,
    obs: obs::Obs,
    /// Telemetry recorder + window (in ticks): when attached, the
    /// policy's latency trigger uses the windowed p99 reconstructed
    /// from `ir_critical_path_seconds` bucket deltas instead of the
    /// instantaneous ring observation.
    telemetry: Option<(Arc<Mutex<obs::Recorder>>, usize)>,
}

impl ControlPlane {
    /// A control plane with the given policy thresholds.
    pub fn new(cfg: ControlConfig, faults: Option<Arc<FaultPlan>>) -> ControlPlane {
        ControlPlane {
            policy: ControlPolicy::new(cfg),
            faults,
            obs: obs::Obs::disabled(),
            telemetry: None,
        }
    }

    /// Routes the control plane's metrics into `o`'s registry.
    pub fn set_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
    }

    /// Closes the loop with the telemetry layer: from now on the
    /// policy's latency trigger reads the windowed p99 over the
    /// recorder's last `p99_window` ticks (falling back to the
    /// instantaneous observation while the window is still empty).
    pub fn set_telemetry(&mut self, telemetry: &crate::telemetry::Telemetry) {
        self.telemetry = Some((telemetry.recorder(), telemetry.p99_window()));
    }

    /// The wrapped policy (tick counter, cooldown state).
    pub fn policy(&self) -> &ControlPolicy {
        &self.policy
    }

    /// One control round: observe under a brief engine borrow, decide,
    /// and execute the decision (if any) behind the admission gate.
    /// Errors are reserved for broken invariants (poisoned gate,
    /// storage failure inside a commit); everything expected — faults,
    /// stale epochs, overload — comes back as a [`ControlOutcome`].
    pub fn tick(&mut self, svc: &QueryService) -> Result<ControlOutcome> {
        self.policy.tick();
        // Observe under a brief borrow, then drop it before consulting
        // telemetry: the recorder's lock is never held together with
        // the engine's.
        let mut view = {
            let engine = svc.engine();
            engine.control_view(self.policy.config().loss_threshold)
        };
        if let Some((recorder, window)) = &self.telemetry {
            let rec = recorder.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(p99) = rec.windowed_quantile("ir_critical_path_seconds", 0.99, *window)
            {
                view.shard_p99 = Duration::from_secs_f64(p99.max(0.0));
            }
        }
        let Some(decision) = self.policy.evaluate(&view) else {
            return Ok(ControlOutcome::Idle);
        };
        let action = decision.action();
        self.count_decision(action);
        let describe = format!("{action}: {}", decision.reason());
        if svc.gate().level() >= OverloadLevel::Brownout {
            self.count_decision("defer");
            let outcome = ControlOutcome::Deferred(describe);
            self.record_outcome(&outcome);
            return Ok(outcome);
        }
        // The policy/mechanism boundary is a fault site of its own:
        // a scripted `control:<action>` fault kills the decision
        // before any side effect.
        if let Some(plan) = &self.faults {
            let label = format!("control:{action}");
            let delay = plan.decide_delay(&label);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            match plan.decide(&label) {
                FaultAction::None => {}
                injected => {
                    let outcome = ControlOutcome::Aborted(format!(
                        "{describe} — injected {injected:?} fault before execution \
                         (cluster untouched)"
                    ));
                    self.record_outcome(&outcome);
                    return Ok(outcome);
                }
            }
        }
        let outcome = match decision {
            ControlDecision::Rereplicate { lost, .. } => {
                self.run_rereplication(svc, lost, describe)
            }
            ControlDecision::Split { target, .. } | ControlDecision::Merge { target, .. } => {
                self.run_rebalance(svc, target, describe)
            }
        }?;
        self.record_outcome(&outcome);
        Ok(outcome)
    }

    /// Leaves a `control` flight-recorder event for any tick that did
    /// (or explicitly refused to do) something.
    fn record_outcome(&self, outcome: &ControlOutcome) {
        let (verb, detail) = match outcome {
            ControlOutcome::Idle => return,
            ControlOutcome::Deferred(d) => ("deferred", d),
            ControlOutcome::Acted(d) => ("acted", d),
            ControlOutcome::Aborted(d) => ("aborted", d),
        };
        self.obs
            .record_event("control", || format!("{verb}: {detail}"));
    }

    /// Background re-replication, two-brief-locks: begin under the
    /// engine borrow, rebuild in admission-gated chunks off-lock,
    /// commit under the borrow behind the epoch check.
    fn run_rereplication(
        &mut self,
        svc: &QueryService,
        lost: usize,
        describe: String,
    ) -> Result<ControlOutcome> {
        let mut job = match svc.engine().begin_text_rereplication(lost) {
            Ok(job) => job,
            Err(e) => return Ok(ControlOutcome::Aborted(format!("{describe} — {e}"))),
        };
        let faults = self.faults.as_deref();
        while !job.is_done() {
            let _permit = admit_batch(svc.gate(), &self.obs)?;
            for _ in 0..ADMIT_CHUNK {
                if job.is_done() {
                    break;
                }
                if let Err(e) = job.step(faults) {
                    // Dropping the job is the whole abort: the live
                    // cluster was never touched.
                    return Ok(ControlOutcome::Aborted(format!("{describe} — {e}")));
                }
            }
        }
        let mut engine = svc.engine();
        match engine.commit_text_rereplication(job) {
            Ok(installed) => {
                let done = format!("{describe} — rebuilt {installed} cop(ies) onto survivors");
                engine.note_control_decision(&done);
                Ok(ControlOutcome::Acted(done))
            }
            Err(Error::Ir(ir::Error::RereplicationStale { pinned, current })) => {
                Ok(ControlOutcome::Aborted(format!(
                    "{describe} — stale: staged at epoch {pinned}, cluster now at {current}"
                )))
            }
            Err(e) => Err(e),
        }
    }

    /// A split or merge: one Batch permit, then the idf-aware
    /// rebalancer under the engine borrow (the cutover is atomic by
    /// construction). Success arms the policy cooldown; failure leaves
    /// the policy free to retry next tick.
    fn run_rebalance(
        &mut self,
        svc: &QueryService,
        target: usize,
        describe: String,
    ) -> Result<ControlOutcome> {
        let _permit = admit_batch(svc.gate(), &self.obs)?;
        let mut engine = svc.engine();
        match engine.rebalance_text(target) {
            Ok(report) => {
                self.policy.note_layout_change();
                let done = format!(
                    "{describe} — rebalanced {} → {} server(s), {} document(s) moved",
                    report.shards_before, report.shards_after, report.moved_docs
                );
                engine.note_control_decision(&done);
                Ok(ControlOutcome::Acted(done))
            }
            Err(e) => Ok(ControlOutcome::Aborted(format!("{describe} — {e}"))),
        }
    }

    fn count_decision(&self, action: &str) {
        if let Some(reg) = self.obs.registry() {
            reg.labeled_counter("ir_control_decisions_total", DECISIONS_HELP, "action", action)
                .inc();
        }
    }
}

/// One background admission (the discipline online maintenance follows
/// too), counted as proof the control plane's work went through the gate.
fn admit_batch(gate: &Arc<AdmissionGate>, obs: &obs::Obs) -> Result<Permit> {
    let permit = gate.admit_background()?;
    if let Some(reg) = obs.registry() {
        reg.counter(
            "engine_control_batch_admissions_total",
            "Batch-class gate permits granted to the control plane",
        )
        .inc();
    }
    Ok(permit)
}
