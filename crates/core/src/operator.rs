//! The operator loop: history, SLOs, the distribution control plane
//! and incident dumps, driven by one [`Operator::tick`].
//!
//! An [`Operator`] ties the generic machinery in `obs` (recorder, SLO
//! engine, flight ring) and the deterministic [`ir::ControlPolicy`] to
//! one [`QueryService`]. Each tick, in order:
//!
//! 1. refreshes the scrape-time gauges under a **brief** engine borrow;
//! 2. samples the whole registry into the ring-buffer
//!    [`obs::Recorder`];
//! 3. evaluates every configured [`obs::SloSpec`] as fast/slow-window
//!    burn rates;
//! 4. builds the [`ir::ClusterView`] (shard loads, declared-lost
//!    servers) with `shard_p99` read from the recorder's window over
//!    `ir_critical_path_seconds` — the one source of the latency
//!    trigger;
//! 5. lets the policy decide, and runs the decision behind the gate:
//!    at Brownout or worse it is **deferred** to a later tick; every
//!    chunk of background work holds one `Batch`-class permit; the text
//!    tier's fault plan is consulted at `control:<action>` before any
//!    side effect and at `rereplicate:<lost>:<group>` per rebuilt copy.
//!    Re-replication runs in the two-brief-locks shape of online
//!    maintenance (begin, rebuild off-lock, commit behind an epoch
//!    check); a split or merge runs the idf-aware rebalancer under one
//!    borrow and arms the policy's cooldown. A fault or a stale commit
//!    aborts with the cluster byte-identical to never-started;
//! 6. dumps a self-contained JSON **incident report** when an SLO pages
//!    or the admission ladder freshly enters Shedding.
//!
//! With observability off, steps 2–3 do nothing: the latency trigger
//! has no signal (as before any parallel query has run), while the
//! document and loss triggers still decide. No step touches an answer
//! path; only an executed decision changes the layout, and a cutover
//! keeps answers byte-identical.

use std::path::PathBuf;
use std::time::Duration;

use faults::{FaultAction, FaultPlan};
use ir::{ClusterView, ControlConfig, ControlDecision, ControlPolicy};
use obs::report::{Json, SCHEMA_VERSION};
use obs::{Obs, Recorder, SloEngine, SloSignal, SloSpec, SloTransition};

use crate::admission::{OverloadLevel, Permit, QueryService};
use crate::error::{Error, Result};
use crate::maintenance::ADMIT_CHUNK;

/// Ticks the shard-p99 read looks back over.
const P99_WINDOW: usize = 8;

/// Incident files written at most per operator (a paging storm must not
/// fill the disk with identical reports).
const MAX_INCIDENTS: usize = 8;

/// Help string of the decision counter (shared with the pre-seeded
/// family in `ir`'s metric registration).
const DECISIONS_HELP: &str = "Control-plane policy decisions, by action";

/// The engine's standard objectives:
///
/// * **query-availability** — at most 0.1% of admission outcomes are
///   rejections (the gate is the front door; a rejection is this
///   system's "error response").
/// * **query-latency** — 99% of `engine.query` spans finish within
///   250ms (the admission ladder's own latency target).
/// * **maintenance-success** — at most 5% of finished maintenance
///   jobs abort.
pub fn standard_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "query-availability",
            objective: 0.999,
            signal: SloSignal::ErrorRatio {
                bad: vec!["admission_rejected_total".to_owned()],
                total: vec![
                    "admission_admitted_total".to_owned(),
                    "admission_rejected_total".to_owned(),
                ],
            },
            fast_window: 3,
            slow_window: 12,
            page_burn: 14.4,
            warn_burn: 3.0,
        },
        SloSpec {
            name: "query-latency",
            objective: 0.99,
            signal: SloSignal::LatencyAbove {
                histogram: "obs_span_seconds{span=\"engine.query\"}".to_owned(),
                threshold_seconds: 0.25,
            },
            fast_window: 3,
            slow_window: 12,
            page_burn: 14.4,
            warn_burn: 3.0,
        },
        SloSpec {
            name: "maintenance-success",
            objective: 0.95,
            signal: SloSignal::ErrorRatio {
                bad: vec!["engine_maintenance_aborts_total".to_owned()],
                total: vec!["engine_maintenance_finished_total".to_owned()],
            },
            fast_window: 3,
            slow_window: 12,
            page_burn: 4.0,
            warn_burn: 1.0,
        },
    ]
}

/// What the control half of one [`Operator::tick`] did.
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

/// What one [`Operator::tick`] did.
#[derive(Debug, Clone)]
pub struct OperatorTick {
    /// The tick number (1 for the first tick).
    pub tick: u64,
    /// SLO alert-state transitions that fired this tick.
    pub transitions: Vec<SloTransition>,
    /// Incident files written this tick (empty without a trigger or
    /// without an incident directory).
    pub incidents: Vec<PathBuf>,
    /// What the control policy decided and how its execution went.
    pub control: ControlOutcome,
}

/// The operator loop over one [`QueryService`]: recorder, SLO engine,
/// control policy and incident dumper.
pub struct Operator {
    policy: ControlPolicy,
    recorder: Recorder,
    slo: SloEngine,
    incident_dir: Option<PathBuf>,
    incidents_written: usize,
    incident_seq: u64,
    /// Highest admission-ladder transition seq already examined, so a
    /// Shedding entry triggers exactly one dump.
    last_gate_seq: u64,
}

impl Operator {
    /// An operator with the control policy's thresholds, the objectives
    /// to evaluate ([`standard_slos`] by default) and where incident
    /// reports are written (`None` keeps them in memory only; callers
    /// can still ask for the JSON). The recorder keeps exactly as much
    /// history as the longest SLO window or the p99 read looks back.
    pub fn new(
        control: ControlConfig,
        slos: Vec<SloSpec>,
        incident_dir: Option<PathBuf>,
    ) -> Operator {
        let history = slos
            .iter()
            .map(|s| s.fast_window.max(s.slow_window))
            .fold(P99_WINDOW, usize::max);
        Operator {
            policy: ControlPolicy::new(control),
            recorder: Recorder::new(history + 1),
            slo: SloEngine::new(slos),
            incident_dir,
            incidents_written: 0,
            incident_seq: 0,
            last_gate_seq: 0,
        }
    }

    /// One round of the loop; see the module docs for the steps. Errors
    /// are reserved for broken invariants (poisoned gate, storage
    /// failure inside a commit, an unwritable incident directory);
    /// everything expected — faults, stale epochs, overload — comes
    /// back in [`OperatorTick::control`].
    pub fn tick(&mut self, svc: &QueryService) -> Result<OperatorTick> {
        let tick = self.policy.tick();
        let obs = refreshed_obs(svc);
        let transitions = match obs.registry() {
            Some(reg) => {
                self.recorder.record(reg, obs.now_ns());
                self.slo.evaluate(&self.recorder, &obs)
            }
            None => Vec::new(),
        };
        let view = self.cluster_view(svc);
        let control = self.control(svc, &obs, &view)?;
        let mut triggers: Vec<String> = transitions
            .iter()
            .filter(|t| t.to == obs::AlertState::Page)
            .map(|t| format!("slo-page:{}", t.slo))
            .collect();
        for t in svc.status().transitions {
            if t.seq > self.last_gate_seq {
                self.last_gate_seq = t.seq;
                if t.to == OverloadLevel::Shedding {
                    triggers.push("admission-shedding".to_owned());
                }
            }
        }
        let mut incidents = Vec::new();
        for trigger in triggers {
            incidents.extend(self.dump_incident(svc, &trigger)?);
        }
        Ok(OperatorTick {
            tick,
            transitions,
            incidents,
            control,
        })
    }

    /// The policy's observation under a brief engine borrow, with the
    /// windowed shard p99 (zero while the window holds no parallel
    /// query).
    fn cluster_view(&self, svc: &QueryService) -> ClusterView {
        let shard_p99 = self
            .recorder
            .windowed_quantile("ir_critical_path_seconds", 0.99, P99_WINDOW)
            .map_or(Duration::ZERO, |s| Duration::from_secs_f64(s.max(0.0)));
        svc.engine()
            .control_view(self.policy.config().loss_threshold, shard_p99)
    }

    /// Step 5: decide, gate, consult the fault plan, execute.
    fn control(
        &mut self,
        svc: &QueryService,
        obs: &Obs,
        view: &ClusterView,
    ) -> Result<ControlOutcome> {
        let Some(decision) = self.policy.evaluate(view) else {
            return Ok(ControlOutcome::Idle);
        };
        let action = decision.action();
        count_decision(obs, action);
        let describe = format!("{action}: {}", decision.reason());
        let faults = svc.engine().text_index().fault_plan().cloned();
        let outcome = if svc.gate().level() >= OverloadLevel::Brownout {
            count_decision(obs, "defer");
            ControlOutcome::Deferred(describe)
        } else if let Some(injected) = boundary_fault(faults.as_deref(), action) {
            ControlOutcome::Aborted(format!(
                "{describe} — injected {injected:?} fault before execution (cluster untouched)"
            ))
        } else {
            match decision {
                ControlDecision::Rereplicate { lost, .. } => {
                    rereplicate(svc, obs, faults.as_deref(), lost, describe)?
                }
                ControlDecision::Split { target, .. } | ControlDecision::Merge { target, .. } => {
                    self.rebalance(svc, obs, target, describe)?
                }
            }
        };
        let (verb, detail) = match &outcome {
            ControlOutcome::Idle => return Ok(outcome),
            ControlOutcome::Deferred(d) => ("deferred", d),
            ControlOutcome::Acted(d) => ("acted", d),
            ControlOutcome::Aborted(d) => ("aborted", d),
        };
        obs.record_event("control", || format!("{verb}: {detail}"));
        Ok(outcome)
    }

    /// A split or merge: one Batch permit, then the idf-aware
    /// rebalancer under the engine borrow (the cutover is atomic by
    /// construction). Success arms the policy cooldown; failure leaves
    /// the policy free to retry next tick.
    fn rebalance(
        &mut self,
        svc: &QueryService,
        obs: &Obs,
        target: usize,
        describe: String,
    ) -> Result<ControlOutcome> {
        let _permit = admit_batch(svc, obs)?;
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

    /// Assembles a self-contained incident report: what fired, what
    /// every SLO looked like, the gate, the cluster, the recent flight
    /// events, the retained slow traces and the full metrics dump.
    pub fn incident_report(&self, svc: &QueryService, trigger: &str) -> Json {
        let obs = refreshed_obs(svc);
        let cluster = self.cluster_view(svc);
        let overload = svc.status();
        let int = |n: usize| Json::Int(n as i64);
        let ints = |v: &[usize]| Json::Arr(v.iter().map(|&n| int(n)).collect());
        let slow = obs.slow_queries().into_iter().map(|e| {
            Json::Obj(vec![
                ("label".to_owned(), Json::str(e.label)),
                ("total_ns".to_owned(), Json::Int(e.total_ns as i64)),
                ("trace".to_owned(), Json::str(e.trace.render())),
            ])
        });
        let slos = self.slo.statuses().into_iter().map(|s| {
            Json::Obj(vec![
                ("name".to_owned(), Json::str(s.name)),
                ("state".to_owned(), Json::str(s.state.as_str())),
                ("fast_burn".to_owned(), Json::Num(s.fast_burn)),
                ("slow_burn".to_owned(), Json::Num(s.slow_burn)),
            ])
        });
        let p99_us = i64::try_from(cluster.shard_p99.as_micros()).unwrap_or(i64::MAX);
        Json::Obj(vec![
            ("schema_version".to_owned(), Json::Int(SCHEMA_VERSION)),
            ("kind".to_owned(), Json::str("incident")),
            ("trigger".to_owned(), Json::str(trigger)),
            (
                "tick".to_owned(),
                Json::Int(self.recorder.current_tick() as i64),
            ),
            ("slo".to_owned(), Json::Arr(slos.collect())),
            (
                "overload".to_owned(),
                Json::Obj(vec![
                    (
                        "level".to_owned(),
                        Json::str(format!("{:?}", overload.level)),
                    ),
                    ("running".to_owned(), int(overload.running)),
                    ("queued".to_owned(), int(overload.queued)),
                    ("admitted".to_owned(), Json::Int(overload.admitted as i64)),
                    ("rejected".to_owned(), Json::Int(overload.rejected as i64)),
                    ("timed_out".to_owned(), Json::Int(overload.timed_out as i64)),
                    ("completed".to_owned(), Json::Int(overload.completed as i64)),
                ]),
            ),
            (
                "cluster".to_owned(),
                Json::Obj(vec![
                    ("servers".to_owned(), int(cluster.servers)),
                    ("replication".to_owned(), int(cluster.replication)),
                    ("docs_per_shard".to_owned(), ints(&cluster.docs_per_shard)),
                    ("shard_p99_us".to_owned(), Json::Int(p99_us)),
                    ("lost_servers".to_owned(), ints(&cluster.lost_servers)),
                ]),
            ),
            (
                "events".to_owned(),
                Json::Arr(obs.flight_events().iter().map(|e| e.to_json()).collect()),
            ),
            ("slow_queries".to_owned(), Json::Arr(slow.collect())),
            (
                "metrics".to_owned(),
                obs.registry().map_or(Json::Null, |reg| reg.render_json()),
            ),
        ])
    }

    /// Writes one incident report to the incident directory, at most 8
    /// of them per operator. Returns the path written, or `None`
    /// when no directory is configured or the budget is spent (the
    /// suppression still counts in
    /// `engine_incident_dumps_suppressed_total`).
    pub fn dump_incident(&mut self, svc: &QueryService, trigger: &str) -> Result<Option<PathBuf>> {
        self.incident_seq += 1;
        let Some(dir) = self.incident_dir.clone() else {
            return Ok(None);
        };
        let obs = svc.engine().obs().clone();
        if self.incidents_written >= MAX_INCIDENTS {
            if let Some(reg) = obs.registry() {
                reg.counter(
                    "engine_incident_dumps_suppressed_total",
                    "Incident dumps skipped after max_incidents was reached",
                )
                .inc();
            }
            return Ok(None);
        }
        let report = self.incident_report(svc, trigger);
        let slug: String = trigger
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("incident-{:04}-{slug}.json", self.incident_seq));
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Incident(format!("incident dir {}: {e}", dir.display())))?;
        std::fs::write(&path, report.render())
            .map_err(|e| Error::Incident(format!("incident {}: {e}", path.display())))?;
        self.incidents_written += 1;
        if let Some(reg) = obs.registry() {
            reg.counter(
                "engine_incident_dumps_total",
                "Incident reports written to disk",
            )
            .inc();
        }
        let shown = path.display().to_string();
        obs.record_event("incident", move || format!("{trigger} -> {shown}"));
        Ok(Some(path))
    }
}

/// Background re-replication, two-brief-locks: begin under the engine
/// borrow, rebuild in admission-gated chunks off-lock, commit under the
/// borrow behind the epoch check.
fn rereplicate(
    svc: &QueryService,
    obs: &Obs,
    faults: Option<&FaultPlan>,
    lost: usize,
    describe: String,
) -> Result<ControlOutcome> {
    let mut job = match svc.engine().begin_text_rereplication(lost) {
        Ok(job) => job,
        Err(e) => return Ok(ControlOutcome::Aborted(format!("{describe} — {e}"))),
    };
    while !job.is_done() {
        let _permit = admit_batch(svc, obs)?;
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

/// Re-stamps the scrape-time gauges under a brief engine borrow and
/// returns the engine's observability handle.
fn refreshed_obs(svc: &QueryService) -> Obs {
    let engine = svc.engine();
    engine.refresh_scrape_gauges();
    engine.obs().clone()
}

/// The policy/mechanism boundary is a fault site of its own: a scripted
/// `control:<action>` fault kills the decision before any side effect.
fn boundary_fault(plan: Option<&FaultPlan>, action: &str) -> Option<FaultAction> {
    let plan = plan?;
    let label = format!("control:{action}");
    std::thread::sleep(plan.decide_delay(&label));
    Some(plan.decide(&label)).filter(|a| *a != FaultAction::None)
}

fn count_decision(obs: &Obs, action: &str) {
    if let Some(reg) = obs.registry() {
        reg.labeled_counter(
            "ir_control_decisions_total",
            DECISIONS_HELP,
            "action",
            action,
        )
        .inc();
    }
}

/// One background admission (the discipline online maintenance follows
/// too), counted as proof the control plane's work went through the gate.
fn admit_batch(svc: &QueryService, obs: &Obs) -> Result<Permit> {
    let permit = svc.gate().admit_background()?;
    if let Some(reg) = obs.registry() {
        reg.counter(
            "engine_control_batch_admissions_total",
            "Batch-class gate permits granted to the control plane",
        )
        .inc();
    }
    Ok(permit)
}
