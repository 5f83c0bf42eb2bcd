//! Online maintenance: detector upgrades and circuit-breaker heals
//! that run as background jobs while the engine keeps serving.
//!
//! The read path and the maintenance path are split. A job begins
//! under a brief engine borrow ([`crate::Engine::begin_upgrade`] /
//! [`crate::Engine::begin_heal`]): it pins the meta-index epoch,
//! captures a snapshot of the stored parse trees, and — for upgrades —
//! installs the new detector implementation in the shared registry,
//! keeping the old `(version, impl)` pair for rollback. The engine is
//! then free: interactive queries keep answering from the live,
//! epoch-pinned store (foreground queries never execute detectors, so
//! the early registry swap cannot change an answer).
//!
//! [`MaintenanceJob::run`] does the expensive work off-lock, against a
//! private restore of the pinned snapshot: it re-parses exactly the
//! objects the invalidation plan touches and collects the new trees as
//! *deltas*. Every job is admitted through the
//! [`crate::AdmissionGate`] in the `Batch` class, one permit per chunk
//! of objects, so the overload ladder can pause (Brownout) or refuse
//! (Shedding) maintenance whenever interactive traffic needs the
//! capacity — the interference bound is the one Batch slot a chunk
//! occupies. (An engine nobody serves from owns an idle gate, which
//! admits at once.)
//!
//! Cutover is epoch-consistent: [`crate::Engine::commit_maintenance`]
//! re-checks the pinned epoch under the engine borrow and applies every
//! delta in one critical section, so in-flight queries see either the
//! old store or the new one, never a half-upgraded mix. A job that
//! dies mid-run (injected fault, failed re-parse) is aborted instead:
//! [`crate::Engine::abort_maintenance`] swaps the old implementation
//! back and drops the private copy, leaving the live store
//! byte-identical to never-ran.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acoi::{
    DetectorFn, DetectorRegistry, Fds, MetaIndex, ParseTree, RevisionLevel, Token, Version,
};
use acoi::fds::InvalidationPlan;
use faults::{FaultAction, FaultPlan};
use feagram::Grammar;
use monetxml::XmlStore;

use crate::admission::{AdmissionGate, Permit};
use crate::error::{Error, Result};

/// What a maintenance job is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceKind {
    /// A detector implementation upgrade at some revision level.
    Upgrade {
        /// The revision level of the new implementation.
        level: RevisionLevel,
    },
    /// A heal: re-parse objects whose stored trees carry
    /// rejected-with-cause holes left by a detector outage.
    Heal,
}

impl MaintenanceKind {
    /// The metric label of this kind
    /// (`correction` / `minor` / `major` / `heal`).
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceKind::Upgrade { level: RevisionLevel::Correction } => "correction",
            MaintenanceKind::Upgrade { level: RevisionLevel::Minor } => "minor",
            MaintenanceKind::Upgrade { level: RevisionLevel::Major } => "major",
            MaintenanceKind::Heal => "heal",
        }
    }
}

/// Objects re-parsed per Batch admission. Each chunk holds one gate
/// permit, so this is the unit of interference maintenance can cause
/// before the ladder gets a chance to push back again. The operator's
/// re-replication rebuilds this many copies per admission too.
pub(crate) const ADMIT_CHUNK: usize = 4;

/// Marks a detector busy in the engine's in-flight set for the life of
/// one maintenance job. Acquired as the *first* step of a begin —
/// before any side effect like the registry swap — so a second
/// `begin_*` on the same detector is refused with a typed
/// [`Error::MaintenanceBusy`] while the first job still exists.
/// Dropping the guard (commit, abort, or simply dropping the job)
/// releases the detector again.
pub(crate) struct BusyGuard {
    set: Arc<Mutex<HashSet<String>>>,
    detector: String,
}

impl BusyGuard {
    /// Claims `detector` in the shared in-flight set, or refuses with
    /// [`Error::MaintenanceBusy`] when a job already holds it.
    pub(crate) fn acquire(
        set: &Arc<Mutex<HashSet<String>>>,
        detector: &str,
    ) -> Result<BusyGuard> {
        let mut inflight = set
            .lock()
            .map_err(|_| Error::Config("maintenance in-flight set poisoned".to_owned()))?;
        if !inflight.insert(detector.to_owned()) {
            return Err(Error::MaintenanceBusy {
                detector: detector.to_owned(),
            });
        }
        Ok(BusyGuard {
            set: Arc::clone(set),
            detector: detector.to_owned(),
        })
    }
}

impl Drop for BusyGuard {
    fn drop(&mut self) {
        if let Ok(mut inflight) = self.set.lock() {
            inflight.remove(&self.detector);
        }
    }
}

/// One in-flight maintenance job. Created by
/// [`crate::Engine::begin_upgrade`] / [`crate::Engine::begin_heal`],
/// driven by [`MaintenanceJob::run`] (no engine access needed), then
/// handed back to [`crate::Engine::commit_maintenance`] or
/// [`crate::Engine::abort_maintenance`].
pub struct MaintenanceJob {
    pub(crate) detector: String,
    pub(crate) kind: MaintenanceKind,
    pub(crate) plan: InvalidationPlan,
    /// Meta-store epoch at begin; commit refuses to cut over when the
    /// live store moved past it.
    pub(crate) pinned_meta_epoch: u64,
    /// Snapshot of the meta store at begin — the job's private epoch.
    pub(crate) snapshot: Vec<u8>,
    /// Initial token sets of every source at begin (the store snapshot
    /// does not record them).
    pub(crate) initial: HashMap<String, Vec<Token>>,
    pub(crate) grammar: Grammar,
    pub(crate) registry: Arc<DetectorRegistry>,
    /// The pre-upgrade `(version, impl)` pair, reinstalled on abort.
    /// `None` for heals (nothing was swapped).
    pub(crate) rollback: Option<(Version, DetectorFn)>,
    /// The version installed at begin (upgrades only) — part of the
    /// fault-injection label, so chaos schedules can target one
    /// specific upgrade cycle.
    pub(crate) new_version: Option<Version>,
    /// Re-parsed trees awaiting cutover, in source order.
    pub(crate) deltas: Vec<(String, Vec<Token>, ParseTree)>,
    pub(crate) objects_reparsed: usize,
    pub(crate) objects_untouched: usize,
    pub(crate) detector_calls: usize,
    pub(crate) detector_calls_saved: usize,
    /// The engine's fault plan, if it has one, consulted once per object.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// The engine's admission gate.
    pub(crate) gate: Arc<AdmissionGate>,
    pub(crate) obs: obs::Obs,
    /// Holds the detector's slot in the engine's in-flight set;
    /// released when the job is committed, aborted or dropped.
    pub(crate) _busy: BusyGuard,
    /// Begin time, taken only when observability is enabled (disabled
    /// engines must stay clock-free and byte-identical).
    pub(crate) started: Option<Instant>,
}

impl MaintenanceJob {
    /// The detector this job maintains.
    pub fn detector(&self) -> &str {
        &self.detector
    }

    /// What the job is doing.
    pub fn kind(&self) -> MaintenanceKind {
        self.kind
    }

    /// Re-parsed objects collected so far (deltas awaiting cutover).
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// The fault-injection label this job consults once per object:
    /// `maintenance:<detector>:<new-version>` for upgrades,
    /// `maintenance:<detector>:heal` for heals.
    pub fn fault_label(&self) -> String {
        match self.new_version {
            Some(v) => format!("maintenance:{}:{v}", self.detector),
            None => format!("maintenance:{}:heal", self.detector),
        }
    }

    /// Does the expensive half of the job, entirely off the engine:
    /// restores the pinned snapshot into a private meta-index, walks
    /// every source the plan touches (one Batch permit per
    /// `ADMIT_CHUNK` objects), and collects the re-parsed trees
    /// as deltas. On any error the job is dead — hand it to
    /// [`crate::Engine::abort_maintenance`]; the live store was never
    /// touched.
    pub fn run(&mut self) -> Result<()> {
        let mut span = self.obs.span("engine.maintenance");
        let out = self.run_inner(&mut span);
        if out.is_err() {
            span.set_outcome(obs::Outcome::Rejected);
        }
        out
    }

    fn run_inner(&mut self, span: &mut obs::Span) -> Result<()> {
        let store = XmlStore::restore(&self.snapshot)?;
        self.snapshot = Vec::new();
        let initial = std::mem::take(&mut self.initial);
        let mut index =
            MetaIndex::from_store(store, |s| initial.get(s).cloned().unwrap_or_default());
        let sources: Vec<String> = index.sources().to_vec();

        // Corrections invalidate nothing: the version bump installed at
        // begin is the whole job.
        if self.plan.priority == acoi::fds::Priority::None {
            self.objects_untouched = sources.len();
            return Ok(());
        }

        let fds = Fds::new(&self.grammar);
        let stale: BTreeSet<String> = self.plan.stale_symbols();
        for chunk in sources.chunks(ADMIT_CHUNK) {
            let _permit = self.admit_batch()?;
            for source in chunk {
                self.consult_faults(source)?;
                let done = match self.kind {
                    MaintenanceKind::Upgrade { .. } => fds.reparse_object(
                        &self.grammar,
                        &self.registry,
                        &mut index,
                        source,
                        &self.detector,
                        &stale,
                    ),
                    MaintenanceKind::Heal => fds.heal_object(
                        &self.grammar,
                        &self.registry,
                        &mut index,
                        source,
                        &self.detector,
                    ),
                }
                .map_err(|e| Error::Maintenance {
                    detector: self.detector.clone(),
                    cause: e.to_string(),
                })?;
                match done {
                    None => self.objects_untouched += 1,
                    Some(done) => {
                        self.detector_calls += done.detector_calls;
                        self.detector_calls_saved += done.detector_calls_saved;
                        // Keep the private copy current too, so the
                        // job's view stays a consistent next epoch.
                        index
                            .insert(source, done.initial.clone(), &done.tree)
                            .map_err(Error::Acoi)?;
                        self.deltas.push((source.clone(), done.initial, done.tree));
                        self.objects_reparsed += 1;
                    }
                }
                span.add_work(1);
            }
        }
        Ok(())
    }

    /// One injected-fault consultation per object. A scripted or drawn
    /// fault kills the job with a typed error — the caller aborts and
    /// the live store stays byte-identical.
    fn consult_faults(&self, source: &str) -> Result<()> {
        let Some(plan) = &self.faults else { return Ok(()) };
        match plan.decide(&self.fault_label()) {
            FaultAction::None => Ok(()),
            action => Err(Error::Maintenance {
                detector: self.detector.clone(),
                cause: format!("injected {action:?} fault at `{source}`"),
            }),
        }
    }

    /// Admission of the next chunk, counted as proof that the work went
    /// through the gate as background traffic.
    fn admit_batch(&self) -> Result<Permit> {
        let permit = self.gate.admit_background()?;
        if let Some(reg) = self.obs.registry() {
            reg.counter(
                "engine_maintenance_batch_admissions_total",
                "Batch-class gate permits granted to maintenance jobs",
            )
            .inc();
        }
        Ok(permit)
    }
}
