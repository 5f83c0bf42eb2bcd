//! The search engine: lifecycle stages over the three levels.
//!
//! * **Modeling** — an [`EngineConfig`] carries the webspace schema, the
//!   re-engineering template rules, the feature grammar and the detector
//!   registry (the developer "does not have to model all the system
//!   levels: the focus is on the upper levels").
//! * **Populating** — [`Engine::populate`] runs the crawler output
//!   through the web-object retriever, stores every materialized view as
//!   an XML document (the physical level), feeds Hypertext attributes to
//!   the full-text indexer, and hands every Video and Audio attribute to
//!   the FDE, whose parse tree lands in the meta-index.
//! * **Maintaining** — [`Engine::begin_upgrade`] delegates to the FDS:
//!   incremental re-parses with memoised detector outputs.
//! * **Querying** — [`Engine::execute`] (and [`Engine::query`], its
//!   hits alone) combines conceptual selection, ranked text retrieval
//!   and media-event evidence into one answer.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use acoi::{DetectorRegistry, Fde, Fds, MaintenanceReport, MetaIndex, RevisionLevel, Token};
use faults::{Budget, FaultPlan};
use feagram::{FeatureValue, Grammar};
use monet::storage::{write_atomic, FsBackend, StorageBackend};
use monet::wal::{Wal, WalHandle};
use monetxml::XmlStore;
use webspace::{AttrValue, MaterializedView, MediaType, Retriever, WebspaceIndex, WebspaceSchema};

use crate::admission::{AdmissionConfig, AdmissionGate, OverloadLevel, QueryOutcome};
use crate::error::{Error, PartialProgress, Result};
use crate::maintenance::{MaintenanceJob, MaintenanceKind};
use crate::persist::{
    self, Manifest, RecoveryReport, MANIFEST, MANIFEST_PREV, WAL_DIR,
};
use crate::query::{EngineHit, EngineQuery};
use crate::shots::MediaPaths;

/// Everything the developer models up front.
pub struct EngineConfig {
    /// The conceptual schema.
    pub schema: WebspaceSchema,
    /// Template rules for HTML re-engineering.
    pub retriever: Retriever,
    /// The feature grammar source (e.g.
    /// [`feagram::paper::VIDEO_GRAMMAR`]).
    pub grammar_source: String,
    /// Implementations for the grammar's blackbox detectors.
    pub registry: DetectorRegistry,
    /// Shared-nothing text servers backing full-text retrieval. `1`
    /// keeps the single-server semantics (and byte-identical rankings);
    /// more servers distribute documents per-document and answer
    /// queries in parallel, degrading gracefully when servers fail.
    pub text_servers: usize,
    /// Replicas per text shard, each placed on a distinct server.
    /// `0` keeps the unreplicated semantics; with `R > 0` each query
    /// reads one rotating copy per shard group (answers stay
    /// byte-identical — replicas are exact copies) and fails over to
    /// another copy before ever degrading, as long as any copy of the
    /// shard's group survives. Must leave room for distinct hosts
    /// (`text_replicas < text_servers` unless 0).
    pub text_replicas: usize,
    /// Fault plan consulted by the text servers (labels `shard:<i>`).
    /// `None` means no injection anywhere.
    pub faults: Option<Arc<FaultPlan>>,
}

/// What one population run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulateReport {
    /// Pages processed.
    pub pages: usize,
    /// Web objects extracted (after merging).
    pub objects: usize,
    /// Association instances extracted.
    pub associations: usize,
    /// Hypertext attributes indexed for full text.
    pub text_documents: usize,
    /// Multimedia objects (videos, audio clips) analysed by the FDE.
    pub media_analyzed: usize,
    /// Multimedia objects whose analysis was rejected by the grammar.
    pub media_rejected: usize,
    /// Multimedia objects analysed, but with holes: one or more
    /// detectors were unavailable, so their parse tree carries
    /// rejected-with-cause nodes awaiting a heal.
    pub media_degraded: usize,
    /// Total unavailable-detector failures recorded across the run
    /// (rejected nodes over all degraded objects).
    pub detector_failures: usize,
    /// Blackbox detector executions during analysis.
    pub detector_calls: usize,
}

/// Wall-clock breakdown of one [`Engine::populate`] run, by stage.
/// Deliberately **not** part of [`PopulateReport`]: reports are
/// compared byte-for-byte across runs, and wall clocks never are.
/// Retrieved via [`Engine::last_populate_timings`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Conceptual extraction (page parsing + view finalization).
    pub extract_ms: f64,
    /// Physical storage: view documents + merged object graph.
    pub store_ms: f64,
    /// Schema walk collecting the text and media workloads.
    pub collect_ms: f64,
    /// Full-text indexing of the hypertext attributes.
    pub text_ms: f64,
    /// Media analysis (detector cascade), wall time of the whole stage.
    pub analyse_ms: f64,
    /// Time spent merging parse trees into the meta-index (a subset of
    /// the analyse stage's wall time).
    pub merge_ms: f64,
}

/// The integrated search engine.
pub struct Engine {
    schema: WebspaceSchema,
    retriever: Retriever,
    grammar: Grammar,
    /// Shared with background maintenance jobs, which install upgraded
    /// implementations through its interior locks while the engine
    /// keeps serving (foreground queries never execute detectors, so
    /// the early swap cannot change an answer).
    registry: Arc<DetectorRegistry>,
    webspace: WebspaceIndex,
    /// Conceptual data as stored XML (the physical level's view store).
    views: XmlStore,
    text: ir::DistributedIndex,
    meta: MetaIndex,
    fds: Fds,
    /// Epoch-keyed LRU cache of full query answers.
    query_cache: QueryCache,
    /// Wired in by [`Engine::persist_to`] / [`Engine::open`]: the
    /// storage backend, WAL and current checkpoint generation.
    durability: Option<Durability>,
    /// The admission gate and degradation ladder. Shared with any
    /// [`crate::admission::QueryService`] wrapping this engine.
    admission: Arc<AdmissionGate>,
    /// The fault plan shared with the text servers, kept so
    /// [`Engine::set_obs`] can thread observability into it too.
    faults_plan: Option<Arc<FaultPlan>>,
    /// Observability handle. Disabled by default: no clock reads, no
    /// recording, byte-identical answers. [`Engine::set_obs`] turns the
    /// lights on across every layer.
    obs: obs::Obs,
    /// Engine-level metric handles, present iff obs is enabled.
    metrics: Option<EngineMetrics>,
    /// The recovery report of the `open` that produced this engine.
    last_recovery: Option<RecoveryReport>,
    /// Per-stage wall-clock breakdown of the most recent populate run.
    last_populate_timings: StageTimings,
    /// Detectors with a maintenance job in flight. Shared with each
    /// job's busy guard, which releases its entry on commit, abort or
    /// drop — a second `begin_*` on the same detector is refused with
    /// [`Error::MaintenanceBusy`] instead of clobbering the first
    /// job's pinned snapshot.
    maintenance_inflight: Arc<Mutex<HashSet<String>>>,
    /// The last control-plane decision executed against this engine
    /// (action + reason), surfaced by EXPLAIN ANALYZE.
    last_control_decision: Option<String>,
}

/// Engine-level metric handles, registered once in
/// [`Engine::set_obs`]. Counters record at event time; gauges are
/// refreshed from live state on every [`Engine::metrics_text`] scrape.
struct EngineMetrics {
    queries: obs::Counter,
    query_deadlines: obs::Counter,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    degraded_answers: obs::Counter,
    populate_runs: obs::Counter,
    populate_pages: obs::Counter,
    media_analyzed: obs::Counter,
    detector_calls: obs::Counter,
    checkpoints: obs::Counter,
    query_cache_entries: obs::Gauge,
    views_epoch: obs::Gauge,
    meta_epoch: obs::Gauge,
    text_epoch: obs::Gauge,
    snapshot_generation: obs::Gauge,
    recovery_wal_replayed: obs::Gauge,
    recovery_wal_skipped: obs::Gauge,
    recovery_fell_back: obs::Gauge,
    /// Scrape-time sum of `Db::resident_bytes` over the view store's,
    /// the meta-index store's and each *primary* text shard's BAT
    /// catalog, plus the posting index of every text copy, replicas
    /// included. It leaves out the replicas' catalogs, `XmlStore`'s
    /// root registry and source → root map, the path summaries, the
    /// webspace index and the caches (DESIGN §10), so it, and
    /// `dlbench`'s `resident_bytes_per_page` read from it, undercount.
    monet_bytes_resident: obs::Gauge,
    monet_dict_entries: obs::Gauge,
    monet_dict_hit_ratio: obs::Gauge,
    /// Per-detector heal-backlog gauges (`engine_heal_backlog`),
    /// registered on first sight of a detector and re-stamped at every
    /// meta-index mutation point (the backlog cannot change between
    /// mutations, and the scan needs mutable store access).
    heal_backlog: HashMap<String, obs::Gauge>,
}

impl EngineMetrics {
    fn register(reg: &obs::Registry) -> EngineMetrics {
        EngineMetrics {
            queries: reg.counter("engine_queries_total", "Queries executed (all entry points)"),
            query_deadlines: reg.counter(
                "engine_query_deadline_total",
                "Queries cancelled by their budget",
            ),
            cache_hits: reg.counter(
                "engine_query_cache_hits_total",
                "Answers served from the epoch-keyed query cache",
            ),
            cache_misses: reg.counter(
                "engine_query_cache_misses_total",
                "Cache consultations that had to execute the query",
            ),
            degraded_answers: reg.counter(
                "engine_degraded_answers_total",
                "Answers stamped DEGRADED (brownout cuts or failed shards)",
            ),
            populate_runs: reg.counter("engine_populate_runs_total", "Population runs"),
            populate_pages: reg.counter(
                "engine_populate_pages_total",
                "Crawled pages processed across population runs",
            ),
            media_analyzed: reg.counter(
                "engine_media_analyzed_total",
                "Multimedia objects analysed by the FDE",
            ),
            detector_calls: reg.counter(
                "engine_detector_calls_total",
                "Blackbox detector executions during population",
            ),
            checkpoints: reg.counter("engine_checkpoints_total", "Checkpoints committed"),
            query_cache_entries: reg.gauge(
                "engine_query_cache_entries",
                "Distinct answers currently cached",
            ),
            views_epoch: reg.gauge("engine_views_epoch", "Mutation epoch of the view store"),
            meta_epoch: reg.gauge("engine_meta_epoch", "Mutation epoch of the meta-index store"),
            text_epoch: reg.gauge("engine_text_epoch", "Combined mutation epoch of the text shards"),
            snapshot_generation: reg.gauge(
                "engine_snapshot_generation",
                "Generation of the newest committed checkpoint",
            ),
            recovery_wal_replayed: reg.gauge(
                "engine_recovery_wal_replayed",
                "WAL records replayed by the recovery that opened this engine",
            ),
            recovery_wal_skipped: reg.gauge(
                "engine_recovery_wal_skipped",
                "WAL records skipped as already applied during recovery",
            ),
            recovery_fell_back: reg.gauge(
                "engine_recovery_fell_back",
                "1 when recovery fell back past the newest checkpoint generation",
            ),
            monet_bytes_resident: reg.gauge(
                "monet_bytes_resident",
                "Bytes resident in materialized BAT catalogs (views, meta, text shards)",
            ),
            monet_dict_entries: reg.gauge(
                "monet_dict_entries",
                "Distinct strings across the catalogs' shared dictionaries",
            ),
            monet_dict_hit_ratio: reg.gauge(
                "monet_dict_hit_ratio",
                "Dictionary intern hit ratio, in per-mille (987 = 98.7% of interns were repeats)",
            ),
            heal_backlog: HashMap::new(),
        }
    }
}

/// The durable half of an engine: where checkpoints live and the log
/// every mutation goes through first.
struct Durability {
    dir: PathBuf,
    backend: Arc<dyn StorageBackend>,
    wal: Arc<Mutex<Wal>>,
    /// Generation of the newest committed checkpoint.
    snapshot_id: u64,
}

fn lock_wal(wal: &Arc<Mutex<Wal>>) -> Result<std::sync::MutexGuard<'_, Wal>> {
    wal.lock()
        .map_err(|_| Error::Persist(monet::Error::Wal("log mutex poisoned".into())))
}

/// How many distinct query answers [`QueryCache`] retains.
const QUERY_CACHE_CAPACITY: usize = 64;

/// LRU cache of complete query answers, validated by store epochs.
///
/// A cached answer is only returned while the `(views, meta, text)`
/// epoch triple it was computed under still matches the stores, so any
/// ingestion or maintenance makes stale entries unreachable even
/// without an explicit [`QueryCache::clear`] (the mutating engine
/// entry points clear eagerly anyway, to free the memory).
struct QueryCache {
    capacity: usize,
    entries: HashMap<String, CachedAnswer>,
    /// Recency order, least recent first.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

#[derive(Clone)]
struct CachedAnswer {
    /// `(views, meta, text)` store epochs at compute time.
    epochs: (u64, u64, u64),
    hits: Vec<EngineHit>,
    /// The [`TextQueryStatus`] the answer was produced with; a cache
    /// hit reports it again.
    text: Option<TextQueryStatus>,
}

impl QueryCache {
    fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, key: &str, epochs: (u64, u64, u64)) -> Option<CachedAnswer> {
        let fresh = match self.entries.get(key) {
            Some(entry) => entry.epochs == epochs,
            None => {
                self.misses += 1;
                return None;
            }
        };
        if !fresh {
            self.misses += 1;
            self.entries.remove(key);
            self.order.retain(|k| k != key);
            return None;
        }
        self.hits += 1;
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos).expect("position from iter");
            self.order.push_back(k);
        }
        self.entries.get(key).cloned()
    }

    fn insert(&mut self, key: String, answer: CachedAnswer) {
        if self.entries.insert(key.clone(), answer).is_some() {
            self.order.retain(|k| k != &key);
        }
        self.order.push_back(key);
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
    }

    /// Drops every entry; the hit/miss counters survive.
    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// Shard status of the text retrieval behind an answer: how distributed
/// (and how degraded) the ranking was. Travels in
/// [`QueryOutcome::text`].
#[derive(Debug, Clone, PartialEq)]
pub struct TextQueryStatus {
    /// Text servers whose local ranking made it into the merge.
    pub shards_ok: usize,
    /// Text servers that failed (error, hang past deadline, panic).
    pub shards_failed: usize,
    /// Which servers failed.
    pub failed_shards: Vec<usize>,
    /// Shard groups whose selected copy failed but another copy
    /// answered — the group still counts towards `shards_ok` and full
    /// quality.
    pub failovers: usize,
    /// Estimated answer quality: fraction of the collection's documents
    /// held by surviving servers.
    pub quality: f64,
    /// Which copy index served each shard group (`0` = primary), in
    /// group order. `None` for a group no copy answered.
    pub served_by: Vec<Option<usize>>,
}

/// The per-call parameters of [`Engine::execute`]. The default is an
/// unlimited budget, full fidelity and no trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions<'a> {
    /// The end-to-end budget; `None` is unlimited.
    pub budget: Option<&'a Budget>,
    /// The rung of the degradation ladder to answer at.
    pub level: OverloadLevel,
    /// Whether to collect the EXPLAIN ANALYZE phase tree.
    pub trace: bool,
}

impl Engine {
    /// Builds an engine from its model.
    pub fn new(config: EngineConfig) -> Result<Engine> {
        let grammar = feagram::parse_grammar(&config.grammar_source)?;
        let fds = Fds::new(&grammar);
        let mut text = ir::DistributedIndex::with_replication(
            config.text_servers,
            ir::ScoreModel::TfIdf,
            config.text_replicas,
        )
        .map_err(Error::Ir)?;
        if let Some(plan) = &config.faults {
            text.set_fault_plan(Arc::clone(plan));
        }
        Ok(Engine {
            webspace: WebspaceIndex::new(config.schema.clone()),
            schema: config.schema,
            retriever: config.retriever,
            grammar,
            registry: Arc::new(config.registry),
            views: XmlStore::new(),
            text,
            meta: MetaIndex::new(),
            fds,
            query_cache: QueryCache::new(QUERY_CACHE_CAPACITY),
            durability: None,
            admission: AdmissionGate::new(AdmissionConfig::default()),
            faults_plan: config.faults,
            obs: obs::Obs::disabled(),
            metrics: None,
            last_recovery: None,
            last_populate_timings: StageTimings::default(),
            maintenance_inflight: Arc::new(Mutex::new(HashSet::new())),
            last_control_decision: None,
        })
    }

    /// Opens a durable engine from `dir` (the real filesystem):
    /// recovers the newest valid checkpoint, replays the WAL tail, and
    /// leaves the engine logging to the same WAL. See
    /// [`Engine::open_with_backend`].
    pub fn open(config: EngineConfig, dir: impl AsRef<Path>) -> Result<(Engine, RecoveryReport)> {
        Self::open_with_backend(config, FsBackend::shared(), dir)
    }

    /// Opens a durable engine through an arbitrary storage backend.
    ///
    /// Recovery: load the newest checkpoint generation whose manifest
    /// and snapshots all pass their CRC-32 checks (falling back to the
    /// previous generation when the newest is corrupt or torn), resume
    /// the store epochs recorded in the manifest, replay every intact
    /// WAL record past the manifest's watermark (a torn final record —
    /// a crashed append — is silently dropped; replay is idempotent),
    /// then rebuild the derived state: the webspace graph from the
    /// stored views, the meta-index registry from the stored parse
    /// trees. The returned [`RecoveryReport`] says what was loaded,
    /// replayed, skipped and — on fallback — why.
    pub fn open_with_backend(
        config: EngineConfig,
        backend: Arc<dyn StorageBackend>,
        dir: impl AsRef<Path>,
    ) -> Result<(Engine, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        let faults = config.faults.clone();
        let mut engine = Engine::new(config)?;
        let mut report = RecoveryReport::default();

        let wal = monet::wal::open_shared(Arc::clone(&backend), dir.join(WAL_DIR))
            .map_err(Error::Persist)?;
        let generation = match persist::load_newest_generation(backend.as_ref(), &dir, &mut report)
        {
            Ok(g) => g,
            Err(e) => {
                // Every checkpoint generation is corrupt. Last resort:
                // if the log still reaches back to LSN 0 — no checkpoint
                // ever garbage-collected it — empty stores plus a full
                // replay reproduce every logged write.
                let reaches_origin = lock_wal(&wal)?
                    .replay_from(0)
                    .map_err(Error::Persist)?
                    .first()
                    .map(|r| r.lsn)
                    == Some(0);
                if !reaches_origin {
                    return Err(e);
                }
                report.fell_back = true;
                report.snapshot_id = 0;
                report.notes.push(format!(
                    "{e}; the log still reaches LSN 0 — rebuilding every store by full replay"
                ));
                None
            }
        };
        let configured_servers = engine.text.servers();
        let configured_replicas = engine.text.replication();
        let (mut views, mut meta_store, mut text, watermark) = match generation {
            Some(g) => {
                if g.manifest.shard_epochs.len() != configured_servers {
                    report.notes.push(format!(
                        "config asks for {configured_servers} text servers but the checkpoint \
                         was written with {}; using the checkpoint's count (routing depends on it)",
                        g.manifest.shard_epochs.len()
                    ));
                }
                let mut views = g.views;
                let mut meta_store = g.meta_store;
                let mut text = g.text;
                if text.replication() != configured_replicas {
                    // Replicas are derived state (snapshots of their
                    // primaries), so unlike the shard count the config
                    // wins: rebuild the replica sets at the requested
                    // factor — unless it cannot place distinct hosts.
                    match text.set_replication(configured_replicas) {
                        Ok(()) => report.notes.push(format!(
                            "checkpoint was written with {} text replica(s); rebuilt at the \
                             configured {configured_replicas}",
                            g.manifest.text_replicas
                        )),
                        Err(e) => report.notes.push(format!(
                            "cannot apply configured text replication {configured_replicas} \
                             to the checkpoint's {} server(s) ({e}); keeping {}",
                            g.manifest.shard_epochs.len(),
                            g.manifest.text_replicas
                        )),
                    }
                }
                // Resume epochs monotonically from the manifest BEFORE
                // replay, so replayed mutations advance past every
                // epoch value the previous process could have exposed.
                views.set_epoch(g.manifest.views_epoch);
                meta_store.set_epoch(g.manifest.meta_epoch);
                text.set_shard_epochs(&g.manifest.shard_epochs);
                (views, meta_store, text, g.manifest.watermark)
            }
            None => (
                XmlStore::new(),
                XmlStore::new(),
                ir::DistributedIndex::with_replication(
                    configured_servers,
                    ir::ScoreModel::TfIdf,
                    configured_replicas,
                )
                .map_err(Error::Ir)?,
                0,
            ),
        };

        // Replay the WAL tail into the raw stores (no WAL attached yet,
        // so replayed operations are not re-logged).
        let records = lock_wal(&wal)?.replay_from(watermark).map_err(Error::Persist)?;
        persist::apply_wal_records(&mut views, &mut meta_store, &mut text, &records, &mut report)?;

        // Rebuild derived state from the recovered stores.
        engine.webspace = WebspaceIndex::new(engine.schema.clone());
        for root in views.roots().to_vec() {
            let doc = views.reconstruct(root)?;
            let view = MaterializedView::from_document(&doc)?;
            engine.webspace.add_view(&view)?;
        }
        engine.views = views;
        engine.meta = MetaIndex::from_store(meta_store, |location| {
            vec![Token::new(
                "location",
                FeatureValue::url(location.to_owned()),
            )]
        });
        if let Some(plan) = &faults {
            text.set_fault_plan(Arc::clone(plan));
        }
        engine.text = text;

        engine.attach_wal(&wal);
        engine.durability = Some(Durability {
            dir,
            backend,
            wal,
            snapshot_id: report.snapshot_id,
        });
        engine.last_recovery = Some(report.clone());
        Ok((engine, report))
    }

    /// Checkpoints the engine to `dir` on the real filesystem. See
    /// [`Engine::persist_to_backend`].
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> Result<()> {
        self.persist_to_backend(FsBackend::shared(), dir)
    }

    /// Checkpoints the engine through an arbitrary storage backend and
    /// leaves it durable: every subsequent insert/delete is logged to
    /// the WAL in `dir` before any store mutates.
    ///
    /// The write order makes the manifest swap the commit point: all
    /// snapshot files land atomically first (temp + rename), then
    /// `MANIFEST` rotates to `MANIFEST.prev` and the new manifest takes
    /// its place. A crash at any step leaves either the old or the new
    /// generation fully intact. Afterwards, snapshots older than the
    /// fallback generation and WAL segments below its watermark are
    /// garbage-collected.
    pub fn persist_to_backend(
        &mut self,
        backend: Arc<dyn StorageBackend>,
        dir: impl AsRef<Path>,
    ) -> Result<()> {
        let dir = dir.as_ref().to_path_buf();
        let mut checkpoint_span = self.obs.span("engine.checkpoint");
        backend.create_dir_all(&dir).map_err(Error::Persist)?;

        // Reuse the live WAL when re-checkpointing the same directory
        // (a fresh open would be fine too, but pointless); otherwise
        // open the log now so the manifest can record its watermark.
        let wal = match &self.durability {
            Some(d) if d.dir == dir => Arc::clone(&d.wal),
            _ => monet::wal::open_shared(Arc::clone(&backend), dir.join(WAL_DIR))
                .map_err(Error::Persist)?,
        };
        lock_wal(&wal)?.flush().map_err(Error::Persist)?;
        let watermark = lock_wal(&wal)?.next_lsn();

        let prev = if backend.exists(&dir.join(MANIFEST)) {
            let bytes = backend.read(&dir.join(MANIFEST)).map_err(Error::Persist)?;
            Manifest::decode(&bytes).ok()
        } else {
            None
        };
        let id = prev.as_ref().map(|m| m.snapshot_id).unwrap_or(0) + 1;

        // Snapshots first (each atomic on its own)…
        let views_bytes = self.views.snapshot()?;
        write_atomic(backend.as_ref(), &persist::views_snap(&dir, id), &views_bytes)
            .map_err(Error::Persist)?;
        let meta_bytes = self.meta.store().snapshot()?;
        write_atomic(backend.as_ref(), &persist::meta_snap(&dir, id), &meta_bytes)
            .map_err(Error::Persist)?;
        let shard_bytes = self.text.snapshot_shards().map_err(Error::Ir)?;
        for (k, bytes) in shard_bytes.iter().enumerate() {
            write_atomic(backend.as_ref(), &persist::text_snap(&dir, id, k), bytes)
                .map_err(Error::Persist)?;
        }

        // …then the manifest swap commits the generation.
        let manifest = Manifest {
            snapshot_id: id,
            watermark,
            views_epoch: self.views.epoch(),
            meta_epoch: self.meta.store().epoch(),
            shard_epochs: self.text.shard_epochs(),
            text_replicas: self.text.replication() as u32,
            text_layout: self.text.layout().to_vec(),
        };
        let new_path = dir.join("MANIFEST.new");
        backend.write(&new_path, &manifest.encode()).map_err(Error::Persist)?;
        backend.sync(&new_path).map_err(Error::Persist)?;
        if backend.exists(&dir.join(MANIFEST)) {
            backend
                .rename(&dir.join(MANIFEST), &dir.join(MANIFEST_PREV))
                .map_err(Error::Persist)?;
        }
        backend.rename(&new_path, &dir.join(MANIFEST)).map_err(Error::Persist)?;
        backend.sync(&dir).map_err(Error::Persist)?;

        // The fallback generation (prev) must stay loadable: keep its
        // snapshots and every WAL record from its watermark on.
        if let Some(prev) = &prev {
            persist::gc_old_snapshots(backend.as_ref(), &dir, prev.snapshot_id);
            lock_wal(&wal)?.gc_below(prev.watermark).map_err(Error::Persist)?;
        }

        self.attach_wal(&wal);
        if self.obs.is_enabled() {
            if let Ok(mut w) = wal.lock() {
                w.set_obs(&self.obs);
            }
        }
        self.durability = Some(Durability {
            dir,
            backend,
            wal,
            snapshot_id: id,
        });
        checkpoint_span.add_work(1);
        drop(checkpoint_span);
        if let Some(m) = &self.metrics {
            m.checkpoints.inc();
        }
        Ok(())
    }

    /// Attaches one shared WAL to all three stores, each under its own
    /// store tag.
    fn attach_wal(&mut self, wal: &Arc<Mutex<Wal>>) {
        let handle = WalHandle::new(Arc::clone(wal), persist::STORE_VIEWS);
        self.views.set_wal(handle.clone());
        self.meta
            .store_mut()
            .set_wal(handle.for_store(persist::STORE_META));
        self.text.set_wal(handle.for_store(persist::STORE_TEXT));
    }

    /// Re-checkpoints a durable engine to its attached directory,
    /// through its attached backend. Errors when the engine was never
    /// opened or persisted durably.
    pub fn checkpoint(&mut self) -> Result<()> {
        let (backend, dir) = match &self.durability {
            Some(d) => (Arc::clone(&d.backend), d.dir.clone()),
            None => {
                return Err(Error::Config(
                    "checkpoint() requires a durable engine (open or persist_to first)".into(),
                ))
            }
        };
        self.persist_to_backend(backend, dir)
    }

    /// Forces every WAL record appended so far to stable storage. A
    /// no-op for a purely in-memory engine. The mutating entry points
    /// call this at the end of each batch, so fsync cost is paid per
    /// operation batch, not per record.
    pub fn sync_wal(&self) -> Result<()> {
        if let Some(d) = &self.durability {
            lock_wal(&d.wal)?.flush().map_err(Error::Persist)?;
        }
        Ok(())
    }

    /// Generation id of the newest committed checkpoint (0 when the
    /// engine is not durable or has never checkpointed).
    pub fn snapshot_id(&self) -> u64 {
        self.durability.as_ref().map(|d| d.snapshot_id).unwrap_or(0)
    }

    /// A byte string that is equal iff the persistent state of two
    /// engines is equal: the concatenated store snapshots (views, meta,
    /// every text server). The crash harness compares digests of a
    /// reopened engine against pre-/post-operation captures.
    pub fn state_digest(&mut self) -> Result<Vec<u8>> {
        let mut out = self.views.snapshot()?;
        out.extend_from_slice(&self.meta.store().snapshot()?);
        // Content-only shard snapshots: the epoch counters measure how
        // many mutations a history took, and recovery resumes them from
        // the manifest anyway — equal digests must mean equal *state*.
        for shard in self.text.content_snapshot_shards().map_err(Error::Ir)? {
            out.extend_from_slice(&shard);
        }
        Ok(out)
    }

    /// The conceptual schema.
    pub fn schema(&self) -> &WebspaceSchema {
        &self.schema
    }

    /// The feature grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The merged object graph.
    pub fn webspace(&self) -> &WebspaceIndex {
        &self.webspace
    }

    /// The stored materialized views (physical level).
    pub fn views(&self) -> &XmlStore {
        &self.views
    }

    /// The meta-index of parse trees.
    pub fn meta(&self) -> &MetaIndex {
        &self.meta
    }

    /// Mutable meta-index access (experiments poke at stored trees).
    pub fn meta_mut(&mut self) -> &mut MetaIndex {
        &mut self.meta
    }

    /// The full-text index (one or more shared-nothing servers).
    pub fn text_index(&self) -> &ir::DistributedIndex {
        &self.text
    }

    /// Mutable full-text index access (deadline / fault-plan knobs).
    pub fn text_index_mut(&mut self) -> &mut ir::DistributedIndex {
        &mut self.text
    }

    /// Per-shard-group health of the text tier — document counts,
    /// replica counts, copies believed healthy — the distributed
    /// index's analogue of `Supervisor::detector_health`.
    pub fn shard_health(&self) -> Vec<ir::ShardHealth> {
        self.text.shard_health()
    }

    /// Rebalances the text tier onto `target` servers with the
    /// idf-aware planner, migrating documents and cutting over
    /// epoch-consistently. The answer cache is cleared up front (the
    /// cutover bumps every shard epoch anyway, but a rebalance is rare
    /// and correctness must not lean on epoch-key coverage alone). With
    /// durability attached, the cutover is WAL-logged before the swap;
    /// checkpointing afterwards persists the new layout in the
    /// manifest.
    pub fn rebalance_text(&mut self, target: usize) -> Result<ir::RebalanceReport> {
        self.query_cache.clear();
        let report = ir::Rebalancer::new()
            .rebalance(&mut self.text, target)
            .map_err(Error::Ir)?;
        Ok(report)
    }

    /// Assembles the control policy's observation of the text tier:
    /// server/replica counts, per-shard document loads, the caller's
    /// windowed `shard_p99` and any servers declared permanently lost at
    /// `loss_threshold` consecutive failures. Cheap — the operator loop
    /// calls this under a brief engine borrow every tick.
    pub fn control_view(
        &self,
        loss_threshold: u32,
        shard_p99: std::time::Duration,
    ) -> ir::ClusterView {
        ir::ClusterView {
            servers: self.text.servers(),
            replication: self.text.replication(),
            docs_per_shard: self.text.shard_sizes(),
            shard_p99,
            lost_servers: self.text.lost_servers(loss_threshold),
        }
    }

    /// Stages background re-replication around permanently lost text
    /// server `lost`: snapshots every copy the server hosted from a
    /// surviving source and plans placements on survivors. The engine
    /// is untouched; drive the returned job off-lock with
    /// [`ir::RereplicationJob::step`], then hand it to
    /// [`Engine::commit_text_rereplication`].
    pub fn begin_text_rereplication(&mut self, lost: usize) -> Result<ir::RereplicationJob> {
        self.text.begin_rereplication(lost).map_err(Error::Ir)
    }

    /// Cuts a completed re-replication job over: installs the rebuilt
    /// copies on their planned survivors in one critical section
    /// (WAL-audited when durability is attached). Refused with a typed
    /// stale error if the cluster epoch moved since the job was staged.
    /// Clears the answer cache — placement changed even though no
    /// ranking did.
    pub fn commit_text_rereplication(&mut self, job: ir::RereplicationJob) -> Result<usize> {
        self.query_cache.clear();
        self.text.commit_rereplication(job).map_err(Error::Ir)
    }

    /// Records a control-plane decision (action + reason) for EXPLAIN
    /// ANALYZE's `REBALANCE` line.
    pub fn note_control_decision(&mut self, decision: impl Into<String>) {
        self.last_control_decision = Some(decision.into());
    }

    /// The last control-plane decision executed against this engine.
    pub fn last_control_decision(&self) -> Option<&str> {
        self.last_control_decision.as_deref()
    }

    /// The admission gate (shared; clones point at the same gate).
    pub fn admission_gate(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.admission)
    }

    /// Turns observability on: every layer below — conceptual joins,
    /// the view and meta stores, the text shards, the fault plan, the
    /// WAL and the admission gate — records into `o`'s registry and
    /// trace stack from here on. Disabled (the default) the engine
    /// takes zero clock reads and produces byte-identical output.
    pub fn set_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
        self.metrics = o.registry().map(EngineMetrics::register);
        self.webspace.set_obs(o);
        self.views.set_obs(o);
        self.meta.store_mut().set_obs(o);
        self.text.set_obs(o);
        self.admission.set_obs(o);
        if let Some(plan) = &self.faults_plan {
            plan.set_obs(o);
        }
        if let Some(d) = &self.durability {
            if let Ok(mut wal) = d.wal.lock() {
                wal.set_obs(o);
            }
        }
        self.refresh_gauges();
        self.refresh_heal_backlog();
    }

    /// The engine's observability handle (disabled unless
    /// [`Engine::set_obs`] was called).
    pub fn obs(&self) -> &obs::Obs {
        &self.obs
    }

    /// The recovery report of the `open` that produced this engine,
    /// if it was opened from durable storage.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Per-stage wall-clock breakdown of the most recent
    /// [`Engine::populate`] run (zeros before the first run).
    pub fn last_populate_timings(&self) -> StageTimings {
        self.last_populate_timings
    }

    /// Re-stamps every scrape-time gauge from live state, without
    /// rendering anything. The operator loop calls this right
    /// before snapshotting the registry so its samples carry current
    /// gauge values, exactly as a text scrape would.
    pub fn refresh_scrape_gauges(&self) {
        self.refresh_gauges();
    }

    /// Re-stamps every scrape-time gauge from live state.
    fn refresh_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        m.query_cache_entries.set(self.query_cache.entries.len() as i64);
        m.views_epoch.set(self.views.epoch() as i64);
        m.meta_epoch.set(self.meta.store().epoch() as i64);
        m.text_epoch.set(self.text.epoch() as i64);
        m.snapshot_generation.set(self.snapshot_id() as i64);
        if let Some(r) = &self.last_recovery {
            m.recovery_wal_replayed.set(r.wal_replayed as i64);
            m.recovery_wal_skipped.set(r.wal_skipped as i64);
            m.recovery_fell_back.set(i64::from(r.fell_back));
        }
        // Data-plane footprint; see `EngineMetrics::monet_bytes_resident`
        // for what it leaves out.
        let mut bytes = self.text.posting_index_bytes();
        let mut dict = monet::DictStats::default();
        for db in [self.views.db(), self.meta.store().db()]
            .into_iter()
            .chain((0..self.text.servers()).map(|k| self.text.shard(k).db()))
        {
            bytes += db.resident_bytes();
            dict.merge(&db.dict_stats());
        }
        m.monet_bytes_resident.set(bytes as i64);
        m.monet_dict_entries.set(dict.entries as i64);
        m.monet_dict_hit_ratio
            .set((dict.hit_ratio() * 1000.0).round() as i64);
    }

    /// Re-stamps the `engine_heal_backlog{detector=…}` gauge family
    /// from the stored trees' rejected-node relations. Called at every
    /// meta-index mutation point (populate, maintenance commit, source
    /// refresh) and from [`Engine::set_obs`] rather than at scrape
    /// time: the backlog only changes when stored trees do.
    fn refresh_heal_backlog(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        let backlog = self.meta.heal_backlog();
        let Some(reg) = self.obs.registry() else { return };
        let Some(m) = self.metrics.as_mut() else { return };
        for gauge in m.heal_backlog.values() {
            gauge.set(0);
        }
        for (detector, count) in backlog {
            m.heal_backlog
                .entry(detector.clone())
                .or_insert_with(|| {
                    reg.labeled_gauge(
                        "engine_heal_backlog",
                        "Rejected-with-cause nodes awaiting a heal, per detector",
                        "detector",
                        &detector,
                    )
                })
                .set(count as i64);
        }
    }

    /// Every registered metric — this engine's and every layer's — in
    /// Prometheus text exposition format. Scrape-time gauges are
    /// refreshed first. Empty when observability is disabled.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        match self.obs.registry() {
            Some(reg) => reg.render_text(),
            None => String::new(),
        }
    }

    /// The detector registry (implementations and their versions).
    pub fn registry(&self) -> &DetectorRegistry {
        &self.registry
    }

    /// Populates the index from crawled `(url, html)` pages.
    ///
    /// The run is staged, all on the calling thread and in source
    /// order: conceptual extraction, view storage, text indexing, then
    /// media analysis, where each new media location runs the FDE's
    /// detector cascade and its parse tree goes straight into the
    /// meta-index. So two runs over the same pages leave identical
    /// stores, report counters and log lines.
    pub fn populate(&mut self, pages: &[(String, String)]) -> Result<PopulateReport> {
        self.query_cache.clear();
        let mut populate_span = self.obs.span("engine.populate");
        populate_span.add_work(pages.len() as u64);
        let mut report = PopulateReport {
            pages: pages.len(),
            ..PopulateReport::default()
        };
        let mut timings = StageTimings::default();
        let elapsed_ms = |t: std::time::Instant| t.elapsed().as_secs_f64() * 1e3;

        // Conceptual extraction (two passes: objects, then links).
        let stage = std::time::Instant::now();
        let mut extracts = Vec::new();
        for (url, html) in pages {
            extracts.push(self.retriever.extract_page(url, html)?);
        }
        let views: Vec<MaterializedView> = self.retriever.finalize(extracts);
        timings.extract_ms = elapsed_ms(stage);

        // Physical storage of the view documents (one batched load)…
        let stage = std::time::Instant::now();
        let docs: Vec<_> = views
            .iter()
            .map(|view| (view.name.clone(), view.to_document()))
            .collect();
        self.views
            .insert_documents(docs.iter().map(|(name, doc)| (name.as_str(), doc)))?;
        // …and the merged conceptual graph.
        for view in &views {
            self.webspace.add_view(view)?;
            report.associations += view.associations.len();
        }
        report.objects = self.webspace.object_count();
        timings.store_ms = elapsed_ms(stage);

        // Logical level: full text + video analysis, driven by the
        // schema's multimedia hooks. One ordered walk collects both
        // workloads; text is indexed as a batch.
        let stage = std::time::Instant::now();
        let mut text_docs: Vec<(String, String)> = Vec::new();
        // Media analysis jobs in source order. Locations already in
        // the meta-index (or queued earlier in this run) are shared
        // media objects — analysed once.
        let mut media_jobs: Vec<(String, Vec<Token>)> = Vec::new();
        let mut queued: HashSet<String> = HashSet::new();
        let objects = self.webspace.schema().classes().iter().flat_map(|class| {
            self.webspace
                .objects_of(&class.name)
                .map(move |object| (class, object))
        });
        for (class, object) in objects {
            for attr_def in &class.attributes {
                let Some(value) = object.attr(&attr_def.name) else {
                    continue;
                };
                match (&attr_def.ty, value) {
                    // Inline hypertext → full-text index.
                    (
                        webspace::AttrType::Media(MediaType::Hypertext),
                        AttrValue::Text(text),
                    ) => {
                        text_docs
                            .push((text_doc_key(&object.id, &attr_def.name), text.clone()));
                    }
                    // Video / audio → FDE analysis into the meta-index.
                    (
                        webspace::AttrType::Media(MediaType::Video | MediaType::Audio),
                        AttrValue::Media { location, .. },
                    ) => {
                        if self.meta.contains(location) || !queued.insert(location.clone())
                        {
                            continue;
                        }
                        let initial = vec![Token::new(
                            "location",
                            FeatureValue::url(location.clone()),
                        )];
                        media_jobs.push((location.clone(), initial));
                    }
                    _ => {}
                }
            }
        }
        timings.collect_ms = elapsed_ms(stage);

        let stage = std::time::Instant::now();
        self.text
            .index_documents(text_docs.iter().map(|(key, text)| (key.as_str(), text.as_str())))
            .map_err(Error::Ir)?;
        report.text_documents = text_docs.len();
        timings.text_ms = elapsed_ms(stage);

        let stage = std::time::Instant::now();
        let mut merge_ms = 0.0f64;
        for (location, initial) in media_jobs {
            let mut fde = Fde::new(&self.grammar, &self.registry);
            let parsed = fde.parse(initial.clone());
            // A rejected analysis ran its detectors too: count them on
            // every outcome.
            report.detector_calls += fde.stats().detector_calls;
            let tree = match parsed {
                Ok(tree) => tree,
                Err(e @ (acoi::Error::Reject { .. } | acoi::Error::DetectorFailed { .. })) => {
                    report.media_rejected += 1;
                    eprintln!("populate: {location}: analysis rejected: {e}");
                    continue;
                }
                Err(e) => return Err(Error::Acoi(e)),
            };
            let merge_t = std::time::Instant::now();
            // Unavailable detectors don't abort the parse — they leave
            // rejected-with-cause holes. Count and log every one so a
            // degraded population is visible, not silently incomplete.
            let rejected = tree.rejected_nodes();
            if !rejected.is_empty() {
                report.media_degraded += 1;
                report.detector_failures += rejected.len();
                for (_, symbol, cause) in &rejected {
                    eprintln!("populate: {location}: detector `{symbol}` unavailable: {cause}");
                }
            }
            self.meta.insert(&location, initial, &tree)?;
            report.media_analyzed += 1;
            merge_ms += elapsed_ms(merge_t);
        }
        timings.analyse_ms = elapsed_ms(stage);
        timings.merge_ms = merge_ms;
        self.last_populate_timings = timings;
        self.text.commit().map_err(Error::Ir)?;
        self.sync_wal()?;
        drop(populate_span);
        if let Some(m) = &self.metrics {
            m.populate_runs.inc();
            m.populate_pages.add(report.pages as u64);
            m.media_analyzed.add(report.media_analyzed as u64);
            m.detector_calls.add(report.detector_calls as u64);
        }
        self.refresh_heal_backlog();
        Ok(report)
    }

    /// Renders the evaluation plan of a query as text — how the query
    /// "breaks down to structured database searches" at the physical
    /// layer. With the outcome of an execution of `q` in `last`, the
    /// plan is annotated with how its text retrieval went (READ-ROUTE /
    /// FAILOVER / DEGRADED).
    pub fn explain(&self, q: &EngineQuery, last: Option<&QueryOutcome>) -> String {
        let mut out = String::new();
        let mut step = 1usize;
        let mut push = |out: &mut String, line: String| {
            out.push_str(&format!("{step}. {line}\n"));
            step += 1;
        };
        push(
            &mut out,
            format!(
                "conceptual selection on {} ({} predicate(s)) over the merged object graph",
                q.conceptual.from_class,
                q.conceptual.predicates.len()
            ),
        );
        if let Some(text) = &q.text {
            push(
                &mut out,
                format!(
                    "ranked text retrieval on {}.{} for {:?}, top {} ({})",
                    q.conceptual.from_class,
                    text.attr,
                    text.query,
                    text.top_n,
                    if text.rank_within {
                        "restricted a-priori to the conceptual candidates"
                    } else {
                        "global ranking, merged afterwards"
                    }
                ),
            );
            if self.text.servers() > 1 {
                push(
                    &mut out,
                    format!(
                        "fan the top-{} request out to {} shared-nothing text servers; the central node merges the local rankings",
                        text.top_n,
                        self.text.servers()
                    ),
                );
            }
            if let Some(st) = last.and_then(|o| o.text.as_ref()) {
                if self.text.replication() > 0 {
                    let route: Vec<String> = st
                        .served_by
                        .iter()
                        .enumerate()
                        .map(|(g, c)| match c {
                            Some(c) => format!("g{g}→copy{c}"),
                            None => format!("g{g}→none"),
                        })
                        .collect();
                    push(
                        &mut out,
                        format!(
                            "READ-ROUTE: one rotating copy per group served last time ({})",
                            route.join(", ")
                        ),
                    );
                }
                if st.failovers > 0 {
                    push(
                        &mut out,
                        format!(
                            "FAILOVER: {} shard group(s) answered from another copy last time (selected copy down, answer exact)",
                            st.failovers
                        ),
                    );
                }
                if st.shards_failed > 0 {
                    push(
                        &mut out,
                        format!(
                            "DEGRADED: {} of {} text servers answered last time (shards {:?} down), estimated quality {:.0}%",
                            st.shards_ok,
                            st.shards_ok + st.shards_failed,
                            st.failed_shards,
                            st.quality * 100.0
                        ),
                    );
                }
            }
            if let Some(decision) = &self.last_control_decision {
                push(&mut out, format!("REBALANCE: control plane last acted: {decision}"));
            }
        }
        for join in &q.conceptual.joins {
            push(
                &mut out,
                format!("join along association {}", join.association),
            );
        }
        if let Some(media) = &q.media {
            push(
                &mut out,
                format!(
                    "media-event filter: {} on attribute {} (meta-index parse trees)",
                    media.event, media.attr
                ),
            );
        }
        push(&mut out, format!("top {} by text score", q.limit));
        out
    }

    /// Executes an integrated query with the default [`QueryOptions`]
    /// and returns the hits alone.
    pub fn query(&mut self, q: &EngineQuery) -> Result<Vec<EngineHit>> {
        self.execute(q, &QueryOptions::default()).map(|o| o.hits)
    }

    /// Executes an integrated query — the one path every caller takes.
    /// What varies per call is in `opts`:
    ///
    /// * **budget** — a wall-clock deadline, a work allowance or a
    ///   cancellation flag, checked at loop granularity in every layer
    ///   (conceptual join expansion, text scatter-gather, the media
    ///   refinement's path reads). On expiry the query
    ///   returns a typed [`Error::DeadlineExceeded`] whose
    ///   [`PartialProgress`] says which stage was cut and how far it
    ///   got.
    /// * **level** — the rung of the degradation ladder to answer at.
    ///   `Healthy` / `Pressured` evaluate at full fidelity. `Brownout`
    ///   / `Shedding` evaluate the browned-out plan: the text ranking's
    ///   top-N and the result limit are halved, and the media-event
    ///   refinement — every candidate's stored meta-data read from the
    ///   physical store — is skipped. Each
    ///   cut is a note in [`QueryOutcome::degraded`] and is priced into
    ///   [`QueryOutcome::quality`], which also folds in the text
    ///   layer's shard survival (a degraded distributed ranking is a
    ///   quality loss whatever the ladder says).
    /// * **trace** — collect the measured EXPLAIN ANALYZE phase tree
    ///   into [`QueryOutcome::trace`] and offer it to the slow-query
    ///   log. Changes no answer; `None` when observability is disabled.
    ///
    /// Answers are cached under an epoch-keyed LRU: the key combines
    /// the normalized query (stemmed text terms, so `"winner"` and
    /// `"Winner"` share an entry) with the `(views, meta, text)` store
    /// epochs, and every mutation — populate, maintenance, source
    /// refresh — bumps an epoch and clears the cache. The cache is
    /// consulted, and filled, only when no fault plan is wired in
    /// (injection draws advance per call, so a replayed answer would
    /// freeze the failure dynamics), the budget is unlimited (a limited
    /// run must not publish possibly partial work) and the level is
    /// below `Brownout` (degraded answers are never cached).
    ///
    /// A failed query leaves the engine as if it never ran: nothing is
    /// cached, and no stage writes state of its own.
    pub fn execute(&mut self, q: &EngineQuery, opts: &QueryOptions) -> Result<QueryOutcome> {
        let unlimited = Budget::unlimited();
        let budget = opts.budget.unwrap_or(&unlimited);
        if opts.trace {
            self.obs.begin_trace();
        }
        if let Some(m) = &self.metrics {
            m.queries.inc();
        }
        let mut sp = self.obs.span("engine.query");
        let mut out = self.answer(q, budget, opts.level);
        match &out {
            Ok(outcome) => {
                sp.add_work(outcome.hits.len() as u64);
                if !outcome.degraded.is_empty() {
                    sp.set_outcome(obs::Outcome::Degraded);
                    if let Some(m) = &self.metrics {
                        m.degraded_answers.inc();
                    }
                }
            }
            Err(Error::DeadlineExceeded { .. }) => {
                sp.set_outcome(obs::Outcome::Deadline);
                if let Some(m) = &self.metrics {
                    m.query_deadlines.inc();
                }
            }
            Err(_) => sp.set_outcome(obs::Outcome::Degraded),
        }
        drop(sp);
        if opts.trace {
            let trace = self.obs.take_trace();
            if let Some(t) = &trace {
                self.obs.offer_slow(cache_key(q), t);
            }
            if let Ok(outcome) = &mut out {
                outcome.trace = trace;
            }
        }
        out
    }

    /// Plans, consults the answer cache, evaluates and stamps: what
    /// [`Engine::execute`] wraps in its span and counters.
    fn answer(
        &mut self,
        q: &EngineQuery,
        budget: &Budget,
        level: OverloadLevel,
    ) -> Result<QueryOutcome> {
        let mut quality = 1.0_f64;
        let mut degraded = Vec::new();
        let browned_out;
        let plan = if level >= OverloadLevel::Brownout {
            self.obs.annotate(|| format!("brownout plan at {level:?}"));
            browned_out = brownout_plan(q, &mut quality, &mut degraded);
            &browned_out
        } else {
            q
        };

        // A text tier with a fault plan must run the real evaluation on
        // every query (the injection draws advance per call), so it
        // bypasses the answer cache, however the plan was wired in.
        let cacheable = self.text.fault_plan().is_none()
            && budget.is_unlimited()
            && level < OverloadLevel::Brownout;
        let slot = cacheable.then(|| (cache_key(q), self.store_epochs()));
        let cached = slot
            .as_ref()
            .and_then(|(key, epochs)| self.query_cache.lookup(key, *epochs));
        let (hits, text) = match cached {
            Some(answer) => {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                self.obs.annotate(|| "cache=hit".to_owned());
                (answer.hits, answer.text)
            }
            None => {
                if cacheable {
                    if let Some(m) = &self.metrics {
                        m.cache_misses.inc();
                    }
                    self.obs.annotate(|| "cache=miss".to_owned());
                }
                let (hits, text) = self.evaluate(plan, budget)?;
                if let Some((key, epochs)) = slot {
                    self.query_cache.insert(
                        key,
                        CachedAnswer {
                            epochs,
                            hits: hits.clone(),
                            text: text.clone(),
                        },
                    );
                }
                (hits, text)
            }
        };

        if let Some(status) = &text {
            quality *= status.quality;
            if status.shards_failed > 0 {
                degraded.push(format!(
                    "DEGRADED: {} of {} text servers answered",
                    status.shards_ok,
                    status.shards_ok + status.shards_failed
                ));
            }
        }
        Ok(QueryOutcome {
            hits,
            quality,
            level,
            degraded,
            text,
            trace: None,
        })
    }

    /// Hit/miss counters of the query-answer cache since engine
    /// construction (cache clears do not reset them).
    pub fn query_cache_stats(&self) -> (u64, u64) {
        (self.query_cache.hits, self.query_cache.misses)
    }

    /// Drops every cached query answer. Epoch keys already make stale
    /// answers unreachable; this frees the memory too.
    pub fn invalidate_query_cache(&mut self) {
        self.query_cache.clear();
    }

    /// Current `(views, meta, text)` store epochs — the freshness
    /// stamp carried by every cached answer.
    fn store_epochs(&self) -> (u64, u64, u64) {
        (
            self.views.epoch(),
            self.meta.store().epoch(),
            self.text.epoch(),
        )
    }

    /// The three stages of the plan — conceptual selection, ranked text,
    /// media refinement — with nothing cached: the hits and the status
    /// of the text retrieval behind them (`None` without a text part).
    fn evaluate(
        &mut self,
        q: &EngineQuery,
        budget: &Budget,
    ) -> Result<(Vec<EngineHit>, Option<TextQueryStatus>)> {
        // A budget that is already spent (or cancelled) fails before
        // any work: the admission phase.
        budget.check().map_err(|cause| Error::DeadlineExceeded {
            partial: PartialProgress {
                phase: "admission".into(),
                completed: 0,
            },
            cause,
        })?;

        // 1. Conceptual selection and joins (one work unit per seed
        //    candidate and per expanded join row).
        let rows = {
            let mut sp = self.obs.span("engine.query.conceptual");
            match self.webspace.execute_budgeted(&q.conceptual, budget) {
                Ok(rows) => {
                    sp.add_work(rows.len() as u64);
                    rows
                }
                Err(e) => {
                    sp.set_outcome(match &e {
                        webspace::Error::DeadlineExceeded { .. } => obs::Outcome::Deadline,
                        _ => obs::Outcome::Degraded,
                    });
                    return Err(e.into());
                }
            }
        };

        // 2. Ranked text retrieval on the start class. The optimizer
        //    choice: global ranking merged afterwards, or ranking
        //    restricted a-priori to the conceptual candidates.
        let mut scores: Option<HashMap<String, f64>> = None;
        let mut status = None;
        if let Some(text) = &q.text {
            let mut sp = self.obs.span("engine.query.text");
            let candidates: Option<HashSet<String>> = text.rank_within.then(|| {
                rows.iter()
                    .filter_map(|r| r.chain.first())
                    .map(|id| text_doc_key(id, &text.attr))
                    .collect()
            });
            // Isolated evaluation: failed servers drop out and the
            // merge ranks the survivors; the per-shard deadline shrinks
            // to the budget's remaining window.
            let queried = self
                .text
                .search(&text.query, text.top_n, candidates.as_ref(), budget);
            let result = match queried {
                Ok(r) => r,
                Err(e) => {
                    sp.set_outcome(match &e {
                        ir::Error::DeadlineExceeded { .. } => obs::Outcome::Deadline,
                        _ => obs::Outcome::Degraded,
                    });
                    return Err(e.into());
                }
            };
            sp.add_work(result.hits.len() as u64);
            if result.shards_failed > 0 {
                sp.set_outcome(obs::Outcome::Degraded);
            }
            drop(sp);
            if result.failovers > 0 {
                let (failovers, failed) = (result.failovers, result.shards_failed);
                self.obs.record_event("failover", move || {
                    format!("replica failovers={failovers} shards_failed={failed}")
                });
            }
            let mut map = HashMap::new();
            for hit in result.hits {
                if let Some((object_id, attr)) = split_text_doc_key(&hit.url) {
                    if attr == text.attr {
                        map.insert(object_id.to_owned(), hit.score);
                    }
                }
            }
            scores = Some(map);
            status = Some(TextQueryStatus {
                shards_ok: result.shards_ok,
                shards_failed: result.shards_failed,
                failed_shards: result.failed_shards,
                failovers: result.failovers,
                quality: result.quality,
                served_by: result.served_by,
            });
        }

        // 3. Media evidence on the final class.
        let mut sp = self.obs.span("engine.query.refine");
        let out = self.refine_media(q, rows, &scores, budget);
        match &out {
            Ok(hits) => sp.add_work(hits.len() as u64),
            Err(Error::DeadlineExceeded { .. }) => sp.set_outcome(obs::Outcome::Deadline),
            Err(_) => sp.set_outcome(obs::Outcome::Degraded),
        }
        out.map(|hits| (hits, status))
    }

    /// Step 3 of [`Engine::evaluate`]: walks every conceptual
    /// candidate, attaches its text score, verifies the media event
    /// against the candidate's stored meta-data — read off the meta
    /// store's path relations, not a rebuilt tree — then ranks and
    /// truncates the answer.
    fn refine_media(
        &self,
        q: &EngineQuery,
        rows: Vec<webspace::QueryResult>,
        scores: &Option<HashMap<String, f64>>,
        budget: &Budget,
    ) -> Result<Vec<EngineHit>> {
        let paths = q
            .media
            .as_ref()
            .map(|media| MediaPaths::new(&self.grammar, self.meta.store(), &media.event));
        let mut out = Vec::new();
        for row in rows {
            let score = match scores {
                Some(map) => match map.get(row.chain.first().expect("non-empty chain")) {
                    Some(s) => *s,
                    None => continue, // outside the ranked top-N
                },
                None => 0.0,
            };

            let (video, shots) = if let (Some(media), Some(paths)) = (&q.media, &paths) {
                // One work unit per candidate refined, and one per tuple
                // its evidence reads; `completed` reports the hits
                // already assembled (or, cut inside a read, the nodes
                // it reached).
                budget.consume(1).map_err(|cause| Error::DeadlineExceeded {
                    partial: PartialProgress {
                        phase: "media".into(),
                        completed: out.len(),
                    },
                    cause,
                })?;
                // The event must exist in the grammar — an atom-paired
                // whitebox detector (netplay, isInterview, …).
                if self.grammar.detector(&media.event).is_none() {
                    return Err(Error::Query(format!(
                        "unknown media event `{}` (not a detector of the grammar)",
                        media.event
                    )));
                }
                let last = row.chain.last().expect("non-empty chain");
                let Some(object) = self.webspace.object(last) else {
                    continue;
                };
                let Some(AttrValue::Media { location, .. }) = object.attr(&media.attr)
                else {
                    continue;
                };
                let Some(root) = self.meta.store().root_for_source(location) else {
                    continue; // the object was never analysed
                };
                match paths.evidence(root, budget) {
                    Ok(Some(shots)) => (Some(location.clone()), shots),
                    Ok(None) => continue,
                    // A budget cut surfaces; evidence that cannot be
                    // read skips the candidate.
                    Err(e @ monetxml::Error::DeadlineExceeded { .. }) => return Err(e.into()),
                    Err(_) => continue,
                }
            } else {
                (None, Vec::new())
            };

            out.push(EngineHit {
                chain: row.chain,
                score,
                video,
                shots,
            });
        }

        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.chain.cmp(&b.chain))
        });
        out.truncate(q.limit);
        Ok(out)
    }

    /// Re-checks one analysed object against its source: when
    /// `still_valid` reports the source data changed, the stored parse
    /// tree is regenerated from scratch ("the FDS uses a special
    /// detector associated to the start symbol to determine if the
    /// complete stored parse tree has become invalid due to changes of
    /// the source data"). Returns whether a regeneration happened.
    pub fn refresh_source(
        &mut self,
        source: &str,
        still_valid: impl Fn(&str) -> bool,
    ) -> Result<bool> {
        let refreshed = self
            .fds
            .refresh_source(
                &self.grammar,
                &self.registry,
                &mut self.meta,
                source,
                still_valid,
            )
            .map_err(Error::Acoi);
        // A source found still valid leaves the store and its epoch
        // untouched, so cached answers stay exact; a regeneration, or a
        // failure part-way through one, invalidates.
        if !matches!(refreshed, Ok(false)) {
            self.query_cache.clear();
        }
        let refreshed = refreshed?;
        self.sync_wal()?;
        self.refresh_heal_backlog();
        Ok(refreshed)
    }

    /// Begins a detector upgrade: installs `new_impl` (keeping the old
    /// pair for rollback), pins the current meta epoch and snapshots
    /// the stored trees — a brief borrow. The FDS localises the change:
    /// the job re-parses only what the revision level invalidates.
    /// Drive the returned job with [`MaintenanceJob::run`] off the
    /// engine (queries keep serving), then cut over with
    /// [`Engine::commit_maintenance`] or roll back with
    /// [`Engine::abort_maintenance`];
    /// [`crate::QueryService::upgrade_detector_online`] packages the
    /// three steps.
    pub fn begin_upgrade(
        &mut self,
        detector: &str,
        level: RevisionLevel,
        new_impl: acoi::DetectorFn,
    ) -> Result<MaintenanceJob> {
        self.begin_maintenance(detector, MaintenanceKind::Upgrade { level }, Some(new_impl))
    }

    /// Begins a heal of `detector` (see [`Engine::begin_upgrade`] for
    /// the job protocol): the job re-parses every analysed object whose
    /// stored tree carries rejected-with-cause holes left by an outage
    /// of that detector, reusing healthy detector results from the
    /// harvest cache. Heals swap no implementation, so aborting one is
    /// free.
    pub fn begin_heal(&mut self, detector: &str) -> Result<MaintenanceJob> {
        self.begin_maintenance(detector, MaintenanceKind::Heal, None)
    }

    /// The shared begin: captures everything the job needs — the
    /// admission gate (Batch-class permits, Brownout pauses) and the
    /// fault plan included — so `run` never touches the engine.
    fn begin_maintenance(
        &mut self,
        detector: &str,
        kind: MaintenanceKind,
        new_impl: Option<acoi::DetectorFn>,
    ) -> Result<MaintenanceJob> {
        // Claim the detector *before* any side effect (the registry
        // swap below): a second begin while a job is in flight must
        // not clobber the first job's pinned snapshot or rollback pair.
        let busy = crate::maintenance::BusyGuard::acquire(&self.maintenance_inflight, detector)?;
        let plan = match kind {
            MaintenanceKind::Upgrade { level } => self.fds.plan(&self.grammar, detector, level),
            MaintenanceKind::Heal => Fds::heal_plan(detector),
        };
        let (rollback, new_version) = match (kind, new_impl) {
            (MaintenanceKind::Upgrade { level }, Some(new_impl)) => {
                let old_version = self.registry.version(detector).ok_or_else(|| {
                    Error::Acoi(acoi::Error::UnregisteredDetector(detector.to_owned()))
                })?;
                let new_version = old_version.bumped(level);
                let old = self
                    .registry
                    .replace(detector, new_version, new_impl)
                    .map_err(Error::Acoi)?;
                (Some(old), Some(new_version))
            }
            _ => (None, None),
        };
        let snapshot = self.meta.store().snapshot()?;
        let initial: HashMap<String, Vec<Token>> = self
            .meta
            .sources()
            .iter()
            .map(|s| {
                let tokens = self
                    .meta
                    .initial_tokens(s)
                    .map(<[Token]>::to_vec)
                    .unwrap_or_default();
                (s.clone(), tokens)
            })
            .collect();
        Ok(MaintenanceJob {
            detector: detector.to_owned(),
            kind,
            plan,
            pinned_meta_epoch: self.meta.store().epoch(),
            snapshot,
            initial,
            grammar: self.grammar.clone(),
            registry: Arc::clone(&self.registry),
            rollback,
            new_version,
            deltas: Vec::new(),
            objects_reparsed: 0,
            objects_untouched: 0,
            detector_calls: 0,
            detector_calls_saved: 0,
            faults: self.faults_plan.clone(),
            gate: Arc::clone(&self.admission),
            obs: self.obs.clone(),
            _busy: busy,
            started: self.obs.is_enabled().then(std::time::Instant::now),
        })
    }

    /// Epoch-consistent cutover of a finished job: under this borrow
    /// (the same mutex every query serializes on) the pinned epoch is
    /// re-checked, every delta is applied, and the answer cache is
    /// invalidated — conditionally: a job that re-parsed nothing
    /// provably left the store unchanged, so cached answers stay. A
    /// stale job (the live store moved past the pinned epoch) is
    /// rolled back and refused with [`Error::MaintenanceStale`].
    pub fn commit_maintenance(&mut self, job: MaintenanceJob) -> Result<MaintenanceReport> {
        if self.meta.store().epoch() != job.pinned_meta_epoch {
            let detector = job.detector.clone();
            self.abort_maintenance(job)?;
            return Err(Error::MaintenanceStale { detector });
        }
        let mut span = self.obs.span("engine.maintenance.commit");
        let MaintenanceJob {
            kind,
            plan,
            deltas,
            objects_reparsed,
            objects_untouched,
            detector_calls,
            detector_calls_saved,
            started,
            ..
        } = job;
        for (source, initial, tree) in deltas {
            self.meta.insert(&source, initial, &tree).map_err(Error::Acoi)?;
        }
        if objects_reparsed > 0 {
            // Answers may combine several sources, so any reparse
            // invalidates the whole answer cache. Zero reparses — a
            // correction bump, a heal with no backlog — leave the
            // cache (and the store epoch) untouched.
            self.query_cache.clear();
        }
        self.sync_wal()?;
        span.add_work(objects_reparsed as u64);
        drop(span);
        if let Some(reg) = self.obs.registry() {
            reg.labeled_counter(
                "engine_maintenance_jobs_total",
                "Maintenance jobs committed, by upgrade kind",
                "kind",
                kind.label(),
            )
            .inc();
            reg.counter(
                "engine_maintenance_objects_reparsed_total",
                "Stored parse trees replaced by maintenance jobs",
            )
            .add(objects_reparsed as u64);
            reg.counter(
                "engine_maintenance_detector_calls_total",
                "Detector executions spent in maintenance jobs",
            )
            .add(detector_calls as u64);
            reg.counter(
                "engine_maintenance_detector_calls_saved_total",
                "Detector executions avoided by harvesting stored results",
            )
            .add(detector_calls_saved as u64);
            if let Some(begun) = started {
                reg.histogram(
                    "engine_maintenance_wall_seconds",
                    "Wall time from job begin to committed cutover",
                    obs::DEFAULT_TIME_BUCKETS,
                )
                .observe(begun.elapsed().as_secs_f64());
            }
            reg.counter(
                "engine_maintenance_finished_total",
                "Maintenance jobs that reached commit or abort",
            )
            .inc();
        }
        self.obs.record_event("maintenance", || {
            format!("commit kind={} reparsed={objects_reparsed}", kind.label())
        });
        self.refresh_heal_backlog();
        Ok(MaintenanceReport {
            plan,
            objects_reparsed,
            objects_untouched,
            detector_calls,
            detector_calls_saved,
        })
    }

    /// Aborts a job: reinstalls the pre-upgrade detector implementation
    /// (if one was swapped at begin) and drops the job's private copy.
    /// The live store was never touched, so afterwards the engine is
    /// byte-identical to one where the job never began.
    pub fn abort_maintenance(&mut self, job: MaintenanceJob) -> Result<()> {
        if let Some((version, run)) = job.rollback {
            // The swapped-out pair is the aborted upgrade's new
            // implementation; dropping it is the point.
            let _aborted_impl = self
                .registry
                .replace(&job.detector, version, run)
                .map_err(Error::Acoi)?;
        }
        if let Some(reg) = self.obs.registry() {
            reg.counter(
                "engine_maintenance_aborts_total",
                "Maintenance jobs rolled back without touching the store",
            )
            .inc();
            reg.counter(
                "engine_maintenance_finished_total",
                "Maintenance jobs that reached commit or abort",
            )
            .inc();
        }
        let detector = job.detector;
        self.obs
            .record_event("maintenance", move || format!("abort detector={detector}"));
        Ok(())
    }
}

/// The browned-out plan of `q`: the text ranking's top-N and the result
/// limit halved, the media-event refinement dropped. Every cut taken is
/// noted in `degraded` and priced into `quality`.
fn brownout_plan(q: &EngineQuery, quality: &mut f64, degraded: &mut Vec<String>) -> EngineQuery {
    let mut plan = q.clone();
    if let Some(text) = &mut plan.text {
        let wanted = text.top_n;
        text.top_n = (wanted / 2).max(1);
        if text.top_n < wanted {
            *quality *= text.top_n as f64 / wanted as f64;
            degraded.push(format!(
                "DEGRADED: text ranking truncated to top-{} (asked top-{wanted})",
                text.top_n
            ));
        }
    }
    let wanted_limit = plan.limit;
    plan.limit = (wanted_limit / 2).max(1);
    if plan.limit < wanted_limit {
        degraded.push(format!(
            "DEGRADED: result limit cut to {} (asked {wanted_limit})",
            plan.limit
        ));
    }
    if plan.media.take().is_some() {
        *quality *= 0.5;
        degraded.push(
            "DEGRADED: media-event refinement skipped (candidates unverified)".to_owned(),
        );
    }
    plan
}

/// Normalizes a query into its cache key. Text terms go through the
/// same tokenizer/stemmer as indexing, so spelling variants that rank
/// identically share an entry; everything else uses its canonical
/// debug form.
fn cache_key(q: &EngineQuery) -> String {
    let mut key = format!("{:?}", q.conceptual);
    match &q.text {
        Some(text) => {
            let terms = ir::tokenize_and_stem(&text.query).join(" ");
            key.push_str(&format!(
                "|text:{}:{}:{}:{}",
                text.attr, terms, text.top_n, text.rank_within
            ));
        }
        None => key.push_str("|text:-"),
    }
    match &q.media {
        Some(media) => key.push_str(&format!("|media:{}:{}", media.attr, media.event)),
        None => key.push_str("|media:-"),
    }
    key.push_str(&format!("|limit:{}", q.limit));
    key
}

/// Key of a Hypertext attribute in the full-text document registry.
fn text_doc_key(object_id: &str, attr: &str) -> String {
    format!("{object_id}#{attr}")
}

fn split_text_doc_key(key: &str) -> Option<(&str, &str)> {
    key.rsplit_once('#')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_doc_keys_round_trip() {
        let key = text_doc_key("player:seles0", "history");
        assert_eq!(
            split_text_doc_key(&key),
            Some(("player:seles0", "history"))
        );
        assert_eq!(split_text_doc_key("nokey"), None);
    }
}
