//! The system under test, behind the narrow surface the end-to-end runs
//! need. Together with `layers.rs` this is every call the benchmark
//! makes into the engine crates; the surface is listed in the README so
//! a change that collapses these APIs knows what must move first.
//!
//! Deployment: the reference configuration — two text servers, one
//! replica each, observability on, the admission gate at its defaults
//! except a latency target no run reaches, so the brownout ladder never
//! trims an answer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use dlsearch::{ausopen, qlang, AdmissionConfig, Engine, EngineConfig, Priority, QueryService};
use monet::storage::{FsBackend, StorageBackend};

use crate::gen::Library;
use crate::oracle::Hit;

/// What went to storage, counted at the backend every durable byte
/// passes through. Statistics only, hence relaxed ordering.
#[derive(Debug, Default)]
pub struct StorageCounters {
    pub write_bytes: AtomicU64,
    pub wal_append_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
}

#[derive(Debug)]
struct CountingBackend {
    inner: FsBackend,
    counters: Arc<StorageCounters>,
}

impl StorageBackend for CountingBackend {
    fn read(&self, path: &Path) -> monet::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> monet::Result<()> {
        self.counters
            .write_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> monet::Result<()> {
        self.counters
            .write_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        if path.extension().is_some_and(|e| e == "wal") {
            self.counters
                .wal_append_bytes
                .fetch_add(bytes.len() as u64, Relaxed);
        }
        self.inner.append(path, bytes)
    }
    fn sync(&self, path: &Path) -> monet::Result<()> {
        let t = Instant::now();
        let out = self.inner.sync(path);
        self.counters.syncs.fetch_add(1, Relaxed);
        self.counters
            .sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        out
    }
    fn rename(&self, from: &Path, to: &Path) -> monet::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> monet::Result<()> {
        self.inner.remove(path)
    }
    fn list(&self, dir: &Path) -> monet::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> monet::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub populate: Duration,
    pub persist: Duration,
    pub open: Duration,
    /// Media objects the populate run analysed and the time that took.
    pub media_analysed: usize,
    pub analyse: Duration,
}

pub struct UpgradeReport {
    pub objects: usize,
    pub detector_calls: usize,
    pub detector_calls_saved: usize,
}

pub struct Sut {
    service: QueryService,
    site: Arc<websim::Site>,
    /// The second detector implementation set the online upgrades
    /// install from: same algorithms, its own decoded-video cache, so
    /// the first upgrade pays one cold decode per video.
    alternative: Arc<acoi::DetectorRegistry>,
    backend: Arc<CountingBackend>,
    dir: PathBuf,
    pub counters: Arc<StorageCounters>,
}

fn config(site: &Arc<websim::Site>) -> EngineConfig {
    EngineConfig {
        text_servers: 2,
        text_replicas: 1,
        ..ausopen::config(Arc::clone(site))
    }
}

fn serve(engine: Engine) -> QueryService {
    QueryService::with_config(
        engine,
        AdmissionConfig {
            latency_target: Duration::from_secs(60),
            ..AdmissionConfig::default()
        },
    )
}

fn open(
    site: &Arc<websim::Site>,
    backend: &Arc<CountingBackend>,
    dir: &Path,
) -> Result<QueryService, String> {
    let backend = Arc::clone(backend) as Arc<dyn StorageBackend>;
    let (mut engine, _report) =
        Engine::open_with_backend(config(site), backend, dir).map_err(text)?;
    engine.set_obs(&obs::Obs::enabled());
    Ok(serve(engine))
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The engine's answer rows as the oracle reads them.
pub fn hits(answer: Vec<dlsearch::EngineHit>) -> Vec<Hit> {
    answer
        .into_iter()
        .map(|h| Hit {
            chain: h.chain,
            score: h.score,
            video: h.video,
        })
        .collect()
}

impl Sut {
    /// Ingest → checkpoint → drop → reopen from the checkpoint, under
    /// `dir` (created; must not hold an older checkpoint).
    pub fn setup(lib: &Library, dir: &Path) -> Result<(Sut, SetupTimes), String> {
        let counters = Arc::new(StorageCounters::default());
        let backend = Arc::new(CountingBackend {
            inner: FsBackend,
            counters: Arc::clone(&counters),
        });
        let mut times = SetupTimes::default();

        let t = Instant::now();
        let mut engine = Engine::new(config(&lib.site)).map_err(text)?;
        let report = engine.populate(&lib.pages).map_err(text)?;
        times.populate = t.elapsed();
        times.media_analysed = report.media_analyzed;
        times.analyse = Duration::from_secs_f64(engine.last_populate_timings().analyse_ms / 1e3);

        let t = Instant::now();
        engine
            .persist_to_backend(Arc::clone(&backend) as Arc<dyn StorageBackend>, dir)
            .map_err(text)?;
        times.persist = t.elapsed();
        drop(engine);

        let t = Instant::now();
        let service = open(&lib.site, &backend, dir)?;
        times.open = t.elapsed();
        let sut = Sut {
            service,
            site: Arc::clone(&lib.site),
            alternative: Arc::new(ausopen::detectors(Arc::clone(&lib.site))),
            backend,
            dir: dir.to_path_buf(),
            counters,
        };
        Ok((sut, times))
    }

    /// Drops the running engine, then recovers from storage: the newest
    /// checkpoint plus the log tail. Returns the recovery time.
    pub fn reopen(self) -> Result<(Sut, Duration), String> {
        let Sut {
            service,
            site,
            alternative,
            backend,
            dir,
            counters,
        } = self;
        drop(service);
        let t = Instant::now();
        let service = open(&site, &backend, &dir)?;
        let elapsed = t.elapsed();
        Ok((
            Sut {
                service,
                site,
                alternative,
                backend,
                dir,
                counters,
            },
            elapsed,
        ))
    }

    /// One client request through the front door: parse the query text,
    /// pass the admission gate, execute. The time covers exactly that;
    /// an answer of reduced quality is reported as a failure.
    pub fn query(&self, query: &str) -> (Duration, Result<Vec<Hit>, String>) {
        let t = Instant::now();
        let outcome = qlang::parse(query).and_then(|q| {
            self.service
                .query(&q, Priority::Interactive, &faults::Budget::unlimited())
        });
        let elapsed = t.elapsed();
        let hits = outcome.map_err(text).and_then(|o| {
            if o.quality < 1.0 || !o.degraded.is_empty() {
                return Err(format!("quality {} {:?}", o.quality, o.degraded));
            }
            Ok(hits(o.hits))
        });
        (elapsed, hits)
    }

    pub fn invalidate_query_cache(&self) {
        self.service.engine().invalidate_query_cache();
    }

    pub fn checkpoint(&self) -> Result<(), String> {
        self.service.engine().checkpoint().map_err(text)
    }

    /// Declares the source behind `video_url` changed; the FDS
    /// regenerates its stored parse tree.
    pub fn refresh_source(&self, video_url: &str) -> Result<bool, String> {
        self.service
            .engine()
            .refresh_source(video_url, |_| false)
            .map_err(text)
    }

    /// Installs the alternative `tennis` tracker as a minor revision
    /// while queries keep being served.
    pub fn upgrade_tennis_online(&self) -> Result<UpgradeReport, String> {
        let alternative = Arc::clone(&self.alternative);
        let report = self
            .service
            .upgrade_detector_online(
                "tennis",
                acoi::RevisionLevel::Minor,
                Box::new(move |inputs| {
                    alternative
                        .run("tennis", inputs)
                        .map_err(|e| acoi::DetectorError::Unavailable(e.to_string()))
                }),
            )
            .map_err(text)?;
        Ok(UpgradeReport {
            objects: report.objects_reparsed,
            detector_calls: report.detector_calls,
            detector_calls_saved: report.detector_calls_saved,
        })
    }

    pub fn state_digest(&self) -> Result<Vec<u8>, String> {
        self.service.engine().state_digest().map_err(text)
    }

    /// The operator's metrics scrape (Prometheus text format).
    pub fn metrics_text(&self) -> String {
        self.service.engine().metrics_text()
    }

    /// Switches the engine's own instrumentation on or off.
    pub fn set_obs(&self, enabled: bool) {
        let handle = if enabled {
            obs::Obs::enabled()
        } else {
            obs::Obs::disabled()
        };
        self.service.engine().set_obs(&handle);
    }

    /// The engine itself, for the traced probes of `layers.rs`.
    pub fn engine(&self) -> MutexGuard<'_, Engine> {
        self.service.engine()
    }

    /// Bytes the checkpoint directory holds (snapshots, manifests, log).
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.dir)
    }
}
