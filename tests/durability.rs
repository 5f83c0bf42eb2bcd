//! Crash-safe durable storage, verified: WAL + checksummed atomic
//! snapshots under systematic disk fault injection.
//!
//! The harness kills the persistence path at every injected crash site
//! — each disk operation of a checkpoint (`disk:snapshot`) and of the
//! WAL batch flush (`disk:wal`), under torn writes, silent bit flips,
//! `ENOSPC` and fsync failures — and asserts that the reopened engine
//! is exactly the pre- or post-operation state: checkpoint crashes
//! never move the logical state, and a crashed WAL flush leaves a
//! consistent *operation prefix* (every store operation is either fully
//! replayed or absent; the one a tear cuts through is dropped whole).
//! Corrupted snapshots are detected by checksum and recovery falls back
//! to the previous valid generation — or, when every generation is
//! gone, to a full replay of the log. No failure mode panics: every
//! outcome is an `Ok` with a typed [`RecoveryReport`] or a typed error.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::sync::Arc;

use dlsearch::persist::{self, RecoveryReport, STORE_META, STORE_TEXT, STORE_VIEWS};
use dlsearch::{ausopen, qlang, Engine, EngineConfig, Error, QueryOptions};
use faults::{FaultPlan, IoFault};
use monet::storage::{FaultyBackend, FsBackend};
use monet::wal::{WalHandle, WalRecord};
use proptest::prelude::*;
use websim::{crawl, Site, SiteSpec};

fn spec() -> SiteSpec {
    SiteSpec {
        players: 2,
        articles: 2,
        seed: 11,
    }
}

fn config(site: &Arc<Site>) -> EngineConfig {
    ausopen::config(Arc::clone(site))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dl_durability_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const FIGURE13: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

fn answers(engine: &mut Engine) -> String {
    let query = qlang::parse(FIGURE13).unwrap();
    format!("{:?}", engine.query(&query).unwrap())
}

/// The state an engine reaches by replaying exactly `records` into
/// fresh stores — one entry per crash-legitimate operation prefix.
fn replay_digest(records: &[WalRecord]) -> Vec<u8> {
    let mut views = monetxml::XmlStore::new();
    let mut meta = monetxml::XmlStore::new();
    let mut text = ir::DistributedIndex::new(1, ir::ScoreModel::TfIdf).unwrap();
    let mut report = RecoveryReport::default();
    persist::apply_wal_records(&mut views, &mut meta, &mut text, records, &mut report).unwrap();
    state_digest(&views, &meta, &mut text)
}

/// Byte digest of the replayed durable state, matching
/// [`Engine::state_digest`]: content-only shard snapshots, because the
/// epoch counters measure how many commits a history took (the
/// manifest is their durable authority) and two replays reaching the
/// same state may legitimately count differently.
fn state_digest(
    views: &monetxml::XmlStore,
    meta: &monetxml::XmlStore,
    text: &mut ir::DistributedIndex,
) -> Vec<u8> {
    let mut out = views.snapshot().unwrap();
    out.extend_from_slice(&meta.snapshot().unwrap());
    for shard in text.content_snapshot_shards().unwrap() {
        out.extend_from_slice(&shard);
    }
    out
}

#[test]
fn zero_fault_round_trip_is_byte_identical() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let dir = tmp("roundtrip");

    let (mut engine, report) = Engine::open(config(&site), &dir).unwrap();
    assert_eq!(report.snapshot_id, 0, "fresh directory starts empty");
    engine.populate(&pages).unwrap();
    let before = engine.state_digest().unwrap();
    let answer_before = answers(&mut engine);
    let epochs = (
        engine.views().epoch(),
        engine.meta().store().epoch(),
        engine.text_index().epoch(),
    );
    engine.persist_to(&dir).unwrap();
    assert_eq!(engine.snapshot_id(), 1);
    drop(engine);

    let (mut reopened, report) = Engine::open(config(&site), &dir).unwrap();
    assert_eq!(report.snapshot_id, 1);
    assert!(!report.fell_back);
    assert_eq!(
        report.wal_replayed, 0,
        "the checkpoint covers the whole log: {report:?}"
    );
    assert_eq!(reopened.state_digest().unwrap(), before, "snapshot restore must be byte-identical");
    assert_eq!(
        (
            reopened.views().epoch(),
            reopened.meta().store().epoch(),
            reopened.text_index().epoch(),
        ),
        epochs,
        "epochs must resume from the manifest, not restart at zero"
    );
    assert_eq!(answers(&mut reopened), answer_before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A replicated engine spreads its reads over the copies of each group
/// after a restart as before it: replicas and their placement are
/// derived state rebuilt by the open, and no setting rides along that
/// the restored index could drop.
#[test]
fn a_reopened_replicated_engine_rotates_its_reads() {
    let site = Arc::new(Site::generate(spec()));
    let dir = tmp("rotation");
    let replicated = || EngineConfig {
        text_servers: 2,
        text_replicas: 1,
        ..config(&site)
    };
    let mut engine = Engine::new(replicated()).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    engine.persist_to(&dir).unwrap();
    drop(engine);

    let (mut reopened, _) = Engine::open(replicated(), &dir).unwrap();
    let query = qlang::parse(r#"FROM Player TEXT history CONTAINS "Winner" TOP 10"#).unwrap();
    let first = reopened.execute(&query, &QueryOptions::default()).unwrap();
    reopened.invalidate_query_cache();
    let second = reopened.execute(&query, &QueryOptions::default()).unwrap();
    assert!(!first.hits.is_empty());
    assert_eq!(first.hits, second.hits);
    let (first, second) = (first.text.unwrap(), second.text.unwrap());
    assert_eq!(first.served_by, vec![Some(0); 2]);
    assert_eq!(second.served_by, vec![Some(1); 2]);
    assert_eq!((first.failovers, second.failovers), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_replay_alone_rebuilds_the_full_state() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let dir = tmp("walonly");

    let (mut engine, _) = Engine::open(config(&site), &dir).unwrap();
    engine.populate(&pages).unwrap();
    let before = engine.state_digest().unwrap();
    let answer_before = answers(&mut engine);
    drop(engine); // never checkpointed: everything lives in the WAL

    let (mut reopened, report) = Engine::open(config(&site), &dir).unwrap();
    assert_eq!(report.snapshot_id, 0);
    assert!(report.wal_replayed > 0);
    assert_eq!(report.wal_skipped, 0, "{report:?}");
    assert_eq!(
        reopened.state_digest().unwrap(),
        before,
        "replaying the log from empty stores must reproduce the state byte-for-byte"
    );
    assert_eq!(answers(&mut reopened), answer_before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_crashes_at_every_disk_site_never_lose_state() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let faults = [
        IoFault::NoSpace,
        IoFault::FsyncFail,
        IoFault::TornWrite { at: 17 },
        IoFault::BitFlip { at: 33 },
    ];
    for (f, fault) in faults.iter().enumerate() {
        let dir = tmp(&format!("ckpt_{f}"));
        let plan = FaultPlan::seeded(5).shared();
        let backend = FaultyBackend::shared(Arc::clone(&plan));
        let (mut engine, _) =
            Engine::open_with_backend(config(&site), Arc::clone(&backend), &dir).unwrap();
        engine.populate(&pages).unwrap();
        let before = engine.state_digest().unwrap();

        // Sweep the crash over every disk operation of the checkpoint,
        // in one directory: debris from earlier crashes (tmp files,
        // partial snapshots, silently corrupted generations) stays
        // behind, so later recoveries face an ever-nastier disk.
        let mut clean_run = false;
        for k in 0..40usize {
            let mut script = vec![IoFault::None; k];
            script.push(*fault);
            plan.set_io_script("disk:snapshot", script);
            let c0 = plan.io_calls("disk:snapshot");
            let result = engine.checkpoint();
            let fired = plan.io_calls("disk:snapshot") - c0 > k as u64;
            plan.set_io_script("disk:snapshot", vec![]);

            // Whatever the crash left behind, a reopened engine must
            // come back with exactly the pre-crash state — a checkpoint
            // never moves the logical state.
            let (mut verifier, report) = Engine::open(config(&site), &dir).unwrap();
            assert_eq!(
                verifier.state_digest().unwrap(),
                before,
                "fault {fault:?} at disk op {k} lost state ({result:?}, {report:?})"
            );
            drop(verifier);
            if result.is_ok() && !fired {
                clean_run = true;
                break;
            }
        }
        assert!(clean_run, "sweep for {fault:?} never reached a fault-free checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn wal_crashes_leave_a_consistent_operation_prefix() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let video = site.players[0].video_url.clone();
    let audio = site.players[1].audio_url.clone();

    // Clean twin: the canonical record sequence and the states at every
    // operation boundary — the only states a crash may legitimately
    // expose.
    let twin_dir = tmp("wal_twin");
    let (mut twin, _) = Engine::open(config(&site), &twin_dir).unwrap();
    twin.populate(&pages).unwrap();
    assert!(twin.refresh_source(&video, |_| false).unwrap());
    assert!(twin.refresh_source(&audio, |_| false).unwrap());
    let full = twin.state_digest().unwrap();
    drop(twin);
    let records = {
        let wal = monet::wal::open_shared(FsBackend::shared(), twin_dir.join("wal")).unwrap();
        let records = wal.lock().unwrap().replay_from(0).unwrap();
        records
    };
    assert!(records.len() > 4, "workload too small to sweep: {} records", records.len());
    let prefix_digests: Vec<Vec<u8>> =
        (0..=records.len()).map(|j| replay_digest(&records[..j])).collect();
    assert_eq!(
        *prefix_digests.last().unwrap(),
        full,
        "full replay must reproduce the clean engine"
    );
    std::fs::remove_dir_all(&twin_dir).ok();

    let faults = [
        IoFault::NoSpace,
        IoFault::FsyncFail,
        IoFault::TornWrite { at: 3 },
        IoFault::TornWrite { at: 200 },
        IoFault::BitFlip { at: 50 },
    ];
    for (f, fault) in faults.iter().enumerate() {
        let mut clean_run = false;
        for k in 0..12usize {
            let dir = tmp(&format!("wal_crash_{f}_{k}"));
            let plan = FaultPlan::seeded(9).shared();
            let backend = FaultyBackend::shared(Arc::clone(&plan));
            let (mut engine, _) =
                Engine::open_with_backend(config(&site), Arc::clone(&backend), &dir).unwrap();
            let mut script = vec![IoFault::None; k];
            script.push(*fault);
            plan.set_io_script("disk:wal", script);

            // The same mutation sequence as the twin, stopping at the
            // first failure like a dying process would.
            let outcome = (|| -> dlsearch::Result<()> {
                engine.populate(&pages)?;
                engine.refresh_source(&video, |_| false)?;
                engine.refresh_source(&audio, |_| false)?;
                Ok(())
            })();
            let fired = plan.io_calls("disk:wal") > k as u64;
            drop(engine);

            let (mut reopened, report) = Engine::open(config(&site), &dir).unwrap();
            let got = reopened.state_digest().unwrap();
            let prefix = prefix_digests.iter().position(|d| *d == got);
            assert!(
                prefix.is_some(),
                "fault {fault:?} at disk op {k}: reopened state is not an operation prefix \
                 (outcome {outcome:?}, {report:?})"
            );
            // Reopening again must land on the very same state.
            drop(reopened);
            let (mut again, _) = Engine::open(config(&site), &dir).unwrap();
            assert_eq!(again.state_digest().unwrap(), got, "recovery must be deterministic");
            std::fs::remove_dir_all(&dir).ok();
            if outcome.is_ok() && !fired {
                assert_eq!(prefix, Some(records.len()), "a fault-free run is the full prefix");
                clean_run = true;
                break;
            }
        }
        assert!(clean_run, "sweep for {fault:?} never reached a fault-free run");
    }
}

#[test]
fn corrupt_newest_generation_falls_back_and_replays_the_difference() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let video = site.players[0].video_url.clone();
    let dir = tmp("fallback");

    let (mut engine, _) = Engine::open(config(&site), &dir).unwrap();
    engine.populate(&pages).unwrap();
    engine.checkpoint().unwrap(); // generation 1
    assert!(engine.refresh_source(&video, |_| false).unwrap());
    let full = engine.state_digest().unwrap();
    engine.checkpoint().unwrap(); // generation 2
    assert_eq!(engine.snapshot_id(), 2);
    drop(engine);

    // One flipped byte in a generation-2 snapshot: the checksum must
    // catch it and recovery must fall back to generation 1, replaying
    // the still-retained WAL difference — zero data loss.
    let snap = dir.join("views-00000002.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&snap, &bytes).unwrap();

    let (mut reopened, report) = Engine::open(config(&site), &dir).unwrap();
    assert!(report.fell_back, "{report:?}");
    assert_eq!(report.snapshot_id, 1);
    assert!(report.wal_replayed > 0, "{report:?}");
    assert!(!report.notes.is_empty());
    assert_eq!(reopened.state_digest().unwrap(), full);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_generations_corrupt_falls_back_to_full_replay_then_fails_typed() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let video = site.players[0].video_url.clone();
    let dir = tmp("last_resort");

    let (mut engine, _) = Engine::open(config(&site), &dir).unwrap();
    engine.populate(&pages).unwrap();
    engine.checkpoint().unwrap();
    assert!(engine.refresh_source(&video, |_| false).unwrap());
    let full = engine.state_digest().unwrap();
    engine.checkpoint().unwrap();
    drop(engine);

    // Corrupt both generations: the log still reaches LSN 0, so
    // recovery rebuilds everything from scratch by full replay.
    for name in ["views-00000001.snap", "views-00000002.snap"] {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
    }
    let (mut reopened, report) = Engine::open(config(&site), &dir).unwrap();
    assert!(report.fell_back);
    assert_eq!(report.snapshot_id, 0, "{report:?}");
    assert_eq!(reopened.state_digest().unwrap(), full);
    drop(reopened);

    // With the log gone too, nothing can be recovered: a typed error,
    // never a panic, never silently-empty stores.
    std::fs::remove_dir_all(dir.join("wal")).unwrap();
    match Engine::open(config(&site), &dir) {
        Err(Error::Recovery(_)) => {}
        other => panic!("expected Error::Recovery, got {:?}", other.map(|(_, r)| r)),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_at_the_log_tail_is_sealed_off_and_life_goes_on() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let video = site.players[0].video_url.clone();
    let dir = tmp("torn_tail");

    let (mut engine, _) = Engine::open(config(&site), &dir).unwrap();
    engine.populate(&pages).unwrap();
    let before = engine.state_digest().unwrap();
    drop(engine);

    // A crashed append leaves torn bytes at the segment tail.
    let seg_name = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .find(|n| n.ends_with(".wal"))
        .unwrap();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal").join(&seg_name))
        .unwrap();
    f.write_all(&[0xFF; 13]).unwrap();
    drop(f);

    let (mut reopened, _) = Engine::open(config(&site), &dir).unwrap();
    assert_eq!(reopened.state_digest().unwrap(), before, "the torn tail must be skipped");
    // New mutations append past the sealed tail and must replay.
    assert!(reopened.refresh_source(&video, |_| false).unwrap());
    let after = reopened.state_digest().unwrap();
    drop(reopened);
    let (mut again, _) = Engine::open(config(&site), &dir).unwrap();
    assert_eq!(
        again.state_digest().unwrap(),
        after,
        "records appended after a sealed tear must stay replayable"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn epochs_advance_monotonically_across_restart() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let video = site.players[0].video_url.clone();
    let dir = tmp("epochs");

    let (mut engine, _) = Engine::open(config(&site), &dir).unwrap();
    engine.populate(&pages).unwrap();
    engine.checkpoint().unwrap();
    let meta_epoch = engine.meta().store().epoch();
    assert!(meta_epoch > 0);
    drop(engine);

    let (mut reopened, _) = Engine::open(config(&site), &dir).unwrap();
    assert_eq!(reopened.meta().store().epoch(), meta_epoch);
    assert!(reopened.refresh_source(&video, |_| false).unwrap());
    assert!(
        reopened.meta().store().epoch() > meta_epoch,
        "a mutation after restart must move past every previously exposed epoch"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// WAL replay is idempotent: replaying a prefix and then the whole
    /// log leaves exactly the state of replaying the log once.
    #[test]
    fn replaying_a_prefix_twice_equals_replaying_once(n in 1usize..12, j_pick in any::<u64>()) {
        let dir = tmp(&format!("idem_{n}_{j_pick}"));
        let wal = monet::wal::open_shared(FsBackend::shared(), dir.join("wal")).unwrap();
        let views_h = WalHandle::new(Arc::clone(&wal), STORE_VIEWS);
        let meta_h = views_h.for_store(STORE_META);
        let text_h = views_h.for_store(STORE_TEXT);
        for i in 0..n {
            let source = format!("obj{i}");
            match i % 3 {
                0 => views_h.log(
                    monetxml::store::WAL_OP_INSERT,
                    &[source.as_bytes(), format!("<doc><t>word{i}</t></doc>").as_bytes()],
                ),
                1 => meta_h.log(
                    monetxml::store::WAL_OP_INSERT,
                    &[source.as_bytes(), format!("<MMO><loc>u{i}</loc></MMO>").as_bytes()],
                ),
                _ => text_h.log(
                    ir::index::WAL_OP_INDEX,
                    &[source.as_bytes(), format!("alpha beta word{i}").as_bytes()],
                ),
            }.unwrap();
        }
        views_h.flush().unwrap();
        let records = wal.lock().unwrap().replay_from(0).unwrap();
        prop_assert_eq!(records.len(), n);
        let j = (j_pick % (n as u64 + 1)) as usize;

        let once = replay_digest(&records);
        let mut views = monetxml::XmlStore::new();
        let mut meta = monetxml::XmlStore::new();
        let mut text = ir::DistributedIndex::new(1, ir::ScoreModel::TfIdf).unwrap();
        let mut report = RecoveryReport::default();
        persist::apply_wal_records(&mut views, &mut meta, &mut text, &records[..j], &mut report)
            .unwrap();
        persist::apply_wal_records(&mut views, &mut meta, &mut text, &records, &mut report)
            .unwrap();
        prop_assert_eq!(report.wal_skipped, j, "the prefix must be skipped the second time");
        let twice = state_digest(&views, &meta, &mut text);
        prop_assert_eq!(twice, once);
        std::fs::remove_dir_all(&dir).ok();
    }
}
