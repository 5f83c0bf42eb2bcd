//! Write-ahead log: append-only, CRC-framed, segment-rotated.
//!
//! Every mutating store operation appends a record *before* touching the
//! in-memory catalog, so a crash after the append can be replayed and a
//! crash before it leaves no trace — the two states the recovery harness
//! accepts. On-disk framing per record:
//!
//! ```text
//! len: u32 LE | crc32(payload): u32 LE | payload: len bytes
//! ```
//!
//! Records live in segments named `wal-<start_lsn:016x>.wal` inside the
//! log directory; a segment rotates once it exceeds
//! [`Wal::max_segment_bytes`]. Appends are buffered and fsynced every
//! [`Wal::sync_every`] records (or on [`Wal::flush`]), batching the
//! dominant durability cost. [`Wal::replay_from`] returns every intact
//! record at or past a watermark and *silently stops* at the first torn
//! or corrupt frame in the final segment — the tail a crash mid-append
//! legitimately leaves behind.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::crc::crc32;
use crate::error::{Error, Result};
use crate::storage::StorageBackend;

const FRAME_HEADER: usize = 8;

/// Reads a little-endian u32 from a 4-byte slice without the
/// `try_into().unwrap()` dance (the crate denies `unwrap_used`).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}
/// A sane upper bound on one record; anything larger is corruption.
const MAX_RECORD: usize = 64 << 20;

fn segment_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:016x}.wal")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".wal")?;
    u64::from_str_radix(hex, 16).ok()
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number: the index of this record since log creation.
    pub lsn: u64,
    /// The opaque payload handed to [`Wal::append`].
    pub payload: Vec<u8>,
}

/// The write-ahead log over a [`StorageBackend`].
#[derive(Debug)]
pub struct Wal {
    backend: Arc<dyn StorageBackend>,
    dir: PathBuf,
    /// Records buffered since the last fsync.
    pending: Vec<u8>,
    pending_records: u64,
    /// LSN of the next record to append.
    next_lsn: u64,
    /// Start LSN of the segment currently appended to.
    current_start: u64,
    /// Bytes already durable in the current segment.
    current_bytes: u64,
    /// Set by the first failed flush. The buffered records were lost
    /// and the segment tail is in an unknown state, so appending more
    /// would leave an undetectable gap in the positional LSN numbering:
    /// the log refuses everything until reopened (which seals or drops
    /// the damaged tail).
    poisoned: bool,
    /// Fsync after this many buffered records.
    pub sync_every: u64,
    /// Rotate to a fresh segment past this many bytes.
    pub max_segment_bytes: u64,
    /// Observability handle (spans around flush); disabled by default.
    obs: obs::Obs,
    metrics: Option<WalMetrics>,
}

/// Pre-registered metric handles for the WAL hot path.
#[derive(Debug, Clone)]
struct WalMetrics {
    appends: obs::Counter,
    append_bytes: obs::Counter,
    flushes: obs::Counter,
    flush_failures: obs::Counter,
    flushed_bytes: obs::Counter,
}

impl WalMetrics {
    fn register(registry: &obs::Registry) -> WalMetrics {
        WalMetrics {
            appends: registry.counter("monet_wal_appends_total", "Records appended to the WAL"),
            append_bytes: registry.counter(
                "monet_wal_append_bytes_total",
                "Payload bytes appended to the WAL (excluding framing)",
            ),
            flushes: registry.counter("monet_wal_flushes_total", "Successful WAL flush+fsync cycles"),
            flush_failures: registry.counter(
                "monet_wal_flush_failures_total",
                "WAL flushes that failed and poisoned the log",
            ),
            flushed_bytes: registry.counter(
                "monet_wal_flushed_bytes_total",
                "Framed bytes made durable by WAL flushes",
            ),
        }
    }
}

impl Wal {
    /// Opens (or creates) the log in `dir`, scanning existing segments
    /// to find the next LSN. Torn bytes at the tail of the last segment
    /// are ignored here and truncated on the next append cycle's terms
    /// (they are simply never read back).
    pub fn open(backend: Arc<dyn StorageBackend>, dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        backend.create_dir_all(&dir)?;
        let mut wal = Wal {
            backend,
            dir,
            pending: Vec::new(),
            pending_records: 0,
            next_lsn: 0,
            current_start: 0,
            current_bytes: 0,
            poisoned: false,
            sync_every: 32,
            max_segment_bytes: 4 << 20,
            obs: obs::Obs::disabled(),
            metrics: None,
        };
        if let Some(last_start) = wal.segment_starts()?.last().copied() {
            let path = wal.dir.join(segment_name(last_start));
            let bytes = wal.backend.read(&path)?;
            let (records, valid_bytes) = decode_frames(&bytes, last_start);
            wal.next_lsn = records.last().map(|r| r.lsn + 1).unwrap_or(last_start);
            if valid_bytes < bytes.len() {
                if records.is_empty() {
                    // The whole segment is one torn tail — no record in
                    // it was ever readable, so it can simply go, and the
                    // name is reused for the next append.
                    wal.backend.remove(&path)?;
                    wal.current_start = last_start;
                } else {
                    // Seal the damaged segment and rotate: appends must
                    // never land *behind* torn bytes, where replay
                    // (which stops at the tear) could not reach them.
                    wal.current_start = wal.next_lsn;
                }
                wal.current_bytes = 0;
            } else {
                wal.current_start = last_start;
                wal.current_bytes = valid_bytes as u64;
            }
        }
        Ok(wal)
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Connects the log to an observability handle: appends and flushes
    /// feed the `monet_wal_*` counters, and each flush runs under a
    /// `monet.wal.flush` span. A disabled handle disconnects.
    pub fn set_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
        self.metrics = o.registry().map(WalMetrics::register);
    }

    fn segment_starts(&self) -> Result<Vec<u64>> {
        let mut starts: Vec<u64> = self
            .backend
            .list(&self.dir)?
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        starts.sort_unstable();
        Ok(starts)
    }

    fn current_path(&self) -> PathBuf {
        self.dir.join(segment_name(self.current_start))
    }

    /// Appends one record, returning its LSN. Durable only after the
    /// batched fsync — call [`Wal::flush`] before relying on it.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if self.poisoned {
            return Err(Error::Wal(
                "log poisoned by an earlier I/O failure; reopen to recover".into(),
            ));
        }
        if payload.len() > MAX_RECORD {
            return Err(Error::Wal(format!("record of {} bytes exceeds cap", payload.len())));
        }
        let lsn = self.next_lsn;
        self.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending.extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.pending_records += 1;
        self.next_lsn += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.append_bytes.add(payload.len() as u64);
        }
        if self.pending_records >= self.sync_every {
            self.flush()?;
        }
        Ok(lsn)
    }

    /// Writes buffered records to the current segment and fsyncs it,
    /// rotating to a fresh segment first if the current one is full.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(Error::Wal(
                "log poisoned by an earlier I/O failure; reopen to recover".into(),
            ));
        }
        if self.current_bytes >= self.max_segment_bytes {
            // First LSN of the new segment = first buffered record.
            self.current_start = self.next_lsn - self.pending_records;
            self.current_bytes = 0;
        }
        let path = self.current_path();
        let buf = std::mem::take(&mut self.pending);
        self.pending_records = 0;
        let mut span = self.obs.span("monet.wal.flush");
        span.add_work(buf.len() as u64);
        // On failure the buffered records are lost and the segment tail
        // is indeterminate (a torn append may have landed a prefix):
        // poison the log so no later append can ride over the damage.
        if let Err(e) = self
            .backend
            .append(&path, &buf)
            .and_then(|()| self.backend.sync(&path))
        {
            self.poisoned = true;
            span.set_outcome(obs::Outcome::Degraded);
            span.note(|| "poisoned".to_owned());
            if let Some(m) = &self.metrics {
                m.flush_failures.inc();
            }
            return Err(e);
        }
        self.current_bytes += buf.len() as u64;
        if let Some(m) = &self.metrics {
            m.flushes.inc();
            m.flushed_bytes.add(buf.len() as u64);
        }
        Ok(())
    }

    /// Every intact record with `lsn >= watermark`, in order. Stops at
    /// the first torn or corrupt frame (a crashed append's tail).
    pub fn replay_from(&self, watermark: u64) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        for start in self.segment_starts()? {
            let bytes = self.backend.read(&self.dir.join(segment_name(start)))?;
            let (records, _) = decode_frames(&bytes, start);
            out.extend(records.into_iter().filter(|r| r.lsn >= watermark));
        }
        Ok(out)
    }

    /// Deletes segments whose records all fall below `watermark` — the
    /// checkpoint already covers them.
    pub fn gc_below(&mut self, watermark: u64) -> Result<()> {
        let starts = self.segment_starts()?;
        for window in starts.windows(2) {
            // A segment is disposable when the *next* one starts at or
            // below the watermark, i.e. every record in it is covered.
            if window[1] <= watermark {
                self.backend.remove(&self.dir.join(segment_name(window[0])))?;
            }
        }
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Decodes consecutive frames starting at `start_lsn`; returns the
/// records plus the count of bytes covered by intact frames (the point
/// to which the segment is trustworthy).
fn decode_frames(bytes: &[u8], start_lsn: u64) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut lsn = start_lsn;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = le_u32(&bytes[pos..pos + 4]) as usize;
        let crc = le_u32(&bytes[pos + 4..pos + 8]);
        if len > MAX_RECORD || bytes.len() - pos - FRAME_HEADER < len {
            break; // torn tail: length runs past the file
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break; // corrupt frame: stop replay here
        }
        records.push(WalRecord { lsn, payload: payload.to_vec() });
        pos += FRAME_HEADER + len;
        lsn += 1;
    }
    (records, pos)
}

/// A cheap cloneable handle stores hold to log their mutations.
///
/// The handle tags every record with a store id byte so one shared log
/// serialises all stores' operations in a single total order. Payload
/// layout produced by [`WalHandle::log`]:
///
/// ```text
/// store: u8 | op: u8 | nfields: u8 | (len: u32 LE | bytes)*
/// ```
#[derive(Debug, Clone)]
pub struct WalHandle {
    wal: Arc<Mutex<Wal>>,
    store: u8,
}

impl WalHandle {
    /// Wraps `wal` for records tagged with `store`.
    pub fn new(wal: Arc<Mutex<Wal>>, store: u8) -> Self {
        WalHandle { wal, store }
    }

    /// A handle over the same log for a different store tag.
    pub fn for_store(&self, store: u8) -> Self {
        WalHandle { wal: Arc::clone(&self.wal), store }
    }

    fn encode(&self, op: u8, fields: &[&[u8]]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(3 + fields.iter().map(|f| 4 + f.len()).sum::<usize>());
        payload.push(self.store);
        payload.push(op);
        payload.push(fields.len() as u8);
        for f in fields {
            payload.extend_from_slice(&(f.len() as u32).to_le_bytes());
            payload.extend_from_slice(f);
        }
        payload
    }

    /// Appends one record; the store must only mutate if this returns
    /// `Ok`.
    pub fn log(&self, op: u8, fields: &[&[u8]]) -> Result<u64> {
        let payload = self.encode(op, fields);
        self.wal
            .lock()
            .map_err(|_| Error::Wal("log mutex poisoned".into()))?
            .append(&payload)
    }

    /// Appends one record per field group under a **single** log lock
    /// acquisition — the bulk-ingestion path. [`WalHandle::log`] locks
    /// the shared mutex once per record, which at 10^5 documents makes
    /// the log the ingest bottleneck; batching amortizes the lock and
    /// lets the records ride one buffered-fsync cycle. Returns the LSN
    /// of the first record, or `None` for an empty batch. Stores must
    /// only mutate if this returns `Ok` (all-or-nothing: a failed
    /// append mid-batch poisons nothing extra — earlier records of the
    /// batch are already in the buffer and replay idempotently).
    pub fn log_batch(&self, op: u8, groups: &[Vec<&[u8]>]) -> Result<Option<u64>> {
        if groups.is_empty() {
            return Ok(None);
        }
        let payloads: Vec<Vec<u8>> = groups.iter().map(|g| self.encode(op, g)).collect();
        let mut wal = self
            .wal
            .lock()
            .map_err(|_| Error::Wal("log mutex poisoned".into()))?;
        let mut first = None;
        for p in &payloads {
            let lsn = wal.append(p)?;
            first.get_or_insert(lsn);
        }
        Ok(first)
    }

    /// Forces everything appended so far to disk.
    pub fn flush(&self) -> Result<()> {
        self.wal
            .lock()
            .map_err(|_| Error::Wal("log mutex poisoned".into()))?
            .flush()
    }

    /// Appends one record and synchronously flushes it — for records
    /// that *are* the commit point of an operation (a distribution
    /// layout cutover, say), where losing the record would silently
    /// roll the operation back even though the caller saw it succeed.
    pub fn log_sync(&self, op: u8, fields: &[&[u8]]) -> Result<u64> {
        let lsn = self.log(op, fields)?;
        self.flush()?;
        Ok(lsn)
    }
}

/// Splits a payload produced by [`WalHandle::log`] back into
/// `(store, op, fields)`.
pub fn decode_payload(payload: &[u8]) -> Result<(u8, u8, Vec<Vec<u8>>)> {
    if payload.len() < 3 {
        return Err(Error::Wal("record shorter than header".into()));
    }
    let (store, op, nfields) = (payload[0], payload[1], payload[2] as usize);
    let mut fields = Vec::with_capacity(nfields);
    let mut pos = 3usize;
    for _ in 0..nfields {
        if payload.len() - pos < 4 {
            return Err(Error::Wal("truncated field length".into()));
        }
        let len = le_u32(&payload[pos..pos + 4]) as usize;
        pos += 4;
        if payload.len() - pos < len {
            return Err(Error::Wal("field runs past record".into()));
        }
        fields.push(payload[pos..pos + len].to_vec());
        pos += len;
    }
    Ok((store, op, fields))
}

/// Convenience: open a log and wrap it in handles for sharing.
pub fn open_shared(backend: Arc<dyn StorageBackend>, dir: impl AsRef<Path>) -> Result<Arc<Mutex<Wal>>> {
    Ok(Arc::new(Mutex::new(Wal::open(backend, dir.as_ref().to_path_buf())?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FsBackend;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monet_wal_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn append_flush_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        for i in 0..5u8 {
            wal.append(&[i; 3]).unwrap();
        }
        wal.flush().unwrap();
        let records = wal.replay_from(0).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3].payload, vec![3u8; 3]);
        assert_eq!(records[3].lsn, 3);
        // Watermark skips the prefix.
        assert_eq!(wal.replay_from(4).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_lsns() {
        let dir = tmp_dir("reopen");
        {
            let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
            wal.append(b"a").unwrap();
            wal.append(b"b").unwrap();
            wal.flush().unwrap();
        }
        let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        assert_eq!(wal.next_lsn(), 2);
        wal.append(b"c").unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.replay_from(0).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped() {
        let dir = tmp_dir("torn");
        {
            let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
            wal.append(b"intact-one").unwrap();
            wal.append(b"intact-two").unwrap();
            wal.flush().unwrap();
        }
        // Simulate a crash mid-append: write a frame header promising
        // more bytes than exist.
        let seg = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"only-a-few");
        std::fs::write(&seg, &bytes).unwrap();
        let wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        assert_eq!(wal.next_lsn(), 2, "torn record must not count");
        assert_eq!(wal.replay_from(0).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_flush_poisons_the_log() {
        use crate::storage::FaultyBackend;
        use faults::{FaultPlan, IoFault};
        let dir = tmp_dir("poison");
        let plan = FaultPlan::seeded(6)
            .with_io_script("disk:wal", vec![IoFault::NoSpace])
            .shared();
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FaultyBackend::new(FsBackend::shared(), plan));
        let mut wal = Wal::open(backend, dir.clone()).unwrap();
        wal.append(b"doomed").unwrap();
        assert!(wal.flush().is_err());
        // The script is exhausted — the disk would now accept writes —
        // but the log must refuse: its lost buffer means any further
        // append would be misnumbered on replay.
        assert!(matches!(wal.append(b"after"), Err(Error::Wal(_))));
        drop(wal); // the drop-time flush must not sneak bytes in either
        let wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        assert_eq!(wal.replay_from(0).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_a_torn_tail_stay_replayable() {
        let dir = tmp_dir("torn_append");
        {
            let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
            wal.append(b"survivor").unwrap();
            wal.flush().unwrap();
        }
        // Crash mid-append: torn bytes at the segment tail.
        let seg = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0xFF; 13]);
        std::fs::write(&seg, &bytes).unwrap();
        {
            let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
            assert_eq!(wal.next_lsn(), 1);
            wal.append(b"after-recovery").unwrap();
            wal.flush().unwrap();
        }
        // The new record must not hide behind the torn bytes.
        let wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        let records = wal.replay_from(0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].payload, b"after-recovery");
        assert_eq!(records[1].lsn, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_torn_segment_is_discarded_on_open() {
        let dir = tmp_dir("torn_whole");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_name(0)), [0xAB; 7]).unwrap();
        let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        assert_eq!(wal.next_lsn(), 0);
        wal.append(b"fresh").unwrap();
        wal.flush().unwrap();
        let records = wal.replay_from(0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"fresh");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = tmp_dir("crc");
        {
            let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.append(b"third").unwrap();
            wal.flush().unwrap();
        }
        let seg = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a bit inside the second record's payload.
        let off = FRAME_HEADER + 5 + FRAME_HEADER + 2;
        bytes[off] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();
        let wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        let records = wal.replay_from(0).unwrap();
        assert_eq!(records.len(), 1, "replay stops at the corrupt frame");
        assert_eq!(records[0].payload, b"first");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_gc() {
        let dir = tmp_dir("rotate");
        let mut wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
        wal.max_segment_bytes = 64;
        wal.sync_every = 1; // flush (and so maybe rotate) every record
        for i in 0..20u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.flush().unwrap();
        let segments = wal.segment_starts().unwrap();
        assert!(segments.len() > 1, "log should have rotated: {segments:?}");
        assert_eq!(wal.replay_from(0).unwrap().len(), 20);
        // GC below a watermark keeps every record >= watermark readable.
        wal.gc_below(10).unwrap();
        let replayed = wal.replay_from(10).unwrap();
        assert_eq!(replayed.len(), 10);
        assert_eq!(replayed[0].lsn, 10);
        assert!(wal.segment_starts().unwrap().len() < segments.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_batch_matches_per_record_log() {
        let dir_a = tmp_dir("batch_a");
        let dir_b = tmp_dir("batch_b");
        let docs: Vec<(Vec<u8>, Vec<u8>)> = (0..10u8)
            .map(|i| (vec![b'u', i], vec![b'x', i, i]))
            .collect();
        {
            let wal = open_shared(FsBackend::shared(), &dir_a).unwrap();
            let h = WalHandle::new(Arc::clone(&wal), 0);
            for (url, xml) in &docs {
                h.log(0, &[url, xml]).unwrap();
            }
            h.flush().unwrap();
        }
        {
            let wal = open_shared(FsBackend::shared(), &dir_b).unwrap();
            let h = WalHandle::new(Arc::clone(&wal), 0);
            let groups: Vec<Vec<&[u8]>> = docs
                .iter()
                .map(|(url, xml)| vec![url.as_slice(), xml.as_slice()])
                .collect();
            let first = h.log_batch(0, &groups).unwrap();
            assert_eq!(first, Some(0));
            h.flush().unwrap();
        }
        let read = |dir: &PathBuf| {
            let wal = Wal::open(FsBackend::shared(), dir.clone()).unwrap();
            wal.replay_from(0).unwrap()
        };
        assert_eq!(read(&dir_a), read(&dir_b), "identical records either way");
        assert!(WalHandle::new(open_shared(FsBackend::shared(), &dir_a).unwrap(), 0)
            .log_batch(0, &[])
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn handle_payloads_round_trip() {
        let dir = tmp_dir("handle");
        let wal = open_shared(FsBackend::shared(), &dir).unwrap();
        let views = WalHandle::new(Arc::clone(&wal), 0);
        let text = views.for_store(2);
        views.log(0, &[b"doc.xml", b"<a/>"]).unwrap();
        text.log(0, &[b"doc.xml#cdata", b"some words"]).unwrap();
        views.flush().unwrap();
        let records = wal.lock().unwrap().replay_from(0).unwrap();
        assert_eq!(records.len(), 2);
        let (store, op, fields) = decode_payload(&records[0].payload).unwrap();
        assert_eq!((store, op), (0, 0));
        assert_eq!(fields, vec![b"doc.xml".to_vec(), b"<a/>".to_vec()]);
        let (store, _, fields) = decode_payload(&records[1].payload).unwrap();
        assert_eq!(store, 2);
        assert_eq!(fields[1], b"some words");
        std::fs::remove_dir_all(&dir).ok();
    }
}
