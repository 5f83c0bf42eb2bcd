//! Pluggable storage backends for the durability layer.
//!
//! Every byte the WAL and the checkpointer touch goes through a
//! [`StorageBackend`], so the whole durability path can run against the
//! real filesystem ([`FsBackend`]) or a deterministic fault-injecting
//! wrapper ([`FaultyBackend`]) driven by a [`faults::FaultPlan`]. The
//! wrapper consults the `disk:*` label namespace: operations on WAL
//! segments (`*.wal`) decide under `disk:wal`, everything else
//! (snapshots, manifests) under `disk:snapshot`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use faults::{FaultPlan, IoFault};

use crate::error::{Error, Result};

/// The operations the durability layer needs from a disk.
///
/// Implementations must be shareable across threads; the engine keeps
/// one backend behind an `Arc` for the WAL, the checkpointer and
/// recovery alike.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Creates (or truncates) `path` with `bytes`. Not atomic — pair
    /// with [`StorageBackend::rename`] for atomic replacement.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// Appends `bytes` to `path`, creating it if missing.
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// Forces `path` (a file or a directory) to stable storage.
    fn sync(&self, path: &Path) -> Result<()>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes a file; removing a missing file is an error.
    fn remove(&self, path: &Path) -> Result<()>;
    /// File names (not full paths) inside `dir`, sorted.
    fn list(&self, dir: &Path) -> Result<Vec<String>>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

fn io_err(path: &Path, op: &str, e: impl std::fmt::Display) -> Error {
    Error::Io(format!("{op} {}: {e}", path.display()))
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsBackend;

impl FsBackend {
    /// A shareable filesystem backend.
    pub fn shared() -> Arc<dyn StorageBackend> {
        Arc::new(FsBackend)
    }
}

impl StorageBackend for FsBackend {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| io_err(path, "read", e))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        std::fs::write(path, bytes).map_err(|e| io_err(path, "write", e))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open-append", e))?;
        f.write_all(bytes).map_err(|e| io_err(path, "append", e))
    }

    fn sync(&self, path: &Path) -> Result<()> {
        let f = std::fs::File::open(path).map_err(|e| io_err(path, "open-sync", e))?;
        f.sync_all().map_err(|e| io_err(path, "fsync", e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to).map_err(|e| io_err(from, "rename", e))
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path).map_err(|e| io_err(path, "remove", e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, "list", e))? {
            let entry = entry.map_err(|e| io_err(dir, "list", e))?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "mkdir", e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The fault-plan label a path decides under: WAL segments are
/// `disk:wal`, snapshot/manifest files `disk:snapshot`.
pub fn site_label(path: &Path) -> &'static str {
    match path.extension().and_then(|e| e.to_str()) {
        Some("wal") => "disk:wal",
        _ => "disk:snapshot",
    }
}

/// A backend wrapper that injects deterministic disk faults.
///
/// Write-shaped faults: [`IoFault::TornWrite`] persists a prefix then
/// fails, [`IoFault::BitFlip`] silently corrupts one bit,
/// [`IoFault::NoSpace`] fails before any byte lands. Read-shaped
/// faults: [`IoFault::ShortRead`] truncates the returned buffer,
/// [`IoFault::BitFlip`] flips a bit of it. [`IoFault::FsyncFail`] fails
/// `sync`; `rename` fails on [`IoFault::NoSpace`]. Kinds that make no
/// sense for an operation (e.g. a torn write during a read) proceed
/// normally, so one probabilistic spec can drive every site. Metadata
/// operations (`list`, `exists`, `create_dir_all`) are never faulted.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    plan: Arc<FaultPlan>,
}

impl FaultyBackend {
    /// Wraps `inner`, deciding every data operation through `plan`.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: Arc<FaultPlan>) -> Self {
        FaultyBackend { inner, plan }
    }

    /// A shareable fault-injecting filesystem backend.
    pub fn shared(plan: Arc<FaultPlan>) -> Arc<dyn StorageBackend> {
        Arc::new(FaultyBackend::new(FsBackend::shared(), plan))
    }

    fn decide(&self, path: &Path, len: usize) -> IoFault {
        self.plan.decide_io(site_label(path), len)
    }
}

fn flip_bit(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let i = at.min(out.len() - 1);
        out[i] ^= 1;
    }
    out
}

impl StorageBackend for FaultyBackend {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let bytes = self.inner.read(path)?;
        match self.decide(path, bytes.len()) {
            IoFault::ShortRead => {
                let keep = bytes.len() / 2;
                Ok(bytes[..keep].to_vec())
            }
            IoFault::BitFlip { at } => Ok(flip_bit(&bytes, at)),
            IoFault::NoSpace => Err(io_err(path, "read", "injected I/O error")),
            _ => Ok(bytes),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.decide(path, bytes.len()) {
            IoFault::TornWrite { at } => {
                let keep = at.min(bytes.len());
                self.inner.write(path, &bytes[..keep])?;
                Err(io_err(path, "write", "injected torn write"))
            }
            IoFault::BitFlip { at } => self.inner.write(path, &flip_bit(bytes, at)),
            IoFault::NoSpace => Err(io_err(path, "write", "injected ENOSPC")),
            _ => self.inner.write(path, bytes),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.decide(path, bytes.len()) {
            IoFault::TornWrite { at } => {
                let keep = at.min(bytes.len());
                self.inner.append(path, &bytes[..keep])?;
                Err(io_err(path, "append", "injected torn write"))
            }
            IoFault::BitFlip { at } => self.inner.append(path, &flip_bit(bytes, at)),
            IoFault::NoSpace => Err(io_err(path, "append", "injected ENOSPC")),
            _ => self.inner.append(path, bytes),
        }
    }

    fn sync(&self, path: &Path) -> Result<()> {
        match self.decide(path, 0) {
            IoFault::FsyncFail => Err(io_err(path, "fsync", "injected fsync failure")),
            _ => self.inner.sync(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        match self.decide(to, 0) {
            IoFault::NoSpace => Err(io_err(to, "rename", "injected I/O error")),
            _ => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Writes `bytes` to `path` atomically: write to `<path>.tmp`, fsync,
/// rename over `path`, fsync the parent directory. A crash at any point
/// leaves either the old file or the new one — never a mix.
pub fn write_atomic(backend: &dyn StorageBackend, path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp: PathBuf = path.to_path_buf();
    let mut name = tmp
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| Error::Io(format!("no file name in {}", path.display())))?;
    name.push_str(".tmp");
    tmp.set_file_name(name);
    backend.write(&tmp, bytes)?;
    backend.sync(&tmp)?;
    backend.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        backend.sync(parent)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monet_storage_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fs_backend_round_trips() {
        let dir = tmp_dir("fs");
        let b = FsBackend;
        let p = dir.join("a.snap");
        b.write(&p, b"hello").unwrap();
        b.append(&p, b" world").unwrap();
        b.sync(&p).unwrap();
        assert_eq!(b.read(&p).unwrap(), b"hello world");
        assert!(b.exists(&p));
        assert!(b.list(&dir).unwrap().contains(&"a.snap".to_owned()));
        b.remove(&p).unwrap();
        assert!(!b.exists(&p));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labels_split_wal_from_snapshot() {
        assert_eq!(site_label(Path::new("/x/wal-000.wal")), "disk:wal");
        assert_eq!(site_label(Path::new("/x/views-1.snap")), "disk:snapshot");
        assert_eq!(site_label(Path::new("/x/MANIFEST")), "disk:snapshot");
    }

    #[test]
    fn torn_write_persists_a_prefix_then_fails() {
        let dir = tmp_dir("torn");
        let plan = FaultPlan::seeded(1)
            .with_io_script("disk:snapshot", vec![IoFault::TornWrite { at: 3 }])
            .shared();
        let b = FaultyBackend::new(FsBackend::shared(), plan);
        let p = dir.join("x.snap");
        assert!(matches!(b.write(&p, b"abcdef"), Err(Error::Io(_))));
        assert_eq!(std::fs::read(&p).unwrap(), b"abc");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_corrupts_silently() {
        let dir = tmp_dir("flip");
        let plan = FaultPlan::seeded(2)
            .with_io_script("disk:snapshot", vec![IoFault::BitFlip { at: 1 }])
            .shared();
        let b = FaultyBackend::new(FsBackend::shared(), plan);
        let p = dir.join("x.snap");
        b.write(&p, b"abc").unwrap();
        let got = std::fs::read(&p).unwrap();
        assert_ne!(got, b"abc");
        assert_eq!(got.len(), 3);
        assert_eq!(got[1] ^ 1, b'b');
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_read_and_fsync_failures() {
        let dir = tmp_dir("short");
        let p = dir.join("x.snap");
        std::fs::write(&p, b"0123456789").unwrap();
        let plan = FaultPlan::seeded(3)
            .with_io_script("disk:snapshot", vec![IoFault::ShortRead, IoFault::FsyncFail])
            .shared();
        let b = FaultyBackend::new(FsBackend::shared(), plan);
        assert_eq!(b.read(&p).unwrap(), b"01234");
        assert!(matches!(b.sync(&p), Err(Error::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_or_leaves_the_old_file() {
        let dir = tmp_dir("atomic");
        let p = dir.join("MANIFEST");
        let fs: Arc<dyn StorageBackend> = FsBackend::shared();
        write_atomic(fs.as_ref(), &p, b"v1").unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"v1");
        // Crash during the tmp write: the old file survives untouched.
        let plan = FaultPlan::seeded(4)
            .with_io_script("disk:snapshot", vec![IoFault::TornWrite { at: 1 }])
            .shared();
        let faulty = FaultyBackend::new(Arc::clone(&fs), plan);
        assert!(write_atomic(&faulty, &p, b"v2-longer").is_err());
        assert_eq!(fs.read(&p).unwrap(), b"v1");
        std::fs::remove_dir_all(&dir).ok();
    }
}
