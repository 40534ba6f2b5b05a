//! VFS-style storage abstraction with deterministic fault injection.
//!
//! Every file touchpoint in the store — the WAL, and the engine's durable
//! layer with its checkpoint image above it — goes through [`StorageFs`]
//! instead of `std::fs` directly. Production code uses
//! [`RealFs`] (the default everywhere; zero behaviour change), while the
//! fault suites wrap it in a [`FaultFs`] that executes a *scripted fault
//! schedule*: fail the Nth write, cut a write short, fail an fsync, report
//! ENOSPC, refuse an open or rename. Schedules are deterministic — the
//! same op sequence against the same schedule injects the same faults —
//! which is what lets the chaos suites replay a failing case from its
//! logged seed.
//!
//! Files are addressed positionally ([`VfsFile::read_at`] /
//! [`VfsFile::write_at`]) so no hidden cursor state survives a failed
//! operation; a short write really does leave a torn prefix behind, the
//! way a crashed `write(2)` would.
//!
//! The fault model is write-side: reads are passed through un-faulted
//! (a read failure surfaces naturally as corruption to the CRC-checked
//! layers above), while writes, fsyncs, opens, renames, and truncations
//! can each be failed on schedule. A failed injected fsync does *not*
//! un-write the data beneath it — exactly like a real failed fsync, the
//! caller cannot know what subset reached the platter, which is why the
//! layers above must treat the failure as permanent (see
//! [`crate::wal::SharedWal`]'s poisoning contract).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// How [`StorageFs::open`] should treat the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Read/write; create when missing; keep existing contents.
    Open,
    /// Read/write; create when missing; truncate existing contents.
    Truncate,
    /// Read/write an existing file; error when missing.
    Existing,
    /// Read-only on an existing file; error when missing.
    Read,
}

/// One open file handle behind the VFS. Positional I/O only — there is no
/// seek cursor to get out of sync with the caller's bookkeeping after a
/// failed operation.
pub trait VfsFile: Send + Sync {
    /// Read up to `buf.len()` bytes at `offset`; returns the count read
    /// (0 at or past end-of-file).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Write all of `data` at `offset` (growing the file as needed). On
    /// error an unspecified prefix may have been written — torn-write
    /// semantics, which the WAL's CRC framing and the image checkpoint's
    /// undo journal are built to absorb.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Truncate or zero-extend to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// True when the file is empty (zero bytes).
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Force written data to stable storage (`fdatasync`). The commit
    /// point of every durability protocol above.
    fn sync_data(&mut self) -> io::Result<()>;

    /// A duplicate handle sharing the same underlying file, for fsyncing
    /// outside whatever lock guards writes.
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>>;

    /// Read the whole file from `offset` 0 to EOF.
    fn read_to_end_vec(&mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut off = 0u64;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.read_at(off, &mut chunk) {
                Ok(0) => return Ok(out),
                Ok(n) => {
                    out.extend_from_slice(&chunk[..n]);
                    off += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The filesystem surface the store needs. Object-safe so a
/// `Arc<dyn StorageFs>` threads through every layer.
pub trait StorageFs: Send + Sync {
    /// Open `path` under `mode`.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically rename `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Best-effort fsync of a directory (pins renames/creations).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// True when `path` names an existing file.
    fn exists(&self, path: &Path) -> bool;

    /// Read a whole file (error when missing).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.open(path, OpenMode::Read)?.read_to_end_vec()
    }
}

/// The default [`StorageFs`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

/// A fresh handle on the real filesystem (the default everywhere).
pub fn real_fs() -> Arc<dyn StorageFs> {
    Arc::new(RealFs)
}

struct RealFile {
    file: File,
}

impl VfsFile for RealFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read(buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(data)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile {
            file: self.file.try_clone()?,
        }))
    }
}

impl StorageFs for RealFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut opts = OpenOptions::new();
        match mode {
            OpenMode::Open => opts.read(true).write(true).create(true).truncate(false),
            OpenMode::Truncate => opts.read(true).write(true).create(true).truncate(true),
            OpenMode::Existing => opts.read(true).write(true),
            OpenMode::Read => opts.read(true),
        };
        Ok(Box::new(RealFile {
            file: opts.open(path)?,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory handles cannot be fsynced on every platform; opening
        // may legitimately fail, and that is not a storage fault.
        if let Ok(dir) = File::open(path) {
            dir.sync_all().ok();
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ------------------------------------------------------- fault injection --

/// The operation classes a fault schedule can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `write_at` on any file.
    Write,
    /// `sync_data` on any file.
    Sync,
    /// `open` of a file.
    OpenFile,
    /// `rename`.
    Rename,
    /// `set_len` (truncation / extension).
    SetLen,
    /// `remove_file`.
    Remove,
}

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic injected I/O error (EIO-flavoured).
    Io,
    /// "No space left on device".
    Enospc,
    /// Write the first half of the payload, then fail — a torn write.
    /// Only meaningful on [`FaultOp::Write`]; elsewhere it acts like
    /// [`FaultKind::Io`].
    ShortWrite,
}

impl FaultKind {
    fn to_error(self) -> io::Error {
        match self {
            FaultKind::Io => io::Error::other("injected I/O error"),
            FaultKind::Enospc => io::Error::other("injected: No space left on device"),
            FaultKind::ShortWrite => io::Error::other("injected short write"),
        }
    }
}

/// One scripted fault: fire on the `after`-th matching operation
/// (0-based), optionally restricted to paths containing a substring,
/// optionally sticky (keep failing every later matching op — how ENOSPC
/// behaves on a genuinely full disk).
#[derive(Clone, Debug)]
pub struct FaultRule {
    pub op: FaultOp,
    pub after: u64,
    pub kind: FaultKind,
    pub sticky: bool,
    pub path_contains: Option<String>,
}

impl FaultRule {
    pub fn new(op: FaultOp, after: u64, kind: FaultKind) -> FaultRule {
        FaultRule {
            op,
            after,
            kind,
            sticky: false,
            path_contains: None,
        }
    }

    /// Keep failing every matching op from `after` onwards.
    pub fn sticky(mut self) -> FaultRule {
        self.sticky = true;
        self
    }

    /// Only match operations whose path contains `substr`.
    pub fn on_path(mut self, substr: impl Into<String>) -> FaultRule {
        self.path_contains = Some(substr.into());
        self
    }
}

#[derive(Default)]
struct PlanInner {
    /// Rules plus each rule's private matched-op counter.
    rules: Vec<(FaultRule, u64)>,
    /// Global per-class op counters (counted whether or not a rule fires) —
    /// the probe a test uses to enumerate every fault point of a workload.
    ops: HashMap<FaultOp, u64>,
    /// Human-readable record of every injected fault, in order.
    log: Vec<String>,
}

/// A shared, mutable fault schedule. Clone the `Arc` into a [`FaultFs`];
/// keep a handle to re-arm, disarm, or inspect what fired.
#[derive(Default)]
pub struct FaultPlan {
    inner: Mutex<PlanInner>,
}

impl FaultPlan {
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm one rule (keeps existing rules).
    pub fn push(&self, rule: FaultRule) {
        self.lock().rules.push((rule, 0));
    }

    /// Drop every rule: the filesystem heals (op counting continues).
    pub fn disarm(&self) {
        self.lock().rules.clear();
    }

    /// Operations of `op`'s class seen so far (fired or not).
    pub fn op_count(&self, op: FaultOp) -> u64 {
        self.lock().ops.get(&op).copied().unwrap_or(0)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.lock().log.len() as u64
    }

    /// The injection log, oldest first (`"Write #3 on …/wal.log: ShortWrite"`).
    pub fn log(&self) -> Vec<String> {
        self.lock().log.clone()
    }

    /// Count the op, evaluate the schedule, return the fault to inject (if
    /// any). The first firing rule wins, but every matching rule's counter
    /// advances, so rule order never changes which ops later rules see.
    fn check(&self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        let mut inner = self.lock();
        let count = inner.ops.entry(op).or_insert(0);
        let op_index = *count;
        *count += 1;
        let path_str = path.to_string_lossy().into_owned();
        let mut fire: Option<FaultKind> = None;
        for (rule, seen) in &mut inner.rules {
            if rule.op != op {
                continue;
            }
            if let Some(sub) = &rule.path_contains {
                if !path_str.contains(sub.as_str()) {
                    continue;
                }
            }
            let n = *seen;
            *seen += 1;
            if fire.is_none() && (n == rule.after || (rule.sticky && n >= rule.after)) {
                fire = Some(rule.kind);
            }
        }
        if let Some(kind) = fire {
            inner
                .log
                .push(format!("{op:?} #{op_index} on {path_str}: {kind:?}"));
        }
        fire
    }
}

/// A [`StorageFs`] that wraps another one (normally [`RealFs`]) and
/// executes a [`FaultPlan`]'s schedule against every operation.
pub struct FaultFs {
    inner: Arc<dyn StorageFs>,
    plan: Arc<FaultPlan>,
}

impl FaultFs {
    /// Wrap the real filesystem under `plan`'s schedule.
    pub fn new(plan: Arc<FaultPlan>) -> Arc<FaultFs> {
        FaultFs::wrapping(real_fs(), plan)
    }

    /// Wrap an arbitrary inner filesystem under `plan`'s schedule.
    pub fn wrapping(inner: Arc<dyn StorageFs>, plan: Arc<FaultPlan>) -> Arc<FaultFs> {
        Arc::new(FaultFs { inner, plan })
    }

    /// The shared schedule handle.
    pub fn plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.plan)
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    plan: Arc<FaultPlan>,
}

impl VfsFile for FaultFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.plan.check(FaultOp::Write, &self.path) {
            None => self.inner.write_at(offset, data),
            Some(FaultKind::ShortWrite) => {
                // Land a torn prefix, then fail — what a crashed or
                // ENOSPC-interrupted write(2) leaves behind.
                let half = data.len() / 2;
                if half > 0 {
                    self.inner.write_at(offset, &data[..half])?;
                }
                Err(FaultKind::ShortWrite.to_error())
            }
            Some(kind) => Err(kind.to_error()),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.plan.check(FaultOp::SetLen, &self.path) {
            None => self.inner.set_len(len),
            Some(kind) => Err(kind.to_error()),
        }
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.plan.check(FaultOp::Sync, &self.path) {
            // A failed fsync still leaves an unknown subset of the data on
            // disk — the inner sync is intentionally *not* run, so nothing
            // new is guaranteed durable, matching the kernel contract that
            // dirty pages may be dropped after an fsync error.
            None => self.inner.sync_data(),
            Some(kind) => Err(kind.to_error()),
        }
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.try_clone()?,
            path: self.path.clone(),
            plan: Arc::clone(&self.plan),
        }))
    }
}

impl StorageFs for FaultFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        if let Some(kind) = self.plan.check(FaultOp::OpenFile, path) {
            return Err(kind.to_error());
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.open(path, mode)?,
            path: path.to_path_buf(),
            plan: Arc::clone(&self.plan),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(kind) = self.plan.check(FaultOp::Rename, from) {
            return Err(kind.to_error());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if let Some(kind) = self.plan.check(FaultOp::Remove, path) {
            return Err(kind.to_error());
        }
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dataspread-vfs-{name}-{}", std::process::id()))
    }

    #[test]
    fn real_fs_positional_roundtrip() {
        let path = temp("real");
        std::fs::remove_file(&path).ok();
        let fs = real_fs();
        let mut f = fs.open(&path, OpenMode::Open).unwrap();
        f.write_at(0, b"hello world").unwrap();
        f.write_at(6, b"there").unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 11);
        assert_eq!(&buf, b"hello there");
        assert_eq!(f.len().unwrap(), 11);
        f.set_len(5).unwrap();
        assert_eq!(f.read_to_end_vec().unwrap(), b"hello");
        f.sync_data().unwrap();
        let mut dup = f.try_clone().unwrap();
        assert_eq!(dup.read_to_end_vec().unwrap(), b"hello");
        assert!(fs.exists(&path));
        assert_eq!(fs.read(&path).unwrap(), b"hello");
        fs.remove_file(&path).unwrap();
        assert!(!fs.exists(&path));
    }

    #[test]
    fn nth_write_fails_on_schedule() {
        let path = temp("nth");
        std::fs::remove_file(&path).ok();
        let plan = FaultPlan::new();
        plan.push(FaultRule::new(FaultOp::Write, 2, FaultKind::Io));
        let fs = FaultFs::new(Arc::clone(&plan));
        let mut f = fs.open(&path, OpenMode::Open).unwrap();
        f.write_at(0, b"a").unwrap();
        f.write_at(1, b"b").unwrap();
        let err = f.write_at(2, b"c").unwrap_err();
        assert!(err.to_string().contains("injected"));
        // One-shot: the next write succeeds.
        f.write_at(2, b"c").unwrap();
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.op_count(FaultOp::Write), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_tears_the_payload() {
        let path = temp("short");
        std::fs::remove_file(&path).ok();
        let plan = FaultPlan::new();
        plan.push(FaultRule::new(FaultOp::Write, 0, FaultKind::ShortWrite));
        let fs = FaultFs::new(Arc::clone(&plan));
        let mut f = fs.open(&path, OpenMode::Open).unwrap();
        assert!(f.write_at(0, b"0123456789").is_err());
        assert_eq!(f.read_to_end_vec().unwrap(), b"01234", "half landed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sticky_enospc_keeps_failing_and_disarm_heals() {
        let path = temp("enospc");
        std::fs::remove_file(&path).ok();
        let plan = FaultPlan::new();
        plan.push(FaultRule::new(FaultOp::Write, 1, FaultKind::Enospc).sticky());
        let fs = FaultFs::new(Arc::clone(&plan));
        let mut f = fs.open(&path, OpenMode::Open).unwrap();
        f.write_at(0, b"ok").unwrap();
        assert!(f.write_at(2, b"no").is_err());
        assert!(f.write_at(2, b"no").is_err());
        assert!(f.write_at(2, b"no").is_err());
        plan.disarm();
        f.write_at(2, b"ok").unwrap();
        assert!(plan.log().iter().all(|l| l.contains("Enospc")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn path_filter_scopes_the_rule() {
        let a = temp("filter-a.wal");
        let b = temp("filter-b.img");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        let plan = FaultPlan::new();
        plan.push(FaultRule::new(FaultOp::Sync, 0, FaultKind::Io).on_path(".wal"));
        let fs = FaultFs::new(Arc::clone(&plan));
        let mut fa = fs.open(&a, OpenMode::Open).unwrap();
        let mut fb = fs.open(&b, OpenMode::Open).unwrap();
        fb.sync_data().unwrap();
        assert!(fa.sync_data().is_err());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn open_and_rename_faults_fire() {
        let path = temp("openfail");
        std::fs::remove_file(&path).ok();
        let plan = FaultPlan::new();
        plan.push(FaultRule::new(FaultOp::OpenFile, 0, FaultKind::Io));
        plan.push(FaultRule::new(FaultOp::Rename, 0, FaultKind::Io));
        let fs = FaultFs::new(Arc::clone(&plan));
        assert!(fs.open(&path, OpenMode::Open).is_err());
        let mut f = fs.open(&path, OpenMode::Open).unwrap();
        f.write_at(0, b"x").unwrap();
        drop(f);
        let dst = temp("openfail-dst");
        assert!(fs.rename(&path, &dst).is_err());
        fs.rename(&path, &dst).unwrap();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn schedule_is_deterministic_across_runs() {
        let run = || -> Vec<String> {
            let path = temp("det");
            std::fs::remove_file(&path).ok();
            let plan = FaultPlan::new();
            plan.push(FaultRule::new(FaultOp::Write, 3, FaultKind::ShortWrite));
            plan.push(FaultRule::new(FaultOp::Sync, 1, FaultKind::Io));
            let fs = FaultFs::new(Arc::clone(&plan));
            let mut f = fs.open(&path, OpenMode::Open).unwrap();
            for i in 0..6u64 {
                let _ = f.write_at(i, &[i as u8]);
                let _ = f.sync_data();
            }
            std::fs::remove_file(&path).ok();
            plan.log()
        };
        assert_eq!(run(), run());
    }
}
