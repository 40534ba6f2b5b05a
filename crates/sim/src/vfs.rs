//! Deterministic fault injection behind the store's VFS.
//!
//! The fault model is write-side: reads are passed through un-faulted
//! (a read failure surfaces naturally as corruption to the CRC-checked
//! layers above), while writes, fsyncs, opens, renames, and truncations
//! can each be failed on schedule. A failed injected fsync does *not*
//! un-write the data beneath it — exactly like a real failed fsync, the
//! caller cannot know what subset reached the platter, which is why the
//! layers above must treat the failure as permanent (see
//! [`SharedWal`](dataspread_relstore::SharedWal)'s poisoning contract).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dataspread_relstore::{real_fs, OpenMode, StorageFs, VfsFile};

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

/// A [`StorageFs`] that wraps another one (normally
/// [`RealFs`](dataspread_relstore::RealFs)) and
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
