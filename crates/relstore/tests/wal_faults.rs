//! The WAL under injected storage faults: a failed fsync poisons the
//! shared log for good and fails every writer it covered, and a torn
//! append leaves a prefix that recovers. Faults come from the
//! `dataspread-sim` crate's `FaultFs`, handed to the log through
//! [`Wal::open_on`].

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dataspread_obs::MetricsRegistry;
use dataspread_relstore::{OpenMode, SharedWal, StorageFs, StoreError, VfsFile, Wal, WalObs};
use dataspread_sim::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dataspread-wal-{name}-{}", std::process::id()))
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
}

#[test]
fn failed_fsync_poisons_the_shared_wal_permanently() {
    let path = temp("poison");
    cleanup(&path);
    let plan = FaultPlan::new();
    let fs = FaultFs::new(Arc::clone(&plan));
    let wal = SharedWal::new(Wal::open_on(fs, &path).unwrap());
    let t1 = wal.append(b"pre-fault").unwrap();
    wal.sync().unwrap();
    wal.commit(t1).unwrap();

    // Arm: the next fsync fails. The ticket appended under it must be
    // failed with the coded permanent error — and *stay* failed even
    // though the disk is healthy again afterwards (fsyncgate).
    plan.push(FaultRule::new(FaultOp::Sync, 0, FaultKind::Io));
    let t2 = wal.append(b"doomed").unwrap();
    assert!(matches!(wal.sync(), Err(StoreError::StorageFailed(_))));
    plan.disarm(); // disk "recovers" — must make no difference
    assert!(matches!(wal.commit(t2), Err(StoreError::StorageFailed(_))));
    assert!(matches!(wal.sync(), Err(StoreError::StorageFailed(_))));
    assert!(matches!(
        wal.append(b"refused"),
        Err(StoreError::StorageFailed(_))
    ));
    assert!(matches!(wal.truncate(), Err(StoreError::StorageFailed(_))));
    assert!(wal.poisoned().is_some());

    // Reopening the log is the only recovery: the pre-fault record is
    // there; "doomed" may or may not be (it was never acknowledged).
    drop(wal);
    let mut reopened = Wal::open(&path).unwrap();
    let recovered = reopened.take_recovered();
    assert!(!recovered.is_empty());
    assert_eq!(recovered[0], b"pre-fault".to_vec());
    cleanup(&path);
}

/// Holds every `sync_data` while armed: it reports the fsync as started,
/// then waits for the test to release it. This keeps one fsync in flight
/// while another writer commits.
struct Gate {
    armed: AtomicBool,
    started: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

/// A [`StorageFs`] whose files sync through a [`Gate`].
struct GatedFs {
    inner: Arc<dyn StorageFs>,
    gate: Arc<Gate>,
}

struct GatedFile {
    inner: Box<dyn VfsFile>,
    gate: Arc<Gate>,
}

impl VfsFile for GatedFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.inner.write_at(offset, data)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        if self.gate.armed.load(Ordering::SeqCst) {
            self.gate.started.lock().unwrap().send(()).unwrap();
            self.gate.release.lock().unwrap().recv().unwrap();
        }
        self.inner.sync_data()
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(GatedFile {
            inner: self.inner.try_clone()?,
            gate: Arc::clone(&self.gate),
        }))
    }
}

impl StorageFs for GatedFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(GatedFile {
            inner: self.inner.open(path, mode)?,
            gate: Arc::clone(&self.gate),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[test]
fn a_failed_leader_fsync_fails_every_waiter() {
    // The leader's fsync is the commit point for every writer queued
    // behind it, so its failure is theirs too — and permanent.
    let path = temp("poison-leader");
    cleanup(&path);
    let plan = FaultPlan::new();
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
    });
    let fs = Arc::new(GatedFs {
        inner: FaultFs::new(Arc::clone(&plan)),
        gate: Arc::clone(&gate),
    });
    let wal = Arc::new(SharedWal::new(Wal::open_on(fs, &path).unwrap()));
    let obs = WalObs::new(&MetricsRegistry::new(), "s");
    wal.set_obs(obs.clone());
    let t1 = wal.append(b"a").unwrap();
    wal.commit(t1).unwrap();
    assert_eq!(obs.fsyncs.get(), 1);
    plan.push(FaultRule::new(FaultOp::Sync, 0, FaultKind::Enospc));
    let t2 = wal.append(b"b").unwrap();
    // The leader's fsync starts and is held, so the follower can only
    // follow it, never lead one of its own. The pause only makes the
    // queued case likely: a follower arriving after the failure finds the
    // log poisoned, so the assertions hold for either interleaving.
    gate.armed.store(true, Ordering::SeqCst);
    let leader = {
        let wal = Arc::clone(&wal);
        std::thread::spawn(move || wal.sync())
    };
    started
        .recv_timeout(Duration::from_secs(5))
        .expect("the leader's fsync must start");
    let (tx, rx) = mpsc::channel();
    let follower = {
        let wal = Arc::clone(&wal);
        std::thread::spawn(move || tx.send(wal.commit(t2)).unwrap())
    };
    std::thread::sleep(Duration::from_millis(50));
    gate.armed.store(false, Ordering::SeqCst);
    release.send(()).unwrap();
    assert!(matches!(
        leader.join().unwrap(),
        Err(StoreError::StorageFailed(_))
    ));
    let followed = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the follower must not hang");
    assert!(matches!(followed, Err(StoreError::StorageFailed(_))));
    follower.join().unwrap();
    plan.disarm();
    assert!(matches!(wal.commit(t2), Err(StoreError::StorageFailed(_))));
    assert_eq!(obs.fsyncs.get(), 1);
    assert!(wal.poisoned().unwrap().contains("No space left"));
    cleanup(&path);
}

#[test]
fn short_write_on_append_leaves_recoverable_prefix() {
    let path = temp("shortwrite");
    cleanup(&path);
    let plan = FaultPlan::new();
    let fs = FaultFs::new(Arc::clone(&plan));
    {
        let mut wal = Wal::open_on(fs, &path).unwrap();
        wal.append(b"committed-record").unwrap();
        wal.sync().unwrap();
        plan.push(FaultRule::new(FaultOp::Write, 0, FaultKind::ShortWrite));
        assert!(wal.append(b"torn-record-payload").is_err());
        // The failed append left garbage past the valid prefix; a
        // subsequent append overwrites it positionally.
        wal.append(b"after-the-tear").unwrap();
        wal.sync().unwrap();
    }
    let mut wal = Wal::open(&path).unwrap();
    assert_eq!(
        wal.take_recovered(),
        vec![b"committed-record".to_vec(), b"after-the-tear".to_vec()]
    );
    cleanup(&path);
}
