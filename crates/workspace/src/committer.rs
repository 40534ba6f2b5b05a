//! The dedicated group-commit thread.
//!
//! Writers append to a sheet's [`SharedWal`] and receive a commit ticket;
//! instead of fsyncing themselves they block on
//! [`SharedWal::wait_durable`] while this thread flushes in rounds: every
//! registered WAL with outstanding records gets **one** fsync covering
//! every record appended since its last flush — the group-commit batching
//! that turns K writers × 1 fsync/op into ~1 fsync per batch. Durability
//! is not weakened: a writer is only unblocked once the fsync covering
//! its ticket has completed (a failed fsync wakes its waiters with the
//! error instead).
//!
//! The hot path is deliberately notification-free: sheets *register*
//! their WAL once ([`GroupCommitter::register`]), the committer keeps
//! flushing as long as any registered WAL has pending records, and parks
//! only when the whole workspace goes quiet. Writers pay a single atomic
//! load per op ([`GroupCommitter::nudge`]) unless they are the ones
//! waking a parked committer — no per-op queue, no per-op notify.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dataspread_relstore::SharedWal;

struct Registry {
    /// Every WAL this committer is responsible for (deduplicated by
    /// identity; sheets register once at open).
    wals: Vec<Arc<SharedWal>>,
    shutdown: bool,
}

struct Shared {
    registry: Mutex<Registry>,
    wake: Condvar,
    /// True while the committer thread is parked on `wake` — the only
    /// state in which writers need to notify.
    parked: AtomicBool,
}

/// Handle to the dedicated committer thread. Dropping it shuts the thread
/// down after a final drain; nudges arriving after shutdown fall back to
/// an inline fsync, so no writer can be left waiting on a dead thread.
pub(crate) struct GroupCommitter {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    /// Spawn the committer thread.
    pub fn new() -> GroupCommitter {
        let shared = Arc::new(Shared {
            registry: Mutex::new(Registry {
                wals: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            parked: AtomicBool::new(false),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ds-group-commit".into())
                .spawn(move || Self::run(&shared))
                .expect("spawn group-commit thread")
        };
        GroupCommitter {
            shared,
            thread: Some(thread),
        }
    }

    fn run(shared: &Shared) {
        let mut wals: Vec<Arc<SharedWal>> = Vec::new();
        // Pre-park spin budget: on multi-core boxes the next batch is
        // usually already being appended when a flush round ends, so a few
        // yields before paying the park/notify futex round-trip keep the
        // committer hot. On a single core the spin only steals cycles from
        // the writers that would produce that batch — skip it.
        let pre_park_spin: u32 = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .saturating_sub(1)
            .min(8) as u32
            * 16;
        loop {
            // Cheap second chance on the previous round's WAL set before
            // touching the registry lock or the condvar.
            for _ in 0..pre_park_spin {
                if wals.iter().any(|w| w.has_pending()) {
                    break;
                }
                std::thread::yield_now();
            }
            // Refresh the registered set and park while the workspace is
            // quiet (nothing pending anywhere). The parked flag is raised
            // *before* the pending re-check, so a writer that appends
            // concurrently either is seen by the check or sees the flag
            // and notifies; the bounded wait is the backstop that turns
            // any residual missed wakeup into a ≤500µs delay instead of a
            // hang.
            {
                let mut registry = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    // A poisoned WAL is permanently failed: its waiters
                    // were woken with the error, and retrying the fsync
                    // could acknowledge records the kernel already
                    // dropped. Unregister it for good.
                    registry.wals.retain(|w| w.poisoned().is_none());
                    wals.clear();
                    wals.extend(registry.wals.iter().cloned());
                    shared.parked.store(true, Ordering::SeqCst);
                    if wals.iter().any(|w| w.has_pending()) {
                        shared.parked.store(false, Ordering::SeqCst);
                        break;
                    }
                    if registry.shutdown {
                        return; // quiet and told to stop
                    }
                    let (guard, _) = shared
                        .wake
                        .wait_timeout(registry, std::time::Duration::from_micros(500))
                        .unwrap_or_else(|e| e.into_inner());
                    registry = guard;
                    shared.parked.store(false, Ordering::SeqCst);
                }
            }
            // Adaptive dwell (the classic group-commit delay): writers
            // that are mid-apply get scheduling slots to append before
            // the fsync starts, growing the batch each flush covers.
            // Yield while the append horizon is still advancing, bounded
            // so a steady trickle cannot starve the flush — a few µs of
            // added latency against a ~100µs fsync, a materially fuller
            // batch whenever writers outnumber cores.
            let mut horizon: u64 = wals.iter().map(|w| w.appended_seq()).sum();
            for _ in 0..8 {
                std::thread::yield_now();
                let now: u64 = wals.iter().map(|w| w.appended_seq()).sum();
                if now == horizon {
                    break;
                }
                horizon = now;
            }
            for wal in &wals {
                // One fsync covers every record this WAL accumulated since
                // its last flush — the flush targets the append horizon at
                // fsync start, so even records appended during the dwell
                // ride along. A failed fsync permanently poisons the WAL
                // (its waiters are woken with the error by the SharedWal
                // itself); it is never retried — the data the failure
                // covered may already be gone from the page cache, so a
                // "successful" retry would acknowledge lost records. The
                // next registry refresh unregisters it.
                if wal.poisoned().is_none() && wal.has_pending() {
                    let _ = wal.sync();
                }
            }
        }
    }

    /// Register `wal` with the committer (idempotent; once per sheet at
    /// open). Registered WALs are flushed whenever they have pending
    /// records.
    pub fn register(&self, wal: &Arc<SharedWal>) {
        let mut registry = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if !registry.wals.iter().any(|w| Arc::ptr_eq(w, wal)) {
            registry.wals.push(Arc::clone(wal));
        }
        drop(registry);
        self.nudge(wal);
    }

    /// Tell the committer there is work. One atomic load on the fast path
    /// (committer already running); a lock + notify only when it parked.
    /// After shutdown the flush happens inline instead, so a straggler
    /// writer is never left waiting on a dead thread.
    pub fn nudge(&self, wal: &Arc<SharedWal>) {
        if !self.shared.parked.load(Ordering::SeqCst) {
            return; // committer is awake and will pick the work up
        }
        let registry = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if registry.shutdown {
            drop(registry);
            let _ = wal.sync();
            return;
        }
        self.shared.wake.notify_one();
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        {
            let mut registry = self
                .shared
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            registry.shutdown = true;
            self.shared.wake.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
