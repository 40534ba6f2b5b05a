//! Write-ahead log: one file of CRC-framed records.
//!
//! Durability for the paged store: every committed mutation is appended to
//! the log *before* it reaches the page file, so a crash at any point loses
//! at most the uncommitted tail. The log is one flat file:
//!
//! ```text
//! header      magic "DSWL" | version=4 u32 | epoch u64 | ticket_base u64 |
//!             crc32(epoch ‖ ticket_base) u32
//! per record  len u32 | crc32 u32 | payload (len bytes)
//! ```
//!
//! A record is *committed* exactly when it is fully present with a valid
//! checksum. [`Wal::open`] keeps the longest valid record prefix and
//! truncates any torn tail — that is the whole recovery contract, and it
//! is what the engine's byte-boundary crash tests exercise: cutting the
//! log anywhere yields either the state before or after each record.
//!
//! **Reset.** [`Wal::truncate`] — the post-checkpoint reset — writes a
//! fresh header to `<log>.tmp`, fsyncs it and renames it over the log, so
//! a crash leaves either the old log whole or the new empty one, never an
//! empty or torn file. The header carries what must outlive a reset: the
//! `epoch`, bumped by every reset, and the `ticket_base`, the commit
//! tickets issued before the log's first record. Every record takes one
//! ticket, so `ticket_base + records` is the ticket horizon the file
//! proves ([`Wal::tickets`]).
//!
//! A file shorter than the header is an empty log (created, but not yet
//! given its header); a full-length header with the wrong magic, version
//! or checksum is refused as [`StoreError::Corrupt`], file untouched.
//!
//! Payload semantics are the caller's business; this layer only frames and
//! checksums. The engine logs logical sheet ops plus checkpoint undo-page
//! images (see `dataspread-engine`'s `durable` module).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dataspread_obs::{now_ms, Counter, Histogram, MetricsRegistry};

use crate::error::StoreError;
use crate::vfs::{real_fs, OpenMode, StorageFs, VfsFile};

const MAGIC: &[u8; 4] = b"DSWL";
/// Version 4 changed no framing, only the engine's import records.
const VERSION: u32 = 4;
/// Size of the file header preceding the first record.
pub const WAL_HEADER_LEN: u64 = 28;
/// Per-record framing overhead (length + checksum).
pub const WAL_RECORD_OVERHEAD: u64 = 8;
/// Upper bound on a single record payload. Enforced on append — a larger
/// record would be indistinguishable from a torn tail to the recovery
/// scan, so it must never be committed in the first place.
pub const MAX_RECORD: u32 = 64 << 20;

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC-32 (IEEE 802.3, the zlib polynomial) — used for WAL record framing
/// and page-image payload validation.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn header_bytes(epoch: u64, ticket_base: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&epoch.to_le_bytes());
    h[16..24].copy_from_slice(&ticket_base.to_le_bytes());
    let crc = crc32(&h[8..24]);
    h[24..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// The `(epoch, ticket_base)` of a log file's header; `None` when the file
/// is shorter than the header. The wrong magic or version is refused as
/// soon as those 8 bytes are present, a full header whose checksum fails
/// always: neither is a torn write, it is the wrong file or a damaged one.
fn parse_header(bytes: &[u8]) -> Result<Option<(u64, u64)>, StoreError> {
    if bytes.len() >= 8 {
        if &bytes[..4] != MAGIC {
            return Err(StoreError::Corrupt("wal: bad magic".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::Corrupt(format!(
                "wal: unsupported version {version}"
            )));
        }
    }
    let Some(h) = bytes.get(..WAL_HEADER_LEN as usize) else {
        return Ok(None);
    };
    let crc = u32::from_le_bytes(h[24..].try_into().expect("4 bytes"));
    if crc32(&h[8..24]) != crc {
        return Err(StoreError::Corrupt("wal: header checksum mismatch".into()));
    }
    let field = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
    Ok(Some((field(8), field(16))))
}

/// Scan CRC-framed records from `start`, appending committed payloads to
/// `out`. Returns the end of the committed prefix.
fn scan_records(bytes: &[u8], start: usize, out: &mut Vec<Vec<u8>>) -> usize {
    let mut off = start;
    while let Some(frame) = bytes.get(off..off + WAL_RECORD_OVERHEAD as usize) {
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD {
            // Implausible length: torn or garbage tail. len == 0 is how a
            // zero-extended crash tail reads (its frame would even pass
            // the CRC check, since crc32(&[]) == 0) — appends reject empty
            // payloads so a real record can never look like this.
            break;
        }
        let payload_start = off + WAL_RECORD_OVERHEAD as usize;
        let Some(payload) = bytes.get(payload_start..payload_start + len as usize) else {
            break; // payload torn
        };
        if crc32(payload) != crc {
            break; // payload corrupt
        }
        out.push(payload.to_vec());
        off = payload_start + len as usize;
    }
    off
}

/// Give the log at `path` a fresh header and no records, atomically:
/// write the header to `<path>.tmp`, fsync it, rename it over `path` and
/// sync the directory (best effort). Until the rename the old file stands
/// untouched. Returns a handle to the new log — it follows the file
/// through the rename.
fn install_header(
    fs: &dyn StorageFs,
    path: &Path,
    epoch: u64,
    ticket_base: u64,
) -> Result<Box<dyn VfsFile>, StoreError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs.open(&tmp, OpenMode::Truncate)?;
    file.write_at(0, &header_bytes(epoch, ticket_base))?;
    file.sync_data()?;
    fs.rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs.sync_dir(parent).ok();
    }
    Ok(file)
}

/// An append-only, checksummed log in one file.
pub struct Wal {
    fs: Arc<dyn StorageFs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    epoch: u64,
    ticket_base: u64,
    /// Valid bytes, header included.
    len: u64,
    /// Records in the log: those found by [`Wal::open`] plus those
    /// appended since.
    records: u64,
    /// Records recovered by [`Wal::open`] (the committed prefix found on
    /// disk), in append order. Consumed by the owner during recovery.
    recovered: Vec<Vec<u8>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("epoch", &self.epoch)
            .field("ticket_base", &self.ticket_base)
            .field("len", &self.len)
            .field("records", &self.records)
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log at `path`, recovering the committed record
    /// prefix and truncating any torn tail. A file shorter than the header
    /// gets a fresh one (epoch 0, ticket base 0); a damaged header is
    /// refused (see the module doc).
    pub fn open(path: impl AsRef<Path>) -> Result<Wal, StoreError> {
        Self::open_on(real_fs(), path)
    }

    /// [`Wal::open`] against an explicit [`StorageFs`] — the
    /// fault-injection entry point.
    pub fn open_on(fs: Arc<dyn StorageFs>, path: impl AsRef<Path>) -> Result<Wal, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = fs.open(&path, OpenMode::Open)?;
        let bytes = file.read_to_end_vec()?;
        let mut recovered = Vec::new();
        let (epoch, ticket_base, len) = match parse_header(&bytes)? {
            Some((epoch, ticket_base)) => {
                let valid = scan_records(&bytes, WAL_HEADER_LEN as usize, &mut recovered);
                file.set_len(valid as u64)?;
                (epoch, ticket_base, valid as u64)
            }
            None => {
                file = install_header(fs.as_ref(), &path, 0, 0)?;
                (0, 0, WAL_HEADER_LEN)
            }
        };
        Ok(Wal {
            fs,
            path,
            file,
            epoch,
            ticket_base,
            len,
            records: recovered.len() as u64,
            recovered,
        })
    }

    /// The committed records found on disk by [`Wal::open`], oldest first.
    /// Recovery consumes them once; appends do not show up here.
    pub fn take_recovered(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.recovered)
    }

    /// Append one record. The bytes reach the OS immediately (a crashed
    /// *process* loses nothing) but survive a crashed *machine* only after
    /// the next [`Wal::sync`] — the fsync-point is the commit point.
    /// Returns the record's start offset (its LSN).
    ///
    /// Payloads must be non-empty and at most [`MAX_RECORD`] bytes — both
    /// bounds exist so a committed record can never look like a torn or
    /// zero-extended tail to the recovery scan. A rejected append writes
    /// nothing (the log stays whole).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if payload.is_empty() {
            return Err(StoreError::LimitExceeded(
                "wal: empty record payloads are not representable".into(),
            ));
        }
        if payload.len() > MAX_RECORD as usize {
            return Err(StoreError::LimitExceeded(format!(
                "wal: record of {} bytes exceeds the {MAX_RECORD}-byte limit",
                payload.len()
            )));
        }
        let lsn = self.len;
        let mut frame = Vec::with_capacity(payload.len() + WAL_RECORD_OVERHEAD as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // Write at the valid end explicitly: a previously *failed* append
        // may have left garbage bytes past the valid prefix, which this
        // positional write overwrites.
        self.file.write_at(self.len, &frame)?;
        self.len += frame.len() as u64;
        self.records += 1;
        Ok(lsn)
    }

    /// Drop any bytes past the valid prefix (garbage left by a failed
    /// append). A no-op on a healthy log.
    pub fn truncate_to_valid(&mut self) -> Result<(), StoreError> {
        self.file.set_len(self.len)?;
        Ok(())
    }

    /// The fsync-point: force all appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// A duplicate handle of the log file, for fsyncing outside whatever
    /// lock guards appends. A handle taken before a [`Wal::truncate`]
    /// syncs the replaced file, whose records the reset already released.
    pub fn sync_handle(&self) -> Result<Box<dyn VfsFile>, StoreError> {
        Ok(self.file.try_clone()?)
    }

    /// Drop every record (the post-checkpoint reset): the log is replaced
    /// by an empty one whose header carries the next epoch and
    /// `ticket_base`, the commit tickets issued so far. On error the old
    /// log stands, records and all.
    pub fn truncate(&mut self, ticket_base: u64) -> Result<(), StoreError> {
        let epoch = self.epoch + 1;
        self.file = install_header(self.fs.as_ref(), &self.path, epoch, ticket_base)?;
        self.epoch = epoch;
        self.ticket_base = ticket_base;
        self.len = WAL_HEADER_LEN;
        self.records = 0;
        self.recovered.clear();
        Ok(())
    }

    /// Bytes in the valid prefix, header included.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The header's epoch: 0 for a new log, bumped by every
    /// [`Wal::truncate`], so it strictly increases across resets.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commit tickets issued through the end of the log: the header's
    /// ticket base plus one per record.
    pub fn tickets(&self) -> u64 {
        self.ticket_base + self.records
    }
}

// -------------------------------------------------------- observability --

/// Cached metric handles for one shared log, created once from a
/// [`MetricsRegistry`] and attached via [`SharedWal::set_obs`]. Recording
/// is a few relaxed atomics on the append path and a few more per fsync.
#[derive(Clone)]
pub struct WalObs {
    sheet: String,
    /// `wal_fsyncs{sheet}` — fsyncs issued (group or serial).
    pub fsyncs: Arc<Counter>,
    /// `wal_fsync_ns{sheet}` — fsync latency histogram.
    pub fsync_ns: Arc<Histogram>,
    /// `wal_commit_batch_ops{sheet}` — records covered per fsync.
    pub batch_ops: Arc<Histogram>,
    /// `wal_appends{sheet}` — records appended.
    pub appends: Arc<Counter>,
    /// `wal_append_bytes{sheet}` — payload bytes appended.
    pub append_bytes: Arc<Counter>,
}

impl WalObs {
    /// Create (or re-acquire) the WAL metric handles for `sheet`.
    pub fn new(registry: &Arc<MetricsRegistry>, sheet: &str) -> WalObs {
        let labels: &[(&str, &str)] = &[("sheet", sheet)];
        WalObs {
            sheet: sheet.to_string(),
            fsyncs: registry.counter("wal_fsyncs", labels),
            fsync_ns: registry.histogram("wal_fsync_ns", labels),
            batch_ops: registry.histogram("wal_commit_batch_ops", labels),
            appends: registry.counter("wal_appends", labels),
            append_bytes: registry.counter("wal_append_bytes", labels),
        }
    }
}

impl std::fmt::Debug for WalObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalObs")
            .field("sheet", &self.sheet)
            .finish()
    }
}

// ---------------------------------------------------------- group commit --

/// A [`Wal`] shared between threads, with group commit.
///
/// Concurrent writers `append` under a short internal lock and receive a
/// **commit ticket** — a monotone per-log sequence number. A record is
/// *committed* once an fsync covering its ticket completes, and
/// [`SharedWal::commit`] blocks a writer until then. There is no commit
/// thread: a committing writer that finds no fsync in flight leads one,
/// covering every record appended so far, and the writers that arrive
/// while it runs follow — they wait for it to finish, and all those it
/// covered return at once while one uncovered follower leads the next.
/// K writers × 1 fsync/op thereby become ~1 fsync per batch without
/// weakening the commit contract (no writer is acknowledged before its
/// record is on stable storage). Records nobody commits become durable
/// with the next commit or checkpoint.
///
/// The fsync itself runs on a duplicate file handle *outside* the state
/// lock ([`Wal::sync_handle`]), so writers keep appending while a batch
/// is being flushed; at most one fsync is in flight.
///
/// [`SharedWal::truncate`] (the post-checkpoint reset) marks every
/// outstanding ticket durable — the checkpoint that triggered it has
/// already captured those ops in the image, which is strictly stronger
/// than WAL durability.
pub struct SharedWal {
    state: std::sync::Mutex<SharedState>,
    /// Signalled when a leader's fsync finishes; its followers wait here.
    flushed: std::sync::Condvar,
}

struct SharedState {
    wal: Wal,
    /// Ticket of the most recent append (0 = nothing appended).
    appended_seq: u64,
    /// Highest ticket known durable.
    durable_seq: u64,
    /// True while a leader's fsync is in flight.
    flushing: bool,
    /// **Permanent** record of a failed fsync (or failed truncate). Once
    /// set it is never cleared: after a failed fsync the kernel may have
    /// dropped the dirty pages, so a later fsync that "succeeds" proves
    /// nothing about the records covered by the failed one — retrying and
    /// acknowledging on it is the classic fsyncgate data-loss bug. The
    /// poisoned log refuses appends, syncs, and truncates; every waiter is
    /// failed with a coded [`StoreError::StorageFailed`]. Recovery is a
    /// process restart re-opening the log and replaying what actually
    /// reached the disk.
    sync_failed: Option<String>,
    /// When the poisoning failure was first recorded (ms since epoch),
    /// surfaced to operators alongside the cause.
    failed_at_ms: Option<u64>,
    /// Metric handles, when the owner attached a registry.
    obs: Option<WalObs>,
}

impl SharedState {
    fn poison(&mut self, cause: String) {
        self.sync_failed = Some(cause);
        if self.failed_at_ms.is_none() {
            self.failed_at_ms = Some(now_ms());
        }
    }
}

impl std::fmt::Debug for SharedWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("SharedWal")
            .field("wal", &st.wal)
            .field("appended_seq", &st.appended_seq)
            .field("durable_seq", &st.durable_seq)
            .finish()
    }
}

impl SharedWal {
    /// Wrap a freshly opened [`Wal`] for shared use. Ticket numbering
    /// continues from [`Wal::tickets`] — the pre-restart sequence, so
    /// tickets stay unique across restarts — and every ticket up to there
    /// counts as durable.
    pub fn new(wal: Wal) -> SharedWal {
        let tickets = wal.tickets();
        SharedWal {
            state: std::sync::Mutex::new(SharedState {
                wal,
                appended_seq: tickets,
                durable_seq: tickets,
                flushing: false,
                sync_failed: None,
                failed_at_ms: None,
                obs: None,
            }),
            flushed: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The permanent-failure cause, when a fsync or truncate has failed.
    /// A poisoned log acknowledges nothing and accepts nothing; the owner
    /// should flip into degraded (read-only) service.
    pub fn poisoned(&self) -> Option<String> {
        self.lock().sync_failed.clone()
    }

    /// The permanent-failure cause plus when it was first recorded (ms
    /// since the Unix epoch) — the operator-facing degrade record.
    pub fn poisoned_info(&self) -> Option<(String, u64)> {
        let st = self.lock();
        st.sync_failed
            .clone()
            .map(|cause| (cause, st.failed_at_ms.unwrap_or(0)))
    }

    /// Attach metric handles; every later append and fsync records
    /// through them. Idempotent (last attach wins).
    pub fn set_obs(&self, obs: WalObs) {
        self.lock().obs = Some(obs);
    }

    /// Run `f` against the underlying log under the append lock. Exposed
    /// for owners that need the full [`Wal`] surface (recovery, stats).
    /// `f` must not wait on other log users (deadlock), and a
    /// long-running `f` holds appends, commits, and ticket bookkeeping
    /// back for its duration.
    pub fn with<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.lock().wal)
    }

    /// Append one record, returning its commit ticket. The record is in
    /// the OS (crash of the *process* loses nothing) but survives a
    /// machine crash only once a later [`SharedWal::commit`] or
    /// [`SharedWal::sync`] covers the ticket.
    pub fn append(&self, payload: &[u8]) -> Result<u64, StoreError> {
        let mut st = self.lock();
        if let Some(cause) = &st.sync_failed {
            return Err(StoreError::StorageFailed(cause.clone()));
        }
        st.wal.append(payload)?;
        st.appended_seq += 1;
        if let Some(obs) = &st.obs {
            obs.appends.inc();
            obs.append_bytes.add(payload.len() as u64);
        }
        Ok(st.appended_seq)
    }

    /// Highest ticket known durable (0 when nothing was ever flushed) —
    /// the admission-control signal the server's backpressure prunes its
    /// staged window with.
    pub fn durable_seq(&self) -> u64 {
        self.lock().durable_seq
    }

    /// The fsync-point: make every record appended so far durable.
    /// Returns the ticket horizon made durable.
    pub fn sync(&self) -> Result<u64, StoreError> {
        self.flush(u64::MAX)
    }

    /// Block until `ticket` is durable: the commit point. Returns at once
    /// when an earlier fsync covered the ticket; otherwise follows the
    /// fsync in flight, if any, and leads one covering every record
    /// appended so far when that did not cover the ticket. A failed
    /// fsync poisons the log: this and every later commit of an
    /// uncovered ticket fails with [`StoreError::StorageFailed`]. A
    /// ticket the log never issued is refused with
    /// [`StoreError::LimitExceeded`] instead of awaited.
    pub fn commit(&self, ticket: u64) -> Result<(), StoreError> {
        let issued = self.lock().appended_seq;
        if ticket > issued {
            return Err(StoreError::LimitExceeded(format!(
                "ticket {ticket} was never issued (last issued {issued})"
            )));
        }
        match self.flush(ticket) {
            Ok(_) => Ok(()),
            Err(StoreError::StorageFailed(cause)) => Err(StoreError::StorageFailed(format!(
                "group commit failed before ticket {ticket}: {cause}"
            ))),
            Err(e) => Err(e),
        }
    }

    /// Make `ticket` durable (`u64::MAX`: every record appended so far),
    /// following the fsync in flight and leading the next one unless the
    /// former covered it. Returns the durable horizon.
    fn flush(&self, ticket: u64) -> Result<u64, StoreError> {
        let mut st = self.lock();
        while st.flushing && st.durable_seq < ticket {
            st = self.flushed.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.durable_seq >= ticket {
            return Ok(st.durable_seq); // an earlier fsync covered it
        }
        if let Some(cause) = &st.sync_failed {
            // Never retry past a failed fsync: the data the failure
            // covered may already be gone from the page cache, so a
            // "successful" retry would acknowledge lost records.
            return Err(StoreError::StorageFailed(cause.clone()));
        }
        if st.durable_seq >= st.appended_seq {
            return Ok(st.durable_seq); // nothing to flush
        }
        let mut handle = st.wal.sync_handle()?;
        let (target, batch) = (st.appended_seq, st.appended_seq - st.durable_seq);
        st.flushing = true;
        drop(st);
        // fsync outside the state lock: writers build the next batch
        // while this one hits the disk.
        let t0 = Instant::now();
        let result = handle.sync_data();
        let fsync_ns = t0.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        st.flushing = false;
        self.flushed.notify_all();
        match result {
            Ok(()) => {
                st.durable_seq = st.durable_seq.max(target);
                if let Some(obs) = &st.obs {
                    obs.fsyncs.inc();
                    obs.fsync_ns.record_ns(fsync_ns);
                    obs.batch_ops.record(batch);
                }
                Ok(st.durable_seq)
            }
            Err(e) => {
                // Permanent: poison the log, failing every uncovered ticket.
                let cause = e.to_string();
                st.poison(cause.clone());
                Err(StoreError::StorageFailed(cause))
            }
        }
    }

    /// Post-checkpoint reset (see [`Wal::truncate`]); the new header's
    /// ticket base is the tickets appended so far, so numbering continues
    /// past a restart. Outstanding tickets become durable by definition:
    /// the checkpoint that truncates the log has already folded their
    /// effects into the image. Refused on a
    /// poisoned log (the checkpoint's own fsyncs cannot be trusted after a
    /// failed one), and a truncate that itself fails poisons the log — its
    /// fsync is a commit point like any other.
    pub fn truncate(&self) -> Result<(), StoreError> {
        let mut st = self.lock();
        if let Some(cause) = &st.sync_failed {
            return Err(StoreError::StorageFailed(cause.clone()));
        }
        let tickets = st.appended_seq;
        if let Err(e) = st.wal.truncate(tickets) {
            st.poison(e.to_string());
            return Err(StoreError::StorageFailed(e.to_string()));
        }
        st.durable_seq = st.appended_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dataspread-wal-{name}-{}", std::process::id()))
    }

    fn tmp_path(path: &Path) -> PathBuf {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        PathBuf::from(tmp)
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(tmp_path(path)).ok();
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = temp("roundtrip");
        cleanup(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            assert!(wal.is_empty());
            wal.append(b"one").unwrap();
            wal.append(b"two-two").unwrap();
            wal.sync().unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(
            wal.take_recovered(),
            vec![b"one".to_vec(), b"two-two".to_vec()]
        );
        // A second take yields nothing; the log is re-appendable.
        assert!(wal.take_recovered().is_empty());
        wal.append(b"three").unwrap();
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.take_recovered().len(), 3);
        cleanup(&path);
    }

    #[test]
    fn append_rejects_unrepresentable_payloads() {
        let path = temp("bounds");
        cleanup(&path);
        let mut wal = Wal::open(&path).unwrap();
        // Empty and oversized payloads would read back as a torn tail, so
        // they must be refused up front — without writing anything.
        assert!(matches!(wal.append(b""), Err(StoreError::LimitExceeded(_))));
        let huge = vec![7u8; MAX_RECORD as usize + 1];
        assert!(matches!(
            wal.append(&huge),
            Err(StoreError::LimitExceeded(_))
        ));
        // The log is still whole and appendable.
        wal.append(b"fine").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.take_recovered(), vec![b"fine".to_vec()]);
        cleanup(&path);
    }

    #[test]
    fn zero_extended_tail_is_discarded_not_parsed() {
        // A crash can persist a file-size extension without the data
        // (delayed allocation): the tail reads as zeros, whose 8-byte
        // frames would even pass the CRC check as empty records. Recovery
        // must treat that as a torn tail, keeping the committed prefix.
        let path = temp("zero-tail");
        cleanup(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 256]);
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(
            wal.take_recovered(),
            vec![b"alpha".to_vec(), b"beta".to_vec()]
        );
        // The zero tail was physically truncated; appends continue cleanly.
        wal.append(b"gamma").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.take_recovered().len(), 3);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_discarded_at_every_cut() {
        let path = temp("torn");
        cleanup(&path);
        let payloads: Vec<Vec<u8>> = vec![vec![1; 5], vec![2; 9], vec![3; 1], vec![4; 30]];
        {
            let mut wal = Wal::open(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Committed record count for a prefix of length l.
        let expected_at = |l: usize| {
            let mut off = WAL_HEADER_LEN as usize;
            let mut n = 0;
            for p in &payloads {
                off += WAL_RECORD_OVERHEAD as usize + p.len();
                if off <= l {
                    n += 1;
                }
            }
            n
        };
        let cut_path = temp("torn-cut");
        for l in 0..=bytes.len() {
            std::fs::write(&cut_path, &bytes[..l]).unwrap();
            let mut wal = Wal::open(&cut_path).unwrap();
            let got = wal.take_recovered();
            assert_eq!(got.len(), expected_at(l), "cut at byte {l}");
            for (g, p) in got.iter().zip(&payloads) {
                assert_eq!(g, p, "cut at byte {l}");
            }
        }
        cleanup(&path);
        cleanup(&cut_path);
    }

    #[test]
    fn corrupt_payload_ends_prefix() {
        let path = temp("corrupt");
        cleanup(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"flipped").unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.take_recovered(), vec![b"good".to_vec()]);
        cleanup(&path);
    }

    #[test]
    fn truncate_resets_and_survives_reopen() {
        let path = temp("truncate");
        cleanup(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!((wal.epoch(), wal.tickets()), (0, 0));
            wal.append(b"ephemeral").unwrap();
            wal.truncate(41).unwrap();
            assert!(wal.is_empty());
            assert!(
                !tmp_path(&path).exists(),
                "a successful reset leaves no temp file"
            );
            wal.append(b"kept").unwrap();
            wal.sync().unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.take_recovered(), vec![b"kept".to_vec()]);
        // The epoch and the ticket base round-trip through the header.
        assert_eq!((wal.epoch(), wal.tickets()), (1, 42));
        cleanup(&path);
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = temp("magic");
        std::fs::write(&path, b"NOTAWALFILE!").unwrap();
        assert!(matches!(Wal::open(&path), Err(StoreError::Corrupt(_))));
        cleanup(&path);
    }

    #[test]
    fn v1_header_is_refused_and_left_untouched() {
        let path = temp("v1");
        cleanup(&path);
        // A PR 2-era log: 8-byte header, then one framed record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        let payload = b"legacy-record";
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(&path) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.ends_with("unsupported version 1")),
            other => panic!("v1 log must be refused as corrupt, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        cleanup(&path);
    }

    #[test]
    fn shared_wal_tickets_and_group_sync() {
        let path = temp("shared-basic");
        cleanup(&path);
        let wal = SharedWal::new(Wal::open(&path).unwrap());
        let t1 = wal.append(b"one").unwrap();
        let t2 = wal.append(b"two").unwrap();
        assert!(t2 > t1);
        let horizon = wal.sync().unwrap();
        assert!(horizon >= t2);
        // Covered tickets return immediately.
        wal.commit(t1).unwrap();
        wal.commit(t2).unwrap();
        // Truncate marks outstanding tickets durable (checkpoint absorbed
        // them) and the log restarts clean.
        let t3 = wal.append(b"three").unwrap();
        wal.truncate().unwrap();
        wal.commit(t3).unwrap();
        assert!(wal.with(|w| w.is_empty()));
        // Reopened, the log continues the ticket sequence from its header.
        let reopened = SharedWal::new(Wal::open(&path).unwrap());
        assert_eq!(reopened.durable_seq(), t3);
        assert_eq!(reopened.append(b"four").unwrap(), t3 + 1);
        cleanup(&path);
    }

    #[test]
    fn concurrent_writers_commit_their_own_tickets() {
        let path = temp("shared-threads");
        cleanup(&path);
        let wal = std::sync::Arc::new(SharedWal::new(Wal::open(&path).unwrap()));
        let obs = WalObs::new(&MetricsRegistry::new(), "s");
        wal.set_obs(obs.clone());
        // No helper thread: each writer's commit leads an fsync or follows
        // the one in flight.
        let writers: Vec<_> = (0..4u8)
            .map(|w| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let ticket = wal.append(format!("w{w}-{i}").as_bytes()).unwrap();
                        wal.commit(ticket).unwrap();
                        assert!(wal.durable_seq() >= ticket);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // At most one fsync per commit call.
        assert!(obs.fsyncs.get() <= 200, "{} fsyncs", obs.fsyncs.get());
        drop(wal);
        // Every acknowledged record is on disk.
        let mut reopened = Wal::open(&path).unwrap();
        let recovered = reopened.take_recovered();
        assert_eq!(recovered.len(), 200);
        cleanup(&path);
    }
}
