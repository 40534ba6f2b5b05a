//! Write-ahead log with segment rotation.
//!
//! Durability for the paged store: every committed mutation is appended to
//! the log *before* it reaches the page file, so a crash at any point loses
//! at most the uncommitted tail. The log is a chain of segment files —
//! `wal.log`, `wal.log.1`, `wal.log.2`, … — each a flat file of CRC-framed
//! records:
//!
//! ```text
//! magic "DSWL" | version u32 | epoch u64 | segment index u64
//! per record: len u32 | crc32 u32 | payload (len bytes)
//! ```
//!
//! A record is *committed* exactly when it is fully present with a valid
//! checksum. [`Wal::open`] scans the segment chain in order, keeps the
//! longest valid record prefix, and truncates any torn tail — that is the
//! whole recovery contract, and it is what the engine's byte-boundary
//! crash tests exercise: cutting the log anywhere yields either the state
//! before or after each record.
//!
//! **Rotation.** With a segment limit configured
//! ([`Wal::set_segment_limit`]), an append that finds the current segment
//! past the threshold seals it (fsync) and starts the next numbered file,
//! so a long-running session never grows one unbounded file.
//! [`Wal::truncate`] — the post-checkpoint reset — collapses the chain
//! back to a single empty base segment. The `epoch` header field makes
//! that reset crash-safe: truncate bumps the epoch in the base header
//! *before* deleting the numbered segments, so a crash between the two
//! leaves stale segments that the next open rejects (epoch mismatch)
//! instead of replaying records from before the checkpoint.
//!
//! Payload semantics are the caller's business; this layer only frames and
//! checksums. The engine logs logical sheet ops plus checkpoint undo-page
//! images (see `dataspread-engine`'s `durable` module).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dataspread_obs::{now_ms, Counter, Event, Histogram, MetricsRegistry};

use crate::error::StoreError;
use crate::vfs::{real_fs, OpenMode, StorageFs, VfsFile};

const MAGIC: &[u8; 4] = b"DSWL";
const VERSION: u32 = 2;
/// Size of the version-2 file header preceding the first record.
pub const WAL_HEADER_LEN: u64 = 24;
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

/// Path of segment `idx` of the log based at `base` (`idx` 0 = `base`).
pub fn segment_path(base: &Path, idx: u64) -> PathBuf {
    if idx == 0 {
        base.to_path_buf()
    } else {
        let mut name = base.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{idx}"));
        base.with_file_name(name)
    }
}

fn header_bytes(epoch: u64, seg_index: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&epoch.to_le_bytes());
    h[16..24].copy_from_slice(&seg_index.to_le_bytes());
    h
}

/// Scan CRC-framed records from `start`, appending committed payloads to
/// `out`. Returns `(valid_end, clean)` where `clean` means the whole byte
/// range was committed records (no torn tail).
fn scan_records(bytes: &[u8], start: usize, out: &mut Vec<Vec<u8>>) -> (usize, bool) {
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
    (off, off == bytes.len())
}

/// Best-effort fsync of the directory holding `path` so freshly created
/// segment files survive a machine crash.
fn sync_parent_dir(fs: &dyn StorageFs, path: &Path) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs.sync_dir(parent).ok();
    }
}

/// Delete numbered segments `from..` (contiguous; stops at the first gap).
fn delete_segments_from(fs: &dyn StorageFs, base: &Path, from: u64) {
    let mut idx = from.max(1);
    while fs.remove_file(&segment_path(base, idx)).is_ok() {
        idx += 1;
    }
}

/// An append-only, checksummed, segmented log.
pub struct Wal {
    fs: Arc<dyn StorageFs>,
    base: PathBuf,
    /// Handle of the current (last) segment.
    file: Box<dyn VfsFile>,
    epoch: u64,
    seg_index: u64,
    /// Valid bytes in the current segment (header included).
    seg_len: u64,
    /// Valid bytes across all sealed (earlier) segments.
    sealed_len: u64,
    /// Live segment files (1 = just the base).
    segments: u64,
    /// Rotate to a new segment once the current one exceeds this size.
    segment_limit: Option<u64>,
    /// Records recovered by [`Wal::open`] (the committed prefix found on
    /// disk), in append order. Consumed by the owner during recovery.
    recovered: Vec<Vec<u8>>,
    has_records: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("base", &self.base)
            .field("segments", &self.segments)
            .field("len", &self.len_bytes())
            .field("recovered", &self.recovered.len())
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log based at `path`, recovering the committed
    /// record prefix across the segment chain and truncating any torn
    /// tail.
    ///
    /// A base file shorter than its header is treated as empty (a crash
    /// before the header finished); a full-size header with the wrong
    /// magic or version is an error — that is not a torn write, it is the
    /// wrong file. Numbered segments whose epoch does not match the base
    /// (stale leftovers of an interrupted [`Wal::truncate`]) are deleted,
    /// not replayed.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal, StoreError> {
        Self::open_on(real_fs(), path)
    }

    /// [`Wal::open`] against an explicit [`StorageFs`] — the
    /// fault-injection entry point.
    pub fn open_on(fs: Arc<dyn StorageFs>, path: impl AsRef<Path>) -> Result<Wal, StoreError> {
        let base = path.as_ref().to_path_buf();
        let mut file = fs.open(&base, OpenMode::Open)?;
        let bytes = file.read_to_end_vec()?;

        // Decide what the base segment is: fresh, or a log with an epoch.
        let parsed: Option<u64> = if bytes.len() < 8 {
            None // fresh (or torn before magic + version landed)
        } else {
            if &bytes[..4] != MAGIC {
                return Err(StoreError::Corrupt("wal: bad magic".into()));
            }
            let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
            if version != VERSION {
                return Err(StoreError::Corrupt(format!(
                    "wal: unsupported version {version}"
                )));
            }
            if bytes.len() < WAL_HEADER_LEN as usize {
                None // torn mid-header (e.g. during truncate)
            } else {
                let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
                let idx = u64::from_le_bytes(bytes[16..24].try_into().expect("8"));
                if idx != 0 {
                    return Err(StoreError::Corrupt(
                        "wal: base file carries a non-zero segment index".into(),
                    ));
                }
                Some(epoch)
            }
        };

        let Some(epoch) = parsed else {
            // Fresh base. Pick an epoch above any stale numbered segment so
            // leftovers of an interrupted truncate can never be replayed.
            let mut stale_max: Option<u64> = None;
            let mut idx = 1u64;
            while let Ok(seg) = fs.read(&segment_path(&base, idx)) {
                if seg.len() >= WAL_HEADER_LEN as usize && &seg[..4] == MAGIC {
                    let e = u64::from_le_bytes(seg[8..16].try_into().expect("8"));
                    stale_max = Some(stale_max.map_or(e, |m: u64| m.max(e)));
                }
                idx += 1;
            }
            delete_segments_from(fs.as_ref(), &base, 1);
            let epoch = stale_max.map_or(0, |e| e + 1);
            file.set_len(0)?;
            file.write_at(0, &header_bytes(epoch, 0))?;
            file.sync_data()?;
            return Ok(Wal {
                fs,
                base,
                file,
                epoch,
                seg_index: 0,
                seg_len: WAL_HEADER_LEN,
                sealed_len: 0,
                segments: 1,
                segment_limit: None,
                recovered: Vec::new(),
                has_records: false,
            });
        };

        // Scan the base, then walk the numbered chain while it is intact.
        let mut recovered = Vec::new();
        let (valid, clean) = scan_records(&bytes, WAL_HEADER_LEN as usize, &mut recovered);
        let mut last_idx = 0u64;
        let mut last_valid = valid as u64;
        let mut sealed_len = 0u64;
        let mut torn = !clean;
        let mut idx = 1u64;
        while !torn {
            let p = segment_path(&base, idx);
            let Ok(seg_bytes) = fs.read(&p) else {
                break;
            };
            let ok_header = seg_bytes.len() >= WAL_HEADER_LEN as usize
                && &seg_bytes[..4] == MAGIC
                && u32::from_le_bytes(seg_bytes[4..8].try_into().expect("4")) == VERSION
                && u64::from_le_bytes(seg_bytes[8..16].try_into().expect("8")) == epoch
                && u64::from_le_bytes(seg_bytes[16..24].try_into().expect("8")) == idx;
            if !ok_header {
                break; // stale or torn-at-birth continuation: drop it below
            }
            let (valid, clean) = scan_records(&seg_bytes, WAL_HEADER_LEN as usize, &mut recovered);
            sealed_len += last_valid;
            last_idx = idx;
            last_valid = valid as u64;
            torn = !clean;
            idx += 1;
        }
        // Everything past the accepted chain (stale epochs, segments after
        // a torn tail) is not a committed suffix — drop it.
        delete_segments_from(fs.as_ref(), &base, last_idx + 1);

        // Position the write handle at the valid end of the last segment.
        let mut file = if last_idx == 0 {
            file
        } else {
            fs.open(&segment_path(&base, last_idx), OpenMode::Existing)?
        };
        file.set_len(last_valid)?;
        let has_records = !recovered.is_empty();
        Ok(Wal {
            fs,
            base,
            file,
            epoch,
            seg_index: last_idx,
            seg_len: last_valid,
            sealed_len,
            segments: last_idx + 1,
            segment_limit: None,
            recovered,
            has_records,
        })
    }

    /// Rotate to a new segment once the current one exceeds `bytes`
    /// (`None`, the default, keeps a single segment forever).
    pub fn set_segment_limit(&mut self, bytes: Option<u64>) {
        self.segment_limit = bytes;
    }

    /// Live segment files in the chain.
    pub fn segment_count(&self) -> u64 {
        self.segments
    }

    /// The committed records found on disk by [`Wal::open`], oldest first.
    /// Recovery consumes them once; appends do not show up here.
    pub fn take_recovered(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.recovered)
    }

    /// Seal the current segment and start the next numbered one.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        let idx = self.seg_index + 1;
        let path = segment_path(&self.base, idx);
        let mut next = self.fs.open(&path, OpenMode::Truncate)?;
        next.write_at(0, &header_bytes(self.epoch, idx))?;
        next.sync_data()?;
        sync_parent_dir(self.fs.as_ref(), &path);
        self.sealed_len += self.seg_len;
        self.file = next;
        self.seg_index = idx;
        self.seg_len = WAL_HEADER_LEN;
        self.segments += 1;
        Ok(())
    }

    /// Append one record. The bytes reach the OS immediately (a crashed
    /// *process* loses nothing) but survive a crashed *machine* only after
    /// the next [`Wal::sync`] — the fsync-point is the commit point.
    /// Returns the record's logical start offset (its LSN).
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
        if let Some(limit) = self.segment_limit {
            // Only rotate past a record boundary (never an empty segment).
            if self.seg_len >= limit && self.seg_len > WAL_HEADER_LEN {
                self.rotate()?;
            }
        }
        let lsn = self.sealed_len + self.seg_len;
        let mut frame = Vec::with_capacity(payload.len() + WAL_RECORD_OVERHEAD as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // Write at the valid end explicitly: a previously *failed* append
        // may have left garbage bytes past the valid prefix, which this
        // positional write overwrites.
        self.file.write_at(self.seg_len, &frame)?;
        self.seg_len += frame.len() as u64;
        self.has_records = true;
        Ok(lsn)
    }

    /// Drop any bytes past the valid prefix (garbage left by a failed
    /// append). A no-op on a healthy log.
    pub fn truncate_to_valid(&mut self) -> Result<(), StoreError> {
        self.file.set_len(self.seg_len)?;
        Ok(())
    }

    /// The fsync-point: force all appended records to stable storage.
    /// (Earlier segments were sealed with an fsync at rotation time.)
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// A duplicate handle of the *current* segment file, for fsyncing
    /// outside whatever lock guards appends. Safe under rotation: records
    /// appended before the handle was taken live either in this segment or
    /// in an earlier one already sealed with its own fsync, so
    /// `sync_data` on the handle makes every earlier append durable even
    /// if the log rotated meanwhile.
    pub fn sync_handle(&self) -> Result<Box<dyn VfsFile>, StoreError> {
        Ok(self.file.try_clone()?)
    }

    /// Drop every record (the post-checkpoint reset): the chain collapses
    /// to a single empty base segment under a new epoch, fully-checkpointed
    /// numbered segments are deleted, and the result is fsynced. The epoch
    /// bump lands before the deletes, so a crash in between leaves stale
    /// segments that the next open rejects instead of replaying.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.epoch += 1;
        if self.seg_index != 0 {
            self.file = self.fs.open(&self.base, OpenMode::Open)?;
        }
        self.file.set_len(0)?;
        self.file.write_at(0, &header_bytes(self.epoch, 0))?;
        self.file.sync_data()?;
        delete_segments_from(self.fs.as_ref(), &self.base, 1);
        self.seg_index = 0;
        self.seg_len = WAL_HEADER_LEN;
        self.sealed_len = 0;
        self.segments = 1;
        self.recovered.clear();
        self.has_records = false;
        Ok(())
    }

    /// Bytes in the valid prefix across all segments (headers included).
    pub fn len_bytes(&self) -> u64 {
        self.sealed_len + self.seg_len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        !self.has_records
    }

    /// Path of the base segment.
    pub fn path(&self) -> &Path {
        &self.base
    }

    /// Epoch of the current base segment. Bumped by every
    /// [`Wal::truncate`]; owners persist it next to external sequence
    /// state (e.g. a durable ticket base) to correlate that state with
    /// exactly one generation of the log across crashes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

// -------------------------------------------------------- observability --

/// Cached metric handles for one shared log, created once from a
/// [`MetricsRegistry`] and attached via [`SharedWal::set_obs`]. Recording
/// is a few relaxed atomics on the append path and one clock pair around
/// each fsync; when the registry is disabled the clock reads are skipped
/// too.
#[derive(Clone)]
pub struct WalObs {
    registry: Arc<MetricsRegistry>,
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
    /// `wal_rotations{sheet}` — segment rotations.
    pub rotations: Arc<Counter>,
}

impl WalObs {
    /// Create (or re-acquire) the WAL metric handles for `sheet`.
    pub fn new(registry: &Arc<MetricsRegistry>, sheet: &str) -> WalObs {
        let labels: &[(&str, &str)] = &[("sheet", sheet)];
        WalObs {
            registry: Arc::clone(registry),
            sheet: sheet.to_string(),
            fsyncs: registry.counter("wal_fsyncs", labels),
            fsync_ns: registry.histogram("wal_fsync_ns", labels),
            batch_ops: registry.histogram("wal_commit_batch_ops", labels),
            appends: registry.counter("wal_appends", labels),
            append_bytes: registry.counter("wal_append_bytes", labels),
            rotations: registry.counter("wal_rotations", labels),
        }
    }

    fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    fn note_rotation(&self, segments: u64) {
        self.rotations.inc();
        self.registry.push_event(Event {
            ts_ms: now_ms(),
            kind: "wal_rotate".to_string(),
            sheet: self.sheet.clone(),
            op: format!("segment {segments}"),
            duration_ns: 0,
            ticket: 0,
            outcome: "ok".to_string(),
        });
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
/// *committed* once a [`SharedWal::sync`] covering its ticket completes;
/// [`SharedWal::wait_durable`] blocks a writer until then. The intended
/// topology (the workspace service) is K writer threads appending and one
/// dedicated committer calling `sync` in a loop: each fsync covers every
/// record appended since the last one, turning K writers × 1 fsync/op
/// into ~1 fsync per batch without weakening the commit contract (no
/// writer is acknowledged before its record is on stable storage).
///
/// The fsync itself runs on a duplicate file handle *outside* the append
/// lock ([`Wal::sync_handle`]), so writers keep appending while a batch
/// is being flushed; a second internal lock serializes flushers.
///
/// [`SharedWal::truncate`] (the post-checkpoint reset) marks every
/// outstanding ticket durable — the checkpoint that triggered it has
/// already captured those ops in the image, which is strictly stronger
/// than WAL durability.
pub struct SharedWal {
    state: std::sync::Mutex<SharedState>,
    /// Serializes group fsyncs (flushers never hold `state` across the
    /// fsync itself).
    flush: std::sync::Mutex<()>,
    durable: std::sync::Condvar,
}

struct SharedState {
    wal: Wal,
    /// Ticket of the most recent append (0 = nothing appended).
    appended_seq: u64,
    /// Highest ticket known durable.
    durable_seq: u64,
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
    /// Wrap an opened [`Wal`] for shared use.
    pub fn new(wal: Wal) -> SharedWal {
        SharedWal {
            state: std::sync::Mutex::new(SharedState {
                wal,
                appended_seq: 0,
                durable_seq: 0,
                sync_failed: None,
                failed_at_ms: None,
                obs: None,
            }),
            flush: std::sync::Mutex::new(()),
            durable: std::sync::Condvar::new(),
        }
    }

    /// Open (or create) the log at `path` — [`Wal::open`] + [`SharedWal::new`].
    pub fn open(path: impl AsRef<Path>) -> Result<SharedWal, StoreError> {
        Ok(SharedWal::new(Wal::open(path)?))
    }

    /// [`SharedWal::open`] against an explicit [`StorageFs`].
    pub fn open_on(
        fs: Arc<dyn StorageFs>,
        path: impl AsRef<Path>,
    ) -> Result<SharedWal, StoreError> {
        Ok(SharedWal::new(Wal::open_on(fs, path)?))
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

    /// Attach metric handles; every later append/fsync/rotation records
    /// through them. Idempotent (last attach wins).
    pub fn set_obs(&self, obs: WalObs) {
        self.lock().obs = Some(obs);
    }

    /// Run `f` against the underlying log under the append lock. Exposed
    /// for owners that need the full [`Wal`] surface (recovery, stats).
    /// `f` must not wait on other log users (deadlock), and a
    /// long-running `f` holds appends, pending checks, and ticket
    /// bookkeeping back for its duration.
    pub fn with<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.lock().wal)
    }

    /// Append one record, returning its commit ticket. The record is in
    /// the OS (crash of the *process* loses nothing) but survives a
    /// machine crash only once a later [`SharedWal::sync`] covers the
    /// ticket.
    pub fn append(&self, payload: &[u8]) -> Result<u64, StoreError> {
        let mut st = self.lock();
        if let Some(cause) = &st.sync_failed {
            return Err(StoreError::StorageFailed(cause.clone()));
        }
        let segments_before = st.wal.segment_count();
        st.wal.append(payload)?;
        st.appended_seq += 1;
        if let Some(obs) = &st.obs {
            if obs.enabled() {
                obs.appends.inc();
                obs.append_bytes.add(payload.len() as u64);
                let segments = st.wal.segment_count();
                if segments > segments_before {
                    obs.note_rotation(segments);
                }
            }
        }
        Ok(st.appended_seq)
    }

    /// Ticket of the most recent append (0 when nothing was appended).
    pub fn appended_seq(&self) -> u64 {
        self.lock().appended_seq
    }

    /// Seed the ticket sequence at `base` instead of 0. For owners that
    /// persist the ticket horizon across restarts (see
    /// [`Wal::epoch`]): called once right after open, **before any
    /// append**, it makes tickets issued by this incarnation continue the
    /// pre-restart sequence instead of restarting from 1. Everything at
    /// or below `base` counts as durable. Refused (no-op) after the first
    /// append — reseeding a live sequence would corrupt outstanding
    /// tickets.
    pub fn set_ticket_base(&self, base: u64) {
        let mut st = self.lock();
        if st.appended_seq == 0 && st.durable_seq == 0 {
            st.appended_seq = base;
            st.durable_seq = base;
        }
    }

    /// Highest ticket known durable (0 when nothing was ever flushed).
    /// `appended_seq() - durable_seq()` is the committer's current lag —
    /// the admission-control signal the server's backpressure uses.
    pub fn durable_seq(&self) -> u64 {
        self.lock().durable_seq
    }

    /// True when appended records are awaiting a group fsync.
    pub fn has_pending(&self) -> bool {
        let st = self.lock();
        st.durable_seq < st.appended_seq
    }

    /// The group fsync-point: make every record appended so far durable
    /// and wake the writers waiting on their tickets. Returns the ticket
    /// horizon made durable.
    pub fn sync(&self) -> Result<u64, StoreError> {
        let flusher = self.flush.lock().unwrap_or_else(|e| e.into_inner());
        self.sync_locked(flusher)
    }

    /// The flush body, entered holding the flusher lock.
    fn sync_locked(&self, _flusher: std::sync::MutexGuard<'_, ()>) -> Result<u64, StoreError> {
        let (mut handle, target, batch) = {
            let st = self.lock();
            if let Some(cause) = &st.sync_failed {
                // Never retry past a failed fsync: the data the failure
                // covered may already be gone from the page cache, so a
                // "successful" retry would acknowledge lost records.
                return Err(StoreError::StorageFailed(cause.clone()));
            }
            if st.durable_seq >= st.appended_seq {
                return Ok(st.durable_seq); // nothing to flush
            }
            (
                st.wal.sync_handle()?,
                st.appended_seq,
                st.appended_seq - st.durable_seq,
            )
        };
        // fsync outside the append lock: writers build the next batch
        // while this one hits the disk.
        let t0 = Instant::now();
        let result = handle.sync_data();
        let fsync_ns = t0.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        match result {
            Ok(()) => {
                st.durable_seq = st.durable_seq.max(target);
                if let Some(obs) = st.obs.as_ref().filter(|o| o.enabled()) {
                    obs.fsyncs.inc();
                    obs.fsync_ns.record_ns(fsync_ns);
                    obs.batch_ops.record(batch);
                }
                self.durable.notify_all();
                Ok(st.durable_seq)
            }
            Err(e) => {
                // Permanent: poison the log and fail every waiting ticket.
                let cause = e.to_string();
                st.poison(cause.clone());
                self.durable.notify_all();
                Err(StoreError::StorageFailed(cause))
            }
        }
    }

    /// Block until `ticket` is durable, *helping with the flush* instead
    /// of parking when the fsync-point is free.
    ///
    /// [`SharedWal::wait_durable`] parks on a condvar immediately, which
    /// makes small commit windows futex-bound: with one edit in flight per
    /// writer, every commit pays park + committer wakeup + notify — two
    /// context switches bracketing a ~100µs fsync. This variant first
    /// spins `spin` yields (sized by the caller to the core count; the
    /// batch often goes durable while spinning), then — if no flusher is
    /// active — runs the group fsync on the *calling* thread. The helping
    /// fsync covers every record appended before it, so batching is
    /// preserved: concurrent writers pile onto the one flusher's horizon
    /// and the rest fall through to the condvar, which the helper
    /// notifies. The dedicated committer remains the steady-state flusher;
    /// helping only fills the latency gap when it is parked or busy
    /// elsewhere.
    pub fn commit_wait(&self, ticket: u64, spin: u32) -> Result<(), StoreError> {
        for _ in 0..spin {
            {
                let st = self.lock();
                if st.durable_seq >= ticket {
                    return Ok(());
                }
                if st.sync_failed.is_some() {
                    break; // wait_durable surfaces the error
                }
            }
            std::thread::yield_now();
        }
        let flusher = match self.flush.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        if let Some(flusher) = flusher {
            if let Ok(durable) = self.sync_locked(flusher) {
                if durable >= ticket {
                    return Ok(());
                }
            }
        }
        self.wait_durable(ticket)
    }

    /// Block until `ticket` is durable (acknowledged commit). Errors if a
    /// group fsync failed before the ticket was covered.
    pub fn wait_durable(&self, ticket: u64) -> Result<(), StoreError> {
        let mut st = self.lock();
        loop {
            if st.durable_seq >= ticket {
                return Ok(());
            }
            if let Some(cause) = &st.sync_failed {
                return Err(StoreError::StorageFailed(format!(
                    "group commit failed before ticket {ticket}: {cause}"
                )));
            }
            st = self.durable.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Post-checkpoint reset (see [`Wal::truncate`]). Outstanding tickets
    /// become durable by definition: the checkpoint that truncates the log
    /// has already folded their effects into the image. Refused on a
    /// poisoned log (the checkpoint's own fsyncs cannot be trusted after a
    /// failed one), and a truncate that itself fails poisons the log — its
    /// fsync is a commit point like any other.
    pub fn truncate(&self) -> Result<(), StoreError> {
        let mut st = self.lock();
        if let Some(cause) = &st.sync_failed {
            return Err(StoreError::StorageFailed(cause.clone()));
        }
        if let Err(e) = st.wal.truncate() {
            st.poison(e.to_string());
            self.durable.notify_all();
            return Err(StoreError::StorageFailed(e.to_string()));
        }
        st.durable_seq = st.appended_seq;
        self.durable.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dataspread-wal-{name}-{}", std::process::id()))
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        delete_segments_from(real_fs().as_ref(), path, 1);
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
            wal.append(b"ephemeral").unwrap();
            wal.truncate().unwrap();
            assert!(wal.is_empty());
            wal.append(b"kept").unwrap();
            wal.sync().unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.take_recovered(), vec![b"kept".to_vec()]);
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
    fn rotation_spreads_records_over_segments_and_recovers() {
        let path = temp("rotate");
        cleanup(&path);
        let n = 40usize;
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.set_segment_limit(Some(128));
            for i in 0..n {
                wal.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.segment_count() > 1, "limit must force rotation");
        }
        assert!(segment_path(&path, 1).exists());
        let mut wal = Wal::open(&path).unwrap();
        let got = wal.take_recovered();
        assert_eq!(got.len(), n, "all records across all segments");
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec, format!("record-{i:04}").as_bytes());
        }
        // The post-checkpoint reset collapses the chain.
        wal.truncate().unwrap();
        assert_eq!(wal.segment_count(), 1);
        assert!(!segment_path(&path, 1).exists());
        cleanup(&path);
    }

    #[test]
    fn stale_segments_from_interrupted_truncate_are_not_replayed() {
        let path = temp("stale");
        cleanup(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.set_segment_limit(Some(64));
            for i in 0..20 {
                wal.append(format!("old-{i}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.segment_count() > 1);
        }
        // Simulate a truncate that crashed after resetting the base but
        // before deleting the numbered segments: reset the base by hand.
        let seg1 = std::fs::read(segment_path(&path, 1)).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.truncate().unwrap();
            wal.append(b"new-era").unwrap();
            wal.sync().unwrap();
        }
        // Resurrect a stale segment from the pre-truncate epoch.
        std::fs::write(segment_path(&path, 1), &seg1).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(
            wal.take_recovered(),
            vec![b"new-era".to_vec()],
            "stale-epoch segment must not be replayed"
        );
        assert!(
            !segment_path(&path, 1).exists(),
            "stale segment deleted on open"
        );
        cleanup(&path);
    }

    #[test]
    fn shared_wal_tickets_and_group_sync() {
        let path = temp("shared-basic");
        cleanup(&path);
        let wal = SharedWal::open(&path).unwrap();
        let t1 = wal.append(b"one").unwrap();
        let t2 = wal.append(b"two").unwrap();
        assert!(t2 > t1);
        assert!(wal.has_pending());
        let horizon = wal.sync().unwrap();
        assert!(horizon >= t2);
        assert!(!wal.has_pending());
        // Covered tickets return immediately.
        wal.wait_durable(t1).unwrap();
        wal.wait_durable(t2).unwrap();
        // Truncate marks outstanding tickets durable (checkpoint absorbed
        // them) and the log restarts clean.
        let t3 = wal.append(b"three").unwrap();
        wal.truncate().unwrap();
        wal.wait_durable(t3).unwrap();
        assert!(wal.with(|w| w.is_empty()));
        cleanup(&path);
    }

    #[test]
    fn shared_wal_concurrent_writers_one_committer() {
        let path = temp("shared-threads");
        cleanup(&path);
        let wal = std::sync::Arc::new(SharedWal::open(&path).unwrap());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Committer: group-fsync whenever something is pending.
        let committer = {
            let wal = std::sync::Arc::clone(&wal);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    if wal.has_pending() {
                        wal.sync().unwrap();
                    } else {
                        std::thread::yield_now();
                    }
                }
                wal.sync().unwrap();
            })
        };
        let writers: Vec<_> = (0..4u8)
            .map(|w| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let ticket = wal.append(format!("w{w}-{i}").as_bytes()).unwrap();
                        wal.wait_durable(ticket).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        committer.join().unwrap();
        drop(wal);
        // Every acknowledged record is on disk.
        let mut reopened = Wal::open(&path).unwrap();
        let recovered = reopened.take_recovered();
        assert_eq!(recovered.len(), 200);
        cleanup(&path);
    }

    #[test]
    fn failed_fsync_poisons_the_shared_wal_permanently() {
        use crate::vfs::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
        let path = temp("poison");
        cleanup(&path);
        let plan = FaultPlan::new();
        let fs = FaultFs::new(std::sync::Arc::clone(&plan));
        let wal = SharedWal::open_on(fs, &path).unwrap();
        let t1 = wal.append(b"pre-fault").unwrap();
        wal.sync().unwrap();
        wal.wait_durable(t1).unwrap();

        // Arm: the next fsync fails. The ticket appended under it must be
        // failed with the coded permanent error — and *stay* failed even
        // though the disk is healthy again afterwards (fsyncgate).
        plan.push(FaultRule::new(FaultOp::Sync, 0, FaultKind::Io));
        let t2 = wal.append(b"doomed").unwrap();
        assert!(matches!(wal.sync(), Err(StoreError::StorageFailed(_))));
        plan.disarm(); // disk "recovers" — must make no difference
        assert!(matches!(
            wal.wait_durable(t2),
            Err(StoreError::StorageFailed(_))
        ));
        assert!(matches!(
            wal.commit_wait(t2, 64),
            Err(StoreError::StorageFailed(_))
        ));
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

    #[test]
    fn helping_commit_wait_shares_the_poisoning_contract() {
        // One writer, window 1: the writer's own helping fsync is the
        // commit point, and its failure is as permanent as the group's.
        use crate::vfs::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
        let path = temp("poison-helping");
        cleanup(&path);
        let plan = FaultPlan::new();
        let fs = FaultFs::new(std::sync::Arc::clone(&plan));
        let wal = SharedWal::open_on(fs, &path).unwrap();
        let obs = WalObs::new(&MetricsRegistry::new(), "s");
        wal.set_obs(obs.clone());
        let t1 = wal.append(b"a").unwrap();
        wal.commit_wait(t1, 0).unwrap();
        assert_eq!(obs.fsyncs.get(), 1);
        plan.push(FaultRule::new(FaultOp::Sync, 0, FaultKind::Enospc));
        let t2 = wal.append(b"b").unwrap();
        assert!(matches!(
            wal.commit_wait(t2, 0),
            Err(StoreError::StorageFailed(_))
        ));
        plan.disarm();
        assert!(matches!(
            wal.commit_wait(t2, 0),
            Err(StoreError::StorageFailed(_))
        ));
        assert!(wal.poisoned().unwrap().contains("No space left"));
        cleanup(&path);
    }

    #[test]
    fn short_write_on_append_leaves_recoverable_prefix() {
        use crate::vfs::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
        let path = temp("shortwrite");
        cleanup(&path);
        let plan = FaultPlan::new();
        let fs = FaultFs::new(std::sync::Arc::clone(&plan));
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

    #[test]
    fn torn_tail_mid_chain_drops_later_segments() {
        let path = temp("torn-chain");
        cleanup(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.set_segment_limit(Some(64));
            for i in 0..20 {
                wal.append(format!("rec-{i:02}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.segment_count() > 2);
        }
        // Corrupt the last byte of segment 1: its tail becomes torn, so
        // recovery must stop there and discard segment 2 onwards.
        let p1 = segment_path(&path, 1);
        let mut b1 = std::fs::read(&p1).unwrap();
        let last = b1.len() - 1;
        b1[last] ^= 0xFF;
        std::fs::write(&p1, &b1).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        let got = wal.take_recovered();
        assert!(!got.is_empty() && got.len() < 20);
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec, format!("rec-{i:02}").as_bytes(), "prefix only");
        }
        assert!(!segment_path(&path, 2).exists());
        cleanup(&path);
    }
}
