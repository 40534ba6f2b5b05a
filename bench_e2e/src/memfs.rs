//! An in-memory [`StorageFs`]: the benchmark's stand-in for tmpfs.
//!
//! The benchmark may only write inside its checkout, and a real disk's
//! `fsync` drifts by 10–20 % within one run (see README, "Protocol").
//! Routing every file through this map keeps the program's whole durable
//! path — WAL framing, group commit, pager, checkpoint images, recovery —
//! while `sync_data` becomes a call instead of a device wait. What the
//! device would have been asked to do is reported by the `relstore.*`
//! counts.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use dataspread_relstore::vfs::{OpenMode, StorageFs, VfsFile};

type Bytes = Arc<Mutex<Vec<u8>>>;

#[derive(Default)]
pub struct MemFs {
    files: Mutex<HashMap<PathBuf, Bytes>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking holder cannot leave a Vec<u8> or the map half-updated.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

impl MemFs {
    pub fn new() -> Arc<MemFs> {
        Arc::new(MemFs::default())
    }

    /// Total bytes of every file whose path starts with `dir`.
    pub fn bytes_under(&self, dir: &Path) -> u64 {
        lock(&self.files)
            .iter()
            .filter(|(p, _)| p.starts_with(dir))
            .map(|(_, b)| lock(b).len() as u64)
            .sum()
    }

    /// A deep copy: the same files, sharing no buffers with `self`, so a
    /// depth replay can start from the state the served run started from.
    pub fn fork(&self) -> Arc<MemFs> {
        let files = lock(&self.files)
            .iter()
            .map(|(p, b)| (p.clone(), Arc::new(Mutex::new(lock(b).clone()))))
            .collect();
        Arc::new(MemFs {
            files: Mutex::new(files),
        })
    }
}

struct MemFile {
    bytes: Bytes,
}

impl VfsFile for MemFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let bytes = lock(&self.bytes);
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(bytes.len());
        let n = buf.len().min(bytes.len() - start);
        buf[..n].copy_from_slice(&bytes[start..start + n]);
        Ok(n)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut bytes = lock(&self.bytes);
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "offset"))?;
        let end = start + data.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[start..end].copy_from_slice(data);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let len =
            usize::try_from(len).map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "len"))?;
        lock(&self.bytes).resize(len, 0);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(lock(&self.bytes).len() as u64)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(MemFile {
            bytes: Arc::clone(&self.bytes),
        }))
    }
}

impl StorageFs for MemFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut files = lock(&self.files);
        let bytes = match mode {
            OpenMode::Open | OpenMode::Truncate => {
                Arc::clone(files.entry(path.into()).or_default())
            }
            OpenMode::Existing | OpenMode::Read => {
                Arc::clone(files.get(path).ok_or_else(|| not_found(path))?)
            }
        };
        if mode == OpenMode::Truncate {
            lock(&bytes).clear();
        }
        Ok(Box::new(MemFile { bytes }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.into(), bytes);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.files).contains_key(path)
    }
}
