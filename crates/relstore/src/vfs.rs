//! VFS-style storage abstraction.
//!
//! Every file touchpoint in the store — the WAL, and the engine's durable
//! layer with its checkpoint image above it — goes through [`StorageFs`]
//! instead of `std::fs` directly. Production code uses [`RealFs`] (the
//! default everywhere). Because the trait is object-safe and public, a
//! test can hand the store any other implementation: the fault suites
//! wrap [`RealFs`] in the fault-injecting filesystem of the
//! `dataspread-sim` dev crate, which fails writes, fsyncs, opens and
//! renames on a scripted schedule.
//!
//! Files are addressed positionally ([`VfsFile::read_at`] /
//! [`VfsFile::write_at`]) so no hidden cursor state survives a failed
//! operation; a short write really does leave a torn prefix behind, the
//! way a crashed `write(2)` would.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
}
