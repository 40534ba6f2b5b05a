//! Single-file persistence for the database.
//!
//! DataSpread's storage lives inside PostgreSQL, which persists it. Our
//! embedded stand-in persists itself: `Database::save` writes a snapshot —
//! catalog, schemas, and raw heap pages — to one file; `Database::load`
//! restores it. The format is a straightforward length-prefixed layout
//! over the shared [`dataspread_grid::codec`] primitives (no external
//! serialization crates, per the workspace dependency policy):
//!
//! ```text
//! magic "DSPR" | version u32 | max_columns u32 | table_count u32
//! per table:
//!   name (u32 len + bytes)
//!   column_count u32, per column: name (u32+bytes), type tag u8
//!   page_count u32, per page: PAGE_SIZE raw bytes + n_slots u16 +
//!     free_end u16 + live u16
//!   row_count u64
//! ```

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use crate::datum::DataType;
use crate::db::{Database, StorageConfig};
use crate::error::StoreError;
use crate::heap::HeapFile;
use crate::page::{Page, PAGE_SIZE};
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::vfs::{real_fs, OpenMode, StorageFs, VfsFile};
use dataspread_grid::codec::{self, Reader};

const MAGIC: &[u8; 4] = b"DSPR";
const VERSION: u32 = 1;

fn io_err(e: io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// A temp-file path in the same directory as `path` (rename across
/// filesystems is not atomic, so the temp file must be a sibling).
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Adapts a [`VfsFile`] to `io::Write` for streaming through `BufWriter`.
struct VfsWriter<'a> {
    file: &'a mut dyn VfsFile,
    offset: u64,
}

impl Write for VfsWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write_at(self.offset, buf)?;
        self.offset += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Any => 4,
    }
}

fn tag_type(tag: u8) -> Result<DataType, StoreError> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Any,
        t => return Err(StoreError::Corrupt(format!("unknown type tag {t}"))),
    })
}

impl Database {
    /// Write a snapshot of the whole database to `path`.
    ///
    /// The write is atomic with respect to crashes: the snapshot streams to
    /// a sibling temp file, is fsynced, and only then renamed over `path`
    /// (rename within a directory is atomic on POSIX). A crash mid-save
    /// therefore leaves any previous snapshot at `path` untouched instead
    /// of a torn half-written file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.save_on(real_fs(), path)
    }

    /// [`Database::save`] against an explicit [`StorageFs`] — the
    /// fault-injection entry point.
    pub fn save_on(
        &self,
        fs: Arc<dyn StorageFs>,
        path: impl AsRef<Path>,
    ) -> Result<(), StoreError> {
        let path = path.as_ref();
        let tmp_path = temp_sibling(path);
        let result = self.save_to(fs.as_ref(), &tmp_path).and_then(|()| {
            fs.rename(&tmp_path, path).map_err(io_err)?;
            // Pin the rename itself (best-effort: directory handles cannot
            // be fsynced on every platform).
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fs.sync_dir(parent).ok();
            }
            Ok(())
        });
        if result.is_err() {
            fs.remove_file(&tmp_path).ok();
        }
        result
    }

    fn save_to(&self, fs: &dyn StorageFs, path: &Path) -> Result<(), StoreError> {
        // Stream through a buffered writer (codec builds each small piece
        // in a reused scratch buffer; raw page bytes go straight through)
        // so saving never holds a second full copy of the database.
        let mut file = fs.open(path, OpenMode::Truncate).map_err(io_err)?;
        let mut out = io::BufWriter::new(VfsWriter {
            file: file.as_mut(),
            offset: 0,
        });
        let mut buf = Vec::new();
        codec::put_bytes(&mut buf, MAGIC);
        codec::put_u32(&mut buf, VERSION);
        codec::put_u32(&mut buf, self.config().max_columns as u32);
        let names: Vec<&str> = self.table_names().collect();
        codec::put_u32(&mut buf, names.len() as u32);
        out.write_all(&buf).map_err(io_err)?;
        for name in names {
            let table = self.table(name)?;
            buf.clear();
            codec::put_str(&mut buf, name);
            let schema = table.schema();
            codec::put_u32(&mut buf, schema.len() as u32);
            for col in schema.columns() {
                codec::put_str(&mut buf, &col.name);
                codec::put_u8(&mut buf, type_tag(col.ty));
            }
            let pages = table.heap_pages();
            codec::put_u32(&mut buf, pages.len() as u32);
            out.write_all(&buf).map_err(io_err)?;
            for page in pages {
                let (bytes, n_slots, free_end, live) = page.raw_parts();
                out.write_all(bytes).map_err(io_err)?;
                buf.clear();
                codec::put_u16(&mut buf, n_slots);
                codec::put_u16(&mut buf, free_end);
                codec::put_u16(&mut buf, live);
                out.write_all(&buf).map_err(io_err)?;
            }
            buf.clear();
            codec::put_u64(&mut buf, table.row_count());
            out.write_all(&buf).map_err(io_err)?;
        }
        out.into_inner()
            .map_err(|e| StoreError::Io(format!("snapshot flush: {e}")))?;
        // The rename must not be reordered before the data hits the disk.
        file.sync_data().map_err(io_err)
    }

    /// Restore a snapshot previously written by [`Database::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Database, StoreError> {
        Self::load_on(real_fs(), path)
    }

    /// [`Database::load`] against an explicit [`StorageFs`].
    pub fn load_on(fs: Arc<dyn StorageFs>, path: impl AsRef<Path>) -> Result<Database, StoreError> {
        let bytes = fs.read(path.as_ref()).map_err(io_err)?;
        let mut inp = Reader::new(&bytes);
        if inp.take(4)? != MAGIC {
            return Err(StoreError::Corrupt("bad magic".into()));
        }
        let version = inp.u32()?;
        if version != VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let max_columns = inp.u32()? as usize;
        let mut db = Database::with_config(StorageConfig { max_columns });
        let n_tables = inp.u32()?;
        for _ in 0..n_tables {
            let name = inp.str()?;
            let n_cols = inp.u32()?;
            let mut cols = Vec::with_capacity(n_cols.min(1 << 16) as usize);
            for _ in 0..n_cols {
                let cname = inp.str()?;
                cols.push(ColumnDef::new(cname, tag_type(inp.u8()?)?));
            }
            let n_pages = inp.u32()?;
            let mut heap = HeapFile::new();
            let mut live_total = 0u64;
            for _ in 0..n_pages {
                let page_bytes = inp.take(PAGE_SIZE)?.to_vec();
                let n_slots = inp.u16()?;
                let free_end = inp.u16()?;
                let live = inp.u16()?;
                if (free_end as usize) > PAGE_SIZE {
                    return Err(StoreError::Corrupt("free_end beyond page".into()));
                }
                live_total += live as u64;
                heap.push_raw_page(Page::from_raw_parts(page_bytes, n_slots, free_end, live)?);
            }
            heap.set_live_count(live_total);
            let row_count = inp.u64()?;
            if row_count != live_total {
                return Err(StoreError::Corrupt(format!(
                    "row count {row_count} != live tuples {live_total}"
                )));
            }
            let table = Table::from_parts(&name, Schema::new(cols), heap, row_count)
                .with_max_columns(max_columns);
            db.insert_table(table)?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dataspread-persist-{name}-{}", std::process::id()))
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t1",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                ]),
            )
            .unwrap();
        for i in 0..1000 {
            t.insert(&[Datum::Int(i), Datum::Text(format!("row-{i}"))])
                .unwrap();
        }
        // Deletions and updates leave realistic page states.
        let tids: Vec<_> = t.scan().map(|(tid, _)| tid).collect();
        for tid in tids.iter().step_by(7) {
            t.delete(*tid);
        }
        let survivor = t.scan().next().unwrap().0;
        t.update(survivor, &[Datum::Int(-1), Datum::Text("updated".into())])
            .unwrap();
        db.create_table(
            "empty",
            Schema::new(vec![ColumnDef::new("x", DataType::Any)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn save_load_roundtrip() {
        let db = sample_db();
        let path = temp_path("roundtrip");
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            loaded.table_names().collect::<Vec<_>>(),
            db.table_names().collect::<Vec<_>>()
        );
        let a: Vec<_> = db.table("t1").unwrap().scan().collect();
        let b: Vec<_> = loaded.table("t1").unwrap().scan().collect();
        assert_eq!(a, b, "tuple ids and contents survive");
        assert_eq!(
            loaded.table("t1").unwrap().row_count(),
            db.table("t1").unwrap().row_count()
        );
        assert_eq!(loaded.table("empty").unwrap().row_count(), 0);
    }

    #[test]
    fn loaded_db_accepts_writes() {
        let db = sample_db();
        let path = temp_path("writes");
        db.save(&path).unwrap();
        let mut loaded = Database::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let t = loaded.table_mut("t1").unwrap();
        let tid = t
            .insert(&[Datum::Int(9999), Datum::Text("after-load".into())])
            .unwrap();
        assert_eq!(t.fetch(tid).unwrap()[0], Datum::Int(9999));
        // Old tuples still addressable after new writes.
        let first = t.scan().next().unwrap().0;
        assert!(t.fetch(first).is_ok());
    }

    #[test]
    fn rejects_garbage_files() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a database").unwrap();
        assert!(matches!(Database::load(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
        assert!(Database::load(temp_path("missing")).is_err());
    }

    #[test]
    fn save_is_atomic_replace() {
        let path = temp_path("atomic");
        let db = sample_db();
        db.save(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Overwriting an existing snapshot goes through a temp sibling…
        let mut db2 = sample_db();
        db2.table_mut("t1")
            .unwrap()
            .insert(&[Datum::Int(424242), Datum::Text("second".into())])
            .unwrap();
        db2.save(&path).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_ne!(first, second, "snapshot content replaced");
        // …and the temp file does not survive a successful save.
        let dir = path.parent().unwrap();
        let base = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&base) && n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        let loaded = Database::load(&path).unwrap();
        assert_eq!(
            loaded.table("t1").unwrap().row_count(),
            db2.table("t1").unwrap().row_count()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_leaves_existing_snapshot_intact() {
        let path = temp_path("atomic-fail");
        let db = sample_db();
        db.save(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A save to an unwritable location errors without touching `path`.
        let bogus = std::path::Path::new("/nonexistent-dir-dspr/snapshot.db");
        assert!(matches!(db.save(bogus), Err(StoreError::Io(_))));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_snapshot() {
        let db = sample_db();
        let path = temp_path("truncated");
        db.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Database::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
