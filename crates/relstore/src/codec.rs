//! Shared length-prefixed little-endian byte codec.
//!
//! Every on-disk format in the workspace — the database snapshot
//! ([`crate::persist`]), tuple encoding ([`crate::datum`]), and the
//! engine's WAL records and checkpoint image (`dataspread-engine`'s
//! `durable` module) — frames its primitives the same way: fixed-width
//! little-endian integers and `u32`-length-prefixed UTF-8 strings. This
//! module is the single implementation of that framing, next to the shared
//! [`crc32`](crate::wal::crc32): `put_*` writers that append to a byte
//! buffer, and a bounds-checked [`Reader`] that refuses to read past the
//! end of its slice (truncated or hostile input surfaces as
//! [`StoreError::Corrupt`], never a panic).

use crate::error::StoreError;

/// Hard cap on a decoded string — a sanity bound against corrupt length
/// fields, deliberately above everything an encoder can legitimately
/// produce (WAL records are capped at [`crate::wal::MAX_RECORD`] = 64 MiB,
/// tuples at the page size), so no committed bytes are ever rejected.
pub const MAX_STR_LEN: usize = 1 << 28;

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// `u32` length prefix followed by the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
/// Raw bytes, no length prefix (fixed-size fields like page images).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(bytes);
}

/// Shorthand for the corruption error every decoder in the workspace uses.
pub fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// Every accessor returns [`StoreError::Corrupt`] instead of panicking
/// when the slice runs out, so decoders can be driven by untrusted bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    /// Current read offset from the start of the slice.
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.off
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.off == self.bytes.len()
    }

    /// Fail with `ctx` unless the slice was consumed exactly.
    pub fn expect_done(&self, ctx: &str) -> Result<(), StoreError> {
        if self.done() {
            Ok(())
        } else {
            Err(corrupt(format!("trailing bytes after {ctx}")))
        }
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.off.checked_add(n).filter(|e| *e <= self.bytes.len());
        let Some(end) = end else {
            return Err(corrupt("truncated record"));
        };
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<String, StoreError> {
        self.str_ref().map(str::to_string)
    }

    /// [`Reader::str`] without the copy: the text borrows from the slice,
    /// under the same length bound and UTF-8 check.
    pub fn str_ref(&mut self) -> Result<&'a str, StoreError> {
        let len = self.u32()? as usize;
        if len > MAX_STR_LEN {
            return Err(corrupt(format!("string of {len} bytes exceeds bound")));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("invalid utf-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -2.5);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        assert!(r.done());
        r.expect_done("test").unwrap();
    }

    #[test]
    fn bounds_checked_reads_fail_cleanly() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        assert_eq!(r.offset(), 0, "failed read consumes nothing");
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(r.u8().is_err());
        // A string length pointing past the end is corruption, not a panic.
        let mut buf = Vec::new();
        put_u32(&mut buf, 100);
        buf.extend_from_slice(b"abc");
        assert!(Reader::new(&buf).str().is_err());
        // An implausible length is rejected before allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).str().is_err());
    }

    #[test]
    fn expect_done_flags_trailing_bytes() {
        let mut r = Reader::new(&[0, 1]);
        r.u8().unwrap();
        assert!(r.expect_done("thing").is_err());
        assert_eq!(r.remaining(), 1);
    }
}
