//! Heap files: an append-oriented collection of slotted pages.

use crate::error::StoreError;
use crate::page::{Page, PAGE_SIZE};

/// A stable tuple pointer: page number and slot within the page.
///
/// This is what the positional-mapping structures of the engine crate store
/// in their leaves (paper Figure 11: "leaf nodes store tuple pointers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    pub page: u32,
    pub slot: u16,
}

/// A heap file of slotted pages.
#[derive(Debug, Default, Clone)]
pub struct HeapFile {
    pages: Vec<Page>,
    /// Page that most recently accepted an insert — first candidate for the
    /// next one (cheap, good locality for bulk loads).
    insert_hint: usize,
    live: u64,
}

impl HeapFile {
    pub fn new() -> Self {
        HeapFile {
            pages: Vec::new(),
            insert_hint: 0,
            live: 0,
        }
    }

    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// Physical bytes occupied (whole pages, like a real store).
    pub fn physical_bytes(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Insert tuple bytes, returning a stable [`TupleId`].
    pub fn insert(&mut self, bytes: &[u8]) -> Result<TupleId, StoreError> {
        if bytes.len() + 8 >= PAGE_SIZE {
            return Err(StoreError::TupleTooLarge(bytes.len()));
        }
        if !self.pages.is_empty() {
            let hint = self.insert_hint.min(self.pages.len() - 1);
            if let Some(slot) = self.pages[hint].insert(bytes) {
                self.live += 1;
                return Ok(TupleId {
                    page: hint as u32,
                    slot,
                });
            }
            // Fall back to the last page if the hint differs.
            let last = self.pages.len() - 1;
            if last != hint {
                if let Some(slot) = self.pages[last].insert(bytes) {
                    self.insert_hint = last;
                    self.live += 1;
                    return Ok(TupleId {
                        page: last as u32,
                        slot,
                    });
                }
            }
        }
        let mut page = Page::new();
        let slot = page.insert(bytes).expect("fresh page fits bounded tuple");
        self.pages.push(page);
        self.insert_hint = self.pages.len() - 1;
        self.live += 1;
        Ok(TupleId {
            page: (self.pages.len() - 1) as u32,
            slot,
        })
    }

    pub fn get(&self, tid: TupleId) -> Option<&[u8]> {
        self.pages.get(tid.page as usize)?.get(tid.slot)
    }

    /// Delete a tuple; returns true when it was live.
    pub fn delete(&mut self, tid: TupleId) -> bool {
        match self.pages.get_mut(tid.page as usize) {
            Some(p) => {
                let was = p.delete(tid.slot);
                if was {
                    self.live -= 1;
                }
                was
            }
            None => false,
        }
    }

    /// Update a tuple. When it no longer fits in its page the tuple moves
    /// and the *new* TupleId is returned (callers owning indexes must
    /// re-point them, exactly the bookkeeping real stores do).
    pub fn update(&mut self, tid: TupleId, bytes: &[u8]) -> Result<TupleId, StoreError> {
        if bytes.len() + 8 >= PAGE_SIZE {
            return Err(StoreError::TupleTooLarge(bytes.len()));
        }
        let page = self
            .pages
            .get_mut(tid.page as usize)
            .ok_or(StoreError::BadTupleId)?;
        if page.get(tid.slot).is_none() {
            return Err(StoreError::BadTupleId);
        }
        if page.update(tid.slot, bytes) {
            return Ok(tid);
        }
        // Relocate.
        page.delete(tid.slot);
        self.live -= 1;
        self.insert(bytes)
    }

    /// Iterate all live tuples as `(TupleId, bytes)`.
    pub fn scan(&self) -> impl Iterator<Item = (TupleId, &[u8])> {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            page.iter().map(move |(slot, bytes)| {
                (
                    TupleId {
                        page: pno as u32,
                        slot,
                    },
                    bytes,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_spills_to_new_pages() {
        let mut h = HeapFile::new();
        let tuple = [1u8; 1000];
        for _ in 0..30 {
            h.insert(&tuple).unwrap();
        }
        assert!(h.page_count() >= 4, "1000B tuples: ~8 per page");
        assert_eq!(h.live_count(), 30);
        assert_eq!(h.physical_bytes(), (h.page_count() * PAGE_SIZE) as u64);
    }

    #[test]
    fn get_delete_update() {
        let mut h = HeapFile::new();
        let t = h.insert(b"abc").unwrap();
        assert_eq!(h.get(t), Some(&b"abc"[..]));
        let t2 = h.update(t, b"xy").unwrap();
        assert_eq!(t2, t, "shrinking update stays in place");
        assert_eq!(h.get(t), Some(&b"xy"[..]));
        assert!(h.delete(t));
        assert!(!h.delete(t));
        assert_eq!(h.get(t), None);
        assert!(h.update(t, b"zz").is_err(), "update of dead tuple fails");
    }

    #[test]
    fn relocating_update_returns_new_tid() {
        let mut h = HeapFile::new();
        let first = h.insert(&[0u8; 16]).unwrap();
        // Fill the first page so growth must relocate.
        while h.page_count() == 1 {
            h.insert(&[2u8; 500]).unwrap();
        }
        let live_before = h.live_count();
        let moved = h.update(first, &vec![9u8; 6000]).unwrap();
        assert_ne!(moved, first);
        assert_eq!(h.get(moved).unwrap().len(), 6000);
        assert_eq!(h.get(first), None);
        assert_eq!(h.live_count(), live_before);
    }

    #[test]
    fn rejects_oversized_tuples() {
        let mut h = HeapFile::new();
        assert!(matches!(
            h.insert(&vec![0u8; PAGE_SIZE]),
            Err(StoreError::TupleTooLarge(_))
        ));
    }

    #[test]
    fn scan_visits_all_live() {
        let mut h = HeapFile::new();
        let ids: Vec<_> = (0..100u8).map(|i| h.insert(&[i]).unwrap()).collect();
        h.delete(ids[50]);
        let seen: Vec<u8> = h.scan().map(|(_, b)| b[0]).collect();
        assert_eq!(seen.len(), 99);
        assert!(!seen.contains(&50));
    }
}
