//! Slotted pages.
//!
//! Classic slotted-page layout inside an 8 KB buffer: a header and a slot
//! directory grow from the front; tuple bytes grow from the back. Deleting
//! a tuple tombstones its slot (like PostgreSQL before VACUUM); updates are
//! done in place when the new tuple fits, otherwise the caller relocates.

/// Page size in bytes. Matches the paper's measured PostgreSQL constant
/// `s1` = 8 KB (the cost of initializing a new table = its first page).
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 4; // n_slots: u16, free_end: u16
const SLOT: usize = 4; // offset: u16, len: u16 (offset 0 = dead)

/// An 8 KB slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
    n_slots: u16,
    free_end: u16,
    live: u16,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("n_slots", &self.n_slots)
            .field("live", &self.live)
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    pub fn new() -> Self {
        Page {
            data: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("PAGE_SIZE"),
            n_slots: 0,
            free_end: PAGE_SIZE as u16,
            live: 0,
        }
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let base = HEADER + i as usize * SLOT;
        let off = u16::from_le_bytes([self.data[base], self.data[base + 1]]);
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]);
        (off, len)
    }

    fn set_slot(&mut self, i: u16, off: u16, len: u16) {
        let base = HEADER + i as usize * SLOT;
        self.data[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn slots_end(&self) -> usize {
        HEADER + self.n_slots as usize * SLOT
    }

    /// Contiguous free bytes between the slot directory and the tuple heap.
    pub fn free_space(&self) -> usize {
        self.free_end as usize - self.slots_end()
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> u16 {
        self.live
    }

    /// Whether `bytes` would fit as a fresh insert.
    pub fn fits(&self, len: usize) -> bool {
        // A dead slot can be reused (no directory growth); otherwise we need
        // a new directory entry too.
        let needs_dir = if self.has_dead_slot() { 0 } else { SLOT };
        len + needs_dir <= self.free_space()
    }

    fn has_dead_slot(&self) -> bool {
        (0..self.n_slots).any(|i| self.slot(i).0 == 0)
    }

    /// Insert tuple bytes; returns the slot number, or `None` when full.
    pub fn insert(&mut self, bytes: &[u8]) -> Option<u16> {
        assert!(!bytes.is_empty() && bytes.len() < PAGE_SIZE, "tuple size");
        let dead = (0..self.n_slots).find(|&i| self.slot(i).0 == 0);
        let needs_dir = if dead.is_some() { 0 } else { SLOT };
        if bytes.len() + needs_dir > self.free_space() {
            return None;
        }
        let off = self.free_end as usize - bytes.len();
        self.data[off..self.free_end as usize].copy_from_slice(bytes);
        self.free_end = off as u16;
        let slot_no = match dead {
            Some(i) => i,
            None => {
                self.n_slots += 1;
                self.n_slots - 1
            }
        };
        self.set_slot(slot_no, off as u16, bytes.len() as u16);
        self.live += 1;
        Some(slot_no)
    }

    /// Read the tuple bytes in `slot`; `None` for dead or unknown slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.n_slots {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return None;
        }
        Some(&self.data[off as usize..(off + len) as usize])
    }

    /// Tombstone a slot; returns true if it was live.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.n_slots || self.slot(slot).0 == 0 {
            return false;
        }
        self.set_slot(slot, 0, 0);
        self.live -= 1;
        true
    }

    /// Update in place when possible: shrinking reuses the old bytes,
    /// growing allocates from this page's free space. Returns false when
    /// the caller must relocate the tuple to another page.
    pub fn update(&mut self, slot: u16, bytes: &[u8]) -> bool {
        if slot >= self.n_slots {
            return false;
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return false;
        }
        if bytes.len() <= len as usize {
            let off = off as usize;
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            self.set_slot(slot, off as u16, bytes.len() as u16);
            return true;
        }
        if bytes.len() <= self.free_space() {
            let new_off = self.free_end as usize - bytes.len();
            self.data[new_off..self.free_end as usize].copy_from_slice(bytes);
            self.free_end = new_off as u16;
            self.set_slot(slot, new_off as u16, bytes.len() as u16);
            return true;
        }
        false
    }

    /// Iterate live slots as (slot, bytes).
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.n_slots).filter_map(move |i| self.get(i).map(|b| (i, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s1), Some(&b"hello"[..]));
        assert_eq!(p.get(s2), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let tuple = [7u8; 100];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // 8192 - 4 header over (100 + 4/slot) ≈ 78 tuples.
        assert!((70..=82).contains(&n), "unexpected capacity {n}");
        assert!(!p.fits(100));
        assert!(p.fits(1) || p.free_space() < 5);
    }

    #[test]
    fn delete_reuses_slot() {
        let mut p = Page::new();
        let s0 = p.insert(b"aaaa").unwrap();
        let _s1 = p.insert(b"bbbb").unwrap();
        assert!(p.delete(s0));
        assert!(!p.delete(s0), "double delete is a no-op");
        assert_eq!(p.get(s0), None);
        let s2 = p.insert(b"cccc").unwrap();
        assert_eq!(s2, s0, "dead slot should be reused");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abc"));
        assert_eq!(p.get(s), Some(&b"abc"[..]));
        assert!(p.update(s, b"a-longer-replacement"));
        assert_eq!(p.get(s), Some(&b"a-longer-replacement"[..]));
    }

    #[test]
    fn update_fails_when_page_full() {
        let mut p = Page::new();
        let s = p.insert(&[1u8; 16]).unwrap();
        while p.insert(&[2u8; 200]).is_some() {}
        let big = vec![3u8; 4000];
        assert!(!p.update(s, &big), "no room to grow");
        assert_eq!(
            p.get(s),
            Some(&[1u8; 16][..]),
            "failed update must not clobber"
        );
    }

    #[test]
    fn iter_skips_dead() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        p.delete(a);
        let live: Vec<_> = p.iter().map(|(_, b)| b.to_vec()).collect();
        assert_eq!(live, vec![b"b".to_vec()]);
    }
}
