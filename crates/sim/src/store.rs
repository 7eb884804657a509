//! Page-store backends for the memory node.
//!
//! The memory node's pool is sparse — pages that were never written read
//! back as zeros — and its enumeration order feeds the repair path and
//! therefore the trace, so any backend must enumerate pages in ascending
//! page-number order. [`MemStore`] captures exactly that contract; the
//! node itself does not care how pages are laid out.
//!
//! Two backends implement it:
//!
//! - [`FlatStore`] (the default): a chunked page directory mapping page
//!   numbers to slots in one of two tables, with a per-page *extent* — an
//!   upper bound on the byte length of the non-zero prefix. Lookups are two
//!   array indexes instead of a `BTreeMap` walk, and reads/writes touch
//!   only the live prefix of each page (workloads that write a few bytes
//!   per page never pay 4 KB copies).
//! - [`BTreeStore`]: the original ordered-map layout, kept as the reference
//!   implementation for differential tests.
//!
//! The extent invariant: every byte of a page at offset `>= extent` is
//! zero. Writes maintain it by trimming trailing zeros off the incoming
//! data and explicitly zeroing any stale bytes the trimmed write would have
//! covered; the extent only grows (to `in_page + trimmed length`) until an
//! `install` or `clear` resets it.
//!
//! # Short pages and promotion
//!
//! A page whose extent is at most `SHORT_MAX` (256) bytes is *short*:
//! only its live prefix is stored, in a region of one shared byte arena
//! sized to the next power of two of its extent. Bytes past the extent read
//! as zero. A short page that outgrows its region moves to a larger one at
//! the arena's end. A write that would grow a short page's extent past
//! `SHORT_MAX` *promotes* it to a full slot: a boxed 4 KiB block plus an
//! extent. A full page never demotes, even if later writes zero it. So a
//! workload that stamps a few bytes per page (a sequential scan's 8-byte
//! stamps) keeps a few dozen bytes per page, with no allocation of its own,
//! instead of faulting in 4 KiB of zeros, while a page that is dense from
//! its first write goes straight to a full slot.
//!
//! Dense pages deliberately stay fixed-size 4 KiB blocks rather than
//! exact-length vectors. An exact-length-everywhere variant cut the same
//! scan set-up time but made quicksort's set-up about 31 % slower: its
//! variable-sized frees let glibc trim about 1.4 MB of heap after each
//! teardown, and the next populate faulted those pages back in (with
//! `MALLOC_TRIM_THRESHOLD_`/`MALLOC_MMAP_THRESHOLD_` pinned, the two
//! variants measured the same).

use std::collections::BTreeMap;

use crate::time::PAGE_SIZE;

/// Largest extent, in bytes, a page may have and stay in the short-page
/// table; a write that grows a page past it promotes the page to a full
/// 4 KiB slot.
const SHORT_MAX: usize = 256;
/// Pages per directory chunk in [`FlatStore`] (must be a power of two).
const CHUNK_PAGES: usize = 512;
const CHUNK_SHIFT: u32 = CHUNK_PAGES.trailing_zeros();
/// Directory entry meaning "page not materialized".
const NO_SLOT: u32 = u32::MAX;
/// Directory-entry tag: the low bits index the short-page table rather
/// than the full-slot table.
const SHORT_TAG: u32 = 1 << 31;

/// Storage contract for the memory node's sparse page pool.
///
/// `page` is an absolute page number (`addr / PAGE_SIZE`); `in_page` offsets
/// within it. Callers never hand a range that crosses a page boundary.
pub trait MemStore: std::fmt::Debug {
    /// Copies `out.len()` bytes of `page` starting at `in_page` into `out`.
    /// Bytes that were never written read as zero.
    ///
    /// Returns an upper bound on the non-zero prefix of `out`: every byte of
    /// `out` at or past the returned index is zero. Backends without extent
    /// metadata may return `out.len()` — the bound is a performance hint for
    /// the caller's own extent bookkeeping, never a semantic contract.
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]) -> usize;

    /// Copies `data` into `page` at `in_page`, materializing the page if
    /// absent (even for all-zero data — materialization is observable via
    /// [`page_numbers`](Self::page_numbers)).
    ///
    /// `live` is the caller's promise that `data[live..]` is all zero (pass
    /// `data.len()` when unknown). It lets extent-tracking backends bound
    /// their trailing-zero scan to the prefix the writer actually touched
    /// instead of re-reading a page of cold zeros; it never changes the
    /// stored bytes.
    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], live: usize);

    /// Number of materialized pages.
    fn len(&self) -> usize;

    /// Whether no page is materialized.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialized page numbers, ascending. Repair walks this, and the walk
    /// order feeds the trace — ascending order is part of the contract.
    fn page_numbers(&self) -> Vec<u64>;

    /// An owned copy of one materialized page's full content, `None` if
    /// absent.
    fn snapshot(&self, page: u64) -> Option<Box<[u8; PAGE_SIZE]>>;

    /// Installs a full page verbatim (control path: repair/recovery).
    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]);

    /// Drops every page (node crash).
    fn clear(&mut self);

    /// Full image of the pool, for checkpoint sealing.
    fn snapshot_all(&self) -> BTreeMap<u64, Box<[u8; PAGE_SIZE]>> {
        self.page_numbers()
            .into_iter()
            .filter_map(|p| self.snapshot(p).map(|b| (p, b)))
            .collect()
    }
}

/// Length of `data` with trailing zeros trimmed: the index one past the
/// last non-zero byte, 0 for all-zero input.
fn content_len(data: &[u8]) -> usize {
    let mut n = data.len();
    // Wide scan first: drop 64-byte all-zero blocks with eight u64 loads
    // (a mostly-zero 4 KiB page costs ~64 iterations instead of ~512).
    while n >= 64 {
        let mut acc = 0u64;
        for w in data[n - 64..n].chunks_exact(8) {
            acc |= u64::from_le_bytes(w.try_into().unwrap_or([0u8; 8]));
        }
        if acc != 0 {
            break;
        }
        n -= 64;
    }
    while n >= 8 && data[n - 8..n] == [0u8; 8] {
        n -= 8;
    }
    while n > 0 && data[n - 1] == 0 {
        n -= 1;
    }
    n
}

/// Writes the trimmed payload `data[..eff]` at `in_page` into a page
/// buffer whose extent was `old_ext`, zeroing the stale bytes below
/// `old_ext` that the trimmed tail of the write covers (at or above the old
/// extent the buffer is already zero). `buf` must hold at least
/// `max(old_ext, in_page + eff)` bytes.
fn splice(buf: &mut [u8], old_ext: usize, in_page: usize, data: &[u8], eff: usize) {
    buf[in_page..in_page + eff].copy_from_slice(&data[..eff]);
    let zero_end = (in_page + data.len()).min(old_ext);
    let zero_start = (in_page + eff).min(zero_end);
    buf[zero_start..zero_end].fill(0);
}

/// Where a materialized page of a [`FlatStore`] lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Index into the full-slot table.
    Full(usize),
    /// Index into the short-page table.
    Short(usize),
}

/// A short page: where its region sits in the short-byte arena, and its
/// page number, so a promotion that moves another short page into the
/// vacated index can re-point that page's directory entry.
#[derive(Debug, Clone, Copy)]
struct ShortPage {
    page: u64,
    /// Start of the page's region in [`FlatStore::short_bytes`].
    off: usize,
    /// The extent: the page's bytes are `short_bytes[off..off + len]`.
    len: u16,
    /// Region size, a power of two (0 before the first write). Bytes in
    /// `[len, cap)` are zero.
    cap: u16,
}

/// Chunked-directory page store with per-page live extents (default).
#[derive(Debug, Default)]
pub struct FlatStore {
    /// `page >> CHUNK_SHIFT` indexes a chunk; each chunk maps the low bits
    /// to a full-slot index, a [`SHORT_TAG`]ged short-page index, or
    /// [`NO_SLOT`] for absent pages.
    dir: Vec<Option<Box<[u32; CHUNK_PAGES]>>>,
    /// Full page contents. Invariant: bytes at offset `>= extents[i]` are
    /// zero.
    slots: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Non-zero prefix bound of each full slot.
    extents: Vec<u32>,
    /// Short pages, in no particular order (the directory orders pages).
    shorts: Vec<ShortPage>,
    /// Arena holding every short page's region. A region that a page
    /// outgrows, or leaves on promotion, stays unused until `clear`; a page
    /// leaves at most `2 * SHORT_MAX` such bytes behind.
    short_bytes: Vec<u8>,
}

impl FlatStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_of(&self, page: u64) -> Option<Slot> {
        let chunk = self.dir.get((page >> CHUNK_SHIFT) as usize)?.as_ref()?;
        match chunk[(page & (CHUNK_PAGES as u64 - 1)) as usize] {
            NO_SLOT => None,
            e if e & SHORT_TAG != 0 => Some(Slot::Short((e & !SHORT_TAG) as usize)),
            e => Some(Slot::Full(e as usize)),
        }
    }

    /// The directory entry of `page`, creating its chunk if absent.
    fn entry_mut(&mut self, page: u64) -> &mut u32 {
        let c = (page >> CHUNK_SHIFT) as usize;
        if c >= self.dir.len() {
            self.dir.resize_with(c + 1, || None);
        }
        let chunk = self.dir[c].get_or_insert_with(|| Box::new([NO_SLOT; CHUNK_PAGES]));
        &mut chunk[(page & (CHUNK_PAGES as u64 - 1)) as usize]
    }

    /// The slot of `page`, materializing an absent page as a short page if
    /// `ext` fits one and as a zeroed full slot otherwise.
    fn slot_or_insert(&mut self, page: u64, ext: usize) -> Slot {
        if let Some(slot) = self.slot_of(page) {
            return slot;
        }
        if ext <= SHORT_MAX {
            let i = self.shorts.len();
            *self.entry_mut(page) = SHORT_TAG | i as u32;
            self.shorts.push(ShortPage {
                page,
                off: 0,
                len: 0,
                cap: 0,
            });
            Slot::Short(i)
        } else {
            Slot::Full(self.insert_full(page))
        }
    }

    /// Points `page` at a new zeroed full slot; returns the slot index.
    fn insert_full(&mut self, page: u64) -> usize {
        let s = self.slots.len();
        *self.entry_mut(page) = s as u32;
        self.slots.push(Box::new([0u8; PAGE_SIZE]));
        self.extents.push(0);
        s
    }

    /// The bytes of `page` below its extent, `None` if absent.
    fn live_prefix(&self, page: u64) -> Option<&[u8]> {
        Some(match self.slot_of(page)? {
            Slot::Full(s) => &self.slots[s][..self.extents[s] as usize],
            Slot::Short(i) => {
                let sp = &self.shorts[i];
                &self.short_bytes[sp.off..sp.off + sp.len as usize]
            }
        })
    }

    /// Short page `i`'s bytes up to `max(extent, need)`, first moving them
    /// to a region of the next power-of-two size at the arena's end if
    /// `need` exceeds the current region.
    fn short_region(&mut self, i: usize, need: usize) -> &mut [u8] {
        let ShortPage {
            mut off, len, cap, ..
        } = self.shorts[i];
        let len = len as usize;
        if need > cap as usize {
            let cap = need.next_power_of_two();
            let at = self.short_bytes.len();
            self.short_bytes.resize(at + cap, 0);
            self.short_bytes.copy_within(off..off + len, at);
            off = at;
            self.shorts[i].off = at;
            self.shorts[i].cap = cap as u16;
        }
        &mut self.short_bytes[off..off + len.max(need)]
    }

    /// Moves short page `page` (short-table index `i`) into a new full slot
    /// with the same bytes and extent; returns the slot index.
    fn promote(&mut self, page: u64, i: usize) -> usize {
        let sp = self.shorts.swap_remove(i);
        if let Some(moved) = self.shorts.get(i).map(|m| m.page) {
            *self.entry_mut(moved) = SHORT_TAG | i as u32;
        }
        let s = self.insert_full(page);
        let len = sp.len as usize;
        self.slots[s][..len].copy_from_slice(&self.short_bytes[sp.off..sp.off + len]);
        self.extents[s] = len as u32;
        s
    }
}

impl MemStore for FlatStore {
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]) -> usize {
        let Some(live) = self.live_prefix(page) else {
            out.fill(0);
            return 0;
        };
        // A read may start past a short page's live prefix.
        let src = live.get(in_page..).unwrap_or_default();
        let n = src.len().min(out.len());
        out[..n].copy_from_slice(&src[..n]);
        out[n..].fill(0);
        n
    }

    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], live: usize) {
        let eff = content_len(&data[..live.min(data.len())]);
        let end = in_page + eff;
        let s = match self.slot_or_insert(page, end) {
            Slot::Full(s) => s,
            Slot::Short(i) if end <= SHORT_MAX => {
                let old_ext = self.shorts[i].len as usize;
                splice(self.short_region(i, end), old_ext, in_page, data, eff);
                self.shorts[i].len = old_ext.max(end) as u16;
                return;
            }
            Slot::Short(i) => self.promote(page, i),
        };
        let old_ext = self.extents[s] as usize;
        splice(&mut self.slots[s][..], old_ext, in_page, data, eff);
        self.extents[s] = old_ext.max(end) as u32;
    }

    fn len(&self) -> usize {
        self.slots.len() + self.shorts.len()
    }

    fn page_numbers(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        for (c, chunk) in self.dir.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            for (i, &slot) in chunk.iter().enumerate() {
                if slot != NO_SLOT {
                    out.push(((c << CHUNK_SHIFT) | i) as u64);
                }
            }
        }
        out
    }

    fn snapshot(&self, page: u64) -> Option<Box<[u8; PAGE_SIZE]>> {
        let live = self.live_prefix(page)?;
        let mut out = Box::new([0u8; PAGE_SIZE]);
        out[..live.len()].copy_from_slice(live);
        Some(out)
    }

    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]) {
        let len = content_len(data);
        let s = match self.slot_or_insert(page, len) {
            Slot::Full(s) => s,
            Slot::Short(i) if len <= SHORT_MAX => {
                let region = self.short_region(i, len);
                region[..len].copy_from_slice(&data[..len]);
                region[len..].fill(0);
                self.shorts[i].len = len as u16;
                return;
            }
            Slot::Short(i) => self.promote(page, i),
        };
        *self.slots[s] = *data;
        self.extents[s] = len as u32;
    }

    fn clear(&mut self) {
        self.dir.clear();
        self.slots.clear();
        self.extents.clear();
        self.shorts.clear();
        self.short_bytes.clear();
    }
}

/// Ordered-map page store: the original layout, kept as the reference
/// backend for differential tests against [`FlatStore`].
#[derive(Debug, Default)]
pub struct BTreeStore {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl BTreeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl From<BTreeMap<u64, Box<[u8; PAGE_SIZE]>>> for BTreeStore {
    fn from(pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>) -> Self {
        Self { pages }
    }
}

impl MemStore for BTreeStore {
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]) -> usize {
        match self.pages.get(&page) {
            Some(p) => {
                out.copy_from_slice(&p[in_page..in_page + out.len()]);
                out.len()
            }
            None => {
                out.fill(0);
                0
            }
        }
    }

    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], _live: usize) {
        let p = self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        p[in_page..in_page + data.len()].copy_from_slice(data);
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn page_numbers(&self) -> Vec<u64> {
        self.pages.keys().copied().collect()
    }

    fn snapshot(&self, page: u64) -> Option<Box<[u8; PAGE_SIZE]>> {
        self.pages.get(&page).cloned()
    }

    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]) {
        self.pages.insert(page, Box::new(*data));
    }

    fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_len_trims_trailing_zeros_only() {
        assert_eq!(content_len(&[]), 0);
        assert_eq!(content_len(&[0; 64]), 0);
        assert_eq!(content_len(&[1, 0, 0]), 1);
        assert_eq!(content_len(&[0, 0, 7]), 3);
        let mut page = [0u8; PAGE_SIZE];
        page[100] = 5;
        assert_eq!(content_len(&page), 101);
        page[PAGE_SIZE - 1] = 9;
        assert_eq!(content_len(&page), PAGE_SIZE);
    }

    /// Drives both backends through the same mixed op sequence and checks
    /// they agree byte-for-byte at every step.
    #[test]
    fn flat_and_btree_stores_agree() {
        let mut flat = FlatStore::new();
        let mut btree = BTreeStore::new();
        // Deterministic mix of aligned/misaligned, zero/non-zero writes,
        // overwrites that shrink the live prefix, and far-apart pages.
        // `(page, off, data, live)`: `live` is the caller hint — sometimes
        // exact, sometimes the loose `data.len()` bound.
        let writes: &[(u64, usize, &[u8], usize)] = &[
            (0, 0, &[1, 2, 3, 4, 5, 6, 7, 8], 8),
            (0, 4, &[0, 0, 0, 0], 0), // zeros stale bytes mid-prefix
            (3, 4090, &[9; 6], 6),    // tail of a page
            (700, 128, &[0xAB; 256], 256),
            (700, 128, &[0; 256], 256), // overwrite content with zeros
            (u64::from(u32::MAX) + 5, 0, &[42], 1), // far chunk
            (1, 0, &[0; 16], 16),     // all-zero write still materializes
        ];
        for &(page, off, data, live) in writes {
            flat.write_at(page, off, data, live);
            btree.write_at(page, off, data, live);
            assert_eq!(flat.len(), btree.len());
            assert_eq!(flat.page_numbers(), btree.page_numbers());
            for &p in &btree.page_numbers() {
                assert_eq!(flat.snapshot(p), btree.snapshot(p), "page {p}");
                let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
                flat.read_into(p, 37, &mut a);
                btree.read_into(p, 37, &mut b);
                assert_eq!(a, b, "partial read of page {p}");
            }
        }
        // Absent pages read zero from both.
        let (mut a, mut b) = ([7u8; 64], [7u8; 64]);
        flat.read_into(999_999, 0, &mut a);
        btree.read_into(999_999, 0, &mut b);
        assert_eq!(a, [0; 64]);
        assert_eq!(b, [0; 64]);
        // Full images agree, and survive a clear.
        assert_eq!(flat.snapshot_all(), btree.snapshot_all());
        flat.clear();
        btree.clear();
        assert_eq!(flat.len(), 0);
        assert_eq!(btree.len(), 0);
        assert!(flat.page_numbers().is_empty());
    }

    /// Asserts `flat` and `btree` hold the same pages with the same bytes.
    fn assert_same(flat: &FlatStore, btree: &BTreeStore) {
        assert_eq!(flat.len(), btree.len());
        assert_eq!(flat.page_numbers(), btree.page_numbers());
        assert_eq!(flat.snapshot_all(), btree.snapshot_all());
    }

    #[test]
    fn growing_a_short_page_past_the_limit_promotes_it_once() {
        let mut flat = FlatStore::new();
        let mut btree = BTreeStore::new();
        // Three short pages; the middle one of the short table is promoted,
        // so `swap_remove` moves the last one into its index.
        for (page, stamp) in [(10u64, 1u8), (11, 2), (12, 3)] {
            flat.write_at(page, 0, &[stamp; 8], 8);
            btree.write_at(page, 0, &[stamp; 8], 8);
        }
        assert_eq!((flat.slots.len(), flat.shorts.len()), (0, 3));
        // Up to the limit the page stays short...
        flat.write_at(11, SHORT_MAX - 4, &[7; 4], 4);
        btree.write_at(11, SHORT_MAX - 4, &[7; 4], 4);
        assert_eq!((flat.slots.len(), flat.shorts.len()), (0, 3));
        assert_same(&flat, &btree);
        // ...one byte past it, the page moves to a full slot.
        flat.write_at(11, SHORT_MAX, &[9], 1);
        btree.write_at(11, SHORT_MAX, &[9], 1);
        assert_eq!((flat.slots.len(), flat.shorts.len()), (1, 2));
        assert_eq!(flat.len(), 3, "a promoted page counts once");
        assert_eq!(flat.page_numbers(), [10, 11, 12]);
        assert_same(&flat, &btree);
        // The moved short page is still reachable and writable.
        flat.write_at(12, 4, &[5; 4], 4);
        btree.write_at(12, 4, &[5; 4], 4);
        assert_same(&flat, &btree);
        // Shrinking a promoted page leaves it a (zeroed) full slot.
        flat.write_at(11, 0, &[0; PAGE_SIZE], PAGE_SIZE);
        btree.write_at(11, 0, &[0; PAGE_SIZE], PAGE_SIZE);
        assert_eq!((flat.slots.len(), flat.shorts.len()), (1, 2));
        assert_same(&flat, &btree);
        // A dense first write goes straight to a full slot.
        flat.write_at(20, 0, &[4; 300], 300);
        btree.write_at(20, 0, &[4; 300], 300);
        assert_eq!((flat.slots.len(), flat.shorts.len()), (2, 2));
        assert_same(&flat, &btree);
    }

    #[test]
    fn install_keeps_sparse_pages_short_and_promotes_dense_ones() {
        let mut flat = FlatStore::new();
        let mut btree = BTreeStore::new();
        let mut sparse = [0u8; PAGE_SIZE];
        sparse[..3].copy_from_slice(&[1, 2, 3]);
        let mut dense = [0u8; PAGE_SIZE];
        dense[PAGE_SIZE - 1] = 8;
        // Installing over a longer short page must zero its old tail.
        flat.write_at(1, 0, &[9; 8], 8);
        btree.write_at(1, 0, &[9; 8], 8);
        for (page, data) in [
            (1, &sparse),
            (2, &dense),
            (3, &sparse),
            (3, &dense),
            (2, &sparse),
        ] {
            flat.install(page, data);
            btree.install(page, data);
            assert_same(&flat, &btree);
        }
        // Page 1 stays short; page 3 was promoted; page 2 never demotes.
        assert_eq!((flat.slots.len(), flat.shorts.len()), (2, 1));
        // Growing page 1 again exposes the tail the install zeroed.
        flat.write_at(1, 7, &[1], 1);
        btree.write_at(1, 7, &[1], 1);
        assert_same(&flat, &btree);
    }

    #[test]
    fn reads_past_a_short_prefix_are_zero() {
        let mut s = FlatStore::new();
        s.write_at(4, 0, &[0xEE; 8], 8);
        let mut out = [7u8; 64];
        // Starts past the 8-byte live prefix: no slicing past its end.
        assert_eq!(s.read_into(4, 100, &mut out), 0);
        assert_eq!(out, [0; 64]);
        let mut tail = [7u8; 16];
        assert_eq!(s.read_into(4, PAGE_SIZE - 16, &mut tail), 0);
        assert_eq!(tail, [0; 16]);
        // Straddling the prefix end: the live bytes, then zeros.
        let mut mid = [7u8; 8];
        assert_eq!(s.read_into(4, 4, &mut mid), 4);
        assert_eq!(mid, [0xEE, 0xEE, 0xEE, 0xEE, 0, 0, 0, 0]);
    }

    #[test]
    fn extent_invariant_holds_after_shrinking_overwrites() {
        let mut s = FlatStore::new();
        s.write_at(5, 0, &[0xFF; 1024], 1024);
        // Overwrite most of the prefix with zeros: the trimmed write must
        // still zero the stale 0xFF bytes it covers — even when the caller's
        // live hint says the payload has no non-zero content at all.
        s.write_at(5, 8, &[0; 1016], 0);
        let snap = s.snapshot(5).unwrap();
        assert!(snap[..8].iter().all(|&b| b == 0xFF));
        assert!(snap[8..].iter().all(|&b| b == 0));
        let mut out = [9u8; 2048];
        s.read_into(5, 0, &mut out);
        assert_eq!(&out[..8], &[0xFF; 8]);
        assert!(out[8..].iter().all(|&b| b == 0));
    }
}
