//! Bounded page cache with clock (second-chance) eviction and dirty
//! write-back.
//!
//! The cache is the memory half of the storage engine: at most
//! `capacity` page frames are resident; faulting a page that is not
//! resident loads it from the [`PageFile`], evicting the first
//! not-recently-referenced frame the clock hand finds (writing it back
//! first if dirty). Eviction order is **deterministic** for a fixed
//! access schedule: the hand starts at frame 0, every fault advances it
//! by the same rule, and nothing in the policy depends on time, hashing
//! order, or thread identity. (Concurrent accessors of one table — the
//! lookahead prefetch racing the dense compute — interleave their
//! *schedules* nondeterministically, which may shift hit/miss counts,
//! but every access goes through this one coherent cache, so row values
//! are exact regardless. See `StoredTable`'s docs.)

use crate::error::StorageError;
use crate::pagefile::PageFile;
use lazydp_obs::CacheCounters;

/// Frame page id meaning "belongs to no page": set when an eviction's
/// replacement load fails after the old mapping was already removed.
/// Can never collide with a real id — tables address pages `0..pages`.
const ORPHAN_PAGE: usize = usize::MAX;

/// Page-map entry of a page that is not resident.
const NO_FRAME: u32 = u32::MAX;

/// One resident page.
#[derive(Debug)]
struct Frame {
    page: usize,
    data: Vec<f32>,
    dirty: bool,
    /// Second-chance bit: set on every access, cleared when the clock
    /// hand sweeps past.
    referenced: bool,
}

/// A bounded set of page frames with clock eviction.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    page_elems: usize,
    frames: Vec<Frame>,
    /// Frame slot of each page (`0..pages`), or [`NO_FRAME`].
    map: Vec<u32>,
    hand: usize,
    /// Per-instance counters, mirrored into the `lazydp_obs` registry
    /// (`store.*` metrics) on every record.
    counters: CacheCounters,
}

impl PageCache {
    /// Creates an empty cache of at most `capacity` pages of
    /// `page_elems` elements each, fronting a file of `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `page_elems == 0`, or `pages` does not
    /// fit a `u32` frame slot (a frame is only ever added for a distinct
    /// page, so slots stay below `pages`).
    #[must_use]
    pub fn new(capacity: usize, page_elems: usize, pages: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one page");
        assert!(page_elems > 0, "pages must be non-empty");
        assert!(
            pages < NO_FRAME as usize,
            "{pages} pages overflow a u32 slot"
        );
        Self {
            capacity,
            page_elems,
            frames: Vec::new(),
            map: vec![NO_FRAME; pages],
            hand: 0,
            counters: CacheCounters::new(),
        }
    }

    /// Capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// The per-instance counters so far (test-only: production readers
    /// go through the `lazydp_obs` registry snapshot — rule O1).
    #[cfg(test)]
    #[must_use]
    pub fn stats(&self) -> lazydp_obs::CacheView {
        self.counters.obs_read()
    }

    /// Faults `page` in (loading from `file` on a miss, evicting via the
    /// clock if full) and returns its frame slot. The frame's reference
    /// bit is set.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the load or an eviction write-back.
    fn fault(&mut self, page: usize, file: &mut PageFile) -> Result<usize, StorageError> {
        if let Some(slot) = self.slot(page) {
            self.counters.record_hit();
            self.frames[slot].referenced = true;
            return Ok(slot);
        }
        self.counters.record_miss(file.page_bytes());
        let slot = if self.frames.len() < self.capacity {
            let mut data = vec![0.0f32; self.page_elems];
            file.read_page(page, &mut data)?;
            self.frames.push(Frame {
                page,
                data,
                dirty: false,
                referenced: true,
            });
            self.frames.len() - 1
        } else {
            let slot = self.evict_slot();
            if self.frames[slot].dirty {
                self.counters.record_write_back(file.page_bytes());
                file.write_page(self.frames[slot].page, &self.frames[slot].data)?;
                // Mark clean *before* the fallible load below: if the
                // load errors, the frame is an unmapped clean orphan
                // that a later eviction discards harmlessly — leaving
                // it dirty would eventually write stale bytes over a
                // newer copy of the evicted page.
                self.frames[slot].dirty = false;
            }
            self.counters.record_eviction();
            let evicted = self.frames[slot].page;
            if evicted != ORPHAN_PAGE {
                self.map[evicted] = NO_FRAME;
            }
            if let Err(e) = file.read_page(page, &mut self.frames[slot].data) {
                // The old mapping is already gone, so on a failed load
                // the frame's bytes belong to no page. Poison its id:
                // if it kept `evicted` and that page were later faulted
                // into another frame, evicting this orphan would unmap
                // the *live* frame — stranding its dirty updates and
                // silently resurrecting the stale file copy.
                let frame = &mut self.frames[slot];
                frame.page = ORPHAN_PAGE;
                frame.referenced = false;
                return Err(e);
            }
            let frame = &mut self.frames[slot];
            frame.page = page;
            frame.referenced = true;
            slot
        };
        self.map[page] = slot as u32;
        Ok(slot)
    }

    /// The frame slot holding `page`, if it is resident.
    fn slot(&self, page: usize) -> Option<usize> {
        match self.map[page] {
            NO_FRAME => None,
            slot => Some(slot as usize),
        }
    }

    /// Clock sweep: advance the hand, clearing reference bits, until a
    /// frame without its second chance is found. Terminates because each
    /// cleared bit can only delay a frame by one full revolution.
    fn evict_slot(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[slot].referenced {
                self.frames[slot].referenced = false;
            } else {
                return slot;
            }
        }
    }

    /// Runs `f` on the resident copy of `page`.
    ///
    /// # Errors
    ///
    /// Propagates fault I/O errors.
    pub fn with_page<R>(
        &mut self,
        page: usize,
        file: &mut PageFile,
        f: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, StorageError> {
        let slot = self.fault(page, file)?;
        Ok(f(&self.frames[slot].data))
    }

    /// Runs `f` on the resident copy of `page` mutably and marks the
    /// frame dirty.
    ///
    /// # Errors
    ///
    /// Propagates fault I/O errors.
    pub fn with_page_mut<R>(
        &mut self,
        page: usize,
        file: &mut PageFile,
        f: impl FnOnce(&mut [f32]) -> R,
    ) -> Result<R, StorageError> {
        let slot = self.fault(page, file)?;
        self.frames[slot].dirty = true;
        Ok(f(&mut self.frames[slot].data))
    }

    /// The resident copy of `page`, if any, setting its reference bit.
    /// No hit is recorded — this is for callers that already faulted
    /// the page in (and accounted the access) via [`PageCache::touch`].
    pub fn peek(&mut self, page: usize) -> Option<&[f32]> {
        let slot = self.slot(page)?;
        self.frames[slot].referenced = true;
        Some(&self.frames[slot].data)
    }

    /// Like [`PageCache::peek`], mutably; marks the frame dirty.
    pub fn peek_mut(&mut self, page: usize) -> Option<&mut [f32]> {
        let slot = self.slot(page)?;
        let frame = &mut self.frames[slot];
        frame.referenced = true;
        frame.dirty = true;
        Some(&mut frame.data)
    }

    /// Faults `page` in without exposing it (the prefetch primitive).
    ///
    /// # Errors
    ///
    /// Propagates fault I/O errors.
    pub fn touch(&mut self, page: usize, file: &mut PageFile) -> Result<(), StorageError> {
        let _ = self.fault(page, file)?;
        Ok(())
    }

    /// Writes every dirty frame back to `file` (frames stay resident and
    /// become clean). Write-back traffic is counted as spill bytes.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors.
    pub fn flush(&mut self, file: &mut PageFile) -> Result<(), StorageError> {
        for slot in 0..self.frames.len() {
            if self.frames[slot].dirty {
                self.counters.record_write_back(file.page_bytes());
                file.write_page(self.frames[slot].page, &self.frames[slot].data)?;
                self.frames[slot].dirty = false;
            }
        }
        Ok(())
    }

    /// The resident frames as `(page, data)` pairs, in an unspecified
    /// order. Frame data is authoritative — it is at least as new as
    /// the file's copy — which is what the degradation path needs to
    /// rebuild a bitwise-identical resident table when the spill device
    /// dies.
    pub fn resident_pages(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.frames
            .iter()
            .filter(|fr| fr.page != ORPHAN_PAGE)
            .map(|fr| (fr.page, fr.data.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(pages: usize, elems: usize) -> PageFile {
        PageFile::create(&std::env::temp_dir(), pages, elems).expect("page file")
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut f = file(4, 2);
        let mut c = PageCache::new(2, 2, 4);
        c.touch(0, &mut f).unwrap();
        c.touch(1, &mut f).unwrap();
        c.touch(0, &mut f).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(s.bytes_loaded, 2 * 2 * 4);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn writes_survive_eviction_round_trips() {
        let mut f = file(3, 2);
        let mut c = PageCache::new(1, 2, 3); // pathological 1-page cache
        c.with_page_mut(0, &mut f, |p| p.copy_from_slice(&[1.0, 2.0]))
            .unwrap();
        c.with_page_mut(1, &mut f, |p| p.copy_from_slice(&[3.0, 4.0]))
            .unwrap();
        c.with_page_mut(2, &mut f, |p| p.copy_from_slice(&[5.0, 6.0]))
            .unwrap();
        // Pages 0 and 1 were evicted dirty; fault them back.
        let got0 = c.with_page(0, &mut f, <[f32]>::to_vec).unwrap();
        assert_eq!(got0, vec![1.0, 2.0]);
        let got1 = c.with_page(1, &mut f, <[f32]>::to_vec).unwrap();
        assert_eq!(got1, vec![3.0, 4.0]);
        let s = c.stats();
        assert_eq!(s.write_backs, 3, "each dirty page written back once");
        assert_eq!(s.bytes_spilled, 3 * 2 * 4);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut f = file(4, 1);
        let mut c = PageCache::new(2, 1, 4);
        c.touch(0, &mut f).unwrap(); // frames: [0*, _]
        c.touch(1, &mut f).unwrap(); // frames: [0*, 1*]
        c.touch(0, &mut f).unwrap(); // hit; 0 referenced again
                                     // Fault 2: hand clears 0's bit, clears 1's bit, wraps, evicts 0?
                                     // No — second chance: hand at 0 finds referenced → clear, hand
                                     // at 1 finds referenced → clear, hand back at 0 finds clear →
                                     // evict 0. Then touching 1 must still hit (it stayed resident).
        c.touch(2, &mut f).unwrap();
        let before = c.stats().misses;
        c.touch(1, &mut f).unwrap();
        assert_eq!(c.stats().misses, before, "page 1 kept its frame");
    }

    #[test]
    fn failed_replacement_load_orphans_the_frame_without_aliasing() {
        use lazydp_fault::{FaultKind, FaultPlan, Site};
        let _serial = lazydp_fault::exclusive();
        let mut f = file(4, 1);
        let mut c = PageCache::new(2, 1, 4);
        c.with_page_mut(0, &mut f, |p| p[0] = 10.0).unwrap(); // read #0
        c.touch(1, &mut f).unwrap(); // read #1, cache full
                                     // Fail the next load (read #2): page 0 is evicted (written
                                     // back) and its map entry removed before the replacement read
                                     // errors — the frame must become a true orphan, not keep id 0.
        lazydp_fault::install(FaultPlan::new(1).rule(Site::PageRead, 2, FaultKind::Transient));
        assert!(c.touch(2, &mut f).is_err(), "injected load must surface");
        lazydp_fault::clear();
        let live: Vec<usize> = c.resident_pages().map(|(p, _)| p).collect();
        assert_eq!(live, vec![1], "the orphan frame must not be reported");
        // Page 0 comes back into the *other* frame and is updated...
        c.with_page_mut(0, &mut f, |p| p[0] = 20.0).unwrap();
        // ...then the orphan slot is recycled. Before the orphan id was
        // poisoned, this eviction unmapped page 0 — unmapping the
        // LIVE page-0 frame and stranding its dirty update, so later
        // reads resurrected the stale file copy.
        c.touch(3, &mut f).unwrap();
        assert_eq!(
            c.peek(0).map(<[f32]>::to_vec),
            Some(vec![20.0]),
            "recycling the orphan must not unmap the live remapping"
        );
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        // Same schedule → same counters, run twice from scratch.
        let run = || {
            let mut f = file(8, 1);
            let mut c = PageCache::new(3, 1, 8);
            for &p in &[0usize, 1, 2, 3, 0, 4, 1, 5, 6, 2, 0, 7, 3] {
                c.touch(p, &mut f).unwrap();
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flush_writes_dirty_frames_once() {
        let mut f = file(2, 2);
        let mut c = PageCache::new(2, 2, 2);
        c.with_page_mut(0, &mut f, |p| p[0] = 9.0).unwrap();
        c.flush(&mut f).unwrap();
        c.flush(&mut f).unwrap(); // clean now: no extra traffic
        assert_eq!(c.stats().write_backs, 1);
        // The file really holds the value.
        let mut buf = [0.0f32; 2];
        f.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 9.0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut f = file(10, 1);
        let mut c = PageCache::new(4, 1, 10);
        for p in 0..10 {
            c.touch(p, &mut f).unwrap();
        }
        assert_eq!(c.resident(), 4);
        assert_eq!(c.capacity(), 4);
    }
}
