//! The buffer pool: a bounded set of in-memory page frames with
//! clock (second-chance) eviction.
//!
//! The pool is a pure in-memory structure — it never touches the file.
//! The store fetches pages through it (a resident page costs one map
//! lookup, no IO) and stages writes in it (dirty frames are flushed by
//! `persist`, or handed back to the store for early write-back when the
//! clock evicts them). Eviction is the classic second chance: each frame
//! has a reference bit set on every access; the clock hand sweeps,
//! clearing set bits and evicting the first frame whose bit is already
//! clear, so recently touched pages survive one full revolution.

use std::collections::HashMap;

/// One resident page.
pub(crate) struct Frame {
    pub page: u64,
    pub data: Vec<u8>,
    pub dirty: bool,
    referenced: bool,
}

/// Bounded frame table + page map + clock hand.
pub(crate) struct BufferPool {
    cap: usize,
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    hand: usize,
    evictions: u64,
}

impl BufferPool {
    pub fn new(cap: usize) -> BufferPool {
        let cap = cap.max(1);
        BufferPool {
            cap,
            frames: Vec::with_capacity(cap.min(1024)),
            map: HashMap::with_capacity(cap.min(1024)),
            hand: 0,
            evictions: 0,
        }
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Resident page lookup; a hit grants the frame its second chance.
    pub fn get(&mut self, page: u64) -> Option<&mut Frame> {
        let idx = *self.map.get(&page)?;
        let frame = &mut self.frames[idx];
        frame.referenced = true;
        Some(frame)
    }

    /// Insert `page` with `data`, evicting one victim via the clock when
    /// full. The victim is *returned*, not dropped — the store must write
    /// it back if dirty before the bytes are lost.
    #[must_use]
    pub fn insert(&mut self, page: u64, data: Vec<u8>, dirty: bool) -> Option<Frame> {
        if let Some(frame) = self.get(page) {
            frame.data = data;
            frame.dirty |= dirty;
            return None;
        }
        let frame = Frame {
            page,
            data,
            dirty,
            referenced: true,
        };
        if self.frames.len() < self.cap {
            self.map.insert(page, self.frames.len());
            self.frames.push(frame);
            return None;
        }
        let victim_idx = self.run_clock();
        let victim = std::mem::replace(&mut self.frames[victim_idx], frame);
        self.map.remove(&victim.page);
        self.map.insert(page, victim_idx);
        self.evictions += 1;
        Some(victim)
    }

    /// Sweep the clock hand: clear set reference bits, stop at the first
    /// clear one. Bounded at two revolutions (after one full sweep every
    /// bit is clear, so the second cannot miss).
    fn run_clock(&mut self) -> usize {
        for _ in 0..self.frames.len() * 2 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[idx];
            if frame.referenced {
                frame.referenced = false;
            } else {
                return idx;
            }
        }
        unreachable!("second clock revolution always finds a clear bit");
    }

    /// Drop `page` from the pool (freed or invalidated), returning its
    /// frame so a dirty staging can still be inspected by the caller.
    pub fn remove(&mut self, page: u64) -> Option<Frame> {
        let idx = self.map.remove(&page)?;
        let last = self.frames.len() - 1;
        self.frames.swap(idx, last);
        if idx != last {
            self.map.insert(self.frames[idx].page, idx);
        }
        if self.hand > last {
            self.hand = 0;
        }
        Some(self.frames.pop().unwrap())
    }

    /// Page ids of every dirty resident frame (persist flushes these).
    pub(crate) fn dirty_pages(&self) -> Vec<u64> {
        self.frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.page)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(cap: usize, pages: &[u64]) -> BufferPool {
        let mut pool = BufferPool::new(cap);
        for &p in pages {
            assert!(pool.insert(p, vec![p as u8], false).is_none());
        }
        pool
    }

    #[test]
    fn hits_are_free_and_refresh_the_reference_bit() {
        let mut pool = pool_with(2, &[1, 2]);
        assert_eq!(pool.get(1).unwrap().data, vec![1]);
        assert!(pool.get(3).is_none());
        // All bits set: the sweep clears both and evicts the first frame.
        let victim = pool.insert(3, vec![3], false).expect("pool is full");
        assert_eq!(victim.page, 1);
        assert_eq!(pool.evictions(), 1);
        // Now 3 holds a fresh reference bit and 2's was spent by that
        // sweep: the next insert must evict 2, giving 3 its second chance.
        let victim = pool.insert(4, vec![4], false).expect("full again");
        assert_eq!(victim.page, 2);
        assert!(pool.get(3).is_some() && pool.get(4).is_some());
    }

    #[test]
    fn second_chance_survives_one_revolution() {
        let mut pool = pool_with(3, &[10, 11, 12]);
        pool.get(10);
        pool.get(11);
        pool.get(12);
        // All referenced: the clock clears 10 and 11, evicts... sweep
        // clears every bit it passes, so the first insert evicts the
        // frame the hand reaches after all bits clear — deterministic.
        let v1 = pool.insert(13, vec![13], false).unwrap().page;
        let v2 = pool.insert(14, vec![14], false).unwrap().page;
        assert_ne!(v1, v2);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn dirty_victims_are_returned_not_lost() {
        let mut pool = BufferPool::new(1);
        assert!(pool.insert(5, vec![5, 5], true).is_none());
        let victim = pool.insert(6, vec![6], false).expect("full");
        assert_eq!(victim.page, 5);
        assert!(victim.dirty, "dirty staging must reach the caller");
        assert_eq!(victim.data, vec![5, 5]);
    }

    #[test]
    fn remove_keeps_the_map_consistent() {
        let mut pool = pool_with(4, &[1, 2, 3, 4]);
        assert_eq!(pool.remove(2).unwrap().page, 2);
        assert!(pool.remove(2).is_none());
        for p in [1, 3, 4] {
            assert_eq!(pool.get(p).unwrap().page, p);
        }
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn dirty_pages_lists_exactly_the_dirty_frames() {
        let mut pool = BufferPool::new(4);
        let _ = pool.insert(1, vec![1], true);
        let _ = pool.insert(2, vec![2], false);
        let _ = pool.insert(3, vec![3], true);
        let mut dirty = pool.dirty_pages();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
    }

    #[test]
    fn reinsert_merges_dirtiness_instead_of_duplicating() {
        let mut pool = BufferPool::new(2);
        let _ = pool.insert(9, vec![1], true);
        assert!(pool.insert(9, vec![2], false).is_none());
        assert_eq!(pool.len(), 1);
        let f = pool.get(9).unwrap();
        assert_eq!(f.data, vec![2]);
        assert!(f.dirty, "a staged write must stay dirty across refresh");
    }
}
