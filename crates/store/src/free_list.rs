//! Free-page bookkeeping with copy-on-write discipline.
//!
//! Pages referenced by the **last committed header** are never handed out
//! for reuse until a later header flip stops referencing them — that is
//! the whole crash-safety argument: at any instant, every page the
//! on-disk header (transitively) points at still holds the bytes that
//! header committed. Releases therefore split two ways:
//!
//! - a page that was never committed (allocated since the last persist,
//!   then superseded) returns to the allocatable pool immediately;
//! - a committed page goes into **limbo**: not allocatable, not
//!   referenced. The next successful persist computes the set of pages
//!   the new header no longer references and reclaims limbo wholesale.
//!
//! Allocation is LIFO over the reusable set (hot pages stay hot in the
//! buffer pool), falling back to extending the file's page high-water.

use std::collections::HashSet;

pub(crate) struct FreePages {
    /// Immediately reusable page ids (never committed, or reclaimed by a
    /// completed flip). LIFO.
    free: Vec<u64>,
    /// Pages referenced by the last committed header. Membership decides
    /// whether a release is immediate or limbo.
    committed: HashSet<u64>,
    /// File extent in pages; allocation extends it when `free` is empty.
    high_water: u64,
}

impl FreePages {
    /// Fresh store: nothing committed, nothing allocated.
    pub fn new() -> FreePages {
        FreePages {
            free: Vec::new(),
            committed: HashSet::new(),
            high_water: 0,
        }
    }

    /// Rebuild after recovery: `committed` is every page the recovered
    /// header references; every other page under `high_water` is free.
    pub(crate) fn recovered(committed: HashSet<u64>, high_water: u64) -> FreePages {
        let free = (0..high_water).filter(|p| !committed.contains(p)).collect();
        FreePages {
            free,
            committed,
            high_water,
        }
    }

    pub(crate) fn high_water(&self) -> u64 {
        self.high_water
    }

    #[cfg(test)]
    pub fn is_committed(&self, page: u64) -> bool {
        self.committed.contains(&page)
    }

    /// Hand out one page: reuse first, extend the file otherwise.
    pub fn alloc(&mut self) -> u64 {
        if let Some(p) = self.free.pop() {
            return p;
        }
        let p = self.high_water;
        self.high_water += 1;
        p
    }

    /// Release `page`: immediate reuse if it was never committed, limbo
    /// (reclaimed at the next flip) otherwise.
    pub fn release(&mut self, page: u64) {
        if !self.committed.contains(&page) {
            self.free.push(page);
        }
    }

    /// A header flip committed `now_referenced`: pages the old header
    /// referenced but the new one does not (the limbo set) become
    /// allocatable, and the committed set advances.
    pub(crate) fn commit(&mut self, now_referenced: HashSet<u64>) {
        for page in &self.committed {
            if !now_referenced.contains(page) {
                self.free.push(*page);
            }
        }
        self.committed = now_referenced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_extends_then_reuses_lifo() {
        let mut fp = FreePages::new();
        assert_eq!(fp.alloc(), 0);
        assert_eq!(fp.alloc(), 1);
        assert_eq!(fp.alloc(), 2);
        fp.release(1); // never committed: immediately reusable
        fp.release(2);
        assert_eq!(fp.alloc(), 2, "LIFO reuse");
        assert_eq!(fp.alloc(), 1);
        assert_eq!(fp.alloc(), 3, "exhausted free list extends the file");
        assert_eq!(fp.high_water(), 4);
    }

    #[test]
    fn committed_pages_wait_for_the_flip() {
        let mut fp = FreePages::new();
        let a = fp.alloc();
        let b = fp.alloc();
        fp.commit(HashSet::from([a, b]));
        fp.release(a); // committed: limbo, NOT allocatable yet
        assert_eq!(fp.alloc(), 2, "limbo page must not be reused before a flip");
        // The next flip references only b and the new page: a is reclaimed.
        fp.commit(HashSet::from([b, 2]));
        assert_eq!(fp.alloc(), a);
        assert!(fp.is_committed(b));
        assert!(!fp.is_committed(a));
    }

    #[test]
    fn recovery_frees_every_unreferenced_page() {
        // Pages 1, 2, 4 are free; allocation never hands out 0 or 3.
        let mut fp = FreePages::recovered(HashSet::from([0, 3]), 5);
        assert_eq!(fp.high_water(), 5);
        let got: HashSet<u64> = (0..3).map(|_| fp.alloc()).collect();
        assert_eq!(got, HashSet::from([1, 2, 4]));
        assert_eq!(fp.alloc(), 5, "then the file extends");
    }
}
