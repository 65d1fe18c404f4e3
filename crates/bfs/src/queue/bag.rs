//! The Leiserson–Schardl *bag*: "arrays of balanced trees of size 2^k.
//! For each k, the bag contains at most one tree of that size. Such an
//! organization allows to easily merge two bags together by using an
//! algorithm similar to carry-add for integer addition."
//!
//! A *pennant* of rank `r` is a tree of `2^r` nodes in which the root has a
//! single child that is the root of a complete binary tree. Two pennants of
//! equal rank merge in O(1) pointer operations. As in the original code,
//! each node stores up to `grain` elements ("the node of the balanced tree
//! can store more than a single element") to amortize pointer overhead.

/// A pennant node: up to `grain` elements plus subtree links.
struct Pennant<T> {
    data: Vec<T>,
    left: Option<Box<Pennant<T>>>,
    right: Option<Box<Pennant<T>>>,
}

impl<T> Pennant<T> {
    fn leaf(data: Vec<T>) -> Box<Self> {
        Box::new(Pennant {
            data,
            left: None,
            right: None,
        })
    }

    /// Merge two pennants of the same rank into one of rank + 1 (O(1)).
    fn union(mut a: Box<Self>, mut b: Box<Self>) -> Box<Self> {
        b.right = a.left.take();
        a.left = Some(b);
        a
    }

    fn for_each_node<'a>(&'a self, f: &mut impl FnMut(&'a [T])) {
        f(&self.data);
        if let Some(l) = &self.left {
            l.for_each_node(f);
        }
        if let Some(r) = &self.right {
            r.for_each_node(f);
        }
    }
}

/// An unordered multiset with O(1) amortized insert, O(log n) union, and
/// grain-sized leaves for parallel traversal.
pub struct Bag<T> {
    /// `spine[r]` holds the (at most one) pennant of rank `r`.
    spine: Vec<Option<Box<Pennant<T>>>>,
    /// Partially filled rank-0 node being assembled.
    hopper: Vec<T>,
    grain: usize,
    len: usize,
}

impl<T> Bag<T> {
    /// An empty bag whose nodes hold up to `grain` elements.
    pub fn new(grain: usize) -> Self {
        assert!(grain >= 1, "grain must be at least 1");
        Bag {
            spine: Vec::new(),
            hopper: Vec::new(),
            grain,
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The grain (max elements per node).
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Insert one element (amortized O(1)).
    pub fn insert(&mut self, v: T) {
        self.hopper.push(v);
        self.len += 1;
        if self.hopper.len() == self.grain {
            let full = std::mem::take(&mut self.hopper);
            self.insert_pennant(Pennant::leaf(full), 0);
        }
    }

    fn insert_pennant(&mut self, mut p: Box<Pennant<T>>, mut rank: usize) {
        loop {
            if self.spine.len() <= rank {
                self.spine.resize_with(rank + 1, || None);
            }
            match self.spine[rank].take() {
                None => {
                    self.spine[rank] = Some(p);
                    return;
                }
                Some(existing) => {
                    p = Pennant::union(existing, p);
                    rank += 1;
                }
            }
        }
    }

    /// Merge `other` into `self` — the carry-add over ranks, plus the
    /// (≤ grain) elements of the other bag's hopper.
    pub fn union(&mut self, mut other: Bag<T>) {
        assert_eq!(self.grain, other.grain, "bags must share a grain size");
        self.len += other.len;
        // Carry-add over the spines. Taking each of other's pennants and
        // inserting it at its rank performs exactly the binary addition
        // (insert_pennant carries as far as needed).
        for rank in 0..other.spine.len() {
            if let Some(p) = other.spine[rank].take() {
                self.insert_pennant(p, rank);
            }
        }
        // other's hopper: fold its elements into ours (≤ grain of them).
        self.len -= other.hopper.len(); // insert() recounts them
        for v in other.hopper.drain(..) {
            self.insert(v);
        }
    }

    /// Visit every node's element slice (the unit of parallel traversal).
    pub(crate) fn for_each_node<'a>(&'a self, mut f: impl FnMut(&'a [T])) {
        if !self.hopper.is_empty() {
            f(&self.hopper);
        }
        for p in self.spine.iter().flatten() {
            p.for_each_node(&mut f);
        }
    }

    /// Collect the node slices (for handing to a parallel loop).
    pub fn nodes(&self) -> Vec<&[T]> {
        let mut out = Vec::with_capacity(self.len / self.grain + 2);
        self.for_each_node(|s| out.push(s));
        out
    }
}

impl<T: Clone> Bag<T> {
    /// All elements, in traversal order (tests / draining).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_node(|s| out.extend_from_slice(s));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiset(v: &mut Vec<u32>) -> &mut Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_and_collect() {
        let mut b = Bag::new(4);
        for i in 0..23u32 {
            b.insert(i);
        }
        assert_eq!(b.len(), 23);
        let mut got = b.to_vec();
        assert_eq!(multiset(&mut got), &(0..23).collect::<Vec<_>>());
    }

    #[test]
    fn spine_is_binary_representation() {
        // 23 elements, grain 1: hopper empty, pennants at ranks of the
        // binary representation of 23 = 10111.
        let mut b = Bag::new(1);
        for i in 0..23u32 {
            b.insert(i);
        }
        let ranks: Vec<usize> = b
            .spine
            .iter()
            .enumerate()
            .filter_map(|(r, p)| p.as_ref().map(|_| r))
            .collect();
        assert_eq!(ranks, vec![0, 1, 2, 4]);
    }

    #[test]
    fn union_is_multiset_union() {
        let mut a = Bag::new(3);
        let mut b = Bag::new(3);
        for i in 0..17u32 {
            a.insert(i);
        }
        for i in 100..131u32 {
            b.insert(i);
        }
        a.union(b);
        assert_eq!(a.len(), 17 + 31);
        let mut got = a.to_vec();
        let mut want: Vec<u32> = (0..17).chain(100..131).collect();
        assert_eq!(multiset(&mut got), multiset(&mut want));
    }

    #[test]
    fn union_with_empty() {
        let mut a: Bag<u32> = Bag::new(2);
        a.insert(1);
        a.union(Bag::new(2));
        assert_eq!(a.len(), 1);
        let mut e: Bag<u32> = Bag::new(2);
        e.union(a);
        assert_eq!(e.len(), 1);
        assert_eq!(e.to_vec(), vec![1]);
    }

    #[test]
    fn many_unions_like_a_level_merge() {
        // Simulate merging 8 per-thread bags.
        let mut total = Bag::new(5);
        let mut want = Vec::new();
        for t in 0..8u32 {
            let mut local = Bag::new(5);
            for i in 0..(t * 7 + 3) {
                local.insert(t * 1000 + i);
                want.push(t * 1000 + i);
            }
            total.union(local);
        }
        let mut got = total.to_vec();
        assert_eq!(multiset(&mut got), multiset(&mut want));
    }

    #[test]
    fn nodes_respect_grain() {
        let mut b = Bag::new(8);
        for i in 0..1000u32 {
            b.insert(i);
        }
        let nodes = b.nodes();
        assert!(nodes.iter().all(|n| n.len() <= 8 && !n.is_empty()));
        let total: usize = nodes.iter().map(|n| n.len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn grain_one_works() {
        let mut b = Bag::new(1);
        for i in 0..5u32 {
            b.insert(i);
        }
        let mut got = b.to_vec();
        assert_eq!(multiset(&mut got), &vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "grain")]
    fn zero_grain_rejected() {
        let _: Bag<u32> = Bag::new(0);
    }
}
