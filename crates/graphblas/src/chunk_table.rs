//! A copy-on-write chunk table: the one structure through which a clone of
//! a store shares its contents with the original.
//!
//! A [`ChunkTable`] reads like a `Vec<Option<L>>` of optional leaves (the
//! entity blocks of a `DataBlock`, the pending-change chunks of a
//! [`DeltaMatrix`](crate::DeltaMatrix)), but it is stored as a radix tree of
//! `Arc` nodes with [`FANOUT`] children each, leaves at the bottom. It is
//! persistent by path copying (Driscoll, Sarnak, Sleator & Tarjan, "Making
//! Data Structures Persistent", JCSS 38(1), 1989):
//!
//! * a clone is one `Arc` bump of the root, however many leaves it holds;
//! * a read walks one node per level, `⌈log_FANOUT(len)⌉` levels (at least
//!   one);
//! * a write goes through [`Arc::make_mut`] level by level, so it copies the
//!   nodes on its root-to-leaf path that a clone still shares — one path
//!   after a clone, nothing once the path is private again.
//!
//! A subtree without leaves is not stored, so a fresh or cleared table
//! allocates nothing. Growing past `FANOUT^depth` leaves puts a new root
//! over the old one; shrinking drops the cut leaves and the levels no
//! longer needed.

use std::sync::Arc;

/// Children per node, as a shift.
const BITS: u32 = 5;
/// Children per node.
pub const FANOUT: usize = 1 << BITS;
const MASK: usize = FANOUT - 1;

/// One tree node: inner nodes above, leaves below the bottom level.
enum Node<L> {
    Inner([Option<Arc<Node<L>>>; FANOUT]),
    Leaves([Option<Arc<L>>; FANOUT]),
}

// Copying a node copies `FANOUT` pointers, never a leaf: no `L: Clone`.
impl<L> Clone for Node<L> {
    fn clone(&self) -> Self {
        match self {
            Node::Inner(children) => Node::Inner(children.clone()),
            Node::Leaves(leaves) => Node::Leaves(leaves.clone()),
        }
    }
}

impl<L> Node<L> {
    /// An empty node whose children each cover `1 << shift` leaves.
    fn empty(shift: u32) -> Arc<Self> {
        Arc::new(match shift {
            0 => Node::Leaves(std::array::from_fn(|_| None)),
            _ => Node::Inner(std::array::from_fn(|_| None)),
        })
    }
}

/// A persistent, copy-on-write table of `len` optional leaves of type `L`
/// (see the module docs).
pub struct ChunkTable<L> {
    root: Option<Arc<Node<L>>>,
    /// Tree levels: the root's children each cover `FANOUT^(depth - 1)`
    /// leaves. At least one.
    depth: u32,
    len: usize,
}

// A clone shares the root: one `Arc` bump, no `L: Clone`.
impl<L> Clone for ChunkTable<L> {
    fn clone(&self) -> Self {
        ChunkTable { root: self.root.clone(), depth: self.depth, len: self.len }
    }
}

// An empty table of no slots, with no `L: Default` bound.
impl<L> Default for ChunkTable<L> {
    fn default() -> Self {
        ChunkTable::new(0)
    }
}

impl<L: std::fmt::Debug> std::fmt::Debug for ChunkTable<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Levels needed to hold `len` leaves.
fn depth_for(len: usize) -> u32 {
    let mut depth = 1;
    while capacity(depth) < len {
        depth += 1;
    }
    depth
}

/// Leaves a tree of `depth` levels holds.
fn capacity(depth: u32) -> usize {
    1usize.checked_shl(depth * BITS).unwrap_or(usize::MAX)
}

impl<L> ChunkTable<L> {
    /// A table of `len` empty slots. Allocates nothing.
    pub fn new(len: usize) -> Self {
        ChunkTable { root: None, depth: depth_for(len), len }
    }

    /// Number of slots, empty or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf in slot `i`, if any.
    pub fn get(&self, i: usize) -> Option<&L> {
        self.leaf(i).map(|leaf| &**leaf)
    }

    /// The `Arc` of the leaf in slot `i`, if any.
    pub(crate) fn leaf(&self, i: usize) -> Option<&Arc<L>> {
        if i >= self.len {
            return None;
        }
        let mut node = self.root.as_deref()?;
        let mut shift = (self.depth - 1) * BITS;
        loop {
            let slot = (i >> shift) & MASK;
            match node {
                Node::Inner(children) => node = children[slot].as_deref()?,
                Node::Leaves(leaves) => return leaves[slot].as_ref(),
            }
            shift -= BITS;
        }
    }

    /// Every leaf with its slot, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &L)> + '_ {
        self.leaves().map(|(i, leaf)| (i, &**leaf))
    }

    /// Empty every slot; the length stays. O(1): the old tree is released
    /// (or left to the clones that share it).
    pub fn clear(&mut self) {
        self.root = None;
    }

    /// Whether the two tables share their root: one is a clone of the other
    /// that neither has written to since.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// How many of this table's leaves `other` does not hold at the same
    /// slot by pointer (test diagnostic): zero right after a clone, one per
    /// leaf written since.
    pub fn leaves_not_shared_with(&self, other: &Self) -> usize {
        let shared = |i: usize, mine: &Arc<L>| other.leaf(i).is_some_and(|t| Arc::ptr_eq(mine, t));
        self.leaves().filter(|&(i, mine)| !shared(i, mine)).count()
    }

    /// Every leaf's `Arc` with its slot, in slot order: one walk per slot,
    /// cheap beside what a caller does with a leaf of many entries.
    pub fn leaves(&self) -> impl Iterator<Item = (usize, &Arc<L>)> + '_ {
        (0..self.len).filter_map(|i| Some((i, self.leaf(i)?)))
    }
}

impl<L: Clone> ChunkTable<L> {
    /// Slot `i` for writing: every node on its path made private to this
    /// table (created if absent, copied if a clone shares it).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    fn slot_mut(&mut self, i: usize) -> &mut Option<Arc<L>> {
        assert!(i < self.len, "slot {i} out of range for a table of {}", self.len);
        let mut shift = (self.depth - 1) * BITS;
        let mut node = Arc::make_mut(self.root.get_or_insert_with(|| Node::empty(shift)));
        loop {
            let slot = (i >> shift) & MASK;
            match node {
                Node::Inner(children) => {
                    shift -= BITS;
                    node = Arc::make_mut(children[slot].get_or_insert_with(|| Node::empty(shift)));
                }
                Node::Leaves(leaves) => return &mut leaves[slot],
            }
        }
    }

    /// The leaf in slot `i` for writing, copied first (with its path) if a
    /// clone shares it. A miss copies nothing.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut L> {
        self.leaf(i)?;
        self.slot_mut(i).as_mut().map(Arc::make_mut)
    }

    /// The leaf in slot `i` for writing, created by `make` if the slot is
    /// empty.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get_or_insert_with(&mut self, i: usize, make: impl FnOnce() -> L) -> &mut L {
        Arc::make_mut(self.slot_mut(i).get_or_insert_with(|| Arc::new(make())))
    }

    /// Put `leaf` in slot `i`, or empty the slot, copying only the slot's
    /// path: the old leaf is dropped, or left to the clones that share it.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, leaf: Option<L>) {
        *self.slot_mut(i) = leaf.map(Arc::new);
    }

    /// Empty slot `i`, returning its leaf (a copy if a clone still shares
    /// it). A miss copies nothing.
    pub fn remove(&mut self, i: usize) -> Option<L> {
        self.leaf(i)?;
        self.slot_mut(i).take().map(Arc::unwrap_or_clone)
    }

    /// Set the number of slots. Growing adds empty slots (and roots over
    /// the old tree as it needs); shrinking drops every leaf at or past
    /// `len`.
    pub fn resize(&mut self, len: usize) {
        while capacity(self.depth) < len {
            // The old tree becomes the first child of a new root.
            if let Some(old) = self.root.take() {
                let mut children: [Option<Arc<Node<L>>>; FANOUT] = std::array::from_fn(|_| None);
                children[0] = Some(old);
                self.root = Some(Arc::new(Node::Inner(children)));
            }
            self.depth += 1;
        }
        if len < self.len {
            truncate(&mut self.root, (self.depth - 1) * BITS, len);
            // Every leaf left sits under the root's first child.
            while self.depth > 1 && capacity(self.depth - 1) >= len {
                self.root = match self.root.take().as_deref() {
                    Some(Node::Inner(children)) => children[0].clone(),
                    _ => None,
                };
                self.depth -= 1;
            }
        }
        self.len = len;
    }
}

/// Drop every leaf of the subtree in `slot` at or past its `keep`-th; the
/// subtree's children each cover `1 << shift` leaves. A subtree left with
/// no leaf to keep is dropped whole.
fn truncate<L>(slot: &mut Option<Arc<Node<L>>>, shift: u32, keep: usize) {
    if keep == 0 {
        *slot = None;
        return;
    }
    let Some(node) = slot else { return };
    if keep >= FANOUT << shift {
        return;
    }
    let (whole, rest) = (keep >> shift, keep & ((1 << shift) - 1));
    match Arc::make_mut(node) {
        Node::Inner(children) => {
            truncate(&mut children[whole], shift - BITS, rest);
            let cut = whole + usize::from(rest > 0);
            children[cut..].fill(None);
        }
        Node::Leaves(leaves) => leaves[keep..].fill(None),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Nodes (inner and leaf) under `mine` that `theirs` does not share at
    /// the same position: what a write after a clone copied.
    pub(crate) fn nodes_copied<L>(mine: &ChunkTable<L>, theirs: &ChunkTable<L>) -> usize {
        fn walk<L>(a: Option<&Arc<Node<L>>>, b: Option<&Arc<Node<L>>>) -> usize {
            let Some(a) = a else { return 0 };
            if b.is_some_and(|b| Arc::ptr_eq(a, b)) {
                return 0;
            }
            let b = b.map(|b| &**b);
            1 + match &**a {
                Node::Inner(children) => (0..FANOUT)
                    .map(|k| {
                        let other = match b {
                            Some(Node::Inner(c)) => c[k].as_ref(),
                            _ => None,
                        };
                        walk(children[k].as_ref(), other)
                    })
                    .sum(),
                Node::Leaves(leaves) => (0..FANOUT)
                    .filter(|&k| {
                        let other = match b {
                            Some(Node::Leaves(l)) => l[k].as_ref(),
                            _ => None,
                        };
                        leaves[k]
                            .as_ref()
                            .is_some_and(|l| !other.is_some_and(|o| Arc::ptr_eq(l, o)))
                    })
                    .count(),
            }
        }
        assert_eq!(mine.depth, theirs.depth);
        walk(mine.root.as_ref(), theirs.root.as_ref())
    }

    #[test]
    fn reads_and_writes_span_three_levels() {
        let n = FANOUT * FANOUT * 3;
        let mut t = ChunkTable::new(n);
        assert_eq!(t.depth, 3);
        assert!(t.root.is_none(), "an empty table allocates nothing");
        for i in (0..n).step_by(7) {
            *t.get_or_insert_with(i, || 0) += i;
        }
        for i in 0..n {
            assert_eq!(t.get(i).copied(), (i % 7 == 0).then_some(i), "slot {i}");
        }
        assert_eq!(t.get(n), None);
        let slots: Vec<usize> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(slots, (0..n).step_by(7).collect::<Vec<_>>());
    }

    #[test]
    fn a_clone_shares_the_root_and_a_write_copies_one_path() {
        let n = FANOUT * FANOUT * 2;
        let mut t = ChunkTable::new(n);
        for i in 0..n {
            t.get_or_insert_with(i, || i);
        }
        let snap = t.clone();
        assert!(t.ptr_eq(&snap));
        assert_eq!(t.leaves_not_shared_with(&snap), 0);
        assert_eq!(nodes_copied(&t, &snap), 0);

        *t.get_mut(FANOUT + 3).unwrap() = 0;
        assert!(!t.ptr_eq(&snap));
        // Root, one inner node, the leaf-level node and the leaf.
        assert_eq!(nodes_copied(&t, &snap), t.depth as usize + 1);
        assert_eq!(t.leaves_not_shared_with(&snap), 1);
        // The same path again is already private; a second path shares
        // the root copy.
        *t.get_mut(FANOUT + 4).unwrap() = 0;
        assert_eq!(nodes_copied(&t, &snap), t.depth as usize + 2);
        *t.get_mut(n - 1).unwrap() = 0;
        assert_eq!(nodes_copied(&t, &snap), 2 * t.depth as usize + 2);
        assert_eq!(t.leaves_not_shared_with(&snap), 3);
        // Misses copy nothing.
        let before = t.clone();
        let mut sparse = ChunkTable::<usize>::new(n);
        assert!(sparse.get_mut(5).is_none() && sparse.remove(5).is_none());
        assert!(sparse.root.is_none());
        assert!(t.get_mut(n).is_none() && t.remove(n + 1).is_none());
        assert!(t.ptr_eq(&before));

        assert_eq!(snap.get(FANOUT + 3), Some(&(FANOUT + 3)));
        assert_eq!(snap.get(n - 1), Some(&(n - 1)));
        assert_eq!(t.get(FANOUT + 3), Some(&0));
    }

    #[test]
    fn growing_keeps_every_leaf_and_adds_a_root() {
        let mut t = ChunkTable::new(FANOUT + 1);
        assert_eq!(t.depth, 2);
        for i in 0..FANOUT + 1 {
            t.get_or_insert_with(i, || i);
        }
        let snap = t.clone();
        t.resize(FANOUT * FANOUT * FANOUT + 1);
        assert_eq!(t.depth, 4);
        assert_eq!(t.leaves_not_shared_with(&snap), 0, "growing copies no leaf");
        for i in 0..FANOUT + 1 {
            assert_eq!(t.get(i), Some(&i), "slot {i} lost in growth");
        }
        t.get_or_insert_with(FANOUT * FANOUT * FANOUT, || 7);
        assert_eq!(t.leaves_not_shared_with(&snap), 1);
        assert_eq!(snap.get(FANOUT), Some(&FANOUT));
    }

    #[test]
    fn shrinking_drops_the_cut_leaves_and_levels() {
        let n = FANOUT * FANOUT + 5;
        let mut t = ChunkTable::new(n);
        for i in 0..n {
            t.get_or_insert_with(i, || i);
        }
        let snap = t.clone();
        t.resize(FANOUT + 2);
        assert_eq!(t.depth, 2);
        assert_eq!(
            t.iter().map(|(i, _)| i).collect::<Vec<_>>(),
            (0..FANOUT + 2).collect::<Vec<_>>()
        );
        t.resize(n);
        assert_eq!(t.get(FANOUT + 2), None, "a cut leaf came back");
        assert_eq!(t.get(n - 1), None);
        assert_eq!(snap.iter().count(), n);
        t.resize(0);
        assert_eq!((t.len(), t.depth, t.iter().count()), (0, 1, 0));
    }

    #[test]
    fn clear_keeps_the_length() {
        let mut t = ChunkTable::new(100);
        t.get_or_insert_with(99, || 'x');
        let snap = t.clone();
        t.clear();
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(99), None);
        assert_eq!(snap.get(99), Some(&'x'));
        assert_eq!(snap.leaves_not_shared_with(&t), 1);
    }

    #[test]
    fn every_leaf_is_released_with_its_last_holder() {
        let tracker = Arc::new(());
        let holders = || Arc::strong_count(&tracker) - 1;
        let n = FANOUT * FANOUT * 2;
        let mut t = ChunkTable::new(n);
        for i in (0..n).step_by(5) {
            t.get_or_insert_with(i, || Arc::clone(&tracker));
        }
        let kept = (0..FANOUT * FANOUT).step_by(5).count();
        t.resize(FANOUT * FANOUT);
        assert_eq!(holders(), kept, "shrinking must free the cut leaves");

        let snap = t.clone();
        assert_eq!(holders(), kept, "a clone copies no leaf");
        t.get_mut(5 * FANOUT).unwrap();
        assert_eq!(holders(), kept + 1, "a write copies its one leaf");
        assert!(t.remove(0).is_some());
        assert_eq!(holders(), kept + 1, "a removed copy is the caller's to drop");
        t.clear();
        assert_eq!(holders(), kept, "clearing frees the leaves no clone shares");
        drop(snap);
        assert_eq!(holders(), 0, "the last holder's drop frees every leaf");
    }
}
