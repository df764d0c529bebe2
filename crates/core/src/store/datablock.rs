//! RedisGraph's DataBlock, the blocked entity store, as its two halves.
//!
//! An [`IdAlloc`] hands out ids and counts the live ones; a freed id is
//! reused before any new one, last freed first. [`Slots`] holds values at
//! ids in fixed-size blocks, and a block exists only while one of its slots
//! holds a value. A graph keeps one of each for its nodes (an attribute set
//! in every live node's slot, 16 bytes), its edges and its parallel-edge
//! lists. Its edge slots hold only the non-empty attribute sets, so an edge
//! without properties costs no slot: it is its relation cells alone.
//! RedisGraph's DataBlock keeps a slot for every edge; the paper's datasets
//! have no edge properties. Ids are stable for the lifetime of what they
//! name: a node id is its matrix row and column, an edge id the value of
//! the relation cells that hold the edge.
//!
//! Blocks, and the 64-id chunks of the free-id stack, are the leaves of
//! copy-on-write [`ChunkTable`]s, so a clone is a pointer bump per table
//! however many entities it holds — that is what makes a whole-graph
//! snapshot cheap enough to take per read query. A mutation beside a clone
//! copies the one block it touches and that block's path through the table;
//! freeing an id copies the stack's top chunk, and reusing one copies
//! nothing. With no clone sharing them, mutation is in place.

use graphblas::ChunkTable;

/// Slots per block, and ids per free-stack chunk: the leaf a write after a
/// snapshot copies. A clone no longer pays per block, so the size prices
/// only that write. On rgbench's `mixed_rw_write` (2-core x86 host, medians
/// of six runs) 64-slot blocks served 11 960 writes/s at p50 0.070 ms,
/// 128-slot blocks 10 680 at 0.079 ms; 32-slot blocks (three runs) were no
/// faster and used 0.8 MB more.
const BLOCK_CAP: usize = 64;

/// One block of slots, allocated at full size with its table leaf.
type Block<T> = [Option<T>; BLOCK_CAP];

/// An id allocator: a high-water mark, a stack of freed ids and a count of
/// live ones. An id is reused last-freed first.
#[derive(Debug, Clone, Default)]
pub struct IdAlloc {
    /// The freed ids, bottom first, in chunks of `BLOCK_CAP`: the top is
    /// entry `freed - 1`. A popped entry stays until a push overwrites it.
    free: ChunkTable<[u64; BLOCK_CAP]>,
    freed: usize,
    live: usize,
    high_watermark: u64,
}

impl IdAlloc {
    /// Number of live ids.
    pub fn live(&self) -> usize {
        self.live
    }

    /// A new live id: the most recently freed one, or the high-water mark.
    pub fn alloc(&mut self) -> u64 {
        self.live += 1;
        let Some(top) = self.freed.checked_sub(1) else {
            self.high_watermark += 1;
            return self.high_watermark - 1;
        };
        self.freed = top;
        self.free.get(top / BLOCK_CAP).expect("a pushed chunk")[top % BLOCK_CAP]
    }

    /// Free a live id for reuse.
    pub fn free(&mut self, id: u64) {
        let (chunk, i) = (self.freed / BLOCK_CAP, self.freed % BLOCK_CAP);
        if self.free.len() <= chunk {
            self.free.resize(chunk + 1);
        }
        self.free.get_or_insert_with(chunk, || [0; BLOCK_CAP])[i] = id;
        self.freed += 1;
        self.live -= 1;
    }

    /// The free-id stack's chunks (test diagnostic): a clone shares them by
    /// pointer until either side frees an id.
    #[cfg(test)]
    pub(crate) fn free_chunks(&self) -> &ChunkTable<[u64; BLOCK_CAP]> {
        &self.free
    }
}

/// Values at ids, in blocks of `BLOCK_CAP` optional slots. A block exists
/// only while one of its slots holds a value: a missing block reads as
/// empty slots and costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Slots<T> {
    blocks: ChunkTable<Block<T>>,
}

impl<T> Slots<T> {
    /// The value at `id`, if any.
    pub fn get(&self, id: u64) -> Option<&T> {
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        self.blocks.get(b)?[i].as_ref()
    }

    /// Bytes of the allocated blocks: every slot of each, full or empty, at
    /// `size_of::<Option<T>>()`. The table's interior nodes and whatever the
    /// values own on the heap are not counted.
    pub fn block_bytes(&self) -> usize {
        self.blocks.iter().count() * std::mem::size_of::<Block<T>>()
    }

    /// Iterate `(id, &value)` over the full slots in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.blocks.iter().flat_map(|(b, block)| {
            block.iter().enumerate().filter_map(move |(i, slot)| {
                slot.as_ref().map(|item| ((b * BLOCK_CAP + i) as u64, item))
            })
        })
    }

    /// The block table (test diagnostic): a clone shares it by pointer
    /// until either side writes.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> &ChunkTable<Block<T>> {
        &self.blocks
    }
}

impl<T: Clone> Slots<T> {
    /// The value at `id` for writing. A miss copies nothing.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        // Probe through the shared reference first so a miss never pays the
        // copy-on-write block clone.
        self.get(id)?;
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        self.blocks.get_mut(b)?[i].as_mut()
    }

    /// Put `item` at `id`, creating its block if it has none.
    pub fn put(&mut self, id: u64, item: T) {
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        if self.blocks.len() <= b {
            self.blocks.resize(b + 1);
        }
        self.blocks.get_or_insert_with(b, || std::array::from_fn(|_| None))[i] = Some(item);
    }

    /// Empty the slot at `id`, returning what it held. Emptying a block's
    /// last full slot drops the block; a slot that holds nothing allocates
    /// and copies nothing.
    pub fn take(&mut self, id: u64) -> Option<T> {
        self.get(id)?;
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        let block = self.blocks.get_mut(b).expect("a full slot's block");
        let item = block[i].take();
        if block.iter().all(Option::is_none) {
            self.blocks.set(b, None);
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An allocator and the slots of its live ids, as a graph keeps them
    /// for its nodes: every live id's slot full.
    #[derive(Clone, Default)]
    struct Store<T> {
        ids: IdAlloc,
        slots: Slots<T>,
    }

    impl<T: Clone> Store<T> {
        fn insert(&mut self, item: T) -> u64 {
            let id = self.ids.alloc();
            self.slots.put(id, item);
            id
        }

        fn remove(&mut self, id: u64) -> Option<T> {
            let item = self.slots.take(id)?;
            self.ids.free(id);
            Some(item)
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut db = Store::default();
        let a = db.insert("a");
        let b = db.insert("b");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(db.slots.get(a), Some(&"a"));
        assert_eq!(db.slots.get(b), Some(&"b"));
        assert_eq!(db.ids.live(), 2);
        assert_eq!(db.ids.high_watermark, 2);
    }

    #[test]
    fn remove_recycles_ids() {
        let mut db = Store::default();
        let a = db.insert(1);
        let _b = db.insert(2);
        assert_eq!(db.remove(a), Some(1));
        assert_eq!(db.ids.live(), 1);
        assert!(db.slots.get(a).is_none());
        let c = db.insert(3);
        assert_eq!(c, a, "freed id should be recycled");
        assert_eq!(db.ids.high_watermark, 2);
        assert_eq!(db.remove(99), None);
        // Reuse is last freed first, across chunks of the free stack.
        let mut ids = IdAlloc::default();
        let n = 3 * BLOCK_CAP as u64 + 5;
        (0..n).for_each(|_| _ = ids.alloc());
        let freed: Vec<u64> = (0..n).map(|i| i * 7 % n).collect();
        freed.iter().for_each(|&id| ids.free(id));
        assert_eq!(ids.live(), 0);
        let reused: Vec<u64> = (0..n).map(|_| ids.alloc()).collect();
        assert!(reused.iter().eq(freed.iter().rev()));
        assert_eq!((ids.alloc(), ids.live()), (n, n as usize + 1));
    }

    #[test]
    fn iteration_skips_holes() {
        let mut db = Store::default();
        for i in 0..10 {
            db.insert(i);
        }
        db.remove(3);
        db.remove(7);
        let ids: Vec<u64> = db.slots.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut db = Store::default();
        let id = db.insert(vec![1, 2]);
        db.slots.get_mut(id).unwrap().push(3);
        assert_eq!(db.slots.get(id).unwrap(), &vec![1, 2, 3]);
    }

    #[test]
    fn grows_past_one_block() {
        let mut db = Store::default();
        let n = BLOCK_CAP + 10;
        for i in 0..n {
            assert_eq!(db.insert(i) as usize, i);
        }
        assert_eq!(db.ids.live(), n);
        assert_eq!(db.slots.get((BLOCK_CAP + 5) as u64), Some(&(BLOCK_CAP + 5)));
    }

    #[test]
    fn clone_is_a_snapshot_with_shared_blocks() {
        let mut db = Store::default();
        for i in 0..10 {
            db.insert(i);
        }
        db.remove(5);
        let snap = db.clone();
        assert!(
            db.slots.blocks.ptr_eq(&snap.slots.blocks) && db.ids.free.ptr_eq(&snap.ids.free),
            "a clone copies nothing"
        );
        *db.slots.get_mut(3).unwrap() = 99;
        db.remove(7);
        db.insert(42);
        assert_eq!(snap.slots.get(3), Some(&3), "snapshot must not see later writes");
        assert_eq!(snap.slots.get(7), Some(&7));
        assert_eq!(snap.slots.get(5), None);
        assert_eq!(snap.ids.live(), 9);
        assert_eq!(db.slots.get(3), Some(&99));
        assert_eq!(db.slots.get(7), Some(&42), "freed slot is recycled in the live store only");
        // The snapshot's own free stack is intact: its next insert reuses 5.
        let mut snap = snap;
        assert_eq!(snap.insert(0), 5);
    }

    #[test]
    fn a_write_after_a_clone_copies_only_its_block() {
        let mut db = Store::default();
        for i in 0..10 * BLOCK_CAP {
            db.insert(i);
        }
        let snap = db.clone();
        let unshared =
            |db: &Store<usize>| db.slots.blocks.leaves_not_shared_with(&snap.slots.blocks);
        assert_eq!(unshared(&db), 0, "a clone copies no slot");
        db.remove(3 * BLOCK_CAP as u64 + 5);
        assert_eq!(unshared(&db), 1);
        // The recycled slot is in the block already copied.
        db.insert(0);
        *db.slots.get_mut(3 * BLOCK_CAP as u64).unwrap() += 1;
        assert_eq!(unshared(&db), 1);
        *db.slots.get_mut(7).unwrap() = 0;
        assert_eq!(unshared(&db), 2);
        // Misses never copy.
        assert_eq!(db.remove(10 * BLOCK_CAP as u64 + 1), None);
        assert!(db.slots.get_mut(10 * BLOCK_CAP as u64 + 1).is_none());
        assert_eq!(unshared(&db), 2);
        let same_block = |b: usize| {
            std::ptr::eq(db.slots.blocks.get(b).unwrap(), snap.slots.blocks.get(b).unwrap())
        };
        for b in [0, 3] {
            assert!(!same_block(b), "block {b} was not copied");
        }
        for b in [1, 2, 4, 5, 6, 7, 8, 9] {
            assert!(same_block(b), "block {b} was copied");
        }
        assert_eq!(snap.slots.get(3 * BLOCK_CAP as u64 + 5), Some(&(3 * BLOCK_CAP + 5)));
        assert_eq!(snap.slots.get(7), Some(&7));
        // A free copies the free stack's top chunk alone, and a reuse
        // copies nothing.
        let freed = db.clone();
        db.ids.free(100);
        assert_eq!(db.ids.free.leaves_not_shared_with(&freed.ids.free), 1);
        let reused = db.clone();
        assert_eq!(db.ids.alloc(), 100);
        assert!(db.ids.free.ptr_eq(&reused.ids.free));
    }

    #[test]
    fn blocks_are_allocated_at_full_capacity_once() {
        let mut db = Store::default();
        db.insert(0u8);
        let ptr = db.slots.blocks.get(0).unwrap().as_ptr();
        for i in 1..BLOCK_CAP {
            db.insert(i as u8);
        }
        assert_eq!(db.slots.blocks.iter().count(), 1);
        assert_eq!(
            db.slots.blocks.get(0).unwrap().as_ptr(),
            ptr,
            "filling a block must not move it"
        );
        db.insert(0);
        assert_eq!(db.slots.blocks.iter().count(), 2);
        // A block whose last value is taken is dropped; taking from a
        // missing block allocates none.
        let mut sparse = Slots::default();
        sparse.put(3 * BLOCK_CAP as u64 + 1, 'a');
        sparse.put(3 * BLOCK_CAP as u64 + 2, 'b');
        assert_eq!(sparse.take(3 * BLOCK_CAP as u64 + 1), Some('a'));
        assert_eq!((sparse.blocks.iter().count(), sparse.block_bytes()), (1, 4 * BLOCK_CAP));
        assert_eq!(sparse.take(3 * BLOCK_CAP as u64 + 2), Some('b'));
        assert_eq!(sparse.take(5), None);
        assert_eq!((sparse.blocks.iter().count(), sparse.block_bytes()), (0, 0));
    }

    #[test]
    fn ids_past_two_table_levels_read_back() {
        // 32 × 32 blocks fill two levels of the table; the third starts here.
        let n = 32 * 32 * BLOCK_CAP + 3 * BLOCK_CAP;
        let mut db = Store::default();
        for i in 0..n {
            db.insert(i);
        }
        let snap = db.clone();
        for id in (0..n as u64).step_by(BLOCK_CAP - 1) {
            db.remove(id);
        }
        assert_eq!(db.ids.live() + n.div_ceil(BLOCK_CAP - 1), n);
        let live = db.slots.iter();
        assert!(live.map(|(id, &v)| (id, v)).all(|(id, v)| id as usize == v && id % 63 != 0));
        assert_eq!(snap.slots.iter().count(), n);
        assert!(snap.slots.iter().all(|(id, &v)| id as usize == v));
        // The freed ids fill the free stack past one table level too, and
        // come back last freed first.
        let last = (n as u64 - 1) / (BLOCK_CAP as u64 - 1) * (BLOCK_CAP as u64 - 1);
        assert_eq!(db.insert(0), last);
    }
}
