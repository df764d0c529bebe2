//! DataBlock: RedisGraph's blocked entity store.
//!
//! A graph keeps each node's attribute set in one DataBlock, each edge's in
//! another (16 bytes a slot in both), and its parallel-edge lists in a
//! third. Slots live in fixed-size blocks, so a store grows without
//! reallocating or moving what it holds, and deleted slots are recycled
//! through a free list. Ids are stable for the lifetime of what they name:
//! a node id is its matrix row and column, an edge id the value of the
//! relation cells that hold the edge.
//!
//! Blocks are the leaves of a copy-on-write [`ChunkTable`], and the free
//! list sits behind its own `Arc`, so cloning a DataBlock is two pointer
//! bumps however many entities it holds — that is what makes a whole-graph
//! snapshot cheap enough to take per read query. A mutation beside a clone
//! copies the one block it touches and that block's path through the table,
//! and the whole free list if it pushes or pops an id (O(freed ids), about
//! 0.3 µs per 1 000 on a 2-core x86 host); with no clone sharing them,
//! mutation is in place.

use graphblas::ChunkTable;
use std::sync::Arc;

/// Slots per block: the leaf a write after a snapshot copies. A clone no
/// longer pays per block, so the size prices only that write. On rgbench's
/// `mixed_rw_write` (2-core x86 host, medians of six runs) 64-slot blocks
/// served 11 960 writes/s at p50 0.070 ms, 128-slot blocks 10 680 at
/// 0.079 ms; 32-slot blocks (three runs) were no faster and used 0.8 MB
/// more.
const BLOCK_CAP: usize = 64;

/// One block of slots, allocated at full size with its table leaf.
type Block<T> = [Option<T>; BLOCK_CAP];

/// A blocked, free-list-recycling arena of `T`.
#[derive(Debug, Clone)]
pub struct DataBlock<T> {
    blocks: ChunkTable<Block<T>>,
    free: Arc<Vec<u64>>,
    len: usize,
    high_watermark: u64,
}

impl<T> Default for DataBlock<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DataBlock<T> {
    /// Create an empty DataBlock.
    pub fn new() -> Self {
        DataBlock { blocks: ChunkTable::new(0), free: Arc::default(), len: 0, high_watermark: 0 }
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no live entities are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the largest id ever allocated (matrix dimension requirement).
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// Get a reference to an entity by id.
    pub fn get(&self, id: u64) -> Option<&T> {
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        self.blocks.get(b)?[i].as_ref()
    }

    /// Whether an entity with this id is live.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Bytes of the allocated blocks: every slot of each, live or free, at
    /// `size_of::<Option<T>>()`. The table's interior nodes and whatever the
    /// entities own on the heap are not counted.
    pub fn block_bytes(&self) -> usize {
        self.blocks.iter().count() * std::mem::size_of::<Block<T>>()
    }

    /// Iterate `(id, &entity)` over live entities in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.blocks.iter().flat_map(|(b, block)| {
            block.iter().enumerate().filter_map(move |(i, slot)| {
                slot.as_ref().map(|item| ((b * BLOCK_CAP + i) as u64, item))
            })
        })
    }
}

impl<T: Clone> DataBlock<T> {
    /// Insert an entity, returning its id. Recycles the most recently freed
    /// slot if one exists.
    pub fn insert(&mut self, item: T) -> u64 {
        let id = if self.free.is_empty() {
            let id = self.high_watermark;
            self.high_watermark += 1;
            id
        } else {
            Arc::make_mut(&mut self.free).pop().expect("checked non-empty")
        };
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        if self.blocks.len() <= b {
            self.blocks.resize(b + 1);
        }
        let block = self.blocks.get_or_insert_with(b, || std::array::from_fn(|_| None));
        debug_assert!(block[i].is_none(), "slot {id} already occupied");
        block[i] = Some(item);
        self.len += 1;
        id
    }

    /// Get a mutable reference to an entity by id.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        // Probe through the shared reference first so a miss never pays the
        // copy-on-write block clone.
        self.get(id)?;
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        self.blocks.get_mut(b)?[i].as_mut()
    }

    /// Remove an entity, freeing its slot for reuse. Returns the entity.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        self.get(id)?;
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        let item = self.blocks.get_mut(b)?[i].take();
        Arc::make_mut(&mut self.free).push(id);
        self.len -= 1;
        item
    }

    /// The block table and the free list (test diagnostic): a clone shares
    /// both by pointer until either side writes.
    #[cfg(test)]
    pub(crate) fn shared_parts(&self) -> (&ChunkTable<Block<T>>, &Arc<Vec<u64>>) {
        (&self.blocks, &self.free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut db = DataBlock::new();
        let a = db.insert("a");
        let b = db.insert("b");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(db.get(a), Some(&"a"));
        assert_eq!(db.get(b), Some(&"b"));
        assert_eq!(db.len(), 2);
        assert_eq!(db.high_watermark(), 2);
    }

    #[test]
    fn remove_recycles_ids() {
        let mut db = DataBlock::new();
        let a = db.insert(1);
        let _b = db.insert(2);
        assert_eq!(db.remove(a), Some(1));
        assert_eq!(db.len(), 1);
        assert!(!db.contains(a));
        let c = db.insert(3);
        assert_eq!(c, a, "freed id should be recycled");
        assert_eq!(db.high_watermark(), 2);
        assert_eq!(db.remove(99), None);
    }

    #[test]
    fn iteration_skips_holes() {
        let mut db = DataBlock::new();
        for i in 0..10 {
            db.insert(i);
        }
        db.remove(3);
        db.remove(7);
        let ids: Vec<u64> = db.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut db = DataBlock::new();
        let id = db.insert(vec![1, 2]);
        db.get_mut(id).unwrap().push(3);
        assert_eq!(db.get(id).unwrap(), &vec![1, 2, 3]);
    }

    #[test]
    fn grows_past_one_block() {
        let mut db = DataBlock::new();
        let n = BLOCK_CAP + 10;
        for i in 0..n {
            assert_eq!(db.insert(i) as usize, i);
        }
        assert_eq!(db.len(), n);
        assert_eq!(db.get((BLOCK_CAP + 5) as u64), Some(&(BLOCK_CAP + 5)));
    }

    #[test]
    fn clone_is_a_snapshot_with_shared_blocks() {
        let mut db = DataBlock::new();
        for i in 0..10 {
            db.insert(i);
        }
        db.remove(5);
        let snap = db.clone();
        let ((blocks, free), (snap_blocks, snap_free)) = (db.shared_parts(), snap.shared_parts());
        assert!(
            blocks.ptr_eq(snap_blocks) && Arc::ptr_eq(free, snap_free),
            "a clone copies nothing"
        );
        *db.get_mut(3).unwrap() = 99;
        db.remove(7);
        db.insert(42);
        assert_eq!(snap.get(3), Some(&3), "snapshot must not see later writes");
        assert_eq!(snap.get(7), Some(&7));
        assert_eq!(snap.get(5), None);
        assert_eq!(snap.len(), 9);
        assert_eq!(db.get(3), Some(&99));
        assert_eq!(db.get(7), Some(&42), "freed slot is recycled in the live store only");
        // The snapshot's own free list is intact: its next insert reuses 5.
        let mut snap = snap;
        assert_eq!(snap.insert(0), 5);
    }

    #[test]
    fn a_write_after_a_clone_copies_only_its_block() {
        let mut db = DataBlock::new();
        for i in 0..10 * BLOCK_CAP {
            db.insert(i);
        }
        let snap = db.clone();
        let unshared = |db: &DataBlock<usize>| db.blocks.leaves_not_shared_with(&snap.blocks);
        assert_eq!(unshared(&db), 0, "a clone copies no slot");
        db.remove(3 * BLOCK_CAP as u64 + 5);
        assert_eq!(unshared(&db), 1);
        // The recycled slot is in the block already copied.
        db.insert(0);
        *db.get_mut(3 * BLOCK_CAP as u64).unwrap() += 1;
        assert_eq!(unshared(&db), 1);
        *db.get_mut(7).unwrap() = 0;
        assert_eq!(unshared(&db), 2);
        // Misses never copy.
        assert_eq!(db.remove(10 * BLOCK_CAP as u64 + 1), None);
        assert!(db.get_mut(10 * BLOCK_CAP as u64 + 1).is_none());
        assert_eq!(unshared(&db), 2);
        let same_block =
            |b: usize| std::ptr::eq(db.blocks.get(b).unwrap(), snap.blocks.get(b).unwrap());
        for b in [0, 3] {
            assert!(!same_block(b), "block {b} was not copied");
        }
        for b in [1, 2, 4, 5, 6, 7, 8, 9] {
            assert!(same_block(b), "block {b} was copied");
        }
        assert_eq!(snap.get(3 * BLOCK_CAP as u64 + 5), Some(&(3 * BLOCK_CAP + 5)));
        assert_eq!(snap.get(7), Some(&7));
    }

    #[test]
    fn blocks_are_allocated_at_full_capacity_once() {
        let mut db = DataBlock::new();
        db.insert(0u8);
        let ptr = db.blocks.get(0).unwrap().as_ptr();
        for i in 1..BLOCK_CAP {
            db.insert(i as u8);
        }
        assert_eq!(db.blocks.iter().count(), 1);
        assert_eq!(db.blocks.get(0).unwrap().as_ptr(), ptr, "filling a block must not move it");
        db.insert(0);
        assert_eq!(db.blocks.iter().count(), 2);
    }

    #[test]
    fn ids_past_two_table_levels_read_back() {
        // 32 × 32 blocks fill two levels of the table; the third starts here.
        let n = 32 * 32 * BLOCK_CAP + 3 * BLOCK_CAP;
        let mut db = DataBlock::new();
        for i in 0..n {
            db.insert(i);
        }
        let snap = db.clone();
        for id in (0..n as u64).step_by(BLOCK_CAP - 1) {
            db.remove(id);
        }
        assert_eq!(db.len() + n.div_ceil(BLOCK_CAP - 1), n);
        assert!(db.iter().all(|(id, &v)| id as usize == v && id % (BLOCK_CAP as u64 - 1) != 0));
        assert_eq!(snap.iter().count(), n);
        assert!(snap.iter().all(|(id, &v)| id as usize == v));
    }
}
