//! DataBlock: RedisGraph's blocked entity store.
//!
//! Entities (nodes, edges) are stored in fixed-size blocks so that the store
//! can grow without reallocating or moving existing entities, and deleted
//! slots are recycled through a free list. Entity ids are stable for the
//! lifetime of the entity and double as matrix row/column indices.
//!
//! Blocks are held behind `Arc`s with copy-on-write mutation, so cloning a
//! DataBlock is O(#blocks) pointer bumps — that is what makes a whole-graph
//! snapshot cheap enough to take per read query. A mutation of a block whose
//! `Arc` is shared with a snapshot first clones that one block, never the
//! whole store; with no snapshot pinning it, mutation is in place.
//!
//! The block size sets the price of that first write after a snapshot. With
//! 16 384-slot blocks an edge insert or delete beside an outstanding
//! snapshot cost 61–230 µs (Graph500 scale 15, 0.8 M edges, 2-core x86
//! host); with 1 024-slot blocks it costs 10–13 µs. The price moves to the
//! clone, which now bumps ~800 block pointers instead of ~50: a snapshot
//! of the freshly loaded graph takes ~6 µs instead of ~0.7 µs.

use std::sync::Arc;

const BLOCK_CAP: usize = 1_024;

/// A block of `BLOCK_CAP` empty slots, allocated at full size once so
/// filling it never reallocates.
fn empty_block<T>() -> Arc<Vec<Option<T>>> {
    Arc::new(std::iter::repeat_with(|| None).take(BLOCK_CAP).collect())
}

/// A blocked, free-list-recycling arena of `T`.
#[derive(Debug, Clone)]
pub struct DataBlock<T> {
    blocks: Vec<Arc<Vec<Option<T>>>>,
    free: Vec<u64>,
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
        DataBlock { blocks: Vec::new(), free: Vec::new(), len: 0, high_watermark: 0 }
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
        self.blocks.get(b)?.get(i)?.as_ref()
    }

    /// Whether an entity with this id is live.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Iterate `(id, &entity)` over live entities in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, block)| {
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
        let id = if let Some(id) = self.free.pop() {
            id
        } else {
            let id = self.high_watermark;
            self.high_watermark += 1;
            id
        };
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        if self.blocks.len() <= b {
            self.blocks.resize_with(b + 1, empty_block);
        }
        let block = Arc::make_mut(&mut self.blocks[b]);
        debug_assert!(block[i].is_none(), "slot {id} already occupied");
        block[i] = Some(item);
        self.len += 1;
        id
    }

    /// Get a mutable reference to an entity by id.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        // Probe through the shared reference first so a miss never pays the
        // copy-on-write block clone.
        self.blocks.get(b)?.get(i)?.as_ref()?;
        Arc::make_mut(&mut self.blocks[b]).get_mut(i)?.as_mut()
    }

    /// Remove an entity, freeing its slot for reuse. Returns the entity.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let (b, i) = (id as usize / BLOCK_CAP, id as usize % BLOCK_CAP);
        self.blocks.get(b)?.get(i)?.as_ref()?;
        let item = Arc::make_mut(&mut self.blocks[b]).get_mut(i)?.take();
        if item.is_some() {
            self.free.push(id);
            self.len -= 1;
        }
        item
    }

    /// How many blocks this store holds that `other` does not share by
    /// pointer: zero right after a clone, one per block written since.
    #[cfg(test)]
    pub(crate) fn blocks_not_shared_with(&self, other: &DataBlock<T>) -> usize {
        let theirs = |b: usize| other.blocks.get(b);
        self.blocks
            .iter()
            .enumerate()
            .filter(|(b, mine)| !theirs(*b).is_some_and(|t| Arc::ptr_eq(mine, t)))
            .count()
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
        let snap = db.clone();
        *db.get_mut(3).unwrap() = 99;
        db.remove(7);
        db.insert(42);
        assert_eq!(snap.get(3), Some(&3), "snapshot must not see later writes");
        assert_eq!(snap.get(7), Some(&7));
        assert_eq!(snap.len(), 10);
        assert_eq!(db.get(3), Some(&99));
        assert_eq!(db.get(7), Some(&42), "freed slot is recycled in the live store only");
    }

    #[test]
    fn a_write_after_a_clone_copies_only_its_block() {
        let mut db = DataBlock::new();
        for i in 0..10 * BLOCK_CAP {
            db.insert(i);
        }
        let snap = db.clone();
        assert_eq!(db.blocks_not_shared_with(&snap), 0, "a clone copies no slot");
        db.remove(3 * BLOCK_CAP as u64 + 5);
        assert_eq!(db.blocks_not_shared_with(&snap), 1);
        // The recycled slot is in the block already copied.
        db.insert(0);
        *db.get_mut(3 * BLOCK_CAP as u64).unwrap() += 1;
        assert_eq!(db.blocks_not_shared_with(&snap), 1);
        *db.get_mut(7).unwrap() = 0;
        assert_eq!(db.blocks_not_shared_with(&snap), 2);
        // Misses never copy.
        assert_eq!(db.remove(10 * BLOCK_CAP as u64 + 1), None);
        assert!(db.get_mut(10 * BLOCK_CAP as u64 + 1).is_none());
        assert_eq!(db.blocks_not_shared_with(&snap), 2);
        for b in [0, 3] {
            assert!(!Arc::ptr_eq(&db.blocks[b], &snap.blocks[b]));
        }
        for b in [1, 2, 4, 5, 6, 7, 8, 9] {
            assert!(Arc::ptr_eq(&db.blocks[b], &snap.blocks[b]), "block {b} was copied");
        }
        assert_eq!(snap.get(3 * BLOCK_CAP as u64 + 5), Some(&(3 * BLOCK_CAP + 5)));
        assert_eq!(snap.get(7), Some(&7));
    }

    #[test]
    fn blocks_are_allocated_at_full_capacity_once() {
        let mut db = DataBlock::new();
        db.insert(0u8);
        let (ptr, cap) = (db.blocks[0].as_ptr(), db.blocks[0].capacity());
        assert_eq!(cap, BLOCK_CAP);
        for i in 1..BLOCK_CAP {
            db.insert(i as u8);
        }
        assert_eq!(db.blocks.len(), 1);
        assert_eq!(db.blocks[0].as_ptr(), ptr, "filling a block must not reallocate it");
        db.insert(0);
        assert_eq!(db.blocks.len(), 2);
    }
}
