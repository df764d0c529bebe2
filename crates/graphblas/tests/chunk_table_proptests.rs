//! Property tests for [`graphblas::ChunkTable`] against a `Vec<Option<L>>`
//! model.
//!
//! Each script runs random inserts, in-place writes, removes, resizes (both
//! ways, across the lengths where the tree gains or loses a level), clears
//! and clones. Lengths reach past `FANOUT^3` slots, so tables of one to four
//! levels occur, and indices are drawn both at random and right beside the
//! group boundaries of every level. Every clone is checked against the model
//! frozen when it was taken, after the original and the other clones have
//! gone on writing: a clone that shares a path with a later writer must
//! still read its own state.

use graphblas::chunk_table::FANOUT;
use graphblas::ChunkTable;
use proptest::prelude::*;

/// The lengths a resize picks from: both sides of each level's capacity.
const LENGTHS: [usize; 10] = [
    0,
    1,
    FANOUT,
    FANOUT + 1,
    FANOUT * FANOUT,
    FANOUT * FANOUT + 1,
    3 * FANOUT * FANOUT + 7,
    FANOUT * FANOUT * FANOUT,
    FANOUT * FANOUT * FANOUT + 1,
    FANOUT * FANOUT * FANOUT + 3 * FANOUT * FANOUT,
];

/// Slots beside the group boundaries of the first three levels.
const NEAR: [usize; 12] = [
    0,
    FANOUT - 1,
    FANOUT,
    2 * FANOUT - 1,
    FANOUT * FANOUT - 1,
    FANOUT * FANOUT,
    FANOUT * FANOUT + FANOUT,
    3 * FANOUT * FANOUT,
    FANOUT * FANOUT * FANOUT - 1,
    FANOUT * FANOUT * FANOUT,
    FANOUT * FANOUT * FANOUT + FANOUT * FANOUT,
    FANOUT * FANOUT * FANOUT + 3 * FANOUT * FANOUT - 1,
];

/// One scripted op: `kind` 0–2 = insert-or-update, 3 = write in place,
/// 4 = remove, 5 = resize, 6 = clear, 7 = clone; `pick` chooses the slot
/// (or the length) and `value` the leaf, its low bit whether the slot comes
/// from [`NEAR`] or from anywhere.
type Op = (u8, usize, u32);

fn script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..8, 0..1_000_000usize, 0..1_000u32), 0..150)
}

/// Check `table` against `model`: the length, every leaf in slot order, and
/// a point read of every slot a script can single out.
fn assert_matches(table: &ChunkTable<u32>, model: &[Option<u32>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.len(), model.len());
    let leaves: Vec<(usize, u32)> = table.iter().map(|(i, &v)| (i, v)).collect();
    let expected: Vec<(usize, u32)> =
        model.iter().enumerate().filter_map(|(i, v)| v.map(|v| (i, v))).collect();
    prop_assert_eq!(leaves, expected);
    for i in NEAR.iter().flat_map(|&i| [i, i + 1]).chain(LENGTHS) {
        prop_assert_eq!(table.get(i), model.get(i).and_then(Option::as_ref), "slot {}", i);
    }
    Ok(())
}

proptest! {
    #[test]
    fn clones_read_their_own_model_state_across_levels(ops in script(), start in 0usize..10) {
        let mut table = ChunkTable::new(LENGTHS[start]);
        let mut model: Vec<Option<u32>> = vec![None; LENGTHS[start]];
        let mut clones = Vec::new();
        for &(kind, pick, value) in &ops {
            let len = model.len();
            let slot = match value % 2 {
                _ if len == 0 => None,
                0 => Some(pick % len),
                _ => Some(NEAR[pick % NEAR.len()] % len),
            };
            match (kind, slot) {
                (0..=2, Some(i)) => {
                    *table.get_or_insert_with(i, || value) += 1;
                    *model[i].get_or_insert(value) += 1;
                }
                (3, Some(i)) => {
                    let written = table.get_mut(i).map(|leaf| *leaf = value).is_some();
                    prop_assert_eq!(written, model[i].is_some());
                    if let Some(leaf) = &mut model[i] {
                        *leaf = value;
                    }
                }
                (4, Some(i)) => prop_assert_eq!(table.remove(i), model[i].take()),
                (5, _) => {
                    let len = LENGTHS[pick % LENGTHS.len()];
                    table.resize(len);
                    model.resize(len, None);
                }
                (6, _) => {
                    table.clear();
                    model.fill(None);
                }
                (7, _) => clones.push((table.clone(), model.clone())),
                _ => {}
            }
            // Out-of-range slots read as empty and write nothing.
            prop_assert_eq!(table.get(model.len()), None);
            prop_assert!(table.get_mut(model.len()).is_none());
        }
        assert_matches(&table, &model)?;
        for (clone, frozen) in &clones {
            assert_matches(clone, frozen)?;
        }
        // Clones are tables in their own right: writing to one leaves the
        // original and the other clones alone.
        if let Some((first, frozen)) = clones.first_mut() {
            first.resize(LENGTHS[9]);
            frozen.resize(LENGTHS[9], None);
            for &i in &NEAR {
                *first.get_or_insert_with(i, || 0) += 7;
                *frozen[i].get_or_insert(0) += 7;
            }
            assert_matches(first, frozen)?;
        }
        assert_matches(&table, &model)?;
        for (clone, frozen) in clones.iter().skip(1) {
            assert_matches(clone, frozen)?;
        }
    }
}
