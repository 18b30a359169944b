#ifndef HYPO_DB_COLUMNAR_H_
#define HYPO_DB_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/logging.h"
#include "db/fact.h"

namespace hypo {

/// Position of a tuple inside its relation's columnar store. Row ids are
/// dense and stable under insertion; erasing rows shifts every later id
/// down by the number of erased rows before it (see EraseRows), and
/// Database patches its indexes to match.
using RowId = int32_t;

/// Where each row id moves when `erased` (ascending, distinct) of a
/// store's `rows` rows are erased: an erased id maps to -1, every other
/// id drops by the number of erased ids below it, and -1 (an empty dedup
/// slot) maps to itself. Built at most once per erased batch, in
/// O(rows); every holder of the store's row ids that needs it (the dedup
/// table past ColumnStore::kMaxFused rows, Database's permutations and
/// hash buckets) then renumbers with one lookup per id, however many rows
/// the batch erases.
class RowIdMap {
 public:
  RowIdMap(const std::vector<RowId>& erased, RowId rows);

  RowId operator[](RowId id) const {
    return new_ids_[static_cast<size_t>(id + 1)];
  }

 private:
  std::vector<RowId> new_ids_;  // new_ids_[id + 1] is id's new id.
};

/// Flat struct-of-arrays tuple storage for one relation: `arity` parallel
/// arena-backed `std::vector<ConstId>` columns plus an open-addressing
/// dedup table of row ids. No per-tuple heap nodes anywhere — the CaDiCaL
/// "plain vector pools" idiom — so a stored fact costs exactly
/// arity * sizeof(ConstId) of column arena plus one int32 dedup slot,
/// and byte accounting can be exact instead of estimated.
class ColumnStore {
 public:
  explicit ColumnStore(int arity) : arity_(arity), cols_(arity) {}

  int arity() const { return arity_; }
  RowId size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  ConstId At(RowId row, size_t col) const { return cols_[col][row]; }
  const std::vector<ConstId>& Column(size_t col) const { return cols_[col]; }

  /// Appends `vals` unless an equal row is already stored. Returns true
  /// iff a new row was appended (its id is size() - 1).
  bool Insert(const Tuple& vals);

  /// Row id of the row equal to `vals`, or -1. `Row` is anything with
  /// size() and operator[] over ConstId (Tuple, RowRef, ...).
  template <typename Row>
  RowId Find(const Row& vals) const {
    if (arity_ == 0) return rows_ > 0 ? 0 : -1;
    if (rows_ == 0) return -1;
    size_t slot = FindSlot(vals, HashRowLike(vals));
    return slots_[slot];
  }

  template <typename Row>
  bool Contains(const Row& vals) const {
    return Find(vals) >= 0;
  }

  /// Up to this many erased rows, EraseRows renumbers the dedup table by
  /// comparing each slot against every erased id (branch-free, four
  /// slots at a time) instead of building a RowIdMap. On an 8000-row
  /// relation that is two to four times faster at one erased row, still
  /// ahead at two and three, and behind from four on, where its cost
  /// keeps growing with every erased row and the map's does not
  /// (EXPERIMENTS.md "Renumbering row ids").
  static constexpr size_t kMaxFused = 3;

  /// Removes the rows `rows` (ascending, distinct, each below size()).
  /// Each row's dedup slot is freed by backward-shift deletion, so no
  /// tombstone is left and no other row rehashes; then every column is
  /// compacted in one pass that keeps the surviving rows in insertion
  /// order, and one pass over the dedup table renumbers the surviving ids
  /// (fused up to kMaxFused rows, else through a RowIdMap, which it
  /// returns for the caller's own holders of row ids).
  /// O(size() * arity + slots) for the whole batch.
  std::optional<RowIdMap> EraseRows(const std::vector<RowId>& rows);

  void Clear();

  /// Exact heap bytes held: column arena capacities plus the dedup table.
  int64_t ArenaBytes() const {
    int64_t bytes =
        static_cast<int64_t>(slots_.capacity()) * sizeof(RowId);
    for (const auto& col : cols_) {
      bytes += static_cast<int64_t>(col.capacity()) * sizeof(ConstId);
    }
    return bytes;
  }

 private:
  template <typename Row>
  bool RowEquals(RowId row, const Row& vals) const {
    for (int c = 0; c < arity_; ++c) {
      if (cols_[c][row] != static_cast<ConstId>(vals[c])) return false;
    }
    return true;
  }

  /// Linear-probe slot for `vals`: either holds the matching row id or is
  /// the empty slot where it would go. slots_ must be non-empty. The hash
  /// is finalized before masking: HashRowLike's low bits cluster badly on
  /// sequential ConstIds, and under a power-of-two mask that degrades
  /// linear probing to near-linear scans (a prime-modulo table such as
  /// unordered_set would not see this).
  template <typename Row>
  size_t FindSlot(const Row& vals, uint64_t hash) const {
    size_t slot = static_cast<size_t>(HashFinalize(hash)) & slot_mask_;
    while (slots_[slot] >= 0 && !RowEquals(slots_[slot], vals)) {
      slot = (slot + 1) & slot_mask_;
    }
    return slot;
  }

  /// Grows the dedup table to at least `min_slots` (power of two) and
  /// reinserts every live row id.
  void Rehash(size_t min_slots);

  /// Home slot of stored row `row`.
  size_t HomeSlot(RowId row) const;

  /// Frees the slot holding `row` by backward-shift deletion: later
  /// members of its probe cluster move back into the hole when their home
  /// slot allows, so every remaining row stays reachable from its home.
  void DeleteSlot(RowId row);

  int arity_;
  RowId rows_ = 0;
  std::vector<std::vector<ConstId>> cols_;
  std::vector<RowId> slots_;  // -1 = empty; else a row id.
  size_t slot_mask_ = 0;
};

/// A borrowed view of one stored row: tuple-shaped (size / operator[])
/// so generic join code monomorphizes over it without materializing a
/// Tuple. Valid until the store is next mutated.
class RowRef {
 public:
  RowRef(const ColumnStore* store, RowId row) : store_(store), row_(row) {}

  size_t size() const { return static_cast<size_t>(store_->arity()); }
  ConstId operator[](size_t i) const { return store_->At(row_, i); }
  RowId row() const { return row_; }

  Tuple ToTuple() const {
    Tuple t;
    t.reserve(size());
    for (size_t i = 0; i < size(); ++i) t.push_back((*this)[i]);
    return t;
  }

 private:
  const ColumnStore* store_;
  RowId row_;
};

}  // namespace hypo

#endif  // HYPO_DB_COLUMNAR_H_
