#include "db/columnar.h"

#include <algorithm>

namespace hypo {

namespace {
constexpr size_t kMinSlots = 16;
}  // namespace

bool ColumnStore::Insert(const Tuple& vals) {
  HYPO_DCHECK(static_cast<int>(vals.size()) == arity_)
      << "arity mismatch in columnar insert";
  if (arity_ == 0) {
    if (rows_ > 0) return false;
    rows_ = 1;
    return true;
  }
  // Keep the load factor under 70% *before* probing so the probe always
  // terminates on an empty slot and the found slot stays valid for the
  // store below.
  if (slots_.empty() ||
      (static_cast<size_t>(rows_) + 1) * 10 > slots_.size() * 7) {
    Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
  }
  size_t slot = FindSlot(vals, HashRowLike(vals));
  if (slots_[slot] >= 0) return false;
  for (int c = 0; c < arity_; ++c) cols_[c].push_back(vals[c]);
  slots_[slot] = rows_;
  ++rows_;
  return true;
}

size_t ColumnStore::HomeSlot(RowId row) const {
  // Hash straight off the columns via RowRef — no per-row Tuple copy.
  return static_cast<size_t>(HashFinalize(HashRowLike(RowRef(this, row)))) &
         slot_mask_;
}

void ColumnStore::DeleteSlot(RowId row) {
  size_t hole = HomeSlot(row);
  while (slots_[hole] != row) hole = (hole + 1) & slot_mask_;
  size_t next = hole;
  while (true) {
    next = (next + 1) & slot_mask_;
    const RowId moved = slots_[next];
    if (moved < 0) break;
    // `moved` may fill the hole iff its home does not lie cyclically in
    // (hole, next]: then the hole is on its probe path.
    const size_t home = HomeSlot(moved);
    if (((next - home) & slot_mask_) >= ((next - hole) & slot_mask_)) {
      slots_[hole] = moved;
      hole = next;
    }
  }
  slots_[hole] = -1;
}

RowIdMap::RowIdMap(const std::vector<RowId>& erased, RowId rows)
    : new_ids_(static_cast<size_t>(rows) + 1) {
  new_ids_[0] = -1;
  RowId* out = new_ids_.data() + 1;
  // The survivors between two erased ids shift down together.
  RowId first = 0;
  RowId shift = 0;
  for (RowId gone : erased) {
    for (RowId id = first; id < gone; ++id) out[id] = id - shift;
    out[gone] = -1;
    first = gone + 1;
    ++shift;
  }
  for (RowId id = first; id < rows; ++id) out[id] = id - shift;
}

std::optional<RowIdMap> ColumnStore::EraseRows(
    const std::vector<RowId>& rows) {
  HYPO_DCHECK(std::is_sorted(rows.begin(), rows.end()) &&
              std::adjacent_find(rows.begin(), rows.end()) == rows.end())
      << "EraseRows wants ascending distinct rows";
  std::optional<RowIdMap> ids;
  if (rows.size() > kMaxFused) ids.emplace(rows, rows_);
  rows_ -= static_cast<RowId>(rows.size());
  if (arity_ == 0 || rows.empty()) return ids;
  // Slots first, while every row still hashes off its own columns.
  for (RowId row : rows) DeleteSlot(row);
  // Each column closes its holes with one memmove per surviving run.
  for (auto& col : cols_) {
    auto out = col.begin() + rows.front();
    for (size_t k = 0; k < rows.size(); ++k) {
      const auto run = col.begin() + rows[k] + 1;
      const auto run_end =
          k + 1 < rows.size() ? col.begin() + rows[k + 1] : col.end();
      out = std::move(run, run_end, out);
    }
    col.erase(out, col.end());
  }
  // No slot holds an erased id any more; empty slots stay -1.
  if (ids) {
    for (RowId& slot : slots_) slot = (*ids)[slot];
    return ids;
  }
  // Each surviving id drops by the number of erased ids below it,
  // subtracted largest first (an id above all of them then drops below
  // none of the rest), with four slots held in registers across the
  // erased ids (slots_.size() is a power of two of at least kMinSlots).
  static_assert(kMinSlots % 4 == 0);
  RowId* slots = slots_.data();
  for (size_t i = 0; i < slots_.size(); i += 4) {
    RowId a = slots[i], b = slots[i + 1], c = slots[i + 2], d = slots[i + 3];
    for (auto r = rows.rbegin(); r != rows.rend(); ++r) {
      const RowId gone = *r;
      a -= static_cast<RowId>(a > gone);
      b -= static_cast<RowId>(b > gone);
      c -= static_cast<RowId>(c > gone);
      d -= static_cast<RowId>(d > gone);
    }
    slots[i] = a;
    slots[i + 1] = b;
    slots[i + 2] = c;
    slots[i + 3] = d;
  }
  return ids;
}

void ColumnStore::Clear() {
  for (auto& col : cols_) col.clear();
  slots_.clear();
  slot_mask_ = 0;
  rows_ = 0;
}

void ColumnStore::Rehash(size_t min_slots) {
  size_t n = kMinSlots;
  while (n < min_slots) n *= 2;
  slots_.assign(n, -1);
  slot_mask_ = n - 1;
  for (RowId row = 0; row < rows_; ++row) {
    size_t slot = HomeSlot(row);
    while (slots_[slot] >= 0) slot = (slot + 1) & slot_mask_;
    slots_[slot] = row;
  }
}

}  // namespace hypo
