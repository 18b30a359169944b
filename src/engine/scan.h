#ifndef HYPO_ENGINE_SCAN_H_
#define HYPO_ENGINE_SCAN_H_

#include <algorithm>

#include "ast/rule.h"
#include "db/database.h"
#include "db/overlay.h"
#include "engine/binding.h"
#include "engine/engine.h"

namespace hypo {

/// Computes the bound-column signature of `atom` under `binding`: the
/// mask of columns whose value is already fixed (a constant, or a bound
/// variable) and, in `key`, the fixed values in increasing column order.
/// Columns past kMaxIndexedColumns are ignored (left to MatchTuple's
/// post-filter). Returns 0 when no column is fixed.
inline ColumnMask BoundSignature(const Atom& atom, const Binding& binding,
                                 Tuple* key) {
  ColumnMask mask = 0;
  key->clear();
  int limit = std::min<int>(static_cast<int>(atom.args.size()),
                            kMaxIndexedColumns);
  for (int i = 0; i < limit; ++i) {
    const Term& t = atom.args[i];
    if (t.is_const()) {
      mask |= 1u << i;
      key->push_back(t.const_id());
    } else if (binding.IsBound(t.var_index())) {
      mask |= 1u << i;
      key->push_back(binding.Value(t.var_index()));
    }
  }
  return mask;
}

/// Invokes `fn(row)` for each stored tuple of `atom`'s predicate in `db`
/// that can possibly match: the index subset for the full bound-column
/// signature when any column is bound (a sorted range or hash bucket,
/// per Database::ForEachCandidate), the full relation otherwise. `row`
/// is a RowRef; `fn` returns false to stop, and ForEachBaseCandidate
/// then returns false.
///
/// Snapshot-bounded and realloc-safe per ForEachCandidate's contract:
/// `fn` may insert into the same relation while the scan is in flight.
///
/// `stats` (optional) is credited with the probe when a sorted range
/// serves it — the caller's own sorted_probes / merge_join_rows, which
/// the database's lifetime totals cannot give when readers share it.
template <typename Fn>
bool ForEachBaseCandidate(const Database& db, const Atom& atom,
                          const Binding& binding, Fn&& fn,
                          EngineStats* stats = nullptr) {
  Tuple key;
  ColumnMask mask = BoundSignature(atom, binding, &key);
  Database::ProbeReport report;
  const bool finished = db.ForEachCandidate(
      atom.predicate, mask, key, std::forward<Fn>(fn), &report);
  if (stats != nullptr && report.sorted) {
    ++stats->sorted_probes;
    stats->merge_join_rows += static_cast<int64_t>(report.rows);
  }
  return finished;
}

/// The overlay-additions counterpart of ForEachBaseCandidate: invokes
/// `fn(tuple)` for each hypothetically added tuple of `atom`'s predicate
/// that can possibly match — the bound-column-signature bucket when any
/// column is bound (built on demand by OverlayDatabase::AddedProbe), all
/// added tuples otherwise. Masked tuples are NOT filtered here; callers
/// check TupleVisible as part of `fn`. `fn` returns false to stop;
/// ForEachAddedCandidate then returns false.
///
/// Iteration is index-based over stable-by-prefix vectors, so `fn` may
/// push and pop overlay frames (growing and shrinking the tail of the
/// relation) while the scan is in flight.
template <typename Fn>
bool ForEachAddedCandidate(const OverlayDatabase& overlay, const Atom& atom,
                           const Binding& binding, Fn&& fn) {
  Tuple key;
  ColumnMask mask = BoundSignature(atom, binding, &key);
  const std::vector<Tuple>& all = overlay.AddedTuplesFor(atom.predicate);
  if (mask != 0) {
    const std::vector<RowId>* subset =
        overlay.AddedProbe(atom.predicate, mask, key);
    if (subset == nullptr) return true;
    // Dynamic bound: `fn` may pop frames, trimming the bucket under us.
    for (size_t i = 0; i < subset->size(); ++i) {
      if (!fn(all[(*subset)[i]])) return false;
    }
    return true;
  }
  for (size_t i = 0; i < all.size(); ++i) {
    if (!fn(all[i])) return false;
  }
  return true;
}

}  // namespace hypo

#endif  // HYPO_ENGINE_SCAN_H_
