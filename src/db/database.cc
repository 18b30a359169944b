#include "db/database.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>

#include "base/failpoint.h"
#include "base/io_util.h"
#include "base/logging.h"

namespace hypo {

std::string FactToString(const Fact& fact, const SymbolTable& symbols) {
  std::string out = symbols.PredicateName(fact.predicate);
  if (fact.args.empty()) return out;
  out += "(";
  for (size_t i = 0; i < fact.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += symbols.ConstName(fact.args[i]);
  }
  out += ")";
  return out;
}

Database::Database(Database&& other) noexcept
    : symbols_(std::move(other.symbols_)),
      relations_(std::move(other.relations_)),
      constants_(std::move(other.constants_)),
      constant_refs_(std::move(other.constant_refs_)),
      size_(other.size_),
      approx_bytes_(other.approx_bytes_),
      sealed_(other.sealed_),
      sorted_on_seal_(other.sorted_on_seal_),
      index_builds_(other.index_builds_.load(std::memory_order_relaxed)),
      index_probes_(other.index_probes_.load(std::memory_order_relaxed)),
      sorted_probes_(other.sorted_probes_.load(std::memory_order_relaxed)),
      merge_join_rows_(
          other.merge_join_rows_.load(std::memory_order_relaxed)),
      index_sort_micros_(
          other.index_sort_micros_.load(std::memory_order_relaxed)) {}

Database& Database::operator=(Database&& other) noexcept {
  symbols_ = std::move(other.symbols_);
  relations_ = std::move(other.relations_);
  constants_ = std::move(other.constants_);
  constant_refs_ = std::move(other.constant_refs_);
  size_ = other.size_;
  approx_bytes_ = other.approx_bytes_;
  sealed_ = other.sealed_;
  sorted_on_seal_ = other.sorted_on_seal_;
  index_builds_.store(other.index_builds_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  index_probes_.store(other.index_probes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  sorted_probes_.store(other.sorted_probes_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  merge_join_rows_.store(
      other.merge_join_rows_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  index_sort_micros_.store(
      other.index_sort_micros_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

Database Database::Clone() const {
  Database copy(symbols_);
  copy.relations_ = relations_;
  copy.constants_ = constants_;
  copy.constant_refs_ = constant_refs_;
  copy.size_ = size_;
  copy.approx_bytes_ = approx_bytes_;
  copy.sorted_on_seal_ = sorted_on_seal_;
  return copy;
}

bool Database::Insert(const Fact& fact) {
  HYPO_DCHECK(fact.predicate >= 0) << "fact with invalid predicate";
  HYPO_DCHECK(static_cast<int>(fact.args.size()) ==
              symbols_->PredicateArity(fact.predicate))
      << "arity mismatch inserting " << symbols_->PredicateName(fact.predicate);
  auto [it, created] = relations_.try_emplace(
      fact.predicate, static_cast<int>(fact.args.size()));
  Relation& rel = it->second;
  const int64_t arena_before = rel.store.ArenaBytes();
  const bool inserted = rel.store.Insert(fact.args);
  // The dedup table may grow before a duplicate is found.
  approx_bytes_ += rel.store.ArenaBytes() - arena_before;
  if (!inserted) return false;
  // A real mutation on a sealed database starts a new epoch: drop the
  // seal so lazy index extension resumes. Leaving the seal up would serve
  // probes from indexes whose built_upto no longer covers the relation —
  // silently incomplete candidate sets.
  sealed_ = false;
  AddConstantRefs(fact.args);
  ++size_;
  return true;
}

bool Database::Retract(const Fact& fact) {
  HYPO_DCHECK(fact.predicate >= 0) << "fact with invalid predicate";
  auto it = relations_.find(fact.predicate);
  if (it == relations_.end()) return false;
  const RowId row = it->second.store.Find(fact.args);
  if (row < 0) return false;
  EraseRows(it, {row});
  return true;
}

int64_t Database::RetractBatch(const std::vector<Fact>& facts) {
  // The rows to erase, grouped by relation so each compacts once.
  std::vector<std::pair<RelationMap::iterator, std::vector<RowId>>> groups;
  std::unordered_map<PredicateId, size_t> group_of;
  for (const Fact& fact : facts) {
    auto it = relations_.find(fact.predicate);
    if (it == relations_.end()) continue;
    const RowId row = it->second.store.Find(fact.args);
    if (row < 0) continue;
    auto [slot, fresh] = group_of.try_emplace(fact.predicate, groups.size());
    if (fresh) groups.emplace_back(it, std::vector<RowId>());
    groups[slot->second].second.push_back(row);
  }
  int64_t removed = 0;
  for (auto& [it, rows] : groups) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    removed += static_cast<int64_t>(rows.size());
    // Erasing one relation's node leaves the other groups' iterators
    // valid.
    EraseRows(it, rows);
  }
  return removed;
}

void Database::EraseRows(RelationMap::iterator it,
                         const std::vector<RowId>& rows) {
  Relation& rel = it->second;
  for (RowId row : rows) DropConstantRefs(RowRef(&rel.store, row));
  const RowId old_rows = rel.store.size();
  const int64_t arena_before = rel.store.ArenaBytes();
  std::optional<RowIdMap> store_ids = rel.store.EraseRows(rows);
  approx_bytes_ += rel.store.ArenaBytes() - arena_before;
  sealed_ = false;
  size_ -= static_cast<int64_t>(rows.size());
  if (rel.store.empty()) {
    DropRelationIndexes(rel);
    approx_bytes_ -= rel.store.ArenaBytes();
    relations_.erase(it);
    BumpCursorEpoch();
    return;
  }
  if (rel.column_indexes.empty()) return;
  // Patch every index in place through the batch's one id map (the
  // store's, when it built one): both the sorted permutation and the hash
  // buckets cover a prefix of the rows and list ids ascending within a
  // key, and dropping erased ids and renumbering the rest keeps both
  // properties, so probes visit the survivors in the same order as
  // before.
  const RowIdMap& ids =
      store_ids ? *store_ids : store_ids.emplace(rows, old_rows);
  for (auto& [mask, ci] : rel.column_indexes) {
    (void)mask;
    approx_bytes_ -= IndexBytes(ci);
    if (ci.sorted) {
      const size_t w = static_cast<size_t>(ci.key_width);
      size_t out = 0;
      for (size_t i = 0; i < ci.perm.size(); ++i) {
        const RowId id = ids[ci.perm[i]];
        if (id < 0) continue;
        ci.perm[out] = id;
        for (size_t k = 0; k < w; ++k) {
          ci.keys[out * w + k] = ci.keys[i * w + k];
        }
        ++out;
      }
      ci.perm.resize(out);
      ci.keys.resize(out * w);
      BuildStarts(ci);
    }
    if (ci.built_upto > 0) {
      size_t kept = 0;
      for (auto bucket = ci.buckets.begin(); bucket != ci.buckets.end();) {
        std::vector<RowId>& bucket_ids = bucket->second;
        size_t out = 0;
        for (RowId old : bucket_ids) {
          const RowId id = ids[old];
          if (id >= 0) bucket_ids[out++] = id;
        }
        bucket_ids.resize(out);
        kept += out;
        bucket = out == 0 ? ci.buckets.erase(bucket) : std::next(bucket);
      }
      ci.built_upto = kept;
    }
    approx_bytes_ += IndexBytes(ci);
  }
}

int64_t Database::ClearRelation(PredicateId pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return 0;
  Relation& rel = it->second;
  sealed_ = false;
  const RowId removed = rel.store.size();
  for (RowId row = 0; row < removed; ++row) {
    DropConstantRefs(RowRef(&rel.store, row));
  }
  approx_bytes_ -= rel.store.ArenaBytes();
  DropRelationIndexes(rel);
  size_ -= removed;
  relations_.erase(it);
  BumpCursorEpoch();
  return removed;
}

void Database::AddConstantRefs(const Tuple& args) {
  for (ConstId c : args) {
    if (++constant_refs_[c] == 1) constants_.insert(c);
  }
}

void Database::DropConstantRefs(const RowRef& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    const ConstId c = row[i];
    auto it = constant_refs_.find(c);
    HYPO_DCHECK(it != constant_refs_.end()) << "unbalanced constant refcount";
    if (it != constant_refs_.end() && --it->second == 0) {
      constant_refs_.erase(it);
      constants_.erase(c);
    }
  }
}

void Database::DropRelationIndexes(const Relation& rel) {
  for (const auto& [mask, ci] : rel.column_indexes) {
    (void)mask;
    approx_bytes_ -= IndexBytes(ci);
  }
  rel.column_indexes.clear();
  BumpCursorEpoch();
}

Database::ColumnIndex& Database::ExtendIndex(const Relation& rel,
                                             ColumnMask mask) const {
  auto [ci_it, created] = rel.column_indexes.try_emplace(mask);
  ColumnIndex& ci = ci_it->second;
  if (created) index_builds_.fetch_add(1, std::memory_order_relaxed);
  const size_t rel_size = static_cast<size_t>(rel.store.size());
  if (ci.built_upto < rel_size) {
    // Catch up on tuples appended since the last probe. Insertions never
    // reorder or remove tuples, so extending the buckets is sound.
    approx_bytes_ += kApproxIndexEntryBytes *
                     static_cast<int64_t>(rel_size - ci.built_upto);
    const size_t limit = std::min<size_t>(
        static_cast<size_t>(rel.store.arity()),
        static_cast<size_t>(kMaxIndexedColumns));
    Tuple probe;
    for (size_t pos = ci.built_upto; pos < rel_size; ++pos) {
      probe.clear();
      for (size_t c = 0; c < limit; ++c) {
        if ((mask & (1u << c)) == 0) continue;
        probe.push_back(rel.store.At(static_cast<RowId>(pos), c));
      }
      ci.buckets[probe].push_back(static_cast<RowId>(pos));
    }
    ci.built_upto = rel_size;
  }
  return ci;
}

void Database::SortIndex(const Relation& rel, ColumnMask mask,
                         ColumnIndex& ci) const {
  // The sorted permutation supersedes this mask's hash buckets: release
  // them (and their byte charge) rather than keep two indexes current.
  // An unsealed probe builds them while appended rows are unmerged, and a
  // retraction of exactly those rows can leave the permutation current.
  if (ci.built_upto > 0) {
    approx_bytes_ -=
        kApproxIndexEntryBytes * static_cast<int64_t>(ci.built_upto);
    ci.buckets = {};
    ci.built_upto = 0;
  }
  if (SortedCurrent(rel, ci)) return;  // O(1) reseal.
  const auto start = std::chrono::steady_clock::now();
  approx_bytes_ -= IndexBytes(ci);
  const ColumnStore& store = rel.store;
  std::vector<int> cols;
  const size_t limit = std::min<size_t>(
      static_cast<size_t>(store.arity()),
      static_cast<size_t>(kMaxIndexedColumns));
  for (size_t c = 0; c < limit; ++c) {
    if (mask & (1u << c)) cols.push_back(static_cast<int>(c));
  }
  const size_t w = cols.size();
  if (!ci.sorted) {
    ci.perm.clear();
    ci.keys.clear();
    ci.key_width = static_cast<int>(w);
    ci.sorted = true;
  }
  // Rows [sorted, n) are new since the last sort (all of them the first
  // time). Order them by the masked columns, then by row id: equal-key
  // runs ascend in insertion order, so range iteration visits exactly
  // the rows a hash bucket would, in the same order — bit-identical
  // results across access paths.
  const size_t sorted = ci.perm.size();
  const size_t n = static_cast<size_t>(store.size());
  std::vector<RowId> fresh(n - sorted);
  std::iota(fresh.begin(), fresh.end(), static_cast<RowId>(sorted));
  std::sort(fresh.begin(), fresh.end(), [&](RowId a, RowId b) {
    for (int c : cols) {
      const ConstId va = store.At(a, c);
      const ConstId vb = store.At(b, c);
      if (va != vb) return va < vb;
    }
    return a < b;
  });
  // Merge them in from the back. The sorted key values live in one flat
  // row-major array, so SortedLookup's binary search never chases perm ->
  // column pointers. Every new row's id exceeds every sorted one, so on
  // equal keys the new row goes behind. Both arrays grow to exactly the
  // rows they index, as a fresh sort would size them.
  ci.perm.reserve(n);
  ci.keys.reserve(n * w);
  ci.perm.resize(n);
  ci.keys.resize(n * w);
  auto sorted_key_above = [&](size_t i, RowId row) {
    for (size_t k = 0; k < w; ++k) {
      const ConstId a = ci.keys[i * w + k];
      const ConstId b = store.At(row, cols[k]);
      if (a != b) return a > b;
    }
    return false;
  };
  size_t i = sorted;
  size_t j = fresh.size();
  for (size_t out = n; j > 0; --out) {
    if (i > 0 && sorted_key_above(i - 1, fresh[j - 1])) {
      --i;
      ci.perm[out - 1] = ci.perm[i];
      for (size_t k = 0; k < w; ++k) {
        ci.keys[(out - 1) * w + k] = ci.keys[i * w + k];
      }
    } else {
      --j;
      ci.perm[out - 1] = fresh[j];
      for (size_t k = 0; k < w; ++k) {
        ci.keys[(out - 1) * w + k] = store.At(fresh[j], cols[k]);
      }
    }
  }
  BuildStarts(ci);
  approx_bytes_ += IndexBytes(ci);
  index_builds_.fetch_add(1, std::memory_order_relaxed);
  index_sort_micros_.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count(),
      std::memory_order_relaxed);
}

void Database::BuildStarts(ColumnIndex& ci) {
  // Dense-domain CSR offsets for single-column indexes: interned
  // ConstIds cluster near zero, so the key domain is usually within a
  // small factor of the row count and point probes collapse to one
  // offset-table load instead of a binary search.
  ci.starts.clear();
  ci.key_min = 0;
  if (ci.key_width != 1 || ci.keys.empty()) return;
  const ConstId kmin = ci.keys.front();
  const ConstId kmax = ci.keys.back();
  const int64_t domain = static_cast<int64_t>(kmax) - kmin + 1;
  if (domain > 2 * static_cast<int64_t>(ci.keys.size()) + 16) return;
  ci.key_min = kmin;
  ci.starts.resize(static_cast<size_t>(domain) + 1);
  size_t pos = 0;
  for (int64_t d = 0; d < domain; ++d) {
    ci.starts[static_cast<size_t>(d)] = static_cast<uint32_t>(pos);
    const ConstId k = kmin + static_cast<ConstId>(d);
    while (pos < ci.keys.size() && ci.keys[pos] == k) ++pos;
  }
  ci.starts[static_cast<size_t>(domain)] =
      static_cast<uint32_t>(ci.keys.size());
}

Database::ProbeOutcome Database::SortedLookup(const Relation& rel,
                                              const ColumnIndex& ci,
                                              ColumnMask mask,
                                              const Tuple& key) const {
  (void)rel;
  (void)mask;
  const size_t w = static_cast<size_t>(ci.key_width);
  HYPO_DCHECK(w == key.size()) << "probe key arity does not match mask";
  const ConstId* keys = ci.keys.data();
  const ConstId* k = key.data();
  if (w == 1 && !ci.starts.empty()) {
    // Dense single-column domain: one offset-table load bounds the run.
    const int64_t d = static_cast<int64_t>(k[0]) - ci.key_min;
    ProbeOutcome outcome;
    if (d < 0 || d + 1 >= static_cast<int64_t>(ci.starts.size()) ||
        ci.starts[static_cast<size_t>(d)] ==
            ci.starts[static_cast<size_t>(d) + 1]) {
      outcome.kind = ProbeOutcome::kNone;
      return outcome;
    }
    const size_t begin = ci.starts[static_cast<size_t>(d)];
    const size_t end = ci.starts[static_cast<size_t>(d) + 1];
    sorted_probes_.fetch_add(1, std::memory_order_relaxed);
    merge_join_rows_.fetch_add(static_cast<int64_t>(end - begin),
                               std::memory_order_relaxed);
    outcome.kind = ProbeOutcome::kRange;
    outcome.rows = ci.perm.data() + begin;
    outcome.count = end - begin;
    return outcome;
  }
  // Binary search over the flat sorted key array (stride w), tracking
  // positions rather than iterators: position i holds the key of row
  // ci.perm[i], so the [lo, hi) answer maps straight onto perm.
  size_t lo = 0;
  size_t hi = ci.perm.size();
  while (lo < hi) {  // lower bound
    const size_t mid = lo + (hi - lo) / 2;
    const ConstId* row = keys + mid * w;
    bool row_below = false;
    for (size_t i = 0; i < w; ++i) {
      if (row[i] != k[i]) {
        row_below = row[i] < k[i];
        break;
      }
    }
    if (row_below) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t begin = lo;
  hi = ci.perm.size();
  while (lo < hi) {  // upper bound, resumed from the lower bound
    const size_t mid = lo + (hi - lo) / 2;
    const ConstId* row = keys + mid * w;
    bool key_below = false;
    for (size_t i = 0; i < w; ++i) {
      if (row[i] != k[i]) {
        key_below = k[i] < row[i];
        break;
      }
    }
    if (key_below) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  ProbeOutcome outcome;
  if (begin == hi) {
    outcome.kind = ProbeOutcome::kNone;
    return outcome;
  }
  sorted_probes_.fetch_add(1, std::memory_order_relaxed);
  merge_join_rows_.fetch_add(static_cast<int64_t>(hi - begin),
                             std::memory_order_relaxed);
  outcome.kind = ProbeOutcome::kRange;
  outcome.rows = ci.perm.data() + begin;
  outcome.count = hi - begin;
  return outcome;
}

Database::ProbeOutcome Database::ProbeInternal(
    const Relation& rel, ColumnMask mask, const Tuple& key,
    const ColumnIndex** ci_cache) const {
  HYPO_DCHECK(mask != 0) << "probe with no bound columns is a full scan";
  index_probes_.fetch_add(1, std::memory_order_relaxed);
  ProbeOutcome outcome;
  const ColumnIndex* ci;
  if (ci_cache != nullptr && *ci_cache != nullptr) {
    ci = *ci_cache;
  } else {
    auto ci_it = rel.column_indexes.find(mask);
    ci = ci_it == rel.column_indexes.end() ? nullptr : &ci_it->second;
    if (ci_cache != nullptr) *ci_cache = ci;
  }
  if (ci != nullptr && SortedCurrent(rel, *ci)) {
    // Current sorted permutation: binary-search it whether sealed or
    // not — the lookup is strictly read-only either way.
    return SortedLookup(rel, *ci, mask, key);
  }
  if (sealed_) {
    // Strictly read-only: serve only indexes that were complete at seal
    // time; anything else degrades to a caller-side full scan rather
    // than mutating shared index state under concurrent readers.
    auto ci_it = rel.column_indexes.find(mask);
    if (ci_it == rel.column_indexes.end() ||
        ci_it->second.built_upto < static_cast<size_t>(rel.store.size())) {
      outcome.kind = ProbeOutcome::kScanAll;
      return outcome;
    }
    auto bucket = ci_it->second.buckets.find(key);
    if (bucket == ci_it->second.buckets.end()) return outcome;  // kNone.
    outcome.kind = ProbeOutcome::kBucket;
    outcome.bucket = &bucket->second;
    return outcome;
  }
  ColumnIndex& built = ExtendIndex(rel, mask);
  if (ci_cache != nullptr) *ci_cache = &built;
  auto bucket = built.buckets.find(key);
  if (bucket == built.buckets.end()) return outcome;  // kNone.
  outcome.kind = ProbeOutcome::kBucket;
  outcome.bucket = &bucket->second;
  return outcome;
}

Database::RowRange Database::ProbeIndex(PredicateId pred, ColumnMask mask,
                                        const Tuple& key) const {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return RowRange{};
  ProbeOutcome outcome = ProbeInternal(it->second, mask, key);
  switch (outcome.kind) {
    case ProbeOutcome::kNone:
      return RowRange{};
    case ProbeOutcome::kBucket:
      return RowRange{outcome.bucket->data(), outcome.bucket->size(), false};
    case ProbeOutcome::kRange:
      return RowRange{outcome.rows, outcome.count, false};
    case ProbeOutcome::kScanAll:
      return ScanAllMarker();
  }
  return RowRange{};
}

void Database::PrepareIndex(PredicateId pred, ColumnMask mask) const {
  HYPO_DCHECK(mask != 0) << "prepare with no bound columns";
  HYPO_DCHECK(!sealed_) << "prepare indexes before sealing";
  auto it = relations_.find(pred);
  if (it == relations_.end()) return;
  if (sorted_on_seal_) {
    // Registration is enough: the seal sorts every registered mask, so
    // building hash buckets here would be thrown away immediately.
    auto [ci_it, created] = it->second.column_indexes.try_emplace(mask);
    (void)ci_it;
    if (created) index_builds_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ExtendIndex(it->second, mask);
}

void Database::SealIndexes() const {
  for (const auto& [pred, rel] : relations_) {
    (void)pred;
    for (auto& [mask, ci] : rel.column_indexes) {
      if (sorted_on_seal_) {
        SortIndex(rel, mask, ci);
      } else {
        ExtendIndex(rel, mask);
      }
    }
  }
  sealed_ = true;
}

Status Database::Insert(std::string_view predicate,
                        const std::vector<std::string_view>& args) {
  HYPO_FAILPOINT("db.insert");
  if (sealed_) {
    return Status::FailedPrecondition(
        "insert into a sealed database; call UnsealIndexes() to start a "
        "new epoch first");
  }
  StatusOr<PredicateId> pred =
      symbols_->InternPredicate(predicate, static_cast<int>(args.size()));
  HYPO_RETURN_IF_ERROR(pred.status());
  Fact fact;
  fact.predicate = *pred;
  fact.args.reserve(args.size());
  for (std::string_view a : args) fact.args.push_back(symbols_->InternConst(a));
  Insert(fact);
  return Status::OK();
}

Database::RowsView Database::TuplesFor(PredicateId pred) const {
  RowsView view;
  auto it = relations_.find(pred);
  if (it != relations_.end()) {
    view.store_ = &it->second.store;
    view.size_ = static_cast<size_t>(it->second.store.size());
  }
  return view;
}

int Database::CountFor(PredicateId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? 0 : it->second.store.size();
}

int64_t Database::ArenaBytes() const {
  int64_t bytes = 0;
  for (const auto& [pred, rel] : relations_) {
    (void)pred;
    bytes += rel.store.ArenaBytes();
    for (const auto& [mask, ci] : rel.column_indexes) {
      (void)mask;
      bytes += SortedBytes(ci);
    }
  }
  return bytes;
}

void Database::ForEach(const std::function<void(const Fact&)>& fn) const {
  for (const auto& [pred, rel] : relations_) {
    const RowId n = rel.store.size();
    for (RowId row = 0; row < n; ++row) {
      fn(Fact{pred, RowRef(&rel.store, row).ToTuple()});
    }
  }
}

std::vector<PredicateId> Database::NonEmptyPredicates() const {
  std::vector<PredicateId> out;
  for (const auto& [pred, rel] : relations_) {
    if (!rel.store.empty()) out.push_back(pred);
  }
  return out;
}

void Database::SerializeRelations(std::string* out) const {
  std::vector<PredicateId> preds = NonEmptyPredicates();
  // NonEmptyPredicates walks an unordered map; sort so identical logical
  // contents always serialize to identical bytes.
  std::sort(preds.begin(), preds.end());
  AppendU32(out, static_cast<uint32_t>(preds.size()));
  for (PredicateId pred : preds) {
    RowsView rows = TuplesFor(pred);
    const size_t arity =
        static_cast<size_t>(symbols_->PredicateArity(pred));
    AppendU32(out, static_cast<uint32_t>(pred));
    AppendU32(out, static_cast<uint32_t>(arity));
    AppendU64(out, static_cast<uint64_t>(rows.size()));
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < arity; ++c) {
        AppendU32(out, static_cast<uint32_t>(rows.At(r, c)));
      }
    }
  }
}

Status Database::DeserializeRelations(std::string_view bytes) {
  if (!empty()) {
    return Status::FailedPrecondition(
        "DeserializeRelations requires an empty database");
  }
  ByteReader reader(bytes);
  auto npreds = reader.ReadU32();
  if (!npreds.ok()) return npreds.status();
  Fact fact;
  for (uint32_t i = 0; i < *npreds; ++i) {
    auto pred = reader.ReadU32();
    if (!pred.ok()) return pred.status();
    auto arity = reader.ReadU32();
    if (!arity.ok()) return arity.status();
    auto nrows = reader.ReadU64();
    if (!nrows.ok()) return nrows.status();
    const auto id = static_cast<PredicateId>(*pred);
    if (id < 0 || id >= symbols_->num_predicates()) {
      return Status::InvalidArgument(
          "relation snapshot references unknown predicate id " +
          std::to_string(*pred));
    }
    if (static_cast<int>(*arity) != symbols_->PredicateArity(id)) {
      return Status::InvalidArgument(
          "relation snapshot arity mismatch for predicate id " +
          std::to_string(*pred));
    }
    fact.predicate = id;
    fact.args.assign(*arity, 0);
    for (uint64_t r = 0; r < *nrows; ++r) {
      for (uint32_t c = 0; c < *arity; ++c) {
        auto v = reader.ReadU32();
        if (!v.ok()) return v.status();
        const auto cid = static_cast<ConstId>(*v);
        if (cid < 0 || cid >= symbols_->num_consts()) {
          return Status::InvalidArgument(
              "relation snapshot references unknown constant id " +
              std::to_string(*v));
        }
        fact.args[c] = cid;
      }
      Insert(fact);
    }
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "relation snapshot has trailing bytes after last relation");
  }
  return Status::OK();
}

void Database::Clear() {
  if (!relations_.empty()) BumpCursorEpoch();
  relations_.clear();
  constants_.clear();
  constant_refs_.clear();
  size_ = 0;
  approx_bytes_ = 0;
  // A cleared database is a fresh epoch: without this reset a repopulated
  // database would keep the read-only probe path forever and never build
  // indexes for its new contents (every probe degrades to a full scan).
  sealed_ = false;
}

}  // namespace hypo
