#ifndef HYPO_DB_DATABASE_H_
#define HYPO_DB_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/symbol_table.h"
#include "base/status.h"
#include "db/columnar.h"
#include "db/fact.h"

namespace hypo {

/// Bound-column signature for generalized access paths: bit i set means
/// column i carries a bound value in index probes. Masks cover the first
/// 32 columns; columns beyond that never participate in indexes (callers
/// post-filter with MatchTuple anyway).
using ColumnMask = uint32_t;

constexpr int kMaxIndexedColumns = 32;

/// The one storage layout: flat struct-of-arrays column arenas with an
/// open-addressing row-id dedup table and optional sorted permutation
/// indexes built at seal time. The enum exists only because
/// serverbench/driver.cc passes Database::DefaultBackend() to
/// RecoverDataDir; nothing else uses it.
enum class StorageBackend { kColumnar };

/// Conservative per-fact charge for live memory-budget tracking: above
/// what a stored fact of the given arity costs in column arena and dedup
/// slots. BottomUpEngine adds it for each fact its rounds derive, and
/// replaces the running total with exact Database::ApproxBytes sums only
/// at its re-sum points: RecomputeTrackedBytes after a base repair or
/// when a query arms a memory budget, and the exact growth DeriveChild
/// and ResetToAdditions charge.
inline int64_t ApproxFactBytes(size_t arity) {
  return 2 * static_cast<int64_t>(sizeof(Tuple) +
                                  arity * sizeof(ConstId)) +
         32;
}

/// Rough per-position footprint of a hash-bucket column-index entry
/// (bucket slot plus amortized bucket/key overhead). Sorted permutation
/// indexes are accounted exactly instead (sizeof(RowId) per row).
constexpr int64_t kApproxIndexEntryBytes = 16;

/// A set of ground atomic formulas, organized per predicate.
///
/// This is both the extensional database of Definition 3 and the storage
/// used for derived models inside the engines. Tuples are stored per
/// predicate in insertion order (for deterministic iteration) with O(1)
/// dedup. Mostly append-only; Retract/RetractBatch/ClearRelation support
/// the long-lived server's epoch mutations. Retraction patches the
/// relation's column indexes in place (erased rows dropped, later row ids
/// renumbered), so an epoch turn costs what it changes.
///
/// Access paths: every (predicate, ColumnMask) signature gets an index.
/// Unsealed, that is a lazily extended hash-bucket index. On a database
/// with EnableSortedIndexes(), sealing instead sorts a permutation of row
/// ids per registered mask, so sealed probes binary-search to a
/// contiguous sorted range — the merge-join access path. Re-sealing an
/// unchanged relation is O(1) (crucial when many hypothetical child
/// states re-seal the same base), and re-sealing a grown one merges just
/// the appended rows into the permutation.
class Database {
 public:
  explicit Database(std::shared_ptr<SymbolTable> symbols)
      : symbols_(std::move(symbols)) {}

  /// Exists only for serverbench/driver.cc, which passes it to
  /// RecoverDataDir.
  static StorageBackend DefaultBackend() { return StorageBackend::kColumnar; }

  /// Databases are heavyweight; copying must be explicit via Clone().
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  Database Clone() const;

  /// Inserts `fact`. Returns true if it was not already present.
  /// The fact's arity must match the predicate's registered arity.
  /// Inserting into a sealed database auto-unseals it (the mutation starts
  /// a new epoch; see SealIndexes) — callers coordinating concurrent
  /// readers must quiesce them first, as src/server does.
  bool Insert(const Fact& fact);

  /// Convenience: interns the predicate (with arity = args.size()) and the
  /// constants, then inserts. Fails on arity mismatch. Unlike the typed
  /// overload this path REJECTS a sealed database with FailedPrecondition:
  /// it is the user-facing loader entry point, where an insert racing a
  /// sealed read phase is a caller bug worth surfacing, not an epoch turn.
  Status Insert(std::string_view predicate,
                const std::vector<std::string_view>& args);

  /// Removes `fact` if present; returns true when something was removed.
  /// Order-preserving for the remaining tuples. Every column index of the
  /// relation is patched rather than dropped: a sorted permutation loses
  /// the row's entry, its later row ids shift down by one and its dense
  /// `starts` offsets are rebuilt; hash buckets get the same drop and
  /// renumbering. Auto-unseals like Insert. O(|relation|) per relation
  /// touched (a compaction pass, no rehash and no re-sort): retraction is
  /// an epoch-boundary operation, not a join-loop one.
  bool Retract(const Fact& fact);

  /// Removes every present fact of `facts` (duplicates and absent facts
  /// are skipped); returns how many were removed. The same result as
  /// retracting them one by one, but each touched relation is compacted
  /// and its indexes patched once for the whole batch.
  int64_t RetractBatch(const std::vector<Fact>& facts);

  /// Removes every tuple of `pred`; returns how many were removed. Used
  /// by the engines' incremental repair to rebuild one stratum's derived
  /// relation in place. Auto-unseals when it removes anything.
  int64_t ClearRelation(PredicateId pred);

  bool Contains(const Fact& fact) const { return Contains(fact.predicate, fact.args); }

  /// Membership test for anything tuple-shaped (Tuple or RowRef) without
  /// materializing a Fact — the hot-path filter in join loops.
  template <typename Row>
  bool Contains(PredicateId pred, const Row& row) const {
    auto it = relations_.find(pred);
    return it != relations_.end() && it->second.store.Contains(row);
  }

  /// View of one relation's rows, in insertion order. Row ids index into
  /// it. Cold-path API (repair diffs, FactsFor, tests): hot join loops go
  /// through ForEachCandidate, which visits RowRefs without
  /// materializing Tuples.
  class RowsView {
   public:
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    ConstId At(size_t row, size_t col) const {
      return store_->At(static_cast<RowId>(row), col);
    }

    Tuple TupleAt(size_t row) const {
      return RowRef(store_, static_cast<RowId>(row)).ToTuple();
    }

   private:
    friend class Database;
    const ColumnStore* store_ = nullptr;
    size_t size_ = 0;
  };

  /// All tuples of `pred`, in insertion order. Empty if none.
  RowsView TuplesFor(PredicateId pred) const;

  /// A resolved index probe: row ids of the tuples matching the probed
  /// key. `scan_all` set means "no usable index — scan the whole relation
  /// and post-filter" (the sealed-degraded path). When the serving index
  /// is a sorted permutation the ids are a contiguous sorted slice of it
  /// (the merge-join access path); bucket-served ids are in insertion
  /// order. Either way ids ascend, so iteration order matches a filtered
  /// full scan exactly. Valid until the database is next mutated.
  struct RowRange {
    const RowId* data = nullptr;
    size_t count = 0;
    bool scan_all = false;

    bool empty() const { return count == 0 && !scan_all; }
    friend bool operator==(const RowRange& a, const RowRange& b) {
      return a.data == b.data && a.count == b.count &&
             a.scan_all == b.scan_all;
    }
    friend bool operator!=(const RowRange& a, const RowRange& b) {
      return !(a == b);
    }
  };

  /// Generalized access path: the row ids (into TuplesFor) of the tuples
  /// of `pred` whose columns selected by `mask` equal `key` (the bound
  /// values, in increasing column order).
  ///
  /// Unsealed, the hash index for a (predicate, column-mask) pair is
  /// built lazily on first probe and extended incrementally as the
  /// relation grows (retraction patches it in place). Sealed with sorted indexes enabled, the probe
  /// binary-searches the mask's sorted permutation instead. `mask` must
  /// be non-zero and `key` must have exactly popcount(mask) values.
  RowRange ProbeIndex(PredicateId pred, ColumnMask mask,
                      const Tuple& key) const;

  /// Distinguished ProbeIndex result meaning "no usable index — scan the
  /// whole relation and post-filter".
  static RowRange ScanAllMarker() { return RowRange{nullptr, 0, true}; }

  /// Hot-path join funnel: invokes `fn(row)` for each stored tuple of
  /// `pred` that can match the bound-column signature — the probed index
  /// subset when one is available, the full relation otherwise (mask 0,
  /// or the sealed-degraded scan-all path). `fn` takes a RowRef and
  /// returns false to stop, and then ForEachCandidate returns false.
  ///
  /// The scan is *snapshot-bounded*: only tuples stored when the scan
  /// started are visited, even though `fn` may insert into the same
  /// relation while the scan is in flight. Bucket iteration indexes
  /// through the stable vector object (bucket nodes never move in their
  /// unordered_map); sorted ranges are frozen permutation slices that
  /// inserts never touch (re-sorting happens only at the next seal).
  ///
  /// `report` (optional) learns whether a sorted range served the probe,
  /// and its row count: the per-caller share of sorted_probes() and
  /// merge_join_rows(), which are lifetime totals over every reader.
  struct ProbeReport {
    bool sorted = false;
    size_t rows = 0;
  };
  template <typename Fn>
  bool ForEachCandidate(PredicateId pred, ColumnMask mask, const Tuple& key,
                        Fn&& fn, ProbeReport* report = nullptr) const {
    auto it = relations_.find(pred);
    if (it == relations_.end()) return true;
    const Relation& rel = it->second;
    if (mask != 0) {
      ProbeOutcome outcome = ProbeInternal(rel, mask, key);
      switch (outcome.kind) {
        case ProbeOutcome::kNone:
          return true;
        case ProbeOutcome::kBucket: {
          const std::vector<RowId>& bucket = *outcome.bucket;
          const size_t n = bucket.size();
          for (size_t i = 0; i < n; ++i) {
            if (!fn(RowRef(&rel.store, bucket[i]))) return false;
          }
          return true;
        }
        case ProbeOutcome::kRange: {
          // A frozen slice of the sorted permutation.
          if (report != nullptr) {
            report->sorted = true;
            report->rows = outcome.count;
          }
          for (size_t i = 0; i < outcome.count; ++i) {
            if (!fn(RowRef(&rel.store, outcome.rows[i]))) return false;
          }
          return true;
        }
        case ProbeOutcome::kScanAll:
          break;  // Degrade to the full scan below.
      }
    }
    const RowId n = rel.store.size();
    for (RowId row = 0; row < n; ++row) {
      if (!fn(RowRef(&rel.store, row))) return false;
    }
    return true;
  }

  /// Eagerly registers (and on the unsealed bucket path, catches up) the
  /// index for `(pred, mask)`. A no-op when the relation is absent. The
  /// engines hoist every join signature through this before sealing; on
  /// a sorted-index database registration is enough — the seal itself
  /// builds the sorted permutation.
  void PrepareIndex(PredicateId pred, ColumnMask mask) const;

  /// Seals the database for concurrent read-only probing: every
  /// registered column index is brought up to date — sorted permutations
  /// where enabled (O(1) when one already covers its relation; otherwise
  /// the rows appended since the last sort are sorted and merged in, a
  /// full sort only the first time), hash buckets extended to the full
  /// relation otherwise — and until UnsealIndexes() every probe is
  /// strictly read-only. A sealed probe for a signature with no up-to-date index
  /// returns ScanAllMarker() instead of lazily building one. Mutating a
  /// sealed database through the typed Insert/Retract/ClearRelation
  /// paths drops the seal (a new epoch begins); doing so with readers
  /// still probing is a caller bug.
  void SealIndexes() const;
  void UnsealIndexes() const { sealed_ = false; }
  bool sealed() const { return sealed_; }

  /// Opts this database into sort-on-seal permutation indexes. Off by
  /// default because the engines' short-lived delta/ext databases reseal
  /// every fixpoint round — sorting those would be O(n log n) per round
  /// for indexes the incremental hash extension serves at O(new rows).
  /// The long-lived, read-mostly bases (the engine-owned seal in
  /// ComputeModel, the server's epoch base) enable it. One-way and
  /// logically const: an index-strategy hint, not data.
  void EnableSortedIndexes() const { sorted_on_seal_ = true; }
  bool sorted_indexes_enabled() const { return sorted_on_seal_; }

  /// Number of distinct (predicate, column-mask) indexes built so far
  /// (hash builds and sorted sorts both count), and the number of
  /// ProbeIndex calls served. Feed EngineStats.
  int64_t index_builds() const {
    return index_builds_.load(std::memory_order_relaxed);
  }
  int64_t index_probes() const {
    return index_probes_.load(std::memory_order_relaxed);
  }

  /// Probes answered from a sorted permutation range, total rows those
  /// ranges contained, and microseconds spent sorting permutations at
  /// seal time. Feed the PR 7 EngineStats counters.
  int64_t sorted_probes() const {
    return sorted_probes_.load(std::memory_order_relaxed);
  }
  int64_t merge_join_rows() const {
    return merge_join_rows_.load(std::memory_order_relaxed);
  }
  int64_t index_sort_micros() const {
    return index_sort_micros_.load(std::memory_order_relaxed);
  }

  /// Exact bytes held by the column arenas and dedup tables, plus every
  /// array a sorted seal builds (perm, keys, starts). Leaves out only the
  /// unsealed hash buckets, which ApproxBytes estimates. O(#indexes).
  int64_t ArenaBytes() const;

  /// Number of tuples of `pred`.
  int CountFor(PredicateId pred) const;

  /// Invokes `fn` for every fact in the database.
  void ForEach(const std::function<void(const Fact&)>& fn) const;

  /// Every constant appearing in some tuple. Part of dom(R, DB). Kept
  /// exact under retraction by per-constant reference counts: a constant
  /// leaves the set when its last occurrence is retracted.
  const std::unordered_set<ConstId>& constants() const { return constants_; }

  /// Predicates that have at least one tuple.
  std::vector<PredicateId> NonEmptyPredicates() const;

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear();

  /// Appends a binary snapshot of every non-empty relation: per relation
  /// (ascending PredicateId, so the bytes are deterministic) the
  /// predicate id, arity, row count, then the rows in insertion order as
  /// raw little-endian ConstIds. Symbol *names* are not included — the
  /// checkpoint persists the SymbolTable alongside so the dense ids
  /// resolve identically on load. Backs the durability layer's
  /// checkpoint dump (DESIGN.md "Durability & recovery").
  void SerializeRelations(std::string* out) const;

  /// Rebuilds relations from SerializeRelations bytes into this database
  /// (which must be empty). Every predicate id must already be interned
  /// in the shared SymbolTable with a matching arity; rows are inserted
  /// in dump order, so iteration order — and therefore every downstream
  /// engine artifact — is identical to the dumped database's.
  Status DeserializeRelations(std::string_view bytes);

  /// Heap bytes held by tuple storage and column indexes: ArenaBytes plus
  /// a kApproxIndexEntryBytes estimate per hash-bucket entry. Maintained
  /// incrementally on every insert and index build, so reading it is
  /// O(1) — the memory-budget enforcement in QueryGuard reads it at
  /// metering frequency.
  int64_t ApproxBytes() const { return approx_bytes_; }

  const SymbolTable& symbols() const { return *symbols_; }
  SymbolTable* mutable_symbols() { return symbols_.get(); }
  const std::shared_ptr<SymbolTable>& symbols_ptr() const { return symbols_; }

  /// Global invalidation epoch for cursor binding caches (see Scan):
  /// bumped by any operation, on any database, that can dangle a cached
  /// Relation or ColumnIndex pointer — relation erasure, index drops,
  /// whole-map destruction or replacement. Cursors snapshot it at bind
  /// time; bumps are rare next to probes, so the coarse process-wide
  /// granularity only costs an occasional rebind.
  static uint64_t CursorEpoch() {
    return cursor_epoch_.load(std::memory_order_acquire);
  }
  static void BumpCursorEpoch() {
    cursor_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  /// One per-mask access path. Unsealed service comes from the lazily
  /// extended hash buckets covering rows [0, built_upto). On sorted-index
  /// databases the seal replaces them with `perm` and sets `sorted`: the
  /// row ids [0, perm.size()), ordered by the masked columns and then by
  /// row id (so equal-key runs ascend in insertion order — the same visit
  /// order buckets give). Both always cover a prefix of the relation:
  /// appends extend it past them, retraction patches both in place, and
  /// the next seal merges the appended rows into `perm`. `perm` serves
  /// probes iff it covers every row (SortedCurrent).
  struct ColumnIndex {
    std::unordered_map<Tuple, std::vector<RowId>, TupleHash> buckets;
    size_t built_upto = 0;
    std::vector<RowId> perm;
    /// Masked column values of perm[i], row-major with stride key_width:
    /// the binary search runs over this flat array with no perm->column
    /// indirection, so each probe step is one contiguous load.
    std::vector<ConstId> keys;
    int key_width = 0;
    /// Single-column dense-domain acceleration (CSR offsets): when the
    /// key domain [key_min, key_min + starts.size() - 2] is dense —
    /// interned ConstIds usually are — starts[k - key_min] and the next
    /// entry bound the key's run in perm, making point probes O(1)
    /// instead of a binary search. Empty when unbuilt or too sparse.
    std::vector<uint32_t> starts;
    ConstId key_min = 0;
    bool sorted = false;
  };

  struct Relation {
    explicit Relation(int arity) : store(arity) {}
    ColumnStore store;
    // Generalized access paths, registered/built on demand per mask.
    mutable std::unordered_map<ColumnMask, ColumnIndex> column_indexes;
  };

  /// True iff `ci`'s sorted permutation covers every row of `rel`.
  static bool SortedCurrent(const Relation& rel, const ColumnIndex& ci) {
    return ci.sorted && ci.perm.size() == static_cast<size_t>(rel.store.size());
  }

  /// How ProbeInternal answered; consumed by ForEachCandidate and
  /// repackaged as a RowRange by the public ProbeIndex.
  struct ProbeOutcome {
    enum Kind { kNone, kBucket, kRange, kScanAll };
    Kind kind = kNone;
    const std::vector<RowId>* bucket = nullptr;  // kBucket
    const RowId* rows = nullptr;                 // kRange
    size_t count = 0;                            // kRange
  };

  /// `ci_cache`, when non-null, caches the mask's ColumnIndex slot
  /// across repeated probes of the same (relation, mask): a cached
  /// non-null pointer skips the index-map lookup (validity — sorted
  /// version, built range — is still rechecked every call, and the slot
  /// itself is pointer-stable until an epoch-bumping drop). Callers own
  /// invalidation via CursorEpoch.
  ProbeOutcome ProbeInternal(const Relation& rel, ColumnMask mask,
                             const Tuple& key,
                             const ColumnIndex** ci_cache = nullptr) const;

  /// Binary-searches `ci.perm` for the rows matching `key` under `mask`.
  ProbeOutcome SortedLookup(const Relation& rel, const ColumnIndex& ci,
                            ColumnMask mask, const Tuple& key) const;

  /// Builds or extends the hash-bucket index for `mask` over `rel`. Must
  /// not be called while sealed.
  ColumnIndex& ExtendIndex(const Relation& rel, ColumnMask mask) const;

  /// Brings the permutation index for `mask` up to date: O(1) when it
  /// already covers the relation, a merge of the rows appended since
  /// otherwise (a full sort the first time). Drops the mask's hash
  /// buckets — the sorted permutation supersedes them.
  void SortIndex(const Relation& rel, ColumnMask mask, ColumnIndex& ci) const;

  /// Rebuilds `ci`'s dense single-column `starts` offsets from its sorted
  /// keys; leaves them empty for a multi-column index or a sparse domain.
  static void BuildStarts(ColumnIndex& ci);

  /// Refcount bookkeeping behind constants(): every tuple position holds
  /// one reference to its constant.
  void AddConstantRefs(const Tuple& args);
  void DropConstantRefs(const RowRef& row);

  /// Discards every column index of `rel` (with byte accounting), for a
  /// relation about to be destroyed.
  void DropRelationIndexes(const Relation& rel);

  /// Exact bytes of the arrays a sorted seal builds for `ci`.
  static int64_t SortedBytes(const ColumnIndex& ci) {
    return static_cast<int64_t>(ci.perm.capacity()) * sizeof(RowId) +
           static_cast<int64_t>(ci.keys.capacity()) * sizeof(ConstId) +
           static_cast<int64_t>(ci.starts.capacity()) * sizeof(uint32_t);
  }

  /// Bytes currently charged to `ci` in approx_bytes_.
  static int64_t IndexBytes(const ColumnIndex& ci) {
    return kApproxIndexEntryBytes * static_cast<int64_t>(ci.built_upto) +
           SortedBytes(ci);
  }

  /// Relation storage. The wrapper bumps the cursor epoch whenever the
  /// map's nodes are about to be destroyed wholesale — destruction or
  /// assignment-over — so Scan binding caches never dangle; node-level
  /// erasure and index drops bump at their call sites. Move
  /// construction transfers nodes, so cached pointers stay valid.
  struct RelationMap : std::unordered_map<PredicateId, Relation> {
    RelationMap() = default;
    RelationMap(const RelationMap&) = default;
    RelationMap(RelationMap&&) = default;
    RelationMap& operator=(const RelationMap& other) {
      if (!empty()) BumpCursorEpoch();
      unordered_map::operator=(other);
      return *this;
    }
    RelationMap& operator=(RelationMap&& other) {
      if (!empty()) BumpCursorEpoch();
      unordered_map::operator=(std::move(other));
      return *this;
    }
    ~RelationMap() {
      if (!empty()) BumpCursorEpoch();
    }
  };

  /// Erases `rows` (ascending distinct row ids of `it`'s relation) from
  /// the relation, patching its column indexes; erases the relation
  /// itself when it empties. The one retraction path.
  void EraseRows(RelationMap::iterator it, const std::vector<RowId>& rows);

  static inline std::atomic<uint64_t> cursor_epoch_{1};

  std::shared_ptr<SymbolTable> symbols_;
  RelationMap relations_;
  std::unordered_set<ConstId> constants_;
  std::unordered_map<ConstId, int64_t> constant_refs_;
  int64_t size_ = 0;
  /// Incremental ApproxBytes total. Mutable because lazy index builds
  /// (const paths) grow it; never touched while sealed, so no atomics.
  mutable int64_t approx_bytes_ = 0;
  /// While true, probes never mutate index state (see SealIndexes).
  /// Flipped only between epochs, never concurrently with reads.
  mutable bool sealed_ = false;
  /// See EnableSortedIndexes().
  mutable bool sorted_on_seal_ = false;
  /// Counters are atomic so concurrent sealed probes stay exact (plain
  /// mutable increments in a const method would be a data race).
  mutable std::atomic<int64_t> index_builds_{0};
  mutable std::atomic<int64_t> index_probes_{0};
  mutable std::atomic<int64_t> sorted_probes_{0};
  mutable std::atomic<int64_t> merge_join_rows_{0};
  mutable std::atomic<int64_t> index_sort_micros_{0};

 public:
  /// Resumable cursor over exactly the candidate set ForEachCandidate
  /// would visit — same probe (and probe counters), same order, same
  /// snapshot bound — for callers that interleave other work between
  /// rows (the bytecode executor's backtracking join). Column access is
  /// per-cell, so no Tuple is materialized.
  class Scan {
   public:
    Scan() = default;

    /// Opens the cursor. `mask`/`key` follow ProbeIndex's contract; mask 0
    /// scans the whole relation. Snapshot-bounded like ForEachCandidate:
    /// rows inserted after Open are not visited.
    ///
    /// Inner-loop joins re-open the cursor once per outer row, so the
    /// (db, pred) -> relation and mask -> index resolutions are cached
    /// across opens and revalidated against the global CursorEpoch —
    /// two hash lookups per row collapse to pointer reuse. An absent
    /// relation is re-probed every open (it can appear mid-fixpoint).
    void Open(const Database& db, PredicateId pred, ColumnMask mask,
              const Tuple& key) {
      pos_ = 0;
      count_ = 0;
      index_served_ = false;
      const uint64_t epoch = Database::CursorEpoch();
      if (&db != bound_db_ || pred != bound_pred_ ||
          epoch != bound_epoch_ || bound_rel_ == nullptr) {
        bound_db_ = &db;
        bound_pred_ = pred;
        bound_epoch_ = epoch;
        bound_mask_ = 0;
        bound_ci_ = nullptr;
        auto it = db.relations_.find(pred);
        bound_rel_ = it == db.relations_.end() ? nullptr : &it->second;
      }
      rel_ = bound_rel_;
      if (rel_ == nullptr) return;
      mode_ = Mode::kFull;
      if (mask != 0) {
        if (mask != bound_mask_) {
          bound_mask_ = mask;
          bound_ci_ = nullptr;
        }
        ProbeOutcome outcome =
            db.ProbeInternal(*rel_, mask, key, &bound_ci_);
        switch (outcome.kind) {
          case ProbeOutcome::kNone:
            rel_ = nullptr;
            return;
          case ProbeOutcome::kBucket:
            mode_ = Mode::kBucket;
            bucket_ = outcome.bucket;
            count_ = bucket_->size();
            index_served_ = true;
            return;
          case ProbeOutcome::kRange:
            mode_ = Mode::kRange;
            rows_ = outcome.rows;
            count_ = outcome.count;
            index_served_ = true;
            return;
          case ProbeOutcome::kScanAll:
            break;  // Degrade to the full scan below.
        }
      }
      count_ = static_cast<size_t>(rel_->store.size());
    }

    bool AtEnd() const { return pos_ >= count_; }
    void Next() { ++pos_; }

    /// True when the rows come from an index keyed on the probe mask, so
    /// masked columns are guaranteed to equal the key already.
    bool index_served() const { return index_served_; }

    /// True when a sorted permutation range served the probe; size() is
    /// then that range's row count. The caller's share of sorted_probes()
    /// and merge_join_rows() (see ForEachCandidate's ProbeReport).
    bool sorted_range() const { return mode_ == Mode::kRange; }
    size_t size() const { return count_; }

    /// Storage row id at the cursor position, resolved once per row so
    /// column reads skip the mode dispatch.
    RowId CurrentId() const {
      switch (mode_) {
        case Mode::kBucket:
          return (*bucket_)[pos_];
        case Mode::kRange:
          return rows_[pos_];
        default:
          return static_cast<RowId>(pos_);
      }
    }

    /// The row at the cursor position, for HashRowLike / Contains /
    /// TupleVisible. Pins the row id: one mode dispatch per row, direct
    /// column loads after.
    RowRef CurrentRow() const { return RowRef(&rel_->store, CurrentId()); }

   private:
    enum class Mode : uint8_t { kFull, kBucket, kRange };
    const Relation* rel_ = nullptr;
    const std::vector<RowId>* bucket_ = nullptr;  // kBucket
    const RowId* rows_ = nullptr;                 // kRange
    size_t pos_ = 0;
    size_t count_ = 0;
    Mode mode_ = Mode::kFull;
    bool index_served_ = false;
    // Binding cache, revalidated against CursorEpoch on every Open.
    const Database* bound_db_ = nullptr;
    const Relation* bound_rel_ = nullptr;
    const ColumnIndex* bound_ci_ = nullptr;
    uint64_t bound_epoch_ = 0;
    PredicateId bound_pred_ = -1;
    ColumnMask bound_mask_ = 0;
  };
};

}  // namespace hypo

#endif  // HYPO_DB_DATABASE_H_
