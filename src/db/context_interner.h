#ifndef HYPO_DB_CONTEXT_INTERNER_H_
#define HYPO_DB_CONTEXT_INTERNER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "db/fact_interner.h"

namespace hypo {

/// Dense id of an interned hypothetical context (a canonical overlay
/// state), local to one ContextInterner. Id 0 is always the empty context.
using ContextId = int32_t;

/// Hash-conses hypothetical-context states so that a database state is a
/// single integer instead of a sorted FactId vector.
///
/// A context is a set of *elements*: the visible hypothetical additions
/// and the masked base facts of an OverlayDatabase (exactly the
/// information the legacy CanonicalKey() vector carried). Each distinct
/// set gets one dense ContextId; two overlays in the same visible state
/// always report the same id, so the engines can memoize goals per
/// (FactId, ContextId) pair with no per-goal key construction.
///
/// Transitions are the hot path: Apply(from, elem, insert) returns the id
/// of `from` with one element inserted/erased. Every traversed edge is
/// cached bidirectionally, so a proof branch that pushes and pops the
/// same hypothetical frame (the overwhelmingly common pattern — the
/// paper's "inserted ... tested ... and then retracted" discipline)
/// performs O(1) hash lookups after the first visit; only the first visit
/// to a brand-new context pays O(|context|) to build its canonical set.
class ContextInterner {
 public:
  static constexpr ContextId kEmptyContext = 0;

  ContextInterner();
  ContextInterner(const ContextInterner&) = delete;
  ContextInterner& operator=(const ContextInterner&) = delete;

  /// Context element for a visible hypothetical addition.
  static int64_t AddedElement(FactId id) {
    return static_cast<int64_t>(id) << 1;
  }
  /// Context element for a masked (hypothetically deleted) base fact.
  static int64_t MaskedElement(FactId id) {
    return (static_cast<int64_t>(id) << 1) | 1;
  }

  /// Id of `from` with `elem` inserted; `elem` must not be present.
  ContextId Insert(ContextId from, int64_t elem) {
    return Apply(from, elem, /*insert=*/true);
  }
  /// Id of `from` with `elem` erased; `elem` must be present.
  ContextId Erase(ContextId from, int64_t elem) {
    return Apply(from, elem, /*insert=*/false);
  }

  /// Interns the context whose elements are exactly the additions in
  /// `added` (which must be sorted and duplicate-free). The direct route
  /// to a ContextId for callers that hold a canonical added-fact set
  /// rather than an overlay walk — the BottomUpEngine keys its state
  /// map this way.
  ContextId InternAddedSet(const std::vector<FactId>& added);

  /// The canonical (sorted) element set of `id`.
  const std::vector<int64_t>& Elements(ContextId id) const {
    return *elements_by_id_[id];
  }

  int num_contexts() const {
    return static_cast<int>(elements_by_id_.size());
  }
  int64_t transitions() const { return transitions_; }
  int64_t transition_hits() const { return transition_hits_; }

  /// Rough footprint of the interner (canonical sets + both hash maps).
  /// Maintained incrementally, so reading is O(1): the memory budget in
  /// QueryGuard polls this at metering frequency.
  size_t ApproxBytes() const { return static_cast<size_t>(approx_bytes_); }

 private:
  struct EdgeKey {
    ContextId from;
    int64_t elem;
    bool insert;
    friend bool operator==(const EdgeKey& a, const EdgeKey& b) {
      return a.from == b.from && a.elem == b.elem && a.insert == b.insert;
    }
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      uint64_t h = HashCombine(static_cast<uint64_t>(k.from),
                               static_cast<uint64_t>(k.elem));
      return static_cast<size_t>(
          HashCombine(h, static_cast<uint64_t>(k.insert)));
    }
  };
  struct ElementsHash {
    size_t operator()(const std::vector<int64_t>& v) const {
      return static_cast<size_t>(HashVector(v, v.size()));
    }
  };

  ContextId Apply(ContextId from, int64_t elem, bool insert);
  ContextId InternElements(std::vector<int64_t> elems);

  /// Canonical set -> id. The map owns the vectors; elements_by_id_
  /// points at the node-stable keys.
  std::unordered_map<std::vector<int64_t>, ContextId, ElementsHash> index_;
  std::vector<const std::vector<int64_t>*> elements_by_id_;
  std::unordered_map<EdgeKey, ContextId, EdgeKeyHash> edges_;

  int64_t transitions_ = 0;
  int64_t transition_hits_ = 0;
  int64_t approx_bytes_ = 0;
};

}  // namespace hypo

#endif  // HYPO_DB_CONTEXT_INTERNER_H_
