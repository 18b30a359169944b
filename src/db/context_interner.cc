#include "db/context_interner.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"

namespace hypo {

ContextInterner::ContextInterner() {
  ContextId id = InternElements({});
  HYPO_CHECK(id == kEmptyContext);
}

ContextId ContextInterner::InternElements(std::vector<int64_t> elems) {
  auto [it, inserted] =
      index_.emplace(std::move(elems),
                     static_cast<ContextId>(elements_by_id_.size()));
  if (inserted) {
    elements_by_id_.push_back(&it->first);
    approx_bytes_ += static_cast<int64_t>(
        sizeof(std::vector<int64_t>) + it->first.capacity() * sizeof(int64_t) +
        sizeof(ContextId) + 3 * sizeof(void*));
  }
  return it->second;
}

ContextId ContextInterner::InternAddedSet(const std::vector<FactId>& added) {
  std::vector<int64_t> elems;
  elems.reserve(added.size());
  for (FactId id : added) elems.push_back(AddedElement(id));
  HYPO_DCHECK(std::is_sorted(elems.begin(), elems.end()))
      << "InternAddedSet requires a sorted added-fact set";
  return InternElements(std::move(elems));
}

ContextId ContextInterner::Apply(ContextId from, int64_t elem, bool insert) {
  ++transitions_;
  EdgeKey key{from, elem, insert};
  auto it = edges_.find(key);
  if (it != edges_.end()) {
    ++transition_hits_;
    return it->second;
  }
  const std::vector<int64_t>& cur = Elements(from);
  std::vector<int64_t> next;
  next.reserve(cur.size() + (insert ? 1 : 0));
  auto pos = std::lower_bound(cur.begin(), cur.end(), elem);
  if (insert) {
    HYPO_DCHECK(pos == cur.end() || *pos != elem)
        << "inserting an element already in the context";
    next.insert(next.end(), cur.begin(), pos);
    next.push_back(elem);
    next.insert(next.end(), pos, cur.end());
  } else {
    HYPO_DCHECK(pos != cur.end() && *pos == elem)
        << "erasing an element not in the context";
    next.insert(next.end(), cur.begin(), pos);
    next.insert(next.end(), pos + 1, cur.end());
  }
  ContextId to = InternElements(std::move(next));
  constexpr int64_t kEdgeBytes =
      sizeof(EdgeKey) + sizeof(ContextId) + 2 * sizeof(void*);
  int64_t edge_bytes = 0;
  if (edges_.emplace(key, to).second) edge_bytes += kEdgeBytes;
  // The inverse edge is free knowledge: record it so the pop side of a
  // push/pop pair never rebuilds a set either.
  if (edges_.emplace(EdgeKey{to, elem, !insert}, from).second) {
    edge_bytes += kEdgeBytes;
  }
  approx_bytes_ += edge_bytes;
  return to;
}

}  // namespace hypo
