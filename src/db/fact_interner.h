#ifndef HYPO_DB_FACT_INTERNER_H_
#define HYPO_DB_FACT_INTERNER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "db/fact.h"

namespace hypo {

/// Dense id of an interned ground fact, local to one FactInterner.
using FactId = int32_t;

/// Interns ground facts to dense ids.
///
/// The engines memoize evaluation results per database *state*; a state's
/// canonical key is the sorted vector of FactIds of its hypothetically
/// added facts, which keeps keys compact and hashing cheap even when a
/// proof path has inserted hundreds of facts (as the §5.1 Turing-machine
/// encodings do).
class FactInterner {
 public:
  FactInterner() = default;
  FactInterner(const FactInterner&) = delete;
  FactInterner& operator=(const FactInterner&) = delete;

  /// Returns the id of `fact`, interning it on first use.
  FactId Intern(const Fact& fact) {
    auto it = index_.find(fact);
    if (it != index_.end()) return it->second;
    FactId id = static_cast<FactId>(facts_.size());
    facts_.push_back(fact);
    index_.emplace(fact, id);
    // The fact is stored twice (dense vector + index key).
    approx_bytes_ +=
        2 * static_cast<int64_t>(sizeof(Fact) +
                                 fact.args.size() * sizeof(ConstId)) +
        32;
    return id;
  }

  /// Returns the id of `fact` if already interned, -1 otherwise. Never
  /// mutates, so scan filters can probe without growing the table.
  FactId Find(const Fact& fact) const {
    auto it = index_.find(fact);
    return it == index_.end() ? -1 : it->second;
  }

  const Fact& Get(FactId id) const { return facts_[id]; }
  int size() const { return static_cast<int>(facts_.size()); }

  /// Rough footprint of the table; O(1) (for the engines' memory-budget
  /// accounting).
  int64_t ApproxBytes() const { return approx_bytes_; }

 private:
  std::vector<Fact> facts_;
  std::unordered_map<Fact, FactId, FactHash> index_;
  int64_t approx_bytes_ = 0;
};

}  // namespace hypo

#endif  // HYPO_DB_FACT_INTERNER_H_
