#ifndef HYPO_DB_FACT_H_
#define HYPO_DB_FACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/symbol_table.h"
#include "base/hash.h"

namespace hypo {

/// The argument tuple of a ground atom.
using Tuple = std::vector<ConstId>;

/// Hashes anything tuple-shaped (size() + operator[] over ConstId): a
/// materialized Tuple or a columnar RowRef. One definition so a stored
/// row and an equal Tuple always hash alike.
template <typename Row>
uint64_t HashRowLike(const Row& row) {
  uint64_t h = row.size();
  for (size_t i = 0; i < row.size(); ++i) {
    h = HashCombine(h, static_cast<uint64_t>(row[i]));
  }
  return h;
}

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(HashRowLike(t));
  }
};

/// A ground atomic formula: database entries, hypothetical additions and
/// query answers are all Facts.
struct Fact {
  PredicateId predicate = kInvalidPredicate;
  Tuple args;

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.predicate == b.predicate && a.args == b.args;
  }
  friend bool operator!=(const Fact& a, const Fact& b) { return !(a == b); }

  /// Lexicographic order (predicate, then args); used for canonical
  /// memoization keys.
  friend bool operator<(const Fact& a, const Fact& b) {
    if (a.predicate != b.predicate) return a.predicate < b.predicate;
    return a.args < b.args;
  }
};

struct FactHash {
  size_t operator()(const Fact& f) const {
    return static_cast<size_t>(
        HashVector(f.args, static_cast<uint64_t>(f.predicate) + 0x51ed2701));
  }
};

/// Renders a fact, e.g. "edge(a, b)".
std::string FactToString(const Fact& fact, const SymbolTable& symbols);

}  // namespace hypo

#endif  // HYPO_DB_FACT_H_
