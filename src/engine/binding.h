#ifndef HYPO_ENGINE_BINDING_H_
#define HYPO_ENGINE_BINDING_H_

#include <vector>

#include "ast/rule.h"
#include "base/logging.h"
#include "db/fact.h"

namespace hypo {

constexpr ConstId kUnbound = -1;

/// A partial assignment of rule-local variables to constants, indexed by
/// VarIndex. Engines mutate it in place during premise matching and undo
/// via the return values of Bind/MatchTuple.
class Binding {
 public:
  explicit Binding(int num_vars) : values_(num_vars, kUnbound) {}

  bool IsBound(VarIndex v) const { return values_[v] != kUnbound; }
  ConstId Value(VarIndex v) const { return values_[v]; }

  void Set(VarIndex v, ConstId c) { values_[v] = c; }
  void Unset(VarIndex v) { values_[v] = kUnbound; }

  /// Grows the frame to at least `num_vars` slots, new slots unbound;
  /// existing entries are untouched. For reusable scratch bindings whose
  /// users restore every Set with an Unset.
  void EnsureSize(int num_vars) {
    if (static_cast<int>(values_.size()) < num_vars) {
      values_.resize(num_vars, kUnbound);
    }
  }

  int num_vars() const { return static_cast<int>(values_.size()); }

  /// Unifies `atom`'s arguments with the ground `tuple`, binding fresh
  /// variables. On success returns true and appends newly bound variables
  /// to `trail` (so the caller can undo them); on failure the binding is
  /// left exactly as it was. `Row` is anything tuple-shaped — a
  /// materialized Tuple or a columnar RowRef — so callers match stored
  /// rows without rebuilding Tuples.
  template <typename Row>
  bool MatchTuple(const Atom& atom, const Row& tuple,
                  std::vector<VarIndex>* trail) {
    size_t undo_from = trail->size();
    HYPO_DCHECK(atom.args.size() == tuple.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (t.is_const()) {
        if (t.const_id() != tuple[i]) {
          Undo(trail, undo_from);
          return false;
        }
        continue;
      }
      VarIndex v = t.var_index();
      if (IsBound(v)) {
        if (values_[v] != tuple[i]) {
          Undo(trail, undo_from);
          return false;
        }
      } else {
        values_[v] = tuple[i];
        trail->push_back(v);
      }
    }
    return true;
  }

  /// Unbinds every variable recorded in `trail` past `from`, shrinking it.
  void Undo(std::vector<VarIndex>* trail, size_t from) {
    while (trail->size() > from) {
      values_[trail->back()] = kUnbound;
      trail->pop_back();
    }
  }

  /// True iff every variable of `atom` is bound.
  bool Grounds(const Atom& atom) const {
    for (const Term& t : atom.args) {
      if (t.is_var() && !IsBound(t.var_index())) return false;
    }
    return true;
  }

  /// Instantiates `atom` under this binding; every variable must be bound.
  Fact Ground(const Atom& atom) const {
    Fact fact;
    fact.predicate = atom.predicate;
    fact.args.reserve(atom.args.size());
    for (const Term& t : atom.args) {
      if (t.is_const()) {
        fact.args.push_back(t.const_id());
      } else {
        HYPO_DCHECK(IsBound(t.var_index())) << "grounding an unbound var";
        fact.args.push_back(values_[t.var_index()]);
      }
    }
    return fact;
  }

  const std::vector<ConstId>& values() const { return values_; }

 private:
  std::vector<ConstId> values_;
};

}  // namespace hypo

#endif  // HYPO_ENGINE_BINDING_H_
