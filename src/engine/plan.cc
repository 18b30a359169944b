#include "engine/plan.h"

#include <algorithm>
#include <sstream>

#include "db/database.h"

namespace hypo {

namespace {

/// Appends the unbound variables of `atom` to `out` and marks them bound.
void CollectUnbound(const Atom& atom, std::vector<bool>* bound,
                    std::vector<VarIndex>* out) {
  for (const Term& t : atom.args) {
    if (t.is_var() && !(*bound)[t.var_index()]) {
      (*bound)[t.var_index()] = true;
      out->push_back(t.var_index());
    }
  }
}

int CountUnbound(const Atom& atom, const std::vector<bool>& bound) {
  int n = 0;
  for (const Term& t : atom.args) {
    if (t.is_var() && !bound[t.var_index()]) ++n;
  }
  return n;
}

/// Columns whose value is fixed before the premise runs (a constant or an
/// already-bound variable): each one narrows the index probe.
int CountBoundColumns(const Atom& atom, const std::vector<bool>& bound) {
  int n = 0;
  for (const Term& t : atom.args) {
    if (t.is_const() || bound[t.var_index()]) ++n;
  }
  return n;
}

/// The bound-column mask the runtime BoundSignature will compute for
/// `atom` given the variables bound before this step.
ColumnMask StaticProbeMask(const Atom& atom, const std::vector<bool>& bound) {
  ColumnMask mask = 0;
  int limit = std::min<int>(static_cast<int>(atom.args.size()),
                            kMaxIndexedColumns);
  for (int i = 0; i < limit; ++i) {
    const Term& t = atom.args[i];
    if (t.is_const() || bound[t.var_index()]) mask |= 1u << i;
  }
  return mask;
}

}  // namespace

BodyPlan BodyPlan::Build(const std::vector<Premise>& premises,
                         const Atom* head, int num_vars,
                         const Database* db,
                         const std::vector<bool>* entry_bound,
                         const RuleBase* idb) {
  BodyPlan plan;
  std::vector<bool> bound = entry_bound != nullptr
                                ? *entry_bound
                                : std::vector<bool>(num_vars, false);

  // 1. Positive premises, greedily cheapest-first: fewest unbound
  // variables, then most bound columns (index probes beat scans), then
  // extensional before defined (top-down callers only), then smallest
  // stored relation, then source order.
  std::vector<int> positive;
  for (int i = 0; i < static_cast<int>(premises.size()); ++i) {
    if (premises[i].kind == PremiseKind::kPositive) positive.push_back(i);
  }
  std::vector<bool> used(premises.size(), false);
  for (size_t picked = 0; picked < positive.size(); ++picked) {
    int best = -1;
    int best_unbound = 0;
    int best_cols = 0;
    bool best_defined = false;
    int best_count = 0;
    for (int i : positive) {
      if (used[i]) continue;
      const PredicateId pred = premises[i].atom.predicate;
      int u = CountUnbound(premises[i].atom, bound);
      int cols = CountBoundColumns(premises[i].atom, bound);
      bool defined = idb != nullptr && idb->IsDefined(pred);
      int count = db == nullptr ? 0 : db->CountFor(pred);
      if (best == -1 || u < best_unbound ||
          (u == best_unbound &&
           (cols > best_cols ||
            (cols == best_cols &&
             (defined < best_defined ||
              (defined == best_defined && count < best_count)))))) {
        best = i;
        best_unbound = u;
        best_cols = cols;
        best_defined = defined;
        best_count = count;
      }
    }
    used[best] = true;
    plan.steps.push_back(
        PlanStep{PlanStep::Kind::kMatchPositive, best, {},
                 StaticProbeMask(premises[best].atom, bound)});
    for (const Term& t : premises[best].atom.args) {
      if (t.is_var()) bound[t.var_index()] = true;
    }
  }

  // 2. Hypothetical premises: enumerate their unbound variables (the
  // paper's θ over dom(R, DB)), then test.
  for (int i = 0; i < static_cast<int>(premises.size()); ++i) {
    if (premises[i].kind != PremiseKind::kHypothetical) continue;
    std::vector<VarIndex> to_enum;
    CollectUnbound(premises[i].atom, &bound, &to_enum);
    for (const Atom& added : premises[i].additions) {
      CollectUnbound(added, &bound, &to_enum);
    }
    for (const Atom& deleted : premises[i].deletions) {
      CollectUnbound(deleted, &bound, &to_enum);
    }
    if (!to_enum.empty()) {
      plan.steps.push_back(
          PlanStep{PlanStep::Kind::kEnumerateVars, -1, std::move(to_enum)});
    }
    plan.steps.push_back(PlanStep{PlanStep::Kind::kHypothetical, i, {}});
  }

  // 3. Unbound head variables (unsafe heads range over the domain).
  if (head != nullptr) {
    std::vector<VarIndex> to_enum;
    CollectUnbound(*head, &bound, &to_enum);
    if (!to_enum.empty()) {
      plan.steps.push_back(
          PlanStep{PlanStep::Kind::kEnumerateVars, -1, std::move(to_enum)});
    }
  }

  // 4. Negated premises last; their remaining free variables get the ∄
  // reading inside the engines.
  for (int i = 0; i < static_cast<int>(premises.size()); ++i) {
    if (premises[i].kind == PremiseKind::kNegated) {
      plan.steps.push_back(PlanStep{PlanStep::Kind::kNegated, i, {},
                                    StaticProbeMask(premises[i].atom, bound)});
    }
  }
  return plan;
}

std::string DescribePlan(const BodyPlan& plan,
                         const std::vector<Premise>& premises,
                         const SymbolTable& symbols) {
  std::ostringstream out;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    out << "    step " << i << ": ";
    switch (step.kind) {
      case PlanStep::Kind::kMatchPositive:
        out << "match p" << step.premise_index << "="
            << symbols.PredicateName(
                   premises[step.premise_index].atom.predicate)
            << " mask=0x" << std::hex << step.probe_mask << std::dec;
        break;
      case PlanStep::Kind::kEnumerateVars:
        out << "enumerate";
        for (VarIndex v : step.enum_vars) out << " r" << v;
        break;
      case PlanStep::Kind::kHypothetical:
        out << "hypothetical p" << step.premise_index << "="
            << symbols.PredicateName(
                   premises[step.premise_index].atom.predicate);
        break;
      case PlanStep::Kind::kNegated:
        out << "negated p" << step.premise_index << "="
            << symbols.PredicateName(
                   premises[step.premise_index].atom.predicate)
            << " mask=0x" << std::hex << step.probe_mask << std::dec;
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace hypo
