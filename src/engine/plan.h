#ifndef HYPO_ENGINE_PLAN_H_
#define HYPO_ENGINE_PLAN_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "ast/rule.h"
#include "ast/rulebase.h"
#include "ast/symbol_table.h"
#include "db/database.h"

namespace hypo {

/// One evaluation step of a rule body or query.
struct PlanStep {
  enum class Kind {
    /// Join a positive premise against available facts, binding fresh vars.
    kMatchPositive,
    /// Enumerate dom(R, DB) values for `vars` (the paper's ground
    /// substitution θ over the domain, applied lazily).
    kEnumerateVars,
    /// Test a hypothetical premise; all of its variables are bound by now.
    kHypothetical,
    /// Test a negated premise. Variables still unbound here occur only in
    /// negated premises, and get the ∄ reading (see DESIGN.md §2).
    kNegated,
  };

  Kind kind;
  int premise_index = -1;            // For premise-backed steps.
  std::vector<VarIndex> enum_vars;   // For kEnumerateVars.
  /// For kMatchPositive: the statically known bound-column signature the
  /// runtime probe will use — column i is set iff argument i is a constant
  /// or a variable bound by an earlier step. Matches BoundSignature's
  /// runtime computation exactly (including the repeated-unbound-variable
  /// case, since both computations look at the binding *before* this
  /// premise matches). The engines PrepareIndex every probe signature
  /// with it ahead of sealing the base.
  ColumnMask probe_mask = 0;
};

/// An ordered evaluation plan for a conjunction of premises.
///
/// Step order: positive premises first (greedily, by the cost model
/// below, so joins stay selective), then for each hypothetical premise an
/// enumeration of its still-unbound variables followed by the test
/// itself, then an enumeration of any unbound head variables, then the
/// negated premises. Negated premises come last so that a variable shared
/// with any binding premise is bound before the negation is tested,
/// leaving the ∄ reading only for genuinely negation-local variables.
///
/// Positive-premise cost model (greedy, lexicographic): fewest unbound
/// variables first (selectivity), then most bound columns (an indexed
/// probe beats a scan), then — when `idb` is supplied — extensional
/// before defined premises, then — when `db` is supplied — smallest
/// stored relation, then source order for determinism.
struct BodyPlan {
  std::vector<PlanStep> steps;

  /// Builds a plan for `premises` with `num_vars` rule-local variables.
  /// `head` (optional) contributes variables that must be enumerated if no
  /// premise binds them. `db` (optional) supplies extensional relation
  /// cardinalities as an ordering tie-break.
  ///
  /// Top-down callers (the tabled engine) plan per adornment: `entry_bound`
  /// (optional, num_vars entries) marks the variables bound before the
  /// body runs — the head variables at the call's bound columns — and
  /// `idb` (optional) ranks a premise whose predicate it defines after an
  /// extensional one of equal boundness: a defined relation has no stored
  /// cardinality, so a zero CountFor must not make it look cheapest.
  /// Callers that pass neither (bottom-up, the stratified prover) get
  /// exactly the head-unbound plan.
  static BodyPlan Build(const std::vector<Premise>& premises,
                        const Atom* head, int num_vars,
                        const Database* db = nullptr,
                        const std::vector<bool>* entry_bound = nullptr,
                        const RuleBase* idb = nullptr);
};

/// One line per step: premise order, kind, predicate, and probe mask.
/// Backs hypo_cli --explain-plan and the server `explain` verb.
std::string DescribePlan(const BodyPlan& plan,
                         const std::vector<Premise>& premises,
                         const SymbolTable& symbols);

}  // namespace hypo

#endif  // HYPO_ENGINE_PLAN_H_
