#ifndef HYPO_ENGINE_SEMINAIVE_H_
#define HYPO_ENGINE_SEMINAIVE_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "ast/rulebase.h"
#include "base/status.h"
#include "db/database.h"
#include "engine/engine.h"

namespace hypo {

/// Static per-rule facts for the tuple-level semi-naive rewrite, computed
/// once per program build against the rule group whose fixpoint runs the
/// rule: a stratum of the BottomUpEngine, a Δ substratum of the
/// StratifiedProver.
struct RuleDeltaInfo {
  /// Positive premises whose predicate can gain tuples during the
  /// group's fixpoint; each is designated as the delta premise of one
  /// rewritten rule version.
  std::vector<int> delta_premises;
  /// Queried predicates of hypothetical premises that live in the same
  /// group: `A[add: C̄]` degenerates to a test of A when every C is
  /// already present, so the premise can flip as A's relation grows —
  /// such rules fall back to full re-evaluation in rounds where one of
  /// these predicates changed.
  std::vector<PredicateId> hypo_sensitive_preds;
};

/// Fills `(*info)[r]` for every rule r of `group`: the relations of the
/// group's heads are the ones that can gain tuples while it runs. Negated
/// premises live strictly below their group (stratified negation), so
/// they never flip mid-fixpoint. `info` is indexed by rule.
void ComputeRuleDeltaInfo(const RuleBase& program,
                          const std::vector<int>& group,
                          std::vector<RuleDeltaInfo>* info);

/// One rule version of a semi-naive round: the rule with premise
/// `delta_premise` ranging over last round's new tuples only, or (-1)
/// the full instantiation.
struct RuleVersion {
  int rule;
  int delta_premise;
};

/// Evaluates one rule version. `delta` holds last round's new tuples for
/// a version that designates a premise, null for a full instantiation.
/// Each derived fact not yet in the model goes into the model and, unless
/// `next_delta` is null (a group no later round reads), into
/// `next_delta`; its predicate goes into `changed`.
using EvaluateVersionFn = std::function<Status(
    const RuleVersion& version, const Database* delta, Database* next_delta,
    std::unordered_set<PredicateId>* changed)>;

/// Runs `group` to its fixpoint in semi-naive rounds: every rule in full
/// in the first round; afterwards one version per positive premise whose
/// predicate changed last round, or the full rule when one of its
/// hypothetical premises watches a changed predicate of the group. A
/// group with neither (no rule reads the group's own heads) runs round 0
/// alone, with a null `next_delta`.
/// Counts rounds in `stats->fixpoint_rounds` and the index builds of the
/// per-round delta relations, destroyed on return, in
/// `*retired_index_builds`.
Status RunSemiNaive(const RuleBase& program, const std::vector<int>& group,
                    const std::vector<RuleDeltaInfo>& info,
                    const EvaluateVersionFn& evaluate, EngineStats* stats,
                    int64_t* retired_index_builds);

}  // namespace hypo

#endif  // HYPO_ENGINE_SEMINAIVE_H_
