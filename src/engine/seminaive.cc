#include "engine/seminaive.h"

#include <algorithm>
#include <utility>

#include "base/failpoint.h"

namespace hypo {

namespace {

/// The versions one round of `group`'s fixpoint evaluates (see
/// RunSemiNaive).
void RoundVersions(const RuleBase& program, const std::vector<int>& group,
                   const std::vector<RuleDeltaInfo>& info,
                   const std::unordered_set<PredicateId>& changed_last,
                   bool first_round, std::vector<RuleVersion>* versions) {
  versions->clear();
  for (int rule_index : group) {
    if (first_round) {
      // Round 0 instantiates every rule over the full relations (the
      // semi-naive base case).
      versions->push_back({rule_index, -1});
      continue;
    }
    // A rule whose hypothetical premise watches a same-group predicate
    // that just changed cannot be delta-restricted (the premise is a
    // test, not a generator): fall back to a full instantiation.
    const RuleDeltaInfo& rule_info = info[rule_index];
    bool full = false;
    for (PredicateId p : rule_info.hypo_sensitive_preds) {
      if (changed_last.count(p) > 0) {
        full = true;
        break;
      }
    }
    if (full) {
      versions->push_back({rule_index, -1});
      continue;
    }
    // The standard rewrite: one rule version per changed positive
    // premise, that premise ranging over last round's delta only.
    const std::vector<Premise>& premises = program.rule(rule_index).premises;
    for (int premise_index : rule_info.delta_premises) {
      if (changed_last.count(premises[premise_index].atom.predicate) > 0) {
        versions->push_back({rule_index, premise_index});
      }
    }
  }
}

}  // namespace

void ComputeRuleDeltaInfo(const RuleBase& program,
                          const std::vector<int>& group,
                          std::vector<RuleDeltaInfo>* info) {
  std::unordered_set<PredicateId> changing;
  for (int r : group) changing.insert(program.rule(r).head.predicate);
  for (int r : group) {
    const Rule& rule = program.rule(r);
    RuleDeltaInfo& rule_info = (*info)[r];
    rule_info = RuleDeltaInfo();
    for (int i = 0; i < static_cast<int>(rule.premises.size()); ++i) {
      const Premise& p = rule.premises[i];
      if (changing.count(p.atom.predicate) == 0) continue;
      if (p.kind == PremiseKind::kPositive) {
        rule_info.delta_premises.push_back(i);
      } else if (p.kind == PremiseKind::kHypothetical) {
        rule_info.hypo_sensitive_preds.push_back(p.atom.predicate);
      }
    }
  }
}

Status RunSemiNaive(const RuleBase& program, const std::vector<int>& group,
                    const std::vector<RuleDeltaInfo>& info,
                    const EvaluateVersionFn& evaluate, EngineStats* stats,
                    int64_t* retired_index_builds) {
  // Predicates whose relations gained tuples in the previous round, and
  // the new tuples themselves, rotated per round.
  std::unordered_set<PredicateId> changed_last;
  std::unordered_set<PredicateId> changed_now;
  Database delta(program.symbols_ptr());
  Database next_delta(program.symbols_ptr());
  std::vector<RuleVersion> versions;
  // A group in which no rule designates a premise or watches a changing
  // predicate hypothetically reads no round delta: round 0 is its whole
  // fixpoint, and its facts need no copy into one.
  const bool recursive =
      std::any_of(group.begin(), group.end(), [&info](int r) {
        return !info[r].delta_premises.empty() ||
               !info[r].hypo_sensitive_preds.empty();
      });
  bool first_round = true;
  while (true) {
    ++stats->fixpoint_rounds;
    HYPO_FAILPOINT("seminaive.round");
    RoundVersions(program, group, info, changed_last, first_round,
                  &versions);
    for (const RuleVersion& v : versions) {
      HYPO_RETURN_IF_ERROR(evaluate(v, v.delta_premise >= 0 ? &delta : nullptr,
                                    recursive ? &next_delta : nullptr,
                                    &changed_now));
    }
    if (!recursive || changed_now.empty()) break;
    *retired_index_builds += delta.index_builds();
    delta = std::move(next_delta);
    next_delta = Database(program.symbols_ptr());
    changed_last = std::move(changed_now);
    changed_now.clear();
    first_round = false;
  }
  *retired_index_builds += delta.index_builds() + next_delta.index_builds();
  return Status::OK();
}

}  // namespace hypo
