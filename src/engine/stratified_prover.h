#ifndef HYPO_ENGINE_STRATIFIED_PROVER_H_
#define HYPO_ENGINE_STRATIFIED_PROVER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stratification.h"
#include "base/hash.h"
#include "engine/plan.h"
#include "engine/seminaive.h"
#include "engine/tabled.h"
#include "engine/vm/bytecode.h"

namespace hypo {

/// The paper's §5.2 evaluation procedure for linearly stratified
/// rulebases: PROVE_Σi top-down over PROVE_Δi bottom-up.
///
/// * PROVE_Σi is the TabledEngine's prover: Σ goals and calls are tabled
///   per (goal or call, hypothetical context) and completed per SCC.
/// * PROVE_Δi: every predicate of a Δ partition is materialized (see
///   TabledEngine). Its goals, calls and negations read the perfect model
///   of Δ_i over the current context, built substratum by substratum
///   (§5.2.2's LFP/T/TEST) by the semi-naive rounds the BottomUpEngine
///   also runs (RunSemiNaive), and memoized per (stratum, context) once
///   complete. Definition 6 puts every Σ premise and every hypothetical
///   premise of a Δ_i rule in a strictly lower partition, so the Σ
///   oracle's answers cannot change while the rounds run, and only
///   same-substratum positive premises are designated.
///
/// Init() fails (InvalidArgument) if the rulebase is not linearly
/// stratifiable — the TabledEngine and the BottomUpEngine handle that
/// general case — and (Unimplemented) on hypothetical deletion, which the
/// paper's linear stratification does not cover; so do queries with one.
class StratifiedProver : public TabledEngine {
 public:
  /// Neither pointer is owned; both must outlive the prover.
  StratifiedProver(const RuleBase* rulebase, const Database* db,
                   EngineOptions options = EngineOptions());

  Status Init() override;

  /// The tabled prover's commit (TabledEngine::ApplyBaseDelta), plus:
  /// drops every Δ model, and recompiles the Δ rules' programs only when
  /// a relation their plans watch left its 2x band.
  Status ApplyBaseDelta(const BaseDelta& delta) override;

  StatusOr<bool> ProveQuery(const Query& query) override;
  StatusOr<std::vector<Tuple>> Answers(const Query& query) override;

  const EngineStats& stats() const override;
  void ResetStats() override;
  std::string name() const override { return "stratified-prover"; }

  /// The tabled prover's compiled Σ rules, then every Δ rule's
  /// entry-unbound programs as its rounds run them.
  std::string ExplainPlans() const override;

  /// The stratification computed by Init (valid afterwards).
  const LinearStratification& stratification() const { return strat_; }

 protected:
  /// The Δ model of `pred`'s stratum in the current context: the one
  /// under construction while its rounds run, else the memoized one,
  /// built on first use.
  StatusOr<const Database*> MaterializedModel(PredicateId pred) override;
  int64_t MemoryBytes() const override;

 private:
  struct DeltaKey {
    int stratum;
    ContextId context;
    friend bool operator==(const DeltaKey& a, const DeltaKey& b) {
      return a.stratum == b.stratum && a.context == b.context;
    }
  };
  struct DeltaKeyHash {
    size_t operator()(const DeltaKey& k) const {
      return static_cast<size_t>(
          HashCombine(static_cast<uint64_t>(k.context),
                      static_cast<uint64_t>(k.stratum) + 0x9e37));
    }
  };

  /// Perfect model of Δ_stratum over the current context (memoized).
  StatusOr<const Database*> DeltaModelFor(int stratum);

  /// Index totals of the memoized Δ models.
  IndexTotals ModelIndexTotals() const;

  /// Plans and compiles every Δ rule against the current base
  /// cardinalities.
  void BuildDeltaPrograms();

  /// Drops every memoized Δ model.
  void DropDeltaModels();

  LinearStratification strat_;
  /// Per Δ rule (indexed by rule; empty for Σ rules): its plan and its
  /// entry-unbound programs, the full version first, then one per
  /// designated premise (vm::Program::delta_premise).
  std::vector<BodyPlan> delta_plans_;
  std::vector<std::vector<vm::Program>> delta_programs_;
  std::vector<RuleDeltaInfo> delta_info_;
  /// The base cardinalities the Δ plans were ordered against.
  PlannedCardinalities delta_planned_;

  std::unordered_map<DeltaKey, std::unique_ptr<Database>, DeltaKeyHash>
      delta_models_;
  /// Contents bytes of every memoized Δ model, accumulated at memoization.
  int64_t delta_model_bytes_ = 0;
  /// Per stratum, the Δ model whose rounds are running, if any. Only
  /// Δ_i's own rules read Δ_i while it is built — everything its rules
  /// call lies in lower strata — so that read is always the model under
  /// construction, in the context it is built for.
  std::vector<Database*> building_;
  /// Index builds of round deltas already destroyed, and the Δ models'
  /// index totals at ResetStats(); stats() reports the growth.
  int64_t retired_index_builds_ = 0;
  IndexTotals model_index_base_;
};

}  // namespace hypo

#endif  // HYPO_ENGINE_STRATIFIED_PROVER_H_
