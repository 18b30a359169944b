#ifndef HYPO_ENGINE_STRATIFIED_PROVER_H_
#define HYPO_ENGINE_STRATIFIED_PROVER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/restricted.h"
#include "analysis/stratification.h"
#include "base/hash.h"
#include "db/fact_interner.h"
#include "db/overlay.h"
#include "engine/binding.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/vm/bytecode.h"
#include "engine/vm/executor.h"

namespace hypo {

/// The paper's §5.2 evaluation procedure for linearly stratified
/// rulebases: a deterministic realization of the PROVE_Σi / PROVE_Δi
/// cascade.
///
/// * PROVE_Σi (top-down, the paper's NP machine) becomes depth-first
///   backtracking over rule choices and ground substitutions, with tabling:
///   results are memoized per (ground goal, database state). Re-entering a
///   goal that is already on the DFS stack with the same state is pruned
///   (sound for least-fixpoint semantics); failures are cached only when
///   they did not depend on the pruning of a *shallower* in-progress goal,
///   the standard completion condition of tabled evaluation.
/// * PROVE_Δi (bottom-up, the paper's P machine) computes the perfect
///   model of Δ_i over the current state, substratum by substratum
///   (§5.2.2's LFP/T/TEST), invoking the Σ machinery of lower strata as
///   the oracle for hypothetical and lower-stratum premises. Δ models are
///   memoized per (stratum, state).
///
/// Hypothetical insertions use a single OverlayDatabase with undo frames:
/// each proof branch inserts, tests, and retracts, exactly the discipline
/// §5.1.2 describes.
///
/// Init() fails (InvalidArgument) if the rulebase is not linearly
/// stratifiable; the BottomUpEngine handles that general case.
class StratifiedProver : public Engine {
 public:
  /// Neither pointer is owned; both must outlive the prover.
  StratifiedProver(const RuleBase* rulebase, const Database* db,
                   EngineOptions options = EngineOptions());

  Status Init() override;
  StatusOr<bool> ProveFact(const Fact& fact) override;
  StatusOr<bool> ProveQuery(const Query& query) override;
  StatusOr<std::vector<Tuple>> Answers(const Query& query) override;

  const EngineStats& stats() const override;
  void ResetStats() override;
  std::string name() const override { return "stratified-prover"; }

  /// Premise order, probe masks, and disassembled bytecode for every
  /// rule: head-bound for Σ-headed rules, entry-unbound for
  /// Δ-headed rules (run by the DeltaModelFor fixpoint).
  std::string ExplainPlans() const override;

  /// The governance fields (timeout_micros, max_memory_bytes, cancel) may
  /// be changed between queries — e.g. to retry a tripped query with a
  /// larger budget on the same warm engine. Changing the evaluation
  /// fields after Init() is undefined.
  EngineOptions* mutable_options() override { return &options_; }

  /// Shares settled Σ goal-memo entries with a server-lifetime MemoBoard
  /// (same discipline as TabledEngine::AttachMemoBoard).
  void AttachMemoBoard(MemoBoard* board) override;

  /// The stratification computed by Init (valid afterwards).
  const LinearStratification& stratification() const { return strat_; }

 private:
  /// Tabling entry for a Σ goal.
  struct GoalEntry {
    enum class Status : uint8_t { kInProgress, kTrue, kFalse } status;
    int depth;  // DFS depth at which the goal was entered (kInProgress).
  };
  /// Memo key: interned goal fact x interned hypothetical context. Both
  /// ids are O(1) to obtain at lookup time — no per-goal vector build.
  struct GoalKey {
    FactId fact;
    ContextId context;
    friend bool operator==(const GoalKey& a, const GoalKey& b) {
      return a.fact == b.fact && a.context == b.context;
    }
  };
  struct GoalKeyHash {
    size_t operator()(const GoalKey& k) const {
      return static_cast<size_t>(
          HashCombine(static_cast<uint64_t>(k.fact),
                      static_cast<uint64_t>(k.context)));
    }
  };

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

  /// Evaluation context of one program run and the subproofs it spawns.
  struct EvalContext {
    int depth = 0;
    /// Accumulates the minimum recorded depth of any in-progress goal
    /// whose pruning this computation depended on (INT_MAX if none).
    int* min_pruned = nullptr;
    /// When non-null, a Δ model under construction: same-partition
    /// predicates match against it directly.
    Database* building_ext = nullptr;
    int building_partition = 0;
  };

  int PartitionOf(PredicateId pred) const {
    // Predicates interned after Init (by queries) are extensional.
    if (pred < 0 ||
        pred >= static_cast<int>(strat_.partition_of_pred.size())) {
      return 0;
    }
    return strat_.partition_of_pred[pred];
  }

  /// Decides R, state ⊢ goal for a ground atom (dispatch by partition).
  StatusOr<bool> ProveGround(const Fact& goal, EvalContext* ctx);

  /// PROVE_Σ for a goal whose predicate lives in an even partition.
  StatusOr<bool> ProveSigma(const Fact& goal, EvalContext* ctx);

  /// Perfect model of Δ_i over the current overlay state (memoized).
  StatusOr<const Database*> DeltaModelFor(int stratum_i);

  /// The VM's host (see BottomUpEngine::VmHost for why this is a nested
  /// class template). Defined in stratified_prover.cc.
  template <typename EmitFn>
  struct VmHost;

  /// Runs one compiled program under `ctx`. `frame->regs` arrives
  /// pre-seeded by MatchHead for Σ rule programs, all-kUnbound otherwise.
  template <typename EmitFn>
  StatusOr<bool> RunProgram(const std::vector<Premise>& premises,
                            const vm::Program& prog, EvalContext* ctx,
                            vm::FrameStack::Frame* frame,
                            const EmitFn& emit);

  /// Evaluates a query body, collecting answers (or stopping at the first
  /// witness when `answers` is null).
  Status RunQuery(const Query& query, std::vector<Tuple>* answers,
                  bool* found);

  /// True iff some extension of `binding` matches `atom` among the stored
  /// relations (base, overlay, and the given Δ model if any).
  bool ExistsStored(const Atom& atom, Binding* binding,
                    const Database* model_ext);

  Status EnsureConstants(const Query& query);
  Status EnsureFactConstants(const Fact& fact);
  Status CheckLimits();
  void ClearMemos();

  /// Approximate bytes held by the goal memo, interners, memoized Δ-model
  /// contents, and any Δ model mid-construction — O(1), read by the
  /// QueryGuard memory budget at metering frequency.
  int64_t MemoryBytes() const;

  /// Counts one domain-grounding iteration and enforces max_steps on
  /// enumeration-heavy plans (checked every 256 iterations). Inline: the
  /// fast path must cost one increment and one predictable branch.
  Status CountEnumeration() {
    if ((++stats_.enumerations & 255) != 0) return Status::OK();
    return CheckLimits();
  }

  /// Current interned context id, optionally cross-validated against the
  /// legacy canonical key (options_.validate_contexts).
  ContextId CurrentContext() const;

  /// Board-local id of the locally interned fact (cached per local id).
  FactId BoardFact(FactId local_id, const Fact& fact);

  /// Board context of the current overlay state, canonicalized for
  /// `goal_pred` when restrictions are declared (see
  /// TabledEngine::BoardContext).
  ContextId BoardContext(PredicateId goal_pred);

  const RuleBase* rulebase_;
  const Database* base_;
  EngineOptions options_;

  LinearStratification strat_;
  std::vector<BodyPlan> rule_plans_;
  /// One program per rule: Σ-headed rules compile head-bound, Δ-headed
  /// rules entry-unbound.
  std::vector<vm::Program> rule_programs_;
  /// Reusable VM frames, depth-indexed for re-entrant subproofs. Safe as
  /// an engine member: the prover serves one query at a time.
  vm::FrameStack vm_frames_;
  std::vector<ConstId> domain_;
  std::unordered_set<ConstId> domain_set_;
  std::vector<ConstId> extra_constants_;

  FactInterner interner_;
  std::unique_ptr<OverlayDatabase> overlay_;

  std::unordered_map<GoalKey, GoalEntry, GoalKeyHash> goal_memo_;
  std::unordered_map<DeltaKey, std::unique_ptr<Database>, DeltaKeyHash>
      delta_models_;
  QueryGuard guard_;
  /// Contents bytes of every memoized Δ model, accumulated at memoization
  /// and reset by ClearMemos (closes the old accounting gap where only
  /// the map entries, not the models, counted toward memo_bytes).
  int64_t delta_model_bytes_ = 0;
  /// Innermost Δ model currently under construction, so the memory budget
  /// sees in-flight fixpoints. Nested DeltaModelFor calls save/restore it;
  /// outer in-flight models go momentarily uncounted (approximation).
  const Database* building_model_ = nullptr;

  // Persistent cross-query cache (optional; see AttachMemoBoard).
  MemoBoard* board_ = nullptr;
  std::unique_ptr<RestrictionAnalysis> restrictions_;
  uint64_t domain_fp_ = 0;
  std::vector<FactId> board_facts_;  // local FactId -> board id, -1 unknown.
  std::unordered_map<ContextId, ContextId> board_contexts_;
  std::vector<int64_t> board_elems_;  // Scratch for BoardContext.

  // stats() refreshes the derived fields (context counters, memo bytes)
  // on read; the hot path only touches the plain counters.
  mutable EngineStats stats_;
  /// Index totals of the base and the Δ models; stats() reports their
  /// growth since ResetStats().
  IndexTotals CurrentIndexTotals() const;
  IndexTotals index_base_;
  bool initialized_ = false;
};

}  // namespace hypo

#endif  // HYPO_ENGINE_STRATIFIED_PROVER_H_
