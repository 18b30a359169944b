#ifndef HYPO_ENGINE_TABLED_H_
#define HYPO_ENGINE_TABLED_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>
#include <functional>

#include "analysis/restricted.h"
#include "analysis/stratification.h"
#include "base/hash.h"
#include "db/fact_interner.h"
#include "db/overlay.h"
#include "engine/binding.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/proof.h"
#include "engine/vm/bytecode.h"
#include "engine/vm/compiler.h"
#include "engine/vm/executor.h"

namespace hypo {

/// The general engine: goal-directed, tabled, top-down evaluation of
/// hypothetical rulebases with stratified negation.
///
/// Every defined predicate is proved by depth-first search over its rules
/// with memoization per (ground goal, database state); hypothetical
/// premises push additions onto an overlay with undo frames. Unlike the
/// eager BottomUpEngine, only goals actually demanded are evaluated, so
/// rules like Example 3's `within1(S, D) <- degree(S, D)[add: take(S, C)]`
/// do not drag the evaluation through the exponential lattice of addition
/// states — only the states a proof actually visits are materialized.
///
/// A defined premise with free variables is one *call*, keyed by
/// (predicate, values of its bound columns, hypothetical context). Its
/// answer table holds the stored tuples plus every head tuple its rules
/// derive with the call's bound columns as entry bindings — rules are
/// planned and compiled per adornment (which head columns are bound), so
/// bindings pass sideways instead of every free variable ranging over
/// dom(R, DB). A negated call tests its table for emptiness.
///
/// Recursion is resolved at the SCC leader (DESIGN.md "Tabled
/// evaluation"): a goal or call met again while on the proof stack, or
/// after failing inside a still-open SCC, answers false / its answers so
/// far and joins that SCC; the leader — the oldest member — re-runs the
/// SCC until no table grows, then completes every member (failures
/// included) at once. Each pass expands each member once, so the work per
/// stratum stays polynomial.
///
/// Negation-as-failure is sound here because negation is stratified: along
/// any call chain the negation stratum never increases, and a NAF subquery
/// lives strictly below every in-progress goal outside its own subtree, so
/// its answer is always definite.
///
/// A derived engine may *materialize* predicates (the StratifiedProver's
/// Δ partitions): a goal, call or negation on one reads the model
/// MaterializedModel returns for the current context instead of running
/// the predicate's rules, and a positive premise over one scans that
/// model next to the stored tuples.
///
/// This engine accepts every rulebase of Definition 3 + stratified NAF —
/// no linearity needed — and is the only one that evaluates [del:].
class TabledEngine : public Engine {
 public:
  /// Neither pointer is owned; both must outlive the engine.
  TabledEngine(const RuleBase* rulebase, const Database* db,
               EngineOptions options = EngineOptions());

  Status Init() override;
  StatusOr<bool> ProveFact(const Fact& fact) override;
  StatusOr<bool> ProveQuery(const Query& query) override;
  StatusOr<std::vector<Tuple>> Answers(const Query& query) override;

  /// Reconstructs a well-founded derivation tree for a provable ground
  /// fact (NotFound if the fact is not derivable). Reconstruction reuses
  /// the memo and call tables, so it is cheap after a Prove call; it
  /// chooses the first non-circular justification it finds.
  StatusOr<ProofNode> ExplainFact(const Fact& fact);

  const EngineStats& stats() const override;
  void ResetStats() override;
  std::string name() const override { return "tabled"; }

  /// Premise order, probe masks, and disassembled bytecode for every
  /// compiled (rule, adornment) pair, e.g. `needs/2 [bf]`. A rule
  /// no query has reached yet is shown under its ground adornment.
  std::string ExplainPlans() const override;

  /// Base scans (predicate, bound-column mask) of every plan compiled so
  /// far, so a sealing caller indexes them from the next epoch on.
  std::vector<std::pair<PredicateId, ColumnMask>> BaseProbeSignatures()
      const override;

  /// The governance fields (timeout_micros, max_memory_bytes, cancel) may
  /// be changed between queries — e.g. to retry a tripped query with a
  /// larger budget on the same warm engine. Changing the evaluation
  /// fields after Init() is undefined.
  EngineOptions* mutable_options() override { return &options_; }

  /// Shares settled goal-memo entries with a server-lifetime MemoBoard:
  /// local misses consult the board before expanding, and definite
  /// results (kTrue, completed kFalse) are published back.
  void AttachMemoBoard(MemoBoard* board) override;

  /// Follows a commit in O(batch): drops only what the base decides —
  /// the goal memo, the call tables, the open SCC members, the overlay
  /// with its context ids, and the board context map — and follows the
  /// domain in place. Keeps the stratification and restriction checks,
  /// the RestrictionAnalysis, the compiled adornments (unless a watched
  /// cardinality left its 2x band) and the probe signatures.
  Status ApplyBaseDelta(const BaseDelta& delta) override;

 protected:
  /// True iff `pred` is materialized. Predicates interned after Init (by
  /// queries) are extensional.
  bool Materialized(PredicateId pred) const {
    return pred >= 0 && pred < static_cast<PredicateId>(materialized_.size()) &&
           materialized_[pred];
  }

  /// The model a materialized predicate's goals, calls and negations read
  /// in the current context, stored tuples excluded. Never called unless
  /// a derived engine marks predicates in `materialized_`.
  virtual StatusOr<const Database*> MaterializedModel(PredicateId pred);

  /// How each premise of a body compiles: a defined positive premise is a
  /// subproof or a tabled call, an extensional or materialized one a
  /// storage scan, a negated one a kNegCall.
  std::vector<vm::PremiseMode> PremiseModes(
      const std::vector<Premise>& premises) const;

  /// Runs an entry-unbound program compiled with PremiseModes once in the
  /// current context, handing each instantiation's registers to `emit`.
  /// `delta` is the relation of the program's designated premise (a
  /// semi-naive round), null for a full instantiation. The goals and calls
  /// it makes must sit strictly below every open one, so they complete in
  /// place.
  Status RunRound(const std::vector<Premise>& premises,
                  const vm::Program& prog, const Database* delta,
                  const std::function<StatusOr<bool>(const ConstId*)>& emit);

  /// Approximate bytes held by the goal memo, the call tables and both
  /// interners — O(1), read by the QueryGuard memory budget at metering
  /// frequency. A derived engine adds its models.
  virtual int64_t MemoryBytes() const;

  Status CheckLimits();

  const RuleBase* rulebase_;
  const Database* base_;
  EngineOptions options_;
  /// Per predicate: true iff materialized (see Materialized). Set by a
  /// derived engine's Init; empty here.
  std::vector<bool> materialized_;
  /// Models a derived engine memoizes for materialized predicates; each
  /// counts as one state toward max_states.
  int64_t num_models_ = 0;
  FactInterner interner_;
  std::unique_ptr<OverlayDatabase> overlay_;
  // stats() refreshes the derived fields (context counters, memo bytes)
  // on read; the hot path only touches the plain counters.
  mutable EngineStats stats_;

 private:
  struct GoalEntry {
    /// kPendingFalse: failed while its SCC is still open — false for now,
    /// completed (kFalse) or dropped when the SCC leader finishes.
    enum class Status : uint8_t { kInProgress, kTrue, kFalse, kPendingFalse };
    Status status;
    /// Discovery index while in progress or pending; 0 once settled.
    int64_t dfn;
  };
  /// Memo key: interned goal fact x interned hypothetical context. Both
  /// ids are O(1) to obtain at lookup time — no per-goal vector build.
  /// Call tables use the same key over their interned call pattern.
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

  /// One predicate's rules planned and compiled for one adornment. Built
  /// lazily on first use; dropped by Init().
  struct AdornedRules {
    PredicateId pred = kInvalidPredicate;
    std::string adornment;              // Per head column: 'b' or 'f'.
    std::vector<int> rules;             // DefinitionOf(pred).
    std::vector<BodyPlan> plans;        // Parallel to `rules`.
    std::vector<vm::Program> programs;  // Parallel to `rules`.
  };

  /// The answer table of one call. Heap-allocated and never moved, so
  /// suspended scans may hold `&answers` while the table grows.
  struct CallTable {
    enum class State : uint8_t {
      kIncomplete,  // Answers are sound but possibly partial: re-evaluate.
      kInProgress,  // On the proof stack.
      kPending,     // Evaluated inside an SCC that is still open.
      kComplete,
    };
    struct RowHash {
      const CallTable* table;
      size_t operator()(uint32_t row) const;
    };
    struct RowEq {
      const CallTable* table;
      bool operator()(uint32_t a, uint32_t b) const;
    };

    CallTable(const AdornedRules* adorned, Fact call_pattern)
        : rules(adorned),
          pattern(std::move(call_pattern)),
          arity(pattern.args.size()),
          index(8, RowHash{this}, RowEq{this}) {}
    CallTable(const CallTable&) = delete;
    CallTable& operator=(const CallTable&) = delete;

    size_t num_answers() const { return answers.size() / arity; }

    const AdornedRules* rules;
    Fact pattern;                  // kUnbound at the free columns.
    size_t arity;
    std::vector<ConstId> answers;  // Row-major, `arity` per answer.
    std::unordered_set<uint32_t, RowHash, RowEq> index;  // Dedup by row.
    State state = State::kIncomplete;
    int64_t dfn = 0;  // Discovery index while in progress or pending.
  };

  /// A member of a still-open SCC: a pending-false goal, or a call.
  struct PendingEntry {
    GoalKey goal;
    CallTable* call;  // Null for a goal.
    FactId board_fact;
    ContextId board_ctx;
  };

  /// Decides R, state ⊢ goal for a ground atom. `depth` is the DFS depth;
  /// `low` accumulates the smallest discovery index of an open goal or
  /// call the evaluation depended on (Tarjan's lowlink).
  StatusOr<bool> ProveGoal(const Fact& goal, int depth, int64_t* low);

  /// One pass over `adorned`'s rules with `args` (kUnbound at the free
  /// columns) as the entry bindings, handing each derived head tuple to
  /// `emit`. Returns false iff `emit` stopped the pass by returning false.
  StatusOr<bool> RunRules(const AdornedRules& adorned, const Tuple& args,
                          int depth, int64_t* low,
                          const std::function<bool(const Tuple&)>& emit);

  /// Resolves the call `pattern` (kUnbound at free columns) in the current
  /// context: a complete table as is, an open one with the answers found
  /// so far (joining its SCC), otherwise evaluated now.
  StatusOr<CallTable*> SolveCall(const Fact& pattern, int depth,
                                 int64_t* low);
  Status EvaluateCall(CallTable* table, int depth, int64_t* low);
  /// Adds the visible stored tuples matching the call (inference rule 1).
  void SeedStoredAnswers(CallTable* table);
  void AddAnswer(CallTable* table, const std::vector<ConstId>& row);

  /// Leader bookkeeping after one pass of the goal or call with discovery
  /// index `dfn`, whose SCC members were pushed above `mark`: true iff it
  /// leads a non-trivial SCC in which some table grew since `growth` — the
  /// members are then reset for another pass.
  bool RerunScc(int64_t dfn, size_t mark, int64_t low, int64_t growth);
  /// Marks the members above `mark` settled: goals false, calls complete.
  void CompleteScc(size_t mark);
  /// Drops the members above `mark`: goals forgotten, calls incomplete.
  void ResetScc(size_t mark);
  /// After an abort: forgets pending goals, discards every call table
  /// that is not complete, so nothing partial is ever served.
  void DiscardIncomplete();

  /// Counts one goal or call expansion and enforces the limits.
  Status CountExpansion(int depth);

  /// Planned rules of `pred` under adornment `bound`, built on first use.
  const AdornedRules& Adorned(PredicateId pred,
                              const std::vector<bool>& bound);
  /// The all-bound adornment, cached per predicate for ground goals.
  const AdornedRules& GroundRules(PredicateId pred);
  /// Builds (without caching) the plans and programs of one adornment.
  std::unique_ptr<AdornedRules> BuildAdorned(
      PredicateId pred, const std::vector<bool>& bound) const;
  /// Records the base scans of `plan` (whose entry-bound variables are
  /// `bound`) as probe signatures.
  void RecordProbeSignatures(const BodyPlan& plan,
                             const std::vector<Premise>& premises,
                             std::vector<bool> bound);

  /// The VM's host (see BottomUpEngine::VmHost for why this is a nested
  /// class template). Defined in tabled.cc.
  template <typename EmitFn>
  struct VmHost;

  /// Runs one compiled program; `frame->regs` arrives pre-seeded by
  /// MatchHead for rule programs (head-bound) or all-kUnbound for query
  /// programs. `depth` is the rule body's depth: every subproof the host
  /// spawns runs at depth + 1, leasing its own frame. `delta` backs the
  /// designated premise of a RunRound program.
  template <typename EmitFn>
  StatusOr<bool> RunProgram(const std::vector<Premise>& premises,
                            const vm::Program& prog, int depth,
                            int64_t* low, vm::FrameStack::Frame* frame,
                            const EmitFn& emit,
                            const Database* delta = nullptr);

  /// True iff some instance of `atom` extending `binding` is provable
  /// (the ∄ reading of negated premises): a goal when ground, a stored
  /// probe for an extensional atom, otherwise the emptiness of a call.
  StatusOr<bool> ExistsProvable(const Atom& atom, Binding* binding,
                                int depth, int64_t* low);

  /// True iff a visible stored tuple, or a tuple of `model` when given,
  /// matches `atom` under `binding`.
  bool ExistsStored(const Atom& atom, Binding* binding,
                    const Database* model = nullptr);

  /// Evaluates a query body, collecting answers (or stopping at the first
  /// witness when `answers` is null).
  Status RunQuery(const Query& query, std::vector<Tuple>* answers,
                  bool* found);

  Status EnsureConstants(const Query& query);
  Status EnsureFactConstants(const Fact& fact);

  /// Counts one domain-grounding iteration and enforces max_steps on
  /// enumeration-heavy plans (checked every 256 iterations so purely
  /// extensional domain^n loops cannot run away unmetered). Inline: the
  /// fast path must cost one increment and one predictable branch.
  Status CountEnumeration() {
    if ((++stats_.enumerations & 255) != 0) return Status::OK();
    return CheckLimits();
  }

  /// Current (fact, context) memo key for `goal` — O(1), no vector build.
  GoalKey KeyFor(const Fact& goal);

  /// Board-local id of the locally interned fact `local_id` (`fact` is
  /// its content), cached per local id.
  FactId BoardFact(FactId local_id, const Fact& fact);

  /// Board context for the overlay's current state, canonicalized for
  /// `goal_pred` when restrictions are declared: context elements whose
  /// predicate cannot influence the goal's derivation are dropped, so
  /// distinct-but-equivalent overlay states share one board line.
  ContextId BoardContext(PredicateId goal_pred);

  /// Proof reconstruction: fills `out` with a justification of `goal`
  /// (which must be provable in the current overlay state), avoiding the
  /// goals in `visiting` so the derivation stays well-founded. Returns
  /// false when every justification runs through `visiting`.
  StatusOr<bool> Reconstruct(const Fact& goal,
                             std::unordered_set<GoalKey, GoalKeyHash>*
                                 visiting,
                             ProofNode* out);
  StatusOr<bool> ReconstructBody(const Rule& rule, const BodyPlan& plan,
                                 size_t step, Binding* binding,
                                 std::unordered_set<GoalKey, GoalKeyHash>*
                                     visiting,
                                 std::vector<ProofNode>* children);

  /// Drops every compiled adornment; they rebuild lazily against the
  /// current cardinalities.
  void DropPlans();

  /// Drops every memo the base decides: goal memo, call tables, open SCC
  /// members, the overlay (its context ids restart) and the board
  /// context map.
  void DropBaseState();

  /// Adorned plans by "pred:adornment"; ground_rules_ indexes the
  /// all-bound ones by predicate. Both reset by DropPlans().
  std::unordered_map<std::string, std::unique_ptr<AdornedRules>> adorned_;
  std::vector<const AdornedRules*> ground_rules_;
  /// The base cardinalities the adornments were planned against.
  PlannedCardinalities planned_;
  /// Base scan signatures of every plan built so far; survives Init() so
  /// an epoch turn prepares what the previous epoch's queries probed.
  std::set<std::pair<PredicateId, ColumnMask>> probe_signatures_;
  /// Reusable VM frames, depth-indexed for re-entrant subproofs. Safe as
  /// an engine member: the engine serves one query at a time.
  vm::FrameStack vm_frames_;
  EngineDomain domain_;
  std::vector<ConstId> extra_constants_;

  std::unordered_map<GoalKey, GoalEntry, GoalKeyHash> goal_memo_;
  std::unordered_map<GoalKey, std::unique_ptr<CallTable>, GoalKeyHash>
      calls_;
  int64_t call_bytes_ = 0;  // Approximate bytes held by calls_.
  /// Members of the SCCs still open on the proof stack, oldest first.
  std::vector<PendingEntry> pending_;
  int64_t dfn_counter_ = 0;  // Discovery index source.
  int64_t growth_ = 0;       // Bumped per new true goal or call answer.
  QueryGuard guard_;

  // Persistent cross-query cache (optional; see AttachMemoBoard).
  MemoBoard* board_ = nullptr;
  std::unique_ptr<RestrictionAnalysis> restrictions_;
  std::vector<FactId> board_facts_;  // local FactId -> board id, -1 unknown.
  std::unordered_map<ContextId, ContextId> board_contexts_;
  std::vector<int64_t> board_elems_;  // Scratch for BoardContext.

  /// The base's index totals at the last ResetStats().
  IndexTotals index_base_;
  bool initialized_ = false;
};

}  // namespace hypo

#endif  // HYPO_ENGINE_TABLED_H_
