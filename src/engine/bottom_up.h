#ifndef HYPO_ENGINE_BOTTOM_UP_H_
#define HYPO_ENGINE_BOTTOM_UP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/stratification.h"
#include "db/context_interner.h"
#include "db/fact_interner.h"
#include "engine/binding.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/seminaive.h"
#include "engine/vm/bytecode.h"
#include "engine/vm/executor.h"

namespace hypo {

/// The reference evaluation procedure for hypothetical rulebases with
/// stratified negation (§3 + §3.1): a memoized, per-database-state
/// perfect-model computation.
///
/// A *state* is the base database plus a set of hypothetically added
/// facts. For each state the engine computes the perfect model bottom-up,
/// stratum by stratum; a hypothetical premise `A[add: C̄]` encountered
/// during the fixpoint triggers (memoized) evaluation of the strictly
/// larger state `DB + C̄`, or degenerates to a positive premise when every
/// added fact is already a database fact of the current state. States only
/// grow, so the recursion is well-founded; the number of states can be
/// exponential in the database (the paper's PSPACE-hardness), which the
/// `max_states` option converts into a clean error. A new child of the
/// complete base state is derived from the base model by delta repair
/// (DeriveChild) whenever the program allows it, instead of from empty.
///
/// Every state gets its whole model, computed once, as PROVE_Δ does.
/// Goal-directed answering of bound queries is the TabledEngine's job.
///
/// One thread at a time uses the engine, and it starts no thread of its
/// own (DESIGN.md "Concurrency").
///
/// This engine makes no linearity assumption — it accepts every rulebase
/// the paper's inference system defines (Definition 3 + stratified NAF).
class BottomUpEngine : public Engine {
 public:
  /// Neither pointer is owned; both must outlive the engine.
  BottomUpEngine(const RuleBase* rulebase, const Database* db,
                 EngineOptions options = EngineOptions());

  Status Init() override;
  StatusOr<bool> ProveFact(const Fact& fact) override;
  StatusOr<bool> ProveQuery(const Query& query) override;
  StatusOr<std::vector<Tuple>> Answers(const Query& query) override;

  /// All tuples of `pred` derivable at the base state (extensional plus
  /// derived). Convenience for examples and tests.
  StatusOr<std::vector<Tuple>> FactsFor(PredicateId pred);

  const EngineStats& stats() const override;
  void ResetStats() override;
  std::string name() const override { return "bottom-up"; }

  /// Number of distinct database states currently memoized.
  int64_t num_states() const { return static_cast<int64_t>(states_.size()); }

  /// The governance fields (timeout_micros, max_memory_bytes, cancel) may
  /// be changed between queries — e.g. to retry a tripped query with a
  /// larger budget on the same warm engine.
  EngineOptions* mutable_options() override { return &options_; }

  /// Incremental repair of the memoized base-state model after the caller
  /// mutated the base Database (see Engine::ApplyBaseDelta). The batch is
  /// netted first: a fact both inserted and retracted in it changed only
  /// if listed more often one way. Hypothetical child states are dropped
  /// (they recompute lazily); the base model is repaired stratum by
  /// stratum — insertion semi-naive rounds for growth, DRed
  /// delete-and-rederive for retractions (negated premises included), and
  /// a recompute-and-diff fallback for strata with hypothetical premises
  /// the delta reaches. The domain follows the delta in place
  /// (EngineDomain::ApplyBaseDelta); a full Init() only when it changed
  /// and some rule program enumerates it.
  Status ApplyBaseDelta(const BaseDelta& batch) override;

  /// Shares the base state's full model with a server-lifetime MemoBoard:
  /// a freshly computed (or freshly repaired) base model is published, and
  /// an epoch-current model published by a sibling engine over the same
  /// rulebase/base/domain is adopted instead of recomputed or re-repaired.
  void AttachMemoBoard(MemoBoard* board) override;

  std::vector<std::pair<PredicateId, ColumnMask>> BaseProbeSignatures()
      const override {
    return static_sigs_;
  }

  /// Premise order, probe masks, and disassembled bytecode per compiled
  /// rule version.
  std::string ExplainPlans() const override;

  /// Test hooks (governance_test): the incrementally tracked model-byte
  /// total and an exact re-sum over the live states. ApplyBaseDelta must
  /// leave these equal (satellite byte-accounting exactness).
  int64_t TrackedBytesForTest() const { return tracked_bytes_; }
  int64_t ExactTrackedBytesForTest() const {
    int64_t bytes = 0;
    for (const auto& [key, state] : states_) bytes += StateBytes(*state);
    return bytes;
  }

 private:
  using StateKey = std::vector<FactId>;

  struct State {
    StateKey key;                           // Sorted added-fact ids.
    std::unordered_set<FactId> added_set;   // Same ids, for membership.
    Database ext;                           // Added + derived facts.
    /// True once the whole model is computed (or derived, or adopted from
    /// the MemoBoard). Only complete models are served.
    bool complete = false;
    /// True while a (re)computation is running: a model left behind by an
    /// aborted ComputeModel is incomplete and must be recomputed on the
    /// next touch, not served from the memo (abort recovery).
    bool dirty = false;
    /// Children derived from the base model (DeriveChild): the complete
    /// base state, read as an immutable lower layer of this model, and
    /// `hidden`, the lower layer's derived facts that are false here.
    /// Null / empty for every other state. `hidden` never holds a stored
    /// fact and is disjoint from `ext`.
    const State* lower = nullptr;
    Database hidden;

    explicit State(std::shared_ptr<SymbolTable> symbols)
        : ext(symbols), hidden(std::move(symbols)) {}
  };

  /// A rule version that designates a NEGATED premise `~q(t̄)` over a
  /// delta of q facts (the repair rounds): the premise list gains, at
  /// index 0, a positive copy of q(t̄) whose negation-local variables are
  /// renamed to fresh registers, so binding them cannot narrow another
  /// negation's ∄ reading. The program scans that copy over the delta
  /// first, runs the rest of the body with its variables bound, and
  /// keeps the original negation as a test (see RepairStratumIncremental).
  struct NegVersion {
    int premise;                    // The negated premise's index.
    std::vector<Premise> premises;  // [designated copy] + rule premises.
    vm::Program prog;
  };

  /// Compiled bytecode versions of one rule body: the full instantiation
  /// plus one delta version per positive premise index (the semi-naive
  /// rounds designate same-stratum premises; the DRed repair rounds can
  /// designate ANY positive premise, so all of them are compiled up
  /// front), and the versions only repairs run, compiled on first use:
  /// the head-bound version DRed's rederivation runs (empty ops until
  /// then) and the negated-premise versions (`negs_compiled`).
  struct RuleProgs {
    vm::Program full;
    std::vector<std::pair<int, vm::Program>> deltas;  // (premise, program)
    vm::Program head;
    std::vector<NegVersion> negs;
    bool negs_compiled = false;

    const vm::Program* For(int delta_premise) const {
      if (delta_premise < 0) return &full;
      for (const auto& [premise, prog] : deltas) {
        if (premise == delta_premise) return &prog;
      }
      return nullptr;
    }
  };

  /// Per-round evaluation context of one program run: the state under
  /// construction and the optional delta designation.
  struct EvalCtx {
    State* state = nullptr;
    int delta_premise = -1;          // Designated premise index, or -1.
    const Database* delta = nullptr; // Last round's newly derived tuples.
    /// DRed overdeletion evaluates non-designated premises, negated ones
    /// included, against the PRE-epoch model: facts deleted so far this
    /// epoch count as visible again (`vis_plus`; physically gone, or
    /// hidden in a derived child, whose scans then read its lower layer
    /// unfiltered instead) and facts newly visible this epoch are
    /// filtered out (`vis_minus`). Null on every other path — one
    /// predictable branch per candidate.
    const Database* vis_plus = nullptr;
    const Database* vis_minus = nullptr;
  };

  /// True iff `fact` holds in `state`: the base database, the ext model,
  /// or a derived child's lower layer minus its hidden facts.
  bool Visible(const State& state, const Fact& fact) const {
    if (base_->Contains(fact) || state.ext.Contains(fact)) return true;
    return state.lower != nullptr && state.lower->ext.Contains(fact) &&
           !state.hidden.Contains(fact);
  }

  /// What a run reads besides the base and the state's ext (the VM
  /// host's scans, ExistsMatch): a derived child's lower layer, or in
  /// DRed old-model mode this epoch's deletions, which are physically
  /// absent from base and ext, so no segment yields a row twice. A
  /// derived child's deletions are exactly its hidden lower facts, so in
  /// old-model mode its lower layer, read unfiltered, yields them.
  static const Database* ExtraLayer(const EvalCtx& ctx) {
    return ctx.state->lower != nullptr ? &ctx.state->lower->ext
                                       : ctx.vis_plus;
  }

  /// The rows a run skips in every non-designated segment: this epoch's
  /// insertions in old-model mode, else a derived child's hidden facts
  /// (they only ever match rows of its lower layer: hidden is disjoint
  /// from base and ext).
  static const Database* SkipSet(const EvalCtx& ctx) {
    if (ctx.vis_minus != nullptr) return ctx.vis_minus;
    return ctx.state->lower != nullptr ? &ctx.state->hidden : nullptr;
  }

  /// Visible() in the model `ctx` reads: the pre-epoch one in DRed
  /// old-model mode, where this epoch's net insertions were not visible
  /// and its net deletions were (see EvalCtx), the current one otherwise.
  bool VisibleIn(const EvalCtx& ctx, const Fact& fact) const {
    const bool now = Visible(*ctx.state, fact);
    if (ctx.vis_minus == nullptr) return now;
    return (now && !ctx.vis_minus->Contains(fact)) ||
           ctx.vis_plus->Contains(fact);
  }

  /// True iff `fact` is a derived (not a stored) fact of `state`'s model:
  /// the only facts DRed may overdelete. A derived child stores its added
  /// facts in ext next to the facts derived there.
  bool IsDerived(const State& state, const Fact& fact);

  /// Makes the derived fact `fact`, not visible in `state`, visible: a
  /// derived child un-hides a lower fact instead of copying it into ext.
  void InsertDerived(State* state, const Fact& fact);

  /// Re-initializes the domain (and drops all memoized states) if the
  /// query mentions constants outside the current domain.
  Status EnsureConstants(const Query& query);

  /// Same for a probed ground fact: its constants join dom(R, DB) for
  /// this and later evaluations (Definition 3's domain, extended by the
  /// constants the caller introduces).
  Status EnsureFactConstants(const Fact& fact);

  /// Recomputes plans / delta info / static probe signatures / compiled
  /// programs over the rulebase's strata. Called by Init() and, when a
  /// watched base cardinality left its 2x band (PlannedCardinalities),
  /// by ApplyBaseDelta (plans AND compiled programs; models untouched).
  Status RebuildPlans();

  /// Ensures the state for `ckey`/`key` exists with its model complete,
  /// and returns it. States are heap nodes, so a child inserted while its
  /// parent computes never moves the parent.
  ///
  /// A non-null `lower` (the complete base state) derives a new child
  /// from it with DeriveChild instead of computing it from empty.
  /// `may_seal_base` is set only by a top-level region (see ComputeModel).
  StatusOr<State*> EnsureState(int64_t ckey, const StateKey& key,
                               bool may_seal_base, const State* lower);

  /// The base state a public entry evaluates on, its model complete.
  StatusOr<State*> MaterializeBase();

  /// Computes `state`'s model, stratum by stratum. With `may_seal_base`,
  /// an unsealed base is sealed for the run.
  Status ComputeModel(State* state, bool may_seal_base);

  /// Builds `child`'s model (its ext holding just its added facts) as
  /// the base model `lower` repaired by the additions: the insertion half
  /// of the base-delta repair, plus the negated-premise overdeletion the
  /// additions cause, over `lower` as a read-only layer. Only for
  /// programs whose repair never recomputes a stratum (no hypothetical
  /// premises); see DESIGN.md §5.
  Status DeriveChild(State* child, const State* lower);

  /// Restores a state a failed run left half-built to its added facts
  /// alone, dropping any lower layer.
  void ResetToAdditions(State* state);

  /// Inserts `state`'s added facts into its ext, where every model
  /// starts.
  void StoreAdditions(State* state);

  /// One stratum of ComputeModel as semi-naive rounds; also the rebuild
  /// step of ApplyBaseDelta's recompute-and-diff fallback.
  Status ComputeStratum(State* state, int stratum);

  // --- Incremental base-delta repair (ApplyBaseDelta) ---------------------
  //
  // `ins` / `del` accumulate the NET visibility changes of the epoch,
  // bottom-up: seeded from the base mutation, then extended by each
  // stratum's own derived-fact changes before the next stratum runs. The
  // two are kept disjoint (a fact restored by rederivation simply leaves
  // `del` again), so a premise's pre-epoch truth is exactly
  //   (Visible(state, f) && !ins.Contains(f)) || del.Contains(f).

  /// Repairs the base state's model stratum by stratum against `delta`.
  /// On error the model is only partially repaired; the caller must drop
  /// it (ApplyBaseDelta does).
  Status RepairBaseModel(State* state, const BaseDelta& delta);

  /// Repairs one stratum: skip (irrelevant), delta rounds (insertions
  /// and/or DRed), or recompute-and-diff, extending ins/del in place.
  Status RepairStratum(State* state, int stratum, Database* ins,
                       Database* del);

  /// The delta-round path: DRed overdeletion + physical removal +
  /// rederivation, then insertion semi-naive rounds. Net insertions into
  /// a negated relation overdelete and net deletions from it seed the
  /// insertion rounds, through the rules' NegVersions.
  Status RepairStratumIncremental(State* state, int stratum, Database* ins,
                                  Database* del);

  /// The fallback path: snapshot the stratum's pre-repair visible head
  /// relations, clear and recompute them from scratch, and diff old vs
  /// new into ins/del. Used only when the delta reaches a hypothetical
  /// premise (its child models change wholesale).
  Status RepairStratumRecompute(State* state, int stratum, Database* ins,
                                Database* del);

  /// The NegVersions of `rule_index`, one per negated premise, compiled
  /// on first use.
  const std::vector<NegVersion>& NegVersions(int rule_index);

  /// Adds the base probe signatures of `plan`'s steps over `premises` to
  /// static_sigs_, deduplicated.
  void AddProbeSignatures(const std::vector<Premise>& premises,
                          const BodyPlan& plan);

  /// True iff some rule of `stratum` derives `fact` in the CURRENT model
  /// (DRed's rederivation test, run after overdeleted facts are removed),
  /// by each rule's head-bound program.
  StatusOr<bool> HeadDerivable(const Fact& fact, int stratum, State* state);

  /// The VM's host: storage segments, premise tests and metering. A
  /// nested class (rather than a function-local one) because it needs a
  /// member template — AcceptRow sees both RowRef and Tuple rows — which
  /// local classes cannot declare. Defined in bottom_up.cc.
  template <typename EmitFn>
  struct VmHost;

  /// Runs one compiled program against `ctx`. `emit` receives the
  /// complete register file per instantiation and returns false to stop
  /// the enumeration; the run returns false iff `emit` stopped it. A
  /// head-bound program needs the concluded fact's `head` arguments.
  /// Instantiated only in bottom_up.cc.
  template <typename EmitFn>
  StatusOr<bool> RunProgram(const std::vector<Premise>& premises,
                            const vm::Program& prog, EvalCtx* ctx,
                            const EmitFn& emit,
                            const Tuple* head = nullptr);

  /// Evaluates one rule version over `ctx->state`, inserting derived
  /// heads into the model; predicates that gained tuples go to `changed`
  /// (a set: one entry per predicate per round, not per fact), and the
  /// new facts themselves to `next_delta` (unless null).
  Status EvaluateRule(int rule_index, EvalCtx* ctx, Database* next_delta,
                      std::unordered_set<PredicateId>* changed);

  /// Evaluates a query body on the base state, collecting answers (or
  /// stopping at the first witness when `answers` is null).
  Status RunQuery(const Query& query, std::vector<Tuple>* answers,
                  bool* found);

  /// Tests a fully ground hypothetical premise against `state`.
  StatusOr<bool> TestHypothetical(State* state, const Fact& query,
                                  const std::vector<Fact>& additions);

  /// True iff some extension of `binding` matches `atom` in `ctx.state`;
  /// probes the generalized access paths on all bound columns. With
  /// `ctx`'s vis_plus/vis_minus set, reads the pre-epoch model instead.
  bool ExistsMatch(const Atom& atom, Binding* binding, const EvalCtx& ctx);

  Status CheckLimits();

  /// Approximate bytes attributable to one memoized state: model contents
  /// (ext.ApproxBytes()) plus struct/key/id-set overhead. The unit both
  /// the incremental accounting and RecomputeTrackedBytes sum in.
  static int64_t StateBytes(const State& s);

  /// Total approximate engine memory for the QueryGuard budget: tracked
  /// state bytes and both interners. O(1), read at metering frequency.
  int64_t MemoryBytes() const;

  /// Re-sums tracked_bytes_ exactly over the live states. Called when a
  /// memory budget arms and after a base repair, so the total starts from
  /// truth instead of per-fact estimates or drift left by error paths.
  void RecomputeTrackedBytes();

  /// Counts one domain-grounding iteration and enforces max_steps on
  /// enumeration-heavy plans (checked every 256 iterations so purely
  /// extensional domain^n loops cannot run away unmetered). Inline: the
  /// fast path must cost one increment and one predictable branch.
  Status CountEnumeration() {
    if ((++stats_.enumerations & 255) != 0) return Status::OK();
    return CheckLimits();
  }

  const RuleBase* rulebase_;
  const Database* base_;
  EngineOptions options_;

  NegationStrata strata_;
  std::vector<BodyPlan> rule_plans_;
  /// Compiled programs per rule. Rebuilt with the plans (Init, server
  /// epoch replans).
  std::vector<RuleProgs> rule_programs_;
  std::vector<RuleDeltaInfo> rule_delta_info_;
  /// Some rule has a hypothetical premise: its stratum's repair is
  /// recompute-and-diff, so children are computed from empty rather than
  /// derived.
  bool has_hypothetical_ = false;
  /// Some compiled rule program enumerates dom(R, DB): models depend on
  /// the domain, and a domain change re-Inits.
  bool enumerates_domain_ = false;
  /// Base-relation cardinalities the current plans were ordered against
  /// (positive-premise predicates of the rules).
  PlannedCardinalities planned_;
  /// Every (predicate, probe-mask) signature any plan step can probe at
  /// runtime, deduplicated: the rules' plans, and each NegVersion's plan
  /// once compiled. A top-level region (and the server, through
  /// BaseProbeSignatures) PrepareIndex()es all of them before sealing the
  /// base, so sealed probes find an up-to-date index.
  std::vector<std::pair<PredicateId, ColumnMask>> static_sigs_;
  EngineDomain domain_;
  std::vector<ConstId> extra_constants_;

  FactInterner interner_;
  ContextInterner ctx_interner_;

  /// The memoized states, keyed by the interned ContextId of their added
  /// facts (ContextInterner::kEmptyContext is the base state).
  std::unordered_map<int64_t, std::unique_ptr<State>> states_;

  /// Persistent cross-query cache (optional; see AttachMemoBoard). Only
  /// the base state's whole model is shared — hypothetical child states
  /// stay engine-local (their keys are local fact ids). The domain's
  /// fingerprint keys published models so engines whose domains diverged
  /// (extra query constants) never cross-adopt.
  MemoBoard* board_ = nullptr;

  QueryGuard guard_;
  /// Approximate bytes held by all memoized states' models (contents plus
  /// per-state overhead), charged as states grow. Per-round delta
  /// databases are transient and deliberately uncounted.
  int64_t tracked_bytes_ = 0;

  /// Reusable VM register/scan frames, depth-indexed so hypothetical
  /// sub-fixpoints that re-enter RunProgram get their own frame.
  vm::FrameStack vm_frames_;

  mutable EngineStats stats_;
  /// Index builds on per-round delta relations already destroyed;
  /// stats() adds the live databases' growth on top.
  int64_t retired_index_builds_ = 0;
  /// Index totals of the base and the memoized states' models; stats()
  /// reports their growth since ResetStats().
  IndexTotals CurrentIndexTotals() const;
  IndexTotals index_base_;
  bool initialized_ = false;
};

}  // namespace hypo

#endif  // HYPO_ENGINE_BOTTOM_UP_H_
