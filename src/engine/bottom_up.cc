#include "engine/bottom_up.h"

#include "engine/scan.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/restricted.h"
#include "base/failpoint.h"
#include "engine/memo_board.h"
#include "engine/seminaive.h"
#include "engine/vm/compiler.h"
#include "engine/vm/executor.h"

namespace hypo {

namespace {

/// True iff no fact is in both `a` and `b`. A debug-build check only.
[[maybe_unused]] bool Disjoint(const Database& a, const Database& b) {
  bool disjoint = true;
  a.ForEach([&](const Fact& f) { disjoint = disjoint && !b.Contains(f); });
  return disjoint;
}

/// `delta` with each fact's changes netted. Every listed change changed
/// the database, so one fact's changes alternate: a fact inserted as
/// often as retracted ends where it started, and one listed once more in
/// either list moved that way. Order of first listing is kept.
BaseDelta NetDelta(const BaseDelta& delta) {
  std::unordered_map<Fact, int, FactHash> net;
  for (const Fact& f : delta.inserts) ++net[f];
  for (const Fact& f : delta.retracts) --net[f];
  BaseDelta out;
  auto take = [&net](const std::vector<Fact>& from, int sign,
                     std::vector<Fact>* to) {
    for (const Fact& f : from) {
      int& n = net[f];
      if (n * sign <= 0) continue;
      to->push_back(f);
      n = 0;  // Listed once.
    }
  };
  take(delta.inserts, 1, &out.inserts);
  take(delta.retracts, -1, &out.retracts);
  return out;
}

/// RAII unseal for the base a top-level region sealed.
struct Unsealer {
  const Database* db;
  explicit Unsealer(const Database* d) : db(d) {}
  ~Unsealer() {
    if (db != nullptr) db->UnsealIndexes();
  }
  Unsealer(const Unsealer&) = delete;
  Unsealer& operator=(const Unsealer&) = delete;
};

}  // namespace

BottomUpEngine::BottomUpEngine(const RuleBase* rulebase, const Database* db,
                               EngineOptions options)
    : rulebase_(rulebase), base_(db), options_(options) {}

Status BottomUpEngine::Init() {
  if (rulebase_->symbols_ptr().get() != base_->symbols_ptr().get()) {
    return Status::InvalidArgument(
        "rulebase and database must share one SymbolTable");
  }
  if (rulebase_->HasDeletions()) {
    return Status::Unimplemented(
        "hypothetical deletion ([del: ...]) is supported only by "
        "TabledEngine; the eager engine's state lattice relies on states "
        "only growing");
  }
  HYPO_ASSIGN_OR_RETURN(strata_, ComputeNegationStrata(*rulebase_));
  HYPO_RETURN_IF_ERROR(CheckRuleRestrictions(*rulebase_));
  HYPO_RETURN_IF_ERROR(RebuildPlans());

  domain_.Reset(*rulebase_, *base_, extra_constants_);
  states_.clear();
  tracked_bytes_ = 0;
  ++stats_.domain_rebuilds;
  initialized_ = true;
  return Status::OK();
}

Status BottomUpEngine::RebuildPlans() {
  const RuleBase& program = *rulebase_;
  rule_plans_.clear();
  rule_plans_.reserve(program.num_rules());
  for (const Rule& rule : program.rules()) {
    rule_plans_.push_back(
        BodyPlan::Build(rule.premises, &rule.head, rule.num_vars(), base_));
  }

  // The semi-naive rewrite runs per stratum: only the relations of a
  // stratum's heads can gain tuples while its fixpoint runs.
  rule_delta_info_.assign(program.num_rules(), RuleDeltaInfo{});
  for (int s = 0; s < strata_.num_strata; ++s) {
    ComputeRuleDeltaInfo(program, strata_.rules_by_stratum[s],
                         &rule_delta_info_);
  }

  // Every probe signature any plan step can issue at runtime, for the
  // prepare-then-seal of the base. The static probe_mask equals the
  // runtime BoundSignature exactly, so a sealed database prepared with
  // these never degrades to a full scan.
  static_sigs_.clear();
  for (int r = 0; r < program.num_rules(); ++r) {
    AddProbeSignatures(program.rule(r).premises, rule_plans_[r]);
  }

  // Base cardinalities the greedy premise ordering just consulted, for
  // the server-epoch staleness check.
  planned_.Clear();
  for (const Rule& rule : program.rules()) {
    planned_.Watch(*base_, rule.premises);
  }

  // Lower every rule version to bytecode once; the fixpoint rounds then
  // dispatch flat programs instead of re-walking the plan per candidate.
  rule_programs_.clear();
  rule_programs_.resize(program.num_rules());
  has_hypothetical_ = false;
  enumerates_domain_ = false;
  for (int r = 0; r < program.num_rules(); ++r) {
    const Rule& rule = program.rule(r);
    vm::CompileInput in;
    in.premises = &rule.premises;
    in.plan = &rule_plans_[r];
    in.num_vars = rule.num_vars();
    rule_programs_[r].full = vm::Compile(in);
    ++stats_.vm_programs_compiled;
    has_hypothetical_ |= rule.HasHypotheticalPremise();
    // Every other version of the rule binds at least as much before each
    // step, so it enumerates no variable the full version does not.
    for (const vm::Op& op : rule_programs_[r].full.ops) {
      enumerates_domain_ |= op.code == vm::OpCode::kEnumDomain;
    }
    for (int i = 0; i < static_cast<int>(rule.premises.size()); ++i) {
      if (rule.premises[i].kind != PremiseKind::kPositive) continue;
      in.delta_premise = i;
      rule_programs_[r].deltas.emplace_back(i, vm::Compile(in));
      ++stats_.vm_programs_compiled;
    }
  }
  return Status::OK();
}

Status BottomUpEngine::EnsureConstants(const Query& query) {
  bool missing = false;
  for (ConstId c : QueryConstants(query)) {
    // Insert into the member set up front so a constant seen twice in one
    // query (or across queries) lands in extra_constants_ exactly once.
    if (domain_.members.insert(c).second) {
      extra_constants_.push_back(c);
      missing = true;
    }
  }
  if (missing) {
    // The domain changed, so every memoized model is stale: re-run Init.
    return Init();
  }
  return Status::OK();
}

Status BottomUpEngine::EnsureFactConstants(const Fact& fact) {
  bool missing = false;
  for (ConstId c : fact.args) {
    if (domain_.members.insert(c).second) {
      extra_constants_.push_back(c);
      missing = true;
    }
  }
  if (missing) return Init();
  return Status::OK();
}

Status BottomUpEngine::CheckLimits() {
  const int64_t states = static_cast<int64_t>(states_.size());
  if (states > options_.max_states) {
    return Status::ResourceExhausted(
        LimitTripMessage("max_states", options_.max_states, states));
  }
  if (stats_.goals_expanded > options_.max_steps ||
      stats_.enumerations > options_.max_steps) {
    return Status::ResourceExhausted(
        LimitTripMessage("max_steps", options_.max_steps,
                         std::max(stats_.goals_expanded, stats_.enumerations)));
  }
  if (guard_.armed()) {
    ++stats_.guard_checks;
    return guard_.Check(guard_.wants_memory() ? MemoryBytes() : -1);
  }
  return Status::OK();
}

int64_t BottomUpEngine::StateBytes(const State& s) {
  return s.ext.ApproxBytes() + s.hidden.ApproxBytes() +
         static_cast<int64_t>(sizeof(State)) + 64 +
         static_cast<int64_t>(s.key.size() * sizeof(FactId)) +
         static_cast<int64_t>(s.added_set.size() *
                              (sizeof(FactId) + 2 * sizeof(void*)));
}

int64_t BottomUpEngine::MemoryBytes() const {
  return tracked_bytes_ + interner_.ApproxBytes() +
         ctx_interner_.ApproxBytes();
}

void BottomUpEngine::RecomputeTrackedBytes() {
  tracked_bytes_ = 0;
  for (const auto& [key, state] : states_) tracked_bytes_ += StateBytes(*state);
}

StatusOr<BottomUpEngine::State*> BottomUpEngine::EnsureState(
    int64_t ckey, const StateKey& key, bool may_seal_base,
    const State* lower) {
  std::unique_ptr<State>& slot = states_[ckey];
  if (slot == nullptr) {
    slot = std::make_unique<State>(base_->symbols_ptr());
    slot->key = key;
    slot->added_set.insert(key.begin(), key.end());
    StoreAdditions(slot.get());
    tracked_bytes_ += StateBytes(*slot);
    ++stats_.states_evaluated;
    if (lower != nullptr) ++stats_.states_derived;
  } else {
    ++stats_.memo_hits;
  }
  State* s = slot.get();
  // A model is computed once. A new state, or one an aborted run left
  // dirty, is computed below rather than served.
  if (s->complete) return s;
  // Injected abort between "must run" and the run: the state is left as
  // it was, so recovery just re-enters.
  HYPO_FAILPOINT("statecache.materialize");

  // dirty stays raised until the model completes, so the next touch
  // knows an aborted run left partial contents behind.
  // A half-built model is a sound subset of the true one — unless it
  // was being derived: its hidden set and lower layer are then partial
  // too, and a re-derivation must start from the added facts alone.
  if (s->dirty && (s->lower != nullptr || lower != nullptr)) {
    ResetToAdditions(s);
  }
  s->dirty = true;
  HYPO_FAILPOINT("bottomup.compute_model");
  HYPO_RETURN_IF_ERROR(CheckLimits());
  if (lower != nullptr) {
    HYPO_RETURN_IF_ERROR(DeriveChild(s, lower));
    s->complete = true;
    s->dirty = false;
    return s;
  }
  // Only the base state's model is board-shareable: the empty context is
  // the same id on every engine.
  const bool shareable = board_ != nullptr && key.empty();
  if (shareable) {
    std::shared_ptr<const Database> model = board_->LookupModel(
        ContextInterner::kEmptyContext, domain_.fingerprint);
    if (model != nullptr) {
      // Adopt wholesale. Any partial ext left by an aborted run holds
      // sound derivations, i.e. a subset of the model — replacing it
      // loses nothing.
      const int64_t before = StateBytes(*s);
      s->ext = model->Clone();
      tracked_bytes_ += StateBytes(*s) - before;
      ++stats_.cache_hits_cross_query;
      s->complete = true;
      s->dirty = false;
      return s;
    }
  }
  HYPO_RETURN_IF_ERROR(ComputeModel(s, may_seal_base));
  s->complete = true;
  s->dirty = false;
  if (shareable) {
    board_->PublishModel(ContextInterner::kEmptyContext, domain_.fingerprint,
                         std::make_shared<Database>(s->ext.Clone()));
  }
  return s;
}

StatusOr<BottomUpEngine::State*> BottomUpEngine::MaterializeBase() {
  return EnsureState(ContextInterner::kEmptyContext, {},
                     /*may_seal_base=*/true, /*lower=*/nullptr);
}

Status BottomUpEngine::DeriveChild(State* child, const State* lower) {
  const int64_t bytes_before = StateBytes(*child) + lower->ext.ApproxBytes();
  child->lower = lower;
  Status status = [&]() -> Status {
    // The additions the base model does not already hold are the child's
    // net insertions; one it derives stays visible and becomes stored.
    Database ins(base_->symbols_ptr());
    Database del(base_->symbols_ptr());
    child->ext.ForEach([&](const Fact& f) {
      if (!lower->ext.Contains(f)) ins.Insert(f);
    });
    for (int s = 0; s < strata_.num_strata; ++s) {
      HYPO_FAILPOINT("bottomup.derive_child");
      HYPO_RETURN_IF_ERROR(RepairStratum(child, s, &ins, &del));
    }
    return Status::OK();
  }();
  // Exact growth, success or not: the child's model and hidden set, and
  // the probe indexes its rounds built on the lower layer.
  tracked_bytes_ +=
      StateBytes(*child) + lower->ext.ApproxBytes() - bytes_before;
  return status;
}

void BottomUpEngine::ResetToAdditions(State* state) {
  const int64_t before = StateBytes(*state);
  retired_index_builds_ +=
      state->ext.index_builds() + state->hidden.index_builds();
  state->ext = Database(base_->symbols_ptr());
  state->hidden = Database(base_->symbols_ptr());
  state->lower = nullptr;
  StoreAdditions(state);
  tracked_bytes_ += StateBytes(*state) - before;
}

void BottomUpEngine::StoreAdditions(State* state) {
  for (FactId id : state->key) state->ext.Insert(interner_.Get(id));
}

bool BottomUpEngine::IsDerived(const State& state, const Fact& fact) {
  if (state.lower == nullptr) return state.ext.Contains(fact);
  if (state.ext.Contains(fact)) {
    // A derived child's ext also stores its added facts.
    const FactId id = interner_.Find(fact);
    return id < 0 || state.added_set.count(id) == 0;
  }
  return state.lower->ext.Contains(fact) && !state.hidden.Contains(fact);
}

void BottomUpEngine::InsertDerived(State* state, const Fact& fact) {
  if (state->lower != nullptr && state->lower->ext.Contains(fact)) {
    state->hidden.Retract(fact);  // Not visible, so hidden: un-hide it.
    return;
  }
  state->ext.Insert(fact);
}

Status BottomUpEngine::ComputeModel(State* state, bool may_seal_base) {
  // When a long-lived caller (src/server) has already sealed the base for
  // an epoch, its seal — and the indexes it prepared — are shared with
  // other engines reading it; leave both alone. Probes for signatures the
  // caller did not prepare degrade to full scans, which stays correct.
  // Only the top-level region seals: a child runs nested in a probe of
  // the base (a query's hypothetical premise, a repair's rebuild) whose
  // index a re-seal would re-sort — and free — when the relation changed
  // since the last seal.
  const bool own_base_seal = may_seal_base && !base_->sealed();
  Unsealer base_unsealer(own_base_seal ? base_ : nullptr);
  if (own_base_seal) {
    // Freeze the base for the whole region: every statically possible
    // probe signature gets an up-to-date index. The base is long-lived
    // and read-mostly, so it gets the sorted-permutation treatment:
    // probes against it binary-search contiguous ranges, and re-sealing
    // it for the next query is O(1) per the relation-version cache. (The
    // engine's own delta/ext databases stay on incremental hash indexes
    // — they churn every round.)
    base_->EnableSortedIndexes();
    for (const auto& [pred, mask] : static_sigs_) {
      base_->PrepareIndex(pred, mask);
    }
    base_->SealIndexes();
  }
  for (int s = 0; s < strata_.num_strata; ++s) {
    HYPO_RETURN_IF_ERROR(ComputeStratum(state, s));
  }
  return Status::OK();
}

Status BottomUpEngine::ComputeStratum(State* state, int stratum) {
  return RunSemiNaive(
      *rulebase_, strata_.rules_by_stratum[stratum], rule_delta_info_,
      [&](const RuleVersion& v, const Database* delta, Database* next_delta,
          std::unordered_set<PredicateId>* changed) {
        EvalCtx ctx;
        ctx.state = state;
        if (delta != nullptr) {
          ctx.delta_premise = v.delta_premise;
          ctx.delta = delta;
        }
        return EvaluateRule(v.rule, &ctx, next_delta, changed);
      },
      &stats_, &retired_index_builds_);
}

// As a nested class the host reaches the engine's private state and its
// callbacks inline into vm::Run's loop.
template <typename EmitFn>
struct BottomUpEngine::VmHost {
  BottomUpEngine* eng;
  const std::vector<Premise>* premises;
  EvalCtx* ctx;
  const EmitFn* emit;
  Binding* scratch;  // kNegProbe seeding; bound_vars Set/Unset per test.
  /// The run's third model layer and row filter (see ExtraLayer/SkipSet).
  const Database* extra;
  const Database* skip;

  Status OpenScan(const vm::Op& op, const std::vector<ConstId>&,
                  vm::ScanState* st) {
    if (op.designated) {
      st->AddDb(ctx->delta);
      return Status::OK();
    }
    st->AddDb(eng->base_);
    st->AddDb(&ctx->state->ext);
    if (extra != nullptr) st->AddDb(extra);
    return Status::OK();
  }

  template <typename Row>
  bool AcceptRow(const vm::Op& op, const Row& row) {
    // Premises before the designated delta premise range over the
    // pre-delta relation, so an instantiation touching k delta tuples
    // fires once, not k times; DRed's old-model mode skips this epoch's
    // net insertions.
    ++eng->stats_.join_probes;
    if (op.exclude_delta && ctx->delta->Contains(op.pred, row)) {
      return false;
    }
    return op.designated || skip == nullptr || !skip->Contains(op.pred, row);
  }

  StatusOr<bool> TestGround(const vm::Op& op,
                            const std::vector<ConstId>& regs) {
    const Atom& atom = (*premises)[op.premise_index].atom;
    Fact f = vm::GroundAtom(atom, regs.data());
    bool holds =
        op.designated ? ctx->delta->Contains(f) : eng->VisibleIn(*ctx, f);
    if (holds && op.exclude_delta && ctx->delta->Contains(f)) holds = false;
    return holds;
  }

  StatusOr<bool> ProveCall(const vm::Op&, const std::vector<ConstId>&) {
    return Status::Internal(
        "bottom-up programs have no kProveCall premises");
  }

  StatusOr<bool> HypoTest(const vm::Op& op,
                          const std::vector<ConstId>& regs) {
    const Premise& premise = (*premises)[op.premise_index];
    if (!premise.deletions.empty()) {
      return Status::Unimplemented(
          "hypothetical deletion is supported only by TabledEngine");
    }
    Fact query = vm::GroundAtom(premise.atom, regs.data());
    std::vector<Fact> additions;
    additions.reserve(premise.additions.size());
    for (const Atom& a : premise.additions) {
      additions.push_back(vm::GroundAtom(a, regs.data()));
    }
    return eng->TestHypothetical(ctx->state, query, additions);
  }

  StatusOr<bool> NegHolds(const vm::Op& op,
                          const std::vector<ConstId>& regs) {
    const Atom& atom = (*premises)[op.premise_index].atom;
    if (op.code == vm::OpCode::kNegGround) {
      return !eng->VisibleIn(*ctx, vm::GroundAtom(atom, regs.data()));
    }
    // kNegProbe: seed exactly the statically bound variables (unbound
    // registers hold stale candidate values and must not leak in). The
    // rest occur only under negation: the premise holds iff *no* instance
    // is visible (∄ reading).
    for (VarIndex v : op.bound_vars) scratch->Set(v, regs[v]);
    const bool witness = eng->ExistsMatch(atom, scratch, *ctx);
    for (VarIndex v : op.bound_vars) scratch->Unset(v);
    return !witness;
  }

  StatusOr<bool> Emit(const std::vector<ConstId>& regs) {
    return (*emit)(regs.data());
  }

  const std::vector<ConstId>& Domain() { return eng->domain_.values; }
  Status CountEnumeration() { return eng->CountEnumeration(); }
  void CountSorted(size_t rows) {
    ++eng->stats_.sorted_probes;
    eng->stats_.merge_join_rows += static_cast<int64_t>(rows);
  }
  void FlushOps(int64_t executed) { eng->stats_.vm_ops_executed += executed; }
};

template <typename EmitFn>
StatusOr<bool> BottomUpEngine::RunProgram(const std::vector<Premise>& premises,
                                          const vm::Program& prog,
                                          EvalCtx* ctx, const EmitFn& emit,
                                          const Tuple* head) {
  vm::FrameLease frame(&vm_frames_, prog.num_vars);
  if (head != nullptr && !vm::MatchHead(prog, *head, frame->regs.data())) {
    return true;  // The rule cannot conclude this fact.
  }
  VmHost<EmitFn> host{this, &premises, ctx, &emit, &frame->neg,
                      ExtraLayer(*ctx), SkipSet(*ctx)};
  return vm::Run(prog, &host, &frame->regs, &frame->states);
}

Status BottomUpEngine::EvaluateRule(
    int rule_index, EvalCtx* ctx, Database* next_delta,
    std::unordered_set<PredicateId>* changed) {
  const Rule& rule = rulebase_->rule(rule_index);
  State* state = ctx->state;
  Fact head;  // Reused across emits; Insert copies it out.
  auto emit = [&](const ConstId* regs) -> StatusOr<bool> {
    ++stats_.goals_expanded;
    HYPO_RETURN_IF_ERROR(CheckLimits());
    vm::GroundAtomInto(rule.head, regs, &head);
    if (Visible(*state, head)) return true;  // Keep enumerating.
    state->ext.Insert(head);
    tracked_bytes_ += ApproxFactBytes(head.args.size());
    ++stats_.facts_derived;
    changed->insert(head.predicate);
    if (next_delta != nullptr) {
      next_delta->Insert(head);
      ++stats_.delta_facts;
    }
    return true;
  };
  const vm::Program* prog =
      rule_programs_[rule_index].For(ctx->delta_premise);
  return RunProgram(rule.premises, *prog, ctx, emit).status();
}

StatusOr<bool> BottomUpEngine::TestHypothetical(
    State* state, const Fact& query, const std::vector<Fact>& additions) {
  HYPO_FAILPOINT("bottomup.hypothetical");
  // Additions already present in the state's *database* (base or added
  // facts — derived facts do not count, they are conclusions, not entries)
  // leave the state unchanged.
  std::vector<FactId> new_ids;
  for (const Fact& f : additions) {
    if (base_->Contains(f)) continue;
    FactId id = interner_.Intern(f);
    if (state->added_set.count(id) > 0) continue;
    new_ids.push_back(id);
  }
  if (new_ids.empty()) {
    // Same state: behaves like a positive premise over the in-progress
    // model (the enclosing fixpoint re-checks it every round).
    return Visible(*state, query);
  }
  StateKey key = state->key;
  key.insert(key.end(), new_ids.begin(), new_ids.end());
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  const int64_t ckey = ctx_interner_.InternAddedSet(key);
  // A child of the complete base model is that model repaired by the
  // additions. The lower layer is immutable for the derivation and for
  // as long as the child lives (ApplyBaseDelta drops children before it
  // repairs the base).
  const State* lower = nullptr;
  if (state->key.empty() && state->complete && !has_hypothetical_) {
    lower = state;
  }
  HYPO_ASSIGN_OR_RETURN(State * child,
                        EnsureState(ckey, key, /*may_seal_base=*/false,
                                    lower));
  return Visible(*child, query);
}

bool BottomUpEngine::ExistsMatch(const Atom& atom, Binding* binding,
                                 const EvalCtx& ctx) {
  if (binding->Grounds(atom)) return VisibleIn(ctx, binding->Ground(atom));
  EngineStats* stats = &stats_;
  std::vector<VarIndex> trail;
  bool found = false;
  const Database* skip = SkipSet(ctx);
  auto probe = [&](const auto& tuple) -> bool {
    ++stats->join_probes;
    if (skip != nullptr && skip->Contains(atom.predicate, tuple)) return true;
    if (binding->MatchTuple(atom, tuple, &trail)) {
      binding->Undo(&trail, 0);
      found = true;
      return false;  // One witness suffices.
    }
    return true;
  };
  const Database* extra = ExtraLayer(ctx);
  if (ForEachBaseCandidate(*base_, atom, *binding, probe, stats) &&
      ForEachBaseCandidate(ctx.state->ext, atom, *binding, probe, stats) &&
      extra != nullptr) {
    ForEachBaseCandidate(*extra, atom, *binding, probe, stats);
  }
  return found;
}

Status BottomUpEngine::ApplyBaseDelta(const BaseDelta& batch) {
  // A fact inserted and retracted in one batch did not change: repairing
  // both halves would derive from a fact the database no longer holds,
  // or store a derivable fact in ext while the base still holds it.
  const BaseDelta delta = NetDelta(batch);
  if (delta.empty()) return Status::OK();
  if (!initialized_) return Status::OK();  // First query Init()s fresh.
  ++stats_.base_deltas;
  // A domain change invalidates every memoized enumeration: it falls back
  // to a full re-Init (models recompute lazily on the next query). Without
  // a rule program that enumerates the domain no model depends on it, so
  // the new domain (which also keys the MemoBoard) is simply kept.
  if (domain_.ApplyBaseDelta(delta, *rulebase_, *base_, extra_constants_,
                             options_.validate_contexts) &&
      enumerates_domain_) {
    return Init();
  }

  // A sibling engine already repaired and published this epoch's base
  // model: drop local states and adopt it lazily at the next query
  // (EnsureState's shareable path) instead of repairing redundantly.
  if (board_ != nullptr &&
      board_->LookupModel(ContextInterner::kEmptyContext,
                          domain_.fingerprint) != nullptr) {
    states_.clear();
    tracked_bytes_ = 0;
    return planned_.Stale(*base_) ? RebuildPlans() : Status::OK();
  }

  // Hypothetical child states are whole models over the old base: drop
  // them (they rebuild lazily on their next touch) and repair the base
  // state's model in place.
  std::unique_ptr<State> kept;
  if (auto it = states_.find(ContextInterner::kEmptyContext);
      it != states_.end()) {
    kept = std::move(it->second);
  }
  states_.clear();
  tracked_bytes_ = 0;
  if (kept == nullptr || !kept->complete) {
    // No model, or an incomplete one (aborted run): dropping it is
    // cheaper and simpler than repairing a partial fixpoint.
    return planned_.Stale(*base_) ? RebuildPlans() : Status::OK();
  }
  State* base_state = kept.get();
  states_.emplace(ContextInterner::kEmptyContext, std::move(kept));
  RecomputeTrackedBytes();
  Status status = RepairBaseModel(base_state, delta);
  if (!status.ok()) {
    // A half-repaired model must never be served: drop everything and
    // surface the error; the next query recomputes from scratch.
    states_.clear();
    tracked_bytes_ = 0;
    return status;
  }
  // The repair charged per-fact estimates (and any child states it
  // materialized); re-sum, so the total is exact — governance_test
  // asserts it against an independent re-sum.
  RecomputeTrackedBytes();
  if (board_ != nullptr) {
    board_->PublishModel(ContextInterner::kEmptyContext, domain_.fingerprint,
                         std::make_shared<Database>(base_state->ext.Clone()));
  }
  // Repaired model stays; only the PLANS (ordered against pre-epoch
  // cardinalities) and their compiled programs refresh when the epoch
  // moved a watched relation past the 2x band.
  return planned_.Stale(*base_) ? RebuildPlans() : Status::OK();
}

void BottomUpEngine::AttachMemoBoard(MemoBoard* board) { board_ = board; }

Status BottomUpEngine::RepairBaseModel(State* state, const BaseDelta& delta) {
  Database ins(base_->symbols_ptr());
  Database del(base_->symbols_ptr());
  for (const Fact& f : delta.inserts) {
    if (state->ext.Contains(f)) {
      // Already derived: the fact moves from "derived" to "stored" with
      // no visibility change (ext must never shadow base facts).
      state->ext.Retract(f);
    } else {
      ins.Insert(f);
    }
  }
  for (const Fact& f : delta.retracts) {
    // Physically gone from the base already. Its defining stratum (if
    // any) will try to rederive it; until then it counts as deleted.
    if (!state->ext.Contains(f)) del.Insert(f);
  }
  // ins and del stay disjoint through the strata (see bottom_up.h); a
  // netted delta starts them so.
  HYPO_DCHECK(Disjoint(ins, del));
  for (int s = 0; s < strata_.num_strata; ++s) {
    HYPO_RETURN_IF_ERROR(RepairStratum(state, s, &ins, &del));
  }
  return Status::OK();
}

Status BottomUpEngine::RepairStratum(State* state, int stratum, Database* ins,
                                     Database* del) {
  const RuleBase& program = *rulebase_;
  const bool any_delta = !ins->empty() || !del->empty();
  bool has_hypo = false;
  bool pos_touched = false;   // Some positive premise pred has a delta.
  bool neg_touched = false;   // Some negated premise pred has a delta.
  bool head_deleted = false;  // A deleted fact's pred is defined here.
  for (int r : strata_.rules_by_stratum[stratum]) {
    const Rule& rule = program.rule(r);
    if (del->CountFor(rule.head.predicate) > 0) head_deleted = true;
    for (const Premise& p : rule.premises) {
      const PredicateId pred = p.atom.predicate;
      const bool touched =
          ins->CountFor(pred) > 0 || del->CountFor(pred) > 0;
      switch (p.kind) {
        case PremiseKind::kPositive:
          if (touched) pos_touched = true;
          break;
        case PremiseKind::kNegated:
          if (touched) neg_touched = true;
          break;
        case PremiseKind::kHypothetical:
          has_hypo = true;
          break;
      }
    }
  }
  if (!pos_touched && !neg_touched && !head_deleted &&
      !(has_hypo && any_delta)) {
    return Status::OK();  // The delta cannot reach this stratum.
  }
  if (has_hypo && any_delta) {
    // A hypothetical premise consults a child model that changed
    // wholesale: outside DRed's reach — rebuild + diff.
    return RepairStratumRecompute(state, stratum, ins, del);
  }
  return RepairStratumIncremental(state, stratum, ins, del);
}

Status BottomUpEngine::RepairStratumIncremental(State* state, int stratum,
                                                Database* ins, Database* del) {
  ++stats_.strata_repaired;
  const RuleBase& program = *rulebase_;
  const std::vector<int>& stratum_rules = strata_.rules_by_stratum[stratum];

  std::unordered_set<PredicateId> pos_preds;  // Delta routing targets.
  std::unordered_set<PredicateId> neg_preds;
  std::unordered_set<PredicateId> head_preds;
  for (int r : stratum_rules) {
    const Rule& rule = program.rule(r);
    head_preds.insert(rule.head.predicate);
    for (const Premise& p : rule.premises) {
      if (p.kind == PremiseKind::kPositive) pos_preds.insert(p.atom.predicate);
      if (p.kind == PremiseKind::kNegated) neg_preds.insert(p.atom.predicate);
    }
  }

  // One batch of delta rule versions: for every rule and every positive
  // premise whose predicate appears in `round`, run the version with that
  // premise designated over `round`, and with `neg_round`, every
  // NegVersion whose negated predicate appears in it, designated over
  // `neg_round`. The other premises read the pre-epoch model when
  // plus/minus are set; each ground head goes to `on_head`.
  auto run_versions =
      [&](const Database& round, const Database* neg_round,
          const Database* plus, const Database* minus,
          const std::function<StatusOr<bool>(const Fact&)>& on_head)
      -> Status {
    for (int rule_index : stratum_rules) {
      const Rule& rule = program.rule(rule_index);
      auto run = [&](const std::vector<Premise>& premises,
                     const vm::Program& prog, const Database& delta) {
        EvalCtx ctx;
        ctx.state = state;
        ctx.delta = &delta;
        ctx.vis_plus = plus;
        ctx.vis_minus = minus;
        auto emit = [&](const ConstId* regs) -> StatusOr<bool> {
          ++stats_.goals_expanded;
          HYPO_RETURN_IF_ERROR(CheckLimits());
          return on_head(vm::GroundAtom(rule.head, regs));
        };
        return RunProgram(premises, prog, &ctx, emit).status();
      };
      for (int i = 0; i < static_cast<int>(rule.premises.size()); ++i) {
        const Premise& p = rule.premises[i];
        if (p.kind != PremiseKind::kPositive) continue;
        if (round.CountFor(p.atom.predicate) == 0) continue;
        HYPO_RETURN_IF_ERROR(
            run(rule.premises, *rule_programs_[rule_index].For(i), round));
      }
      if (neg_round == nullptr || !rule.HasNegatedPremise()) continue;
      for (const NegVersion& v : NegVersions(rule_index)) {
        const PredicateId pred = rule.premises[v.premise].atom.predicate;
        if (neg_round->CountFor(pred) == 0) continue;
        HYPO_RETURN_IF_ERROR(run(v.premises, v.prog, *neg_round));
      }
    }
    return Status::OK();
  };
  // The first round of either phase also runs the NegVersions over `of`,
  // when it holds facts of a negated predicate.
  auto negated_delta_in = [&](const Database* of) -> const Database* {
    for (PredicateId p : neg_preds) {
      if (of->CountFor(p) > 0) return of;
    }
    return nullptr;
  };

  // DRed overdeletion: every derived fact with SOME derivation through a
  // deleted fact, or through the absence of an inserted one, to
  // fixpoint. Non-designated premises evaluate against the PRE-epoch
  // model (plus = deletions so far, minus = insertions so far); same-
  // stratum overdeleted facts are still physically present until the
  // fixpoint completes, so they stay visible here too.
  Database overdeleted(base_->symbols_ptr());
  {
    Database round(base_->symbols_ptr());
    del->ForEach([&](const Fact& f) {
      if (pos_preds.count(f.predicate) > 0) round.Insert(f);
    });
    const Database* neg_round = negated_delta_in(ins);
    while (!round.empty() || neg_round != nullptr) {
      Database next(base_->symbols_ptr());
      HYPO_RETURN_IF_ERROR(run_versions(
          round, neg_round, /*plus=*/del, /*minus=*/ins,
          [&](const Fact& h) -> StatusOr<bool> {
            // Only currently derived facts can be overdeleted: stored
            // facts are not derived, and already-queued heads are done.
            if (!IsDerived(*state, h)) return true;
            if (!overdeleted.Insert(h)) return true;
            ++stats_.facts_overdeleted;
            if (pos_preds.count(h.predicate) > 0) next.Insert(h);
            return true;
          }));
      round = std::move(next);
      neg_round = nullptr;
    }
  }
  // Physically prune before rederiving, so an overdeleted fact can never
  // support itself (or a cycle partner) through a stale derivation. A
  // derived child hides the lower facts it loses. One batched retraction
  // compacts each touched relation of ext once, its indexes patched.
  {
    std::vector<Fact> pruned;
    overdeleted.ForEach([&](const Fact& f) {
      if (state->lower != nullptr && !state->ext.Contains(f)) {
        state->hidden.Insert(f);
      } else {
        pruned.push_back(f);
      }
    });
    state->ext.RetractBatch(pruned);
  }
  // An abort here leaves the model pruned but not rederived: the callers
  // must drop it (ApplyBaseDelta) or leave it dirty (DeriveChild).
  HYPO_FAILPOINT("bottomup.repair_stratum");

  // Rederivation: overdeleted facts — and this stratum's retracted base
  // facts — that still have a derivation in the pruned model survive the
  // epoch. Late restorations cascade through the insertion rounds below.
  Database restored(base_->symbols_ptr());
  Database reinserted(base_->symbols_ptr());
  std::vector<Fact> candidates;
  overdeleted.ForEach([&](const Fact& f) { candidates.push_back(f); });
  del->ForEach([&](const Fact& f) {
    if (head_preds.count(f.predicate) > 0) candidates.push_back(f);
  });
  for (const Fact& f : candidates) {
    HYPO_ASSIGN_OR_RETURN(bool derivable,
                          HeadDerivable(f, stratum, state));
    if (!derivable) continue;
    InsertDerived(state, f);
    ++stats_.facts_rederived;
    reinserted.Insert(f);
    if (overdeleted.Contains(f)) {
      restored.Insert(f);
    } else {
      del->Retract(f);  // A retracted base fact that is still derivable.
    }
  }

  // Insertion semi-naive rounds: this epoch's newly visible facts, every
  // rederived fact, and the net deletions from negated relations (each
  // may make a negation true) propagate through the stratum's rules
  // against the CURRENT model. The deletions are copied: the rounds edit
  // del.
  {
    Database round(base_->symbols_ptr());
    ins->ForEach([&](const Fact& f) {
      if (pos_preds.count(f.predicate) > 0) round.Insert(f);
    });
    reinserted.ForEach([&](const Fact& f) {
      if (pos_preds.count(f.predicate) > 0) round.Insert(f);
    });
    Database negated_del(base_->symbols_ptr());
    del->ForEach([&](const Fact& f) {
      if (neg_preds.count(f.predicate) > 0) negated_del.Insert(f);
    });
    const Database* neg_round = negated_delta_in(&negated_del);
    while (!round.empty() || neg_round != nullptr) {
      Database next(base_->symbols_ptr());
      HYPO_RETURN_IF_ERROR(run_versions(
          round, neg_round, /*plus=*/nullptr, /*minus=*/nullptr,
          [&](const Fact& h) -> StatusOr<bool> {
            if (Visible(*state, h)) return true;
            InsertDerived(state, h);
            ++stats_.facts_derived;
            // Net bookkeeping: a fact visible before the epoch
            // (overdeleted above, or a retracted base fact) is merely
            // restored; everything else is a genuine insertion.
            if (overdeleted.Contains(h)) {
              restored.Insert(h);
            } else if (del->Contains(h)) {
              del->Retract(h);
            } else {
              ins->Insert(h);
            }
            if (pos_preds.count(h.predicate) > 0) next.Insert(h);
            return true;
          }));
      round = std::move(next);
      neg_round = nullptr;
    }
  }

  // Commit this stratum's net deletions for the strata above.
  overdeleted.ForEach([&](const Fact& f) {
    if (!restored.Contains(f)) del->Insert(f);
  });
  return Status::OK();
}

const std::vector<BottomUpEngine::NegVersion>& BottomUpEngine::NegVersions(
    int rule_index) {
  RuleProgs& progs = rule_programs_[rule_index];
  if (progs.negs_compiled) return progs.negs;
  progs.negs_compiled = true;
  const Rule& rule = rulebase_->rule(rule_index);
  // Variables the head or a non-negated premise binds; a negation's other
  // variables are negation-local (the ∄ reading).
  std::vector<bool> outside(rule.num_vars(), false);
  auto mark = [&outside](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_var()) outside[t.var_index()] = true;
    }
  };
  mark(rule.head);
  for (const Premise& p : rule.premises) {
    if (p.kind == PremiseKind::kNegated) continue;
    mark(p.atom);
    for (const Atom& a : p.additions) mark(a);
    for (const Atom& a : p.deletions) mark(a);
  }
  for (int i = 0; i < static_cast<int>(rule.premises.size()); ++i) {
    if (rule.premises[i].kind != PremiseKind::kNegated) continue;
    NegVersion v;
    v.premise = i;
    Atom copy = rule.premises[i].atom;
    int num_vars = rule.num_vars();
    std::unordered_map<VarIndex, VarIndex> fresh;
    for (Term& t : copy.args) {
      if (!t.is_var() || outside[t.var_index()]) continue;
      auto [it, added] = fresh.emplace(t.var_index(), num_vars);
      if (added) ++num_vars;
      t = Term::MakeVar(it->second);
    }
    v.premises.reserve(rule.premises.size() + 1);
    v.premises.push_back(Premise::Positive(copy));
    v.premises.insert(v.premises.end(), rule.premises.begin(),
                      rule.premises.end());
    // The scan over the delta goes first, and the body is planned with
    // its variables bound, so a version costs work per delta fact.
    std::vector<bool> entry(num_vars, false);
    for (const Term& t : copy.args) {
      if (t.is_var()) entry[t.var_index()] = true;
    }
    const BodyPlan body =
        BodyPlan::Build(rule.premises, &rule.head, num_vars, base_, &entry);
    BodyPlan plan;
    plan.steps.push_back(PlanStep{PlanStep::Kind::kMatchPositive, 0, {}, 0});
    for (PlanStep step : body.steps) {
      if (step.premise_index >= 0) ++step.premise_index;
      plan.steps.push_back(std::move(step));
    }
    vm::CompileInput in;
    in.premises = &v.premises;
    in.plan = &plan;
    in.num_vars = num_vars;
    in.delta_premise = 0;
    v.prog = vm::Compile(in);
    ++stats_.vm_programs_compiled;
    // Its probes bind other columns than the rule's plan does; the next
    // seal of the base (a server epoch, a top-level fixpoint) indexes
    // them too.
    AddProbeSignatures(v.premises, plan);
    progs.negs.push_back(std::move(v));
  }
  return progs.negs;
}

void BottomUpEngine::AddProbeSignatures(const std::vector<Premise>& premises,
                                        const BodyPlan& plan) {
  for (const PlanStep& step : plan.steps) {
    if (step.probe_mask == 0) continue;
    if (step.kind != PlanStep::Kind::kMatchPositive &&
        step.kind != PlanStep::Kind::kNegated) {
      continue;
    }
    const std::pair<PredicateId, ColumnMask> sig{
        premises[step.premise_index].atom.predicate, step.probe_mask};
    if (std::find(static_sigs_.begin(), static_sigs_.end(), sig) ==
        static_sigs_.end()) {
      static_sigs_.push_back(sig);
    }
  }
}

Status BottomUpEngine::RepairStratumRecompute(State* state, int stratum,
                                              Database* ins, Database* del) {
  ++stats_.strata_recomputed;
  const RuleBase& program = *rulebase_;
  std::unordered_set<PredicateId> head_preds;
  for (int r : strata_.rules_by_stratum[stratum]) {
    head_preds.insert(program.rule(r).head.predicate);
  }
  // Pre-epoch visible set of each head predicate: what is stored now,
  // minus this epoch's insertions, plus its deletions.
  std::unordered_map<PredicateId, std::unordered_set<Tuple, TupleHash>>
      old_visible;
  auto insert_tuples = [](const Database& db, PredicateId p, auto&& accept) {
    const Database::RowsView rows = db.TuplesFor(p);
    for (size_t i = 0; i < rows.size(); ++i) accept(rows.TupleAt(i));
  };
  for (PredicateId p : head_preds) {
    auto& old_set = old_visible[p];
    insert_tuples(*base_, p, [&](Tuple t) {
      if (!ins->Contains(p, t)) old_set.insert(std::move(t));
    });
    insert_tuples(state->ext, p, [&](Tuple t) {
      if (!ins->Contains(p, t)) old_set.insert(std::move(t));
    });
    insert_tuples(*del, p, [&](Tuple t) { old_set.insert(std::move(t)); });
    // The predicate's net delta is recomputed from scratch by the diff.
    ins->ClearRelation(p);
    del->ClearRelation(p);
    state->ext.ClearRelation(p);
  }
  HYPO_RETURN_IF_ERROR(ComputeStratum(state, stratum));
  for (PredicateId p : head_preds) {
    const auto& old_set = old_visible[p];
    std::unordered_set<Tuple, TupleHash> new_set;
    insert_tuples(*base_, p, [&](Tuple t) { new_set.insert(std::move(t)); });
    insert_tuples(state->ext, p,
                  [&](Tuple t) { new_set.insert(std::move(t)); });
    for (const Tuple& t : new_set) {
      if (old_set.count(t) == 0) ins->Insert(Fact{p, t});
    }
    for (const Tuple& t : old_set) {
      if (new_set.count(t) == 0) del->Insert(Fact{p, t});
    }
  }
  return Status::OK();
}

StatusOr<bool> BottomUpEngine::HeadDerivable(const Fact& fact, int stratum,
                                             State* state) {
  const RuleBase& program = *rulebase_;
  for (int rule_index : strata_.rules_by_stratum[stratum]) {
    const Rule& rule = program.rule(rule_index);
    if (rule.head.predicate != fact.predicate) continue;
    vm::Program& prog = rule_programs_[rule_index].head;
    if (prog.ops.empty()) {
      // Compiled on first use: only retracting epochs rederive. The head
      // binds from the fact, so a constant mismatch or an inconsistent
      // repeated variable rules the rule out before its body runs.
      vm::CompileInput in;
      in.premises = &rule.premises;
      in.plan = &rule_plans_[rule_index];
      in.num_vars = rule.num_vars();
      in.head = &rule.head;
      prog = vm::Compile(in);
      ++stats_.vm_programs_compiled;
    }
    EvalCtx ctx;
    ctx.state = state;
    bool found = false;
    auto emit = [&found](const ConstId*) -> StatusOr<bool> {
      found = true;
      return false;  // One witness suffices.
    };
    HYPO_RETURN_IF_ERROR(
        RunProgram(rule.premises, prog, &ctx, emit, &fact.args).status());
    if (found) return true;
  }
  return false;
}

std::string BottomUpEngine::ExplainPlans() const {
  if (!initialized_) return "bottom-up: not initialized\n";
  std::ostringstream out;
  const RuleBase& program = *rulebase_;
  const SymbolTable& symbols = *base_->symbols_ptr();
  out << "engine=bottom-up\n";
  for (int r = 0; r < program.num_rules(); ++r) {
    const Rule& rule = program.rule(r);
    out << "  rule " << r << ": "
        << symbols.PredicateName(rule.head.predicate) << "/"
        << rule.head.args.size() << "\n";
    out << DescribePlan(rule_plans_[r], rule.premises, symbols);
    out << "    bytecode (full):\n"
        << vm::Disassemble(rule_programs_[r].full, rule.premises, symbols);
    for (const auto& [premise, prog] : rule_programs_[r].deltas) {
      out << "    bytecode (delta p" << premise << "):\n"
          << vm::Disassemble(prog, rule.premises, symbols);
    }
  }
  return out.str();
}

const EngineStats& BottomUpEngine::stats() const {
  // Probes are counted at this engine's own scan sites. Index builds and
  // sorts live in the Databases themselves: the shared base, each
  // memoized state's model, and the per-round deltas already retired.
  CurrentIndexTotals().ReportSince(index_base_, &stats_);
  stats_.index_builds += retired_index_builds_;
  stats_.memo_bytes = interner_.ApproxBytes() + ctx_interner_.ApproxBytes();
  stats_.arena_bytes = base_->ArenaBytes();
  for (const auto& [key, state] : states_) {
    stats_.arena_bytes += state->ext.ArenaBytes();
    stats_.memo_bytes += StateBytes(*state);
  }
  // Non-empty hypothetical contexts interned as state-cache keys (the
  // ever-present empty context is the base state, not a hypothesis).
  stats_.contexts_interned = ctx_interner_.num_contexts() - 1;
  return stats_;
}

IndexTotals BottomUpEngine::CurrentIndexTotals() const {
  IndexTotals totals;
  totals.Add(*base_);
  for (const auto& [key, state] : states_) totals.Add(state->ext);
  return totals;
}

void BottomUpEngine::ResetStats() {
  stats_ = EngineStats();
  retired_index_builds_ = 0;
  index_base_ = CurrentIndexTotals();
}

StatusOr<bool> BottomUpEngine::ProveFact(const Fact& fact) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(EnsureFactConstants(fact));
  GuardScope guard_scope(&guard_, options_, &stats_);
  if (guard_.wants_memory()) RecomputeTrackedBytes();
  HYPO_ASSIGN_OR_RETURN(State * top, MaterializeBase());
  return Visible(*top, fact);
}

Status BottomUpEngine::RunQuery(const Query& query,
                                std::vector<Tuple>* answers, bool* found) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(CheckQueryRestrictions(*rulebase_, query));
  HYPO_RETURN_IF_ERROR(EnsureConstants(query));
  GuardScope guard_scope(&guard_, options_, &stats_);
  if (guard_.wants_memory()) RecomputeTrackedBytes();
  HYPO_ASSIGN_OR_RETURN(State * top, MaterializeBase());
  Atom head = PseudoHead(query);
  BodyPlan plan =
      BodyPlan::Build(query.premises, &head, query.num_vars(), base_);
  vm::CompileInput in;
  in.premises = &query.premises;
  in.plan = &plan;
  in.num_vars = query.num_vars();
  vm::Program prog = vm::Compile(in);
  ++stats_.vm_programs_compiled;
  EvalCtx ctx;
  ctx.state = top;
  std::unordered_set<Tuple, TupleHash> seen;
  // The pseudo-head enumerates every query variable, so all registers are
  // bound at emit and the register file IS the answer tuple.
  auto emit = [&](const ConstId* regs) -> StatusOr<bool> {
    *found = true;
    if (answers == nullptr) return false;  // Stop at the first witness.
    Tuple t(regs, regs + query.num_vars());
    if (seen.insert(t).second) answers->push_back(std::move(t));
    return true;
  };
  return RunProgram(query.premises, prog, &ctx, emit).status();
}

StatusOr<bool> BottomUpEngine::ProveQuery(const Query& query) {
  bool found = false;
  HYPO_RETURN_IF_ERROR(RunQuery(query, nullptr, &found));
  return found;
}

StatusOr<std::vector<Tuple>> BottomUpEngine::Answers(const Query& query) {
  std::vector<Tuple> answers;
  bool found = false;
  HYPO_RETURN_IF_ERROR(RunQuery(query, &answers, &found));
  return answers;
}

StatusOr<std::vector<Tuple>> BottomUpEngine::FactsFor(PredicateId pred) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  GuardScope guard_scope(&guard_, options_, &stats_);
  if (guard_.wants_memory()) RecomputeTrackedBytes();
  HYPO_ASSIGN_OR_RETURN(State * top, MaterializeBase());
  std::vector<Tuple> out;
  const Database::RowsView base_rows = base_->TuplesFor(pred);
  const Database::RowsView ext_rows = top->ext.TuplesFor(pred);
  out.reserve(base_rows.size() + ext_rows.size());
  for (size_t i = 0; i < base_rows.size(); ++i) {
    out.push_back(base_rows.TupleAt(i));
  }
  for (size_t i = 0; i < ext_rows.size(); ++i) {
    out.push_back(ext_rows.TupleAt(i));
  }
  return out;
}

}  // namespace hypo
