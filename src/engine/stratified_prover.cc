#include "engine/stratified_prover.h"

#include "base/cleanup.h"
#include "base/failpoint.h"
#include "base/stopwatch.h"
#include "engine/memo_board.h"
#include "engine/scan.h"
#include "engine/vm/compiler.h"
#include "engine/vm/executor.h"

#include <algorithm>
#include <climits>
#include <sstream>

namespace hypo {

namespace {

std::vector<ConstId> QueryConstants(const Query& query) {
  std::vector<ConstId> out;
  auto collect = [&out](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_const()) out.push_back(t.const_id());
    }
  };
  for (const Premise& p : query.premises) {
    collect(p.atom);
    for (const Atom& a : p.additions) collect(a);
  }
  return out;
}

Atom PseudoHead(const Query& query) {
  Atom head;
  head.predicate = kInvalidPredicate;
  for (int v = 0; v < query.num_vars(); ++v) {
    head.args.push_back(Term::MakeVar(v));
  }
  return head;
}

/// Compile modes for the cascade: a Σ-defined premise (even partition
/// > 0) is a subproof; extensional and Δ premises match storage (with
/// the Δ model as an extra scan segment, resolved by the host at run
/// time). Negation follows the same split.
std::vector<vm::PremiseMode> StratifiedModes(
    const LinearStratification& strat,
    const std::vector<Premise>& premises) {
  std::vector<vm::PremiseMode> modes(premises.size(),
                                     vm::PremiseMode::kStorage);
  for (size_t i = 0; i < premises.size(); ++i) {
    const Premise& p = premises[i];
    if (p.kind == PremiseKind::kHypothetical) continue;
    const PredicateId pred = p.atom.predicate;
    if (pred < 0 ||
        pred >= static_cast<int>(strat.partition_of_pred.size())) {
      continue;
    }
    const int part = strat.partition_of_pred[pred];
    if (part > 0 && part % 2 == 0) modes[i] = vm::PremiseMode::kProve;
  }
  return modes;
}

}  // namespace

StratifiedProver::StratifiedProver(const RuleBase* rulebase,
                                   const Database* db, EngineOptions options)
    : rulebase_(rulebase), base_(db), options_(options) {}

Status StratifiedProver::Init() {
  if (rulebase_->symbols_ptr().get() != base_->symbols_ptr().get()) {
    return Status::InvalidArgument(
        "rulebase and database must share one SymbolTable");
  }
  if (rulebase_->HasDeletions()) {
    return Status::Unimplemented(
        "hypothetical deletion ([del: ...]) is supported only by "
        "TabledEngine; the paper's linear stratification covers "
        "insertions only");
  }
  HYPO_ASSIGN_OR_RETURN(strat_, ComputeLinearStratification(*rulebase_));
  HYPO_RETURN_IF_ERROR(CheckRuleRestrictions(*rulebase_));
  restrictions_ = std::make_unique<RestrictionAnalysis>(rulebase_);
  rule_plans_.clear();
  rule_plans_.reserve(rulebase_->num_rules());
  for (const Rule& rule : rulebase_->rules()) {
    rule_plans_.push_back(
        BodyPlan::Build(rule.premises, &rule.head, rule.num_vars(), base_));
  }
  rule_programs_.clear();
  rule_programs_.reserve(rulebase_->num_rules());
  for (int r = 0; r < rulebase_->num_rules(); ++r) {
    const Rule& rule = rulebase_->rule(r);
    vm::CompileInput in;
    in.premises = &rule.premises;
    in.plan = &rule_plans_[r];
    in.num_vars = rule.num_vars();
    // Σ-headed rules enter from a ground goal (ProveSigma binds the
    // head); Δ-headed rules enter unbound from the model fixpoint.
    if (PartitionOf(rule.head.predicate) % 2 == 0) in.head = &rule.head;
    in.modes = StratifiedModes(strat_, rule.premises);
    rule_programs_.push_back(vm::Compile(in));
    ++stats_.vm_programs_compiled;
  }
  domain_ = ComputeDomain(*rulebase_, *base_, extra_constants_);
  domain_set_.clear();
  domain_set_.insert(domain_.begin(), domain_.end());
  overlay_ = std::make_unique<OverlayDatabase>(base_, &interner_);
  ClearMemos();
  // Local context ids restart with the fresh overlay; the board-side fact
  // map survives (interner_ is never cleared).
  board_contexts_.clear();
  domain_fp_ = DomainFingerprint(domain_);
  ++stats_.domain_rebuilds;
  initialized_ = true;
  return Status::OK();
}

void StratifiedProver::AttachMemoBoard(MemoBoard* board) {
  board_ = board;
  board_facts_.clear();
  board_contexts_.clear();
}

FactId StratifiedProver::BoardFact(FactId local_id, const Fact& fact) {
  if (local_id >= static_cast<FactId>(board_facts_.size())) {
    board_facts_.resize(local_id + 1, -1);
  }
  FactId& slot = board_facts_[local_id];
  if (slot < 0) slot = board_->InternFact(fact);
  return slot;
}

ContextId StratifiedProver::BoardContext(PredicateId goal_pred) {
  ContextId local = overlay_->context_id();
  const bool filtered = restrictions_->active();
  if (!filtered) {
    auto it = board_contexts_.find(local);
    if (it != board_contexts_.end()) return it->second;
  }
  board_elems_.clear();
  for (int64_t e : overlay_->context_interner().Elements(local)) {
    FactId local_fact = static_cast<FactId>(e >> 1);
    const Fact& f = interner_.Get(local_fact);
    if (filtered && !restrictions_->Relevant(goal_pred, f.predicate)) {
      continue;
    }
    FactId bid = BoardFact(local_fact, f);
    board_elems_.push_back((e & 1) != 0
                               ? ContextInterner::MaskedElement(bid)
                               : ContextInterner::AddedElement(bid));
  }
  bool reused = false;
  ContextId board_ctx = board_->InternContext(board_elems_, &reused);
  if (reused) ++stats_.contexts_reused;
  if (!filtered) board_contexts_.emplace(local, board_ctx);
  return board_ctx;
}

void StratifiedProver::ClearMemos() {
  goal_memo_.clear();
  delta_models_.clear();
  delta_model_bytes_ = 0;
}

Status StratifiedProver::EnsureConstants(const Query& query) {
  bool missing = false;
  for (ConstId c : QueryConstants(query)) {
    // domain_set_ membership both dedupes extra_constants_ (repeated
    // queries with the same out-of-domain constant must not grow it) and
    // guards against re-adding a constant Init already folded in.
    if (domain_set_.insert(c).second) {
      extra_constants_.push_back(c);
      missing = true;
    }
  }
  if (missing) return Init();
  return Status::OK();
}

Status StratifiedProver::EnsureFactConstants(const Fact& fact) {
  bool missing = false;
  for (ConstId c : fact.args) {
    if (domain_set_.insert(c).second) {
      extra_constants_.push_back(c);
      missing = true;
    }
  }
  if (missing) return Init();
  return Status::OK();
}

Status StratifiedProver::CheckLimits() {
  if (stats_.goals_expanded > options_.max_steps ||
      stats_.enumerations > options_.max_steps) {
    return Status::ResourceExhausted(LimitTripMessage(
        "max_steps", options_.max_steps,
        std::max(stats_.goals_expanded, stats_.enumerations)));
  }
  int64_t states = std::max<int64_t>(
      static_cast<int64_t>(goal_memo_.size() + delta_models_.size()),
      overlay_->context_interner().num_contexts());
  if (states > options_.max_states) {
    return Status::ResourceExhausted(
        LimitTripMessage("max_states", options_.max_states, states));
  }
  if (guard_.armed()) {
    ++stats_.guard_checks;
    return guard_.Check(guard_.wants_memory() ? MemoryBytes() : -1);
  }
  return Status::OK();
}

int64_t StratifiedProver::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(
      goal_memo_.size() *
          (sizeof(GoalKey) + sizeof(GoalEntry) + 2 * sizeof(void*)) +
      delta_models_.size() * (sizeof(DeltaKey) + sizeof(void*) +
                              sizeof(Database) + 2 * sizeof(void*)));
  bytes += delta_model_bytes_;
  if (building_model_ != nullptr) bytes += building_model_->ApproxBytes();
  bytes += interner_.ApproxBytes();
  if (overlay_ != nullptr) {
    bytes +=
        static_cast<int64_t>(overlay_->context_interner().ApproxBytes());
  }
  return bytes;
}

ContextId StratifiedProver::CurrentContext() const {
  if (options_.validate_contexts) {
    HYPO_CHECK(overlay_->DebugContextConsistent())
        << "interned context id drifted from the canonical overlay key";
  }
  return overlay_->context_id();
}

IndexTotals StratifiedProver::CurrentIndexTotals() const {
  IndexTotals totals;
  totals.Add(*base_);
  for (const auto& [key, model] : delta_models_) totals.Add(*model);
  return totals;
}

void StratifiedProver::ResetStats() {
  stats_ = EngineStats();
  index_base_ = CurrentIndexTotals();
}

const EngineStats& StratifiedProver::stats() const {
  if (overlay_ != nullptr) {
    const ContextInterner& contexts = overlay_->context_interner();
    stats_.contexts_interned = contexts.num_contexts();
    stats_.context_transitions = contexts.transitions();
    stats_.context_cache_hits = contexts.transition_hits();
    // Probes are counted at this engine's own scan sites.
    CurrentIndexTotals().ReportSince(index_base_, &stats_);
    stats_.arena_bytes = base_->ArenaBytes();
    for (const auto& [key, model] : delta_models_) {
      stats_.arena_bytes += model->ArenaBytes();
    }
  }
  stats_.memo_bytes = MemoryBytes();
  return stats_;
}

// Δ-model resolution is statusful — DeltaModelFor may run a whole
// fixpoint — and happens BEFORE any membership check.
template <typename EmitFn>
struct StratifiedProver::VmHost {
  StratifiedProver* eng;
  const std::vector<Premise>* premises;
  EvalContext* ctx;
  const EmitFn* emit;
  Binding* scratch;  // kNegProbe seeding; bound_vars Set/Unset per test.

  /// The Δ model backing `pred`'s storage segment: the model under
  /// construction for same-partition occurrences inside its own fixpoint,
  /// the memoized (or freshly computed) model otherwise; null for
  /// extensional predicates.
  StatusOr<const Database*> ModelFor(PredicateId pred) {
    const int part = eng->PartitionOf(pred);
    if (part % 2 != 1) return static_cast<const Database*>(nullptr);
    if (ctx->building_ext != nullptr && part == ctx->building_partition) {
      return static_cast<const Database*>(ctx->building_ext);
    }
    return eng->DeltaModelFor((part + 1) / 2);
  }

  Status OpenScan(const vm::Op& op, const std::vector<ConstId>&,
                  vm::ScanState* st) {
    // Base relation, overlay additions, then the Δ model if any (the
    // building model can grow beneath a suspended scan; the enclosing
    // fixpoint re-runs the rule until convergence).
    st->AddDb(eng->base_);
    st->AddOverlay(eng->overlay_.get());
    HYPO_ASSIGN_OR_RETURN(const Database* model, ModelFor(op.pred));
    if (model != nullptr) st->AddDb(model);
    return Status::OK();
  }

  template <typename Row>
  bool AcceptRow(const vm::Op&, const Row&) {
    // Deletions are rejected by Init, so every stored tuple is visible.
    ++eng->stats_.join_probes;
    return true;
  }

  StatusOr<bool> TestGround(const vm::Op& op,
                            const std::vector<ConstId>& regs) {
    const Atom& atom = (*premises)[op.premise_index].atom;
    HYPO_ASSIGN_OR_RETURN(const Database* model, ModelFor(op.pred));
    Fact f = vm::GroundAtom(atom, regs.data());
    if (eng->overlay_->Contains(f)) return true;
    return model != nullptr && model->Contains(f);
  }

  StatusOr<bool> ProveCall(const vm::Op& op,
                           const std::vector<ConstId>& regs) {
    const Atom& atom = (*premises)[op.premise_index].atom;
    EvalContext sub = *ctx;
    sub.depth = ctx->depth + 1;
    return eng->ProveGround(vm::GroundAtom(atom, regs.data()), &sub);
  }

  StatusOr<bool> HypoTest(const vm::Op& op,
                          const std::vector<ConstId>& regs) {
    const Premise& premise = (*premises)[op.premise_index];
    if (!premise.deletions.empty()) {
      return Status::Unimplemented(
          "hypothetical deletion is supported only by TabledEngine");
    }
    Fact query = vm::GroundAtom(premise.atom, regs.data());
    HYPO_FAILPOINT("stratified.hypo_push");
    eng->overlay_->PushFrame();
    for (const Atom& a : premise.additions) {
      eng->overlay_->Add(vm::GroundAtom(a, regs.data()));
    }
    EvalContext sub = *ctx;
    sub.depth = ctx->depth + 1;
    // The queried atom is evaluated in the *new* state; a Δ model under
    // construction belongs to the old state and must not leak into it.
    sub.building_ext = nullptr;
    sub.building_partition = 0;
    StatusOr<bool> holds = eng->ProveGround(query, &sub);
    eng->overlay_->PopFrame();
    return holds;
  }

  /// A negated Σ premise: some grounding of op.free_vars over the domain
  /// is provable (duplicate occurrences kept — domain² semantics; the
  /// register writes are dead, later ops never read free registers).
  StatusOr<bool> ExistsFrom(const vm::Op& op, const Atom& atom, size_t v,
                            ConstId* regs) {
    if (v == op.free_vars.size()) {
      EvalContext sub = *ctx;
      sub.depth = ctx->depth + 1;
      return eng->ProveGround(vm::GroundAtom(atom, regs), &sub);
    }
    for (ConstId c : eng->domain_) {
      HYPO_RETURN_IF_ERROR(eng->CountEnumeration());
      regs[op.free_vars[v]] = c;
      HYPO_ASSIGN_OR_RETURN(bool found, ExistsFrom(op, atom, v + 1, regs));
      if (found) return true;
    }
    return false;
  }

  StatusOr<bool> NegHolds(const vm::Op& op, std::vector<ConstId>& regs) {
    const Atom& atom = (*premises)[op.premise_index].atom;
    if (op.code == vm::OpCode::kNegCall) {
      // Σ predicate from a strictly higher stratum: ask the complete
      // lower-stratum procedure for a witness.
      HYPO_ASSIGN_OR_RETURN(bool exists,
                            ExistsFrom(op, atom, 0, regs.data()));
      return !exists;
    }
    // Extensional or Δ: a negated same-segment Δ predicate belongs to a
    // strictly lower substratum, whose tuples in the building model are
    // already final.
    HYPO_ASSIGN_OR_RETURN(const Database* model, ModelFor(op.pred));
    if (op.code == vm::OpCode::kNegGround) {
      Fact f = vm::GroundAtom(atom, regs.data());
      if (eng->overlay_->Contains(f)) return false;
      return !(model != nullptr && model->Contains(f));
    }
    // kNegProbe: seed exactly the statically bound variables (unbound
    // registers hold stale candidate values and must not leak in).
    for (VarIndex v : op.bound_vars) scratch->Set(v, regs[v]);
    const bool witness = eng->ExistsStored(atom, scratch, model);
    for (VarIndex v : op.bound_vars) scratch->Unset(v);
    return !witness;
  }

  StatusOr<bool> Emit(const std::vector<ConstId>& regs) {
    return (*emit)(regs.data());
  }

  const std::vector<ConstId>& Domain() { return eng->domain_; }
  Status CountEnumeration() { return eng->CountEnumeration(); }
  void CountSorted(size_t rows) {
    ++eng->stats_.sorted_probes;
    eng->stats_.merge_join_rows += static_cast<int64_t>(rows);
  }
  void FlushOps(int64_t executed) {
    eng->stats_.vm_ops_executed += executed;
  }
};

template <typename EmitFn>
StatusOr<bool> StratifiedProver::RunProgram(
    const std::vector<Premise>& premises, const vm::Program& prog,
    EvalContext* ctx, vm::FrameStack::Frame* frame, const EmitFn& emit) {
  VmHost<EmitFn> host{this, &premises, ctx, &emit, &frame->neg};
  return vm::Run(prog, &host, &frame->regs, &frame->states);
}

StatusOr<bool> StratifiedProver::ProveGround(const Fact& goal,
                                             EvalContext* ctx) {
  int part = PartitionOf(goal.predicate);
  if (part == 0) {
    // Extensional predicate: inference rule 1 only.
    return overlay_->Contains(goal);
  }
  if (part % 2 == 1) {
    // Δ predicate: membership in the perfect model of its Δ segment
    // (which subsumes inference rule 1, since LFP starts from DB).
    if (ctx->building_ext != nullptr && part == ctx->building_partition) {
      // The model of this very segment is under construction (a positive
      // or lower-substratum occurrence inside Δ_i); consult the partial
      // model — the enclosing fixpoint re-checks until convergence.
      return overlay_->Contains(goal) || ctx->building_ext->Contains(goal);
    }
    HYPO_ASSIGN_OR_RETURN(const Database* model,
                          DeltaModelFor((part + 1) / 2));
    return overlay_->Contains(goal) || model->Contains(goal);
  }
  return ProveSigma(goal, ctx);
}

StatusOr<bool> StratifiedProver::ProveSigma(const Fact& goal,
                                            EvalContext* ctx) {
  // Inference rule 1: the goal may simply be a database entry.
  if (overlay_->Contains(goal)) return true;

  GoalKey key{interner_.Intern(goal), CurrentContext()};
  auto it = goal_memo_.find(key);
  if (it != goal_memo_.end()) {
    switch (it->second.status) {
      case GoalEntry::Status::kTrue:
        ++stats_.memo_hits;
        return true;
      case GoalEntry::Status::kFalse:
        ++stats_.memo_hits;
        return false;
      case GoalEntry::Status::kInProgress:
        // The goal is on the DFS stack with the same state: a circular
        // derivation, pruned (least-fixpoint semantics). Record the
        // ancestor's depth so failure caching stays sound.
        if (ctx->min_pruned != nullptr) {
          *ctx->min_pruned = std::min(*ctx->min_pruned, it->second.depth);
        }
        return false;
    }
  }

  // Cross-query memo: settled verdicts published by any pool engine are
  // adopted into the local memo (same discipline as TabledEngine).
  FactId board_fact = -1;
  ContextId board_ctx = ContextInterner::kEmptyContext;
  if (board_ != nullptr) {
    board_fact = BoardFact(key.fact, goal);
    board_ctx = BoardContext(goal.predicate);
    int known = board_->LookupGoal(board_fact, board_ctx, domain_fp_);
    if (known != 0) {
      ++stats_.cache_hits_cross_query;
      goal_memo_[key] = GoalEntry{known > 0 ? GoalEntry::Status::kTrue
                                            : GoalEntry::Status::kFalse,
                                  ctx->depth};
      return known > 0;
    }
  }

  ++stats_.goals_expanded;
  HYPO_RETURN_IF_ERROR(CheckLimits());
  int depth = ctx->depth;
  stats_.max_goal_depth = std::max<int64_t>(stats_.max_goal_depth, depth);
  goal_memo_[key] = GoalEntry{GoalEntry::Status::kInProgress, depth};
  // Same abort-recovery guard as TabledEngine::ProveGoal: an early error
  // return (CheckLimits inside a rule program) must not leak the kInProgress
  // entry, or later queries on this engine prune on a dead "on-stack"
  // goal. DeltaModelFor needs no guard — it memoizes its model only after
  // the fixpoint completes, so an abort leaves no partial Δ model behind.
  Cleanup unmark([this, &key] {
    auto entry = goal_memo_.find(key);
    if (entry != goal_memo_.end() &&
        entry->second.status == GoalEntry::Status::kInProgress) {
      goal_memo_.erase(entry);
    }
  });
  // After the unmark guard, so an injected abort exercises it.
  HYPO_FAILPOINT("stratified.memo_insert");

  int my_min = INT_MAX;
  bool proved = false;
  for (int rule_index : rulebase_->DefinitionOf(goal.predicate)) {
    const Rule& rule = rulebase_->rule(rule_index);
    const vm::Program& prog = rule_programs_[rule_index];
    vm::FrameLease frame(&vm_frames_, prog.num_vars);
    if (!vm::MatchHead(prog, goal.args, frame->regs.data())) continue;
    // Σ rules never match against a Δ model under construction: the
    // fresh context leaves building_ext null.
    EvalContext sub;
    sub.depth = depth + 1;
    sub.min_pruned = &my_min;
    auto emit = [&proved](const ConstId*) -> StatusOr<bool> {
      proved = true;
      return false;  // First proof wins; stop enumerating.
    };
    HYPO_RETURN_IF_ERROR(
        RunProgram(rule.premises, prog, &sub, frame.get(), emit).status());
    if (proved) break;
  }

  if (proved) {
    goal_memo_[key] = GoalEntry{GoalEntry::Status::kTrue, depth};
    if (board_fact >= 0) {
      board_->PublishGoal(board_fact, board_ctx, domain_fp_, true);
    }
    return true;
  }
  if (my_min >= depth) {
    // Every pruned in-progress goal was this goal itself (or deeper):
    // the failure is context-free and safe to cache (and to share).
    goal_memo_[key] = GoalEntry{GoalEntry::Status::kFalse, depth};
    if (board_fact >= 0) {
      board_->PublishGoal(board_fact, board_ctx, domain_fp_, false);
    }
  } else {
    // The failure depended on a shallower in-progress ancestor; it may
    // not hold once that ancestor resolves, so forget it and propagate.
    goal_memo_.erase(key);
    if (ctx->min_pruned != nullptr) {
      *ctx->min_pruned = std::min(*ctx->min_pruned, my_min);
    }
  }
  return false;
}

StatusOr<const Database*> StratifiedProver::DeltaModelFor(int stratum_i) {
  DeltaKey key{stratum_i, CurrentContext()};
  auto it = delta_models_.find(key);
  if (it != delta_models_.end()) {
    ++stats_.memo_hits;
    return it->second.get();
  }
  HYPO_RETURN_IF_ERROR(CheckLimits());
  HYPO_FAILPOINT("stratified.delta_model");
  ++stats_.states_evaluated;
  if (static_cast<int>(stats_.stratum_micros.size()) < stratum_i) {
    stats_.stratum_micros.resize(stratum_i, 0);
  }
  Stopwatch stratum_timer;
  auto ext = std::make_unique<Database>(base_->symbols_ptr());
  Database* model = ext.get();
  const int partition = 2 * stratum_i - 1;

  // Expose the in-flight model to the memory budget; restore the outer
  // one (lower-stratum oracle calls recurse through here) on every exit.
  const Database* prev_building = building_model_;
  building_model_ = model;
  Cleanup restore_building(
      [this, prev_building] { building_model_ = prev_building; });

  // §5.2.2: apply the substrata Δ_i1 ... Δ_im in order, each to fixpoint.
  for (const std::vector<int>& substratum :
       strat_.delta_substrata[stratum_i - 1]) {
    std::unordered_set<PredicateId> changed_last_round;
    bool first_round = true;
    while (true) {
      ++stats_.fixpoint_rounds;
      std::vector<PredicateId> changed_now;
      for (int rule_index : substratum) {
        const Rule& rule = rulebase_->rule(rule_index);
        // Rule-filter rounds: after the first, only rules with a premise
        // over a predicate that changed last round can derive more.
        if (!first_round) {
          bool relevant = false;
          for (const Premise& p : rule.premises) {
            if (changed_last_round.count(p.atom.predicate) > 0) {
              relevant = true;
              break;
            }
          }
          if (!relevant) continue;
        }
        EvalContext ctx;
        int min_pruned = INT_MAX;
        ctx.min_pruned = &min_pruned;
        ctx.building_ext = model;
        ctx.building_partition = partition;
        const vm::Program& prog = rule_programs_[rule_index];
        vm::FrameLease frame(&vm_frames_, prog.num_vars);
        Fact head;  // Reused across emits; Insert copies it out.
        auto emit = [&](const ConstId* r) -> StatusOr<bool> {
          ++stats_.goals_expanded;
          HYPO_RETURN_IF_ERROR(CheckLimits());
          vm::GroundAtomInto(rule.head, r, &head);
          if (!overlay_->Contains(head) && !model->Contains(head)) {
            model->Insert(head);
            ++stats_.facts_derived;
            changed_now.push_back(head.predicate);
          }
          return true;
        };
        HYPO_RETURN_IF_ERROR(
            RunProgram(rule.premises, prog, &ctx, frame.get(), emit)
                .status());
        // Lower-stratum oracle answers are definite: nothing shallower
        // can be in progress at this level (see class comment).
        HYPO_DCHECK(min_pruned == INT_MAX)
            << "Δ oracle computation pruned on an in-progress goal";
      }
      if (changed_now.empty()) break;
      changed_last_round.clear();
      changed_last_round.insert(changed_now.begin(), changed_now.end());
      first_round = false;
    }
  }
  stats_.stratum_micros[stratum_i - 1] += stratum_timer.ElapsedMicros();
  const Database* result = ext.get();
  delta_model_bytes_ += result->ApproxBytes();
  delta_models_.emplace(key, std::move(ext));
  return result;
}

bool StratifiedProver::ExistsStored(const Atom& atom, Binding* binding,
                                    const Database* model_ext) {
  if (binding->Grounds(atom)) {
    Fact f = binding->Ground(atom);
    return overlay_->Contains(f) ||
           (model_ext != nullptr && model_ext->Contains(f));
  }
  std::vector<VarIndex> trail;
  bool found = false;
  auto probe = [&](const auto& tuple) -> bool {
    ++stats_.join_probes;
    if (binding->MatchTuple(atom, tuple, &trail)) {
      binding->Undo(&trail, 0);
      found = true;
      return false;
    }
    return true;
  };
  // First-argument access path over base and overlay additions; the Δ
  // model uses the base scan since it is a plain Database.
  if (ForEachBaseCandidate(*base_, atom, *binding, probe, &stats_) &&
      ForEachAddedCandidate(*overlay_, atom, *binding, probe) &&
      model_ext != nullptr) {
    ForEachBaseCandidate(*model_ext, atom, *binding, probe, &stats_);
  }
  return found;
}

StatusOr<bool> StratifiedProver::ProveFact(const Fact& fact) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(EnsureFactConstants(fact));
  GuardScope guard_scope(&guard_, options_, &stats_);
  EvalContext ctx;
  int min_pruned = INT_MAX;
  ctx.min_pruned = &min_pruned;
  return ProveGround(fact, &ctx);
}

Status StratifiedProver::RunQuery(const Query& query,
                                  std::vector<Tuple>* answers, bool* found) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(CheckQueryRestrictions(*rulebase_, query));
  HYPO_RETURN_IF_ERROR(EnsureConstants(query));
  GuardScope guard_scope(&guard_, options_, &stats_);
  Atom head = PseudoHead(query);
  BodyPlan plan =
      BodyPlan::Build(query.premises, &head, query.num_vars(), base_);
  vm::CompileInput in;
  in.premises = &query.premises;
  in.plan = &plan;
  in.num_vars = query.num_vars();
  in.modes = StratifiedModes(strat_, query.premises);
  vm::Program prog = vm::Compile(in);
  ++stats_.vm_programs_compiled;
  EvalContext ctx;
  int min_pruned = INT_MAX;
  ctx.min_pruned = &min_pruned;
  std::unordered_set<Tuple, TupleHash> seen;
  // The pseudo-head forces every query variable bound at emit, so the
  // register file IS the answer tuple.
  auto emit = [&](const ConstId* r) -> StatusOr<bool> {
    *found = true;
    if (answers == nullptr) return false;  // Stop at the first witness.
    Tuple t(r, r + query.num_vars());
    if (seen.insert(t).second) answers->push_back(std::move(t));
    return true;
  };
  vm::FrameLease frame(&vm_frames_, prog.num_vars);
  return RunProgram(query.premises, prog, &ctx, frame.get(), emit).status();
}

StatusOr<bool> StratifiedProver::ProveQuery(const Query& query) {
  bool found = false;
  HYPO_RETURN_IF_ERROR(RunQuery(query, nullptr, &found));
  return found;
}

StatusOr<std::vector<Tuple>> StratifiedProver::Answers(const Query& query) {
  std::vector<Tuple> answers;
  bool found = false;
  HYPO_RETURN_IF_ERROR(RunQuery(query, &answers, &found));
  return answers;
}

std::string StratifiedProver::ExplainPlans() const {
  if (!initialized_) return "stratified-prover: not initialized\n";
  std::ostringstream out;
  const SymbolTable& symbols = *base_->symbols_ptr();
  out << "engine=stratified-prover\n";
  for (int r = 0; r < rulebase_->num_rules(); ++r) {
    const Rule& rule = rulebase_->rule(r);
    const bool sigma = PartitionOf(rule.head.predicate) % 2 == 0;
    out << "  rule " << r << ": "
        << symbols.PredicateName(rule.head.predicate) << "/"
        << rule.head.args.size() << (sigma ? " [sigma]" : " [delta]")
        << "\n";
    out << DescribePlan(rule_plans_[r], rule.premises, symbols);
    out << (sigma ? "    bytecode (head-bound):\n"
                  : "    bytecode (entry-unbound):\n")
        << vm::Disassemble(rule_programs_[r], rule.premises, symbols);
  }
  return out.str();
}

}  // namespace hypo
