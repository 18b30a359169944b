#include "engine/tabled.h"

#include "ast/printer.h"
#include "base/cleanup.h"
#include "base/failpoint.h"
#include "engine/memo_board.h"
#include "engine/scan.h"
#include "engine/vm/compiler.h"
#include "engine/vm/executor.h"

#include <algorithm>
#include <climits>
#include <functional>
#include <map>
#include <sstream>

namespace hypo {

namespace {

/// `low` before an evaluation has depended on any open goal or call.
constexpr int64_t kNoLow = INT64_MAX;

/// Rough per-table overhead charged to the memory budget besides the
/// answers themselves (map node, table object, dedup buckets).
constexpr int64_t kCallTableBytes = 256;
/// Per-answer dedup-index overhead (hash node + bucket slot).
constexpr int64_t kAnswerIndexBytes = 32;

/// The call pattern of `atom` under `binding`: its ground arguments, with
/// kUnbound at every column holding a still-unbound variable.
Fact PatternOf(const Atom& atom, const Binding& binding) {
  Fact pattern;
  pattern.predicate = atom.predicate;
  pattern.args.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    pattern.args.push_back(t.is_const() ? t.const_id()
                                        : binding.Value(t.var_index()));
  }
  return pattern;
}

/// One answer-table row viewed as a tuple (size() + operator[]), for
/// Binding::MatchTuple. Read immediately: the table may reallocate later.
struct AnswerRow {
  const ConstId* row;
  size_t width;
  size_t size() const { return width; }
  ConstId operator[](size_t i) const { return row[i]; }
};

/// The call pattern of a kCall op: the premise's arguments with every
/// column the op binds (a free column) set to kUnbound. A column is bound
/// iff its `full` action checks a constant or a register the op did not
/// load itself — registers of statically unbound variables hold stale
/// values and are never read.
void CallPattern(const vm::Op& op, const ConstId* regs, Tuple* pattern) {
  pattern->assign(op.arity, kUnbound);
  for (size_t k = 0; k < op.full.size(); ++k) {
    const vm::MatchAction& a = op.full[k];
    if (a.kind == vm::MatchAction::Kind::kCheckConst) {
      (*pattern)[a.col] = a.operand;
    } else if (a.kind == vm::MatchAction::Kind::kCheckReg) {
      bool loaded_here = false;
      for (size_t j = 0; j < k && !loaded_here; ++j) {
        loaded_here = op.full[j].kind == vm::MatchAction::Kind::kLoadReg &&
                      op.full[j].operand == a.operand;
      }
      if (!loaded_here) (*pattern)[a.col] = regs[a.operand];
    }
  }
}

std::string AdornmentOf(const std::vector<bool>& bound) {
  std::string out;
  for (bool b : bound) out.push_back(b ? 'b' : 'f');
  return out;
}

/// The variables `rule` has bound on entry under adornment `bound`: its
/// head variables at the call's bound columns.
std::vector<bool> EntryBound(const Rule& rule,
                             const std::vector<bool>& bound) {
  std::vector<bool> entry(rule.num_vars(), false);
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    const Term& t = rule.head.args[i];
    if (bound[i] && t.is_var()) entry[t.var_index()] = true;
  }
  return entry;
}

}  // namespace

std::vector<vm::PremiseMode> TabledEngine::PremiseModes(
    const std::vector<Premise>& premises) const {
  // A defined positive premise is a ground subproof or, with free
  // variables, a tabled call; an extensional or materialized one a
  // storage scan; a negated premise ALWAYS goes through ExistsProvable —
  // even ground, even extensional — because ProveGoal itself resolves
  // database entries and materialized models.
  std::vector<vm::PremiseMode> modes(premises.size(),
                                     vm::PremiseMode::kStorage);
  for (size_t i = 0; i < premises.size(); ++i) {
    const Premise& p = premises[i];
    if (p.kind == PremiseKind::kNegated ||
        (p.kind == PremiseKind::kPositive &&
         rulebase_->IsDefined(p.atom.predicate) &&
         !Materialized(p.atom.predicate))) {
      modes[i] = vm::PremiseMode::kCall;
    }
  }
  return modes;
}

size_t TabledEngine::CallTable::RowHash::operator()(uint32_t row) const {
  return static_cast<size_t>(HashRowLike(
      AnswerRow{table->answers.data() + row * table->arity, table->arity}));
}

bool TabledEngine::CallTable::RowEq::operator()(uint32_t a,
                                                uint32_t b) const {
  const ConstId* data = table->answers.data();
  return std::equal(data + a * table->arity, data + (a + 1) * table->arity,
                    data + b * table->arity);
}

TabledEngine::TabledEngine(const RuleBase* rulebase, const Database* db,
                           EngineOptions options)
    : rulebase_(rulebase), base_(db), options_(options) {}

Status TabledEngine::Init() {
  if (rulebase_->symbols_ptr().get() != base_->symbols_ptr().get()) {
    return Status::InvalidArgument(
        "rulebase and database must share one SymbolTable");
  }
  // Negation must be stratified for NAF to be well-defined (§3.1); the
  // strata themselves are not needed at run time.
  HYPO_RETURN_IF_ERROR(ComputeNegationStrata(*rulebase_).status());
  HYPO_RETURN_IF_ERROR(CheckRuleRestrictions(*rulebase_));
  restrictions_ = std::make_unique<RestrictionAnalysis>(rulebase_);
  DropPlans();
  domain_.Reset(*rulebase_, *base_, extra_constants_);
  DropBaseState();
  ++stats_.domain_rebuilds;
  initialized_ = true;
  return Status::OK();
}

Status TabledEngine::ApplyBaseDelta(const BaseDelta& delta) {
  // An engine not yet initialized Init()s fresh on its first query.
  if (!initialized_ || delta.empty()) return Status::OK();
  ++stats_.base_deltas;
  domain_.ApplyBaseDelta(delta, *rulebase_, *base_, extra_constants_,
                         options_.validate_contexts);
  DropBaseState();
  if (planned_.Stale(*base_)) DropPlans();
  return Status::OK();
}

void TabledEngine::DropPlans() {
  adorned_.clear();
  ground_rules_.clear();
  planned_.Clear();
}

void TabledEngine::DropBaseState() {
  overlay_ = std::make_unique<OverlayDatabase>(base_, &interner_);
  goal_memo_ = {};
  calls_.clear();
  call_bytes_ = 0;
  pending_.clear();
  // Local context ids restart with the fresh overlay; the board-side fact
  // map survives (interner_ is never cleared).
  board_contexts_.clear();
}

void TabledEngine::AttachMemoBoard(MemoBoard* board) {
  board_ = board;
  board_facts_.clear();
  board_contexts_.clear();
}

FactId TabledEngine::BoardFact(FactId local_id, const Fact& fact) {
  if (local_id >= static_cast<FactId>(board_facts_.size())) {
    board_facts_.resize(local_id + 1, -1);
  }
  FactId& slot = board_facts_[local_id];
  if (slot < 0) slot = board_->InternFact(fact);
  return slot;
}

ContextId TabledEngine::BoardContext(PredicateId goal_pred) {
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

Status TabledEngine::EnsureConstants(const Query& query) {
  bool missing = false;
  for (ConstId c : QueryConstants(query)) {
    // insert() dedupes the pending list: the same out-of-domain constant
    // named twice (in one query or across queries) is recorded once and
    // triggers at most one Init() rebuild.
    if (domain_.members.insert(c).second) {
      extra_constants_.push_back(c);
      missing = true;
    }
  }
  if (missing) return Init();
  return Status::OK();
}

Status TabledEngine::EnsureFactConstants(const Fact& fact) {
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

Status TabledEngine::CheckLimits() {
  if (stats_.goals_expanded > options_.max_steps ||
      stats_.enumerations > options_.max_steps) {
    return Status::ResourceExhausted(LimitTripMessage(
        "max_steps", options_.max_steps,
        std::max(stats_.goals_expanded, stats_.enumerations)));
  }
  int64_t states = std::max<int64_t>(
      static_cast<int64_t>(goal_memo_.size() + calls_.size()) + num_models_,
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

Status TabledEngine::CountExpansion(int depth) {
  ++stats_.goals_expanded;
  HYPO_RETURN_IF_ERROR(CheckLimits());
  stats_.max_goal_depth = std::max<int64_t>(stats_.max_goal_depth, depth);
  return Status::OK();
}

int64_t TabledEngine::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(
      goal_memo_.size() *
      (sizeof(GoalKey) + sizeof(GoalEntry) + 2 * sizeof(void*)));
  bytes += call_bytes_;
  bytes += interner_.ApproxBytes();
  if (overlay_ != nullptr) {
    bytes +=
        static_cast<int64_t>(overlay_->context_interner().ApproxBytes());
  }
  return bytes;
}

StatusOr<const Database*> TabledEngine::MaterializedModel(PredicateId) {
  return Status::Internal("the tabled engine materializes no predicate");
}

TabledEngine::GoalKey TabledEngine::KeyFor(const Fact& goal) {
  if (options_.validate_contexts) {
    HYPO_CHECK(overlay_->DebugContextConsistent())
        << "interned context id drifted from the canonical overlay key";
  }
  return GoalKey{interner_.Intern(goal), overlay_->context_id()};
}

std::unique_ptr<TabledEngine::AdornedRules> TabledEngine::BuildAdorned(
    PredicateId pred, const std::vector<bool>& bound) const {
  auto adorned = std::make_unique<AdornedRules>();
  adorned->pred = pred;
  adorned->adornment = AdornmentOf(bound);
  for (int r : rulebase_->DefinitionOf(pred)) {
    const Rule& rule = rulebase_->rule(r);
    const std::vector<bool> entry = EntryBound(rule, bound);
    adorned->rules.push_back(r);
    adorned->plans.push_back(BodyPlan::Build(rule.premises, &rule.head,
                                             rule.num_vars(), base_, &entry,
                                             rulebase_));
    vm::CompileInput in;
    in.premises = &rule.premises;
    in.plan = &adorned->plans.back();
    in.num_vars = rule.num_vars();
    in.head = &rule.head;
    in.head_bound = bound;
    in.modes = PremiseModes(rule.premises);
    adorned->programs.push_back(vm::Compile(in));
  }
  return adorned;
}

const TabledEngine::AdornedRules& TabledEngine::Adorned(
    PredicateId pred, const std::vector<bool>& bound) {
  std::string key = std::to_string(pred) + ":" + AdornmentOf(bound);
  auto it = adorned_.find(key);
  if (it != adorned_.end()) return *it->second;
  std::unique_ptr<AdornedRules> adorned = BuildAdorned(pred, bound);
  for (size_t k = 0; k < adorned->rules.size(); ++k) {
    const Rule& rule = rulebase_->rule(adorned->rules[k]);
    RecordProbeSignatures(adorned->plans[k], rule.premises,
                          EntryBound(rule, bound));
    planned_.Watch(*base_, rule.premises);
  }
  stats_.vm_programs_compiled +=
      static_cast<int64_t>(adorned->programs.size());
  return *adorned_.emplace(std::move(key), std::move(adorned))
              .first->second;
}

const TabledEngine::AdornedRules& TabledEngine::GroundRules(
    PredicateId pred) {
  if (pred >= static_cast<PredicateId>(ground_rules_.size())) {
    ground_rules_.resize(pred + 1, nullptr);
  }
  if (ground_rules_[pred] == nullptr) {
    const int arity = rulebase_->symbols().PredicateArity(pred);
    ground_rules_[pred] = &Adorned(pred, std::vector<bool>(arity, true));
  }
  return *ground_rules_[pred];
}

void TabledEngine::RecordProbeSignatures(const BodyPlan& plan,
                                         const std::vector<Premise>& premises,
                                         std::vector<bool> bound) {
  auto ground = [&bound](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_var() && !bound[t.var_index()]) return false;
    }
    return true;
  };
  for (const PlanStep& step : plan.steps) {
    switch (step.kind) {
      case PlanStep::Kind::kEnumerateVars:
        for (VarIndex v : step.enum_vars) bound[v] = true;
        break;
      case PlanStep::Kind::kHypothetical:
        break;
      case PlanStep::Kind::kMatchPositive:
      case PlanStep::Kind::kNegated: {
        // A ground premise is a membership test, not a scan; a premise
        // with free variables scans the base (extensional tuples, or a
        // call's stored tuples) under the step's probe mask.
        const Atom& atom = premises[step.premise_index].atom;
        if (!ground(atom) && step.probe_mask != 0) {
          probe_signatures_.emplace(atom.predicate, step.probe_mask);
        }
        if (step.kind == PlanStep::Kind::kMatchPositive) {
          for (const Term& t : atom.args) {
            if (t.is_var()) bound[t.var_index()] = true;
          }
        }
        break;
      }
    }
  }
}

std::vector<std::pair<PredicateId, ColumnMask>>
TabledEngine::BaseProbeSignatures() const {
  return {probe_signatures_.begin(), probe_signatures_.end()};
}

std::string TabledEngine::ExplainPlans() const {
  if (!initialized_) return name() + ": not initialized\n";
  std::ostringstream out;
  const SymbolTable& symbols = *base_->symbols_ptr();
  out << "engine=" << name() << "\n";
  // Compiled adornments per predicate, in adornment order.
  std::map<PredicateId, std::map<std::string, const AdornedRules*>> by_pred;
  for (const auto& [key, adorned] : adorned_) {
    by_pred[adorned->pred][adorned->adornment] = adorned.get();
  }
  std::vector<std::unique_ptr<AdornedRules>> built_here;
  for (int r = 0; r < rulebase_->num_rules(); ++r) {
    const Rule& rule = rulebase_->rule(r);
    const PredicateId pred = rule.head.predicate;
    if (Materialized(pred)) continue;  // The deriving engine lists these.
    std::map<std::string, const AdornedRules*>& compiled = by_pred[pred];
    if (compiled.empty()) {
      // Nothing reached this predicate yet: show what a ground goal would
      // run.
      built_here.push_back(BuildAdorned(
          pred, std::vector<bool>(rule.head.args.size(), true)));
      compiled[built_here.back()->adornment] = built_here.back().get();
    }
    for (const auto& [adornment, adorned] : compiled) {
      const size_t k = static_cast<size_t>(
          std::find(adorned->rules.begin(), adorned->rules.end(), r) -
          adorned->rules.begin());
      out << "  rule " << r << ": " << symbols.PredicateName(pred) << "/"
          << rule.head.args.size() << " [" << adornment << "]\n";
      out << DescribePlan(adorned->plans[k], rule.premises, symbols);
      out << "    bytecode:\n"
          << vm::Disassemble(adorned->programs[k], rule.premises, symbols);
    }
  }
  return out.str();
}

void TabledEngine::ResetStats() {
  stats_ = EngineStats();
  index_base_ = IndexTotals();
  index_base_.Add(*base_);
}

const EngineStats& TabledEngine::stats() const {
  // Probes are counted at this engine's own scan sites.
  IndexTotals now;
  now.Add(*base_);
  now.ReportSince(index_base_, &stats_);
  stats_.arena_bytes = base_->ArenaBytes();
  if (overlay_ != nullptr) {
    const ContextInterner& contexts = overlay_->context_interner();
    stats_.contexts_interned = contexts.num_contexts();
    stats_.context_transitions = contexts.transitions();
    stats_.context_cache_hits = contexts.transition_hits();
  }
  stats_.memo_bytes = MemoryBytes();
  return stats_;
}

// Every subproof runs at depth + 1 against the same overlay, so suspended
// scans see frames pushed and popped beneath them.
template <typename EmitFn>
struct TabledEngine::VmHost {
  TabledEngine* eng;
  const std::vector<Premise>* premises;
  int depth;
  int64_t* low;
  const EmitFn* emit;
  const Database* delta;  // A RunRound program's designated relation.

  Status OpenScan(const vm::Op& op, const std::vector<ConstId>& regs,
                  vm::ScanState* st) {
    if (op.code == vm::OpCode::kCall) {
      // Defined premise with free variables: the call's answer table.
      Fact pattern;
      pattern.predicate = op.pred;
      CallPattern(op, regs.data(), &pattern.args);
      HYPO_ASSIGN_OR_RETURN(CallTable * table,
                            eng->SolveCall(pattern, depth + 1, low));
      st->AddAnswers(&table->answers);
      return Status::OK();
    }
    if (op.designated) {
      st->AddDb(delta);  // Last round's new tuples only.
      return Status::OK();
    }
    // Base relation, overlay additions (ForEachBaseCandidate then
    // ForEachAddedCandidate), then a materialized predicate's model.
    st->AddDb(eng->base_);
    st->AddOverlay(eng->overlay_.get());
    if (eng->Materialized(op.pred)) {
      HYPO_ASSIGN_OR_RETURN(const Database* model,
                            eng->MaterializedModel(op.pred));
      st->AddDb(model);
    }
    return Status::OK();
  }

  template <typename Row>
  bool AcceptRow(const vm::Op& op, const Row& row) {
    ++eng->stats_.join_probes;
    // Premises before a round's designated one range over the relation
    // without last round's tuples, so an instantiation touching k of them
    // fires in one version, not k.
    if (op.exclude_delta && delta->Contains(op.pred, row)) return false;
    // Hypothetically deleted facts are masked, not removed.
    return eng->overlay_->TupleVisible(op.pred, row);
  }

  StatusOr<bool> TestGround(const vm::Op& op,
                            const std::vector<ConstId>& regs) {
    // Ground storage premise: database entry, base or added, or a fact of
    // a materialized predicate's model.
    const Atom& atom = (*premises)[op.premise_index].atom;
    const Fact fact = vm::GroundAtom(atom, regs.data());
    if (op.designated) return delta->Contains(fact);
    if (op.exclude_delta && delta->Contains(fact)) return false;
    if (eng->overlay_->Contains(fact)) return true;
    if (!eng->Materialized(op.pred)) return false;
    HYPO_ASSIGN_OR_RETURN(const Database* model,
                          eng->MaterializedModel(op.pred));
    return model->Contains(fact);
  }

  StatusOr<bool> ProveCall(const vm::Op& op,
                           const std::vector<ConstId>& regs) {
    const Atom& atom = (*premises)[op.premise_index].atom;
    return eng->ProveGoal(vm::GroundAtom(atom, regs.data()), depth + 1, low);
  }

  StatusOr<bool> HypoTest(const vm::Op& op,
                          const std::vector<ConstId>& regs) {
    const Premise& premise = (*premises)[op.premise_index];
    Fact query = vm::GroundAtom(premise.atom, regs.data());
    HYPO_FAILPOINT("tabled.hypo_push");
    eng->overlay_->PushFrame();
    // Deletions apply before additions; a fact in both ends up present.
    for (const Atom& a : premise.deletions) {
      eng->overlay_->Delete(vm::GroundAtom(a, regs.data()));
    }
    for (const Atom& a : premise.additions) {
      eng->overlay_->Add(vm::GroundAtom(a, regs.data()));
    }
    StatusOr<bool> holds = eng->ProveGoal(query, depth + 1, low);
    eng->overlay_->PopFrame();
    return holds;
  }

  StatusOr<bool> NegHolds(const vm::Op& op, std::vector<ConstId>& regs) {
    if (op.code != vm::OpCode::kNegCall) {
      return Status::Internal("tabled programs negate via kNegCall only");
    }
    const Atom& atom = (*premises)[op.premise_index].atom;
    if (op.free_vars.empty()) {
      HYPO_ASSIGN_OR_RETURN(
          bool holds,
          eng->ProveGoal(vm::GroundAtom(atom, regs.data()), depth + 1, low));
      return !holds;
    }
    // Seed a binding with the statically bound variables only: registers
    // of the free ones hold stale values.
    Binding binding(static_cast<int>(regs.size()));
    for (const Term& t : atom.args) {
      if (!t.is_var()) continue;
      const VarIndex v = t.var_index();
      if (std::find(op.free_vars.begin(), op.free_vars.end(), v) ==
          op.free_vars.end()) {
        binding.Set(v, regs[v]);
      }
    }
    HYPO_ASSIGN_OR_RETURN(bool exists,
                          eng->ExistsProvable(atom, &binding, depth, low));
    return !exists;
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
  void FlushOps(int64_t executed) {
    eng->stats_.vm_ops_executed += executed;
  }
};

template <typename EmitFn>
StatusOr<bool> TabledEngine::RunProgram(const std::vector<Premise>& premises,
                                        const vm::Program& prog, int depth,
                                        int64_t* low,
                                        vm::FrameStack::Frame* frame,
                                        const EmitFn& emit,
                                        const Database* delta) {
  VmHost<EmitFn> host{this, &premises, depth, low, &emit, delta};
  return vm::Run(prog, &host, &frame->regs, &frame->states);
}

Status TabledEngine::RunRound(
    const std::vector<Premise>& premises, const vm::Program& prog,
    const Database* delta,
    const std::function<StatusOr<bool>(const ConstId*)>& emit) {
  int64_t low = kNoLow;
  vm::FrameLease frame(&vm_frames_, prog.num_vars);
  HYPO_RETURN_IF_ERROR(
      RunProgram(premises, prog, 0, &low, frame.get(), emit, delta).status());
  HYPO_DCHECK(low == kNoLow) << "a round depended on an open goal or call";
  return Status::OK();
}

bool TabledEngine::RerunScc(int64_t dfn, size_t mark, int64_t low,
                            int64_t growth) {
  // Not the leader: the enclosing leader decides. A lone goal or call
  // (nothing pruned against it) is already final.
  if (low < dfn) return false;
  if (low > dfn && pending_.size() == mark) return false;
  // Every member ran against the tables as they stood; if none grew, that
  // is a fixpoint and the SCC can complete.
  if (growth_ == growth) return false;
  ResetScc(mark);
  return true;
}

void TabledEngine::CompleteScc(size_t mark) {
  for (size_t i = mark; i < pending_.size(); ++i) {
    const PendingEntry& p = pending_[i];
    if (p.call != nullptr) {
      p.call->state = CallTable::State::kComplete;
      continue;
    }
    // Failed against the leader in a pass that changed nothing: every
    // rule instance stays false at the SCC's fixpoint. Definite, so it is
    // shared like any other settled failure.
    goal_memo_[p.goal] = GoalEntry{GoalEntry::Status::kFalse, 0};
    if (p.board_fact >= 0) {
      board_->PublishGoal(p.board_fact, p.board_ctx, domain_.fingerprint,
                          false);
    }
  }
  pending_.resize(mark);
}

void TabledEngine::ResetScc(size_t mark) {
  for (size_t i = mark; i < pending_.size(); ++i) {
    const PendingEntry& p = pending_[i];
    if (p.call != nullptr) {
      // Its answers are sound; the next encounter evaluates it again.
      p.call->state = CallTable::State::kIncomplete;
    } else {
      goal_memo_.erase(p.goal);
    }
  }
  pending_.resize(mark);
}

void TabledEngine::DiscardIncomplete() {
  for (const PendingEntry& p : pending_) {
    if (p.call != nullptr) continue;
    auto it = goal_memo_.find(p.goal);
    if (it != goal_memo_.end() &&
        it->second.status == GoalEntry::Status::kPendingFalse) {
      goal_memo_.erase(it);
    }
  }
  pending_.clear();
  for (auto it = calls_.begin(); it != calls_.end();) {
    const CallTable& table = *it->second;
    if (table.state == CallTable::State::kComplete) {
      ++it;
      continue;
    }
    call_bytes_ -= kCallTableBytes +
                   static_cast<int64_t>(table.pattern.args.size() +
                                        table.answers.size()) *
                       static_cast<int64_t>(sizeof(ConstId)) +
                   static_cast<int64_t>(table.num_answers()) *
                       kAnswerIndexBytes;
    it = calls_.erase(it);
  }
}

StatusOr<bool> TabledEngine::ProveGoal(const Fact& goal, int depth,
                                       int64_t* low) {
  // Inference rule 1: database entries (base or hypothetically added).
  if (overlay_->Contains(goal)) return true;
  if (!rulebase_->IsDefined(goal.predicate)) return false;
  if (Materialized(goal.predicate)) {
    HYPO_ASSIGN_OR_RETURN(const Database* model,
                          MaterializedModel(goal.predicate));
    return model->Contains(goal);
  }

  GoalKey key = KeyFor(goal);
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
      case GoalEntry::Status::kPendingFalse:
        // On the proof stack, or failed inside an SCC still open: false
        // for now, and this evaluation joins that SCC.
        *low = std::min(*low, it->second.dfn);
        return false;
    }
  }

  // Cross-query memo: a settled verdict published by any pool engine —
  // this one in an earlier query, or a sibling — short-circuits the whole
  // expansion. Adopted into the local memo so repeats stay local.
  FactId board_fact = -1;
  ContextId board_ctx = ContextInterner::kEmptyContext;
  if (board_ != nullptr) {
    board_fact = BoardFact(key.fact, goal);
    board_ctx = BoardContext(goal.predicate);
    int known = board_->LookupGoal(board_fact, board_ctx, domain_.fingerprint);
    if (known != 0) {
      ++stats_.cache_hits_cross_query;
      goal_memo_[key] = GoalEntry{known > 0 ? GoalEntry::Status::kTrue
                                            : GoalEntry::Status::kFalse,
                                  0};
      return known > 0;
    }
  }

  HYPO_RETURN_IF_ERROR(CountExpansion(depth));
  const int64_t dfn = ++dfn_counter_;
  goal_memo_[key] = GoalEntry{GoalEntry::Status::kInProgress, dfn};
  // Every exit below resolves the entry (kTrue / kFalse / kPendingFalse);
  // the guard covers the early error returns (a limit tripping inside a
  // pass), where a leaked kInProgress entry would read as a dead
  // "on-stack" goal and make later queries on this engine prune on it,
  // returning wrong answers after an abort.
  Cleanup unmark([this, &key] {
    auto entry = goal_memo_.find(key);
    if (entry != goal_memo_.end() &&
        entry->second.status == GoalEntry::Status::kInProgress) {
      goal_memo_.erase(entry);
    }
  });
  // After the unmark guard, so an injected abort exercises it.
  HYPO_FAILPOINT("tabled.memo_insert");

  const AdornedRules& adorned = GroundRules(goal.predicate);
  const size_t mark = pending_.size();
  int64_t my_low = kNoLow;
  bool proved = false;
  for (;;) {
    const int64_t growth = growth_;
    // Stop at the first proof: an emitted head is the goal itself.
    HYPO_ASSIGN_OR_RETURN(
        bool exhausted,
        RunRules(adorned, goal.args, depth, &my_low,
                 [](const Tuple&) { return false; }));
    proved = !exhausted;
    if (proved || !RerunScc(dfn, mark, my_low, growth)) break;
    my_low = kNoLow;
    HYPO_RETURN_IF_ERROR(CountExpansion(depth));
  }

  if (proved) {
    goal_memo_[key] = GoalEntry{GoalEntry::Status::kTrue, 0};
    ++growth_;
    if (board_fact >= 0) {
      board_->PublishGoal(board_fact, board_ctx, domain_.fingerprint, true);
    }
    // Members that failed against this goal assumed it false. Under an
    // enclosing leader they stay in its SCC (this goal's low says so) and
    // are re-run, this proof being growth; a goal leading its own SCC
    // drops them here.
    if (my_low >= dfn) {
      ResetScc(mark);
    } else {
      *low = std::min(*low, my_low);
    }
    return true;
  }
  if (my_low < dfn) {
    goal_memo_[key] = GoalEntry{GoalEntry::Status::kPendingFalse, dfn};
    pending_.push_back(PendingEntry{key, nullptr, board_fact, board_ctx});
    *low = std::min(*low, my_low);
    return false;
  }
  // Leader whose last pass grew nothing: the whole SCC is false.
  CompleteScc(mark);
  goal_memo_[key] = GoalEntry{GoalEntry::Status::kFalse, 0};
  if (board_fact >= 0) {
    board_->PublishGoal(board_fact, board_ctx, domain_.fingerprint, false);
  }
  return false;
}

StatusOr<bool> TabledEngine::RunRules(
    const AdornedRules& adorned, const Tuple& args, int depth, int64_t* low,
    const std::function<bool(const Tuple&)>& emit) {
  Fact head;
  for (size_t k = 0; k < adorned.rules.size(); ++k) {
    const Rule& rule = rulebase_->rule(adorned.rules[k]);
    // The bound columns of `args` are the head's entry bindings.
    const vm::Program& prog = adorned.programs[k];
    vm::FrameLease frame(&vm_frames_, prog.num_vars);
    if (!vm::MatchHead(prog, args, frame->regs.data())) continue;
    auto on_head = [&](const ConstId* regs) -> StatusOr<bool> {
      vm::GroundAtomInto(rule.head, regs, &head);
      return emit(head.args);
    };
    HYPO_ASSIGN_OR_RETURN(bool exhausted,
                          RunProgram(rule.premises, prog, depth + 1, low,
                                     frame.get(), on_head));
    if (!exhausted) return false;
  }
  return true;
}

StatusOr<TabledEngine::CallTable*> TabledEngine::SolveCall(
    const Fact& pattern, int depth, int64_t* low) {
  GoalKey key{interner_.Intern(pattern), overlay_->context_id()};
  auto it = calls_.find(key);
  CallTable* table;
  if (it == calls_.end()) {
    HYPO_FAILPOINT("tabled.call_table");
    std::vector<bool> bound(pattern.args.size());
    for (size_t i = 0; i < bound.size(); ++i) {
      bound[i] = pattern.args[i] != kUnbound;
    }
    auto fresh = std::make_unique<CallTable>(
        &Adorned(pattern.predicate, bound), pattern);
    table = fresh.get();
    calls_.emplace(key, std::move(fresh));
    call_bytes_ += kCallTableBytes +
                   static_cast<int64_t>(pattern.args.size() *
                                        sizeof(ConstId));
    SeedStoredAnswers(table);
  } else {
    table = it->second.get();
    switch (table->state) {
      case CallTable::State::kComplete:
        ++stats_.memo_hits;
        return table;
      case CallTable::State::kInProgress:
      case CallTable::State::kPending:
        // A recursive variant: consume the answers found so far and join
        // the SCC, whose leader re-runs until no table grows.
        *low = std::min(*low, table->dfn);
        return table;
      case CallTable::State::kIncomplete:
        break;
    }
  }
  HYPO_RETURN_IF_ERROR(EvaluateCall(table, depth, low));
  return table;
}

Status TabledEngine::EvaluateCall(CallTable* table, int depth,
                                  int64_t* low) {
  HYPO_RETURN_IF_ERROR(CountExpansion(depth));
  const int64_t dfn = ++dfn_counter_;
  table->state = CallTable::State::kInProgress;
  table->dfn = dfn;
  const size_t mark = pending_.size();
  int64_t my_low = kNoLow;
  for (;;) {
    const int64_t growth = growth_;
    HYPO_RETURN_IF_ERROR(RunRules(*table->rules, table->pattern.args, depth,
                                  &my_low,
                                  [this, table](const Tuple& row) {
                                    AddAnswer(table, row);
                                    return true;
                                  })
                             .status());
    if (!RerunScc(dfn, mark, my_low, growth)) break;
    my_low = kNoLow;
    HYPO_RETURN_IF_ERROR(CountExpansion(depth));
  }
  if (my_low < dfn) {
    table->state = CallTable::State::kPending;
    pending_.push_back(PendingEntry{GoalKey{-1, 0}, table, -1, 0});
    *low = std::min(*low, my_low);
    return Status::OK();
  }
  CompleteScc(mark);
  table->state = CallTable::State::kComplete;
  return Status::OK();
}

void TabledEngine::SeedStoredAnswers(CallTable* table) {
  // Inference rule 1: the stored tuples of the called predicate that are
  // visible in this context and match the bound columns.
  const Fact& pattern = table->pattern;
  Atom atom;
  atom.predicate = pattern.predicate;
  Binding binding(static_cast<int>(pattern.args.size()));
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    atom.args.push_back(Term::MakeVar(static_cast<VarIndex>(i)));
    if (pattern.args[i] != kUnbound) {
      binding.Set(static_cast<VarIndex>(i), pattern.args[i]);
    }
  }
  auto add = [&](const auto& row) -> bool {
    ++stats_.join_probes;
    if (!overlay_->TupleVisible(pattern.predicate, row)) return true;
    for (size_t i = 0; i < pattern.args.size(); ++i) {
      if (pattern.args[i] != kUnbound && pattern.args[i] != row[i]) {
        return true;
      }
    }
    std::vector<ConstId> tuple(row.size());
    for (size_t i = 0; i < row.size(); ++i) tuple[i] = row[i];
    AddAnswer(table, tuple);
    return true;
  };
  ForEachBaseCandidate(*base_, atom, binding, add, &stats_);
  ForEachAddedCandidate(*overlay_, atom, binding, add);
}

void TabledEngine::AddAnswer(CallTable* table,
                             const std::vector<ConstId>& row) {
  const uint32_t n = static_cast<uint32_t>(table->num_answers());
  table->answers.insert(table->answers.end(), row.begin(), row.end());
  if (!table->index.insert(n).second) {
    table->answers.resize(static_cast<size_t>(n) * table->arity);
    return;
  }
  ++growth_;
  call_bytes_ += static_cast<int64_t>(row.size() * sizeof(ConstId)) +
                 kAnswerIndexBytes;
}

StatusOr<bool> TabledEngine::ExistsProvable(const Atom& atom,
                                            Binding* binding, int depth,
                                            int64_t* low) {
  if (binding->Grounds(atom)) {
    return ProveGoal(binding->Ground(atom), depth + 1, low);
  }
  if (!rulebase_->IsDefined(atom.predicate)) {
    return ExistsStored(atom, binding);
  }
  if (Materialized(atom.predicate)) {
    HYPO_ASSIGN_OR_RETURN(const Database* model,
                          MaterializedModel(atom.predicate));
    return ExistsStored(atom, binding, model);
  }
  HYPO_ASSIGN_OR_RETURN(CallTable * table,
                        SolveCall(PatternOf(atom, *binding), depth + 1, low));
  // Stratified negation puts the negated call strictly below everything
  // open on the stack, so its evaluation always completes in place.
  if (table->state != CallTable::State::kComplete) {
    return Status::Internal(
        "negated call left open: negation is not stratified");
  }
  std::vector<VarIndex> trail;
  for (size_t pos = 0; pos < table->num_answers(); ++pos) {
    // Repeated free variables still have to agree.
    AnswerRow row{table->answers.data() + pos * table->arity, table->arity};
    if (binding->MatchTuple(atom, row, &trail)) {
      binding->Undo(&trail, 0);
      return true;
    }
  }
  return false;
}

bool TabledEngine::ExistsStored(const Atom& atom, Binding* binding,
                                const Database* model) {
  std::vector<VarIndex> trail;
  bool found = false;
  auto probe = [&](const auto& tuple) -> bool {
    ++stats_.join_probes;
    if (!overlay_->TupleVisible(atom.predicate, tuple)) return true;
    if (!binding->MatchTuple(atom, tuple, &trail)) return true;
    binding->Undo(&trail, 0);
    found = true;
    return false;
  };
  if (ForEachBaseCandidate(*base_, atom, *binding, probe, &stats_) &&
      ForEachAddedCandidate(*overlay_, atom, *binding, probe) &&
      model != nullptr) {
    ForEachBaseCandidate(*model, atom, *binding, probe, &stats_);
  }
  return found;
}

StatusOr<bool> TabledEngine::ProveFact(const Fact& fact) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(EnsureFactConstants(fact));
  GuardScope guard_scope(&guard_, options_, &stats_);
  int64_t low = kNoLow;
  StatusOr<bool> proved = ProveGoal(fact, 0, &low);
  if (!proved.ok()) DiscardIncomplete();
  return proved;
}

Status TabledEngine::RunQuery(const Query& query,
                              std::vector<Tuple>* answers, bool* found) {
  Atom head = PseudoHead(query);
  BodyPlan plan = BodyPlan::Build(query.premises, &head, query.num_vars(),
                                  base_, nullptr, rulebase_);
  RecordProbeSignatures(plan, query.premises,
                        std::vector<bool>(query.num_vars(), false));
  int64_t low = kNoLow;
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
  vm::CompileInput in;
  in.premises = &query.premises;
  in.plan = &plan;
  in.num_vars = query.num_vars();
  in.modes = PremiseModes(query.premises);
  vm::Program prog = vm::Compile(in);
  ++stats_.vm_programs_compiled;
  vm::FrameLease frame(&vm_frames_, prog.num_vars);
  return RunProgram(query.premises, prog, 0, &low, frame.get(), emit)
      .status();
}

StatusOr<bool> TabledEngine::ProveQuery(const Query& query) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(CheckQueryRestrictions(*rulebase_, query));
  HYPO_RETURN_IF_ERROR(EnsureConstants(query));
  GuardScope guard_scope(&guard_, options_, &stats_);
  bool found = false;
  Status s = RunQuery(query, nullptr, &found);
  if (!s.ok()) {
    DiscardIncomplete();
    return s;
  }
  return found;
}

StatusOr<std::vector<Tuple>> TabledEngine::Answers(const Query& query) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(CheckQueryRestrictions(*rulebase_, query));
  HYPO_RETURN_IF_ERROR(EnsureConstants(query));
  GuardScope guard_scope(&guard_, options_, &stats_);
  std::vector<Tuple> answers;
  bool found = false;
  Status s = RunQuery(query, &answers, &found);
  if (!s.ok()) {
    DiscardIncomplete();
    return s;
  }
  return answers;
}

StatusOr<ProofNode> TabledEngine::ExplainFact(const Fact& fact) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  HYPO_RETURN_IF_ERROR(EnsureFactConstants(fact));
  GuardScope guard_scope(&guard_, options_, &stats_);
  int64_t low = kNoLow;
  StatusOr<bool> provable = ProveGoal(fact, 0, &low);
  if (!provable.ok()) {
    DiscardIncomplete();
    return provable.status();
  }
  if (!*provable) {
    return Status::NotFound("fact is not derivable: no proof to explain");
  }
  std::unordered_set<GoalKey, GoalKeyHash> visiting;
  ProofNode root;
  StatusOr<bool> ok = Reconstruct(fact, &visiting, &root);
  if (!ok.ok()) {
    DiscardIncomplete();
    return ok.status();
  }
  if (!*ok) {
    return Status::Internal(
        "provable fact has no reconstructible derivation (bug)");
  }
  return root;
}

StatusOr<bool> TabledEngine::Reconstruct(
    const Fact& goal,
    std::unordered_set<GoalKey, GoalKeyHash>* visiting, ProofNode* out) {
  // Inference rule 1: a database entry (base or hypothetically added).
  if (overlay_->Contains(goal)) {
    out->fact = goal;
    out->kind = base_->Contains(goal) ? ProofNode::Kind::kDatabaseFact
                                      : ProofNode::Kind::kHypotheticalEntry;
    out->children.clear();
    return true;
  }
  if (!rulebase_->IsDefined(goal.predicate)) return false;
  int64_t low = kNoLow;
  HYPO_ASSIGN_OR_RETURN(bool provable, ProveGoal(goal, 0, &low));
  if (!provable) return false;

  GoalKey key = KeyFor(goal);
  if (visiting->count(key) > 0) {
    // A justification through this goal would be circular; the caller
    // must pick a different rule or binding.
    return false;
  }
  visiting->insert(key);
  bool done = false;
  const AdornedRules& adorned = GroundRules(goal.predicate);
  for (size_t k = 0; k < adorned.rules.size(); ++k) {
    const int rule_index = adorned.rules[k];
    const Rule& rule = rulebase_->rule(rule_index);
    Binding binding(rule.num_vars());
    std::vector<VarIndex> trail;
    if (!binding.MatchTuple(rule.head, goal.args, &trail)) continue;
    std::vector<ProofNode> children;
    HYPO_ASSIGN_OR_RETURN(
        bool ok, ReconstructBody(rule, adorned.plans[k], 0, &binding,
                                 visiting, &children));
    if (ok) {
      out->kind = ProofNode::Kind::kRule;
      out->fact = goal;
      out->rule_index = rule_index;
      out->children = std::move(children);
      done = true;
      break;
    }
  }
  visiting->erase(key);
  return done;
}

StatusOr<bool> TabledEngine::ReconstructBody(
    const Rule& rule, const BodyPlan& plan, size_t step, Binding* binding,
    std::unordered_set<GoalKey, GoalKeyHash>* visiting,
    std::vector<ProofNode>* children) {
  if (step == plan.steps.size()) return true;
  const PlanStep& ps = plan.steps[step];
  auto next = [&]() -> StatusOr<bool> {
    return ReconstructBody(rule, plan, step + 1, binding, visiting,
                           children);
  };
  // Justifies the now-ground `atom` and continues with the next step;
  // false when no justification of this instance leads to a full proof.
  auto justify = [&](const Atom& atom) -> StatusOr<bool> {
    ProofNode child;
    HYPO_ASSIGN_OR_RETURN(bool ok,
                          Reconstruct(binding->Ground(atom), visiting, &child));
    if (!ok) return false;
    children->push_back(std::move(child));
    StatusOr<bool> rest = next();
    if (!rest.ok() || !*rest) {
      children->pop_back();
      HYPO_RETURN_IF_ERROR(rest.status());
      return false;
    }
    return true;
  };
  switch (ps.kind) {
    case PlanStep::Kind::kMatchPositive: {
      const Atom& atom = rule.premises[ps.premise_index].atom;
      if (binding->Grounds(atom)) return justify(atom);
      // Candidate instances, exactly those the prover matched: the call's
      // answers for a defined premise, the visible stored tuples for an
      // extensional one. Copied out first — justifying a candidate may
      // push overlay frames and evaluate further calls.
      std::vector<Tuple> candidates;
      if (rulebase_->IsDefined(atom.predicate)) {
        int64_t low = kNoLow;
        HYPO_ASSIGN_OR_RETURN(CallTable * table,
                              SolveCall(PatternOf(atom, *binding), 0, &low));
        for (size_t pos = 0; pos < table->num_answers(); ++pos) {
          const ConstId* row = table->answers.data() + pos * table->arity;
          candidates.emplace_back(row, row + table->arity);
        }
      } else {
        auto collect = [&](const auto& row) -> bool {
          ++stats_.join_probes;
          if (!overlay_->TupleVisible(atom.predicate, row)) return true;
          Tuple tuple(row.size());
          for (size_t i = 0; i < row.size(); ++i) tuple[i] = row[i];
          candidates.push_back(std::move(tuple));
          return true;
        };
        ForEachBaseCandidate(*base_, atom, *binding, collect, &stats_);
        ForEachAddedCandidate(*overlay_, atom, *binding, collect);
      }
      std::vector<VarIndex> trail;
      for (const Tuple& candidate : candidates) {
        if (!binding->MatchTuple(atom, candidate, &trail)) continue;
        StatusOr<bool> ok = justify(atom);
        binding->Undo(&trail, 0);
        HYPO_RETURN_IF_ERROR(ok.status());
        if (*ok) return true;
      }
      return false;
    }
    case PlanStep::Kind::kEnumerateVars: {
      std::function<StatusOr<bool>(size_t)> enumerate =
          [&](size_t v) -> StatusOr<bool> {
        if (v == ps.enum_vars.size()) return next();
        VarIndex var = ps.enum_vars[v];
        if (binding->IsBound(var)) return enumerate(v + 1);
        for (ConstId c : domain_.values) {
          HYPO_RETURN_IF_ERROR(CountEnumeration());
          binding->Set(var, c);
          StatusOr<bool> r = enumerate(v + 1);
          binding->Unset(var);
          HYPO_RETURN_IF_ERROR(r.status());
          if (*r) return true;
        }
        return false;
      };
      return enumerate(0);
    }
    case PlanStep::Kind::kHypothetical: {
      const Premise& premise = rule.premises[ps.premise_index];
      Fact query = binding->Ground(premise.atom);
      ProofNode child;
      overlay_->PushFrame();
      for (const Atom& a : premise.deletions) {
        Fact f = binding->Ground(a);
        if (overlay_->Delete(f)) child.deleted.push_back(f);
      }
      for (const Atom& a : premise.additions) {
        Fact f = binding->Ground(a);
        if (overlay_->Add(f)) child.added.push_back(f);
      }
      StatusOr<bool> ok = Reconstruct(query, visiting, &child);
      overlay_->PopFrame();
      HYPO_RETURN_IF_ERROR(ok.status());
      if (!*ok) return false;
      children->push_back(std::move(child));
      StatusOr<bool> rest = next();
      if (!rest.ok() || !*rest) {
        children->pop_back();
        HYPO_RETURN_IF_ERROR(rest.status());
        return false;
      }
      return true;
    }
    case PlanStep::Kind::kNegated: {
      const Atom& atom = rule.premises[ps.premise_index].atom;
      int64_t low = kNoLow;
      ProofNode child;
      child.kind = ProofNode::Kind::kNegationAsFailure;
      HYPO_ASSIGN_OR_RETURN(bool exists,
                            ExistsProvable(atom, binding, 0, &low));
      if (exists) return false;
      if (binding->Grounds(atom)) {
        child.fact = binding->Ground(atom);
      } else {
        child.note =
            "~" +
            AtomToString(atom, rulebase_->symbols(), &rule.var_names) +
            "  [no instance provable]";
      }
      children->push_back(std::move(child));
      StatusOr<bool> rest = next();
      if (!rest.ok() || !*rest) {
        children->pop_back();
        HYPO_RETURN_IF_ERROR(rest.status());
        return false;
      }
      return true;
    }
  }
  return Status::Internal("unknown plan step");
}

}  // namespace hypo
