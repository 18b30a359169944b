#include "engine/stratified_prover.h"

#include "base/cleanup.h"
#include "base/failpoint.h"
#include "base/stopwatch.h"
#include "engine/vm/compiler.h"

namespace hypo {

namespace {

constexpr char kNoDeletions[] =
    "hypothetical deletion ([del: ...]) is supported only by TabledEngine; "
    "the paper's linear stratification covers insertions only";

Status RejectDeletions(const Query& query) {
  for (const Premise& p : query.premises) {
    if (!p.deletions.empty()) return Status::Unimplemented(kNoDeletions);
  }
  return Status::OK();
}

}  // namespace

StratifiedProver::StratifiedProver(const RuleBase* rulebase,
                                   const Database* db, EngineOptions options)
    : TabledEngine(rulebase, db, options) {}

Status StratifiedProver::Init() {
  // Both checks precede the tabled Init, whose success marks the engine
  // initialized.
  if (rulebase_->HasDeletions()) return Status::Unimplemented(kNoDeletions);
  HYPO_ASSIGN_OR_RETURN(strat_, ComputeLinearStratification(*rulebase_));
  materialized_.assign(strat_.partition_of_pred.size(), false);
  for (size_t p = 0; p < materialized_.size(); ++p) {
    materialized_[p] = strat_.partition_of_pred[p] % 2 == 1;
  }
  HYPO_RETURN_IF_ERROR(TabledEngine::Init());

  delta_info_.assign(rulebase_->num_rules(), RuleDeltaInfo());
  for (const std::vector<std::vector<int>>& substrata :
       strat_.delta_substrata) {
    for (const std::vector<int>& substratum : substrata) {
      ComputeRuleDeltaInfo(*rulebase_, substratum, &delta_info_);
    }
  }
  BuildDeltaPrograms();
  // Context ids restarted with the tabled Init's fresh overlay.
  DropDeltaModels();
  building_.assign(strat_.num_strata, nullptr);
  return Status::OK();
}

Status StratifiedProver::ApplyBaseDelta(const BaseDelta& delta) {
  HYPO_RETURN_IF_ERROR(TabledEngine::ApplyBaseDelta(delta));
  // The tabled commit restarted the context ids the models are keyed by.
  DropDeltaModels();
  if (delta_planned_.Stale(*base_)) BuildDeltaPrograms();
  return Status::OK();
}

void StratifiedProver::DropDeltaModels() {
  delta_models_.clear();
  delta_model_bytes_ = 0;
  num_models_ = 0;
}

void StratifiedProver::BuildDeltaPrograms() {
  const int num_rules = rulebase_->num_rules();
  delta_plans_.assign(num_rules, BodyPlan());
  delta_programs_.assign(num_rules, {});
  delta_planned_.Clear();
  for (const std::vector<int>& rules : strat_.delta_rules) {
    for (int r : rules) {
      const Rule& rule = rulebase_->rule(r);
      delta_plans_[r] =
          BodyPlan::Build(rule.premises, &rule.head, rule.num_vars(), base_);
      delta_planned_.Watch(*base_, rule.premises);
      vm::CompileInput in;
      in.premises = &rule.premises;
      in.plan = &delta_plans_[r];
      in.num_vars = rule.num_vars();
      in.modes = PremiseModes(rule.premises);
      delta_programs_[r].push_back(vm::Compile(in));
      for (int premise : delta_info_[r].delta_premises) {
        in.delta_premise = premise;
        delta_programs_[r].push_back(vm::Compile(in));
      }
      stats_.vm_programs_compiled +=
          static_cast<int64_t>(delta_programs_[r].size());
    }
  }
}

StatusOr<bool> StratifiedProver::ProveQuery(const Query& query) {
  HYPO_RETURN_IF_ERROR(RejectDeletions(query));
  return TabledEngine::ProveQuery(query);
}

StatusOr<std::vector<Tuple>> StratifiedProver::Answers(const Query& query) {
  HYPO_RETURN_IF_ERROR(RejectDeletions(query));
  return TabledEngine::Answers(query);
}

StatusOr<const Database*> StratifiedProver::MaterializedModel(
    PredicateId pred) {
  const int stratum = strat_.StratumOf(pred);
  if (building_[stratum - 1] != nullptr) return building_[stratum - 1];
  return DeltaModelFor(stratum);
}

StatusOr<const Database*> StratifiedProver::DeltaModelFor(int stratum) {
  const DeltaKey key{stratum, overlay_->context_id()};
  auto it = delta_models_.find(key);
  if (it != delta_models_.end()) {
    ++stats_.memo_hits;
    return it->second.get();
  }
  HYPO_RETURN_IF_ERROR(CheckLimits());
  HYPO_FAILPOINT("stratified.delta_model");
  ++stats_.states_evaluated;
  if (static_cast<int>(stats_.stratum_micros.size()) < stratum) {
    stats_.stratum_micros.resize(stratum, 0);
  }
  Stopwatch stratum_timer;
  auto model = std::make_unique<Database>(base_->symbols_ptr());
  // Memoized only once complete: an abort drops the partial model.
  building_[stratum - 1] = model.get();
  Cleanup done([this, stratum] { building_[stratum - 1] = nullptr; });

  Fact head;  // Reused across emits; Insert copies it out.
  auto evaluate = [&](const RuleVersion& v, const Database* delta,
                      Database* next_delta,
                      std::unordered_set<PredicateId>* changed) -> Status {
    const Rule& rule = rulebase_->rule(v.rule);
    const vm::Program* prog = nullptr;
    for (const vm::Program& p : delta_programs_[v.rule]) {
      if (p.delta_premise == v.delta_premise) prog = &p;
    }
    return RunRound(rule.premises, *prog, delta,
                    [&](const ConstId* regs) -> StatusOr<bool> {
                      ++stats_.goals_expanded;
                      HYPO_RETURN_IF_ERROR(CheckLimits());
                      vm::GroundAtomInto(rule.head, regs, &head);
                      if (overlay_->Contains(head) || !model->Insert(head)) {
                        return true;  // Keep enumerating.
                      }
                      ++stats_.facts_derived;
                      if (next_delta != nullptr) {
                        next_delta->Insert(head);
                        ++stats_.delta_facts;
                      }
                      changed->insert(head.predicate);
                      return true;
                    });
  };
  // §5.2.2: the substrata Δ_i1 ... Δ_im in order, each to its fixpoint.
  for (const std::vector<int>& substratum :
       strat_.delta_substrata[stratum - 1]) {
    HYPO_RETURN_IF_ERROR(RunSemiNaive(*rulebase_, substratum, delta_info_,
                                      evaluate, &stats_,
                                      &retired_index_builds_));
  }
  stats_.stratum_micros[stratum - 1] += stratum_timer.ElapsedMicros();
  delta_model_bytes_ += model->ApproxBytes();
  const Database* result = model.get();
  delta_models_.emplace(key, std::move(model));
  num_models_ = static_cast<int64_t>(delta_models_.size());
  return result;
}

int64_t StratifiedProver::MemoryBytes() const {
  int64_t bytes =
      TabledEngine::MemoryBytes() + delta_model_bytes_ +
      static_cast<int64_t>(delta_models_.size() *
                           (sizeof(DeltaKey) + sizeof(Database) +
                            3 * sizeof(void*)));
  for (const Database* model : building_) {
    if (model != nullptr) bytes += model->ApproxBytes();
  }
  return bytes;
}

IndexTotals StratifiedProver::ModelIndexTotals() const {
  IndexTotals totals;
  for (const auto& [key, model] : delta_models_) totals.Add(*model);
  return totals;
}

void StratifiedProver::ResetStats() {
  TabledEngine::ResetStats();
  retired_index_builds_ = 0;
  model_index_base_ = ModelIndexTotals();
}

const EngineStats& StratifiedProver::stats() const {
  TabledEngine::stats();
  // The Δ models and the round deltas build indexes of their own.
  EngineStats models;
  ModelIndexTotals().ReportSince(model_index_base_, &models);
  stats_.index_builds += models.index_builds + retired_index_builds_;
  stats_.index_sort_micros += models.index_sort_micros;
  for (const auto& [key, model] : delta_models_) {
    stats_.arena_bytes += model->ArenaBytes();
  }
  return stats_;
}

std::string StratifiedProver::ExplainPlans() const {
  std::string out = TabledEngine::ExplainPlans();
  const SymbolTable& symbols = rulebase_->symbols();
  for (size_t r = 0; r < delta_programs_.size(); ++r) {
    if (delta_programs_[r].empty()) continue;
    const Rule& rule = rulebase_->rule(static_cast<int>(r));
    out += "  rule " + std::to_string(r) + ": " +
           symbols.PredicateName(rule.head.predicate) + "/" +
           std::to_string(rule.head.args.size()) + " [delta]\n";
    out += DescribePlan(delta_plans_[r], rule.premises, symbols);
    for (const vm::Program& prog : delta_programs_[r]) {
      out += prog.delta_premise < 0
                 ? std::string("    bytecode (full):\n")
                 : "    bytecode (delta p" +
                       std::to_string(prog.delta_premise) + "):\n";
      out += vm::Disassemble(prog, rule.premises, symbols);
    }
  }
  return out;
}

}  // namespace hypo
