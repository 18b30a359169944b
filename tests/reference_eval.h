#ifndef HYPO_TESTS_REFERENCE_EVAL_H_
#define HYPO_TESTS_REFERENCE_EVAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace hypo {

/// A naive evaluator of Definition 3 (plus stratified negation and the
/// [del:] extension), used by the tests as the oracle every engine is
/// compared with. It shares no planner, VM or storage code with the
/// engines: it reads src/ only for the AST, the Engine interface and the
/// input facts.
///
/// * A state is the std::set of stored facts. `A[add: B][del: C]` reads A
///   in (S ∖ C) ∪ B.
/// * Rules are grounded over an explicit domain: the constants passed to
///   the constructor, dom(R, DB), and those of the query being answered.
///   Variables that occur only in negated premises get the ∄ reading
///   (DESIGN.md §2); every query variable is grounded.
/// * Predicates get levels, a negated premise's strictly below its head,
///   so negation reads only finished lower levels.
/// * Each level is one least fixpoint over every state it reaches, so
///   hypothetical recursion terminates, [del:] cycles included.
/// * Reaching more than kMaxStates states is ResourceExhausted, which
///   harnesses count as a skip.
class ReferenceEngine : public Engine {
 public:
  static constexpr int64_t kMaxStates = 2000;

  /// Neither pointer is owned; both must outlive the engine.
  ReferenceEngine(const RuleBase* rulebase, const Database* db,
                  std::vector<ConstId> domain = {});

  Status Init() override;
  StatusOr<bool> ProveFact(const Fact& fact) override;
  StatusOr<bool> ProveQuery(const Query& query) override;
  StatusOr<std::vector<Tuple>> Answers(const Query& query) override;

  /// Rereads the base on the next query: the oracle keeps nothing
  /// incremental to repair.
  Status ApplyBaseDelta(const BaseDelta&) override {
    initialized_ = false;
    return Status::OK();
  }

  const EngineStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = EngineStats(); }
  std::string name() const override { return "reference"; }
  EngineOptions* mutable_options() override { return &options_; }

 private:
  using State = std::set<Fact>;
  struct Model {
    std::set<Fact> derived;  // Rule conclusions not stored in the state.
    int done = 0;            // Levels below `done` are final.
  };
  using Node = std::pair<const State, Model>;
  using Emit = std::function<void(const std::vector<ConstId>&)>;

  int LevelOf(PredicateId pred) const;

  /// Makes the domain the pinned constants, dom(R, DB) and `extra`;
  /// forgets every state when that changes it.
  void UseDomain(const std::vector<ConstId>& extra);

  /// The node of `state` with levels below `level` final. A new state is
  /// solved up to `level` together with the new states it reaches, which
  /// then join `work`, the state list of the level-`level` fixpoint.
  StatusOr<Node*> Reach(State state, int level, std::vector<Node*>* work);

  /// The least fixpoint of the rules at `level` over `work`, whose states
  /// have every lower level final. States reached meanwhile join `work`.
  Status SolveLevel(int level, std::vector<Node*>* work);

  /// Calls `emit` with every assignment of the `grounded` variables over
  /// the domain under which all `premises` hold in `node`.
  Status ForEachInstance(Node* node, const std::vector<Premise>& premises,
                         const std::vector<bool>& grounded, int level,
                         std::vector<Node*>* work, const Emit& emit);

  /// True iff `fact` is stored in `node`'s state or derived there.
  static bool Holds(const Node& node, const Fact& fact) {
    return node.first.count(fact) > 0 || node.second.derived.count(fact) > 0;
  }

  /// Calls `fn` with each fact of `pred` that holds in `node`.
  static void ForEachVisible(const Node& node, PredicateId pred,
                             const std::function<void(const Fact&)>& fn);

  /// Binds the free variables of `atom` to `fact` (domain values only);
  /// false on a mismatch. Newly bound variables go to `trail`.
  bool Unify(const Atom& atom, const Fact& fact, std::vector<ConstId>* a,
             std::vector<VarIndex>* trail) const;

  /// Runs `body` on the fully solved base state, clearing every state on
  /// an error so no partial model is served later.
  template <typename Body>
  Status OnBase(const std::vector<ConstId>& extra, const Body& body);

  const RuleBase* rulebase_;
  const Database* db_;
  std::vector<ConstId> pinned_;
  EngineOptions options_;
  EngineStats stats_;

  bool initialized_ = false;
  std::vector<int> level_;
  int num_levels_ = 0;
  State base_;
  std::vector<ConstId> domain_;  // Sorted.
  std::map<State, Model> models_;
};

// --- Differential harness -------------------------------------------------

/// Every constant of the symbol table, ascending.
std::vector<ConstId> AllConstants(const SymbolTable& symbols);

/// Makes `engine`'s domain cover `domain` before any answer is recorded,
/// by asking one query that names every constant. The engines extend
/// dom(R, DB) with the constants queries name and keep them, so without
/// this an answer can depend on which constants earlier queries named.
Status PinDomain(Engine* engine, const RuleBase& rules,
                 const std::vector<ConstId>& domain);

/// Every derivable ground fact of a defined predicate over `domain`, one
/// ProveFact per ground atom, rendered to strings.
StatusOr<std::set<std::string>> DeriveAll(Engine* engine,
                                          const RuleBase& rules,
                                          const std::vector<ConstId>& domain);

/// All-variable Answers() for every defined predicate, rendered to strings.
StatusOr<std::set<std::string>> AnswerAll(Engine* engine,
                                          const RuleBase& rules);

}  // namespace hypo

#endif  // HYPO_TESTS_REFERENCE_EVAL_H_
