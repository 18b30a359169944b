#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/stratification.h"
#include "ast/printer.h"
#include "base/random.h"
#include "engine/binding.h"
#include "engine/bottom_up.h"
#include "engine/plan.h"
#include "engine/scan.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "engine/vm/compiler.h"
#include "workload/random_programs.h"

namespace hypo {
namespace {

// Structural invariants of BodyPlan (the contract every walker and the
// bytecode compiler rely on), checked over random programs, plus a
// differential fuzz across the three engines × {interp, vm} executors ×
// thread counts × storage backends: the compiled bytecode must be
// answer-identical to the interpretive plan walker everywhere.

/// The statically-bound probe signature `step` should carry: column i is
/// fixed iff argument i is a constant or a variable bound by an earlier
/// step (mirrors BoundSignature's runtime computation, including the
/// kMaxIndexedColumns cutoff).
ColumnMask StaticMask(const Atom& atom, const std::vector<bool>& bound) {
  ColumnMask mask = 0;
  int limit = std::min<int>(static_cast<int>(atom.args.size()),
                            kMaxIndexedColumns);
  for (int i = 0; i < limit; ++i) {
    const Term& t = atom.args[i];
    if (t.is_const() || bound[t.var_index()]) mask |= 1u << i;
  }
  return mask;
}

void MarkAtomBound(const Atom& atom, std::vector<bool>* bound) {
  for (const Term& t : atom.args) {
    if (t.is_var()) (*bound)[t.var_index()] = true;
  }
}

bool AtomFullyBound(const Atom& atom, const std::vector<bool>& bound) {
  for (const Term& t : atom.args) {
    if (t.is_var() && !bound[t.var_index()]) return false;
  }
  return true;
}

TEST(PlanTest, BodyPlanOrderingInvariants) {
  RandomProgramOptions options;
  options.num_rules = 10;
  options.max_premises = 4;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Random rng(7000 + seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    for (int r = 0; r < fixture.rules.num_rules(); ++r) {
      const Rule& rule = fixture.rules.rule(r);
      BodyPlan plan = BodyPlan::Build(rule.premises, &rule.head,
                                      rule.num_vars(), &fixture.db);
      SCOPED_TRACE("seed " + std::to_string(seed) + " rule " +
                   std::to_string(r) + "\n" +
                   RuleBaseToString(fixture.rules));

      std::vector<int> premise_steps(rule.premises.size(), 0);
      std::vector<bool> bound(rule.num_vars(), false);
      std::vector<bool> prev_bound = bound;  // Before the previous step.
      bool seen_negated = false;
      for (size_t s = 0; s < plan.steps.size(); ++s) {
        const PlanStep& step = plan.steps[s];
        std::vector<bool> before = bound;
        switch (step.kind) {
          case PlanStep::Kind::kMatchPositive: {
            EXPECT_FALSE(seen_negated)
                << "positive premise planned after a negated one";
            ASSERT_GE(step.premise_index, 0);
            const Premise& p = rule.premises[step.premise_index];
            ++premise_steps[step.premise_index];
            // Static mask == the mask the plan recorded == the mask the
            // runtime computes from an equivalently-bound Binding.
            EXPECT_EQ(step.probe_mask, StaticMask(p.atom, bound));
            Binding binding(rule.num_vars());
            for (int v = 0; v < rule.num_vars(); ++v) {
              if (bound[v]) binding.Set(v, 0);
            }
            Tuple key;
            EXPECT_EQ(step.probe_mask,
                      BoundSignature(p.atom, binding, &key));
            MarkAtomBound(p.atom, &bound);
            break;
          }
          case PlanStep::Kind::kEnumerateVars: {
            EXPECT_FALSE(seen_negated)
                << "enumeration planned after a negated premise";
            EXPECT_FALSE(step.enum_vars.empty());
            for (VarIndex v : step.enum_vars) bound[v] = true;
            break;
          }
          case PlanStep::Kind::kHypothetical: {
            EXPECT_FALSE(seen_negated)
                << "hypothetical premise planned after a negated one";
            ASSERT_GE(step.premise_index, 0);
            const Premise& p = rule.premises[step.premise_index];
            ++premise_steps[step.premise_index];
            // A hypothetical test needs every variable ground.
            EXPECT_TRUE(AtomFullyBound(p.atom, bound));
            for (const Atom& a : p.additions) {
              EXPECT_TRUE(AtomFullyBound(a, bound));
            }
            for (const Atom& a : p.deletions) {
              EXPECT_TRUE(AtomFullyBound(a, bound));
            }
            // Adjacency: when an enumeration immediately precedes this
            // test, it binds exactly the premise's still-unbound
            // variables — the planner pairs each hypothetical with its
            // own grounding step, nothing interleaves.
            if (s > 0 &&
                plan.steps[s - 1].kind == PlanStep::Kind::kEnumerateVars) {
              std::set<VarIndex> needed;
              auto collect = [&](const Atom& a) {
                for (const Term& t : a.args) {
                  if (t.is_var() && !prev_bound[t.var_index()]) {
                    needed.insert(t.var_index());
                  }
                }
              };
              collect(p.atom);
              for (const Atom& a : p.additions) collect(a);
              for (const Atom& a : p.deletions) collect(a);
              std::set<VarIndex> enumerated(
                  plan.steps[s - 1].enum_vars.begin(),
                  plan.steps[s - 1].enum_vars.end());
              EXPECT_EQ(enumerated, needed)
                  << "enumeration before a hypothetical premise does not "
                     "bind exactly its free variables";
            }
            break;
          }
          case PlanStep::Kind::kNegated: {
            seen_negated = true;
            ASSERT_GE(step.premise_index, 0);
            ++premise_steps[step.premise_index];
            break;
          }
        }
        prev_bound = std::move(before);
      }
      for (size_t i = 0; i < premise_steps.size(); ++i) {
        EXPECT_EQ(premise_steps[i], 1)
            << "premise " << i << " planned " << premise_steps[i]
            << " times";
      }
    }
  }
}

TEST(PlanTest, CompiledBytecodeAgreesWithPlan) {
  RandomProgramOptions options;
  options.num_rules = 10;
  options.max_premises = 4;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Random rng(8200 + seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    for (int r = 0; r < fixture.rules.num_rules(); ++r) {
      const Rule& rule = fixture.rules.rule(r);
      BodyPlan plan = BodyPlan::Build(rule.premises, &rule.head,
                                      rule.num_vars(), &fixture.db);
      vm::CompileInput in;
      in.premises = &rule.premises;
      in.plan = &plan;
      in.num_vars = rule.num_vars();
      vm::Program prog = vm::Compile(in);
      SCOPED_TRACE("seed " + std::to_string(seed) + " rule " +
                   std::to_string(r) + "\n" +
                   vm::Disassemble(prog, rule.premises,
                                   fixture.rules.symbols()));

      ASSERT_FALSE(prog.ops.empty());
      EXPECT_EQ(prog.ops.back().code, vm::OpCode::kEmitHead);
      EXPECT_EQ(prog.num_vars, rule.num_vars());

      // Probe masks survive compilation: a scan op carries exactly the
      // plan step's statically-computed signature.
      std::vector<ColumnMask> step_mask(rule.premises.size(), 0);
      std::vector<bool> has_mask(rule.premises.size(), false);
      for (const PlanStep& step : plan.steps) {
        if (step.kind == PlanStep::Kind::kMatchPositive) {
          step_mask[step.premise_index] = step.probe_mask;
          has_mask[step.premise_index] = true;
        }
      }
      bool seen_neg_op = false;
      for (const vm::Op& op : prog.ops) {
        switch (op.code) {
          case vm::OpCode::kScan:
          case vm::OpCode::kCall:
            EXPECT_FALSE(seen_neg_op);
            ASSERT_TRUE(has_mask[op.premise_index]);
            EXPECT_EQ(op.mask, step_mask[op.premise_index]);
            break;
          case vm::OpCode::kTestGround:
          case vm::OpCode::kEnumDomain:
          case vm::OpCode::kProveCall:
          case vm::OpCode::kHypoTest:
            EXPECT_FALSE(seen_neg_op)
                << "binding op compiled after a negation op";
            break;
          case vm::OpCode::kNegGround:
          case vm::OpCode::kNegProbe:
          case vm::OpCode::kNegCall:
            seen_neg_op = true;
            break;
          case vm::OpCode::kEmitHead:
            break;
        }
      }
    }
  }
}

/// Collects every derivable IDB ground fact (differential_test's oracle
/// loop, reused here to diff executors instead of engines).
StatusOr<std::set<std::string>> DeriveAll(Engine* engine,
                                          const ProgramFixture& fixture) {
  std::set<std::string> facts;
  const SymbolTable& symbols = fixture.rules.symbols();
  std::vector<ConstId> domain;
  for (int c = 0; c < symbols.num_consts(); ++c) domain.push_back(c);

  for (int pred = 0; pred < symbols.num_predicates(); ++pred) {
    if (!fixture.rules.IsDefined(pred)) continue;
    int arity = symbols.PredicateArity(pred);
    std::vector<int> index(arity, 0);
    while (true) {
      Fact fact;
      fact.predicate = pred;
      for (int i = 0; i < arity; ++i) fact.args.push_back(domain[index[i]]);
      HYPO_ASSIGN_OR_RETURN(bool holds, engine->ProveFact(fact));
      if (holds) facts.insert(FactToString(fact, symbols));
      int pos = arity - 1;
      while (pos >= 0 &&
             ++index[pos] == static_cast<int>(domain.size())) {
        index[pos] = 0;
        --pos;
      }
      if (pos < 0 || arity == 0) break;
    }
  }
  return facts;
}

/// All-free-variable Answers() for every IDB predicate, rendered to
/// strings — exercises the per-query compile path (ProveFact exercises
/// the head-bound rule programs).
StatusOr<std::set<std::string>> AnswerAll(Engine* engine,
                                          const ProgramFixture& fixture) {
  std::set<std::string> rows;
  const SymbolTable& symbols = fixture.rules.symbols();
  for (int pred = 0; pred < symbols.num_predicates(); ++pred) {
    if (!fixture.rules.IsDefined(pred)) continue;
    int arity = symbols.PredicateArity(pred);
    Query query;
    Premise p;
    p.kind = PremiseKind::kPositive;
    p.atom.predicate = pred;
    for (int i = 0; i < arity; ++i) {
      p.atom.args.push_back(Term::MakeVar(i));
      query.var_names.push_back("V" + std::to_string(i));
    }
    query.premises.push_back(std::move(p));
    HYPO_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                          engine->Answers(query));
    for (const Tuple& t : answers) {
      std::ostringstream row;
      row << symbols.PredicateName(pred);
      for (ConstId c : t) row << " " << c;
      rows.insert(row.str());
    }
  }
  return rows;
}

struct ExecutorConfig {
  std::string label;
  ExecutorKind executor;
  int threads;
};

TEST(PlanTest, VmMatchesInterpreterAcrossEnginesThreadsAndBackends) {
  RandomProgramOptions options;
  int compared = 0;
  int skipped = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Random rng(4100 + seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);

    for (StorageBackend backend :
         {StorageBackend::kColumnar, StorageBackend::kReferenceHash}) {
      Database db(fixture.symbols, backend);
      fixture.db.ForEach([&](const Fact& f) { db.Insert(f); });

      EngineOptions base_options;
      base_options.max_states = 40'000;
      base_options.max_steps = 3'000'000;

      // Reference: the interpretive walker on the tabled oracle engine.
      EngineOptions ref_options = base_options;
      ref_options.executor = ExecutorKind::kInterp;
      TabledEngine reference_engine(&fixture.rules, &db, ref_options);
      auto reference = DeriveAll(&reference_engine, fixture);
      if (!reference.ok()) {
        ASSERT_EQ(reference.status().code(),
                  StatusCode::kResourceExhausted)
            << reference.status();
        ++skipped;
        continue;
      }
      auto ref_answers = AnswerAll(&reference_engine, fixture);
      ASSERT_TRUE(ref_answers.ok()) << ref_answers.status();

      auto check = [&](Engine* engine, const std::string& label) {
        auto derived = DeriveAll(engine, fixture);
        if (!derived.ok()) {
          ASSERT_EQ(derived.status().code(),
                    StatusCode::kResourceExhausted)
              << label << ": " << derived.status();
          ++skipped;
          return;
        }
        EXPECT_EQ(*derived, *reference)
            << label << " diverged, seed " << seed << " program:\n"
            << RuleBaseToString(fixture.rules);
        auto answers = AnswerAll(engine, fixture);
        ASSERT_TRUE(answers.ok()) << label << ": " << answers.status();
        EXPECT_EQ(*answers, *ref_answers)
            << label << " Answers() diverged, seed " << seed;
        ++compared;
      };

      {
        EngineOptions o = base_options;
        o.executor = ExecutorKind::kVm;
        TabledEngine engine(&fixture.rules, &db, o);
        check(&engine, "tabled/vm");
      }
      for (const ExecutorConfig& cfg :
           {ExecutorConfig{"bottomup/interp/t1", ExecutorKind::kInterp, 1},
            ExecutorConfig{"bottomup/vm/t1", ExecutorKind::kVm, 1},
            ExecutorConfig{"bottomup/interp/t8", ExecutorKind::kInterp, 8},
            ExecutorConfig{"bottomup/vm/t8", ExecutorKind::kVm, 8}}) {
        EngineOptions o = base_options;
        o.executor = cfg.executor;
        o.num_threads = cfg.threads;
        BottomUpEngine engine(&fixture.rules, &db, o);
        check(&engine, cfg.label);
      }
      if (CheckLinearlyStratifiable(fixture.rules).ok()) {
        for (ExecutorKind executor :
             {ExecutorKind::kInterp, ExecutorKind::kVm}) {
          EngineOptions o = base_options;
          o.executor = executor;
          StratifiedProver engine(&fixture.rules, &db, o);
          check(&engine,
                executor == ExecutorKind::kVm ? "stratified/vm"
                                              : "stratified/interp");
        }
      }
    }
  }
  EXPECT_GE(compared, 60) << "too many configurations skipped (" << skipped
                          << ")";
}

}  // namespace
}  // namespace hypo
