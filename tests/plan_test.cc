#include <algorithm>
#include <set>
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
#include "reference_eval.h"
#include "workload/random_programs.h"

namespace hypo {
namespace {

// Structural invariants of BodyPlan (the contract the bytecode compiler
// relies on), checked over random programs, plus a differential fuzz of
// the three engines against the reference evaluator (reference_eval.h),
// which shares no planner, VM or storage code with them.

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

/// Runs `count` random programs of one mix through every engine
/// configuration — tabled; bottom-up; stratified when linearly
/// stratifiable — and compares DeriveAll (the head-bound rule programs)
/// and AnswerAll (the per-query compile path) with the reference
/// evaluator over the same pinned domain. Returns the number of
/// programs every configuration compared on; a resource skip on any side
/// drops the program.
int CompareWithReference(const RandomProgramOptions& options,
                         uint64_t first_seed, int count) {
  int compared = 0;
  for (uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    const std::vector<ConstId> domain = AllConstants(*fixture.symbols);
    SCOPED_TRACE("seed " + std::to_string(seed) + " program:\n" +
                 RuleBaseToString(fixture.rules));

    ReferenceEngine reference(&fixture.rules, &fixture.db, domain);
    auto ref_facts = DeriveAll(&reference, fixture.rules, domain);
    if (!ref_facts.ok()) {
      EXPECT_EQ(ref_facts.status().code(), StatusCode::kResourceExhausted)
          << ref_facts.status();
      continue;
    }
    auto ref_answers = AnswerAll(&reference, fixture.rules);
    if (!ref_answers.ok()) {
      ADD_FAILURE() << ref_answers.status();
      continue;
    }

    bool all_compared = true;
    auto check = [&](Engine* engine, const std::string& label) {
      Status pinned = PinDomain(engine, fixture.rules, domain);
      auto facts = pinned.ok() ? DeriveAll(engine, fixture.rules, domain)
                               : StatusOr<std::set<std::string>>(pinned);
      auto answers = facts.ok() ? AnswerAll(engine, fixture.rules) : facts;
      if (!answers.ok()) {
        EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted)
            << label << ": " << answers.status();
        all_compared = false;
        return;
      }
      EXPECT_EQ(*facts, *ref_facts) << label << ": DeriveAll diverged";
      EXPECT_EQ(*answers, *ref_answers) << label << ": AnswerAll diverged";
    };
    Database db(fixture.symbols);
    fixture.db.ForEach([&](const Fact& f) { db.Insert(f); });
    EngineOptions o;
    o.max_states = 40'000;
    o.max_steps = 3'000'000;
    {
      TabledEngine engine(&fixture.rules, &db, o);
      check(&engine, "tabled");
    }
    {
      BottomUpEngine engine(&fixture.rules, &db, o);
      check(&engine, "bottomup");
    }
    if (CheckLinearlyStratifiable(fixture.rules).ok()) {
      StratifiedProver engine(&fixture.rules, &db, o);
      check(&engine, "stratified");
    }
    if (all_compared) ++compared;
  }
  return compared;
}

TEST(PlanTest, DefaultMixAgreesWithReference) {
  EXPECT_GE(CompareWithReference(RandomProgramOptions(), 4100, 40), 38);
}

TEST(PlanTest, NestedHypotheticalMixAgreesWithReference) {
  // IDB predicates queried under [add: ...]: proofs routinely stack
  // hypothetical states.
  RandomProgramOptions options;
  options.num_rules = 6;
  options.hypothetical_probability = 0.6;
  options.negation_probability = 0.15;
  EXPECT_GE(CompareWithReference(options, 4200, 30), 25);
}

}  // namespace
}  // namespace hypo
