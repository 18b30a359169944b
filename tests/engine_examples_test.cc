#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "parser/parser.h"
#include "queries/chains.h"
#include "queries/hamiltonian.h"
#include "queries/ladder.h"
#include "queries/nationality.h"
#include "queries/parity.h"
#include "queries/university.h"
#include "reference_eval.h"

namespace hypo {
namespace {

/// The three engines, plus the reference evaluator (reference_eval.h).
enum class EngineKind { kBottomUp, kTabled, kStratified, kReference };

const char* KindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBottomUp: return "BottomUp";
    case EngineKind::kTabled: return "Tabled";
    case EngineKind::kStratified: return "StratifiedProver";
    case EngineKind::kReference: return "Reference";
  }
  return "?";
}

// The eager evaluators — the bottom-up engine and the reference —
// materialize the full addition lattice on rules whose hypothetical
// insertions are not select-guarded (the university fixture's
// `within1`); only the goal-directed engines run those tests.
// BottomUpLimitationTest pins the documented behavior.
#define SKIP_EAGER_ENGINE()                                          \
  if (GetParam() == EngineKind::kBottomUp ||                         \
      GetParam() == EngineKind::kReference) {                        \
    GTEST_SKIP() << "eager evaluation exhausts states on unguarded " \
                    "hypothetical rules (documented limitation)";    \
  }

std::unique_ptr<Engine> MakeEngine(EngineKind kind, const RuleBase* rules,
                                   const Database* db,
                                   EngineOptions options = EngineOptions()) {
  switch (kind) {
    case EngineKind::kBottomUp:
      return MakeEngine("bottomup", rules, db, options).value();
    case EngineKind::kTabled:
      return MakeEngine("tabled", rules, db, options).value();
    case EngineKind::kStratified:
      return MakeEngine("stratified", rules, db, options).value();
    case EngineKind::kReference:
      return std::make_unique<ReferenceEngine>(rules, db);
  }
  return nullptr;
}

/// Runs every example on all engines and the reference evaluator; they
/// must agree with the paper.
class ExamplesTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  bool Prove(Engine* engine, SymbolTable* symbols, const std::string& text) {
    auto query = ParseQuery(text, symbols);
    EXPECT_TRUE(query.ok()) << query.status();
    auto result = engine->ProveQuery(*query);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status();
    return result.ok() && *result;
  }

  std::vector<Tuple> Answers(Engine* engine, SymbolTable* symbols,
                             const std::string& text) {
    auto query = ParseQuery(text, symbols);
    EXPECT_TRUE(query.ok()) << query.status();
    auto result = engine->Answers(*query);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status();
    return result.ok() ? *result : std::vector<Tuple>{};
  }
};

TEST_P(ExamplesTest, Example1HypotheticalCourse) {
  // Without the Example 3 rules the fixture is Horn-only and linearly
  // stratifiable, so every engine runs it.
  ProgramFixture f = MakeUniversityFixture(/*include_example3=*/false);
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  // Plain graduation: mary yes (his101 + eng201), tony not yet.
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "grad(mary)"));
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "grad(tony)"));
  // "If Tony took cs452, would he be eligible to graduate?" — yes.
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(),
                    "grad(tony)[add: take(tony, cs452)]"));
  // An unrelated course does not help.
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(),
                     "grad(tony)[add: take(tony, m101)]"));
}

TEST_P(ExamplesTest, Example2OneMoreCourse) {
  ProgramFixture f = MakeUniversityFixture(/*include_example3=*/false);
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  // ∃C grad(S)[add: take(S, C)] — who could graduate with one more course?
  std::vector<Tuple> answers =
      Answers(engine.get(), f.symbols.get(), "grad(S)[add: take(S, C)]");
  std::set<std::string> students;
  for (const Tuple& t : answers) {
    students.insert(f.symbols->ConstName(t[0]));  // S is var 0.
  }
  EXPECT_EQ(students, (std::set<std::string>{"tony", "mary"}));
}

TEST_P(ExamplesTest, Example3DualDegree) {
  SKIP_EAGER_ENGINE();
  ProgramFixture f = MakeUniversityFixture();
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  if (GetParam() == EngineKind::kStratified) {
    // Example 3 is not linearly stratifiable (see MakeUniversityFixture):
    // the paper's §4 restriction genuinely excludes this §2 example.
    EXPECT_FALSE(engine->Init().ok());
    return;
  }
  ASSERT_TRUE(engine->Init().ok());
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "degree(sue, mathphys)"));
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "degree(kim, mathphys)"));
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "degree(tony, mathphys)"));
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "degree(bob, mathphys)"));
  // within1 itself.
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "within1(kim, math)"));
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "within1(bob, math)"));
}

TEST_P(ExamplesTest, Example4AddCascade) {
  // R, DB ⊢ a<i> iff markers 1..i-1 are already database facts.
  for (int prefix : {0, 2, 4}) {
    ProgramFixture f = MakeAddCascadeFixture(/*n=*/4, prefix);
    auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
    ASSERT_TRUE(engine->Init().ok());
    for (int i = 1; i <= 5; ++i) {
      bool expected = (i - 1) <= prefix;
      EXPECT_EQ(Prove(engine.get(), f.symbols.get(),
                      "a" + std::to_string(i)),
                expected)
          << "prefix=" << prefix << " i=" << i;
    }
  }
}

TEST_P(ExamplesTest, Example5OrderLoop) {
  for (int n : {1, 3, 6}) {
    ProgramFixture f = MakeOrderLoopFixture(n);
    auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
    ASSERT_TRUE(engine->Init().ok());
    EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "a")) << "n=" << n;
    // d alone does not hold: the b markers are only added hypothetically.
    EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "d")) << "n=" << n;
  }
}

TEST_P(ExamplesTest, Example6Parity) {
  for (int n = 0; n <= 7; ++n) {
    ProgramFixture f = MakeParityFixture(n);
    auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
    ASSERT_TRUE(engine->Init().ok());
    bool is_even = (n % 2 == 0);
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "even"), is_even)
        << "n=" << n;
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "odd"), !is_even)
        << "n=" << n;
  }
}

TEST_P(ExamplesTest, Example7HamiltonianPath) {
  struct Case {
    Graph graph;
    bool expected;
    const char* label;
  };
  Random rng(2026);
  std::vector<Case> cases = {
      {MakePathGraph(4), true, "path4"},
      {MakeCycleGraph(5), true, "cycle5"},
      {MakeCompleteGraph(4), true, "complete4"},
      {MakeDisconnectedCliques(6), false, "cliques6"},
      {MakeRandomGraph(5, 0.3, &rng), false, "random-sparse"},
  };
  // Make the random case label honest: compute the baseline.
  cases.back().expected = HamiltonianPathExists(cases.back().graph);
  for (const Case& c : cases) {
    ProgramFixture f = MakeHamiltonianFixture(c.graph, /*with_no_rule=*/false);
    auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
    ASSERT_TRUE(engine->Init().ok());
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "yes"), c.expected)
        << c.label;
    EXPECT_EQ(c.expected, HamiltonianPathExists(c.graph)) << c.label;
  }
}

TEST_P(ExamplesTest, Example8Complement) {
  for (bool has_path : {true, false}) {
    Graph g = has_path ? MakeCompleteGraph(4) : MakeDisconnectedCliques(4);
    ProgramFixture f = MakeHamiltonianFixture(g, /*with_no_rule=*/true);
    auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
    ASSERT_TRUE(engine->Init().ok());
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "yes"), has_path);
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "no"), !has_path);
  }
}

TEST_P(ExamplesTest, Example8HamiltonianCircuitVariant) {
  // Example 8's literal wording is about circuits; the circuit rulebase
  // must agree with the direct baseline on graphs where path- and
  // circuit-existence differ.
  Random rng(77);
  struct Case {
    Graph graph;
    const char* label;
  };
  std::vector<Case> cases = {
      {MakePathGraph(4), "path4 (path yes, circuit no)"},
      {MakeCycleGraph(4), "cycle4 (both yes)"},
      {MakeCompleteGraph(4), "complete4"},
      {MakeRandomGraph(5, 0.4, &rng), "random5"},
  };
  for (const Case& c : cases) {
    bool expected = HamiltonianCircuitExists(c.graph);
    ProgramFixture f = MakeHamiltonianCircuitFixture(c.graph);
    auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
    ASSERT_TRUE(engine->Init().ok()) << c.label;
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "cyes"), expected)
        << c.label;
  }
}

TEST_P(ExamplesTest, Example9LadderAlternates) {
  const int k = 4;
  ProgramFixture f = MakeStrataLadderFixture(k);
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  for (int i = 1; i <= k; ++i) {
    bool expected = (i % 2 == 1);  // a1 true, a2 false, a3 true, ...
    EXPECT_EQ(Prove(engine.get(), f.symbols.get(), "a" + std::to_string(i)),
              expected)
        << "i=" << i;
  }
}

TEST_P(ExamplesTest, NationalityActLineage) {
  // §1 motivation: eligibility through a chain of hypothetical
  // "were he still alive" clauses. The recursion nests hypothetical
  // states two deep for brian.
  ProgramFixture f = MakeNationalityFixture();
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "eligible(george)"))
      << "george is deceased";
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "eligible(henry)"))
      << "henry's father would be eligible if alive";
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "eligible(brian)"))
      << "two hypothetical generations deep";
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "eligible(cora)"));
  // And the direct check: george would be eligible were he alive.
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(),
                    "eligible(george)[add: alive(george)]"));
}

TEST_P(ExamplesTest, EmptyDatabaseEdgeCases) {
  ProgramFixture f;  // No rules, no facts.
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  Fact fact;
  fact.predicate = *f.symbols->InternPredicate("ghost", 0);
  auto result = engine->ProveFact(fact);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);
}

TEST_P(ExamplesTest, QueryWithFreshConstants) {
  // Query constants outside dom(R, DB) must extend the domain (Def. 3).
  ProgramFixture f = MakeUniversityFixture(/*include_example3=*/false);
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(),
                    "take(ghost, cs999)[add: take(ghost, cs999)]"));
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "grad(ghost)"));
}

TEST_P(ExamplesTest, HypotheticalIsNotPersistent) {
  // After proving a hypothetical query, the addition must be retracted.
  ProgramFixture f = MakeUniversityFixture(/*include_example3=*/false);
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(),
                    "grad(tony)[add: take(tony, cs452)]"));
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(), "grad(tony)"))
      << "the hypothetical insertion leaked into the database";
  EXPECT_FALSE(Prove(engine.get(), f.symbols.get(),
                     "take(tony, cs452)"));
}

TEST_P(ExamplesTest, MonotoneUnderAdditions) {
  // §3.1: without negation-by-failure the system is monotonic — anything
  // provable stays provable after an insertion.
  ProgramFixture f = MakeUniversityFixture(/*include_example3=*/false);
  auto engine = MakeEngine(GetParam(), &f.rules, &f.db);
  ASSERT_TRUE(engine->Init().ok());
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(), "grad(mary)"));
  EXPECT_TRUE(Prove(engine.get(), f.symbols.get(),
                    "grad(mary)[add: take(mary, cs250)]"));
}

INSTANTIATE_TEST_SUITE_P(Engines, ExamplesTest,
                         ::testing::Values(EngineKind::kBottomUp,
                                           EngineKind::kTabled,
                                           EngineKind::kStratified,
                                           EngineKind::kReference),
                         [](const auto& info) {
                           return KindName(info.param);
                         });

TEST(BottomUpLimitationTest, ExhaustsOnUnguardedHypotheticalRules) {
  // The university fixture's within1 rule enumerates take(S, C) over the
  // whole domain, so the eager engine's reachable state lattice explodes;
  // it must fail *cleanly* with ResourceExhausted rather than diverge.
  ProgramFixture f = MakeUniversityFixture();
  EngineOptions options;
  options.max_states = 2000;
  BottomUpEngine engine(&f.rules, &f.db, options);
  ASSERT_TRUE(engine.Init().ok());
  auto query = ParseQuery("grad(mary)", f.symbols.get());
  ASSERT_TRUE(query.ok());
  auto result = engine.ProveQuery(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Example10Test, BottomUpEvaluatesNonLinearRulebase) {
  ProgramFixture f = MakeExample10Fixture();
  BottomUpEngine engine(&f.rules, &f.db);
  ASSERT_TRUE(engine.Init().ok());
  auto prove = [&](const char* name) {
    Fact fact;
    fact.predicate = f.symbols->FindPredicate(name);
    auto r = engine.ProveFact(fact);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  };
  EXPECT_TRUE(prove("a1"));
  EXPECT_TRUE(prove("d2"));
  EXPECT_FALSE(prove("c2"));
  EXPECT_FALSE(prove("b2"));
  EXPECT_TRUE(prove("a2"));
}

TEST(Example10Test, StratifiedProverRejectsIt) {
  ProgramFixture f = MakeExample10Fixture();
  StratifiedProver prover(&f.rules, &f.db);
  EXPECT_FALSE(prover.Init().ok());
}

TEST(EngineStatsTest, CountersMove) {
  ProgramFixture f = MakeParityFixture(4);
  BottomUpEngine engine(&f.rules, &f.db);
  ASSERT_TRUE(engine.Init().ok());
  auto query = ParseQuery("even", f.symbols.get());
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(engine.ProveQuery(*query).ok());
  EXPECT_GT(engine.stats().states_evaluated, 0);
  EXPECT_GT(engine.stats().facts_derived, 0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().facts_derived, 0);
}

TEST(EngineLimitsTest, MaxStatesSurfacesCleanly) {
  ProgramFixture f = MakeParityFixture(8);
  EngineOptions options;
  options.max_states = 3;
  BottomUpEngine engine(&f.rules, &f.db, options);
  ASSERT_TRUE(engine.Init().ok());
  auto query = ParseQuery("even", f.symbols.get());
  ASSERT_TRUE(query.ok());
  auto result = engine.ProveQuery(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace hypo
