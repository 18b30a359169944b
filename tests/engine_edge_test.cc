#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "queries/parity.h"

namespace hypo {
namespace {

class EngineEdgeTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase Parse(const char* text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  Query Q(const std::string& text) {
    auto query = ParseQuery(text, symbols_.get());
    EXPECT_TRUE(query.ok()) << query.status();
    return std::move(query).value();
  }
};

TEST_F(EngineEdgeTest, RepeatedHeadVariables) {
  RuleBase rules = Parse("diag(X, X) <- node(X).\nhas_diag <- diag(X, Y).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("node(a). node(b).", &db).ok());
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<Engine> engine;
    if (kind == 0) engine = std::make_unique<TabledEngine>(&rules, &db);
    if (kind == 1) engine = std::make_unique<BottomUpEngine>(&rules, &db);
    if (kind == 2) engine = std::make_unique<StratifiedProver>(&rules, &db);
    ASSERT_TRUE(engine->Init().ok()) << engine->name();
    auto answers = engine->Answers(Q("diag(X, Y)"));
    ASSERT_TRUE(answers.ok()) << engine->name();
    EXPECT_EQ(answers->size(), 2u) << engine->name();
    for (const Tuple& t : *answers) EXPECT_EQ(t[0], t[1]);
    auto off_diag = engine->ProveQuery(Q("diag(a, b)"));
    ASSERT_TRUE(off_diag.ok());
    EXPECT_FALSE(*off_diag) << engine->name();
  }
}

TEST_F(EngineEdgeTest, ConjunctiveQuerySharesBindings) {
  RuleBase rules = Parse("ok(X) <- q(X)[add: mark(X)].\nq(X) <- p(X), mark(X).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("p(a). p(b). blocked(b).", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  // X must be bound consistently across both premises.
  auto answers = engine.Answers(Q("ok(X), ~blocked(X)"));
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ(symbols_->ConstName((*answers)[0][0]), "a");
}

TEST_F(EngineEdgeTest, MemoReuseAcrossQueries) {
  ProgramFixture fixture = MakeParityFixture(6);
  StratifiedProver prover(&fixture.rules, &fixture.db);
  ASSERT_TRUE(prover.Init().ok());
  auto even = ParseQuery("even", fixture.symbols.get());
  ASSERT_TRUE(even.ok());
  ASSERT_TRUE(prover.ProveQuery(*even).ok());
  int64_t goals_first = prover.stats().goals_expanded;
  ASSERT_TRUE(prover.ProveQuery(*even).ok());
  EXPECT_EQ(prover.stats().goals_expanded, goals_first)
      << "second identical query must be answered from the memo";
  EXPECT_GT(prover.stats().memo_hits, 0);
}

TEST_F(EngineEdgeTest, GroundRuleHeadsActAsDerivedFacts) {
  RuleBase rules = Parse("axiom(a).\nuses(X) <- axiom(X).");
  Database db(symbols_);
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(*engine.ProveQuery(Q("uses(a)")));
  EXPECT_FALSE(*engine.ProveQuery(Q("uses(b)")));
}

TEST_F(EngineEdgeTest, NegationOnlyVariableEnumeratesInQueries) {
  // In a top-level query every variable (even negation-only ones) is
  // enumerated over the domain: answers are the non-q elements.
  RuleBase rules = Parse("q(a).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("el(a). el(b). el(c).", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  auto answers = engine.Answers(Q("el(X), ~q(X)"));
  ASSERT_TRUE(answers.ok());
  std::set<std::string> got;
  for (const Tuple& t : *answers) got.insert(symbols_->ConstName(t[0]));
  EXPECT_EQ(got, (std::set<std::string>{"b", "c"}));
}

TEST_F(EngineEdgeTest, HypotheticalQueryOfUndefinedPredicate) {
  // The queried atom of a hypothetical premise may itself be extensional:
  // only inference rule 1 applies inside the new state.
  RuleBase rules = Parse("w <- ghost[add: ghost].\nv <- ghost[add: other].");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("seed.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(*engine.ProveQuery(Q("w")));
  EXPECT_FALSE(*engine.ProveQuery(Q("v")));
}

TEST_F(EngineEdgeTest, SelfSupportIsNotAProof) {
  // p <- p must not prove p (least fixpoint), in any engine, including
  // through a hypothetical no-op premise.
  RuleBase rules = Parse("p <- p.\nr <- r[add: unrelated].");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("unrelated.", &db).ok());
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<Engine> engine;
    if (kind == 0) engine = std::make_unique<TabledEngine>(&rules, &db);
    if (kind == 1) engine = std::make_unique<BottomUpEngine>(&rules, &db);
    if (kind == 2) engine = std::make_unique<StratifiedProver>(&rules, &db);
    ASSERT_TRUE(engine->Init().ok()) << engine->name();
    EXPECT_FALSE(*engine->ProveQuery(Q("p"))) << engine->name();
    EXPECT_FALSE(*engine->ProveQuery(Q("r"))) << engine->name();
  }
}

TEST_F(EngineEdgeTest, MutualRecursionThroughHypothesis) {
  // ping/pong recurse through growing states and terminate with the
  // right answer everywhere.
  RuleBase rules = Parse(
      "ping(X) <- step(X, Y), pong(Y)[add: seen(X)].\n"
      "pong(X) <- step(X, Y), ping(Y)[add: seen(X)].\n"
      "pong(X) <- final(X).\n");
  Database db(symbols_);
  ASSERT_TRUE(
      ParseFactsInto("step(a, b). step(b, c). final(c).", &db).ok());
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<Engine> engine;
    if (kind == 0) engine = std::make_unique<TabledEngine>(&rules, &db);
    if (kind == 1) engine = std::make_unique<BottomUpEngine>(&rules, &db);
    if (kind == 2) engine = std::make_unique<StratifiedProver>(&rules, &db);
    ASSERT_TRUE(engine->Init().ok()) << engine->name();
    // pong(a) -> ping(b) -> pong(c) <- final(c): provable in two hops;
    // ping(a) -> pong(b) -> ping(c) dead-ends (no step out of c).
    EXPECT_FALSE(*engine->ProveQuery(Q("ping(a)"))) << engine->name();
    EXPECT_TRUE(*engine->ProveQuery(Q("pong(a)"))) << engine->name();
  }
}

TEST_F(EngineEdgeTest, ResetStatsClearsCounters) {
  ProgramFixture fixture = MakeParityFixture(4);
  TabledEngine engine(&fixture.rules, &fixture.db);
  auto even = ParseQuery("even", fixture.symbols.get());
  ASSERT_TRUE(even.ok());
  ASSERT_TRUE(engine.ProveQuery(*even).ok());
  EXPECT_GT(engine.stats().goals_expanded, 0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().goals_expanded, 0);
  EXPECT_EQ(engine.stats().max_goal_depth, 0);
}

TEST_F(EngineEdgeTest, MaxStepsLimitSurfaces) {
  ProgramFixture fixture = MakeParityFixture(8);
  EngineOptions options;
  options.max_steps = 5;
  TabledEngine engine(&fixture.rules, &fixture.db, options);
  auto even = ParseQuery("even", fixture.symbols.get());
  ASSERT_TRUE(even.ok());
  auto r = engine.ProveQuery(*even);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EngineEdgeTest, ExtensionalEnumerationIsMetered) {
  // The addition's variables occur nowhere else, so the plan runs a
  // domain^3 kEnumerateVars loop that expands no goals at all. Before the
  // enumeration counter, such loops ran to completion regardless of
  // max_steps; they must surface ResourceExhausted instead.
  RuleBase rules = Parse("p0 <- ghost[add: e0(X, Y, Z)].");
  Database db(symbols_);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Insert("el", {"c" + std::to_string(i)}).ok());
  }
  EngineOptions options;
  options.max_steps = 1000;
  {
    TabledEngine engine(&rules, &db, options);
    auto r = engine.ProveQuery(Q("p0"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(engine.stats().enumerations, options.max_steps);
  }
  {
    StratifiedProver prover(&rules, &db, options);
    auto r = prover.ProveQuery(Q("p0"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(EngineEdgeTest, NegatedEnumerationIsMetered) {
  // ∄-reading of a negated defined premise with three free variables
  // whose only rule grounds them over the domain (an addition they alone
  // occur in): the call's table costs domain^3 iterations, none of which
  // expand a goal. The enumeration counter must trip max_steps here too.
  RuleBase rules = Parse(
      "q <- ~r(X, Y, Z).\n"
      "r(X, Y, Z) <- ghost[add: e0(X, Y, Z)].\n"
      "p <- ~e0(X, Y, Z).");
  Database db(symbols_);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Insert("el", {"c" + std::to_string(i)}).ok());
  }
  EngineOptions options;
  options.max_steps = 1000;
  TabledEngine engine(&rules, &db, options);
  auto r = engine.ProveQuery(Q("q"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(engine.stats().enumerations, options.max_steps);

  // A negated extensional premise is one storage probe, not domain^3
  // ground tests.
  TabledEngine cheap(&rules, &db, options);
  auto p = cheap.ProveQuery(Q("p"));
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(*p);
  EXPECT_EQ(cheap.stats().enumerations, 0);
}

TEST_F(EngineEdgeTest, RepeatedOutOfDomainConstantRebuildsOnce) {
  // A query constant outside dom(R, DB) folds into the domain with one
  // re-Init; asking again (even with the constant repeated inside one
  // query) must not rebuild or grow the extra-constant list again.
  RuleBase rules = Parse("p(X) <- el(X).");
  Database db(symbols_);
  ASSERT_TRUE(db.Insert("el", {"a"}).ok());
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<Engine> engine;
    if (kind == 0) engine = std::make_unique<TabledEngine>(&rules, &db);
    if (kind == 1) engine = std::make_unique<BottomUpEngine>(&rules, &db);
    if (kind == 2) engine = std::make_unique<StratifiedProver>(&rules, &db);
    ASSERT_TRUE(engine->Init().ok()) << engine->name();
    EXPECT_EQ(engine->stats().domain_rebuilds, 1) << engine->name();
    EXPECT_FALSE(*engine->ProveQuery(Q("p(zz), p(zz)")));
    EXPECT_EQ(engine->stats().domain_rebuilds, 2)
        << engine->name() << ": one rebuild for the new constant";
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(*engine->ProveQuery(Q("p(zz)")));
    }
    EXPECT_EQ(engine->stats().domain_rebuilds, 2)
        << engine->name()
        << ": repeated queries with the same constant must not rebuild";
  }
}

TEST_F(EngineEdgeTest, RecursionThroughNegationRejectedEverywhere) {
  RuleBase rules = Parse("p <- ~q. q <- ~p.");
  Database db(symbols_);
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<Engine> engine;
    if (kind == 0) engine = std::make_unique<TabledEngine>(&rules, &db);
    if (kind == 1) engine = std::make_unique<BottomUpEngine>(&rules, &db);
    if (kind == 2) engine = std::make_unique<StratifiedProver>(&rules, &db);
    Status s = engine->Init();
    ASSERT_FALSE(s.ok()) << engine->name();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << engine->name();
  }
}

TEST_F(EngineEdgeTest, MismatchedSymbolTablesRejected) {
  RuleBase rules = Parse("p <- q.");
  auto other_symbols = std::make_shared<SymbolTable>();
  Database db(other_symbols);
  TabledEngine engine(&rules, &db);
  Status s = engine.Init();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hypo
