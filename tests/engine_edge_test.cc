#include <algorithm>
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

TEST_F(EngineEdgeTest, NewConstantCommitsKeepDomainFreeModels) {
  // No rule enumerates dom(R, DB), so no bottom-up model depends on it: a
  // commit that brings a new constant keeps the memoized states and is
  // repaired like any other, and the engine answers like a fresh one.
  RuleBase rules = Parse(
      "missing(S, C) <- student(S), prereq(C, P), ~take(S, P).\n"
      "open(S, C) <- student(S), course(C), ~missing(S, C), ~take(S, C).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("student(s). course(a). course(b). "
                             "prereq(b, a). take(s, a).",
                             &db)
                  .ok());
  BottomUpEngine engine(&rules, &db);
  ASSERT_TRUE(engine.ProveQuery(Q("open(s, b)")).ok());
  ASSERT_TRUE(engine.ProveQuery(Q("open(s, a)[add: take(s, b)]")).ok());
  EXPECT_EQ(engine.num_states(), 2);

  BaseDelta delta;
  for (const char* text : {"student(t)", "take(t, b)"}) {
    auto f = ParseFact(text, symbols_.get());
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(db.Insert(*f));
    delta.inserts.push_back(*f);
  }
  engine.ResetStats();
  ASSERT_TRUE(engine.ApplyBaseDelta(delta).ok());
  EXPECT_EQ(engine.stats().domain_rebuilds, 0);
  EXPECT_GT(engine.stats().strata_repaired, 0);
  EXPECT_EQ(engine.num_states(), 1) << "the base model is kept, repaired";

  BottomUpEngine fresh(&rules, &db);
  for (const char* text :
       {"open(X, Y)", "missing(X, Y)", "open(t, Y)[add: take(t, a)]",
        "missing(X, b)[add: take(t, a)]"}) {
    auto got = engine.Answers(Q(text));
    auto expected = fresh.Answers(Q(text));
    ASSERT_TRUE(got.ok() && expected.ok()) << text;
    std::sort(got->begin(), got->end());
    std::sort(expected->begin(), expected->end());
    EXPECT_EQ(*got, *expected) << text;
  }
  EXPECT_EQ(engine.stats().domain_rebuilds, 0);
}

TEST_F(EngineEdgeTest, NewConstantCommitsReinitDomainEnumeratingPrograms) {
  // `free(X)` ranges over dom(R, DB), so a new constant changes the model:
  // the commit must re-Init rather than repair.
  RuleBase rules = Parse("free(X) <- ~used(X).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("used(a). item(b).", &db).ok());
  BottomUpEngine engine(&rules, &db);
  auto before = engine.Answers(Q("free(X)"));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 1u);

  auto f = ParseFact("item(c)", symbols_.get());
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(db.Insert(*f));
  BaseDelta delta;
  delta.inserts.push_back(*f);
  engine.ResetStats();
  ASSERT_TRUE(engine.ApplyBaseDelta(delta).ok());
  EXPECT_EQ(engine.stats().domain_rebuilds, 1);
  auto after = engine.Answers(Q("free(X)"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u) << "free(c) needs the new domain";
}

TEST_F(EngineEdgeTest, RepairRebuildOfHypotheticalStratumKeepsBaseIndexes) {
  // The commit changes e2, so its sorted base index is stale. The
  // stratum with the hypothetical premise is rebuilt; its rule scans an
  // e2 index bucket and, inside that scan, computes a child state from
  // empty. That child must not re-seal the base: re-sorting e2's index
  // would free the bucket under the scan.
  RuleBase rules = Parse(
      "p0(V1) <- ~e1(c2).\n"
      "p2 <- p0(V2).\n"
      "p0(c0) <- p0(V0)[add: e1(V0)], e2(V1, c0).\n"
      "p2 <- p0(V1)[add: e1(c1)].\n"
      "p2 <- ~e0(V1, c0), e1(V2), p0(V1).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("e2(c0, c0). e2(c1, c0). e2(c0, c1). "
                             "e2(c0, c2). e1(c0). e1(c2). e0(c1, c0). "
                             "e0(c2, c0). e0(c1, c1). e0(c2, c1). "
                             "e0(c2, c2).",
                             &db)
                  .ok());
  BottomUpEngine engine(&rules, &db);
  ASSERT_TRUE(engine.ProveQuery(Q("p0(c0), p0(c1), p0(c2)")).ok());
  BaseDelta delta;
  auto insert = ParseFact("e0(c0, c2)", symbols_.get());
  auto retract = ParseFact("e2(c0, c1)", symbols_.get());
  ASSERT_TRUE(insert.ok() && retract.ok());
  ASSERT_TRUE(db.Insert(*insert));
  ASSERT_TRUE(db.Retract(*retract));
  delta.inserts.push_back(*insert);
  delta.retracts.push_back(*retract);
  ASSERT_TRUE(engine.ApplyBaseDelta(delta).ok());
  EXPECT_GT(engine.stats().strata_recomputed, 0);

  BottomUpEngine fresh(&rules, &db);
  for (const char* text : {"p0(X)", "p2"}) {
    auto got = engine.Answers(Q(text));
    auto expected = fresh.Answers(Q(text));
    ASSERT_TRUE(got.ok() && expected.ok()) << text;
    std::sort(got->begin(), got->end());
    std::sort(expected->begin(), expected->end());
    EXPECT_EQ(*got, *expected) << text;
  }
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
