#include <memory>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"

namespace hypo {
namespace {

/// Hypothetical deletion ([4]'s extension): `A[del: C]` — infer A if
/// removing C from the database allows the inference of A.
class DeletionTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase Parse(const char* text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  bool Prove(TabledEngine* engine, const std::string& text) {
    auto query = ParseQuery(text, symbols_.get());
    EXPECT_TRUE(query.ok()) << query.status();
    auto r = engine->ProveQuery(*query);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status();
    return r.ok() && *r;
  }
};

TEST_F(DeletionTest, ParserAcceptsDelGroups) {
  RuleBase rules = Parse(
      "p(X) <- q(X)[del: r(X)].\n"
      "s(X) <- q(X)[add: t(X)][del: r(X), u(X)].\n");
  EXPECT_TRUE(rules.HasDeletions());
  EXPECT_EQ(rules.rule(0).premises[0].deletions.size(), 1u);
  EXPECT_EQ(rules.rule(1).premises[0].additions.size(), 1u);
  EXPECT_EQ(rules.rule(1).premises[0].deletions.size(), 2u);
  // Round trip through the printer.
  EXPECT_EQ(RuleToString(rules.rule(1), *symbols_),
            "s(X) <- q(X)[add: t(X)][del: r(X), u(X)].");
}

TEST_F(DeletionTest, BadBracketKeywordRejected) {
  auto rules = ParseRuleBase("p <- q[remove: r].", symbols_);
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("'add' or 'del'"),
            std::string::npos);
}

TEST_F(DeletionTest, BasicCounterfactual) {
  // "Would the site still be reachable if this link were cut?"
  RuleBase rules = Parse(
      "reach(X, Y) <- link(X, Y).\n"
      "reach(X, Y) <- link(X, Z), reach(Z, Y).\n"
      "fragile <- reach(a, c), vulnerable.\n"
      "vulnerable <- ~robust.\n"
      "robust <- reach(a, c)[del: link(a, b)].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("link(a, b). link(b, c).", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "reach(a, c)"));
  EXPECT_FALSE(Prove(&engine, "robust"))
      << "cutting a->b disconnects a from c";
  EXPECT_TRUE(Prove(&engine, "fragile"));

  // Add a bypass link: now robust.
  Database db2(symbols_);
  ASSERT_TRUE(
      ParseFactsInto("link(a, b). link(b, c). link(a, c).", &db2).ok());
  TabledEngine engine2(&rules, &db2);
  ASSERT_TRUE(engine2.Init().ok());
  EXPECT_TRUE(Prove(&engine2, "robust"));
  EXPECT_FALSE(Prove(&engine2, "fragile"));
}

TEST_F(DeletionTest, DeletionIsNotPersistent) {
  RuleBase rules = Parse("gone <- ~p, q.\nprobe <- gone[del: p].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("p. q.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "probe"));
  // The deletion was retracted: p is still there afterwards.
  EXPECT_TRUE(Prove(&engine, "p"));
  EXPECT_FALSE(Prove(&engine, "gone"));
}

TEST_F(DeletionTest, DeleteThenAddRestoresState) {
  // del-then-add of the same fact inside one premise: present (additions
  // apply after deletions).
  RuleBase rules = Parse("w <- p[del: p][add: p].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("p.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "w"));
}

TEST_F(DeletionTest, AddThenDeleteViaNestedPremises) {
  // Nested premises: add r then delete it again; the inner state equals
  // the original, and the memoized result must reflect that.
  RuleBase rules = Parse(
      "inner <- ~r, base.\n"
      "middle <- inner[del: r].\n"
      "outer <- middle[add: r].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("base.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  // outer: add r, then middle deletes r -> inner sees ~r over base: true.
  EXPECT_TRUE(Prove(&engine, "outer"));
}

TEST_F(DeletionTest, DeletingAbsentFactIsNoOp) {
  RuleBase rules = Parse("w <- base[del: ghost].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("base.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "w"));
}

TEST_F(DeletionTest, DeletionWithVariables) {
  // Delete one tuple chosen by a variable binding.
  RuleBase rules = Parse(
      "still_has(X) <- item(Y), other(X, Y), item(X)[del: item(Y)].\n"
      "other(X, Y) <- item(X), item(Y), ~same(X, X, Y).\n"
      "same(X, X, X) <- item(X).\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("item(a). item(b).", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  // Deleting the *other* item leaves item(X): true for both a and b.
  EXPECT_TRUE(Prove(&engine, "still_has(a)"));
  EXPECT_TRUE(Prove(&engine, "still_has(b)"));
}

TEST_F(DeletionTest, ScansRespectMasking) {
  // A negated *scan* (∄ form) and a positive scan must both skip masked
  // tuples within the hypothetical context.
  RuleBase rules = Parse(
      "empty_q <- ~q(X).\n"
      "probe <- empty_q[del: q(a)].\n"
      "someq <- q(X).\n"
      "probe2 <- someq[del: q(a)].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("q(a).", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_FALSE(Prove(&engine, "empty_q"));
  EXPECT_TRUE(Prove(&engine, "probe")) << "after deleting q(a), ~q(X) holds";
  EXPECT_TRUE(Prove(&engine, "someq"));
  EXPECT_FALSE(Prove(&engine, "probe2"))
      << "positive scan must not see the masked tuple";
}

TEST_F(DeletionTest, DeleteDerivedFactHasNoEffect) {
  // Deletion removes *database entries*; derived conclusions are not
  // entries, so deleting one does not block its re-derivation.
  RuleBase rules = Parse(
      "derived <- base.\n"
      "probe <- derived[del: derived].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("base.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "probe"))
      << "derived is re-derivable from base regardless of the deletion";
}

TEST_F(DeletionTest, OscillationTerminates) {
  // add/del cycles return to previously seen states; tabling must prune.
  RuleBase rules = Parse(
      "p <- q[del: m].\n"
      "q <- p[add: m].\n"
      "p <- base, m.\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("base. m.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "p")) << "p <- base, m directly";
  // q: add m (no-op, present) then p at same state -> true.
  EXPECT_TRUE(Prove(&engine, "q"));
}

TEST_F(DeletionTest, NonMonotoneUnderDeletion) {
  RuleBase rules = Parse("alive <- person, ~dead.\n"
                         "ghost_story <- alive[add: dead].\n"
                         "revival <- alive[del: dead].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("person. dead.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_FALSE(Prove(&engine, "alive"));
  EXPECT_FALSE(Prove(&engine, "ghost_story"));
  EXPECT_TRUE(Prove(&engine, "revival"));
}

TEST_F(DeletionTest, OtherEnginesRejectDeletions) {
  RuleBase rules = Parse("p <- q[del: r].\n");
  Database db(symbols_);
  {
    BottomUpEngine engine(&rules, &db);
    Status s = engine.Init();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
  }
  {
    StratifiedProver prover(&rules, &db);
    Status s = prover.Init();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
  }
}

TEST_F(DeletionTest, QueryLevelDeletionRejectedByOtherEngines) {
  // Even with a deletion-free rulebase, a *query* with [del: ...] must be
  // rejected by the engines that cannot honor it.
  RuleBase rules = Parse("p <- q.\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("q.", &db).ok());
  auto query = ParseQuery("p[del: q]", symbols_.get());
  ASSERT_TRUE(query.ok());
  {
    BottomUpEngine engine(&rules, &db);
    ASSERT_TRUE(engine.Init().ok());
    auto r = engine.ProveQuery(*query);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
  }
  {
    // Built on the tabled prover, which could evaluate the deletion; it
    // must refuse it all the same, in both query entry points.
    StratifiedProver prover(&rules, &db);
    ASSERT_TRUE(prover.Init().ok());
    auto proved = prover.ProveQuery(*query);
    ASSERT_FALSE(proved.ok());
    EXPECT_EQ(proved.status().code(), StatusCode::kUnimplemented);
    auto answers = prover.Answers(*query);
    ASSERT_FALSE(answers.ok());
    EXPECT_EQ(answers.status().code(), StatusCode::kUnimplemented);
  }
  {
    TabledEngine engine(&rules, &db);
    ASSERT_TRUE(engine.Init().ok());
    auto r = engine.ProveQuery(*query);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(*r) << "without q, p is underivable";
  }
}

TEST_F(DeletionTest, StateCanonicalizationMergesEquivalentPaths) {
  // Two different routes to the same visible state (delete base fact vs.
  // never seeing it) must share one memo entry — observable through
  // engine stats, but at minimum the answers must agree.
  RuleBase rules = Parse(
      "holds <- ~x, base.\n"
      "via_del <- holds[del: x].\n"
      "via_del_twice <- probe2[del: x].\n"
      "probe2 <- holds[del: x].\n");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("base. x.", &db).ok());
  TabledEngine engine(&rules, &db);
  ASSERT_TRUE(engine.Init().ok());
  EXPECT_TRUE(Prove(&engine, "via_del"));
  EXPECT_TRUE(Prove(&engine, "via_del_twice"))
      << "deleting an already-deleted fact is the same state";
}

}  // namespace
}  // namespace hypo
