#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/proof.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "queries/parity.h"
#include "queries/university.h"

namespace hypo {
namespace {

class ProofTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase Parse(const char* text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  Fact F(const std::string& text, SymbolTable* symbols) {
    auto fact = ParseFact(text, symbols);
    EXPECT_TRUE(fact.ok()) << fact.status();
    return std::move(fact).value();
  }
};

TEST_F(ProofTest, DatabaseFactIsALeaf) {
  RuleBase rules = Parse("p <- q.");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("q.", &db).ok());
  TabledEngine engine(&rules, &db);
  auto proof = engine.ExplainFact(F("q", symbols_.get()));
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_EQ(proof->kind, ProofNode::Kind::kDatabaseFact);
  EXPECT_TRUE(proof->children.empty());
}

TEST_F(ProofTest, RuleChainIsNested) {
  RuleBase rules = Parse("p <- q.\nq <- r.");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("r.", &db).ok());
  TabledEngine engine(&rules, &db);
  auto proof = engine.ExplainFact(F("p", symbols_.get()));
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_EQ(proof->kind, ProofNode::Kind::kRule);
  ASSERT_EQ(proof->children.size(), 1u);
  EXPECT_EQ(proof->children[0].kind, ProofNode::Kind::kRule);
  ASSERT_EQ(proof->children[0].children.size(), 1u);
  EXPECT_EQ(proof->children[0].children[0].kind,
            ProofNode::Kind::kDatabaseFact);
}

TEST_F(ProofTest, UnprovableFactIsNotFound) {
  RuleBase rules = Parse("p <- q.");
  Database db(symbols_);
  TabledEngine engine(&rules, &db);
  auto proof = engine.ExplainFact(F("p", symbols_.get()));
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kNotFound);
}

TEST_F(ProofTest, AvoidsCircularJustification) {
  // p <- p would justify p by itself; the reconstruction must pick the
  // non-circular rule even though p <- p is listed first.
  RuleBase rules = Parse("p <- p.\np <- base.");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("base.", &db).ok());
  TabledEngine engine(&rules, &db);
  auto proof = engine.ExplainFact(F("p", symbols_.get()));
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_EQ(proof->rule_index, 1) << "must use p <- base";
}

TEST_F(ProofTest, HypotheticalContextRecorded) {
  ProgramFixture f = MakeUniversityFixture(/*include_example3=*/false);
  TabledEngine engine(&f.rules, &f.db);
  // Explain: one_away-style derived fact through a hypothetical premise.
  auto extra = ParseRuleBase(
      "one_away(S) <- ~grad(S), grad(S)[add: take(S, cs452)].",
      f.symbols);
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(f.rules.Merge(*extra).ok());
  TabledEngine engine2(&f.rules, &f.db);
  auto proof = engine2.ExplainFact(F("one_away(tony)", f.symbols.get()));
  ASSERT_TRUE(proof.ok()) << proof.status();
  std::string rendered = ProofToString(*proof, *f.symbols);
  EXPECT_NE(rendered.find("one_away(tony)"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("+take(tony, cs452)"), std::string::npos)
      << "the hypothetical addition must be shown:\n" << rendered;
  EXPECT_NE(rendered.find("[hypothetical addition]"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("~grad(tony)"), std::string::npos)
      << "the NAF premise must be shown:\n" << rendered;
}

TEST_F(ProofTest, ParityProofWalksTheCopyChain) {
  ProgramFixture f = MakeParityFixture(2);
  TabledEngine engine(&f.rules, &f.db);
  Fact even;
  even.predicate = f.symbols->FindPredicate("even");
  auto proof = engine.ExplainFact(even);
  ASSERT_TRUE(proof.ok()) << proof.status();
  std::string rendered = ProofToString(*proof, *f.symbols);
  // even -> odd -> even, with two b-additions along the way.
  EXPECT_NE(rendered.find("odd"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("+b("), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("no instance provable"), std::string::npos)
      << "the final ~select(X) step:\n" << rendered;
}

TEST_F(ProofTest, DeletionRecordedInProof) {
  RuleBase rules = Parse(
      "alive <- person, ~dead.\nrevival <- alive[del: dead].");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto("person. dead.", &db).ok());
  TabledEngine engine(&rules, &db);
  auto proof = engine.ExplainFact(F("revival", symbols_.get()));
  ASSERT_TRUE(proof.ok()) << proof.status();
  std::string rendered = ProofToString(*proof, *symbols_);
  EXPECT_NE(rendered.find("-dead"), std::string::npos)
      << "the hypothetical deletion must be shown:\n" << rendered;
}

TEST_F(ProofTest, RegistrarExplanationWalksCallTables) {
  // The registrar's missing(S, C) joins a transitive prerequisite closure
  // under negation. Explaining it must follow needs(C, P)'s answer table
  // and probe take/2, never ground P (or X) over the domain.
  RuleBase rules = Parse(
      "needs(C, X) <- prereq(C, X).\n"
      "needs(C, X) <- prereq(C, Y), needs(Y, X).\n"
      "missing(S, C) <- student(S), needs(C, P), ~take(S, P).");
  Database db(symbols_);
  ASSERT_TRUE(ParseFactsInto(
                  "prereq(c3, c2). prereq(c2, c1). prereq(c1, c0).\n"
                  "student(s1). student(s2). take(s1, c2). take(s1, c1).\n"
                  "take(s2, c0). course(c0). course(c1). course(c2).",
                  &db)
                  .ok());
  TabledEngine engine(&rules, &db);
  auto proof = engine.ExplainFact(F("missing(s1, c3)", symbols_.get()));
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_EQ(engine.stats().enumerations, 0)
      << "explaining grounded a variable over the domain";
  std::string rendered = ProofToString(*proof, *symbols_);
  // s1 lacks c0, three prerequisites down.
  EXPECT_NE(rendered.find("needs(c3, c0)"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("~take(s1, c0)"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace hypo
