// The bottom-up engine's tuple-level delta semi-naive fixpoint: its
// fallback to full re-evaluation for same-stratum hypothetical premises,
// and the join work it saves. (Its models are checked against the
// reference evaluator by plan_test and differential_test.)

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/bottom_up.h"
#include "parser/parser.h"

namespace hypo {
namespace {

/// A degenerate same-stratum hypothetical (`base(a)` is already a DB
/// fact, so `p(X)[add: base(a)]` is a positive check on the in-progress
/// model): the delta rewrite cannot restrict such a rule and must fall
/// back to full re-evaluation whenever `p` grows. A missed fallback
/// loses trig(b)/trig(c).
TEST(SeminaiveTest, DegenerateHypotheticalTracksGrowingModel) {
  auto symbols = std::make_shared<SymbolTable>();
  auto rules = ParseRuleBase(
      "p(X) <- base(X).\n"
      "p(Y) <- p(X), step(X, Y).\n"
      "trig(X) <- p(X)[add: base(a)].\n",
      symbols);
  ASSERT_TRUE(rules.ok()) << rules.status();
  Database db(symbols);
  ASSERT_TRUE(db.Insert("base", {"a"}).ok());
  ASSERT_TRUE(db.Insert("step", {"a", "b"}).ok());
  ASSERT_TRUE(db.Insert("step", {"b", "c"}).ok());

  BottomUpEngine engine(&*rules, &db);
  PredicateId trig = symbols->FindPredicate("trig");
  ASSERT_NE(trig, kInvalidPredicate);
  auto tuples = engine.FactsFor(trig);
  ASSERT_TRUE(tuples.ok()) << tuples.status();
  EXPECT_EQ(tuples->size(), 3u)
      << "lost derivations from the degenerate hypothetical";
}

/// `~q(X, Y)` with `Y` negation-local holds only if NO q(x, _) is left.
/// Hiding q(a, b) (a derived child) or deleting it (a commit) leaves
/// q(a, c), so p(a) stays false: the deletion-side delta rule must
/// re-test the whole negation, not trust the one deleted fact.
TEST(SeminaiveTest, NegationLocalVariablesSurviveNegatedDeltas) {
  auto symbols = std::make_shared<SymbolTable>();
  auto rules = ParseRuleBase(
      "q(X, Y) <- s(X, Y), ~t(Y).\n"
      "p(X) <- r(X), ~q(X, Y).\n",
      symbols);
  ASSERT_TRUE(rules.ok()) << rules.status();
  Database db(symbols);
  ASSERT_TRUE(ParseFactsInto("r(a). s(a, b). s(a, c). s(d, b). r(d).", &db)
                  .ok());
  BottomUpEngine engine(&*rules, &db);
  auto ask = [&](const char* text) {
    auto query = ParseQuery(text, symbols.get());
    EXPECT_TRUE(query.ok()) << text;
    auto holds = engine.ProveQuery(*query);
    EXPECT_TRUE(holds.ok()) << text << ": " << holds.status();
    return holds.ok() && *holds;
  };
  EXPECT_FALSE(ask("p(a)"));
  EXPECT_FALSE(ask("p(a)[add: t(b)]"));
  EXPECT_TRUE(ask("p(d)[add: t(b)]")) << "q(d, b) was d's only q fact";
  EXPECT_EQ(engine.stats().states_derived, 1);

  auto t_b = ParseFact("t(b)", symbols.get());
  ASSERT_TRUE(t_b.ok());
  ASSERT_TRUE(db.Insert(*t_b));
  BaseDelta delta;
  delta.inserts.push_back(*t_b);
  ASSERT_TRUE(engine.ApplyBaseDelta(delta).ok());
  EXPECT_EQ(engine.stats().strata_recomputed, 0);
  EXPECT_FALSE(ask("p(a)"));
  EXPECT_TRUE(ask("p(d)"));
}

/// The engine a base-delta test drives, over `rules` and `facts`, with a
/// query helper and a fact parser.
struct DeltaFixture {
  DeltaFixture(const char* rules_text, const char* facts_text)
      : symbols(std::make_shared<SymbolTable>()),
        rules(*ParseRuleBase(rules_text, symbols)),
        db(symbols),
        engine(&rules, &db) {
    EXPECT_TRUE(ParseFactsInto(facts_text, &db).ok());
  }
  bool Ask(const char* text) {
    auto query = ParseQuery(text, symbols.get());
    EXPECT_TRUE(query.ok()) << text;
    if (!query.ok()) return false;
    auto holds = engine.ProveQuery(*query);
    EXPECT_TRUE(holds.ok()) << text << ": " << holds.status();
    return holds.ok() && *holds;
  }
  Fact Parse(const char* text) {
    auto fact = ParseFact(text, symbols.get());
    EXPECT_TRUE(fact.ok()) << text;
    return fact.ok() ? *fact : Fact{};
  }

  std::shared_ptr<SymbolTable> symbols;
  RuleBase rules;
  Database db;
  BottomUpEngine engine;
};

/// A batch may insert and retract one fact (each change changed the
/// database). Repaired as two changes, the insertion half derives from a
/// fact the database no longer holds. (k keeps a and b in the domain: a
/// query constant outside it would re-Init the engine.)
TEST(SeminaiveTest, InsertedThenRetractedFactDerivesNothing) {
  DeltaFixture f("p(X) <- e(X).\ns(X) <- p(X).\n", "e(a). k(a). k(b).");
  EXPECT_TRUE(f.Ask("s(a)"));

  const Fact e_b = f.Parse("e(b)");
  ASSERT_TRUE(f.db.Insert(e_b));
  ASSERT_TRUE(f.db.Retract(e_b));
  BaseDelta in_and_out;
  in_and_out.inserts = {e_b};
  in_and_out.retracts = {e_b};
  ASSERT_TRUE(f.engine.ApplyBaseDelta(in_and_out).ok());
  EXPECT_FALSE(f.Ask("p(b)"));
  EXPECT_FALSE(f.Ask("s(b)"));

  // Out, in and out again: a net retraction.
  const Fact e_a = f.Parse("e(a)");
  ASSERT_TRUE(f.db.Retract(e_a));
  ASSERT_TRUE(f.db.Insert(e_a));
  ASSERT_TRUE(f.db.Retract(e_a));
  BaseDelta out_in_out;
  out_in_out.inserts = {e_a};
  out_in_out.retracts = {e_a, e_a};
  ASSERT_TRUE(f.engine.ApplyBaseDelta(out_in_out).ok());
  EXPECT_FALSE(f.Ask("s(a)"));
}

/// A stored fact its rule also derives, retracted and re-inserted in one
/// batch, stays stored. Repaired as two changes, rederivation also put it
/// in the base model's ext, so a derived child whose additions defeat the
/// rule hid it, and its scans of p then lost s(b)'s support.
TEST(SeminaiveTest, RetractedThenReinsertedBaseFactStaysStored) {
  DeltaFixture f("p(X) <- e(X), ~r(X).\ns(Y) <- p(X), k(Y).\n",
                 "e(a). p(a). k(b).");
  EXPECT_TRUE(f.Ask("s(b)"));

  const Fact p_a = f.Parse("p(a)");
  ASSERT_TRUE(f.db.Retract(p_a));
  ASSERT_TRUE(f.db.Insert(p_a));
  BaseDelta out_and_in;
  out_and_in.inserts = {p_a};
  out_and_in.retracts = {p_a};
  ASSERT_TRUE(f.engine.ApplyBaseDelta(out_and_in).ok());
  EXPECT_TRUE(f.Ask("s(b)[add: r(a)]"));
  EXPECT_TRUE(f.Ask("p(a)[add: r(a)]")) << "p(a) is stored";
  EXPECT_EQ(f.engine.stats().states_derived, 1);
}

/// A negated-premise delta rule plans its body with the negated atom's
/// variables bound, so it probes the base on columns the rule's plan
/// does not (here f's second). Once compiled, its signatures are base
/// probe signatures: a base sealed with them, as a server epoch seals
/// it, answers those probes from an index instead of scanning f.
TEST(SeminaiveTest, NegatedDeltaProbesJoinTheSealedSignatures) {
  std::string facts;
  for (int i = 0; i < 200; ++i) {
    const std::string n = std::to_string(i);
    facts += "e(c" + n + "). f(c" + n + ", d" + n + "). ";
  }
  DeltaFixture f("p(X) <- e(X), f(X, Y), ~r(Y).\n", facts.c_str());
  EXPECT_TRUE(f.Ask("p(c5)"));
  // Mutate the base, seal it with the engine's signatures, repair.
  auto commit = [&](const char* text) {
    const Fact r = f.Parse(text);
    EXPECT_TRUE(f.db.Insert(r));
    f.db.EnableSortedIndexes();
    for (const auto& [pred, mask] : f.engine.BaseProbeSignatures()) {
      f.db.PrepareIndex(pred, mask);
    }
    f.db.SealIndexes();
    f.engine.ResetStats();
    BaseDelta delta;
    delta.inserts = {r};
    EXPECT_TRUE(f.engine.ApplyBaseDelta(delta).ok());
    f.db.UnsealIndexes();
    return f.engine.stats().join_probes;
  };
  commit("r(d5)");  // Compiles the version.
  EXPECT_LT(commit("r(d7)"), 20) << "the version scanned f";
  EXPECT_FALSE(f.Ask("p(c5)"));
  EXPECT_TRUE(f.Ask("p(c6)"));
  EXPECT_FALSE(f.Ask("p(c7)"));
}

/// Transitive closure over a path: the delta rewrite must reach the full
/// closure while doing join work linear in it. The bounds are the gates
/// the removed naive strategy set on this path: it spent 8901 join probes
/// and 4577 rule instantiations, against delta's 597 and 298 for the 276
/// closure facts.
TEST(SeminaiveTest, TransitiveClosureDeltaDoesLessWork) {
  const int n = 24;
  auto symbols = std::make_shared<SymbolTable>();
  auto rules = ParseRuleBase(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).\n",
      symbols);
  ASSERT_TRUE(rules.ok()) << rules.status();
  Database db(symbols);
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(db.Insert("edge", {"v" + std::to_string(i),
                                   "v" + std::to_string(i + 1)})
                    .ok());
  }
  PredicateId t = symbols->FindPredicate("t");
  ASSERT_NE(t, kInvalidPredicate);

  BottomUpEngine engine(&*rules, &db);
  auto tuples = engine.FactsFor(t);
  ASSERT_TRUE(tuples.ok()) << tuples.status();
  std::set<Tuple> got(tuples->begin(), tuples->end());
  // n*(n-1)/2 ordered reachable pairs on a path of n vertices.
  EXPECT_EQ(got.size(), static_cast<size_t>(n * (n - 1) / 2));
  EXPECT_EQ(engine.stats().facts_derived, n * (n - 1) / 2)
      << "every closure fact is derived exactly once";
  EXPECT_LT(engine.stats().join_probes, 8901 / 4)
      << "delta semi-naive should cut join probes dramatically";
  EXPECT_LE(engine.stats().goals_expanded, 4577);
  EXPECT_GT(engine.stats().delta_facts, 0);
  EXPECT_GT(engine.stats().index_builds, 0);
}

}  // namespace
}  // namespace hypo
