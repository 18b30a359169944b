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
  EXPECT_LT(engine.stats().join_probes, 8901 / 4)
      << "delta semi-naive should cut join probes dramatically";
  EXPECT_LE(engine.stats().goals_expanded, 4577);
  EXPECT_GT(engine.stats().delta_facts, 0);
  EXPECT_GT(engine.stats().index_builds, 0);
}

}  // namespace
}  // namespace hypo
