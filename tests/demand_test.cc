// Coverage for EngineOptions::demand (the magic-set rewrite of
// analysis/demand_transform.h): demand-driven evaluation must return
// exactly the answers of the undirected fixpoint while deriving fewer
// facts on bound queries, and it must agree with the TabledEngine on
// random programs with negation and hypothetical premises.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "engine/bottom_up.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "workload/random_programs.h"

namespace hypo {
namespace {

EngineOptions DemandOptions(bool demand) {
  EngineOptions options;
  options.demand = demand;
  options.max_states = 40'000;
  options.max_steps = 3'000'000;
  return options;
}

class DemandTest : public ::testing::Test {
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

  /// A linear chain edge(v0, v1), ..., edge(v{n-1}, v{n}).
  Database ChainDb(int n) {
    Database db(symbols_);
    std::string text;
    for (int i = 0; i < n; ++i) {
      text += "edge(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
              ").\n";
    }
    EXPECT_TRUE(ParseFactsInto(text, &db).ok());
    return db;
  }
};

TEST_F(DemandTest, BoundReachabilityPrunesDerivations) {
  // t(v0, Y) demands only the source row of the transitive closure:
  // the magic rewrite must return the same 99 answers while deriving
  // O(n) facts instead of the full O(n^2) closure.
  RuleBase rules = Parse(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).");
  Database db = ChainDb(99);

  BottomUpEngine off(&rules, &db, DemandOptions(false));
  auto full = off.Answers(Q("t(v0, Y)"));
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->size(), 99u);

  BottomUpEngine on(&rules, &db, DemandOptions(true));
  auto demanded = on.Answers(Q("t(v0, Y)"));
  ASSERT_TRUE(demanded.ok()) << demanded.status();
  std::set<Tuple> want(full->begin(), full->end());
  std::set<Tuple> got(demanded->begin(), demanded->end());
  EXPECT_EQ(got, want);

  EXPECT_GT(on.stats().magic_facts, 0);
  EXPECT_GT(on.stats().demanded_predicates, 0);
  EXPECT_LT(on.stats().facts_derived * 4, off.stats().facts_derived)
      << "demand-on derived " << on.stats().facts_derived
      << " facts, demand-off " << off.stats().facts_derived;
}

TEST_F(DemandTest, ChildStateStopsAtDemandedStratum) {
  // Once a query has demanded `blocked` (stratum 1, above the negation),
  // a hypothetical query that only needs `t` must compute its child
  // state through t's stratum and skip blocked's.
  RuleBase rules = Parse(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).\n"
      "blocked(X, Y) <- t(X, Y), ~t(Y, X).");
  Database db = ChainDb(5);

  BottomUpEngine on(&rules, &db, DemandOptions(true));
  auto blocked = on.ProveQuery(Q("blocked(v0, v3)"));
  ASSERT_TRUE(blocked.ok()) << blocked.status();
  EXPECT_TRUE(*blocked);
  EXPECT_EQ(on.stats().strata_skipped, 0);

  // Adding edge(v5, v0) closes the chain into a cycle, so t(v2, v0)
  // becomes derivable in the child state — whose model only needs t.
  auto bridged = on.ProveQuery(Q("t(v2, v0)[add: edge(v5, v0)]"));
  ASSERT_TRUE(bridged.ok()) << bridged.status();
  EXPECT_TRUE(*bridged);
  EXPECT_GT(on.stats().strata_skipped, 0)
      << "the child state should never have run blocked's stratum";
  EXPECT_EQ(on.num_states(), 2);

  BottomUpEngine off(&rules, &db, DemandOptions(false));
  for (const char* query :
       {"blocked(v0, v3)", "t(v2, v0)[add: edge(v5, v0)]", "t(v2, v0)"}) {
    auto want = off.ProveQuery(Q(query));
    auto got = on.ProveQuery(Q(query));
    ASSERT_TRUE(want.ok() && got.ok()) << query;
    EXPECT_EQ(*got, *want) << query;
  }
}

TEST_F(DemandTest, NegatedPremisesGetFullDemand) {
  // A negated premise must see the complete relation it negates even
  // when the rest of the query is tightly bound (Tekle–Liu full demand).
  RuleBase rules = Parse(
      "r(X, Y) <- edge(X, Y).\n"
      "r(X, Y) <- r(X, Z), edge(Z, Y).\n"
      "gap(X, Y) <- node(X), node(Y), ~r(X, Y).");
  Database db = ChainDb(6);
  ASSERT_TRUE(
      ParseFactsInto("node(v0). node(v3). node(v6).", &db).ok());

  for (const char* query :
       {"gap(v3, v0)", "gap(v0, v3)", "gap(v6, v6)", "r(v0, v6)"}) {
    BottomUpEngine off(&rules, &db, DemandOptions(false));
    BottomUpEngine on(&rules, &db, DemandOptions(true));
    auto want = off.ProveQuery(Q(query));
    auto got = on.ProveQuery(Q(query));
    ASSERT_TRUE(want.ok() && got.ok()) << query;
    EXPECT_EQ(*got, *want) << query;
  }
}

TEST_F(DemandTest, HypotheticalPremisePropagatesDemand) {
  // A hypothetical premise materializes a child state; demand must seed
  // that child's magic relation with the queried ground atom so only
  // the needed slice of the hypothetical world is computed.
  RuleBase rules = Parse(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).");
  Database db = ChainDb(9);

  // The chain stops at v9; the query asks whether adding edge(v9, v20)
  // would connect v0 to v20 (the new constant widens the domain).
  for (bool demand : {false, true}) {
    BottomUpEngine engine(&rules, &db, DemandOptions(demand));
    auto bridged = engine.ProveQuery(Q("t(v0, v20)[add: edge(v9, v20)]"));
    ASSERT_TRUE(bridged.ok()) << bridged.status();
    EXPECT_TRUE(*bridged) << "demand=" << demand;
    auto unbridged = engine.ProveQuery(Q("t(v0, v20)"));
    ASSERT_TRUE(unbridged.ok());
    EXPECT_FALSE(*unbridged) << "demand=" << demand;
    EXPECT_EQ(engine.num_states(), 2) << "demand=" << demand;
    if (demand) {
      EXPECT_GT(engine.stats().magic_facts, 0);
    }
  }
}

TEST_F(DemandTest, ProfileWidensMonotonicallyAcrossQueries) {
  // Widening the demand profile (bound query, then a full scan, then
  // another bound query) must re-extend the memoized state rather than
  // losing or corrupting earlier answers.
  RuleBase rules = Parse(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).");
  Database db = ChainDb(30);

  BottomUpEngine off(&rules, &db, DemandOptions(false));
  BottomUpEngine on(&rules, &db, DemandOptions(true));

  auto first = on.Answers(Q("t(v0, Y)"));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->size(), 30u);

  // Full scan widens t to full demand; must match the undirected model.
  auto pred = symbols_->InternPredicate("t", 2);
  ASSERT_TRUE(pred.ok());
  auto scan_on = on.FactsFor(*pred);
  auto scan_off = off.FactsFor(*pred);
  ASSERT_TRUE(scan_on.ok() && scan_off.ok());
  std::set<Tuple> got(scan_on->begin(), scan_on->end());
  std::set<Tuple> want(scan_off->begin(), scan_off->end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(want.size(), 30u * 31u / 2u);

  // A later bound query is served from the re-extended model.
  auto second = on.Answers(Q("t(v5, Y)"));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->size(), 25u);
}

/// The base-state model as a printable set, via full scans of every
/// defined predicate.
StatusOr<std::set<std::string>> ModelOf(BottomUpEngine* engine,
                                        const ProgramFixture& fixture) {
  std::set<std::string> facts;
  const SymbolTable& symbols = fixture.rules.symbols();
  for (int pred = 0; pred < symbols.num_predicates(); ++pred) {
    if (!fixture.rules.IsDefined(pred)) continue;
    HYPO_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, engine->FactsFor(pred));
    for (const Tuple& t : tuples) {
      facts.insert(FactToString(Fact{pred, t}, symbols));
    }
  }
  return facts;
}

TEST(DemandFuzzTest, ThreeWayDifferentialOnRandomPrograms) {
  // Demand-on BottomUpEngine vs demand-off BottomUpEngine vs the
  // TabledEngine over random programs with negation and hypothetical
  // premises: ground probes and full scans must agree everywhere, and
  // demand must never materialize more states than eager evaluation.
  RandomProgramOptions options;
  options.negation_probability = 0.25;
  options.hypothetical_probability = 0.45;
  int tested = 0;
  for (uint64_t seed = 900; seed < 935; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    const SymbolTable& symbols = fixture.rules.symbols();

    BottomUpEngine off(&fixture.rules, &fixture.db, DemandOptions(false));
    BottomUpEngine on(&fixture.rules, &fixture.db, DemandOptions(true));
    TabledEngine tabled(&fixture.rules, &fixture.db, DemandOptions(false));

    // Phase 1: ground probes (partial, per-query demand). Probe every
    // ground atom over the first two constants of every IDB predicate.
    std::vector<ConstId> probes;
    for (int c = 0; c < symbols.num_consts() && c < 2; ++c) probes.push_back(c);
    bool skipped = false;
    for (int pred = 0; pred < symbols.num_predicates() && !skipped; ++pred) {
      if (!fixture.rules.IsDefined(pred)) continue;
      int arity = symbols.PredicateArity(pred);
      if (arity > 0 && probes.empty()) continue;
      std::vector<int> index(arity, 0);
      while (!skipped) {
        Fact fact;
        fact.predicate = pred;
        for (int i = 0; i < arity; ++i) fact.args.push_back(probes[index[i]]);
        auto want = off.ProveFact(fact);
        auto got = on.ProveFact(fact);
        auto ref = tabled.ProveFact(fact);
        if (!want.ok() || !got.ok() || !ref.ok()) {
          for (const auto* status : {&want, &got, &ref}) {
            if (!status->ok()) {
              ASSERT_EQ(status->status().code(),
                        StatusCode::kResourceExhausted)
                  << status->status();
            }
          }
          skipped = true;
          break;
        }
        EXPECT_EQ(*got, *want)
            << "demand diverged on " << FactToString(fact, symbols)
            << " at seed " << seed << ":\n"
            << RuleBaseToString(fixture.rules);
        EXPECT_EQ(*got, *ref)
            << "engines diverged on " << FactToString(fact, symbols)
            << " at seed " << seed << ":\n"
            << RuleBaseToString(fixture.rules);
        int pos = arity - 1;
        while (pos >= 0 &&
               ++index[pos] == static_cast<int>(probes.size())) {
          index[pos] = 0;
          --pos;
        }
        if (pos < 0 || arity == 0) break;
      }
    }
    if (skipped) continue;

    // Phase 2: full scans (widens the profile to full demand).
    auto eager = ModelOf(&off, fixture);
    auto demanded = ModelOf(&on, fixture);
    if (!eager.ok() || !demanded.ok()) {
      for (const auto* model : {&eager, &demanded}) {
        if (!model->ok()) {
          ASSERT_EQ(model->status().code(), StatusCode::kResourceExhausted)
              << model->status();
        }
      }
      continue;
    }
    EXPECT_EQ(*demanded, *eager)
        << "demand diverged from eager at seed " << seed << ":\n"
        << RuleBaseToString(fixture.rules);
    EXPECT_LE(on.num_states(), off.num_states())
        << "demand materialized more states at seed " << seed << ":\n"
        << RuleBaseToString(fixture.rules);
    ++tested;
  }
  EXPECT_GE(tested, 25) << "too many programs skipped";
}

}  // namespace
}  // namespace hypo
