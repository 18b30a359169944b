// Tests for the deterministic fault-injection framework (base/failpoint.h)
// and the differential "abort anywhere" sweep it enables: for every
// failpoint site a workload crosses, inject a fault at the 1st / middle /
// last hit, require the typed error (or an unaffected answer), then
// re-run the *same* engine instance to completion and require answers
// identical to the clean reference. Any stale memo entry, dirty model, or
// half-merged round a fault leaves behind shows up as a diff.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "engine/engine.h"
#include "parser/parser.h"

namespace hypo {
namespace {

#if HYPO_FAILPOINTS

const char* const kConfigs[] = {"tabled", "stratified", "bottomup"};

/// One query's outcome as a comparable string: "yes"/"no" for closed
/// queries, the sorted answer tuples for open ones, "error: ..." on any
/// failure. Sorting makes the encoding insensitive to the enumeration
/// order, which may legitimately differ between a fresh model and one
/// recomputed after an injected abort.
std::string RunOne(Engine* engine, const Query& query) {
  if (query.num_vars() == 0) {
    auto r = engine->ProveQuery(query);
    if (!r.ok()) return "error: " + r.status().ToString();
    return *r ? "yes" : "no";
  }
  auto r = engine->Answers(query);
  if (!r.ok()) return "error: " + r.status().ToString();
  std::vector<Tuple> tuples = std::move(*r);
  std::sort(tuples.begin(), tuples.end());
  std::string out;
  for (const Tuple& tuple : tuples) {
    out += '(';
    for (ConstId c : tuple) {
      out += std::to_string(c);
      out += ',';
    }
    out += ')';
  }
  return out;
}

std::vector<std::string> RunAll(Engine* engine,
                                const std::vector<Query>& queries) {
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(RunOne(engine, q));
  return out;
}

#endif  // HYPO_FAILPOINTS

class FailpointTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  /// A small program exercising every premise kind the engines meter:
  /// linear recursion, stratified negation, a hypothetical rule premise.
  RuleBase BuildProgram() {
    auto rules = ParseRuleBase(
        "reach(X, Y) <- edge(X, Y).\n"
        "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n"
        "blocked(X) <- node(X), ~reach(a, X).\n"
        "bridge(X, Y) <- reach(X, Y)[add: edge(c, d)].",
        symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  void BuildFacts(Database* db) {
    for (const char* e : {"ab", "bc", "de"}) {
      ASSERT_TRUE(db->Insert("edge", {std::string(1, e[0]),
                                      std::string(1, e[1])})
                      .ok());
    }
    for (const char* n : {"a", "b", "c", "d", "e"}) {
      ASSERT_TRUE(db->Insert("node", {n}).ok());
    }
  }

  std::vector<Query> BuildQueries() {
    return ParseQueries(
        {"reach(a, c)", "reach(a, X)", "blocked(X)", "bridge(a, e)",
         "bridge(a, X)", "reach(a, e)[add: edge(c, d)]",
         "reach(X, e)[add: edge(c, d)]"});
  }

  /// The registrar's negation over recursion, with no hypothetical rule,
  /// so the bottom-up engine derives what-if children from its base
  /// model (and repairs their negations) instead of computing them.
  RuleBase BuildWhatIfProgram() {
    auto rules = ParseRuleBase(
        "needs(C, X) <- prereq(C, X).\n"
        "needs(C, X) <- prereq(C, Y), needs(Y, X).\n"
        "missing(S, C) <- student(S), needs(C, P), ~take(S, P).\n"
        "open(S, C) <- student(S), course(C), ~missing(S, C), "
        "~take(S, C).",
        symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  void BuildWhatIfFacts(Database* db) {
    for (const char* c : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(db->Insert("course", {c}).ok());
    }
    for (const char* p : {"ba", "cb", "da"}) {
      ASSERT_TRUE(db->Insert("prereq", {std::string(1, p[0]),
                                        std::string(1, p[1])})
                      .ok());
    }
    for (const char* s : {"s", "t"}) {
      ASSERT_TRUE(db->Insert("student", {s}).ok());
    }
    ASSERT_TRUE(db->Insert("take", {"s", "a"}).ok());
    ASSERT_TRUE(db->Insert("take", {"t", "b"}).ok());
  }

  std::vector<Query> BuildWhatIfQueries() {
    return ParseQueries(
        {"open(s, X)", "open(s, c)[add: take(s, b)]",
         "open(X, c)[add: take(t, a)]",
         "missing(t, X)[add: take(t, a), take(t, d)]",
         "open(t, d)[add: take(t, a)]", "missing(X, c)"});
  }

  /// The abort-anywhere sweep of DifferentialAbortAnywhereSweep over one
  /// program, in every engine configuration.
  void SweepAbortsAnywhere(const RuleBase& rules, const Database& db,
                           const std::vector<Query>& queries,
                           bool expect_derived_children);

  std::vector<Query> ParseQueries(const std::vector<const char*>& texts) {
    std::vector<Query> out;
    for (const char* text : texts) {
      auto q = ParseQuery(text, symbols_.get());
      EXPECT_TRUE(q.ok()) << text << ": " << q.status();
      out.push_back(std::move(*q));
    }
    return out;
  }
};

TEST_F(FailpointTest, EnabledMatchesBuildConfig) {
  // HYPO_FAILPOINTS is forced off for Release by the top-level CMake;
  // everything below this test skips there instead of failing.
  EXPECT_EQ(FailpointsEnabled(), HYPO_FAILPOINTS != 0);
}

#if HYPO_FAILPOINTS

TEST_F(FailpointTest, RegistryCountsAndFiresNthHit) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  registry.ResetCounts();

  Database db(symbols_);
  ASSERT_TRUE(db.Insert("p", {"a"}).ok());
  EXPECT_EQ(registry.HitCount("db.insert"), 1);

  // nth = 2 counts from the Arm call: the next hit passes, the one after
  // fires, and the trigger clears itself (one-shot).
  registry.Arm("db.insert", 2, Status::Internal("injected"));
  EXPECT_TRUE(db.Insert("p", {"b"}).ok());
  Status fired = db.Insert("p", {"c"});
  EXPECT_EQ(fired.code(), StatusCode::kInternal);
  EXPECT_EQ(fired.message(), "injected");
  EXPECT_TRUE(db.Insert("p", {"c"}).ok());

  // Hit counters kept across DisarmAll, zeroed by ResetCounts; the site
  // shows up in the discovery listing.
  registry.Arm("db.insert", 1, Status::Internal("never fires"));
  registry.DisarmAll();
  EXPECT_TRUE(db.Insert("p", {"d"}).ok());
  bool listed = false;
  for (const auto& [site, count] : registry.HitSites()) {
    if (site == "db.insert") {
      listed = true;
      EXPECT_GE(count, 5);
    }
  }
  EXPECT_TRUE(listed);
  registry.ResetCounts();
  EXPECT_EQ(registry.HitCount("db.insert"), 0);
}

TEST_F(FailpointTest, DifferentialAbortAnywhereSweep) {
  for (bool whatif : {false, true}) {
    SCOPED_TRACE(whatif ? "what-if program" : "hypothetical-rule program");
    RuleBase rules = whatif ? BuildWhatIfProgram() : BuildProgram();
    Database db(symbols_);
    if (whatif) {
      BuildWhatIfFacts(&db);
    } else {
      BuildFacts(&db);
    }
    SweepAbortsAnywhere(rules, db,
                        whatif ? BuildWhatIfQueries() : BuildQueries(),
                        whatif);
  }
}

void FailpointTest::SweepAbortsAnywhere(const RuleBase& rules,
                                        const Database& db,
                                        const std::vector<Query>& queries,
                                        bool expect_derived_children) {
  FailpointRegistry& registry = FailpointRegistry::Global();

  for (const char* kind : kConfigs) {
    // Clean reference run; its hit counters discover which sites this
    // engine configuration actually crosses.
    registry.DisarmAll();
    registry.ResetCounts();
    auto reference_engine = MakeEngine(kind, &rules, &db).value();
    ASSERT_TRUE(reference_engine->Init().ok()) << kind;
    registry.ResetCounts();  // Discover query-time sites only.
    std::vector<std::string> reference =
        RunAll(reference_engine.get(), queries);
    for (const std::string& r : reference) {
      ASSERT_EQ(r.find("error"), std::string::npos)
          << kind << " reference run failed: " << r;
    }
    std::vector<std::pair<std::string, int64_t>> sites = registry.HitSites();
    ASSERT_FALSE(sites.empty()) << kind << " crossed no failpoint sites";
    auto reached = [&sites](const char* site) {
      return std::any_of(sites.begin(), sites.end(),
                         [site](const auto& s) { return s.first == site; });
    };
    if (std::string(kind) == "tabled") {
      // Open queries and negations with free variables run as tabled
      // calls; an abort while a call table is open must be swept too.
      EXPECT_TRUE(reached("tabled.call_table"))
          << "the sweep never reached a call table";
    }
    if (std::string(kind) == "stratified") {
      // Every Δ model is built by an abortable fixpoint; the open Σ
      // query of the hypothetical-rule program runs as a tabled call.
      EXPECT_TRUE(reached("stratified.delta_model"))
          << "the sweep never built a Δ model";
      if (!expect_derived_children) {
        EXPECT_TRUE(reached("tabled.call_table"))
            << "the sweep never reached a Σ call table";
      }
    }
    if (expect_derived_children && std::string(kind) == "bottomup") {
      // An abort mid-derivation must leave the child dirty, never served
      // half-derived.
      EXPECT_TRUE(reached("bottomup.derive_child"))
          << kind << ": the sweep never derived a child state";
    }

    for (const auto& [site, count] : sites) {
      for (int64_t nth : std::set<int64_t>{1, count / 2 + 1, count}) {
        auto engine = MakeEngine(kind, &rules, &db).value();
        ASSERT_TRUE(engine->Init().ok()) << kind;
        registry.Arm(site, nth,
                     Status::ResourceExhausted("injected fault at " + site));
        std::vector<std::string> faulted = RunAll(engine.get(), queries);
        registry.DisarmAll();
        // The fault may surface in whichever query crosses the site nth;
        // every other query must be byte-identical to the reference —
        // a changed *answer* means the abort corrupted state.
        for (size_t i = 0; i < queries.size(); ++i) {
          if (faulted[i] == reference[i]) continue;
          EXPECT_NE(faulted[i].find("injected fault"), std::string::npos)
              << kind << " site=" << site << " nth=" << nth << " query#" << i
              << ": wrong answer instead of the injected error: "
              << faulted[i];
        }
        // Same instance, faults cleared: full recovery to the reference.
        std::vector<std::string> recovered = RunAll(engine.get(), queries);
        EXPECT_EQ(recovered, reference)
            << kind << " site=" << site << " nth=" << nth
            << ": answers diverged after recovering from an injected abort";
      }
    }
  }
  registry.DisarmAll();
  registry.ResetCounts();
}

#endif  // HYPO_FAILPOINTS

}  // namespace
}  // namespace hypo
