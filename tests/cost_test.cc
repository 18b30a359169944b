// Cost is part of correctness: on the graph families where top-down
// search used to fall off an exponential cliff (chains, cycles, shortcut
// DAGs, complete digraphs with an unreachable target, both recursion
// directions) and on the registrar shape the server benchmark replays,
// the tabled engine must agree with the bottom-up engine
// AND answer every query within a step budget polynomial in |DB|.
//
// The stratified prover must agree too, within twice the steps of a
// fresh bottom-up engine: these are all Δ_1 programs, whose whole model
// both engines build by the same semi-naive rounds. On programs with Σ
// recursion (minimized from random-program findings) it must stay within
// 100x the tabled engine's steps: its Σ goals are the tabled prover's.
//
// Steps are goals_expanded + enumerations — exactly what max_steps
// meters. The budget is kStepsPerFact * |DB| with |DB| the number of
// stored facts: a linear bound, fixed from the measured counts (printed
// below) with headroom, far below the quadratic-and-worse cost of
// grounding a defined premise over the domain.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"

namespace hypo {
namespace {

/// Steps per stored fact a single tabled query may spend. The largest
/// measured ratio is 3.0: an open query on a cycle, whose SCC leader runs
/// three passes over the cycle's n calls (the last one confirming that no
/// table grew). See EXPERIMENTS.md E10.
constexpr int64_t kStepsPerFact = 4;

const char* const kRightReach =
    "reach(X, Y) <- edge(X, Y).\n"
    "reach(X, Z) <- edge(X, Y), reach(Y, Z).";
const char* const kLeftReach =
    "reach(X, Y) <- edge(X, Y).\n"
    "reach(X, Z) <- reach(X, Y), edge(Y, Z).";

std::string N(int i) { return "n" + std::to_string(i); }

struct Family {
  std::string name;
  /// Edges over nodes n0..n<nodes-1>; every family also stores
  /// edge(t, n0), so `t` is in the domain yet unreachable.
  int nodes;
  std::vector<std::pair<int, int>> edges;
};

Family Chain(int n) {
  Family f{"chain" + std::to_string(n), n + 1, {}};
  for (int i = 0; i < n; ++i) f.edges.emplace_back(i, i + 1);
  return f;
}

Family Cycle(int n) {
  Family f{"cycle" + std::to_string(n), n, {}};
  for (int i = 0; i < n; ++i) f.edges.emplace_back(i, (i + 1) % n);
  return f;
}

/// A chain plus a shortcut i -> i+3 at every third node: many paths per
/// pair, so a search without tabling re-proves shared suffixes.
Family ShortcutDag(int n) {
  Family f{"shortcut" + std::to_string(n), n + 1, {}};
  for (int i = 0; i < n; ++i) {
    f.edges.emplace_back(i, i + 1);
    if (i % 3 == 0 && i + 3 <= n) f.edges.emplace_back(i, i + 3);
  }
  return f;
}

Family Complete(int n) {
  Family f{"K" + std::to_string(n), n, {}};
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) f.edges.emplace_back(i, j);
    }
  }
  return f;
}

class CostTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase Parse(const char* text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  Query Q(const std::string& text) {
    auto query = ParseQuery(text, symbols_.get());
    EXPECT_TRUE(query.ok()) << text << ": " << query.status();
    return std::move(query).value();
  }

  /// Sorted answers (a closed query answers {()} or {}), plus the steps
  /// the engine spent on this query alone.
  StatusOr<std::vector<Tuple>> Run(Engine* engine, const Query& query,
                                   int64_t* steps) {
    engine->ResetStats();
    std::vector<Tuple> rows;
    if (query.num_vars() == 0) {
      HYPO_ASSIGN_OR_RETURN(bool holds, engine->ProveQuery(query));
      if (holds) rows.emplace_back();
    } else {
      HYPO_ASSIGN_OR_RETURN(rows, engine->Answers(query));
    }
    std::sort(rows.begin(), rows.end());
    *steps = engine->stats().goals_expanded + engine->stats().enumerations;
    return rows;
  }

  /// Runs every query on a fresh tabled engine and on the bottom-up
  /// engine; answers must agree and each tabled query must stay within
  /// the budget. With `gate_stratified`, also on a fresh stratified
  /// prover, which must agree within 2x the bottom-up steps.
  void Check(const std::string& label, const RuleBase& rules,
             const Database& db, const std::vector<std::string>& queries,
             bool gate_stratified = true) {
    const int64_t budget = kStepsPerFact * db.size();
    EngineOptions options;
    // A runaway search trips at once instead of burning the default 500M
    // steps; the assertion below is the real gate.
    options.max_steps = 10 * budget;
    for (const std::string& text : queries) {
      SCOPED_TRACE(label + ": " + text);
      Query query = Q(text);
      EngineOptions bottom_up_options;
      BottomUpEngine bottom_up(&rules, &db, bottom_up_options);
      int64_t bottom_up_steps = 0;
      auto expected = Run(&bottom_up, query, &bottom_up_steps);
      ASSERT_TRUE(expected.ok()) << expected.status();
      TabledEngine tabled(&rules, &db, options);
      int64_t tabled_steps = 0;
      auto got = Run(&tabled, query, &tabled_steps);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, *expected) << "tabled disagrees with bottom-up";
      EXPECT_LE(tabled_steps, budget)
          << "tabled steps not within " << kStepsPerFact << " x |DB|";
      int64_t stratified_steps = 0;
      if (gate_stratified) {
        EngineOptions stratified_options;
        stratified_options.max_steps = 10 * bottom_up_steps;
        StratifiedProver stratified(&rules, &db, stratified_options);
        auto proved = Run(&stratified, query, &stratified_steps);
        ASSERT_TRUE(proved.ok()) << proved.status();
        EXPECT_EQ(*proved, *expected)
            << "stratified disagrees with bottom-up";
        EXPECT_LE(stratified_steps, 2 * bottom_up_steps)
            << "stratified steps not within 2 x bottom-up's";
      }
      std::printf("[cost] %-18s |DB|=%-6lld %-36s tabled=%-6lld "
                  "(%.2f/fact) bottomup=%lld stratified=%s answers=%zu\n",
                  label.c_str(), static_cast<long long>(db.size()),
                  text.c_str(), static_cast<long long>(tabled_steps),
                  static_cast<double>(tabled_steps) /
                      static_cast<double>(db.size()),
                  static_cast<long long>(bottom_up_steps),
                  gate_stratified ? std::to_string(stratified_steps).c_str()
                                  : "-",
                  expected->size());
    }
  }

  void CheckFamily(const char* program, const char* direction,
                   const Family& family, bool gate_stratified) {
    RuleBase rules = Parse(program);
    Database db(symbols_);
    for (const auto& [from, to] : family.edges) {
      ASSERT_TRUE(db.Insert("edge", {N(from), N(to)}).ok());
    }
    ASSERT_TRUE(db.Insert("edge", {"t", N(0)}).ok());
    const int last = family.nodes - 1;
    const int mid = family.nodes / 2;
    Check(family.name + "/" + direction, rules, db,
          {"reach(n0, X)", "reach(n3, X)", "reach(X, " + N(mid) + ")",
           "reach(n0, " + N(last) + ")", "reach(" + N(last) + ", n0)",
           "reach(n0, t)", "reach(X, t)"},
          gate_stratified);
  }
};

TEST_F(CostTest, ReachOverChainsCyclesAndShortcutDags) {
  for (const char* program : {kRightReach, kLeftReach}) {
    const char* direction = program == kRightReach ? "right" : "left";
    for (int n : {20, 60, 500}) {
      // The stratified prover builds the whole closure per query, as
      // bottom-up does; at n = 500 that would take the test past 10 s.
      // n = 20 and 60 catch a super-quadratic fixpoint: a cubic one reads
      // about 10x bottom-up's steps on cycle20 already.
      const bool gate_stratified = n < 500;
      CheckFamily(program, direction, Chain(n), gate_stratified);
      CheckFamily(program, direction, Cycle(n), gate_stratified);
      CheckFamily(program, direction, ShortcutDag(n), gate_stratified);
    }
  }
}

// The query that used to burn the default 500M-step budget in ~37 s:
// path(n3, X) over a 50-edge chain.
TEST_F(CostTest, ChainPathFromTheRoadmap) {
  RuleBase rules = Parse(
      "path(X, Y) <- edge(X, Y).\n"
      "path(X, Z) <- edge(X, Y), path(Y, Z).");
  Database db(symbols_);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Insert("edge", {N(i), N(i + 1)}).ok());
  }
  Check("chain50/path", rules, db, {"path(n3, X)"});
}

TEST_F(CostTest, CompleteDigraphWithUnreachableTarget) {
  for (const char* program : {kRightReach, kLeftReach}) {
    const char* direction = program == kRightReach ? "right" : "left";
    for (int n = 6; n <= 16; ++n) {
      RuleBase rules = Parse(program);
      Database db(symbols_);
      Family family = Complete(n);
      for (const auto& [from, to] : family.edges) {
        ASSERT_TRUE(db.Insert("edge", {N(from), N(to)}).ok());
      }
      ASSERT_TRUE(db.Insert("edge", {"t", N(0)}).ok());
      Check(family.name + "/" + direction, rules, db,
            {"reach(n0, t)", "reach(X, t)", "reach(n0, X)",
             "reach(" + N(n - 1) + ", n0)"});
    }
  }
}

// A bound query over k disjoint 64-node chains reaches one chain. The
// server's default engine answers it goal-directed, so its cost must not
// grow with the chains the query never touches: the bottom-up engine
// computes whole models only and leaves such queries to it (DESIGN.md
// §5). In the bridge forest chain 0 lacks the edge c0_32 -> c0_33, and
// the what-if adds it back.
TEST_F(CostTest, BoundQueryIgnoresUnrelatedChains) {
  RuleBase rules = Parse(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).");
  const int kLen = 64;
  auto node = [](int chain, int j) {
    return "c" + std::to_string(chain) + "_" + std::to_string(j);
  };
  const std::string closure =
      "t(" + node(0, 0) + ", " + node(0, kLen - 1) + ")";
  const std::string bridge = closure + "[add: edge(" + node(0, kLen / 2) +
                             ", " + node(0, kLen / 2 + 1) + ")]";
  struct Probe {
    const char* name;
    int gap;  // Chain 0 lacks the edge leaving node `gap`; -1 for none.
    std::string query;
  };
  for (const Probe& probe : {Probe{"closure", -1, closure},
                             Probe{"bridge", kLen / 2, bridge}}) {
    int64_t k4_steps = -1;
    for (int k : {4, 16, 64}) {
      SCOPED_TRACE(std::string(probe.name) + " k=" + std::to_string(k));
      Database db(symbols_);
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j + 1 < kLen; ++j) {
          if (i == 0 && j == probe.gap) continue;
          ASSERT_TRUE(db.Insert("edge", {node(i, j), node(i, j + 1)}).ok());
        }
      }
      EngineOptions options;
      options.max_steps = 100'000;
      TabledEngine tabled(&rules, &db, options);
      int64_t steps = 0;
      auto got = Run(&tabled, Q(probe.query), &steps);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->size(), 1u) << "the query holds";
      if (k4_steps < 0) k4_steps = steps;
      EXPECT_EQ(steps, k4_steps) << "steps grew with unrelated chains";
      std::printf("[cost] %-18s |DB|=%-6lld %-36s tabled=%lld\n",
                  ("forest/" + std::string(probe.name)).c_str(),
                  static_cast<long long>(db.size()), probe.query.c_str(),
                  static_cast<long long>(steps));
    }
  }
}

// Programs with Σ recursion, minimized from random programs (5
// constants, 10 rules, hypothetical probability 0.35, every defined
// predicate queried open, max_steps 2M) on which a depth-first Σ search
// that forgets failures pruned against a shallower goal trips the budget
// (seed34, seed232) or spends over 500x the tabled engine's steps
// (seed29). The stratified prover must agree with the tabled engine
// within 100x its steps (ROADMAP item 2's criterion).
TEST_F(CostTest, SigmaRecursionFromRandomPrograms) {
  struct Program {
    const char* name;
    const char* text;
  };
  const Program programs[] = {
      {"seed29",
       "p1(V0, V1) <- p1(V2, c3).\n"
       "p1(c3, V2) <- p1(c3, V1)[add: e2], e0(V2, V1)[add: e2].\n"
       "e0(c0, c1). e0(c1, c2). e0(c1, c4)."},
      {"seed34",
       "p4(V2, c4) <- e0, p4(V0, V2)[add: e1].\n"
       "p4(V2, V1) <- ~e2(V2, V1), e1[add: e0], p4(V2, V0).\n"
       "e2(c1, c2). e2(c4, c3). e2(c0, c4). e0."},
      {"seed232",
       "p0(V1) <- p0(V0)[add: e2(V2, c0)], ~e2(c3, V1).\n"
       "e0(c2, c3). e0(c1, c4)."},
  };
  for (const Program& program : programs) {
    SCOPED_TRACE(program.name);
    auto symbols = std::make_shared<SymbolTable>();
    auto parsed = ParseProgram(program.text, symbols);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const RuleBase& rules = parsed->rules;
    const Database& db = parsed->facts;
    EngineOptions options;
    options.max_steps = 2'000'000;
    int64_t tabled_steps = 0;
    int64_t stratified_steps = 0;
    for (PredicateId pred = 0; pred < symbols->num_predicates(); ++pred) {
      if (!rules.IsDefined(pred)) continue;
      std::string text = symbols->PredicateName(pred);
      for (int i = 0; i < symbols->PredicateArity(pred); ++i) {
        text += (i == 0 ? "(X" : ", X") + std::to_string(i);
      }
      if (symbols->PredicateArity(pred) > 0) text += ")";
      SCOPED_TRACE(text);
      auto query = ParseQuery(text, symbols.get());
      ASSERT_TRUE(query.ok()) << query.status();
      TabledEngine tabled(&rules, &db, options);
      int64_t steps = 0;
      auto expected = Run(&tabled, *query, &steps);
      ASSERT_TRUE(expected.ok()) << expected.status();
      tabled_steps += steps;
      StratifiedProver stratified(&rules, &db, options);
      auto got = Run(&stratified, *query, &steps);
      ASSERT_TRUE(got.ok()) << got.status();
      stratified_steps += steps;
      EXPECT_EQ(*got, *expected) << "stratified disagrees with tabled";
    }
    EXPECT_LE(stratified_steps, 100 * std::max<int64_t>(1, tabled_steps))
        << "stratified steps not within 100 x tabled's";
    std::printf("[cost] %-18s tabled=%lld stratified=%lld\n",
                ("sigma/" + std::string(program.name)).c_str(),
                static_cast<long long>(tabled_steps),
                static_cast<long long>(stratified_steps));
  }
}

// The registrar shape of the server benchmark (Bonner's Examples 1-3):
// transitive prerequisites, per-student gaps under negation, and course
// availability with a second negation on top, 1000 students.
TEST_F(CostTest, RegistrarShape) {
  RuleBase rules = Parse(
      "needs(C, X) <- prereq(C, X).\n"
      "needs(C, X) <- prereq(C, Y), needs(Y, X).\n"
      "missing(S, C) <- student(S), needs(C, P), ~take(S, P).\n"
      "open(S, C) <- student(S), course(C), ~missing(S, C), ~take(S, C).");
  Database db(symbols_);
  const int kCourses = 64;
  const int kStudents = 1000;
  auto C = [](int c) { return "c" + std::to_string(c); };
  auto S = [](int s) { return "s" + std::to_string(s); };
  // Four levels of 16 courses; each course above the first level has two
  // prerequisites one level down.
  for (int c = 0; c < kCourses; ++c) {
    ASSERT_TRUE(db.Insert("course", {C(c)}).ok());
    if (c < 16) continue;
    const int below = (c / 16 - 1) * 16;
    ASSERT_TRUE(db.Insert("prereq", {C(c), C(below + c % 16)}).ok());
    ASSERT_TRUE(
        db.Insert("prereq", {C(c), C(below + (c * 7 + 3) % 16)}).ok());
  }
  // Each student has taken eight courses, spread over the levels.
  for (int s = 0; s < kStudents; ++s) {
    ASSERT_TRUE(db.Insert("student", {S(s)}).ok());
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(
          db.Insert("take", {S(s), C((s * 13 + k * 7) % kCourses)}).ok());
    }
  }
  const std::vector<std::string> whatifs = {
      "open(s7, c40)[add: take(s7, c24)]",
      "missing(s9, c60)[add: take(s9, c3)]"};
  Check("registrar", rules, db,
        {"needs(c60, X)", "needs(X, c3)", "missing(s5, C)",
         "missing(S, c60)", "open(s5, c40)", "open(s5, C)", whatifs[0],
         whatifs[1]});

  // Bottom-up deltas on a warm engine: a what-if derives its child from
  // the base model, and a commit repairs that model, both in work sized
  // by the change. Budgets are fractions of the from-scratch model.
  BottomUpEngine warm(&rules, &db);
  int64_t scratch = 0;
  ASSERT_TRUE(Run(&warm, Q("open(s5, c40)"), &scratch).ok());
  auto check_whatifs = [&](const std::string& when) {
    for (const std::string& text : whatifs) {
      SCOPED_TRACE(when + ": " + text);
      int64_t steps = 0;
      auto got = Run(&warm, Q(text), &steps);
      ASSERT_TRUE(got.ok()) << got.status();
      BottomUpEngine fresh(&rules, &db);
      int64_t fresh_steps = 0;
      auto expected = Run(&fresh, Q(text), &fresh_steps);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(*got, *expected) << "derived child disagrees with scratch";
      // missing(s9, ...)'s addition is stored already: no child at all.
      EXPECT_EQ(warm.stats().states_derived, warm.stats().states_evaluated);
      EXPECT_LE(100 * steps, scratch) << "what-if not within 1/100";
      std::printf("[cost] %-18s %-9s %-36s bottomup=%lld scratch=%lld\n",
                  "registrar/delta", when.c_str(), text.c_str(),
                  static_cast<long long>(steps),
                  static_cast<long long>(scratch));
    }
  };
  check_whatifs("warm");
  auto fact = [&](const std::string& text) {
    auto f = ParseFact(text, symbols_.get());
    EXPECT_TRUE(f.ok()) << text << ": " << f.status();
    return *f;
  };
  struct Commit {
    const char* name;
    std::vector<std::string> inserts, retracts;
    int64_t divisor;  // Steps budget: scratch / divisor.
  };
  // A prerequisite swap re-derives needs for every course above c40, so
  // it gets half the scratch budget; an enrolment or a drop gets 1/100.
  const Commit commits[] = {
      {"enrol", {"take(s11, c60)"}, {}, 100},
      {"drop", {}, {"take(s12, c28)"}, 100},
      {"prereq-swap", {"prereq(c40, c20)"}, {"prereq(c40, c24)"}, 2}};
  for (const Commit& commit : commits) {
    SCOPED_TRACE(commit.name);
    BaseDelta delta;
    for (const std::string& text : commit.inserts) {
      delta.inserts.push_back(fact(text));
      ASSERT_TRUE(db.Insert(delta.inserts.back()));
    }
    for (const std::string& text : commit.retracts) {
      delta.retracts.push_back(fact(text));
      ASSERT_TRUE(db.Retract(delta.retracts.back()));
    }
    warm.ResetStats();
    ASSERT_TRUE(warm.ApplyBaseDelta(delta).ok());
    const EngineStats& repair = warm.stats();
    const int64_t steps = repair.goals_expanded + repair.enumerations;
    EXPECT_EQ(repair.strata_recomputed, 0);
    EXPECT_LE(commit.divisor * steps, scratch)
        << "commit not within 1/" << commit.divisor;
    std::printf("[cost] %-18s %-9s %-36s bottomup=%lld scratch=%lld\n",
                "registrar/delta", "commit", commit.name,
                static_cast<long long>(steps),
                static_cast<long long>(scratch));
    check_whatifs(commit.name);
  }
}

}  // namespace
}  // namespace hypo
