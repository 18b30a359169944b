// Tests for the unified resource-governance layer (QueryGuard): wall-
// clock deadlines, approximate memory budgets, and cooperative
// cancellation, across all three engines. The invariants under test:
//
//   * a trip returns the matching typed status (kDeadlineExceeded /
//     kResourceExhausted / kCancelled) with the uniform limit message
//     (limit name, configured value, observed value) — never a wrong
//     answer;
//   * a tripped engine answers fresh queries correctly once the limit is
//     relaxed (mutable_options) or the token reset — no dirty model or
//     stale memo entry is ever served;
//   * the guard counters (guard_checks, deadline headroom, byte peak,
//     cancellations) come back meaningful on every engine.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/bottom_up.h"
#include "parser/parser.h"

namespace hypo {
namespace {

const char* const kConfigs[] = {"tabled", "stratified", "bottomup"};

class GovernanceTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase ParseRules(const char* text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  /// edge(n0, n1), ..., edge(n<n-2>, n<n-1>).
  void BuildChain(Database* db, int n) {
    for (int i = 0; i + 1 < n; ++i) {
      ASSERT_TRUE(db->Insert("edge", {"n" + std::to_string(i),
                                      "n" + std::to_string(i + 1)})
                      .ok());
    }
  }

  RuleBase ReachRules() {
    return ParseRules(
        "reach(X, Y) <- edge(X, Y).\n"
        "reach(X, Z) <- edge(X, Y), reach(Y, Z).");
  }
};

// An already-expired deadline trips the first guard check inside the
// fixpoint / proof search; the status is typed, the message uniform, and
// the same warm instance answers correctly once the deadline is lifted.
TEST_F(GovernanceTest, DeadlineTripsMidFixpointAndInstanceRecovers) {
  RuleBase rules = ReachRules();
  Database db(symbols_);
  BuildChain(&db, 400);
  auto goal = ParseFact("reach(n0, n399)", symbols_.get());
  ASSERT_TRUE(goal.ok());

  for (const char* kind : kConfigs) {
    EngineOptions options;
    options.timeout_micros = 1;
    auto engine = MakeEngine(kind, &rules, &db, options).value();

    auto tripped = engine->ProveFact(*goal);
    ASSERT_FALSE(tripped.ok()) << kind << " ignored an expired deadline";
    EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded)
        << kind << ": " << tripped.status();
    EXPECT_NE(tripped.status().message().find(
                  "timeout_micros exceeded: configured 1, observed"),
              std::string::npos)
        << kind << ": " << tripped.status();
    const EngineStats& stats = engine->stats();
    EXPECT_GT(stats.guard_checks, 0) << kind;
    EXPECT_LT(stats.deadline_micros_remaining, 0)
        << kind << ": headroom at completion should be negative on a trip";

    // Same instance, deadline lifted: the answer must match a fresh run.
    engine->mutable_options()->timeout_micros = 0;
    engine->ResetStats();
    auto answer = engine->ProveFact(*goal);
    ASSERT_TRUE(answer.ok()) << kind << ": " << answer.status();
    EXPECT_TRUE(*answer) << kind << " lost a provable fact after a trip";
  }
}

// The deadline also governs hypothetical child-state materialization: the
// top state is pre-warmed without limits, so the expensive work the
// expired deadline meets is the *child* model (or context subproof)
// triggered by the query's [add: ...] premise.
TEST_F(GovernanceTest, DeadlineTripsMidHypotheticalMaterialization) {
  RuleBase rules = ReachRules();
  Database db(symbols_);
  BuildChain(&db, 300);
  auto warm = ParseFact("reach(n0, n299)", symbols_.get());
  // The added edge closes the chain into a cycle: the child state's
  // closure is a fresh quadratic fixpoint, far past any microsecond.
  auto hypo = ParseQuery("reach(n299, n5)[add: edge(n299, n0)]",
                         symbols_.get());
  ASSERT_TRUE(warm.ok() && hypo.ok());

  for (const char* kind : kConfigs) {
    auto engine = MakeEngine(kind, &rules, &db, EngineOptions()).value();
    auto warmed = engine->ProveFact(*warm);
    ASSERT_TRUE(warmed.ok()) << kind << ": " << warmed.status();
    ASSERT_TRUE(*warmed) << kind;

    engine->mutable_options()->timeout_micros = 1;
    auto tripped = engine->ProveQuery(*hypo);
    ASSERT_FALSE(tripped.ok())
        << kind << " ignored the deadline inside a hypothetical state";
    EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded)
        << kind << ": " << tripped.status();

    // The aborted child must not poison the instance: lift the deadline
    // and demand the same hypothetical answer.
    engine->mutable_options()->timeout_micros = 0;
    engine->ResetStats();
    auto answer = engine->ProveQuery(*hypo);
    ASSERT_TRUE(answer.ok()) << kind << ": " << answer.status();
    EXPECT_TRUE(*answer)
        << kind << " served a dirty hypothetical model after a trip";
  }
}

// A tiny memory budget trips kResourceExhausted with the byte counters in
// the message, records the observed peak, and the instance answers
// correctly after the budget is lifted.
TEST_F(GovernanceTest, MemoryBudgetTripsAndInstanceRecovers) {
  RuleBase rules = ReachRules();
  Database db(symbols_);
  BuildChain(&db, 400);
  auto goal = ParseFact("reach(n0, n399)", symbols_.get());
  ASSERT_TRUE(goal.ok());

  for (const char* kind : kConfigs) {
    EngineOptions options;
    options.max_memory_bytes = 1024;
    auto engine = MakeEngine(kind, &rules, &db, options).value();

    auto tripped = engine->ProveFact(*goal);
    ASSERT_FALSE(tripped.ok()) << kind << " ignored a 1KiB memory budget";
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
        << kind << ": " << tripped.status();
    EXPECT_NE(tripped.status().message().find(
                  "max_memory_bytes exceeded: configured 1024, observed"),
              std::string::npos)
        << kind << ": " << tripped.status();
    EXPECT_GT(engine->stats().budget_bytes_peak, 1024) << kind;

    engine->mutable_options()->max_memory_bytes = 0;
    engine->ResetStats();
    auto answer = engine->ProveFact(*goal);
    ASSERT_TRUE(answer.ok()) << kind << ": " << answer.status();
    EXPECT_TRUE(*answer) << kind << " lost a provable fact after a memory trip";
  }
}

// A pre-cancelled token aborts the query with kCancelled and bumps the
// cancellation counter; after Reset() the same instance answers exactly
// like a fresh engine.
TEST_F(GovernanceTest, PreCancelledTokenAbortsAndResetRecovers) {
  RuleBase rules = ReachRules();
  Database db(symbols_);
  BuildChain(&db, 400);
  auto goal = ParseFact("reach(n0, n399)", symbols_.get());
  auto open = ParseQuery("reach(n0, X)", symbols_.get());
  ASSERT_TRUE(goal.ok() && open.ok());

  for (const char* kind : kConfigs) {
    EngineOptions options;
    options.cancel = std::make_shared<CancellationToken>();
    options.cancel->Cancel();
    auto engine = MakeEngine(kind, &rules, &db, options).value();

    auto tripped = engine->ProveFact(*goal);
    ASSERT_FALSE(tripped.ok()) << kind << " ignored a cancelled token";
    EXPECT_EQ(tripped.status().code(), StatusCode::kCancelled)
        << kind << ": " << tripped.status();
    EXPECT_EQ(engine->stats().cancellations, 1) << kind;

    options.cancel->Reset();
    engine->ResetStats();
    auto answer = engine->ProveFact(*goal);
    ASSERT_TRUE(answer.ok()) << kind << ": " << answer.status();
    EXPECT_TRUE(*answer) << kind << " lost a provable fact after a cancel";

    // Every engine can also be asked for the full answer set (the tabled
    // engine resolves reach(n0, X) as one call per reachable node).
    auto answers = engine->Answers(*open);
    ASSERT_TRUE(answers.ok()) << kind << ": " << answers.status();
    std::sort(answers->begin(), answers->end());
    auto fresh = MakeEngine(kind, &rules, &db, EngineOptions()).value();
    auto reference = fresh->Answers(*open);
    ASSERT_TRUE(reference.ok()) << reference.status();
    std::sort(reference->begin(), reference->end());
    EXPECT_EQ(*answers, *reference)
        << kind << ": post-cancel answers diverged from a fresh engine";
  }
}

// Cancellation arriving asynchronously mid-evaluation (the SIGINT path)
// aborts cooperatively. The chain grows until the cancel lands before
// the query completes, so the test cannot flake on a fast machine.
TEST_F(GovernanceTest, AsyncCancelAbortsInFlightQuery) {
  RuleBase rules = ReachRules();
  for (const char* kind : kConfigs) {
    bool observed_cancel = false;
    for (int n : {300, 600, 1200, 2400, 4800}) {
      Database db(symbols_);
      BuildChain(&db, n);
      auto open = ParseQuery("reach(X, Y)", symbols_.get());
      ASSERT_TRUE(open.ok());
      EngineOptions options;
      auto token = std::make_shared<CancellationToken>();
      options.cancel = token;
      auto engine = MakeEngine(kind, &rules, &db, options).value();

      std::thread canceller([token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        token->Cancel();
      });
      auto result = engine->Answers(*open);
      canceller.join();
      if (result.ok()) continue;  // Finished first; grow the chain.

      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << kind << ": " << result.status();
      observed_cancel = true;

      // The same instance keeps working after a reset.
      token->Reset();
      auto probe = ParseFact("reach(n0, n1)", symbols_.get());
      ASSERT_TRUE(probe.ok());
      auto again = engine->ProveFact(*probe);
      ASSERT_TRUE(again.ok()) << kind << ": " << again.status();
      EXPECT_TRUE(*again) << kind;
      break;
    }
    EXPECT_TRUE(observed_cancel)
        << kind << ": every chain size outran the 2ms cancel";
  }
}

// With generous limits armed, governance never trips, answers are
// unchanged, and the guard counters come back meaningful (checks made,
// positive headroom, a byte peak, no cancellation).
TEST_F(GovernanceTest, ArmedGuardCountersReportUntrippedQueries) {
  RuleBase rules = ReachRules();
  Database db(symbols_);
  BuildChain(&db, 300);
  auto goal = ParseFact("reach(n0, n299)", symbols_.get());
  auto open = ParseQuery("reach(n0, X)", symbols_.get());
  ASSERT_TRUE(goal.ok() && open.ok());

  std::vector<Tuple> reference;
  for (const char* kind : kConfigs) {
    EngineOptions options;
    options.timeout_micros = 60'000'000;
    options.max_memory_bytes = 1LL << 40;
    options.cancel = std::make_shared<CancellationToken>();
    auto engine = MakeEngine(kind, &rules, &db, options).value();

    auto proved = engine->ProveFact(*goal);
    ASSERT_TRUE(proved.ok()) << kind << ": " << proved.status();
    EXPECT_TRUE(*proved) << kind << " lost a provable fact under guards";
    auto answers = engine->Answers(*open);
    ASSERT_TRUE(answers.ok()) << kind << ": " << answers.status();
    std::sort(answers->begin(), answers->end());  // Engines order freely.
    if (reference.empty()) {
      reference = *answers;
    } else {
      EXPECT_EQ(*answers, reference) << kind << " diverged under guards";
    }
    const EngineStats& stats = engine->stats();
    EXPECT_GT(stats.guard_checks, 0) << kind;
    EXPECT_GT(stats.deadline_micros_remaining, 0)
        << kind << ": headroom should be positive on completion";
    EXPECT_GT(stats.budget_bytes_peak, 0) << kind;
    EXPECT_EQ(stats.cancellations, 0) << kind;
  }
}

// The memory budget meters tracked_bytes_, so the counter must stay
// EXACTLY in sync with the materialized states across every
// ApplyBaseDelta commit path — incremental insert, DRed retract, the
// negation-forced recompute, and repairs with hypothetical child states
// resident. Drift would make budget trips fire early or, worse, late.
TEST_F(GovernanceTest, TrackedBytesStayExactAcrossBaseDeltaRepairs) {
  RuleBase rules = ParseRules(
      "reach(X, Y) <- edge(X, Y).\n"
      "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n"
      "blocked(X, Y) <- node(X), node(Y), ~reach(X, Y).\n");
  Database db(symbols_);
  BuildChain(&db, 8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.Insert("node", {"n" + std::to_string(i)}).ok());
  }

  BottomUpEngine engine(&rules, &db);
  // Materialize the base model plus a hypothetical child state, so the
  // repair has both flavors of resident state to reconcile.
  auto base_q = ParseQuery("blocked(n7, n0)", symbols_.get());
  auto hypo_q = ParseQuery("reach(n5, n9)[add: edge(n7, n9)]",
                           symbols_.get());
  // A child derived from the base model whose hidden set is not empty:
  // the new edge unblocks pairs.
  auto hiding_q = ParseQuery("blocked(n7, n0)[add: edge(n7, n0)]",
                             symbols_.get());
  ASSERT_TRUE(base_q.ok() && hypo_q.ok() && hiding_q.ok());
  ASSERT_TRUE(engine.ProveQuery(*base_q).ok());
  ASSERT_TRUE(engine.ProveQuery(*hypo_q).ok());
  ASSERT_TRUE(engine.ProveQuery(*hiding_q).ok());
  // (No exactness claim here: during live fixpoints the counter runs on
  // cheap per-fact estimates. The repair commit below must re-anchor it
  // to the truth.)

  struct Step {
    const char* fact;
    bool insert;
  };
  // Insert-only (incremental), retract (DRed delete-and-rederive), and
  // a retract that flips negation-derived facts (stratum recompute).
  const Step steps[] = {{"edge(n3, n5)", true},
                        {"edge(n3, n5)", false},
                        {"edge(n0, n1)", false},
                        {"edge(n0, n1)", true}};
  for (const Step& step : steps) {
    auto fact = ParseFact(step.fact, symbols_.get());
    ASSERT_TRUE(fact.ok());
    BaseDelta delta;
    if (step.insert) {
      ASSERT_TRUE(db.Insert(*fact));
      delta.inserts.push_back(*fact);
    } else {
      ASSERT_TRUE(db.Retract(*fact));
      delta.retracts.push_back(*fact);
    }
    ASSERT_TRUE(engine.ApplyBaseDelta(delta).ok()) << step.fact;
    EXPECT_EQ(engine.TrackedBytesForTest(), engine.ExactTrackedBytesForTest())
        << "drift after " << (step.insert ? "insert " : "retract ")
        << step.fact;
    // The repaired instance still answers; accounting stayed live.
    ASSERT_TRUE(engine.ProveQuery(*base_q).ok());
    EXPECT_EQ(engine.TrackedBytesForTest(), engine.ExactTrackedBytesForTest())
        << "drift after post-repair query";
    // Children derived from the repaired model charge their exact
    // growth, hidden sets included, and stay alive into the next
    // repair.
    ASSERT_TRUE(engine.ProveQuery(*hypo_q).ok());
    ASSERT_TRUE(engine.ProveQuery(*hiding_q).ok());
    EXPECT_EQ(engine.TrackedBytesForTest(), engine.ExactTrackedBytesForTest())
        << "drift after derived what-ifs";
  }
  EXPECT_GT(engine.stats().states_derived, 0);
}

}  // namespace
}  // namespace hypo
