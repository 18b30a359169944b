// Regression tests for error recovery after a resource-limit abort.
//
// Historically an abort (kResourceExhausted mid-proof) could poison an
// engine's memo tables: the top-down engines leaked `kInProgress` goal
// entries that later queries pruned on (silently returning false for
// provable facts), and the bottom-up engine served a half-computed
// state model from its memo. After an abort the engine must either
// answer correctly or fail loudly again — never return a wrong answer.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"

namespace hypo {
namespace {

class AbortRecoveryTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase Parse(const char* text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  /// Retries `fact` on `engine` (resetting the saturated counters after
  /// each abort) until the engine produces an answer, and returns it.
  /// The memoized failures accumulated by each attempt make the next
  /// attempt strictly cheaper, so this terminates; a stale kInProgress
  /// entry instead short-circuits the retry into a wrong `false`.
  bool RetryUntilAnswered(Engine* engine, const Fact& fact) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto result = engine->ProveFact(fact);
      if (result.ok()) return *result;
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << result.status();
      engine->ResetStats();
    }
    ADD_FAILURE() << engine->name()
                  << " made no progress across retries after aborts";
    return false;
  }
};

// goal(c) is provable through the cheap `easy` rule, but the engine
// first explores the failing `probe` search over 200 g-edges, which
// needs several aborted attempts' worth of memoized failures to
// complete. Each abort leaves goal(c) on the proof stack; if its
// kInProgress memo entry leaks, the very next attempt prunes on the
// stale entry and returns false for a provable fact. (The repeated
// variable in probe(Y, Y, Y) keeps the planner from reordering the
// defined premise ahead of the edge scan.)
TEST_F(AbortRecoveryTest, TabledEngineRecoversAfterAbort) {
  RuleBase rules = Parse(
      "goal(X) <- g(X, Y), probe(Y, Y, Y).\n"
      "goal(X) <- easy(X).\n"
      "probe(A, B, C) <- w1(A), w2(B).");
  Database db(symbols_);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("g", {"c", "l" + std::to_string(i)}).ok());
  }
  ASSERT_TRUE(db.Insert("easy", {"c"}).ok());
  auto goal = ParseFact("goal(c)", symbols_.get());
  ASSERT_TRUE(goal.ok());

  EngineOptions tight;
  tight.max_steps = 60;
  TabledEngine engine(&rules, &db, tight);

  auto first = engine.ProveFact(*goal);
  ASSERT_FALSE(first.ok()) << "the budget should force an abort";
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  engine.ResetStats();
  EXPECT_TRUE(RetryUntilAnswered(&engine, *goal))
      << "a provable fact turned false after an abort (stale memo)";

  EngineOptions roomy;
  TabledEngine fresh(&rules, &db, roomy);
  auto reference = fresh.ProveFact(*goal);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(*reference);
}

// Same shape for the StratifiedProver, with the recursion routed
// through a hypothetical premise so `s` and `goal` land in a Sigma
// partition and are proved by its goal-memoized tabled prover (the Delta
// predicates are computed bottom-up and have no goal memo to poison).
TEST_F(AbortRecoveryTest, StratifiedProverRecoversAfterAbort) {
  RuleBase rules = Parse(
      "goal(X) <- s(X).\n"
      "goal(X) <- easy(X).\n"
      "s(X) <- e(X, Y), s(Y)[add: h(X)].");
  Database db(symbols_);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("e", {"c", "l" + std::to_string(i)}).ok());
  }
  ASSERT_TRUE(db.Insert("easy", {"c"}).ok());
  auto goal = ParseFact("goal(c)", symbols_.get());
  ASSERT_TRUE(goal.ok());

  EngineOptions tight;
  tight.max_steps = 60;
  StratifiedProver engine(&rules, &db, tight);
  ASSERT_TRUE(engine.Init().ok());

  auto first = engine.ProveFact(*goal);
  ASSERT_FALSE(first.ok()) << "the budget should force an abort";
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  engine.ResetStats();
  EXPECT_TRUE(RetryUntilAnswered(&engine, *goal))
      << "a provable fact turned false after an abort (stale memo)";

  EngineOptions roomy;
  StratifiedProver fresh(&rules, &db, roomy);
  ASSERT_TRUE(fresh.Init().ok());
  auto reference = fresh.ProveFact(*goal);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(*reference);
}

// The bottom-up engine memoizes whole state models. An abort mid-model
// used to leave the half-computed model in the memo, and later queries
// read it as complete: easy(a) is derived by a rule the aborted run
// never reached, so the poisoned engine answered `false`. Now the state
// is marked dirty and recomputed (failing loudly again if the budget
// still does not suffice) — it must never answer `false`.
TEST_F(AbortRecoveryTest, BottomUpEngineDoesNotServeAbortedModels) {
  RuleBase rules = Parse(
      "blow(X, Y, Z) <- d(X), d(Y), d(Z).\n"
      "easy(X) <- ebase(X).");
  Database db(symbols_);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Insert("d", {"c" + std::to_string(i)}).ok());
  }
  ASSERT_TRUE(db.Insert("ebase", {"a"}).ok());
  auto easy = ParseFact("easy(a)", symbols_.get());
  ASSERT_TRUE(easy.ok());
  auto scan = ParseQuery("blow(X, Y, Z)", symbols_.get());
  ASSERT_TRUE(scan.ok());

  EngineOptions tight;
  tight.max_steps = 1'000;  // The blow rule alone derives 27'000 facts.
  BottomUpEngine engine(&rules, &db, tight);
  // The budget aborts the model mid-stratum.
  auto first = engine.Answers(*scan);
  ASSERT_FALSE(first.ok()) << "the budget should force an abort";
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  // Every firing is metered: the trip stops the model at the first
  // firing past the budget, far short of the 27'000 it would derive.
  EXPECT_LE(engine.stats().goals_expanded, tight.max_steps + 1);
  engine.ResetStats();
  auto second = engine.ProveFact(*easy);
  if (second.ok()) {
    EXPECT_TRUE(*second) << "an aborted model was served as complete";
  } else {
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  }

  BottomUpEngine fresh(&rules, &db);
  auto reference = fresh.ProveFact(*easy);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(*reference);
}

// A rule whose head variables appear under negation only is evaluated
// by enumerating the domain; those iterations used to be unmetered, so
// max_steps never triggered no matter how large the cross product. The
// enumeration counter must trip the limit and abort cleanly.
TEST_F(AbortRecoveryTest, BottomUpEnumerationIsMetered) {
  RuleBase rules = Parse("pair(X, Y) <- ~q(X, Y).");
  Database db(symbols_);
  // q holds over the full 120x120 grid, so `pair` derives nothing and
  // the rule's work is pure domain enumeration (14'400 iterations).
  for (int i = 0; i < 120; ++i) {
    for (int j = 0; j < 120; ++j) {
      ASSERT_TRUE(
          db.Insert("q", {"c" + std::to_string(i), "c" + std::to_string(j)})
              .ok());
    }
  }
  auto probe = ParseFact("pair(c0, c1)", symbols_.get());
  ASSERT_TRUE(probe.ok());

  EngineOptions tight;
  tight.max_steps = 5'000;
  BottomUpEngine engine(&rules, &db, tight);
  auto result = engine.ProveFact(*probe);
  ASSERT_FALSE(result.ok())
      << "domain enumeration ran unmetered past max_steps";
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(engine.stats().enumerations, tight.max_steps);

  EngineOptions roomy;
  BottomUpEngine fresh(&rules, &db, roomy);
  auto reference = fresh.ProveFact(*probe);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_FALSE(*reference);
  EXPECT_GT(fresh.stats().enumerations, 14'000);
}

// Governance trips (deadline, cancellation) must behave exactly like the
// max_steps aborts above: fail loudly with the typed code, then answer
// correctly on the *same* instance once the limit is relaxed or the
// token reset — never serve a stale or partial result.
TEST_F(AbortRecoveryTest, EnginesRecoverAfterDeadlineAndCancel) {
  RuleBase rules = Parse(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).");
  Database db(symbols_);
  for (int i = 0; i + 1 < 400; ++i) {
    ASSERT_TRUE(db.Insert("edge", {"n" + std::to_string(i),
                                   "n" + std::to_string(i + 1)})
                    .ok());
  }
  auto goal = ParseFact("t(n0, n399)", symbols_.get());
  ASSERT_TRUE(goal.ok());

  auto run = [&](Engine* engine, EngineOptions* options) {
    // An already-expired deadline trips at the very first guard check.
    options->timeout_micros = 1;
    auto tripped = engine->ProveFact(*goal);
    ASSERT_FALSE(tripped.ok()) << engine->name();
    EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded)
        << engine->name() << ": " << tripped.status();

    options->timeout_micros = 0;
    options->cancel = std::make_shared<CancellationToken>();
    options->cancel->Cancel();  // Pre-cancelled.
    auto cancelled = engine->ProveFact(*goal);
    ASSERT_FALSE(cancelled.ok()) << engine->name();
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
        << engine->name() << ": " << cancelled.status();

    options->cancel->Reset();
    engine->ResetStats();
    auto answer = engine->ProveFact(*goal);
    ASSERT_TRUE(answer.ok()) << engine->name() << ": " << answer.status();
    EXPECT_TRUE(*answer) << engine->name()
                         << " lost a provable fact after governance trips";
  };

  {
    TabledEngine engine(&rules, &db);
    run(&engine, engine.mutable_options());
  }
  {
    StratifiedProver engine(&rules, &db);
    ASSERT_TRUE(engine.Init().ok());
    run(&engine, engine.mutable_options());
  }
  {
    BottomUpEngine engine(&rules, &db);
    run(&engine, engine.mutable_options());
  }
}

}  // namespace
}  // namespace hypo
