// Tests for the persistent cross-query layer introduced with the
// MemoBoard, and for restricted predicates:
//
//   * parser: `:- assumable p/2.` / `:- retractable q/1.` directives
//     populate the rulebase's restriction sets; malformed directives are
//     typed parse errors;
//   * front-end checks: hypothetical insertion/deletion of an
//     unrestricted predicate is rejected with kFailedPrecondition, both
//     for rules (at Init) and for queries, on every engine;
//   * MemoBoard unit behaviour: epoch bumps invalidate, the byte budget
//     evicts, context re-interning reports reuse;
//   * cross-engine sharing: a second engine attached to the same board
//     answers from the board (goal memo for the top-down engines, base
//     model adoption for the bottom-up engine), bit-identically;
//   * epoch-bump interleaving: after a base mutation, the first repaired
//     engine republishes and a sibling adopts instead of repairing;
//   * differential: board on vs board off (and restricted vs not) derive
//     identical fact sets on random programs;
//   * server: the new counters surface through QueryServer/stats and the
//     cache-off escape hatch changes no answers.

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/restricted.h"
#include "analysis/stratification.h"
#include "ast/printer.h"
#include "engine/bottom_up.h"
#include "engine/memo_board.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "reference_eval.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "workload/random_programs.h"

namespace hypo {
namespace {

// The paper's running example (§2): tony graduates if he takes the right
// courses; one_course_away asks hypothetically.
constexpr char kCoursesRules[] = R"(
grad(S) <- take(S, his101), take(S, eng201).
grad(S) <- take(S, cs250), take(S, cs452).
can_grad(S) <- grad(S)[add: take(S, cs452)].
)";

constexpr char kCoursesFacts[] = R"(
take(tony, his101).
take(tony, cs250).
take(mary, his101).
take(mary, eng201).
)";

class CrossQueryTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = std::make_shared<SymbolTable>();

  RuleBase ParseRules(const std::string& text) {
    auto rules = ParseRuleBase(text, symbols_);
    EXPECT_TRUE(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  Database ParseFacts(const std::string& text) {
    Database db(symbols_);
    EXPECT_TRUE(ParseFactsInto(text, &db).ok());
    return db;
  }

  Query MustQuery(const std::string& text) {
    auto q = ParseQuery(text, symbols_.get());
    EXPECT_TRUE(q.ok()) << q.status();
    return std::move(q).value();
  }

  PredicateId Pred(const std::string& name, int arity) {
    auto id = symbols_->InternPredicate(name, arity);
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  }
};

// ---------------------------------------------------------------------------
// Parser: restriction directives.

TEST_F(CrossQueryTest, DirectivesPopulateRestrictionSets) {
  RuleBase rules = ParseRules(
      ":- assumable take/2.\n"
      ":- retractable take/2.\n"
      ":- assumable enrolled/1.\n"
      "grad(S) <- take(S, cs250).\n");
  EXPECT_TRUE(rules.has_restrictions());
  EXPECT_EQ(rules.assumable().count(Pred("take", 2)), 1u);
  EXPECT_EQ(rules.retractable().count(Pred("take", 2)), 1u);
  EXPECT_EQ(rules.assumable().count(Pred("enrolled", 1)), 1u);
  EXPECT_EQ(rules.retractable().count(Pred("enrolled", 1)), 0u);
  // Undeclared rulebases keep the pre-directive behaviour.
  RuleBase plain = ParseRules("grad(S) <- take(S, cs250).\n");
  EXPECT_FALSE(plain.has_restrictions());
}

TEST_F(CrossQueryTest, MalformedDirectivesAreTypedParseErrors) {
  const char* bad[] = {
      ":- frobnicate take/2.",       // Unknown directive verb.
      ":- assumable take.",          // Missing arity.
      ":- assumable take/x.",        // Non-integer arity.
      ":- assumable Take/2.",        // Variables cannot be predicates.
      ":- assumable take/2",         // Missing final period.
  };
  for (const char* text : bad) {
    auto rules = ParseRuleBase(text, symbols_);
    ASSERT_FALSE(rules.ok()) << "accepted: " << text;
    EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument)
        << text << ": " << rules.status();
  }
}

TEST_F(CrossQueryTest, ParseProgramCarriesDirectives) {
  auto program = ParseProgram(
      std::string(":- assumable take/2.\n") + kCoursesRules + kCoursesFacts,
      symbols_);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_TRUE(program->rules.has_restrictions());
  EXPECT_EQ(program->rules.assumable().count(Pred("take", 2)), 1u);
}

// ---------------------------------------------------------------------------
// Front-end checks: rejection is typed and engine-independent.

TEST_F(CrossQueryTest, UndeclaredRuleHypothesisRejectedAtInit) {
  // `grad` is not assumable, so the rule's [add: grad(...)] must be
  // rejected — by every engine, with the typed status.
  RuleBase rules = ParseRules(
      ":- assumable take/2.\n"
      "grad(S) <- take(S, his101), take(S, eng201).\n"
      "bogus(S) <- can_grad(S)[add: grad(S)].\n");
  Database db = ParseFacts(kCoursesFacts);
  for (const char* kind : {"tabled", "stratified", "bottomup"}) {
    auto engine = MakeEngine(kind, &rules, &db).value();
    Status s = engine->Init();
    ASSERT_FALSE(s.ok()) << kind << " accepted an unrestricted insertion";
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << kind << ": " << s;
    EXPECT_NE(s.message().find("grad/1"), std::string::npos) << s;
    EXPECT_NE(s.message().find("assumable"), std::string::npos) << s;
  }
}

TEST_F(CrossQueryTest, UndeclaredQueryHypothesisRejected) {
  RuleBase rules = ParseRules(std::string(":- assumable take/2.\n"
                                          ":- retractable take/2.\n") +
                              kCoursesRules);
  Database db = ParseFacts(kCoursesFacts);
  Query allowed = MustQuery("grad(tony)[add: take(tony, cs452)]");
  Query denied = MustQuery("grad(tony)[add: grad(mary)]");
  for (const char* kind : {"tabled", "stratified", "bottomup"}) {
    auto engine = MakeEngine(kind, &rules, &db).value();
    auto ok = engine->ProveQuery(allowed);
    ASSERT_TRUE(ok.ok()) << kind << ": " << ok.status();
    EXPECT_TRUE(*ok) << kind;
    auto rejected = engine->ProveQuery(denied);
    ASSERT_FALSE(rejected.ok()) << kind;
    EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition)
        << kind << ": " << rejected.status();
    // Answers() runs the same gate.
    auto answers = engine->Answers(MustQuery("grad(X)[add: grad(mary)]"));
    ASSERT_FALSE(answers.ok()) << kind;
    EXPECT_EQ(answers.status().code(), StatusCode::kFailedPrecondition);
  }
  // Deletions check the retractable set (TabledEngine only).
  auto tabled = MakeEngine("tabled", &rules, &db).value();
  auto del_ok = tabled->ProveQuery(MustQuery("grad(mary)[del: take(mary, eng201)]"));
  ASSERT_TRUE(del_ok.ok()) << del_ok.status();
  EXPECT_FALSE(*del_ok);
  auto del_bad = tabled->ProveQuery(MustQuery("grad(mary)[del: grad(mary)]"));
  ASSERT_FALSE(del_bad.ok());
  EXPECT_EQ(del_bad.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(del_bad.status().message().find("retractable"), std::string::npos);
}

TEST_F(CrossQueryTest, ConeDropsIrrelevantContextElements) {
  // `unrelated` cannot reach grad's derivation cone, so it must not be
  // part of grad's canonical overlay; `take` must be.
  RuleBase rules = ParseRules(std::string(":- assumable take/2.\n"
                                          ":- assumable unrelated/1.\n") +
                              kCoursesRules + "other(X) <- unrelated(X).\n");
  RestrictionAnalysis analysis(&rules);
  ASSERT_TRUE(analysis.active());
  PredicateId grad = Pred("grad", 1);
  EXPECT_TRUE(analysis.Relevant(grad, Pred("take", 2)));
  EXPECT_FALSE(analysis.Relevant(grad, Pred("unrelated", 1)));
  EXPECT_TRUE(analysis.Relevant(Pred("other", 1), Pred("unrelated", 1)));
}

// ---------------------------------------------------------------------------
// MemoBoard unit behaviour.

TEST(MemoBoardTest, EpochBumpInvalidatesGoalsAndModels) {
  MemoBoard board;
  board.BeginEpoch(1);
  board.PublishGoal(/*fact=*/7, /*context=*/0, /*domain_fp=*/42, true);
  EXPECT_EQ(board.LookupGoal(7, 0, 42), 1);
  auto symbols = std::make_shared<SymbolTable>();
  auto model = std::make_shared<Database>(symbols);
  ASSERT_TRUE(model->Insert("p", {"a"}).ok());
  board.PublishModel(/*context=*/0, /*domain_fp=*/42, model);
  EXPECT_NE(board.LookupModel(0, 42), nullptr);

  board.BeginEpoch(2);
  EXPECT_EQ(board.LookupGoal(7, 0, 42), 0) << "stale goal served";
  EXPECT_EQ(board.LookupModel(0, 42), nullptr) << "stale model served";

  // Republished entries are visible again under the new epoch; a
  // mismatched domain fingerprint never answers.
  board.PublishGoal(7, 0, 42, false);
  EXPECT_EQ(board.LookupGoal(7, 0, 42), -1);
  EXPECT_EQ(board.LookupGoal(7, 0, 43), 0);
  board.PublishModel(0, 42, model);
  EXPECT_NE(board.LookupModel(0, 42), nullptr);
  EXPECT_EQ(board.LookupModel(0, 43), nullptr);
  EXPECT_EQ(board.snapshot_stats().epoch, 2);
}

TEST(MemoBoardTest, ByteBudgetEvictsLeastRecentlyUsedModels) {
  MemoBoard board(/*max_bytes=*/2048);
  board.BeginEpoch(1);
  auto symbols = std::make_shared<SymbolTable>();
  for (int m = 0; m < 16; ++m) {
    auto model = std::make_shared<Database>(symbols);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          model->Insert("p", {"c" + std::to_string(m * 32 + i)}).ok());
    }
    board.PublishModel(/*context=*/m, /*domain_fp=*/1, std::move(model));
  }
  MemoBoard::Stats stats = board.snapshot_stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.model_publishes, 16);
  // The most recent publish survives; the budget holds (interner bytes
  // are reported on top of the budgeted entry bytes).
  EXPECT_NE(board.LookupModel(15, 1), nullptr);
}

TEST(MemoBoardTest, ContextReuseIsReportedOnlyForRealOverlays) {
  MemoBoard board;
  board.BeginEpoch(1);
  bool reused = true;
  ContextId empty = board.InternContext({}, &reused);
  EXPECT_EQ(empty, ContextInterner::kEmptyContext);
  EXPECT_FALSE(reused) << "the empty context is not a reuse signal";

  ContextId first = board.InternContext({3, 5}, &reused);
  EXPECT_FALSE(reused);
  ContextId again = board.InternContext({3, 5}, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(first, again);
  ContextId other = board.InternContext({3, 7}, &reused);
  EXPECT_FALSE(reused);
  EXPECT_NE(other, first);
  EXPECT_EQ(board.snapshot_stats().contexts_reused, 1);
}

// ---------------------------------------------------------------------------
// Cross-engine reuse through a shared board.

TEST_F(CrossQueryTest, SecondTabledEngineAnswersFromTheBoard) {
  RuleBase rules = ParseRules(kCoursesRules);
  Database db = ParseFacts(kCoursesFacts);
  MemoBoard board;
  board.BeginEpoch(1);

  TabledEngine a(&rules, &db);
  a.AttachMemoBoard(&board);
  TabledEngine b(&rules, &db);
  b.AttachMemoBoard(&board);

  Query q = MustQuery("can_grad(tony)");
  auto first = a.ProveQuery(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(*first);
  EXPECT_GT(board.snapshot_stats().goal_publishes, 0);

  auto second = b.ProveQuery(q);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(*second);
  EXPECT_GT(b.stats().cache_hits_cross_query, 0)
      << "warm sibling recomputed instead of using the board";
}

TEST_F(CrossQueryTest, StratifiedProverAdoptsTabledGoals) {
  RuleBase rules = ParseRules(kCoursesRules);
  Database db = ParseFacts(kCoursesFacts);
  MemoBoard board;
  board.BeginEpoch(1);

  TabledEngine a(&rules, &db);
  a.AttachMemoBoard(&board);
  StratifiedProver b(&rules, &db);
  b.AttachMemoBoard(&board);

  Query q = MustQuery("grad(mary)");
  auto first = a.ProveQuery(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(*first);
  auto second = b.ProveQuery(q);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(*second) << "cross-procedure goal sharing changed the answer";
}

TEST_F(CrossQueryTest, SecondBottomUpEngineAdoptsTheBaseModel) {
  RuleBase rules = ParseRules(kCoursesRules);
  Database db = ParseFacts(kCoursesFacts);
  MemoBoard board;
  board.BeginEpoch(1);

  BottomUpEngine a(&rules, &db);
  a.AttachMemoBoard(&board);
  BottomUpEngine b(&rules, &db);
  b.AttachMemoBoard(&board);

  Query q = MustQuery("grad(X)");
  auto first = a.Answers(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(board.snapshot_stats().model_publishes, 1)
      << "base model not published";

  auto second = b.Answers(q);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, *first);
  EXPECT_GT(b.stats().cache_hits_cross_query, 0)
      << "warm sibling re-ran the fixpoint";
  EXPECT_GT(board.snapshot_stats().model_hits, 0);
}

TEST_F(CrossQueryTest, EpochBumpRepairRepublishAdoptInterleaving) {
  RuleBase rules = ParseRules(kCoursesRules);
  Database db = ParseFacts(kCoursesFacts);
  MemoBoard board;
  board.BeginEpoch(1);

  BottomUpEngine a(&rules, &db);
  a.AttachMemoBoard(&board);
  BottomUpEngine b(&rules, &db);
  b.AttachMemoBoard(&board);
  Query q = MustQuery("grad(X)");
  ASSERT_TRUE(a.Answers(q).ok());
  ASSERT_TRUE(b.Answers(q).ok());

  // Base mutation: tony takes cs452, so grad(tony) becomes true outright.
  auto fact = ParseFact("take(tony, cs452)", symbols_.get());
  ASSERT_TRUE(fact.ok());
  ASSERT_TRUE(db.Insert(*fact));
  BaseDelta delta;
  delta.inserts.push_back(*fact);

  board.BeginEpoch(2);
  // First engine repairs against the new epoch and republishes...
  ASSERT_TRUE(a.ApplyBaseDelta(delta).ok());
  MemoBoard::Stats mid = board.snapshot_stats();
  EXPECT_GE(mid.model_publishes, 2) << "repaired model not republished";
  // ...so the sibling skips its own repair and adopts at its next query.
  ASSERT_TRUE(b.ApplyBaseDelta(delta).ok());
  b.ResetStats();
  auto warm = b.Answers(q);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(b.stats().cache_hits_cross_query, 0)
      << "sibling repaired instead of adopting across the epoch bump";

  // Ground truth: a fresh board-less engine over the mutated base.
  BottomUpEngine fresh(&rules, &db);
  auto expect = fresh.Answers(q);
  ASSERT_TRUE(expect.ok()) << expect.status();
  EXPECT_EQ(*warm, *expect);
}

// ---------------------------------------------------------------------------
// Differential: the board must never change an answer.

TEST(CrossQueryDifferential, BoardOnOffBitIdenticalAcrossEngines) {
  RandomProgramOptions options;
  int tested = 0;
  for (uint64_t seed = 500; seed < 508; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);

    EngineOptions engine_options;
    engine_options.max_states = 40'000;
    engine_options.max_steps = 3'000'000;

    // Ground truth: the reference evaluator, over every symbol constant.
    const std::vector<ConstId> domain = AllConstants(*fixture.symbols);
    ReferenceEngine reference_engine(&fixture.rules, &fixture.db, domain);
    auto reference = DeriveAll(&reference_engine, fixture.rules, domain);
    if (!reference.ok()) {
      ASSERT_EQ(reference.status().code(), StatusCode::kResourceExhausted)
          << reference.status();
      continue;
    }

    const bool stratifiable =
        CheckLinearlyStratifiable(fixture.rules).ok();
    // Each config runs TWO engines against one shared board — the second
    // is the board-warm path — plus restricted mode (every predicate
    // declared assumable turns on cone canonicalization without changing
    // the admissible programs).
    for (bool restricted : {false, true}) {
      if (restricted) {
        for (int p = 0; p < fixture.symbols->num_predicates(); ++p) {
          fixture.rules.DeclareAssumable(p);
        }
      }
      for (const char* kind : {"tabled", "stratified", "bottomup"}) {
        if (std::string(kind) == "stratified" && !stratifiable) continue;
        MemoBoard board;
        board.BeginEpoch(1);
        auto cold = MakeEngine(kind, &fixture.rules, &fixture.db,
                               engine_options).value();
        cold->AttachMemoBoard(&board);
        auto warm = MakeEngine(kind, &fixture.rules, &fixture.db,
                               engine_options).value();
        warm->AttachMemoBoard(&board);
        for (Engine* engine : {cold.get(), warm.get()}) {
          Status pinned = PinDomain(engine, fixture.rules, domain);
          auto derived = pinned.ok()
                             ? DeriveAll(engine, fixture.rules, domain)
                             : StatusOr<std::set<std::string>>(pinned);
          if (!derived.ok()) {
            ASSERT_EQ(derived.status().code(),
                      StatusCode::kResourceExhausted)
                << derived.status();
            continue;
          }
          EXPECT_EQ(*derived, *reference)
              << "seed " << seed << " kind " << kind << " restricted "
              << restricted << " board-warm " << (engine == warm.get())
              << " program:\n"
              << RuleBaseToString(fixture.rules);
        }
      }
    }
    ++tested;
  }
  EXPECT_GE(tested, 5) << "too many programs skipped";
}

// ---------------------------------------------------------------------------
// Server integration.

constexpr char kServerProgram[] = R"(
:- assumable edge/2.
reach(X, Y) <- edge(X, Y).
reach(X, Z) <- edge(X, Y), reach(Y, Z).
edge(a, b).
edge(b, c).
)";

TEST(CrossQueryServerTest, CountersSurfaceContextReuseAndRejections) {
  ServerOptions options;
  options.engine_name = "tabled";
  options.pool_size = 2;
  auto server = QueryServer::Create(kServerProgram, options);
  ASSERT_TRUE(server.ok()) << server.status();

  // The subgoal chain reach(a,q) -> reach(b,q) -> reach(c,q) consults the
  // board once per goal, all under the same cone-canonical overlay
  // {edge(c,q)} — every consult past the first re-interns the context.
  auto q = (*server)->Query("reach(a, q)[add: edge(c, q)]");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->proven);
  auto counters = (*server)->counters();
  EXPECT_GT(counters.contexts_reused, 0)
      << "the overlay context should have been re-interned";

  // Violations are rejected before an engine is leased and counted.
  auto rejected = (*server)->Query("reach(a, c)[add: reach(q, r)]");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->counters().restricted_rejections, 1);
}

TEST(CrossQueryServerTest, CountersSurfaceCrossQueryHits) {
  // Engine leasing is LIFO, so sequential queries all run on one primary
  // engine. Holding the primary checked out makes the next query run on
  // its sibling, whose first serve adopts the base model the primary
  // already published.
  std::string program =
      "reach(X, Y) <- edge(X, Y).\n"
      "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n";
  for (int i = 0; i < 120; ++i) {
    program += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
               ").\n";
  }
  ServerOptions options;
  options.engine_name = "bottomup";
  options.pool_size = 2;
  auto server = QueryServer::Create(program, options);
  ASSERT_TRUE(server.ok()) << server.status();

  ASSERT_TRUE((*server)->Query("reach(n0, n1)").ok());  // Publish.
  (*server)->HoldEngineForTest([&] {
    auto q = (*server)->Query("reach(X, Y)");
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->answers.size(), 121u * 120u / 2u);
    EXPECT_GT(q->stats.cache_hits_cross_query, 0)
        << "sibling engine did not adopt the published base model";
  });
  EXPECT_GT((*server)->counters().cache_hits_cross_query, 0);
}

TEST(CrossQueryServerTest, CacheOffEscapeHatchChangesNoAnswers) {
  for (const char* engine : {"tabled", "stratified", "bottomup"}) {
    ServerOptions on;
    on.engine_name = engine;
    on.pool_size = 2;
    ServerOptions off = on;
    off.cross_query_cache = false;
    auto with_cache = QueryServer::Create(kServerProgram, on);
    auto without = QueryServer::Create(kServerProgram, off);
    ASSERT_TRUE(with_cache.ok() && without.ok());
    for (int round = 0; round < 2; ++round) {
      for (QueryServer* server : {with_cache->get(), without->get()}) {
        ASSERT_TRUE(server->Insert("edge(c, d" + std::to_string(round) +
                                   ")")
                        .ok());
      }
      for (const char* q : {"reach(a, X)", "reach(b, X)"}) {
        auto a = (*with_cache)->Query(q);
        auto b = (*without)->Query(q);
        ASSERT_TRUE(a.ok() && b.ok());
        std::sort(a->answers.begin(), a->answers.end());
        std::sort(b->answers.begin(), b->answers.end());
        EXPECT_EQ(a->answers, b->answers) << engine << " " << q;
      }
    }
    EXPECT_EQ((*without)->counters().cache_hits_cross_query, 0);
  }
}

TEST(CrossQueryServerTest, StatsVerbReportsTheNewCounters) {
  ServerOptions options;
  options.engine_name = "bottomup";
  options.pool_size = 2;
  auto server = QueryServer::Create(kServerProgram, options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::istringstream in(
      "query reach(a, X)\n"
      "query reach(a, X)\n"
      "query reach(a, c)[add: reach(x, y)]\n"
      "stats\n");
  std::ostringstream out;
  EXPECT_EQ(RunSession(server->get(), in, out), 0);
  std::string text = out.str();
  EXPECT_NE(text.find("cache_hits_cross_query="), std::string::npos) << text;
  EXPECT_NE(text.find("contexts_reused="), std::string::npos) << text;
  EXPECT_NE(text.find("restricted_rejections=1"), std::string::npos) << text;
  EXPECT_NE(text.find("err FailedPrecondition"), std::string::npos) << text;
}

}  // namespace
}  // namespace hypo
