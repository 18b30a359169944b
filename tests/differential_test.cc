#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/stratification.h"
#include "ast/printer.h"
#include "engine/bottom_up.h"
#include "engine/memo_board.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "queries/parity.h"
#include "reference_eval.h"
#include "workload/random_programs.h"

namespace hypo {
namespace {

EngineOptions FuzzOptions() {
  EngineOptions options;
  options.max_states = 40'000;
  options.max_steps = 3'000'000;
  // Cross-check every memoized goal lookup against the from-scratch
  // canonical overlay key (cheap here: overlays stay small).
  options.validate_contexts = true;
  return options;
}

/// DeriveAll over every symbol constant, with the engine's domain pinned
/// to them first (see PinDomain).
StatusOr<std::set<std::string>> PinnedDeriveAll(Engine* engine,
                                                const ProgramFixture& f) {
  const std::vector<ConstId> domain = AllConstants(*f.symbols);
  HYPO_RETURN_IF_ERROR(PinDomain(engine, f.rules, domain));
  return DeriveAll(engine, f.rules, domain);
}

/// Compares `engine` with the reference evaluator's `expected` facts.
/// Returns false (a skip) when the engine ran out of resources.
bool AgreesWithReference(Engine* engine, const ProgramFixture& f,
                         const std::set<std::string>& expected,
                         const std::string& label) {
  auto derived = PinnedDeriveAll(engine, f);
  if (!derived.ok()) {
    EXPECT_EQ(derived.status().code(), StatusCode::kResourceExhausted)
        << label << ": " << derived.status();
    return false;
  }
  EXPECT_EQ(*derived, expected) << label << " program:\n"
                                << RuleBaseToString(f.rules);
  return true;
}

/// The reference evaluator's facts over every symbol constant, or
/// nullopt (a skip) when it exceeds its state cap.
std::optional<std::set<std::string>> ReferenceFacts(const ProgramFixture& f) {
  const std::vector<ConstId> domain = AllConstants(*f.symbols);
  ReferenceEngine reference(&f.rules, &f.db, domain);
  auto facts = DeriveAll(&reference, f.rules, domain);
  if (!facts.ok()) {
    EXPECT_EQ(facts.status().code(), StatusCode::kResourceExhausted)
        << facts.status();
    return std::nullopt;
  }
  return *std::move(facts);
}

/// Every engine (the stratified prover when the program is linearly
/// stratifiable) against the reference evaluator, on `count` programs of
/// one mix. Returns the number of engine comparisons made.
int EnginesAgreeWithReference(const RandomProgramOptions& options,
                              uint64_t first_seed, int count,
                              int* stratified_compared) {
  int compared = 0;
  for (uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    std::optional<std::set<std::string>> expected = ReferenceFacts(fixture);
    if (!expected) continue;
    const std::string label = "seed " + std::to_string(seed);
    TabledEngine tabled(&fixture.rules, &fixture.db, FuzzOptions());
    compared += AgreesWithReference(&tabled, fixture, *expected,
                                    "tabled " + label);
    BottomUpEngine bottom_up(&fixture.rules, &fixture.db, FuzzOptions());
    compared += AgreesWithReference(&bottom_up, fixture, *expected,
                                    "bottom-up " + label);
    if (CheckLinearlyStratifiable(fixture.rules).ok()) {
      StratifiedProver prover(&fixture.rules, &fixture.db, FuzzOptions());
      if (AgreesWithReference(&prover, fixture, *expected,
                              "stratified " + label)) {
        ++compared;
        ++*stratified_compared;
      }
    }
  }
  return compared;
}

TEST(DifferentialTest, EnginesAgreeOnRandomPrograms) {
  int stratified = 0;
  EXPECT_GE(EnginesAgreeWithReference(RandomProgramOptions(), 0, 40,
                                      &stratified),
            100);
  EXPECT_GE(stratified, 25)
      << "the generator should produce linearly stratifiable programs too";
}

TEST(DifferentialTest, DeletionProgramsAgreeWithReference) {
  // Random programs whose hypothetical premises carry [del: ...] groups.
  // Only the TabledEngine supports deletions: it must agree with the
  // reference evaluator memo-cold, memo-warm (same engine asked twice)
  // and on a fresh engine, with the interned-context oracle enabled; the
  // other engines must reject such programs cleanly at Init.
  RandomProgramOptions options;
  options.num_rules = 6;
  options.hypothetical_probability = 0.5;
  options.deletion_probability = 0.5;
  int compared = 0;
  for (uint64_t seed = 300; seed < 330; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    if (!fixture.rules.HasDeletions()) continue;
    BottomUpEngine bottom_up(&fixture.rules, &fixture.db, FuzzOptions());
    EXPECT_EQ(bottom_up.Init().code(), StatusCode::kUnimplemented);
    StratifiedProver prover(&fixture.rules, &fixture.db, FuzzOptions());
    EXPECT_EQ(prover.Init().code(), StatusCode::kUnimplemented);

    std::optional<std::set<std::string>> expected = ReferenceFacts(fixture);
    if (!expected) continue;
    const std::string label = "seed " + std::to_string(seed);
    TabledEngine engine(&fixture.rules, &fixture.db, FuzzOptions());
    if (!AgreesWithReference(&engine, fixture, *expected, "cold " + label)) {
      continue;
    }
    // Once the cold run fits the budget, the warm replay and a fresh engine
    // must fit it too: a skip there is a failure, not a skip.
    const bool warm =
        AgreesWithReference(&engine, fixture, *expected, "warm " + label);
    EXPECT_TRUE(warm) << "memo-warm replay ran out of resources, " << label;
    TabledEngine fresh(&fixture.rules, &fixture.db, FuzzOptions());
    const bool refreshed =
        AgreesWithReference(&fresh, fixture, *expected, "fresh " + label);
    EXPECT_TRUE(refreshed) << "fresh engine ran out of resources, " << label;
    if (warm && refreshed) ++compared;
  }
  EXPECT_GE(compared, 25) << "too few deletion programs compared";
}

TEST(DifferentialTest, NestedHypotheticalsAgreeAcrossEngines) {
  // Hypothetical-dense programs: IDB predicates may be queried inside
  // hypothetical premises, so proofs routinely stack overlay frames.
  RandomProgramOptions options;
  options.num_rules = 6;
  options.hypothetical_probability = 0.6;
  options.negation_probability = 0.15;
  int stratified = 0;
  EXPECT_GE(EnginesAgreeWithReference(options, 400, 20, &stratified), 50);
  EXPECT_GE(stratified, 12);
}

TEST(DifferentialTest, MonotoneForNegationFreePrograms) {
  // §3.1: without negation the system is monotonic. Derive, add one EDB
  // fact, derive again: the first set must be contained in the second.
  RandomProgramOptions options;
  options.negation_probability = 0.0;
  options.num_rules = 6;
  for (uint64_t seed = 100; seed < 115; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);

    EngineOptions engine_options;
    engine_options.max_states = 40'000;
    TabledEngine before(&fixture.rules, &fixture.db, engine_options);
    auto derived_before = PinnedDeriveAll(&before, fixture);
    if (!derived_before.ok()) continue;

    // Add one fresh EDB fact.
    SymbolTable* symbols = fixture.symbols.get();
    PredicateId e0 = symbols->FindPredicate("e0");
    ASSERT_NE(e0, kInvalidPredicate);
    Fact extra;
    extra.predicate = e0;
    for (int i = 0; i < symbols->PredicateArity(e0); ++i) {
      extra.args.push_back(symbols->FindConst("c0"));
    }
    fixture.db.Insert(extra);

    TabledEngine after(&fixture.rules, &fixture.db, engine_options);
    auto derived_after = PinnedDeriveAll(&after, fixture);
    if (!derived_after.ok()) continue;

    EXPECT_TRUE(std::includes(derived_after->begin(), derived_after->end(),
                              derived_before->begin(),
                              derived_before->end()))
        << "monotonicity violated at seed " << seed;
  }
}

TEST(DifferentialTest, ParityOrderIndependence) {
  // Example 6's order-independence: permuting the database constants
  // (equivalently, feeding tuples in any order) never changes the answer.
  for (int n : {3, 4}) {
    ProgramFixture fixture = MakeParityFixture(n);
    std::vector<ConstId> permutation;
    for (int c = 0; c < fixture.symbols->num_consts(); ++c) {
      permutation.push_back(c);
    }
    Random rng(7);
    for (int trial = 0; trial < 4; ++trial) {
      rng.Shuffle(permutation);
      Database permuted =
          PermuteDatabaseConstants(fixture.db, permutation);
      TabledEngine engine(&fixture.rules, &permuted);
      Fact even;
      even.predicate = fixture.symbols->FindPredicate("even");
      auto r = engine.ProveFact(even);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(*r, n % 2 == 0) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(DifferentialTest, DeductionTheoremForAdditions) {
  // Inference rule 2 as a metamorphic property: R, DB ⊢ A[add: B] must
  // coincide with R, DB + {B} ⊢ A, for random programs, random ground
  // facts A and B.
  RandomProgramOptions options;
  options.num_rules = 6;
  for (uint64_t seed = 200; seed < 220; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    SymbolTable* symbols = fixture.symbols.get();

    // Pick A: a random IDB ground atom; B: a random EDB ground atom.
    // Not every generated name is necessarily interned (a predicate the
    // generator never used), so scan for the ones that exist.
    auto ground = [&](const char* stem, int count) -> StatusOr<Fact> {
      std::vector<PredicateId> candidates;
      for (int i = 0; i < count; ++i) {
        PredicateId pred =
            symbols->FindPredicate(stem + std::to_string(i));
        if (pred != kInvalidPredicate) candidates.push_back(pred);
      }
      if (candidates.empty()) {
        return Status::NotFound("no predicate with this stem");
      }
      Fact f;
      f.predicate = candidates[rng.Uniform(candidates.size())];
      for (int i = 0; i < symbols->PredicateArity(f.predicate); ++i) {
        f.args.push_back(symbols->FindConst(
            "c" + std::to_string(rng.Uniform(options.num_constants))));
      }
      return f;
    };
    auto a_or = ground("p", options.num_idb_predicates);
    auto b_or = ground("e", options.num_edb_predicates);
    if (!a_or.ok() || !b_or.ok()) continue;
    Fact a = *a_or;
    Fact b = *b_or;

    EngineOptions engine_options;
    engine_options.max_states = 40'000;

    // Left side: the hypothetical query over the original database.
    TabledEngine left(&fixture.rules, &fixture.db, engine_options);
    Query query;
    Atom query_atom{a.predicate, {}};
    for (ConstId c : a.args) query_atom.args.push_back(Term::MakeConst(c));
    Atom added_atom{b.predicate, {}};
    for (ConstId c : b.args) added_atom.args.push_back(Term::MakeConst(c));
    query.premises.push_back(
        Premise::Hypothetical(query_atom, {added_atom}));
    auto lhs = left.ProveQuery(query);
    if (!lhs.ok()) continue;  // Resource limits: skip.

    // Right side: B inserted into the database for real.
    Database extended = fixture.db.Clone();
    extended.Insert(b);
    TabledEngine right(&fixture.rules, &extended, engine_options);
    auto rhs = right.ProveFact(a);
    if (!rhs.ok()) continue;

    EXPECT_EQ(*lhs, *rhs) << "seed " << seed << ": deduction theorem "
                          << "violated for " << FactToString(a, *symbols)
                          << " [add: " << FactToString(b, *symbols) << "]";
  }
}

/// A random ground fact over the predicates named `stem`0..`stem`count-1
/// that exist, or a fact with kInvalidPredicate when none does.
Fact RandomGroundFact(const SymbolTable& symbols, const char* stem,
                      int count, int num_constants, Random* rng) {
  Fact f;
  f.predicate = kInvalidPredicate;
  std::vector<PredicateId> candidates;
  for (int i = 0; i < count; ++i) {
    PredicateId pred = symbols.FindPredicate(stem + std::to_string(i));
    if (pred != kInvalidPredicate) candidates.push_back(pred);
  }
  if (candidates.empty()) return f;
  f.predicate = candidates[rng->Uniform(candidates.size())];
  for (int i = 0; i < symbols.PredicateArity(f.predicate); ++i) {
    f.args.push_back(symbols.FindConst(
        "c" + std::to_string(rng->Uniform(num_constants))));
  }
  return f;
}

/// True iff `rules` has no hypothetical premise (so the bottom-up repair
/// never recomputes a stratum) and some rule negates a predicate of
/// `facts`.
bool NegatesAny(const RuleBase& rules, const std::set<Fact>& facts) {
  bool negates = false;
  for (const Rule& rule : rules.rules()) {
    if (rule.HasHypotheticalPremise()) return false;
    for (const Premise& p : rule.premises) {
      if (p.kind != PremiseKind::kNegated) continue;
      for (const Fact& f : facts) negates |= f.predicate == p.atom.predicate;
    }
  }
  return negates;
}

TEST(DifferentialTest, IncrementalDeltaMatchesRebuildAcrossInterleavings) {
  // The server contract: after any interleaving of base-fact inserts and
  // retracts, an engine maintained through ApplyBaseDelta must answer
  // exactly like a from-scratch engine over the mutated database. Runs
  // every engine family.
  const char* const kConfigs[] = {"tabled", "stratified", "bottomup"};

  RandomProgramOptions options;
  options.num_rules = 5;
  options.hypothetical_probability = 0.25;
  options.negation_probability = 0.4;

  int interleavings_checked = 0;
  // Bottom-up epochs whose delta reached a negated premise of a program
  // without hypothetical premises: DRed must repair them, never
  // recompute.
  int negated_repairs = 0;
  for (const std::string config : kConfigs) {
    for (uint64_t seed = 500; seed < 540; ++seed) {
      Random rng(seed);
      ProgramFixture fixture = MakeRandomProgram(options, &rng);
      if (config == "stratified" &&
          !CheckLinearlyStratifiable(fixture.rules).ok()) {
        continue;
      }

      EngineOptions engine_options;
      engine_options.max_states = 40'000;
      engine_options.max_steps = 3'000'000;

      std::unique_ptr<Engine> live =
          MakeEngine(config, &fixture.rules, &fixture.db, engine_options)
              .value();
      ASSERT_TRUE(live->Init().ok());
      ASSERT_TRUE(PinDomain(live.get(), fixture.rules,
                            AllConstants(*fixture.symbols))
                      .ok());

      bool skipped = false;
      for (int step = 0; step < 5 && !skipped; ++step) {
        // One mutation batch of 1-3 changes. Mostly EDB facts; sometimes
        // a base fact of an IDB predicate, which stresses the DRed
        // rederivation path (a retracted derived-and-base fact may keep
        // rule support, a re-inserted one may already be derived). A
        // batch may insert and retract one fact; the engine nets it.
        BaseDelta delta;
        int batch = 1 + static_cast<int>(rng.Uniform(3));
        for (int k = 0; k < batch; ++k) {
          bool retract = rng.Uniform(2) == 0 && !fixture.db.empty();
          if (retract) {
            std::vector<Fact> pool;
            fixture.db.ForEach([&](const Fact& f) { pool.push_back(f); });
            const Fact& victim = pool[rng.Uniform(pool.size())];
            if (fixture.db.Retract(victim)) delta.retracts.push_back(victim);
          } else {
            const char* stem = rng.Uniform(5) == 0 ? "p" : "e";
            int count = stem[0] == 'p' ? options.num_idb_predicates
                                       : options.num_edb_predicates;
            Fact fresh = RandomGroundFact(*fixture.symbols, stem, count,
                                          options.num_constants, &rng);
            if (fresh.predicate == kInvalidPredicate) continue;
            if (fixture.db.Insert(fresh)) delta.inserts.push_back(fresh);
          }
        }

        live->ResetStats();
        Status applied = live->ApplyBaseDelta(delta);
        ASSERT_TRUE(applied.ok())
            << config << " seed " << seed << " step " << step << ": "
            << applied;
        std::set<Fact> changed(delta.inserts.begin(), delta.inserts.end());
        changed.insert(delta.retracts.begin(), delta.retracts.end());
        if (config == "bottomup" && NegatesAny(fixture.rules, changed)) {
          const EngineStats& repair = live->stats();
          EXPECT_EQ(repair.strata_recomputed, 0)
              << "seed " << seed << " step " << step
              << ": a negated-premise delta fell back to recompute";
          if (repair.strata_repaired > 0) ++negated_repairs;
        }

        auto incremental = PinnedDeriveAll(live.get(), fixture);
        if (!incremental.ok()) {
          ASSERT_EQ(incremental.status().code(),
                    StatusCode::kResourceExhausted);
          skipped = true;
          break;
        }
        std::unique_ptr<Engine> rebuilt =
            MakeEngine(config, &fixture.rules, &fixture.db, engine_options)
                .value();
        auto scratch = PinnedDeriveAll(rebuilt.get(), fixture);
        if (!scratch.ok()) {
          ASSERT_EQ(scratch.status().code(), StatusCode::kResourceExhausted);
          skipped = true;
          break;
        }
        EXPECT_EQ(*incremental, *scratch)
            << config << " seed " << seed << " step " << step
            << " diverged after "
            << delta.inserts.size() << " inserts / "
            << delta.retracts.size() << " retracts, program:\n"
            << RuleBaseToString(fixture.rules);
        ++interleavings_checked;
      }
    }
  }
  EXPECT_GE(interleavings_checked, 300)
      << "too many interleavings skipped on resource limits";
  EXPECT_GE(negated_repairs, 10)
      << "no negated-premise delta was repaired incrementally";
}

TEST(DifferentialTest, DomainChangingCommitsMatchFreshEngines) {
  // Commits that move dom(R, DB), with no PinDomain: they insert facts
  // naming brand-new constants and retract every fact naming a constant,
  // so it leaves the domain. Random programs get a rule pair that
  // enumerates the domain under negation, so a stale domain shows in the
  // answers. Two engines per config share one MemoBoard and take every
  // commit as the server pool does; after each, both must answer like a
  // fresh engine over the mutated database, and (validate_contexts) each
  // ApplyBaseDelta checks its maintained domain against ComputeDomain.
  const char* const kConfigs[] = {"tabled", "stratified", "bottomup"};
  RandomProgramOptions options;
  options.num_rules = 5;
  options.hypothetical_probability = 0.2;
  options.negation_probability = 0.4;
  EngineOptions engine_options;
  engine_options.max_states = 40'000;
  engine_options.max_steps = 300'000;
  EngineOptions live_options = engine_options;
  live_options.validate_contexts = true;

  int compared = 0;
  int grew = 0;
  int shrank = 0;
  for (const std::string config : kConfigs) {
    for (uint64_t seed = 800; seed < 840; ++seed) {
      Random rng(seed);
      ProgramFixture fixture = MakeRandomProgram(options, &rng);
      SymbolTable& symbols = *fixture.symbols;
      auto domain_rules = ParseRuleBase(
          "r(X) <- ~s(X).\nall_s <- ~r(X).\n", fixture.symbols);
      ASSERT_TRUE(domain_rules.ok()) << domain_rules.status();
      ASSERT_TRUE(fixture.rules.Merge(*domain_rules).ok());
      const PredicateId s_pred = symbols.FindPredicate("s");
      for (int c = 0; c < options.num_constants; c += 2) {
        fixture.db.Insert(
            Fact{s_pred, {symbols.FindConst("c" + std::to_string(c))}});
      }
      if (config == "stratified" &&
          !CheckLinearlyStratifiable(fixture.rules).ok()) {
        continue;
      }
      const std::string label = config + " seed " + std::to_string(seed);
      MemoBoard board;
      std::unique_ptr<Engine> live[2];
      for (auto& engine : live) {
        engine = MakeEngine(config, &fixture.rules, &fixture.db, live_options)
                     .value();
        ASSERT_TRUE(engine->Init().ok()) << label;
        engine->AttachMemoBoard(&board);
      }
      int fresh_constants = 0;
      bool skipped = false;
      for (int step = 0; step < 6 && !skipped; ++step) {
        const std::vector<ConstId> before =
            ComputeDomain(fixture.rules, fixture.db);
        BaseDelta delta;
        std::vector<Fact> retracts;
        if (step % 2 == 0) {
          // New constants: s(nK), and an EDB fact naming nK next to an
          // existing constant.
          const ConstId fresh =
              symbols.InternConst("n" + std::to_string(fresh_constants++));
          Fact named{s_pred, {fresh}};
          if (rng.Uniform(2) == 0 && fixture.db.Insert(named)) {
            delta.inserts.push_back(named);
          }
          Fact edb = RandomGroundFact(symbols, "e", options.num_edb_predicates,
                                      options.num_constants, &rng);
          if (edb.predicate != kInvalidPredicate && !edb.args.empty()) {
            edb.args[rng.Uniform(edb.args.size())] = fresh;
            if (fixture.db.Insert(edb)) delta.inserts.push_back(edb);
          }
        } else {
          // A constant's last occurrences: every stored fact naming it.
          std::vector<ConstId> named(fixture.db.constants().begin(),
                                     fixture.db.constants().end());
          std::sort(named.begin(), named.end());
          if (!named.empty()) {
            const ConstId gone = named[rng.Uniform(named.size())];
            fixture.db.ForEach([&](const Fact& f) {
              if (std::count(f.args.begin(), f.args.end(), gone) > 0) {
                retracts.push_back(f);
              }
            });
          }
        }
        // Some commits also retract an ordinary fact.
        if (rng.Uniform(3) == 0 && !fixture.db.empty()) {
          std::vector<Fact> pool;
          fixture.db.ForEach([&](const Fact& f) { pool.push_back(f); });
          retracts.push_back(pool[rng.Uniform(pool.size())]);
        }
        std::sort(retracts.begin(), retracts.end());
        retracts.erase(std::unique(retracts.begin(), retracts.end()),
                       retracts.end());
        ASSERT_EQ(fixture.db.RetractBatch(retracts),
                  static_cast<int64_t>(retracts.size()));
        delta.retracts = retracts;
        const std::vector<ConstId> after =
            ComputeDomain(fixture.rules, fixture.db);
        grew += after.size() > before.size();
        shrank += after.size() < before.size();

        board.BeginEpoch(step + 1);
        for (auto& engine : live) {
          Status applied = engine->ApplyBaseDelta(delta);
          ASSERT_TRUE(applied.ok()) << label << " step " << step << ": "
                                    << applied;
        }
        std::unique_ptr<Engine> fresh =
            MakeEngine(config, &fixture.rules, &fixture.db, engine_options)
                .value();
        auto expected = AnswerAll(fresh.get(), fixture.rules);
        if (!expected.ok()) {
          ASSERT_EQ(expected.status().code(), StatusCode::kResourceExhausted);
          skipped = true;
          break;
        }
        // Either pooled engine may serve first and publish to the board.
        for (int k = 0; k < 2; ++k) {
          Engine* engine = live[(step + k) % 2].get();
          auto got = AnswerAll(engine, fixture.rules);
          if (!got.ok()) {
            ASSERT_EQ(got.status().code(), StatusCode::kResourceExhausted);
            skipped = true;
            break;
          }
          EXPECT_EQ(*got, *expected)
              << label << " step " << step << " engine " << k
              << " diverged after " << delta.inserts.size() << " inserts / "
              << delta.retracts.size() << " retracts, program:\n"
              << RuleBaseToString(fixture.rules);
          ++compared;
        }
      }
    }
  }
  std::printf("[domain commits] compared=%d grew=%d shrank=%d\n", compared,
              grew, shrank);
  EXPECT_GE(compared, 500) << "too many programs skipped on resource limits";
  EXPECT_GE(grew, 50) << "too few commits grew the domain";
  EXPECT_GE(shrank, 50) << "too few commits shrank the domain";
}

/// Sorted answers of `query`, or nullopt (a skip) on a resource trip.
std::optional<std::vector<Tuple>> SortedAnswers(Engine* engine,
                                                const Query& query,
                                                const std::string& label) {
  auto answers = engine->Answers(query);
  if (!answers.ok()) {
    EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted)
        << label << ": " << answers.status();
    return std::nullopt;
  }
  std::sort(answers->begin(), answers->end());
  return *std::move(answers);
}

/// Query-level what-ifs `p(V0, ...)[add: 1-3 facts]` on a warm bottom-up
/// engine, with random base commits in between, so child states derive
/// from freshly repaired base models as well as from computed ones. Each
/// what-if must answer like the reference evaluator and like a fresh
/// engine over the database plus the additions. Returns the number of
/// what-ifs compared; adds the live engines' derived children to
/// `*derived`.
int DerivedWhatIfsAgree(uint64_t first_seed, int count, int64_t* derived) {
  RandomProgramOptions options;
  options.num_rules = 6;
  options.hypothetical_probability = 0.0;
  options.negation_probability = 0.45;
  EngineOptions engine_options;
  engine_options.max_states = 40'000;
  engine_options.max_steps = 3'000'000;
  int compared = 0;
  for (uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);
    const SymbolTable& symbols = *fixture.symbols;
    const std::vector<ConstId> domain = AllConstants(symbols);
    BottomUpEngine live(&fixture.rules, &fixture.db, engine_options);
    if (!PinDomain(&live, fixture.rules, domain).ok()) continue;
    auto random_fact = [&](bool idb) {
      return idb ? RandomGroundFact(symbols, "p", options.num_idb_predicates,
                                    options.num_constants, &rng)
                 : RandomGroundFact(symbols, "e", options.num_edb_predicates,
                                    options.num_constants, &rng);
    };
    for (int step = 0; step < 4; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (step > 0) {
        // A commit of 1-2 changes, repaired in place; one fact may
        // change twice.
        BaseDelta delta;
        for (int k = 0; k < 1 + static_cast<int>(rng.Uniform(2)); ++k) {
          Fact f = random_fact(rng.Uniform(4) == 0);
          if (f.predicate == kInvalidPredicate) continue;
          if (rng.Uniform(2) == 0 && fixture.db.Retract(f)) {
            delta.retracts.push_back(f);
          } else if (fixture.db.Insert(f)) {
            delta.inserts.push_back(f);
          }
        }
        Status applied = live.ApplyBaseDelta(delta);
        if (!applied.ok()) {
          ADD_FAILURE() << label << ": " << applied;
          return compared;
        }
        // A retraction can drop a constant from dom(R, DB); pin it again
        // (the base model stays as repaired unless the domain changed).
        if (!PinDomain(&live, fixture.rules, domain).ok()) break;
      }
      for (int w = 0; w < 3; ++w) {
        Fact queried = random_fact(true);
        if (queried.predicate == kInvalidPredicate) break;
        Query whatif;
        Query plain;
        Atom atom{queried.predicate, {}};
        for (size_t i = 0; i < queried.args.size(); ++i) {
          atom.args.push_back(Term::MakeVar(static_cast<VarIndex>(i)));
          whatif.var_names.push_back("V" + std::to_string(i));
        }
        plain.var_names = whatif.var_names;
        plain.premises.push_back(Premise::Positive(atom));
        std::vector<Atom> additions;
        Database extended = fixture.db.Clone();
        std::string added_text;
        for (int k = 0; k < 1 + static_cast<int>(rng.Uniform(3)); ++k) {
          Fact f = random_fact(rng.Uniform(3) == 0);
          if (f.predicate == kInvalidPredicate) continue;
          Atom a{f.predicate, {}};
          for (ConstId c : f.args) a.args.push_back(Term::MakeConst(c));
          additions.push_back(std::move(a));
          extended.Insert(f);
          added_text += " " + FactToString(f, symbols);
        }
        if (additions.empty()) continue;
        whatif.premises.push_back(Premise::Hypothetical(atom, additions));
        const std::string what = label + " what-if " +
                                 symbols.PredicateName(queried.predicate) +
                                 " [add:" + added_text + "]";
        auto got = SortedAnswers(&live, whatif, what);
        if (!got) continue;
        ReferenceEngine reference(&fixture.rules, &fixture.db, domain);
        auto expected = SortedAnswers(&reference, whatif, what);
        if (!expected) continue;
        BottomUpEngine fresh(&fixture.rules, &extended, engine_options);
        if (!PinDomain(&fresh, fixture.rules, domain).ok()) continue;
        auto scratch = SortedAnswers(&fresh, plain, what);
        if (!scratch) continue;
        EXPECT_EQ(*got, *expected) << what << " vs reference, program:\n"
                                   << RuleBaseToString(fixture.rules);
        EXPECT_EQ(*got, *scratch) << what << " vs fresh engine, program:\n"
                                  << RuleBaseToString(fixture.rules);
        ++compared;
      }
    }
    *derived += live.stats().states_derived;
  }
  return compared;
}

TEST(DifferentialTest, DerivedChildWhatIfsMatchReferenceAndScratch) {
  int64_t derived = 0;
  EXPECT_GE(DerivedWhatIfsAgree(700, 60, &derived), 400);
  EXPECT_GT(derived, 0) << "no what-if derived its child state";
}

TEST(PermuteDatabaseTest, RenamesFacts) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db(symbols);
  ASSERT_TRUE(db.Insert("edge", {"a", "b"}).ok());
  ConstId a = symbols->FindConst("a");
  ConstId b = symbols->FindConst("b");
  std::vector<ConstId> permutation(symbols->num_consts());
  permutation[a] = b;
  permutation[b] = a;
  Database renamed = PermuteDatabaseConstants(db, permutation);
  Fact swapped;
  swapped.predicate = symbols->FindPredicate("edge");
  swapped.args = {b, a};
  EXPECT_TRUE(renamed.Contains(swapped));
  EXPECT_EQ(renamed.size(), 1);
}

}  // namespace
}  // namespace hypo
