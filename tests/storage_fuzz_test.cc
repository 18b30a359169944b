#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/stratification.h"
#include "ast/printer.h"
#include "base/random.h"
#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "workload/random_programs.h"

namespace hypo {
namespace {

// Differential fuzzing of the two storage backends (columnar flat
// storage vs the reference hash path): identical contents, identical
// probe answers in identical order, identical engine results, across
// insert/retract interleavings and Seal/Unseal/epoch cycles.

Database CopyWithBackend(const Database& src,
                         std::shared_ptr<SymbolTable> symbols,
                         StorageBackend backend) {
  Database out(std::move(symbols), backend);
  src.ForEach([&](const Fact& f) { out.Insert(f); });
  return out;
}

/// Every tuple of `pred` whose `mask` columns equal `key`, by full scan
/// in insertion order — the specification ProbeIndex must match.
std::vector<Tuple> BruteForceProbe(const Database& db, PredicateId pred,
                                   ColumnMask mask, const Tuple& key) {
  std::vector<Tuple> out;
  const Database::RowsView rows = db.TuplesFor(pred);
  for (size_t r = 0; r < rows.size(); ++r) {
    Tuple t = rows.TupleAt(r);
    size_t k = 0;
    bool match = true;
    for (size_t col = 0; col < t.size(); ++col) {
      if ((mask >> col) & 1u) {
        if (t[col] != key[k++]) {
          match = false;
          break;
        }
      }
    }
    if (match) out.push_back(std::move(t));
  }
  return out;
}

/// Resolves a ProbeIndex answer to materialized tuples; a ScanAllMarker
/// resolves through the brute-force scan (that is its contract).
std::vector<Tuple> ResolveProbe(const Database& db, PredicateId pred,
                                ColumnMask mask, const Tuple& key) {
  Database::RowRange range = db.ProbeIndex(pred, mask, key);
  if (range.scan_all) return BruteForceProbe(db, pred, mask, key);
  std::vector<Tuple> out;
  const Database::RowsView rows = db.TuplesFor(pred);
  out.reserve(range.count);
  for (size_t i = 0; i < range.count; ++i) {
    out.push_back(rows.TupleAt(static_cast<size_t>(range.data[i])));
  }
  return out;
}

Fact RandomFact(const SymbolTable& symbols, PredicateId pred, int num_consts,
                Random* rng) {
  Fact f;
  f.predicate = pred;
  for (int i = 0; i < symbols.PredicateArity(pred); ++i) {
    f.args.push_back(static_cast<ConstId>(rng->Uniform(num_consts)));
  }
  return f;
}

/// Both backends, driven through the same random insert/retract
/// interleaving with Seal/Unseal epoch cycles, must agree with each
/// other and with the brute-force scan on every probe.
TEST(StorageFuzzTest, ProbesMatchBruteForceAcrossInterleavings) {
  constexpr int kNumConsts = 6;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Random rng(900 + seed);
    auto symbols = std::make_shared<SymbolTable>();
    std::vector<PredicateId> preds;
    for (int arity = 0; arity <= 3; ++arity) {
      preds.push_back(
          *symbols->InternPredicate("r" + std::to_string(arity), arity));
    }
    for (int c = 0; c < kNumConsts; ++c) {
      symbols->InternConst("c" + std::to_string(c));
    }
    Database columnar(symbols, StorageBackend::kColumnar);
    Database hash(symbols, StorageBackend::kReferenceHash);

    std::vector<Fact> live;
    for (int step = 0; step < 120; ++step) {
      // Mutate both databases identically.
      if (!live.empty() && rng.Bernoulli(0.35)) {
        size_t victim = rng.Uniform(live.size());
        Fact f = live[victim];
        live.erase(live.begin() + victim);
        ASSERT_TRUE(columnar.Retract(f));
        ASSERT_TRUE(hash.Retract(f));
      } else {
        PredicateId pred = preds[rng.Uniform(preds.size())];
        Fact f = RandomFact(*symbols, pred, kNumConsts, &rng);
        bool fresh = columnar.Insert(f);
        ASSERT_EQ(fresh, hash.Insert(f)) << "duplicate detection diverged";
        if (fresh) live.push_back(f);
      }
      ASSERT_EQ(columnar.size(), hash.size());
      ASSERT_EQ(columnar.constants(), hash.constants())
          << "tracked constant domains diverged at step " << step;

      // Every few steps, run an epoch cycle: prepare + seal (sorted on
      // the columnar side), probe sealed, then unseal.
      bool sealed_phase = step % 7 == 6;
      if (sealed_phase) {
        columnar.EnableSortedIndexes();
        for (Database* db : {&columnar, &hash}) {
          for (PredicateId pred : preds) {
            int arity = symbols->PredicateArity(pred);
            for (ColumnMask mask = 1;
                 mask < (1u << arity); ++mask) {
              db->PrepareIndex(pred, mask);
            }
          }
          db->SealIndexes();
        }
      }

      // Random probes: both backends match the brute-force scan exactly,
      // including result order (insertion order within the match set).
      for (int probe = 0; probe < 4; ++probe) {
        PredicateId pred = preds[rng.Uniform(preds.size())];
        int arity = symbols->PredicateArity(pred);
        if (arity == 0) continue;
        ColumnMask mask =
            1u + static_cast<ColumnMask>(rng.Uniform((1u << arity) - 1));
        Tuple key;
        for (int col = 0; col < arity; ++col) {
          if ((mask >> col) & 1u) {
            key.push_back(static_cast<ConstId>(rng.Uniform(kNumConsts)));
          }
        }
        std::vector<Tuple> expect = BruteForceProbe(columnar, pred, mask, key);
        EXPECT_EQ(ResolveProbe(columnar, pred, mask, key), expect)
            << "columnar probe diverged, seed " << seed << " step " << step;
        EXPECT_EQ(ResolveProbe(hash, pred, mask, key), expect)
            << "hash probe diverged, seed " << seed << " step " << step;
      }

      if (sealed_phase) {
        columnar.UnsealIndexes();
        hash.UnsealIndexes();
      }
    }
    // Byte accounting differs by design — exact arena bytes on the
    // columnar side, the conservative per-fact estimate on the hash
    // side — but both must be positive while facts are stored and the
    // columnar figure must equal its own arena report.
    if (!live.empty()) {
      EXPECT_GT(columnar.ApproxBytes(), 0);
      EXPECT_GT(hash.ApproxBytes(), 0);
      EXPECT_GT(columnar.ArenaBytes(), 0);
    }
    EXPECT_EQ(hash.ArenaBytes(), 0) << "reference backend has no arena";
  }
}

/// ClearRelation behaves identically on both backends, including the
/// tracked constant domain and subsequent probes.
TEST(StorageFuzzTest, ClearRelationParity) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Random rng(7100 + seed);
    auto symbols = std::make_shared<SymbolTable>();
    PredicateId p = *symbols->InternPredicate("p", 2);
    PredicateId q = *symbols->InternPredicate("q", 1);
    for (int c = 0; c < 5; ++c) symbols->InternConst("c" + std::to_string(c));
    Database columnar(symbols, StorageBackend::kColumnar);
    Database hash(symbols, StorageBackend::kReferenceHash);
    for (int i = 0; i < 30; ++i) {
      PredicateId pred = rng.Bernoulli(0.5) ? p : q;
      Fact f = RandomFact(*symbols, pred, 5, &rng);
      ASSERT_EQ(columnar.Insert(f), hash.Insert(f));
    }
    ASSERT_EQ(columnar.ClearRelation(p), hash.ClearRelation(p));
    EXPECT_EQ(columnar.size(), hash.size());
    EXPECT_EQ(columnar.constants(), hash.constants());
    EXPECT_TRUE(columnar.TuplesFor(p).empty());
    ConstId c0 = symbols->FindConst("c0");
    EXPECT_EQ(ResolveProbe(columnar, q, 0b1, {c0}),
              ResolveProbe(hash, q, 0b1, {c0}));
  }
}

/// All three engine families derive bit-identical models on both storage
/// backends.
TEST(StorageFuzzTest, EnginesBitIdenticalAcrossBackends) {
  RandomProgramOptions options;
  options.num_rules = 6;
  options.negation_probability = 0.2;
  options.hypothetical_probability = 0.25;

  const StorageBackend kBackends[] = {StorageBackend::kColumnar,
                                      StorageBackend::kReferenceHash};
  int programs_checked = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);

    EngineOptions eo;
    eo.max_states = 40'000;
    eo.max_steps = 3'000'000;

    // Reference: bottom-up, columnar. FactsFor returns the
    // model's tuples in derivation order, so comparing the vectors (not
    // sets) checks bit-identical iteration order across backends.
    Database columnar_db =
        CopyWithBackend(fixture.db, fixture.symbols, StorageBackend::kColumnar);
    BottomUpEngine reference(&fixture.rules, &columnar_db, eo);
    if (!reference.Init().ok()) continue;

    std::vector<PredicateId> idb;
    for (int pred = 0; pred < fixture.symbols->num_predicates(); ++pred) {
      if (fixture.rules.IsDefined(pred)) idb.push_back(pred);
    }
    bool skipped = false;
    std::vector<std::vector<Tuple>> expect;
    for (PredicateId pred : idb) {
      auto facts = reference.FactsFor(pred);
      if (!facts.ok()) {
        ASSERT_EQ(facts.status().code(), StatusCode::kResourceExhausted);
        skipped = true;
        break;
      }
      expect.push_back(*std::move(facts));
    }
    if (skipped) continue;

    for (StorageBackend backend : kBackends) {
      Database db = CopyWithBackend(fixture.db, fixture.symbols, backend);
      BottomUpEngine engine(&fixture.rules, &db, eo);
      ASSERT_TRUE(engine.Init().ok());
      for (size_t i = 0; i < idb.size(); ++i) {
        auto facts = engine.FactsFor(idb[i]);
        ASSERT_TRUE(facts.ok()) << facts.status();
        EXPECT_EQ(*facts, expect[i])
            << "seed " << seed << " backend "
            << (backend == StorageBackend::kColumnar ? "columnar" : "hash")
            << " diverged on " << fixture.symbols->PredicateName(idb[i])
            << "\n"
            << RuleBaseToString(fixture.rules);
      }

      // The top-down engines must prove exactly the reference model's
      // facts (and nothing checkable beyond it diverges — spot-check
      // with the derived facts themselves).
      TabledEngine tabled(&fixture.rules, &db, eo);
      std::unique_ptr<StratifiedProver> stratified;
      if (CheckLinearlyStratifiable(fixture.rules).ok()) {
        stratified =
            std::make_unique<StratifiedProver>(&fixture.rules, &db, eo);
      }
      for (size_t i = 0; i < idb.size() && !skipped; ++i) {
        for (const Tuple& args : expect[i]) {
          Fact f;
          f.predicate = idb[i];
          f.args = args;
          auto proved = tabled.ProveFact(f);
          if (!proved.ok()) {
            skipped = true;
            break;
          }
          EXPECT_TRUE(*proved) << "tabled missed a model fact, seed "
                               << seed;
          if (stratified != nullptr) {
            auto sp = stratified->ProveFact(f);
            if (sp.ok()) {
              EXPECT_TRUE(*sp) << "stratified missed a model fact, seed "
                               << seed;
            }
          }
        }
      }
    }
    ++programs_checked;
  }
  EXPECT_GE(programs_checked, 5)
      << "too many programs skipped on resource limits to be meaningful";
}

/// Incremental base-fact maintenance (the server epoch path) stays
/// bit-identical across backends under insert/retract interleavings.
TEST(StorageFuzzTest, ApplyBaseDeltaParityAcrossBackends) {
  RandomProgramOptions options;
  options.num_rules = 5;
  options.negation_probability = 0.2;
  options.hypothetical_probability = 0.2;

  for (uint64_t seed = 200; seed < 206; ++seed) {
    Random rng(seed);
    ProgramFixture fixture = MakeRandomProgram(options, &rng);

    EngineOptions eo;
    eo.max_states = 40'000;
    eo.max_steps = 3'000'000;

    Database columnar_db =
        CopyWithBackend(fixture.db, fixture.symbols, StorageBackend::kColumnar);
    Database hash_db = CopyWithBackend(fixture.db, fixture.symbols,
                                       StorageBackend::kReferenceHash);
    BottomUpEngine columnar_engine(&fixture.rules, &columnar_db, eo);
    BottomUpEngine hash_engine(&fixture.rules, &hash_db, eo);
    if (!columnar_engine.Init().ok() || !hash_engine.Init().ok()) continue;

    std::vector<PredicateId> idb;
    for (int pred = 0; pred < fixture.symbols->num_predicates(); ++pred) {
      if (fixture.rules.IsDefined(pred)) idb.push_back(pred);
    }

    std::vector<Fact> live;
    columnar_db.ForEach([&](const Fact& f) { live.push_back(f); });
    bool skipped = false;
    for (int step = 0; step < 4 && !skipped; ++step) {
      BaseDelta delta;
      int batch = 1 + static_cast<int>(rng.Uniform(3));
      for (int k = 0; k < batch; ++k) {
        if (!live.empty() && rng.Bernoulli(0.4)) {
          size_t victim = rng.Uniform(live.size());
          Fact f = live[victim];
          live.erase(live.begin() + victim);
          ASSERT_TRUE(columnar_db.Retract(f));
          ASSERT_TRUE(hash_db.Retract(f));
          delta.retracts.push_back(f);
        } else {
          PredicateId pred = static_cast<PredicateId>(
              rng.Uniform(fixture.symbols->num_predicates()));
          Fact f = RandomFact(*fixture.symbols, pred,
                              options.num_constants, &rng);
          if (!columnar_db.Insert(f)) {
            hash_db.Insert(f);  // Keep the two databases in lockstep.
            continue;
          }
          ASSERT_TRUE(hash_db.Insert(f));
          live.push_back(f);
          delta.inserts.push_back(f);
        }
      }
      if (!columnar_engine.ApplyBaseDelta(delta).ok() ||
          !hash_engine.ApplyBaseDelta(delta).ok()) {
        skipped = true;
        break;
      }
      for (PredicateId pred : idb) {
        auto lhs = columnar_engine.FactsFor(pred);
        auto rhs = hash_engine.FactsFor(pred);
        if (!lhs.ok() || !rhs.ok()) {
          skipped = true;
          break;
        }
        EXPECT_EQ(*lhs, *rhs)
            << "backends diverged after delta, seed " << seed << " step "
            << step << "\n" << RuleBaseToString(fixture.rules);
      }
    }
  }
}

// HYPO_STORAGE selects the backend process-wide; a typo must fail fast
// (the CLI and the server refuse to start), never silently evaluate on
// the default backend. Both valid spellings and the unset/empty forms
// must pass.
TEST(StorageFuzzTest, ValidateStorageEnvAcceptsOnlyKnownBackends) {
  const char* saved = std::getenv("HYPO_STORAGE");
  std::string saved_value = saved != nullptr ? saved : "";

  for (const char* good : {"columnar", "hash", ""}) {
    ASSERT_EQ(setenv("HYPO_STORAGE", good, 1), 0);
    Status s = Database::ValidateStorageEnv();
    EXPECT_TRUE(s.ok()) << "\"" << good << "\": " << s;
  }
  ASSERT_EQ(unsetenv("HYPO_STORAGE"), 0);
  EXPECT_TRUE(Database::ValidateStorageEnv().ok());

  for (const char* bad : {"colmnar", "HASH", "columnar ", "rowwise"}) {
    ASSERT_EQ(setenv("HYPO_STORAGE", bad, 1), 0);
    Status s = Database::ValidateStorageEnv();
    ASSERT_FALSE(s.ok()) << "accepted \"" << bad << "\"";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
    EXPECT_NE(s.message().find(bad), std::string::npos)
        << "the offending value should be echoed: " << s;
  }

  if (saved != nullptr) {
    ASSERT_EQ(setenv("HYPO_STORAGE", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("HYPO_STORAGE"), 0);
  }
}

}  // namespace
}  // namespace hypo
