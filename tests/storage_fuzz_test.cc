#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "base/random.h"
#include "db/database.h"

namespace hypo {
namespace {

// Differential fuzzing of Database against a test-local model: per
// predicate, the live tuples in insertion order — the order Retract's
// order-preserving contract promises. Two databases run in lockstep
// through random insert/retract interleavings and Seal/Unseal epoch
// cycles: one seals sorted permutation indexes, the other serves its
// sealed probes from hash buckets. Contents, constants(), and every probe
// answer (rows and their order) are computed from the model alone.

using Model = std::map<PredicateId, std::vector<Tuple>>;

bool MatchesKey(const Tuple& t, ColumnMask mask, const Tuple& key) {
  size_t k = 0;
  for (size_t col = 0; col < t.size(); ++col) {
    if (((mask >> col) & 1u) && t[col] != key[k++]) return false;
  }
  return true;
}

/// The model's answer to a probe: every live tuple of `pred` whose `mask`
/// columns equal `key`, in insertion order.
std::vector<Tuple> ModelProbe(const Model& model, PredicateId pred,
                              ColumnMask mask, const Tuple& key) {
  std::vector<Tuple> out;
  auto it = model.find(pred);
  if (it == model.end()) return out;
  for (const Tuple& t : it->second) {
    if (MatchesKey(t, mask, key)) out.push_back(t);
  }
  return out;
}

std::unordered_set<ConstId> ModelConstants(const Model& model) {
  std::unordered_set<ConstId> out;
  for (const auto& [pred, tuples] : model) {
    (void)pred;
    for (const Tuple& t : tuples) out.insert(t.begin(), t.end());
  }
  return out;
}

std::vector<Tuple> Rows(const Database& db, PredicateId pred) {
  std::vector<Tuple> out;
  const Database::RowsView rows = db.TuplesFor(pred);
  for (size_t r = 0; r < rows.size(); ++r) out.push_back(rows.TupleAt(r));
  return out;
}

/// Resolves a ProbeIndex answer to materialized tuples; a ScanAllMarker
/// resolves through a filtered scan of the database's rows (that is its
/// contract).
std::vector<Tuple> ResolveProbe(const Database& db, PredicateId pred,
                                ColumnMask mask, const Tuple& key) {
  Database::RowRange range = db.ProbeIndex(pred, mask, key);
  std::vector<Tuple> out;
  if (range.scan_all) {
    for (Tuple& t : Rows(db, pred)) {
      if (MatchesKey(t, mask, key)) out.push_back(std::move(t));
    }
    return out;
  }
  const Database::RowsView rows = db.TuplesFor(pred);
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

/// Both databases, driven through the same random insert/retract
/// interleaving with Seal/Unseal epoch cycles, must hold the model's rows
/// in the model's order and answer every probe as the model does.
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
    Database sorted(symbols);
    sorted.EnableSortedIndexes();
    Database bucket(symbols);
    Model model;
    std::vector<Fact> live;

    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      // Mutate the model and both databases identically.
      if (!live.empty() && rng.Bernoulli(0.35)) {
        size_t victim = rng.Uniform(live.size());
        Fact f = live[victim];
        live.erase(live.begin() + victim);
        std::vector<Tuple>& tuples = model[f.predicate];
        tuples.erase(std::find(tuples.begin(), tuples.end(), f.args));
        ASSERT_TRUE(sorted.Retract(f));
        ASSERT_TRUE(bucket.Retract(f));
      } else {
        PredicateId pred = preds[rng.Uniform(preds.size())];
        Fact f = RandomFact(*symbols, pred, kNumConsts, &rng);
        std::vector<Tuple>& tuples = model[pred];
        const bool fresh =
            std::find(tuples.begin(), tuples.end(), f.args) == tuples.end();
        if (fresh) {
          tuples.push_back(f.args);
          live.push_back(f);
        }
        ASSERT_EQ(sorted.Insert(f), fresh) << "duplicate detection diverged";
        ASSERT_EQ(bucket.Insert(f), fresh) << "duplicate detection diverged";
      }
      const std::unordered_set<ConstId> constants = ModelConstants(model);
      for (const Database* db : {&sorted, &bucket}) {
        ASSERT_EQ(db->size(), static_cast<int64_t>(live.size()));
        ASSERT_EQ(db->constants(), constants)
            << "tracked constant domain diverged from the model";
        for (PredicateId pred : preds) {
          ASSERT_EQ(Rows(*db, pred), model[pred])
              << "rows diverged from insertion order on "
              << symbols->PredicateName(pred);
        }
      }

      // Every few steps, run an epoch cycle: prepare + seal, probe
      // sealed, then unseal.
      const bool sealed_phase = step % 7 == 6;
      if (sealed_phase) {
        for (Database* db : {&sorted, &bucket}) {
          for (PredicateId pred : preds) {
            int arity = symbols->PredicateArity(pred);
            for (ColumnMask mask = 1; mask < (1u << arity); ++mask) {
              db->PrepareIndex(pred, mask);
            }
          }
          db->SealIndexes();
        }
      }

      // Random probes: both databases match the model exactly, including
      // result order (insertion order within the match set).
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
        const std::vector<Tuple> expect = ModelProbe(model, pred, mask, key);
        if (sealed_phase) {
          // Every mask was prepared: a sealed probe is index-served.
          EXPECT_FALSE(sorted.ProbeIndex(pred, mask, key).scan_all);
          EXPECT_FALSE(bucket.ProbeIndex(pred, mask, key).scan_all);
        }
        EXPECT_EQ(ResolveProbe(sorted, pred, mask, key), expect)
            << "sorted-seal probe diverged";
        EXPECT_EQ(ResolveProbe(bucket, pred, mask, key), expect)
            << "bucket probe diverged";
      }

      if (sealed_phase) {
        sorted.UnsealIndexes();
        bucket.UnsealIndexes();
      }
    }
    if (!live.empty()) {
      for (const Database* db : {&sorted, &bucket}) {
        EXPECT_GT(db->ApproxBytes(), 0);
        EXPECT_GT(db->ArenaBytes(), 0);
      }
    }
  }
}

/// Retraction patches indexes in place. Single and batched retractions
/// (duplicates and absent facts included), inserts, seals and unseals
/// interleave on a sorted-seal and a bucket-probed database. After every
/// step each live tuple is found and each retracted one is not, every
/// registered mask answers as the model does in insertion order — served
/// by an index whenever sealed, with no re-preparation since the mask was
/// registered — and right after a sorted seal every byte is exact. Batches
/// draw up to 16 rows from one relation, so the dedup table renumbers both
/// ways (fused up to ColumnStore::kMaxFused rows, else through a RowIdMap)
/// and the map shifts many runs of survivors by different amounts.
TEST(StorageFuzzTest, RetractionsPatchIndexesAcrossBatchesAndSeals) {
  constexpr int kNumConsts = 5;
  // Batches that erased at least this many rows of one relation.
  constexpr int kLargeBatch = 8;
  int large_batches = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Random rng(4200 + seed);
    auto symbols = std::make_shared<SymbolTable>();
    std::vector<PredicateId> preds;
    for (int arity = 1; arity <= 3; ++arity) {
      preds.push_back(
          *symbols->InternPredicate("r" + std::to_string(arity), arity));
    }
    for (int c = 0; c < kNumConsts; ++c) {
      symbols->InternConst("c" + std::to_string(c));
    }
    Database sorted(symbols);
    sorted.EnableSortedIndexes();
    Database bucket(symbols);
    Model model;
    std::vector<Fact> live;
    std::vector<Fact> gone;
    // Registered masks survive retraction; an emptied relation is
    // dropped with its registrations.
    std::map<PredicateId, bool> registered;
    bool sealed = false;

    for (int step = 0; step < 150; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const uint64_t action = rng.Uniform(10);
      if (action < 4) {
        for (int k = 1 + static_cast<int>(rng.Uniform(10)); k > 0; --k) {
          PredicateId pred = preds[rng.Uniform(preds.size())];
          Fact f = RandomFact(*symbols, pred, kNumConsts, &rng);
          std::vector<Tuple>& tuples = model[pred];
          const bool fresh =
              std::find(tuples.begin(), tuples.end(), f.args) == tuples.end();
          if (fresh) {
            tuples.push_back(f.args);
            live.push_back(f);
          }
          ASSERT_EQ(sorted.Insert(f), fresh);
          ASSERT_EQ(bucket.Insert(f), fresh);
        }
        sealed = false;
      } else if (action < 8 && !live.empty()) {
        // A single retraction, or a batch of up to 16 drawn from one
        // relation while it lasts and then from any, with a duplicate and
        // an absent fact mixed in.
        std::vector<Fact> batch;
        const bool single = action < 6;
        const PredicateId focus = live[rng.Uniform(live.size())].predicate;
        for (int k = single ? 1 : 1 + static_cast<int>(rng.Uniform(16));
             k > 0 && !live.empty(); --k) {
          std::vector<size_t> pool;
          for (size_t i = 0; i < live.size(); ++i) {
            if (live[i].predicate == focus) pool.push_back(i);
          }
          const size_t victim = pool.empty()
                                    ? rng.Uniform(live.size())
                                    : pool[rng.Uniform(pool.size())];
          batch.push_back(live[victim]);
          live.erase(live.begin() + victim);
        }
        if (std::count_if(batch.begin(), batch.end(), [&](const Fact& f) {
              return f.predicate == focus;
            }) >= kLargeBatch) {
          ++large_batches;
        }
        for (const Fact& f : batch) {
          std::vector<Tuple>& tuples = model[f.predicate];
          tuples.erase(std::find(tuples.begin(), tuples.end(), f.args));
          if (tuples.empty()) registered[f.predicate] = false;
          gone.push_back(f);
        }
        const int64_t expect = static_cast<int64_t>(batch.size());
        if (single) {
          ASSERT_TRUE(sorted.Retract(batch[0]));
          ASSERT_TRUE(bucket.Retract(batch[0]));
        } else {
          batch.push_back(batch[0]);
          batch.push_back(RandomFact(*symbols, preds[0], kNumConsts, &rng));
          if (std::find(live.begin(), live.end(), batch.back()) !=
              live.end()) {
            batch.pop_back();  // Present after all: not absent.
          }
          ASSERT_EQ(sorted.RetractBatch(batch), expect);
          ASSERT_EQ(bucket.RetractBatch(batch), expect);
        }
        sealed = false;
      } else if (action < 9) {
        for (Database* db : {&sorted, &bucket}) {
          for (PredicateId pred : preds) {
            if (registered[pred] || model[pred].empty()) continue;
            const int arity = symbols->PredicateArity(pred);
            for (ColumnMask mask = 1; mask < (1u << arity); ++mask) {
              db->PrepareIndex(pred, mask);
            }
          }
        }
        for (PredicateId pred : preds) {
          if (!model[pred].empty()) registered[pred] = true;
        }
        sorted.SealIndexes();
        bucket.SealIndexes();
        EXPECT_EQ(sorted.ArenaBytes(), sorted.ApproxBytes())
            << "a sorted seal must leave every byte exactly counted";
        sealed = true;
      } else {
        sorted.UnsealIndexes();
        bucket.UnsealIndexes();
        sealed = false;
      }

      for (const Database* db : {&sorted, &bucket}) {
        ASSERT_EQ(db->size(), static_cast<int64_t>(live.size()));
        ASSERT_EQ(db->constants(), ModelConstants(model));
        for (const Fact& f : live) ASSERT_TRUE(db->Contains(f));
        for (const Fact& f : gone) {
          const std::vector<Tuple>& tuples = model[f.predicate];
          if (std::find(tuples.begin(), tuples.end(), f.args) ==
              tuples.end()) {
            ASSERT_FALSE(db->Contains(f));
          }
        }
        for (PredicateId pred : preds) {
          ASSERT_EQ(Rows(*db, pred), model[pred]);
          if (!registered[pred]) continue;
          const int arity = symbols->PredicateArity(pred);
          for (ColumnMask mask = 1; mask < (1u << arity); ++mask) {
            // One probe per key of a live tuple, and one that may miss.
            std::vector<Tuple> keys;
            for (const Tuple& t : model[pred]) {
              Tuple key;
              for (int col = 0; col < arity; ++col) {
                if ((mask >> col) & 1u) key.push_back(t[col]);
              }
              keys.push_back(std::move(key));
            }
            Tuple miss;
            for (int col = 0; col < arity; ++col) {
              if ((mask >> col) & 1u) {
                miss.push_back(static_cast<ConstId>(rng.Uniform(kNumConsts)));
              }
            }
            keys.push_back(std::move(miss));
            for (const Tuple& key : keys) {
              if (sealed) {
                ASSERT_FALSE(db->ProbeIndex(pred, mask, key).scan_all)
                    << "a registered mask lost its index";
              }
              ASSERT_EQ(ResolveProbe(*db, pred, mask, key),
                        ModelProbe(model, pred, mask, key))
                  << (db == &sorted ? "sorted" : "bucket")
                  << " probe diverged on " << symbols->PredicateName(pred)
                  << " mask " << mask;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(large_batches, 100)
      << "too few batches erased many rows of one relation";
}

/// ClearRelation removes exactly the model's tuples of one predicate,
/// shrinks the tracked constant domain to the model's, and leaves every
/// other relation's probes intact.
TEST(StorageFuzzTest, ClearRelationParity) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Random rng(7100 + seed);
    auto symbols = std::make_shared<SymbolTable>();
    PredicateId p = *symbols->InternPredicate("p", 2);
    PredicateId q = *symbols->InternPredicate("q", 1);
    for (int c = 0; c < 5; ++c) symbols->InternConst("c" + std::to_string(c));
    Database sorted(symbols);
    sorted.EnableSortedIndexes();
    Database bucket(symbols);
    Model model;
    for (int i = 0; i < 30; ++i) {
      PredicateId pred = rng.Bernoulli(0.5) ? p : q;
      Fact f = RandomFact(*symbols, pred, 5, &rng);
      std::vector<Tuple>& tuples = model[pred];
      const bool fresh =
          std::find(tuples.begin(), tuples.end(), f.args) == tuples.end();
      if (fresh) tuples.push_back(f.args);
      ASSERT_EQ(sorted.Insert(f), fresh);
      ASSERT_EQ(bucket.Insert(f), fresh);
    }
    const int64_t cleared = static_cast<int64_t>(model[p].size());
    model.erase(p);
    const ConstId c0 = symbols->FindConst("c0");
    for (Database* db : {&sorted, &bucket}) {
      ASSERT_EQ(db->ClearRelation(p), cleared);
      EXPECT_EQ(db->size(), static_cast<int64_t>(model[q].size()));
      EXPECT_EQ(db->constants(), ModelConstants(model));
      EXPECT_TRUE(db->TuplesFor(p).empty());
      EXPECT_EQ(Rows(*db, q), model[q]);
      EXPECT_EQ(ResolveProbe(*db, q, 0b1, {c0}),
                ModelProbe(model, q, 0b1, {c0}));
    }
  }
}

}  // namespace
}  // namespace hypo
