#include <memory>

#include <gtest/gtest.h>

#include "db/context_interner.h"
#include "db/database.h"
#include "db/fact_interner.h"
#include "db/overlay.h"

namespace hypo {
namespace {

class DbTest : public ::testing::Test {
 protected:
  DbTest() : symbols_(std::make_shared<SymbolTable>()), db_(symbols_) {}

  Fact MakeFact(const std::string& pred,
                const std::vector<std::string>& args) {
    Fact f;
    f.predicate = *symbols_->InternPredicate(pred, args.size());
    for (const std::string& a : args) {
      f.args.push_back(symbols_->InternConst(a));
    }
    return f;
  }

  std::shared_ptr<SymbolTable> symbols_;
  Database db_;
};

TEST_F(DbTest, InsertAndContains) {
  Fact f = MakeFact("edge", {"a", "b"});
  EXPECT_FALSE(db_.Contains(f));
  EXPECT_TRUE(db_.Insert(f));
  EXPECT_TRUE(db_.Contains(f));
  EXPECT_FALSE(db_.Insert(f)) << "duplicate insert reports not-new";
  EXPECT_EQ(db_.size(), 1);
}

TEST_F(DbTest, TuplesForPreservesInsertionOrder) {
  db_.Insert(MakeFact("p", {"c"}));
  db_.Insert(MakeFact("p", {"a"}));
  db_.Insert(MakeFact("p", {"b"}));
  PredicateId p = symbols_->FindPredicate("p");
  const Database::RowsView tuples = db_.TuplesFor(p);
  ASSERT_EQ(tuples.size(), 3u);
  EXPECT_EQ(symbols_->ConstName(tuples.At(0, 0)), "c");
  EXPECT_EQ(symbols_->ConstName(tuples.At(2, 0)), "b");
}

TEST_F(DbTest, TuplesForUnknownPredicateIsEmpty) {
  EXPECT_TRUE(db_.TuplesFor(123456).empty());
}

TEST_F(DbTest, StringInsertInternsEverything) {
  ASSERT_TRUE(db_.Insert("take", {"tony", "cs250"}).ok());
  EXPECT_NE(symbols_->FindPredicate("take"), kInvalidPredicate);
  EXPECT_NE(symbols_->FindConst("tony"), kInvalidConst);
  EXPECT_EQ(db_.size(), 1);
  // Arity punning is rejected.
  EXPECT_FALSE(db_.Insert("take", {"tony"}).ok());
}

TEST_F(DbTest, CloneIsIndependent) {
  db_.Insert(MakeFact("p", {"a"}));
  Database copy = db_.Clone();
  copy.Insert(MakeFact("p", {"b"}));
  EXPECT_EQ(db_.size(), 1);
  EXPECT_EQ(copy.size(), 2);
}

TEST_F(DbTest, ConstantsTracked) {
  db_.Insert(MakeFact("edge", {"a", "b"}));
  EXPECT_EQ(db_.constants().size(), 2u);
}

TEST_F(DbTest, ForEachVisitsAllFacts) {
  db_.Insert(MakeFact("p", {"a"}));
  db_.Insert(MakeFact("q", {"a", "b"}));
  int count = 0;
  db_.ForEach([&count](const Fact&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST_F(DbTest, ClearEmpties) {
  db_.Insert(MakeFact("p", {"a"}));
  db_.Clear();
  EXPECT_TRUE(db_.empty());
  EXPECT_TRUE(db_.constants().empty());
}

TEST_F(DbTest, ClearResetsSeal) {
  // Regression: Clear() used to leave sealed_ = true, so a cleared-and-
  // refilled database served stale ScanAllMarker probes forever.
  db_.Insert(MakeFact("edge", {"a", "b"}));
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");
  db_.PrepareIndex(edge, 0b1);
  db_.SealIndexes();
  ASSERT_TRUE(db_.sealed());

  db_.Clear();
  EXPECT_FALSE(db_.sealed()) << "Clear must start a fresh, unsealed epoch";

  // Reinsert and probe: the index must be rebuilt lazily over the new
  // contents, not answered from sealed (and now empty) state.
  db_.Insert(MakeFact("edge", {"a", "c"}));
  Database::RowRange bucket = db_.ProbeIndex(edge, 0b1, {a});
  ASSERT_FALSE(bucket.scan_all);
  ASSERT_NE(bucket, Database::ScanAllMarker());
  EXPECT_EQ(bucket.count, 1u);
}

TEST_F(DbTest, TypedInsertWhileSealedStartsNewEpoch) {
  // Regression: inserting into a sealed database used to leave every
  // column index frozen at its pre-seal built_upto, silently hiding the
  // new tuples from all subsequent probes.
  db_.Insert(MakeFact("edge", {"a", "b"}));
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");
  ASSERT_EQ(db_.ProbeIndex(edge, 0b1, {a}).count, 1u);
  db_.SealIndexes();

  EXPECT_TRUE(db_.Insert(MakeFact("edge", {"a", "c"})));
  EXPECT_FALSE(db_.sealed()) << "typed Insert auto-unseals";
  Database::RowRange bucket = db_.ProbeIndex(edge, 0b1, {a});
  ASSERT_FALSE(bucket.scan_all);
  EXPECT_EQ(bucket.count, 2u) << "the index catches up past built_upto";

  // A duplicate insert is not a mutation and must not break the seal.
  db_.SealIndexes();
  EXPECT_FALSE(db_.Insert(MakeFact("edge", {"a", "c"})));
  EXPECT_TRUE(db_.sealed());
}

TEST_F(DbTest, StringInsertWhileSealedIsRejected) {
  ASSERT_TRUE(db_.Insert("edge", {"a", "b"}).ok());
  db_.SealIndexes();
  Status s = db_.Insert("edge", {"a", "c"});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db_.sealed()) << "the rejected insert must not mutate";
  EXPECT_EQ(db_.size(), 1);
  db_.UnsealIndexes();
  EXPECT_TRUE(db_.Insert("edge", {"a", "c"}).ok());
}

TEST_F(DbTest, RetractRemovesFactAndConstants) {
  Fact ab = MakeFact("edge", {"a", "b"});
  Fact bc = MakeFact("edge", {"b", "c"});
  db_.Insert(ab);
  db_.Insert(bc);
  ASSERT_EQ(db_.constants().size(), 3u);

  EXPECT_TRUE(db_.Retract(ab));
  EXPECT_FALSE(db_.Contains(ab));
  EXPECT_EQ(db_.size(), 1);
  // "b" survives (still in bc); "a" lost its last reference.
  EXPECT_EQ(db_.constants().count(symbols_->FindConst("a")), 0u);
  EXPECT_EQ(db_.constants().count(symbols_->FindConst("b")), 1u);

  EXPECT_FALSE(db_.Retract(ab)) << "retracting an absent fact is a no-op";
  EXPECT_EQ(db_.size(), 1);
}

TEST_F(DbTest, RetractInvalidatesIndexes) {
  db_.Insert(MakeFact("edge", {"a", "b"}));
  db_.Insert(MakeFact("edge", {"c", "d"}));
  db_.Insert(MakeFact("edge", {"a", "e"}));
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");
  ASSERT_EQ(db_.ProbeIndex(edge, 0b1, {a}).count, 2u);

  // Retraction shifts stored positions; the rebuilt index must agree
  // with the surviving tuples, not the stale positions.
  ASSERT_TRUE(db_.Retract(MakeFact("edge", {"a", "b"})));
  Database::RowRange bucket = db_.ProbeIndex(edge, 0b1, {a});
  ASSERT_FALSE(bucket.empty());
  ASSERT_EQ(bucket.count, 1u);
  const Database::RowsView all = db_.TuplesFor(edge);
  EXPECT_EQ(symbols_->ConstName(all.At(bucket.data[0], 1)), "e");
}

TEST_F(DbTest, RetractWhileSealedUnseals) {
  Fact ab = MakeFact("edge", {"a", "b"});
  db_.Insert(ab);
  db_.SealIndexes();
  EXPECT_TRUE(db_.Retract(ab));
  EXPECT_FALSE(db_.sealed());
  EXPECT_TRUE(db_.empty());
}

TEST_F(DbTest, RetractLastTupleDropsRelation) {
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);
  PredicateId p = symbols_->FindPredicate("p");
  EXPECT_TRUE(db_.Retract(f));
  EXPECT_TRUE(db_.TuplesFor(p).empty());
  EXPECT_TRUE(db_.NonEmptyPredicates().empty());
  EXPECT_EQ(db_.ApproxBytes(), 0);
}

TEST_F(DbTest, ClearRelationRemovesAllTuplesOfPredicate) {
  db_.Insert(MakeFact("p", {"a"}));
  db_.Insert(MakeFact("p", {"b"}));
  db_.Insert(MakeFact("q", {"a"}));
  PredicateId p = symbols_->FindPredicate("p");
  EXPECT_EQ(db_.ClearRelation(p), 2);
  EXPECT_EQ(db_.size(), 1);
  EXPECT_FALSE(db_.Contains(MakeFact("p", {"a"})));
  EXPECT_TRUE(db_.Contains(MakeFact("q", {"a"})));
  // "b" only appeared in p; "a" survives via q.
  EXPECT_EQ(db_.constants().count(symbols_->FindConst("b")), 0u);
  EXPECT_EQ(db_.constants().count(symbols_->FindConst("a")), 1u);
  EXPECT_EQ(db_.ClearRelation(p), 0) << "clearing again is a no-op";
}

TEST_F(DbTest, FirstArgIndexFindsTuples) {
  db_.Insert(MakeFact("edge", {"a", "b"}));
  db_.Insert(MakeFact("edge", {"c", "d"}));
  db_.Insert(MakeFact("edge", {"a", "d"}));
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");
  Database::RowRange bucket = db_.ProbeIndex(edge, 0b1, {a});
  ASSERT_FALSE(bucket.empty());
  ASSERT_EQ(bucket.count, 2u);
  const Database::RowsView all = db_.TuplesFor(edge);
  EXPECT_EQ(all.At(bucket.data[0], 0), a);
  EXPECT_EQ(all.At(bucket.data[1], 0), a);
}

TEST_F(DbTest, ProbeIndexOnAnyColumnMask) {
  db_.Insert(MakeFact("t", {"a", "x"}));
  db_.Insert(MakeFact("t", {"b", "x"}));
  db_.Insert(MakeFact("t", {"a", "y"}));
  PredicateId t = symbols_->FindPredicate("t");
  ConstId x = symbols_->FindConst("x");
  ConstId a = symbols_->FindConst("a");

  // Second column only (mask 0b10).
  Database::RowRange by_second = db_.ProbeIndex(t, 0b10, {x});
  ASSERT_FALSE(by_second.empty());
  ASSERT_EQ(by_second.count, 2u);
  const Database::RowsView all = db_.TuplesFor(t);
  for (size_t i = 0; i < by_second.count; ++i) {
    EXPECT_EQ(all.At(by_second.data[i], 1), x);
  }

  // Both columns (mask 0b11): a unique tuple.
  Database::RowRange exact = db_.ProbeIndex(t, 0b11, {a, x});
  ASSERT_FALSE(exact.empty());
  ASSERT_EQ(exact.count, 1u);
  EXPECT_EQ(all.TupleAt(exact.data[0]), (Tuple{a, x}));

  // A key with no matching tuples yields an empty range, and probing an
  // unknown predicate is harmless.
  ConstId b = symbols_->FindConst("b");
  EXPECT_TRUE(db_.ProbeIndex(t, 0b11, {b, symbols_->FindConst("y")}).empty());
  EXPECT_TRUE(db_.ProbeIndex(999999, 0b1, {a}).empty());
}

TEST_F(DbTest, ProbeIndexExtendsLazilyAsRelationGrows) {
  db_.Insert(MakeFact("p", {"a", "x"}));
  PredicateId p = symbols_->FindPredicate("p");
  ConstId x = symbols_->FindConst("x");
  ASSERT_EQ(db_.ProbeIndex(p, 0b10, {x}).count, 1u);
  int64_t builds = db_.index_builds();

  // Tuples inserted after the index was built show up on the next probe
  // without a rebuild: the index is extended incrementally.
  db_.Insert(MakeFact("p", {"b", "x"}));
  Database::RowRange bucket = db_.ProbeIndex(p, 0b10, {x});
  ASSERT_FALSE(bucket.empty());
  EXPECT_EQ(bucket.count, 2u);
  EXPECT_EQ(db_.index_builds(), builds)
      << "re-probing the same (predicate, mask) must not count as a build";

  // A different mask on the same relation is a distinct index.
  ConstId a = symbols_->FindConst("a");
  ASSERT_FALSE(db_.ProbeIndex(p, 0b01, {a}).empty());
  EXPECT_EQ(db_.index_builds(), builds + 1);
  EXPECT_EQ(db_.index_probes(), 3);
}

TEST_F(DbTest, SortedSealAnswersProbesFromPermutation) {
  Database db(symbols_);
  db.Insert(MakeFact("edge", {"c", "d"}));
  db.Insert(MakeFact("edge", {"a", "b"}));
  db.Insert(MakeFact("edge", {"a", "e"}));
  db.Insert(MakeFact("edge", {"b", "b"}));
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");

  db.EnableSortedIndexes();
  db.PrepareIndex(edge, 0b1);
  db.SealIndexes();
  ASSERT_TRUE(db.sealed());
  ASSERT_TRUE(db.sorted_indexes_enabled());

  Database::RowRange range = db.ProbeIndex(edge, 0b1, {a});
  ASSERT_FALSE(range.scan_all);
  ASSERT_EQ(range.count, 2u);
  // Equal-key runs keep ascending row order, i.e. insertion order: the
  // (a, b) tuple was inserted before (a, e).
  const Database::RowsView all = db.TuplesFor(edge);
  EXPECT_LT(range.data[0], range.data[1]);
  EXPECT_EQ(symbols_->ConstName(all.At(range.data[0], 1)), "b");
  EXPECT_EQ(symbols_->ConstName(all.At(range.data[1], 1)), "e");
  EXPECT_GE(db.sorted_probes(), 1);
  EXPECT_GE(db.merge_join_rows(), 2);

  // A missing key binary-searches to an empty range.
  EXPECT_TRUE(db.ProbeIndex(edge, 0b1, {symbols_->FindConst("d")}).empty());
}

TEST_F(DbTest, SortedIndexSurvivesUnsealResealCycles) {
  Database db(symbols_);
  db.Insert(MakeFact("edge", {"a", "b"}));
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");
  db.EnableSortedIndexes();
  db.PrepareIndex(edge, 0b1);
  db.SealIndexes();
  ASSERT_EQ(db.ProbeIndex(edge, 0b1, {a}).count, 1u);
  int64_t sort_micros_after_first_seal = db.index_sort_micros();

  // Unseal + reseal with no mutation: the permutation version matches,
  // so the reseal is O(1) and must not re-sort.
  db.UnsealIndexes();
  db.SealIndexes();
  EXPECT_EQ(db.index_sort_micros(), sort_micros_after_first_seal);
  EXPECT_EQ(db.ProbeIndex(edge, 0b1, {a}).count, 1u);

  // An insert leaves the permutation short of the relation: the next seal
  // merges the new row in and the probe sees it.
  db.Insert(MakeFact("edge", {"a", "c"}));
  EXPECT_FALSE(db.sealed());
  db.SealIndexes();
  EXPECT_EQ(db.ProbeIndex(edge, 0b1, {a}).count, 2u);

  // Retract patches the permutation in place (row ids shift down), so the
  // reseal needs no re-preparation and no re-sort: the sealed probe is
  // still a sorted range, now over the renumbered survivor.
  const int64_t builds_before_retract = db.index_builds();
  ASSERT_TRUE(db.Retract(MakeFact("edge", {"a", "b"})));
  db.SealIndexes();
  EXPECT_EQ(db.index_builds(), builds_before_retract);
  Database::RowRange range = db.ProbeIndex(edge, 0b1, {a});
  ASSERT_FALSE(range.scan_all);
  ASSERT_EQ(range.count, 1u);
  EXPECT_EQ(range.data[0], 0);
  EXPECT_EQ(symbols_->ConstName(db.TuplesFor(edge).At(range.data[0], 1)),
            "c");
}

TEST_F(DbTest, SortedRangesAndBucketsAgreeOnRowIds) {
  // The same rows behind the two access paths: `bucket_db` serves its
  // sealed probes from hash buckets, `sorted_db` from sorted permutation
  // ranges. Both must answer with the same row ids in the same order,
  // sealed or not.
  Database bucket_db(symbols_);
  Database sorted_db(symbols_);
  sorted_db.EnableSortedIndexes();
  std::vector<Fact> facts = {
      MakeFact("edge", {"c", "d"}), MakeFact("edge", {"a", "b"}),
      MakeFact("edge", {"a", "e"}), MakeFact("edge", {"b", "b"}),
      MakeFact("p", {"a"})};
  for (const Fact& f : facts) {
    ASSERT_TRUE(bucket_db.Insert(f));
    ASSERT_TRUE(sorted_db.Insert(f));
  }
  PredicateId edge = symbols_->FindPredicate("edge");
  ConstId a = symbols_->FindConst("a");
  ConstId b = symbols_->FindConst("b");

  for (int sealed = 0; sealed < 2; ++sealed) {
    if (sealed) {
      for (Database* d : {&bucket_db, &sorted_db}) {
        d->PrepareIndex(edge, 0b1);
        d->PrepareIndex(edge, 0b10);
        d->SealIndexes();
      }
    }
    for (ColumnMask mask : {ColumnMask{0b1}, ColumnMask{0b10}}) {
      for (ConstId key : {a, b}) {
        Database::RowRange lhs = bucket_db.ProbeIndex(edge, mask, {key});
        Database::RowRange rhs = sorted_db.ProbeIndex(edge, mask, {key});
        ASSERT_FALSE(lhs.scan_all);
        ASSERT_FALSE(rhs.scan_all);
        ASSERT_EQ(lhs.count, rhs.count);
        for (size_t i = 0; i < lhs.count; ++i) {
          EXPECT_EQ(lhs.data[i], rhs.data[i]);
        }
      }
    }
  }
  EXPECT_GT(sorted_db.sorted_probes(), 0) << "the seal sorted the indexes";
  EXPECT_EQ(bucket_db.sorted_probes(), 0) << "no seal sorts without opt-in";
}

TEST_F(DbTest, ArenaBytesCountsEverySortedSealArray) {
  // Right after a sorted seal no hash bucket is left, so the estimate
  // and the exact arena figure must agree: perm, keys and starts are all
  // charged to both.
  Database db(symbols_);
  db.EnableSortedIndexes();
  for (int i = 0; i < 200; ++i) {
    db.Insert(MakeFact("edge", {"n" + std::to_string(i % 37),
                                "n" + std::to_string(i)}));
  }
  PredicateId edge = symbols_->FindPredicate("edge");
  for (ColumnMask mask : {ColumnMask{0b01}, ColumnMask{0b10},
                          ColumnMask{0b11}}) {
    db.PrepareIndex(edge, mask);
  }
  db.SealIndexes();
  EXPECT_GT(db.ArenaBytes(), 0);
  EXPECT_EQ(db.ArenaBytes(), db.ApproxBytes());
}

TEST_F(DbTest, ColumnarConstantDomainShrinksAfterRetract) {
  // Retracting the last tuple mentioning a constant must drop it from
  // constants() so ComputeDomain (Definition 3) shrinks with the
  // database.
  Fact ab = MakeFact("edge", {"a", "b"});
  Fact aa = MakeFact("edge", {"a", "a"});
  db_.Insert(ab);
  db_.Insert(aa);
  ASSERT_EQ(db_.constants().size(), 2u);
  EXPECT_TRUE(db_.Retract(ab));
  EXPECT_EQ(db_.constants().count(symbols_->FindConst("b")), 0u)
      << "b's only reference was retracted";
  EXPECT_EQ(db_.constants().count(symbols_->FindConst("a")), 1u)
      << "a is still referenced twice by edge(a, a)";
  db_.Clear();
  EXPECT_TRUE(db_.constants().empty());
}

TEST_F(DbTest, RetractBatchThatEmptiesARelation) {
  // One batch retracts every edge, one of two marks, a duplicate and an
  // absent fact. edge disappears with its indexes and constants; mark
  // keeps its patched sorted index through the reseal, with no
  // re-preparation and every byte counted.
  Database db(symbols_);
  db.EnableSortedIndexes();
  const std::vector<Fact> edges = {MakeFact("edge", {"a", "b"}),
                                   MakeFact("edge", {"b", "c"}),
                                   MakeFact("edge", {"c", "a"})};
  for (const Fact& f : edges) ASSERT_TRUE(db.Insert(f));
  const Fact mark_a = MakeFact("mark", {"a"});
  const Fact mark_d = MakeFact("mark", {"d"});
  ASSERT_TRUE(db.Insert(mark_a));
  ASSERT_TRUE(db.Insert(mark_d));
  const PredicateId edge = edges[0].predicate;
  const PredicateId mark = mark_a.predicate;
  db.PrepareIndex(edge, 0b01);
  db.PrepareIndex(mark, 0b1);
  db.SealIndexes();

  std::vector<Fact> batch = edges;
  batch.push_back(mark_a);
  batch.push_back(edges[1]);                      // Duplicate.
  batch.push_back(MakeFact("edge", {"d", "d"}));  // Absent.
  EXPECT_EQ(db.RetractBatch(batch), 4);
  EXPECT_FALSE(db.sealed());
  EXPECT_EQ(db.size(), 1);
  EXPECT_EQ(db.CountFor(edge), 0);
  EXPECT_TRUE(db.TuplesFor(edge).empty());
  EXPECT_EQ(db.NonEmptyPredicates(), std::vector<PredicateId>{mark});
  EXPECT_EQ(db.constants(),
            std::unordered_set<ConstId>{symbols_->FindConst("d")});
  for (const Fact& f : edges) EXPECT_FALSE(db.Contains(f));

  db.SealIndexes();
  EXPECT_EQ(db.ArenaBytes(), db.ApproxBytes());
  Database::RowRange range =
      db.ProbeIndex(mark, 0b1, {symbols_->FindConst("d")});
  ASSERT_FALSE(range.scan_all);
  ASSERT_EQ(range.count, 1u);
  EXPECT_EQ(range.data[0], 0);
  EXPECT_TRUE(db.ProbeIndex(mark, 0b1, {symbols_->FindConst("a")}).empty());

  // The emptied relation comes back like a new one.
  db.UnsealIndexes();
  ASSERT_TRUE(db.Insert(edges[2]));
  db.PrepareIndex(edge, 0b01);
  db.SealIndexes();
  EXPECT_EQ(db.ProbeIndex(edge, 0b01, {symbols_->FindConst("c")}).count, 1u);
  EXPECT_EQ(db.ArenaBytes(), db.ApproxBytes());
}

TEST_F(DbTest, ZeroArityRelation) {
  Fact yes = MakeFact("yes", {});
  EXPECT_FALSE(db_.Contains(yes));
  EXPECT_TRUE(db_.Insert(yes));
  EXPECT_TRUE(db_.Contains(yes));
  EXPECT_FALSE(db_.Insert(yes));
  EXPECT_EQ(db_.TuplesFor(yes.predicate).size(), 1u);
  EXPECT_TRUE(db_.Retract(yes));
  EXPECT_FALSE(db_.Contains(yes));
  EXPECT_EQ(db_.size(), 0);
}

TEST_F(DbTest, FactToStringFormats) {
  Fact f = MakeFact("edge", {"a", "b"});
  EXPECT_EQ(FactToString(f, *symbols_), "edge(a, b)");
  Fact zero = MakeFact("yes", {});
  EXPECT_EQ(FactToString(zero, *symbols_), "yes");
}

TEST(FactInternerTest, InterningIsStable) {
  FactInterner interner;
  Fact f1{0, {1, 2}};
  Fact f2{0, {2, 1}};
  FactId a = interner.Intern(f1);
  FactId b = interner.Intern(f2);
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern(f1), a);
  EXPECT_EQ(interner.Get(b), f2);
  EXPECT_EQ(interner.size(), 2);
}

class OverlayTest : public DbTest {
 protected:
  OverlayTest() : overlay_(&db_, &interner_) {}
  FactInterner interner_;
  OverlayDatabase overlay_;
};

TEST_F(OverlayTest, SeesBaseFacts) {
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);
  EXPECT_TRUE(overlay_.Contains(f));
}

TEST_F(OverlayTest, AddAndRetract) {
  Fact f = MakeFact("p", {"a"});
  overlay_.PushFrame();
  EXPECT_TRUE(overlay_.Add(f));
  EXPECT_TRUE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.num_added(), 1);
  overlay_.PopFrame();
  EXPECT_FALSE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.num_added(), 0);
}

TEST_F(OverlayTest, NoOpAddNotRecorded) {
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);
  overlay_.PushFrame();
  EXPECT_FALSE(overlay_.Add(f)) << "already a database fact";
  EXPECT_EQ(overlay_.num_added(), 0);
  EXPECT_TRUE(overlay_.CanonicalKey().empty());
  overlay_.PopFrame();
}

TEST_F(OverlayTest, NestedFrames) {
  Fact f1 = MakeFact("p", {"a"});
  Fact f2 = MakeFact("p", {"b"});
  overlay_.PushFrame();
  overlay_.Add(f1);
  overlay_.PushFrame();
  overlay_.Add(f2);
  EXPECT_EQ(overlay_.num_added(), 2);
  overlay_.PopFrame();
  EXPECT_TRUE(overlay_.Contains(f1));
  EXPECT_FALSE(overlay_.Contains(f2));
  overlay_.PopFrame();
  EXPECT_FALSE(overlay_.Contains(f1));
}

TEST_F(OverlayTest, CanonicalKeyIsOrderIndependent) {
  Fact f1 = MakeFact("p", {"a"});
  Fact f2 = MakeFact("p", {"b"});
  overlay_.PushFrame();
  overlay_.Add(f1);
  overlay_.Add(f2);
  auto key12 = overlay_.CanonicalKey();
  overlay_.PopFrame();
  overlay_.PushFrame();
  overlay_.Add(f2);
  overlay_.Add(f1);
  auto key21 = overlay_.CanonicalKey();
  overlay_.PopFrame();
  EXPECT_EQ(key12, key21);
}

TEST_F(OverlayTest, AddedTuplesVisibleForScan) {
  Fact f = MakeFact("edge", {"a", "b"});
  overlay_.PushFrame();
  overlay_.Add(f);
  PredicateId edge = symbols_->FindPredicate("edge");
  ASSERT_EQ(overlay_.AddedTuplesFor(edge).size(), 1u);
  overlay_.PopFrame();
  EXPECT_TRUE(overlay_.AddedTuplesFor(edge).empty());
}

TEST_F(OverlayTest, DeleteMasksBaseFact) {
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);
  overlay_.PushFrame();
  EXPECT_TRUE(overlay_.Delete(f));
  EXPECT_FALSE(overlay_.Contains(f));
  EXPECT_TRUE(overlay_.has_deletions());
  overlay_.PopFrame();
  EXPECT_TRUE(overlay_.Contains(f));
  EXPECT_FALSE(overlay_.has_deletions());
}

TEST_F(OverlayTest, DeleteAbsentFactIsNoOp) {
  Fact f = MakeFact("p", {"a"});
  overlay_.PushFrame();
  EXPECT_FALSE(overlay_.Delete(f));
  EXPECT_FALSE(overlay_.has_deletions());
  overlay_.PopFrame();
}

TEST_F(OverlayTest, DeleteAddedFact) {
  Fact f = MakeFact("p", {"a"});
  overlay_.PushFrame();
  overlay_.Add(f);
  EXPECT_TRUE(overlay_.Delete(f));
  EXPECT_FALSE(overlay_.Contains(f));
  // The stored tuple remains but is filtered by the mask.
  PredicateId p = symbols_->FindPredicate("p");
  ASSERT_EQ(overlay_.AddedTuplesFor(p).size(), 1u);
  EXPECT_FALSE(overlay_.TupleVisible(p, overlay_.AddedTuplesFor(p)[0]));
  overlay_.PopFrame();
}

TEST_F(OverlayTest, AddUnmasksDeletedFact) {
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);
  overlay_.PushFrame();
  overlay_.Delete(f);
  EXPECT_FALSE(overlay_.Contains(f));
  EXPECT_TRUE(overlay_.Add(f));
  EXPECT_TRUE(overlay_.Contains(f));
  overlay_.PopFrame();
  EXPECT_TRUE(overlay_.Contains(f));
}

TEST_F(OverlayTest, CanonicalKeyReflectsDeletions) {
  Fact base_fact = MakeFact("p", {"a"});
  Fact added_fact = MakeFact("p", {"b"});
  db_.Insert(base_fact);

  overlay_.PushFrame();
  overlay_.Delete(base_fact);
  auto key_del = overlay_.CanonicalKey();
  EXPECT_EQ(key_del.size(), 2u) << "separator + masked base id";
  EXPECT_EQ(key_del[0], -1);
  overlay_.PopFrame();
  EXPECT_TRUE(overlay_.CanonicalKey().empty());

  // Add then delete the same new fact: canonically the empty state.
  overlay_.PushFrame();
  overlay_.Add(added_fact);
  overlay_.Delete(added_fact);
  EXPECT_TRUE(overlay_.CanonicalKey().empty());
  overlay_.PopFrame();

  // Delete then re-add a base fact: also the empty state.
  overlay_.PushFrame();
  overlay_.Delete(base_fact);
  overlay_.Add(base_fact);
  EXPECT_TRUE(overlay_.CanonicalKey().empty());
  overlay_.PopFrame();
}

TEST_F(OverlayTest, NestedFramesWithDeletions) {
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);
  overlay_.PushFrame();
  overlay_.Delete(f);
  overlay_.PushFrame();
  overlay_.Add(f);
  EXPECT_TRUE(overlay_.Contains(f));
  overlay_.PopFrame();
  EXPECT_FALSE(overlay_.Contains(f)) << "inner unmask undone";
  overlay_.PopFrame();
  EXPECT_TRUE(overlay_.Contains(f));
}

TEST_F(OverlayTest, ForEachAddedSkipsMasked) {
  overlay_.PushFrame();
  Fact fa = MakeFact("p", {"a"});
  Fact fb = MakeFact("p", {"b"});
  overlay_.Add(fa);
  overlay_.Add(fb);
  overlay_.Delete(fa);
  int count = 0;
  overlay_.ForEachAdded([&](const Fact& f) {
    ++count;
    EXPECT_EQ(f, fb);
  });
  EXPECT_EQ(count, 1);
  overlay_.PopFrame();
}

TEST(ContextInternerTest, EmptyContextIsIdZero) {
  ContextInterner interner;
  EXPECT_EQ(ContextInterner::kEmptyContext, 0);
  EXPECT_EQ(interner.num_contexts(), 1);
  EXPECT_TRUE(interner.Elements(ContextInterner::kEmptyContext).empty());
}

TEST(ContextInternerTest, InsertEraseRoundTrip) {
  ContextInterner interner;
  int64_t e = ContextInterner::AddedElement(7);
  ContextId with = interner.Insert(ContextInterner::kEmptyContext, e);
  EXPECT_NE(with, ContextInterner::kEmptyContext);
  EXPECT_EQ(interner.Elements(with), std::vector<int64_t>{e});
  EXPECT_EQ(interner.Erase(with, e), ContextInterner::kEmptyContext);
  // The round trip is cached: replaying it hits the edge cache.
  int64_t transitions_before = interner.transitions();
  int64_t hits_before = interner.transition_hits();
  EXPECT_EQ(interner.Insert(ContextInterner::kEmptyContext, e), with);
  EXPECT_EQ(interner.transitions(), transitions_before + 1);
  EXPECT_EQ(interner.transition_hits(), hits_before + 1);
}

TEST(ContextInternerTest, InsertionOrderIrrelevant) {
  ContextInterner interner;
  int64_t a = ContextInterner::AddedElement(1);
  int64_t b = ContextInterner::MaskedElement(2);
  ContextId ab = interner.Insert(interner.Insert(0, a), b);
  ContextId ba = interner.Insert(interner.Insert(0, b), a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(interner.num_contexts(), 4) << "{}, {a}, {b}, {a,b}";
}

TEST(ContextInternerTest, AddedAndMaskedElementsAreDistinct) {
  EXPECT_NE(ContextInterner::AddedElement(5),
            ContextInterner::MaskedElement(5));
}

TEST_F(OverlayTest, ContextIdTracksMutations) {
  Fact f1 = MakeFact("p", {"a"});
  Fact f2 = MakeFact("p", {"b"});
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);

  overlay_.PushFrame();
  overlay_.Add(f1);
  ContextId c1 = overlay_.context_id();
  EXPECT_NE(c1, ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());

  overlay_.PushFrame();
  overlay_.Add(f2);
  ContextId c12 = overlay_.context_id();
  EXPECT_NE(c12, c1);
  EXPECT_TRUE(overlay_.DebugContextConsistent());
  overlay_.PopFrame();

  EXPECT_EQ(overlay_.context_id(), c1) << "pop restores the context id";
  overlay_.PopFrame();
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());
}

TEST_F(OverlayTest, ContextIdOrderIndependent) {
  Fact f1 = MakeFact("p", {"a"});
  Fact f2 = MakeFact("p", {"b"});
  overlay_.PushFrame();
  overlay_.Add(f1);
  overlay_.Add(f2);
  ContextId c12 = overlay_.context_id();
  overlay_.PopFrame();
  overlay_.PushFrame();
  overlay_.Add(f2);
  overlay_.Add(f1);
  EXPECT_EQ(overlay_.context_id(), c12)
      << "same fact set must intern to the same context id";
  overlay_.PopFrame();
}

TEST_F(OverlayTest, ContextIdReflectsDeletions) {
  Fact base_fact = MakeFact("p", {"a"});
  Fact added_fact = MakeFact("p", {"b"});
  db_.Insert(base_fact);

  // Masking a base fact is a distinct, non-empty context.
  overlay_.PushFrame();
  overlay_.Delete(base_fact);
  EXPECT_NE(overlay_.context_id(), ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());
  overlay_.PopFrame();
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);

  // Add-then-delete of a new fact is canonically the empty state.
  overlay_.PushFrame();
  overlay_.Add(added_fact);
  overlay_.Delete(added_fact);
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());
  overlay_.PopFrame();

  // Delete-then-re-add of a base fact is canonically the empty state.
  overlay_.PushFrame();
  overlay_.Delete(base_fact);
  overlay_.Add(base_fact);
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());
  overlay_.PopFrame();
}

TEST_F(OverlayTest, DeleteReAddDeleteAcrossNestedFrames) {
  // Regression for the kDidUnmask undo in PopFrame: delete a base fact,
  // re-add (unmask) it in an inner frame, delete it again in a third
  // frame, then unwind, checking visibility and context at every step.
  Fact f = MakeFact("p", {"a"});
  db_.Insert(f);

  overlay_.PushFrame();
  overlay_.Delete(f);
  ContextId deleted = overlay_.context_id();
  EXPECT_FALSE(overlay_.Contains(f));

  overlay_.PushFrame();
  overlay_.Add(f);  // Unmask.
  EXPECT_TRUE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext)
      << "mask + unmask cancels back to the base state";
  EXPECT_TRUE(overlay_.DebugContextConsistent());

  overlay_.PushFrame();
  overlay_.Delete(f);  // Mask again.
  EXPECT_FALSE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.context_id(), deleted)
      << "re-deleting reaches the same interned context";
  EXPECT_TRUE(overlay_.DebugContextConsistent());

  overlay_.PopFrame();  // Undo second delete.
  EXPECT_TRUE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());

  overlay_.PopFrame();  // Undo the unmask: the first delete is live again.
  EXPECT_FALSE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.context_id(), deleted);
  EXPECT_TRUE(overlay_.DebugContextConsistent());

  overlay_.PopFrame();  // Undo the first delete.
  EXPECT_TRUE(overlay_.Contains(f));
  EXPECT_EQ(overlay_.context_id(), ContextInterner::kEmptyContext);
  EXPECT_TRUE(overlay_.DebugContextConsistent());
}

TEST_F(OverlayTest, AddedProbeByFirstArg) {
  PredicateId edge = symbols_->InternPredicate("edge", 2).value();
  ConstId a = symbols_->InternConst("a");
  ConstId c = symbols_->InternConst("c");
  EXPECT_EQ(overlay_.AddedProbe(edge, 0b1, {a}), nullptr);

  overlay_.PushFrame();
  overlay_.Add(MakeFact("edge", {"a", "b"}));
  overlay_.Add(MakeFact("edge", {"c", "d"}));
  overlay_.Add(MakeFact("edge", {"a", "d"}));

  const std::vector<RowId>* bucket = overlay_.AddedProbe(edge, 0b1, {a});
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 2u);
  const auto& all = overlay_.AddedTuplesFor(edge);
  EXPECT_EQ(all[(*bucket)[0]][0], a);
  EXPECT_EQ(all[(*bucket)[1]][0], a);
  ASSERT_NE(overlay_.AddedProbe(edge, 0b1, {c}), nullptr);
  EXPECT_EQ(overlay_.AddedProbe(edge, 0b1, {c})->size(), 1u);

  overlay_.PopFrame();
  EXPECT_EQ(overlay_.AddedProbe(edge, 0b1, {a}), nullptr)
      << "popping the frame empties the first-arg buckets";
}

TEST_F(OverlayTest, AddedProbeOnSecondColumnAcrossFrames) {
  PredicateId edge = symbols_->InternPredicate("edge", 2).value();
  ConstId d = symbols_->InternConst("d");

  overlay_.PushFrame();
  overlay_.Add(MakeFact("edge", {"a", "d"}));
  overlay_.PushFrame();
  overlay_.Add(MakeFact("edge", {"c", "d"}));
  overlay_.Add(MakeFact("edge", {"c", "e"}));

  const std::vector<RowId>* bucket = overlay_.AddedProbe(edge, 0b10, {d});
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 2u);
  const auto& all = overlay_.AddedTuplesFor(edge);
  EXPECT_EQ(all[(*bucket)[0]][1], d);
  EXPECT_EQ(all[(*bucket)[1]][1], d);

  // Popping the inner frame trims the mask index back to one entry; the
  // bucket node survives so a later probe still finds the outer tuple.
  overlay_.PopFrame();
  bucket = overlay_.AddedProbe(edge, 0b10, {d});
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  overlay_.PopFrame();
  EXPECT_EQ(overlay_.AddedProbe(edge, 0b10, {d}), nullptr);
}

TEST_F(OverlayTest, ForEachAddedInInsertionOrder) {
  overlay_.PushFrame();
  overlay_.Add(MakeFact("p", {"b"}));
  overlay_.Add(MakeFact("p", {"a"}));
  std::vector<std::string> names;
  overlay_.ForEachAdded([&](const Fact& f) {
    names.push_back(symbols_->ConstName(f.args[0]));
  });
  overlay_.PopFrame();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "b");
  EXPECT_EQ(names[1], "a");
}

}  // namespace
}  // namespace hypo
