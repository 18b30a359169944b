// Engine gauges: the §5.2.2 bottom-up fixpoint machinery, the child-state
// lattice, incremental repair, overlay-heavy tabled proofs and the
// server's cross-query, journaled and epoch-turn paths.
//
// PROVE_Δ re-applies rules to a fixpoint. The bottom-up engine restricts
// one positive premise per rule version to the tuples derived in the
// previous round (per-round delta relations + generalized hash indexes),
// which turns O(rounds × full-join) chains into O(delta-join); the
// naive and rule-filter ablations it replaced are recorded in
// BENCH_engine.json and EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "encode/tm_encoder.h"
#include "engine/memo_board.h"
#include "server/journal.h"
#include "server/query_server.h"
#include "queries/chains.h"
#include "queries/graphs.h"
#include "tm/machines_library.h"

namespace hypo {
namespace {

/// Transitive closure over a path graph: the classic fixpoint workload.
ProgramFixture MakeTransitiveClosure(int n) {
  ProgramFixture fixture;
  auto rules = ParseRuleBase(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).\n"
      "connected <- t(X, Y), goal(X, Y).\n",
      fixture.symbols);
  HYPO_CHECK(rules.ok()) << rules.status();
  fixture.rules = std::move(rules).value();
  GraphToDatabase(MakePathGraph(n), &fixture.db);
  HYPO_CHECK(
      fixture.db.Insert("goal", {"v0", "v" + std::to_string(n - 1)}).ok());
  return fixture;
}

void BM_TransitiveClosureFixpoint(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ProgramFixture fixture = MakeTransitiveClosure(n);
  Query query = bench::MustParseQuery(fixture, "connected");
  int64_t rounds = 0;
  int64_t probes = 0;
  for (auto _ : state) {
    BottomUpEngine engine(&fixture.rules, &fixture.db);
    auto got = engine.ProveQuery(query);
    HYPO_CHECK(got.ok() && *got);
    benchmark::DoNotOptimize(*got);
    rounds = engine.stats().fixpoint_rounds;
    probes = engine.stats().join_probes;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["join_probes"] = static_cast<double>(probes);
  state.SetLabel("path n=" + std::to_string(n));
}
BENCHMARK(BM_TransitiveClosureFixpoint)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// A linear recursion over a long chain: each round derives exactly one
/// new fact, the worst case for whole-relation rejoining and the best
/// case for the delta rewrite.
void BM_ChainReachFixpoint(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ProgramFixture fixture;
  auto rules = ParseRuleBase(
      "reach(X) <- start(X).\n"
      "reach(Y) <- reach(X), edge(X, Y).\n"
      "done <- reach(X), goal(X).\n",
      fixture.symbols);
  HYPO_CHECK(rules.ok()) << rules.status();
  fixture.rules = std::move(rules).value();
  GraphToDatabase(MakePathGraph(n), &fixture.db);
  HYPO_CHECK(fixture.db.Insert("start", {"v0"}).ok());
  HYPO_CHECK(
      fixture.db.Insert("goal", {"v" + std::to_string(n - 1)}).ok());
  Query query = bench::MustParseQuery(fixture, "done");
  int64_t probes = 0;
  for (auto _ : state) {
    BottomUpEngine engine(&fixture.rules, &fixture.db);
    auto got = engine.ProveQuery(query);
    HYPO_CHECK(got.ok() && *got);
    benchmark::DoNotOptimize(*got);
    probes = engine.stats().join_probes;
  }
  state.counters["join_probes"] = static_cast<double>(probes);
  state.SetLabel("chain n=" + std::to_string(n));
}
BENCHMARK(BM_ChainReachFixpoint)->Arg(64)->Arg(256)->Arg(1024);

/// A forest of `k` disjoint chains of length `len`: node `c<i>_<j>` is
/// the j-th node of chain i. Eager transitive closure must close every
/// chain (k * len^2 / 2 facts).
ProgramFixture MakeChainForest(int k, int len) {
  ProgramFixture fixture;
  auto rules = ParseRuleBase(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).\n",
      fixture.symbols);
  HYPO_CHECK(rules.ok()) << rules.status();
  fixture.rules = std::move(rules).value();
  for (int i = 0; i < k; ++i) {
    const std::string c = "c" + std::to_string(i) + "_";
    for (int j = 0; j + 1 < len; ++j) {
      HYPO_CHECK(fixture.db
                     .Insert("edge", {c + std::to_string(j),
                                      c + std::to_string(j + 1)})
                     .ok());
    }
  }
  return fixture;
}

/// Hypothetical-state exploration: every chain in the forest has a gap,
/// and one rule asks per chain whether bridging its gap reconnects the
/// endpoints. Each ground hypothetical test materializes a distinct child
/// state — and each child re-runs the rule for the other chains, so the
/// workload explores the full 2^k lattice of bridge subsets, every child
/// computed from empty (the program has a hypothetical premise).
void BM_HypoStateLattice(benchmark::State& state) {
  const int k = 8;
  const int len = 24;
  const int gap = len / 2;
  ProgramFixture fixture;
  auto rules = ParseRuleBase(
      "t(X, Y) <- edge(X, Y).\n"
      "t(X, Y) <- t(X, Z), edge(Z, Y).\n"
      "fixed(I) <- ends(I, S, E), gap(I, U, V), t(S, E)[add: edge(U, V)].\n",
      fixture.symbols);
  HYPO_CHECK(rules.ok()) << rules.status();
  fixture.rules = std::move(rules).value();
  for (int i = 0; i < k; ++i) {
    const std::string c = "c" + std::to_string(i) + "_";
    const std::string chain = "chain" + std::to_string(i);
    for (int j = 0; j + 1 < len; ++j) {
      if (j == gap) continue;
      HYPO_CHECK(fixture.db
                     .Insert("edge", {c + std::to_string(j),
                                      c + std::to_string(j + 1)})
                     .ok());
    }
    HYPO_CHECK(fixture.db
                   .Insert("ends", {chain, c + "0",
                                    c + std::to_string(len - 1)})
                   .ok());
    HYPO_CHECK(fixture.db
                   .Insert("gap", {chain, c + std::to_string(gap),
                                   c + std::to_string(gap + 1)})
                   .ok());
  }
  Query query = bench::MustParseQuery(fixture, "fixed(I)");
  int64_t states = 0;
  int64_t memo_hits = 0;
  for (auto _ : state) {
    BottomUpEngine engine(&fixture.rules, &fixture.db);
    auto got = engine.Answers(query);
    HYPO_CHECK(got.ok()) << got.status();
    HYPO_CHECK(got->size() == static_cast<size_t>(k));
    benchmark::DoNotOptimize(got->size());
    states = engine.num_states();
    memo_hits = engine.stats().memo_hits;
  }
  state.counters["db_states"] = static_cast<double>(states);
  state.counters["memo_hits"] = static_cast<double>(memo_hits);
  state.SetLabel("hypo state lattice k=" + std::to_string(k));
}
BENCHMARK(BM_HypoStateLattice);

/// Incremental base-fact maintenance (the server's epoch turn) vs full
/// rebuild: retract one mid-chain edge of a warm chain-forest closure,
/// repair, query, re-insert it, repair, query. The retraction severs one
/// chain's closure (DRed overdeletes the crossing pairs, everything else
/// keeps support); the rebuild baseline re-initializes the engine and
/// recomputes all k chains from scratch on the next query.
void BM_IncrementalRetract(benchmark::State& state) {
  bool incremental = state.range(0) != 0;
  int k = static_cast<int>(state.range(1));
  const int len = 32;
  ProgramFixture fixture = MakeChainForest(k, len);
  EngineOptions options;
  BottomUpEngine engine(&fixture.rules, &fixture.db, options);
  HYPO_CHECK(engine.Init().ok());
  Query query = bench::MustParseQuery(
      fixture, "t(c0_0, c0_" + std::to_string(len - 1) + ")");
  auto warm = engine.ProveQuery(query);
  HYPO_CHECK(warm.ok() && *warm) << warm.status();

  // A middle edge of chain 1: its endpoints stay in the domain via their
  // neighboring edges, so the repair path (not the changed-domain
  // rebuild fallback) is what gets measured.
  auto toggled = ParseFact("edge(c1_15, c1_16)", fixture.symbols.get());
  HYPO_CHECK(toggled.ok()) << toggled.status();

  int64_t overdeleted = 0;
  int64_t rederived = 0;
  int64_t repaired = 0;
  for (auto _ : state) {
    HYPO_CHECK(fixture.db.Retract(*toggled));
    BaseDelta retract;
    retract.retracts.push_back(*toggled);
    Status s = incremental ? engine.ApplyBaseDelta(retract) : engine.Init();
    HYPO_CHECK(s.ok()) << s;
    auto without = engine.ProveQuery(query);
    HYPO_CHECK(without.ok() && *without) << without.status();

    HYPO_CHECK(fixture.db.Insert(*toggled));
    BaseDelta insert;
    insert.inserts.push_back(*toggled);
    s = incremental ? engine.ApplyBaseDelta(insert) : engine.Init();
    HYPO_CHECK(s.ok()) << s;
    auto with = engine.ProveQuery(query);
    HYPO_CHECK(with.ok() && *with) << with.status();

    overdeleted = engine.stats().facts_overdeleted;
    rederived = engine.stats().facts_rederived;
    repaired = engine.stats().strata_repaired;
  }
  state.counters["facts_overdeleted"] = static_cast<double>(overdeleted);
  state.counters["facts_rederived"] = static_cast<double>(rederived);
  state.counters["strata_repaired"] = static_cast<double>(repaired);
  state.SetLabel(std::string(incremental ? "incremental" : "rebuild") +
                 " retract/insert forest k=" + std::to_string(k));
}
BENCHMARK(BM_IncrementalRetract)->ArgsProduct({{0, 1}, {4, 16, 64}});

void BM_FrameAxiomModels(benchmark::State& state) {
  // The §5.1 frame axioms stress the Δ-model fixpoint inside the
  // stratified prover (semi-naive rounds): one Δ model per machine step.
  int n = static_cast<int>(state.range(0));
  std::vector<int> input;
  for (int i = 0; i < n - 4; ++i) input.push_back(i % 2 == 0 ? kSym1 : kSym0);
  input.push_back(kSym1);  // Keep the count of '1's even overall? No: any.
  auto encoding = EncodeCascade({MakeContainsOneMachine()}, input, n);
  HYPO_CHECK(encoding.ok()) << encoding.status();
  Query query = bench::MustParseQuery(encoding->program, "accept");
  for (auto _ : state) {
    StratifiedProver prover(&encoding->program.rules, &encoding->program.db);
    auto got = prover.ProveQuery(query);
    HYPO_CHECK(got.ok() && *got);
    benchmark::DoNotOptimize(*got);
  }
  state.SetLabel("frame axioms N=" + std::to_string(n));
}
BENCHMARK(BM_FrameAxiomModels)->Arg(8)->Arg(12);

/// Overlay-heavy tabled workloads: goal-directed proofs whose memo keys
/// live under deep hypothetical contexts. Every ProveGoal call builds a
/// memo key for the current overlay state, so these isolate the cost of
/// context keying (formerly an O(|overlay| log |overlay|) canonical-key
/// rebuild per goal, now an O(1) interned id).
void BM_OverlayHeavyOrderLoop(benchmark::State& state) {
  bench::Kind kind = static_cast<bench::Kind>(state.range(0));
  int n = static_cast<int>(state.range(1));
  ProgramFixture fixture = MakeOrderLoopFixture(n);
  Query query = bench::MustParseQuery(fixture, "a");
  bench::ProveOnce(state, kind, fixture, query, /*expected=*/1);
  state.SetLabel(std::string(bench::KindName(kind)) +
                 " overlay-heavy order loop n=" + std::to_string(n));
}
BENCHMARK(BM_OverlayHeavyOrderLoop)
    ->ArgsProduct({{0, 1}, {32, 64, 96}});

void BM_OverlayHeavyCascade(benchmark::State& state) {
  bench::Kind kind = static_cast<bench::Kind>(state.range(0));
  int n = static_cast<int>(state.range(1));
  ProgramFixture fixture = MakeAddCascadeFixture(n, /*db_prefix=*/0);
  Query query = bench::MustParseQuery(fixture, "a1");
  bench::ProveOnce(state, kind, fixture, query, /*expected=*/1);
  state.SetLabel(std::string(bench::KindName(kind)) +
                 " overlay-heavy cascade n=" + std::to_string(n));
}
BENCHMARK(BM_OverlayHeavyCascade)
    ->ArgsProduct({{0, 1}, {32, 64, 96}});

/// The server's cross-query warm path: at every epoch turn the first
/// pooled engine repairs and republishes the base model on the shared
/// MemoBoard; each sibling then skips its own repair and adopts the
/// published snapshot at its next query. Timed region = what ONE sibling
/// pays per epoch turn (ApplyBaseDelta + the follow-up query):
///   /0 cold — board-less sibling, pays its own DRed repair;
///   /1 warm — board-attached sibling, pays a state drop + model Clone.
/// The untimed setup per iteration plays the server: toggle a base fact,
/// BeginEpoch, have the repairer engine repair + republish.
void BM_CrossQueryMemoReuse(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const int k = 4;
  const int len = 64;
  ProgramFixture fixture = MakeChainForest(k, len);
  MemoBoard board;
  int64_t epoch = 1;
  board.BeginEpoch(epoch);
  EngineOptions options;
  BottomUpEngine repairer(&fixture.rules, &fixture.db, options);
  repairer.AttachMemoBoard(&board);
  BottomUpEngine sibling(&fixture.rules, &fixture.db, options);
  if (warm) sibling.AttachMemoBoard(&board);
  HYPO_CHECK(repairer.Init().ok());
  HYPO_CHECK(sibling.Init().ok());
  Query query = bench::MustParseQuery(
      fixture, "t(c0_0, c0_" + std::to_string(len - 1) + ")");
  HYPO_CHECK(repairer.ProveQuery(query).ok());
  HYPO_CHECK(sibling.ProveQuery(query).ok());

  // A middle edge of chain 1: endpoints stay in the domain through their
  // neighbors, so every turn takes the repair path, never the
  // changed-domain rebuild.
  auto toggled = ParseFact("edge(c1_31, c1_32)", fixture.symbols.get());
  HYPO_CHECK(toggled.ok()) << toggled.status();
  bool present = true;
  for (auto _ : state) {
    state.PauseTiming();
    present = !present;
    BaseDelta delta;
    if (present) {
      HYPO_CHECK(fixture.db.Insert(*toggled));
      delta.inserts.push_back(*toggled);
    } else {
      HYPO_CHECK(fixture.db.Retract(*toggled));
      delta.retracts.push_back(*toggled);
    }
    board.BeginEpoch(++epoch);
    HYPO_CHECK(repairer.ApplyBaseDelta(delta).ok());
    state.ResumeTiming();

    Status s = sibling.ApplyBaseDelta(delta);
    HYPO_CHECK(s.ok()) << s;
    auto answer = sibling.ProveQuery(query);
    HYPO_CHECK(answer.ok() && *answer) << answer.status();
  }
  MemoBoard::Stats stats = board.snapshot_stats();
  state.counters["model_hits"] = static_cast<double>(stats.model_hits);
  state.counters["cache_hits_cross_query"] =
      static_cast<double>(sibling.stats().cache_hits_cross_query);
  state.SetLabel(std::string(warm ? "warm (board adopt)"
                                  : "cold (self-repair)") +
                 " k=" + std::to_string(k) + " len=" + std::to_string(len));
}
BENCHMARK(BM_CrossQueryMemoReuse)->Arg(0)->Arg(1);

/// Cost of the durability layer on the server's epoch-turn path: each
/// iteration is one acknowledged mutation batch (a base-fact toggle, so
/// every turn changes exactly one fact and repairs incrementally).
///   /0 — durability off (no data dir): the pre-existing epoch turn;
///   /1 — journal on, fsync=off: encode + buffered append only;
///   /2 — journal on, fsync=group: one fsync per 8 batches;
///   /3 — journal on, fsync=always: one fsync per acknowledged batch.
/// The /0 vs /1 delta is the journaling bookkeeping itself and should be
/// noise; /3 is bounded by the device's flush latency.
void BM_JournaledMutationBatch(benchmark::State& state) {
  constexpr char kProgram[] =
      "reach(X, Y) <- edge(X, Y).\n"
      "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n"
      "edge(a, b).\nedge(b, c).\nedge(c, d).\n";
  const int mode = static_cast<int>(state.range(0));
  ServerOptions options;
  options.engine_name = "bottomup";
  options.pool_size = 2;
  std::string dir;
  if (mode != 0) {
    dir = (std::filesystem::temp_directory_path() /
           ("hypo_bench_journal_" + std::to_string(mode)))
              .string();
    std::filesystem::remove_all(dir);
    options.durability.data_dir = dir;
    options.durability.fsync_policy =
        mode == 1   ? Journal::FsyncPolicy::kOff
        : mode == 2 ? Journal::FsyncPolicy::kGroup
                    : Journal::FsyncPolicy::kAlways;
  }
  auto server = QueryServer::Create(kProgram, options);
  HYPO_CHECK(server.ok()) << server.status();
  bool present = false;
  for (auto _ : state) {
    auto outcome = present ? (*server)->Retract("edge(d, e)")
                           : (*server)->Insert("edge(d, e)");
    HYPO_CHECK(outcome.ok()) << outcome.status();
    present = !present;
  }
  QueryServer::Counters counters = (*server)->counters();
  state.counters["journal_appends"] =
      static_cast<double>(counters.journal_appends);
  state.counters["fsyncs"] = static_cast<double>(counters.fsyncs);
  state.SetLabel(mode == 0
                     ? "durability off"
                     : std::string("fsync=") + Journal::PolicyName(
                           options.durability.fsync_policy));
  server->reset();
  if (!dir.empty()) std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournaledMutationBatch)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// The server's epoch turn on the registrar shape cost_test checks
/// (Bonner's Examples 1-3: 64 courses in four levels with two
/// prerequisites each, 1000 students with eight courses taken), through a
/// QueryServer with a pool of two engines. Each iteration is one commit,
/// cycling through an enrolment, a drop and a prerequisite swap, so the
/// gauge reads the turn's own cost: base mutation, reseal, and both
/// engines' ApplyBaseDelta. One warm-up query first gives the bottom-up
/// engines a base model to repair. Counters, per commit:
/// `domain_rebuilds` (engine Init()s) and `index_sort_micros` (sorting or
/// merging the base's permutation indexes).
///   /0 — tabled; /1 — bottom-up.
void BM_EpochTurn(benchmark::State& state) {
  std::string program =
      "needs(C, X) <- prereq(C, X).\n"
      "needs(C, X) <- prereq(C, Y), needs(Y, X).\n"
      "missing(S, C) <- student(S), needs(C, P), ~take(S, P).\n"
      "open(S, C) <- student(S), course(C), ~missing(S, C), ~take(S, C).\n";
  auto C = [](int c) { return "c" + std::to_string(c); };
  auto S = [](int s) { return "s" + std::to_string(s); };
  for (int c = 0; c < 64; ++c) {
    program += "course(" + C(c) + ").\n";
    if (c < 16) continue;
    const int below = (c / 16 - 1) * 16;
    program += "prereq(" + C(c) + ", " + C(below + c % 16) + ").\n";
    program += "prereq(" + C(c) + ", " + C(below + (c * 7 + 3) % 16) + ").\n";
  }
  for (int s = 0; s < 1000; ++s) {
    program += "student(" + S(s) + ").\n";
    for (int k = 0; k < 8; ++k) {
      program += "take(" + S(s) + ", " + C((s * 13 + k * 7) % 64) + ").\n";
    }
  }
  ServerOptions options;
  options.engine_name = state.range(0) == 0 ? "tabled" : "bottomup";
  options.pool_size = 2;
  auto server = QueryServer::Create(program, options);
  HYPO_CHECK(server.ok()) << server.status();
  HYPO_CHECK((*server)->Query("open(s5, c40)").ok());
  const QueryServer::Counters before = (*server)->counters();
  int64_t commits = 0;
  bool swapped = false;
  for (auto _ : state) {
    // An enrolment in a course the student has not taken (the ninth of
    // the sequence above) and the matching drop; a swap toggles one of
    // c40's two prerequisites.
    const int student = static_cast<int>((commits / 3) % 1000);
    const std::string take =
        "take(" + S(student) + ", " + C((student * 13 + 8 * 7) % 64) + ")";
    StatusOr<MutationOutcome> outcome = Status::OK();
    switch (commits % 3) {
      case 0:
        outcome = (*server)->Insert(take);
        break;
      case 1:
        outcome = (*server)->Retract(take);
        break;
      default: {
        auto from = (*server)->ParseMutation(
            swapped ? "prereq(c40, c20)" : "prereq(c40, c24)", false);
        auto to = (*server)->ParseMutation(
            swapped ? "prereq(c40, c24)" : "prereq(c40, c20)", true);
        HYPO_CHECK(from.ok() && to.ok());
        outcome = (*server)->ApplyBatch({*from, *to});
        swapped = !swapped;
        break;
      }
    }
    HYPO_CHECK(outcome.ok()) << outcome.status();
    ++commits;
  }
  const QueryServer::Counters after = (*server)->counters();
  const double turns = static_cast<double>(std::max<int64_t>(commits, 1));
  state.counters["domain_rebuilds"] =
      static_cast<double>(after.repair.domain_rebuilds -
                          before.repair.domain_rebuilds) /
      turns;
  state.counters["index_sort_micros"] =
      static_cast<double>(after.index_sort_micros - before.index_sort_micros) /
      turns;
  state.SetLabel(options.engine_name);
}
BENCHMARK(BM_EpochTurn)->Arg(0)->Arg(1);

}  // namespace
}  // namespace hypo

HYPO_BENCHMARK_MAIN_WITH_JSON();
