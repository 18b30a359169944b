#ifndef HYPO_BENCH_BENCH_UTIL_H_
#define HYPO_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "base/logging.h"
#include "engine/bottom_up.h"
#include "engine/engine.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "queries/fixture.h"

namespace hypo {
namespace bench {

/// Engines a benchmark can run against.
enum class Kind { kTabled = 0, kStratified = 1, kBottomUp = 2 };

inline const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kTabled: return "tabled";
    case Kind::kStratified: return "stratified";
    case Kind::kBottomUp: return "bottom-up";
  }
  return "?";
}

inline std::unique_ptr<Engine> MakeEngine(
    Kind kind, const RuleBase* rules, const Database* db,
    EngineOptions options = EngineOptions()) {
  static const char* const kEngineNames[] = {"tabled", "stratified",
                                             "bottomup"};
  auto engine = hypo::MakeEngine(kEngineNames[static_cast<int>(kind)], rules,
                                 db, options);
  HYPO_CHECK(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// Parses `text` as a query against the fixture's symbols, aborting on
/// error (benchmarks are trusted code).
inline Query MustParseQuery(const ProgramFixture& fixture,
                            const std::string& text) {
  auto query =
      ParseQuery(text, const_cast<SymbolTable*>(&fixture.rules.symbols()));
  HYPO_CHECK(query.ok()) << query.status();
  return std::move(query).value();
}

/// Proves `query` with a fresh engine, reporting stats as counters and
/// checking the expected answer when `expected` is 0/1 (-1 skips).
inline void ProveOnce(benchmark::State& state, Kind kind,
                      const ProgramFixture& fixture, const Query& query,
                      int expected = -1) {
  int64_t goals = 0;
  int64_t states = 0;
  for (auto _ : state) {
    auto engine = MakeEngine(kind, &fixture.rules, &fixture.db);
    auto result = engine->ProveQuery(query);
    HYPO_CHECK(result.ok()) << result.status();
    if (expected >= 0) {
      HYPO_CHECK(*result == (expected == 1)) << "wrong answer in benchmark";
    }
    benchmark::DoNotOptimize(*result);
    goals = engine->stats().goals_expanded;
    states = engine->stats().states_evaluated;
  }
  state.counters["goals"] = static_cast<double>(goals);
  state.counters["db_states"] = static_cast<double>(states);
}

}  // namespace bench
}  // namespace hypo

#endif  // HYPO_BENCH_BENCH_UTIL_H_
