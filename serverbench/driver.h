#ifndef SERVERBENCH_DRIVER_H_
#define SERVERBENCH_DRIVER_H_

#include <cstdint>
#include <string>

#include "registrar.h"
#include "server/journal.h"

namespace serverbench {

/// Fixed in every workload and recorded in every result's detail line.
constexpr int kPool = 2;  // ServerOptions::pool_size
/// Durable workloads fsync every journal append.
constexpr hypo::Journal::FsyncPolicy kFsync =
    hypo::Journal::FsyncPolicy::kAlways;
/// Rounds per run, each fresh set-ups plus a replay of the whole
/// script; an operation's latency is its fastest round.
constexpr int kRounds = 4;
/// Fresh set-ups per round. Each set-up's time is its fastest round,
/// and setup_s is the median over the set-ups.
constexpr int kSetupTrials = 8;
/// Operations of each kind a full-size script holds at least, so that
/// each p99 has ten samples beyond it.
constexpr int64_t kMinPerKind = 1000;

/// One workload invocation. The workload's fields come from
/// workloads.json through run.py; the defaults here hold for every
/// workload, and only the smoke mode overrides them.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;

  std::string engine;             // ServerOptions::engine_name
  int64_t max_steps = 0;          // EngineOptions::max_steps (governance)
  /// A workload that checkpoints is durable: it journals every commit
  /// (kFsync) into a data dir. 0 means no durability.
  int64_t checkpoint_every = 0;
  bool durable() const { return checkpoint_every > 0; }
  /// Commits applied by the untimed pre-phase that fills the data dir
  /// without checkpoints and abandons it without Shutdown, so set-up is
  /// crash recovery of a journal tail this long.
  int64_t prefill_commits = 0;
  /// Script length is nominal_ops_per_s * seconds / kRounds (at least
  /// min_per_kind of every kind), so a run's work is a pure function of
  /// its arguments.
  double nominal_ops_per_s = 0;
  int64_t min_per_kind = kMinPerKind;
  RegistrarConfig registrar;

  /// Scratch space for data dirs and span dumps, inside the checkout.
  std::string workdir = ".bench_build/work";
};

/// Runs the workload and prints two lines: a detail object (machine
/// metadata, sizes, sample counts, cost-class windows) and, last, the
/// result object {correct, attempted, failed, metrics}. Returns the exit
/// code: non-zero on any wrong answer or unexpected error.
int RunBenchmark(const RunConfig& config);

/// Protocol parity: writes `program.hdl`, `script.txt` (the first `ops`
/// operations in the hypo_serve line protocol), `expected.txt` (the
/// responses the in-process server gave to the same lines) and
/// `hypo_serve_args.txt` (the flags that configure hypo_serve the same
/// way, one a line) into `dir`.
int EmitProtocol(const RunConfig& config, int64_t ops, const std::string& dir);

/// Prints the generated inputs' fingerprint (determinism test).
int PrintFingerprint(const RunConfig& config);

}  // namespace serverbench

#endif  // SERVERBENCH_DRIVER_H_
