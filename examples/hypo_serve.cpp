// hypo_serve: resident query server over a hypothetical-Datalog program.
//
//   hypo_serve PROGRAM.hdl [--engine tabled|stratified|bottomup]
//              [--pool N] [--timeout-ms N] [--max-memory-mb N]
//              [--data-dir DIR] [--fsync always|group|off]
//              [--checkpoint-every N]
//
// Reads the line protocol (see src/server/protocol.h) from stdin and
// writes one `ok`/`err` response block per command to stdout:
//
//   $ hypo_serve program.hdl <<'EOF'
//   query reach(a, X)
//   insert edge(c, d)
//   query reach(a, X)
//   retract edge(a, b)
//   query reach(a, X)
//   shutdown
//   EOF
//
// The server keeps one shared base database and a pool of warm engines;
// insert/retract turn the epoch and repair the engines' memoized models
// incrementally (bottomup: DRed delete-and-rederive) instead of
// recomputing from scratch. --timeout-ms / --max-memory-mb set per-query
// governance defaults that a session can override with `set`.
//
// --data-dir makes the server crash-safe: every committed mutation batch
// is journaled ahead of application and periodic checkpoints
// (--checkpoint-every N epoch turns) bound replay; restarting with the
// same --data-dir recovers the acknowledged state. --fsync picks the
// journal flush policy (always = per batch, group = amortized, off =
// checkpoint/shutdown only). SIGINT/SIGTERM drain in-flight queries,
// flush the journal, write a final checkpoint, and exit 3.
//
// Exit codes: 0 clean shutdown or EOF, 1 startup error, 2 usage error,
// 3 terminated by signal after a clean drain.

#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "base/string_util.h"
#include "server/protocol.h"
#include "server/query_server.h"

namespace {

using namespace hypo;

/// Set by the SIGINT/SIGTERM handler; RunSession polls it between
/// commands, and the handlers are installed without SA_RESTART so a
/// signal also interrupts a blocked stdin read.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallStopHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: interrupt the blocking getline.
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Strict positive-integer flag parsing shared with hypo_cli's checks:
/// `--pool 4abc` and overflowing values are usage errors (exit 2), not
/// silently truncated atoi results.
bool ParsePositiveFlag(const char* flag, const char* value, long* out,
                       long max = std::numeric_limits<int32_t>::max()) {
  auto parsed = ParseInt(value, 1, max);
  if (!parsed.ok()) {
    std::cerr << flag << " needs a positive integer: " << parsed.status()
              << "\n";
    return false;
  }
  *out = static_cast<long>(*parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " PROGRAM.hdl [--engine NAME] [--pool N]"
                 " [--timeout-ms N] [--max-memory-mb N]"
                 " [--no-cross-cache] [--cache-mb N]"
                 " [--data-dir DIR] [--fsync always|group|off]"
                 " [--checkpoint-every N]\n";
    return 2;
  }
  std::string program_path;
  ServerOptions options;
  long timeout_ms = 0;
  long max_memory_mb = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--engine" && i + 1 < argc) {
      options.engine_name = argv[++i];
    } else if (arg == "--no-cross-cache") {
      options.cross_query_cache = false;
    } else if (arg == "--cache-mb" && i + 1 < argc) {
      long value = 0;
      if (!ParsePositiveFlag("--cache-mb", argv[++i], &value)) return 2;
      options.cache_bytes = value * 1024 * 1024;
    } else if (arg == "--pool" && i + 1 < argc) {
      long value = 0;
      if (!ParsePositiveFlag("--pool", argv[++i], &value, 64)) return 2;
      options.pool_size = static_cast<int>(value);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParsePositiveFlag("--timeout-ms", argv[++i], &timeout_ms)) {
        return 2;
      }
    } else if (arg == "--max-memory-mb" && i + 1 < argc) {
      if (!ParsePositiveFlag("--max-memory-mb", argv[++i], &max_memory_mb)) {
        return 2;
      }
    } else if (arg == "--data-dir" && i + 1 < argc) {
      options.durability.data_dir = argv[++i];
    } else if (arg == "--fsync" && i + 1 < argc) {
      auto policy = Journal::ParsePolicy(argv[++i]);
      if (!policy.ok()) {
        std::cerr << "--fsync: " << policy.status() << "\n";
        return 2;
      }
      options.durability.fsync_policy = *policy;
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      long value = 0;
      if (!ParsePositiveFlag("--checkpoint-every", argv[++i], &value)) {
        return 2;
      }
      options.durability.checkpoint_every = value;
    } else if (program_path.empty()) {
      program_path = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return 2;
    }
  }
  options.engine_options.timeout_micros = timeout_ms * 1000;
  options.engine_options.max_memory_bytes = max_memory_mb * 1024 * 1024;

  std::ifstream in(program_path);
  if (!in) {
    std::cerr << "cannot open " << program_path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  InstallStopHandlers();

  auto server = QueryServer::Create(buffer.str(), options);
  if (!server.ok()) {
    std::cerr << "server startup: " << server.status() << "\n";
    return 1;
  }
  std::cerr << "hypo_serve ready: engine=" << (*server)->options().engine_name
            << " pool=" << (*server)->options().pool_size
            << " epoch=" << (*server)->epoch();
  if (!options.durability.data_dir.empty()) {
    std::cerr << " data_dir=" << options.durability.data_dir << " fsync="
              << Journal::PolicyName(options.durability.fsync_policy);
  }
  std::cerr << "\n";
  int code = RunSession(server->get(), std::cin, std::cout, &g_stop);
  // Drain and persist regardless of how the session ended — EOF, an
  // explicit `shutdown`, or a stop signal. Shutdown is a no-op when
  // durability is off.
  if (Status s = (*server)->Shutdown(); !s.ok()) {
    std::cerr << "shutdown: " << s << "\n";
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    std::cerr << "hypo_serve: drained after signal\n";
    return 3;
  }
  return code;
}
