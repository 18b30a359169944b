// hypo_cli: evaluate hypothetical-Datalog programs from the command line.
//
//   hypo_cli PROGRAM.hdl [-q QUERY]... [--engine tabled|stratified|bottomup]
//   hypo_cli PROGRAM.hdl -q "..." --timeout-ms 500 --max-memory-mb 256
//   hypo_cli PROGRAM.hdl --explain  # print the linear stratification
//   hypo_cli PROGRAM.hdl --explain-plan  # premise order + rule bytecode
//                                        # (top-down rules: per adornment,
//                                        # after -q queries compiled them)
//   hypo_cli PROGRAM.hdl --proof -q "grad(tony)"   # print a derivation
//   hypo_cli PROGRAM.hdl            # interactive: one query per line
//
// PROGRAM.hdl mixes rules and facts (ground, bodyless statements become
// database facts). Queries use the same premise syntax, e.g.
//   grad(tony)[add: take(tony, cs452)]
//   reach(a, c)[del: link(a, b)]
//   one_away(S)
//
// Resource governance: --timeout-ms bounds each query's wall clock,
// --max-memory-mb bounds the engine's approximate memory, and SIGINT
// (ctrl-c) cancels the running query cooperatively. Exit codes: 0 ok,
// 1 evaluation/parse error, 2 usage error, 3 deadline exceeded,
// 4 resource limit exceeded, 5 cancelled. An unknown --engine name is a
// usage error.

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "base/string_util.h"
#include "engine/proof.h"
#include "engine/tabled.h"
#include "parser/parser.h"

namespace {

using namespace hypo;

/// Parses a positive integer flag value strictly (no trailing garbage,
/// no silent overflow — `--timeout-ms 4abc` and `--timeout-ms 999…9` are
/// usage errors, exit code 2). `max` defaults to a generous but finite
/// bound so later unit conversions (ms -> us, MB -> bytes) cannot wrap.
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

/// SIGINT flips the token from the handler (Cancel() is async-signal
/// safe); the running query aborts at its next metering check.
CancellationToken* g_cancel = nullptr;

void HandleSigint(int) {
  if (g_cancel != nullptr) g_cancel->Cancel();
}

/// Documented process exit codes for governance trips (see file header).
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return 3;
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kCancelled:
      return 5;
    default:
      return 1;
  }
}

int PrintProof(TabledEngine* engine, SymbolTable* symbols,
               const std::string& text) {
  auto fact = ParseFact(text, symbols);
  if (!fact.ok()) {
    std::cerr << "--proof needs a ground atom: " << fact.status() << "\n";
    return 1;
  }
  auto proof = engine->ExplainFact(*fact);
  if (!proof.ok()) {
    std::cerr << proof.status() << "\n";
    return ExitCodeFor(proof.status());
  }
  std::cout << ProofToString(*proof, *symbols);
  return 0;
}

int RunQuery(Engine* engine, SymbolTable* symbols, const std::string& text) {
  auto query = ParseQuery(text, symbols);
  if (!query.ok()) {
    std::cerr << "query error: " << query.status() << "\n";
    return 1;
  }
  if (query->num_vars() == 0) {
    auto r = engine->ProveQuery(*query);
    if (!r.ok()) {
      std::cerr << "evaluation error: " << r.status() << "\n";
      return ExitCodeFor(r.status());
    }
    std::cout << (*r ? "yes" : "no") << "\n";
    return 0;
  }
  auto answers = engine->Answers(*query);
  if (!answers.ok()) {
    std::cerr << "evaluation error: " << answers.status() << "\n";
    return ExitCodeFor(answers.status());
  }
  if (answers->empty()) {
    std::cout << "no answers\n";
    return 0;
  }
  for (const Tuple& tuple : *answers) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << query->var_names[i] << " = "
                << symbols->ConstName(tuple[i]);
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " PROGRAM.hdl [-q QUERY]... [--engine NAME]"
                 " [--timeout-ms N] [--max-memory-mb N] [--explain-plan]\n";
    return 2;
  }
  std::string program_path;
  std::vector<std::string> queries;
  std::string engine_name = "tabled";
  bool explain = false;
  bool explain_plan = false;
  bool proof = false;
  long timeout_ms = 0;
  long max_memory_mb = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-q" && i + 1 < argc) {
      queries.emplace_back(argv[++i]);
    } else if (arg == "--engine" && i + 1 < argc) {
      engine_name = argv[++i];
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParsePositiveFlag("--timeout-ms", argv[++i], &timeout_ms)) {
        return 2;
      }
    } else if (arg == "--max-memory-mb" && i + 1 < argc) {
      if (!ParsePositiveFlag("--max-memory-mb", argv[++i], &max_memory_mb)) {
        return 2;
      }
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain-plan") {
      explain_plan = true;
    } else if (arg == "--proof") {
      proof = true;
    } else if (program_path.empty()) {
      program_path = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return 2;
    }
  }

  std::ifstream in(program_path);
  if (!in) {
    std::cerr << "cannot open " << program_path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto symbols = std::make_shared<SymbolTable>();
  auto program = ParseProgram(buffer.str(), symbols);
  if (!program.ok()) {
    std::cerr << "parse error: " << program.status() << "\n";
    return 1;
  }
  std::cerr << "loaded " << program->rules.num_rules() << " rules, "
            << program->facts.size() << " facts\n";

  EngineOptions options;
  options.timeout_micros = timeout_ms * 1000;
  options.max_memory_bytes = max_memory_mb * 1024 * 1024;
  auto cancel = std::make_shared<CancellationToken>();
  options.cancel = cancel;
  g_cancel = cancel.get();
  std::signal(SIGINT, HandleSigint);

  auto made = MakeEngine(engine_name, &program->rules, &program->facts,
                         options);
  if (!made.ok()) {
    std::cerr << made.status() << "\n";
    return 2;
  }
  std::unique_ptr<Engine> engine = std::move(made).value();

  if (explain) {
    std::cout << ExplainStratification(program->rules);
    if (queries.empty()) return 0;
  }

  if (Status s = engine->Init(); !s.ok()) {
    std::cerr << "engine init (" << engine->name() << "): " << s << "\n";
    return 1;
  }

  // The top-down engines plan per adornment as queries reach their rules,
  // so with queries their plans print after them.
  const bool plans_after_queries =
      explain_plan && engine->name() != "bottom-up" && !queries.empty();
  if (explain_plan && !plans_after_queries) {
    std::cout << engine->ExplainPlans();
    if (queries.empty()) return 0;
  }

  // First failure wins: a governance exit code (3/4/5) from query k must
  // not be OR-mangled by later queries' codes.
  int rc = 0;
  if (proof) {
    if (engine->name() != "tabled") {
      std::cerr << "--proof requires --engine tabled\n";
      return 2;
    }
    auto* tabled = static_cast<TabledEngine*>(engine.get());
    for (const std::string& q : queries) {
      std::cout << "?- " << q << "\n";
      int code = PrintProof(tabled, symbols.get(), q);
      if (rc == 0) rc = code;
    }
    return rc;
  }
  if (!queries.empty()) {
    for (const std::string& q : queries) {
      std::cout << "?- " << q << "\n";
      int code = RunQuery(engine.get(), symbols.get(), q);
      if (rc == 0) rc = code;
    }
    if (plans_after_queries) std::cout << engine->ExplainPlans();
    return rc;
  }
  std::cerr << "enter queries, one per line (ctrl-d to quit)\n";
  std::string line;
  while (std::cout << "?- " && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    RunQuery(engine.get(), symbols.get(), line);
    // A ctrl-c that landed mid-query cancelled it; clear the token so
    // the session keeps accepting queries (quit with ctrl-d).
    if (cancel->cancelled()) cancel->Reset();
  }
  return 0;
}
