#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "analysis/stratification.h"
#include "parser/parser.h"
#include "report.h"
#include "server/checkpoint.h"
#include "server/journal.h"
#include "server/query_server.h"

namespace serverbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using hypo::QueryServer;
using hypo::Status;
using hypo::StatusOr;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Deadline given to every query of the traced replay. The engine's busy
/// time is this minus the headroom the query reports back. It is far
/// beyond any query's cost, so it never trips; arming it adds the
/// guard's clock reads, which the reported tracing overhead includes.
constexpr int64_t kHeadroomMicros = 3600LL * 1000 * 1000;

/// Placeholder for a StatusOr the next call assigns.
Status NotRun() { return Status(hypo::StatusCode::kInternal, "not run"); }

bool IsBudgetTrip(const Status& s) {
  return s.code() == hypo::StatusCode::kResourceExhausted &&
         s.message().rfind("max_steps", 0) == 0;
}

/// FNV-1a of a rendered answer, for traced/untraced parity.
uint64_t HashAnswer(const hypo::QueryOutcome& out) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view bytes) {
    for (unsigned char ch : bytes) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  mix(out.proven ? "yes" : "no");
  for (const auto& row : out.answers) {
    for (const std::string& v : row) mix(v);
  }
  return h;
}

/// Checks one answer against the oracle's expectation.
bool AnswerMatches(const Op& op, const hypo::QueryOutcome& out) {
  if (op.ground) return out.boolean && out.proven == op.expect_true;
  if (out.boolean || out.var_names.size() != 1) return false;
  std::vector<std::string> got;
  for (const auto& row : out.answers) got.push_back(row.at(0));
  std::sort(got.begin(), got.end());
  return got == op.expect_rows;
}

/// Splits "pred(a, b)" into ("pred", {"a", "b"}) for journal payloads.
std::pair<std::string, std::vector<std::string>> SplitFact(
    const std::string& fact) {
  size_t open = fact.find('(');
  std::pair<std::string, std::vector<std::string>> out{fact.substr(0, open),
                                                       {}};
  std::string arg;
  for (size_t i = open + 1; i < fact.size(); ++i) {
    char ch = fact[i];
    if (ch == ',' || ch == ')') {
      out.second.push_back(arg);
      arg.clear();
    } else if (ch != ' ') {
      arg += ch;
    }
  }
  return out;
}

/// One span: an operation id, the layer and call it timed, start and end
/// in microseconds since the run started.
struct Span {
  int64_t op;
  const char* layer;
  const char* call;
  double start_us;
  double end_us;
};

class Tracer {
 public:
  /// Runs `f` as one span; returns its duration in microseconds.
  template <typename F>
  double Time(int64_t op, const char* layer, const char* call, F&& f) {
    Clock::time_point t0 = Clock::now();
    f();
    Clock::time_point t1 = Clock::now();
    spans_.push_back({op, layer, call, Micros(origin_, t0), Micros(origin_, t1)});
    return Micros(t0, t1);
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    out << "op\tlayer\tcall\tstart_us\tend_us\n";
    for (const Span& s : spans_) {
      out << s.op << '\t' << s.layer << '\t' << s.call << '\t' << s.start_us
          << '\t' << s.end_us << '\n';
    }
    out.close();
    if (!out) return Status(hypo::StatusCode::kInternal, "cannot write " + path);
    return Status::OK();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// What the replay keeps per operation: its latency and cost class, and
/// the work counts and answer the traced run must reproduce.
struct OpRecord {
  OpKind kind = OpKind::kQuery;
  double micros = 0;
  double reference_us = 0;  // The host-speed probe taken before it.
  bool tripped = false;
  const char* cls = "";
  int64_t goals = 0, states = 0, facts = 0, vm_ops = 0;
  uint64_t answer = 0;
};

/// Host-speed reference: a fixed kernel that shares no code with the
/// program. Four independent walks through a 256 KiB table of fixed
/// pseudo-random words, each step a load and a data-dependent branch,
/// so that, like the program, it needs the core's width, its branch
/// predictor and its second-level cache, and slows when another thread
/// or guest competes for them. A latency-bound integer loop did not: it
/// held its speed while the program ran up to 2x slower. Every call
/// does the same work; the fastest of a few repetitions tells how fast
/// the host is running this process right now.
class HostSpeed {
 public:
  HostSpeed() {
    uint64_t x = 88172645463325252ULL;  // xorshift64
    for (uint32_t& word : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      word = static_cast<uint32_t>(x);
    }
  }

  double ProbeMicros() {
    double best = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      Clock::time_point t0 = Clock::now();
      uint32_t idx[kWalks] = {1, 2, 3, 4};
      uint64_t acc[kWalks] = {0, 0, 0, 0};
      for (int i = 0; i < kSteps; ++i) {
        for (int k = 0; k < kWalks; ++k) {
          uint32_t v = table_[idx[k]];
          if (v & 1) {
            acc[k] += v;
          } else {
            acc[k] ^= v * 3ULL;
          }
          idx[k] = (v ^ static_cast<uint32_t>(acc[k])) & (kSlots - 1);
        }
      }
      sink_ += acc[0] + acc[1] + acc[2] + acc[3];
      best = std::min(best, Micros(t0, Clock::now()));
    }
    return best;
  }

 private:
  static constexpr int kSlots = 65536;
  static constexpr int kWalks = 4;
  static constexpr int kSteps = 4000;
  std::vector<uint32_t> table_ = std::vector<uint32_t>(kSlots);
  uint64_t sink_ = 0;  // Keeps the walks from being optimised away.
};

/// How often the untraced replay probes the host's speed, and the probe
/// time that latencies and set-up times are scaled to (the kernel's time
/// on an undisturbed 4-core Xeon VM, so scaled figures read as
/// milliseconds there).
constexpr double kProbeEveryMicros = 50000;
constexpr double kReferenceMicros = 120;

/// Per-layer sums gathered by the traced replay.
struct LayerTotals {
  int64_t reads = 0, whatifs = 0, commits = 0;
  double query_us = 0, busy_us = 0, parse_us = 0, wait_us = 0, commit_us = 0;
  int64_t goals = 0, enumerations = 0, join_probes = 0, sorted_probes = 0;
  int64_t board_hits = 0, trips = 0, trip_steps = 0, answered_steps = 0;
  int64_t wi_contexts = 0, wi_vm_ops = 0, wi_states = 0, wi_facts = 0;
  int64_t wi_memo_hits = 0;
  int64_t states_this_epoch = 0, states_per_epoch_max = 0;
  int64_t model_rebuild_reads = 0;
  int64_t strata_repaired = 0, strata_recomputed = 0, overdeleted = 0;
  int64_t rederived = 0, domain_rebuilds = 0, vm_compiled = 0, fsyncs = 0;
  int64_t index_sort_micros = 0;
  double driver_only_us = 0;  // Driver-side calls excluded from throughput.
};

/// The driver's own copy of the program state for the parser and
/// checkpoint layers, parsed against a symbol table it owns.
struct DriverState {
  std::shared_ptr<hypo::SymbolTable> symbols;
  std::unique_ptr<hypo::ParsedProgram> parsed;
  int64_t epoch = 1;
};

struct ReplayResult {
  std::vector<OpRecord> ops;
  double wall_seconds = 0;
  int64_t failed = 0;
};

/// The server configuration of a workload; `data_dir` is used only
/// when the workload is durable.
hypo::ServerOptions ServerOptionsFor(const RunConfig& cfg,
                                     const std::string& data_dir) {
  hypo::ServerOptions o;
  o.engine_name = cfg.engine;
  o.pool_size = kPool;
  o.engine_options.max_steps = cfg.max_steps;
  if (cfg.durable()) {
    o.durability.data_dir = data_dir;
    o.durability.fsync_policy = kFsync;
    o.durability.checkpoint_every = cfg.checkpoint_every;
  }
  return o;
}

class Bench {
 public:
  Bench(const RunConfig& cfg, Registrar reg)
      : cfg_(cfg),
        reg_(std::move(reg)),
        run_dir_(cfg.workdir + "/" + cfg.workload + "-" +
                 std::to_string(cfg.seed) + "-" + std::to_string(getpid())) {}

  ~Bench() {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }

  int Run();

 private:
  Status PrepareDataDir();
  StatusOr<std::unique_ptr<QueryServer>> SetUp(int trial, double* seconds);
  Status Replay(QueryServer* server, Tracer* tracer, DriverState* ds,
                LayerTotals* lt, ReplayResult* out);
  Status RunQuery(QueryServer* server, int64_t i, const Op& op, Tracer* tracer,
                  DriverState* ds, LayerTotals* lt, OpRecord* rec);
  Status RunCommit(QueryServer* server, int64_t i, const Op& op,
                   Tracer* tracer, DriverState* ds, LayerTotals* lt,
                   OpRecord* rec);
  int RunUntraced();
  int RunTraced();
  JsonObject Detail() const;
  int Fail(const Status& s) const;

  const RunConfig& cfg_;
  Registrar reg_;
  std::string run_dir_;
  std::string prepared_dir_;
  HostSpeed speed_;
};


Status Bench::RunCommit(QueryServer* server, int64_t i, const Op& op,
                        Tracer* tracer, DriverState* ds, LayerTotals* lt,
                        OpRecord* rec) {
  std::vector<QueryServer::Mutation> batch;
  Status error;
  auto parse = [&] {
    for (const auto& [insert, fact] : op.batch) {
      auto m = server->ParseMutation(fact, insert);
      if (!m.ok()) {
        error = m.status();
        return;
      }
      batch.push_back(std::move(*m));
    }
  };
  StatusOr<hypo::MutationOutcome> applied = NotRun();
  auto apply = [&] { applied = server->ApplyBatch(batch); };

  if (tracer == nullptr) {
    Clock::time_point t0 = Clock::now();
    parse();
    if (error.ok()) apply();
    rec->micros = Micros(t0, Clock::now());
  } else {
    // Driver-side layers: parse each fact against the driver's symbols
    // and keep the driver's copy of the base in step for the checkpoint.
    Clock::time_point d0 = Clock::now();
    for (const auto& [insert, fact] : op.batch) {
      StatusOr<hypo::Fact> f = NotRun();
      lt->parse_us += tracer->Time(i, "parser", "ParseFact", [&] {
        f = hypo::ParseFact(fact, ds->symbols.get());
      });
      if (!f.ok()) return f.status();
      if (insert) {
        ds->parsed->facts.Insert(*f);
      } else {
        ds->parsed->facts.Retract(*f);
      }
    }
    QueryServer::Counters before = server->counters();
    lt->driver_only_us += Micros(d0, Clock::now());

    rec->micros = tracer->Time(i, "server", "ParseMutation", parse);
    if (error.ok()) {
      double us = tracer->Time(i, "server", "ApplyBatch", apply);
      rec->micros += us;
      lt->commit_us += us;
    }

    Clock::time_point d1 = Clock::now();
    QueryServer::Counters after = server->counters();
    lt->strata_repaired += after.repair.strata_repaired - before.repair.strata_repaired;
    lt->strata_recomputed +=
        after.repair.strata_recomputed - before.repair.strata_recomputed;
    lt->overdeleted += after.repair.facts_overdeleted - before.repair.facts_overdeleted;
    lt->rederived += after.repair.facts_rederived - before.repair.facts_rederived;
    lt->domain_rebuilds += after.repair.domain_rebuilds - before.repair.domain_rebuilds;
    lt->vm_compiled += after.repair.vm_programs_compiled -
                       before.repair.vm_programs_compiled;
    lt->fsyncs += after.fsyncs - before.fsyncs;
    lt->index_sort_micros += after.index_sort_micros - before.index_sort_micros;
    ++lt->commits;
    lt->states_per_epoch_max =
        std::max(lt->states_per_epoch_max, lt->states_this_epoch);
    lt->states_this_epoch = 0;
    ++ds->epoch;
    lt->driver_only_us += Micros(d1, Clock::now());
  }
  if (!error.ok()) return error;
  if (!applied.ok()) return applied.status();
  if (applied->changed == 0) {
    return Status(hypo::StatusCode::kInternal,
                  "commit " + std::to_string(i) + " changed nothing");
  }
  // Enrolments and drops both repair `take`; they are one cost class.
  rec->cls = op.commit_kind == "enroll" || op.commit_kind == "drop"
                 ? "take_edit"
                 : op.commit_kind.c_str();
  return Status::OK();
}

Status Bench::RunQuery(QueryServer* server, int64_t i, const Op& op,
                       Tracer* tracer, DriverState* ds, LayerTotals* lt,
                       OpRecord* rec) {
  StatusOr<hypo::QueryOutcome> out = NotRun();
  double parse_us = 0;
  if (tracer == nullptr) {
    Clock::time_point t0 = Clock::now();
    out = server->Query(op.text);
    rec->micros = Micros(t0, Clock::now());
  } else {
    Clock::time_point d0 = Clock::now();
    StatusOr<hypo::Query> parsed = NotRun();
    parse_us = tracer->Time(i, "parser", "ParseQuery", [&] {
      parsed = hypo::ParseQuery(op.text, ds->symbols.get());
    });
    if (!parsed.ok()) return parsed.status();
    lt->driver_only_us += Micros(d0, Clock::now());
    hypo::QuerySpec spec;
    spec.timeout_micros = kHeadroomMicros;
    rec->micros = tracer->Time(i, "server", "Query",
                               [&] { out = server->Query(op.text, spec); });
  }

  if (!out.ok()) {
    if (!IsBudgetTrip(out.status())) {
      return Status(out.status().code(), "operation " + std::to_string(i) +
                                             " `" + op.text + "`: " +
                                             out.status().message());
    }
    rec->tripped = true;
    rec->cls = "budget_trip";
  } else {
    if (!AnswerMatches(op, *out)) {
      return Status(hypo::StatusCode::kInternal,
                    "wrong answer to operation " + std::to_string(i) + " `" +
                        op.text + "`");
    }
    const hypo::EngineStats& st = out->stats;
    rec->goals = st.goals_expanded;
    rec->states = st.states_evaluated;
    rec->facts = st.facts_derived;
    rec->vm_ops = st.vm_ops_executed;
    rec->answer = HashAnswer(*out);
    bool fresh = st.states_evaluated > 0 && st.cache_hits_cross_query == 0;
    if (cfg_.engine == "tabled") {
      rec->cls = "answered";
    } else if (op.kind == OpKind::kWhatIf) {
      rec->cls = fresh ? "fresh_state" : "cached_state";
    } else {
      rec->cls = fresh ? "model_rebuild" : "plain";
    }
  }
  if (tracer == nullptr) return Status::OK();

  // Traced: per-layer sums. A tripped query returns no stats, so its
  // whole span counts as engine time and its steps as the full budget.
  double busy = rec->micros;
  ++lt->reads;
  lt->query_us += rec->micros;
  lt->parse_us += parse_us;
  if (rec->tripped) {
    ++lt->trips;
    lt->trip_steps += cfg_.max_steps;
  } else {
    const hypo::EngineStats& st = out->stats;
    busy = static_cast<double>(kHeadroomMicros - st.deadline_micros_remaining);
    lt->goals += st.goals_expanded;
    lt->enumerations += st.enumerations;
    lt->answered_steps += st.goals_expanded + st.enumerations;
    lt->join_probes += st.join_probes;
    lt->sorted_probes += st.sorted_probes;
    lt->board_hits += st.cache_hits_cross_query;
    lt->states_this_epoch += st.states_evaluated;
    if (op.kind == OpKind::kWhatIf) {
      ++lt->whatifs;
      lt->wi_contexts += st.contexts_interned;
      lt->wi_vm_ops += st.vm_ops_executed;
      lt->wi_states += st.states_evaluated;
      lt->wi_facts += st.facts_derived;
      lt->wi_memo_hits += st.memo_hits;
    } else if (st.states_evaluated > 0 && st.cache_hits_cross_query == 0) {
      ++lt->model_rebuild_reads;
    }
  }
  lt->busy_us += busy;
  lt->wait_us += std::max(0.0, rec->micros - busy - parse_us);
  return Status::OK();
}

Status Bench::Replay(QueryServer* server, Tracer* tracer, DriverState* ds,
                     LayerTotals* lt, ReplayResult* out) {
  out->ops.assign(reg_.script.size(), OpRecord());
  Clock::time_point t0 = Clock::now();
  Clock::time_point last_probe = t0;
  double reference_us = tracer == nullptr ? speed_.ProbeMicros() : 0;
  double probe_us = 0;
  for (size_t i = 0; i < reg_.script.size(); ++i) {
    const Op& op = reg_.script[i];
    OpRecord* rec = &out->ops[i];
    rec->kind = op.kind;
    if (tracer == nullptr &&
        Micros(last_probe, Clock::now()) > kProbeEveryMicros) {
      Clock::time_point p0 = Clock::now();
      reference_us = speed_.ProbeMicros();
      last_probe = Clock::now();
      probe_us += Micros(p0, last_probe);
    }
    rec->reference_us = reference_us;
    Status s = op.kind == OpKind::kCommit
                   ? RunCommit(server, i, op, tracer, ds, lt, rec)
                   : RunQuery(server, i, op, tracer, ds, lt, rec);
    if (!s.ok()) return s;
    if (rec->tripped) ++out->failed;
  }
  out->wall_seconds = (Micros(t0, Clock::now()) - probe_us) / 1e6;
  if (lt != nullptr) {
    lt->states_per_epoch_max =
        std::max(lt->states_per_epoch_max, lt->states_this_epoch);
    out->wall_seconds -= lt->driver_only_us / 1e6;
  }
  return Status::OK();
}

Status Bench::PrepareDataDir() {
  prepared_dir_ = run_dir_ + "/prepared";
  // The journal and checkpoints do not depend on the engine; the tabled
  // engine fills the directory fastest. No checkpoint is taken, so the
  // whole pre-phase is the journal tail that set-up replays.
  hypo::ServerOptions options = ServerOptionsFor(cfg_, prepared_dir_);
  options.engine_name = "tabled";
  options.durability.checkpoint_every = 0;
  auto server = QueryServer::Create(reg_.program, options);
  if (!server.ok()) return server.status();
  for (const Op& op : reg_.prefill) {
    std::vector<QueryServer::Mutation> batch;
    for (const auto& [insert, fact] : op.batch) {
      auto m = (*server)->ParseMutation(fact, insert);
      if (!m.ok()) return m.status();
      batch.push_back(std::move(*m));
    }
    auto applied = (*server)->ApplyBatch(batch);
    if (!applied.ok()) return applied.status();
  }
  // Abandoned without Shutdown: set-up recovers a checkpoint plus tail.
  return Status::OK();
}

/// One fresh set-up: create the server (recovering the prepared data dir
/// when durable) and warm it so lazy base-model builds are done.
StatusOr<std::unique_ptr<QueryServer>> Bench::SetUp(int trial,
                                                    double* seconds) {
  std::string data_dir;
  if (cfg_.durable()) {
    data_dir = run_dir_ + "/trial" + std::to_string(trial);
    std::error_code ec;
    fs::remove_all(data_dir, ec);
    fs::copy(prepared_dir_, data_dir, fs::copy_options::recursive, ec);
    if (ec) return Status(hypo::StatusCode::kInternal, ec.message());
  }
  Clock::time_point t0 = Clock::now();
  auto server = QueryServer::Create(reg_.program, ServerOptionsFor(cfg_, data_dir));
  if (!server.ok()) return server.status();
  for (const char* warm : {"grad(s0)", "open(s0, c0)"}) {
    auto out = (*server)->Query(warm);
    if (!out.ok() && !IsBudgetTrip(out.status())) return out.status();
  }
  *seconds = Micros(t0, Clock::now()) / 1e6;
  return server;
}

JsonObject Bench::Detail() const {
  const char* exec = std::getenv("HYPO_EXEC");
  const char* storage = std::getenv("HYPO_STORAGE");
  const RegistrarConfig& r = cfg_.registrar;
  JsonObject sizes;
  sizes.Int("students", r.students)
      .Int("courses", r.courses)
      .Int("levels", kLevels)
      .Int("prereqs_per_course", kPrereqsPerCourse)
      .Int("takes_per_student", kTakesPerStudent)
      .Int("tracks", kTracks)
      .Int("track_len", kTrackLen)
      .Int("base_facts", reg_.base_facts)
      .Int("prefill_commits", static_cast<int64_t>(reg_.prefill.size()))
      .Int("script_ops", static_cast<int64_t>(reg_.script.size()));
  JsonObject meta;
  meta.Int("nproc", Nproc())
      .Str("cpu", CpuModel())
      .Str("data_dir_fs", FilesystemOf(cfg_.workdir))
      .Str("build_type", SERVERBENCH_BUILD_TYPE)
      .Str("HYPO_EXEC", exec && *exec ? exec : "vm")
      .Str("HYPO_STORAGE", storage && *storage ? storage : "columnar")
      .Str("engine", cfg_.engine)
      .Int("pool", kPool)
      .Int("sessions", 1)
      .Int("engine_threads", 1)
      .Int("max_steps", cfg_.max_steps)
      .Str("fsync", cfg_.durable() ? hypo::Journal::PolicyName(kFsync) : "none")
      .Int("checkpoint_every", cfg_.checkpoint_every)
      .Int("rounds", kRounds)
      .Int("setup_trials", kSetupTrials)
      .Int("seed", static_cast<int64_t>(cfg_.seed))
      .Int("seconds", cfg_.seconds)
      .Obj("sizes", sizes);
  return meta;
}

int Bench::Fail(const Status& s) const {
  std::fprintf(stderr, "serverbench %s seed %llu: %s\n", cfg_.workload.c_str(),
               static_cast<unsigned long long>(cfg_.seed),
               s.ToString().c_str());
  return 1;
}

int Bench::RunUntraced() {
  // Every round sets up fresh servers and replays the same script, so
  // operation i, and set-up t, do the same work in every round (the
  // traced run checks that work repeats). A shared host slows work by up
  // to 2x, in bursts of seconds and in drifts over minutes. Every timing
  // is scaled by how fast the reference kernel ran just before it, to
  // the speed kReferenceMicros stands for, which takes out the drift.
  // An operation's latency, and a set-up's time, is its fastest scaled
  // round, which takes out the bursts. The percentiles, and setup_s (a
  // median), come from these. Throughput is the fastest round's
  // operations per scaled second of that round.
  std::vector<double> setups(kSetupTrials, 1e18), round_throughput,
      round_wall_throughput, references;
  std::vector<OpRecord> best;
  int64_t failed = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::unique_ptr<QueryServer> server;
    for (int t = 0; t < kSetupTrials; ++t) {
      server.reset();  // One live server at a time keeps peak RSS honest.
      double reference_us = speed_.ProbeMicros();
      double seconds = 0;
      auto created = SetUp(t, &seconds);
      if (!created.ok()) return Fail(created.status());
      server = std::move(*created);
      setups[t] = std::min(setups[t], seconds * kReferenceMicros / reference_us);
    }
    ReplayResult result;
    if (Status s = Replay(server.get(), nullptr, nullptr, nullptr, &result);
        !s.ok()) {
      return Fail(s);
    }
    server.reset();
    round_wall_throughput.push_back(result.ops.size() / result.wall_seconds);
    double scaled_seconds = 0;
    for (OpRecord& rec : result.ops) {
      references.push_back(rec.reference_us);
      rec.micros *= kReferenceMicros / rec.reference_us;
      scaled_seconds += rec.micros / 1e6;
    }
    round_throughput.push_back(result.ops.size() / scaled_seconds);
    if (round == 0) {
      failed = result.failed;
      best = std::move(result.ops);
      continue;
    }
    if (result.failed != failed) {
      return Fail(Status(hypo::StatusCode::kInternal,
                         "rounds disagree on the failed count"));
    }
    for (size_t i = 0; i < best.size(); ++i) {
      best[i].micros = std::min(best[i].micros, result.ops[i].micros);
    }
  }
  const int64_t attempted = static_cast<int64_t>(best.size());

  // Cost classes: a percentile sits on a step when its window (two
  // percentile points either side) holds two classes, each at least a
  // tenth of the window, whose typical costs differ by more than 2x. A
  // full-size run fails on a step; a smaller one (the smoke mode) only
  // reports it, as its windows hold a sample or two.
  std::map<std::string, std::vector<double>> by_class;
  for (const OpRecord& rec : best) {
    by_class[std::string(OpKindName(rec.kind)) + "/" + rec.cls].push_back(
        rec.micros / 1000.0);
  }
  std::map<std::string, double> class_median;
  JsonObject classes;
  for (auto& [name, ms] : by_class) {
    std::sort(ms.begin(), ms.end());
    class_median[name] = Percentile(ms, 50);
    classes.Obj(name, JsonObject()
                          .Int("n", static_cast<int64_t>(ms.size()))
                          .Num("min_ms", ms.front())
                          .Num("p50_ms", Percentile(ms, 50))
                          .Num("max_ms", ms.back()));
  }
  JsonObject metrics, ungated, samples, windows;
  std::vector<std::string> steps;
  bool gate_steps = true;
  for (OpKind kind : {OpKind::kQuery, OpKind::kWhatIf, OpKind::kCommit}) {
    std::vector<std::pair<double, const char*>> rows;
    for (const OpRecord& rec : best) {
      if (rec.kind == kind) rows.push_back({rec.micros / 1000.0, rec.cls});
    }
    if (rows.empty()) continue;
    if (static_cast<int64_t>(rows.size()) < kMinPerKind) gate_steps = false;
    std::sort(rows.begin(), rows.end());
    std::vector<double> sorted;
    for (const auto& row : rows) sorted.push_back(row.first);
    for (int p : {50, 99}) {
      std::string name = std::string(OpKindName(kind)) + "_p" +
                         std::to_string(p) + "_ms";
      // A plain query takes microseconds, and its median moved by up to
      // a third between runs on a shared VM: it is reported, not gated.
      (name == "query_p50_ms" ? ungated : metrics)
          .Obj(name, JsonObject()
                         .Num("value", Percentile(sorted, p))
                         .Str("unit", "ms"));
      samples.Int(name, static_cast<int64_t>(sorted.size()));
      auto [lo, hi] = PercentileWindow(rows.size(), p, 2);
      hi = std::min(hi, rows.size());
      std::map<std::string, int64_t> in_window;
      for (size_t k = lo; k < hi; ++k) ++in_window[rows[k].second];
      std::vector<std::string> held;
      double lo_median = 0, hi_median = 0;
      for (const auto& [cls, n] : in_window) {
        if (10 * n < static_cast<int64_t>(hi - lo)) continue;
        double m = class_median[std::string(OpKindName(kind)) + "/" + cls];
        lo_median = held.empty() ? m : std::min(lo_median, m);
        hi_median = held.empty() ? m : std::max(hi_median, m);
        held.push_back(cls);
      }
      if (hi_median > 2 * lo_median) steps.push_back(name);
      windows.StrList(name, held);
    }
  }
  metrics
      .Obj("throughput_ops_s", JsonObject()
                                   .Num("value", *std::max_element(
                                                      round_throughput.begin(),
                                                      round_throughput.end()))
                                   .Str("unit", "1/s"))
      .Obj("setup_s", JsonObject().Num("value", Median(setups)).Str("unit", "s"))
      .Obj("peak_rss_mb", JsonObject().Num("value", PeakRssMb()).Str("unit", "MB"));

  auto as_strings = [](const std::vector<double>& values) {
    std::vector<std::string> out;
    for (double v : values) out.push_back(std::to_string(v));
    return out;
  };
  JsonObject detail;
  detail.Str("workload", cfg_.workload)
      .Obj("config", Detail())
      .Num("failed_share", static_cast<double>(failed) / attempted)
      .Obj("ungated", ungated)
      .Obj("samples", samples)
      .StrList("round_throughput_ops_s", as_strings(round_throughput))
      .StrList("round_wall_throughput_ops_s", as_strings(round_wall_throughput))
      .Num("reference_us_median", Median(references))
      .Obj("op_classes", classes)
      .Obj("class_window", windows)
      .StrList("cost_class_steps", steps)
      .StrList("setup_trials_s", as_strings(setups));
  std::printf("%s\n", JsonObject().Obj("serverbench_detail", detail).str().c_str());
  if (gate_steps && !steps.empty()) {
    std::string names;
    for (const std::string& n : steps) names += " " + n;
    return Fail(Status(hypo::StatusCode::kFailedPrecondition,
                       "percentiles on a cost-class step:" + names +
                           " (class_window in the detail line)"));
  }
  std::printf("%s\n", JsonObject()
                          .Bool("correct", true)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Obj("metrics", metrics)
                          .str()
                          .c_str());
  return 0;
}

int Bench::RunTraced() {
  Tracer tracer;
  // parser / analysis layers: the driver parses the initial program into
  // its own symbol table, which also backs the per-operation parses.
  DriverState ds;
  std::vector<double> program_ms, strata_ms;
  for (int k = 0; k < 3; ++k) {
    auto symbols = std::make_shared<hypo::SymbolTable>();
    StatusOr<hypo::ParsedProgram> parsed = NotRun();
    program_ms.push_back(tracer.Time(-1, "parser", "ParseProgram", [&] {
      parsed = hypo::ParseProgram(reg_.program, symbols);
    }) / 1000.0);
    if (!parsed.ok()) return Fail(parsed.status());
    Status strata;
    strata_ms.push_back(tracer.Time(-1, "analysis", "Stratify", [&] {
      auto neg = hypo::ComputeNegationStrata(parsed->rules);
      auto lin = hypo::ComputeLinearStratification(parsed->rules);
      strata = !neg.ok() ? neg.status() : lin.status();
    }) / 1000.0);
    if (!strata.ok()) return Fail(strata);
    ds.symbols = symbols;
    ds.parsed = std::make_unique<hypo::ParsedProgram>(std::move(*parsed));
  }
  for (const Op& op : reg_.prefill) {
    for (const auto& [insert, fact] : op.batch) {
      auto f = hypo::ParseFact(fact, ds.symbols.get());
      if (!f.ok()) return Fail(f.status());
      insert ? ds.parsed->facts.Insert(*f) : ds.parsed->facts.Retract(*f);
    }
    ++ds.epoch;
  }

  // checkpoint layer: recovery of the prepared data dir.
  std::vector<double> recover_ms;
  int64_t records_replayed = 0;
  if (cfg_.durable()) {
    for (int k = 0; k < 3; ++k) {
      StatusOr<hypo::RecoveredState> rec = NotRun();
      recover_ms.push_back(tracer.Time(-1, "checkpoint", "RecoverDataDir", [&] {
        rec = hypo::RecoverDataDir(prepared_dir_, hypo::Database::DefaultBackend());
      }) / 1000.0);
      if (!rec.ok()) return Fail(rec.status());
      records_replayed = static_cast<int64_t>(rec->records.size());
    }
  }

  // The same script twice on fresh servers: untraced, then traced.
  double setup_s = 0;
  ReplayResult plain, traced;
  {
    auto server = SetUp(0, &setup_s);
    if (!server.ok()) return Fail(server.status());
    if (Status s = Replay(server->get(), nullptr, nullptr, nullptr, &plain);
        !s.ok()) {
      return Fail(s);
    }
  }
  LayerTotals lt;
  double arena_mb = 0;
  const int64_t script_epoch = ds.epoch;
  {
    std::unique_ptr<QueryServer> server;
    tracer.Time(-1, "server", "Create", [&] {
      auto created = SetUp(1, &setup_s);
      if (created.ok()) server = std::move(*created);
    });
    if (server == nullptr) return Fail(Status(hypo::StatusCode::kInternal, "set-up failed"));
    int64_t sort_before = server->counters().index_sort_micros;
    if (Status s = Replay(server.get(), &tracer, &ds, &lt, &traced); !s.ok()) {
      return Fail(s);
    }
    QueryServer::Counters end = server->counters();
    arena_mb = end.arena_bytes / (1024.0 * 1024.0);
    lt.index_sort_micros = end.index_sort_micros - sort_before;
  }
  for (size_t i = 0; i < plain.ops.size(); ++i) {
    const OpRecord& a = plain.ops[i];
    const OpRecord& b = traced.ops[i];
    if (a.tripped != b.tripped || a.answer != b.answer || a.goals != b.goals ||
        a.states != b.states || a.facts != b.facts || a.vm_ops != b.vm_ops) {
      return Fail(Status(hypo::StatusCode::kInternal,
                         "traced replay diverged at operation " +
                             std::to_string(i) + " `" + reg_.script[i].text + "`"));
    }
  }

  // journal layer: the run's commits re-appended to a scratch journal
  // under the same fsync policy.
  double append_us = 0, bytes = 0;
  int64_t appends = 0;
  if (cfg_.durable()) {
    auto journal = hypo::Journal::Create(run_dir_ + "/scratch.journal",
                                         script_epoch, kFsync, 8);
    if (!journal.ok()) return Fail(journal.status());
    uint64_t epoch = script_epoch;
    for (const Op& op : reg_.script) {
      if (op.kind != OpKind::kCommit) continue;
      std::vector<std::pair<std::string, std::vector<std::string>>> ins, del;
      for (const auto& [insert, fact] : op.batch) {
        (insert ? ins : del).push_back(SplitFact(fact));
      }
      std::string payload = hypo::EncodeJournalPayload(++epoch, ins, del);
      Status s;
      append_us += tracer.Time(-1, "journal", "Append", [&] {
        s = (*journal)->Append(epoch, payload);
      });
      if (!s.ok()) return Fail(s);
      bytes += payload.size() + 8;  // u32 length + u32 crc framing.
      ++appends;
    }
  }
  std::vector<double> write_ms;
  for (int k = 0; k < 3; ++k) {
    std::string dir = run_dir_ + "/ckpt" + std::to_string(k);
    fs::create_directories(dir);
    Status s;
    write_ms.push_back(tracer.Time(-1, "checkpoint", "WriteCheckpoint", [&] {
      std::string path;
      s = hypo::WriteCheckpoint(dir, ds.epoch, reg_.program,
                                *ds.symbols, ds.parsed->facts, &path);
    }) / 1000.0);
    if (!s.ok()) return Fail(s);
  }

  fs::create_directories(cfg_.workdir + "/spans");
  std::string span_path = cfg_.workdir + "/spans/" + cfg_.workload + "-seed" +
                          std::to_string(cfg_.seed) + ".tsv";
  if (Status s = tracer.Write(span_path); !s.ok()) return Fail(s);

  auto per = [](double total, int64_t n) { return n > 0 ? total / n : 0.0; };
  auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  double reads = static_cast<double>(lt.reads);
  double ops = static_cast<double>(traced.ops.size());
  double all_steps = lt.trip_steps + lt.answered_steps;
  double plain_tput = ops / plain.wall_seconds;
  double traced_tput = ops / traced.wall_seconds;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> m = {
      {"server.query_us", {per(lt.query_us, lt.reads), "us"}},
      {"server.outside_engine_us", {per(lt.query_us - lt.busy_us, lt.reads), "us"}},
      {"server.wait_share", {share(lt.wait_us, lt.query_us), "ratio"}},
      {"server.commit_us", {per(lt.commit_us, lt.commits), "us"}},
      {"parser.query_us", {per(lt.parse_us, lt.reads + lt.commits), "us"}},
      {"parser.program_ms", {Median(program_ms), "ms"}},
      {"analysis.strata_ms", {Median(strata_ms), "ms"}},
      {"engine.busy_us", {per(lt.busy_us, lt.reads), "us"}},
      {"engine.goals", {lt.goals / std::max(1.0, reads), "count"}},
      {"engine.enumerations", {lt.enumerations / std::max(1.0, reads), "count"}},
      {"engine.budget_trips", {static_cast<double>(lt.trips), "count"}},
      {"engine.wasted_step_share", {share(lt.trip_steps, all_steps), "ratio"}},
      {"engine.join_probes", {lt.join_probes / std::max(1.0, reads), "count"}},
      {"engine.contexts_interned", {per(lt.wi_contexts, lt.whatifs), "count"}},
      {"engine.vm_ops", {per(lt.wi_vm_ops, lt.whatifs), "count"}},
      {"engine.states", {per(lt.wi_states, lt.whatifs), "count"}},
      {"engine.facts_derived", {per(lt.wi_facts, lt.whatifs), "count"}},
      {"engine.state_reuse_ratio",
       {share(lt.wi_memo_hits, lt.wi_memo_hits + lt.wi_states), "ratio"}},
      {"engine.states_per_epoch_max",
       {static_cast<double>(lt.states_per_epoch_max), "count"}},
      {"engine.board_hits", {lt.board_hits / std::max(1.0, ops), "count"}},
      {"engine.strata_repaired", {per(lt.strata_repaired, lt.commits), "count"}},
      {"engine.strata_recomputed", {per(lt.strata_recomputed, lt.commits), "count"}},
      {"engine.facts_overdeleted", {per(lt.overdeleted, lt.commits), "count"}},
      {"engine.facts_rederived", {per(lt.rederived, lt.commits), "count"}},
      {"engine.repair_incremental_share",
       {share(lt.strata_repaired, lt.strata_repaired + lt.strata_recomputed),
        "ratio"}},
      {"engine.domain_rebuilds", {per(lt.domain_rebuilds, lt.commits), "count"}},
      {"engine.model_rebuild_reads",
       {static_cast<double>(lt.model_rebuild_reads), "count"}},
      {"engine.vm_programs_compiled", {per(lt.vm_compiled, lt.commits), "count"}},
      {"db.sorted_probe_share", {share(lt.sorted_probes, lt.join_probes), "ratio"}},
      {"db.index_sort_ms", {lt.index_sort_micros / 1000.0, "ms"}},
      {"db.arena_mb", {arena_mb, "MB"}},
      {"journal.fsyncs_per_commit", {per(lt.fsyncs, lt.commits), "count"}},
      {"journal.bytes_per_commit", {per(bytes, appends), "bytes"}},
      {"journal.append_us", {per(append_us, appends), "us"}},
      {"checkpoint.write_ms", {Median(write_ms), "ms"}},
      {"checkpoint.recover_ms", {Median(recover_ms), "ms"}},
      {"checkpoint.records_replayed", {static_cast<double>(records_replayed), "count"}},
      {"trace.overhead_share", {1.0 - traced_tput / plain_tput, "ratio"}},
  };
  JsonObject metrics;
  for (const auto& [name, value] : m) {
    metrics.Obj(name, JsonObject().Num("value", value.first).Str("unit", value.second));
  }
  JsonObject detail;
  detail.Str("workload", cfg_.workload)
      .Obj("config", Detail())
      .Num("untraced_throughput_ops_s", plain_tput)
      .Num("traced_throughput_ops_s", traced_tput)
      .Str("spans", span_path);
  std::printf("%s\n", JsonObject().Obj("serverbench_detail", detail).str().c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", true)
                          .Int("attempted", static_cast<int64_t>(traced.ops.size()))
                          .Int("failed", traced.failed)
                          .Obj("metrics", metrics)
                          .str()
                          .c_str());
  return 0;
}

int Bench::Run() {
  std::error_code ec;
  fs::create_directories(run_dir_, ec);
  if (ec) return Fail(Status(hypo::StatusCode::kInternal, ec.message()));
  if (cfg_.durable()) {
    if (Status s = PrepareDataDir(); !s.ok()) return Fail(s);
  }
  return cfg_.trace ? RunTraced() : RunUntraced();
}

/// Each round replays the whole script, so a round's share of the run's
/// nominal operations sets the script length.
Registrar Generate(const RunConfig& cfg) {
  int64_t ops =
      static_cast<int64_t>(cfg.nominal_ops_per_s * cfg.seconds / kRounds);
  return GenerateRegistrar(cfg.registrar, cfg.seed, ops, cfg.min_per_kind,
                           cfg.prefill_commits);
}

}  // namespace

int RunBenchmark(const RunConfig& config) {
  if (std::string(SERVERBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "serverbench: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 SERVERBENCH_BUILD_TYPE);
    return 2;
  }
  Bench bench(config, Generate(config));
  return bench.Run();
}

int EmitProtocol(const RunConfig& config, int64_t ops, const std::string& dir) {
  Registrar reg = Generate(config);
  if (!reg.prefill.empty()) {
    std::fprintf(stderr, "serverbench: protocol check covers fresh servers only\n");
    return 2;
  }
  ops = std::min<int64_t>(ops, reg.script.size());
  // A fresh data dir, as hypo_serve gets one: epochs start at 1.
  auto server =
      QueryServer::Create(reg.program, ServerOptionsFor(config, dir + "/inproc-data"));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  // Expected responses, rendered exactly as protocol.cc renders them.
  std::string expected;
  for (int64_t i = 0; i < ops; ++i) {
    const Op& op = reg.script[i];
    if (op.kind == OpKind::kCommit) {
      std::vector<QueryServer::Mutation> batch;
      expected += "ok batch\n";
      for (const auto& [insert, fact] : op.batch) {
        batch.push_back(*(*server)->ParseMutation(fact, insert));
        expected += "ok queued\n";
      }
      auto applied = (*server)->ApplyBatch(batch);
      if (!applied.ok()) {
        std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
        return 1;
      }
      expected += "ok epoch=" + std::to_string(applied->epoch) +
                  " changed=" + std::to_string(applied->changed) + "\n";
      continue;
    }
    auto out = (*server)->Query(op.text);
    if (!out.ok() || !AnswerMatches(op, *out)) {
      std::fprintf(stderr, "serverbench: in-process answer to `%s` failed\n",
                   op.text.c_str());
      return 1;
    }
    if (out->boolean) {
      expected += std::string("ok ") + (out->proven ? "yes" : "no") + "\n";
      continue;
    }
    expected += "ok " + std::to_string(out->answers.size()) + " answers\n";
    for (const auto& row : out->answers) {
      expected += "-";
      for (size_t k = 0; k < row.size(); ++k) {
        expected += (k == 0 ? " " : ", ") + out->var_names[k] + "=" + row[k];
      }
      expected += "\n";
    }
  }
  expected += "ok bye\n";
  std::string args = "--engine\n" + config.engine + "\n--pool\n" +
                     std::to_string(kPool) + "\n";
  if (config.durable()) {
    args += "--data-dir\n" + dir + "/data\n--fsync\n" +
            hypo::Journal::PolicyName(kFsync) + "\n--checkpoint-every\n" +
            std::to_string(config.checkpoint_every) + "\n";
  }
  fs::create_directories(dir);
  std::ofstream(dir + "/hypo_serve_args.txt") << args;
  std::ofstream(dir + "/program.hdl") << reg.program;
  std::ofstream(dir + "/script.txt") << ScriptToProtocol(reg.script, ops);
  std::ofstream(dir + "/expected.txt") << expected;
  return 0;
}

int PrintFingerprint(const RunConfig& config) {
  Registrar reg = Generate(config);
  std::printf("%016llx %zu %zu\n",
              static_cast<unsigned long long>(Fingerprint(reg)),
              reg.prefill.size(), reg.script.size());
  return 0;
}

}  // namespace serverbench
