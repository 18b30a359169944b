#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/restricted.h"
#include "engine/memo_board.h"
#include "parser/parser.h"
#include "server/checkpoint.h"

namespace hypo {

namespace {

/// Returns the checked-out engine even when evaluation fails or throws.
class EngineLease {
 public:
  EngineLease(QueryServer* server, Engine* engine,
              void (QueryServer::*release)(Engine*))
      : server_(server), engine_(engine), release_(release) {}
  ~EngineLease() { (server_->*release_)(engine_); }
  Engine* get() const { return engine_; }

 private:
  QueryServer* server_;
  Engine* engine_;
  void (QueryServer::*release_)(Engine*);
};

/// Deterministic fact order for journaled deltas: the on-disk record (and
/// therefore the recovered insertion order) must not depend on hash-map
/// iteration.
bool FactLess(const Fact& a, const Fact& b) {
  if (a.predicate != b.predicate) return a.predicate < b.predicate;
  return a.args < b.args;
}

}  // namespace

StatusOr<std::unique_ptr<QueryServer>> QueryServer::Create(
    std::string_view program, ServerOptions options) {
  if (options.pool_size < 1) {
    return Status::InvalidArgument("server pool_size must be >= 1");
  }

  const DurabilityOptions& dur = options.durability;
  std::unique_ptr<QueryServer> server;
  bool fresh_data_dir = false;
  if (!dur.data_dir.empty()) {
    auto recovered = RecoverDataDir(dur.data_dir);
    if (!recovered.ok()) return recovered.status();
    if (recovered->have_checkpoint) {
      // The persisted program is authoritative: the checkpointed
      // relations were built against ITS rulebase, and re-parsing it
      // against the checkpoint's symbol table re-interns every symbol to
      // the same dense id (interning is idempotent and the dump is in id
      // order).
      auto symbols = recovered->symbols;
      auto parsed = ParseProgram(recovered->program, symbols);
      if (!parsed.ok()) {
        return Status::DataLoss(
            "checkpointed program no longer parses: " +
            parsed.status().message());
      }
      server.reset(new QueryServer(std::move(options), std::move(symbols),
                                   std::move(parsed->rules),
                                   std::move(*recovered->base)));
      server->program_ = std::move(recovered->program);
      if (Status s = server->ApplyRecoveredRecords(recovered->records);
          !s.ok()) {
        return s;
      }
      server->epoch_ = static_cast<int64_t>(recovered->epoch);
      server->last_checkpoint_epoch_ =
          static_cast<int64_t>(recovered->checkpoint_epoch);
      server->recoveries_ = 1;
      server->torn_records_dropped_ = recovered->torn_records_dropped;
      const std::string jpath =
          JournalPath(dur.data_dir, recovered->checkpoint_epoch);
      StatusOr<std::unique_ptr<Journal>> journal =
          recovered->journal_reusable
              ? Journal::OpenAt(jpath, recovered->checkpoint_epoch,
                                recovered->journal_valid_bytes,
                                recovered->epoch + 1, dur.fsync_policy,
                                dur.fsync_group_size)
              : Journal::Create(jpath, recovered->checkpoint_epoch,
                                dur.fsync_policy, dur.fsync_group_size);
      if (!journal.ok()) return journal.status();
      server->journal_ = std::move(*journal);
      // Journal replay can re-validate only what the journal carries;
      // anything it dropped (a torn tail) is already counted. The epoch
      // the journal will stamp next must line up with where we resumed.
      if (server->journal_->next_epoch() !=
          static_cast<uint64_t>(server->epoch_) + 1) {
        return Status::Internal("recovered journal epoch misaligned");
      }
    } else {
      fresh_data_dir = true;
    }
  }

  if (server == nullptr) {
    auto symbols = std::make_shared<SymbolTable>();
    auto parsed = ParseProgram(program, symbols);
    if (!parsed.ok()) return parsed.status();
    server.reset(new QueryServer(std::move(options), std::move(symbols),
                                 std::move(parsed->rules),
                                 std::move(parsed->facts)));
    server->program_ = std::string(program);
    server->epoch_ = 1;
  }

  if (Status s = server->InitEngines(); !s.ok()) return s;
  if (server->options_.cross_query_cache) {
    server->board_ =
        std::make_unique<MemoBoard>(server->options_.cache_bytes);
    server->board_->BeginEpoch(server->epoch_);
    for (const auto& engine : server->engines_) {
      engine->AttachMemoBoard(server->board_.get());
    }
  }
  server->PrepareAndSeal();

  if (fresh_data_dir) {
    // Seed the dir with an epoch-1 checkpoint before serving: recovery
    // then ALWAYS finds a checkpoint, so a journal with no checkpoint is
    // unambiguously damage, never a normal state.
    const DurabilityOptions& d = server->options_.durability;
    Status s = WriteCheckpoint(d.data_dir, 1, server->program_,
                               *server->symbols_, server->base_, nullptr);
    if (!s.ok()) return s;
    auto journal = Journal::Create(JournalPath(d.data_dir, 1), 1,
                                   d.fsync_policy, d.fsync_group_size);
    if (!journal.ok()) return journal.status();
    server->journal_ = std::move(*journal);
    server->last_checkpoint_epoch_ = 1;
    server->checkpoints_ = 1;
    (void)GarbageCollectDataDir(d.data_dir, 1);
  }
  return server;
}

QueryServer::QueryServer(ServerOptions options,
                         std::shared_ptr<SymbolTable> symbols, RuleBase rules,
                         Database base)
    : options_(std::move(options)),
      symbols_(std::move(symbols)),
      rules_(std::move(rules)),
      base_(std::move(base)) {}

QueryServer::~QueryServer() {
  // Quiesce: no query may still hold a lease while engines are destroyed.
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
}

Status QueryServer::InitEngines() {
  engines_.reserve(options_.pool_size);
  free_.reserve(options_.pool_size);
  for (int i = 0; i < options_.pool_size; ++i) {
    HYPO_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                          MakeEngine(options_.engine_name, &rules_, &base_,
                                     options_.engine_options));
    if (Status s = engine->Init(); !s.ok()) return s;
    free_.push_back(engine.get());
    engines_.push_back(std::move(engine));
  }
  return Status::OK();
}

void QueryServer::PrepareAndSeal() {
  // The server's base lives across many epochs and every engine probes
  // it; sorted permutation indexes pay their O(n log n) once per epoch
  // and are O(1) to reseal when the relations did not change.
  base_.EnableSortedIndexes();
  for (const auto& engine : engines_) {
    for (const auto& [pred, mask] : engine->BaseProbeSignatures()) {
      base_.PrepareIndex(pred, mask);
    }
  }
  base_.SealIndexes();
}

Engine* QueryServer::CheckOut() {
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_cv_.wait(lock, [&] { return !free_.empty(); });
  Engine* engine = free_.back();
  free_.pop_back();
  return engine;
}

void QueryServer::CheckIn(Engine* engine) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    free_.push_back(engine);
  }
  pool_cv_.notify_one();
}

StatusOr<QueryOutcome> QueryServer::Query(std::string_view text,
                                          const QuerySpec& spec) {
  hypo::Query query;
  {
    std::unique_lock<std::shared_mutex> symbols_lock(symbols_mu_);
    auto parsed = ParseQuery(text, symbols_.get());
    if (!parsed.ok()) return parsed.status();
    query = std::move(*parsed);
  }
  // Restricted predicates are rejected up front — before an engine lease,
  // so a stream of violating queries cannot occupy the pool.
  if (Status s = CheckQueryRestrictions(rules_, query); !s.ok()) {
    restricted_rejections_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }

  // Held shared for the whole evaluation: an epoch turn waits for us.
  std::shared_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  EngineLease lease(this, CheckOut(), &QueryServer::CheckIn);
  Engine* engine = lease.get();

  EngineOptions* opts = engine->mutable_options();
  opts->timeout_micros = spec.timeout_micros >= 0
                             ? spec.timeout_micros
                             : options_.engine_options.timeout_micros;
  opts->max_memory_bytes = spec.max_memory_bytes >= 0
                               ? spec.max_memory_bytes
                               : options_.engine_options.max_memory_bytes;
  engine->ResetStats();

  QueryOutcome out;
  out.epoch = epoch_;

  std::shared_lock<std::shared_mutex> symbols_lock(symbols_mu_);
  if (query.num_vars() == 0) {
    auto proven = engine->ProveQuery(query);
    if (!proven.ok()) return proven.status();
    out.boolean = true;
    out.proven = *proven;
  } else {
    auto answers = engine->Answers(query);
    if (!answers.ok()) return answers.status();
    out.var_names = query.var_names;
    out.answers.reserve(answers->size());
    for (const Tuple& tuple : *answers) {
      std::vector<std::string> row;
      row.reserve(tuple.size());
      for (ConstId c : tuple) row.push_back(symbols_->ConstName(c));
      out.answers.push_back(std::move(row));
    }
  }
  out.stats = engine->stats();
  queries_.fetch_add(1, std::memory_order_relaxed);
  cache_hits_cross_query_.fetch_add(out.stats.cache_hits_cross_query,
                                    std::memory_order_relaxed);
  contexts_reused_.fetch_add(out.stats.contexts_reused,
                             std::memory_order_relaxed);
  vm_programs_compiled_.fetch_add(out.stats.vm_programs_compiled,
                                  std::memory_order_relaxed);
  vm_ops_executed_.fetch_add(out.stats.vm_ops_executed,
                             std::memory_order_relaxed);
  return out;
}

void QueryServer::HoldEngineForTest(const std::function<void()>& fn) {
  EngineLease lease(this, CheckOut(), &QueryServer::CheckIn);
  fn();
}

std::string QueryServer::Explain() {
  std::shared_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  EngineLease lease(this, CheckOut(), &QueryServer::CheckIn);
  // Symbol names are read while disassembling predicate references.
  std::shared_lock<std::shared_mutex> symbols_lock(symbols_mu_);
  return lease.get()->ExplainPlans();
}

StatusOr<QueryServer::Mutation> QueryServer::ParseMutation(
    std::string_view fact_text, bool insert) {
  std::unique_lock<std::shared_mutex> symbols_lock(symbols_mu_);
  auto fact = ParseFact(fact_text, symbols_.get());
  if (!fact.ok()) return fact.status();
  Mutation m;
  m.insert = insert;
  m.fact = std::move(*fact);
  return m;
}

StatusOr<MutationOutcome> QueryServer::Insert(std::string_view fact_text) {
  auto m = ParseMutation(fact_text, /*insert=*/true);
  if (!m.ok()) return m.status();
  return ApplyBatch({std::move(*m)});
}

StatusOr<MutationOutcome> QueryServer::Retract(std::string_view fact_text) {
  auto m = ParseMutation(fact_text, /*insert=*/false);
  if (!m.ok()) return m.status();
  return ApplyBatch({std::move(*m)});
}

StatusOr<MutationOutcome> QueryServer::ApplyBatch(
    const std::vector<Mutation>& batch) {
  std::unique_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  ++mutation_batches_;
  if (read_only_) {
    return Status::Unavailable(
        "server is read-only after a journal failure; mutations are "
        "rejected until restart (queries still serve)");
  }
  if (shutdown_) {
    return Status::Unavailable("server is shut down");
  }

  // The BaseDelta contract wants NET changes only. The net effect is
  // computed WITHOUT touching the base — write-ahead logging demands the
  // batch be durable before any in-memory state moves, and a journal
  // failure must leave the base exactly as it was. `present` simulates
  // each touched fact's membership through the batch in order
  // (insert-then-retract of the same fact nets out).
  std::unordered_map<Fact, bool, FactHash> initial;
  std::unordered_map<Fact, bool, FactHash> present;
  for (const Mutation& m : batch) {
    auto [it, first_touch] = present.try_emplace(m.fact, false);
    if (first_touch) {
      const bool was = base_.Contains(m.fact);
      initial.emplace(m.fact, was);
      it->second = was;
    }
    it->second = m.insert;
  }
  BaseDelta delta;
  for (const auto& [fact, now_present] : present) {
    if (now_present == initial[fact]) continue;
    (now_present ? delta.inserts : delta.retracts).push_back(fact);
  }
  // Hash-map iteration filled the delta in arbitrary order; sort so the
  // journal record — and the recovered process's insertion order — is a
  // pure function of the logical batch.
  std::sort(delta.inserts.begin(), delta.inserts.end(), FactLess);
  std::sort(delta.retracts.begin(), delta.retracts.end(), FactLess);

  MutationOutcome out;
  out.changed =
      static_cast<int64_t>(delta.inserts.size() + delta.retracts.size());
  if (delta.empty()) {
    // Nothing moved; keep the current epoch's seal (reseal is idempotent
    // and cheap when indexes are already caught up). No journal record:
    // a no-op batch does not turn the epoch.
    base_.SealIndexes();
    ++noop_batches_;
    out.epoch = epoch_;
    return out;
  }

  // Journal first. Only after the record is durably framed may the base
  // move; on failure the server degrades to read-only with the base,
  // engines, and seal all untouched at the last committed epoch.
  if (journal_ != nullptr) {
    if (Status s = JournalAppend(delta); !s.ok()) {
      read_only_ = true;
      return Status::Unavailable(
          "mutation batch not committed (journal append failed after "
          "retries: " +
          s.message() + "); server is now read-only");
    }
  }

  for (const Fact& f : delta.inserts) base_.Insert(f);
  base_.RetractBatch(delta.retracts);

  // New epoch: re-prepare the engines' probe signatures over the mutated
  // relations, reseal, then let each engine repair its memoized models.
  PrepareAndSeal();
  // Turn the board's epoch BEFORE any engine repairs: stale goal verdicts
  // vanish at once, and the first engine to finish repairing republishes
  // the base model under the new epoch for its siblings to adopt.
  if (board_ != nullptr) board_->BeginEpoch(epoch_ + 1);
  Status first_error = Status::OK();
  for (const auto& engine : engines_) {
    engine->ResetStats();
    Status s = engine->ApplyBaseDelta(delta);
    if (!s.ok()) {
      // All-or-nothing per engine: an engine whose repair aborted midway
      // must not serve the new epoch half-repaired. Force a from-scratch
      // Init (cheap — models rebuild lazily on the next query) so the
      // engine re-enters the pool coherent, and surface the first error.
      Status reinit = engine->Init();
      if (first_error.ok()) first_error = reinit.ok() ? s : reinit;
    }
    repair_stats_.Merge(engine->stats());
  }
  ++epoch_;
  out.epoch = epoch_;
  if (journal_ != nullptr && options_.durability.checkpoint_every > 0 &&
      epoch_ - last_checkpoint_epoch_ >=
          options_.durability.checkpoint_every) {
    // The batch is already committed (journaled and applied); periodic
    // checkpoint trouble must not fail it. A rotation failure inside
    // flips read_only_, which the next mutation reports.
    (void)CheckpointLocked();
  }
  if (!first_error.ok()) return first_error;
  return out;
}

Status QueryServer::JournalAppend(const BaseDelta& delta) {
  std::vector<std::pair<std::string, std::vector<std::string>>> inserts;
  std::vector<std::pair<std::string, std::vector<std::string>>> retracts;
  {
    std::shared_lock<std::shared_mutex> symbols_lock(symbols_mu_);
    auto render = [&](const std::vector<Fact>& facts, auto* out) {
      out->reserve(facts.size());
      for (const Fact& f : facts) {
        std::vector<std::string> args;
        args.reserve(f.args.size());
        for (ConstId c : f.args) args.push_back(symbols_->ConstName(c));
        out->emplace_back(symbols_->PredicateName(f.predicate),
                          std::move(args));
      }
    };
    render(delta.inserts, &inserts);
    render(delta.retracts, &retracts);
  }
  const auto epoch = static_cast<uint64_t>(epoch_) + 1;
  const std::string payload =
      EncodeJournalPayload(epoch, inserts, retracts);
  Status s;
  for (int attempt = 0;
       attempt <= options_.durability.append_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.durability.retry_backoff_ms * attempt));
    }
    s = journal_->Append(epoch, payload);
    if (s.ok()) return s;
    // A poisoned journal cannot take the record no matter how often we
    // ask (its tail could not be rolled back); stop burning attempts.
    if (journal_->poisoned()) break;
  }
  return s;
}

Status QueryServer::CheckpointLocked() {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition(
        "durability is off (no --data-dir); nothing to checkpoint");
  }
  if (read_only_) {
    return Status::Unavailable(
        "server is read-only; the journal already holds all committed "
        "state");
  }
  const DurabilityOptions& dur = options_.durability;
  Status s;
  {
    std::shared_lock<std::shared_mutex> symbols_lock(symbols_mu_);
    s = WriteCheckpoint(dur.data_dir, static_cast<uint64_t>(epoch_),
                        program_, *symbols_, base_, nullptr);
  }
  // A failed checkpoint write is NOT a degradation: the previous
  // checkpoint + current journal remain authoritative and writable.
  if (!s.ok()) return s;

  // Rotate: a fresh journal based at the new checkpoint. The old journal
  // object is only released once its successor exists, preserving the
  // "journal_ non-null while durable" invariant; if rotation fails the
  // server degrades to read-only (its committed state is all in the
  // checkpoint just written, so nothing is lost).
  auto rotated =
      Journal::Create(JournalPath(dur.data_dir, static_cast<uint64_t>(epoch_)),
                      static_cast<uint64_t>(epoch_), dur.fsync_policy,
                      dur.fsync_group_size);
  if (!rotated.ok()) {
    read_only_ = true;
    return rotated.status();
  }
  journal_appends_base_ += journal_->appends();
  fsyncs_base_ += journal_->fsyncs();
  journal_ = std::move(*rotated);
  last_checkpoint_epoch_ = epoch_;
  ++checkpoints_;
  (void)GarbageCollectDataDir(dur.data_dir, static_cast<uint64_t>(epoch_));
  return Status::OK();
}

Status QueryServer::Checkpoint() {
  std::unique_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  return CheckpointLocked();
}

Status QueryServer::Shutdown() {
  // Exclusive acquisition IS the drain: every in-flight query holds the
  // lock shared and finishes first.
  std::unique_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  if (shutdown_) return Status::OK();
  shutdown_ = true;
  if (journal_ == nullptr) return Status::OK();
  if (read_only_) {
    // The journal (possibly on a failing device) already holds every
    // acknowledged batch; recovery replays it. Don't touch the device
    // again.
    return Status::OK();
  }
  if (Status s = journal_->Flush(); !s.ok()) {
    read_only_ = true;
    return s;
  }
  // The final checkpoint is an optimization (instant restart, no
  // replay); the flush above already made every acked batch durable, so
  // its failure is reported but loses nothing.
  return CheckpointLocked();
}

bool QueryServer::read_only() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return read_only_;
}

std::string QueryServer::CanonicalState() const {
  std::shared_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  std::shared_lock<std::shared_mutex> symbols_lock(symbols_mu_);
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(base_.size()));
  base_.ForEach([&](const Fact& f) {
    std::string line = symbols_->PredicateName(f.predicate);
    line += '(';
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (i > 0) line += ", ";
      line += symbols_->ConstName(f.args[i]);
    }
    line += ')';
    lines.push_back(std::move(line));
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

Status QueryServer::ApplyRecoveredRecords(
    const std::vector<JournalRecord>& records) {
  for (const JournalRecord& rec : records) {
    std::vector<Fact> retracts;
    auto apply = [&](const auto& named, bool insert) -> Status {
      for (const auto& [pred, args] : named) {
        auto id = symbols_->InternPredicate(pred,
                                            static_cast<int>(args.size()));
        if (!id.ok()) {
          return Status::DataLoss(
              "journal record for epoch " + std::to_string(rec.epoch) +
              " conflicts with the checkpointed schema: " +
              id.status().message());
        }
        Fact fact;
        fact.predicate = *id;
        fact.args.reserve(args.size());
        for (const std::string& a : args) {
          fact.args.push_back(symbols_->InternConst(a));
        }
        if (insert) {
          base_.Insert(fact);
        } else {
          retracts.push_back(std::move(fact));
        }
      }
      return Status::OK();
    };
    if (Status s = apply(rec.inserts, true); !s.ok()) return s;
    if (Status s = apply(rec.retracts, false); !s.ok()) return s;
    base_.RetractBatch(retracts);
  }
  return Status::OK();
}

int64_t QueryServer::epoch() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return epoch_;
}

QueryServer::Counters QueryServer::counters() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  Counters c;
  c.queries = queries_.load(std::memory_order_relaxed);
  c.mutation_batches = mutation_batches_;
  c.noop_batches = noop_batches_;
  c.base_facts = base_.size();
  c.arena_bytes = base_.ArenaBytes();
  c.sorted_probes = base_.sorted_probes();
  c.index_sort_micros = base_.index_sort_micros();
  c.cache_hits_cross_query =
      cache_hits_cross_query_.load(std::memory_order_relaxed);
  c.contexts_reused = contexts_reused_.load(std::memory_order_relaxed);
  c.restricted_rejections =
      restricted_rejections_.load(std::memory_order_relaxed);
  c.journal_appends =
      journal_appends_base_ +
      (journal_ != nullptr ? journal_->appends() : 0);
  c.fsyncs = fsyncs_base_ + (journal_ != nullptr ? journal_->fsyncs() : 0);
  c.checkpoints = checkpoints_;
  c.recoveries = recoveries_;
  c.torn_records_dropped = torn_records_dropped_;
  c.read_only = read_only_;
  // Queries accumulate into the atomics; epoch-turn recompiles land in the
  // merged repair stats. Init-time compiles are counted by neither (the
  // engines' stats are reset before their first lease).
  c.vm_programs_compiled =
      vm_programs_compiled_.load(std::memory_order_relaxed) +
      repair_stats_.vm_programs_compiled;
  c.vm_ops_executed = vm_ops_executed_.load(std::memory_order_relaxed) +
                      repair_stats_.vm_ops_executed;
  c.repair = repair_stats_;
  return c;
}

}  // namespace hypo
