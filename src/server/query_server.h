#ifndef HYPO_SERVER_QUERY_SERVER_H_
#define HYPO_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ast/rulebase.h"
#include "base/statusor.h"
#include "db/database.h"
#include "engine/engine.h"
#include "server/journal.h"

namespace hypo {

/// Crash-safety configuration (DESIGN.md "Durability & recovery").
/// With an empty `data_dir` the server is purely in-memory, exactly as
/// before; with one, every committed mutation batch is written ahead to
/// an append-only journal, periodic checkpoints bound replay time, and
/// Create() recovers the committed state from disk on restart.
struct DurabilityOptions {
  /// Directory owning the journal and checkpoint files. Created if
  /// absent. Empty = durability off.
  std::string data_dir;

  /// When journal appends reach stable storage (see Journal::FsyncPolicy):
  /// "always" survives power loss per batch, "group" amortizes the fsync
  /// over `fsync_group_size` batches, "off" leaves flushing to
  /// checkpoints and shutdown.
  Journal::FsyncPolicy fsync_policy = Journal::FsyncPolicy::kAlways;
  int fsync_group_size = 8;

  /// Write a checkpoint (and rotate the journal) every N epoch turns;
  /// 0 = only at Shutdown or an explicit Checkpoint() call.
  int64_t checkpoint_every = 0;

  /// A failed journal append is retried this many times (with a short
  /// backoff) before the server gives up and degrades to read-only.
  int append_retries = 2;
  int retry_backoff_ms = 1;
};

/// Configuration for a resident QueryServer.
struct ServerOptions {
  /// Engine family every pooled engine is built from:
  /// "tabled" | "stratified" | "bottomup".
  std::string engine_name = "tabled";

  /// Number of pooled engines == maximum queries in flight at once.
  int pool_size = 2;

  /// Template options for every pooled engine. The governance fields
  /// (timeout_micros, max_memory_bytes) become per-query defaults that a
  /// QuerySpec may override.
  EngineOptions engine_options;

  /// Share settled goal verdicts and whole context models across the pool
  /// through a server-lifetime MemoBoard (epoch-versioned, LRU-bounded by
  /// `cache_bytes`). Off = every engine keeps only its private memos —
  /// the escape hatch when cross-engine reuse is suspected of a wrong
  /// answer or the board's memory is needed back.
  bool cross_query_cache = true;
  int64_t cache_bytes = 256ll << 20;

  /// See DurabilityOptions; off (in-memory only) by default.
  DurabilityOptions durability;
};

/// Per-query governance overrides; negative fields fall back to the
/// server-wide defaults from ServerOptions::engine_options.
struct QuerySpec {
  int64_t timeout_micros = -1;
  int64_t max_memory_bytes = -1;
};

/// One answered query. Variable bindings are rendered to strings under
/// the server's symbol lock, so the caller never touches the shared
/// SymbolTable.
struct QueryOutcome {
  bool boolean = false;  // num_vars == 0: `proven` is the answer.
  bool proven = false;
  std::vector<std::string> var_names;
  /// One row per answer; row[i] is the constant bound to var_names[i].
  std::vector<std::vector<std::string>> answers;
  int64_t epoch = 0;       // Epoch the query evaluated against.
  EngineStats stats;       // This query's engine counters.
};

/// One applied mutation batch.
struct MutationOutcome {
  /// Net base-database changes (a batch that inserts then retracts the
  /// same fact nets to zero and does not turn the epoch).
  int64_t changed = 0;
  int64_t epoch = 0;  // Epoch after the batch.
};

/// A long-lived query server: one shared base Database + rulebase, a pool
/// of warm engines answering concurrent queries, and epoch-turn mutations
/// that repair the engines' memoized models incrementally instead of
/// rebuilding them (DESIGN.md "Resident server & incremental
/// maintenance").
///
/// Concurrency discipline:
///  * `epoch_mu_` (shared_mutex): queries hold it shared for their whole
///    evaluation; a mutation batch takes it exclusive, so it observes a
///    quiesced pool — no engine is mid-query while the base moves.
///  * Between epochs the base stays sealed (SealIndexes): pooled engines
///    probe its column indexes concurrently without mutating index state.
///    The epoch turn unseals (implicitly, via Insert/Retract), applies
///    the batch, re-prepares every engine-declared probe signature, and
///    reseals before readers return.
///  * `symbols_mu_` (shared_mutex): parsing interns symbols (exclusive);
///    evaluation and answer rendering only read them (shared).
///
/// Thread-safe: any number of threads may call Query/Insert/Retract/
/// ApplyBatch concurrently.
class QueryServer {
 public:
  /// A single base-fact mutation, parsed and validated up front so batch
  /// errors surface at the offending line, not at commit.
  struct Mutation {
    bool insert = false;  // false: retract.
    Fact fact;
  };

  /// Builds a server over `program` (rules + initial facts in the surface
  /// syntax). Initializes every pooled engine eagerly and seals the base,
  /// so the first query pays no cold-start beyond its own model.
  ///
  /// With durability configured, a data dir holding committed state takes
  /// precedence over `program`: the persisted program text (the one the
  /// relations were built against) is re-parsed, the latest checkpoint is
  /// loaded, and the journal tail is replayed — the server resumes at the
  /// epoch it last acknowledged. A fresh data dir seeds an initial
  /// checkpoint from `program` before serving, so recovery always finds
  /// one. Mid-journal corruption or a damaged newest checkpoint fails
  /// Create with kDataLoss; a torn final journal record is dropped (and
  /// counted in `torn_records_dropped`), not an error.
  static StatusOr<std::unique_ptr<QueryServer>> Create(
      std::string_view program, ServerOptions options);

  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Parses and answers one query on a pooled engine under its own
  /// governance budget. Blocks while all engines are busy.
  StatusOr<QueryOutcome> Query(std::string_view text,
                               const QuerySpec& spec = QuerySpec());

  /// Parses `fact_text` as a ground atom ("edge(a, b)") into a Mutation.
  StatusOr<Mutation> ParseMutation(std::string_view fact_text, bool insert);

  /// Convenience single-fact epoch turns.
  StatusOr<MutationOutcome> Insert(std::string_view fact_text);
  StatusOr<MutationOutcome> Retract(std::string_view fact_text);

  /// Applies a batch atomically: one exclusive epoch turn, one BaseDelta,
  /// one incremental repair per engine. Duplicate inserts and absent
  /// retracts are no-ops; a batch whose net effect is empty does not turn
  /// the epoch. On repair failure the affected engines have dropped their
  /// memos (next query recomputes from the new base) and the error is
  /// returned — the server stays serviceable.
  StatusOr<MutationOutcome> ApplyBatch(const std::vector<Mutation>& batch);

  int64_t epoch() const;

  /// True once a journal failure has flipped the server to read-only:
  /// mutations answer kUnavailable, queries keep serving the last
  /// committed epoch. Restarting the process (recovery) restores
  /// read-write service — the journal holds every acknowledged batch.
  bool read_only() const;

  /// Writes a checkpoint of the current epoch and rotates the journal.
  /// FailedPrecondition when durability is off, Unavailable when
  /// read-only. A checkpoint-write failure leaves the previous
  /// checkpoint + journal authoritative (not a degradation); a failure
  /// rotating to the NEW journal does degrade to read-only.
  Status Checkpoint();

  /// Graceful drain: takes the epoch lock exclusively (every in-flight
  /// query finishes first), flushes the journal, and writes a final
  /// checkpoint. Idempotent; mutations after Shutdown are rejected. With
  /// durability off (or read-only — the journal already holds all
  /// committed state) this is just the drain.
  Status Shutdown();

  /// The base database as sorted `pred(a, b)` text lines, one per fact —
  /// the canonical logical state. Two servers are equivalent iff their
  /// canonical states match; the durability tests compare a recovered
  /// process against a never-crashed oracle through this (dense symbol
  /// ids may differ across the two processes, text never does).
  std::string CanonicalState() const;

  /// Monotone service counters plus the cumulative incremental-repair
  /// stats accumulated across every epoch turn.
  struct Counters {
    int64_t queries = 0;
    int64_t mutation_batches = 0;
    int64_t noop_batches = 0;
    int64_t base_facts = 0;
    int64_t arena_bytes = 0;        // Columnar footprint of the base.
    int64_t sorted_probes = 0;      // Sorted-range probes against the base.
    int64_t index_sort_micros = 0;  // Time spent sorting base indexes.
    /// Cross-query MemoBoard reuse, accumulated over every served query.
    int64_t cache_hits_cross_query = 0;
    int64_t contexts_reused = 0;
    /// Queries rejected up front for hypothesizing about a predicate not
    /// declared `assumable`/`retractable` (restricted predicates).
    int64_t restricted_rejections = 0;
    /// Bytecode executor totals: programs compiled (engine inits, epoch
    /// recompiles, per-query compiles) and VM ops retired.
    int64_t vm_programs_compiled = 0;
    int64_t vm_ops_executed = 0;
    /// Durability: journal records appended and fsyncs issued (across
    /// rotations), checkpoints written, whether this process recovered
    /// persisted state at startup, torn records recovery dropped, and
    /// the read-only degradation flag. All zero with durability off.
    int64_t journal_appends = 0;
    int64_t fsyncs = 0;
    int64_t checkpoints = 0;
    int64_t recoveries = 0;
    int64_t torn_records_dropped = 0;
    bool read_only = false;
    EngineStats repair;  // base_deltas, strata_repaired, overdeleted, ...
  };
  Counters counters() const;

  /// Premise order, probe masks, and disassembled bytecode for every rule
  /// of a pooled engine (they are interchangeable — all compiled from the
  /// same rulebase at the same epoch). Blocks while all engines are busy.
  std::string Explain();

  /// Test hook: runs `fn` while the engine the next query would lease is
  /// checked out, so queries `fn` issues run on a sibling engine.
  void HoldEngineForTest(const std::function<void()>& fn);

  const ServerOptions& options() const { return options_; }

 private:
  QueryServer(ServerOptions options, std::shared_ptr<SymbolTable> symbols,
              RuleBase rules, Database base);

  Status InitEngines();

  /// Renders `delta` to symbol names and appends it as the record
  /// committing `epoch_ + 1`, with bounded retry/backoff. Epoch lock
  /// held exclusive.
  Status JournalAppend(const BaseDelta& delta);

  /// Checkpoint + journal rotation + GC, epoch lock held exclusive.
  Status CheckpointLocked();

  /// Re-interns and applies recovered journal records to the base.
  /// Create-time only (no locks held, no engines yet).
  Status ApplyRecoveredRecords(const std::vector<JournalRecord>& records);

  /// Prepares every pooled engine's declared base probe signature and
  /// seals the base for the coming read phase. Exclusive access assumed.
  void PrepareAndSeal();

  Engine* CheckOut();
  void CheckIn(Engine* engine);

  ServerOptions options_;
  std::shared_ptr<SymbolTable> symbols_;
  RuleBase rules_;
  Database base_;

  /// Queries shared, epoch turns exclusive (see class comment).
  mutable std::shared_mutex epoch_mu_;
  /// Parsing exclusive, evaluation/rendering shared.
  mutable std::shared_mutex symbols_mu_;

  /// The pool's shared cross-query cache (null when
  /// ServerOptions::cross_query_cache is false). Declared before the
  /// engines so it outlives them: members destroy in reverse order.
  std::unique_ptr<MemoBoard> board_;

  std::vector<std::unique_ptr<Engine>> engines_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::vector<Engine*> free_;

  int64_t epoch_ = 0;           // Guarded by epoch_mu_.
  int64_t mutation_batches_ = 0;  // Guarded by epoch_mu_.
  int64_t noop_batches_ = 0;      // Guarded by epoch_mu_.
  EngineStats repair_stats_;      // Guarded by epoch_mu_.

  /// Durability state, all guarded by epoch_mu_ (mutations and
  /// checkpoints run under the exclusive lock). `journal_` is non-null
  /// iff durability is on; it is only ever replaced by a successfully
  /// created successor, so the invariant holds across rotation failures.
  std::string program_;  // Text the rulebase was parsed from (checkpointed).
  std::unique_ptr<Journal> journal_;
  bool read_only_ = false;
  bool shutdown_ = false;
  int64_t last_checkpoint_epoch_ = 0;
  int64_t checkpoints_ = 0;
  int64_t recoveries_ = 0;
  int64_t torn_records_dropped_ = 0;
  /// Append/fsync totals carried over from rotated-out journals.
  int64_t journal_appends_base_ = 0;
  int64_t fsyncs_base_ = 0;
  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> cache_hits_cross_query_{0};
  std::atomic<int64_t> contexts_reused_{0};
  std::atomic<int64_t> restricted_rejections_{0};
  std::atomic<int64_t> vm_programs_compiled_{0};
  std::atomic<int64_t> vm_ops_executed_{0};
};

}  // namespace hypo

#endif  // HYPO_SERVER_QUERY_SERVER_H_
