#ifndef HYPO_ENGINE_ENGINE_H_
#define HYPO_ENGINE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "ast/rulebase.h"
#include "base/query_guard.h"
#include "base/statusor.h"
#include "db/database.h"

namespace hypo {

class MemoBoard;

/// Evaluation limits and switches shared by the engines.
struct EngineOptions {
  /// Maximum number of memoized database states before evaluation aborts
  /// with ResourceExhausted. Hypothetical inference is PSPACE-complete in
  /// general; this cap turns runaway searches into clean errors.
  int64_t max_states = 4'000'000;

  /// Maximum number of goal expansions / rule firings before aborting.
  int64_t max_steps = 500'000'000;

  /// Cross-check the overlay's incrementally interned context id against
  /// a from-scratch canonical key on every memoized goal lookup.
  /// O(|overlay|) per goal — test/debug only.
  bool validate_contexts = false;

  // Resource governance (DESIGN.md "Resource governance & failure
  // semantics"). Each limit applies per top-level query; 0 / null means
  // "no limit" and costs nothing on the metering path.

  /// Wall-clock budget in microseconds for one top-level query. Enforced
  /// at the same metering points as max_steps; a trip aborts the query
  /// and returns StatusCode::kDeadlineExceeded.
  int64_t timeout_micros = 0;

  /// Approximate memory budget in bytes across the engine's memo tables,
  /// interners, derived models, and state cache. A trip returns
  /// StatusCode::kResourceExhausted naming the limit.
  int64_t max_memory_bytes = 0;

  /// Cooperative cancellation: when set, Cancel() (safe from a signal
  /// handler) aborts the running query with StatusCode::kCancelled at its
  /// next metering check. Reset() the token to issue further queries on
  /// the same engine.
  std::shared_ptr<CancellationToken> cancel;
};

/// A batch of base-database mutations that have ALREADY been applied to
/// the engine's Database by the caller (src/server's epoch turn, or a
/// test driving Database::Insert/Retract directly). Engines receive it
/// through ApplyBaseDelta so their memoized models can be repaired
/// incrementally instead of recomputed. Facts the caller's mutation did
/// not actually change (duplicate insert, absent retract) must not
/// appear here. A fact may appear in both lists (inserted, then
/// retracted, in one batch); engines net such changes themselves.
struct BaseDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> retracts;

  bool empty() const { return inserts.empty() && retracts.empty(); }
};

/// Counters reported by the engines; reset per top-level call group via
/// ResetStats(). These back the Appendix-A measurements (E10).
struct EngineStats {
  int64_t states_evaluated = 0;   // Distinct database states materialized.
  int64_t states_derived = 0;     // Of those, children derived from the
                                  // base model (bottom-up).
  int64_t memo_hits = 0;          // Goal or model memo hits.
  int64_t goals_expanded = 0;     // Top-down goal expansions / rule firings.
  int64_t facts_derived = 0;      // Facts inserted into models.
  int64_t fixpoint_rounds = 0;    // Bottom-up iteration rounds.
  int64_t max_goal_depth = 0;     // Deepest top-down proof chain.

  int64_t enumerations = 0;       // Domain-grounding loop iterations.
  int64_t domain_rebuilds = 0;    // Init() runs (1 + per-new-constant).

  // Join machinery (delta semi-naive + generalized access paths).
  int64_t delta_facts = 0;        // Tuples routed through per-round deltas.
  int64_t join_probes = 0;        // Candidate tuples offered to matching.
  int64_t index_builds = 0;       // Distinct (predicate, mask) indexes built.

  // Columnar storage & sorted permutation indexes (src/db; see
  // DESIGN.md "Columnar storage & sorted indexes").
  int64_t sorted_probes = 0;      // Probes answered by sorted-range lookup.
  int64_t merge_join_rows = 0;    // Rows yielded from sorted probe ranges.
  int64_t index_sort_micros = 0;  // Wall time sorting permutation indexes.
  int64_t arena_bytes = 0;        // Columnar arena footprint gauge (bytes).

  // Hypothetical-context interning (tabled / stratified provers).
  int64_t contexts_interned = 0;     // Distinct overlay states seen.
  int64_t context_transitions = 0;   // Add/Delete/undo context steps.
  int64_t context_cache_hits = 0;    // Transitions answered from cache.
  int64_t memo_bytes = 0;            // Approx. bytes held by memo tables.

  // Persistent cross-query cache (engine/memo_board.h).
  int64_t cache_hits_cross_query = 0;  // Goals/models answered by the board.
  int64_t contexts_reused = 0;    // Board contexts re-hit across queries.

  // Incremental base-fact maintenance (ApplyBaseDelta).
  int64_t base_deltas = 0;        // Delta batches applied incrementally.
  int64_t facts_overdeleted = 0;  // DRed overdeletion removals.
  int64_t facts_rederived = 0;    // Overdeleted facts with other support.
  int64_t strata_repaired = 0;    // Strata repaired by delta rounds.
  int64_t strata_recomputed = 0;  // Strata rebuilt and diffed (fallback).

  // Compiled execution (engine/vm/).
  int64_t vm_programs_compiled = 0;  // Bodies lowered to bytecode.
  int64_t vm_ops_executed = 0;       // Bytecode ops dispatched.

  // Resource governance (QueryGuard).
  int64_t guard_checks = 0;     // Armed-guard checks performed.
  int64_t deadline_micros_remaining = 0;  // Headroom at query completion
                                          // (negative if tripped); 0 when
                                          // no deadline was set.
  int64_t budget_bytes_peak = 0;  // Peak bytes observed while budgeted.
  int64_t cancellations = 0;      // Queries aborted by a CancellationToken.

  // Per-Δ-stratum model-construction time (StratifiedProver only);
  // stratum_micros[i] is the cumulative wall time building Δ_{i+1} models.
  std::vector<int64_t> stratum_micros;

  /// Adds `other`'s counters into this one. Max-like fields
  /// (max_goal_depth, arena_bytes, budget_bytes_peak) take the max;
  /// stratum_micros merges element-wise. The server sums the engines'
  /// repair counters of an epoch with it.
  void Merge(const EngineStats& other) {
    states_evaluated += other.states_evaluated;
    states_derived += other.states_derived;
    memo_hits += other.memo_hits;
    goals_expanded += other.goals_expanded;
    facts_derived += other.facts_derived;
    fixpoint_rounds += other.fixpoint_rounds;
    max_goal_depth = std::max(max_goal_depth, other.max_goal_depth);
    enumerations += other.enumerations;
    domain_rebuilds += other.domain_rebuilds;
    delta_facts += other.delta_facts;
    join_probes += other.join_probes;
    index_builds += other.index_builds;
    sorted_probes += other.sorted_probes;
    merge_join_rows += other.merge_join_rows;
    index_sort_micros += other.index_sort_micros;
    // Footprint gauge, not a flow: the largest snapshot wins.
    arena_bytes = std::max(arena_bytes, other.arena_bytes);
    contexts_interned += other.contexts_interned;
    context_transitions += other.context_transitions;
    context_cache_hits += other.context_cache_hits;
    memo_bytes += other.memo_bytes;
    cache_hits_cross_query += other.cache_hits_cross_query;
    contexts_reused += other.contexts_reused;
    base_deltas += other.base_deltas;
    facts_overdeleted += other.facts_overdeleted;
    facts_rederived += other.facts_rederived;
    strata_repaired += other.strata_repaired;
    strata_recomputed += other.strata_recomputed;
    vm_programs_compiled += other.vm_programs_compiled;
    vm_ops_executed += other.vm_ops_executed;
    guard_checks += other.guard_checks;
    // Completion gauge: a non-zero incoming value is authoritative, 0
    // means "not set".
    if (other.deadline_micros_remaining != 0) {
      deadline_micros_remaining = other.deadline_micros_remaining;
    }
    budget_bytes_peak = std::max(budget_bytes_peak, other.budget_bytes_peak);
    cancellations += other.cancellations;
    if (other.stratum_micros.size() > stratum_micros.size()) {
      stratum_micros.resize(other.stratum_micros.size(), 0);
    }
    for (size_t i = 0; i < other.stratum_micros.size(); ++i) {
      stratum_micros[i] += other.stratum_micros[i];
    }
  }
};

/// Index-build and sort totals of the databases an engine reads. These
/// Database counters are lifetime figures shared by every reader, so the
/// engines snapshot them at ResetStats() and report the growth.
struct IndexTotals {
  int64_t builds = 0;
  int64_t sort_micros = 0;

  void Add(const Database& db) {
    builds += db.index_builds();
    sort_micros += db.index_sort_micros();
  }
  /// Writes the growth since `base` into `stats`, clamped at zero: a
  /// database dropped since then (an evicted state) takes its totals
  /// with it.
  void ReportSince(const IndexTotals& base, EngineStats* stats) const {
    stats->index_builds = std::max<int64_t>(0, builds - base.builds);
    stats->index_sort_micros =
        std::max<int64_t>(0, sort_micros - base.sort_micros);
  }
};

/// Arms an engine's QueryGuard from the governance fields of its options
/// for the duration of one public entry point, and records the completion
/// gauges (deadline headroom, byte peak, cancellation count) into the
/// engine's stats on the way out.
///
/// Arm() refuses to re-arm an already-armed guard, so a public entry
/// reached from another public entry leaves the outer scope as owner and
/// this one is a no-op — governance spans the *outermost* call.
class GuardScope {
 public:
  GuardScope(QueryGuard* guard, const EngineOptions& options,
             EngineStats* stats)
      : guard_(guard),
        stats_(stats),
        owner_(guard->Arm(options.timeout_micros, options.max_memory_bytes,
                          options.cancel)) {}

  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;

  ~GuardScope() {
    if (!owner_) return;
    stats_->deadline_micros_remaining = guard_->micros_remaining();
    stats_->budget_bytes_peak =
        std::max(stats_->budget_bytes_peak, guard_->bytes_peak());
    if (guard_->tripped_cancelled()) ++stats_->cancellations;
    guard_->Disarm();
  }

 private:
  QueryGuard* guard_;
  EngineStats* stats_;
  bool owner_;
};

/// Common interface of the three evaluation procedures (TabledEngine,
/// StratifiedProver, BottomUpEngine).
///
/// An Engine is constructed over one (rulebase, database) pair; Init()
/// performs the static analysis (stratification, plans, domain) and must
/// be called before any query. Both referenced objects must outlive the
/// engine. One thread at a time uses an engine — one query at a time —
/// and no engine starts a thread; the server runs queries in parallel on
/// a pool of engines (DESIGN.md "Concurrency").
class Engine {
 public:
  virtual ~Engine() = default;

  virtual Status Init() = 0;

  /// Decides R, DB ⊢ A for a ground atom A.
  virtual StatusOr<bool> ProveFact(const Fact& fact) = 0;

  /// Decides whether some binding of the query's free variables makes
  /// every premise inferable (free variables are existential).
  virtual StatusOr<bool> ProveQuery(const Query& query) = 0;

  /// Returns every distinct binding of the query's variables (in VarIndex
  /// order) that makes every premise inferable.
  virtual StatusOr<std::vector<Tuple>> Answers(const Query& query) = 0;

  virtual const EngineStats& stats() const = 0;
  virtual void ResetStats() = 0;

  /// Human-readable engine name for logs and benchmark labels.
  virtual std::string name() const = 0;

  /// The governance fields (timeout_micros, max_memory_bytes, cancel) may
  /// be changed between queries — e.g. to retry a tripped query with a
  /// larger budget on the same warm engine.
  virtual EngineOptions* mutable_options() = 0;

  /// Notifies the engine that the caller has mutated the base Database
  /// (the facts in `delta` are already inserted/retracted). Memoized
  /// results derived from the old base must not be served afterwards.
  ///
  /// Each engine keeps what the base cannot change — the static analysis,
  /// its compiled plans (unless a watched cardinality left its 2x band,
  /// see PlannedCardinalities) — and follows the domain with
  /// EngineDomain::ApplyBaseDelta, so a commit costs what it changes, not
  /// what the base holds. The top-down engines drop their base-dependent
  /// memos (they rebuild lazily per query); the BottomUpEngine repairs
  /// its base model in place (DRed plus insertion semi-naive rounds).
  /// DESIGN.md §5 lists what each engine keeps and drops.
  virtual Status ApplyBaseDelta(const BaseDelta& delta) = 0;

  /// Attaches a server-lifetime cross-query cache (engine/memo_board.h).
  /// The board must outlive the engine and must only be shared among
  /// engines evaluating the same rulebase over the same base database and
  /// SymbolTable (the server's engine pool). Null detaches. Engines that
  /// do not support cross-query caching ignore the call.
  virtual void AttachMemoBoard(MemoBoard* board) { (void)board; }

  /// Human-readable description of the engine's active evaluation plans:
  /// per rule, the premise order and probe masks, plus the disassembled
  /// bytecode of each compiled program version. Backs hypo_cli
  /// --explain-plan and the server `explain` verb.
  /// Engines must be Init()ed first; the default reports nothing.
  virtual std::string ExplainPlans() const { return ""; }

  /// Every (predicate, bound-column mask) signature this engine's plans
  /// can probe against the BASE database. A caller that seals the base
  /// for an epoch (src/server) prepares these first so sealed probes stay
  /// indexed; engines that cannot enumerate their probes return nothing
  /// and their sealed probes degrade to correct full scans.
  virtual std::vector<std::pair<PredicateId, ColumnMask>>
  BaseProbeSignatures() const {
    return {};
  }
};

/// The engine `name` selects — "tabled", "stratified" or "bottomup" —
/// over (rules, db), not yet initialized; InvalidArgument for any other
/// name. The one place engine names are read (server, CLI, benchmarks,
/// tests).
StatusOr<std::unique_ptr<Engine>> MakeEngine(
    const std::string& name, const RuleBase* rules, const Database* db,
    const EngineOptions& options = EngineOptions());

/// dom(R, DB) of Definition 3: every constant in the rulebase or the
/// database, plus `extra` (constants introduced by a top-level query).
/// Sorted for determinism. O(|domain|): Init computes it once, commits
/// follow it with EngineDomain::ApplyBaseDelta.
std::vector<ConstId> ComputeDomain(const RuleBase& rulebase,
                                   const Database& db,
                                   const std::vector<ConstId>& extra = {});

/// The constants a query names — in its atoms, additions and deletions —
/// which extend dom(R, DB) for the engine that answers it.
std::vector<ConstId> QueryConstants(const Query& query);

/// A pseudo-head listing every variable of the query, so its plan binds
/// or enumerates each one and Answers() returns total bindings.
Atom PseudoHead(const Query& query);

/// Order-sensitive fingerprint of a computed domain. Cross-query cache
/// keys include it so engines whose domains diverged (per-engine
/// extra_constants_ from out-of-domain query constants) never share
/// entries — ground truth under negation can depend on the domain.
uint64_t DomainFingerprint(const std::vector<ConstId>& domain);

/// Base-relation sizes compiled plans were ordered against. BodyPlan
/// reads relation sizes only to choose among premise orders that are all
/// correct (DESIGN.md §5), so a plan stays sound across every commit;
/// it is rebuilt only once some watched relation's size leaves the band
/// [planned / 2, 2 * planned] and the order may have become costly. The
/// one replan rule of the three engines.
class PlannedCardinalities {
 public:
  /// Watches the relation of every positive premise at its size in `db`;
  /// a relation already watched keeps the size it was first planned at.
  void Watch(const Database& db, const std::vector<Premise>& premises);

  /// True iff some watched relation's size in `db` left its band.
  bool Stale(const Database& db) const;

  void Clear() { planned_.clear(); }

 private:
  std::vector<std::pair<PredicateId, int64_t>> planned_;
};

/// The domain an engine grounds over — dom(R, DB) plus `extra`, the
/// constants earlier queries named — kept across commits: sorted values
/// for enumeration, a membership set, and the fingerprint MemoBoard keys
/// carry.
struct EngineDomain {
  std::vector<ConstId> values;  // Sorted.
  std::unordered_set<ConstId> members;
  uint64_t fingerprint = 0;

  /// Computes it whole: ComputeDomain(rules, db, extra).
  void Reset(const RuleBase& rules, const Database& db,
             const std::vector<ConstId>& extra);

  /// Follows a commit whose `delta` is already applied to `db`, looking
  /// only at the constants the delta names: each is in the domain iff
  /// the rules name it, `extra` holds it, or some stored tuple still does
  /// (Database::constants(), kept by per-constant reference counts). So
  /// a commit costs O(batch), plus O(|domain|) when the domain changes.
  /// Returns true iff it changed. With `validate` (the engines pass
  /// EngineOptions::validate_contexts) it HYPO_CHECKs the result against
  /// ComputeDomain over the whole base.
  bool ApplyBaseDelta(const BaseDelta& delta, const RuleBase& rules,
                      const Database& db, const std::vector<ConstId>& extra,
                      bool validate);
};

}  // namespace hypo

#endif  // HYPO_ENGINE_ENGINE_H_
