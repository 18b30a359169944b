#ifndef HYPO_ENGINE_VM_BYTECODE_H_
#define HYPO_ENGINE_VM_BYTECODE_H_

#include <cstdint>
#include <vector>

#include "ast/rule.h"
#include "db/database.h"
#include "db/fact.h"

namespace hypo {
namespace vm {

/// The register file of a compiled rule body IS the rule's variable
/// numbering: register v holds the binding of VarIndex v, kUnbound when
/// the variable is (statically) unbound at the current program point.
/// There is no allocator and no renaming — the compiler proves at build
/// time which registers are bound at every op, so execution never asks.

/// One opcode of a compiled rule body. A program is a straight line of
/// ops; kScan, kCall and kEnumDomain are choice points (they enumerate
/// candidates), every other op is a test. An op that fails transfers
/// control to `Op::prev_choice` (the nearest earlier choice point), which
/// resumes its enumeration — classic backtracking join, flattened.
enum class OpCode : uint8_t {
  /// Enumerate the stored candidates of a positive premise (base +
  /// model/overlay segments, opened by the engine host), binding the
  /// premise's fresh variables per candidate row. Choice point.
  kScan,
  /// A positive premise whose columns are all statically bound: one host
  /// membership test, no enumeration and no join_probes.
  kTestGround,
  /// Bind one register from dom(R, DB). Choice point. Each op is one
  /// nested domain loop, counted once per candidate value.
  kEnumDomain,
  /// Ground subproof of a defined (IDB) premise — the top-down engines'
  /// ProveGoal. All variables bound by preceding ops.
  kProveCall,
  /// A defined premise with free variables, resolved as one tabled call
  /// (tabled engine only): the host solves the call keyed by the premise's
  /// bound columns and opens its answer table as the scan's only segment,
  /// so the op binds the free variables per answer exactly like kScan
  /// (same key/full/post actions). Choice point. The table may still be
  /// growing (a recursive call consuming the answers found so far); the
  /// cursor follows it.
  kCall,
  /// Ground hypothetical premise test; the plan's preceding kEnumDomain
  /// ops have bound every variable of the atom and its additions.
  kHypoTest,
  /// Fully bound negated premise: host membership test, succeeds iff the
  /// instance is NOT visible.
  kNegGround,
  /// Negated premise with free variables, refuted by a stored witness
  /// (∄ reading). The host runs its ExistsMatch/ExistsStored probe over a
  /// scratch Binding seeded from the registers.
  kNegProbe,
  /// Negated premise refuted by a provable witness (the top-down
  /// engines): ground, a failed subproof; with `free_vars`, an empty call
  /// table (or no stored or materialized witness).
  kNegCall,
  /// Complete instantiation: hand the registers to the sink. The sink
  /// returning false stops the whole enumeration (first-witness queries);
  /// true backtracks to the last choice point for the next instantiation.
  kEmitHead,
};

/// Per-column action of a kScan candidate row, in column order. kLoadReg
/// always precedes any kCheckReg of the same register within one op (a
/// variable's first occurrence loads, later occurrences check), so stale
/// register values from a previous candidate are never read.
struct MatchAction {
  enum class Kind : uint8_t {
    kCheckConst,  // row[col] must equal `operand` (a ConstId).
    kCheckReg,    // row[col] must equal register `operand`.
    kLoadReg,     // register `operand` := row[col].
  };
  Kind kind;
  uint16_t col;
  int32_t operand;
};

/// One value of a kScan probe key, in increasing masked-column order:
/// either a literal constant or a register read at scan-open time.
struct KeyAction {
  bool from_reg;
  int32_t operand;  // Register index or ConstId.
};

struct Op {
  OpCode code = OpCode::kEmitHead;
  /// Premise this op tests/enumerates (premise-backed ops), -1 otherwise.
  int16_t premise_index = -1;
  /// Nearest earlier choice point (op index), -1 = none: a failure here
  /// ends the program.
  int16_t prev_choice = -1;
  PredicateId pred = kInvalidPredicate;
  /// kScan/kCall: statically known bound-column signature of the probe —
  /// exact, because every register bound before this op is bound on every
  /// path that reaches it. kNegProbe/kNegGround: the signature the
  /// host's runtime probe will use (recorded so PrepareIndex can cover
  /// it). Others: 0.
  ColumnMask mask = 0;
  uint16_t arity = 0;
  /// kEnumDomain: the register to bind.
  VarIndex var = -1;
  /// Bottom-up delta rule versions: this premise ranges over last round's
  /// delta relation instead of base + model.
  bool designated = false;
  /// Bottom-up delta rule versions: this positive premise precedes the
  /// designated one in source order, so candidates present in the delta
  /// are skipped (each instantiation fires in exactly one version).
  bool exclude_delta = false;
  /// kScan/kCall: probe-key recipe (masked columns, ascending).
  std::vector<KeyAction> key;
  /// kScan/kCall: per-column actions over all columns, column order.
  std::vector<MatchAction> full;
  /// kScan/kCall: actions over the columns NOT covered by `mask` only — an
  /// index-served candidate already matches the masked columns exactly
  /// (hash buckets are keyed by the masked values; sorted ranges are
  /// binary-searched on them; answer tables are keyed by the call's bound
  /// columns), so their rechecks are skipped.
  std::vector<MatchAction> post;
  /// kNegCall: free-variable occurrences in argument order, duplicates
  /// kept; the host binds every other variable of the atom.
  std::vector<VarIndex> free_vars;
  /// kNegProbe: the statically bound variables of the negated atom,
  /// deduplicated. The host seeds a scratch Binding from exactly these
  /// registers — copying the whole register file would read stale values
  /// from statically unbound registers.
  std::vector<VarIndex> bound_vars;
};

/// A compiled rule body (or query body). Executed by vm::Run (executor.h)
/// against an engine-specific host.
struct Program {
  std::vector<Op> ops;
  int num_vars = 0;
  /// The designated delta premise this version was compiled for, -1 for
  /// the full version (bottom-up semi-naive rewrite).
  int delta_premise = -1;
  /// Head-bound programs (top-down engines): match actions applied to the
  /// goal's argument tuple before the program runs, seeding the entry-
  /// bound registers. Mirrors Binding::MatchTuple over the rule head's
  /// bound columns (all of them for a ground goal, the call's bound
  /// columns under an adornment); an action failing means the rule cannot
  /// produce the goal. Empty for entry-unbound programs.
  std::vector<MatchAction> head_match;
};

/// Runs a program's head_match against a goal's ground argument tuple,
/// seeding the entry-bound registers. Returns false iff the goal cannot
/// match the head (partial register loads are dead: callers only run the
/// program after a successful match, and the next goal re-seeds).
template <typename Row>
inline bool MatchHead(const Program& prog, const Row& goal_args,
                      ConstId* regs) {
  for (const MatchAction& a : prog.head_match) {
    const ConstId v = goal_args[a.col];
    switch (a.kind) {
      case MatchAction::Kind::kCheckConst:
        if (v != a.operand) return false;
        break;
      case MatchAction::Kind::kCheckReg:
        if (v != regs[a.operand]) return false;
        break;
      case MatchAction::Kind::kLoadReg:
        regs[a.operand] = v;
        break;
    }
  }
  return true;
}

/// Instantiates `atom` from the register file; every variable argument
/// must be statically bound at the call site (the compiler guarantees it).
inline Fact GroundAtom(const Atom& atom, const ConstId* regs) {
  Fact fact;
  fact.predicate = atom.predicate;
  fact.args.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    fact.args.push_back(t.is_const() ? t.const_id() : regs[t.var_index()]);
  }
  return fact;
}

/// GroundAtom into a reusable fact, keeping the args vector's capacity.
/// Fixpoint emit paths ground one head per instantiation; a fresh Fact
/// per emit would put an allocation on the hottest loop.
inline void GroundAtomInto(const Atom& atom, const ConstId* regs,
                           Fact* fact) {
  fact->predicate = atom.predicate;
  fact->args.clear();
  for (const Term& t : atom.args) {
    fact->args.push_back(t.is_const() ? t.const_id() : regs[t.var_index()]);
  }
}

}  // namespace vm
}  // namespace hypo

#endif  // HYPO_ENGINE_VM_BYTECODE_H_
