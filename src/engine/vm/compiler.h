#ifndef HYPO_ENGINE_VM_COMPILER_H_
#define HYPO_ENGINE_VM_COMPILER_H_

#include <string>
#include <vector>

#include "ast/rule.h"
#include "ast/symbol_table.h"
#include "engine/plan.h"
#include "engine/vm/bytecode.h"

namespace hypo {
namespace vm {

/// How the runtime establishes a premise's truth. kStorage premises probe
/// stored relations (base database, derived models, overlay additions);
/// kCall premises (the top-down engines) call back into the engine's
/// prover: a ground subproof (OpCode::kProveCall) when every variable is
/// bound, otherwise one tabled call (OpCode::kCall) — no domain
/// enumeration — and a negated one is always a kNegCall.
enum class PremiseMode : uint8_t { kStorage, kCall };

/// Everything the compiler needs to lower one BodyPlan. The plan's step
/// order is taken as-is; the compiler only tracks static boundness to
/// choose opcodes and probe masks.
struct CompileInput {
  const std::vector<Premise>* premises = nullptr;
  const BodyPlan* plan = nullptr;
  int num_vars = 0;
  /// Head-bound programs (top-down engines): when set, the compiler emits
  /// Program::head_match over this atom (first occurrence loads, later
  /// ones check, constants check) and treats every head variable as bound
  /// at entry, as Binding::MatchTuple(head, goal) would. Mutually
  /// exclusive with entry_bound.
  const Atom* head = nullptr;
  /// With `head`: the adornment, one entry per head column, true = bound
  /// by the call. Only bound columns get head_match actions and only
  /// their variables are bound at entry. Empty = every column (a ground
  /// goal).
  std::vector<bool> head_bound;
  /// Registers bound before the program starts (e.g. head variables bound
  /// by the goal match in the top-down engines). Empty = none. Static
  /// boundness is exact: entry bindings are all-or-nothing per engine, so
  /// the compiled masks equal the bound columns at every step at run time.
  std::vector<bool> entry_bound;
  /// Bottom-up semi-naive versions: the positive premise designated to
  /// range over the delta relation, -1 for the full version.
  int delta_premise = -1;
  /// Per-premise evaluation mode; empty = all kStorage.
  std::vector<PremiseMode> modes;
};

/// Lowers `in.plan` to a flat backtracking program. The input plan must
/// satisfy BodyPlan::Build's invariants (tested by tests/plan_test.cc):
/// negated steps last, each hypothetical step preceded by the enumeration
/// of its unbound variables.
Program Compile(const CompileInput& in);

/// Human-readable listing of a compiled program (one op per line) for
/// --explain-plan and the server `explain` verb.
std::string Disassemble(const Program& program,
                        const std::vector<Premise>& premises,
                        const SymbolTable& symbols);

}  // namespace vm
}  // namespace hypo

#endif  // HYPO_ENGINE_VM_COMPILER_H_
