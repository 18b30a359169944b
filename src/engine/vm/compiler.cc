#include "engine/vm/compiler.h"

#include <algorithm>
#include <sstream>

#include "base/logging.h"

namespace hypo {
namespace vm {

namespace {

/// Mirrors plan.cc's StaticProbeMask: bit i set iff column i < 32 carries
/// a constant or a bound register.
ColumnMask MaskFor(const Atom& atom, const std::vector<bool>& bound) {
  ColumnMask mask = 0;
  const int limit =
      std::min<int>(static_cast<int>(atom.args.size()), kMaxIndexedColumns);
  for (int i = 0; i < limit; ++i) {
    const Term& t = atom.args[i];
    if (t.is_const() || bound[t.var_index()]) mask |= 1u << i;
  }
  return mask;
}

bool AllBound(const Atom& atom, const std::vector<bool>& bound) {
  for (const Term& t : atom.args) {
    if (t.is_var() && !bound[t.var_index()]) return false;
  }
  return true;
}

void MarkBound(const Atom& atom, std::vector<bool>* bound) {
  for (const Term& t : atom.args) {
    if (t.is_var()) (*bound)[t.var_index()] = true;
  }
}

/// Free-variable occurrences in argument order, duplicates kept.
std::vector<VarIndex> FreeOccurrences(const Atom& atom,
                                      const std::vector<bool>& bound) {
  std::vector<VarIndex> free;
  for (const Term& t : atom.args) {
    if (t.is_var() && !bound[t.var_index()]) free.push_back(t.var_index());
  }
  return free;
}

/// Fills a kScan op's key/full/post action lists for `atom` under the
/// pre-premise boundness, and returns the probe mask.
ColumnMask BuildScanActions(const Atom& atom, const std::vector<bool>& bound,
                            Op* op) {
  const ColumnMask mask = MaskFor(atom, bound);
  op->mask = mask;
  op->arity = static_cast<uint16_t>(atom.args.size());
  // Probe key: masked-column values in increasing column order, matching
  // BoundSignature's runtime construction.
  for (int i = 0; i < static_cast<int>(atom.args.size()); ++i) {
    if (i >= kMaxIndexedColumns || (mask & (1u << i)) == 0) continue;
    const Term& t = atom.args[i];
    KeyAction ka;
    ka.from_reg = t.is_var();
    ka.operand = t.is_var() ? t.var_index() : t.const_id();
    op->key.push_back(ka);
  }
  // Per-column actions. Within this atom a variable's FIRST free
  // occurrence loads its register; later occurrences check it, so the
  // repeated-variable semantics of Binding::MatchTuple carry over.
  std::vector<bool> loaded(bound);
  for (int i = 0; i < static_cast<int>(atom.args.size()); ++i) {
    const Term& t = atom.args[i];
    MatchAction a;
    a.col = static_cast<uint16_t>(i);
    if (t.is_const()) {
      a.kind = MatchAction::Kind::kCheckConst;
      a.operand = t.const_id();
    } else if (loaded[t.var_index()]) {
      a.kind = MatchAction::Kind::kCheckReg;
      a.operand = t.var_index();
    } else {
      a.kind = MatchAction::Kind::kLoadReg;
      a.operand = t.var_index();
      loaded[t.var_index()] = true;
    }
    op->full.push_back(a);
    // Index-served candidates already match the masked columns exactly;
    // only the unmasked ones (which include every load — loads are first
    // free occurrences, never masked) still need work.
    const bool masked = i < kMaxIndexedColumns && (mask & (1u << i)) != 0;
    if (!masked) op->post.push_back(a);
  }
  return mask;
}

}  // namespace

Program Compile(const CompileInput& in) {
  const std::vector<Premise>& premises = *in.premises;
  Program prog;
  prog.num_vars = in.num_vars;
  prog.delta_premise = in.delta_premise;

  std::vector<bool> bound(in.num_vars, false);
  if (in.head != nullptr) {
    HYPO_DCHECK(in.entry_bound.empty());
    // Head match: constants check, a variable's first occurrence loads,
    // later occurrences check — Binding::MatchTuple over the head atom.
    for (int i = 0; i < static_cast<int>(in.head->args.size()); ++i) {
      if (!in.head_bound.empty() && !in.head_bound[i]) continue;
      const Term& t = in.head->args[i];
      MatchAction a;
      a.col = static_cast<uint16_t>(i);
      if (t.is_const()) {
        a.kind = MatchAction::Kind::kCheckConst;
        a.operand = t.const_id();
      } else if (bound[t.var_index()]) {
        a.kind = MatchAction::Kind::kCheckReg;
        a.operand = t.var_index();
      } else {
        a.kind = MatchAction::Kind::kLoadReg;
        a.operand = t.var_index();
        bound[t.var_index()] = true;
      }
      prog.head_match.push_back(a);
    }
  } else if (!in.entry_bound.empty()) {
    HYPO_DCHECK(static_cast<int>(in.entry_bound.size()) == in.num_vars);
    bound = in.entry_bound;
  }
  auto mode_of = [&](int premise_index) {
    return in.modes.empty() ? PremiseMode::kStorage
                            : in.modes[premise_index];
  };
  int last_choice = -1;
  auto push = [&](Op op) {
    op.prev_choice = static_cast<int16_t>(last_choice);
    const bool choice = op.code == OpCode::kScan ||
                        op.code == OpCode::kCall ||
                        op.code == OpCode::kEnumDomain;
    prog.ops.push_back(std::move(op));
    if (choice) last_choice = static_cast<int>(prog.ops.size()) - 1;
  };
  auto push_enum = [&](VarIndex v) {
    Op op;
    op.code = OpCode::kEnumDomain;
    op.var = v;
    push(std::move(op));
  };

  for (const PlanStep& step : in.plan->steps) {
    switch (step.kind) {
      case PlanStep::Kind::kMatchPositive: {
        const Atom& atom = premises[step.premise_index].atom;
        Op op;
        op.premise_index = static_cast<int16_t>(step.premise_index);
        op.pred = atom.predicate;
        op.designated = step.premise_index == in.delta_premise;
        op.exclude_delta = in.delta_premise >= 0 && !op.designated &&
                           step.premise_index < in.delta_premise;
        const PremiseMode mode = mode_of(step.premise_index);
        if (mode == PremiseMode::kCall && !AllBound(atom, bound)) {
          // Defined premise with free variables: one tabled call whose
          // answer table the host opens as the scan's segment.
          op.code = OpCode::kCall;
          BuildScanActions(atom, bound, &op);
          push(std::move(op));
        } else if (mode == PremiseMode::kCall) {
          // Ground defined premise: one subproof.
          op.code = OpCode::kProveCall;
          push(std::move(op));
        } else if (AllBound(atom, bound)) {
          op.code = OpCode::kTestGround;
          push(std::move(op));
        } else {
          op.code = OpCode::kScan;
          [[maybe_unused]] const ColumnMask mask =
              BuildScanActions(atom, bound, &op);
          // With no entry bindings, static boundness mirrors the plan's
          // own bookkeeping, so the masks must agree (plan_test invariant
          // the base seal's PrepareIndex relies on).
          if (in.head == nullptr && in.entry_bound.empty() &&
              in.delta_premise < 0) {
            HYPO_DCHECK(mask == step.probe_mask)
                << "compiled probe mask diverged from the plan's";
          }
          push(std::move(op));
        }
        MarkBound(atom, &bound);
        break;
      }
      case PlanStep::Kind::kEnumerateVars: {
        for (VarIndex v : step.enum_vars) {
          if (bound[v]) continue;  // Bound by an earlier step.
          push_enum(v);
          bound[v] = true;
        }
        break;
      }
      case PlanStep::Kind::kHypothetical: {
        const Premise& p = premises[step.premise_index];
        HYPO_DCHECK(AllBound(p.atom, bound));
        Op op;
        op.code = OpCode::kHypoTest;
        op.premise_index = static_cast<int16_t>(step.premise_index);
        op.pred = p.atom.predicate;
        push(std::move(op));
        break;
      }
      case PlanStep::Kind::kNegated: {
        const Atom& atom = premises[step.premise_index].atom;
        Op op;
        op.premise_index = static_cast<int16_t>(step.premise_index);
        op.pred = atom.predicate;
        if (mode_of(step.premise_index) != PremiseMode::kStorage) {
          op.code = OpCode::kNegCall;
          op.free_vars = FreeOccurrences(atom, bound);
        } else if (AllBound(atom, bound)) {
          op.code = OpCode::kNegGround;
        } else {
          op.code = OpCode::kNegProbe;
          op.mask = MaskFor(atom, bound);
          // Dedup'd bound variables: the host seeds its scratch Binding
          // from exactly these registers (never the unbound ones, whose
          // registers hold stale values from earlier candidates).
          for (const Term& t : atom.args) {
            if (!t.is_var() || !bound[t.var_index()]) continue;
            if (std::find(op.bound_vars.begin(), op.bound_vars.end(),
                          t.var_index()) == op.bound_vars.end()) {
              op.bound_vars.push_back(t.var_index());
            }
          }
        }
        push(std::move(op));
        break;
      }
    }
  }
  push(Op{});  // kEmitHead.
  return prog;
}

namespace {

const char* Name(OpCode c) {
  switch (c) {
    case OpCode::kScan:
      return "scan";
    case OpCode::kTestGround:
      return "test_ground";
    case OpCode::kEnumDomain:
      return "enum_domain";
    case OpCode::kProveCall:
      return "prove_call";
    case OpCode::kCall:
      return "call";
    case OpCode::kHypoTest:
      return "hypo_test";
    case OpCode::kNegGround:
      return "neg_ground";
    case OpCode::kNegProbe:
      return "neg_probe";
    case OpCode::kNegCall:
      return "neg_call";
    case OpCode::kEmitHead:
      return "emit_head";
  }
  return "?";
}

}  // namespace

namespace {

void PrintActions(std::ostringstream& out,
                  const std::vector<MatchAction>& actions) {
  out << "[";
  for (size_t k = 0; k < actions.size(); ++k) {
    const MatchAction& a = actions[k];
    if (k > 0) out << ",";
    switch (a.kind) {
      case MatchAction::Kind::kCheckConst:
        out << a.col << "==c" << a.operand;
        break;
      case MatchAction::Kind::kCheckReg:
        out << a.col << "==r" << a.operand;
        break;
      case MatchAction::Kind::kLoadReg:
        out << "r" << a.operand << ":=" << a.col;
        break;
    }
  }
  out << "]";
}

}  // namespace

std::string Disassemble(const Program& program,
                        const std::vector<Premise>& premises,
                        const SymbolTable& symbols) {
  std::ostringstream out;
  if (!program.head_match.empty()) {
    out << "      head_match=";
    PrintActions(out, program.head_match);
    out << "\n";
  }
  for (size_t i = 0; i < program.ops.size(); ++i) {
    const Op& op = program.ops[i];
    out << "      " << i << ": " << Name(op.code);
    if (op.premise_index >= 0) {
      out << " p" << op.premise_index << "="
          << symbols.PredicateName(premises[op.premise_index].atom.predicate);
    }
    const bool scan_like =
        op.code == OpCode::kScan || op.code == OpCode::kCall;
    if (scan_like || op.code == OpCode::kNegProbe) {
      out << " mask=0x" << std::hex << op.mask << std::dec;
    }
    if (scan_like) {
      out << " key=[";
      for (size_t k = 0; k < op.key.size(); ++k) {
        if (k > 0) out << ",";
        out << (op.key[k].from_reg ? "r" : "c") << op.key[k].operand;
      }
      out << "] match=";
      PrintActions(out, op.full);
      if (op.designated) out << " delta";
      if (op.exclude_delta) out << " -delta";
    }
    if (op.code == OpCode::kNegProbe && !op.bound_vars.empty()) {
      out << " bound=[";
      for (size_t k = 0; k < op.bound_vars.size(); ++k) {
        if (k > 0) out << ",";
        out << "r" << op.bound_vars[k];
      }
      out << "]";
    }
    if (op.code == OpCode::kEnumDomain) out << " r" << op.var;
    if (op.code == OpCode::kNegCall && !op.free_vars.empty()) {
      out << " free=[";
      for (size_t k = 0; k < op.free_vars.size(); ++k) {
        if (k > 0) out << ",";
        out << "r" << op.free_vars[k];
      }
      out << "]";
    }
    if (op.prev_choice >= 0) out << " <-" << op.prev_choice;
    out << "\n";
  }
  return out.str();
}

}  // namespace vm
}  // namespace hypo
