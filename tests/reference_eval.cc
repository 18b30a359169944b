#include "reference_eval.h"

#include <algorithm>

namespace hypo {

namespace {

/// An assignment slot no premise or domain value has filled yet.
constexpr ConstId kFree = -1;

Fact Ground(const Atom& atom, const std::vector<ConstId>& a) {
  Fact f{atom.predicate, {}};
  for (const Term& t : atom.args) {
    f.args.push_back(t.is_const() ? t.const_id() : a[t.var_index()]);
  }
  return f;
}

void MarkVars(const Atom& atom, std::vector<bool>* vars) {
  for (const Term& t : atom.args) {
    if (t.is_var()) (*vars)[t.var_index()] = true;
  }
}

/// The variables a rule grounds over the domain: those of its head and of
/// its positive and hypothetical premises. The rest occur only under
/// negation and get the ∄ reading.
std::vector<bool> GroundedVars(const Rule& rule) {
  std::vector<bool> grounded(rule.num_vars(), false);
  MarkVars(rule.head, &grounded);
  for (const Premise& p : rule.premises) {
    if (p.kind == PremiseKind::kNegated) continue;
    MarkVars(p.atom, &grounded);
    for (const Atom& b : p.additions) MarkVars(b, &grounded);
    for (const Atom& c : p.deletions) MarkVars(c, &grounded);
  }
  return grounded;
}

/// "pred(a, b)", from symbol names alone.
std::string Render(const Fact& fact, const SymbolTable& symbols) {
  std::string out = symbols.PredicateName(fact.predicate);
  if (fact.args.empty()) return out;
  for (size_t i = 0; i < fact.args.size(); ++i) {
    out += (i == 0 ? "(" : ", ") + symbols.ConstName(fact.args[i]);
  }
  return out + ")";
}

}  // namespace

ReferenceEngine::ReferenceEngine(const RuleBase* rulebase, const Database* db,
                                 std::vector<ConstId> domain)
    : rulebase_(rulebase), db_(db), pinned_(std::move(domain)) {}

Status ReferenceEngine::Init() {
  // Levels by relaxation: a head sits at or above its positive and
  // hypothetical premises and strictly above its negated ones.
  const int num_preds = rulebase_->symbols().num_predicates();
  level_.assign(num_preds, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : rulebase_->rules()) {
      for (const Premise& p : rule.premises) {
        const int need = level_[p.atom.predicate] +
                         (p.kind == PremiseKind::kNegated ? 1 : 0);
        if (level_[rule.head.predicate] >= need) continue;
        if (need > num_preds) {
          return Status::InvalidArgument("negation is not stratified");
        }
        level_[rule.head.predicate] = need;
        changed = true;
      }
    }
  }
  num_levels_ = 0;
  for (const Rule& rule : rulebase_->rules()) {
    num_levels_ = std::max(num_levels_, level_[rule.head.predicate] + 1);
  }
  base_.clear();
  db_->ForEach([this](const Fact& f) { base_.insert(f); });
  domain_.clear();
  models_.clear();
  initialized_ = true;
  return Status::OK();
}

int ReferenceEngine::LevelOf(PredicateId pred) const {
  // Predicates interned after Init (by queries) have no rules.
  return pred < static_cast<int>(level_.size()) ? level_[pred] : 0;
}

void ReferenceEngine::UseDomain(const std::vector<ConstId>& extra) {
  std::set<ConstId> domain(pinned_.begin(), pinned_.end());
  domain.insert(rulebase_->constants().begin(), rulebase_->constants().end());
  for (const Fact& f : base_) domain.insert(f.args.begin(), f.args.end());
  domain.insert(extra.begin(), extra.end());
  std::vector<ConstId> sorted(domain.begin(), domain.end());
  if (sorted == domain_) return;
  domain_ = std::move(sorted);
  models_.clear();
}

StatusOr<ReferenceEngine::Node*> ReferenceEngine::Reach(
    State state, int level, std::vector<Node*>* work) {
  auto [it, created] = models_.try_emplace(std::move(state));
  Node* node = &*it;
  if (!created) {
    // Only the fixpoint of one level is open at a time, and every state
    // still below it was created (and is being raised) by this Reach's
    // callers, so an existing state is final below `level`.
    if (node->second.done < level) {
      return Status::Internal("reference: state reached below its level");
    }
    return node;
  }
  ++stats_.states_evaluated;
  if (static_cast<int64_t>(models_.size()) > kMaxStates) {
    return Status::ResourceExhausted("reference: more than kMaxStates states");
  }
  std::vector<Node*> fresh = {node};
  for (int below = 0; below < level; ++below) {
    HYPO_RETURN_IF_ERROR(SolveLevel(below, &fresh));
  }
  work->insert(work->end(), fresh.begin(), fresh.end());
  return node;
}

Status ReferenceEngine::SolveLevel(int level, std::vector<Node*>* work) {
  for (bool changed = true; changed;) {
    changed = false;
    // `work` grows while states are reached; index, don't iterate.
    for (size_t i = 0; i < work->size(); ++i) {
      Node* node = (*work)[i];
      for (const Rule& rule : rulebase_->rules()) {
        if (LevelOf(rule.head.predicate) != level) continue;
        std::vector<Fact> heads;
        HYPO_RETURN_IF_ERROR(ForEachInstance(
            node, rule.premises, GroundedVars(rule), level, work,
            [&](const std::vector<ConstId>& a) {
              heads.push_back(Ground(rule.head, a));
            }));
        for (Fact& head : heads) {
          if (node->first.count(head) > 0) continue;
          if (node->second.derived.insert(std::move(head)).second) {
            ++stats_.facts_derived;
            changed = true;
          }
        }
      }
    }
  }
  for (Node* node : *work) node->second.done = level + 1;
  return Status::OK();
}

void ReferenceEngine::ForEachVisible(
    const Node& node, PredicateId pred,
    const std::function<void(const Fact&)>& fn) {
  // Facts sort by predicate first: {pred, {}} opens pred's range.
  for (const std::set<Fact>* facts : {&node.first, &node.second.derived}) {
    for (auto it = facts->lower_bound(Fact{pred, {}});
         it != facts->end() && it->predicate == pred; ++it) {
      fn(*it);
    }
  }
}

bool ReferenceEngine::Unify(const Atom& atom, const Fact& fact,
                            std::vector<ConstId>* a,
                            std::vector<VarIndex>* trail) const {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    const ConstId value = fact.args[i];
    if (t.is_const()) {
      if (t.const_id() != value) return false;
      continue;
    }
    ConstId& slot = (*a)[t.var_index()];
    if (slot != kFree) {
      if (slot != value) return false;
      continue;
    }
    if (!std::binary_search(domain_.begin(), domain_.end(), value)) {
      return false;
    }
    slot = value;
    trail->push_back(t.var_index());
  }
  return true;
}

Status ReferenceEngine::ForEachInstance(Node* node,
                                        const std::vector<Premise>& premises,
                                        const std::vector<bool>& grounded,
                                        int level, std::vector<Node*>* work,
                                        const Emit& emit) {
  std::vector<ConstId> a(grounded.size(), kFree);
  std::vector<const Atom*> positive;
  for (const Premise& p : premises) {
    if (p.kind == PremiseKind::kPositive) positive.push_back(&p.atom);
  }
  // Positive premises bind by matching the facts that hold (the same
  // assignments grounding them over the domain would accept), the other
  // grounded variables range over the domain, then the tests run.
  std::function<Status(size_t)> extend = [&](size_t i) -> Status {
    if (i < positive.size()) {
      Status status;
      ForEachVisible(*node, positive[i]->predicate, [&](const Fact& f) {
        std::vector<VarIndex> trail;
        if (status.ok() && Unify(*positive[i], f, &a, &trail)) {
          status = extend(i + 1);
        }
        for (VarIndex v : trail) a[v] = kFree;
      });
      return status;
    }
    for (size_t v = 0; v < a.size(); ++v) {
      if (!grounded[v] || a[v] != kFree) continue;
      for (ConstId c : domain_) {
        a[v] = c;
        HYPO_RETURN_IF_ERROR(extend(i));
      }
      a[v] = kFree;
      return Status::OK();
    }
    for (const Premise& p : premises) {
      if (p.kind == PremiseKind::kHypothetical) {
        State next = node->first;
        for (const Atom& c : p.deletions) next.erase(Ground(c, a));
        for (const Atom& b : p.additions) next.insert(Ground(b, a));
        Node* target = node;
        if (next != node->first) {
          HYPO_ASSIGN_OR_RETURN(target, Reach(std::move(next), level, work));
        }
        if (!Holds(*target, Ground(p.atom, a))) return Status::OK();
      } else if (p.kind == PremiseKind::kNegated) {
        bool witness = false;
        ForEachVisible(*node, p.atom.predicate, [&](const Fact& f) {
          std::vector<VarIndex> trail;
          if (!witness && Unify(p.atom, f, &a, &trail)) witness = true;
          for (VarIndex v : trail) a[v] = kFree;
        });
        if (witness) return Status::OK();
      }
    }
    emit(a);
    return Status::OK();
  };
  return extend(0);
}

template <typename Body>
Status ReferenceEngine::OnBase(const std::vector<ConstId>& extra,
                               const Body& body) {
  if (!initialized_) HYPO_RETURN_IF_ERROR(Init());
  UseDomain(extra);
  std::vector<Node*> solved;  // Every level final: nothing left to run.
  Status status = [&]() -> Status {
    HYPO_ASSIGN_OR_RETURN(Node * top, Reach(base_, num_levels_, &solved));
    return body(top, &solved);
  }();
  if (!status.ok()) models_.clear();
  return status;
}

StatusOr<bool> ReferenceEngine::ProveFact(const Fact& fact) {
  bool holds = false;
  HYPO_RETURN_IF_ERROR(
      OnBase(fact.args, [&](Node* top, std::vector<Node*>*) -> Status {
        holds = Holds(*top, fact);
        return Status::OK();
      }));
  return holds;
}

StatusOr<std::vector<Tuple>> ReferenceEngine::Answers(const Query& query) {
  std::set<Tuple> seen;
  std::vector<Tuple> answers;
  HYPO_RETURN_IF_ERROR(OnBase(
      QueryConstants(query),
      [&](Node* top, std::vector<Node*>* solved) -> Status {
        return ForEachInstance(
            top, query.premises, std::vector<bool>(query.num_vars(), true),
            num_levels_, solved, [&](const std::vector<ConstId>& a) {
              if (seen.insert(a).second) answers.push_back(a);
            });
      }));
  return answers;
}

StatusOr<bool> ReferenceEngine::ProveQuery(const Query& query) {
  HYPO_ASSIGN_OR_RETURN(std::vector<Tuple> answers, Answers(query));
  return !answers.empty();
}

// --- Differential harness -------------------------------------------------

std::vector<ConstId> AllConstants(const SymbolTable& symbols) {
  std::vector<ConstId> domain;
  for (ConstId c = 0; c < symbols.num_consts(); ++c) domain.push_back(c);
  return domain;
}

Status PinDomain(Engine* engine, const RuleBase& rules,
                 const std::vector<ConstId>& domain) {
  const SymbolTable& symbols = rules.symbols();
  PredicateId carrier = kInvalidPredicate;
  for (PredicateId p = 0; p < symbols.num_predicates(); ++p) {
    if (symbols.PredicateArity(p) > 0) {
      carrier = p;
      break;
    }
  }
  // Without a predicate of positive arity no query can name a constant.
  if (carrier == kInvalidPredicate || domain.empty()) return Status::OK();
  Query query;
  for (ConstId c : domain) {
    Atom atom{carrier, {}};
    for (int i = 0; i < symbols.PredicateArity(carrier); ++i) {
      atom.args.push_back(Term::MakeConst(c));
    }
    query.premises.push_back(Premise::Positive(std::move(atom)));
  }
  return engine->ProveQuery(query).status();
}

StatusOr<std::set<std::string>> DeriveAll(Engine* engine,
                                          const RuleBase& rules,
                                          const std::vector<ConstId>& domain) {
  std::set<std::string> facts;
  const SymbolTable& symbols = rules.symbols();
  for (PredicateId pred = 0; pred < symbols.num_predicates(); ++pred) {
    if (!rules.IsDefined(pred)) continue;
    const int arity = symbols.PredicateArity(pred);
    if (arity > 0 && domain.empty()) continue;
    // Odometer over domain^arity (one pass for arity 0).
    std::vector<size_t> index(arity, 0);
    for (;;) {
      Fact fact{pred, {}};
      for (size_t i : index) fact.args.push_back(domain[i]);
      HYPO_ASSIGN_OR_RETURN(bool holds, engine->ProveFact(fact));
      if (holds) facts.insert(Render(fact, symbols));
      int pos = arity - 1;
      while (pos >= 0 && ++index[pos] == domain.size()) index[pos--] = 0;
      if (pos < 0) break;
    }
  }
  return facts;
}

StatusOr<std::set<std::string>> AnswerAll(Engine* engine,
                                          const RuleBase& rules) {
  std::set<std::string> rows;
  const SymbolTable& symbols = rules.symbols();
  for (PredicateId pred = 0; pred < symbols.num_predicates(); ++pred) {
    if (!rules.IsDefined(pred)) continue;
    Query query;
    Atom atom{pred, {}};
    for (int i = 0; i < symbols.PredicateArity(pred); ++i) {
      atom.args.push_back(Term::MakeVar(i));
      query.var_names.push_back("V" + std::to_string(i));
    }
    query.premises.push_back(Premise::Positive(std::move(atom)));
    HYPO_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                          engine->Answers(query));
    for (Tuple& t : answers) {
      rows.insert(Render(Fact{pred, std::move(t)}, symbols));
    }
  }
  return rows;
}

}  // namespace hypo
