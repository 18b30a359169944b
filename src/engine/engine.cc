#include "engine/engine.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "base/hash.h"
#include "base/logging.h"
#include "engine/bottom_up.h"
#include "engine/stratified_prover.h"
#include "engine/tabled.h"

namespace hypo {

StatusOr<std::unique_ptr<Engine>> MakeEngine(const std::string& name,
                                             const RuleBase* rules,
                                             const Database* db,
                                             const EngineOptions& options) {
  std::unique_ptr<Engine> engine;
  if (name == "tabled") {
    engine = std::make_unique<TabledEngine>(rules, db, options);
  } else if (name == "stratified") {
    engine = std::make_unique<StratifiedProver>(rules, db, options);
  } else if (name == "bottomup") {
    engine = std::make_unique<BottomUpEngine>(rules, db, options);
  } else {
    return Status::InvalidArgument("unknown engine \"" + name +
                                   "\" (tabled|stratified|bottomup)");
  }
  return engine;
}

std::vector<ConstId> ComputeDomain(const RuleBase& rulebase,
                                   const Database& db,
                                   const std::vector<ConstId>& extra) {
  std::unordered_set<ConstId> domain;
  domain.insert(rulebase.constants().begin(), rulebase.constants().end());
  domain.insert(db.constants().begin(), db.constants().end());
  domain.insert(extra.begin(), extra.end());
  std::vector<ConstId> out(domain.begin(), domain.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ConstId> QueryConstants(const Query& query) {
  std::vector<ConstId> out;
  auto collect = [&out](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_const()) out.push_back(t.const_id());
    }
  };
  for (const Premise& p : query.premises) {
    collect(p.atom);
    for (const Atom& a : p.additions) collect(a);
    for (const Atom& a : p.deletions) collect(a);
  }
  return out;
}

Atom PseudoHead(const Query& query) {
  Atom head;
  head.predicate = kInvalidPredicate;
  for (int v = 0; v < query.num_vars(); ++v) {
    head.args.push_back(Term::MakeVar(v));
  }
  return head;
}

uint64_t DomainFingerprint(const std::vector<ConstId>& domain) {
  uint64_t fp = 0x9E3779B97F4A7C15ull + domain.size();
  for (ConstId c : domain) {
    fp = HashCombine(fp, static_cast<uint64_t>(static_cast<uint32_t>(c)));
  }
  return fp;
}

void PlannedCardinalities::Watch(const Database& db,
                                 const std::vector<Premise>& premises) {
  for (const Premise& p : premises) {
    if (p.kind != PremiseKind::kPositive) continue;
    const PredicateId pred = p.atom.predicate;
    if (std::none_of(planned_.begin(), planned_.end(),
                     [pred](const auto& w) { return w.first == pred; })) {
      planned_.emplace_back(pred, db.CountFor(pred));
    }
  }
}

bool PlannedCardinalities::Stale(const Database& db) const {
  for (const auto& [pred, planned] : planned_) {
    const int64_t now = db.CountFor(pred);
    if (now > 2 * planned || 2 * now < planned) return true;
  }
  return false;
}

void EngineDomain::Reset(const RuleBase& rules, const Database& db,
                         const std::vector<ConstId>& extra) {
  values = ComputeDomain(rules, db, extra);
  members.clear();
  members.insert(values.begin(), values.end());
  fingerprint = DomainFingerprint(values);
}

bool EngineDomain::ApplyBaseDelta(const BaseDelta& delta,
                                  const RuleBase& rules, const Database& db,
                                  const std::vector<ConstId>& extra,
                                  bool validate) {
  bool changed = false;
  auto follow = [&](const std::vector<Fact>& facts) {
    for (const Fact& f : facts) {
      for (ConstId c : f.args) {
        const bool in = db.constants().count(c) > 0 ||
                        rules.constants().count(c) > 0 ||
                        std::find(extra.begin(), extra.end(), c) != extra.end();
        if (in == (members.count(c) > 0)) continue;
        changed = true;
        auto pos = std::lower_bound(values.begin(), values.end(), c);
        if (in) {
          members.insert(c);
          values.insert(pos, c);
        } else {
          members.erase(c);
          values.erase(pos);
        }
      }
    }
  };
  follow(delta.inserts);
  follow(delta.retracts);
  if (changed) fingerprint = DomainFingerprint(values);
  if (validate) {
    HYPO_CHECK(values == ComputeDomain(rules, db, extra))
        << "maintained domain drifted from dom(R, DB)";
  }
  return changed;
}

}  // namespace hypo
