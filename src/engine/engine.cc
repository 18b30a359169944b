#include "engine/engine.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "base/hash.h"

namespace hypo {

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

uint64_t DomainFingerprint(const std::vector<ConstId>& domain) {
  uint64_t fp = 0x9E3779B97F4A7C15ull + domain.size();
  for (ConstId c : domain) {
    fp = HashCombine(fp, static_cast<uint64_t>(static_cast<uint32_t>(c)));
  }
  return fp;
}

}  // namespace hypo
