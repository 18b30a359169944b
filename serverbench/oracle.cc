#include "oracle.h"

#include <algorithm>

namespace serverbench {

RegistrarOracle::RegistrarOracle(int students, int courses,
                                 std::vector<std::vector<int>> tracks)
    : take_(students),
      prereq_(courses),
      tracks_(std::move(tracks)),
      needs_(courses),
      needs_valid_(courses, false) {}

bool RegistrarOracle::Grad(int s, int extra) const {
  const std::set<int>& taken = take_[s];
  for (const std::vector<int>& track : tracks_) {
    bool all = true;
    for (int c : track) {
      if (c != extra && !taken.count(c)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

bool RegistrarOracle::Open(int s, int c, int extra) const {
  const std::set<int>& taken = take_[s];
  if (c == extra || taken.count(c)) return false;
  for (int p : Needs(c)) {
    if (p != extra && !taken.count(p)) return false;
  }
  return true;
}

const std::vector<int>& RegistrarOracle::Needs(int c) const {
  if (!needs_valid_[c]) {
    std::vector<bool> seen(prereq_.size(), false);
    std::vector<int> stack(prereq_[c].begin(), prereq_[c].end());
    std::vector<int> out;
    while (!stack.empty()) {
      int x = stack.back();
      stack.pop_back();
      if (seen[x]) continue;
      seen[x] = true;
      out.push_back(x);
      for (int y : prereq_[x]) {
        if (!seen[y]) stack.push_back(y);
      }
    }
    std::sort(out.begin(), out.end());
    needs_[c] = std::move(out);
    needs_valid_[c] = true;
  }
  return needs_[c];
}

bool RegistrarOracle::Enroll(int s, int c) { return take_[s].insert(c).second; }

bool RegistrarOracle::Drop(int s, int c) { return take_[s].erase(c) > 0; }

int RegistrarOracle::AddStudent() {
  take_.emplace_back();
  return static_cast<int>(take_.size()) - 1;
}

void RegistrarOracle::RemoveStudent(int s) { take_[s].clear(); }

bool RegistrarOracle::SetPrereq(int c, int p, bool present) {
  bool changed = present ? prereq_[c].insert(p).second
                         : prereq_[c].erase(p) > 0;
  if (changed) std::fill(needs_valid_.begin(), needs_valid_.end(), false);
  return changed;
}

}  // namespace serverbench
