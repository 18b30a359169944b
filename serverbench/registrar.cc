#include "registrar.h"

#include <algorithm>
#include <set>

#include "oracle.h"

namespace serverbench {
namespace {

/// splitmix64: the benchmark's own PRNG, so the generated inputs depend
/// on nothing but the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  /// Index drawn with probability proportional to `weights[i]`.
  int Pick(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    double x = Unit() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (x < weights[i]) return static_cast<int>(i);
      x -= weights[i];
    }
    return static_cast<int>(weights.size()) - 1;
  }

 private:
  uint64_t state_;
};

constexpr uint64_t kCatalogueSeed = 0x5eed0f0ca7a1065ULL;

std::string S(int s) { return "s" + std::to_string(s); }
std::string C(int c) { return "c" + std::to_string(c); }
std::string Take(int s, int c) { return "take(" + S(s) + ", " + C(c) + ")"; }
std::string Prereq(int c, int p) {
  return "prereq(" + C(c) + ", " + C(p) + ")";
}

class Generator {
 public:
  Generator(const RegistrarConfig& config, uint64_t seed)
      : cfg_(config), rng_(seed), oracle_(0, config.courses, {}) {}

  Registrar Run(int64_t script_ops, int64_t min_per_kind,
                int64_t prefill_commits) {
    Registrar out;
    BuildBase(&out);
    // The pre-phase only enrols and drops, so the registrar the timed
    // script starts from has the configured size.
    for (int64_t i = 0; i < prefill_commits; ++i) {
      Op op;
      op.kind = OpKind::kCommit;
      NextCommit(&op, {cfg_.enroll, cfg_.drop, 0, 0});
      out.prefill.push_back(std::move(op));
    }
    const double weights[3] = {cfg_.grad + cfg_.open + cfg_.needs,
                               cfg_.whatif_grad + cfg_.whatif_open,
                               cfg_.commit};
    int64_t counts[3] = {0, 0, 0};
    auto short_of_minimum = [&] {
      for (int k = 0; k < 3; ++k) {
        if (weights[k] > 0 && counts[k] < min_per_kind) return true;
      }
      return false;
    };
    while (static_cast<int64_t>(out.script.size()) < script_ops ||
           short_of_minimum()) {
      out.script.push_back(NextOp());
      ++counts[static_cast<int>(out.script.back().kind)];
    }
    return out;
  }

 private:
  int Level(int c) const { return c * kLevels / cfg_.courses; }
  int LevelBegin(int level) const {
    return (level * cfg_.courses + kLevels - 1) / kLevels;
  }
  /// A random enrolled student (the cohort turns over, see NextCommit).
  int Student() { return active_[rng_.Below(static_cast<int>(active_.size()))]; }

  void BuildBase(Registrar* out) {
    // The catalogue (tracks, and each course's candidate prerequisites)
    // comes from a fixed seed: it is the university, the same in every
    // run. The run's seed draws the students, their histories and the
    // traffic, so runs on different seeds do comparable work.
    Rng catalogue(kCatalogueSeed);
    std::vector<std::vector<int>> tracks(kTracks);
    for (std::vector<int>& track : tracks) {
      std::set<int> courses;
      while (static_cast<int>(courses.size()) < kTrackLen) {
        courses.insert(catalogue.Below(cfg_.courses));
      }
      track.assign(courses.begin(), courses.end());
    }
    oracle_ = RegistrarOracle(0, cfg_.courses, tracks);
    candidates_.assign(cfg_.courses, {});
    for (int c = LevelBegin(1); c < cfg_.courses; ++c) {
      int lo = LevelBegin(Level(c) - 1), width = LevelBegin(Level(c)) - lo;
      std::set<int> pool;
      while (static_cast<int>(pool.size()) <
             std::min(width, kPrereqsPerCourse + 1)) {
        pool.insert(lo + catalogue.Below(width));
      }
      candidates_[c].assign(pool.begin(), pool.end());
      for (int k = 0; k < kPrereqsPerCourse &&
                      k < static_cast<int>(candidates_[c].size());
           ++k) {
        oracle_.SetPrereq(c, candidates_[c][k], true);
      }
    }
    // Students take courses roughly in prerequisite order: prefer a
    // course that is open to them, so histories look like progress.
    for (int i = 0; i < cfg_.students; ++i) {
      int s = oracle_.AddStudent();
      active_.push_back(s);
      while (static_cast<int>(oracle_.take(s).size()) <
             kTakesPerStudent) {
        oracle_.Enroll(s, CourseFor(s));
      }
    }
    // Burn-in: run enrolments, drops and prerequisite edits on the oracle
    // alone until the registrar has the shape the commit stream keeps, so
    // the timed script starts from a steady state.
    int64_t burn_in = 2LL * cfg_.students * kTakesPerStudent +
                      4LL * cfg_.courses;
    for (int64_t i = 0; i < burn_in; ++i) {
      Op discarded;
      NextCommit(&discarded, {cfg_.enroll, cfg_.drop, 0, cfg_.prereq_edit});
    }

    std::string& p = out->program;
    p += "% Generated registrar (Bonner, Examples 1-3, scaled up).\n";
    p += ":- assumable take/2.\n";
    for (const std::vector<int>& track : tracks) {
      p += "grad(S) <- ";
      for (size_t k = 0; k < track.size(); ++k) {
        p += (k ? ", take(S, " : "take(S, ") + C(track[k]) + ")";
      }
      p += ".\n";
    }
    p += "needs(C, X) <- prereq(C, X).\n";
    p += "needs(C, X) <- prereq(C, Y), needs(Y, X).\n";
    p += "missing(S, C) <- student(S), needs(C, P), ~take(S, P).\n";
    p += "open(S, C) <- student(S), course(C), ~missing(S, C), ~take(S, C).\n";
    int64_t facts = 0;
    for (int c = 0; c < cfg_.courses; ++c) {
      p += "course(" + C(c) + ").\n";
      ++facts;
      for (int q : oracle_.prereq(c)) {
        p += Prereq(c, q) + ".\n";
        ++facts;
      }
    }
    for (int s : active_) {
      p += "student(" + S(s) + ").\n";
      ++facts;
      for (int c : oracle_.take(s)) {
        p += Take(s, c) + ".\n";
        ++facts;
      }
    }
    out->base_facts = facts;
  }

  Op NextOp() {
    Op op;
    switch (rng_.Pick({cfg_.grad, cfg_.open, cfg_.needs, cfg_.whatif_grad,
                       cfg_.whatif_open, cfg_.commit})) {
      case 0: {
        int s = Student();
        op.text = "grad(" + S(s) + ")";
        op.expect_true = oracle_.Grad(s);
        break;
      }
      case 1: {
        int s = Student(), c = rng_.Below(cfg_.courses);
        op.text = "open(" + S(s) + ", " + C(c) + ")";
        op.expect_true = oracle_.Open(s, c);
        break;
      }
      case 2: {
        int c = rng_.Below(cfg_.courses);
        op.text = "needs(" + C(c) + ", X)";
        op.ground = false;
        for (int x : oracle_.Needs(c)) op.expect_rows.push_back(C(x));
        std::sort(op.expect_rows.begin(), op.expect_rows.end());
        break;
      }
      case 3: {
        // Would s graduate after also taking one course of some track?
        int s = Student();
        const std::vector<int>& track =
            oracle_.tracks()[rng_.Below(static_cast<int>(oracle_.tracks().size()))];
        int c = track[rng_.Below(static_cast<int>(track.size()))];
        op.kind = OpKind::kWhatIf;
        op.text = "grad(" + S(s) + ")[add: " + Take(s, c) + "]";
        op.expect_true = oracle_.Grad(s, c);
        break;
      }
      case 4: {
        // Would c open up for s after taking one of its prerequisites?
        int s = Student(), c = rng_.Below(cfg_.courses);
        const std::vector<int>& needs = oracle_.Needs(c);
        int p = needs.empty() ? rng_.Below(cfg_.courses)
                              : needs[rng_.Below(static_cast<int>(needs.size()))];
        op.kind = OpKind::kWhatIf;
        op.text = "open(" + S(s) + ", " + C(c) + ")[add: " + Take(s, p) + "]";
        op.expect_true = oracle_.Open(s, c, p);
        break;
      }
      default:
        op.kind = OpKind::kCommit;
        NextCommit(&op, {cfg_.enroll, cfg_.drop, cfg_.new_student,
                         cfg_.prereq_edit});
        break;
    }
    return op;
  }

  /// A course for `s` to enrol in, preferring one open to them.
  int CourseFor(int s) {
    int c = rng_.Below(cfg_.courses);
    for (int attempt = 0; attempt < 4 && !oracle_.Open(s, c); ++attempt) {
      c = rng_.Below(cfg_.courses);
    }
    while (oracle_.take(s).count(c)) c = (c + 1) % cfg_.courses;
    return c;
  }

  /// Weights: enroll, drop, new student, prerequisite edit. Each kind
  /// pulls the registrar back toward the catalogue's shape (about
  /// kTakesPerStudent courses per student, kPrereqsPerCourse
  /// prerequisites per course), so costs do not drift over a run.
  void NextCommit(Op* op, const std::vector<double>& weights) {
    int kind = rng_.Pick(weights);
    if (kind <= 1) {
      int s = Student();
      int n = static_cast<int>(oracle_.take(s).size());
      int k = kTakesPerStudent;
      bool enroll = kind == 0 ? n < k + 3 : n <= std::max(0, k - 3);
      if (enroll) {
        int c = CourseFor(s);
        oracle_.Enroll(s, c);
        op->commit_kind = "enroll";
        op->batch.push_back({true, Take(s, c)});
      } else {
        auto it = oracle_.take(s).begin();
        std::advance(it, rng_.Below(n));
        int c = *it;
        oracle_.Drop(s, c);
        op->commit_kind = "drop";
        op->batch.push_back({false, Take(s, c)});
      }
      return;
    }
    if (kind == 2) {
      // A new student (new constants) takes the place of one who leaves,
      // so the registrar keeps its size over a long run.
      int slot = rng_.Below(static_cast<int>(active_.size()));
      int leaving = active_[slot];
      int s = oracle_.AddStudent();
      active_[slot] = s;
      op->commit_kind = "new_student";
      op->batch.push_back({true, "student(" + S(s) + ")"});
      for (int k = 0; k < 2; ++k) {
        int c = rng_.Below(LevelBegin(1));
        if (oracle_.Enroll(s, c)) op->batch.push_back({true, Take(s, c)});
      }
      for (int c : oracle_.take(leaving)) {
        op->batch.push_back({false, Take(leaving, c)});
      }
      op->batch.push_back({false, "student(" + S(leaving) + ")"});
      oracle_.RemoveStudent(leaving);
      return;
    }
    // Prerequisite edit: c swaps one prerequisite for another of its
    // catalogue candidates, so every course keeps its number of them.
    int c = LevelBegin(1) + rng_.Below(cfg_.courses - LevelBegin(1));
    std::vector<int> held, free;
    for (int q : candidates_[c]) {
      (oracle_.prereq(c).count(q) ? held : free).push_back(q);
    }
    int drop = held[rng_.Below(static_cast<int>(held.size()))];
    int add = free[rng_.Below(static_cast<int>(free.size()))];
    oracle_.SetPrereq(c, drop, false);
    oracle_.SetPrereq(c, add, true);
    op->commit_kind = "prereq_edit";
    op->batch.push_back({false, Prereq(c, drop)});
    op->batch.push_back({true, Prereq(c, add)});
  }

  const RegistrarConfig& cfg_;
  Rng rng_;
  RegistrarOracle oracle_;
  std::vector<int> active_;  // Enrolled students, in a seed-fixed order.
  /// Per course, the catalogue's candidate prerequisites one level down.
  std::vector<std::vector<int>> candidates_;
};

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "query";
    case OpKind::kWhatIf:
      return "whatif";
    case OpKind::kCommit:
      return "commit";
  }
  return "?";
}

Registrar GenerateRegistrar(const RegistrarConfig& config, uint64_t seed,
                            int64_t script_ops, int64_t min_per_kind,
                            int64_t prefill_commits) {
  return Generator(config, seed).Run(script_ops, min_per_kind,
                                     prefill_commits);
}

std::string ScriptToProtocol(const std::vector<Op>& script, int64_t n) {
  std::string out;
  for (int64_t i = 0; i < n && i < static_cast<int64_t>(script.size()); ++i) {
    const Op& op = script[i];
    if (op.kind != OpKind::kCommit) {
      out += "query " + op.text + "\n";
      continue;
    }
    out += "begin\n";
    for (const auto& [insert, fact] : op.batch) {
      out += (insert ? "insert " : "retract ") + fact + "\n";
    }
    out += "commit\n";
  }
  out += "shutdown\n";
  return out;
}

uint64_t Fingerprint(const Registrar& registrar) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view bytes) {
    for (unsigned char ch : bytes) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  mix(registrar.program);
  std::vector<const Op*> ops;
  for (const Op& op : registrar.prefill) ops.push_back(&op);
  for (const Op& op : registrar.script) ops.push_back(&op);
  for (const Op* op_ptr : ops) {
    const Op& op = *op_ptr;
    mix(OpKindName(op.kind));
    mix(op.text);
    for (const auto& [insert, fact] : op.batch) mix((insert ? "+" : "-") + fact);
    mix(op.expect_true ? "1" : "0");
    for (const std::string& row : op.expect_rows) mix(row);
  }
  return h;
}

}  // namespace serverbench
