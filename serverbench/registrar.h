#ifndef SERVERBENCH_REGISTRAR_H_
#define SERVERBENCH_REGISTRAR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace serverbench {

/// The catalogue's shape is the same in every workload: four course
/// levels, each course above level 0 holding two of three candidate
/// prerequisites one level down; six `grad` tracks of three courses;
/// about eight courses taken per student.
constexpr int kLevels = 4;  // Prerequisites point one level down.
constexpr int kPrereqsPerCourse = 2;
constexpr int kTakesPerStudent = 8;
constexpr int kTracks = 6;  // grad(S) rules ...
constexpr int kTrackLen = 3;  // ... each requiring this many courses.
/// Fewest courses that fit that shape: each level holds a course's
/// candidate prerequisites, and there are more courses than the
/// kTakesPerStudent + 3 a student may hold.
constexpr int kMinCourses =
    std::max(kLevels * (kPrereqsPerCourse + 1), kTakesPerStudent + 4);

/// Sizes and traffic mix of one generated registrar (the paper's
/// university domain, Examples 1-3, scaled up), as workloads.json sets
/// them. Weights are relative; a kind left at 0 is not issued.
struct RegistrarConfig {
  int students = 0;
  int courses = 0;

  double grad = 0, open = 0, needs = 0;     // query
  double whatif_grad = 0, whatif_open = 0;  // what-if
  double commit = 0;                        // commit
  // Commit batch kinds.
  double enroll = 0, drop = 0, new_student = 0, prereq_edit = 0;
};

enum class OpKind { kQuery, kWhatIf, kCommit };
const char* OpKindName(OpKind kind);

/// One scripted operation with the oracle's expected answer.
struct Op {
  OpKind kind = OpKind::kQuery;
  /// Query text (`grad(s3)`, `open(s3, c9)[add: take(s3, c2)]`, ...).
  std::string text;
  /// Commit: the batch's facts, each (insert?, fact text); and its kind
  /// (enroll | drop | new_student | prereq_edit).
  std::vector<std::pair<bool, std::string>> batch;
  std::string commit_kind;
  /// Expected answer: a truth value for ground queries, else the sorted
  /// constants bound to the one answer variable.
  bool ground = true;
  bool expect_true = false;
  std::vector<std::string> expect_rows;
};

struct Registrar {
  std::string program;  // Rules, `:- assumable take/2.`, and base facts.
  int64_t base_facts = 0;
  /// Commits applied before the timed script (the durable pre-phase).
  std::vector<Op> prefill;
  std::vector<Op> script;
};

/// A pure function of its arguments: the same arguments give
/// byte-identical program text, prefill and script. The script holds at
/// least `script_ops` operations and at least `min_per_kind` of each
/// kind the mix issues.
Registrar GenerateRegistrar(const RegistrarConfig& config, uint64_t seed,
                            int64_t script_ops, int64_t min_per_kind,
                            int64_t prefill_commits);

/// The first `n` operations in the `hypo_serve` line protocol (commits as
/// begin / insert|retract ... / commit), ending with `shutdown`.
std::string ScriptToProtocol(const std::vector<Op>& script, int64_t n);

/// FNV-1a over the program and every operation, for determinism checks.
uint64_t Fingerprint(const Registrar& registrar);

}  // namespace serverbench

#endif  // SERVERBENCH_REGISTRAR_H_
