#ifndef SERVERBENCH_ORACLE_H_
#define SERVERBENCH_ORACLE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace serverbench {

/// The registrar's semantics computed directly: plain sets, and a DFS over
/// the prerequisite DAG for `needs`. It shares no code with the engines,
/// so it is an independent check on every answer the server gives.
///
///   grad(S)       some track's courses are all in take(S)
///   needs(C, X)   X is reachable from C over prereq edges
///   missing(S, C) student(S) and some needs(C, P) with P not in take(S)
///   open(S, C)    student(S), course(C), not missing(S, C), C not taken
///
/// Students and courses are dense indexes; names are "s<i>" and "c<i>".
class RegistrarOracle {
 public:
  RegistrarOracle(int students, int courses,
                  std::vector<std::vector<int>> tracks);

  int num_students() const { return static_cast<int>(take_.size()); }
  int num_courses() const { return static_cast<int>(prereq_.size()); }
  const std::vector<std::vector<int>>& tracks() const { return tracks_; }
  const std::set<int>& take(int s) const { return take_[s]; }
  const std::set<int>& prereq(int c) const { return prereq_[c]; }

  /// `extra` >= 0 adds take(s, extra) hypothetically.
  bool Grad(int s, int extra = -1) const;
  bool Open(int s, int c, int extra = -1) const;
  /// Sorted course indexes X with needs(c, X).
  const std::vector<int>& Needs(int c) const;

  /// Each returns true when the base actually changed.
  bool Enroll(int s, int c);
  bool Drop(int s, int c);
  int AddStudent();  // Returns the new student's index.
  void RemoveStudent(int s);  // Drops every take(s, _); s is not reused.
  /// Adds or removes prereq(c, p); the caller keeps the graph acyclic.
  bool SetPrereq(int c, int p, bool present);

 private:
  std::vector<std::set<int>> take_;
  std::vector<std::set<int>> prereq_;
  std::vector<std::vector<int>> tracks_;
  /// needs(c, _) closures, recomputed lazily after a prereq edit.
  mutable std::vector<std::vector<int>> needs_;
  mutable std::vector<bool> needs_valid_;
};

}  // namespace serverbench

#endif  // SERVERBENCH_ORACLE_H_
