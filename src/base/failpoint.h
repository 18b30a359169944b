#ifndef HYPO_BASE_FAILPOINT_H_
#define HYPO_BASE_FAILPOINT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"

/// Deterministic fault injection.
///
/// A *failpoint* is a named site in library code — `HYPO_FAILPOINT("x.y")`
/// — where a test can program an error to surface on the Nth execution of
/// that site. This turns "what if the engine dies mid-repair?" from
/// a thought experiment into a repeatable unit test: arm the site, run a
/// query, watch the typed error propagate, then re-run on the *same*
/// engine instance and require answers identical to a fresh engine
/// (tests/failpoint_test.cc drives exactly that differential sweep over
/// every site the workload touches).
///
/// Sites only exist where a Status (or StatusOr) already flows, so an
/// injected failure exercises the engine's real error path — nothing is
/// thrown, nothing longjmps.
///
/// The whole framework compiles to nothing when HYPO_FAILPOINTS is 0 (the
/// top-level CMakeLists forces that for Release builds); the macro then
/// expands to an empty statement and the registry class is not defined.
#ifndef HYPO_FAILPOINTS
#define HYPO_FAILPOINTS 0
#endif

namespace hypo {

/// True when failpoints are compiled into this build. Tests use this to
/// skip (rather than fail) the injection suites under Release.
constexpr bool FailpointsEnabled() { return HYPO_FAILPOINTS != 0; }

#if HYPO_FAILPOINTS

/// Process-global table of failpoint sites: per-site hit counters (always
/// maintained, so tests can *discover* which sites a workload crosses) and
/// at most one armed one-shot trigger per site.
///
/// All methods are thread-safe; arming and disarming are meant to happen
/// from the test thread while no query is in flight.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  /// Programs `site` to return `status` on its `nth` next hit, counted
  /// from this call (nth=1 means the very next execution). One-shot: the
  /// trigger clears itself when it fires. Re-arming replaces any pending
  /// trigger for the site.
  void Arm(const std::string& site, int64_t nth, Status status);

  /// Like Arm, but once the trigger fires it KEEPS firing on every later
  /// hit until disarmed — a persistently failing device rather than a
  /// transient blip. The durability tests use this to defeat the
  /// journal's bounded retry (a one-shot trigger would be absorbed by
  /// the first retry) and to model a crash point: everything after the
  /// armed site behaves as if the process had died there.
  void ArmSticky(const std::string& site, int64_t nth, Status status);

  /// Clears every pending trigger (hit counters are kept).
  void DisarmAll();

  /// Called by the HYPO_FAILPOINT macro: counts a hit and returns the
  /// armed status if this hit is the one programmed to fire, OK otherwise.
  Status Hit(const char* site);

  /// Hits recorded for `site` since the last ResetCounts (0 if never hit).
  int64_t HitCount(const std::string& site) const;

  /// Every site hit at least once since the last ResetCounts, with counts.
  std::vector<std::pair<std::string, int64_t>> HitSites() const;

  /// Zeroes all hit counters (pending triggers are kept).
  void ResetCounts();

 private:
  struct Site {
    int64_t hits = 0;       // Executions since last ResetCounts.
    int64_t remaining = 0;  // >0: fires when this many more hits land;
                            // -1: sticky trigger fired, fire every hit.
    bool sticky = false;    // Keep firing after the first trip.
    Status status;          // What to return when the trigger fires.
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Site> sites_;
};

/// Marks an injection site. Must appear in a function returning Status or
/// StatusOr<T> (the injected Status converts implicitly).
#define HYPO_FAILPOINT(site)                                              \
  do {                                                                    \
    ::hypo::Status _hypo_fp =                                             \
        ::hypo::FailpointRegistry::Global().Hit(site);                    \
    if (!_hypo_fp.ok()) return _hypo_fp;                                  \
  } while (false)

#else  // !HYPO_FAILPOINTS

#define HYPO_FAILPOINT(site) \
  do {                       \
  } while (false)

#endif  // HYPO_FAILPOINTS

}  // namespace hypo

#endif  // HYPO_BASE_FAILPOINT_H_
