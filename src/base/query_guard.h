#ifndef HYPO_BASE_QUERY_GUARD_H_
#define HYPO_BASE_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "base/status.h"

namespace hypo {

/// Cooperative cancellation flag shared between a caller and a running
/// query. Cancel() is async-signal-safe (a single atomic store), so a
/// SIGINT handler may call it directly; the engines observe the flag at
/// their metering points and abort with StatusCode::kCancelled.
///
/// The token outlives individual queries: Reset() rearms it so the same
/// engine instance can serve fresh queries after a cancellation.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-engine resource governor for one top-level query: a wall-clock
/// deadline, a memory budget, and an external CancellationToken, checked
/// at the same metering points that enforce max_steps (each engine's
/// CheckLimits). PSPACE-hard hypothetical queries cannot be bounded by
/// analysis, so the bound is imposed at runtime.
///
/// Life cycle: an engine owns one QueryGuard and Arms it at each public
/// entry point (engine.h's GuardScope). When no limit is configured the
/// guard stays unarmed and the per-check cost is a single predictable
/// branch on a plain bool (the ≤2% overhead budget on ungoverned
/// queries). The guard is used by its engine's thread only; the token is
/// the one part another thread touches.
///
/// First trip wins: the first limit to fire latches its Status, and every
/// later Check returns that same status, a typed error identifying the
/// limit, its configured value, and the observed value at trip time.
class QueryGuard {
 public:
  /// Arms the guard if any of the three limits is configured (0/null mean
  /// "none"). Returns true iff this call armed it; returns false without
  /// touching state when already armed (re-entrant public entry), so the
  /// outer scope stays the owner.
  bool Arm(int64_t timeout_micros, int64_t max_memory_bytes,
           std::shared_ptr<CancellationToken> cancel);

  void Disarm();

  bool armed() const { return armed_; }

  /// True when the caller should pass a current memory figure to Check
  /// (i.e. a byte budget is configured). Lets engines skip computing
  /// memory usage when only time/cancel limits are set.
  bool wants_memory() const { return armed_ && max_memory_bytes_ > 0; }

  /// The metering-point check. `memory_bytes` is the engine's current
  /// approximate footprint, or -1 when not tracked for this call. Returns
  /// OK, or the (latched) typed trip status.
  Status Check(int64_t memory_bytes);

  /// Largest memory_bytes value any Check observed since arming.
  int64_t bytes_peak() const { return bytes_peak_; }

  /// Microseconds until the deadline (negative once past it); 0 when no
  /// deadline is configured.
  int64_t micros_remaining() const;

  /// True iff the guard tripped and the tripping limit was cancellation.
  bool tripped_cancelled() const {
    return tripped_ && trip_status_.code() == StatusCode::kCancelled;
  }

 private:
  /// Latches `s` as the trip status and returns it.
  Status Trip(Status s);

  bool armed_ = false;
  int64_t timeout_micros_ = 0;
  int64_t max_memory_bytes_ = 0;
  std::shared_ptr<CancellationToken> cancel_;
  std::chrono::steady_clock::time_point deadline_{};

  int64_t bytes_peak_ = 0;
  bool tripped_ = false;
  Status trip_status_;
};

}  // namespace hypo

#endif  // HYPO_BASE_QUERY_GUARD_H_
