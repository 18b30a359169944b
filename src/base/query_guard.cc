#include "base/query_guard.h"

#include <algorithm>
#include <utility>

namespace hypo {

bool QueryGuard::Arm(int64_t timeout_micros, int64_t max_memory_bytes,
                     std::shared_ptr<CancellationToken> cancel) {
  if (armed_) return false;
  if (timeout_micros <= 0 && max_memory_bytes <= 0 && cancel == nullptr) {
    return false;  // Nothing to govern; stay on the unarmed fast path.
  }
  timeout_micros_ = timeout_micros > 0 ? timeout_micros : 0;
  max_memory_bytes_ = max_memory_bytes > 0 ? max_memory_bytes : 0;
  cancel_ = std::move(cancel);
  if (timeout_micros_ > 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(timeout_micros_);
  }
  bytes_peak_ = 0;
  tripped_ = false;
  trip_status_ = Status::OK();
  armed_ = true;
  return true;
}

void QueryGuard::Disarm() {
  armed_ = false;
  cancel_.reset();
}

Status QueryGuard::Check(int64_t memory_bytes) {
  if (!armed_) return Status::OK();
  if (tripped_) return trip_status_;
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Trip(Status::Cancelled(
        "query cancelled: CancellationToken set before completion"));
  }
  if (max_memory_bytes_ > 0 && memory_bytes >= 0) {
    bytes_peak_ = std::max(bytes_peak_, memory_bytes);
    if (memory_bytes > max_memory_bytes_) {
      return Trip(Status::ResourceExhausted(LimitTripMessage(
          "max_memory_bytes", max_memory_bytes_, memory_bytes)));
    }
  }
  if (timeout_micros_ > 0) {
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline_) {
      int64_t elapsed =
          timeout_micros_ +
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                deadline_)
              .count();
      return Trip(Status::DeadlineExceeded(
          LimitTripMessage("timeout_micros", timeout_micros_, elapsed)));
    }
  }
  return Status::OK();
}

int64_t QueryGuard::micros_remaining() const {
  if (timeout_micros_ == 0) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             deadline_ - std::chrono::steady_clock::now())
      .count();
}

Status QueryGuard::Trip(Status s) {
  trip_status_ = std::move(s);
  tripped_ = true;
  return trip_status_;
}

}  // namespace hypo
