// The monotonic clock every timer in librq reads.
#ifndef RQ_COMMON_CLOCK_H_
#define RQ_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace rq {

// Nanoseconds on std::chrono::steady_clock since its (arbitrary) epoch.
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace rq

#endif  // RQ_COMMON_CLOCK_H_
