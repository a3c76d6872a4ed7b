// Time helpers shared by the runtime, the cost models, and the benches.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace hamr {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;
using Duration = std::chrono::nanoseconds;

inline TimePoint now() { return SteadyClock::now(); }

inline double to_seconds(Duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

inline Duration from_seconds(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

inline Duration micros(int64_t us) { return std::chrono::microseconds(us); }
inline Duration millis(int64_t ms) { return std::chrono::milliseconds(ms); }

// Formats a duration as e.g. "1.234s" / "56.7ms" / "890us".
std::string format_duration(Duration d);

// Wall-clock stopwatch. Starts running at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(now()) {}

  void reset() { start_ = now(); }
  Duration elapsed() const { return now() - start_; }
  double elapsed_seconds() const { return to_seconds(elapsed()); }

 private:
  TimePoint start_;
};

}  // namespace hamr
