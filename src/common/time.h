// Strong time types for the simulated Tiger world.
//
// All simulation time is expressed in integer microseconds. Integer ticks keep
// schedule arithmetic exact: the Tiger schedule requires that slot boundaries,
// block play times and block service times compose without floating-point
// drift over multi-hour simulated runs.

#ifndef SRC_COMMON_TIME_H_
#define SRC_COMMON_TIME_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace tiger {

// A span of simulated time. May be negative (useful for lead/lag arithmetic).
class Duration {
 public:
  constexpr Duration() : micros_(0) {}

  static constexpr Duration Micros(int64_t us) { return Duration(us); }
  static constexpr Duration Millis(int64_t ms) { return Duration(ms * 1000); }
  static constexpr Duration Seconds(int64_t s) { return Duration(s * 1000000); }
  static constexpr Duration Zero() { return Duration(0); }
  static constexpr Duration Max() { return Duration(INT64_MAX); }

  constexpr int64_t micros() const { return micros_; }
  constexpr int64_t millis() const { return micros_ / 1000; }
  constexpr double seconds() const { return static_cast<double>(micros_) / 1e6; }

  constexpr Duration operator+(Duration o) const { return Duration(micros_ + o.micros_); }
  constexpr Duration operator-(Duration o) const { return Duration(micros_ - o.micros_); }
  constexpr Duration operator-() const { return Duration(-micros_); }
  constexpr Duration operator*(int64_t k) const { return Duration(micros_ * k); }
  constexpr Duration operator/(int64_t k) const { return Duration(micros_ / k); }
  // Ratio of two durations; exact when divisible.
  constexpr int64_t operator/(Duration o) const { return micros_ / o.micros_; }
  constexpr Duration operator%(Duration o) const { return Duration(micros_ % o.micros_); }

  Duration& operator+=(Duration o) {
    micros_ += o.micros_;
    return *this;
  }
  Duration& operator-=(Duration o) {
    micros_ -= o.micros_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t us) : micros_(us) {}
  int64_t micros_;
};

// An instant in simulated time, measured from simulation start.
class TimePoint {
 public:
  constexpr TimePoint() : micros_(0) {}

  static constexpr TimePoint FromMicros(int64_t us) { return TimePoint(us); }
  static constexpr TimePoint Zero() { return TimePoint(0); }
  static constexpr TimePoint Max() { return TimePoint(INT64_MAX); }

  constexpr int64_t micros() const { return micros_; }
  constexpr double seconds() const { return static_cast<double>(micros_) / 1e6; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint(micros_ + d.micros()); }
  constexpr TimePoint operator-(Duration d) const { return TimePoint(micros_ - d.micros()); }
  constexpr Duration operator-(TimePoint o) const { return Duration::Micros(micros_ - o.micros_); }

  TimePoint& operator+=(Duration d) {
    micros_ += d.micros();
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

  std::string ToString() const;

 private:
  explicit constexpr TimePoint(int64_t us) : micros_(us) {}
  int64_t micros_;
};

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);

}  // namespace tiger

#endif  // SRC_COMMON_TIME_H_
