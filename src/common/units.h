// Byte-size and bitrate helpers.
//
// Bitrates are plain int64 bits/second; a wrapper type buys little because
// bitrates mix freely with byte counts and durations in the schedule math.

#ifndef SRC_COMMON_UNITS_H_
#define SRC_COMMON_UNITS_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/time.h"

namespace tiger {

constexpr int64_t kKilobyte = 1024;
constexpr int64_t kMegabyte = 1024 * 1024;
constexpr int64_t kGigabyte = 1024 * 1024 * 1024;

constexpr int64_t Megabits(int64_t v) { return v * 1000 * 1000; }

// Time to move `bytes` at `bits_per_second`, rounded up to a whole microsecond.
inline Duration TransferTime(int64_t bytes, int64_t bits_per_second) {
  TIGER_DCHECK(bits_per_second > 0);
  // micros = bytes * 8 * 1e6 / bps, rounded up.
  const __int128 numerator = static_cast<__int128>(bytes) * 8 * 1000000 + bits_per_second - 1;
  return Duration::Micros(static_cast<int64_t>(numerator / bits_per_second));
}

// Bytes played in `d` at `bits_per_second` (rounded down to whole bytes).
inline int64_t BytesForDuration(Duration d, int64_t bits_per_second) {
  const __int128 bits = static_cast<__int128>(d.micros()) * bits_per_second / 1000000;
  return static_cast<int64_t>(bits / 8);
}

}  // namespace tiger

#endif  // SRC_COMMON_UNITS_H_
