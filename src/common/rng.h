// Deterministic random number generation.
//
// Every source of randomness in a Tiger simulation (disk performance jitter,
// network jitter, client file selection, request arrival times) draws from an
// explicitly seeded Rng so that entire experiments replay bit-for-bit.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"

namespace tiger {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    TIGER_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  // Uniform duration in [lo, hi].
  Duration UniformDuration(Duration lo, Duration hi) {
    return Duration::Micros(UniformInt(lo.micros(), hi.micros()));
  }

  // Picks a uniformly random element index of a non-empty container size.
  size_t PickIndex(size_t size) {
    TIGER_DCHECK(size > 0);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(size) - 1));
  }

  // Derives an independent child generator; used to give each actor its own
  // stream so that adding randomness to one actor does not perturb others.
  Rng Fork() { return Rng(engine_()); }

  uint64_t NextRaw() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace tiger

#endif  // SRC_COMMON_RNG_H_
