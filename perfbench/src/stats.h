// Order statistics and averages used for every reported number.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// closest ranks (the "R-7" / numpy default definition). NaN when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50);
}

/// Geometric mean of positive values. NaN when empty or when any value
/// is not positive (a geomean over a zero is meaningless, not zero).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0;
  for (double x : v) {
    if (!(x > 0)) return std::numeric_limits<double>::quiet_NaN();
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

/// The seeded generator every workload draws from. SplitMix64: tiny,
/// fully specified, identical on every platform and standard library
/// (std::shuffle and the std distributions are not).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n) (n > 0); the modulo bias is irrelevant here.
  uint64_t below(uint64_t n) { return next() % n; }

  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<size_t>(below(i))]);
  }

 private:
  uint64_t state_;
};

}  // namespace perfbench
