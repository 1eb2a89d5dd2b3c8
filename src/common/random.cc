#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace ssum {

uint64_t Rng::NextBounded(uint64_t bound) {
  SSUM_CHECK(bound > 0, "NextBounded requires bound > 0");
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  SSUM_CHECK(lo <= hi, "NextInRange requires lo <= hi");
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

namespace {

/// exp(-mean), remembered per thread for the last few means. The generators
/// draw from a handful of fixed means millions of times, and the exp call
/// cost more than the draws; the value returned is the same std::exp
/// result, so every draw is unchanged.
double ExpOfMinus(double mean) {
  struct Slot {
    double mean = -1.0;  // never a valid key: callers pass mean > 0
    double value = 0.0;
  };
  static thread_local Slot slots[64];
  uint64_t bits;
  std::memcpy(&bits, &mean, sizeof(bits));
  Slot& slot = slots[(bits * 0x9e3779b97f4a7c15ULL) >> 58];
  if (slot.mean != mean) {
    slot.mean = mean;
    slot.value = std::exp(-mean);
  }
  return slot.value;
}

}  // namespace

uint64_t Rng::NextPoisson(double mean) {
  if (mean <= 0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    double l = ExpOfMinus(mean);
    uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0) u1 = 1e-12;
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  double v = mean + std::sqrt(mean) * z + 0.5;
  return v < 0 ? 0 : static_cast<uint64_t>(v);
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += std::max(0.0, w);
  if (total <= 0) return weights.size();
  double r = NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += std::max(0.0, weights[i]);
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

ZipfTable::ZipfTable(size_t n, double s) {
  SSUM_CHECK(n > 0, "ZipfTable requires n > 0");
  cdf_.resize(n);
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& v : cdf_) v /= acc;
}

size_t ZipfTable::Sample(Rng* rng) const {
  double r = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace ssum
