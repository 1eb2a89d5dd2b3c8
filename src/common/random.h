#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ssum {

namespace random_internal {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace random_internal

/// Deterministic 64-bit PRNG (xoshiro256** core with splitmix64 seeding).
///
/// Every stochastic component in the library (data generators, workload
/// samplers, simulated expert panels) takes an explicit `Rng` so that
/// experiments are exactly reproducible from a seed.
///
/// The draws the dataset generators make per node (Next, NextDouble,
/// NextBool, Fork and seeding) are defined inline: the generators stream
/// millions of nodes, and an out-of-line call per draw cost more than the
/// draw itself.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL) {
    uint64_t sm = seed;
    for (auto& s : s_) s = random_internal::SplitMix64(&sm);
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    using random_internal::Rotl;
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability `p` of true.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Poisson-ish integer draw with the given mean, clamped to >= 0.
  /// Uses inversion for small means and a normal approximation for large
  /// means; exactness is unnecessary for workload synthesis, determinism is.
  uint64_t NextPoisson(double mean);

  /// Zipf-distributed value in [0, n) with exponent `s` (s > 0). Values near
  /// zero are most likely. Uses a precomputed CDF supplied by ZipfTable.
  /// (Free-standing helper class below keeps Rng allocation-free.)

  /// Samples an index from unnormalized non-negative weights. Returns
  /// weights.size() when the total weight is zero.
  size_t NextWeighted(const std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derives an independent child generator (stable under call order).
  Rng Fork(uint64_t stream_id) {
    // Mix the child stream id into fresh state derived from this generator.
    return Rng(Next() ^ (stream_id * 0x9e3779b97f4a7c15ULL));
  }

 private:
  uint64_t s_[4];
};

/// Precomputed Zipf CDF over [0, n) with exponent s.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s);

  /// Draws one value using the supplied generator.
  size_t Sample(Rng* rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace ssum
