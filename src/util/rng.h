// Deterministic pseudo-random number generation for AFEX.
//
// Every stochastic component in the library (explorers, workload generators,
// simulated targets) draws from its own Rng seeded explicitly, so whole
// exploration sessions replay bit-for-bit given the same seed. We use
// xoshiro256** (Blackman & Vigna) with SplitMix64 seeding: fast, good
// statistical quality, and trivially portable — no dependence on libstdc++'s
// unspecified std::*_distribution algorithms.
#ifndef AFEX_UTIL_RNG_H_
#define AFEX_UTIL_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

namespace afex {

// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can also
// feed <random> adapters if ever needed, but all library code uses the
// explicit helpers below for cross-platform determinism.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return Next(); }

  // Next raw 64-bit output.
  uint64_t Next();

  // Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  // multiply-shift rejection method (unbiased).
  uint64_t NextBelow(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Standard normal deviate (Marsaglia polar method).
  double NextGaussian();

  // True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  // Index sampled proportionally to the given non-negative weights.
  // If all weights are zero (or the span is empty is a precondition
  // violation), falls back to uniform.
  size_t SampleWeighted(std::span<const double> weights);

  // Fisher-Yates shuffle of v.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBelow(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derive an independent child stream; used to give each component
  // (explorer, target, node manager) its own stream from one session seed.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace afex

#endif  // AFEX_UTIL_RNG_H_
