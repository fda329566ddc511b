// Seeded random number generation.
//
// Every stochastic component of the simulator draws from an Rng derived from
// the run seed via Split(), so that (a) two runs with the same seed are
// bit-identical and (b) adding draws in one component does not perturb the
// stream seen by another.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace gs {

// MT19937-64 with the same outputs as std::mt19937_64 for the same seed:
// the same seeding recurrence, twist and tempering constants. It differs
// only in how the state block is regenerated — all 312 words at once with
// a branch-free twist step (docs/PERF.md §10). It is a
// UniformRandomBitGenerator with std::mt19937_64's min() and max(), so the
// std distributions consume it exactly as they consume std::mt19937_64.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kStateWords) Regenerate();
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateWords = 312;

  // Twists the whole state block and rewinds the output cursor.
  void Regenerate();

  std::array<result_type, kStateWords> state_;
  std::size_t next_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Derives an independent child generator. The tag keeps child streams
  // stable as unrelated call sites are added or removed.
  Rng Split(std::string_view tag);
  Rng Split(std::uint64_t salt);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    GS_CHECK(lo <= hi);
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // Normally distributed; `stddev` must be > 0 (scale a unit draw for a
  // spread that may be zero).
  double Normal(double mean, double stddev);

  // Exponentially distributed with the given mean.
  double Exponential(double mean);

  // True with probability p.
  bool Bernoulli(double p);

  // Fisher-Yates shuffle of indices [0, n).
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  Mt64 engine_;
};

// Samples from a Zipf distribution over {0, ..., n-1} with exponent s.
// Used for word frequencies (WordCount) and web-graph degrees (PageRank).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t Sample(Rng& rng) const {
    return IndexOf(rng.Uniform(0.0, 1.0));
  }

  // The index std::lower_bound over the CDF finds for `u` in [0, 1), or
  // n-1 if u lies past the last CDF value. A Chen–Asau guide table starts
  // the search near the answer.
  std::size_t IndexOf(double u) const;

  std::size_t size() const { return cdf_.size(); }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;  // normalized cumulative probabilities
  // guide_[j] is the lower_bound index of j/n: n equal-width buckets over
  // [0, 1), so a search walks about one CDF entry on average.
  std::vector<std::size_t> guide_;
};

}  // namespace gs
