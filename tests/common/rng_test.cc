#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string_view>

#include "common/check.h"

namespace gs {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitProducesIndependentChildren) {
  Rng root(7);
  Rng a = root.Split("alpha");
  Rng b = root.Split("beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitIsDeterministicGivenSeedAndOrder) {
  auto draw = [] {
    Rng root(99);
    Rng child = root.Split("tag");
    return child.UniformInt(0, 1 << 30);
  };
  EXPECT_EQ(draw(), draw());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformRealBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(10);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

// std::normal_distribution requires stddev > 0; a zero spread must fail
// loudly rather than reach the library's precondition.
TEST(RngTest, NormalRejectsNonPositiveStddev) {
  Rng rng(10);
  EXPECT_THROW(rng.Normal(0.0, 0.0), CheckFailure);
  EXPECT_THROW(rng.Normal(0.0, -1.0), CheckFailure);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.Shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

// --- Stream identity with std::mt19937_64 --------------------------------
//
// Every golden RunReport and input was produced by Rng over
// std::mt19937_64. Mt64 must emit the same words and be consumed the same
// way by the std distributions, so every stream below is compared with one
// driven by std::mt19937_64.

constexpr std::uint64_t kStreamSeeds[] = {0, 1, 42,
                                          (std::uint64_t{1} << 63) + 5};
constexpr int kStreamDraws = 4 * 312 + 7;  // four blocks and a partial one

// Rng as it was over std::mt19937_64: the oracle for Rng's own streams.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}

  StdRng Split(std::string_view tag) {
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : tag) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return Split(h);
  }
  StdRng Split(std::uint64_t salt) {
    std::uint64_t z = engine_() ^ (salt + 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return StdRng(z ^ (z >> 31));
  }
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(UniformInt(0, i - 1))]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

TEST(Mt64Test, MatchesStdMt19937_64Words) {
  static_assert(Mt64::min() == std::mt19937_64::min());
  static_assert(Mt64::max() == std::mt19937_64::max());
  for (std::uint64_t seed : kStreamSeeds) {
    Mt64 ours(seed);
    std::mt19937_64 theirs(seed);
    for (int i = 0; i < kStreamDraws; ++i) {
      ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
    }
  }
}

// Runs copies of one std distribution over Mt64 and std::mt19937_64.
template <typename Dist>
void ExpectSameDraws(const Dist& dist, const char* what) {
  for (std::uint64_t seed : kStreamSeeds) {
    Mt64 ours(seed);
    std::mt19937_64 theirs(seed);
    Dist a = dist, b = dist;
    for (int i = 0; i < kStreamDraws; ++i) {
      ASSERT_EQ(a(ours), b(theirs))
          << what << ", seed " << seed << ", draw " << i;
    }
    // Same number of engine words consumed.
    ASSERT_EQ(ours(), theirs()) << what << ", seed " << seed;
  }
}

TEST(Mt64Test, StdDistributionsDrawTheSameStreams) {
  for (std::int64_t range : {std::int64_t{1}, std::int64_t{2},
                             std::int64_t{16}, std::int64_t{64},
                             std::int64_t{95}, std::int64_t{1000},
                             (std::int64_t{1} << 40) + 3}) {
    ExpectSameDraws(std::uniform_int_distribution<std::int64_t>(0, range - 1),
                    "uniform_int");
  }
  ExpectSameDraws(std::uniform_int_distribution<std::int64_t>(
                      std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max()),
                  "uniform_int full range");
  ExpectSameDraws(std::uniform_real_distribution<double>(0.0, 1.0),
                  "uniform_real");
  ExpectSameDraws(std::normal_distribution<double>(5.0, 2.0), "normal");
  ExpectSameDraws(std::exponential_distribution<double>(1.0 / 3.0),
                  "exponential");
  ExpectSameDraws(std::bernoulli_distribution(0.3), "bernoulli");
}

TEST(Mt64Test, RngStreamsMatchTheStdEngineRng) {
  for (std::uint64_t seed : kStreamSeeds) {
    Rng ours(seed);
    StdRng theirs(seed);
    for (int i = 0; i < kStreamDraws; ++i) {
      ASSERT_EQ(ours.UniformInt(0, 63), theirs.UniformInt(0, 63));
      ASSERT_EQ(ours.UniformInt(-7, (std::int64_t{1} << 40) + 2),
                theirs.UniformInt(-7, (std::int64_t{1} << 40) + 2));
      ASSERT_EQ(ours.Uniform(0.0, 1.0), theirs.Uniform(0.0, 1.0));
      ASSERT_EQ(ours.Normal(1.0, 0.5), theirs.Normal(1.0, 0.5));
      ASSERT_EQ(ours.Exponential(3.0), theirs.Exponential(3.0));
      ASSERT_EQ(ours.Bernoulli(0.3), theirs.Bernoulli(0.3));
    }
    std::vector<int> a(1000), b(1000);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    ours.Shuffle(a);
    theirs.Shuffle(b);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(Mt64Test, SplitChildrenMatchTheStdEngineRng) {
  for (std::uint64_t seed : kStreamSeeds) {
    Rng ours(seed);
    StdRng theirs(seed);
    Rng by_tag = ours.Split("terasort");
    StdRng by_tag_ref = theirs.Split("terasort");
    Rng by_salt = ours.Split(std::uint64_t{17});
    StdRng by_salt_ref = theirs.Split(std::uint64_t{17});
    for (int i = 0; i < kStreamDraws; ++i) {
      ASSERT_EQ(by_tag.UniformInt(0, 1 << 30),
                by_tag_ref.UniformInt(0, 1 << 30));
      ASSERT_EQ(by_salt.Uniform(0.0, 1.0), by_salt_ref.Uniform(0.0, 1.0));
    }
    // Grandchildren, and the parents after the splits.
    EXPECT_EQ(by_tag.Split("x").UniformInt(0, 1 << 30),
              by_tag_ref.Split("x").UniformInt(0, 1 << 30));
    EXPECT_EQ(ours.UniformInt(0, 1 << 30), theirs.UniformInt(0, 1 << 30));
  }
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SamplesInRangeAndHeadHeavy) {
  const double exponent = GetParam();
  Rng rng(13);
  ZipfSampler zipf(100, exponent);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    std::size_t s = zipf.Sample(rng);
    ASSERT_LT(s, 100u);
    ++counts[s];
  }
  // Rank 0 must dominate rank 10 and rank 10 dominate rank 90.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.8, 1.0, 1.1, 1.5, 2.0));

TEST(ZipfTest, RatioMatchesLaw) {
  Rng rng(14);
  ZipfSampler zipf(1000, 1.0);
  int c0 = 0, c1 = 0;
  for (int i = 0; i < 100000; ++i) {
    std::size_t s = zipf.Sample(rng);
    if (s == 0) ++c0;
    if (s == 1) ++c1;
  }
  // P(0)/P(1) = 2 for exponent 1.
  EXPECT_NEAR(static_cast<double>(c0) / c1, 2.0, 0.4);
}

// The guide table must return exactly std::lower_bound's index (n-1 past
// the end) for every u, including those on bucket edges and CDF values,
// where floor(u*n) rounding could start the walk on the wrong side.
TEST(ZipfTest, GuideTableMatchesLowerBound) {
  Rng rng(15);
  for (double exponent : {1.1, 1.3}) {
    for (std::size_t n : {1, 2, 64, 800, 5000}) {
      ZipfSampler zipf(n, exponent);
      const std::vector<double>& cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      int mismatches = 0;
      double first_mismatch = 0;
      auto expect_exact = [&](double u) {
        std::size_t want = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        if (want == n) want = n - 1;
        if (zipf.IndexOf(u) != want && mismatches++ == 0) first_mismatch = u;
      };
      auto with_neighbours = [&](double u) {
        for (double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
          if (v >= 0.0 && v < 1.0) expect_exact(v);
        }
      };
      for (int i = 0; i < 1'000'000; ++i) expect_exact(rng.Uniform(0.0, 1.0));
      for (std::size_t j = 0; j < n; ++j) {
        with_neighbours(static_cast<double>(j) / static_cast<double>(n));
      }
      for (double c : cdf) with_neighbours(c);
      expect_exact(0.0);
      expect_exact(std::nextafter(1.0, 0.0));
      EXPECT_EQ(mismatches, 0) << "n " << n << ", s " << exponent
                               << ", first at u = " << first_mismatch;
    }
  }
}

}  // namespace
}  // namespace gs
