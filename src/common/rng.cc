#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace gs {
namespace {

// FNV-1a, used only to mix split tags into seeds.
std::uint64_t HashTag(std::string_view tag) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// std::mt19937_64's parameters besides n = kStateWords: the middle word
// m, the upper/lower split at bit r = 31, and the twist matrix a.
constexpr std::size_t kMiddle = 156;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kTwist = 0xb5026f5aa96619e9ull;

// One twist step: the upper bit of `hi` joined with the lower bits of
// `lo`, shifted and conditionally XORed with the twist matrix without a
// branch, then XORed into `far` (the word m positions ahead).
inline std::uint64_t Twist(std::uint64_t hi, std::uint64_t lo,
                           std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ (-(y & 1) & kTwist);
}

}  // namespace

Mt64::Mt64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
  next_ = kStateWords;
}

void Mt64::Regenerate() {
  constexpr std::size_t n = kStateWords;
  std::size_t k = 0;
  for (; k < n - kMiddle; ++k) {
    state_[k] = Twist(state_[k], state_[k + 1], state_[k + kMiddle]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = Twist(state_[k], state_[k + 1], state_[k + kMiddle - n]);
  }
  state_[n - 1] = Twist(state_[n - 1], state_[0], state_[kMiddle - 1]);
  next_ = 0;
}

Rng Rng::Split(std::string_view tag) { return Split(HashTag(tag)); }

Rng Rng::Split(std::uint64_t salt) {
  // Draw a fresh state from this engine and mix in the salt; splitmix-style
  // finalizer avoids correlated children.
  std::uint64_t z = engine_() ^ (salt + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return Rng(z);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::Normal(double mean, double stddev) {
  GS_CHECK(stddev > 0);
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::Exponential(double mean) {
  GS_CHECK(mean > 0);
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  std::bernoulli_distribution d(p);
  return d(engine_);
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  GS_CHECK(n > 0);
  cdf_.resize(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = sum;
  }
  for (double& v : cdf_) v /= sum;
  guide_.resize(n);
  std::size_t i = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(n);
    while (i + 1 < n && cdf_[i] < edge) ++i;
    guide_[j] = i;
  }
}

std::size_t ZipfSampler::IndexOf(double u) const {
  const std::size_t n = cdf_.size();
  // floor(u*n) may round up past u's bucket, so the walk goes both ways:
  // back while the previous entry is still >= u, then forward while the
  // current one is < u — exactly lower_bound's first entry >= u.
  std::size_t i = guide_[std::min(static_cast<std::size_t>(u * n), n - 1)];
  while (i > 0 && cdf_[i - 1] >= u) --i;
  while (i < n && cdf_[i] < u) ++i;
  return i == n ? n - 1 : i;
}

}  // namespace gs
