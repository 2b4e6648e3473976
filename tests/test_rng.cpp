#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace pet::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_int(n), n);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
}

// The rejection rule uniform_int had before it skipped the threshold
// division for draws r >= n: accept r >= 2^64 mod n, return r % n.
std::uint64_t uniform_int_two_divisions(Rng& rng, std::uint64_t n) {
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = rng();
    if (r >= threshold) return r % n;
  }
}

TEST(Rng, UniformIntMatchesTwoDivisionRule) {
  std::vector<std::uint64_t> ns = {1, 2, 3, 5, 7, 1000, 65'536, 65'537};
  for (int k = 0; k < 64; ++k) ns.push_back(std::uint64_t{1} << k);
  const std::uint64_t top = std::uint64_t{1} << 63;
  // 2^63 + 1 rejects about half of all draws; near 2^64 - 1 almost every
  // draw is below n and takes the threshold division.
  for (const std::uint64_t n : {top - 1, top, top + 1, top + 3, ~std::uint64_t{0},
                                ~std::uint64_t{0} - 1}) {
    ns.push_back(n);
  }
  Rng pick(99);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t shift = pick() % 64;
    ns.push_back(1 + (pick() >> shift));
  }
  for (const std::uint64_t n : ns) {
    Rng now(n ^ 0x5eed);
    Rng before(n ^ 0x5eed);
    for (int d = 0; d < 500; ++d) {
      ASSERT_EQ(now.uniform_int(n), uniform_int_two_divisions(before, n))
          << "n=" << n << " draw " << d;
    }
    // Both consumed the same raw draws.
    ASSERT_EQ(now(), before()) << "n=" << n;
  }
}

TEST(Rng, UniformMeanCloseToHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(19);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0, sq = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(DeriveSeed, DistinctStreams) {
  const std::uint64_t parent = 123;
  EXPECT_NE(derive_seed(parent, "a"), derive_seed(parent, "b"));
  EXPECT_NE(derive_seed(parent, "a"), derive_seed(parent + 1, "a"));
  EXPECT_EQ(derive_seed(parent, "x"), derive_seed(parent, "x"));
}

TEST(Rng, ReseedResets) {
  Rng rng(5);
  const auto first = rng();
  rng.reseed(5);
  EXPECT_EQ(rng(), first);
}

}  // namespace
}  // namespace pet::sim
