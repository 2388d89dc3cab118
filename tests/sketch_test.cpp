// Tests for the sketch module: HyperLogLog error bounds, merge algebra and
// sparse-vs-dense bit equality, P^2 quantile estimation accuracy, exact
// median.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::sketch {
namespace {

class HllCardinalityTest : public ::testing::TestWithParam<int> {};

TEST_P(HllCardinalityTest, EstimateWithinExpectedError) {
  const int n = GetParam();
  HyperLogLog hll(12);  // ~1.6% standard error
  for (int i = 0; i < n; ++i) hll.AddInt(static_cast<uint64_t>(i) * 2654435761);
  const double est = hll.Estimate();
  // Allow 5 standard errors plus small-n slack.
  const double tol = std::max(2.0, 5 * 0.0163 * n);
  EXPECT_NEAR(est, n, tol) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllCardinalityTest,
                         ::testing::Values(1, 10, 100, 1000, 10000, 100000));

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) hll.AddInt(i);
  }
  EXPECT_NEAR(hll.Estimate(), 100, 10);
}

TEST(HllTest, StringsAndIntsHashIndependently) {
  HyperLogLog hll(12);
  for (int i = 0; i < 500; ++i) hll.AddString("vessel-" + std::to_string(i));
  EXPECT_NEAR(hll.Estimate(), 500, 50);
}

TEST(HllTest, EmptySketchEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_NEAR(hll.Estimate(), 0, 1e-9);
}

TEST(HllTest, MergeIsUnion) {
  HyperLogLog a(12), b(12);
  for (int i = 0; i < 1000; ++i) a.AddInt(i);
  for (int i = 500; i < 1500; ++i) b.AddInt(i);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_NEAR(a.Estimate(), 1500, 120);
}

TEST(HllTest, MergeRejectsMismatchedPrecision) {
  HyperLogLog a(12), b(10);
  EXPECT_FALSE(a.Merge(b));
}

TEST(HllTest, PrecisionClampedIntoRange) {
  EXPECT_EQ(HyperLogLog(1).precision(), 4);
  EXPECT_EQ(HyperLogLog(30).precision(), 18);
  EXPECT_EQ(HyperLogLog(12).SizeBytes(), 4096u);
}

// EstimateSparse must reproduce the dense register loop bit for bit.
void ExpectSparseMatchesDense(const std::vector<uint64_t>& hashes,
                              int precision) {
  HyperLogLog dense(precision);
  for (const uint64_t h : hashes) dense.AddHash(h);
  std::vector<uint64_t> scratch = hashes;
  EXPECT_EQ(std::bit_cast<uint64_t>(
                HyperLogLog::EstimateSparse(scratch, precision)),
            std::bit_cast<uint64_t>(dense.Estimate()))
      << "p=" << precision << " n=" << hashes.size();
}

TEST(HllSparseTest, MatchesDenseOnRandomSets) {
  Rng rng(19);
  // 2 and 20 are clamped into [4, 18] on both paths.
  for (int p = 2; p <= 20; ++p) {
    for (const int n : {0, 1, 7, 100, 1000, 5000, 20000}) {
      // Keys drawn from [0, n] repeat, as vessel ids do across reports.
      std::vector<uint64_t> hashes;
      for (int i = 0; i < n; ++i) {
        hashes.push_back(HyperLogLog::Hash64(
            static_cast<uint64_t>(rng.UniformInt(0, n))));
      }
      ExpectSparseMatchesDense(hashes, p);
    }
  }
}

TEST(HllSparseTest, MatchesDenseWhenHighRanksForceTheDenseFallback) {
  // Registers 0..7 hold `rank`, the last m/8 stay empty and the rest hold 3,
  // so the raw (not linear-counting) estimate applies. The dense loop sums
  // the eight 2^-rank terms first, while they are still exact; a sum that
  // started from the m/8 empty registers would round each away once
  // rank >= 56 - p. Ranks run across the exactness bound to the maximum,
  // 65 - p (an all-zero tail).
  for (int p = 4; p <= 18; ++p) {
    const uint64_t m = uint64_t{1} << p;
    const auto with_rank = [p](uint64_t index, int rank) {
      const uint64_t head = index << (64 - p);
      return rank > 64 - p ? head : head | (uint64_t{1} << (64 - p - rank));
    };
    for (int rank = 50 - p; rank <= 65 - p; ++rank) {
      std::vector<uint64_t> hashes;
      for (uint64_t i = 0; i < m - m / 8; ++i) {
        hashes.push_back(with_rank(i, i < 8 ? rank : 3));
      }
      ExpectSparseMatchesDense(hashes, p);
    }
  }
}

TEST(ExactMedianTest, OddAndEvenCounts) {
  ExactMedian med;
  for (double v : {5.0, 1.0, 3.0}) med.Add(v);
  EXPECT_DOUBLE_EQ(med.Median(), 3.0);
  med.Add(7.0);
  EXPECT_DOUBLE_EQ(med.Median(), 4.0);  // (3+5)/2
}

TEST(ExactMedianTest, EmptyIsNaN) {
  ExactMedian med;
  EXPECT_TRUE(std::isnan(med.Median()));
}

class P2QuantileTest : public ::testing::TestWithParam<double> {};

TEST_P(P2QuantileTest, TracksUniformDistribution) {
  const double q = GetParam();
  P2Quantile est(q);
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Uniform(0.0, 100.0);
    est.Add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
  EXPECT_NEAR(est.Estimate(), exact, 2.0) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2QuantileTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(P2QuantileTest, GaussianMedian) {
  P2Quantile est(0.5);
  Rng rng(8);
  for (int i = 0; i < 50000; ++i) est.Add(rng.Gaussian(42.0, 5.0));
  EXPECT_NEAR(est.Estimate(), 42.0, 0.5);
}

TEST(P2QuantileTest, SmallSamplesAreExact) {
  P2Quantile est(0.5);
  est.Add(10);
  EXPECT_DOUBLE_EQ(est.Estimate(), 10);
  est.Add(20);
  EXPECT_NEAR(est.Estimate(), 15, 1e-9);
  P2Quantile empty(0.5);
  EXPECT_TRUE(std::isnan(empty.Estimate()));
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
  Rng c(124);
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.Uniform(0, 1) != c.Uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const int64_t k = rng.UniformInt(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
    EXPECT_GE(rng.Exponential(0.5), 0.0);
  }
}

}  // namespace
}  // namespace habit::sketch
