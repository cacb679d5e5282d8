#include "tensor/rng.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace e2gcl {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.Uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformIntCoversDomain) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  for (std::int64_t v : seen) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0f));
    EXPECT_TRUE(rng.Bernoulli(1.0f));
    EXPECT_FALSE(rng.Bernoulli(-0.5f));
    EXPECT_TRUE(rng.Bernoulli(1.5f));
  }
}

TEST(Rng, BernoulliRoughRate) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3f)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float x = rng.Normal(2.0f, 3.0f);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Rng rng(12);
  for (std::int64_t n : {5, 50, 500}) {
    for (std::int64_t k : {std::int64_t{0}, std::int64_t{1}, n / 2, n}) {
      auto s = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(static_cast<std::int64_t>(s.size()), k);
      std::set<std::int64_t> uniq(s.begin(), s.end());
      EXPECT_EQ(static_cast<std::int64_t>(uniq.size()), k);
      for (std::int64_t v : s) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, n);
      }
    }
  }
}

TEST(SampleWithoutReplacement, RoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int t = 0; t < 3000; ++t) {
    for (std::int64_t v : rng.SampleWithoutReplacement(10, 3)) ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 900, 150);
}

TEST(WeightedSample, ZeroWeightNeverPicked) {
  Rng rng(14);
  std::vector<float> w = {1.0f, 0.0f, 1.0f, 0.0f};
  for (int t = 0; t < 100; ++t) {
    for (std::int64_t v : rng.WeightedSampleWithoutReplacement(w, 2)) {
      EXPECT_TRUE(v == 0 || v == 2);
    }
  }
}

TEST(WeightedSample, AllZeroFallsBackToUniform) {
  Rng rng(15);
  std::vector<float> w = {0.0f, 0.0f, 0.0f};
  auto s = rng.WeightedSampleWithoutReplacement(w, 2);
  EXPECT_EQ(s.size(), 2u);
}

TEST(WeightedSample, HeavyWeightDominates) {
  Rng rng(16);
  std::vector<float> w = {100.0f, 1.0f, 1.0f};
  int first = 0;
  for (int t = 0; t < 500; ++t) {
    auto s = rng.WeightedSampleWithoutReplacement(w, 1);
    ASSERT_EQ(s.size(), 1u);
    if (s[0] == 0) ++first;
  }
  EXPECT_GT(first, 450);
}

TEST(WeightedSample, RequestMoreThanPositiveEntries) {
  Rng rng(17);
  std::vector<float> w = {1.0f, 0.0f, 2.0f};
  auto s = rng.WeightedSampleWithoutReplacement(w, 3);
  EXPECT_EQ(s.size(), 2u);  // Only two positive-weight entries exist.
}

TEST(WeightedSample, ScratchOverloadMatchesAllocatingDraws) {
  // Same seed, same calls: the scratch-filling overload must return the
  // allocating form's indices and leave the stream at the same draw,
  // with scratch reused (and left dirty) across calls.
  Rng a(20), b(20), gen(21);
  std::vector<std::pair<float, std::int64_t>> keys;
  std::vector<std::int64_t> out = {99, 98};
  for (int t = 0; t < 200; ++t) {
    const std::int64_t n = gen.UniformInt(40);
    std::vector<float> w(n);
    const int kind = t % 4;
    for (float& x : w) {
      if (kind == 0) x = gen.Uniform(0.0f, 5.0f);  // random weights
      if (kind == 1) x = 0.0f;                     // uniform fallback
      if (kind == 2) x = gen.Bernoulli(0.3f) ? gen.Uniform() + 0.1f : 0.0f;
      if (kind == 3) x = 1.0f;
    }
    // kind 2 often has fewer positive entries than k.
    const std::int64_t k = gen.UniformInt(n + 3) - 1;
    const std::vector<std::int64_t> want =
        a.WeightedSampleWithoutReplacement(w, k);
    b.WeightedSampleWithoutReplacement(w, k, &keys, &out);
    ASSERT_EQ(out, want) << "trial " << t;
  }
  EXPECT_EQ(a.UniformInt(1 << 30), b.UniformInt(1 << 30));
}

TEST(Shuffle, IsPermutation) {
  Rng rng(18);
  std::vector<std::int64_t> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Fork, ChildIndependentOfFurtherParentUse) {
  Rng parent(19);
  Rng child = parent.Fork();
  const float c1 = child.Uniform();
  Rng parent2(19);
  Rng child2 = parent2.Fork();
  parent2.Uniform();  // Using the parent afterwards must not change child2.
  EXPECT_EQ(child2.Uniform(), c1);
}

}  // namespace
}  // namespace e2gcl
