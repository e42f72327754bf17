#include "prefs/agg_func.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace prefdb {
namespace {

// ---------------------------------------------------------------------------
// Exact semantics of the paper's two aggregate functions.

TEST(FSumTest, WeightedAverageAndSummedConfidence) {
  FSum f;
  // Paper F_S: score = Σ c_k s_k / Σ c_k, conf = Σ c_k.
  ScoreConf r = f.Combine(ScoreConf::Known(1.0, 0.8), ScoreConf::Known(0.5, 0.2));
  EXPECT_NEAR(r.score(), (0.8 * 1.0 + 0.2 * 0.5) / 1.0, 1e-12);
  EXPECT_NEAR(r.conf(), 1.0, 1e-12);
}

TEST(FSumTest, IdentityPassThrough) {
  FSum f;
  ScoreConf x = ScoreConf::Known(0.7, 0.4);
  EXPECT_EQ(f.Combine(ScoreConf::Identity(), x), x);
  EXPECT_EQ(f.Combine(x, ScoreConf::Identity()), x);
  EXPECT_TRUE(f.Combine(ScoreConf::Identity(), ScoreConf::Identity()).IsDefault());
}

TEST(FSumTest, ZeroConfidenceInputsCombineToIdentity) {
  // Regression for the F_S division by the total confidence: a "known
  // score backed by zero confidence" is unconstructible (Known normalizes
  // it to the identity), and two zero-evidence inputs must combine to the
  // identity rather than to 0/0 = NaN.
  EXPECT_TRUE(ScoreConf::Known(0.7, 0.0).IsDefault());
  EXPECT_TRUE(ScoreConf::Known(0.7, -1.0).IsDefault());
  FSum f;
  ScoreConf r =
      f.Combine(ScoreConf::Known(0.3, 0.0), ScoreConf::Known(0.9, 0.0));
  EXPECT_TRUE(r.IsDefault());
  EXPECT_FALSE(std::isnan(r.score()));
  EXPECT_FALSE(std::isnan(r.conf()));
}

TEST(FSumTest, CombineStaysFiniteOnDenormalConfidences) {
  // The weighted average must stay finite even when confidences are
  // denormal — far below any epsilon a caller might compare against — and
  // when one operand carries essentially all the weight.
  FSum f;
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<ScoreConf> pairs = {
      ScoreConf::Identity(),        ScoreConf::Known(0.0, tiny),
      ScoreConf::Known(1.0, tiny),  ScoreConf::Known(0.5, 1e-308),
      ScoreConf::Known(0.7, 0.0),   ScoreConf::Known(0.2, 1.0)};
  for (const ScoreConf& a : pairs) {
    for (const ScoreConf& b : pairs) {
      ScoreConf r = f.Combine(a, b);
      if (r.IsDefault()) continue;
      EXPECT_TRUE(std::isfinite(r.score()))
          << "F_S(" << a.ToString() << ", " << b.ToString() << ")";
      EXPECT_TRUE(std::isfinite(r.conf()))
          << "F_S(" << a.ToString() << ", " << b.ToString() << ")";
    }
  }
}

TEST(FMaxConfTest, HighestConfidenceWins) {
  FMaxConf f;
  ScoreConf low = ScoreConf::Known(1.0, 0.3);
  ScoreConf high = ScoreConf::Known(0.2, 0.9);
  EXPECT_EQ(f.Combine(low, high), high);
  EXPECT_EQ(f.Combine(high, low), high);
}

TEST(FMaxConfTest, TieBreaksTowardHigherScore) {
  FMaxConf f;
  ScoreConf a = ScoreConf::Known(0.9, 0.5);
  ScoreConf b = ScoreConf::Known(0.4, 0.5);
  EXPECT_EQ(f.Combine(a, b), a);
  EXPECT_EQ(f.Combine(b, a), a);
}

TEST(FMaxScoreTest, HighestScoreWins) {
  FMaxScore f;
  ScoreConf a = ScoreConf::Known(0.9, 0.1);
  ScoreConf b = ScoreConf::Known(0.5, 0.9);
  EXPECT_EQ(f.Combine(a, b), a);
}

TEST(FNoisyOrTest, ProbabilisticUnion) {
  FNoisyOr f;
  ScoreConf r = f.Combine(ScoreConf::Known(0.5, 0.5), ScoreConf::Known(0.5, 0.4));
  EXPECT_NEAR(r.score(), 0.75, 1e-12);
  EXPECT_NEAR(r.conf(), 0.9, 1e-12);
}

TEST(RegistryTest, LookupByName) {
  EXPECT_TRUE(GetAggregateFunction("wsum").ok());
  EXPECT_TRUE(GetAggregateFunction("MAXCONF").ok());  // Case-insensitive.
  EXPECT_TRUE(GetAggregateFunction("maxscore").ok());
  EXPECT_TRUE(GetAggregateFunction("noisyor").ok());
  EXPECT_FALSE(GetAggregateFunction("median").ok());
  EXPECT_EQ(AllAggregateFunctions().size(), 4u);
}

TEST(CombineAllTest, FoldsLeftToRight) {
  FSum f;
  std::vector<ScoreConf> pairs = {ScoreConf::Known(1.0, 1.0),
                                  ScoreConf::Known(0.0, 1.0),
                                  ScoreConf::Known(0.5, 2.0)};
  ScoreConf r = f.CombineAll(pairs);
  EXPECT_NEAR(r.score(), (1.0 + 0.0 + 1.0) / 4.0, 1e-12);
  EXPECT_NEAR(r.conf(), 4.0, 1e-12);
  EXPECT_TRUE(f.CombineAll({}).IsDefault());
}

TEST(CombineCountedTest, CountsAccumulateUnderEveryAggregate) {
  for (const AggregateFunction* agg : AllAggregateFunctions()) {
    ScoreConf a = ScoreConf::Known(0.8, 0.9);          // count 1.
    ScoreConf b = ScoreConf::Known(0.2, 0.4).WithCount(2);
    ScoreConf combined = CombineCounted(*agg, a, b);
    EXPECT_EQ(combined.count(), 3u) << agg->name();
    // Identity operands contribute zero.
    EXPECT_EQ(CombineCounted(*agg, ScoreConf::Identity(), a).count(), 1u)
        << agg->name();
    EXPECT_TRUE(
        CombineCounted(*agg, ScoreConf::Identity(), ScoreConf::Identity())
            .IsDefault())
        << agg->name();
  }
}

TEST(CombineCountedTest, CombineAllCounts) {
  FSum f;
  ScoreConf r = f.CombineAll({ScoreConf::Known(1.0, 1.0),
                              ScoreConf::Known(0.5, 0.5),
                              ScoreConf::Identity()});
  EXPECT_EQ(r.count(), 2u);
}

// ---------------------------------------------------------------------------
// Property sweep: every registered aggregate function must satisfy the
// Def. 3 contract — associativity, commutativity, and ⟨⊥,0⟩ as identity —
// on randomized inputs (including identities and boundary values). These
// are the properties the optimizer's rules 3-5 rely on.

class AggFunctionLaws : public ::testing::TestWithParam<const AggregateFunction*> {
 protected:
  static std::vector<ScoreConf> RandomPairs(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<ScoreConf> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 5)) {
        case 0:
          out.push_back(ScoreConf::Identity());
          break;
        case 1:
          out.push_back(ScoreConf::Known(0.0, rng.UniformReal(0.01, 1.0)));
          break;
        case 2:
          out.push_back(ScoreConf::Known(1.0, rng.UniformReal(0.01, 1.0)));
          break;
        default:
          out.push_back(ScoreConf::Known(rng.UniformReal(0.0, 1.0),
                                         rng.UniformReal(0.01, 3.0)));
      }
    }
    return out;
  }
};

TEST_P(AggFunctionLaws, IdentityElement) {
  const AggregateFunction& f = *GetParam();
  for (const ScoreConf& x : RandomPairs(200, 17)) {
    EXPECT_TRUE(f.Combine(ScoreConf::Identity(), x).ApproxEquals(x, 1e-12))
        << f.name() << " with " << x.ToString();
    EXPECT_TRUE(f.Combine(x, ScoreConf::Identity()).ApproxEquals(x, 1e-12))
        << f.name() << " with " << x.ToString();
  }
}

// CombineCounted answers a default operand inline; the result must be the
// one the out-of-line path computes through Combine, value and count, for
// every pairing of default and known pairs (counts 0 to 3).
TEST_P(AggFunctionLaws, InlineIdentityMatchesOutOfLine) {
  const AggregateFunction& f = *GetParam();
  std::vector<ScoreConf> pairs = RandomPairs(400, 53);
  for (size_t i = 0; i < pairs.size(); ++i) {
    pairs[i] = pairs[i].WithCount(static_cast<uint32_t>(i % 4));
  }
  for (size_t i = 0; i + 1 < pairs.size(); ++i) {
    for (const auto& [a, b] : {std::pair(pairs[i], pairs[i + 1]),
                               std::pair(ScoreConf::Identity(), pairs[i]),
                               std::pair(pairs[i], ScoreConf::Identity())}) {
      const ScoreConf inline_result = CombineCounted(f, a, b);
      const ScoreConf out_of_line = CombineCountedKnown(f, a, b);
      EXPECT_EQ(inline_result.has_score(), out_of_line.has_score()) << f.name();
      EXPECT_EQ(inline_result.score(), out_of_line.score()) << f.name();
      EXPECT_EQ(inline_result.conf(), out_of_line.conf()) << f.name();
      EXPECT_EQ(inline_result.count(), out_of_line.count())
          << f.name() << ": " << a.ToString() << " " << b.ToString();
    }
  }
}

TEST_P(AggFunctionLaws, Commutativity) {
  const AggregateFunction& f = *GetParam();
  std::vector<ScoreConf> pairs = RandomPairs(400, 29);
  for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
    ScoreConf ab = f.Combine(pairs[i], pairs[i + 1]);
    ScoreConf ba = f.Combine(pairs[i + 1], pairs[i]);
    EXPECT_TRUE(ab.ApproxEquals(ba, 1e-9))
        << f.name() << ": F(" << pairs[i].ToString() << ", "
        << pairs[i + 1].ToString() << ")";
  }
}

TEST_P(AggFunctionLaws, Associativity) {
  const AggregateFunction& f = *GetParam();
  std::vector<ScoreConf> pairs = RandomPairs(600, 31);
  for (size_t i = 0; i + 2 < pairs.size(); i += 3) {
    const ScoreConf& a = pairs[i];
    const ScoreConf& b = pairs[i + 1];
    const ScoreConf& c = pairs[i + 2];
    ScoreConf left = f.Combine(f.Combine(a, b), c);
    ScoreConf right = f.Combine(a, f.Combine(b, c));
    EXPECT_TRUE(left.ApproxEquals(right, 1e-9))
        << f.name() << ": (" << a.ToString() << " " << b.ToString() << ") "
        << c.ToString();
  }
}

TEST_P(AggFunctionLaws, FoldOrderIndependence) {
  // Stronger form used by the execution strategies: folding a multiset of
  // pairs in any order yields the same result.
  const AggregateFunction& f = *GetParam();
  std::vector<ScoreConf> pairs = RandomPairs(8, 41);
  ScoreConf forward = f.CombineAll(pairs);
  std::vector<ScoreConf> reversed(pairs.rbegin(), pairs.rend());
  ScoreConf backward = f.CombineAll(reversed);
  EXPECT_TRUE(forward.ApproxEquals(backward, 1e-9)) << f.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, AggFunctionLaws,
    ::testing::ValuesIn(AllAggregateFunctions()),
    [](const ::testing::TestParamInfo<const AggregateFunction*>& info) {
      return std::string(info.param->name());
    });

}  // namespace
}  // namespace prefdb
