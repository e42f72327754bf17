// Randomized property tests for the algebraic laws of the prefer operator
// (paper Prop. 4.1 - 4.4). These laws are exactly what the preference-aware
// optimizer's rewrite rules rely on, so they are verified here over random
// relations, random pre-existing scores, random preferences, and every
// registered aggregate function.

#include "common/rng.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "palgebra/p_ops.h"
#include "test_util.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT
using testing_util::ExpectSameRows;
using testing_util::KeyedPairs;
using testing_util::WithPairs;

struct PropertyCase {
  const AggregateFunction* agg;
  uint64_t seed;
};

class AlgebraPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  // Random relation R(id, a, b, tag) with key id and random sparse scores.
  PRelation RandomR(Rng* rng, size_t n) {
    Relation rel(Schema({{"R", "id", ValueType::kInt},
                         {"R", "a", ValueType::kInt},
                         {"R", "b", ValueType::kDouble},
                         {"R", "tag", ValueType::kString}}));
    rel.set_key_columns({0});
    static constexpr const char* kTags[] = {"x", "y", "z"};
    for (size_t i = 0; i < n; ++i) {
      rel.AddRow({Value::Int(static_cast<int64_t>(i)),
                  Value::Int(rng->Uniform(0, 20)),
                  Value::Double(rng->UniformReal(0.0, 1.0)),
                  Value::String(kTags[rng->Uniform(0, 2)])});
    }
    KeyedPairs scores;
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(0.4)) {
        scores.Set({Value::Int(static_cast<int64_t>(i))},
                   ScoreConf::Known(rng->UniformReal(0.0, 1.0),
                                    rng->UniformReal(0.05, 1.5)));
      }
    }
    return WithPairs(rel, scores);
  }

  // Random relation T(tid, rid) joining into R on rid = R.id.
  PRelation RandomT(Rng* rng, size_t n, size_t r_size) {
    Relation rel(Schema({{"T", "tid", ValueType::kInt},
                         {"T", "rid", ValueType::kInt}}));
    rel.set_key_columns({0});
    for (size_t i = 0; i < n; ++i) {
      rel.AddRow({Value::Int(static_cast<int64_t>(i)),
                  Value::Int(rng->Uniform(0, static_cast<int64_t>(r_size) - 1))});
    }
    KeyedPairs scores;
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(0.3)) {
        scores.Set({Value::Int(static_cast<int64_t>(i))},
                   ScoreConf::Known(rng->UniformReal(0.0, 1.0),
                                    rng->UniformReal(0.05, 1.0)));
      }
    }
    return WithPairs(rel, scores);
  }

  // A random preference over R's attributes.
  PreferencePtr RandomPref(Rng* rng, int ordinal) {
    ExprPtr cond;
    switch (rng->Uniform(0, 3)) {
      case 0:
        cond = Le(Col("a"), Lit(rng->Uniform(0, 20)));
        break;
      case 1:
        cond = Gt(Col("b"), Lit(rng->UniformReal(0.0, 1.0)));
        break;
      case 2:
        cond = Eq(Col("tag"), Lit("x"));
        break;
      default:
        cond = True();
    }
    ScoringFunction scoring = [&]() -> ScoringFunction {
      switch (rng->Uniform(0, 2)) {
        case 0:
          return ScoringFunction::Constant(rng->UniformReal(0.0, 1.0));
        case 1:
          return ScoringFunction(Col("b"));
        default:
          return ScoringFunction(Mul(Lit(0.05), Col("a")));
      }
    }();
    return Preference::Generic("rp" + std::to_string(ordinal), "R",
                               std::move(cond), std::move(scoring),
                               rng->UniformReal(0.1, 1.0));
  }

  // A random hard selection over R's attributes.
  ExprPtr RandomSelection(Rng* rng) {
    if (rng->Bernoulli(0.5)) return Ge(Col("a"), Lit(rng->Uniform(0, 20)));
    return Ne(Col("tag"), Lit("y"));
  }

  static void ExpectSamePRelation(const PRelation& a, const PRelation& b) {
    ExpectSameRows(ToScoredRelation(a), ToScoredRelation(b), 1e-9);
  }

  ExecStats stats_;
};

// Prop. 4.1: σ_φ λ_p (R) == λ_p σ_φ (R).
TEST_P(AlgebraPropertyTest, PreferCommutesWithSelect) {
  Rng rng(GetParam().seed);
  const AggregateFunction& agg = *GetParam().agg;
  for (int round = 0; round < 8; ++round) {
    PRelation r = RandomR(&rng, 40);
    PreferencePtr p = RandomPref(&rng, round);
    ExprPtr sel = RandomSelection(&rng);

    auto pref_first = EvalPrefer(*p, r, agg, nullptr, &stats_);
    ASSERT_TRUE(pref_first.ok());
    auto lhs = PSelect(*sel, *pref_first, &stats_);
    ASSERT_TRUE(lhs.ok());

    auto sel_first = PSelect(*sel, r, &stats_);
    ASSERT_TRUE(sel_first.ok());
    auto rhs = EvalPrefer(*p, *sel_first, agg, nullptr, &stats_);
    ASSERT_TRUE(rhs.ok());

    ExpectSamePRelation(*lhs, *rhs);
  }
}

// Prop. 4.2: σ_φ' λ_p (R) == σ_φ' λ_p' (R), where p' strengthens p's
// condition with φ'.
TEST_P(AlgebraPropertyTest, SelectionFoldsIntoCondition) {
  Rng rng(GetParam().seed + 1000);
  const AggregateFunction& agg = *GetParam().agg;
  for (int round = 0; round < 8; ++round) {
    PRelation r = RandomR(&rng, 40);
    PreferencePtr p = RandomPref(&rng, round);
    ExprPtr sel = RandomSelection(&rng);

    auto lhs_pref = EvalPrefer(*p, r, agg, nullptr, &stats_);
    ASSERT_TRUE(lhs_pref.ok());
    auto lhs = PSelect(*sel, *lhs_pref, &stats_);
    ASSERT_TRUE(lhs.ok());

    PreferencePtr strengthened = Preference::Generic(
        p->name() + "'", "R", And(p->CloneCondition(), sel->Clone()),
        p->CloneScoring(), p->confidence());
    auto rhs_pref = EvalPrefer(*strengthened, r, agg, nullptr, &stats_);
    ASSERT_TRUE(rhs_pref.ok());
    auto rhs = PSelect(*sel, *rhs_pref, &stats_);
    ASSERT_TRUE(rhs.ok());

    ExpectSamePRelation(*lhs, *rhs);
  }
}

// Prop. 4.3: λ_p1 λ_p2 (R) == λ_p2 λ_p1 (R).
TEST_P(AlgebraPropertyTest, PreferIsCommutative) {
  Rng rng(GetParam().seed + 2000);
  const AggregateFunction& agg = *GetParam().agg;
  for (int round = 0; round < 8; ++round) {
    PRelation r = RandomR(&rng, 40);
    PreferencePtr p1 = RandomPref(&rng, 2 * round);
    PreferencePtr p2 = RandomPref(&rng, 2 * round + 1);

    auto a1 = EvalPrefer(*p1, r, agg, nullptr, &stats_);
    ASSERT_TRUE(a1.ok());
    auto lhs = EvalPrefer(*p2, *a1, agg, nullptr, &stats_);
    ASSERT_TRUE(lhs.ok());

    auto b1 = EvalPrefer(*p2, r, agg, nullptr, &stats_);
    ASSERT_TRUE(b1.ok());
    auto rhs = EvalPrefer(*p1, *b1, agg, nullptr, &stats_);
    ASSERT_TRUE(rhs.ok());

    ExpectSamePRelation(*lhs, *rhs);
  }
}

// Prop. 4.4 over joins: λ_p (R ⋈ T) == λ_p(R) ⋈ T when p only references R.
TEST_P(AlgebraPropertyTest, PreferPushesOverJoin) {
  Rng rng(GetParam().seed + 3000);
  const AggregateFunction& agg = *GetParam().agg;
  for (int round = 0; round < 8; ++round) {
    PRelation r = RandomR(&rng, 30);
    PRelation t = RandomT(&rng, 50, 30);
    PreferencePtr p = RandomPref(&rng, round);
    ExprPtr join_cond = Eq(Col("R.id"), Col("T.rid"));

    auto joined = PJoin(*join_cond, r, t, agg, &stats_);
    ASSERT_TRUE(joined.ok());
    auto lhs = EvalPrefer(*p, *joined, agg, nullptr, &stats_);
    ASSERT_TRUE(lhs.ok());

    auto pushed = EvalPrefer(*p, r, agg, nullptr, &stats_);
    ASSERT_TRUE(pushed.ok());
    auto rhs = PJoin(*join_cond, *pushed, t, agg, &stats_);
    ASSERT_TRUE(rhs.ok());

    ExpectSamePRelation(*lhs, *rhs);
  }
}

// Prop. 4.4 over intersection: λ_p (A ∩ B) == λ_p(A) ∩ B. Every result tuple
// is in A, so evaluating p on A covers all of them; associativity and
// commutativity of F do the rest.
TEST_P(AlgebraPropertyTest, PreferPushesOverIntersect) {
  Rng rng(GetParam().seed + 4000);
  const AggregateFunction& agg = *GetParam().agg;
  for (int round = 0; round < 8; ++round) {
    PRelation a = RandomR(&rng, 40);
    // B: a filtered copy of A with different scores.
    auto b_or = PSelect(*RandomSelection(&rng), a, &stats_);
    ASSERT_TRUE(b_or.ok());
    KeyedPairs b_scores;
    Relation b_rows = b_or->Gather();
    for (const Tuple& row : b_rows.rows()) {
      if (rng.Bernoulli(0.5)) {
        b_scores.Set(b_rows.KeyOf(row),
                     ScoreConf::Known(rng.UniformReal(0.0, 1.0),
                                      rng.UniformReal(0.05, 1.0)));
      }
    }
    PRelation b = WithPairs(b_rows, b_scores);
    PreferencePtr p = RandomPref(&rng, round);

    auto met = PIntersect(a, b, agg, &stats_);
    ASSERT_TRUE(met.ok());
    auto lhs = EvalPrefer(*p, *met, agg, nullptr, &stats_);
    ASSERT_TRUE(lhs.ok());

    auto pushed = EvalPrefer(*p, a, agg, nullptr, &stats_);
    ASSERT_TRUE(pushed.ok());
    auto rhs = PIntersect(*pushed, b, agg, &stats_);
    ASSERT_TRUE(rhs.ok());

    ExpectSamePRelation(*lhs, *rhs);
  }
}

// Prop. 4.4 over difference: λ_p (A − B) == λ_p(A) − B.
TEST_P(AlgebraPropertyTest, PreferPushesOverDifference) {
  Rng rng(GetParam().seed + 5000);
  const AggregateFunction& agg = *GetParam().agg;
  for (int round = 0; round < 8; ++round) {
    PRelation a = RandomR(&rng, 40);
    auto b_or = PSelect(*RandomSelection(&rng), a, &stats_);
    ASSERT_TRUE(b_or.ok());
    PreferencePtr p = RandomPref(&rng, round);

    auto diff = PDiff(a, *b_or, &stats_);
    ASSERT_TRUE(diff.ok());
    auto lhs = EvalPrefer(*p, *diff, agg, nullptr, &stats_);
    ASSERT_TRUE(lhs.ok());

    auto pushed = EvalPrefer(*p, a, agg, nullptr, &stats_);
    ASSERT_TRUE(pushed.ok());
    auto rhs = PDiff(*pushed, *b_or, &stats_);
    ASSERT_TRUE(rhs.ok());

    ExpectSamePRelation(*lhs, *rhs);
  }
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  for (const AggregateFunction* agg : AllAggregateFunctions()) {
    for (uint64_t seed : {11u, 29u}) {
      cases.push_back({agg, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, AlgebraPropertyTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(info.param.agg->name()) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace prefdb
