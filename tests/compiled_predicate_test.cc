// Differential test of compiled predicates (expr/compiled_predicate.h)
// against the reference evaluator: for every predicate, the candidates a
// CompiledPredicate selects over a column store are exactly the rows where
// IsTruthy(Expr::Eval(row)) holds. The predicates are every shape of
// expr_test and expr_functions_test, the predicate pool of query_fuzz_test's
// query generator (with its parameter ranges, combined at random), and
// random trees over all node kinds. The table has INT, DOUBLE (NaN, -0.0)
// and STRING ("" included) columns in every layout, NULLs in every column
// but one, and one mixed-type column.
//
// The same table checks compiled scores (CompiledScore) against
// ScoringFunction::Score bit for bit: arithmetic and built-in expressions
// over every column, with the ÷0, x = 0, NULL and int64 overflow corners.

#include "expr/compiled_predicate.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "prefs/scoring.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT: terse expression building in tests.

constexpr size_t kRows = 1500;  // More than one batch.

// vector<ExprPtr> is move-only; initializer lists cannot hold it.
template <typename... Args>
std::vector<ExprPtr> Vec(Args... args) {
  std::vector<ExprPtr> v;
  (v.push_back(std::move(args)), ...);
  return v;
}

Schema TableSchema() {
  return Schema({{"T", "m_id", ValueType::kInt},
                 {"T", "year", ValueType::kInt},
                 {"T", "duration", ValueType::kDouble},
                 {"T", "d_id", ValueType::kInt},
                 {"T", "votes", ValueType::kInt},
                 {"T", "rating", ValueType::kDouble},
                 {"T", "genre", ValueType::kString},
                 {"T", "title", ValueType::kString},
                 {"T", "mixed", ValueType::kInt},
                 {"T", "big", ValueType::kInt}});
}

// Rows with NULLs in every column, NaN and -0.0 among the doubles, the
// empty string among the strings, and one column mixing all types.
std::vector<Tuple> TableRows() {
  Rng rng(20261017);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* kGenres[] = {"Comedy", "Drama", "", "Action", "Thriller"};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < kRows; ++r) {
    auto maybe_null = [&](Value v) { return rng.Bernoulli(0.08) ? Value::Null() : v; };
    Value duration;
    switch (rng.Uniform(0, 9)) {
      case 0:
        duration = Value::Double(nan);
        break;
      case 1:
        duration = Value::Double(-0.0);
        break;
      case 2:
        duration = Value::Double(0.0);
        break;
      default:
        duration = Value::Double(static_cast<double>(rng.Uniform(55, 280)) +
                                 (rng.Bernoulli(0.5) ? 0.5 : 0.0));
    }
    Value mixed;
    switch (rng.Uniform(0, 4)) {
      case 0:
        mixed = Value::Int(rng.Uniform(-3, 3));
        break;
      case 1:
        mixed = Value::Double(static_cast<double>(rng.Uniform(-3, 3)) / 2.0);
        break;
      case 2:
        mixed = Value::String(
            rng.Bernoulli(0.3) ? "" : "x" + std::to_string(rng.Uniform(0, 3)));
        break;
      case 3:
        mixed = Value::Double(nan);
        break;
      default:
        mixed = Value::Null();
    }
    // No NULLs, and the int64 extremes now and then.
    const int64_t kBig[] = {INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1,
                            int64_t{3037000500}, -int64_t{3037000500}};
    const int64_t big = rng.Bernoulli(0.3) ? kBig[rng.Uniform(0, 5)]
                                           : rng.Uniform(-2, 2011);
    const std::string title =
        rng.Bernoulli(0.05)
            ? ""
            : "Title " + std::to_string(r) + (r % 3 == 0 ? " Dollar" : "");
    rows.push_back({maybe_null(Value::Int(static_cast<int64_t>(r) + 1)),
                    maybe_null(Value::Int(rng.Uniform(1900, 2011))),
                    maybe_null(duration),
                    maybe_null(Value::Int(rng.Uniform(1, 200))),
                    maybe_null(Value::Int(rng.Uniform(0, 300))),
                    maybe_null(Value::Double(
                        static_cast<double>(rng.Uniform(10, 100)) / 10.0)),
                    maybe_null(Value::String(kGenres[rng.Uniform(0, 4)])),
                    maybe_null(Value::String(title)),
                    mixed,
                    Value::Int(big)});
  }
  return rows;
}

class CompiledPredicateTest : public ::testing::Test {
 protected:
  static const std::vector<Tuple>& rows() {
    static const std::vector<Tuple>* instance = new std::vector<Tuple>(TableRows());
    return *instance;
  }
  static const ColumnStore& store() {
    static const ColumnStore* instance =
        new ColumnStore(ColumnStore::FromRows(rows(), TableSchema().size()));
    return *instance;
  }

  // The rows of `order` whose predicate holds, by the reference evaluator
  // and by the program with every column on one stream.
  static void ExpectSameSelection(const Expr& bound, const std::string& what) {
    std::vector<ColumnInput> inputs;
    for (size_t c = 0; c < store().NumColumns(); ++c) {
      inputs.push_back({&store().column(c), 0});
    }
    CompiledPredicate program(bound, inputs);
    // Candidates visit the rows in a shuffled order, in several batches.
    std::vector<uint32_t> order(kRows);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(7);
    for (size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    std::vector<uint32_t> expected;
    for (size_t t = 0; t < order.size(); ++t) {
      if (IsTruthy(bound.Eval(rows()[order[t]]))) {
        expected.push_back(static_cast<uint32_t>(t));
      }
    }
    std::vector<uint32_t> got;
    uint32_t sel[CompiledPredicate::kBatch];
    for (size_t at = 0; at < order.size(); at += CompiledPredicate::kBatch) {
      const size_t n = std::min(CompiledPredicate::kBatch, order.size() - at);
      const uint32_t* streams[] = {order.data() + at};
      const size_t kept = program.Select(streams, n, sel);
      for (size_t k = 0; k < kept; ++k) got.push_back(static_cast<uint32_t>(at + sel[k]));
    }
    ASSERT_EQ(got, expected) << what;
  }

  // Like ExpectSameSelection, with the columns split over two streams that
  // index different rows (a join residual's shape): column c reads stream
  // c % 2, and the reference row takes each column from that stream's row.
  static void ExpectSameSelectionOnTwoStreams(const Expr& bound,
                                              const std::string& what) {
    std::vector<ColumnInput> inputs;
    for (size_t c = 0; c < store().NumColumns(); ++c) {
      inputs.push_back({&store().column(c), static_cast<uint32_t>(c % 2)});
    }
    CompiledPredicate program(bound, inputs);
    const size_t n = 700;
    std::vector<uint32_t> first(n);
    std::vector<uint32_t> second(n);
    for (size_t t = 0; t < n; ++t) {
      first[t] = static_cast<uint32_t>(t);
      second[t] = static_cast<uint32_t>((t * 37 + 11) % kRows);
    }
    std::vector<uint32_t> expected;
    for (size_t t = 0; t < n; ++t) {
      Tuple row(store().NumColumns());
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = rows()[c % 2 == 0 ? first[t] : second[t]][c];
      }
      if (IsTruthy(bound.Eval(row))) expected.push_back(static_cast<uint32_t>(t));
    }
    const uint32_t* streams[] = {first.data(), second.data()};
    std::vector<uint32_t> got(n);
    got.resize(program.Select(streams, n, got.data()));
    ASSERT_EQ(got, expected) << what;
  }

  static void Check(ExprPtr expr) {
    const std::string what = expr->ToString();
    ASSERT_TRUE(expr->Bind(TableSchema()).ok()) << what;
    ExpectSameSelection(*expr, what);
    ExpectSameSelectionOnTwoStreams(*expr, what);
  }
};

TEST_F(CompiledPredicateTest, ColumnsTakeEveryLayout) {
  EXPECT_EQ(store().column(0).layout(), ColumnLayout::kInt);
  EXPECT_EQ(store().column(2).layout(), ColumnLayout::kDouble);
  EXPECT_EQ(store().column(6).layout(), ColumnLayout::kDict);
  EXPECT_EQ(store().column(7).layout(), ColumnLayout::kArena);
  EXPECT_EQ(store().column(8).layout(), ColumnLayout::kValue);
  EXPECT_EQ(store().column(9).layout(), ColumnLayout::kInt);
  EXPECT_FALSE(store().column(9).has_nulls());
}

// The shapes of expr_test: comparisons of each operator, NULL operands,
// cross-type comparisons, LIKE, AND/OR/NOT over bare columns, arithmetic,
// IN lists and literals as truth values.
TEST_F(CompiledPredicateTest, ExprTestShapes) {
  const char* kColumns[] = {"m_id",  "year",  "duration", "rating",
                            "genre", "title", "mixed"};
  for (const char* c : kColumns) {
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
                         CompareOp::kGt, CompareOp::kGe}) {
      Check(Cmp(op, Col(c), Lit(int64_t{10})));
      Check(Cmp(op, Col(c), Lit(2005.5)));
      Check(Cmp(op, Col(c), Lit(-0.0)));
      Check(Cmp(op, Col(c), Lit(std::numeric_limits<double>::quiet_NaN())));
      Check(Cmp(op, Col(c), Lit("Drama")));
      Check(Cmp(op, Col(c), Lit("")));
      Check(Cmp(op, Col(c), Lit("Zzz")));
      Check(Cmp(op, Col(c), Null()));
      Check(Cmp(op, Lit(int64_t{2000}), Col(c)));
      Check(Cmp(op, Lit("Comedy"), Col(c)));
      for (const char* other : {"year", "duration", "genre", "mixed", "votes"}) {
        Check(Cmp(op, Col(c), Col(other)));
      }
    }
    Check(Col(c));
    Check(Not(Col(c)));
    Check(In(Col(c), {Value::Int(1), Value::Int(5), Value::Double(2.0),
                      Value::String("Drama"),
                      Value::String(""), Value::Null()}));
    Check(In(Col(c), {}));
  }
  Check(Eq(Col("m_id"), Col("year")));
  Check(Eq(Col("year"), Col("duration")));  // Cross-type numeric.
  Check(Like(Col("title"), Lit("Title 1%")));
  Check(Like(Col("title"), Lit("%Dollar%")));
  Check(Like(Col("title"), Lit("T_tle 2%")));
  Check(Like(Col("title"), Lit("Dollar")));
  Check(Like(Col("year"), Lit("1")));
  Check(And(Col("year"), Col("duration")));
  Check(Or(Col("mixed"), Col("duration")));
  Check(Not(Col("duration")));
  Check(Not(And(Col("genre"), Not(Col("mixed")))));
  Check(Gt(Add(Col("year"), Lit(int64_t{3})), Lit(int64_t{2000})));
  Check(Lt(Sub(Col("duration"), Lit(int64_t{3})), Col("votes")));
  Check(Ge(Mul(Col("votes"), Lit(int64_t{3})), Lit(int64_t{300})));
  Check(Le(Div(Col("year"), Lit(2.0)), Lit(1000.0)));
  Check(Div(Col("year"), Lit(int64_t{0})));
  Check(Add(Col("genre"), Lit(int64_t{1})));
  Check(Lit(int64_t{1}));
  Check(Lit(int64_t{0}));
  Check(Lit(""));
  Check(Null());
  Check(Eq(Lit(int64_t{1}), Lit(1.0)));
  Check(And(Eq(Col("year"), Lit(int64_t{2000})), Gt(Col("duration"), Lit(0.5))));
  Check(CombineConjuncts({}));
}

// The shapes of expr_functions_test, inside comparisons.
TEST_F(CompiledPredicateTest, ExprFunctionsTestShapes) {
  Check(Gt(Fn("abs", Vec(Col("mixed"))), Lit(int64_t{1})));
  Check(Eq(Fn("min", Vec(Col("year"), Col("votes"))), Col("votes")));
  Check(Lt(Fn("max", Vec(Col("duration"), Col("rating"), Lit(int64_t{90}))), Lit(120.0)));
  Check(Ge(Fn("clamp", Vec(Col("rating"), Lit(2.0), Lit(8.0))), Lit(5.0)));
  Check(Gt(Fn("recency", Vec(Col("year"), Lit(int64_t{2011}))), Lit(0.995)));
  Check(Gt(Fn("around", Vec(Col("duration"), Lit(int64_t{120}))), Lit(0.9)));
  Check(Le(Fn("rating_score", Vec(Col("rating"))), Lit(0.5)));
  Check(Fn("recency", Vec(Col("mixed"), Lit(int64_t{2}))));
}

// query_fuzz_test's predicate pool, with its parameter ranges, combined
// into random AND/OR/NOT trees: 1,200 predicates.
TEST_F(CompiledPredicateTest, QueryFuzzPredicates) {
  Rng rng(4242);
  auto atom = [&]() -> std::string {
    switch (rng.Uniform(0, 9)) {
      case 0:
        return StrFormat("year >= %lld", static_cast<long long>(rng.Uniform(1950, 2010)));
      case 1:
        return StrFormat("duration BETWEEN %lld AND %lld",
                         static_cast<long long>(rng.Uniform(60, 100)),
                         static_cast<long long>(rng.Uniform(110, 250)));
      case 2:
        return StrFormat("T.d_id <= %lld", static_cast<long long>(rng.Uniform(1, 200)));
      case 3:
        return StrFormat("T.m_id <= %lld", static_cast<long long>(rng.Uniform(1, 900)));
      case 4:
        return "duration BETWEEN 90 AND 150";
      case 5:
        return "true";
      case 6:
        return rng.Bernoulli(0.5) ? "genre = 'Comedy'" : "genre = 'Drama'";
      case 7:
        return "votes > 100";
      case 8:
        return StrFormat("rating_score(rating) >= 0.%lld",
                         static_cast<long long>(rng.Uniform(1, 9)));
      default:
        return StrFormat("recency(year, 2011) > 0.9%lld",
                         static_cast<long long>(rng.Uniform(0, 9)));
    }
  };
  std::function<std::string(int)> tree = [&](int depth) -> std::string {
    if (depth == 0 || rng.Bernoulli(0.4)) return "(" + atom() + ")";
    switch (rng.Uniform(0, 2)) {
      case 0:
        return "(" + tree(depth - 1) + " AND " + tree(depth - 1) + ")";
      case 1:
        return "(" + tree(depth - 1) + " OR " + tree(depth - 1) + ")";
      default:
        return "NOT " + tree(depth - 1);
    }
  };
  for (int i = 0; i < 1200; ++i) {
    const std::string text = tree(3);
    StatusOr<ExprPtr> parsed = ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    Check(std::move(*parsed));
  }
}

// Random trees over every node kind and every column, with literals of
// every type.
TEST_F(CompiledPredicateTest, RandomTrees) {
  Rng rng(99);
  const char* kColumns[] = {"m_id", "year", "duration", "d_id", "votes",
                            "rating", "genre", "title", "mixed"};
  auto column = [&] { return Col(kColumns[rng.Uniform(0, 8)]); };
  auto literal = [&]() -> ExprPtr {
    switch (rng.Uniform(0, 5)) {
      case 0:
        return Lit(rng.Uniform(-5, 2011));
      case 1:
        return Lit(static_cast<double>(rng.Uniform(-10, 300)) / 2.0);
      case 2:
        return Lit(std::string(rng.Bernoulli(0.5) ? "Drama" : ""));
      case 3:
        return Null();
      case 4:
        return Lit(std::numeric_limits<double>::quiet_NaN());
      default:
        return Lit(std::string("x1"));
    }
  };
  auto op = [&] {
    return static_cast<CompareOp>(rng.Uniform(0, 5));  // kEq .. kGe.
  };
  std::function<ExprPtr(int)> tree = [&](int depth) -> ExprPtr {
    switch (depth == 0 ? rng.Uniform(0, 4) : rng.Uniform(0, 8)) {
      case 0:
        return Cmp(op(), column(), literal());
      case 1:
        return Cmp(op(), column(), column());
      case 2:
        return Cmp(op(), literal(), column());
      case 3: {
        std::vector<Value> list;
        for (int64_t k = rng.Uniform(0, 4); k > 0; --k) {
          list.push_back(static_cast<const LiteralExpr&>(*literal()).value());
        }
        return In(column(), std::move(list));
      }
      case 4:
        return rng.Bernoulli(0.5) ? column()
                                  : Cmp(op(), Add(column(), literal()), literal());
      case 5:
        return And(tree(depth - 1), tree(depth - 1));
      case 6:
        return Or(tree(depth - 1), tree(depth - 1));
      case 7:
        return Not(tree(depth - 1));
      default:
        return Like(column(), Lit(std::string(rng.Bernoulli(0.5) ? "%1%" : "D%")));
    }
  };
  for (int i = 0; i < 600; ++i) Check(tree(3));
}

TEST_F(CompiledPredicateTest, FallbackOnlyForNodesOutsideTheProgram) {
  auto count = [](ExprPtr e) {
    EXPECT_TRUE(e->Bind(TableSchema()).ok());
    std::vector<ColumnInput> inputs;
    for (size_t c = 0; c < store().NumColumns(); ++c) {
      inputs.push_back({&store().column(c), 0});
    }
    return CompiledPredicate(*e, inputs).fallback_count();
  };
  EXPECT_EQ(count(And(Ge(Col("year"), Lit(int64_t{2000})),
                      Or(Eq(Col("genre"), Lit("Drama")),
                         Not(In(Col("d_id"), {Value::Int(3)}))))),
            0u);
  EXPECT_EQ(count(Lt(Col("year"), Col("duration"))), 0u);
  EXPECT_EQ(count(And(Like(Col("title"), Lit("%x")), Gt(Add(Col("year"), Lit(int64_t{1})),
                                                         Lit(int64_t{3})))),
            2u);
}

// --- Compiled scores --------------------------------------------------------

class CompiledScoreTest : public CompiledPredicateTest {
 protected:
  // The reference: ScoringFunction::Score of the row `streams` select, with
  // column c read through stream c % width.
  static void ExpectSameScores(const Expr& bound, size_t width,
                               const std::string& what) {
    std::vector<ColumnInput> inputs;
    for (size_t c = 0; c < store().NumColumns(); ++c) {
      inputs.push_back({&store().column(c), static_cast<uint32_t>(c % width)});
    }
    CompiledScore program(bound, inputs);
    ScoringFunction reference(bound.Clone());
    ASSERT_TRUE(reference.Bind(TableSchema()).ok()) << what;
    std::vector<std::vector<uint32_t>> ids(width, std::vector<uint32_t>(kRows));
    for (size_t s = 0; s < width; ++s) {
      for (size_t t = 0; t < kRows; ++t) {
        ids[s][t] = static_cast<uint32_t>((t * (s == 0 ? 1 : 37) + s * 11) % kRows);
      }
    }
    uint32_t kept[CompiledScore::kBatch];
    double scores[CompiledScore::kBatch];
    for (size_t at = 0; at < kRows; at += CompiledScore::kBatch) {
      const size_t n = std::min(CompiledScore::kBatch, kRows - at);
      std::vector<const uint32_t*> streams;
      for (const auto& stream : ids) streams.push_back(stream.data() + at);
      const size_t m = program.Score(streams.data(), n, kept, scores);
      size_t j = 0;
      for (size_t t = 0; t < n; ++t) {
        Tuple row(store().NumColumns());
        for (size_t c = 0; c < row.size(); ++c) row[c] = rows()[ids[c % width][at + t]][c];
        const std::optional<double> want = reference.Score(row);
        const bool got = j < m && kept[j] == t;
        ASSERT_EQ(got, want.has_value()) << what << " at candidate " << at + t;
        if (!got) continue;
        ASSERT_EQ(std::bit_cast<uint64_t>(scores[j]), std::bit_cast<uint64_t>(*want))
            << what << " at candidate " << at + t << ": " << scores[j] << " vs " << *want;
        ++j;
      }
      ASSERT_EQ(j, m) << what;
    }
  }

  static void CheckScore(ExprPtr expr) {
    const std::string what = expr->ToString();
    ASSERT_TRUE(expr->Bind(TableSchema()).ok()) << what;
    ExpectSameScores(*expr, 1, what);
    ExpectSameScores(*expr, 2, what);
  }

  static size_t Fallbacks(ExprPtr expr) {
    EXPECT_TRUE(expr->Bind(TableSchema()).ok());
    std::vector<ColumnInput> inputs;
    for (size_t c = 0; c < store().NumColumns(); ++c) {
      inputs.push_back({&store().column(c), 0});
    }
    return CompiledScore(*expr, inputs).fallback_count();
  }
};

const char* const kScoreColumns[] = {"m_id",   "year",  "duration", "d_id",
                                     "votes",  "rating", "genre",   "title",
                                     "mixed",  "big"};

// scoring_test's and expr_test's numeric shapes, and the paper's scoring
// functions, over every column.
TEST_F(CompiledScoreTest, ScoringAndExprTestShapes) {
  for (double v : {0.8, 3.0, -1.0, 0.0, -0.0, 1.0}) CheckScore(Lit(v));
  CheckScore(Lit(std::numeric_limits<double>::quiet_NaN()));
  CheckScore(Lit(std::numeric_limits<double>::infinity()));
  CheckScore(Lit(int64_t{1}));
  CheckScore(Lit("x"));
  CheckScore(Null());
  CheckScore(Add(Mul(Lit(0.5), Fn("recency", Vec(Col("year"), Lit(int64_t{2011})))),
                 Mul(Lit(0.5), Fn("around", Vec(Col("duration"), Lit(int64_t{120}))))));
  for (const char* c : kScoreColumns) {
    CheckScore(Col(c));
    CheckScore(Mul(Col(c), Lit(int64_t{10})));
    CheckScore(Mul(Lit(0.1), Col(c)));
    CheckScore(Add(Col(c), Lit(int64_t{3})));
    CheckScore(Sub(Col(c), Lit(int64_t{3})));
    CheckScore(Div(Col(c), Lit(2.0)));
    CheckScore(Div(Col(c), Lit(int64_t{0})));
    CheckScore(Div(Lit(int64_t{1}), Col(c)));
    CheckScore(Add(Col(c), Col("duration")));
    CheckScore(Fn("recency", Vec(Col(c), Lit(int64_t{2011}))));
    CheckScore(Fn("recency", Vec(Lit(int64_t{2000}), Col(c))));
    CheckScore(Fn("around", Vec(Col(c), Lit(int64_t{120}))));
    CheckScore(Fn("around", Vec(Lit(int64_t{120}), Col(c))));
    CheckScore(Fn("rating_score", Vec(Col(c))));
    CheckScore(Fn("abs", Vec(Col(c))));
    CheckScore(Fn("clamp", Vec(Col(c), Lit(int64_t{2}), Lit(8.5))));
    CheckScore(Fn("clamp", Vec(Lit(0.5), Col(c), Col("rating"))));
  }
}

// Division by zero, x = 0 in the built-ins, NULL and non-numeric operands,
// and the int64 overflow of + − × and abs, which promote to double.
TEST_F(CompiledScoreTest, Corners) {
  CheckScore(Fn("recency", Vec(Col("year"), Lit(int64_t{0}))));
  CheckScore(Fn("around", Vec(Col("year"), Lit(-0.0))));
  CheckScore(Fn("recency", Vec(Col("year"), Null())));
  CheckScore(Fn("rating_score", Vec(Lit("7"))));
  CheckScore(Div(Col("year"), Sub(Col("big"), Col("big"))));
  CheckScore(Div(Col("big"), Lit(-0.0)));
  CheckScore(Mul(Lit(1e-18), Add(Col("big"), Col("big"))));
  CheckScore(Mul(Lit(1e-18), Sub(Col("big"), Col("big"))));
  CheckScore(Mul(Lit(1e-18), Sub(Lit(int64_t{0}), Col("big"))));
  CheckScore(Mul(Lit(1e-36), Mul(Col("big"), Col("big"))));
  CheckScore(Mul(Lit(1e-18), Add(Col("big"), Lit(int64_t{1}))));
  CheckScore(Mul(Lit(1e-18), Fn("abs", Vec(Col("big")))));
  CheckScore(Sub(Fn("abs", Vec(Col("big"))), Lit(INT64_MAX)));
  CheckScore(Mul(Lit(1e-18), Add(Lit(INT64_MAX), Lit(int64_t{1}))));  // Folded.
  CheckScore(Fn("clamp", Vec(Col("rating"), Lit(8.0), Lit(2.0))));  // lo > hi.
}

// Random arithmetic and built-in trees over every column and literals of
// every type; comparisons, min and max inside them are fallback leaves.
TEST_F(CompiledScoreTest, RandomTrees) {
  Rng rng(2027);
  auto literal = [&]() -> ExprPtr {
    switch (rng.Uniform(0, 8)) {
      case 0:
        return Lit(rng.Uniform(-5, 2011));
      case 1:
        return Lit(static_cast<double>(rng.Uniform(-10, 300)) / 4.0);
      case 2:
        return Lit(int64_t{0});
      case 3:
        return Null();
      case 4:
        return Lit(std::numeric_limits<double>::quiet_NaN());
      case 5:
        return Lit(rng.Bernoulli(0.5) ? INT64_MAX : INT64_MIN);
      case 6:
        return Lit(std::string(rng.Bernoulli(0.5) ? "Drama" : ""));
      case 7:
        return Lit(-0.0);
      default:
        return Lit(0.5);
    }
  };
  const ArithmeticOp kOps[] = {ArithmeticOp::kAdd, ArithmeticOp::kSub,
                               ArithmeticOp::kMul, ArithmeticOp::kDiv};
  const char* kFns[] = {"recency", "around", "rating_score", "abs", "clamp",
                        "min", "max"};
  const int kArity[] = {2, 2, 1, 1, 3, 2, 3};
  std::function<ExprPtr(int)> tree = [&](int depth) -> ExprPtr {
    switch (depth == 0 ? rng.Uniform(0, 1) : rng.Uniform(0, 4)) {
      case 0:
        return Col(kScoreColumns[rng.Uniform(0, 9)]);
      case 1:
        return literal();
      case 2:
        return std::make_unique<ArithmeticExpr>(kOps[rng.Uniform(0, 3)],
                                                tree(depth - 1), tree(depth - 1));
      case 3: {
        const auto f = static_cast<size_t>(rng.Uniform(0, 6));
        std::vector<ExprPtr> args;
        for (int k = 0; k < kArity[f]; ++k) args.push_back(tree(depth - 1));
        return Fn(kFns[f], std::move(args));
      }
      default:
        return Cmp(static_cast<CompareOp>(rng.Uniform(0, 5)), tree(depth - 1),
                   tree(depth - 1));
    }
  };
  for (int i = 0; i < 800; ++i) CheckScore(tree(3));
}

TEST_F(CompiledScoreTest, FallbackOnlyForNodesOutsideTheProgram) {
  // The workloads' scores.
  EXPECT_EQ(Fallbacks(Lit(0.9)), 0u);
  EXPECT_EQ(Fallbacks(Fn("rating_score", Vec(Col("rating")))), 0u);
  EXPECT_EQ(Fallbacks(Add(Mul(Lit(0.5), Fn("recency", Vec(Col("year"), Lit(int64_t{2011})))),
                          Mul(Lit(0.5), Fn("around", Vec(Col("duration"), Lit(int64_t{120})))))),
            0u);
  EXPECT_EQ(Fallbacks(Fn("clamp", Vec(Fn("abs", Vec(Col("mixed"))), Col("big"), Col("genre")))),
            0u);
  EXPECT_EQ(Fallbacks(Add(Fn("min", Vec(Col("year"), Col("votes"))),
                          Mul(Lit(0.5), Gt(Col("year"), Lit(int64_t{2000}))))),
            2u);
}

}  // namespace
}  // namespace prefdb
