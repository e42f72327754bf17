#include "expr/expr.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"

namespace prefdb {
namespace {

using namespace eb;  // NOLINT: terse expression building in tests.

Schema TestSchema() {
  return Schema({{"T", "a", ValueType::kInt},
                 {"T", "b", ValueType::kDouble},
                 {"T", "s", ValueType::kString}});
}

Value EvalOn(ExprPtr expr, const Tuple& tuple, const Schema& schema) {
  Status st = expr->Bind(schema);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return expr->Eval(tuple);
}

TEST(ExprTest, LiteralEval) {
  Tuple t;
  Schema s;
  EXPECT_EQ(EvalOn(Lit(int64_t{5}), t, s), Value::Int(5));
  EXPECT_EQ(EvalOn(Lit(2.5), t, s), Value::Double(2.5));
  EXPECT_EQ(EvalOn(Lit("x"), t, s), Value::String("x"));
  EXPECT_TRUE(EvalOn(Null(), t, s).is_null());
}

TEST(ExprTest, ColumnRefResolvesByName) {
  Tuple t{Value::Int(1), Value::Double(2.5), Value::String("hi")};
  EXPECT_EQ(EvalOn(Col("b"), t, TestSchema()), Value::Double(2.5));
  EXPECT_EQ(EvalOn(Col("T.s"), t, TestSchema()), Value::String("hi"));
}

TEST(ExprTest, ColumnRefBindFailsOnUnknown) {
  ExprPtr e = Col("zz");
  EXPECT_FALSE(e->Bind(TestSchema()).ok());
}

TEST(ExprTest, ComparisonSemantics) {
  Tuple t{Value::Int(10), Value::Double(2.5), Value::String("hi")};
  Schema s = TestSchema();
  EXPECT_EQ(EvalOn(Eq(Col("a"), Lit(int64_t{10})), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Ne(Col("a"), Lit(int64_t{10})), t, s), Value::Int(0));
  EXPECT_EQ(EvalOn(Lt(Col("a"), Lit(int64_t{11})), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Le(Col("a"), Lit(int64_t{10})), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Gt(Col("a"), Lit(int64_t{10})), t, s), Value::Int(0));
  EXPECT_EQ(EvalOn(Ge(Col("a"), Lit(int64_t{10})), t, s), Value::Int(1));
}

TEST(ExprTest, ComparisonWithNullYieldsNull) {
  Tuple t{Value::Null(), Value::Double(2.5), Value::String("hi")};
  EXPECT_TRUE(EvalOn(Eq(Col("a"), Lit(int64_t{1})), t, TestSchema()).is_null());
}

TEST(ExprTest, CrossTypeNumericComparison) {
  Tuple t{Value::Int(2), Value::Double(2.0), Value::String("")};
  EXPECT_EQ(EvalOn(Eq(Col("a"), Col("b")), t, TestSchema()), Value::Int(1));
}

TEST(ExprTest, LikeSemantics) {
  Tuple t{Value::Int(0), Value::Double(0), Value::String("Million Dollar Baby")};
  Schema s = TestSchema();
  EXPECT_EQ(EvalOn(Like(Col("s"), Lit("Million%")), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Like(Col("s"), Lit("%Dollar%")), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Like(Col("s"), Lit("M_llion%")), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Like(Col("s"), Lit("Dollar")), t, s), Value::Int(0));
  // LIKE on non-strings yields NULL.
  EXPECT_TRUE(EvalOn(Like(Col("a"), Lit("1")), t, s).is_null());
}

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_TRUE(LikeMatch("abc", "a%"));
  EXPECT_TRUE(LikeMatch("abc", "%c"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_FALSE(LikeMatch("abc", ""));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("ab", "a_b"));
}

TEST(ExprTest, LogicalSemantics) {
  Tuple t{Value::Int(1), Value::Double(0.0), Value::String("")};
  Schema s = TestSchema();
  EXPECT_EQ(EvalOn(And(Col("a"), Col("b")), t, s), Value::Int(0));
  EXPECT_EQ(EvalOn(Or(Col("a"), Col("b")), t, s), Value::Int(1));
  EXPECT_EQ(EvalOn(Not(Col("b")), t, s), Value::Int(1));
  // NULL acts as false in logical context.
  Tuple tn{Value::Null(), Value::Double(1.0), Value::String("")};
  EXPECT_EQ(EvalOn(And(Col("a"), Col("b")), tn, s), Value::Int(0));
  EXPECT_EQ(EvalOn(Or(Col("a"), Col("b")), tn, s), Value::Int(1));
}

TEST(ExprTest, ArithmeticSemantics) {
  Tuple t{Value::Int(7), Value::Double(2.0), Value::String("x")};
  Schema s = TestSchema();
  EXPECT_EQ(EvalOn(Add(Col("a"), Lit(int64_t{3})), t, s), Value::Int(10));
  EXPECT_EQ(EvalOn(Sub(Col("a"), Lit(int64_t{3})), t, s), Value::Int(4));
  EXPECT_EQ(EvalOn(Mul(Col("a"), Lit(int64_t{3})), t, s), Value::Int(21));
  // Division always yields double; division by zero yields NULL.
  EXPECT_EQ(EvalOn(Div(Col("a"), Lit(2.0)), t, s), Value::Double(3.5));
  EXPECT_TRUE(EvalOn(Div(Col("a"), Lit(int64_t{0})), t, s).is_null());
  // Mixed int/double promotes to double.
  EXPECT_EQ(EvalOn(Add(Col("a"), Col("b")), t, s), Value::Double(9.0));
  // Arithmetic on strings yields NULL.
  EXPECT_TRUE(EvalOn(Add(Col("s"), Lit(int64_t{1})), t, s).is_null());
}

// An int result past int64 is the result computed in doubles (SQLite
// promotes to REAL); one that fits stays an int.
TEST(ExprTest, IntOverflowPromotesToDouble) {
  Tuple t;
  Schema s;
  const double two63 = 9223372036854775808.0;
  EXPECT_EQ(EvalOn(Add(Lit(INT64_MAX), Lit(int64_t{1})), t, s), Value::Double(two63));
  EXPECT_EQ(EvalOn(Sub(Lit(INT64_MIN), Lit(int64_t{1})), t, s), Value::Double(-two63));
  EXPECT_EQ(EvalOn(Sub(Lit(int64_t{0}), Lit(INT64_MIN)), t, s), Value::Double(two63));
  EXPECT_EQ(EvalOn(Mul(Lit(INT64_MAX), Lit(int64_t{2})), t, s),
            Value::Double(2.0 * two63));
  EXPECT_EQ(EvalOn(Mul(Lit(int64_t{3037000500}), Lit(int64_t{3037000500})), t, s),
            Value::Double(3037000500.0 * 3037000500.0));
  EXPECT_EQ(EvalOn(Fn("abs", [] {
                     std::vector<ExprPtr> v;
                     v.push_back(Lit(INT64_MIN));
                     return v;
                   }()),
                   t, s),
            Value::Double(two63));
  EXPECT_EQ(EvalOn(Add(Lit(INT64_MAX - 1), Lit(int64_t{1})), t, s), Value::Int(INT64_MAX));
  EXPECT_EQ(EvalOn(Sub(Lit(INT64_MIN + 1), Lit(int64_t{1})), t, s), Value::Int(INT64_MIN));
  EXPECT_EQ(EvalOn(Mul(Lit(int64_t{3037000499}), Lit(int64_t{3037000499})), t, s),
            Value::Int(int64_t{3037000499} * 3037000499));
  EXPECT_TRUE(EvalOn(Add(Lit(INT64_MAX), Lit(int64_t{1})), t, s).is_double());
}

TEST(ExprTest, InListSemantics) {
  Tuple t{Value::Int(5), Value::Double(0), Value::String("x")};
  Schema s = TestSchema();
  EXPECT_EQ(EvalOn(In(Col("a"), {Value::Int(1), Value::Int(5)}), t, s),
            Value::Int(1));
  EXPECT_EQ(EvalOn(In(Col("a"), {Value::Int(1), Value::Int(2)}), t, s),
            Value::Int(0));
  Tuple tn{Value::Null(), Value::Double(0), Value::String("x")};
  EXPECT_TRUE(EvalOn(In(Col("a"), {Value::Int(1)}), tn, s).is_null());
}

TEST(ExprTest, IsTruthy) {
  EXPECT_FALSE(IsTruthy(Value::Null()));
  EXPECT_FALSE(IsTruthy(Value::Int(0)));
  EXPECT_TRUE(IsTruthy(Value::Int(-1)));
  EXPECT_FALSE(IsTruthy(Value::Double(0.0)));
  EXPECT_TRUE(IsTruthy(Value::Double(0.1)));
  EXPECT_FALSE(IsTruthy(Value::String("")));
  EXPECT_TRUE(IsTruthy(Value::String("0")));
}

TEST(ExprTest, CloneIsDeepAndRebindable) {
  ExprPtr original = And(Eq(Col("a"), Lit(int64_t{1})), Gt(Col("b"), Lit(0.5)));
  ExprPtr copy = original->Clone();
  ASSERT_TRUE(copy->Bind(TestSchema()).ok());
  Tuple t{Value::Int(1), Value::Double(0.7), Value::String("")};
  EXPECT_EQ(copy->Eval(t), Value::Int(1));
  // The original is unbound and independent.
  EXPECT_TRUE(original->Equals(*copy));
}

TEST(ExprTest, StructuralEquality) {
  ExprPtr a = And(Eq(Col("a"), Lit(int64_t{1})), Not(Col("b")));
  ExprPtr b = And(Eq(Col("A"), Lit(int64_t{1})), Not(Col("b")));  // Case-insensitive cols.
  ExprPtr c = And(Eq(Col("a"), Lit(int64_t{2})), Not(Col("b")));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  // Int and double literals are distinct.
  EXPECT_FALSE(Lit(int64_t{1})->Equals(*Lit(1.0)));
}

TEST(ExprTest, CollectColumns) {
  ExprPtr e = And(Eq(Col("a"), Lit(int64_t{1})), Gt(Col("T.b"), Col("a")));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], "a");
  EXPECT_EQ(cols[1], "T.b");
}

TEST(ExprTest, ToStringRoundTripReadable) {
  ExprPtr e = And(Eq(Col("a"), Lit(int64_t{1})), Like(Col("s"), Lit("x%")));
  EXPECT_EQ(e->ToString(), "(a = 1 AND s LIKE 'x%')");
}

TEST(ExprHelpersTest, ExprBindsTo) {
  Schema s = TestSchema();
  EXPECT_TRUE(ExprBindsTo(*Eq(Col("a"), Lit(int64_t{1})), s));
  EXPECT_FALSE(ExprBindsTo(*Eq(Col("nope"), Lit(int64_t{1})), s));
}

TEST(ExprHelpersTest, SplitAndCombineConjuncts) {
  ExprPtr e = And(And(Col("a"), Col("b")), Col("s"));
  std::vector<ExprPtr> parts = SplitConjuncts(std::move(e));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->ToString(), "a");
  EXPECT_EQ(parts[2]->ToString(), "s");

  ExprPtr combined = CombineConjuncts(std::move(parts));
  EXPECT_EQ(combined->ToString(), "((a AND b) AND s)");

  // OR trees are not split.
  std::vector<ExprPtr> one = SplitConjuncts(Or(Col("a"), Col("b")));
  EXPECT_EQ(one.size(), 1u);

  // Empty conjunct list is constant TRUE.
  ExprPtr truth = CombineConjuncts({});
  EXPECT_TRUE(IsTruthy(truth->Eval({})));
}

}  // namespace
}  // namespace prefdb
