#include "types/value.h"

#include <limits>
#include <unordered_set>

#include "gtest/gtest.h"

namespace prefdb {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Int(1).is_int());
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Double(1.5).is_double());
  EXPECT_TRUE(Value::Double(1.5).is_numeric());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_FALSE(Value::String("x").is_numeric());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::Int(-3).AsInt(), -3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("abc").AsString(), "abc");
  EXPECT_DOUBLE_EQ(Value::Int(4).NumericValue(), 4.0);
  EXPECT_DOUBLE_EQ(Value::Double(4.5).NumericValue(), 4.5);
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));
  EXPECT_NE(Value::Int(2), Value::Double(2.5));
}

TEST(ValueTest, TotalOrder) {
  // NULL < numerics < strings.
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Int(100), Value::String(""));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Double(1.5), Value::Int(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NanOrdersAfterEveryOtherNumeric) {
  // The naive </>-then-equal comparison reports NaN "equal" to every
  // numeric (all IEEE comparisons against NaN are false), which is not
  // transitive: 1 ~ NaN and NaN ~ 2 but 1 < 2. That violates the strict
  // weak ordering std::stable_sort requires. NaN now sorts after every
  // other numeric and equals itself.
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_LT(Value::Double(1.0), Value::Double(nan));
  EXPECT_LT(Value::Int(1), Value::Double(nan));
  EXPECT_GT(Value::Double(nan).Compare(Value::Double(1e308)), 0);
  EXPECT_EQ(Value::Double(nan).Compare(Value::Double(nan)), 0);
  EXPECT_EQ(Value::Double(nan), Value::Double(-nan));
  // Still within the numeric band of the cross-type order.
  EXPECT_LT(Value::Null(), Value::Double(nan));
  EXPECT_LT(Value::Double(nan), Value::String(""));
  // Transitivity spot-check over a NaN-containing chain.
  EXPECT_LT(Value::Double(1.0), Value::Double(2.0));
  EXPECT_LT(Value::Double(2.0), Value::Double(nan));
  EXPECT_LT(Value::Double(1.0), Value::Double(nan));
}

TEST(ValueTest, NanHashesConsistentlyWithEquality) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value::Double(nan).Hash(), Value::Double(-nan).Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Double(nan));
  EXPECT_TRUE(set.count(Value::Double(-nan)) > 0);
}

TEST(ValueTest, LargeIntegersCompareExactly) {
  // Values that would collide after double rounding.
  int64_t big = (int64_t{1} << 60) + 1;
  EXPECT_LT(Value::Int(big), Value::Int(big + 1));
  EXPECT_NE(Value::Int(big), Value::Int(big + 1));
}

// Ints and doubles compare exactly, at every magnitude: an int equals a
// double only when the double holds exactly that integer. Comparing them as
// two doubles made Int(2^53 + 1) equal to Double(2^53) while
// Int(2^53 + 1) != Int(2^53): equality was not transitive.
TEST(ValueTest, IntAndDoubleCompareExactlyBeyondTwoTo53) {
  const int64_t two53 = int64_t{1} << 53;
  const Value d53 = Value::Double(9007199254740992.0);  // 2^53.
  EXPECT_EQ(Value::Int(two53), d53);
  EXPECT_NE(Value::Int(two53 + 1), d53);
  EXPECT_LT(d53, Value::Int(two53 + 1));
  EXPECT_NE(Value::Int(two53 + 1), Value::Int(two53));
  // Equal values hash alike; the pair above is no longer equal.
  EXPECT_EQ(Value::Int(two53).Hash(), d53.Hash());
  // INT64_MAX is below 2^63, the double it rounds to.
  const Value d63 = Value::Double(9223372036854775808.0);  // 2^63.
  const Value max = Value::Int(std::numeric_limits<int64_t>::max());
  EXPECT_NE(max, d63);
  EXPECT_LT(max, d63);
  EXPECT_EQ(Value::Int(std::numeric_limits<int64_t>::min()),
            Value::Double(-9223372036854775808.0));
  // Fractions and infinities order around the ints.
  EXPECT_LT(Value::Int(2), Value::Double(2.5));
  EXPECT_LT(Value::Double(-2.5), Value::Int(-2));
  EXPECT_LT(max, Value::Double(std::numeric_limits<double>::infinity()));
  EXPECT_LT(Value::Double(-std::numeric_limits<double>::infinity()),
            Value::Int(std::numeric_limits<int64_t>::min()));
}

// Hashing an int whose double rounds to 2^63 must not convert that double
// back to int64 (undefined behaviour, caught by UBSan's
// float-cast-overflow); an int and a double that are not equal need not
// hash alike, and equal ones must.
TEST(ValueTest, HashOfExtremeIntsIsDefinedAndConsistent) {
  const Value max = Value::Int(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(max.Hash(), Value::Int(std::numeric_limits<int64_t>::max()).Hash());
  EXPECT_EQ(Value::Int(std::numeric_limits<int64_t>::min()).Hash(),
            Value::Double(-9223372036854775808.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Int(int64_t{1} << 53));
  set.insert(Value::Int((int64_t{1} << 53) + 1));
  set.insert(Value::Double(9007199254740992.0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Int(2));
  EXPECT_TRUE(set.count(Value::Double(2.0)) > 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

TEST(ValueTypeTest, Names) {
  EXPECT_EQ(ValueTypeName(ValueType::kNull), "NULL");
  EXPECT_EQ(ValueTypeName(ValueType::kInt), "INT");
  EXPECT_EQ(ValueTypeName(ValueType::kDouble), "DOUBLE");
  EXPECT_EQ(ValueTypeName(ValueType::kString), "STRING");
}

}  // namespace
}  // namespace prefdb
