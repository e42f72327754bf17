#include "types/value.h"

#include <cmath>
#include <cstring>
#include <functional>

#include "common/string_util.h"

namespace prefdb {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

namespace {

// Rank in the cross-type total order: NULL < numerics < strings.
int TypeRank(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 0;
}

// 2^63: the first double above the int64 range ([-2^63, 2^63) is exact).
constexpr double kTwo63 = 9223372036854775808.0;

size_t HashDouble(double d) {
  // All NaN payloads compare equal under Compare(), so they hash alike.
  if (std::isnan(d)) return 0x7ff8000000000000ULL;
  // A double holding an integer in int64 range equals that int, so it
  // hashes like it (this covers -0.0 == 0.0).
  int64_t i;
  if (ExactInt64(d, &i)) return HashInt64(i);
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return HashInt64(static_cast<int64_t>(bits)) ^ 0x5bd1e995ULL;
}

}  // namespace

int CompareIntDouble(int64_t a, double b) {
  // IEEE comparisons are all false against NaN, so the naive
  // `<`/`>`-then-equal scheme would report NaN "equal" to every numeric —
  // a non-transitive equivalence that breaks the strict weak ordering
  // std::stable_sort requires. NaN sorts after every other numeric
  // instead, with NaN == NaN (CompareDoubles), which keeps Compare a total
  // order.
  if (std::isnan(b)) return -1;
  if (b >= kTwo63) return -1;
  if (b < -kTwo63) return 1;
  // b is in int64 range, so its integral part converts exactly; comparing
  // it with `a` as integers avoids rounding `a` to a double.
  const double t = std::trunc(b);
  const int64_t bi = static_cast<int64_t>(t);
  if (a != bi) return a < bi ? -1 : 1;
  // Equal integral parts: the fraction decides.
  if (b > t) return -1;
  if (b < t) return 1;
  return 0;
}

int ValueView::Compare(const ValueView& other) const {
  int lr = TypeRank(type);
  int rr = TypeRank(other.type);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (lr) {
    case 0:
      return 0;  // NULL == NULL under the total order (needed for grouping).
    case 1:
      if (type == ValueType::kInt) {
        if (other.type == ValueType::kInt) {
          return i < other.i ? -1 : (i > other.i ? 1 : 0);
        }
        return CompareIntDouble(i, other.d);
      }
      if (other.type == ValueType::kInt) return -CompareIntDouble(other.i, d);
      return CompareDoubles(d, other.d);
    default: {
      int c = s.compare(other.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

size_t ValueView::Hash() const {
  switch (type) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
      return HashInt64(i);
    case ValueType::kDouble:
      return HashDouble(d);
    case ValueType::kString:
      return std::hash<std::string_view>{}(s);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return StrFormat("%lld", static_cast<long long>(AsInt()));
    case ValueType::kDouble: {
      double d = AsDouble();
      if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
        return StrFormat("%.1f", d);
      }
      return StrFormat("%g", d);
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

}  // namespace prefdb
