#ifndef PREFDB_TYPES_VALUE_H_
#define PREFDB_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace prefdb {

/// Runtime type of a Value / declared type of a column.
enum class ValueType {
  kNull = 0,
  kInt,
  kDouble,
  kString,
};

/// Returns "NULL", "INT", "DOUBLE" or "STRING".
std::string_view ValueTypeName(ValueType type);

class Value;

/// A non-owning view of one value: what typed column storage hands the
/// operator kernels without building a Value (a string is a view into the
/// column's dictionary or arena). It compares and hashes exactly like the
/// Value it stands for: Value::Compare and Value::Hash are defined through
/// it, so a kernel reading typed cells and one reading Values agree.
struct ValueView {
  ValueType type = ValueType::kNull;
  int64_t i = 0;        // kInt.
  double d = 0.0;       // kDouble.
  std::string_view s;   // kString.

  static ValueView Int(int64_t v) { return {ValueType::kInt, v, 0.0, {}}; }
  static ValueView Double(double v) { return {ValueType::kDouble, 0, v, {}}; }
  static ValueView String(std::string_view v) {
    return {ValueType::kString, 0, 0.0, v};
  }

  bool is_null() const { return type == ValueType::kNull; }

  /// Three-way comparison under Value's total order.
  int Compare(const ValueView& other) const;
  bool operator==(const ValueView& other) const { return Compare(other) == 0; }

  /// Hash consistent with Compare: equal values hash alike.
  size_t Hash() const;
};

/// The hash of an integral numeric value (an int, or a double holding an
/// integer in int64 range); ValueView::Hash of such a value.
inline size_t HashInt64(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<size_t>(x);
}

/// True if `d` holds exactly an integer in int64 range, stored in `*out`:
/// the doubles equal to some int under Value's order. The range test comes
/// first, since converting an out-of-range double to int64 is undefined.
inline bool ExactInt64(double d, int64_t* out) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63.
  if (!(d >= -kTwo63 && d < kTwo63)) return false;
  const auto i = static_cast<int64_t>(d);
  if (static_cast<double>(i) != d) return false;
  *out = i;
  return true;
}

/// The three-way comparison of an int with a double under Value's order,
/// exact at every magnitude (no rounding of the int to a double): NaN sorts
/// after every number.
int CompareIntDouble(int64_t a, double b);

/// The three-way comparison of two doubles under Value's order: -0.0 equals
/// 0.0, NaN equals NaN and sorts after every number.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  // At least one NaN.
  const bool a_nan = a != a;
  const bool b_nan = b != b;
  if (a_nan && b_nan) return 0;
  return a_nan ? 1 : -1;
}

/// A dynamically typed SQL value: NULL, 64-bit integer, double, or string.
///
/// Comparison follows a total order so values can be used as keys in sorted
/// and hashed containers: NULL sorts first; numeric values (int and double)
/// compare numerically across the two types, exactly (an int and a double
/// are equal only when the double holds exactly that integer); strings sort
/// after numerics.
/// This mirrors the permissive comparison semantics of dynamically typed
/// engines (e.g. SQLite) and keeps expression evaluation total — evaluation
/// after a successful bind never fails.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : rep_(std::monostate{}) {}
  /// A copy of the value `v` stands for, built in place (the gathers that
  /// copy typed cells into tuples emplace one per cell).
  explicit Value(const ValueView& v) : rep_(RepOf(v)) {}

  static Value Null() { return Value(); }
  // Each factory constructs its alternative in place (no variant move): the
  // gather of an answer builds one Value per cell.
  static Value Int(int64_t v) {
    Value out;
    out.rep_.emplace<int64_t>(v);
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.rep_.emplace<double>(v);
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.rep_.emplace<std::string>(std::move(v));
    return out;
  }

  ValueType type() const {
    switch (rep_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return rep_.index() == 0; }
  bool is_int() const { return rep_.index() == 1; }
  bool is_double() const { return rep_.index() == 2; }
  bool is_string() const { return rep_.index() == 3; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Requires is_int().
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  /// Requires is_double().
  double AsDouble() const { return std::get<double>(rep_); }
  /// Requires is_string().
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Numeric view of the value: the int or double payload widened to double.
  /// Requires is_numeric().
  double NumericValue() const {
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// Three-way comparison under the total order described above:
  /// negative if *this < other, 0 if equal, positive if *this > other.
  int Compare(const Value& other) const { return view().Compare(other.view()); }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (ints and doubles representing the same
  /// number hash identically).
  size_t Hash() const { return view().Hash(); }

  /// A view of this value; a string view points into this value.
  ValueView view() const {
    switch (rep_.index()) {
      case 0:
        return {};
      case 1:
        return ValueView::Int(AsInt());
      case 2:
        return ValueView::Double(AsDouble());
      default:
        return ValueView::String(AsString());
    }
  }

  /// Renders the value for display: NULL, 42, 3.14, 'text'.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  static Rep RepOf(const ValueView& v) {
    switch (v.type) {
      case ValueType::kInt:
        return Rep(std::in_place_index<1>, v.i);
      case ValueType::kDouble:
        return Rep(std::in_place_index<2>, v.d);
      case ValueType::kString:
        return Rep(std::in_place_index<3>, v.s);
      default:
        return Rep();
    }
  }

  Rep rep_;
};

/// Hash functor for Value, usable with unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hash functor for ValueView (equality is ValueView::operator==).
struct ValueViewHash {
  size_t operator()(const ValueView& v) const { return v.Hash(); }
};

}  // namespace prefdb

#endif  // PREFDB_TYPES_VALUE_H_
