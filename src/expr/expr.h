#ifndef PREFDB_EXPR_EXPR_H_
#define PREFDB_EXPR_EXPR_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace prefdb {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Node kind of an expression tree.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kComparison,
  kLogical,
  kNot,
  kArithmetic,
  kFunction,
  kInList,
};

/// Comparison operators. kLike implements SQL LIKE with '%' and '_'
/// wildcards on string operands.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

/// Binary logical connectives.
enum class LogicalOp { kAnd, kOr };

/// Binary arithmetic operators. Division always yields a double.
enum class ArithmeticOp { kAdd, kSub, kMul, kDiv };

std::string_view CompareOpName(CompareOp op);
std::string_view LogicalOpName(LogicalOp op);
std::string_view ArithmeticOpName(ArithmeticOp op);

/// SQL-ish truthiness used when an expression is evaluated as a predicate:
/// NULL and numeric zero are false; any other numeric is true; strings are
/// true iff non-empty. (A simplified two-valued logic: NULL acts as false.)
bool IsTruthy(const Value& v);

/// A value as arithmetic and the numeric functions see it: ⊥ (NULL or not
/// a number), an int or a double. Expr::Eval and compiled scores
/// (expr/compiled_predicate.h) compute through the same functions below.
struct Numeric {
  ValueType type = ValueType::kNull;  // kNull (⊥), kInt or kDouble.
  int64_t bits = 0;  // The int, or the double's bits: 16 bytes in all.

  static Numeric Int(int64_t v) { return {ValueType::kInt, v}; }
  static Numeric Double(double v) {
    return {ValueType::kDouble, std::bit_cast<int64_t>(v)};
  }
  static Numeric Of(const ValueView& v) {
    return v.type == ValueType::kInt      ? Int(v.i)
           : v.type == ValueType::kDouble ? Double(v.d)
                                          : Numeric();
  }
  bool is_null() const { return type == ValueType::kNull; }
  /// The int widened to double, or the double (Value::NumericValue).
  double AsDouble() const {
    return type == ValueType::kInt ? static_cast<double>(bits)
                                   : std::bit_cast<double>(bits);
  }
  Value ToValue() const {
    return type == ValueType::kInt      ? Value::Int(bits)
           : type == ValueType::kDouble ? Value::Double(AsDouble())
                                        : Value::Null();
  }
};

/// l <op> r: ⊥ if either operand is; ÷ yields a double, ⊥ for a zero
/// divisor; int ∘ int stays an int unless the result overflows int64, when
/// it yields the result computed in doubles (as SQLite promotes to REAL).
inline Numeric Arithmetic(ArithmeticOp op, Numeric l, Numeric r) {
  if (l.is_null() || r.is_null()) return {};
  if (op == ArithmeticOp::kDiv) {
    const double denom = r.AsDouble();
    if (denom == 0.0) return {};
    return Numeric::Double(l.AsDouble() / denom);
  }
  if (l.type == ValueType::kInt && r.type == ValueType::kInt) {
    int64_t v = 0;
    if (!(op == ArithmeticOp::kAdd   ? __builtin_add_overflow(l.bits, r.bits, &v)
          : op == ArithmeticOp::kSub ? __builtin_sub_overflow(l.bits, r.bits, &v)
                                     : __builtin_mul_overflow(l.bits, r.bits, &v))) {
      return Numeric::Int(v);
    }
  }
  const double a = l.AsDouble();
  const double b = r.AsDouble();
  return Numeric::Double(op == ArithmeticOp::kAdd   ? a + b
                         : op == ArithmeticOp::kSub ? a - b
                                                    : a * b);
}

/// A scalar function of numeric arguments and result (abs, clamp, recency,
/// around, rating_score): FunctionExpr::Eval's result for args[0..arity).
using NumericFunction = Numeric (*)(const Numeric* args);
/// The NumericFunction named `lower_name`; null for min, max (they also
/// order strings) and unknown names.
NumericFunction FindNumericFunction(std::string_view lower_name);

/// Immutable-shape expression tree with explicit binding.
///
/// Lifecycle: build the tree (parser or expr_builder helpers) → `Bind` it to
/// the schema of the relation it will be evaluated over (resolves column
/// references to indices; the only fallible step) → `Eval` per tuple, which
/// is total and cannot fail. An expression may be re-bound to a different
/// schema at any time; operators that share an expression must `Clone` it
/// first, since binding mutates resolution state.
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }

  /// Resolves column references against `schema`. Must succeed before Eval.
  virtual Status Bind(const Schema& schema) = 0;

  /// Evaluates against a tuple of the bound schema. Total: type mismatches
  /// yield NULL rather than errors.
  virtual Value Eval(const Tuple& tuple) const = 0;

  /// Deep copy; the copy is unbound.
  virtual ExprPtr Clone() const = 0;

  /// Appends the (possibly qualified) names of all referenced columns.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  /// Structural equality, ignoring binding state.
  virtual bool Equals(const Expr& other) const = 0;

  /// Renders the expression in SQL-like syntax.
  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  const ExprKind kind_;
};

/// A constant value.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : Expr(ExprKind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  Value value_;
};

/// A reference to a column by (possibly qualified) name.
class ColumnRefExpr final : public Expr {
 public:
  explicit ColumnRefExpr(std::string name)
      : Expr(ExprKind::kColumnRef), name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  /// Resolved column index; valid only after a successful Bind.
  int index() const { return index_; }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  std::string name_;
  int index_ = -1;
};

/// left <op> right; comparisons yield Int 1/0, or NULL if either side is NULL.
class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison), op_(op), left_(std::move(left)),
        right_(std::move(right)) {}

  CompareOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// left AND/OR right under null-as-false two-valued logic.
class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kLogical), op_(op), left_(std::move(left)),
        right_(std::move(right)) {}

  LogicalOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }
  /// Releases ownership of the operands (used when flattening conjunctions).
  ExprPtr TakeLeft() { return std::move(left_); }
  ExprPtr TakeRight() { return std::move(right_); }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  LogicalOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Logical negation (of truthiness).
class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand)
      : Expr(ExprKind::kNot), operand_(std::move(operand)) {}

  const Expr& operand() const { return *operand_; }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  ExprPtr operand_;
};

/// left <op> right on numerics (Arithmetic); NULL if either operand is
/// non-numeric.
class ArithmeticExpr final : public Expr {
 public:
  ArithmeticExpr(ArithmeticOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kArithmetic), op_(op), left_(std::move(left)),
        right_(std::move(right)) {}

  ArithmeticOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  ArithmeticOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// A call to a registered scalar function. The built-in registry includes
/// general scalars (abs, min, max, clamp) and the paper's scoring shapes:
/// recency(a, x) = a / x (the paper's S_m) and around(a, x) = 1 - |a - x| / x
/// (the paper's S_d), both clamped to [0, 1]. Functions take at most
/// kMaxArity arguments.
class FunctionExpr final : public Expr {
 public:
  static constexpr size_t kMaxArity = 8;

  FunctionExpr(std::string name, std::vector<ExprPtr> args);

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }

  /// True if `name` (case-insensitive) is a registered scalar function.
  static bool IsKnownFunction(const std::string& name);

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  std::string name_;  // Stored lower-cased.
  std::vector<ExprPtr> args_;
  int fn_id_ = -1;  // Resolved at Bind.
};

/// operand IN (v1, v2, ...) over literal values; yields Int 1/0 or NULL for
/// a NULL operand.
class InListExpr final : public Expr {
 public:
  InListExpr(ExprPtr operand, std::vector<Value> values)
      : Expr(ExprKind::kInList), operand_(std::move(operand)),
        values_(std::move(values)) {}

  const Expr& operand() const { return *operand_; }
  const std::vector<Value>& values() const { return values_; }

  Status Bind(const Schema& schema) override;
  Value Eval(const Tuple& tuple) const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  bool Equals(const Expr& other) const override;
  std::string ToString() const override;

 private:
  ExprPtr operand_;
  std::vector<Value> values_;
};

// ---------------------------------------------------------------------------
// Free helpers used by the optimizer and the preference layer.

/// True if `expr` would Bind to `schema`: every column reference resolves
/// (unambiguously) and every function exists with its arity. Neither
/// mutates nor clones `expr`.
bool ExprBindsTo(const Expr& expr, const Schema& schema);

/// The Status `Bind` would return for `expr` against `schema`, without
/// binding `expr`: a copy is bound only when the check fails, to build the
/// error.
Status CheckBinds(const Expr& expr, const Schema& schema);

/// Splits a conjunction tree into its conjuncts (consumes `expr`).
/// A non-AND expression yields a single-element vector.
std::vector<ExprPtr> SplitConjuncts(ExprPtr expr);

/// Appends the conjuncts of `expr` (searching through ANDs, left operand
/// first) without taking them apart: SplitConjuncts for a tree that stays.
void CollectConjuncts(const Expr& expr, std::vector<const Expr*>* out);

/// Rebuilds a left-deep AND tree from `conjuncts`. An empty vector yields
/// a literal TRUE.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// Finds the first conjunct of `predicate` (searching through ANDs, left
/// operand first) of the form `a = b` over two column references, one
/// resolving in `left` and the other in `right` — the key of a hash join
/// between the two sides. Stores the names in (left, right) order. When
/// `whole` is non-null it is set to whether that conjunct is the entire
/// predicate, i.e. whether a hash match on the key already decides the
/// predicate for non-NULL keys. Returns false if there is no such conjunct.
bool FindEquiConjunct(const Expr& predicate, const Schema& left,
                      const Schema& right, std::string* left_col,
                      std::string* right_col, bool* whole = nullptr);

/// Matches SQL LIKE patterns with '%' (any run) and '_' (any one char).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace prefdb

#endif  // PREFDB_EXPR_EXPR_H_
