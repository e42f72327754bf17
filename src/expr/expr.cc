#include "expr/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/string_util.h"

namespace prefdb {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLike:
      return "LIKE";
  }
  return "?";
}

std::string_view LogicalOpName(LogicalOp op) {
  return op == LogicalOp::kAnd ? "AND" : "OR";
}

std::string_view ArithmeticOpName(ArithmeticOp op) {
  switch (op) {
    case ArithmeticOp::kAdd:
      return "+";
    case ArithmeticOp::kSub:
      return "-";
    case ArithmeticOp::kMul:
      return "*";
    case ArithmeticOp::kDiv:
      return "/";
  }
  return "?";
}

bool IsTruthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return v.AsInt() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match with backtracking over the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

// --------------------------------------------------------------------------
// LiteralExpr

Status LiteralExpr::Bind(const Schema&) { return Status::OK(); }

Value LiteralExpr::Eval(const Tuple&) const { return value_; }

ExprPtr LiteralExpr::Clone() const { return std::make_unique<LiteralExpr>(value_); }

void LiteralExpr::CollectColumns(std::vector<std::string>*) const {}

bool LiteralExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kLiteral) return false;
  const auto& o = static_cast<const LiteralExpr&>(other);
  // Distinguish by type too: Int(1) vs Double(1.0) are different literals.
  return value_.type() == o.value_.type() && value_ == o.value_;
}

std::string LiteralExpr::ToString() const { return value_.ToString(); }

// --------------------------------------------------------------------------
// ColumnRefExpr

Status ColumnRefExpr::Bind(const Schema& schema) {
  ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name_));
  index_ = static_cast<int>(idx);
  return Status::OK();
}

Value ColumnRefExpr::Eval(const Tuple& tuple) const {
  if (index_ < 0 || static_cast<size_t>(index_) >= tuple.size()) return Value::Null();
  return tuple[static_cast<size_t>(index_)];
}

ExprPtr ColumnRefExpr::Clone() const { return std::make_unique<ColumnRefExpr>(name_); }

void ColumnRefExpr::CollectColumns(std::vector<std::string>* out) const {
  out->push_back(name_);
}

bool ColumnRefExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kColumnRef) return false;
  return EqualsIgnoreCase(name_, static_cast<const ColumnRefExpr&>(other).name_);
}

std::string ColumnRefExpr::ToString() const { return name_; }

// --------------------------------------------------------------------------
// ComparisonExpr

Status ComparisonExpr::Bind(const Schema& schema) {
  RETURN_IF_ERROR(left_->Bind(schema));
  return right_->Bind(schema);
}

Value ComparisonExpr::Eval(const Tuple& tuple) const {
  Value l = left_->Eval(tuple);
  Value r = right_->Eval(tuple);
  if (l.is_null() || r.is_null()) return Value::Null();
  if (op_ == CompareOp::kLike) {
    if (!l.is_string() || !r.is_string()) return Value::Null();
    return Value::Int(LikeMatch(l.AsString(), r.AsString()) ? 1 : 0);
  }
  int c = l.Compare(r);
  bool result = false;
  switch (op_) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
    case CompareOp::kLike:
      break;  // Handled above.
  }
  return Value::Int(result ? 1 : 0);
}

ExprPtr ComparisonExpr::Clone() const {
  return std::make_unique<ComparisonExpr>(op_, left_->Clone(), right_->Clone());
}

void ComparisonExpr::CollectColumns(std::vector<std::string>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

bool ComparisonExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kComparison) return false;
  const auto& o = static_cast<const ComparisonExpr&>(other);
  return op_ == o.op_ && left_->Equals(*o.left_) && right_->Equals(*o.right_);
}

std::string ComparisonExpr::ToString() const {
  return left_->ToString() + " " + std::string(CompareOpName(op_)) + " " +
         right_->ToString();
}

// --------------------------------------------------------------------------
// LogicalExpr

Status LogicalExpr::Bind(const Schema& schema) {
  RETURN_IF_ERROR(left_->Bind(schema));
  return right_->Bind(schema);
}

Value LogicalExpr::Eval(const Tuple& tuple) const {
  bool l = IsTruthy(left_->Eval(tuple));
  if (op_ == LogicalOp::kAnd) {
    if (!l) return Value::Int(0);
    return Value::Int(IsTruthy(right_->Eval(tuple)) ? 1 : 0);
  }
  if (l) return Value::Int(1);
  return Value::Int(IsTruthy(right_->Eval(tuple)) ? 1 : 0);
}

ExprPtr LogicalExpr::Clone() const {
  return std::make_unique<LogicalExpr>(op_, left_->Clone(), right_->Clone());
}

void LogicalExpr::CollectColumns(std::vector<std::string>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

bool LogicalExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kLogical) return false;
  const auto& o = static_cast<const LogicalExpr&>(other);
  return op_ == o.op_ && left_->Equals(*o.left_) && right_->Equals(*o.right_);
}

std::string LogicalExpr::ToString() const {
  return "(" + left_->ToString() + " " + std::string(LogicalOpName(op_)) + " " +
         right_->ToString() + ")";
}

// --------------------------------------------------------------------------
// NotExpr

Status NotExpr::Bind(const Schema& schema) { return operand_->Bind(schema); }

Value NotExpr::Eval(const Tuple& tuple) const {
  return Value::Int(IsTruthy(operand_->Eval(tuple)) ? 0 : 1);
}

ExprPtr NotExpr::Clone() const { return std::make_unique<NotExpr>(operand_->Clone()); }

void NotExpr::CollectColumns(std::vector<std::string>* out) const {
  operand_->CollectColumns(out);
}

bool NotExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kNot) return false;
  return operand_->Equals(static_cast<const NotExpr&>(other).operand());
}

std::string NotExpr::ToString() const { return "NOT (" + operand_->ToString() + ")"; }

// --------------------------------------------------------------------------
// ArithmeticExpr

Status ArithmeticExpr::Bind(const Schema& schema) {
  RETURN_IF_ERROR(left_->Bind(schema));
  return right_->Bind(schema);
}

Value ArithmeticExpr::Eval(const Tuple& tuple) const {
  return Arithmetic(op_, Numeric::Of(left_->Eval(tuple).view()),
                    Numeric::Of(right_->Eval(tuple).view()))
      .ToValue();
}

ExprPtr ArithmeticExpr::Clone() const {
  return std::make_unique<ArithmeticExpr>(op_, left_->Clone(), right_->Clone());
}

void ArithmeticExpr::CollectColumns(std::vector<std::string>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

bool ArithmeticExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kArithmetic) return false;
  const auto& o = static_cast<const ArithmeticExpr&>(other);
  return op_ == o.op_ && left_->Equals(*o.left_) && right_->Equals(*o.right_);
}

std::string ArithmeticExpr::ToString() const {
  return "(" + left_->ToString() + " " + std::string(ArithmeticOpName(op_)) + " " +
         right_->ToString() + ")";
}

// --------------------------------------------------------------------------
// FunctionExpr

namespace {

struct ScalarFunction {
  const char* name;
  int min_arity;
  int max_arity;
  Value (*eval)(std::span<const Value> args);
  NumericFunction numeric;  // Null unless every argument is read as a number.
};

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

Numeric Abs(const Numeric* a) {
  // |INT64_MIN| is no int64: it takes the double path.
  if (a[0].type == ValueType::kInt && a[0].bits != INT64_MIN) {
    return Numeric::Int(std::abs(a[0].bits));
  }
  if (a[0].is_null()) return {};
  return Numeric::Double(std::fabs(a[0].AsDouble()));
}

// std::min(std::max(v, lo), hi), which is what std::clamp computes; it is
// also defined when lo > hi, which std::clamp requires not to hold.
Numeric Clamp(const Numeric* a) {
  if (a[0].is_null() || a[1].is_null() || a[2].is_null()) return {};
  return Numeric::Double(
      std::min(std::max(a[0].AsDouble(), a[1].AsDouble()), a[2].AsDouble()));
}

// The paper's S_m(attr, x) = attr / x, clamped to [0, 1]: favours recency.
Numeric Recency(const Numeric* a) {
  if (a[0].is_null() || a[1].is_null()) return {};
  const double x = a[1].AsDouble();
  if (x == 0.0) return {};
  return Numeric::Double(Clamp01(a[0].AsDouble() / x));
}

// The paper's S_d(attr, x) = 1 - |attr - x| / x, clamped to [0, 1]:
// favours values near the target x.
Numeric Around(const Numeric* a) {
  if (a[0].is_null() || a[1].is_null()) return {};
  const double x = a[1].AsDouble();
  if (x == 0.0) return {};
  return Numeric::Double(Clamp01(1.0 - std::fabs(a[0].AsDouble() - x) / x));
}

// The paper's S_r(rating) = 0.1 * rating, as a named convenience.
Numeric RatingScore(const Numeric* a) {
  if (a[0].is_null()) return {};
  return Numeric::Double(Clamp01(0.1 * a[0].AsDouble()));
}

template <NumericFunction F>
Value EvalNumeric(std::span<const Value> a) {
  Numeric args[FunctionExpr::kMaxArity];
  for (size_t k = 0; k < a.size(); ++k) args[k] = Numeric::Of(a[k].view());
  return F(args).ToValue();
}

Value EvalMin(std::span<const Value> a) {
  Value best = a[0];
  for (const Value& v : a) {
    if (v.is_null()) return Value::Null();
    if (v.Compare(best) < 0) best = v;
  }
  return best;
}

Value EvalMax(std::span<const Value> a) {
  Value best = a[0];
  for (const Value& v : a) {
    if (v.is_null()) return Value::Null();
    if (v.Compare(best) > 0) best = v;
  }
  return best;
}

constexpr ScalarFunction kFunctions[] = {
    {"abs", 1, 1, &EvalNumeric<&Abs>, &Abs},
    {"min", 2, 8, &EvalMin, nullptr},
    {"max", 2, 8, &EvalMax, nullptr},
    {"clamp", 3, 3, &EvalNumeric<&Clamp>, &Clamp},
    {"recency", 2, 2, &EvalNumeric<&Recency>, &Recency},
    {"around", 2, 2, &EvalNumeric<&Around>, &Around},
    {"rating_score", 1, 1, &EvalNumeric<&RatingScore>, &RatingScore},
};

int FindFunction(std::string_view lower_name) {
  for (size_t i = 0; i < std::size(kFunctions); ++i) {
    if (lower_name == kFunctions[i].name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

NumericFunction FindNumericFunction(std::string_view lower_name) {
  const int id = FindFunction(lower_name);
  return id < 0 ? nullptr : kFunctions[id].numeric;
}

FunctionExpr::FunctionExpr(std::string name, std::vector<ExprPtr> args)
    : Expr(ExprKind::kFunction), name_(ToLower(name)), args_(std::move(args)) {}

bool FunctionExpr::IsKnownFunction(const std::string& name) {
  return FindFunction(ToLower(name)) >= 0;
}

Status FunctionExpr::Bind(const Schema& schema) {
  fn_id_ = FindFunction(name_);
  if (fn_id_ < 0) {
    return Status::NotFound("unknown scalar function: " + name_);
  }
  const ScalarFunction& fn = kFunctions[fn_id_];
  if (static_cast<int>(args_.size()) < fn.min_arity ||
      static_cast<int>(args_.size()) > fn.max_arity) {
    return Status::InvalidArgument(
        StrFormat("function %s expects %d..%d arguments, got %zu", fn.name,
                  fn.min_arity, fn.max_arity, args_.size()));
  }
  for (const ExprPtr& arg : args_) {
    RETURN_IF_ERROR(arg->Bind(schema));
  }
  return Status::OK();
}

Value FunctionExpr::Eval(const Tuple& tuple) const {
  if (fn_id_ < 0) return Value::Null();
  Value vals[kMaxArity];
  for (size_t k = 0; k < args_.size(); ++k) vals[k] = args_[k]->Eval(tuple);
  return kFunctions[fn_id_].eval({vals, args_.size()});
}

ExprPtr FunctionExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) args.push_back(a->Clone());
  return std::make_unique<FunctionExpr>(name_, std::move(args));
}

void FunctionExpr::CollectColumns(std::vector<std::string>* out) const {
  for (const ExprPtr& a : args_) a->CollectColumns(out);
}

bool FunctionExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kFunction) return false;
  const auto& o = static_cast<const FunctionExpr&>(other);
  if (name_ != o.name_ || args_.size() != o.args_.size()) return false;
  for (size_t i = 0; i < args_.size(); ++i) {
    if (!args_[i]->Equals(*o.args_[i])) return false;
  }
  return true;
}

std::string FunctionExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(args_.size());
  for (const ExprPtr& a : args_) parts.push_back(a->ToString());
  return name_ + "(" + StrJoin(parts, ", ") + ")";
}

// --------------------------------------------------------------------------
// InListExpr

Status InListExpr::Bind(const Schema& schema) { return operand_->Bind(schema); }

Value InListExpr::Eval(const Tuple& tuple) const {
  Value v = operand_->Eval(tuple);
  if (v.is_null()) return Value::Null();
  for (const Value& candidate : values_) {
    if (v == candidate) return Value::Int(1);
  }
  return Value::Int(0);
}

ExprPtr InListExpr::Clone() const {
  return std::make_unique<InListExpr>(operand_->Clone(), values_);
}

void InListExpr::CollectColumns(std::vector<std::string>* out) const {
  operand_->CollectColumns(out);
}

bool InListExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kInList) return false;
  const auto& o = static_cast<const InListExpr&>(other);
  if (!operand_->Equals(*o.operand_) || values_.size() != o.values_.size()) {
    return false;
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != o.values_[i]) return false;
  }
  return true;
}

std::string InListExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  return operand_->ToString() + " IN (" + StrJoin(parts, ", ") + ")";
}

// --------------------------------------------------------------------------
// Free helpers

// The const twin of Bind: the same checks, in a walk that neither clones
// nor records an index, so a binding test allocates nothing.
bool ExprBindsTo(const Expr& expr, const Schema& schema) {
  auto both = [&schema](const auto& e) {
    return ExprBindsTo(e.left(), schema) && ExprBindsTo(e.right(), schema);
  };
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return schema.HasColumn(static_cast<const ColumnRefExpr&>(expr).name());
    case ExprKind::kComparison:
      return both(static_cast<const ComparisonExpr&>(expr));
    case ExprKind::kLogical:
      return both(static_cast<const LogicalExpr&>(expr));
    case ExprKind::kArithmetic:
      return both(static_cast<const ArithmeticExpr&>(expr));
    case ExprKind::kNot:
      return ExprBindsTo(static_cast<const NotExpr&>(expr).operand(), schema);
    case ExprKind::kInList:
      return ExprBindsTo(static_cast<const InListExpr&>(expr).operand(), schema);
    case ExprKind::kFunction: {
      const auto& e = static_cast<const FunctionExpr&>(expr);
      const int fn = FindFunction(e.name());
      const int arity = static_cast<int>(e.args().size());
      return fn >= 0 && arity >= kFunctions[fn].min_arity &&
             arity <= kFunctions[fn].max_arity &&
             std::all_of(e.args().begin(), e.args().end(),
                         [&](const ExprPtr& arg) { return ExprBindsTo(*arg, schema); });
    }
  }
  return false;
}

Status CheckBinds(const Expr& expr, const Schema& schema) {
  if (ExprBindsTo(expr, schema)) return Status::OK();
  return expr.Clone()->Bind(schema);
}

std::vector<ExprPtr> SplitConjuncts(ExprPtr expr) {
  std::vector<ExprPtr> out;
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<LogicalExpr*>(expr.get())->op() == LogicalOp::kAnd) {
    auto* logical = static_cast<LogicalExpr*>(expr.get());
    std::vector<ExprPtr> left = SplitConjuncts(logical->TakeLeft());
    std::vector<ExprPtr> right = SplitConjuncts(logical->TakeRight());
    for (ExprPtr& e : left) out.push_back(std::move(e));
    for (ExprPtr& e : right) out.push_back(std::move(e));
    return out;
  }
  out.push_back(std::move(expr));
  return out;
}

void CollectConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr&>(expr).op() == LogicalOp::kAnd) {
    const auto& logical = static_cast<const LogicalExpr&>(expr);
    CollectConjuncts(logical.left(), out);
    CollectConjuncts(logical.right(), out);
    return;
  }
  out->push_back(&expr);
}

namespace {

bool FindEquiConjunctIn(const Expr& predicate, const Schema& left,
                        const Schema& right, std::string* left_col,
                        std::string* right_col) {
  if (predicate.kind() == ExprKind::kLogical) {
    const auto& logical = static_cast<const LogicalExpr&>(predicate);
    if (logical.op() != LogicalOp::kAnd) return false;
    return FindEquiConjunctIn(logical.left(), left, right, left_col, right_col) ||
           FindEquiConjunctIn(logical.right(), left, right, left_col, right_col);
  }
  if (predicate.kind() != ExprKind::kComparison) return false;
  const auto& cmp = static_cast<const ComparisonExpr&>(predicate);
  if (cmp.op() != CompareOp::kEq) return false;
  if (cmp.left().kind() != ExprKind::kColumnRef ||
      cmp.right().kind() != ExprKind::kColumnRef) {
    return false;
  }
  const std::string& a = static_cast<const ColumnRefExpr&>(cmp.left()).name();
  const std::string& b = static_cast<const ColumnRefExpr&>(cmp.right()).name();
  if (left.HasColumn(a) && right.HasColumn(b)) {
    *left_col = a;
    *right_col = b;
    return true;
  }
  if (left.HasColumn(b) && right.HasColumn(a)) {
    *left_col = b;
    *right_col = a;
    return true;
  }
  return false;
}

}  // namespace

bool FindEquiConjunct(const Expr& predicate, const Schema& left,
                      const Schema& right, std::string* left_col,
                      std::string* right_col, bool* whole) {
  if (!FindEquiConjunctIn(predicate, left, right, left_col, right_col)) {
    return false;
  }
  // Only a bare comparison can be the conjunct itself; under an AND the
  // match came from one operand.
  if (whole != nullptr) *whole = predicate.kind() == ExprKind::kComparison;
  return true;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) {
    return std::make_unique<LiteralExpr>(Value::Int(1));
  }
  ExprPtr acc = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(acc),
                                        std::move(conjuncts[i]));
  }
  return acc;
}

}  // namespace prefdb
