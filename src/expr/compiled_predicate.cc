#include "expr/compiled_predicate.h"

#include <algorithm>
#include <numeric>

namespace prefdb {

namespace {

// Appends to `out` the candidates of `sel` whose row in `rows` passes.
template <typename Pred>
size_t Keep(const uint32_t* sel, size_t n, const uint32_t* rows, uint32_t* out,
            Pred pred) {
  size_t k = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t t = sel[j];
    out[k] = t;
    k += pred(rows[t]) ? 1 : 0;
  }
  return k;
}

// Calls f(holds), where holds(c) is whether a three-way result c satisfies
// `op`: one instantiation of f's loop per operator.
template <typename F>
size_t WithCmp(CompareOp op, F f) {
  switch (op) {
    case CompareOp::kEq:
      return f([](int c) { return c == 0; });
    case CompareOp::kNe:
      return f([](int c) { return c != 0; });
    case CompareOp::kLt:
      return f([](int c) { return c < 0; });
    case CompareOp::kLe:
      return f([](int c) { return c <= 0; });
    case CompareOp::kGt:
      return f([](int c) { return c > 0; });
    case CompareOp::kGe:
      return f([](int c) { return c >= 0; });
    case CompareOp::kLike:
      break;  // Compiled as a fallback.
  }
  return 0;
}

int Three(int64_t a, int64_t b) { return (a > b) - (a < b); }

// `lit <op> x` as `x <flipped op> lit`.
CompareOp Flip(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

// IsTruthy of the value a view stands for.
bool Truthy(const ValueView& v) {
  switch (v.type) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return v.i != 0;
    case ValueType::kDouble:
      return v.d != 0.0;
    case ValueType::kString:
      return !v.s.empty();
  }
  return false;
}

// The column positions a bound expression reads.
void CollectBound(const Expr& e, std::vector<uint32_t>* out) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef: {
      const int idx = static_cast<const ColumnRefExpr&>(e).index();
      if (idx >= 0) out->push_back(static_cast<uint32_t>(idx));
      return;
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      CollectBound(c.left(), out);
      CollectBound(c.right(), out);
      return;
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(e);
      CollectBound(l.left(), out);
      CollectBound(l.right(), out);
      return;
    }
    case ExprKind::kNot:
      CollectBound(static_cast<const NotExpr&>(e).operand(), out);
      return;
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(e);
      CollectBound(a.left(), out);
      CollectBound(a.right(), out);
      return;
    }
    case ExprKind::kFunction:
      for (const ExprPtr& arg : static_cast<const FunctionExpr&>(e).args()) {
        CollectBound(*arg, out);
      }
      return;
    case ExprKind::kInList:
      CollectBound(static_cast<const InListExpr&>(e).operand(), out);
      return;
  }
}

// sel minus its ascending subsequence `sub`, into `out`.
size_t Minus(const uint32_t* sel, size_t n, const uint32_t* sub, size_t m,
             uint32_t* out) {
  size_t k = 0;
  size_t s = 0;
  for (size_t j = 0; j < n; ++j) {
    if (s < m && sub[s] == sel[j]) {
      ++s;
    } else {
      out[k++] = sel[j];
    }
  }
  return k;
}

const uint32_t* Iota() {
  static const std::vector<uint32_t> iota = [] {
    std::vector<uint32_t> v(CompiledPredicate::kBatch);
    std::iota(v.begin(), v.end(), 0u);
    return v;
  }();
  return iota.data();
}

}  // namespace

void ColumnProgram::Use(uint32_t column) {
  const uint32_t s = inputs_[column].stream;
  if (s >= reads_stream_.size()) reads_stream_.resize(s + 1, false);
  reads_stream_[s] = true;
}

std::vector<uint32_t> ColumnProgram::FallbackReads(const Expr& e) {
  std::vector<uint32_t> reads;
  CollectBound(e, &reads);
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  // A position past the schema evaluates to NULL in Expr::Eval; the
  // scratch tuple leaves it out the same way.
  std::erase_if(reads, [&](uint32_t c) { return c >= inputs_.size(); });
  for (uint32_t c : reads) Use(c);
  ++fallbacks_;
  return reads;
}

void ColumnProgram::Load(const std::vector<uint32_t>& reads,
                         const uint32_t* const* streams, uint32_t t,
                         Tuple* scratch) const {
  for (uint32_t c : reads) {
    const ColumnInput& ci = inputs_[c];
    (*scratch)[c] = ci.column->Get(streams[ci.stream][t]);
  }
}

CompiledPredicate::CompiledPredicate(const Expr& bound,
                                     std::vector<ColumnInput> inputs)
    : ColumnProgram(std::move(inputs)) {
  root_ = Compile(bound);
}

uint32_t CompiledPredicate::Add(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t CompiledPredicate::Fallback(const Expr& e) {
  Node node;
  node.op = Op::kFallback;
  node.expr = &e;
  node.reads = FallbackReads(e);
  return Add(std::move(node));
}

uint32_t CompiledPredicate::Compile(const Expr& e) {
  // A bound column reference inside the schema, or -1.
  auto column_of = [&](const Expr& x) -> int {
    if (x.kind() != ExprKind::kColumnRef) return -1;
    const int idx = static_cast<const ColumnRefExpr&>(x).index();
    return idx >= 0 && static_cast<size_t>(idx) < inputs_.size() ? idx : -1;
  };
  Node node;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      node.op = Op::kConst;
      node.truth = IsTruthy(static_cast<const LiteralExpr&>(e).value());
      return Add(std::move(node));
    case ExprKind::kColumnRef: {
      const int c = column_of(e);
      if (c < 0) return Fallback(e);
      node.op = Op::kTruthy;
      node.a = static_cast<uint32_t>(c);
      Use(node.a);
      return Add(std::move(node));
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(e);
      if (cmp.op() == CompareOp::kLike) return Fallback(e);
      const int lc = column_of(cmp.left());
      const int rc = column_of(cmp.right());
      const bool ll = cmp.left().kind() == ExprKind::kLiteral;
      const bool rl = cmp.right().kind() == ExprKind::kLiteral;
      if (ll && rl) {
        node.op = Op::kConst;
        node.truth = IsTruthy(e.Eval(Tuple()));
        return Add(std::move(node));
      }
      node.cmp = cmp.op();
      if (lc >= 0 && rc >= 0) {
        node.op = Op::kCmpCol;
        node.a = static_cast<uint32_t>(lc);
        node.b = static_cast<uint32_t>(rc);
        Use(node.a);
        Use(node.b);
        return Add(std::move(node));
      }
      int col = -1;
      if (lc >= 0 && rl) {
        col = lc;
        node.literal = static_cast<const LiteralExpr&>(cmp.right()).value();
      } else if (ll && rc >= 0) {
        col = rc;
        node.literal = static_cast<const LiteralExpr&>(cmp.left()).value();
        node.cmp = Flip(node.cmp);
      } else {
        return Fallback(e);
      }
      if (node.literal.is_null()) {  // `x <op> NULL` is NULL: never true.
        node.op = Op::kConst;
        node.truth = false;
        return Add(std::move(node));
      }
      node.op = Op::kCmpLit;
      node.a = static_cast<uint32_t>(col);
      Use(node.a);
      const TypedColumn& column = *inputs_[node.a].column;
      if (column.layout() == ColumnLayout::kDict && node.literal.is_string()) {
        const std::vector<std::string>& dict = column.dictionary();
        auto it = std::lower_bound(dict.begin(), dict.end(), node.literal.AsString());
        node.code = static_cast<uint32_t>(it - dict.begin());
        node.found = it != dict.end() && *it == node.literal.AsString();
      }
      return Add(std::move(node));
    }
    case ExprKind::kLogical: {
      const auto& logical = static_cast<const LogicalExpr&>(e);
      node.op = logical.op() == LogicalOp::kAnd ? Op::kAnd : Op::kOr;
      node.a = Compile(logical.left());
      node.b = Compile(logical.right());
      return Add(std::move(node));
    }
    case ExprKind::kNot:
      node.op = Op::kNot;
      node.a = Compile(static_cast<const NotExpr&>(e).operand());
      return Add(std::move(node));
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      const int c = column_of(in.operand());
      if (c < 0) return Fallback(e);
      node.op = Op::kIn;
      node.a = static_cast<uint32_t>(c);
      Use(node.a);
      node.list = in.values();
      const TypedColumn& column = *inputs_[node.a].column;
      if (column.layout() == ColumnLayout::kInt) {
        // An int equals an Int member, or a Double member holding exactly
        // that integer; no other member can match.
        for (const Value& v : node.list) {
          int64_t i;
          if (v.is_int()) {
            node.int_list.push_back(v.AsInt());
          } else if (v.is_double() && ExactInt64(v.AsDouble(), &i)) {
            node.int_list.push_back(i);
          }
        }
        std::sort(node.int_list.begin(), node.int_list.end());
      } else if (column.layout() == ColumnLayout::kDict) {
        const std::vector<std::string>& dict = column.dictionary();
        node.member.assign(dict.size(), 0);
        for (size_t code = 0; code < dict.size(); ++code) {
          for (const Value& v : node.list) {
            if (ValueView::String(dict[code]) == v.view()) node.member[code] = 1;
          }
        }
      }
      return Add(std::move(node));
    }
    case ExprKind::kArithmetic:
    case ExprKind::kFunction:
      return Fallback(e);
  }
  return Fallback(e);
}

size_t CompiledPredicate::Select(const uint32_t* const* streams, size_t n,
                                 uint32_t* out) const {
  return Run(root_, streams, Iota(), n, out);
}

size_t CompiledPredicate::Run(uint32_t index, const uint32_t* const* streams,
                              const uint32_t* sel, size_t n,
                              uint32_t* out) const {
  const Node& node = nodes_[index];
  switch (node.op) {
    case Op::kConst:
      if (!node.truth) return 0;
      std::copy(sel, sel + n, out);
      return n;
    case Op::kAnd: {
      std::vector<uint32_t> left(n);
      const size_t m = Run(node.a, streams, sel, n, left.data());
      return m == 0 ? 0 : Run(node.b, streams, left.data(), m, out);
    }
    case Op::kOr: {
      // The right operand sees only the rows the left one rejected; the
      // two passing sets are disjoint and merge back into order.
      std::vector<uint32_t> left(n);
      const size_t ml = Run(node.a, streams, sel, n, left.data());
      std::vector<uint32_t> rest(n - ml);
      const size_t mr = Minus(sel, n, left.data(), ml, rest.data());
      std::vector<uint32_t> right(mr);
      const size_t mp = mr == 0 ? 0 : Run(node.b, streams, rest.data(), mr, right.data());
      std::merge(left.begin(), left.begin() + ml, right.begin(), right.begin() + mp,
                 out);
      return ml + mp;
    }
    case Op::kNot: {
      std::vector<uint32_t> passed(n);
      const size_t m = Run(node.a, streams, sel, n, passed.data());
      return Minus(sel, n, passed.data(), m, out);
    }
    default:
      return RunLeaf(node, streams, sel, n, out);
  }
}

size_t CompiledPredicate::RunLeaf(const Node& node,
                                  const uint32_t* const* streams,
                                  const uint32_t* sel, size_t n,
                                  uint32_t* out) const {
  if (node.op == Op::kFallback) {
    Tuple scratch(inputs_.size());
    size_t k = 0;
    for (size_t j = 0; j < n; ++j) {
      const uint32_t t = sel[j];
      Load(node.reads, streams, t, &scratch);
      out[k] = t;
      k += IsTruthy(node.expr->Eval(scratch)) ? 1 : 0;
    }
    return k;
  }
  const ColumnInput& in = inputs_[node.a];
  const TypedColumn& col = *in.column;
  const uint32_t* rows = streams[in.stream];
  switch (node.op) {
    case Op::kCmpLit: {
      const Value& lit = node.literal;
      if (col.layout() == ColumnLayout::kInt && lit.is_int()) {
        const int64_t* data = col.ints();
        const int64_t v = lit.AsInt();
        return WithCmp(node.cmp, [&](auto holds) {
          if (!col.has_nulls()) {
            return Keep(sel, n, rows, out,
                        [&](uint32_t r) { return holds(Three(data[r], v)); });
          }
          return Keep(sel, n, rows, out, [&](uint32_t r) {
            return !col.NullBit(r) && holds(Three(data[r], v));
          });
        });
      }
      if (col.layout() == ColumnLayout::kDouble && lit.is_numeric()) {
        const double* data = col.doubles();
        return WithCmp(node.cmp, [&](auto holds) {
          if (lit.is_int()) {
            const int64_t v = lit.AsInt();
            return Keep(sel, n, rows, out, [&](uint32_t r) {
              return !col.NullBit(r) && holds(-CompareIntDouble(v, data[r]));
            });
          }
          const double v = lit.AsDouble();
          return Keep(sel, n, rows, out, [&](uint32_t r) {
            return !col.NullBit(r) && holds(CompareDoubles(data[r], v));
          });
        });
      }
      if (col.layout() == ColumnLayout::kDict && lit.is_string()) {
        // Codes follow string order: code x compares with the literal as x
        // compares with its lower bound `p` (equal only if it is there).
        const uint32_t* codes = col.codes();
        const uint32_t p = node.code;
        const bool found = node.found;
        return WithCmp(node.cmp, [&](auto holds) {
          return Keep(sel, n, rows, out, [&](uint32_t r) {
            const uint32_t x = codes[r];
            return x != TypedColumn::kNullCode &&
                   holds(x < p ? -1 : (found && x == p ? 0 : 1));
          });
        });
      }
      const ValueView v = lit.view();
      return WithCmp(node.cmp, [&](auto holds) {
        return Keep(sel, n, rows, out, [&](uint32_t r) {
          const ValueView x = col.View(r);
          return !x.is_null() && holds(x.Compare(v));
        });
      });
    }
    case Op::kCmpCol: {
      const ColumnInput& in_b = inputs_[node.b];
      const TypedColumn& col_b = *in_b.column;
      const uint32_t* rows_b = streams[in_b.stream];
      auto keep2 = [&](auto pred) {
        size_t k = 0;
        for (size_t j = 0; j < n; ++j) {
          const uint32_t t = sel[j];
          out[k] = t;
          k += pred(rows[t], rows_b[t]) ? 1 : 0;
        }
        return k;
      };
      if (col.layout() == ColumnLayout::kInt &&
          col_b.layout() == ColumnLayout::kInt) {
        const int64_t* a = col.ints();
        const int64_t* b = col_b.ints();
        return WithCmp(node.cmp, [&](auto holds) {
          return keep2([&](uint32_t ra, uint32_t rb) {
            return !col.NullBit(ra) && !col_b.NullBit(rb) && holds(Three(a[ra], b[rb]));
          });
        });
      }
      return WithCmp(node.cmp, [&](auto holds) {
        return keep2([&](uint32_t ra, uint32_t rb) {
          const ValueView x = col.View(ra);
          const ValueView y = col_b.View(rb);
          return !x.is_null() && !y.is_null() && holds(x.Compare(y));
        });
      });
    }
    case Op::kIn: {
      if (col.layout() == ColumnLayout::kInt) {
        const int64_t* data = col.ints();
        const std::vector<int64_t>& list = node.int_list;
        return Keep(sel, n, rows, out, [&](uint32_t r) {
          return !col.NullBit(r) &&
                 std::binary_search(list.begin(), list.end(), data[r]);
        });
      }
      if (col.layout() == ColumnLayout::kDict) {
        const uint32_t* codes = col.codes();
        const std::vector<uint8_t>& member = node.member;
        return Keep(sel, n, rows, out, [&](uint32_t r) {
          return codes[r] != TypedColumn::kNullCode && member[codes[r]] != 0;
        });
      }
      return Keep(sel, n, rows, out, [&](uint32_t r) {
        const ValueView x = col.View(r);
        if (x.is_null()) return false;
        for (const Value& v : node.list) {
          if (x == v.view()) return true;
        }
        return false;
      });
    }
    case Op::kTruthy:
      return Keep(sel, n, rows, out,
                  [&](uint32_t r) { return Truthy(col.View(r)); });
    default:
      return 0;
  }
}

CompiledScore::CompiledScore(const Expr& bound, std::vector<ColumnInput> inputs)
    : ColumnProgram(std::move(inputs)) {
  Compile(bound);
  registers_.resize(nodes_.size() * kBatch);
  for (uint32_t k = 0; k < nodes_.size(); ++k) {
    if (nodes_[k].op == Op::kConst) std::fill_n(Register(k), kBatch, nodes_[k].value);
  }
}

uint32_t CompiledScore::Add(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t CompiledScore::Compile(const Expr& e) {
  Node node;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      node.value = Numeric::Of(static_cast<const LiteralExpr&>(e).value().view());
      return Add(std::move(node));
    case ExprKind::kColumnRef: {
      // Outside the schema Expr::Eval reads NULL, and a string is never a
      // number: both are the constant ⊥.
      const int c = static_cast<const ColumnRefExpr&>(e).index();
      if (c >= 0 && static_cast<size_t>(c) < inputs_.size() &&
          inputs_[c].column->layout() != ColumnLayout::kDict &&
          inputs_[c].column->layout() != ColumnLayout::kArena) {
        node.op = Op::kColumn;
        node.column = static_cast<uint32_t>(c);
        Use(node.column);
      }
      return Add(std::move(node));
    }
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(e);
      node.op = Op::kArithmetic;
      node.arith = a.op();
      node.args = {Compile(a.left()), Compile(a.right())};
      break;
    }
    case ExprKind::kFunction: {
      const auto& f = static_cast<const FunctionExpr&>(e);
      node.fn = FindNumericFunction(f.name());
      if (node.fn != nullptr) {
        node.op = Op::kCall;
        for (const ExprPtr& arg : f.args()) node.args.push_back(Compile(*arg));
        break;
      }
      [[fallthrough]];
    }
    default:
      node.op = Op::kFallback;
      node.expr = &e;
      node.reads = FallbackReads(e);
      return Add(std::move(node));
  }
  // Over constants only (literals, or columns that read as ⊥, which every
  // compiled node treats as NULL), the node folds into the constant
  // Expr::Eval gives it. Its operands are the last nodes compiled.
  for (uint32_t arg : node.args) {
    if (nodes_[arg].op != Op::kConst) return Add(std::move(node));
  }
  nodes_.resize(nodes_.size() - node.args.size());
  Node folded;
  folded.value = Numeric::Of(e.Eval(Tuple()).view());
  return Add(std::move(folded));
}

size_t CompiledScore::Score(const uint32_t* const* streams, size_t n,
                            uint32_t* kept, double* scores) {
  for (uint32_t k = 0; k < nodes_.size(); ++k) Run(k, streams, n);
  const Numeric* root = Register(static_cast<uint32_t>(nodes_.size() - 1));
  size_t m = 0;
  for (size_t t = 0; t < n; ++t) {
    kept[m] = static_cast<uint32_t>(t);
    scores[m] = std::clamp(root[t].AsDouble(), 0.0, 1.0);
    m += root[t].is_null() ? 0 : 1;
  }
  return m;
}

void CompiledScore::Run(uint32_t index, const uint32_t* const* streams, size_t n) {
  const Node& node = nodes_[index];
  Numeric* out = Register(index);
  switch (node.op) {
    case Op::kConst:
      return;  // Filled when compiled.
    case Op::kColumn: {
      const ColumnInput& in = inputs_[node.column];
      const TypedColumn& col = *in.column;
      const uint32_t* rows = streams[in.stream];
      const bool ints = col.layout() == ColumnLayout::kInt;
      if (ints || col.layout() == ColumnLayout::kDouble) {
        for (size_t t = 0; t < n; ++t) {
          const uint32_t r = rows[t];
          out[t] = col.NullBit(r) ? Numeric()
                   : ints         ? Numeric::Int(col.ints()[r])
                                  : Numeric::Double(col.doubles()[r]);
        }
      } else {
        for (size_t t = 0; t < n; ++t) out[t] = Numeric::Of(col.View(rows[t]));
      }
      return;
    }
    case Op::kArithmetic: {
      const Numeric* l = Register(node.args[0]);
      const Numeric* r = Register(node.args[1]);
      for (size_t t = 0; t < n; ++t) out[t] = Arithmetic(node.arith, l[t], r[t]);
      return;
    }
    case Op::kCall: {
      Numeric operands[FunctionExpr::kMaxArity];
      for (size_t t = 0; t < n; ++t) {
        for (size_t k = 0; k < node.args.size(); ++k) {
          operands[k] = Register(node.args[k])[t];
        }
        out[t] = node.fn(operands);
      }
      return;
    }
    case Op::kFallback: {
      Tuple scratch(inputs_.size());
      for (size_t t = 0; t < n; ++t) {
        Load(node.reads, streams, static_cast<uint32_t>(t), &scratch);
        out[t] = Numeric::Of(node.expr->Eval(scratch).view());
      }
      return;
    }
  }
}

}  // namespace prefdb
